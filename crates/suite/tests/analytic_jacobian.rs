//! Semantics preservation of the compiled analytic Jacobian: the tape
//! pair must agree with finite differences at every optimization level,
//! on both workload models, and the BDF trajectories must be independent
//! of the Jacobian source.

use std::sync::Arc;

use rms_suite::workload::{generate_model, VulcanizationSpec, VULCANIZATION_RDL};
use rms_suite::{
    fd_jacobian, fd_jacobian_colored, solve_bdf_with_jacobian, AnalyticJacobian, BoundKernel,
    CompiledArtifact, CompilerSession, EngineMode, JacobianSource, OdeRhs, OptLevel,
    SessionOptions, TapeSimulator,
};

const LEVELS: [OptLevel; 4] = [
    OptLevel::None,
    OptLevel::Simplify,
    OptLevel::Algebraic,
    OptLevel::Full,
];

/// A session whose artifacts carry the analytic Jacobian tapes.
fn deriv_session(level: OptLevel) -> CompilerSession {
    let mut options = SessionOptions::new(level);
    options.deriv = true;
    CompilerSession::with_options(options)
}

fn rdl_model(level: OptLevel) -> Arc<CompiledArtifact> {
    deriv_session(level)
        .compile_source("<rdl>", VULCANIZATION_RDL)
        .expect("RDL workload model compiles")
        .artifact
}

fn programmatic_model(level: OptLevel) -> Arc<CompiledArtifact> {
    let model = generate_model(VulcanizationSpec {
        sites: 3,
        max_chain: 3,
        neighbourhood: 1,
    });
    deriv_session(level)
        .compile_network("<network>", model.network, model.rates)
        .expect("programmatic workload model compiles")
        .artifact
}

/// A generic strictly positive state so every structural entry is
/// exercised away from the zero-concentration special case.
fn probe_state(n: usize) -> Vec<f64> {
    (0..n).map(|i| 0.2 + 0.05 * (i % 7) as f64).collect()
}

/// Analytic tape values vs dense FD over the compiled RHS tape, and
/// exactness of the extracted sparsity (off-pattern entries vanish).
fn check_against_dense_fd(model: &CompiledArtifact, label: &str) {
    let n = model.system.len();
    // The interpreter kernel bound to the model's own rates: the RHS the
    // finite differences perturb and the analytic provider they check.
    let choice = model.kernel(EngineMode::Interp);
    let provider = BoundKernel::new(&choice, &model.system.rate_values);
    let rhs = &provider;

    let entries = choice.kernel.jac_entries().unwrap();
    assert_eq!(choice.kernel.n_species(), n, "{label}");
    let y = probe_state(n);
    let mut vals = vec![0.0; entries.len()];
    provider.eval_values(0.0, &y, &mut vals);

    let mut f = vec![0.0; n];
    rhs.eval(0.0, &y, &mut f);
    let (dense, _) = fd_jacobian(rhs, 0.0, &y, &f);

    let mut in_pattern = vec![vec![false; n]; n];
    for (&(i, j), &a) in entries.iter().zip(&vals) {
        in_pattern[i as usize][j as usize] = true;
        let b = dense[(i as usize, j as usize)];
        assert!(
            (a - b).abs() <= 1e-6 * a.abs().max(1.0),
            "{label}: entry ({i},{j}): analytic {a} vs dense FD {b}"
        );
    }
    for i in 0..n {
        for j in 0..n {
            if !in_pattern[i][j] {
                let b = dense[(i, j)];
                assert!(
                    b.abs() <= 1e-6,
                    "{label}: ({i},{j}) outside the pattern but dense FD sees {b}"
                );
            }
        }
    }
}

/// Analytic tape values vs colored FD over the exact analytic pattern.
fn check_against_colored_fd(model: &CompiledArtifact, label: &str) {
    let n = model.system.len();
    let choice = model.kernel(EngineMode::Interp);
    let provider = BoundKernel::new(&choice, &model.system.rate_values);
    let rhs = &provider;

    let entries = choice.kernel.jac_entries().unwrap();
    let y = probe_state(n);
    let mut vals = vec![0.0; entries.len()];
    provider.eval_values(0.0, &y, &mut vals);

    let pattern = provider.pattern();
    let (colors, n_colors) = pattern.color_columns();
    let mut f = vec![0.0; n];
    rhs.eval(0.0, &y, &mut f);
    let (colored, evals) = fd_jacobian_colored(rhs, 0.0, &y, &f, pattern, &colors, n_colors);
    assert!(evals <= n, "{label}: coloring should not exceed n");

    for (&(i, j), &a) in entries.iter().zip(&vals) {
        let b = colored[(i as usize, j as usize)];
        assert!(
            (a - b).abs() <= 1e-6 * a.abs().max(1.0),
            "{label}: entry ({i},{j}): analytic {a} vs colored FD {b}"
        );
    }
}

#[test]
fn analytic_matches_dense_fd_at_every_level_rdl_model() {
    for level in LEVELS {
        check_against_dense_fd(&rdl_model(level), &format!("rdl/{level}"));
    }
}

#[test]
fn analytic_matches_dense_fd_at_every_level_programmatic_model() {
    for level in LEVELS {
        check_against_dense_fd(&programmatic_model(level), &format!("programmatic/{level}"));
    }
}

#[test]
fn analytic_matches_colored_fd_on_both_models() {
    check_against_colored_fd(&rdl_model(OptLevel::Full), "rdl/full");
    check_against_colored_fd(&programmatic_model(OptLevel::Full), "programmatic/full");
}

#[test]
fn bdf_trajectories_agree_across_jacobian_sources() {
    let times = [0.1, 0.4, 1.0];
    for (model, label) in [
        (rdl_model(OptLevel::Full), "rdl"),
        (programmatic_model(OptLevel::Full), "programmatic"),
    ] {
        // The simulator solves on the tapes; the finite-difference sources
        // are reached through the solver over the same kernel.
        let simulator = TapeSimulator::from_artifact(&model, Vec::new());
        let rates = &model.system.rate_values;
        let analytic = simulator.trajectory(rates, 0, &times).unwrap();
        let choice = simulator.engine_choice();
        let bound = BoundKernel::new(choice, rates);
        let fd = |source| {
            let y0 = &model.system.initial;
            solve_bdf_with_jacobian(&bound, 0.0, y0, &times, simulator.options, source)
                .unwrap()
                .0
        };
        let dense = fd(JacobianSource::FdDense);
        let colored = fd(JacobianSource::FdColored(choice.patterns.fd()));
        for (source, other) in [("analytic", analytic), ("fd-colored", colored)] {
            for (row, (a_row, b_row)) in dense.iter().zip(&other).enumerate() {
                for (a, b) in a_row.iter().zip(b_row) {
                    assert!(
                        (a - b).abs() <= 1e-4 * a.abs().max(1e-9),
                        "{label}/{source} t={}: {a} vs {b}",
                        times[row]
                    );
                }
            }
        }
    }
}
