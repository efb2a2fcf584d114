//! Cross-crate integration tests for the sparse Newton path: BDF
//! trajectories under `--linear-solver sparse` match the dense baseline
//! on both workload model families and both sparsity-aware Jacobian
//! sources, and the factorization actually is sparse (nnz(L+U) ≪ n²).

use rms_suite::{
    solve_bdf_with_jacobian, BoundKernel, CompilerSession, DerivGroup, EngineMode, JacobianMode,
    LinearSolver, OptLevel, SessionOptions, SolverOptions, SuiteModel,
};
use rms_workload::{scaled_case, VulcanizationModel, VULCANIZATION_RDL};

/// A session whose artifacts carry the analytic Jacobian tapes.
fn deriv_session() -> CompilerSession {
    let mut options = SessionOptions::new(OptLevel::Full);
    options.deriv = true;
    CompilerSession::with_options(options)
}

fn compile_network(model: VulcanizationModel) -> SuiteModel {
    SuiteModel::from_artifact(
        deriv_session()
            .compile_network("<network>", model.network, model.rates)
            .expect("workload models always compile")
            .artifact,
    )
}

/// Short horizon, tight tolerances: at loose tolerances the step
/// controller amplifies last-bit differences between the two linear
/// solvers into tolerance-level trajectory noise; run near roundoff and
/// the comparison isolates the linear algebra.
const TIMES: [f64; 4] = [0.0125, 0.025, 0.0375, 0.05];

fn tight(linear_solver: LinearSolver, rtol: f64, atol: f64) -> SolverOptions {
    SolverOptions {
        linear_solver,
        rtol,
        atol,
        max_steps: 4_000_000,
        ..SolverOptions::default()
    }
}

/// Max norm-relative difference between two stacked trajectories.
fn rel_diff(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(ya, yb)| {
            let norm = ya.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-300);
            let diff = ya
                .iter()
                .zip(yb)
                .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()));
            diff / norm
        })
        .fold(0.0, f64::max)
}

/// Sparse-vs-dense agreement for one model under both sparsity-aware
/// Jacobian sources (analytic tapes and colored finite differences).
/// The tolerance pair is per-model: as tight as its scaling admits.
fn assert_solvers_agree(model: &SuiteModel, label: &str, rtol: f64, atol: f64) {
    for mode in [JacobianMode::Analytic, JacobianMode::FdColored] {
        let dense = model
            .simulate_configured(
                &TIMES,
                tight(LinearSolver::Dense, rtol, atol),
                mode,
                EngineMode::Exec,
            )
            .unwrap_or_else(|e| panic!("{label}/{mode:?}: dense solve failed: {e}"));
        let sparse = model
            .simulate_configured(
                &TIMES,
                tight(LinearSolver::Sparse, rtol, atol),
                mode,
                EngineMode::Exec,
            )
            .unwrap_or_else(|e| panic!("{label}/{mode:?}: sparse solve failed: {e}"));
        let diff = rel_diff(&dense, &sparse);
        assert!(
            diff <= 1e-12,
            "{label}/{mode:?}: sparse trajectory deviates from dense by {diff:.3e}"
        );
        assert!(
            sparse.iter().flatten().all(|v| v.is_finite()),
            "{label}/{mode:?}: non-finite state"
        );
        // Non-vacuity: the system genuinely evolved over the horizon —
        // a trajectory frozen at y0 would agree trivially.
        let moved = sparse
            .last()
            .unwrap()
            .iter()
            .zip(&model.system.initial)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        assert!(
            moved > 1e-6,
            "{label}/{mode:?}: state never moved ({moved:e})"
        );
    }
}

#[test]
fn sparse_matches_dense_on_programmatic_workload() {
    let model = scaled_case(2, 100);
    let compiled = compile_network(model);
    assert_solvers_agree(&compiled, "scaled_case(2, 100)", 1e-11, 1e-14);
}

#[test]
fn sparse_matches_dense_on_rdl_workload() {
    let compiled = SuiteModel::from_artifact(
        deriv_session()
            .compile_source("<rdl>", VULCANIZATION_RDL)
            .expect("bundled RDL model compiles")
            .artifact,
    );
    // The RDL model's scaling underflows the step size below rtol 1e-10.
    assert_solvers_agree(&compiled, "VULCANIZATION_RDL", 1e-10, 1e-13);
}

/// On a scale-25 Table 1 case the factorization the solver reports is
/// genuinely sparse: nnz(L+U) stays far below the n² a dense LU carries,
/// and the run actually factors through the sparse kernel.
#[test]
fn solver_stats_report_sparse_fill() {
    let model = scaled_case(2, 25);
    let compiled = compile_network(model);
    let n = compiled.system.len();
    assert!(
        n >= 300,
        "scale-25 case 2 should be a few hundred equations"
    );

    let choice = compiled.kernel(EngineMode::Exec);
    let bound = BoundKernel::new(&choice, &compiled.system.rate_values, DerivGroup::Jacobian);

    let options = SolverOptions {
        linear_solver: LinearSolver::Sparse,
        ..SolverOptions::default()
    };
    let (sol, stats) = solve_bdf_with_jacobian(
        &bound,
        0.0,
        &compiled.system.initial,
        &[0.01],
        options,
        bound.jacobian_source(JacobianMode::Analytic),
    )
    .expect("sparse BDF solve succeeds");

    assert_eq!(sol.len(), 1);
    assert!(stats.factorizations > 0, "no factorizations recorded");
    assert!(stats.fill_nnz > 0, "fill gauge never set");
    assert!(
        stats.fill_nnz * 10 <= n * n,
        "fill {} is not \u{226a} n\u{b2} = {}",
        stats.fill_nnz,
        n * n
    );

    // The dense path reports the dense gauge, for contrast.
    let options = SolverOptions {
        linear_solver: LinearSolver::Dense,
        ..SolverOptions::default()
    };
    let (_, dense_stats) = solve_bdf_with_jacobian(
        &bound,
        0.0,
        &compiled.system.initial,
        &[0.01],
        options,
        bound.jacobian_source(JacobianMode::Analytic),
    )
    .expect("dense BDF solve succeeds");
    assert_eq!(dense_stats.fill_nnz, n * n);
}
