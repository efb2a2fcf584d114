//! Semantics preservation of the pre-decoded execution engine: its BDF
//! trajectories must be the tape interpreter's on both workload models, and decode + fusion must preserve the arithmetic
//! operation totals the paper's Table 1 reports.

use std::sync::Arc;
use std::time::Instant;

use rms_suite::workload::{
    generate_model, scaled_case, vulcanization_source, VulcanizationSpec, VULCANIZATION_RDL,
};
use rms_suite::{
    solve_bdf_with_jacobian, BoundKernel, CompiledArtifact, CompilerSession, ExecTape,
    JacobianSource, Kernel, KernelScratch, OptLevel, SessionOptions, TapeSimulator, FMA_CONTRACTS,
};

/// A session whose artifacts carry the analytic Jacobian tapes, so
/// `Source::Analytic` below really runs them.
fn deriv_session() -> CompilerSession {
    let mut options = SessionOptions::new(OptLevel::Full);
    options.deriv = true;
    CompilerSession::with_options(options)
}

fn rdl_model() -> Arc<CompiledArtifact> {
    deriv_session()
        .compile_source("<rdl>", VULCANIZATION_RDL)
        .expect("RDL workload model compiles")
        .artifact
}

fn programmatic_model() -> Arc<CompiledArtifact> {
    let model = generate_model(VulcanizationSpec {
        sites: 3,
        max_chain: 3,
        neighbourhood: 1,
    });
    deriv_session()
        .compile_network("<network>", model.network, model.rates)
        .expect("programmatic workload model compiles")
        .artifact
}

/// A Jacobian source of the BDF solver: the tapes the artifact carries,
/// which the simulator selects, or finite differences through the solver.
#[derive(Debug, Clone, Copy)]
enum Source {
    Analytic,
    FdDense,
}

/// The states at `times` on one of the model's evaluators (`"interp"`
/// or `"exec"`) and Jacobian source.
fn trajectory(
    model: &CompiledArtifact,
    source: Source,
    engine: &str,
    times: &[f64],
) -> Vec<Vec<f64>> {
    let choice = model.evaluators().into_iter().find(|c| c.engine == engine);
    let choice = choice.expect("every artifact carries interp and exec");
    let (rates, y0) = (&model.system.rate_values, &model.system.initial);
    let simulator = TapeSimulator::new(choice, y0.clone(), Vec::new());
    if let Source::Analytic = source {
        return simulator.trajectory(rates, 0, times).unwrap();
    }
    let bound = BoundKernel::new(simulator.engine_choice(), rates);
    let source = JacobianSource::FdDense;
    solve_bdf_with_jacobian(&bound, 0.0, y0, times, simulator.options, source)
        .unwrap()
        .0
}

/// The interpreter and the execution engine must produce equivalent BDF
/// trajectories (1e-6 relative) on both workload models and under every
/// Jacobian source. Without FMA contraction the engines are arithmetic-
/// identical, so the tolerance only has to absorb contraction drift.
#[test]
fn bdf_trajectories_agree_across_engines_on_both_models() {
    let times = [0.1, 0.4, 1.0];
    for (model, label) in [(rdl_model(), "rdl"), (programmatic_model(), "programmatic")] {
        for mode in [Source::FdDense, Source::Analytic] {
            let interp = trajectory(&model, mode, "interp", &times);
            let exec = trajectory(&model, mode, "exec", &times);
            for (row, (a_row, b_row)) in interp.iter().zip(&exec).enumerate() {
                for (a, b) in a_row.iter().zip(b_row) {
                    assert!(
                        (a - b).abs() <= 1e-6 * a.abs().max(1e-9),
                        "{label}/{mode:?} t={}: interp {a} vs exec {b}",
                        times[row]
                    );
                }
            }
            // Same step-size decisions, same arithmetic: the default
            // (non-contracting) build must agree bitwise.
            if !FMA_CONTRACTS {
                assert_eq!(
                    interp, exec,
                    "{label}/{mode:?}: engines should be bitwise equal"
                );
            }
        }
    }
}

/// Decode and peephole fusion preserve the operation totals: an FMA
/// superinstruction counts as one multiply plus one add, so
/// `ExecTape::op_counts()` must equal the source tape's on both models.
#[test]
fn exec_op_counts_match_tape_on_both_models() {
    for (model, label) in [(rdl_model(), "rdl"), (programmatic_model(), "programmatic")] {
        let tape = &model.compiled.tape;
        let exec = ExecTape::compile(tape);
        assert_eq!(
            exec.op_counts(),
            tape.op_counts(),
            "{label}: decode/fusion changed the arithmetic op totals"
        );
        // Fusion actually fires on real chemistry tapes (mass-action
        // sums are chains of multiply-accumulates), so the decoded
        // program must be strictly shorter than the source.
        assert!(
            exec.len() < tape.len(),
            "{label}: expected FMA fusion to shorten the program ({} vs {})",
            exec.len(),
            tape.len()
        );
    }
}

/// Mean microseconds per call of `f`, over calls until `budget_s` passed.
fn per_call_us(budget_s: f64, mut f: impl FnMut()) -> f64 {
    let (start, mut calls) = (Instant::now(), 0u32);
    while calls < 10 || start.elapsed().as_secs_f64() < budget_s {
        f();
        calls += 1;
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(calls)
}

/// What the derivative group costs per call on the interpreter and on
/// the exec engine, on the benchmark's `rdl_fit` model (chains 2..16)
/// and on Table 1 case 4 at 1/25 (`vulc5k`): exec's first `rhs_jac`
/// (which decodes the group), a steady `rhs_jac`, and the `∂f/∂p` that
/// resumes over it. A record, not a gate: it asserts nothing about time.
///
/// `cargo test --release -p rms-suite --test exec_engine -- --ignored derivative_group_cost_record --nocapture`
#[test]
#[ignore]
fn derivative_group_cost_record() {
    let mut options = SessionOptions::new(OptLevel::Full);
    options.sensitivity = true;
    let session = CompilerSession::with_options(options);
    let rdl_fit = (session.compile_source("<rdl_fit>", &vulcanization_source(16)))
        .expect("rdl_fit's model compiles")
        .artifact;
    let case = scaled_case(4, 25);
    let vulc5k = (session.compile_network("<vulc5k>", case.network, case.rates))
        .expect("case 4 at 1/25 compiles")
        .artifact;
    println!("model    species   jac_nnz engine  first_rhs_jac_us  rhs_jac_us  dfdp_resumed_us");
    for (label, artifact) in [("rdl_fit", rdl_fit), ("vulc5k", vulc5k)] {
        let rates = &artifact.system.rate_values;
        let n = artifact.system.len();
        let states: Vec<Vec<f64>> = (0..2)
            .map(|s| {
                (0..n)
                    .map(|i| 0.1 + 0.01 * ((i + 7 * s) % 13) as f64)
                    .collect()
            })
            .collect();
        for choice in artifact.evaluators() {
            let kernel: &dyn Kernel = &*choice.kernel;
            let nnz = kernel.jac_entries().expect("group compiled").len();
            let dfdp_nnz = kernel.dfdp_entries().expect("tail compiled").len();
            let (mut ydot, mut vals, mut dfdp) =
                (vec![0.0; n], vec![0.0; nnz], vec![0.0; dfdp_nnz]);
            let mut scratch = KernelScratch::default();
            let start = Instant::now();
            kernel.rhs_jac(rates, &states[0], &mut ydot, &mut vals, &mut scratch);
            let first_us = start.elapsed().as_secs_f64() * 1e6;
            let mut turn = 0;
            let rhs_jac_us = per_call_us(0.5, || {
                turn = (turn + 1) % states.len();
                kernel.rhs_jac(rates, &states[turn], &mut ydot, &mut vals, &mut scratch);
            });
            let y = &states[turn];
            let dfdp_us = per_call_us(0.5, || kernel.dfdp(rates, y, &mut dfdp, &mut scratch));
            println!(
                "{label:8} {n:8} {nnz:9} {:7} {first_us:16.1} {rhs_jac_us:11.2} {dfdp_us:16.2}",
                choice.engine
            );
        }
    }
}
