//! Semantics preservation of the pre-decoded execution engine: its BDF
//! trajectories must be the tape interpreter's on both workload models, and decode + fusion must preserve the arithmetic
//! operation totals the paper's Table 1 reports.

use std::sync::Arc;

use rms_suite::workload::{generate_model, VulcanizationSpec, VULCANIZATION_RDL};
use rms_suite::{
    solve_bdf_with_jacobian, BoundKernel, CompiledArtifact, CompilerSession, ExecTape,
    JacobianSource, OptLevel, SessionOptions, TapeSimulator, FMA_CONTRACTS,
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
    FdColored,
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
    let choice = simulator.engine_choice();
    let source = match source {
        Source::Analytic => return simulator.trajectory(rates, 0, times).unwrap(),
        Source::FdColored => JacobianSource::FdColored(choice.patterns.fd()),
        Source::FdDense => JacobianSource::FdDense,
    };
    let bound = BoundKernel::new(choice, rates);
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
        for mode in [Source::FdDense, Source::FdColored, Source::Analytic] {
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
