//! # rms-suite — the Reaction Modeling Suite, end to end
//!
//! One-stop facade over the whole pipeline of the paper's Figure 2:
//!
//! ```text
//! RDL source ──► chemical compiler ──► reaction network
//!     rate/bound statements ──► RCIP ──► rate table
//! network + rates ──► equation generator ──► ODE system
//! ODE system ──► algebraic optimizer + CSE ──► tape / C code
//! tape + data files ──► parallel parameter estimator ──► fitted kinetics
//! ```
//!
//! Compilation routes through the pass-managed [`CompilerSession`] in
//! `rms-driver`: every compile is staged, instrumented (see
//! [`CompiledArtifact::report`]), and cached by content address, so
//! repeated compiles of the same model — CLI invocations, estimator
//! sweeps, benchmark harnesses — share one [`CompiledArtifact`] per
//! process.
//!
//! There is one solve path from an artifact to a trajectory: a
//! [`TapeSimulator`] over it, whose one BDF integration per solve `rmsc
//! simulate`, `rmsc estimate`, `rms-serve` and the benchmark all run.
//!
//! ```
//! use rms_suite::{compile_source, emit_c, OptLevel, TapeSimulator};
//!
//! let model = compile_source(r#"
//!     rate K_sc = 2;
//!     molecule DiS = "CSSC" init 1.0;
//!     rule scission {
//!         site bond S ~ S order single;
//!         action disconnect;
//!         rate K_sc;
//!     }
//! "#, OptLevel::Full).unwrap();
//! assert_eq!(model.system.len(), 2);
//! let c_code = emit_c(&model.compiled.forest, "ode_rhs");
//! assert!(c_code.contains("void ode_rhs"));
//! let simulator = TapeSimulator::from_artifact(&model, vec![1.0; 2]);
//! let states = simulator.trajectory(&model.system.rate_values, 0, &[0.5]).unwrap();
//! assert_eq!(states[0].len(), 2);
//! ```

#![warn(missing_docs)]

use std::sync::Arc;

pub mod cli;

pub use rms_core::{
    compact_registers, emit_c, generic_compile, generic_compile_best_effort, lower, optimize,
    optimize_with_passes, probe_toolchain, CompiledOde, CseOptions, ExecTape, Expr, ExprForest,
    GenericError, GenericOptions, Kernel, KernelScratch, OptLevel, Passes, Tape, FMA_CONTRACTS,
    IR_BYTES_PER_OP,
};
pub use rms_driver::{
    cache, CacheMode, CacheStatus, Compiled, CompiledArtifact, CompilerSession, Diagnostic,
    KernelChoice, SessionOptions, Stage,
};
pub use rms_molecule as molecule;
pub use rms_nlopt::{FitStatistics, LmOptions, Residual};
pub use rms_odegen::{generate, GenerateOptions, OdeSystem};
pub use rms_parallel::{
    block_schedule, lpt_schedule, makespan, EstimatorConfig, ExperimentFile, FailurePolicy,
    FaultPlan, ParallelEstimator, Simulator,
};
pub use rms_rcip::RateTable;
pub use rms_rdl::{
    compile as compile_network, expand_program, parse_rdl, EngineOptions, ReactionNetwork,
};
pub use rms_solver::{
    fd_jacobian, fd_step, solve_bdf, solve_bdf_sensitivities, solve_bdf_with_jacobian,
    AnalyticJacobian, Bdf, FnRhs, JacobianSource, LinearSolver, NewtonPlan, OdeRhs, SolveStats,
    SolverOptions, SparsityPattern, SPARSE_COST_PER_MAC,
};
pub use rms_workload as workload;
pub use rms_workload::{BoundKernel, TapeSimulator};

/// Any error from the end-to-end pipeline: a span-carrying diagnostic
/// naming the [`Stage`] that rejected the model.
pub type SuiteError = Diagnostic;

/// Compile RDL source text all the way to an optimized model a solve
/// can run: the *Deriv* stage emits the Jacobian every solve takes.
/// Cached: recompiling identical source at the same level shares one
/// artifact per process.
pub fn compile_source(source: &str, level: OptLevel) -> Result<Arc<CompiledArtifact>, SuiteError> {
    Ok(solvable(level).compile_source("<rdl>", source)?.artifact)
}

/// Compile an already-built network (programmatic workloads), with the
/// *Deriv* stage as [`compile_source`]. Cached by the network's
/// structural fingerprint.
pub fn compile_model(
    network: ReactionNetwork,
    rates: RateTable,
    level: OptLevel,
) -> Result<Arc<CompiledArtifact>, SuiteError> {
    Ok(solvable(level)
        .compile_network("<network>", network, rates)?
        .artifact)
}

/// A session at `level` that compiles the *Deriv* stage.
fn solvable(level: OptLevel) -> CompilerSession {
    CompilerSession::with_options(SessionOptions {
        deriv: true,
        ..SessionOptions::new(level)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
        rate K_sc = 2;
        rate K_rec = 1;
        molecule TetraS = "CS{n}C" for n in 2..4 init 1.0;
        rule scission {
            site bond S ~ S order single;
            action disconnect;
            rate K_sc;
        }
        rule recombine {
            site pair S & radical, S & radical;
            action connect single;
            rate K_rec;
        }
        limit atoms 12;
        forbid chain S > 4;
    "#;

    /// The state at `times` on the artifact's kernel.
    fn trajectory(model: &CompiledArtifact, times: &[f64]) -> Vec<Vec<f64>> {
        let simulator = TapeSimulator::from_artifact(model, Vec::new());
        simulator
            .trajectory(&model.system.rate_values, 0, times)
            .unwrap()
    }

    #[test]
    fn end_to_end_compiles() {
        let model = compile_source(SRC, OptLevel::Full).unwrap();
        assert!(model.system.len() >= 3);
        assert!(model.compiled.tape.op_counts().total() > 0);
        let c = emit_c(&model.compiled.forest, "rubber_rhs");
        assert!(c.contains("void rubber_rhs"));
        // The session attached a staged report to the artifact.
        assert!(model.report.stage(Stage::Parse).is_some());
        assert!(model.report.stage(Stage::Lower).is_some());
    }

    #[test]
    fn optimization_levels_preserve_dynamics() {
        let times = [0.1, 0.5];
        let reference = trajectory(&compile_source(SRC, OptLevel::None).unwrap(), &times);
        for level in [OptLevel::Simplify, OptLevel::Algebraic, OptLevel::Full] {
            let sol = trajectory(&compile_source(SRC, level).unwrap(), &times);
            for (a, b) in reference.iter().flatten().zip(sol.iter().flatten()) {
                assert!((a - b).abs() < 1e-6, "{level}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn species_lookup_and_observable() {
        let model = compile_source(SRC, OptLevel::Full).unwrap();
        let index = model.network.species_by_name("TetraS_2").expect("named");
        assert!(model.network.species_by_name("nope").is_none());
        let mut observable = vec![0.0; model.system.len()];
        observable[index.0 as usize] = 1.0;
        let sim = TapeSimulator::from_artifact(&model, observable);
        let v = sim.simulate(&model.system.rate_values, 0, &[0.05]).unwrap();
        // TetraS_2 is consumed from 1.0 downwards.
        assert!(v[0] > 0.0 && v[0] < 1.0, "{v:?}");
    }

    #[test]
    fn repeated_compiles_share_the_artifact() {
        let a = compile_source(SRC, OptLevel::Full).unwrap();
        let b = compile_source(SRC, OptLevel::Full).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
