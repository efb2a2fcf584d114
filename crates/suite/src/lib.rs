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
//! [`SuiteModel::report`]), and cached by content address, so repeated
//! compiles of the same model — CLI invocations, estimator sweeps,
//! benchmark harnesses — share one artifact per process.
//!
//! ```
//! use rms_suite::{compile_source, OptLevel};
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
//! let c_code = model.emit_c("ode_rhs");
//! assert!(c_code.contains("void ode_rhs"));
//! ```

#![warn(missing_docs)]

use std::sync::Arc;

pub mod cli;

pub use rms_core::{
    compact_registers, compile_jacobian, compile_sensitivity, differentiate_forest, emit_c,
    emit_kernel, generic_compile, generic_compile_best_effort, lower, optimize,
    optimize_with_passes, probe_toolchain, species_dependencies, CompiledOde, CseOptions,
    DerivTapes, ExecFrame, ExecTape, Expr, ExprForest, GenericError, GenericOptions, JacobianTapes,
    Kernel, KernelMeta, KernelScratch, KernelSpec, NativeError, NativeKernel, OptLevel, Passes,
    SensitivityTapes, Tape, Toolchain, FMA_CONTRACTS, IR_BYTES_PER_OP, PAPER_MEMORY_BUDGET,
};
pub use rms_driver::{
    cache, resolve_auto, CacheMode, CacheStats, CacheStatus, Compiled, CompiledArtifact,
    CompilerSession, Diagnostic, EngineMode, KernelChoice, PipelineReport, SessionOptions, Span,
    Stage, StageRecord, NATIVE_CROSSOVER_INSTRS,
};
pub use rms_molecule as molecule;
pub use rms_nlopt::{bounded_fd_step, FitStatistics, LmOptions, LmResult, Residual, StopReason};
pub use rms_odegen::{generate, GenerateOptions, OdeSystem, OpCounts};
pub use rms_parallel::{
    available_threads, block_schedule, lpt_schedule, makespan, run_cluster, run_cluster_with,
    CommConfig, CommError, EstimatorConfig, EstimatorError, ExperimentFile, FailurePolicy,
    FaultPlan, FaultySimulator, HealthReport, ParallelEstimator, RankPanic, ResidualJacobianMode,
    RetryPolicy, ScheduleError, Simulator,
};
pub use rms_rcip::RateTable;
pub use rms_rdl::{
    compile as compile_network, compile_with_options, expand_program, parse_rdl, CompiledModel,
    EngineOptions, NetworkStats, Program, ReactionNetwork,
};
pub use rms_solver::{
    fd_jacobian, fd_jacobian_colored, fd_step, solve_adams, solve_bdf, solve_bdf_sensitivities,
    solve_bdf_with_jacobian, solve_rk45, AnalyticJacobian, Bdf, CsrMatrix, FnRhs, JacobianSource,
    LinearSolver, NewtonPlan, OdeRhs, SensitivityRhs, SolveStats, SolverOptions, SparseLu,
    SparseNewton, SparsityPattern, SymbolicLu, SPARSE_COST_PER_MAC,
};
pub use rms_workload as workload;
pub use rms_workload::{BoundKernel, JacobianMode, TapeSimulator};

/// Any error from the end-to-end pipeline: a span-carrying diagnostic
/// naming the [`Stage`] that rejected the model.
pub type SuiteError = Diagnostic;

/// A fully compiled model: the output of every pipeline stage, kept
/// together for inspection and simulation. Derefs to the underlying
/// [`CompiledArtifact`] (`model.network`, `model.system`,
/// `model.compiled`, `model.rates`, `model.report`, …), which cache hits
/// share process-wide.
pub struct SuiteModel {
    artifact: Arc<CompiledArtifact>,
}

impl std::ops::Deref for SuiteModel {
    type Target = CompiledArtifact;

    fn deref(&self) -> &CompiledArtifact {
        &self.artifact
    }
}

impl SuiteModel {
    /// Wrap a session-compiled artifact (the [`CompilerSession`] output).
    pub fn from_artifact(artifact: Arc<CompiledArtifact>) -> SuiteModel {
        SuiteModel { artifact }
    }

    /// The shared artifact handle.
    pub fn artifact(&self) -> &Arc<CompiledArtifact> {
        &self.artifact
    }

    /// Emit the generated C function (the paper's backend output).
    pub fn emit_c(&self, name: &str) -> String {
        emit_c(&self.compiled.forest, name)
    }

    /// Emit the complete native kernel source for this model: scalar
    /// `ode_rhs`, batched `ode_rhs_batch`, analytic-Jacobian `ode_jac`
    /// and sensitivity `ode_sens` (`rmsc compile --emit c`). It is
    /// rendered by the function the *Codegen* stage renders with, so for
    /// an artifact compiled with the sensitivity tail this is exactly
    /// the source that stage hands to the system C compiler; several
    /// translation units are joined by [`UNIT_BREAK`].
    ///
    /// [`UNIT_BREAK`]: rms_driver::codegen::UNIT_BREAK
    pub fn emit_native_c(&self) -> String {
        // All four entry points, whether or not this session compiled
        // the derivative group with its tail.
        let sensitivity = self.artifact.sensitivity.clone().unwrap_or_else(|| {
            let cse = Some(CseOptions::default());
            Arc::new(compile_sensitivity(&self.compiled.forest, cse))
        });
        let derivs = DerivTapes::Sensitivity(sensitivity);
        rms_driver::codegen::render_kernel(&self.name, &self.compiled.tape, Some(&derivs), self.key)
            .units
            .join(rms_driver::codegen::UNIT_BREAK)
    }

    /// Simulate the system from its declared initial concentrations,
    /// returning the full state at each requested time (BDF stiff solver
    /// with dense finite-difference Jacobians, on the default engine).
    pub fn simulate(
        &self,
        times: &[f64],
        options: SolverOptions,
    ) -> Result<Vec<Vec<f64>>, rms_solver::SolverError> {
        self.simulate_with_jacobian(times, options, JacobianMode::FdDense)
    }

    /// [`simulate`](SuiteModel::simulate) with an explicit Jacobian
    /// source, on the default engine.
    pub fn simulate_with_jacobian(
        &self,
        times: &[f64],
        options: SolverOptions,
        mode: JacobianMode,
    ) -> Result<Vec<Vec<f64>>, rms_solver::SolverError> {
        self.simulate_configured(times, options, mode, EngineMode::default())
    }

    /// Fully configured simulation: explicit Jacobian source *and*
    /// engine. The engine resolves through [`CompiledArtifact::kernel`]
    /// and the solve runs over the same [`BoundKernel`] a [`TapeSimulator`] uses, so
    /// the two cannot disagree: [`JacobianMode::Analytic`] evaluates the
    /// artifact's *Deriv*-stage tapes — natively on a native kernel — and
    /// falls back to colored finite differences when the session did not
    /// compile them.
    pub fn simulate_configured(
        &self,
        times: &[f64],
        options: SolverOptions,
        mode: JacobianMode,
        engine: EngineMode,
    ) -> Result<Vec<Vec<f64>>, rms_solver::SolverError> {
        let choice = self.artifact.kernel(engine);
        let bound = BoundKernel::new(&choice, &self.system.rate_values);
        let source = bound.jacobian_source(mode);
        let (sol, _) =
            solve_bdf_with_jacobian(&bound, 0.0, &self.system.initial, times, options, source)?;
        Ok(sol)
    }

    /// Concentration index of a named species.
    pub fn species_index(&self, name: &str) -> Option<usize> {
        self.network.species_by_name(name).map(|id| id.0 as usize)
    }

    /// Build a [`TapeSimulator`] measuring the summed concentration of
    /// the named species (e.g. all crosslink products). The simulator
    /// shares the artifact's kernels rather than copying them.
    pub fn simulator_for(&self, observed: &[&str]) -> TapeSimulator {
        let mut observable = vec![0.0; self.system.len()];
        for name in observed {
            if let Some(idx) = self.species_index(name) {
                observable[idx] = 1.0;
            }
        }
        TapeSimulator::from_artifact(&self.artifact, observable)
    }
}

/// The one place pass wiring happens: a [`CompilerSession`] at a named
/// level, with the equation generator's §3.1 merging following the
/// level's simplify switch (off only at [`OptLevel::None`], Table 1's
/// baseline). Both [`compile_source`] and [`compile_model`] delegate
/// here, as does the CLI.
pub fn session_for(level: OptLevel) -> CompilerSession {
    CompilerSession::new(level)
}

/// Compile RDL source text all the way to an optimized, executable
/// model. Cached: recompiling identical source at the same level shares
/// one artifact per process.
pub fn compile_source(source: &str, level: OptLevel) -> Result<SuiteModel, SuiteError> {
    Ok(SuiteModel::from_artifact(
        session_for(level).compile_source("<rdl>", source)?.artifact,
    ))
}

/// Compile an already-built network (programmatic workloads). Cached by
/// the network's structural fingerprint.
pub fn compile_model(
    network: ReactionNetwork,
    rates: RateTable,
    level: OptLevel,
) -> Result<SuiteModel, SuiteError> {
    Ok(SuiteModel::from_artifact(
        session_for(level)
            .compile_network("<network>", network, rates)?
            .artifact,
    ))
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

    #[test]
    fn end_to_end_compiles() {
        let model = compile_source(SRC, OptLevel::Full).unwrap();
        assert!(model.system.len() >= 3);
        assert!(model.compiled.tape.op_counts().total() > 0);
        let c = model.emit_c("rubber_rhs");
        assert!(c.contains("void rubber_rhs"));
        // The session attached a staged report to the artifact.
        assert!(model.report.stage(Stage::Parse).is_some());
        assert!(model.report.stage(Stage::Lower).is_some());
    }

    #[test]
    fn optimization_levels_preserve_dynamics() {
        let times = [0.1, 0.5];
        let reference = compile_source(SRC, OptLevel::None)
            .unwrap()
            .simulate(&times, SolverOptions::default())
            .unwrap();
        for level in [OptLevel::Simplify, OptLevel::Algebraic, OptLevel::Full] {
            let sol = compile_source(SRC, level)
                .unwrap()
                .simulate(&times, SolverOptions::default())
                .unwrap();
            for (a, b) in reference.iter().flatten().zip(sol.iter().flatten()) {
                assert!((a - b).abs() < 1e-6, "{level}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn species_lookup_and_observable() {
        let model = compile_source(SRC, OptLevel::Full).unwrap();
        assert!(model.species_index("TetraS_2").is_some());
        assert!(model.species_index("nope").is_none());
        let sim = model.simulator_for(&["TetraS_2"]);
        let v = sim.simulate(&model.system.rate_values, 0, &[0.05]).unwrap();
        // TetraS_2 is consumed from 1.0 downwards.
        assert!(v[0] > 0.0 && v[0] < 1.0, "{v:?}");
    }

    #[test]
    fn repeated_compiles_share_the_artifact() {
        let a = compile_source(SRC, OptLevel::Full).unwrap();
        let b = compile_source(SRC, OptLevel::Full).unwrap();
        assert!(Arc::ptr_eq(a.artifact(), b.artifact()));
    }
}
