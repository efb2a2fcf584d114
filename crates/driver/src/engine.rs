//! Engine selection: which of an artifact's [`Kernel`]s a solve runs.
//!
//! [`CompiledArtifact::kernel`] is the one place an [`EngineMode`] is
//! interpreted. Everything downstream — the simulator, the estimator, the
//! server — holds the `Arc<dyn Kernel>` it returns and never names an
//! engine.

use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, OnceLock};

use rms_core::{
    species_dependencies, DerivTapes, ExecTape, JacobianTapes, Kernel, NativeKernel, Tape,
    TapeKernel,
};
use rms_solver::{ColoredPattern, NewtonPlan, PlannedPattern, SparsityPattern};

use crate::session::CompiledArtifact;

/// Which evaluator a solve asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// The tape interpreter (`Tape::eval_with_scratch`): one operand
    /// `match` per instruction. The oracle the other engines are tested
    /// against.
    Interp,
    /// The pre-decoded execution engine ([`ExecTape`]): operands resolved
    /// to absolute frame indices at decode time, Mul+Add fused, and
    /// Jacobian color sweeps evaluated in SIMD-batched lanes.
    #[default]
    Exec,
    /// The `dlopen`ed native kernel (the *Codegen* stage output): the
    /// tape compiled to machine code by the system C compiler. Degrades
    /// to [`EngineMode::Exec`] when the artifact carries no kernel (e.g.
    /// no C toolchain on this machine).
    Native,
    /// Size-aware selection between [`EngineMode::Native`] and
    /// [`EngineMode::Exec`]: native when a kernel is attached and its
    /// code is compact enough to stay in the instruction cache (always
    /// true for a kernel with loop regions), batched exec otherwise. See
    /// [`resolve_auto`].
    Auto,
}

impl EngineMode {
    /// Whether a compile meant to run at this mode should include the
    /// *Codegen* stage (`SessionOptions::native`).
    pub fn wants_native(self) -> bool {
        self == EngineMode::Native || self == EngineMode::Auto
    }
}

impl FromStr for EngineMode {
    type Err = String;

    fn from_str(s: &str) -> Result<EngineMode, String> {
        match s {
            "interp" => Ok(EngineMode::Interp),
            "exec" => Ok(EngineMode::Exec),
            "native" => Ok(EngineMode::Native),
            "auto" => Ok(EngineMode::Auto),
            other => Err(format!(
                "unknown engine '{other}' (expected interp, exec, native or auto)"
            )),
        }
    }
}

impl fmt::Display for EngineMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EngineMode::Interp => "interp",
            EngineMode::Exec => "exec",
            EngineMode::Native => "native",
            EngineMode::Auto => "auto",
        })
    }
}

/// The instruction-count crossover for [`EngineMode::Auto`]: above this
/// many emitted statements, a native kernel *without loop regions* is
/// straight-line code that overruns the instruction cache, and the
/// SIMD-batched exec engine wins (measured on the scaled vulcanization
/// family before the emitter rerolled). A kernel whose tapes rerolled
/// compresses the code stream by one to two orders of magnitude, so the
/// crossover only applies when `rms_loop_count` is 0. The last
/// native-against-exec table (Table 1 cases 1–5 at 1/24: 5.6× scalar and
/// 3.9× batched exec at 258k instructions in 40 loops) is in
/// EXPERIMENTS.md, "Codegen: one kernel emitter, one exec decode
/// (PR 17)"; no benchmark workload runs the native engine.
pub const NATIVE_CROSSOVER_INSTRS: usize = 32_768;

/// Resolve [`EngineMode::Auto`] for a tape of `instrs` flat instructions
/// and an optionally attached native kernel. Returns the concrete engine
/// plus a human-readable reason (surfaced by the CLI and reports).
pub fn resolve_auto(instrs: usize, kernel: Option<&NativeKernel>) -> (EngineMode, String) {
    match kernel {
        None => (
            EngineMode::Exec,
            format!("auto: no native kernel attached; batched exec engine over {instrs} instructions"),
        ),
        Some(k) if k.loop_count() > 0 => (
            EngineMode::Native,
            format!(
                "auto: native kernel rerolled into {} loops ({} instructions absorbed), compact enough for the I-cache",
                k.loop_count(),
                k.rolled_instrs()
            ),
        ),
        Some(_) if instrs <= NATIVE_CROSSOVER_INSTRS => (
            EngineMode::Native,
            format!(
                "auto: kernel without loop regions ({instrs} instructions) under the {NATIVE_CROSSOVER_INSTRS}-instruction I-cache crossover"
            ),
        ),
        Some(_) => (
            EngineMode::Exec,
            format!(
                "auto: kernel without loop regions ({instrs} instructions) past the {NATIVE_CROSSOVER_INSTRS}-instruction I-cache crossover; batched exec engine"
            ),
        ),
    }
}

/// What [`CompiledArtifact::kernel`] selected.
#[derive(Debug, Clone)]
pub struct KernelChoice {
    /// The kernel every solve of this run evaluates.
    pub kernel: Arc<dyn Kernel>,
    /// The Jacobian sparsity patterns that kernel fills.
    pub patterns: Arc<Patterns>,
    /// The engine that kernel belongs to (never [`EngineMode::Auto`]).
    pub engine: EngineMode,
    /// Why: an explicit request, the `auto` heuristic's verdict, or what
    /// made the requested engine unavailable.
    pub reason: String,
    /// The requested engine could not run and `engine` stands in for it.
    pub degraded: bool,
}

/// The Jacobian sparsity patterns of one compiled model and what the
/// solver derives from sparsity alone (the finite-difference coloring,
/// the sparse-Newton plan of the analytic pattern, which
/// `LinearSolver::Auto` decides from), each built on first use and then
/// shared by every solve over the artifact.
#[derive(Debug)]
pub struct Patterns {
    tape: Arc<Tape>,
    /// The analytic Jacobian's tapes, when the *Deriv* stage ran.
    jacobian: Option<Arc<JacobianTapes>>,
    fd: OnceLock<ColoredPattern>,
    analytic: OnceLock<PlannedPattern>,
    /// The elimination order a disk entry carried for the analytic plan.
    stored_order: Option<Vec<u32>>,
}

/// What an artifact knows of its sparse-Newton plan when its kernels are
/// put together.
pub(crate) enum Planned {
    /// Nothing: the first solve that asks analyzes.
    No,
    /// The *Deriv* stage of a cold compile analyzed the Jacobian.
    Analyzed(PlannedPattern),
    /// The disk entry carried the elimination order; the plan is the
    /// symbolic fill under it.
    Order(Vec<u32>),
}

impl Patterns {
    /// The species each right-hand side reads, from a dataflow walk of
    /// the tape — the pattern colored finite differences perturb over —
    /// with its coloring and, on request, its plan.
    pub fn fd(&self) -> &ColoredPattern {
        self.fd.get_or_init(|| {
            ColoredPattern::new(SparsityPattern::new(
                species_dependencies(&self.tape),
                self.tape.n_species,
            ))
        })
    }

    fn planned(&self) -> Option<&PlannedPattern> {
        let tapes = self.jacobian.as_ref()?;
        Some(self.analytic.get_or_init(|| {
            PlannedPattern::new(SparsityPattern::new(tapes.pattern_rows(), tapes.n_species))
        }))
    }

    /// The exact pattern of the analytic Jacobian; `None` when the
    /// *Deriv* stage did not run.
    pub fn analytic(&self) -> Option<&SparsityPattern> {
        self.planned().map(PlannedPattern::pattern)
    }

    /// The sparse-Newton analysis of the analytic pattern: kept from the
    /// *Deriv* stage of a cold compile, or the symbolic fill under the
    /// order a revived entry carried, otherwise run by the first solve
    /// that asks — any whose linear solver is not `Dense` — while the
    /// others wait for it and share the result. `None` when the *Deriv*
    /// stage did not run.
    pub fn plan(&self) -> Option<Arc<NewtonPlan>> {
        self.planned()?.plan_with(|pattern| {
            let stored = self.stored_order.as_deref();
            stored
                .and_then(|order| NewtonPlan::with_order(pattern, order).ok())
                .map_or_else(|| NewtonPlan::analyze(pattern), Ok)
        })
    }

    /// The analytic plan if one exists already; never runs the analysis.
    pub fn built_plan(&self) -> Option<&Arc<NewtonPlan>> {
        self.analytic.get()?.built_plan()
    }

    /// The elimination order a disk entry of this artifact carries: the
    /// built plan's, or the one it was revived with while no solve has
    /// asked for the plan yet.
    pub(crate) fn order(&self) -> Option<&[u32]> {
        match self.built_plan() {
            Some(plan) => Some(plan.order()),
            None => self.stored_order.as_deref(),
        }
    }
}

/// One artifact's kernels: the same model behind every engine, sharing
/// the instruction streams the artifact holds.
#[derive(Debug, Clone)]
pub(crate) struct Kernels {
    interp: Arc<dyn Kernel>,
    exec: Arc<dyn Kernel>,
    native: Option<Arc<dyn Kernel>>,
    patterns: Arc<Patterns>,
}

impl Kernels {
    pub(crate) fn new(
        tape: &Arc<Tape>,
        exec: &Arc<ExecTape>,
        derivs: &Option<DerivTapes>,
        native: &Option<Arc<NativeKernel>>,
        planned: Planned,
    ) -> Kernels {
        let (analytic, stored_order) = match planned {
            Planned::No => (OnceLock::new(), None),
            Planned::Analyzed(pattern) => (pattern.into(), None),
            Planned::Order(order) => (OnceLock::new(), Some(order)),
        };
        let patterns = Patterns {
            tape: tape.clone(),
            jacobian: derivs.as_ref().map(|d| d.state().clone()),
            fd: OnceLock::new(),
            analytic,
            stored_order,
        };
        Kernels {
            interp: Arc::new(TapeKernel::new(tape.clone(), derivs.clone())),
            exec: Arc::new(TapeKernel::new(exec.clone(), derivs.clone())),
            native: native
                .as_ref()
                .map(|k| Arc::new(TapeKernel::new(k.clone(), derivs.clone())) as Arc<dyn Kernel>),
            patterns: Arc::new(patterns),
        }
    }

    /// The artifact's patterns and what is planned over them.
    pub(crate) fn patterns(&self) -> &Patterns {
        &self.patterns
    }
}

impl CompiledArtifact {
    /// The kernel a run at `mode` evaluates, the engine it belongs to and
    /// why. Explicit modes select their own kernel; a native request on
    /// an artifact without one degrades to exec (never an error);
    /// [`EngineMode::Auto`] resolves through [`resolve_auto`].
    pub fn kernel(&self, mode: EngineMode) -> KernelChoice {
        let explicit = |kernel: &Arc<dyn Kernel>| KernelChoice {
            kernel: kernel.clone(),
            patterns: self.kernels.patterns.clone(),
            engine: mode,
            reason: format!("{mode} engine explicitly selected"),
            degraded: false,
        };
        match (mode, &self.kernels.native) {
            (EngineMode::Interp, _) => explicit(&self.kernels.interp),
            (EngineMode::Exec, _) => explicit(&self.kernels.exec),
            (EngineMode::Native, Some(native)) => explicit(native),
            (EngineMode::Native, None) => KernelChoice {
                engine: EngineMode::Exec,
                reason: format!(
                    "native engine unavailable: {}",
                    self.native_diag
                        .as_deref()
                        .unwrap_or("no compiled kernel on this artifact")
                ),
                degraded: true,
                ..explicit(&self.kernels.exec)
            },
            (EngineMode::Auto, _) => {
                let instrs = self.exec.as_ref().map_or(0, |e| e.len());
                let (engine, reason) = resolve_auto(instrs, self.native.as_deref());
                KernelChoice {
                    reason,
                    ..self.kernel(engine)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_mode_parses_round_trip() {
        for mode in [
            EngineMode::Interp,
            EngineMode::Exec,
            EngineMode::Native,
            EngineMode::Auto,
        ] {
            assert_eq!(mode.to_string().parse::<EngineMode>().unwrap(), mode);
        }
        assert!("jit".parse::<EngineMode>().is_err());
        assert_eq!(EngineMode::default(), EngineMode::Exec);
    }

    #[test]
    fn resolve_auto_applies_the_icache_crossover() {
        let (small, r) = resolve_auto(100, None);
        assert_eq!(small, EngineMode::Exec);
        assert!(r.starts_with("auto:"), "{r}");
        // Without a kernel the crossover is moot — even a huge model
        // resolves to exec; kernel-bearing cases are covered end-to-end
        // in tests/native_engine.rs (they need a C toolchain).
        let (huge, r) = resolve_auto(NATIVE_CROSSOVER_INSTRS * 10, None);
        assert_eq!(huge, EngineMode::Exec);
        assert!(r.starts_with("auto:"), "{r}");
    }
}
