//! Which of an artifact's [`Kernel`]s a solve runs.
//!
//! The artifact decides: [`CompiledArtifact::kernel`] is its native
//! kernel when the *Codegen* stage loaded one and the exec engine
//! otherwise. Everything downstream — the simulator, the estimator, the
//! server — holds the `Arc<dyn Kernel>` it returns and never names an
//! engine. [`CompiledArtifact::evaluators`] hands tests every evaluator
//! the artifact carries, the tape interpreter among them: the oracle the
//! others are held to, which no solve ever runs.

use std::sync::{Arc, OnceLock};

use rms_core::{
    species_dependencies, DerivTapes, ExecTape, JacobianTapes, Kernel, NativeKernel, Tape,
    TapeKernel,
};
use rms_solver::{ColoredPattern, NewtonPlan, PlannedPattern, SparsityPattern};

use crate::session::CompiledArtifact;

/// One of an artifact's kernels and the patterns it fills.
#[derive(Debug, Clone)]
pub struct KernelChoice {
    /// The kernel every solve of this run evaluates.
    pub kernel: Arc<dyn Kernel>,
    /// The Jacobian sparsity patterns that kernel fills.
    pub patterns: Arc<Patterns>,
    /// The evaluator behind `kernel`: `"native"` or `"exec"`, or — only
    /// among [`CompiledArtifact::evaluators`] — `"interp"`.
    pub engine: &'static str,
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

    fn choice(&self, engine: &'static str, kernel: &Arc<dyn Kernel>) -> KernelChoice {
        KernelChoice {
            kernel: kernel.clone(),
            patterns: self.patterns.clone(),
            engine,
        }
    }
}

impl CompiledArtifact {
    /// The kernel every solve over this artifact runs: the native object
    /// when the *Codegen* stage loaded one, the exec engine otherwise.
    pub fn kernel(&self) -> KernelChoice {
        let k = &self.kernels;
        match &k.native {
            Some(native) => k.choice("native", native),
            None => k.choice("exec", &k.exec),
        }
    }

    /// Every evaluator the artifact carries, over one set of patterns:
    /// the tape interpreter, exec, and the native kernel when one loaded.
    /// Tests hold the others to the interpreter through this; a solve
    /// runs [`kernel`](CompiledArtifact::kernel).
    pub fn evaluators(&self) -> Vec<KernelChoice> {
        let k = &self.kernels;
        let mut all = vec![k.choice("interp", &k.interp), k.choice("exec", &k.exec)];
        all.extend(k.native.as_ref().map(|native| k.choice("native", native)));
        all
    }
}
