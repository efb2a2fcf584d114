//! The per-solve binding of a compiled [`Kernel`] to one rate vector: the
//! only type through which compiled models reach the solver traits.

use std::cell::RefCell;
use std::sync::Arc;

use rms_core::{Kernel, KernelScratch};
use rms_driver::{KernelChoice, Patterns};
use rms_solver::{
    AnalyticJacobian, JacobianSource, NewtonPlan, OdeRhs, SensitivityRhs, SparsityPattern,
};

/// A [`Kernel`] bound to one rate-constant vector for the duration of a
/// solve. It is the solver's [`OdeRhs`], its [`AnalyticJacobian`] and its
/// [`SensitivityRhs`] at once, and owns every buffer those calls reuse —
/// including the register file a `∂f/∂p` request resumes over — so two
/// solves never share evaluation state.
pub struct BoundKernel<'a> {
    kernel: &'a dyn Kernel,
    rates: &'a [f64],
    patterns: &'a Patterns,
    scratch: RefCell<Scratch>,
}

#[derive(Default)]
struct Scratch {
    kernel: KernelScratch,
    /// The RHS a Jacobian refresh computes alongside.
    ydot: Vec<f64>,
    /// Sparse `∂f/∂p` values, before the scatter.
    dfdp: Vec<f64>,
}

impl<'a> BoundKernel<'a> {
    /// Bind the chosen kernel to `rates`.
    pub fn new(choice: &'a KernelChoice, rates: &'a [f64]) -> BoundKernel<'a> {
        BoundKernel {
            kernel: &*choice.kernel,
            rates,
            patterns: &choice.patterns,
            scratch: RefCell::default(),
        }
    }

    /// The solver's Jacobian source: the compiled analytic tapes when the
    /// artifact carries them (the *Deriv* stage ran), colored finite
    /// differences over the structural sparsity otherwise.
    pub fn jacobian_source(&self) -> JacobianSource<'_> {
        match self.patterns.analytic() {
            Some(_) => JacobianSource::AnalyticTape(self),
            None => JacobianSource::FdColored(self.patterns.fd()),
        }
    }
}

impl OdeRhs for BoundKernel<'_> {
    fn dim(&self) -> usize {
        self.kernel.n_species()
    }

    fn eval(&self, _t: f64, y: &[f64], ydot: &mut [f64]) {
        let mut s = self.scratch.borrow_mut();
        self.kernel.rhs(self.rates, y, ydot, &mut s.kernel);
    }

    fn eval_batch(&self, _t: f64, ys: &[f64], ydots: &mut [f64]) {
        let mut s = self.scratch.borrow_mut();
        self.kernel.rhs_batch(self.rates, ys, ydots, &mut s.kernel);
    }
}

impl AnalyticJacobian for BoundKernel<'_> {
    fn pattern(&self) -> &SparsityPattern {
        self.patterns
            .analytic()
            .expect("analytic source only offered when the tapes are compiled")
    }

    fn eval_values(&self, _t: f64, y: &[f64], vals: &mut [f64]) {
        let s = &mut *self.scratch.borrow_mut();
        s.ydot.resize(y.len(), 0.0);
        self.kernel
            .rhs_jac(self.rates, y, &mut s.ydot, vals, &mut s.kernel);
    }

    fn plan(&self) -> Option<Arc<NewtonPlan>> {
        self.patterns.plan()
    }
}

impl SensitivityRhs for BoundKernel<'_> {
    fn n_params(&self) -> usize {
        self.kernel.n_rates()
    }

    fn eval_dfdp(&self, _t: f64, y: &[f64], out: &mut [f64]) {
        let entries = self
            .kernel
            .dfdp_entries()
            .expect("no parameter-sensitivity tapes compiled");
        let s = &mut *self.scratch.borrow_mut();
        s.dfdp.resize(entries.len(), 0.0);
        self.kernel.dfdp(self.rates, y, &mut s.dfdp, &mut s.kernel);
        // Scatter the sparse (species, rate) entries into the dense
        // parameter-major layout the solver consumes.
        let n = y.len();
        out.fill(0.0);
        for (&(i, k), &v) in entries.iter().zip(&s.dfdp) {
            out[k as usize * n + i as usize] = v;
        }
    }
}
