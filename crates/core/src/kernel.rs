//! The one interface between compiled code and the solvers.
//!
//! Whatever evaluates a compiled model — the tape interpreter, the
//! pre-decoded execution engine or a `dlopen`ed native object — meets the
//! solvers as a [`Kernel`]: the right-hand side (scalar and batched), the
//! analytic Jacobian and the parameter gradient `∂f/∂p`. The derivatives
//! are always the Deriv stage's one tape group ([`DerivTapes`]): it defines
//! the entry order, and a kernel that carries machine code for it
//! evaluates it natively instead of interpreting it.

use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

use crate::deriv::{DerivTapes, SensitivityTapes};
use crate::exec::{ExecFrame, ExecTape};
use crate::native::NativeKernel;
use crate::tape::Tape;

/// Evaluation scratch of one kernel bound to one rate vector. The caller
/// owns it (one per solve), so nothing a kernel leaves behind for its
/// next call can be overwritten by another kernel or another solve.
#[derive(Debug, Default)]
pub struct KernelScratch {
    /// Register file of the interpreted RHS tape.
    regs: Vec<f64>,
    /// Register file shared by the tapes of the derivative group. Apart
    /// from `regs`: the RHS calls between a Jacobian refresh and the
    /// `∂f/∂p` that resumes over it must not disturb it.
    group_regs: Vec<f64>,
    /// The state at which `group_regs` holds the group's RHS and Jacobian
    /// registers; empty when it holds none.
    filled_at: Vec<f64>,
    /// Outputs a call had to compute but was not asked for: the RHS and
    /// Jacobian of a `∂f/∂p` request that ran its whole group.
    ydot: Vec<f64>,
    spare: Vec<f64>,
}

/// A compiled model as the solvers see it. `rates` is the rate-constant
/// vector (`n_rates` long), `y`/`ydot` one state (`n_species` long); a
/// `scratch` must stay with one `(kernel, rates)` pair.
pub trait Kernel: Send + Sync + fmt::Debug {
    /// State dimension.
    fn n_species(&self) -> usize;

    /// Rate-constant (parameter) count.
    fn n_rates(&self) -> usize;

    /// `ydot = f(y)`.
    fn rhs(&self, rates: &[f64], y: &[f64], ydot: &mut [f64], scratch: &mut KernelScratch);

    /// [`rhs`](Kernel::rhs) for several states stacked row-major in `ys`.
    fn rhs_batch(&self, rates: &[f64], ys: &[f64], ydots: &mut [f64], scratch: &mut KernelScratch) {
        let n = self.n_species().max(1);
        for (y, ydot) in ys.chunks(n).zip(ydots.chunks_mut(n)) {
            self.rhs(rates, y, ydot, scratch);
        }
    }

    /// The derivative tape group this kernel was built from; `None` when
    /// the Deriv stage did not run. It fixes the entry orders below, and
    /// the provided `rhs_jac`/`dfdp` interpret it.
    fn derivs(&self) -> Option<&DerivTapes>;

    /// `(row, column)` of each value [`rhs_jac`](Kernel::rhs_jac) writes,
    /// row-major with columns ascending; `None` when no derivative group
    /// was compiled.
    fn jac_entries(&self) -> Option<&[(u32, u32)]> {
        Some(&self.derivs()?.state().entries)
    }

    /// `(species, rate)` of each value [`dfdp`](Kernel::dfdp) writes;
    /// `None` when the group was compiled without its `∂f/∂p` tail.
    fn dfdp_entries(&self) -> Option<&[(u32, u32)]> {
        Some(&self.derivs()?.sensitivity()?.dfdp_entries)
    }

    /// `ydot = f(y)` and the Jacobian nonzeros into `vals`. Panics when
    /// no derivative group was compiled.
    fn rhs_jac(
        &self,
        rates: &[f64],
        y: &[f64],
        ydot: &mut [f64],
        vals: &mut [f64],
        s: &mut KernelScratch,
    ) {
        self.derivs()
            .expect("no analytic Jacobian tapes compiled")
            .state()
            .eval_with_scratch(rates, y, ydot, vals, &mut s.group_regs);
        s.filled_at.clear();
        s.filled_at.extend_from_slice(y);
    }

    /// The `∂f/∂p` nonzeros at `y` into `vals`. Asked at the state the
    /// last [`rhs_jac`](Kernel::rhs_jac) ran on, only the `∂f/∂p` tape
    /// runs, over the registers that call filled; anywhere else the whole
    /// group does. Panics when the tail was not compiled.
    fn dfdp(&self, rates: &[f64], y: &[f64], vals: &mut [f64], s: &mut KernelScratch) {
        let tapes = sensitivity(self.derivs());
        if s.filled_at.as_slice() == y {
            return tapes.eval_dfdp_resumed(rates, y, vals, &mut s.group_regs);
        }
        s.ydot.resize(y.len(), 0.0);
        s.spare.resize(tapes.jac_nnz(), 0.0);
        tapes.eval_all(rates, y, &mut s.ydot, &mut s.spare, vals, &mut s.group_regs);
        s.filled_at.clear();
        s.filled_at.extend_from_slice(y);
    }
}

fn sensitivity(derivs: Option<&DerivTapes>) -> &SensitivityTapes {
    derivs
        .and_then(DerivTapes::sensitivity)
        .expect("no parameter-sensitivity tapes compiled")
}

/// A [`Kernel`] whose right-hand side is evaluated by `R` — the tape
/// interpreter ([`Tape`], the oracle every other engine is tested
/// against), the pre-decoded execution engine ([`ExecTape`]) or a
/// `dlopen`ed object ([`NativeKernel`]) — over one artifact's derivative
/// tapes.
#[derive(Debug)]
pub struct TapeKernel<R> {
    rhs: Arc<R>,
    derivs: Option<DerivTapes>,
}

impl<R> TapeKernel<R> {
    /// Pair a right-hand-side evaluator with the derivative group
    /// compiled from the same forest.
    pub fn new(rhs: Arc<R>, derivs: Option<DerivTapes>) -> TapeKernel<R> {
        TapeKernel { rhs, derivs }
    }
}

impl Kernel for TapeKernel<Tape> {
    fn n_species(&self) -> usize {
        self.rhs.n_species
    }

    fn n_rates(&self) -> usize {
        self.rhs.n_rates
    }

    fn rhs(&self, rates: &[f64], y: &[f64], ydot: &mut [f64], scratch: &mut KernelScratch) {
        self.rhs
            .eval_with_scratch(rates, y, ydot, &mut scratch.regs);
    }

    fn derivs(&self) -> Option<&DerivTapes> {
        self.derivs.as_ref()
    }
}

thread_local! {
    /// One execution frame per thread. The parallel estimator runs one
    /// scoped thread per rank inside each objective evaluation, so a
    /// rank's frame is bound once and then reused by every solver step,
    /// Newton iteration and colored-FD sweep of that rank's solves.
    /// Frames carry nothing from one call to the next (they rebind by
    /// tape identity), so sharing one between kernels is safe.
    static EXEC_FRAME: RefCell<ExecFrame> = RefCell::new(ExecFrame::new());
}

impl Kernel for TapeKernel<ExecTape> {
    fn n_species(&self) -> usize {
        self.rhs.n_species()
    }

    fn n_rates(&self) -> usize {
        self.rhs.n_rates()
    }

    fn rhs(&self, rates: &[f64], y: &[f64], ydot: &mut [f64], _: &mut KernelScratch) {
        EXEC_FRAME.with(|f| self.rhs.eval(rates, y, ydot, &mut f.borrow_mut()));
    }

    /// All states of a colored-FD sweep stay in structure-of-arrays lanes.
    fn rhs_batch(&self, rates: &[f64], ys: &[f64], ydots: &mut [f64], _: &mut KernelScratch) {
        EXEC_FRAME.with(|f| self.rhs.eval_batch(rates, ys, ydots, &mut f.borrow_mut()));
    }

    fn derivs(&self) -> Option<&DerivTapes> {
        self.derivs.as_ref()
    }
}

/// Machine code throughout: an object is always emitted from (and
/// validated on load against) the group its artifact compiled, so what
/// exists is exported. Its registers live in the object — there is
/// nothing to resume over, and every `∂f/∂p` request runs all of
/// `ode_sens`.
impl Kernel for TapeKernel<NativeKernel> {
    fn n_species(&self) -> usize {
        self.rhs.n_species()
    }

    fn n_rates(&self) -> usize {
        self.rhs.n_rates()
    }

    fn rhs(&self, rates: &[f64], y: &[f64], ydot: &mut [f64], _: &mut KernelScratch) {
        self.rhs.eval(rates, y, ydot);
    }

    fn rhs_batch(&self, rates: &[f64], ys: &[f64], ydots: &mut [f64], _: &mut KernelScratch) {
        self.rhs.eval_batch(rates, ys, ydots);
    }

    fn derivs(&self) -> Option<&DerivTapes> {
        self.derivs.as_ref()
    }

    fn rhs_jac(
        &self,
        rates: &[f64],
        y: &[f64],
        ydot: &mut [f64],
        vals: &mut [f64],
        _: &mut KernelScratch,
    ) {
        self.rhs.eval_rhs_jac(rates, y, ydot, vals);
    }

    fn dfdp(&self, rates: &[f64], y: &[f64], vals: &mut [f64], s: &mut KernelScratch) {
        s.ydot.resize(y.len(), 0.0);
        s.spare
            .resize(sensitivity(self.derivs.as_ref()).jac_nnz(), 0.0);
        self.rhs.eval_all(rates, y, &mut s.ydot, &mut s.spare, vals);
    }
}
