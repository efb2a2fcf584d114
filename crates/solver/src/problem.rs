//! The ODE problem interface and solver configuration.

use std::time::Instant;

/// Cooperative cancellation by deadline: once the deadline passes, every
/// solver the token is attached to returns [`SolverError::Cancelled`] at
/// its next step boundary. No thread fires it: whoever asks
/// [`is_cancelled`](CancelToken::is_cancelled) reads the clock.
#[derive(Debug, Clone, Copy)]
pub struct CancelToken {
    deadline: Instant,
}

impl CancelToken {
    /// Token that counts as cancelled from `deadline` on.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken { deadline }
    }

    /// Has the deadline passed?
    pub fn is_cancelled(&self) -> bool {
        Instant::now() >= self.deadline
    }
}

/// A first-order ODE right-hand side `y' = f(t, y)`.
///
/// Chemistry systems are autonomous (no explicit `t`), but the interface
/// carries `t` for generality and for test problems with closed forms.
pub trait OdeRhs {
    /// System dimension.
    fn dim(&self) -> usize;

    /// Evaluate `f(t, y)` into `ydot`.
    fn eval(&self, t: f64, y: &[f64], ydot: &mut [f64]);

    /// Evaluate `f(t, ·)` for several states at once: `ys` stacks the
    /// states row-major (`k * dim()` long) and `ydots` receives the
    /// derivatives in the same layout. The colored finite-difference
    /// Jacobian calls this with all perturbed states of a sweep so
    /// batched evaluators (e.g. an `ExecTape` in structure-of-arrays
    /// mode) can amortize instruction dispatch across states. The
    /// default loops the scalar [`eval`](OdeRhs::eval).
    fn eval_batch(&self, t: f64, ys: &[f64], ydots: &mut [f64]) {
        let n = self.dim().max(1);
        for (y, ydot) in ys.chunks(n).zip(ydots.chunks_mut(n)) {
            self.eval(t, y, ydot);
        }
    }
}

/// The parameter coupling of a forward sensitivity problem: for
/// parameters `p_1..p_m`, the sensitivity vectors `s_k = ∂y/∂p_k` obey
/// `ṡ_k = J(t, y)·s_k + ∂f/∂p_k(t, y)`. The Jacobian part comes from the
/// solver's existing [`crate::jacobian::AnalyticJacobian`] machinery;
/// this trait supplies the inhomogeneous term `∂f/∂p_k`.
pub trait SensitivityRhs {
    /// Number of parameters `m`.
    fn n_params(&self) -> usize;

    /// Evaluate `∂f/∂p` at `(t, y)` into `out`, laid out parameter-major:
    /// `out[k*dim + i] = ∂f_i/∂p_k` with `dim = y.len()`. `out` has
    /// length `n_params() * y.len()`; its previous contents are
    /// unspecified, so implementations must write every slot (zeroing
    /// first when scattering a sparse pattern).
    fn eval_dfdp(&self, t: f64, y: &[f64], out: &mut [f64]);
}

impl<T: SensitivityRhs + ?Sized> SensitivityRhs for &T {
    fn n_params(&self) -> usize {
        (**self).n_params()
    }

    fn eval_dfdp(&self, t: f64, y: &[f64], out: &mut [f64]) {
        (**self).eval_dfdp(t, y, out)
    }
}

/// Wrap a closure as an [`OdeRhs`].
pub struct FnRhs<F: Fn(f64, &[f64], &mut [f64])> {
    dim: usize,
    f: F,
}

impl<F: Fn(f64, &[f64], &mut [f64])> FnRhs<F> {
    /// Create from a dimension and closure.
    pub fn new(dim: usize, f: F) -> FnRhs<F> {
        FnRhs { dim, f }
    }
}

impl<F: Fn(f64, &[f64], &mut [f64])> OdeRhs for FnRhs<F> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn eval(&self, t: f64, y: &[f64], ydot: &mut [f64]) {
        (self.f)(t, y, ydot)
    }
}

impl<T: OdeRhs + ?Sized> OdeRhs for &T {
    fn dim(&self) -> usize {
        (**self).dim()
    }

    fn eval(&self, t: f64, y: &[f64], ydot: &mut [f64]) {
        (**self).eval(t, y, ydot)
    }

    fn eval_batch(&self, t: f64, ys: &[f64], ydots: &mut [f64]) {
        (**self).eval_batch(t, ys, ydots)
    }
}

/// Which direct method factors the implicit-solver iteration matrix
/// `I − hβJ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinearSolver {
    /// Dense LU with partial pivoting — O(n³) per refactorization,
    /// O(n²) memory, robust for any matrix.
    Dense,
    /// Fill-reducing sparse LU (see `sparse`): symbolic analysis once on
    /// the static sparsity, numeric refactorizations touch only
    /// nnz(L+U) entries.
    Sparse,
    /// Decide from the symbolic factorization of the Jacobian source's
    /// sparsity: sparse when one refactorization over its fill costs
    /// fewer multiply-adds, weighted by the measured
    /// [`SPARSE_COST_PER_MAC`](crate::SPARSE_COST_PER_MAC), than the
    /// `n³/3` of a dense LU
    /// ([`NewtonPlan::prefers_sparse`](crate::NewtonPlan::prefers_sparse));
    /// dense otherwise, and for a source with no sparsity (dense finite
    /// differences). Should a diagonal pivot of the sparse kernel come
    /// out zero, the rest of the solve factors densely.
    #[default]
    Auto,
}

impl std::fmt::Display for LinearSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LinearSolver::Dense => "dense",
            LinearSolver::Sparse => "sparse",
            LinearSolver::Auto => "auto",
        })
    }
}

/// Solver tolerances and limits (IMSL-style defaults).
#[derive(Debug, Clone, Copy)]
pub struct SolverOptions {
    /// Relative tolerance.
    pub rtol: f64,
    /// Absolute tolerance.
    pub atol: f64,
    /// Initial step size (`None` = choose automatically).
    pub h_init: Option<f64>,
    /// Smallest permitted step.
    pub h_min: f64,
    /// Largest permitted step (`INFINITY` = unbounded).
    pub h_max: f64,
    /// Step budget per `solve` call.
    pub max_steps: usize,
    /// Direct method for the Newton iteration matrix (implicit solvers).
    /// Every product solve keeps the default, [`LinearSolver::Auto`];
    /// only tests set it, to hold the sparse and dense paths to each
    /// other.
    pub linear_solver: LinearSolver,
    /// Include the forward-sensitivity blocks in the BDF step-error
    /// estimate. Off by default (the CVODES convention): the state alone
    /// drives step selection, so a sensitivity-augmented solve costs the
    /// same step sequence as a plain one. Switch on when the
    /// sensitivities themselves must be integrated to the requested
    /// tolerance rather than riding the state's step sizes.
    pub sens_error_control: bool,
}

impl Default for SolverOptions {
    fn default() -> SolverOptions {
        SolverOptions {
            rtol: 1e-6,
            atol: 1e-9,
            h_init: None,
            h_min: 1e-14,
            h_max: f64::INFINITY,
            max_steps: 1_000_000,
            linear_solver: LinearSolver::default(),
            sens_error_control: false,
        }
    }
}

/// Counters describing the work a solve performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Accepted steps.
    pub steps: usize,
    /// Rejected step attempts: error-test failures plus Newton failures.
    pub rejected: usize,
    /// Right-hand-side evaluations, and what is counted as one: every
    /// [`newton_iters`](SolveStats::newton_iters) pass, plus one per
    /// Jacobian refresh (the refresh's base point on the
    /// finite-difference sources, which also add their difference
    /// columns; the tape evaluation on the analytic source) and one per
    /// `∂f/∂p` evaluation of a sensitivity-augmented step.
    pub fevals: usize,
    /// Jacobian evaluations (implicit solvers).
    pub jevals: usize,
    /// LU factorizations (implicit solvers).
    pub factorizations: usize,
    /// Newton iterations (implicit solvers).
    pub newton_iters: usize,
    /// Blocked refinement passes of the sensitivity systems, each over
    /// however many columns were still unconverged; 0 on a plain solve.
    pub sens_refinements: usize,
    /// Corrector iterations that failed to converge (implicit solvers);
    /// each is also counted in `rejected`.
    pub newton_failures: usize,
    /// nnz(L+U) of the current iteration-matrix factorization: the
    /// sparse factor size on the sparse path, `n²` on the dense path,
    /// zero before the first factorization. A gauge, not a counter.
    pub fill_nnz: usize,
    /// Sparse-Newton analyses (ordering + symbolic fill) this solve ran
    /// itself: 0 when the pattern's owner shared its
    /// [`NewtonPlan`](crate::NewtonPlan), under [`LinearSolver::Dense`],
    /// and under [`LinearSolver::Auto`] on dense finite differences; 1
    /// otherwise.
    pub symbolic_analyses: usize,
}

/// Solver failures.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // `t` is always "the time the failure occurred"
pub enum SolverError {
    /// Step size underflowed `h_min` at time `t`.
    StepSizeUnderflow { t: f64 },
    /// `max_steps` exhausted before reaching the end time.
    TooManySteps { t: f64, max_steps: usize },
    /// Newton iteration failed to converge and the step could not be
    /// reduced further.
    NewtonDivergence { t: f64 },
    /// The iteration matrix became singular.
    SingularIterationMatrix { t: f64 },
    /// The right-hand side produced a non-finite value.
    NonFiniteDerivative { t: f64 },
    /// Inconsistent arguments (e.g. `tend <= t0` or wrong y0 length).
    BadInput(String),
    /// An attached [`CancelToken`] fired; integration stopped at `t`.
    Cancelled { t: f64 },
}

impl SolverError {
    /// Was this failure an external cancellation (deadline/shutdown)
    /// rather than a numerical breakdown? Fallback chains must not retry
    /// a cancelled solve with a different method.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, SolverError::Cancelled { .. })
    }
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::StepSizeUnderflow { t } => write!(f, "step size underflow at t={t}"),
            SolverError::TooManySteps { t, max_steps } => {
                write!(f, "exceeded {max_steps} steps at t={t}")
            }
            SolverError::NewtonDivergence { t } => write!(f, "Newton divergence at t={t}"),
            SolverError::SingularIterationMatrix { t } => {
                write!(f, "singular iteration matrix at t={t}")
            }
            SolverError::NonFiniteDerivative { t } => {
                write!(f, "non-finite derivative at t={t}")
            }
            SolverError::BadInput(msg) => write!(f, "bad input: {msg}"),
            SolverError::Cancelled { t } => write!(f, "cancelled at t={t}"),
        }
    }
}

impl std::error::Error for SolverError {}

/// Weighted RMS error norm used by every error test:
/// `sqrt(mean((e_i / (atol + rtol*|y_i|))^2))`.
pub fn error_norm(err: &[f64], y: &[f64], rtol: f64, atol: f64) -> f64 {
    let n = err.len().max(1);
    let sum: f64 = err
        .iter()
        .zip(y)
        .map(|(e, yv)| {
            let w = atol + rtol * yv.abs();
            (e / w) * (e / w)
        })
        .sum();
    (sum / n as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_rhs_wraps_closure() {
        let rhs = FnRhs::new(2, |_t, y: &[f64], ydot: &mut [f64]| {
            ydot[0] = -y[0];
            ydot[1] = y[0];
        });
        assert_eq!(rhs.dim(), 2);
        let mut out = vec![0.0; 2];
        rhs.eval(0.0, &[2.0, 0.0], &mut out);
        assert_eq!(out, vec![-2.0, 2.0]);
    }

    #[test]
    fn error_norm_scales() {
        // err equal to tolerance weights -> norm 1.
        let y = [1.0, 10.0];
        let rtol = 1e-3;
        let atol = 1e-6;
        let err = [atol + rtol * 1.0, atol + rtol * 10.0];
        let norm = error_norm(&err, &y, rtol, atol);
        assert!((norm - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_token_is_cancelled_once_its_deadline_passes() {
        use std::time::Duration;
        let now = Instant::now();
        let past = CancelToken::with_deadline(now - Duration::from_millis(1));
        assert!(past.is_cancelled());
        let future = CancelToken::with_deadline(now + Duration::from_secs(3600));
        assert!(!future.is_cancelled());
    }

    #[test]
    fn default_options_sane() {
        let o = SolverOptions::default();
        assert!(o.rtol > 0.0 && o.atol > 0.0 && o.max_steps > 0);
    }
}
