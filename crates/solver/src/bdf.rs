//! Gear-type BDF stiff solver — our stand-in for IMSL's
//! `imsl_f_ode_adams_gear`.
//!
//! "Because chemical reactions proceed to equilibrium, where molecules and
//! their variants effectively complete their reactions in different
//! epochs, the differential equations modeling the behavior of such
//! systems are stiff. Therefore we use the Adams-Gear solver." (§4.1)
//!
//! Implementation: variable-order (1–5), quasi-uniform-step backward
//! differentiation formulas with a modified-Newton corrector; step-size
//! changes rescale the solution history by polynomial interpolation.
//! After `h` grows it is held for `GROWTH_HOLD` (2) accepted steps, until
//! the corrector is back on computed history (shrinking is immediate).
//!
//! **Factorization reuse** (the LSODE/CVODE policy). The iteration matrix
//! `I − γJ`, `γ = hβ`, is LU-factored and kept while `γ` stays within
//! `GAMMA_DRIFT` (30 %) of the `γ` it was built for and the factors are
//! younger than `FACTOR_MAX_AGE` (20) accepted steps — so step-size
//! nudges and most order changes cost nothing. While `γ` differs from the
//! built one, every Newton (and sensitivity-refinement) correction is
//! scaled by `2 / (1 + γ/γ_built)`, which centres the lagged iteration's
//! contraction on the stiff modes. A Newton failure on a lagged matrix
//! first refreshes the Jacobian and refactors at the *same* `h`; only a
//! failure on a current matrix cuts the step to `h/4` at order 1.
//!
//! **Termination** (CVODE's `crate` / CVODES's `crateS`). The solver
//! carries two estimates of the lagged iteration's contraction per pass,
//! one for the state corrector and one for the sensitivity refinement:
//! `1` after every refactorization, `max(RATE_DECAY · rate, ‖δ_m‖/‖δ_{m−1}‖)`
//! after every second or later pass. Both loops stop on the same test,
//! `is_converged`: `‖δ‖ · min(1, max(rate, |1 − lag|)) < NEWTON_TOL` — the
//! last correction times the share of it the next pass would still find,
//! the share never taken below what a drifted `γ` is known to leave
//! behind. From the third pass on, a correction more than
//! `DIVERGENCE_RATIO` times the previous one ends the loop as a failure.
//!
//! **Interpolated outputs.** [`Bdf::integrate_to`] never clamps `h` onto
//! the requested time: it steps until the internal time [`Bdf::t`] has
//! passed it and answers [`Bdf::y`] / [`Bdf::sensitivities`] from the
//! history polynomial (the one `change_step` resamples), so `Bdf::t` may
//! exceed the last requested time and several requests can be answered
//! from one step. Lagrange weights sum to one, so linear invariants of
//! the history hold through interpolation.

use std::sync::Arc;

use crate::coloring::{fd_jacobian_colored_into, ColoredPattern, SparsityPattern};
use crate::jacobian::{fd_jacobian_into, AnalyticJacobian, FdWorkspace};
use crate::linalg::{CsrMatrix, LinalgError, Lu, Matrix};
use crate::problem::{
    error_norm, CancelToken, LinearSolver, OdeRhs, SensitivityRhs, SolveStats, SolverError,
    SolverOptions,
};
use crate::sparse::{NewtonPlan, SparseNewton};

/// BDF α coefficients (history weights) and β (f weight) per order.
/// `y_{n+1} = Σ_i ALPHA[k][i] · y_{n−i} + BETA[k] · h · f(t_{n+1}, y_{n+1})`
const ALPHA: [&[f64]; 6] = [
    &[],
    &[1.0],
    &[4.0 / 3.0, -1.0 / 3.0],
    &[18.0 / 11.0, -9.0 / 11.0, 2.0 / 11.0],
    &[48.0 / 25.0, -36.0 / 25.0, 16.0 / 25.0, -3.0 / 25.0],
    &[
        300.0 / 137.0,
        -300.0 / 137.0,
        200.0 / 137.0,
        -75.0 / 137.0,
        12.0 / 137.0,
    ],
];
const BETA: [f64; 6] = [0.0, 1.0, 2.0 / 3.0, 6.0 / 11.0, 12.0 / 25.0, 60.0 / 137.0];

/// Maximum BDF order (order 6 is not zero-stable enough in practice;
/// IMSL's Gear implementation also tops out at 5).
pub const MAX_ORDER: usize = 5;

const NEWTON_MAX_ITERS: usize = 8;
const NEWTON_TOL: f64 = 0.1; // in units of the weighted error norm
/// A measured contraction ratio replaces the estimate at once when it is
/// worse; a better one pulls it down by at most this factor per pass.
const RATE_DECAY: f64 = 0.3;
/// From the third pass on, a correction that grew by more than this over
/// the previous one is divergence, not slow convergence.
const DIVERGENCE_RATIO: f64 = 2.0;

/// The factorization is reused while `|γ/γ_built − 1|` stays within this.
const GAMMA_DRIFT: f64 = 0.3;
/// … and while it has served fewer than this many accepted steps.
const FACTOR_MAX_AGE: usize = 20;

/// Accepted steps `h` is held for after it grew. Growing rescales the
/// history past its oldest node; at the 2× cap two of the corrector's five
/// nodes come out extrapolated, and two steps put it back on computed
/// values. Growing again before that compounds the extrapolation (×10²
/// per rescale at order 5) until the error test collapses `h`.
const GROWTH_HOLD: usize = 2;

/// Refinement iterations for each sensitivity solve. The system is
/// linear, so with an up-to-date factorization one pass suffices; the cap
/// only matters when the factorization has gone stale against the fresh
/// Jacobian the residual is formed with.
const SENS_MAX_ITERS: usize = 10;

/// Where the solver obtains its Jacobian.
pub enum JacobianSource<'a> {
    /// Compiler-emitted analytic Jacobian: exact values on an exact
    /// sparsity, one provider evaluation per refresh, stored sparse.
    AnalyticTape(&'a dyn AnalyticJacobian),
    /// Colored finite differences over a pattern its owner colored once
    /// (one RHS evaluation per color): nothing is cloned, colored or
    /// analyzed per solve.
    FdColored(&'a ColoredPattern),
    /// Dense finite differences: n RHS evaluations per refresh
    /// (the default).
    FdDense,
}

impl JacobianSource<'_> {
    /// The sparsity the source knows its Jacobian to have, if any.
    fn pattern(&self) -> Option<&SparsityPattern> {
        match self {
            JacobianSource::AnalyticTape(provider) => Some(provider.pattern()),
            JacobianSource::FdColored(colored) => Some(colored.pattern.pattern()),
            JacobianSource::FdDense => None,
        }
    }
}

/// The cached Jacobian, in whichever storage its source produces.
enum JacStore {
    Dense(Matrix),
    Sparse(CsrMatrix),
}

/// The iteration-matrix factorization. The sparse kernel is persistent:
/// its symbolic analysis (ordering + fill pattern) is computed once from
/// the static sparsity and every later refresh only repeats the numeric
/// refactorization. Validity is tracked separately in `Bdf::gamma_built`,
/// so invalidation never discards the kernel.
enum Factor {
    None,
    Dense(Lu),
    Sparse(SparseNewton),
}

/// Reusable buffers for the step loop. Everything the corrector touches
/// per iteration lives here, so Newton iterations (and whole solves, once
/// warm) allocate nothing.
#[derive(Default)]
struct Scratch {
    /// Predictor output.
    y_pred: Vec<f64>,
    /// Constant part of the corrector equation.
    rhs_const: Vec<f64>,
    /// Newton iterate.
    y: Vec<f64>,
    /// RHS value at the iterate.
    f: Vec<f64>,
    /// Corrector residual.
    residual: Vec<f64>,
    /// Newton update (LU solve in place).
    delta: Vec<f64>,
    /// Error-estimate vector.
    err: Vec<f64>,
    /// Finite-difference Jacobian scratch.
    fd: FdWorkspace,
    /// Retired history vectors, recycled instead of reallocated.
    spare: Vec<Vec<f64>>,
    /// Double buffer for history rescaling.
    history_alt: Vec<Vec<f64>>,
    /// `∂f/∂p` at the accepted point, parameter-major.
    dfdp: Vec<f64>,
    /// Right-hand sides of the sensitivity systems, row-major `n × p`.
    sens_b: Vec<f64>,
    /// Iterates of the blocked sensitivity solve, row-major `n × p`.
    sens_x: Vec<f64>,
    /// `J·X` product scratch for sensitivity refinement.
    jv: Vec<f64>,
    /// Parameter indices still unconverged after the first refinement pass.
    active: Vec<usize>,
    /// Compacted iterate / right-hand-side blocks (`n × active.len()`)
    /// for the continued refinement of the unconverged columns.
    sens_xq: Vec<f64>,
    sens_bq: Vec<f64>,
}

/// Gear BDF integrator state.
pub struct Bdf<'a, R: OdeRhs> {
    rhs: &'a R,
    options: SolverOptions,
    /// Internal time: the end of the last accepted step. At or past the
    /// last time requested of [`integrate_to`](Bdf::integrate_to).
    pub t: f64,
    /// The last requested time; [`y`](Bdf::y) reports the state there.
    t_out: f64,
    /// The (augmented) state at `t_out`.
    output: Vec<f64>,
    /// History: `history[0]` is the state at `t`, `history[i]` the state
    /// `i` steps back, uniformly spaced by `h`.
    history: Vec<Vec<f64>>,
    h: f64,
    order: usize,
    /// Factorization of `I − γJ` (dense LU or persistent sparse kernel).
    factor: Factor,
    /// The `γ = hβ` the factorization was built for; `None` = none yet.
    gamma_built: Option<f64>,
    /// Accepted steps the factorization has served.
    factor_age: usize,
    /// Contraction per pass of the state corrector under the kept
    /// factorization, as last measured; `1.0` until it has been.
    newton_rate: f64,
    /// The same for the sensitivity refinement, whose residual is formed
    /// with a fresh Jacobian at every step.
    sens_rate: f64,
    /// Accepted steps still to take before `h` may grow again.
    growth_hold: usize,
    /// Was the cached Jacobian evaluated during the current step attempt
    /// (rather than at some earlier accepted point)?
    jac_current: bool,
    /// Does the configured [`LinearSolver`] resolve to the sparse path
    /// for `source`? Decided when the source is set; `Auto` goes back on
    /// it, for the rest of the solve, if a diagonal pivot comes out zero.
    sparse: bool,
    /// The analysis the sparse path factors under: the pattern owner's,
    /// asked for once when the source is set, or this solve's own.
    plan: Option<Arc<NewtonPlan>>,
    /// All-columns pattern synthesized when the sparse path is forced on
    /// a dense-FD Jacobian source (built once).
    full_pattern: Option<SparsityPattern>,
    jac: Option<JacStore>,
    /// How Jacobians are produced: analytic tape, colored FD, or dense FD.
    source: JacobianSource<'a>,
    /// Parameter coupling for forward sensitivity analysis; when set, the
    /// history vectors carry `n_params` extra sensitivity blocks.
    sens: Option<&'a dyn SensitivityRhs>,
    stats: SolveStats,
    /// Reusable step-loop buffers (taken with `mem::take` around the hot
    /// path to sidestep aliasing with `&mut self` helpers).
    scratch: Scratch,
    /// Cooperative cancellation flag, checked once per step.
    cancel: Option<CancelToken>,
}

impl<'a, R: OdeRhs> Bdf<'a, R> {
    /// Initialize at `(t0, y0)`.
    pub fn new(rhs: &'a R, t0: f64, y0: &[f64], options: SolverOptions) -> Bdf<'a, R> {
        assert_eq!(y0.len(), rhs.dim(), "y0 length must equal system dimension");
        let mut solver = Bdf {
            rhs,
            options,
            t: t0,
            t_out: t0,
            output: y0.to_vec(),
            history: vec![y0.to_vec()],
            h: options.h_init.unwrap_or(1e-6),
            order: 1,
            factor: Factor::None,
            gamma_built: None,
            factor_age: 0,
            newton_rate: 1.0,
            sens_rate: 1.0,
            growth_hold: 0,
            jac_current: false,
            sparse: false,
            plan: None,
            full_pattern: None,
            jac: None,
            source: JacobianSource::FdDense,
            sens: None,
            stats: SolveStats::default(),
            scratch: Scratch::default(),
            cancel: None,
        };
        solver.decide_linear_solver();
        solver
    }

    /// Attach a [`CancelToken`]; once it fires, `integrate_to` returns
    /// [`SolverError::Cancelled`] at the next step boundary.
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Choose how Jacobians are obtained (default: dense finite
    /// differences). Invalidates any cached Jacobian and iteration
    /// matrix.
    pub fn set_jacobian_source(&mut self, source: JacobianSource<'a>) {
        self.source = source;
        self.decide_linear_solver();
        self.jac = None;
        // The sparsity may have changed with the source: drop the sparse
        // kernel (and its symbolic analysis) along with the numeric factor.
        self.factor = Factor::None;
        self.gamma_built = None;
        self.full_pattern = None;
    }

    /// Attach a parameter-sensitivity source: the state is augmented with
    /// `n_params` zero-initialized sensitivity blocks (`∂y0/∂p = 0` — the
    /// initial condition does not depend on the rate constants) and every
    /// accepted step advances `ṡ_k = J·s_k + ∂f/∂p_k` alongside `y`,
    /// reusing the step's iteration-matrix factorization for all `k`.
    ///
    /// Must be called before the first step.
    pub fn set_sensitivities(&mut self, sens: &'a dyn SensitivityRhs) {
        assert!(
            self.history.len() == 1 && self.stats.steps == 0,
            "sensitivities must be attached before the first step"
        );
        let n = self.rhs.dim();
        self.history[0].truncate(n);
        self.history[0].resize(n * (1 + sens.n_params()), 0.0);
        self.output.clone_from(&self.history[0]);
        self.sens = Some(sens);
    }

    /// State at the last requested time (the initial state before any
    /// request). With sensitivities attached this is the *augmented*
    /// state: the first `dim` entries are `y`, followed by the blocks of
    /// [`sensitivities`](Bdf::sensitivities).
    pub fn y(&self) -> &[f64] {
        &self.output
    }

    /// Sensitivity blocks at the last requested time, parameter-major:
    /// entry `k*dim + i` is `∂y_i/∂p_k`. Empty when no sensitivity source
    /// is attached.
    pub fn sensitivities(&self) -> &[f64] {
        &self.output[self.rhs.dim()..]
    }

    /// Work counters.
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// Current order (for tests/diagnostics).
    pub fn order(&self) -> usize {
        self.order
    }

    /// Advance until the internal time reaches `tend` and report the state
    /// there: the end of the last step when it lands on `tend`, the
    /// history polynomial evaluated at `tend` otherwise. A `tend` the
    /// internal time has already passed costs no step; one behind the
    /// previous request is [`SolverError::BadInput`].
    pub fn integrate_to(&mut self, tend: f64) -> Result<(), SolverError> {
        // Detach the scratch so helper methods can borrow `self` freely;
        // reattached before returning (buffers survive across calls).
        let mut s = std::mem::take(&mut self.scratch);
        let result = self.integrate_to_inner(tend, &mut s);
        self.scratch = s;
        result
    }

    fn integrate_to_inner(&mut self, tend: f64, s: &mut Scratch) -> Result<(), SolverError> {
        if tend < self.t_out {
            return Err(SolverError::BadInput(format!(
                "tend {tend} before the last requested t {}",
                self.t_out
            )));
        }
        while self.t < tend {
            if let Some(token) = &self.cancel {
                if token.is_cancelled() {
                    return Err(SolverError::Cancelled { t: self.t });
                }
            }
            if self.stats.steps + self.stats.rejected >= self.options.max_steps {
                return Err(SolverError::TooManySteps {
                    t: self.t,
                    max_steps: self.options.max_steps,
                });
            }
            self.step(s)?;
        }
        self.t_out = tend;
        // `tend` lies inside the last step: evaluate the polynomial through
        // the history nodes x_i = −i at x = (tend − t)/h.
        let weights = lagrange_weights(self.history.len(), (tend - self.t) / self.h);
        combine_into(&mut self.output, &weights, &self.history);
        Ok(())
    }

    /// Take one step of size `self.h` at the current order.
    fn step(&mut self, s: &mut Scratch) -> Result<(), SolverError> {
        // State dimension: the Newton corrector runs on the first `n`
        // entries only; `ntot` includes the sensitivity blocks, which the
        // predictor, error test, and history machinery treat uniformly.
        let n = self.rhs.dim();
        let ntot = self.history[0].len();
        loop {
            let k = self.order.min(self.history.len()).min(MAX_ORDER);
            let alpha = ALPHA[k];
            let beta = BETA[k];
            let t_next = self.t + self.h;

            // Predictor: polynomial extrapolation of the history.
            self.extrapolate_into(&mut s.y_pred);

            // Ensure a usable iteration matrix. (Temporarily moves the
            // predictor out of the scratch so `s` stays lendable.)
            let y_pred = std::mem::take(&mut s.y_pred);
            let ensured = self.ensure_iteration_matrix(beta, &y_pred[..n], t_next, s);
            s.y_pred = y_pred;
            ensured?;
            let lag = self.lag_correction(beta);

            // Constant part of the corrector equation:
            // y − hβ f(t,y) − Σ αᵢ y_{n−i} = 0. Accumulated over the full
            // augmented history: block `k` is the constant part of the
            // k-th sensitivity system.
            s.rhs_const.clear();
            s.rhs_const.resize(ntot, 0.0);
            for (i, &a) in alpha.iter().enumerate() {
                for (dst, &h) in s.rhs_const.iter_mut().zip(&self.history[i]) {
                    *dst += a * h;
                }
            }

            // Modified Newton iteration from the predictor.
            s.y.clear();
            s.y.extend_from_slice(&s.y_pred);
            s.f.clear();
            s.f.resize(n, 0.0);
            s.residual.clear();
            s.residual.resize(n, 0.0);
            let mut converged = false;
            let mut prev_norm = f64::NAN;
            for pass in 0..NEWTON_MAX_ITERS {
                self.rhs.eval(t_next, &s.y[..n], &mut s.f);
                self.stats.fevals += 1;
                for j in 0..n {
                    s.residual[j] = s.y[j] - beta * self.h * s.f[j] - s.rhs_const[j];
                }
                if s.residual.iter().any(|v| !v.is_finite()) {
                    return Err(SolverError::NonFiniteDerivative { t: self.t });
                }
                s.delta.clear();
                s.delta.extend_from_slice(&s.residual);
                self.solve_factor_in_place(&mut s.delta)?;
                self.stats.newton_iters += 1;
                for j in 0..n {
                    s.delta[j] *= lag;
                    s.y[j] -= s.delta[j];
                }
                let norm = error_norm(&s.delta, &s.y[..n], self.options.rtol, self.options.atol);
                if pass > 0 {
                    self.newton_rate = (RATE_DECAY * self.newton_rate).max(norm / prev_norm);
                }
                if is_converged(norm, self.newton_rate, lag) {
                    converged = true;
                    break;
                }
                if pass >= 2 && norm > DIVERGENCE_RATIO * prev_norm {
                    break;
                }
                prev_norm = norm;
            }

            if !converged {
                let y_pred = std::mem::take(&mut s.y_pred);
                let recovered = self.try_recover(t_next, &y_pred[..n], beta, s);
                s.y_pred = y_pred;
                if recovered? {
                    continue;
                }
                return Err(SolverError::NewtonDivergence { t: self.t });
            }

            // Advance the sensitivity blocks: each system shares the
            // iteration matrix `I − hβJ`, so all of them reuse this
            // step's factorization.
            if self.sens.is_some() {
                self.propagate_sensitivities(t_next, beta, s)?;
            }

            // Error estimate: corrector minus predictor, scaled for order.
            // By default only the state block participates (the CVODES
            // convention), so sensitivity-augmented solves keep the plain
            // solve's step sequence; `sens_error_control` widens the norm
            // to the whole augmented vector.
            let err_len = if self.options.sens_error_control {
                s.y.len()
            } else {
                n
            };
            s.err.clear();
            s.err.extend(
                s.y[..err_len]
                    .iter()
                    .zip(&s.y_pred[..err_len])
                    .map(|(a, b)| (a - b) / (k as f64 + 1.0)),
            );
            let err = error_norm(
                &s.err,
                &s.y[..err_len],
                self.options.rtol,
                self.options.atol,
            );

            if err <= 1.0 {
                // Accept: push the new state into the history, recycling a
                // retired vector instead of allocating.
                self.t += self.h;
                let mut slot = s.spare.pop().unwrap_or_default();
                slot.clear();
                slot.extend_from_slice(&s.y);
                self.history.insert(0, slot);
                let keep = MAX_ORDER + 1;
                while self.history.len() > keep {
                    s.spare.push(self.history.pop().expect("len checked"));
                }
                self.stats.steps += 1;
                self.factor_age += 1;
                self.jac_current = false;
                // Raise order while history allows (classic Gear startup).
                if self.order < MAX_ORDER && self.history.len() > self.order {
                    self.order += 1;
                }
                // Step growth, conservative.
                let mut factor = if err == 0.0 {
                    2.0
                } else {
                    (0.9 * err.powf(-1.0 / (k as f64 + 1.0))).clamp(0.5, 2.0)
                };
                if self.growth_hold > 0 {
                    self.growth_hold -= 1;
                    factor = factor.min(1.0);
                }
                if !(0.9..=1.1).contains(&factor) {
                    let new_h = (self.h * factor).min(self.options.h_max);
                    if factor > 1.0 {
                        self.growth_hold = GROWTH_HOLD;
                    }
                    self.change_step(new_h, s);
                }
                return Ok(());
            }

            // Reject: shrink the step.
            self.stats.rejected += 1;
            let factor = (0.9 * err.powf(-1.0 / (k as f64 + 1.0))).clamp(0.1, 0.5);
            let new_h = self.h * factor;
            if new_h < self.options.h_min {
                return Err(SolverError::StepSizeUnderflow { t: self.t });
            }
            // Lower the order as well when failing at high order.
            if self.order > 1 {
                self.order -= 1;
            }
            self.change_step(new_h, s);
        }
    }

    /// Polynomial extrapolation of the (uniform) history to `t + h`,
    /// written into `out`.
    fn extrapolate_into(&self, out: &mut Vec<f64>) {
        let m = self.order.min(self.history.len());
        combine_into(out, &lagrange_weights(m, 1.0)[..m], &self.history);
    }

    /// Rescale history from spacing `self.h` to `new_h` via polynomial
    /// interpolation through the existing history points.
    fn change_step(&mut self, new_h: f64, s: &mut Scratch) {
        if new_h == self.h || self.history.len() == 1 {
            self.h = new_h;
            return;
        }
        let m = self.history.len();
        let ratio = new_h / self.h;
        // Build the rescaled history in the double buffer, then swap.
        while s.history_alt.len() < m {
            s.history_alt.push(s.spare.pop().unwrap_or_default());
        }
        while s.history_alt.len() > m {
            s.spare.push(s.history_alt.pop().expect("len checked"));
        }
        for (target, point) in s.history_alt.iter_mut().enumerate() {
            if target == 0 {
                point.clone_from(&self.history[0]);
                continue;
            }
            // Evaluate the interpolating polynomial through nodes x_i = −i
            // (old spacing) at x = −target·ratio.
            let weights = lagrange_weights(m, -(target as f64) * ratio);
            combine_into(point, &weights, &self.history);
        }
        std::mem::swap(&mut self.history, &mut s.history_alt);
        self.h = new_h;
    }

    /// Make sure there is a factorization close enough to `I − hβJ`: the
    /// kept one while `γ = hβ` is within [`GAMMA_DRIFT`] of the `γ` it was
    /// built for and it is younger than [`FACTOR_MAX_AGE`] accepted steps,
    /// a rebuilt one (from the cached Jacobian) otherwise.
    fn ensure_iteration_matrix(
        &mut self,
        beta: f64,
        y: &[f64],
        t: f64,
        s: &mut Scratch,
    ) -> Result<(), SolverError> {
        if let Some(built) = self.gamma_built {
            let drift = (self.h * beta / built - 1.0).abs();
            if drift <= GAMMA_DRIFT && self.factor_age < FACTOR_MAX_AGE {
                return Ok(());
            }
        }
        if self.jac.is_none() {
            self.refresh_jacobian(t, y, s);
        }
        self.build_lu(beta)
    }

    /// Scale for corrections solved with the kept factorization: with
    /// `M = I − γ_built·J` standing in for `I − γJ`, a stiff mode's
    /// correction comes out `γ/γ_built` too large or small; scaling by
    /// `2 / (1 + γ/γ_built)` halves that error (CVODE's `gamrat` rule).
    fn lag_correction(&self, beta: f64) -> f64 {
        let built = self.gamma_built.expect("factorization ensured");
        2.0 / (1.0 + self.h * beta / built)
    }

    fn refresh_jacobian(&mut self, t: f64, y: &[f64], s: &mut Scratch) {
        let n = y.len();
        match &self.source {
            JacobianSource::AnalyticTape(provider) => {
                // Reuse the sparse store (the pattern never changes for a
                // given source); build it on first refresh only.
                if !matches!(self.jac, Some(JacStore::Sparse(_))) {
                    let csr = match &self.plan {
                        Some(plan) => plan.jacobian_store(),
                        None => {
                            let pattern = provider.pattern();
                            CsrMatrix::from_rows(
                                (0..pattern.n_rows()).map(|i| pattern.row(i)),
                                pattern.n_cols(),
                            )
                            .expect("SparsityPattern rows are ascending and in range")
                        }
                    };
                    self.jac = Some(JacStore::Sparse(csr));
                }
                let csr = match &mut self.jac {
                    Some(JacStore::Sparse(csr)) => csr,
                    _ => unreachable!("just stored"),
                };
                provider.eval_values(t, y, csr.vals_mut());
                // One tape-pair evaluation; counted as a single feval for
                // comparability with the FD paths.
                self.stats.fevals += 1;
            }
            JacobianSource::FdColored(colored) => {
                s.f.clear();
                s.f.resize(n, 0.0);
                self.rhs.eval(t, y, &mut s.f);
                let ColoredPattern {
                    pattern,
                    colors,
                    n_colors,
                } = colored;
                let pattern = pattern.pattern();
                let jac = dense_store(&mut self.jac, pattern.n_rows(), n);
                let jac_fevals = fd_jacobian_colored_into(
                    self.rhs, t, y, &s.f, pattern, colors, *n_colors, jac, &mut s.fd,
                );
                self.stats.fevals += 1 + jac_fevals;
            }
            JacobianSource::FdDense => {
                s.f.clear();
                s.f.resize(n, 0.0);
                self.rhs.eval(t, y, &mut s.f);
                let jac = dense_store(&mut self.jac, n, n);
                let jac_fevals = fd_jacobian_into(self.rhs, t, y, &s.f, jac, &mut s.fd);
                self.stats.fevals += 1 + jac_fevals;
            }
        }
        self.stats.jevals += 1;
        self.jac_current = true;
    }

    /// Resolve the configured [`LinearSolver`] for the source just set.
    /// Anything but `Dense` asks the pattern's owner for its analysis,
    /// once. `Auto` decides from the plan ([`NewtonPlan::prefers_sparse`])
    /// and so analyzes here when the owner keeps none; it goes dense when
    /// the fill is not worth it, when the analysis refuses the pattern and
    /// when there is no pattern to analyze (dense finite differences).
    fn decide_linear_solver(&mut self) {
        let solver = self.options.linear_solver;
        self.plan = match &self.source {
            _ if solver == LinearSolver::Dense => None,
            JacobianSource::AnalyticTape(provider) => provider.plan(),
            JacobianSource::FdColored(colored) => colored.pattern.plan(),
            JacobianSource::FdDense => None,
        };
        self.sparse = match solver {
            LinearSolver::Dense => false,
            LinearSolver::Sparse => true,
            LinearSolver::Auto => {
                if let (None, Some(pattern)) = (&self.plan, self.source.pattern()) {
                    self.plan = analyze_here(pattern, &mut self.stats).ok();
                }
                self.plan.as_ref().is_some_and(|plan| plan.prefers_sparse())
            }
        };
    }

    fn build_lu(&mut self, beta: f64) -> Result<(), SolverError> {
        let scale = self.h * beta;
        let built = if self.sparse {
            match self.build_sparse(scale) {
                // The sparse kernel pivots on the diagonal only, the dense
                // LU partially: a zero pivot there need not be one here.
                // `Auto` chose the kernel, so `Auto` takes it back.
                Err(LinalgError::Singular(_))
                    if self.options.linear_solver == LinearSolver::Auto =>
                {
                    self.sparse = false;
                    self.build_dense(scale)
                }
                other => other,
            }
        } else {
            self.build_dense(scale)
        };
        built.map_err(|_| SolverError::SingularIterationMatrix { t: self.t })?;
        self.stats.factorizations += 1;
        self.gamma_built = Some(scale);
        self.factor_age = 0;
        // A new matrix voids what was measured on the old one.
        self.newton_rate = 1.0;
        self.sens_rate = 1.0;
        Ok(())
    }

    fn build_dense(&mut self, scale: f64) -> Result<(), LinalgError> {
        let m = match self.jac.as_ref().expect("jacobian refreshed") {
            JacStore::Dense(jac) => {
                let n = jac.rows();
                let mut m = Matrix::identity(n);
                for i in 0..n {
                    for j in 0..n {
                        m[(i, j)] -= scale * jac[(i, j)];
                    }
                }
                m
            }
            // Sparsity-aware assembly: only the structural nonzeros are
            // touched.
            JacStore::Sparse(csr) => csr.assemble_iteration_matrix(scale),
        };
        let n = m.rows();
        self.factor = Factor::Dense(Lu::factor(&m)?);
        self.stats.fill_nnz = n * n;
        Ok(())
    }

    /// Refactor `I − scale·J` on the sparse path, creating the persistent
    /// kernel over the plan on first use.
    fn build_sparse(&mut self, scale: f64) -> Result<(), LinalgError> {
        // The pattern the Jacobian store is gathered through.
        let pattern: &SparsityPattern = match self.source.pattern() {
            Some(pattern) => pattern,
            None => {
                // Forced sparse on a dense-FD source: treat every entry as
                // structural. No fill advantage, but uniform semantics.
                let n = self.rhs.dim();
                let fits = matches!(&self.full_pattern, Some(p) if p.n_rows() == n);
                if !fits {
                    let rows = vec![(0..n as u32).collect::<Vec<u32>>(); n];
                    self.full_pattern = Some(SparsityPattern::new(rows, n));
                }
                self.full_pattern.as_ref().expect("just stored")
            }
        };
        if !matches!(self.factor, Factor::Sparse(_)) {
            let plan = match &self.plan {
                Some(plan) => plan.clone(),
                // Explicit `Sparse` over a pattern nobody keeps a plan for.
                None => analyze_here(pattern, &mut self.stats)?,
            };
            self.factor = Factor::Sparse(SparseNewton::from_plan(plan));
        }
        let kernel = match &mut self.factor {
            Factor::Sparse(kernel) => kernel,
            _ => unreachable!("just stored"),
        };
        match self.jac.as_ref().expect("jacobian refreshed") {
            JacStore::Sparse(csr) => kernel.factor_from_csr(csr, scale)?,
            JacStore::Dense(jac) => kernel.factor_from_dense(jac, pattern, scale)?,
        }
        self.stats.fill_nnz = kernel.fill_nnz();
        Ok(())
    }

    /// Solve `(I − hβJ)v = v` in place with the current factorization.
    fn solve_factor_in_place(&self, v: &mut [f64]) -> Result<(), SolverError> {
        match &self.factor {
            Factor::Dense(lu) => lu.solve_in_place(v),
            Factor::Sparse(kernel) => kernel.solve_in_place(v),
            Factor::None => unreachable!("factorization ensured before solves"),
        }
        .map_err(|_| SolverError::SingularIterationMatrix { t: self.t })
    }

    /// Solve `(I − hβJ)X = B` in place with the current factorization for
    /// `ncols` right-hand sides at once; `xs` is row-major `n × ncols`.
    fn solve_factor_multi_in_place(&self, xs: &mut [f64], ncols: usize) -> Result<(), SolverError> {
        match &self.factor {
            Factor::Dense(lu) => lu.solve_multi_in_place(xs, ncols),
            Factor::Sparse(kernel) => kernel.solve_multi_in_place(xs, ncols),
            Factor::None => unreachable!("factorization ensured before solves"),
        }
        .map_err(|_| SolverError::SingularIterationMatrix { t: self.t })
    }

    /// `out = J·X` with the cached Jacobian for a row-major `n × ncols`
    /// block `x`: each Jacobian entry is loaded once and streamed across
    /// every column, allocation-free after warmup.
    fn jac_matvec_multi(&self, x: &[f64], ncols: usize, out: &mut Vec<f64>) {
        let n = x.len() / ncols.max(1);
        out.clear();
        out.resize(n * ncols, 0.0);
        match self.jac.as_ref().expect("jacobian refreshed") {
            JacStore::Dense(m) => {
                for i in 0..n {
                    let row_out = &mut out[i * ncols..(i + 1) * ncols];
                    for j in 0..n {
                        let v = m[(i, j)];
                        if v != 0.0 {
                            let row_x = &x[j * ncols..(j + 1) * ncols];
                            for c in 0..ncols {
                                row_out[c] += v * row_x[c];
                            }
                        }
                    }
                }
            }
            JacStore::Sparse(csr) => {
                for i in 0..n {
                    let (cols, vals) = csr.row(i);
                    let row_out = &mut out[i * ncols..(i + 1) * ncols];
                    for (&j, &v) in cols.iter().zip(vals) {
                        let row_x = &x[j as usize * ncols..(j as usize + 1) * ncols];
                        for c in 0..ncols {
                            row_out[c] += v * row_x[c];
                        }
                    }
                }
            }
        }
    }

    /// Solve the discrete sensitivity systems at the accepted corrector
    /// point, writing the results into the sensitivity blocks of `s.y`.
    ///
    /// Differentiating the corrector equation
    /// `y_{n+1} − hβ f(t,y_{n+1}) = Σᵢ αᵢ y_{n−i}` with respect to `p_k`
    /// gives a *linear* system per parameter,
    /// `(I − hβJ)s_k = Σᵢ αᵢ s_{k,n−i} + hβ ∂f/∂p_k`, whose matrix is
    /// exactly the Newton iteration matrix — so one factorization serves
    /// the state and every sensitivity. The factorization may be lagged
    /// (built at an earlier point, for another `γ`); it is used as a
    /// preconditioner in a residual-refinement loop against the *fresh*
    /// Jacobian, its corrections scaled like the Newton ones, so a lagged
    /// `γ` costs refinement passes. Only if refinement stalls is the
    /// matrix rebuilt exactly.
    fn propagate_sensitivities(
        &mut self,
        t_next: f64,
        beta: f64,
        s: &mut Scratch,
    ) -> Result<(), SolverError> {
        let n = self.rhs.dim();
        let sens = self.sens.expect("caller checked");
        let p = sens.n_params();
        if p == 0 {
            return Ok(());
        }
        // Fresh Jacobian at the accepted point: the sensitivity equation
        // is exact only with J evaluated where the corrector converged.
        // (The refresh also benefits the next step's iteration matrix.)
        let y_new = std::mem::take(&mut s.y);
        self.refresh_jacobian(t_next, &y_new[..n], s);
        s.dfdp.clear();
        s.dfdp.resize(n * p, 0.0);
        sens.eval_dfdp(t_next, &y_new[..n], &mut s.dfdp);
        self.stats.fevals += 1;
        s.y = y_new;
        let hb = self.h * beta;
        let lag = self.lag_correction(beta);
        // Gather all p systems into row-major n×p blocks: the matvec and
        // triangular solves then stream each matrix entry across every
        // parameter at once instead of re-walking the factors p times.
        s.sens_b.clear();
        s.sens_b.resize(n * p, 0.0);
        s.sens_x.clear();
        s.sens_x.resize(n * p, 0.0);
        for k in 0..p {
            let off = n * (k + 1);
            for i in 0..n {
                s.sens_b[i * p + k] = s.rhs_const[off + i] + hb * s.dfdp[k * n + i];
                s.sens_x[i * p + k] = s.y_pred[off + i];
            }
        }
        // Start from the predictor blocks and refine: with the current
        // factorization M ≈ (I − hβJ), one pass of
        // X ← X − M⁻¹((I − hβJ)X − B) over all p columns. The predictor
        // is close, so with a current M most columns finish here.
        let (rtol, atol) = (self.options.rtol, self.options.atol);
        self.jac_matvec_multi(&s.sens_x, p, &mut s.jv);
        s.delta.clear();
        s.delta
            .extend((0..n * p).map(|i| s.sens_x[i] - hb * s.jv[i] - s.sens_b[i]));
        self.solve_factor_multi_in_place(&mut s.delta, p)?;
        self.stats.sens_refinements += 1;
        for i in 0..n * p {
            s.delta[i] *= lag;
            s.sens_x[i] -= s.delta[i];
        }
        // Columns the shared test passes are done; the rest are compacted
        // into an `n × q` block and refined further, so the continued
        // iteration pays only for the stragglers. (A NaN norm fails the
        // test: the continued iteration, or its refactor-and-solve
        // fallback, deals with it.)
        s.active.clear();
        let mut prev_norm = 0.0f64;
        for k in 0..p {
            let norm = column_norm(&s.delta, &s.sens_x, n, p, k, rtol, atol);
            if !is_converged(norm, self.sens_rate, lag) {
                s.active.push(k);
                prev_norm = prev_norm.max(norm);
            }
        }
        if !s.active.is_empty() {
            let q = s.active.len();
            s.sens_xq.clear();
            s.sens_xq.resize(n * q, 0.0);
            s.sens_bq.clear();
            s.sens_bq.resize(n * q, 0.0);
            for (c, &k) in s.active.iter().enumerate() {
                for i in 0..n {
                    s.sens_xq[i * q + c] = s.sens_x[i * p + k];
                    s.sens_bq[i * q + c] = s.sens_b[i * p + k];
                }
            }
            let mut converged = false;
            for pass in 1..SENS_MAX_ITERS {
                self.jac_matvec_multi(&s.sens_xq, q, &mut s.jv);
                s.delta.clear();
                s.delta
                    .extend((0..n * q).map(|i| s.sens_xq[i] - hb * s.jv[i] - s.sens_bq[i]));
                self.solve_factor_multi_in_place(&mut s.delta, q)?;
                self.stats.sens_refinements += 1;
                for i in 0..n * q {
                    s.delta[i] *= lag;
                    s.sens_xq[i] -= s.delta[i];
                }
                let norm = max_column_norm(&s.delta, &s.sens_xq, n, q, rtol, atol);
                self.sens_rate = (RATE_DECAY * self.sens_rate).max(norm / prev_norm);
                if is_converged(norm, self.sens_rate, lag) {
                    converged = true;
                    break;
                }
                if !norm.is_finite() || (pass >= 2 && norm > DIVERGENCE_RATIO * prev_norm) {
                    break;
                }
                prev_norm = norm;
            }
            if !converged {
                // Refinement stalled on a stale factorization: rebuild it
                // from the fresh Jacobian (making M exact) and solve the
                // remaining systems directly.
                self.build_lu(beta)?;
                s.sens_xq.copy_from_slice(&s.sens_bq);
                self.solve_factor_multi_in_place(&mut s.sens_xq, q)?;
            }
            for (c, &k) in s.active.iter().enumerate() {
                for i in 0..n {
                    s.sens_x[i * p + k] = s.sens_xq[i * q + c];
                }
            }
        }
        if s.sens_x.iter().any(|v| !v.is_finite()) {
            return Err(SolverError::NonFiniteDerivative { t: self.t });
        }
        for k in 0..p {
            let off = n * (k + 1);
            for i in 0..n {
                s.y[off + i] = s.sens_x[i * p + k];
            }
        }
        Ok(())
    }

    /// Newton failed. On a lagged matrix (stale Jacobian, or built for
    /// another `γ`) make it current at the same `h`; on a current one cut
    /// the step and restart at order 1. Returns `Ok(true)` to retry.
    fn try_recover(
        &mut self,
        t_next: f64,
        y_pred: &[f64],
        beta: f64,
        s: &mut Scratch,
    ) -> Result<bool, SolverError> {
        self.stats.rejected += 1;
        self.stats.newton_failures += 1;
        if !self.jac_current || self.gamma_built != Some(self.h * beta) {
            if !self.jac_current {
                self.refresh_jacobian(t_next, y_pred, s);
            }
            self.build_lu(beta)?;
            return Ok(true);
        }
        let new_h = self.h * 0.25;
        if new_h < self.options.h_min {
            return Ok(false);
        }
        self.order = 1;
        self.change_step(new_h, s);
        Ok(true)
    }
}

/// The convergence test of the state corrector and the sensitivity
/// refinement: the last correction's norm, times the share of it the next
/// pass would still find, against [`NEWTON_TOL`]. That share is the
/// measured contraction `rate`, capped at one and floored by
/// `|1 − lag| = |γ/γ_built − 1| / (1 + γ/γ_built)` — what the scaled
/// lagged iteration leaves of a stiff mode's error per pass whatever was
/// measured before `γ` moved, and zero on a current matrix.
fn is_converged(norm: f64, rate: f64, lag: f64) -> bool {
    norm * rate.max((1.0 - lag).abs()).min(1.0) < NEWTON_TOL
}

/// Lagrange weights of the polynomial through the history nodes
/// `x_i = −i`, `i < m`, evaluated at `x`. They sum to one.
fn lagrange_weights(m: usize, x: f64) -> [f64; MAX_ORDER + 1] {
    let mut weights = [0.0; MAX_ORDER + 1];
    for (i, w) in weights.iter_mut().enumerate().take(m) {
        *w = 1.0;
        for j in (0..m).filter(|&j| j != i) {
            *w *= (x + j as f64) / (j as f64 - i as f64);
        }
    }
    weights
}

/// `out = Σᵢ weights[i] · points[i]` over as many terms as both provide,
/// for weights that sum to one, evaluated as
/// `points[0] + Σ_{i≥1} weights[i] · (points[i] − points[0])`: rounding
/// then scales with the spread of the points instead of their size, and a
/// linear invariant shared by the points is shared by `out`.
fn combine_into(out: &mut Vec<f64>, weights: &[f64], points: &[Vec<f64>]) {
    let base = &points[0];
    out.clear();
    out.resize(base.len(), 0.0);
    for (w, point) in weights.iter().zip(points).skip(1) {
        for ((dst, &v), &b) in out.iter_mut().zip(point).zip(base) {
            *dst += w * (v - b);
        }
    }
    for (dst, &b) in out.iter_mut().zip(base) {
        *dst += b;
    }
}

/// The worst per-column weighted RMS norm over the `p` interleaved
/// columns of row-major `n × p` blocks `err`/`y` — the blocked-solve
/// analogue of [`error_norm`]. Returns a non-finite value as soon as one
/// column produces one, so callers can bail out of refinement.
fn max_column_norm(err: &[f64], y: &[f64], n: usize, p: usize, rtol: f64, atol: f64) -> f64 {
    let mut worst = 0.0f64;
    for k in 0..p {
        let norm = column_norm(err, y, n, p, k, rtol, atol);
        if !norm.is_finite() {
            return norm;
        }
        worst = worst.max(norm);
    }
    worst
}

/// The weighted RMS norm of column `k` of row-major `n × p` blocks
/// `err`/`y` — [`error_norm`] over one interleaved column.
fn column_norm(err: &[f64], y: &[f64], n: usize, p: usize, k: usize, rtol: f64, atol: f64) -> f64 {
    let mut sum = 0.0;
    for i in 0..n {
        let e = err[i * p + k];
        let w = atol + rtol * y[i * p + k].abs();
        sum += (e / w) * (e / w);
    }
    (sum / n.max(1) as f64).sqrt()
}

/// Analyze `pattern` for this solve alone, counted in `stats`.
fn analyze_here(
    pattern: &SparsityPattern,
    stats: &mut SolveStats,
) -> Result<Arc<NewtonPlan>, LinalgError> {
    stats.symbolic_analyses += 1;
    NewtonPlan::analyze(pattern).map(Arc::new)
}

/// The dense Jacobian store, reused across refreshes (reallocated only if
/// the shape changed, which it never does for a fixed problem).
fn dense_store(jac: &mut Option<JacStore>, rows: usize, cols: usize) -> &mut Matrix {
    let fits = matches!(jac, Some(JacStore::Dense(m)) if m.rows() == rows && m.cols() == cols);
    if !fits {
        *jac = Some(JacStore::Dense(Matrix::zeros(rows, cols)));
    }
    match jac {
        Some(JacStore::Dense(m)) => m,
        _ => unreachable!("just stored"),
    }
}

/// Driver: integrate from `t0`, sampling the state at the requested times.
pub fn solve_bdf<R: OdeRhs>(
    rhs: &R,
    t0: f64,
    y0: &[f64],
    times: &[f64],
    options: SolverOptions,
) -> Result<(Vec<Vec<f64>>, SolveStats), SolverError> {
    solve_bdf_with_jacobian(rhs, t0, y0, times, options, JacobianSource::FdDense)
}

/// [`solve_bdf`] with an explicit Jacobian source.
pub fn solve_bdf_with_jacobian<'a, R: OdeRhs>(
    rhs: &'a R,
    t0: f64,
    y0: &[f64],
    times: &[f64],
    options: SolverOptions,
    source: JacobianSource<'a>,
) -> Result<(Vec<Vec<f64>>, SolveStats), SolverError> {
    let mut solver = Bdf::new(rhs, t0, y0, options);
    solver.set_jacobian_source(source);
    let mut out = Vec::with_capacity(times.len());
    for &t in times {
        solver.integrate_to(t)?;
        out.push(solver.y().to_vec());
    }
    Ok((out, solver.stats()))
}

/// [`solve_bdf_with_jacobian`] with forward sensitivities: integrates the
/// state and `∂y/∂p` together, sampling both at the requested times.
///
/// Returns `(states, sensitivities, stats)`: `states[r]` is `y(times[r])`
/// and `sensitivities[r]` the corresponding `∂y/∂p`, parameter-major
/// (`k*dim + i` = `∂y_i/∂p_k`), starting from `∂y/∂p = 0` at `t0`.
#[allow(clippy::type_complexity)]
pub fn solve_bdf_sensitivities<'a, R: OdeRhs>(
    rhs: &'a R,
    sens: &'a dyn SensitivityRhs,
    t0: f64,
    y0: &[f64],
    times: &[f64],
    options: SolverOptions,
    source: JacobianSource<'a>,
) -> Result<(Vec<Vec<f64>>, Vec<Vec<f64>>, SolveStats), SolverError> {
    let mut solver = Bdf::new(rhs, t0, y0, options);
    solver.set_jacobian_source(source);
    solver.set_sensitivities(sens);
    let n = rhs.dim();
    let mut states = Vec::with_capacity(times.len());
    let mut sensitivities = Vec::with_capacity(times.len());
    for &t in times {
        solver.integrate_to(t)?;
        states.push(solver.y()[..n].to_vec());
        sensitivities.push(solver.sensitivities().to_vec());
    }
    Ok((states, sensitivities, solver.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::FnRhs;
    use crate::rk45::solve_rk45;

    #[test]
    fn exponential_decay() {
        let rhs = FnRhs::new(1, |_t, y: &[f64], ydot: &mut [f64]| ydot[0] = -2.0 * y[0]);
        let (sol, stats) =
            solve_bdf(&rhs, 0.0, &[1.0], &[1.0, 2.0], SolverOptions::default()).unwrap();
        assert!((sol[0][0] - (-2.0f64).exp()).abs() < 1e-4, "{}", sol[0][0]);
        assert!((sol[1][0] - (-4.0f64).exp()).abs() < 1e-4, "{}", sol[1][0]);
        assert!(stats.jevals >= 1);
        assert!(stats.factorizations >= 1);
    }

    #[test]
    fn order_ramps_up() {
        let rhs = FnRhs::new(1, |_t, y: &[f64], ydot: &mut [f64]| ydot[0] = -y[0]);
        let mut solver = Bdf::new(&rhs, 0.0, &[1.0], SolverOptions::default());
        solver.integrate_to(1.0).unwrap();
        assert!(solver.order() >= 3, "order stuck at {}", solver.order());
    }

    #[test]
    fn stiff_decay_cheap_for_bdf_expensive_for_rk() {
        // lambda = -1e6 over t in [0, 1]: textbook stiffness.
        let rhs = FnRhs::new(1, |_t, y: &[f64], ydot: &mut [f64]| ydot[0] = -1e6 * y[0]);
        let options = SolverOptions {
            max_steps: 100_000,
            ..SolverOptions::default()
        };
        let (sol, bdf_stats) = solve_bdf(&rhs, 0.0, &[1.0], &[1.0], options).unwrap();
        assert!(sol[0][0].abs() < 1e-6);
        // RK45 with the same budget fails outright (see rk45 tests) or
        // needs ~1e6 steps; BDF should be orders of magnitude cheaper.
        assert!(
            bdf_stats.steps < 10_000,
            "BDF took {} steps",
            bdf_stats.steps
        );
        let rk = solve_rk45(
            &rhs,
            0.0,
            &[1.0],
            &[1.0],
            SolverOptions {
                max_steps: bdf_stats.steps * 10,
                ..SolverOptions::default()
            },
        );
        assert!(rk.is_err(), "RK45 should not manage with 10x BDF's steps");
    }

    #[test]
    fn robertson_problem() {
        // The classic stiff chemistry benchmark.
        let rhs = Robertson::rhs();
        let options = SolverOptions {
            rtol: 1e-8,
            atol: 1e-12,
            max_steps: 200_000,
            ..SolverOptions::default()
        };
        let (sol, _) = solve_bdf(&rhs, 0.0, &[1.0, 0.0, 0.0], &[0.4], options).unwrap();
        // Reference values (Hairer & Wanner).
        assert!((sol[0][0] - 0.9851721).abs() < 1e-4, "{}", sol[0][0]);
        assert!((sol[0][1] - 3.386396e-5).abs() < 1e-6, "{}", sol[0][1]);
        assert!((sol[0][2] - 0.0147940).abs() < 1e-4, "{}", sol[0][2]);
        // Mass conservation.
        let total: f64 = sol[0].iter().sum();
        assert!((total - 1.0).abs() < 1e-7);
    }

    /// Two species completing reactions in different epochs (the
    /// stiffness pattern §4.1 describes): fast A→B, slow B→C.
    const K_FAST: f64 = 1e5;
    const K_SLOW: f64 = 0.1;

    fn epochs_rhs() -> FnRhs<impl Fn(f64, &[f64], &mut [f64])> {
        FnRhs::new(3, |_t, y: &[f64], ydot: &mut [f64]| {
            ydot[0] = -K_FAST * y[0];
            ydot[1] = K_FAST * y[0] - K_SLOW * y[1];
            ydot[2] = K_SLOW * y[1];
        })
    }

    fn epochs_exact(t: f64) -> [f64; 3] {
        let a = (-K_FAST * t).exp();
        let b = K_FAST / (K_FAST - K_SLOW) * ((-K_SLOW * t).exp() - a);
        [a, b, 1.0 - a - b]
    }

    #[test]
    fn samples_between_steps_match_closed_forms() {
        // Output times are not step ends: every sample is read off the
        // history polynomial, and must still be right to the tolerance.
        let decay = FnRhs::new(1, |_t, y: &[f64], ydot: &mut [f64]| ydot[0] = -y[0]);
        let mut solver = Bdf::new(&decay, 0.0, &[1.0], SolverOptions::default());
        let mut interpolated = 0;
        for i in 1..=20 {
            let t = i as f64 * 0.25;
            solver.integrate_to(t).unwrap();
            assert!(solver.t >= t, "internal time {} short of {t}", solver.t);
            interpolated += usize::from(solver.t > t);
            let (got, exact) = (solver.y()[0], (-t).exp());
            assert!((got - exact).abs() < 1e-5, "t={t}: {got} vs {exact}");
        }
        assert!(interpolated >= 19, "only {interpolated} of 20 interpolated");

        let times: Vec<f64> = (1..=20).map(|i| i as f64 * 2.5).collect();
        let options = SolverOptions {
            max_steps: 100_000,
            ..SolverOptions::default()
        };
        let (sol, _) = solve_bdf(&epochs_rhs(), 0.0, &[1.0, 0.0, 0.0], &times, options).unwrap();
        for (&t, got) in times.iter().zip(&sol) {
            for (g, e) in got.iter().zip(epochs_exact(t)) {
                assert!((g - e).abs() < 5e-6, "t={t}: {got:?} vs {e}");
            }
        }
    }

    #[test]
    fn several_samples_inside_one_step_cost_no_step() {
        let decay = FnRhs::new(1, |_t, y: &[f64], ydot: &mut [f64]| ydot[0] = -y[0]);
        let mut solver = Bdf::new(&decay, 0.0, &[1.0], SolverOptions::default());
        solver.integrate_to(5.0).unwrap();
        let overshoot = solver.t - 5.0;
        assert!(overshoot > 0.0, "landed exactly; no room to interpolate");
        let steps = solver.stats().steps;
        for quarter in 1..=3 {
            let t = 5.0 + overshoot * quarter as f64 / 4.0;
            solver.integrate_to(t).unwrap();
            assert_eq!(solver.stats().steps, steps, "t={t} took a step");
            let (got, exact) = (solver.y()[0], (-t).exp());
            assert!(
                (got - exact).abs() < 1e-5 * exact,
                "t={t}: {got} vs {exact}"
            );
        }
        // Behind the previous request, even though ahead of others answered.
        assert!(matches!(
            solver.integrate_to(5.0 + overshoot / 4.0),
            Err(SolverError::BadInput(_))
        ));
        // The next request past the internal time steps again.
        solver.integrate_to(solver.t + 1.0).unwrap();
        assert!(solver.stats().steps > steps);
    }

    /// Robertson's kinetics with its exact Jacobian: every column of `J`
    /// sums to zero, so the corrector conserves total mass to rounding.
    struct Robertson {
        pattern: SparsityPattern,
    }

    impl Robertson {
        fn new() -> Robertson {
            Robertson {
                pattern: SparsityPattern::new(vec![vec![0, 1, 2], vec![0, 1, 2], vec![1]], 3),
            }
        }

        fn rhs() -> FnRhs<impl Fn(f64, &[f64], &mut [f64])> {
            FnRhs::new(3, |_t, y: &[f64], ydot: &mut [f64]| {
                ydot[0] = -0.04 * y[0] + 1e4 * y[1] * y[2];
                ydot[1] = 0.04 * y[0] - 1e4 * y[1] * y[2] - 3e7 * y[1] * y[1];
                ydot[2] = 3e7 * y[1] * y[1];
            })
        }
    }

    impl AnalyticJacobian for Robertson {
        fn pattern(&self) -> &SparsityPattern {
            &self.pattern
        }

        fn eval_values(&self, _t: f64, y: &[f64], vals: &mut [f64]) {
            let row0 = [-0.04, 1e4 * y[2], 1e4 * y[1]];
            let row2 = 6e7 * y[1];
            vals[..3].copy_from_slice(&row0);
            vals[3..6].copy_from_slice(&[-row0[0], -row0[1] - row2, -row0[2]]);
            vals[6] = row2;
        }
    }

    #[test]
    fn linear_invariant_survives_interpolation() {
        // Interpolation weights sum to one, so an output carries the total
        // mass of the step ends it is read between — to rounding, where
        // the step ends themselves hold it to the solver's tolerance.
        // (Sampled past the start-up transient, whose step ends still
        // disagree with each other at that tolerance.)
        let (rhs, jac) = (Robertson::rhs(), Robertson::new());
        let mut solver = Bdf::new(&rhs, 0.0, &[1.0, 0.0, 0.0], SolverOptions::default());
        solver.set_jacobian_source(JacobianSource::AnalyticTape(&jac));
        let mut interpolated = 0;
        for i in 0..20 {
            let t = 30.0 * 1.35f64.powi(i);
            solver.integrate_to(t).unwrap();
            interpolated += usize::from(solver.t > t);
            let mass: f64 = solver.y().iter().sum();
            let step_end: f64 = solver.history[0].iter().sum();
            assert!(
                (mass - step_end).abs() < 1e-12,
                "t={t}: {mass} vs {step_end}"
            );
            assert!((mass - 1.0).abs() < 1e-7, "t={t}: mass {mass}");
        }
        assert!(interpolated >= 19, "only {interpolated} of 20 interpolated");
    }

    #[test]
    fn factorization_outlives_step_size_changes() {
        // Robertson over five decades of step size: the factors are kept
        // across nudges of h, so at most one step in three refactors.
        let (rhs, jac) = (Robertson::rhs(), Robertson::new());
        let (_, stats) = solve_bdf_with_jacobian(
            &rhs,
            0.0,
            &[1.0, 0.0, 0.0],
            &[4e5],
            SolverOptions::default(),
            JacobianSource::AnalyticTape(&jac),
        )
        .unwrap();
        assert!(
            stats.factorizations * 3 <= stats.steps,
            "{} factorizations for {} steps",
            stats.factorizations,
            stats.steps
        );
        assert!(stats.newton_failures <= stats.rejected, "{stats:?}");
    }

    #[test]
    fn growth_is_held_until_the_history_is_computed_again() {
        // Growing h on every step compounds the extrapolation in the
        // history rescale until the error test collapses h by decades and
        // the climb restarts: 1532 steps and 174 rejections on this smooth
        // decay before the hold, 241 and 5 with it.
        let rhs = FnRhs::new(1, |_t, y: &[f64], ydot: &mut [f64]| ydot[0] = -2.5 * y[0]);
        let options = SolverOptions {
            rtol: 1e-9,
            atol: 1e-12,
            ..SolverOptions::default()
        };
        let (sol, stats) = solve_bdf(&rhs, 0.0, &[1.0], &[1.0], options).unwrap();
        assert!((sol[0][0] - (-2.5f64).exp()).abs() < 1e-9, "{}", sol[0][0]);
        assert!(
            stats.steps <= 400 && stats.rejected <= 20,
            "step size collapsed: {stats:?}"
        );
    }

    #[test]
    fn a_growing_corrector_stops_at_the_third_pass_and_recovers_through_the_refresh() {
        // y' = λ(t)·(y − m(t)) + cos t rides m(t) = 2 + sin t whatever λ
        // is: mildly repelled (λ = 1) up to T, stiffly attracted
        // (λ = −10³) after it, where m also moves up by 10⁻⁵ — a
        // predictor error some thirty times the tolerance. Nothing
        // refreshes the Jacobian read at t = 0 while Newton converges,
        // so the first corrector past T runs on 1 − γ where 1 + 10³γ is
        // due: a Jacobian of the wrong sign, every pass multiplying the
        // correction by ≈ −10³γ, far from anything `newton_rate` has seen.
        const T: f64 = 1.0;
        fn lambda(t: f64) -> f64 {
            if t < T {
                1.0
            } else {
                -1e3
            }
        }
        let manifold = |t: f64| 2.0 + t.sin() + if t < T { 0.0 } else { 1e-5 };
        struct Switch {
            pattern: SparsityPattern,
            refreshed_past_t: std::cell::Cell<bool>,
        }
        impl AnalyticJacobian for Switch {
            fn pattern(&self) -> &SparsityPattern {
                &self.pattern
            }
            fn eval_values(&self, t: f64, _y: &[f64], vals: &mut [f64]) {
                vals[0] = lambda(t);
                if t >= T {
                    self.refreshed_past_t.set(true);
                }
            }
        }
        let jac = Switch {
            pattern: SparsityPattern::new(vec![vec![0]], 1),
            refreshed_past_t: std::cell::Cell::new(false),
        };
        // Corrector passes past T on the Jacobian from before it.
        let stale_passes = std::cell::Cell::new(0);
        let rhs = FnRhs::new(1, |t, y: &[f64], ydot: &mut [f64]| {
            ydot[0] = lambda(t) * (y[0] - manifold(t)) + t.cos();
            if t >= T && !jac.refreshed_past_t.get() {
                stale_passes.set(stale_passes.get() + 1);
            }
        });
        let (sol, stats) = solve_bdf_with_jacobian(
            &rhs,
            0.0,
            &[2.0],
            &[0.9, 1.5],
            SolverOptions::default(),
            JacobianSource::AnalyticTape(&jac),
        )
        .unwrap();
        // Pass two grew without being judged, pass three grew and was;
        // the remaining five of `NEWTON_MAX_ITERS` were not spent.
        assert_eq!(stale_passes.get(), 3, "{stats:?}");
        // The failure refreshed the Jacobian at the same h — its second
        // and last evaluation — and nothing failed to converge after it.
        assert_eq!((stats.newton_failures, stats.jevals), (1, 2), "{stats:?}");
        for (got, t) in sol.iter().zip([0.9, 1.5]) {
            assert!((got[0] - manifold(t)).abs() < 1e-5, "t={t}: {}", got[0]);
        }
    }

    /// Stiff lower-bidiagonal chain, started with all mass on species 0.
    fn chain_rhs(n: usize) -> FnRhs<impl Fn(f64, &[f64], &mut [f64])> {
        FnRhs::new(n, move |_t, y: &[f64], ydot: &mut [f64]| {
            ydot[0] = -1e3 * y[0];
            for i in 1..y.len() {
                ydot[i] = 1e3 * y[i - 1] - (1.0 + i as f64) * y[i];
            }
        })
    }

    fn chain_start(n: usize) -> Vec<f64> {
        let mut y0 = vec![0.0; n];
        y0[0] = 1.0;
        y0
    }

    /// The chain's Jacobian sparsity.
    fn chain_pattern(n: usize) -> SparsityPattern {
        let rows = (0..n as u32)
            .map(|i| if i == 0 { vec![0] } else { vec![i - 1, i] })
            .collect();
        SparsityPattern::new(rows, n)
    }

    #[test]
    fn sparse_jacobian_matches_dense_solution_with_fewer_fevals() {
        let n = 40;
        let (rhs, y0, pattern) = (chain_rhs(n), chain_start(n), chain_pattern(n));
        // One linear solver throughout: this compares Jacobian sources.
        let options = SolverOptions {
            max_steps: 100_000,
            linear_solver: LinearSolver::Dense,
            ..SolverOptions::default()
        };
        let mut dense = Bdf::new(&rhs, 0.0, &y0, options);
        dense.integrate_to(1.0).unwrap();
        let colored = ColoredPattern::new(pattern);
        let mut sparse = Bdf::new(&rhs, 0.0, &y0, options);
        sparse.set_jacobian_source(JacobianSource::FdColored(&colored));
        sparse.integrate_to(1.0).unwrap();
        assert!(colored.pattern.built_plan().is_none(), "Dense never plans");
        for (a, b) in dense.y().iter().zip(sparse.y()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
        // Newton iterations dominate total fevals; the colored Jacobian
        // saves (n - n_colors) evaluations per refresh.
        let saved = dense.stats().fevals - sparse.stats().fevals;
        assert!(
            saved >= sparse.stats().jevals * (n / 2),
            "saved {saved} over {} jacobian refreshes (n = {n})",
            sparse.stats().jevals
        );
    }

    #[test]
    fn auto_decides_from_the_plan_beside_the_coloring() {
        // The chain refactors in 39 multiply-adds (the divisions of a
        // bidiagonal L) against 40³/3 densely: `Auto` takes it sparse, on
        // the plan the pattern's owner builds once, beside the coloring.
        let n = 40;
        let (rhs, y0, pattern) = (chain_rhs(n), chain_start(n), chain_pattern(n));
        let options = SolverOptions {
            max_steps: 100_000,
            ..SolverOptions::default()
        };
        assert_eq!(options.linear_solver, LinearSolver::Auto);
        let colored = ColoredPattern::new(pattern);
        assert!(colored.pattern.built_plan().is_none());
        let mut solver = Bdf::new(&rhs, 0.0, &y0, options);
        solver.set_jacobian_source(JacobianSource::FdColored(&colored));
        solver.integrate_to(1.0).unwrap();
        assert_eq!(colored.pattern.built_plan().unwrap().factor_macs(), 39);
        assert_eq!(solver.stats().symbolic_analyses, 0, "the owner's plan");
        assert_eq!(solver.stats().fill_nnz, 2 * n - 1);

        // A source with no sparsity has nothing to plan from.
        let mut fd_dense = Bdf::new(&rhs, 0.0, &y0, options);
        fd_dense.integrate_to(1.0).unwrap();
        assert_eq!(fd_dense.stats().symbolic_analyses, 0);
        assert_eq!(fd_dense.stats().fill_nnz, n * n);
    }

    /// `y' = Jy` whose first iteration matrix has a zero leading pivot
    /// without being singular: species 0 and 1 couple through
    /// `[[2, 1], [1, 0]]`, so at `γ = h_init·β₁ = ½` their block of
    /// `I − γJ` is `[[0, −½], [−½, 1]]`. The other species decay on their
    /// own; they are there so that `Auto` has a reason to go sparse (the
    /// bare 2×2 is two multiply-adds either way and stays dense).
    struct ZeroPivot {
        pattern: SparsityPattern,
    }

    impl ZeroPivot {
        const N: usize = 10;

        fn new() -> ZeroPivot {
            let rows = (0..ZeroPivot::N as u32)
                .map(|i| if i < 2 { vec![0, 1] } else { vec![i] })
                .collect();
            ZeroPivot {
                pattern: SparsityPattern::new(rows, ZeroPivot::N),
            }
        }

        fn rhs() -> FnRhs<impl Fn(f64, &[f64], &mut [f64])> {
            FnRhs::new(ZeroPivot::N, |_t, y: &[f64], ydot: &mut [f64]| {
                ydot[0] = 2.0 * y[0] + y[1];
                ydot[1] = y[0];
                for i in 2..y.len() {
                    ydot[i] = -y[i];
                }
            })
        }

        fn solve(
            &self,
            linear_solver: LinearSolver,
        ) -> Result<(Vec<f64>, SolveStats), SolverError> {
            let options = SolverOptions {
                h_init: Some(0.5),
                linear_solver,
                ..SolverOptions::default()
            };
            let y0 = vec![1.0; ZeroPivot::N];
            let source = JacobianSource::AnalyticTape(self);
            solve_bdf_with_jacobian(&ZeroPivot::rhs(), 0.0, &y0, &[1.0], options, source)
                .map(|(mut states, stats)| (states.remove(0), stats))
        }
    }

    impl AnalyticJacobian for ZeroPivot {
        fn pattern(&self) -> &SparsityPattern {
            &self.pattern
        }

        fn eval_values(&self, _t: f64, _y: &[f64], vals: &mut [f64]) {
            vals[..4].copy_from_slice(&[2.0, 1.0, 1.0, 0.0]);
            vals[4..].fill(-1.0);
        }
    }

    #[test]
    fn auto_falls_back_to_dense_on_a_zero_diagonal_pivot() {
        let system = ZeroPivot::new();
        let n = ZeroPivot::N;
        // Diagonal pivoting cannot factor the first matrix ...
        assert_eq!(
            system.solve(LinearSolver::Sparse).unwrap_err(),
            SolverError::SingularIterationMatrix { t: 0.0 }
        );
        // ... partial pivoting can, and `Auto`, having planned the sparse
        // path, factors that matrix densely and stays dense.
        let (dense, dense_stats) = system.solve(LinearSolver::Dense).unwrap();
        let plan = NewtonPlan::analyze(&system.pattern).unwrap();
        assert!(plan.prefers_sparse(), "{} macs", plan.factor_macs());
        let (auto, auto_stats) = system.solve(LinearSolver::Auto).unwrap();
        assert_eq!(auto, dense);
        assert_eq!(auto_stats.symbolic_analyses, 1);
        assert_eq!(auto_stats.fill_nnz, n * n);
        assert_eq!(
            dense_stats,
            SolveStats {
                symbolic_analyses: 0,
                ..auto_stats
            }
        );
        // The coupled pair grows along e^{(1+√2)t}; the rest decay.
        assert!(
            auto[0] > 5.0 && (auto[2] - (-1.0f64).exp()).abs() < 1e-4,
            "{auto:?}"
        );
    }

    #[test]
    fn analytic_jacobian_matches_fd_with_fewer_fevals() {
        // The same stiff chain, but with the exact Jacobian supplied
        // through the AnalyticTape source.
        struct ChainJac {
            pattern: SparsityPattern,
        }
        impl crate::jacobian::AnalyticJacobian for ChainJac {
            fn pattern(&self) -> &SparsityPattern {
                &self.pattern
            }
            fn eval_values(&self, _t: f64, _y: &[f64], vals: &mut [f64]) {
                // Row 0: ∂f0/∂y0 = -1e3; row i: [1e3, -(1+i)].
                vals[0] = -1e3;
                let mut k = 1;
                let n = self.pattern.n_rows();
                for i in 1..n {
                    vals[k] = 1e3;
                    vals[k + 1] = -(1.0 + i as f64);
                    k += 2;
                }
            }
        }
        let n = 40;
        let (rhs, y0) = (chain_rhs(n), chain_start(n));
        let options = SolverOptions {
            max_steps: 100_000,
            ..SolverOptions::default()
        };
        let provider = ChainJac {
            pattern: chain_pattern(n),
        };
        let times = [1.0];
        let (fd, fd_stats) = solve_bdf(&rhs, 0.0, &y0, &times, options).unwrap();
        let (analytic, an_stats) = solve_bdf_with_jacobian(
            &rhs,
            0.0,
            &y0,
            &times,
            options,
            JacobianSource::AnalyticTape(&provider),
        )
        .unwrap();
        for (a, b) in fd[0].iter().zip(&analytic[0]) {
            assert!((a - b).abs() < 1e-5 * a.abs().max(1.0), "{a} vs {b}");
        }
        assert!(an_stats.jevals >= 1);
        // Each dense-FD refresh costs n+1 fevals, each analytic refresh 1;
        // allow slack for small step-count differences between the runs.
        assert!(
            an_stats.fevals + (n / 2) * an_stats.jevals <= fd_stats.fevals,
            "analytic {an_stats:?} vs fd {fd_stats:?}"
        );
    }

    /// Dense `∂f/∂p` from a closure, for tests.
    struct FnSens<F: Fn(f64, &[f64], &mut [f64])> {
        n_params: usize,
        f: F,
    }
    impl<F: Fn(f64, &[f64], &mut [f64])> crate::problem::SensitivityRhs for FnSens<F> {
        fn n_params(&self) -> usize {
            self.n_params
        }
        fn eval_dfdp(&self, t: f64, y: &[f64], out: &mut [f64]) {
            (self.f)(t, y, out)
        }
    }

    #[test]
    fn decay_sensitivity_matches_closed_form() {
        // y' = -k y, y(0) = 1: y = e^{-kt}, ∂y/∂k = -t e^{-kt}.
        let k = 1.7;
        let rhs = FnRhs::new(1, move |_t, y: &[f64], ydot: &mut [f64]| {
            ydot[0] = -k * y[0]
        });
        let sens = FnSens {
            n_params: 1,
            f: |_t, y: &[f64], out: &mut [f64]| out[0] = -y[0],
        };
        let options = SolverOptions {
            rtol: 1e-9,
            atol: 1e-12,
            // Closed-form comparison: integrate the sensitivity itself to
            // tolerance instead of riding the state's step sizes.
            sens_error_control: true,
            ..SolverOptions::default()
        };
        // None of these is a step end: states and sensitivities alike are
        // read off the history polynomial.
        let times: Vec<f64> = (1..=20).map(|i| i as f64 * 0.1).collect();
        let (states, sensitivities, stats) = solve_bdf_sensitivities(
            &rhs,
            &sens,
            0.0,
            &[1.0],
            &times,
            options,
            JacobianSource::FdDense,
        )
        .unwrap();
        for (r, &t) in times.iter().enumerate() {
            let y_exact = (-k * t).exp();
            let s_exact = -t * y_exact;
            assert!(
                (states[r][0] - y_exact).abs() < 1e-6,
                "t={t}: y {} vs {y_exact}",
                states[r][0]
            );
            assert!(
                (sensitivities[r][0] - s_exact).abs() < 1e-5 * s_exact.abs().max(1e-3),
                "t={t}: s {} vs {s_exact}",
                sensitivities[r][0]
            );
        }
        assert!(stats.steps > 0);
    }

    #[test]
    fn two_parameter_sensitivities_match_fd() {
        // Robertson-like two-parameter system; cross-check ∂y/∂p against
        // central differences of full solves at tight tolerance.
        let solve = |p: &[f64], with_sens: bool| {
            let (k1, k2) = (p[0], p[1]);
            let rhs = FnRhs::new(2, move |_t, y: &[f64], ydot: &mut [f64]| {
                ydot[0] = -k1 * y[0] * y[0] + k2 * y[1];
                ydot[1] = k1 * y[0] * y[0] - k2 * y[1];
            });
            let options = SolverOptions {
                rtol: 1e-10,
                atol: 1e-13,
                ..SolverOptions::default()
            };
            let times = [2.0];
            if with_sens {
                let sens = FnSens {
                    n_params: 2,
                    f: |_t, y: &[f64], out: &mut [f64]| {
                        // Parameter-major: block 0 = ∂f/∂k1, block 1 = ∂f/∂k2.
                        out[0] = -y[0] * y[0];
                        out[1] = y[0] * y[0];
                        out[2] = y[1];
                        out[3] = -y[1];
                    },
                };
                let (st, se, _) = solve_bdf_sensitivities(
                    &rhs,
                    &sens,
                    0.0,
                    &[1.0, 0.0],
                    &times,
                    options,
                    JacobianSource::FdDense,
                )
                .unwrap();
                (st[0].clone(), se[0].clone())
            } else {
                let (st, _) = solve_bdf(&rhs, 0.0, &[1.0, 0.0], &times, options).unwrap();
                (st[0].clone(), Vec::new())
            }
        };
        let p0 = [0.9, 0.4];
        let (_, analytic) = solve(&p0, true);
        for k in 0..2 {
            // Step well above the solver noise floor (rtol/h amplifies
            // the solve-to-solve error of the FD reference).
            let h = 1e-4 * p0[k];
            let mut pp = p0;
            let mut pm = p0;
            pp[k] += h;
            pm[k] -= h;
            let (yp, _) = solve(&pp, false);
            let (ym, _) = solve(&pm, false);
            for i in 0..2 {
                let fd = (yp[i] - ym[i]) / (2.0 * h);
                let got = analytic[k * 2 + i];
                // The FD reference carries solve-to-solve noise (the step
                // sequence itself depends on p), so its accuracy is a few
                // orders above the solver tolerance.
                assert!(
                    (got - fd).abs() < 5e-5 * fd.abs().max(1e-2),
                    "∂y{i}/∂p{k}: analytic {got} vs fd {fd}"
                );
            }
        }
    }

    #[test]
    fn sensitivities_empty_without_source() {
        let rhs = FnRhs::new(1, |_t, y: &[f64], ydot: &mut [f64]| ydot[0] = -y[0]);
        let mut solver = Bdf::new(&rhs, 0.0, &[1.0], SolverOptions::default());
        solver.integrate_to(1.0).unwrap();
        assert!(solver.sensitivities().is_empty());
    }

    #[test]
    fn sensitivity_with_sparse_factorization() {
        // Force the sparse Newton kernel and make sure the shared
        // factorization also serves the sensitivity solves.
        let k = 2.5;
        let rhs = FnRhs::new(1, move |_t, y: &[f64], ydot: &mut [f64]| {
            ydot[0] = -k * y[0]
        });
        let sens = FnSens {
            n_params: 1,
            f: |_t, y: &[f64], out: &mut [f64]| out[0] = -y[0],
        };
        let options = SolverOptions {
            rtol: 1e-9,
            atol: 1e-12,
            linear_solver: LinearSolver::Sparse,
            ..SolverOptions::default()
        };
        let (_, sensitivities, _) = solve_bdf_sensitivities(
            &rhs,
            &sens,
            0.0,
            &[1.0],
            &[1.0],
            options,
            JacobianSource::FdDense,
        )
        .unwrap();
        // ∂/∂k of y(t) = e^{−kt} at t = 1 is −t·e^{−kt} = −e^{−k}.
        let s_exact = -((-k * 1.0f64).exp());
        assert!(
            (sensitivities[0][0] - s_exact).abs() < 1e-5,
            "{} vs {s_exact}",
            sensitivities[0][0]
        );
    }

    #[test]
    fn backwards_time_rejected() {
        let rhs = FnRhs::new(1, |_t, _y: &[f64], ydot: &mut [f64]| ydot[0] = 0.0);
        let mut solver = Bdf::new(&rhs, 1.0, &[0.0], SolverOptions::default());
        assert!(matches!(
            solver.integrate_to(0.0),
            Err(SolverError::BadInput(_))
        ));
        // Behind the previous request is behind, wherever the internal
        // time has got to.
        solver.integrate_to(2.0).unwrap();
        assert!(solver.t >= 2.0);
        assert!(matches!(
            solver.integrate_to(1.5),
            Err(SolverError::BadInput(_))
        ));
    }
}
