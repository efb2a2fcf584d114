//! Modified Levenberg–Marquardt with simple bounds (active set by
//! gradient projection), mirroring the IMSL routine's role in Fig. 8.

use rms_solver::{Lu, Matrix};

use crate::residual::Residual;

/// Optimizer configuration.
#[derive(Debug, Clone, Copy)]
pub struct LmOptions {
    /// Maximum outer iterations.
    pub max_iters: usize,
    /// Stop when the scaled gradient infinity-norm falls below this.
    pub gtol: f64,
    /// Stop when the relative cost reduction falls below this.
    pub ftol: f64,
    /// Stop when the step infinity-norm falls below this.
    pub xtol: f64,
    /// Initial damping parameter λ.
    pub lambda_init: f64,
    /// Relative finite-difference step for the Jacobian. The default
    /// `sqrt(machine epsilon)` suits analytically smooth residuals; when
    /// the residual comes from an adaptive ODE solver its noise floor is
    /// near the solver tolerance, and the step must sit well above it
    /// (`1e-3`–`1e-4` is typical, cf. ODRPACK / MINPACK guidance).
    pub fd_step: f64,
}

impl Default for LmOptions {
    fn default() -> LmOptions {
        LmOptions {
            max_iters: 100,
            gtol: 1e-10,
            ftol: 1e-12,
            xtol: 1e-12,
            lambda_init: 1e-3,
            fd_step: f64::EPSILON.sqrt(),
        }
    }
}

/// Why the optimizer stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Gradient tolerance reached (first-order optimality, modulo bounds).
    GradientTolerance,
    /// Cost stopped improving.
    CostTolerance,
    /// Step became negligible.
    StepTolerance,
    /// Iteration budget exhausted.
    MaxIterations,
}

/// Optimizer failures.
#[derive(Debug, Clone, PartialEq)]
pub enum NloptError {
    /// Mismatched array lengths or empty bounds.
    BadInput(String),
    /// The residual failed at the *initial* point (nothing to recover).
    InitialEvalFailed(String),
    /// The damped normal equations stayed singular even with large λ.
    Singular,
}

impl std::fmt::Display for NloptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NloptError::BadInput(msg) => write!(f, "bad input: {msg}"),
            NloptError::InitialEvalFailed(msg) => {
                write!(f, "residual evaluation failed at the initial point: {msg}")
            }
            NloptError::Singular => write!(f, "damped normal equations singular"),
        }
    }
}

impl std::error::Error for NloptError {}

/// Optimization outcome.
#[derive(Debug, Clone)]
pub struct LmResult {
    /// Optimized parameters (within bounds).
    pub params: Vec<f64>,
    /// Final cost `½‖r‖²`.
    pub cost: f64,
    /// Final residual vector.
    pub residuals: Vec<f64>,
    /// Outer iterations performed.
    pub iterations: usize,
    /// Residual evaluations.
    pub fevals: usize,
    /// Jacobian evaluations.
    pub jevals: usize,
    /// Of `fevals`, the residual evaluations [`Residual::jacobian`]
    /// reported spending on those Jacobians; the rest are the initial
    /// point and the trial steps.
    pub jacobian_fevals: usize,
    /// Why iteration stopped.
    pub stop: StopReason,
}

/// Minimize `½‖r(p)‖²` subject to `lo ≤ p ≤ hi`.
pub fn optimize<R: Residual>(
    residual: &R,
    p0: &[f64],
    lo: &[f64],
    hi: &[f64],
    options: LmOptions,
) -> Result<LmResult, NloptError> {
    let n = residual.n_params();
    let m = residual.n_residuals();
    if p0.len() != n || lo.len() != n || hi.len() != n {
        return Err(NloptError::BadInput(format!(
            "expected {n} parameters, got p0={}, lo={}, hi={}",
            p0.len(),
            lo.len(),
            hi.len()
        )));
    }
    if lo.iter().zip(hi).any(|(l, h)| l > h) {
        return Err(NloptError::BadInput("empty bound interval".to_string()));
    }

    let clamp = |p: &mut [f64]| {
        for ((v, l), h) in p.iter_mut().zip(lo).zip(hi) {
            *v = v.clamp(*l, *h);
        }
    };

    let mut p = p0.to_vec();
    clamp(&mut p);

    let mut r = vec![0.0; m];
    let mut fevals = 0usize;
    let mut jevals = 0usize;
    let mut jacobian_fevals = 0usize;
    residual
        .eval(&p, &mut r)
        .map_err(NloptError::InitialEvalFailed)?;
    fevals += 1;
    let mut cost = 0.5 * r.iter().map(|v| v * v).sum::<f64>();

    let mut lambda = options.lambda_init;
    let mut stop = StopReason::MaxIterations;
    let mut iterations = 0usize;

    let mut jac = Matrix::zeros(m, n);

    'outer: for iter in 0..options.max_iters {
        iterations = iter + 1;

        // Residual Jacobian: analytic when the residual provides one
        // (O(1) solves), else the bound-aware FD default (one eval per
        // parameter, never stepping outside [lo, hi]).
        match residual.jacobian(&p, &r, lo, hi, options.fd_step, jac.data_mut()) {
            Ok(evals) => {
                fevals += evals;
                jacobian_fevals += evals;
            }
            Err(_) => {
                // Can't linearize here; treat as a failed step region.
                lambda *= 10.0;
                if lambda > 1e12 {
                    stop = StopReason::StepTolerance;
                    break;
                }
                continue;
            }
        }
        jevals += 1;

        // g = Jᵀ r ; H = JᵀJ (normal equations).
        let mut g = vec![0.0; n];
        for j in 0..n {
            for i in 0..m {
                g[j] += jac[(i, j)] * r[i];
            }
        }
        // Active set on the bounds: a variable pinned at a bound with the
        // gradient pushing further outside is frozen this iteration.
        let active: Vec<bool> = (0..n)
            .map(|j| (p[j] == lo[j] && g[j] > 0.0) || (p[j] == hi[j] && g[j] < 0.0))
            .collect();

        let g_norm = g
            .iter()
            .zip(&active)
            .filter(|(_, &a)| !a)
            .map(|(v, _)| v.abs())
            .fold(0.0, f64::max);
        if g_norm < options.gtol {
            stop = StopReason::GradientTolerance;
            break;
        }

        let mut h_mat = Matrix::zeros(n, n);
        for a in 0..n {
            for b in a..n {
                let mut sum = 0.0;
                for i in 0..m {
                    sum += jac[(i, a)] * jac[(i, b)];
                }
                h_mat[(a, b)] = sum;
                h_mat[(b, a)] = sum;
            }
        }

        // Inner loop: adjust λ until a step reduces the cost.
        loop {
            // Damped system with frozen actives.
            let mut damped = h_mat.clone();
            let mut rhs = vec![0.0; n];
            for j in 0..n {
                if active[j] {
                    for k2 in 0..n {
                        damped[(j, k2)] = 0.0;
                        damped[(k2, j)] = 0.0;
                    }
                    damped[(j, j)] = 1.0;
                    rhs[j] = 0.0;
                } else {
                    let diag = damped[(j, j)];
                    damped[(j, j)] = diag + lambda * diag.max(1e-12);
                    rhs[j] = -g[j];
                }
            }
            let Ok(lu) = Lu::factor(&damped) else {
                lambda *= 10.0;
                if lambda > 1e14 {
                    return Err(NloptError::Singular);
                }
                continue;
            };
            let Ok(delta) = lu.solve(&rhs) else {
                // Same escape as the factor-failure branch above: without
                // the cap, a NaN-producing residual spins this loop
                // forever.
                lambda *= 10.0;
                if lambda > 1e14 {
                    return Err(NloptError::Singular);
                }
                continue;
            };

            let mut p_new = p.clone();
            for j in 0..n {
                p_new[j] += delta[j];
            }
            clamp(&mut p_new);
            let step_norm = p_new
                .iter()
                .zip(&p)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            if step_norm < options.xtol {
                stop = StopReason::StepTolerance;
                break 'outer;
            }

            let mut r_new = vec![0.0; m];
            let ok = residual.eval(&p_new, &mut r_new).is_ok();
            if ok {
                fevals += 1;
            }
            let cost_new = if ok {
                0.5 * r_new.iter().map(|v| v * v).sum::<f64>()
            } else {
                f64::INFINITY
            };
            if cost_new < cost {
                let improvement = (cost - cost_new) / cost.max(1e-300);
                p = p_new;
                r = r_new;
                cost = cost_new;
                lambda = (lambda / 3.0).max(1e-12);
                if improvement < options.ftol {
                    stop = StopReason::CostTolerance;
                    break 'outer;
                }
                break;
            }
            lambda *= 4.0;
            if lambda > 1e14 {
                stop = StopReason::StepTolerance;
                break 'outer;
            }
        }
    }

    Ok(LmResult {
        params: p,
        cost,
        residuals: r,
        iterations,
        fevals,
        jevals,
        jacobian_fevals,
        stop,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::residual::FnResidual;

    const INF: f64 = f64::INFINITY;

    #[test]
    fn linear_least_squares_exact() {
        // r = A p - b with tall A: unique minimizer.
        let r = FnResidual::new(2, 3, |p: &[f64], out: &mut [f64]| {
            out[0] = p[0] + p[1] - 3.0;
            out[1] = p[0] - p[1] - 1.0;
            out[2] = 2.0 * p[0] + p[1] - 5.0;
            Ok(())
        });
        let result = optimize(
            &r,
            &[0.0, 0.0],
            &[-INF, -INF],
            &[INF, INF],
            LmOptions::default(),
        )
        .unwrap();
        // Exact solution p = (2, 1), residual 0.
        assert!((result.params[0] - 2.0).abs() < 1e-6, "{:?}", result.params);
        assert!((result.params[1] - 1.0).abs() < 1e-6);
        assert!(result.cost < 1e-12);
    }

    #[test]
    fn exponential_fit_recovers_rate() {
        // Data from y = exp(-k t) with k = 1.7; fit k.
        let ts: Vec<f64> = (0..20).map(|i| i as f64 * 0.2).collect();
        let data: Vec<f64> = ts.iter().map(|t| (-1.7 * t).exp()).collect();
        let ts2 = ts.clone();
        let r = FnResidual::new(1, 20, move |p: &[f64], out: &mut [f64]| {
            for (i, t) in ts2.iter().enumerate() {
                out[i] = (-p[0] * t).exp() - data[i];
            }
            Ok(())
        });
        let result = optimize(&r, &[0.5], &[0.0], &[10.0], LmOptions::default()).unwrap();
        assert!((result.params[0] - 1.7).abs() < 1e-6, "{:?}", result.params);
    }

    #[test]
    fn bounds_pin_solution() {
        // Minimize (p - 5)^2 subject to p <= 2: optimum at the bound.
        let r = FnResidual::new(1, 1, |p: &[f64], out: &mut [f64]| {
            out[0] = p[0] - 5.0;
            Ok(())
        });
        let result = optimize(&r, &[0.0], &[0.0], &[2.0], LmOptions::default()).unwrap();
        assert!((result.params[0] - 2.0).abs() < 1e-9, "{:?}", result.params);
    }

    #[test]
    fn rosenbrock_valley() {
        // Classic: r = (1-p0, 10(p1 - p0^2)).
        let r = FnResidual::new(2, 2, |p: &[f64], out: &mut [f64]| {
            out[0] = 1.0 - p[0];
            out[1] = 10.0 * (p[1] - p[0] * p[0]);
            Ok(())
        });
        let options = LmOptions {
            max_iters: 500,
            ..LmOptions::default()
        };
        let result = optimize(&r, &[-1.2, 1.0], &[-INF, -INF], &[INF, INF], options).unwrap();
        assert!((result.params[0] - 1.0).abs() < 1e-6, "{:?}", result.params);
        assert!((result.params[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn noisy_multi_parameter_fit() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(9);
        // y = a exp(-b t) + c, a=2, b=0.8, c=0.5 with small noise.
        let ts: Vec<f64> = (0..60).map(|i| i as f64 * 0.1).collect();
        let data: Vec<f64> = ts
            .iter()
            .map(|t| 2.0 * (-0.8 * t).exp() + 0.5 + rng.gen_range(-1e-4..1e-4))
            .collect();
        let ts2 = ts.clone();
        let r = FnResidual::new(3, 60, move |p: &[f64], out: &mut [f64]| {
            for (i, t) in ts2.iter().enumerate() {
                out[i] = p[0] * (-p[1] * t).exp() + p[2] - data[i];
            }
            Ok(())
        });
        let result = optimize(
            &r,
            &[1.0, 1.0, 0.0],
            &[0.0, 0.0, 0.0],
            &[10.0, 10.0, 10.0],
            LmOptions::default(),
        )
        .unwrap();
        assert!((result.params[0] - 2.0).abs() < 1e-2, "{:?}", result.params);
        assert!((result.params[1] - 0.8).abs() < 1e-2);
        assert!((result.params[2] - 0.5).abs() < 1e-2);
    }

    #[test]
    fn eval_failure_at_start_is_error() {
        let r = FnResidual::new(1, 1, |_p: &[f64], _out: &mut [f64]| Err("boom".to_string()));
        assert!(matches!(
            optimize(&r, &[1.0], &[0.0], &[2.0], LmOptions::default()),
            Err(NloptError::InitialEvalFailed(_))
        ));
    }

    #[test]
    fn partial_eval_failures_recoverable() {
        // Residual fails for p > 3 (like an ODE solver diverging); the
        // optimizer must still find the minimum at p = 2.
        let r = FnResidual::new(1, 1, |p: &[f64], out: &mut [f64]| {
            if p[0] > 3.0 {
                return Err("diverged".to_string());
            }
            out[0] = p[0] - 2.0;
            Ok(())
        });
        let result = optimize(&r, &[1.0], &[0.0], &[10.0], LmOptions::default()).unwrap();
        assert!((result.params[0] - 2.0).abs() < 1e-6, "{:?}", result.params);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let r = FnResidual::new(2, 2, |_p: &[f64], out: &mut [f64]| {
            out[0] = 0.0;
            out[1] = 0.0;
            Ok(())
        });
        assert!(matches!(
            optimize(&r, &[1.0], &[0.0, 0.0], &[1.0, 1.0], LmOptions::default()),
            Err(NloptError::BadInput(_))
        ));
        assert!(matches!(
            optimize(
                &r,
                &[1.0, 1.0],
                &[2.0, 0.0],
                &[1.0, 1.0],
                LmOptions::default()
            ),
            Err(NloptError::BadInput(_))
        ));
    }

    #[test]
    fn tight_bounds_fd_stays_feasible() {
        // Regression for the bound-aware FD step: with a bound interval
        // narrower than the step, the old logic flipped `h` negative at
        // the upper bound without checking `lo` and evaluated below it —
        // where this residual (like an ODE residual at a physically
        // invalid rate constant) fails. The fixed step clamps into the
        // interval, so the fit must converge to the interior optimum.
        let lo = [1.9995];
        let hi = [2.0005];
        let (l, h) = (lo[0], hi[0]);
        let r = FnResidual::new(1, 2, move |p: &[f64], out: &mut [f64]| {
            if p[0] < l || p[0] > h {
                return Err(format!("diverged outside [{l}, {h}]: {}", p[0]));
            }
            out[0] = p[0] - 2.0;
            out[1] = 2.0 * (p[0] - 2.0);
            Ok(())
        });
        // Start close to the upper bound so the forward step doesn't fit
        // and the naive backward flip lands below `lo`.
        let options = LmOptions {
            fd_step: 1e-3,
            ..LmOptions::default()
        };
        let result = optimize(&r, &[2.0003], &lo, &hi, options).unwrap();
        assert!(
            (result.params[0] - 2.0).abs() < 1e-7,
            "{:?} ({:?})",
            result.params,
            result.stop
        );
        // And the old logic indeed fails here: stepping 2.0003 - 2e-3
        // lands at 1.9983 < lo.
        assert!(2.0003 - options.fd_step * 2.0003 < lo[0]);
    }

    #[test]
    fn nan_residual_terminates() {
        // A residual that returns NaNs (rather than Err) must not spin
        // the inner λ loop forever — every λ-growth branch is capped, so
        // the optimizer returns (with whatever stop reason the NaNs
        // trip) instead of hanging.
        let r = FnResidual::new(1, 2, |p: &[f64], out: &mut [f64]| {
            out[0] = f64::NAN * p[0];
            out[1] = f64::NAN;
            Ok(())
        });
        let outcome = optimize(&r, &[1.0], &[0.0], &[2.0], LmOptions::default());
        match outcome {
            Ok(result) => assert!(result.iterations <= LmOptions::default().max_iters),
            Err(e) => assert_eq!(e, NloptError::Singular),
        }

        // NaNs appearing mid-fit (after a clean start) exercise the
        // accept-test path: cost_new is never < NaN cost, so λ must grow
        // to its cap rather than loop.
        let r = FnResidual::new(1, 2, |p: &[f64], out: &mut [f64]| {
            if p[0] > 1.5 {
                out[0] = f64::NAN;
                out[1] = f64::NAN;
            } else {
                out[0] = p[0] - 4.0;
                out[1] = 0.5 * (p[0] - 4.0);
            }
            Ok(())
        });
        let outcome = optimize(&r, &[1.0], &[0.0], &[10.0], LmOptions::default());
        assert!(outcome.is_ok() || matches!(outcome, Err(NloptError::Singular)));
    }

    #[test]
    fn analytic_jacobian_override_is_used() {
        // A residual with an exact Jacobian override: optimize must call
        // it (0 extra residual evals per iteration) and still converge.
        struct WithJac;
        impl Residual for WithJac {
            fn n_params(&self) -> usize {
                1
            }
            fn n_residuals(&self) -> usize {
                2
            }
            fn eval(&self, p: &[f64], out: &mut [f64]) -> Result<(), String> {
                out[0] = p[0] - 3.0;
                out[1] = 0.5 * (p[0] - 3.0);
                Ok(())
            }
            fn jacobian(
                &self,
                _params: &[f64],
                _base: &[f64],
                _lo: &[f64],
                _hi: &[f64],
                _fd_step: f64,
                jac: &mut [f64],
            ) -> Result<usize, String> {
                jac[0] = 1.0;
                jac[1] = 0.5;
                Ok(0)
            }
        }
        let result = optimize(&WithJac, &[0.0], &[-10.0], &[10.0], LmOptions::default()).unwrap();
        assert!((result.params[0] - 3.0).abs() < 1e-8, "{:?}", result.params);
        // fevals counts only the accept-test evaluations: with an O(1)
        // Jacobian there is no per-parameter FD sweep.
        assert!(
            result.fevals <= result.iterations + 2,
            "fevals {} iterations {}",
            result.fevals,
            result.iterations
        );
        assert_eq!(result.jacobian_fevals, 0);
    }

    #[test]
    fn start_outside_bounds_is_clamped() {
        let r = FnResidual::new(1, 1, |p: &[f64], out: &mut [f64]| {
            out[0] = p[0] - 1.0;
            Ok(())
        });
        let result = optimize(&r, &[100.0], &[0.0], &[5.0], LmOptions::default()).unwrap();
        assert!((result.params[0] - 1.0).abs() < 1e-8);
    }
}
