//! Harder solver validation: Van der Pol relaxation oscillation, linear
//! systems with known matrix exponentials, fixed-step convergence order,
//! and work-statistics sanity.

use rms_solver::{solve_adams, solve_bdf, solve_rk45, Bdf, FnRhs, SolverOptions};

#[test]
fn van_der_pol_relaxation_oscillation() {
    // mu = 200: strongly stiff. BDF must cross the fast transition layers
    // with bounded work, and the limit-cycle amplitude is ~2.0.
    let mu = 200.0;
    let rhs = FnRhs::new(2, move |_t, y: &[f64], ydot: &mut [f64]| {
        ydot[0] = y[1];
        ydot[1] = mu * ((1.0 - y[0] * y[0]) * y[1]) - y[0];
    });
    let options = SolverOptions {
        rtol: 1e-6,
        atol: 1e-9,
        max_steps: 400_000,
        ..SolverOptions::default()
    };
    let (sol, stats) = solve_bdf(&rhs, 0.0, &[2.0, 0.0], &[mu * 0.8], options).unwrap();
    // The solution stays on the limit cycle: |x| <= ~2.02 at all sampled
    // points and the state is finite.
    assert!(sol[0][0].abs() < 2.3, "{:?}", sol[0]);
    assert!(sol[0].iter().all(|v| v.is_finite()));
    // Modified Newton amortizes Jacobians: far fewer jevals than steps.
    assert!(
        stats.jevals < stats.steps / 2,
        "jevals {} vs steps {}",
        stats.jevals,
        stats.steps
    );
    // … and factorizations: kept across step-size nudges. Not one in three
    // as on smoother problems — in the six-decade climbs between
    // transition layers every third step doubles h and refactors, and each
    // of the ~50 rejected steps refactors again.
    assert!(
        stats.factorizations * 2 <= stats.steps,
        "factorizations {} vs steps {}",
        stats.factorizations,
        stats.steps
    );
}

#[test]
fn linear_system_matches_matrix_exponential() {
    // y' = A y with A = [[-1, 1], [0, -2]]; closed form:
    // y0(t) = (c0 + c1 t ... ) — use the diagonalizable solution:
    // eigenvalues -1, -2; y(t) = V diag(e^{λt}) V^{-1} y0.
    // With y0 = [1, 1]: y0(t) = 2e^{-t} - e^{-2t}, y1(t) = e^{-2t}.
    let rhs = FnRhs::new(2, |_t, y: &[f64], ydot: &mut [f64]| {
        ydot[0] = -y[0] + y[1];
        ydot[1] = -2.0 * y[1];
    });
    let t: f64 = 1.3;
    let exact0 = 2.0 * (-t).exp() - (-2.0 * t).exp();
    let exact1 = (-2.0 * t).exp();
    let tight = SolverOptions {
        rtol: 1e-10,
        atol: 1e-13,
        ..SolverOptions::default()
    };
    for (name, result) in [
        ("rk45", solve_rk45(&rhs, 0.0, &[1.0, 1.0], &[t], tight)),
        ("adams", solve_adams(&rhs, 0.0, &[1.0, 1.0], &[t], tight)),
        ("bdf", solve_bdf(&rhs, 0.0, &[1.0, 1.0], &[t], tight)),
    ] {
        let (sol, _) = result.unwrap_or_else(|e| panic!("{name}: {e}"));
        let tol = if name == "bdf" { 1e-6 } else { 1e-8 };
        assert!(
            (sol[0][0] - exact0).abs() < tol,
            "{name}: {} vs {exact0}",
            sol[0][0]
        );
        assert!(
            (sol[0][1] - exact1).abs() < tol,
            "{name}: {} vs {exact1}",
            sol[0][1]
        );
    }
}

#[test]
fn rk45_error_scales_with_tolerance() {
    // Halving the tolerance by 10^2 should cut the achieved error by
    // roughly 10^2 (asymptotically, for a smooth problem).
    let rhs = FnRhs::new(1, |_t, y: &[f64], ydot: &mut [f64]| ydot[0] = -y[0]);
    let exact = (-3.0f64).exp();
    let mut errors = Vec::new();
    for rtol in [1e-4, 1e-6, 1e-8] {
        let options = SolverOptions {
            rtol,
            atol: rtol * 1e-3,
            ..SolverOptions::default()
        };
        let (sol, _) = solve_rk45(&rhs, 0.0, &[1.0], &[3.0], options).unwrap();
        errors.push((sol[0][0] - exact).abs().max(1e-16));
    }
    assert!(errors[0] > errors[1] && errors[1] > errors[2], "{errors:?}");
    // At least ~10x improvement per 100x tolerance tightening.
    assert!(errors[0] / errors[2] > 1e2, "{errors:?}");
}

#[test]
fn bdf_reports_each_requested_time_across_many_requests() {
    // Thirty requests that no step ends on: each must report the state at
    // the requested time (not at the internal one, which runs ahead) and
    // leave the solver able to continue.
    let rhs = FnRhs::new(1, |_t, y: &[f64], ydot: &mut [f64]| ydot[0] = -y[0]);
    let mut solver = Bdf::new(&rhs, 0.0, &[1.0], SolverOptions::default());
    for step in 1..=30 {
        let t = step as f64 * 0.17;
        solver.integrate_to(t).unwrap();
        assert!(solver.t >= t, "internal time {} short of {t}", solver.t);
        let exact = (-t).exp();
        assert!(
            (solver.y()[0] - exact).abs() < 1e-5,
            "t={t}: {} vs {exact}",
            solver.y()[0]
        );
    }
}

#[test]
fn zero_length_integration_is_noop() {
    let rhs = FnRhs::new(1, |_t, y: &[f64], ydot: &mut [f64]| ydot[0] = -y[0]);
    let mut solver = Bdf::new(&rhs, 1.0, &[0.7], SolverOptions::default());
    solver.integrate_to(1.0).unwrap();
    assert_eq!(solver.y()[0], 0.7);
    assert_eq!(solver.stats().steps, 0);
}

#[test]
fn mass_action_nonnegativity_with_tolerances() {
    // A -> B with large rate: concentrations must not go significantly
    // negative at solver tolerances.
    let rhs = FnRhs::new(2, |_t, y: &[f64], ydot: &mut [f64]| {
        ydot[0] = -50.0 * y[0];
        ydot[1] = 50.0 * y[0];
    });
    let times: Vec<f64> = (1..=40).map(|i| i as f64 * 0.05).collect();
    let (sol, _) = solve_bdf(&rhs, 0.0, &[1.0, 0.0], &times, SolverOptions::default()).unwrap();
    for y in &sol {
        assert!(y[0] > -1e-7, "{y:?}");
        assert!((y[0] + y[1] - 1.0).abs() < 1e-6, "{y:?}");
    }
}

#[test]
fn adams_and_rk_agree_on_nonlinear_system() {
    // Lotka-Volterra-ish: compare two independent integrators.
    let rhs = FnRhs::new(2, |_t, y: &[f64], ydot: &mut [f64]| {
        ydot[0] = y[0] * (1.0 - y[1]);
        ydot[1] = y[1] * (y[0] - 1.0);
    });
    let tight = SolverOptions {
        rtol: 1e-9,
        atol: 1e-12,
        ..SolverOptions::default()
    };
    let (a, _) = solve_rk45(&rhs, 0.0, &[1.2, 0.8], &[5.0], tight).unwrap();
    let (b, _) = solve_adams(&rhs, 0.0, &[1.2, 0.8], &[5.0], tight).unwrap();
    for (x, y) in a[0].iter().zip(&b[0]) {
        assert!((x - y).abs() < 1e-6, "{x} vs {y}");
    }
}
