//! Cross-crate tests for how the BDF corrector and the sensitivity
//! refinement decide they are done (DESIGN.md §11, "Termination rule"):
//! both stop on the last correction times a contraction-rate estimate the
//! solve carries from step to step, floored by what a drifted `γ` leaves
//! behind. What holds that rule here is not its own tolerance but a
//! reference: the 157-species model `rdl_fit` fits, solved plain and
//! sensitivity-augmented at the simulator's tolerances against the same
//! solves a thousand times tighter; the pass counts the rule is there to
//! cut; and bit-equality of two solves, since the estimates are state of
//! one `Bdf` value and nothing else.

use std::sync::{Arc, OnceLock};

use rand::{Rng, SeedableRng};
use rms_suite::{
    solve_bdf, solve_bdf_sensitivities, solve_bdf_with_jacobian, BoundKernel, CacheMode,
    CompiledArtifact, CompilerSession, EngineMode, OptLevel, SessionOptions, SolveStats,
    SolverOptions,
};
use rms_workload::{decay_chain, vulcanization_source};

/// The 157-species model the `rdl_fit` benchmark fits, with the
/// sensitivity tail, compiled once for this file.
fn rdl_fit_model() -> &'static Arc<CompiledArtifact> {
    static MODEL: OnceLock<Arc<CompiledArtifact>> = OnceLock::new();
    MODEL.get_or_init(|| {
        let source = vulcanization_source(16);
        let mut options = SessionOptions::new(OptLevel::Full);
        options.deriv = true;
        options.sensitivity = true;
        options.cache = CacheMode::Bypass;
        let model = CompilerSession::with_options(options)
            .compile_source("<rdl_fit>", &source)
            .expect("scaled RDL model compiles")
            .artifact;
        assert_eq!(model.system.len(), 157);
        model
    })
}

/// The output times of `rdl_fit`'s first experiment file.
fn times() -> Vec<f64> {
    (1..=20).map(|i| i as f64 / 20.0).collect()
}

/// What one solve of the model returned: `states[r][i]` at `times()[r]`,
/// `sens[r][k·n + i]` beside it (empty for a plain solve).
struct Solve {
    states: Vec<Vec<f64>>,
    sens: Vec<Vec<f64>>,
    stats: SolveStats,
}

/// Which solve of the model: the state alone, or the state with every
/// sensitivity column beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Plain,
    Augmented,
}

/// One solve as `TapeSimulator` makes it, at `rtol` and `atol = rtol/10³`
/// (the simulator's pair at `rtol = 10⁻⁶`).
fn solve(kind: Kind, rtol: f64) -> Solve {
    let model = rdl_fit_model();
    let choice = model.kernel(EngineMode::Exec);
    let bound = BoundKernel::new(&choice, &model.system.rate_values);
    let options = SolverOptions {
        rtol,
        atol: rtol * 1e-3,
        ..SolverOptions::default()
    };
    let source = bound.jacobian_source();
    let (y0, times) = (&model.system.initial, times());
    let (states, sens, stats) = match kind {
        Kind::Plain => {
            let (states, stats) = solve_bdf_with_jacobian(&bound, 0.0, y0, &times, options, source)
                .expect("plain solve");
            (states, Vec::new(), stats)
        }
        Kind::Augmented => {
            solve_bdf_sensitivities(&bound, &bound, 0.0, y0, &times, options, source)
                .expect("augmented solve")
        }
    };
    Solve {
        states,
        sens,
        stats,
    }
}

/// Twelve seeded observables: each weighs a random half of the species
/// by a weight in `[0, 1)`.
fn observables(n: usize) -> Vec<Vec<f64>> {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(23);
    (0..12)
        .map(|_| {
            (0..n)
                .map(|_| {
                    if rng.gen_range(0..2) == 0 {
                        rng.gen_range(0.0..1.0)
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect()
}

/// The worst error, over the observables and the `n`-long blocks of a
/// row (the state; or one sensitivity block per rate), of an observable's
/// time series against `reference`'s — relative to the largest value any
/// of that observable's series takes in `reference`. For the state that
/// is the series' own maximum; a sensitivity is held to the observable's
/// largest one, since the solver controls the error of none of them
/// (`sens_error_control` is off, as the simulator leaves it).
fn worst_series_error(rows: &[Vec<f64>], reference: &[Vec<f64>], n: usize) -> f64 {
    let blocks = reference[0].len() / n;
    let mut worst = 0.0f64;
    for weights in observables(n) {
        let (mut err, mut scale) = (0.0f64, 0.0f64);
        for block in 0..blocks {
            let measure = |row: &[f64]| -> f64 {
                let block = &row[block * n..(block + 1) * n];
                weights.iter().zip(block).map(|(w, v)| w * v).sum()
            };
            for (row, reference) in rows.iter().zip(reference) {
                let exact = measure(reference);
                err = err.max((measure(row) - exact).abs());
                scale = scale.max(exact.abs());
            }
        }
        assert!(scale > 0.0, "an observable nothing moves");
        worst = worst.max(err / scale);
    }
    worst
}

#[test]
fn observables_stay_inside_the_tolerance_of_a_tight_reference() {
    // Parent (`norm < NEWTON_TOL` in both loops): 3.7e-7 plain, 3.7e-7
    // and 1.6e-6 augmented. With the rule: 4.1e-7, 4.9e-7 and 1.8e-6.
    // With the rule less its `|1 − lag|` floor: 6.2e-7, 1.3e-6 and
    // 6.3e-6 — the augmented solve leaves its tolerance.
    let n = rdl_fit_model().system.len();
    let rtol = SolverOptions::default().rtol;
    assert_eq!(rtol, 1e-6);
    for kind in [Kind::Plain, Kind::Augmented] {
        let (got, reference) = (solve(kind, rtol), solve(kind, 1e-9));
        let state_err = worst_series_error(&got.states, &reference.states, n);
        assert!(
            state_err < rtol,
            "{kind:?}: observables off by {state_err:.2e} of their series' maximum"
        );
        if kind == Kind::Augmented {
            let sens_err = worst_series_error(&got.sens, &reference.sens, n);
            assert!(
                sens_err < 5.0 * rtol,
                "sensitivities off by {sens_err:.2e} of their observable's largest"
            );
        }
    }
}

#[test]
fn a_second_pass_is_the_exception_on_the_fitted_model() {
    // Per accepted step: 1.83 corrector passes on the plain solve, 1.66
    // and 1.84 refinement passes on the augmented one (confirming every
    // pass with another, as the parent did: 2.27, 2.04 and 2.21).
    let plain = solve(Kind::Plain, 1e-6).stats;
    assert!(
        plain.newton_iters < 2 * plain.steps && plain.sens_refinements == 0,
        "{plain:?}"
    );
    let augmented = solve(Kind::Augmented, 1e-6).stats;
    assert!(
        augmented.newton_iters < 2 * augmented.steps
            && augmented.sens_refinements < 2 * augmented.steps,
        "{augmented:?}"
    );
}

#[test]
fn a_linear_chain_pays_a_second_pass_only_to_warm_up() {
    // Thirty species decaying into one another, rate constants spread
    // over five decades. The problem is linear, so a pass on a current
    // matrix is exact: a second one is owed only while the estimate is
    // still at its reset value after a refactorization, or while `γ` has
    // drifted from the built one — and a rejected attempt's passes buy
    // no step. (191 passes against a bound of 228; confirming every first
    // pass with a second, as the parent did, 233 against 227.)
    let (rhs, y0) = decay_chain(30);
    let (sol, stats) = solve_bdf(&rhs, 0.0, &y0, &[10.0], SolverOptions::default()).unwrap();
    let mass: f64 = sol[0].iter().sum();
    assert!(mass > 0.0 && mass < 1.0, "the last species drains: {mass}");
    assert!(
        stats.newton_iters <= stats.steps + 3 * stats.factorizations + 2 * stats.rejected,
        "{stats:?}"
    );
}

#[test]
fn two_threads_solve_the_same_inputs_to_the_same_bits() {
    let bits = |solve: &Solve| -> Vec<u64> {
        let rows = solve.states.iter().chain(&solve.sens);
        rows.flatten().map(|v| v.to_bits()).collect()
    };
    let run = || solve(Kind::Augmented, 1e-6);
    let (a, b) = std::thread::scope(|scope| {
        let (a, b) = (scope.spawn(run), scope.spawn(run));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert!(bits(&a) == bits(&b), "trajectories differ between threads");
    assert_eq!(a.stats, b.stats);
    assert!(a.stats.sens_refinements > 0);
}
