//! The full Figure 1 workflow as an integration test: generate a model,
//! synthesize experimental data from known kinetics, and recover those
//! kinetics with the parallel parameter estimator.

use rms_suite::workload::{generate_model, synthesize, ExpDataSpec, VulcanizationSpec, TRUE_RATES};
use rms_suite::{compile_model, LmOptions, OptLevel, ParallelEstimator, TapeSimulator};

fn build_simulator() -> (TapeSimulator, Vec<f64>, Vec<f64>) {
    let model = generate_model(VulcanizationSpec {
        sites: 4,
        max_chain: 4,
        neighbourhood: 2,
    });
    let crosslinks = model.crosslink_species.clone();
    let (lo, hi) = model.rates.bounds_vectors();
    let suite = compile_model(model.network, model.rates, OptLevel::Full).expect("compiles");
    let mut observable = vec![0.0; suite.system.len()];
    for x in &crosslinks {
        observable[x.0 as usize] = 1.0;
    }
    (TapeSimulator::from_artifact(&suite, observable), lo, hi)
}

#[test]
fn recovers_perturbed_parameters() {
    let (simulator, lo, hi) = build_simulator();
    let files = synthesize(
        &simulator,
        &TRUE_RATES,
        ExpDataSpec {
            n_files: 6,
            records: 60,
            base_horizon: 1.5,
            horizon_skew: 0.3,
            noise: 0.0,
            seed: 11,
        },
    )
    .expect("synthesis succeeds");
    let estimator = ParallelEstimator::new(&simulator, files, 2, true);

    // Truth must already be a zero of the objective.
    let at_truth = estimator.objective(&TRUE_RATES).expect("objective");
    let residual_norm: f64 = at_truth
        .error_vector
        .iter()
        .map(|v| v * v)
        .sum::<f64>()
        .sqrt();
    assert!(residual_norm < 1e-8, "truth residual {residual_norm}");

    // Perturb a couple of influential parameters and let LM pull them
    // back. (Recovering all 10 from one noiseless observable is an
    // ill-posed problem — the paper's chemists constrain most of them
    // tightly; we perturb K_sulf and K_rev.)
    let mut start = TRUE_RATES.to_vec();
    start[1] *= 1.8; // K_sulf
    start[8] *= 0.4; // K_rev
    let mut lo2 = TRUE_RATES.to_vec();
    let mut hi2 = TRUE_RATES.to_vec();
    lo2[1] = lo[1];
    hi2[1] = hi[1];
    lo2[8] = lo[8];
    hi2[8] = hi[8];

    let result = estimator
        .estimate(
            &start,
            &lo2,
            &hi2,
            LmOptions {
                max_iters: 80,
                fd_step: 1e-3, // above the ODE solver's noise floor
                ..LmOptions::default()
            },
        )
        .expect("estimation runs");
    assert!(
        (result.params[1] - TRUE_RATES[1]).abs() / TRUE_RATES[1] < 0.02,
        "K_sulf recovered poorly: {} vs {}",
        result.params[1],
        TRUE_RATES[1]
    );
    assert!(
        (result.params[8] - TRUE_RATES[8]).abs() / TRUE_RATES[8] < 0.05,
        "K_rev recovered poorly: {} vs {}",
        result.params[8],
        TRUE_RATES[8]
    );
    assert!(result.cost < 1e-10, "final cost {}", result.cost);
}

#[test]
fn estimation_respects_bounds() {
    let (simulator, _, _) = build_simulator();
    let files = synthesize(
        &simulator,
        &TRUE_RATES,
        ExpDataSpec {
            n_files: 3,
            records: 30,
            base_horizon: 1.0,
            horizon_skew: 0.0,
            noise: 0.0,
            seed: 2,
        },
    )
    .expect("synthesis succeeds");
    let estimator = ParallelEstimator::new(&simulator, files, 2, false);
    // Constrain K_sulf into a band excluding the truth: the fit must end
    // on the boundary, not outside it.
    let truth = TRUE_RATES[1];
    let mut lo = TRUE_RATES.to_vec();
    let mut hi = TRUE_RATES.to_vec();
    lo[1] = truth * 1.2;
    hi[1] = truth * 2.0;
    let mut start = TRUE_RATES.to_vec();
    start[1] = truth * 1.5;
    let result = estimator
        .estimate(
            &start,
            &lo,
            &hi,
            LmOptions {
                max_iters: 40,
                fd_step: 1e-3, // above the ODE solver's noise floor
                ..LmOptions::default()
            },
        )
        .expect("estimation runs");
    assert!(
        result.params[1] >= lo[1] - 1e-12 && result.params[1] <= hi[1] + 1e-12,
        "bound violated: {}",
        result.params[1]
    );
    // The best feasible point is the lower bound (closest to truth).
    assert!(
        (result.params[1] - lo[1]).abs() / lo[1] < 0.05,
        "expected pinning near the lower bound, got {}",
        result.params[1]
    );
}

#[test]
fn dynamic_lb_does_not_change_results() {
    let (simulator, _, _) = build_simulator();
    let files = synthesize(
        &simulator,
        &TRUE_RATES,
        ExpDataSpec {
            n_files: 5,
            records: 40,
            base_horizon: 1.2,
            horizon_skew: 0.4,
            noise: 1e-4,
            seed: 5,
        },
    )
    .expect("synthesis succeeds");
    let p: Vec<f64> = TRUE_RATES.iter().map(|v| v * 1.1).collect();
    let without = ParallelEstimator::new(&simulator, files.clone(), 3, false)
        .objective(&p)
        .expect("objective");
    let with_lb = ParallelEstimator::new(&simulator, files, 3, true);
    with_lb.objective(&p).expect("first call records times");
    let second = with_lb.objective(&p).expect("second call uses LPT");
    for (a, b) in without.error_vector.iter().zip(&second.error_vector) {
        assert!((a - b).abs() < 1e-12, "schedule changed the mathematics");
    }
}
