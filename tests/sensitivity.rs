//! Analytic parameter sensitivities at the suite level: the estimator's
//! analytic residual Jacobian must agree with careful central
//! differences on both workload models (RDL-sourced and programmatic),
//! and a fixed-seed estimate must converge to the same parameters from
//! sensitivities as from finite differences (the same simulator with its
//! sensitivities hidden).

use rms_suite::workload::{
    generate_model, synthesize, ExpDataSpec, VulcanizationSpec, TRUE_RATES, VULCANIZATION_RDL,
};
use rms_suite::{
    CompiledArtifact, CompilerSession, LmOptions, OptLevel, ParallelEstimator, SessionOptions,
    Simulator, TapeSimulator,
};

/// A session whose artifacts carry the parameter-sensitivity tapes.
fn sensitivity_session() -> CompilerSession {
    let mut options = SessionOptions::new(OptLevel::Full);
    options.sensitivity = true;
    CompilerSession::with_options(options)
}

/// A simulator over the model's artifact (sensitivity tapes included)
/// with tolerances tight enough that central-difference references
/// resolve the sensitivities rather than the adaptive solver's own noise
/// floor.
fn tight_simulator(model: &CompiledArtifact, observable: Vec<f64>) -> TapeSimulator {
    let mut sim = TapeSimulator::from_artifact(model, observable);
    sim.options.rtol = 1e-10;
    sim.options.atol = 1e-13;
    sim
}

/// Central-difference reference for the estimator's residual Jacobian,
/// differencing the full objective (simulated − experimental stacked
/// over files) exactly as the FD fallback would, but second-order.
fn central_difference_jacobian<S: Simulator>(
    estimator: &ParallelEstimator<S>,
    rates: &[f64],
    m: usize,
) -> Vec<f64> {
    let n = rates.len();
    let central = |j: usize, h: f64| {
        let mut plus = rates.to_vec();
        plus[j] += h;
        let mut minus = rates.to_vec();
        minus[j] -= h;
        let ep = estimator.objective(&plus).expect("objective+").error_vector;
        let em = estimator
            .objective(&minus)
            .expect("objective-")
            .error_vector;
        (0..m)
            .map(|i| (ep[i] - em[i]) / (2.0 * h))
            .collect::<Vec<f64>>()
    };
    let mut jac = vec![0.0; m * n];
    for j in 0..n {
        // A generously wide step keeps the solver's noise floor
        // (~rtol·|y|/h) far below the comparison band; Richardson
        // extrapolation then cancels the O(h²) truncation the wide step
        // would otherwise introduce.
        let h = 1.6e-2 * rates[j].abs().max(1.0);
        let coarse = central(j, h);
        let fine = central(j, 0.5 * h);
        for i in 0..m {
            jac[i * n + j] = (4.0 * fine[i] - coarse[i]) / 3.0;
        }
    }
    jac
}

fn check_analytic_matches_fd(model: &CompiledArtifact, observable: Vec<f64>, label: &str) {
    let simulator = tight_simulator(model, observable);
    let truth = model.system.rate_values.clone();
    let files = synthesize(
        &simulator,
        &truth,
        ExpDataSpec {
            n_files: 2,
            records: 20,
            base_horizon: 1.0,
            horizon_skew: 0.2,
            noise: 0.0,
            seed: 7,
        },
    )
    .expect("synthesis succeeds");
    let m: usize = files.iter().map(|f| f.len()).max().unwrap();
    let estimator = ParallelEstimator::new(&simulator, files, 2, false);

    // Probe away from the synthesis point so residuals are nonzero.
    let probe: Vec<f64> = truth.iter().map(|r| r * 1.1).collect();
    let analytic = estimator
        .objective_jacobian(&probe)
        .expect("analytic Jacobian");
    let reference = central_difference_jacobian(&estimator, &probe, m);
    assert_eq!(analytic.len(), reference.len(), "{label}: shape");

    // Column-wise comparison: 1e-6 relative to the column's dominant
    // entry, floored at the central-difference noise floor
    // (~rtol/h = 1e-6 absolute for these tolerances).
    let n = probe.len();
    for j in 0..n {
        let col_scale = (0..m)
            .map(|i| reference[i * n + j].abs())
            .fold(1.0_f64, f64::max);
        for i in 0..m {
            let a = analytic[i * n + j];
            let f = reference[i * n + j];
            assert!(
                (a - f).abs() <= 1e-6 * col_scale,
                "{label}: entry ({i},{j}): analytic {a} vs central FD {f} (col scale {col_scale})"
            );
        }
    }
}

#[test]
fn analytic_residual_jacobian_matches_fd_on_rdl_model() {
    let model = sensitivity_session()
        .compile_source("<rdl>", VULCANIZATION_RDL)
        .expect("RDL model compiles")
        .artifact;
    // A generic weighted observable exercising every species.
    let observable: Vec<f64> = (0..model.system.len())
        .map(|i| 0.5 + 0.1 * (i % 5) as f64)
        .collect();
    check_analytic_matches_fd(&model, observable, "rdl");
}

#[test]
fn analytic_residual_jacobian_matches_fd_on_programmatic_model() {
    let spec = VulcanizationSpec {
        sites: 3,
        max_chain: 3,
        neighbourhood: 1,
    };
    let generated = generate_model(spec);
    let crosslinks = generated.crosslink_species.clone();
    let model = sensitivity_session()
        .compile_network("<network>", generated.network, generated.rates)
        .expect("programmatic model compiles")
        .artifact;
    let mut observable = vec![0.0; model.system.len()];
    for x in &crosslinks {
        observable[x.0 as usize] = 1.0;
    }
    check_analytic_matches_fd(&model, observable, "programmatic");
}

#[test]
fn estimate_round_trip_analytic_and_fd_modes_agree() {
    let generated = generate_model(VulcanizationSpec {
        sites: 3,
        max_chain: 3,
        neighbourhood: 1,
    });
    let crosslinks = generated.crosslink_species.clone();
    let (lo_all, hi_all) = generated.rates.bounds_vectors();
    let model = sensitivity_session()
        .compile_network("<network>", generated.network, generated.rates)
        .expect("programmatic model compiles")
        .artifact;
    let mut observable = vec![0.0; model.system.len()];
    for x in &crosslinks {
        observable[x.0 as usize] = 1.0;
    }
    let simulator = TapeSimulator::from_artifact(&model, observable);
    let files = synthesize(
        &simulator,
        &TRUE_RATES,
        ExpDataSpec {
            n_files: 4,
            records: 40,
            base_horizon: 1.2,
            horizon_skew: 0.2,
            noise: 0.0,
            seed: 23,
        },
    )
    .expect("synthesis succeeds");
    let estimator = ParallelEstimator::new(&simulator, files.clone(), 2, false);
    // The same solves as a closure, which carries no sensitivities: the
    // estimator builds its Jacobians by finite differences.
    let plain = |p: &[f64], file: usize, times: &[f64]| simulator.simulate(p, file, times);
    let fd_estimator = ParallelEstimator::new(&plain, files, 2, false);

    // Perturb two influential parameters; pin the rest at truth (the
    // paper's chemists constrain most rates tightly).
    let mut start = TRUE_RATES.to_vec();
    start[1] *= 1.6;
    start[8] *= 0.5;
    let mut lo = TRUE_RATES.to_vec();
    let mut hi = TRUE_RATES.to_vec();
    for k in [1usize, 8] {
        lo[k] = lo_all[k];
        hi[k] = hi_all[k];
    }
    let options = LmOptions {
        max_iters: 60,
        fd_step: 1e-3,
        ..LmOptions::default()
    };
    let analytic = estimator
        .estimate(&start, &lo, &hi, options)
        .expect("analytic estimate runs");
    let fd = fd_estimator
        .estimate(&start, &lo, &hi, options)
        .expect("FD estimate runs");

    for k in [1usize, 8] {
        let rel_truth = (analytic.params[k] - TRUE_RATES[k]).abs() / TRUE_RATES[k];
        assert!(
            rel_truth < 1e-2,
            "analytic fit missed truth for p[{k}]: {} vs {}",
            analytic.params[k],
            TRUE_RATES[k]
        );
        let rel_modes = (analytic.params[k] - fd.params[k]).abs() / TRUE_RATES[k];
        assert!(
            rel_modes < 1e-4,
            "fits disagree on p[{k}]: analytic {} vs FD {}",
            analytic.params[k],
            fd.params[k]
        );
    }
    // The whole point: analytic Jacobians cost O(1) ODE sweeps per LM
    // iteration instead of O(n_params) residual evaluations — counted
    // per Jacobian build, where it is exact. (Both fits stop inside
    // solver noise, `ftol` / `xtol` = 1e-12 against `rtol` = 1e-6, so
    // their iteration counts, and the trial steps in their `fevals`,
    // say nothing about Jacobian cost.) One augmented sweep per build,
    // none of them an objective evaluation; one objective evaluation per
    // free parameter per FD build.
    assert!(analytic.jevals > 0 && fd.jevals > 0);
    assert_eq!(analytic.jacobian_fevals, analytic.jevals);
    assert_eq!(fd.jacobian_fevals, 2 * fd.jevals);
}
