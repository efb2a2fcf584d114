//! The paper's headline workflow (Figure 1): fit a vulcanization kinetic
//! model to experimental cure curves.
//!
//! 1. Generate a benzothiazole-accelerator-style vulcanization network
//!    (the proprietary lab models are substituted by the synthetic
//!    generator — see DESIGN.md).
//! 2. Compile and optimize the ODE system.
//! 3. Synthesize 16 experimental data files from ground-truth kinetics
//!    plus measurement noise (the paper's proprietary rheometer data).
//! 4. Run the parallel parameter estimator (bounded Levenberg–Marquardt
//!    over the thread-backed cluster with dynamic load balancing) and
//!    check the recovered rate constants against the truth.
//!
//! Run with `cargo run --release --example vulcanization`.

use rms_suite::workload::{
    generate_model, synthesize, ExpDataSpec, VulcanizationSpec, RATE_NAMES, TRUE_RATES,
};
use rms_suite::{compile_model, LmOptions, OptLevel, ParallelEstimator, Simulator, TapeSimulator};

fn main() {
    println!("=== 1. generate + compile the kinetic model ===");
    let spec = VulcanizationSpec {
        sites: 6,
        max_chain: 5,
        neighbourhood: 2,
    };
    let model = generate_model(spec);
    println!(
        "network: {} species, {} reactions, {} distinct kinetic parameters",
        model.network.species_count(),
        model.network.reaction_count(),
        model.rates.distinct_count()
    );
    let crosslinks = model.crosslink_species.clone();
    let (lo, hi) = model.rates.bounds_vectors();
    let suite =
        compile_model(model.network, model.rates, OptLevel::Full).expect("compilation succeeds");
    println!(
        "optimized: {} -> {} arithmetic ops ({:.1}% remaining)",
        suite.compiled.stages.input.total(),
        suite.compiled.stages.after_cse.total(),
        100.0 * suite.compiled.remaining_fraction()
    );

    println!("\n=== 2. synthesize experimental cure curves ===");
    let mut observable = vec![0.0; suite.system.len()];
    for x in &crosslinks {
        observable[x.0 as usize] = 1.0;
    }
    let simulator = TapeSimulator::from_artifact(&suite, observable);
    let spec = ExpDataSpec {
        n_files: 16,
        records: 200, // the paper's files hold >3000; smaller for the demo
        base_horizon: 2.0,
        horizon_skew: 0.3,
        noise: 5e-4,
        seed: 7,
    };
    let files = synthesize(&simulator, &TRUE_RATES, spec).expect("synthesis succeeds");
    println!(
        "{} files x {} records (crosslink density vs cure time)",
        files.len(),
        files[0].len()
    );

    println!("\n=== 3. parallel parameter estimation ===");
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get().min(8));
    let estimator = ParallelEstimator::new(&simulator, files, workers, true);
    // The paper's chemists constrain most constants tightly from quantum
    // chemistry (Gaussian '03) and fit the uncertain ones. We treat three
    // constants as uncertain (wide bounds, perturbed start) and pin the
    // rest to their priors.
    let uncertain = [1usize, 8, 9]; // K_sulf, K_rev, K_pend
    let mut initial = TRUE_RATES.to_vec();
    let mut lo_fit = TRUE_RATES.to_vec();
    let mut hi_fit = TRUE_RATES.to_vec();
    for &i in &uncertain {
        initial[i] = TRUE_RATES[i] * if i == 8 { 0.5 } else { 1.6 };
        lo_fit[i] = lo[i];
        hi_fit[i] = hi[i];
    }
    println!("workers: {workers}, dynamic load balancing: on, fitting K_sulf/K_rev/K_pend");
    let t0 = std::time::Instant::now();
    let result = estimator
        .estimate(
            &initial,
            &lo_fit,
            &hi_fit,
            LmOptions {
                max_iters: 60,
                fd_step: 1e-3, // above the ODE solver's noise floor
                ..LmOptions::default()
            },
        )
        .expect("estimation succeeds");
    println!(
        "converged in {} iterations / {} residual evals ({:.2?}), stop: {:?}",
        result.iterations,
        result.fevals,
        t0.elapsed(),
        result.stop
    );

    println!("\n=== 4. recovered kinetics vs ground truth ===");
    println!(
        "{:<10} {:>10} {:>10} {:>9}",
        "parameter", "truth", "fitted", "error"
    );
    let mut max_err: f64 = 0.0;
    for (i, name) in RATE_NAMES.iter().enumerate() {
        let err = (result.params[i] - TRUE_RATES[i]).abs() / TRUE_RATES[i];
        if uncertain.contains(&i) {
            max_err = max_err.max(err);
        }
        let marker = if uncertain.contains(&i) {
            ""
        } else {
            "  (pinned)"
        };
        println!(
            "{:<10} {:>10.4} {:>10.4} {:>8.2}%{marker}",
            name,
            TRUE_RATES[i],
            result.params[i],
            100.0 * err
        );
    }
    println!(
        "\nfinal cost: {:.3e}, worst fitted-parameter error: {:.2}%",
        result.cost,
        100.0 * max_err
    );
    let verification = simulator
        .simulate(&result.params, 0, &[0.5, 1.0, 2.0])
        .expect("verification run");
    println!("cure curve at fitted kinetics: {verification:.3?}");
}
