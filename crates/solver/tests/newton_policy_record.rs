//! The record behind the BDF termination rule (`bdf.rs`, "Termination";
//! DESIGN.md §11): what a solve spends per step on three textbook stiff
//! problems and on two compiled models, plain and sensitivity-augmented.
//! The next change to the corrector has a table to diff. Prints; asserts
//! nothing. Run in release mode:
//!
//! ```text
//! cargo test --release -p rms-solver -- --ignored newton_policy_record --nocapture
//! ```

use rms_core::OptLevel;
use rms_driver::{CacheMode, CompiledArtifact, CompilerSession, SessionOptions};
use rms_solver::{
    solve_bdf, solve_bdf_sensitivities, solve_bdf_with_jacobian, FnRhs, OdeRhs, SolveStats,
    SolverOptions,
};
use rms_workload::{decay_chain, scaled_case, BoundKernel, VULCANIZATION_RDL};

fn row(label: &str, stats: SolveStats) {
    println!(
        "{label:<32} {:>6} {:>8} {:>12} {:>16} {:>14} {:>11.2}",
        stats.steps,
        stats.rejected,
        stats.newton_iters,
        stats.sens_refinements,
        stats.factorizations,
        stats.newton_iters as f64 / stats.steps as f64
    );
}

/// A closure problem over dense finite differences, default tolerances.
fn closure(label: &str, rhs: &impl OdeRhs, y0: &[f64], tend: f64) {
    let (_, stats) = solve_bdf(rhs, 0.0, y0, &[tend], SolverOptions::default())
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    row(label, stats);
}

/// A compiled model to `t = 1` as the simulator solves it: plain, then
/// sensitivity-augmented.
fn compiled(label: &str, artifact: &CompiledArtifact) {
    let choice = artifact.kernel();
    let (y0, rates) = (&artifact.system.initial, &artifact.system.rate_values);
    let options = SolverOptions::default();

    let bound = BoundKernel::new(&choice, rates);
    let source = bound.jacobian_source();
    let (_, stats) = solve_bdf_with_jacobian(&bound, 0.0, y0, &[1.0], options, source)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    row(label, stats);

    let bound = BoundKernel::new(&choice, rates);
    let source = bound.jacobian_source();
    let (_, _, stats) = solve_bdf_sensitivities(&bound, &bound, 0.0, y0, &[1.0], options, source)
        .unwrap_or_else(|e| panic!("{label}, augmented: {e}"));
    row(&format!("{label} + sens"), stats);
}

#[test]
#[ignore = "a record: run with --release --ignored --nocapture"]
fn newton_policy_record() {
    println!(
        "{:<32} {:>6} {:>8} {:>12} {:>16} {:>14} {:>11}",
        "problem",
        "steps",
        "rejected",
        "newton_iters",
        "sens_refinements",
        "factorizations",
        "iters/step"
    );

    let robertson = FnRhs::new(3, |_t, y: &[f64], ydot: &mut [f64]| {
        ydot[0] = -0.04 * y[0] + 1e4 * y[1] * y[2];
        ydot[1] = 0.04 * y[0] - 1e4 * y[1] * y[2] - 3e7 * y[1] * y[1];
        ydot[2] = 3e7 * y[1] * y[1];
    });
    closure("Robertson, t = 4e5", &robertson, &[1.0, 0.0, 0.0], 4e5);

    let mu = 200.0;
    let van_der_pol = FnRhs::new(2, move |_t, y: &[f64], ydot: &mut [f64]| {
        ydot[0] = y[1];
        ydot[1] = mu * ((1.0 - y[0] * y[0]) * y[1]) - y[0];
    });
    closure(
        "van der Pol mu = 200, t = 160",
        &van_der_pol,
        &[2.0, 0.0],
        0.8 * mu,
    );

    // tests/newton_policy.rs's chain: thirty species, rates over five decades.
    let (chain, y0) = decay_chain(30);
    closure("linear chain n = 30, t = 10", &chain, &y0, 10.0);

    let mut options = SessionOptions::new(OptLevel::Full);
    options.deriv = true;
    options.sensitivity = true;
    options.cache = CacheMode::Bypass;
    let session = CompilerSession::with_options(options);
    let vulcanization = session
        .compile_source("vulcanization.rdl", VULCANIZATION_RDL)
        .expect("bundled RDL model compiles");
    compiled("models/vulcanization.rdl", &vulcanization.artifact);
    let table1 = scaled_case(2, 40);
    let table1 = session
        .compile_network("scaled_case(2, 40)", table1.network, table1.rates)
        .expect("workload models always compile");
    compiled("scaled_case(2, 40)", &table1.artifact);
}
