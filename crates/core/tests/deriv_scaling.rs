//! How differentiation scales with model size: seconds and output nodes
//! of `differentiate_forest` (state group) and
//! `differentiate_forest_sensitivity` (state + rate groups) on Table 1
//! case 4 at 1/50, 1/25 and 1/12 of the paper's 124 k equations — each
//! step doubles the model, so a differentiator whose work is
//! O(nodes in + nodes out) doubles its time and one that walks an
//! equation once per variable in its support quadruples it. Prints;
//! asserts nothing about time. Run in release mode:
//!
//! ```text
//! cargo test --release -p rms-core -- --ignored deriv_scaling --nocapture
//! ```

use std::time::Instant;

use rms_core::{differentiate_forest, differentiate_forest_sensitivity, optimize, OptLevel};
use rms_odegen::{generate, GenerateOptions};
use rms_workload::scaled_case;

#[test]
#[ignore = "a measurement: run in release mode with --nocapture"]
fn deriv_scaling() {
    println!(
        "{:<8} {:>9} {:>10} {:>10} {:>11} {:>10} {:>11}",
        "case 4", "equations", "nodes in", "state s", "state out", "both s", "both out"
    );
    for factor in [50, 25, 12] {
        let model = scaled_case(4, factor);
        let system = generate(
            &model.network,
            &model.rates,
            GenerateOptions { simplify: true },
        )
        .expect("workload models always generate");
        let forest = optimize(&system, OptLevel::Full).forest;

        let clock = Instant::now();
        let (state, entries) = differentiate_forest(&forest);
        let state_seconds = clock.elapsed().as_secs_f64();
        let clock = Instant::now();
        let (both, jac_entries, dfdp_entries) = differentiate_forest_sensitivity(&forest);
        let both_seconds = clock.elapsed().as_secs_f64();
        // Not a timing: the groups agree on the Jacobian's sparsity.
        assert_eq!(entries, jac_entries);
        assert!(!dfdp_entries.is_empty());

        println!(
            "1/{:<6} {:>9} {:>10} {:>10.3} {:>11} {:>10.3} {:>11}",
            factor,
            forest.rhs.len(),
            forest.node_count(),
            state_seconds,
            state.node_count(),
            both_seconds,
            both.node_count()
        );
    }
}
