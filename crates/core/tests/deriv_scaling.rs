//! How the Deriv stage scales with model size, one row per kind of
//! request — `deriv` (`compile_jacobian_timed`: RHS + `∂f/∂y`) and
//! `deriv + sensitivity` (`compile_sensitivity_timed`: the same group with
//! its `∂f/∂p` tail) — on Table 1 case 4 at 1/50, 1/25 and 1/12 of the
//! paper's 124 k equations: passes over the forest, seconds differentiating,
//! re-CSEing and lowering, and instructions out. Each step doubles the
//! model, so a differentiator whose work is O(nodes in + nodes out)
//! doubles its `diff s` and one that walks an equation once per variable in
//! its support quadruples it; and the second request is one pass like the
//! first, not the first's pass and then its own. Prints; asserts nothing
//! about time. Run in release mode:
//!
//! ```text
//! cargo test --release -p rms-core -- --ignored deriv_scaling --nocapture
//! ```

use rms_core::{
    compile_jacobian_timed, compile_sensitivity_timed, optimize, CseOptions, DerivTimes, OptLevel,
};
use rms_odegen::{generate, GenerateOptions};
use rms_workload::scaled_case;

fn row(label: &str, request: &str, times: DerivTimes, instrs: usize) {
    println!(
        "{label:<32} {request:<20} {:>6} {:>8.3} {:>8.3} {:>8.3} {instrs:>10}",
        times.passes, times.diff_seconds, times.cse_seconds, times.lower_seconds
    );
}

#[test]
#[ignore = "a measurement: run in release mode with --nocapture"]
fn deriv_scaling() {
    println!(
        "{:<32} {:<20} {:>6} {:>8} {:>8} {:>8} {:>10}",
        "case 4: equations, nodes in",
        "request",
        "passes",
        "diff s",
        "cse s",
        "lower s",
        "instrs out"
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
        let label = format!("1/{factor}: {}, {}", forest.rhs.len(), forest.node_count());
        let cse = Some(CseOptions::default());

        let mut times = DerivTimes::default();
        let state = compile_jacobian_timed(&forest, cse, &mut times);
        let pair = state.rhs.instrs.len() + state.jac.instrs.len();
        row(&label, "deriv", times, pair);

        let mut times = DerivTimes::default();
        let group = compile_sensitivity_timed(&forest, cse, &mut times);
        // Not a timing: the tail changes nothing about the Jacobian.
        assert_eq!(group.state.entries, state.entries);
        assert_eq!(
            group.state.rhs.instrs.len() + group.state.jac.instrs.len(),
            pair
        );
        assert!(!group.dfdp_entries.is_empty());
        row(
            &label,
            "deriv + sensitivity",
            times,
            pair + group.dfdp.instrs.len(),
        );
    }
}
