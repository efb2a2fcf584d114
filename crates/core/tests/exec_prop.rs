//! Property test: the execution engine is a drop-in replacement for the
//! legacy tape interpreter on *arbitrary* optimizer output.
//!
//! Random expression forests are pushed through every optimization level
//! (none / simplify / +distribute / +CSE), lowered, and evaluated three
//! ways: the legacy interpreter, the decoded `ExecTape` scalar path, and
//! `ExecTape::eval_batch` over stacked states (every state checked).
//!
//! ## Tolerance
//!
//! The default build does not enable the `fma` target feature, so the
//! fused `MulAdd`/`MulSub` superinstructions execute as a multiply
//! followed by an add — the *same two roundings in the same order* as the
//! unfused interpreter — and all three evaluators must agree **bitwise**.
//! When the build does contract (`FMA_CONTRACTS == true`, e.g.
//! `-C target-feature=+fma`), each fused site drops one intermediate
//! rounding; the results then differ by at most ~1 ulp per fused site,
//! which the relative bound of 1e-12 absorbs with a wide margin for the
//! expression depths generated here.

use proptest::prelude::*;
use proptest::TestRng;
use rms_core::{
    compact_registers, cse_forest, distribute_forest, lower, simplify_forest, ExecFrame, ExecTape,
    Expr, ExprForest, OptLevel, FMA_CONTRACTS,
};

/// A uniform draw from `[lo, hi)`.
fn f64_in(rng: &mut TestRng, lo: f64, hi: f64) -> f64 {
    let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    lo + unit * (hi - lo)
}

/// A random expression over `n_species` species and `n_rates` rates.
/// Leans on the smart constructors, so the shapes mirror what the
/// frontend and optimizer passes actually build (sorted factors,
/// flattened sums, folded constants).
fn random_expr(rng: &mut TestRng, depth: usize, n_species: usize, n_rates: usize) -> Expr {
    let choice = if depth == 0 {
        rng.next_u64() % 3
    } else {
        rng.next_u64() % 5
    };
    match choice {
        0 => Expr::Species(rng.usize_in(0..n_species) as u32),
        1 => Expr::Rate(rng.usize_in(0..n_rates) as u32),
        2 => Expr::constant(f64_in(rng, -2.0, 2.0)),
        3 => {
            let n = rng.usize_in(1..4);
            let factors = (0..n)
                .map(|_| random_expr(rng, depth - 1, n_species, n_rates))
                .collect();
            Expr::prod(f64_in(rng, -2.0, 2.0), factors)
        }
        _ => {
            let n = rng.usize_in(2..5);
            let children = (0..n)
                .map(|_| random_expr(rng, depth - 1, n_species, n_rates))
                .collect();
            Expr::sum(children)
        }
    }
}

fn random_forest(rng: &mut TestRng, n_species: usize, n_rates: usize) -> ExprForest {
    let rhs = (0..n_species)
        .map(|_| random_expr(rng, 3, n_species, n_rates))
        .collect();
    ExprForest {
        temps: Vec::new(),
        rhs,
        n_species,
        n_rates,
    }
}

/// Apply the passes of one [`OptLevel`] to a temporary-free forest.
fn apply_level(forest: &ExprForest, level: OptLevel) -> ExprForest {
    let passes = level.passes();
    let mut out = forest.clone();
    if passes.simplify {
        out = simplify_forest(&out);
    }
    if passes.distribute {
        out = distribute_forest(&out);
    }
    if let Some(options) = passes.cse {
        out = cse_forest(&out, options);
    }
    out
}

/// Bitwise comparison when the build does not contract FMA, tight
/// relative bound when it does (see the module docs).
fn check_agree(a: f64, b: f64, what: &str) -> Result<(), TestCaseError> {
    if FMA_CONTRACTS {
        let tol = 1e-12 * a.abs().max(1.0);
        prop_assert!((a - b).abs() <= tol, "{}: {} vs {}", what, a, b);
    } else {
        prop_assert!(
            a.to_bits() == b.to_bits(),
            "{}: {} vs {} (bitwise)",
            what,
            a,
            b
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Interpreter, ExecTape scalar, and every batched state agree on
    /// random forests at all four optimization levels.
    #[test]
    fn engines_agree_on_random_forests(
        seed in any::<u64>(),
        n_species in 2usize..7,
        n_rates in 1usize..4,
    ) {
        let mut rng = TestRng::new(seed);
        let forest = random_forest(&mut rng, n_species, n_rates);
        let rates: Vec<f64> = (0..n_rates).map(|_| f64_in(&mut rng, 0.1, 3.0)).collect();
        // Eleven stacked states, each checked against its own evaluation.
        let n_states = 11;
        let ys: Vec<f64> = (0..n_states * n_species)
            .map(|_| f64_in(&mut rng, 0.05, 1.5))
            .collect();

        for level in OptLevel::ALL {
            let optimized = apply_level(&forest, level);
            let tape = compact_registers(&lower(&optimized));
            let exec = ExecTape::compile(&tape);
            prop_assert_eq!(exec.op_counts(), tape.op_counts());

            let mut frame = ExecFrame::new();
            let mut scratch = Vec::new();
            let mut interp = vec![0.0; n_species];
            let mut scalar = vec![0.0; n_species];
            let mut batched = vec![0.0; n_states * n_species];
            exec.eval_batch(&rates, &ys, &mut batched, &mut frame);
            for s in 0..n_states {
                let y = &ys[s * n_species..(s + 1) * n_species];
                tape.eval_with_scratch(&rates, y, &mut interp, &mut scratch);
                exec.eval(&rates, y, &mut scalar, &mut frame);
                for i in 0..n_species {
                    check_agree(
                        interp[i],
                        scalar[i],
                        &format!("{level}: state {s} ydot[{i}] interp vs exec-scalar"),
                    )?;
                    check_agree(
                        interp[i],
                        batched[s * n_species + i],
                        &format!("{level}: state {s} ydot[{i}] interp vs exec-batched"),
                    )?;
                }
            }
        }
    }
}
