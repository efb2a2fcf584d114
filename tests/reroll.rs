//! Tests for the tape reroll pass: a kernel the emitter rerolled must be
//! observationally indistinguishable from the flat tape it was built
//! from.
//!
//! Rerolling is a pure compression of the flat tape — loop regions replay
//! the *same* instructions in the *same* order with payloads resolved
//! from stride/index tables — so the native kernel (loops where stanzas
//! repeat, straight statements where they do not), the exec engine and
//! the interpreter must produce the **same bits** from one artifact, for
//! every workload family at all four optimization levels. The property
//! test below pins the stronger invariant the engine test rests on: the
//! rolled view is a lossless encoding of the flat tape (every trip of
//! every loop resolves back to the original instruction), which also
//! means rerolling can never change `op_counts`-weighted semantics.
//!
//! Tests that need a C compiler probe for one first and skip — visibly,
//! on stderr — when the host has none.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use proptest::TestRng;
use rms_core::{
    compact_registers, cse_forest, distribute_forest, loop_slot_patterns, lower, reroll,
    resolve_instr, simplify_forest, Expr, ExprForest, RerollOptions, RolledSegment,
};
use rms_suite::workload::{generate_model, VulcanizationSpec, VULCANIZATION_RDL};
use rms_suite::{
    probe_toolchain, CompiledArtifact, CompilerSession, EngineMode, OptLevel, SessionOptions,
    TapeSimulator, FMA_CONTRACTS,
};

/// The in-memory artifact cache is process-wide; serialize the engine
/// tests in this binary so a cache interaction cannot race.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    CACHE_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

const LEVELS: [OptLevel; 4] = [
    OptLevel::None,
    OptLevel::Simplify,
    OptLevel::Algebraic,
    OptLevel::Full,
];

#[derive(Clone, Copy, Debug)]
enum Family {
    /// `models/vulcanization.rdl`: stanza runs at every level.
    RdlSource,
    /// A generated network: stanza runs at every level.
    Network,
    /// `models/quickstart.rdl`: 11 species, nothing for the pass to find
    /// once the optimizer has run — the loop-free side of the emitter.
    Quickstart,
}

/// Compile one workload family with the Codegen stage enabled.
fn compile_native(family: Family, level: OptLevel, dir: &std::path::Path) -> Arc<CompiledArtifact> {
    let mut options = SessionOptions::new(level);
    options.native = true;
    options.cache_dir = Some(dir.to_path_buf());
    let session = CompilerSession::with_options(options);
    let compiled = match family {
        Family::RdlSource => session
            .compile_source("vulcanization.rdl", VULCANIZATION_RDL)
            .expect("rdl model compiles"),
        Family::Network => {
            let m = generate_model(VulcanizationSpec {
                sites: 3,
                max_chain: 4,
                neighbourhood: 1,
            });
            session
                .compile_network("vulcanization-reroll", m.network, m.rates)
                .expect("network model compiles")
        }
        Family::Quickstart => session
            .compile_source("quickstart.rdl", include_str!("../models/quickstart.rdl"))
            .expect("quickstart model compiles"),
    };
    compiled.artifact
}

fn trajectory(artifact: &Arc<CompiledArtifact>, engine: EngineMode) -> Vec<Vec<f64>> {
    let simulator = TapeSimulator::with_engine(artifact, Vec::new(), engine);
    simulator
        .trajectory(&artifact.system.rate_values, 0, &[0.02, 0.05, 0.1])
        .expect("short solve succeeds")
}

/// Largest norm-relative deviation between two trajectories.
fn deviation(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
    let mut worst: f64 = 0.0;
    for (ra, rb) in a.iter().zip(b) {
        let norm = ra.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (x, z) in ra.iter().zip(rb) {
            worst = worst.max((x - z).abs() / norm);
        }
    }
    worst
}

#[test]
fn interp_exec_and_native_trajectories_of_one_artifact_agree_exactly() {
    let _guard = lock();
    if let Err(e) = probe_toolchain() {
        eprintln!("SKIP: engine agreement test: {e}");
        return;
    }
    let dir = std::env::temp_dir().join(format!("rms-reroll-diff-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // The exec engine's fused multiply-adds round once on FMA builds.
    let slack = if FMA_CONTRACTS { 1e-12 } else { 0.0 };
    let mut any_loop_free = false;
    for family in [Family::RdlSource, Family::Network, Family::Quickstart] {
        for level in LEVELS {
            let artifact = compile_native(family, level, &dir);
            let kernel = artifact.native.as_ref().unwrap_or_else(|| {
                panic!(
                    "{family:?}/{level}: codegen produced no kernel: {:?}",
                    artifact.native_diag
                )
            });
            // These compiles carry no derivative groups, so the counter
            // describes the one scalar group the solves below run. The
            // two vulcanization families repeat reaction stanzas at every
            // level, even at this toy scale: a kernel of theirs without
            // loop regions means the emitter's loop side went away.
            match family {
                Family::RdlSource | Family::Network => assert!(
                    kernel.loop_count() > 0,
                    "{family:?}/{level}: reroll found no loops"
                ),
                Family::Quickstart => any_loop_free |= kernel.loop_count() == 0,
            }

            // The interpreter walks the flat tape; the kernel replays it
            // through whatever loops the emitter found, compiled with
            // -ffp-contract=off: the same rounding sequence, so not a
            // bit of the trajectory may move.
            let interp = trajectory(&artifact, EngineMode::Interp);
            let native = trajectory(&artifact, EngineMode::Native);
            let exec = trajectory(&artifact, EngineMode::Exec);
            let d = deviation(&native, &interp);
            assert!(
                d == 0.0,
                "{family:?}/{level}: native vs interp deviates by {d:e}"
            );
            let d = deviation(&exec, &interp);
            assert!(
                d <= slack,
                "{family:?}/{level}: exec vs interp deviates by {d:e}"
            );
        }
    }
    assert!(
        any_loop_free,
        "every kernel had loops — the straight-statement side of the emitter went untested"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A uniform draw from `[lo, hi)`.
fn f64_in(rng: &mut TestRng, lo: f64, hi: f64) -> f64 {
    let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    lo + unit * (hi - lo)
}

/// A random expression over `n_species` species and `n_rates` rates,
/// built with the smart constructors so shapes mirror optimizer output.
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

/// A random forest with the redundancy profile real rate laws have: a
/// handful of random *templates*, each instantiated for every species
/// with shifted species/rate indices. Repeated structurally identical
/// stanzas are exactly what the reroll pass detects, so these forests
/// exercise genuine loop regions (unlike fully independent random
/// equations, which rarely repeat).
fn random_stanza_forest(rng: &mut TestRng, n_species: usize, n_rates: usize) -> ExprForest {
    let template = random_expr(rng, 2, n_species, n_rates);
    let shift = |e: &Expr, by: usize| -> Expr {
        fn walk(e: &Expr, by: usize, n_species: usize, n_rates: usize) -> Expr {
            match e {
                Expr::Species(i) => Expr::Species(((*i as usize + by) % n_species) as u32),
                Expr::Rate(i) => Expr::Rate(((*i as usize + by) % n_rates) as u32),
                Expr::Prod(coeff, factors) => Expr::prod(
                    coeff.0,
                    factors
                        .iter()
                        .map(|f| walk(f, by, n_species, n_rates))
                        .collect(),
                ),
                Expr::Sum(children) => Expr::sum(
                    children
                        .iter()
                        .map(|c| walk(c, by, n_species, n_rates))
                        .collect(),
                ),
                other => other.clone(),
            }
        }
        walk(e, by, n_species, n_rates)
    };
    let rhs = (0..n_species).map(|i| shift(&template, i)).collect();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rerolling random optimizer output is a lossless view: every trip
    /// of every loop resolves back to the exact flat instruction, the
    /// segment walk covers the tape exactly once, and the rolled
    /// evaluator is bitwise identical to the flat interpreter. Lossless
    /// reconstruction implies the rolled form replays the same
    /// (`op_counts`-weighted) instruction multiset — rerolling cannot
    /// change semantics, only code shape.
    #[test]
    fn reroll_is_a_lossless_bitwise_view_of_random_forests(
        seed in any::<u64>(),
        n_species in 4usize..10,
        n_rates in 1usize..4,
    ) {
        let mut rng = TestRng::new(seed);
        let forest = random_stanza_forest(&mut rng, n_species, n_rates);
        let rates: Vec<f64> = (0..n_rates).map(|_| f64_in(&mut rng, 0.1, 3.0)).collect();
        let y: Vec<f64> = (0..n_species).map(|_| f64_in(&mut rng, 0.05, 1.5)).collect();
        // Aggressive options so even short stanzas roll; correctness
        // must not depend on the heuristic thresholds.
        let opts = RerollOptions { max_body: 64, min_trips: 2, min_savings: 1 };

        for level in OptLevel::ALL {
            let optimized = apply_level(&forest, level);
            let tape = compact_registers(&lower(&optimized));
            let rolled = reroll(&tape, &opts);
            prop_assert_eq!(rolled.validate(&tape), Ok(()));

            // Exact coverage: straight ranges + trip-weighted loop
            // bodies partition the flat index space.
            let mut covered = 0usize;
            for seg in rolled.segments() {
                match seg {
                    RolledSegment::Straight { len, .. } => covered += len,
                    RolledSegment::Loop(lp) => covered += lp.body_len * lp.trips,
                }
            }
            prop_assert_eq!(covered, tape.len());
            prop_assert_eq!(rolled.rolled_len() + rolled.rerolled_instrs(), tape.len());

            // Lossless: resolving the template against the slot patterns
            // reconstructs every absorbed instruction exactly.
            for lp in &rolled.loops {
                let patterns = loop_slot_patterns(&tape, lp);
                for t in 0..lp.trips {
                    for (p, pats) in patterns.iter().enumerate() {
                        let got = resolve_instr(&tape.instrs[lp.start + p], pats, t);
                        prop_assert_eq!(got, tape.instrs[lp.start + t * lp.body_len + p]);
                    }
                }
            }

            // Bitwise: the genuine loop walk equals the flat replay.
            let mut flat = vec![0.0; n_species];
            let mut via_loops = vec![0.0; n_species];
            let mut scratch = Vec::new();
            tape.eval_with_scratch(&rates, &y, &mut flat, &mut scratch);
            tape.eval_rolled_with_scratch(&rolled, &rates, &y, &mut via_loops, &mut scratch);
            for i in 0..n_species {
                prop_assert_eq!(
                    flat[i].to_bits(),
                    via_loops[i].to_bits(),
                    "{}: ydot[{}] flat {} vs rolled {}",
                    level, i, flat[i], via_loops[i]
                );
            }
        }
    }
}
