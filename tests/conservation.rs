//! An oracle the solver did not write: what each species holds of every
//! element, counted atom by atom from its own structure
//! (`ReactionNetwork::element_balance`, which reads nothing the equation
//! generator, the optimizer, a kernel or BDF produce). A quantity that
//! every reaction conserves must stay constant along a trajectory and be
//! orthogonal to the right-hand side at every state. The programmatic
//! network has no structures; it is counted in rubber sites here.
//!
//! Trajectories are held to the benchmark's bound: ten times the relative
//! tolerance they are integrated at, because the BDF start-up moves
//! element totals by a few 10⁻⁶ at `rtol = 10⁻⁶` (ROADMAP item 1).

use std::path::Path;
use std::process::Command;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rms_rdl::Action;
use rms_suite::workload::{scaled_case, vulcanization_source, FrontierSpec};
use rms_suite::{
    probe_toolchain, CompilerSession, KernelScratch, OptLevel, ReactionNetwork, SessionOptions,
    TapeSimulator,
};

/// The quantities every reaction of the network conserves, each with what
/// one unit of every species holds of it, and the names of those some
/// reaction does not.
fn conserved_quantities(network: &ReactionNetwork) -> (Vec<(String, Vec<f64>)>, Vec<String>) {
    let balance = network.element_balance();
    if balance.is_empty() {
        return (
            vec![("rubber sites".to_string(), rubber_sites(network))],
            Vec::new(),
        );
    }
    let (kept, dropped): (Vec<_>, Vec<_>) = balance.into_iter().partition(|row| row.is_conserved());
    let kept = kept.into_iter().map(|row| {
        let counts = row.counts.iter().map(|&c| f64::from(c)).collect();
        (row.element.symbol().to_string(), counts)
    });
    let dropped = dropped
        .into_iter()
        .map(|row| row.element.symbol().to_string());
    (kept.collect(), dropped.collect())
}

/// The programmatic vulcanization network's names are its formulas: `R_f`
/// and `RS_f_n` hold one rubber site, a crosslink `X_f_g` two. Every
/// reaction must conserve them.
fn rubber_sites(network: &ReactionNetwork) -> Vec<f64> {
    let sites: Vec<f64> = network
        .species_iter()
        .map(|(_, s)| match s.name.split('_').next() {
            Some("R" | "RS") => 1.0,
            Some("X") => 2.0,
            _ => 0.0,
        })
        .collect();
    for r in network.reactions() {
        let total =
            |side: &[rms_rdl::SpeciesId]| -> f64 { side.iter().map(|s| sites[s.0 as usize]).sum() };
        assert_eq!(total(&r.reactants), total(&r.products), "{r:?}");
    }
    sites
}

/// Compile `label` as `rmsc simulate` does (with the analytic Jacobian),
/// integrate it to t = 2 over 20 outputs, and hold every conserved
/// quantity to its initial total. Returns the names of the quantities
/// some reaction does not conserve.
fn check(
    label: &str,
    compile: impl FnOnce(&CompilerSession) -> rms_suite::Compiled,
) -> Vec<String> {
    let mut options = SessionOptions::new(OptLevel::Full);
    options.deriv = true;
    let artifact = compile(&CompilerSession::with_options(options)).artifact;
    let (conserved, dropped) = conserved_quantities(&artifact.network);
    assert!(!conserved.is_empty(), "{label}: nothing is conserved");

    let simulator = TapeSimulator::from_artifact(&artifact, Vec::new());
    let times: Vec<f64> = (1..=20).map(|i| 0.1 * i as f64).collect();
    let initial = &artifact.system.initial;
    let states = simulator
        .trajectory(&artifact.system.rate_values, 0, &times)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    // Not vacuous: the state moves.
    let moved = states[states.len() - 1]
        .iter()
        .zip(initial)
        .fold(0.0f64, |m, (y, y0)| m.max((y - y0).abs()));
    assert!(moved > 1e-3, "{label}: the state moved only {moved:e}");

    let bound = 10.0 * simulator.options.rtol;
    for (name, row) in &conserved {
        let dot = |y: &[f64]| -> f64 { row.iter().zip(y).map(|(w, v)| w * v).sum() };
        let total = dot(initial);
        assert!(total > 0.0, "{label}: no {name} at t = 0");
        for (t, y) in times.iter().zip(&states) {
            let drift = (dot(y) - total).abs() / total;
            assert!(
                drift <= bound,
                "{label}: {name} drifts by {drift:e} of its total {total} at t = {t} \
                 (bound {bound:e})"
            );
        }
    }
    dropped
}

fn source(
    label: &'static str,
    text: String,
) -> impl FnOnce(&CompilerSession) -> rms_suite::Compiled {
    move |session| {
        session
            .compile_source(label, &text)
            .expect("model compiles")
    }
}

#[test]
fn quickstart_conserves_every_element() {
    let text = include_str!("../models/quickstart.rdl").to_string();
    let dropped = check("quickstart.rdl", source("quickstart.rdl", text));
    assert!(dropped.is_empty(), "{dropped:?}");
}

/// `remove_h` abstracts a hydrogen to a partner the model does not track
/// (and `add_h` returns one from nowhere): H is the one element the
/// vulcanization rules do not conserve (ROADMAP item 2). A change that
/// makes them conserve it has to update this test.
#[test]
fn vulcanization_conserves_every_element_but_hydrogen() {
    let dropped = check(
        "vulcanization_source(8)",
        source("vulcanization_source(8)", vulcanization_source(8)),
    );
    assert_eq!(dropped, ["H"]);
}

#[test]
fn frontier_conserves_every_element() {
    let text = FrontierSpec { arms: 5 }.rdl_source();
    let dropped = check("FrontierSpec { arms: 5 }", source("frontier", text));
    assert!(dropped.is_empty(), "{dropped:?}");
}

#[test]
fn the_programmatic_network_conserves_rubber_sites() {
    let dropped = check("scaled_case(1, 1000)", |session| {
        let model = scaled_case(1, 1_000);
        session
            .compile_network("scaled_case", model.network, model.rates)
            .expect("generated network compiles")
    });
    assert!(dropped.is_empty(), "{dropped:?}");
}

/// Solver-free: every evaluator's right-hand side lies in the
/// stoichiometric subspace, so each conserved element row `w` has
/// `w·f(y) = 0` up to the rounding of its terms, at any state.
#[test]
fn every_evaluator_keeps_the_rhs_orthogonal_to_each_conserved_element() {
    let mut options = SessionOptions::new(OptLevel::Full);
    options.native = probe_toolchain().is_ok();
    let session = CompilerSession::with_options(options);
    for (label, text) in [
        (
            "quickstart.rdl",
            include_str!("../models/quickstart.rdl").to_string(),
        ),
        ("vulcanization_source(8)", vulcanization_source(8)),
        (
            "FrontierSpec { arms: 5 }",
            FrontierSpec { arms: 5 }.rdl_source(),
        ),
    ] {
        let artifact = session
            .compile_source(label, &text)
            .expect("compiles")
            .artifact;
        let (conserved, _) = conserved_quantities(&artifact.network);
        let rates = &artifact.system.rate_values;
        let n = artifact.system.len();
        let mut rng = SmallRng::seed_from_u64(2007);
        let states: Vec<Vec<f64>> = (0..4)
            .map(|_| (0..n).map(|_| rng.gen_range(0.0..2.0)).collect())
            .collect();
        let evaluators = artifact.evaluators();
        match probe_toolchain() {
            Ok(_) => assert!(evaluators.iter().any(|choice| choice.engine == "native")),
            Err(e) => eprintln!("SKIP: native evaluator on {label}: {e}"),
        }
        for choice in evaluators {
            let mut scratch = KernelScratch::default();
            for (k, y) in states.iter().enumerate() {
                let mut f = vec![0.0; n];
                choice.kernel.rhs(rates, y, &mut f, &mut scratch);
                assert!(f.iter().any(|&v| v != 0.0), "{label}: f = 0");
                for (name, w) in &conserved {
                    let terms = w.iter().zip(&f).map(|(w, f)| w * f);
                    let (dot, scale) = terms.fold((0.0, 0.0), |(d, s), t| (d + t, s + t.abs()));
                    assert!(
                        dot.abs() <= 1e-12 * scale,
                        "{label}/{} state {k}: {name}·f = {dot:e} (terms sum to {scale:e})",
                        choice.engine
                    );
                }
            }
        }
    }
}

fn rmsc(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_rmsc"))
        .args(args)
        .output()
        .expect("rmsc runs");
    assert!(out.status.success(), "{args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8")
}

fn model(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../models")
        .join(name)
        .display()
        .to_string()
}

#[test]
fn emit_conservation_prints_each_elements_row_on_quickstart() {
    let out = rmsc(&[
        "compile",
        &model("quickstart.rdl"),
        "--emit",
        "conservation",
    ]);
    assert_eq!(
        out,
        "C conserved: 2*[PolyS_2] + 2*[PolyS_3] + 2*[PolyS_4] + [CH3S] + [CH3S2] + [CH3S3] + [CH3S4]\n\
         H conserved: 6*[PolyS_2] + 6*[PolyS_3] + 6*[PolyS_4] + 3*[CH3S] + 3*[CH3S2] + 3*[CH3S3] + 3*[CH3S4]\n\
         S conserved: 2*[PolyS_2] + 3*[PolyS_3] + 4*[PolyS_4] + [CH3S] + 2*[CH3S2] + 3*[CH3S3] + [S] \
         + 2*[S2] + 4*[CH3S4] + 3*[S3] + 4*[S4]\n"
    );
}

/// The rules whose action adds or removes a hydrogen are the ones that
/// change H's total, each in every one of its reactions; nothing else
/// leaks.
#[test]
fn emit_conservation_names_the_rules_that_change_hydrogen_on_vulcanization() {
    let text = include_str!("../models/vulcanization.rdl");
    let program = rms_rdl::parse_rdl(text).unwrap();
    let network = rms_rdl::compile(&program).unwrap().network;
    let changes_h = |rule: &&rms_rdl::RuleDecl| {
        matches!(rule.action, Action::RemoveHydrogen | Action::AddHydrogen)
    };
    let leaks: Vec<String> = (program.rules.iter().filter(changes_h))
        .map(|rule| {
            let n = network
                .reactions()
                .iter()
                .filter(|r| r.rule == rule.name)
                .count();
            let plural = if n == 1 { "" } else { "s" };
            format!("{} ({n} reaction{plural})", rule.name)
        })
        .collect();
    assert_eq!(leaks.len(), 2, "{leaks:?}");

    let out = rmsc(&[
        "compile",
        &model("vulcanization.rdl"),
        "--emit",
        "conservation",
    ]);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 3, "{out}");
    assert!(lines[0].starts_with("C conserved: 5*[Rubber] + "), "{out}");
    assert_eq!(lines[1], format!("H not conserved: {}", leaks.join(", ")));
    assert!(lines[2].starts_with("S conserved: "), "{out}");
}

/// The count needs species structures, which a disk entry drops: the
/// emit compiles cold whatever `--cache-dir` holds.
#[test]
fn emit_conservation_prints_the_same_bytes_against_a_cache_dir() {
    let cache = std::env::temp_dir().join(format!("rms-conservation-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let cache_arg = cache.display().to_string();
    let m = model("vulcanization.rdl");
    // A cache entry for the model exists before the first run.
    rmsc(&["compile", &m, "--emit", "stats", "--cache-dir", &cache_arg]);
    let args = [
        "compile",
        &m,
        "--emit",
        "conservation",
        "--cache-dir",
        &cache_arg,
    ];
    let (first, second) = (rmsc(&args), rmsc(&args));
    assert_eq!(first, second);
    assert_eq!(first, rmsc(&["compile", &m, "--emit", "conservation"]));
    let _ = std::fs::remove_dir_all(&cache);
}
