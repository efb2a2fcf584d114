//! An oracle the solver did not write: what each species holds of every
//! element, counted atom by atom from its own structure (rubber sites on
//! the programmatic network, whose species have none). A quantity that
//! every reaction conserves must stay constant along a trajectory,
//! whatever the equation generator, the optimizer, the kernel or BDF do.
//! (The benchmark keeps its own copy of the counting in
//! `benchmark/src/refs.rs`; it is a separate package.)
//!
//! Trajectories are held to the benchmark's bound: ten times the relative
//! tolerance they are integrated at, because the BDF start-up moves
//! element totals by a few 10⁻⁶ at `rtol = 10⁻⁶` (ROADMAP item 1).

use rms_suite::workload::{scaled_case, vulcanization_source, FrontierSpec};
use rms_suite::{CompilerSession, OptLevel, ReactionNetwork, SessionOptions, TapeSimulator};

/// Per countable quantity, how much of it one unit of each species holds.
///
/// Species with a structure are counted atom by atom (implicit hydrogens
/// included), one row per element. The programmatic vulcanization network
/// has no structures; its names are its formulas, and what it can be
/// counted in is rubber sites (`R_f` and `RS_f_n` hold one, a crosslink
/// `X_f_g` holds two).
fn species_contents(network: &ReactionNetwork) -> Vec<(String, Vec<f64>)> {
    let n = network.species_count();
    if network.species_iter().all(|(_, s)| s.structure.is_some()) {
        let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
        for (id, species) in network.species_iter() {
            let mol = species.structure.as_ref().expect("checked above");
            let mut add = |symbol: &str, count: f64| {
                let row = match rows.iter().position(|(name, _)| name == symbol) {
                    Some(i) => i,
                    None => {
                        rows.push((symbol.to_string(), vec![0.0; n]));
                        rows.len() - 1
                    }
                };
                rows[row].1[id.0 as usize] += count;
            };
            for (_, atom) in mol.atoms() {
                add(atom.element.symbol(), 1.0);
                if atom.hydrogens > 0 {
                    add("H", atom.hydrogens as f64);
                }
            }
        }
        rows
    } else {
        let sites = network
            .species_iter()
            .map(|(_, s)| match s.name.split('_').next() {
                Some("R" | "RS") => 1.0,
                Some("X") => 2.0,
                _ => 0.0,
            })
            .collect();
        vec![("rubber_sites".to_string(), sites)]
    }
}

/// Split `contents` into the quantities every reaction of the network
/// conserves exactly and the names of those some reaction does not.
fn conserved_quantities(
    network: &ReactionNetwork,
    contents: Vec<(String, Vec<f64>)>,
) -> (Vec<(String, Vec<f64>)>, Vec<String>) {
    let (kept, dropped): (Vec<_>, Vec<_>) = contents
        .into_iter()
        .partition(|(_, row)| reactions_conserve(network, row));
    (kept, dropped.into_iter().map(|(name, _)| name).collect())
}

/// Whether every reaction of the network conserves `quantity` exactly.
fn reactions_conserve(network: &ReactionNetwork, quantity: &[f64]) -> bool {
    network.reactions().iter().all(|r| {
        let total = |side: &[rms_rdl::SpeciesId]| -> f64 {
            side.iter().map(|s| quantity[s.0 as usize]).sum()
        };
        total(&r.reactants) == total(&r.products)
    })
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
    let network = &artifact.network;
    let (conserved, dropped) = conserved_quantities(network, species_contents(network));
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
