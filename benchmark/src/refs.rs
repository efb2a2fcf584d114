//! References the pipeline did not produce.
//!
//! Every output check in the benchmark compares against one of these:
//! a mass-action evaluator written straight from the reaction list, atom
//! totals counted from the species' own structures, the closed-form
//! solution of a first-order decay, and the operation counts recorded in
//! EXPERIMENTS.md. None of them touches the equation generator, the
//! optimizer, a tape or an engine, so a bug upstream of those cannot agree
//! with them by construction.

use rms_rcip::RateTable;
use rms_rdl::ReactionNetwork;

/// Mass-action kinetics evaluated reaction by reaction: each event flows
/// at `k · Π[reactant]` and moves that much out of every reactant
/// occurrence and into every product occurrence.
pub struct MassAction {
    /// Per reaction: index into the rate vector, reactants, products.
    reactions: Vec<(usize, Vec<usize>, Vec<usize>)>,
    n_species: usize,
}

impl MassAction {
    /// `rates` only maps each reaction's rate name to its slot in the rate
    /// vector the caller will evaluate with.
    pub fn new(network: &ReactionNetwork, rates: &RateTable) -> Result<MassAction, String> {
        let reactions = network
            .reactions()
            .iter()
            .map(|r| {
                let slot = rates
                    .id(&r.rate)
                    .ok_or_else(|| format!("reaction uses undeclared rate '{}'", r.rate))?;
                let ids = |side: &[rms_rdl::SpeciesId]| side.iter().map(|s| s.0 as usize).collect();
                Ok((slot.0 as usize, ids(&r.reactants), ids(&r.products)))
            })
            .collect::<Result<_, String>>()?;
        Ok(MassAction {
            reactions,
            n_species: network.species_count(),
        })
    }

    /// `ydot` receives the derivative and `scale` the sum of the absolute
    /// flows through each species — the magnitude against which a
    /// reordered floating-point sum may legitimately differ.
    pub fn eval(&self, rate_values: &[f64], y: &[f64], ydot: &mut [f64], scale: &mut [f64]) {
        assert_eq!(y.len(), self.n_species);
        ydot.fill(0.0);
        scale.fill(0.0);
        for (slot, reactants, products) in &self.reactions {
            let flow = reactants
                .iter()
                .fold(rate_values[*slot], |acc, &s| acc * y[s]);
            for &s in reactants {
                ydot[s] -= flow;
                scale[s] += flow.abs();
            }
            for &s in products {
                ydot[s] += flow;
                scale[s] += flow.abs();
            }
        }
    }

    /// Largest deviation of `candidate` from this evaluator at `y`, as a
    /// share of each species' flow magnitude.
    pub fn worst_relative_error(&self, rate_values: &[f64], y: &[f64], candidate: &[f64]) -> f64 {
        let mut ydot = vec![0.0; self.n_species];
        let mut scale = vec![0.0; self.n_species];
        self.eval(rate_values, y, &mut ydot, &mut scale);
        ydot.iter()
            .zip(candidate)
            .zip(&scale)
            .map(|((want, got), scale)| (want - got).abs() / scale.max(f64::MIN_POSITIVE))
            .fold(0.0, f64::max)
    }
}

/// Per countable quantity, how much of it one unit of each species holds.
///
/// Species with a structure are counted atom by atom (implicit hydrogens
/// included), one row per element. The programmatic vulcanization network
/// has no structures; its names are its formulas, and what it can be
/// counted in is rubber sites (`R_f` and `RS_f_n` hold one, a crosslink
/// `X_f_g` holds two).
pub fn species_contents(network: &ReactionNetwork) -> Vec<(String, Vec<f64>)> {
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

/// One line of quantity names, then one line of counts per species: the
/// form in which a compile child hands the contents to its parent, whose
/// cache-revived artifact no longer carries the structures.
pub fn contents_to_text(contents: &[(String, Vec<f64>)]) -> String {
    let names: Vec<&str> = contents.iter().map(|(name, _)| name.as_str()).collect();
    let species = contents.first().map_or(0, |(_, row)| row.len());
    let mut text = names.join(" ");
    for s in 0..species {
        text.push('\n');
        let counts: Vec<String> = contents.iter().map(|(_, row)| row[s].to_string()).collect();
        text.push_str(&counts.join(" "));
    }
    text
}

pub fn contents_from_text(text: &str) -> Result<Vec<(String, Vec<f64>)>, String> {
    let mut lines = text.lines();
    let mut contents: Vec<(String, Vec<f64>)> = lines
        .next()
        .ok_or("empty contents file")?
        .split_whitespace()
        .map(|name| (name.to_string(), Vec::new()))
        .collect();
    for line in lines {
        let counts: Vec<f64> = line
            .split_whitespace()
            .map(|w| w.parse::<f64>().map_err(|e| format!("'{w}': {e}")))
            .collect::<Result<_, _>>()?;
        if counts.len() != contents.len() {
            return Err(format!("contents line with {} counts", counts.len()));
        }
        for ((_, row), count) in contents.iter_mut().zip(counts) {
            row.push(count);
        }
    }
    Ok(contents)
}

/// Split `contents` into the quantities every reaction of the network
/// conserves exactly and the names of those some reaction does not. A rule
/// may legitimately drop an element (`remove_h` abstracts a hydrogen to a
/// partner the model does not track), so an unconserved quantity is
/// reported, not failed; a trajectory must keep every conserved one.
pub fn conserved_quantities(
    network: &ReactionNetwork,
    contents: Vec<(String, Vec<f64>)>,
) -> (Vec<(String, Vec<f64>)>, Vec<String>) {
    let (kept, dropped): (Vec<_>, Vec<_>) = contents
        .into_iter()
        .partition(|(_, row)| reactions_conserve(network, row));
    (kept, dropped.into_iter().map(|(name, _)| name).collect())
}

/// Whether every reaction of the network conserves `quantity` exactly.
pub fn reactions_conserve(network: &ReactionNetwork, quantity: &[f64]) -> bool {
    network.reactions().iter().all(|r| {
        let total = |side: &[rms_rdl::SpeciesId]| -> f64 {
            side.iter().map(|s| quantity[s.0 as usize]).sum()
        };
        total(&r.reactants) == total(&r.products)
    })
}

/// `A → 2B` at rate `k` from `[A] = a0`, `[B] = 0`: `(A(t), B(t))`.
pub fn first_order_decay(k: f64, a0: f64, t: f64) -> (f64, f64) {
    let a = a0 * (-k * t).exp();
    (a, 2.0 * (a0 - a))
}

/// EXPERIMENTS.md, Table 1, case 4 at 1/25 of the paper's size.
pub struct Table1Pin {
    pub equations: usize,
    pub mults_opt: usize,
    pub adds_opt: usize,
}

pub const TABLE1_CASE4_SCALE25: Table1Pin = Table1Pin {
    equations: 4_984,
    mults_opt: 54_313,
    adds_opt: 60_935,
};

#[cfg(test)]
mod tests {
    use super::*;
    use rms_rdl::{compile, parse_rdl};

    /// The decay model the serving workload also uses.
    pub const CSSC: &str = r#"
        rate K_sc = 2;
        molecule DiS = "CSSC" init 1.0;
        rule scission {
            site bond S ~ S order single;
            action disconnect;
            rate K_sc;
        }
    "#;

    #[test]
    fn evaluator_matches_the_printed_odes_of_the_decay_model() {
        // d[DiS]/dt = -2[DiS], d[CH3S]/dt = +4[DiS], written out by hand.
        let model = compile(&parse_rdl(CSSC).unwrap()).unwrap();
        assert_eq!(model.network.species_count(), 2);
        let reference = MassAction::new(&model.network, &model.rates).unwrap();
        let dis = model.network.species_by_name("DiS").unwrap().0 as usize;
        let y = [0.7, 0.3];
        let (mut ydot, mut scale) = (vec![0.0; 2], vec![0.0; 2]);
        reference.eval(&[2.0], &y, &mut ydot, &mut scale);
        assert_eq!(ydot[dis], -2.0 * y[dis]);
        assert_eq!(ydot[1 - dis], 4.0 * y[dis]);
        assert_eq!(scale[dis], 2.0 * y[dis]);
        // A wrong candidate is seen, the right one is not.
        let mut wrong = ydot.clone();
        wrong[1 - dis] *= 1.0 + 1e-6;
        assert!(reference.worst_relative_error(&[2.0], &y, &wrong) > 1e-7);
        assert_eq!(reference.worst_relative_error(&[2.0], &y, &ydot), 0.0);
    }

    #[test]
    fn evaluator_handles_repeated_reactants_and_duplicate_events() {
        // 2A -> B at k, listed twice (two symmetric sites):
        // dA/dt = -2·2·k·A², dB/dt = 2·k·A².
        let mut network = ReactionNetwork::new();
        let a = network.add_abstract_species("A", 1.0);
        let b = network.add_abstract_species("B", 0.0);
        for _ in 0..2 {
            network.add_reaction_event(rms_rdl::Reaction {
                reactants: vec![a, a],
                products: vec![b],
                rate: "k".to_string(),
                rule: "dimerise".to_string(),
            });
        }
        let rates = RateTable::parse("rate k = 3;").unwrap();
        let reference = MassAction::new(&network, &rates).unwrap();
        let (mut ydot, mut scale) = (vec![0.0; 2], vec![0.0; 2]);
        reference.eval(&[3.0], &[0.5, 0.0], &mut ydot, &mut scale);
        assert_eq!(ydot, vec![-4.0 * 3.0 * 0.25, 2.0 * 3.0 * 0.25]);
    }

    #[test]
    fn undeclared_rates_are_reported() {
        let mut network = ReactionNetwork::new();
        let a = network.add_abstract_species("A", 1.0);
        network.add_reaction(rms_rdl::Reaction {
            reactants: vec![a],
            products: vec![],
            rate: "missing".to_string(),
            rule: "r".to_string(),
        });
        assert!(MassAction::new(&network, &RateTable::default()).is_err());
    }

    #[test]
    fn atoms_are_counted_from_structures() {
        // CSSC = C2H6S2, CH3S• = CH3S.
        let model = compile(&parse_rdl(CSSC).unwrap()).unwrap();
        let rows = species_contents(&model.network);
        let dis = model.network.species_by_name("DiS").unwrap().0 as usize;
        let count = |symbol: &str, species: usize| {
            rows.iter().find(|(s, _)| s == symbol).unwrap().1[species]
        };
        assert_eq!(count("C", dis), 2.0);
        assert_eq!(count("H", dis), 6.0);
        assert_eq!(count("S", dis), 2.0);
        assert_eq!(count("C", 1 - dis), 1.0);
        assert_eq!(count("H", 1 - dis), 3.0);
        assert_eq!(count("S", 1 - dis), 1.0);
        for (_, row) in &rows {
            assert!(reactions_conserve(&model.network, row));
        }
        // A leak is seen: pretend the radical held two sulfurs.
        let mut leaky = rows.iter().find(|(s, _)| s == "S").unwrap().1.clone();
        leaky[1 - dis] = 2.0;
        assert!(!reactions_conserve(&model.network, &leaky));
    }

    #[test]
    fn programmatic_networks_conserve_rubber_sites() {
        let model = rms_workload::scaled_case(1, 4);
        let contents = species_contents(&model.network);
        assert_eq!(
            contents_from_text(&contents_to_text(&contents)).unwrap(),
            contents
        );
        let (rows, dropped) = conserved_quantities(&model.network, contents);
        assert_eq!((rows.len(), dropped.len()), (1, 0));
        let total: f64 = rows[0]
            .1
            .iter()
            .zip(model.network.initial_concentrations())
            .map(|(w, y)| w * y)
            .sum();
        assert_eq!(total, model.spec.sites as f64);
    }

    #[test]
    fn a_rule_that_drops_hydrogen_is_reported_not_conserved() {
        let source = r#"
            rate K = 1;
            molecule Thiol = "CS" init 1.0;
            rule abstraction {
                site atom S & hydrogens >= 1;
                action remove_h;
                rate K;
            }
        "#;
        let model = compile(&parse_rdl(source).unwrap()).unwrap();
        assert!(model.network.reaction_count() > 0);
        let (kept, dropped) =
            conserved_quantities(&model.network, species_contents(&model.network));
        let kept: Vec<&str> = kept.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(kept, ["C", "S"]);
        assert_eq!(dropped, ["H"]);
    }

    #[test]
    fn decay_closed_form() {
        let (a, b) = first_order_decay(2.0, 1.0, 0.0);
        assert_eq!((a, b), (1.0, 0.0));
        let (a, b) = first_order_decay(2.0, 1.0, 0.5);
        assert!((a - (-1.0f64).exp()).abs() < 1e-15);
        assert!((a + b / 2.0 - 1.0).abs() < 1e-15);
    }
}
