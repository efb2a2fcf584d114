//! Element balance of a reaction network, counted from species
//! structures: per element, what each species holds (implicit H included)
//! and which rules' reactions change its total. One count over the atoms
//! and one pass over the reactions, O(atoms + nnz(S)): no stoichiometry
//! matrix is built and nothing is solved.

use rms_molecule::formula::hill_key;
use rms_molecule::{Element, Formula};

use crate::network::ReactionNetwork;

/// One element's row of a network's balance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementRow {
    /// The element counted.
    pub element: Element,
    /// Atoms of the element in one unit of each species, indexed by
    /// `SpeciesId`.
    pub counts: Vec<u32>,
    /// The rules whose reactions change the element's total, each with the
    /// number of its reactions that do, in order of the first such
    /// reaction. Empty when every reaction conserves the element.
    pub broken_by: Vec<(String, usize)>,
}

impl ElementRow {
    /// Whether every reaction of the network conserves the element, so
    /// `Σ counts[i]·[X_i]` is constant along every trajectory.
    pub fn is_conserved(&self) -> bool {
        self.broken_by.is_empty()
    }
}

impl ReactionNetwork {
    /// One row per element some species holds, in Hill order. Empty when a
    /// species has no structure: a programmatic network has no atoms to
    /// count.
    pub fn element_balance(&self) -> Vec<ElementRow> {
        let formulas: Option<Vec<Formula>> = self
            .species_iter()
            .map(|(_, s)| s.structure.as_ref().map(Formula::of))
            .collect();
        let Some(formulas) = formulas else {
            return Vec::new();
        };
        let mut elements: Vec<Element> = (formulas.iter())
            .flat_map(|f| f.elements().iter().map(|&(e, _)| e))
            .collect();
        elements.sort_by_key(|&e| hill_key(e));
        elements.dedup();
        let mut row_of = [usize::MAX; Element::ALL.len()];
        for (row, &e) in elements.iter().enumerate() {
            row_of[e as usize] = row;
        }

        let n = formulas.len();
        let mut rows: Vec<ElementRow> = elements
            .iter()
            .map(|&element| ElementRow {
                element,
                counts: vec![0; n],
                broken_by: Vec::new(),
            })
            .collect();
        for (species, formula) in formulas.iter().enumerate() {
            for &(e, count) in formula.elements() {
                rows[row_of[e as usize]].counts[species] = count;
            }
        }

        let mut change = vec![0i64; rows.len()];
        for reaction in self.reactions() {
            change.fill(0);
            for (side, sign) in [(&reaction.reactants, -1), (&reaction.products, 1)] {
                for s in side {
                    for &(e, count) in formulas[s.0 as usize].elements() {
                        change[row_of[e as usize]] += sign * i64::from(count);
                    }
                }
            }
            for (row, _) in rows.iter_mut().zip(&change).filter(|(_, &c)| c != 0) {
                match row
                    .broken_by
                    .iter_mut()
                    .find(|(rule, _)| *rule == reaction.rule)
                {
                    Some((_, reactions)) => *reactions += 1,
                    None => row.broken_by.push((reaction.rule.clone(), 1)),
                }
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use crate::{compile, parse_rdl, Reaction, ReactionNetwork};
    use rms_molecule::Element;

    fn network(source: &str) -> ReactionNetwork {
        compile(&parse_rdl(source).unwrap()).unwrap().network
    }

    #[test]
    fn atoms_are_counted_from_structures() {
        // CSSC = C2H6S2 and CH3S• = CH3S; scission conserves all three.
        let net = network(
            r#"rate K = 2; molecule DiS = "CSSC" init 1.0;
               rule scission { site bond S ~ S order single; action disconnect; rate K; }"#,
        );
        let dis = net.species_by_name("DiS").unwrap().0 as usize;
        let rows = net.element_balance();
        let elements: Vec<Element> = rows.iter().map(|r| r.element).collect();
        assert_eq!(elements, [Element::C, Element::H, Element::S]);
        let counts: Vec<(u32, u32)> = rows
            .iter()
            .map(|r| (r.counts[dis], r.counts[1 - dis]))
            .collect();
        assert_eq!(counts, [(2, 1), (6, 3), (2, 1)]);
        assert!(rows.iter().all(|r| r.is_conserved()));
    }

    #[test]
    fn a_rule_that_drops_hydrogen_is_named_with_its_reactions() {
        let net = network(
            r#"rate K = 1; molecule Thiol = "CS" init 1.0;
               rule abstraction { site atom S & hydrogens >= 1; action remove_h; rate K; }"#,
        );
        let rows = net.element_balance();
        let leaks: Vec<(Element, &[(String, usize)])> = rows
            .iter()
            .map(|r| (r.element, r.broken_by.as_slice()))
            .collect();
        let abstraction = [("abstraction".to_string(), net.reaction_count())];
        assert_eq!(
            leaks,
            [
                (Element::C, &[][..]),
                (Element::H, &abstraction[..]),
                (Element::S, &[][..])
            ]
        );
    }

    #[test]
    fn a_network_without_structures_has_no_balance() {
        let mut net = ReactionNetwork::new();
        let a = net.add_abstract_species("A", 1.0);
        let b = net.add_abstract_species("B", 0.0);
        net.add_reaction(Reaction {
            reactants: vec![a],
            products: vec![b],
            rate: "K".to_string(),
            rule: "r".to_string(),
        });
        assert!(net.element_balance().is_empty());
        assert!(ReactionNetwork::new().element_balance().is_empty());
    }
}
