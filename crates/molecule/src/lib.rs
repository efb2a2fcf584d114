//! # rms-molecule — symbolic chemistry substrate
//!
//! The paper's chemical compiler stores and manipulates molecules "using
//! the SMILES Java classes" of the CDK. This crate is the Rust equivalent:
//!
//! * [`Molecule`]: an undirected labelled graph of [`Atom`]s and [`Bond`]s
//!   implementing the paper's six reaction-rule primitives (connect,
//!   disconnect, bond order ±1, remove/add hydrogen);
//! * [`smiles`]: a SMILES subset parser and writer;
//! * [`canon`]: canonical labeling by partition refinement, giving O(1) molecule
//!   equality through canonical SMILES strings;
//! * [`pattern`]: reaction-site predicates and VF2-style subgraph matching
//!   used by the RDL rule engine;
//! * [`Formula`]: molecular formulas for conservation checking.

#![warn(missing_docs)]

pub mod atom;
pub mod bond;
pub mod canon;
pub mod element;
pub mod error;
pub mod formula;
pub mod graph;
pub mod intern;
pub mod pattern;
pub mod smiles;

pub use atom::Atom;
pub use bond::{Bond, BondOrder};
pub use element::Element;
pub use error::{MoleculeError, Result};
pub use formula::Formula;
pub use graph::Molecule;
pub use intern::{identify, KeyTable, MolIdentity, Sym};
pub use pattern::{AtomPredicate, BondPredicate, QueryGraph};
pub use smiles::{parse_smiles, write_smiles, write_smiles_canonical};

/// Canonical key for a molecule: equal keys iff isomorphic molecules.
/// This is the dedup key used while generating reaction networks.
pub fn canonical_key(mol: &Molecule) -> String {
    write_smiles_canonical(mol)
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Random tree-shaped molecules over {C, N, O, S}.
    fn arb_molecule() -> impl Strategy<Value = Molecule> {
        let elems = prop::sample::select(vec![Element::C, Element::N, Element::O, Element::S]);
        prop::collection::vec((elems, 0usize..8), 1..12).prop_map(|nodes| {
            let mut m = Molecule::new();
            for (i, (e, parent_seed)) in nodes.iter().enumerate() {
                let idx = m.add_atom(Atom::new(*e));
                m.infer_all_hydrogens().unwrap();
                if i > 0 {
                    let parent = parent_seed % i;
                    // connect may fail on valence-saturated parents; skip.
                    let _ = m.connect(parent, idx, BondOrder::Single);
                    m.infer_all_hydrogens().unwrap();
                }
            }
            m
        })
    }

    /// A benzene ring whose positions carry nothing, a heteroatom, or a
    /// phenyl joined by a single (`-`) or an aromatic (unmarked) bond.
    fn arb_aromatic() -> impl Strategy<Value = Molecule> {
        let subs = prop::sample::select(vec![
            "",
            "",
            "(C)",
            "(N)",
            "(O)",
            "(S)",
            "(-c2ccccc2)",
            "(c2ccccc2)",
        ]);
        prop::collection::vec(subs, 5..6).prop_map(|subs| {
            let smiles = format!(
                "c1{}c1",
                subs.iter().map(|s| format!("c{s}")).collect::<String>()
            );
            parse_smiles(&smiles).unwrap()
        })
    }

    proptest! {
        /// parse(write_canonical(m)) is the molecule written: the canonical
        /// string is a fixpoint and the identity survives the round trip.
        #[test]
        fn canonical_smiles_round_trip(
            tree in arb_molecule(),
            ring in arb_aromatic(),
            pick_ring in any::<bool>(),
        ) {
            let m = if pick_ring { ring } else { tree };
            let s = write_smiles_canonical(&m);
            if s.is_empty() { return Ok(()); }
            let m2 = parse_smiles(&s).unwrap();
            prop_assert_eq!(write_smiles_canonical(&m2), s);
            prop_assert_eq!(identify(&m2), identify(&m));
        }

        /// The canonical key is independent of the traversal order used to
        /// serialize the molecule.
        #[test]
        fn canonical_key_traversal_invariant(m in arb_molecule()) {
            let s1 = write_smiles_canonical(&m);
            let plain = write_smiles(&m);
            if plain.is_empty() { return Ok(()); }
            let m3 = parse_smiles(&plain).unwrap();
            prop_assert_eq!(write_smiles_canonical(&m3), s1);
        }

        /// Formula is preserved by SMILES round trip.
        #[test]
        fn formula_preserved(m in arb_molecule()) {
            let s = write_smiles_canonical(&m);
            if s.is_empty() { return Ok(()); }
            let m2 = parse_smiles(&s).unwrap();
            prop_assert_eq!(Formula::of(&m), Formula::of(&m2));
        }

        /// disconnect followed by connect restores the bond count and
        /// total formula.
        #[test]
        fn scission_recombination(m in arb_molecule()) {
            let mut m = m;
            let Some(bond) = m.bonds().next().copied() else { return Ok(()); };
            let before_bonds = m.bond_count();
            let before_formula = Formula::of(&m);
            m.disconnect(bond.a, bond.b).unwrap();
            m.connect(bond.a, bond.b, bond.order).unwrap();
            prop_assert_eq!(m.bond_count(), before_bonds);
            prop_assert_eq!(Formula::of(&m), before_formula);
        }
    }
}
