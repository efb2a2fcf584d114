//! The reaction network: the chemical compiler's output (paper Fig. 3).
//!
//! Each reaction consumes and produces species at a rate governed by a
//! kinetic rate constant; the equation generator (rms-odegen) turns the
//! network into ODEs. The network can be built by the RDL rule engine or
//! programmatically (the benchmark workload generator synthesizes
//! paper-scale networks directly).

use std::collections::HashMap;
use std::fmt;

use rms_molecule::Molecule;

/// Dense species identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpeciesId(pub u32);

/// A chemical species (molecule or radical) in the network.
#[derive(Debug, Clone)]
pub struct Species {
    /// Unique display name (declared name, variant name, or generated).
    pub name: String,
    /// The structure, when the species came from the chemistry frontend.
    /// Programmatically generated networks may omit it.
    pub structure: Option<Molecule>,
    /// Initial concentration for simulation.
    pub initial_concentration: f64,
}

/// One reaction: `reactants --k--> products`, mass-action kinetics.
/// Multiplicities are explicit (a species may appear twice as a reactant).
#[derive(Debug, Clone, PartialEq)]
pub struct Reaction {
    /// Consumed species (with multiplicity via repetition).
    pub reactants: Vec<SpeciesId>,
    /// Produced species (with multiplicity via repetition).
    pub products: Vec<SpeciesId>,
    /// Name of the kinetic rate constant.
    pub rate: String,
    /// Name of the rule that generated the reaction (provenance).
    pub rule: String,
}

/// The full reaction network.
#[derive(Debug, Clone, Default)]
pub struct ReactionNetwork {
    species: Vec<Species>,
    reactions: Vec<Reaction>,
    by_name: HashMap<String, SpeciesId>,
    /// Reaction dedup index: hash of (sorted reactants, sorted products,
    /// rate) → candidate reaction indices, compared exactly on collision.
    /// Hash buckets instead of formatted string keys — reaction dedup sits
    /// on the closure hot path and must not allocate per lookup.
    reaction_buckets: HashMap<u64, Vec<usize>>,
}

fn reaction_dedup_hash(reaction: &Reaction) -> u64 {
    // FNV-1a over the sorted id lists and the rate name.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| h = (h ^ v).wrapping_mul(0x1000_0000_01b3);
    eat(reaction.reactants.len() as u64);
    for id in &reaction.reactants {
        eat(id.0 as u64);
    }
    eat(0xa5a5_a5a5);
    for id in &reaction.products {
        eat(id.0 as u64);
    }
    eat(0x5a5a_5a5a);
    for b in reaction.rate.as_bytes() {
        eat(*b as u64);
    }
    h
}

impl ReactionNetwork {
    /// Empty network.
    pub fn new() -> ReactionNetwork {
        ReactionNetwork::default()
    }

    /// Number of species.
    pub fn species_count(&self) -> usize {
        self.species.len()
    }

    /// Number of reactions.
    pub fn reaction_count(&self) -> usize {
        self.reactions.len()
    }

    /// Species accessor.
    pub fn species(&self, id: SpeciesId) -> &Species {
        &self.species[id.0 as usize]
    }

    /// All species with ids.
    pub fn species_iter(&self) -> impl Iterator<Item = (SpeciesId, &Species)> {
        self.species
            .iter()
            .enumerate()
            .map(|(i, s)| (SpeciesId(i as u32), s))
    }

    /// All reactions.
    pub fn reactions(&self) -> &[Reaction] {
        &self.reactions
    }

    /// Look up a species by display name.
    pub fn species_by_name(&self, name: &str) -> Option<SpeciesId> {
        self.by_name.get(name).copied()
    }

    /// Add a named species without structure (programmatic networks).
    /// Returns the existing id when the name is already present.
    pub fn add_abstract_species(&mut self, name: &str, initial: f64) -> SpeciesId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = SpeciesId(self.species.len() as u32);
        self.species.push(Species {
            name: name.to_string(),
            structure: None,
            initial_concentration: initial,
        });
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Add a structured species under a fresh display name: `name_hint`,
    /// with a numeric suffix on collision. The caller has established that
    /// the structure is new — the rule engine dedups on interned
    /// identities (`rms_molecule::KeyTable`) before a molecule gets here.
    pub fn add_species(
        &mut self,
        mut structure: Molecule,
        name_hint: &str,
        initial: f64,
    ) -> SpeciesId {
        structure.shrink_to_fit();
        let mut name = name_hint.to_string();
        let mut suffix = 1;
        while self.by_name.contains_key(&name) {
            name = format!("{name_hint}_{suffix}");
            suffix += 1;
        }
        let id = SpeciesId(self.species.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.species.push(Species {
            name,
            structure: Some(structure),
            initial_concentration: initial,
        });
        id
    }

    /// Canonical SMILES of a species' structure, computed on demand (dumps
    /// and diffing tests ask; the engine never does). `None` for abstract
    /// species.
    pub fn canonical_smiles(&self, id: SpeciesId) -> Option<String> {
        let structure = self.species(id).structure.as_ref()?;
        Some(rms_molecule::canonical_key(structure))
    }

    /// Set a species' initial concentration.
    pub fn set_initial(&mut self, id: SpeciesId, value: f64) {
        self.species[id.0 as usize].initial_concentration = value;
    }

    /// Initial concentration vector indexed by `SpeciesId`.
    pub fn initial_concentrations(&self) -> Vec<f64> {
        self.species
            .iter()
            .map(|s| s.initial_concentration)
            .collect()
    }

    /// Add a reaction, deduplicating identical (reactants, products, rate)
    /// triples. Returns `true` when the reaction was new.
    pub fn add_reaction(&mut self, mut reaction: Reaction) -> bool {
        reaction.reactants.sort_unstable();
        reaction.products.sort_unstable();
        let hash = reaction_dedup_hash(&reaction);
        let bucket = self.reaction_buckets.entry(hash).or_default();
        for &idx in bucket.iter() {
            let r = &self.reactions[idx];
            if r.reactants == reaction.reactants
                && r.products == reaction.products
                && r.rate == reaction.rate
            {
                return false;
            }
        }
        bucket.push(self.reactions.len());
        self.reactions.push(reaction);
        true
    }

    /// Add a reaction *without* deduplication. Position-resolved rule
    /// events use this: applying scission at each of a chain's symmetric
    /// bond positions yields identical (reactants, products, rate)
    /// triples that are nonetheless distinct reaction events — their
    /// multiplicity is physical (the total rate is proportional to the
    /// number of sites). The paper's chemical compiler emits this
    /// "exhaustive listing of all possible chemical reactions" and relies
    /// on §3.1's equation simplification to merge the duplicate terms
    /// into stoichiometric coefficients (the Fig. 4 → Fig. 5 step).
    pub fn add_reaction_event(&mut self, mut reaction: Reaction) {
        reaction.reactants.sort_unstable();
        reaction.products.sort_unstable();
        self.reactions.push(reaction);
    }

    /// Render the network in the paper's Fig. 3 intermediate-equation
    /// format: `- A + B + B \ [K];`
    pub fn display_equations(&self) -> String {
        let mut out = String::new();
        for (i, r) in self.reactions.iter().enumerate() {
            out.push_str(&format!("{}. ", i + 1));
            let mut first = true;
            for &id in &r.reactants {
                if !first {
                    out.push(' ');
                }
                out.push_str(&format!("- {}", self.species(id).name));
                first = false;
            }
            for &id in &r.products {
                if !first {
                    out.push(' ');
                }
                out.push_str(&format!("+ {}", self.species(id).name));
                first = false;
            }
            out.push_str(&format!(" \\ [{}];\n", r.rate));
        }
        out
    }
}

impl fmt::Display for ReactionNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ReactionNetwork: {} species, {} reactions",
            self.species_count(),
            self.reaction_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rms_molecule::{canonical_key, parse_smiles};

    #[test]
    fn abstract_species_dedup_by_name() {
        let mut n = ReactionNetwork::new();
        let a = n.add_abstract_species("A", 1.0);
        let a2 = n.add_abstract_species("A", 0.0);
        assert_eq!(a, a2);
        assert_eq!(n.species_count(), 1);
        assert_eq!(n.species(a).initial_concentration, 1.0);
    }

    #[test]
    fn name_collisions_get_suffixes() {
        let mut n = ReactionNetwork::new();
        n.add_species(parse_smiles("CCO").unwrap(), "mol", 0.0);
        let id2 = n.add_species(parse_smiles("CCS").unwrap(), "mol", 0.0);
        assert_eq!(n.species(id2).name, "mol_1");
        assert_eq!(
            n.canonical_smiles(id2).unwrap(),
            canonical_key(&parse_smiles("SCC").unwrap())
        );
    }

    #[test]
    fn reaction_dedup() {
        let mut n = ReactionNetwork::new();
        let a = n.add_abstract_species("A", 0.0);
        let b = n.add_abstract_species("B", 0.0);
        let r = Reaction {
            reactants: vec![a],
            products: vec![b, b],
            rate: "K".to_string(),
            rule: "r".to_string(),
        };
        assert!(n.add_reaction(r.clone()));
        assert!(!n.add_reaction(r.clone()));
        // Different rate constant => different reaction.
        let mut r2 = r;
        r2.rate = "K2".to_string();
        assert!(n.add_reaction(r2));
        assert_eq!(n.reaction_count(), 2);
    }

    #[test]
    fn reactant_order_irrelevant_for_dedup() {
        let mut n = ReactionNetwork::new();
        let a = n.add_abstract_species("A", 0.0);
        let b = n.add_abstract_species("B", 0.0);
        let c = n.add_abstract_species("C", 0.0);
        let r1 = Reaction {
            reactants: vec![a, b],
            products: vec![c],
            rate: "K".to_string(),
            rule: "r".to_string(),
        };
        let r2 = Reaction {
            reactants: vec![b, a],
            products: vec![c],
            rate: "K".to_string(),
            rule: "r".to_string(),
        };
        assert!(n.add_reaction(r1));
        assert!(!n.add_reaction(r2));
    }

    #[test]
    fn display_matches_fig3_shape() {
        // Paper Fig. 3:  1. -A +B +B \ [K_A];  2. -C -D +E \ [K_CD];
        let mut n = ReactionNetwork::new();
        let a = n.add_abstract_species("A", 0.0);
        let b = n.add_abstract_species("B", 0.0);
        let c = n.add_abstract_species("C", 0.0);
        let d = n.add_abstract_species("D", 0.0);
        let e = n.add_abstract_species("E", 0.0);
        n.add_reaction(Reaction {
            reactants: vec![a],
            products: vec![b, b],
            rate: "K_A".to_string(),
            rule: "r1".to_string(),
        });
        n.add_reaction(Reaction {
            reactants: vec![c, d],
            products: vec![e],
            rate: "K_CD".to_string(),
            rule: "r2".to_string(),
        });
        let text = n.display_equations();
        assert_eq!(
            text,
            "1. - A + B + B \\ [K_A];\n2. - C - D + E \\ [K_CD];\n"
        );
    }

    #[test]
    fn initial_concentration_vector() {
        let mut n = ReactionNetwork::new();
        n.add_abstract_species("A", 1.5);
        let b = n.add_abstract_species("B", 0.0);
        n.set_initial(b, 2.5);
        assert_eq!(n.initial_concentrations(), vec![1.5, 2.5]);
    }
}
