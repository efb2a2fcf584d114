//! Abstract syntax for RDL programs.
//!
//! The language follows the shape of Prickett's Reaction Description
//! Language as adopted by the paper: compact molecule declarations with
//! chain-length variants, reaction rules built from six primitive actions
//! with context-sensitive site selection, and forbidden forms.

use rms_molecule::{AtomPredicate, BondOrder, Element};

/// A complete parsed RDL program.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Declared molecules (with unexpanded variant templates).
    pub molecules: Vec<MoleculeDecl>,
    /// Reaction rules.
    pub rules: Vec<RuleDecl>,
    /// Constraints on network generation.
    pub limits: Limits,
    /// 1-based (line, column) of the `limit generations N;` statement,
    /// when one was written — used for the generation-cap warning span.
    pub generations_span: Option<(usize, usize)>,
    /// Forbidden forms: generated molecules matching any of these are
    /// discarded together with the producing reaction.
    pub forbids: Vec<Forbid>,
    /// Rate-constant definitions and bounds, in RCIP surface syntax
    /// (collected verbatim and handed to `rms-rcip`): the source file up
    /// to the last of them, with every other character blanked and
    /// newlines kept, so RCIP positions are file positions.
    pub rate_source: String,
}

/// `molecule NAME = "SMILES";` optionally
/// `molecule NAME = "C S{n} C" for n in 2..8;`
#[derive(Debug, Clone, PartialEq)]
pub struct MoleculeDecl {
    /// Species family name.
    pub name: String,
    /// SMILES template; `X{n}` repeats the single-atom symbol `X` n times.
    pub template: String,
    /// Variant range (inclusive), if the template is parameterized.
    pub variants: Option<(u32, u32)>,
    /// Initial concentration for simulation (defaults to 0).
    pub initial_concentration: f64,
}

/// The six primitive actions of the paper (§2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Disconnect two atoms (bond site).
    Disconnect,
    /// Connect two atoms (two atom sites, possibly across molecules).
    Connect(BondOrder),
    /// Decrease the bond order (bond site).
    DecreaseBond,
    /// Increase the bond order (bond site).
    IncreaseBond,
    /// Remove a hydrogen atom (atom site).
    RemoveHydrogen,
    /// Add a hydrogen atom (atom site).
    AddHydrogen,
}

impl Action {
    /// Human-readable keyword (as written in RDL source).
    pub fn keyword(self) -> &'static str {
        match self {
            Action::Disconnect => "disconnect",
            Action::Connect(_) => "connect",
            Action::DecreaseBond => "decrease",
            Action::IncreaseBond => "increase",
            Action::RemoveHydrogen => "remove_h",
            Action::AddHydrogen => "add_h",
        }
    }
}

/// Where a rule applies.
#[derive(Debug, Clone, PartialEq)]
pub enum Site {
    /// A bond whose endpoints satisfy the two predicates (tried in both
    /// orientations) with an optional required order.
    Bond {
        /// Predicate for one endpoint.
        left: AtomPredicate,
        /// Predicate for the other endpoint.
        right: AtomPredicate,
        /// Required order, or any.
        order: Option<BondOrder>,
    },
    /// A single atom (for hydrogen actions).
    Atom(AtomPredicate),
    /// Two atoms in two (possibly identical) molecules, for `connect`.
    Pair {
        /// Site in the first molecule.
        first: AtomPredicate,
        /// Site in the second molecule.
        second: AtomPredicate,
    },
}

impl Site {
    /// The keyword that introduces this kind of site in RDL source.
    pub fn keyword(&self) -> &'static str {
        match self {
            Site::Bond { .. } => "bond",
            Site::Atom(_) => "atom",
            Site::Pair { .. } => "pair",
        }
    }
}

/// Which molecules a rule scans.
#[derive(Debug, Clone, PartialEq)]
pub enum Scope {
    /// Every current species.
    Any,
    /// Only species descended from (or equal to) the named declarations.
    Named(Vec<String>),
}

/// `rule NAME { site …; action …; rate …; }`
#[derive(Debug, Clone, PartialEq)]
pub struct RuleDecl {
    /// Rule name.
    pub name: String,
    /// Molecule scope (first scope entry constrains the first molecule of a
    /// pair site, second entry the second).
    pub scope: Scope,
    /// Site selector.
    pub site: Site,
    /// Primitive action.
    pub action: Action,
    /// Name of the kinetic rate constant.
    pub rate: String,
}

/// Generation limits (`limit atoms 40;` etc.).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Limits {
    /// Maximum heavy atoms per molecule: larger products are forbidden
    /// forms, and a larger seed (or variant range) is an error.
    pub max_atoms: usize,
    /// Maximum number of distinct species, seeds included; exceeding this
    /// is an error.
    pub max_species: usize,
    /// Maximum closure iterations (generations of rule application).
    pub max_generations: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_atoms: 64,
            max_species: 2000,
            max_generations: 8,
        }
    }
}

/// A forbidden form: products matching are discarded.
#[derive(Debug, Clone, PartialEq)]
pub enum Forbid {
    /// Any same-element chain longer than `len` (e.g. sulfur chains).
    ChainLongerThan(Element, usize),
    /// Any molecule containing an atom matching the predicate.
    AtomMatching(AtomPredicate),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_limits_reasonable() {
        let l = Limits::default();
        assert!(l.max_atoms > 0 && l.max_species > 0 && l.max_generations > 0);
    }

    #[test]
    fn action_keywords_unique() {
        let all = [
            Action::Disconnect,
            Action::Connect(BondOrder::Single),
            Action::DecreaseBond,
            Action::IncreaseBond,
            Action::RemoveHydrogen,
            Action::AddHydrogen,
        ];
        let mut kws: Vec<&str> = all.iter().map(|a| a.keyword()).collect();
        kws.sort_unstable();
        kws.dedup();
        assert_eq!(kws.len(), all.len());
    }
}
