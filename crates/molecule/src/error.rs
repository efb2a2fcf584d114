//! Error types for the molecule substrate.

use std::fmt;

/// Errors raised by molecular-graph edits and SMILES I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MoleculeError {
    /// An atom index was out of range.
    InvalidAtom(usize),
    /// A bond between the named endpoints does not exist.
    NoSuchBond(usize, usize),
    /// A bond between the named endpoints already exists.
    BondExists(usize, usize),
    /// A self-bond was requested.
    SelfBond(usize),
    /// A valence constraint was violated by an edit.
    ValenceViolation {
        /// Offending atom index.
        atom: usize,
        /// Human-readable explanation.
        detail: String,
    },
    /// The atom has no (implicit) hydrogen to remove.
    NoHydrogen(usize),
    /// The bond order could not be stepped in the requested direction.
    BondOrderLimit(usize, usize),
    /// SMILES syntax error at a byte offset.
    SmilesSyntax {
        /// Byte offset into the input string.
        offset: usize,
        /// What was expected or found.
        message: String,
    },
    /// SMILES references a ring-closure digit that never closes.
    UnclosedRing(u32),
    /// Two ring-closure bonds disagree about the bond order.
    RingBondMismatch(u32),
}

impl fmt::Display for MoleculeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MoleculeError::InvalidAtom(i) => write!(f, "atom index {i} out of range"),
            MoleculeError::NoSuchBond(a, b) => write!(f, "no bond between atoms {a} and {b}"),
            MoleculeError::BondExists(a, b) => {
                write!(f, "bond between atoms {a} and {b} already exists")
            }
            MoleculeError::SelfBond(a) => write!(f, "cannot bond atom {a} to itself"),
            MoleculeError::ValenceViolation { atom, detail } => {
                write!(f, "valence violation at atom {atom}: {detail}")
            }
            MoleculeError::NoHydrogen(a) => write!(f, "atom {a} has no hydrogen to remove"),
            MoleculeError::BondOrderLimit(a, b) => {
                write!(
                    f,
                    "bond order between atoms {a} and {b} cannot change further"
                )
            }
            MoleculeError::SmilesSyntax { offset, message } => {
                write!(f, "SMILES syntax error at offset {offset}: {message}")
            }
            MoleculeError::UnclosedRing(d) => write!(f, "ring closure {d} never closed"),
            MoleculeError::RingBondMismatch(d) => {
                write!(f, "ring closure {d} has conflicting bond orders")
            }
        }
    }
}

impl std::error::Error for MoleculeError {}

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, MoleculeError>;
