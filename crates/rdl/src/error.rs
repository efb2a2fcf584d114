//! RDL frontend errors.

use std::fmt;

use rms_molecule::MoleculeError;
use rms_rcip::RcipError;

/// Errors from parsing RDL source or generating the reaction network.
#[derive(Debug, Clone, PartialEq)]
pub enum RdlError {
    /// Lexical/syntactic error with position.
    Syntax {
        /// 1-based line.
        line: usize,
        /// 1-based column.
        column: usize,
        /// What was expected or found.
        message: String,
    },
    /// A SMILES template failed to parse after expansion.
    BadSmiles {
        /// The declared molecule.
        molecule: String,
        /// The expanded SMILES text.
        smiles: String,
        /// Underlying parse error.
        cause: MoleculeError,
    },
    /// Molecule name declared twice.
    DuplicateMolecule(String),
    /// Rule name declared twice.
    DuplicateRule(String),
    /// A rule references an undeclared molecule name.
    UnknownMolecule {
        /// Offending rule.
        rule: String,
        /// The unknown molecule name.
        molecule: String,
    },
    /// A rule references a rate constant with no definition.
    UnknownRate {
        /// Offending rule.
        rule: String,
        /// The undefined constant.
        rate: String,
    },
    /// A rule's site/action combination is invalid (e.g. bond site with a
    /// hydrogen action).
    InvalidRule {
        /// Offending rule.
        rule: String,
        /// Why it is invalid.
        message: String,
    },
    /// Variant range is empty or inverted.
    BadVariantRange {
        /// The declared molecule.
        molecule: String,
        /// Range start.
        lo: u32,
        /// Range end.
        hi: u32,
    },
    /// A seed molecule the program's own `limit atoms` or `limit species`
    /// rules out: a variant range reaching past either, or a seed with
    /// more atoms than the limit.
    SeedLimit {
        /// The declared molecule (or variant).
        molecule: String,
        /// Which limit, and by how much.
        message: String,
    },
    /// Rate-constant sub-language error.
    Rcip(RcipError),
    /// Network generation hit the species limit.
    SpeciesLimitExceeded(usize),
    /// An action failed chemically during generation (reported with rule
    /// and molecule context; usually indicates an over-broad site pattern).
    ActionFailed {
        /// Offending rule.
        rule: String,
        /// The species it was applied to.
        molecule: String,
        /// Underlying chemistry error.
        cause: MoleculeError,
    },
}

impl fmt::Display for RdlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RdlError::Syntax {
                line,
                column,
                message,
            } => write!(f, "syntax error at {line}:{column}: {message}"),
            RdlError::BadSmiles {
                molecule,
                smiles,
                cause,
            } => write!(f, "molecule '{molecule}': bad SMILES '{smiles}': {cause}"),
            RdlError::DuplicateMolecule(name) => write!(f, "molecule '{name}' declared twice"),
            RdlError::DuplicateRule(name) => write!(f, "rule '{name}' declared twice"),
            RdlError::UnknownMolecule { rule, molecule } => {
                write!(f, "rule '{rule}' references unknown molecule '{molecule}'")
            }
            RdlError::UnknownRate { rule, rate } => {
                write!(
                    f,
                    "rule '{rule}' references undefined rate constant '{rate}'"
                )
            }
            RdlError::InvalidRule { rule, message } => write!(f, "rule '{rule}': {message}"),
            RdlError::BadVariantRange { molecule, lo, hi } => {
                write!(f, "molecule '{molecule}': bad variant range {lo}..{hi}")
            }
            RdlError::SeedLimit { molecule, message } => {
                write!(f, "molecule '{molecule}': {message}")
            }
            RdlError::Rcip(e) => write!(f, "rate constants: {e}"),
            RdlError::SpeciesLimitExceeded(n) => {
                write!(f, "species limit ({n}) exceeded during network generation")
            }
            RdlError::ActionFailed {
                rule,
                molecule,
                cause,
            } => write!(f, "rule '{rule}' failed on '{molecule}': {cause}"),
        }
    }
}

impl std::error::Error for RdlError {}

impl From<RcipError> for RdlError {
    fn from(e: RcipError) -> Self {
        RdlError::Rcip(e)
    }
}

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, RdlError>;
