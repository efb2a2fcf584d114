//! # rms-rdl — the Chemical Compiler frontend
//!
//! First component of the paper's Reaction Modeling Suite (§2): accepts a
//! high-level reaction description language (syntax in the spirit of
//! Prickett's RDL), expands compact chain-length molecule variants, and
//! applies the six primitive reaction rules — disconnect, connect,
//! bond-order −/+, remove hydrogen, add hydrogen — with context-sensitive
//! site selection, generating the *reaction network* of all possible
//! reactions.
//!
//! ```
//! use rms_rdl::{parse_rdl, compile};
//!
//! let model = compile(&parse_rdl(r#"
//!     rate K_sc = 2;
//!     molecule DiS = "CSSC" init 1.0;
//!     rule scission {
//!         site bond S ~ S order single;
//!         action disconnect;
//!         rate K_sc;
//!     }
//! "#).unwrap()).unwrap();
//! assert_eq!(model.network.reaction_count(), 1);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod balance;
pub mod engine;
pub mod error;
pub mod expand;
pub mod network;
pub mod parser;

pub use ast::{Action, Forbid, Limits, MoleculeDecl, Program, RuleDecl, Scope, Site};
pub use balance::ElementRow;
pub use engine::{compile, compile_with_options, CompiledModel, EngineOptions, NetworkStats};
#[cfg(feature = "oracle")]
pub use engine::{compile_with_oracle, Oracle};
pub use error::{RdlError, Result};
pub use expand::{expand, expand_program, SeedVariant, Variant};
pub use network::{Reaction, ReactionNetwork, Species, SpeciesId};
pub use parser::parse_rdl;
