//! # rms-odegen — the Equation Generator
//!
//! Third component of the paper's Reaction Modeling Suite (§2): takes the
//! reaction network created by the chemical compiler and generates the
//! ODEs describing each species' concentration, via an *equation table*
//! holding sum-of-products right-hand sides. §3.1's equation
//! simplification (merging terms differing only in constants) runs on the
//! fly during insertion.
//!
//! The output [`OdeSystem`] is the input to the algebraic optimizer in
//! `rms-core`.

#![warn(missing_docs)]

pub mod equation;
pub mod generate;
pub mod system;
pub mod term;

pub use equation::{EquationTable, OdeEquation};
pub use generate::{generate, GenerateOptions, OdegenError};
pub use system::{OdeSystem, OpCounts};
pub use term::ProductTerm;
