//! # rms-workload — benchmark workloads and data synthesis
//!
//! The paper evaluates on proprietary rubber-vulcanization kinetic models
//! (five test cases, 450–250 000 equations, 10 distinct kinetic
//! parameters) fit against 16 proprietary experimental data files. This
//! crate synthesizes structurally equivalent workloads (see DESIGN.md's
//! substitution table):
//!
//! * [`vulcanization`]: a benzothiazole-accelerated-vulcanization-shaped
//!   network generator with variant families, shared rate constants and
//!   the redundancy profile the optimizer exploits;
//! * [`testcases`]: the five paper test cases (and scaled variants),
//!   together with Tables 1 and 2 of the paper as reference data;
//! * [`simulate`]: the compiled-tape + BDF simulation backend measuring
//!   crosslink density;
//! * [`expdata`]: synthetic `<t, value>` experiment files from the
//!   ground-truth parameters plus noise.

#![warn(missing_docs)]

pub mod binding;
pub mod expdata;
pub mod frontier;
pub mod rdl_model;
pub mod simulate;
pub mod testcases;
pub mod vulcanization;

pub use binding::BoundKernel;
pub use expdata::{synthesize, ExpDataSpec};
pub use frontier::FrontierSpec;
pub use rdl_model::{vulcanization_source, VULCANIZATION_RDL};
pub use simulate::{FallbackStats, TapeSimulator};
pub use testcases::{
    decay_chain, paper_case, scaled_case, Table1Reference, Table2Reference, TABLE1, TABLE2,
};
pub use vulcanization::{
    generate_model, VulcanizationModel, VulcanizationSpec, RATE_NAMES, TRUE_RATES,
};
