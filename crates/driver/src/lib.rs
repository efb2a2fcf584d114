//! # rms-driver — the pass-managed compiler driver
//!
//! The paper's Figure 2 presents the Reaction Modeling Suite as a single
//! staged pipeline (chemical compiler → RCIP → equation generator →
//! algebraic optimizer → code generator). This crate is that pipeline as
//! one object: a [`CompilerSession`] that runs an explicit sequence of
//! [`Stage`]s, times each one into a [`PipelineReport`], renders
//! span-carrying [`Diagnostic`]s, and caches finished
//! [`CompiledArtifact`]s by content address — in memory per process and
//! optionally on disk (`.rms-cache/`) — so repeated compiles of the same
//! model (CLI invocations, parameter-estimation sweeps, benchmark
//! harnesses) pay for compilation once.
//!
//! ```
//! use rms_driver::{CompilerSession, OptLevel};
//!
//! let session = CompilerSession::new(OptLevel::Full);
//! let compiled = session.compile_source("doc.rdl", r#"
//!     rate K_sc = 2;
//!     molecule DiS = "CSSC" init 1.0;
//!     rule scission {
//!         site bond S ~ S order single;
//!         action disconnect;
//!         rate K_sc;
//!     }
//! "#).unwrap();
//! assert_eq!(compiled.artifact.system.len(), 2);
//! // A second compile of the same source is served from the cache.
//! let again = session.compile_source("doc.rdl", r#"
//!     rate K_sc = 2;
//!     molecule DiS = "CSSC" init 1.0;
//!     rule scission {
//!         site bond S ~ S order single;
//!         action disconnect;
//!         rate K_sc;
//!     }
//! "#).unwrap();
//! assert!(std::sync::Arc::ptr_eq(&compiled.artifact, &again.artifact));
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod codegen;
pub mod diag;
pub mod engine;
pub mod json;
pub mod report;
pub mod serial;
pub mod session;
pub mod stage;

pub use cache::{CacheMode, CacheStats, CacheStatus};
pub use diag::{Diagnostic, Diagnostics, Severity, Span};
pub use engine::{KernelChoice, Patterns};
pub use report::{PipelineReport, StageRecord};
pub use session::{Compiled, CompiledArtifact, CompilerSession, SessionOptions};
pub use stage::Stage;

pub use codegen::{build_kernel, kernel_path, CodegenOutcome};

// Re-exported for callers configuring a session.
pub use rms_core::native::{KernelMeta, NativeError, NativeKernel};
pub use rms_core::{CseOptions, OptLevel, Passes};
