//! `rms-serve` — a fault-isolated, admission-controlled estimation
//! service over the compiled simulation pipeline.
//!
//! The paper's toolchain compiles a reaction model once and then spends
//! its life answering simulate/estimate queries; this crate turns that
//! pipeline into a long-running multi-tenant service with an explicit
//! failure model:
//!
//! * **Fault isolation** — every job runs under `catch_unwind` on a
//!   supervised worker; a panicking job becomes a structured
//!   [`JobError::Panicked`] event and never takes down the server or a
//!   co-tenant's job.
//! * **Deadlines** — each job may carry `deadline_ms`; its
//!   [`CancelToken`](rms_solver::CancelToken) carries the instant it
//!   expires, which the BDF solver reads at step boundaries, so
//!   cancellation is clean and prompt ([`JobError::Deadline`]) and no
//!   thread watches the clock. The deadline is the only bound on a
//!   stalled solve; it starts at the job's start but is not read during
//!   compilation, so a slow compile runs past it.
//! * **No retry** — a job solves once: a solve is a pure function of its
//!   inputs, so a failed one would fail again, and it is answered as a
//!   [`JobError::Solver`] event (an estimate job's files are penalized
//!   instead, see `rms_parallel::FailurePolicy`).
//! * **Admission control** — a bounded queue with per-tenant
//!   round-robin fairness; a full queue rejects immediately with
//!   [`JobError::Rejected`] instead of queueing without bound.
//! * **Shared artifact cache** — compiles go through the process-wide
//!   content-addressed cache in `rms-driver`: concurrent tenants
//!   submitting the same model at the same options compile exactly
//!   once, and an optional memory budget bounds the cache with LRU
//!   eviction.
//! * **Graceful drain** — EOF (or [`Server::drain`]) closes admission,
//!   lets every admitted job finish, and emits a final `drained`
//!   summary.
//!
//! The wire protocol is line-delimited JSON in both directions (see
//! [`protocol`]); no HTTP stack, no serde — [`json`] is a small strict
//! parser into `rms-driver`'s JSON value. Chaos testing hooks in via
//! [`ServerConfig::faults`]: a deterministic
//! [`FaultPlan`](rms_parallel::FaultPlan) keyed by admission sequence
//! number injects panics and stalls into chosen jobs.

pub mod json;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod transport;

pub use protocol::{JobError, JobKind, JobRequest};
pub use server::{Server, ServerConfig, ServerStats};
pub use transport::serve_lines;
