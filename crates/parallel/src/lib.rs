//! # rms-parallel — the parallel runtime
//!
//! Replaces the paper's MPI layer (§4.4) with a thread-backed SPMD
//! cluster:
//!
//! * [`comm`]: one thread per simulated node and the one collective
//!   Fig. 9 calls, `all_reduce_sum`;
//! * [`loadbalance`]: the dynamic load-balancing algorithm — per-file
//!   solve times into a non-increasing priority queue, largest remaining
//!   file onto the least-loaded processor (LPT), plus the block baseline;
//! * [`datafile`]: the `<t, value>` experimental record files, replicated
//!   across ranks;
//! * [`estimator`]: the Parallel Parameter Estimator — the Fig. 9
//!   objective function and its sensitivity-based residual Jacobian as
//!   one sweep, and the Fig. 8 bounded least-squares driver, with penalty
//!   degradation and per-call health reports;
//! * [`fault`]: deterministic fault injection (scripted simulator errors,
//!   rank panics, slowdowns) for the fault-tolerance test suite;
//! * [`pool`]: a fork/join index-ordered `scoped_map` used by the
//!   rule-closure frontend for deterministic parallel rule application.
//!
//! The runtime is panic-safe: the all-reduce returns
//! `Result<_, CommError>`, and a panicking rank poisons the rendezvous so
//! its peers fail fast instead of deadlocking. A simulation is a pure
//! function of its inputs, so a failed one is not retried; it meets the
//! estimator's [`FailurePolicy`] (see DESIGN.md §7).

#![warn(missing_docs)]

pub mod comm;
pub mod datafile;
pub mod estimator;
pub mod fault;
pub mod loadbalance;
pub mod pool;

pub use comm::{run_cluster, CommError, Communicator, RankPanic};
pub use datafile::{BadRecord, DataFileError, ExperimentFile};
pub use estimator::{
    EstimatorConfig, EstimatorError, FailurePolicy, FileFailure, HealthReport, ObjectiveOutput,
    ParallelEstimator, Simulator,
};
pub use fault::{FaultPlan, FaultySimulator};
pub use loadbalance::{
    block_schedule, lpt_schedule, makespan, makespan_lower_bound, ScheduleError,
};
pub use pool::{available_threads, scoped_map};
