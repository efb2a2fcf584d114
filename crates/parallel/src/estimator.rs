//! The Parallel Parameter Estimator (paper §4, Fig. 8 & 9), hardened.
//!
//! The objective function distributes the experimental data files over
//! the ranks (block distribution, or the previous call's LPT schedule
//! when dynamic load balancing is on), solves the ODE system for each
//! assigned file's time grid, writes its `simulated − experimental`
//! differences into that file's slot of a local vector, and
//! `MPI_Allreduce`-sums the local vectors; every rank then adds the file
//! slots up, in file order, into the global error vector. A slot is
//! written by one rank only, so the reduction adds exact zeros to it and
//! the result is the same to the bit under any schedule and any rank
//! count. The per-file solve times are reduced the same way and feed the
//! next call's schedule.
//!
//! The residual Jacobian is the same sweep over sensitivity-augmented
//! solves: [`objective`](ParallelEstimator::objective) and
//! [`objective_jacobian`](ParallelEstimator::objective_jacobian) share one
//! schedule → solve each file once into its slot → one all-reduce →
//! merge path.
//!
//! On top of the paper's design this estimator adds **graceful
//! degradation**: generated ODE systems routinely hit stiffness
//! pathologies at the extreme parameter values an optimizer probes, and a
//! multi-hour estimation should not abort because one file's solve
//! diverged. A solve is a pure function of its inputs, so a failed one is
//! not retried: the file either aborts the objective
//! ([`FailurePolicy::Abort`], the classic behavior) or contributes a
//! bounded penalty residual and the run continues
//! ([`FailurePolicy::Penalize`]). Every objective call attaches a
//! [`HealthReport`] (per-file failures, per-rank timings,
//! poisoned-collective events) to its [`ObjectiveOutput`], and the
//! estimator accumulates a cumulative report across the whole fit.
//!
//! When no failures occur, the fault handling is pure overhead-free
//! control flow: nothing on the success path knows it is there.

use std::sync::Mutex;
use std::time::Instant;

use rms_nlopt::{fd_residual_jacobian, optimize, LmOptions, LmResult, NloptError, Residual};

use crate::comm::{run_cluster, CommError, RankPanic};
use crate::datafile::ExperimentFile;
use crate::loadbalance::{block_schedule, lpt_schedule};

/// A simulation backend: given kinetic rate constants, produce the
/// predicted property value at each requested time. This is where the
/// compiled ODE tape and the stiff solver plug in.
pub trait Simulator: Sync {
    /// Simulate the property time series for experiment `file_index` at
    /// the given sample times. The index lets the backend select that
    /// experiment's formulation (initial concentrations).
    fn simulate(
        &self,
        rate_constants: &[f64],
        file_index: usize,
        times: &[f64],
    ) -> Result<Vec<f64>, String>;

    /// Number of parameters for which the backend can produce analytic
    /// sensitivities (0 = none, the default). The estimator only routes
    /// Jacobian requests through
    /// [`simulate_with_sensitivities`](Simulator::simulate_with_sensitivities)
    /// when this matches the fit's parameter count; otherwise it falls
    /// back to bound-aware finite differences.
    fn sensitivity_params(&self) -> usize {
        0
    }

    /// Simulate the property time series *and* its parameter
    /// sensitivities: returns `(values, sens)` where `sens[r][k]` is
    /// `∂values[r]/∂p_k`, obtained from one forward-sensitivity-augmented
    /// ODE solve rather than `n_params` re-solves. The default errors;
    /// backends with compiled sensitivity tapes override it.
    fn simulate_with_sensitivities(
        &self,
        rate_constants: &[f64],
        file_index: usize,
        times: &[f64],
    ) -> Result<(Vec<f64>, Vec<Vec<f64>>), String> {
        let _ = (rate_constants, file_index, times);
        Err("simulator provides no analytic parameter sensitivities".to_string())
    }
}

impl<F> Simulator for F
where
    F: Fn(&[f64], usize, &[f64]) -> Result<Vec<f64>, String> + Sync,
{
    fn simulate(
        &self,
        rate_constants: &[f64],
        file_index: usize,
        times: &[f64],
    ) -> Result<Vec<f64>, String> {
        self(rate_constants, file_index, times)
    }
}

/// What [`objective`](ParallelEstimator::objective) does with a file
/// whose simulation failed. A residual Jacobian sweep always fails with
/// such a file, whatever the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Abort the objective call with an error (the classic behavior).
    #[default]
    Abort,
    /// Keep going: the failed file contributes a bounded penalty
    /// residual, and the failure is recorded in the [`HealthReport`].
    Penalize,
}

impl std::str::FromStr for FailurePolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<FailurePolicy, String> {
        match s {
            "abort" => Ok(FailurePolicy::Abort),
            "penalize" => Ok(FailurePolicy::Penalize),
            other => Err(format!(
                "unknown failure policy '{other}' (expected 'penalize' or 'abort')"
            )),
        }
    }
}

/// Fault-tolerance configuration for the estimator.
#[derive(Debug, Clone, Copy)]
pub struct EstimatorConfig {
    /// Recompute the schedule from recorded times (LPT) after each call.
    pub dynamic_lb: bool,
    /// Abort or penalize files whose simulation failed.
    pub on_failure: FailurePolicy,
    /// Magnitude of the surrogate residual a penalized file contributes
    /// at each of its record indices. Bounded and finite by construction,
    /// so one sick file cannot poison the optimizer with NaNs.
    pub penalty: f64,
}

impl Default for EstimatorConfig {
    fn default() -> EstimatorConfig {
        EstimatorConfig {
            dynamic_lb: false,
            on_failure: FailurePolicy::default(),
            penalty: 1e3,
        }
    }
}

/// One file whose simulation failed.
#[derive(Debug, Clone, PartialEq)]
pub struct FileFailure {
    /// Index of the experiment file.
    pub file: usize,
    /// Its label.
    pub label: String,
    /// The simulator error.
    pub error: String,
    /// Whether a penalty residual was substituted (vs aborting).
    pub penalized: bool,
}

impl std::fmt::Display for FileFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "file '{}' failed: {}", self.label, self.error)
    }
}

/// Health telemetry for one objective call (or, via [`HealthReport::merge`],
/// a whole estimation run).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthReport {
    /// Objective evaluations folded into this report.
    pub objective_calls: usize,
    /// Files whose simulation failed, in the objective or in a residual
    /// Jacobian sweep.
    pub file_failures: Vec<FileFailure>,
    /// Always 0: a failed solve is not retried. Kept for readers that
    /// still report it.
    pub retries: usize,
    /// Per-rank wall-clock (seconds) of the latest sweep's parallel region.
    pub per_rank_wall: Vec<f64>,
    /// Poisoned/failed collective events (`rank: error` strings).
    pub comm_errors: Vec<String>,
    /// Rank panics caught by the runtime.
    pub rank_panics: Vec<String>,
}

impl HealthReport {
    /// True when nothing failed and no collective was poisoned.
    pub fn is_healthy(&self) -> bool {
        self.file_failures.is_empty() && self.comm_errors.is_empty() && self.rank_panics.is_empty()
    }

    /// Fold another report into this one (per-rank timings keep the most
    /// recent call's values).
    pub fn merge(&mut self, other: &HealthReport) {
        self.objective_calls += other.objective_calls;
        self.file_failures
            .extend(other.file_failures.iter().cloned());
        if !other.per_rank_wall.is_empty() {
            self.per_rank_wall = other.per_rank_wall.clone();
        }
        self.comm_errors.extend(other.comm_errors.iter().cloned());
        self.rank_panics.extend(other.rank_panics.iter().cloned());
    }

    /// Human-readable multi-line summary.
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "health: {} objective call(s), {} file failure(s)",
            self.objective_calls,
            self.file_failures.len()
        );
        for failure in &self.file_failures {
            let _ = writeln!(
                out,
                "  {failure}{}",
                if failure.penalized {
                    " [penalized]"
                } else {
                    ""
                }
            );
        }
        for e in &self.comm_errors {
            let _ = writeln!(out, "  collective: {e}");
        }
        for p in &self.rank_panics {
            let _ = writeln!(out, "  panic: {p}");
        }
        if !self.per_rank_wall.is_empty() {
            let _ = write!(out, "  last-call rank seconds:");
            for w in &self.per_rank_wall {
                let _ = write!(out, " {w:.3}");
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// Why an objective evaluation failed as a whole.
#[derive(Debug, Clone, PartialEq)]
pub enum EstimatorError {
    /// One or more files failed under [`FailurePolicy::Abort`], or in a
    /// residual Jacobian sweep.
    Simulation {
        /// The files whose simulation failed.
        failures: Vec<FileFailure>,
    },
    /// A collective failed (peer panic, length mismatch).
    Comm(CommError),
    /// A rank's objective body panicked; caught by the runtime.
    RankPanic(RankPanic),
}

impl std::fmt::Display for EstimatorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EstimatorError::Simulation { failures } => {
                let first = failures.first().expect("at least one failure");
                if failures.len() == 1 {
                    write!(f, "{first}")
                } else {
                    write!(f, "{first} (+{} more failures)", failures.len() - 1)
                }
            }
            EstimatorError::Comm(e) => write!(f, "collective failed: {e}"),
            EstimatorError::RankPanic(p) => write!(f, "{p}"),
        }
    }
}

impl std::error::Error for EstimatorError {}

impl From<CommError> for EstimatorError {
    fn from(e: CommError) -> EstimatorError {
        EstimatorError::Comm(e)
    }
}

/// Add up consecutive `len`-long per-file slots, in file order.
fn sum_slots(slots: &[f64], len: usize) -> Vec<f64> {
    let mut total = vec![0.0; len];
    for slot in slots.chunks(len.max(1)) {
        for (t, v) in total.iter_mut().zip(slot) {
            *t += v;
        }
    }
    total
}

/// One objective-function evaluation's outputs.
#[derive(Debug, Clone)]
pub struct ObjectiveOutput {
    /// Global error vector: `Σ_files (simulated − experimental)` per
    /// record index (shorter files contribute zeros at the tail).
    pub error_vector: Vec<f64>,
    /// Per-file solve times (seconds) recorded this call.
    pub file_times: Vec<f64>,
    /// Wall-clock of the whole parallel region (seconds).
    pub wall_time: f64,
    /// Failure/degradation telemetry for this call.
    pub health: HealthReport,
}

/// What a sweep over the files solves for each one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sweep {
    /// `simulate`: the file's `simulated − experimental` differences, one
    /// per record. Failures follow [`EstimatorConfig::on_failure`].
    Residual,
    /// `simulate_with_sensitivities`: `∂(simulated − experimental)_r/∂p_k`,
    /// row-major `records × n_params`. Any failure fails the sweep.
    Jacobian { n_params: usize },
}

/// What one rank hands back from a sweep.
struct RankOutput {
    /// The file slots, all-reduced and summed in file order.
    total: Vec<f64>,
    /// The all-reduced per-file solve times.
    file_times: Vec<f64>,
    failures: Vec<FileFailure>,
    wall: f64,
}

/// The parallel parameter estimator.
pub struct ParallelEstimator<'a, S: Simulator> {
    simulator: &'a S,
    files: Vec<ExperimentFile>,
    n_ranks: usize,
    config: EstimatorConfig,
    /// Per-file solve times recorded by the previous objective call.
    timings: Mutex<Option<Vec<f64>>>,
    /// Health accumulated over every sweep.
    cumulative: Mutex<HealthReport>,
    /// Length of the global error vector (max record count).
    max_records: usize,
}

impl<'a, S: Simulator> ParallelEstimator<'a, S> {
    /// Create an estimator over replicated data files with default fault
    /// handling (abort on a failed file — the classic semantics).
    pub fn new(
        simulator: &'a S,
        files: Vec<ExperimentFile>,
        n_ranks: usize,
        dynamic_lb: bool,
    ) -> ParallelEstimator<'a, S> {
        Self::with_config(
            simulator,
            files,
            n_ranks,
            EstimatorConfig {
                dynamic_lb,
                ..EstimatorConfig::default()
            },
        )
    }

    /// Create an estimator with explicit fault-tolerance configuration.
    ///
    /// `n_ranks` is clamped to `1..=files.len()`: a rank beyond the file
    /// count gets an empty schedule and the result does not depend on the
    /// rank count, but every rank is an OS thread, and the count is
    /// outside input (`rmsc estimate --workers`, a served job's
    /// `"workers"`).
    pub fn with_config(
        simulator: &'a S,
        files: Vec<ExperimentFile>,
        n_ranks: usize,
        config: EstimatorConfig,
    ) -> ParallelEstimator<'a, S> {
        assert!(!files.is_empty(), "need at least one data file");
        let n_ranks = n_ranks.clamp(1, files.len());
        let max_records = files.iter().map(ExperimentFile::len).max().unwrap_or(0);
        ParallelEstimator {
            simulator,
            files,
            n_ranks,
            config,
            timings: Mutex::new(None),
            cumulative: Mutex::new(HealthReport::default()),
            max_records,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &EstimatorConfig {
        &self.config
    }

    /// The schedule the next objective call will use.
    pub fn current_schedule(&self) -> Vec<Vec<usize>> {
        let timings = self.timings.lock().unwrap_or_else(|e| e.into_inner());
        match (&*timings, self.config.dynamic_lb) {
            (Some(times), true) => lpt_schedule(times, self.n_ranks),
            _ => block_schedule(self.files.len(), self.n_ranks),
        }
        .expect("n_ranks >= 1 after the clamp at construction")
    }

    /// Per-file solve times recorded by the most recent objective call.
    pub fn recorded_times(&self) -> Option<Vec<f64>> {
        self.timings
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Health accumulated across every objective and Jacobian sweep so far.
    pub fn cumulative_health(&self) -> HealthReport {
        self.cumulative
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Solve one file into its slot.
    fn solve(
        &self,
        sweep: Sweep,
        rate_constants: &[f64],
        file_idx: usize,
        slot: &mut [f64],
    ) -> Result<(), String> {
        let file = &self.files[file_idx];
        match sweep {
            Sweep::Residual => {
                let simulated = self
                    .simulator
                    .simulate(rate_constants, file_idx, &file.times)?;
                for (j, (sim, exp)) in simulated.iter().zip(&file.values).enumerate() {
                    slot[j] += sim - exp;
                }
            }
            Sweep::Jacobian { n_params } => {
                let (_values, sens) = self.simulator.simulate_with_sensitivities(
                    rate_constants,
                    file_idx,
                    &file.times,
                )?;
                for (r, row) in sens.iter().take(file.len()).enumerate() {
                    for (k, dv) in row.iter().take(n_params).enumerate() {
                        slot[r * n_params + k] += dv;
                    }
                }
            }
        }
        Ok(())
    }

    /// The one SPMD sweep (Fig. 9) behind both public evaluations: each
    /// rank solves its scheduled files once, each into that file's own
    /// slot; one all-reduce sums the slots and the per-file times; the
    /// rank outcomes merge into a [`HealthReport`] that joins the
    /// cumulative one. A rank panic is reported first, then a poisoned
    /// collective, then the failed files (unless penalized). A Jacobian
    /// sweep's `error_vector` is the Jacobian.
    fn sweep(
        &self,
        sweep: Sweep,
        rate_constants: &[f64],
    ) -> Result<ObjectiveOutput, EstimatorError> {
        let (slot_len, on_failure) = match sweep {
            Sweep::Residual => (self.max_records, self.config.on_failure),
            Sweep::Jacobian { n_params } => (self.max_records * n_params, FailurePolicy::Abort),
        };
        let schedule = self.current_schedule();
        let n_files = self.files.len();
        let started = Instant::now();
        let per_rank = run_cluster(self.n_ranks, |comm| {
            let rank_started = Instant::now();
            // One slot per file, written by the one rank the file is
            // scheduled on, then one time per file: the reduction adds
            // exact zeros to a slot, and the slots are summed in file
            // order afterwards, so no bit of the result depends on the
            // schedule or the rank count.
            let mut local = vec![0.0; n_files * slot_len + n_files];
            let (slots, times) = local.split_at_mut(n_files * slot_len);
            let mut failures: Vec<FileFailure> = Vec::new();
            for &file_idx in &schedule[comm.rank()] {
                let file = &self.files[file_idx];
                let slot = &mut slots[file_idx * slot_len..][..slot_len];
                let t0 = Instant::now();
                if let Err(error) = self.solve(sweep, rate_constants, file_idx, slot) {
                    let penalized = on_failure == FailurePolicy::Penalize;
                    if penalized {
                        // Bounded surrogate residual at every record the
                        // file would have covered: finite, large enough to
                        // push the optimizer away, and it keeps the fit
                        // running.
                        for value in slot.iter_mut().take(file.len()) {
                            *value += self.config.penalty;
                        }
                    }
                    failures.push(FileFailure {
                        file: file_idx,
                        label: file.label.clone(),
                        error,
                        penalized,
                    });
                }
                times[file_idx] = t0.elapsed().as_secs_f64();
            }
            // Every rank joins the reduction even after a failure, so the
            // collective stays synchronized; a panicked peer poisons it
            // instead of deadlocking us.
            let global = comm.all_reduce_sum(&local)?;
            let (slots, file_times) = global.split_at(n_files * slot_len);
            Ok::<RankOutput, CommError>(RankOutput {
                total: sum_slots(slots, slot_len),
                file_times: file_times.to_vec(),
                failures,
                wall: rank_started.elapsed().as_secs_f64(),
            })
        });
        let wall_time = started.elapsed().as_secs_f64();

        let mut health = HealthReport {
            objective_calls: usize::from(sweep == Sweep::Residual),
            per_rank_wall: vec![0.0; self.n_ranks],
            ..HealthReport::default()
        };
        let mut global: Option<(Vec<f64>, Vec<f64>)> = None;
        let mut first_comm_error: Option<CommError> = None;
        let mut first_panic: Option<RankPanic> = None;
        for (rank, outcome) in per_rank.into_iter().enumerate() {
            match outcome {
                Err(panic) => {
                    health.rank_panics.push(panic.to_string());
                    first_panic.get_or_insert(panic);
                }
                Ok(Err(comm_error)) => {
                    health
                        .comm_errors
                        .push(format!("rank {rank}: {comm_error}"));
                    first_comm_error.get_or_insert(comm_error);
                }
                Ok(Ok(output)) => {
                    health.per_rank_wall[rank] = output.wall;
                    health.file_failures.extend(output.failures);
                    global.get_or_insert((output.total, output.file_times));
                }
            }
        }
        health.file_failures.sort_by_key(|f| f.file);
        self.cumulative
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .merge(&health);

        if let Some(panic) = first_panic {
            return Err(EstimatorError::RankPanic(panic));
        }
        if let Some(comm_error) = first_comm_error {
            return Err(EstimatorError::Comm(comm_error));
        }
        if on_failure == FailurePolicy::Abort && !health.file_failures.is_empty() {
            return Err(EstimatorError::Simulation {
                failures: health.file_failures,
            });
        }
        let (error_vector, file_times) = global.expect("some rank succeeded");
        Ok(ObjectiveOutput {
            error_vector,
            file_times,
            wall_time,
            health,
        })
    }

    /// The Fig. 9 objective function.
    pub fn objective(&self, rate_constants: &[f64]) -> Result<ObjectiveOutput, EstimatorError> {
        let out = self.sweep(Sweep::Residual, rate_constants)?;
        // Feed the dynamic load balancer for the next call.
        *self.timings.lock().unwrap_or_else(|e| e.into_inner()) = Some(out.file_times.clone());
        Ok(out)
    }

    /// The analytic counterpart of
    /// [`objective`](ParallelEstimator::objective): build the residual
    /// Jacobian `∂(error_vector)/∂p` from each file's forward
    /// sensitivities. Each rank runs one sensitivity-augmented solve per
    /// assigned file and writes `∂(simulated − experimental)_r/∂p_k` into
    /// that file's row-major `max_records × n_params` slot; the slots are
    /// `MPI_Allreduce`-summed and then added up in file order, exactly
    /// like the error vectors. A file whose augmented solve fails fails
    /// the call under either [`FailurePolicy`]: a Jacobian with a zero
    /// block where that file's rows belong would be wrong even where its
    /// plain solve (and so its residual) succeeds, so the caller falls
    /// back to finite differences instead.
    pub fn objective_jacobian(&self, rate_constants: &[f64]) -> Result<Vec<f64>, EstimatorError> {
        let n_params = rate_constants.len();
        let out = self.sweep(Sweep::Jacobian { n_params }, rate_constants)?;
        Ok(out.error_vector)
    }

    /// Run the full bounded least-squares estimation (Fig. 8): optimize
    /// the rate constants within the chemist's bounds so the simulation
    /// best matches the experimental files. The residual Jacobian comes
    /// from forward sensitivities when the simulator has them for every
    /// parameter, and from bound-aware finite differences otherwise.
    pub fn estimate(
        &self,
        initial: &[f64],
        lo: &[f64],
        hi: &[f64],
        options: LmOptions,
    ) -> Result<LmResult, NloptError> {
        let wrapper = ObjectiveResidual {
            estimator: self,
            n_params: initial.len(),
        };
        optimize(&wrapper, initial, lo, hi, options)
    }
}

struct ObjectiveResidual<'a, 'b, S: Simulator> {
    estimator: &'a ParallelEstimator<'b, S>,
    n_params: usize,
}

impl<S: Simulator> Residual for ObjectiveResidual<'_, '_, S> {
    fn n_params(&self) -> usize {
        self.n_params
    }

    fn n_residuals(&self) -> usize {
        self.estimator.max_records
    }

    fn eval(&self, params: &[f64], out: &mut [f64]) -> Result<(), String> {
        let result = self
            .estimator
            .objective(params)
            .map_err(|e| e.to_string())?;
        out.copy_from_slice(&result.error_vector);
        Ok(())
    }

    /// One sensitivity-augmented sweep over the files (reported as 1
    /// residual-evaluation-equivalent) instead of `n_params` full
    /// objective evaluations; the bound-aware finite-difference sweep
    /// when the simulator has no sensitivities for this parameter count
    /// or the augmented sweep fails at this point.
    fn jacobian(
        &self,
        params: &[f64],
        base: &[f64],
        lo: &[f64],
        hi: &[f64],
        fd_step: f64,
        jac: &mut [f64],
    ) -> Result<usize, String> {
        if self.estimator.simulator.sensitivity_params() == self.n_params {
            if let Ok(values) = self.estimator.objective_jacobian(params) {
                jac.copy_from_slice(&values);
                return Ok(1);
            }
        }
        fd_residual_jacobian(self, params, base, lo, hi, fd_step, jac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic "property": decaying exponential with rate p[0], offset
    /// p[1].
    fn model(p: &[f64], _file: usize, times: &[f64]) -> Result<Vec<f64>, String> {
        if p[0] < 0.0 {
            return Err("negative rate".to_string());
        }
        Ok(times.iter().map(|t| (-p[0] * t).exp() + p[1]).collect())
    }

    fn make_files(n: usize, records: usize, truth: &[f64]) -> Vec<ExperimentFile> {
        (0..n)
            .map(|i| {
                let times: Vec<f64> = (1..=records).map(|j| j as f64 * 0.05).collect();
                let values = model(truth, 0, &times).unwrap();
                ExperimentFile {
                    label: format!("exp{i:02}"),
                    times,
                    values,
                }
            })
            .collect()
    }

    #[test]
    fn objective_zero_at_truth() {
        let truth = [1.5, 0.2];
        let files = make_files(4, 50, &truth);
        let est = ParallelEstimator::new(&model, files, 2, false);
        let out = est.objective(&truth).unwrap();
        assert!(out.error_vector.iter().all(|v| v.abs() < 1e-12));
        assert_eq!(out.file_times.len(), 4);
        assert!(out.health.is_healthy(), "{}", out.health.summary());
    }

    #[test]
    fn objective_sums_across_files() {
        let truth = [1.0, 0.0];
        let files = make_files(3, 10, &truth);
        let est = ParallelEstimator::new(&model, files, 2, false);
        // Evaluate at an offset point: each file contributes the same
        // difference, so the global error is 3x one file's.
        let out = est.objective(&[1.0, 0.1]).unwrap();
        for v in &out.error_vector {
            assert!((v - 0.3).abs() < 1e-9, "{v}");
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let truth = [0.8, 0.1];
        let files = make_files(7, 20, &truth);
        let serial = ParallelEstimator::new(&model, files.clone(), 1, false)
            .objective(&[1.2, 0.0])
            .unwrap();
        for ranks in [2, 3, 5] {
            for lb in [false, true] {
                let par = ParallelEstimator::new(&model, files.clone(), ranks, lb)
                    .objective(&[1.2, 0.0])
                    .unwrap();
                for (a, b) in serial.error_vector.iter().zip(&par.error_vector) {
                    assert!((a - b).abs() < 1e-12, "ranks={ranks} lb={lb}");
                }
            }
        }
    }

    #[test]
    fn dynamic_lb_uses_recorded_times() {
        let truth = [1.0, 0.0];
        let files = make_files(6, 10, &truth);
        let est = ParallelEstimator::new(&model, files, 2, true);
        // Before any call: block schedule.
        assert_eq!(est.current_schedule(), vec![vec![0, 1, 2], vec![3, 4, 5]]);
        est.objective(&truth).unwrap();
        // After a call: timings recorded, schedule becomes LPT.
        assert!(est.recorded_times().is_some());
        let schedule = est.current_schedule();
        let total: usize = schedule.iter().map(Vec::len).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn estimate_recovers_parameters() {
        let truth = [1.3, 0.25];
        let files = make_files(4, 40, &truth);
        let est = ParallelEstimator::new(&model, files, 2, true);
        let result = est
            .estimate(&[0.5, 0.0], &[0.0, 0.0], &[5.0, 1.0], LmOptions::default())
            .unwrap();
        assert!(
            (result.params[0] - truth[0]).abs() < 1e-5,
            "{:?}",
            result.params
        );
        assert!((result.params[1] - truth[1]).abs() < 1e-5);
    }

    #[test]
    fn simulation_failure_propagates() {
        let truth = [1.0, 0.0];
        let files = make_files(2, 5, &truth);
        let est = ParallelEstimator::new(&model, files, 2, false);
        let err = est.objective(&[-1.0, 0.0]).unwrap_err();
        assert!(
            matches!(&err, EstimatorError::Simulation { failures } if !failures.is_empty()),
            "{err:?}"
        );
        assert!(err.to_string().contains("negative rate"), "{err}");
    }

    #[test]
    fn penalize_policy_survives_deterministic_failure() {
        let truth = [1.0, 0.0];
        let files = make_files(3, 5, &truth);
        let est = ParallelEstimator::with_config(
            &model,
            files,
            2,
            EstimatorConfig {
                on_failure: FailurePolicy::Penalize,
                penalty: 100.0,
                ..EstimatorConfig::default()
            },
        );
        // Every file fails (negative rate): the objective still returns,
        // each record carrying 3 files × the penalty.
        let out = est.objective(&[-1.0, 0.0]).unwrap();
        for v in &out.error_vector {
            assert!((v - 300.0).abs() < 1e-12, "{v}");
        }
        assert_eq!(out.health.file_failures.len(), 3);
        assert!(out.health.file_failures.iter().all(|f| f.penalized));
        // Cumulative report tracks it too.
        assert_eq!(est.cumulative_health().file_failures.len(), 3);
    }

    /// The synthetic `model` with hand-derived parameter sensitivities:
    /// `v(t) = e^{−p₀t} + p₁`, `∂v/∂p₀ = −t·e^{−p₀t}`, `∂v/∂p₁ = 1`.
    struct SensModel;

    impl Simulator for SensModel {
        fn simulate(&self, p: &[f64], file: usize, times: &[f64]) -> Result<Vec<f64>, String> {
            model(p, file, times)
        }

        fn sensitivity_params(&self) -> usize {
            2
        }

        fn simulate_with_sensitivities(
            &self,
            p: &[f64],
            file: usize,
            times: &[f64],
        ) -> Result<(Vec<f64>, Vec<Vec<f64>>), String> {
            let values = model(p, file, times)?;
            let sens = times
                .iter()
                .map(|t| vec![-t * (-p[0] * t).exp(), 1.0])
                .collect();
            Ok((values, sens))
        }
    }

    #[test]
    fn analytic_objective_jacobian_matches_fd() {
        let truth = [1.2, 0.3];
        let files = make_files(3, 12, &truth);
        let sim = SensModel;
        let est = ParallelEstimator::new(&sim, files, 2, false);
        let p = [0.9, 0.1];
        let jac = est.objective_jacobian(&p).unwrap();
        assert_eq!(jac.len(), 12 * 2);
        // Central-difference reference over the objective itself.
        let h = 1e-6;
        for k in 0..2 {
            let mut up = p;
            up[k] += h;
            let mut dn = p;
            dn[k] -= h;
            let fwd = est.objective(&up).unwrap().error_vector;
            let bwd = est.objective(&dn).unwrap().error_vector;
            for r in 0..12 {
                let fd = (fwd[r] - bwd[r]) / (2.0 * h);
                assert!(
                    (jac[r * 2 + k] - fd).abs() < 1e-6 * fd.abs().max(1.0),
                    "r={r} k={k}: analytic {} vs fd {fd}",
                    jac[r * 2 + k]
                );
            }
        }
    }

    /// A default-options fit from `[0.5, 0.0]` inside `[0, 5] × [0, 1]`.
    fn fit<S: Simulator>(sim: &S, files: &[ExperimentFile], config: EstimatorConfig) -> LmResult {
        ParallelEstimator::with_config(sim, files.to_vec(), 2, config)
            .estimate(&[0.5, 0.0], &[0.0, 0.0], &[5.0, 1.0], LmOptions::default())
            .unwrap()
    }

    #[test]
    fn analytic_estimate_matches_fd_and_spends_fewer_evals() {
        let truth = [1.3, 0.25];
        let files = make_files(4, 40, &truth);
        let analytic = fit(&SensModel, &files, EstimatorConfig::default());
        // The same model without its sensitivities: finite differences.
        let fd = fit(&model, &files, EstimatorConfig::default());
        for (k, &truth_k) in truth.iter().enumerate() {
            assert!(
                (analytic.params[k] - truth_k).abs() < 1e-5,
                "{:?}",
                analytic.params
            );
            assert!(
                (analytic.params[k] - fd.params[k]).abs() < 1e-5,
                "analytic {:?} vs fd {:?}",
                analytic.params,
                fd.params
            );
        }
        // FD pays n_params objective evaluations per Jacobian; analytic
        // pays one augmented sweep.
        let analytic_per_jac = analytic.fevals as f64 / analytic.jevals.max(1) as f64;
        let fd_per_jac = fd.fevals as f64 / fd.jevals.max(1) as f64;
        assert!(
            analytic_per_jac < fd_per_jac,
            "analytic {analytic_per_jac} vs fd {fd_per_jac} evals per Jacobian"
        );
    }

    #[test]
    fn closure_simulators_fall_back_to_fd() {
        // A plain closure has no sensitivities; the estimator must
        // silently use finite differences and still converge.
        let truth = [1.1, 0.2];
        let files = make_files(3, 30, &truth);
        let est = ParallelEstimator::new(&model, files, 2, false);
        let result = est
            .estimate(&[0.6, 0.0], &[0.0, 0.0], &[5.0, 1.0], LmOptions::default())
            .unwrap();
        assert!((result.params[0] - truth[0]).abs() < 1e-5);
        assert!((result.params[1] - truth[1]).abs() < 1e-5);
    }

    #[test]
    fn uneven_file_lengths() {
        let truth = [1.0, 0.0];
        let mut files = make_files(2, 10, &truth);
        files[1].times.truncate(4);
        files[1].values.truncate(4);
        let est = ParallelEstimator::new(&model, files, 2, false);
        let out = est.objective(&[1.0, 0.05]).unwrap();
        assert_eq!(out.error_vector.len(), 10);
        // First 4 records: both files contribute; rest: only file 0.
        for v in &out.error_vector[..4] {
            assert!((v - 0.1).abs() < 1e-9);
        }
        for v in &out.error_vector[4..] {
            assert!((v - 0.05).abs() < 1e-9);
        }
    }

    /// [`SensModel`] whose augmented solve fails on file 1 while every
    /// plain solve succeeds.
    struct SensFailsOnFile1;

    impl Simulator for SensFailsOnFile1 {
        fn simulate(&self, p: &[f64], file: usize, times: &[f64]) -> Result<Vec<f64>, String> {
            model(p, file, times)
        }

        fn sensitivity_params(&self) -> usize {
            2
        }

        fn simulate_with_sensitivities(
            &self,
            p: &[f64],
            file: usize,
            times: &[f64],
        ) -> Result<(Vec<f64>, Vec<Vec<f64>>), String> {
            if file == 1 {
                return Err("injected: sensitivity solve diverged".to_string());
            }
            SensModel.simulate_with_sensitivities(p, file, times)
        }
    }

    #[test]
    fn a_failed_sensitivity_solve_fails_the_jacobian_under_both_policies() {
        let files = make_files(3, 12, &[1.2, 0.3]);
        let start = [0.5, 0.0];
        for on_failure in [FailurePolicy::Abort, FailurePolicy::Penalize] {
            let config = EstimatorConfig {
                on_failure,
                ..EstimatorConfig::default()
            };
            let est = ParallelEstimator::with_config(&SensFailsOnFile1, files.clone(), 2, config);
            // Every plain solve succeeds, so the residual is healthy; a
            // Jacobian without file 1's rows would be 2/3 of the truth.
            assert!(est.objective(&start).unwrap().health.is_healthy());
            match est.objective_jacobian(&start) {
                Err(EstimatorError::Simulation { failures }) => {
                    assert_eq!(failures.len(), 1, "{on_failure:?}");
                    assert_eq!((failures[0].file, failures[0].penalized), (1, false));
                }
                other => panic!("{on_failure:?}: {other:?}"),
            }
            // So every Jacobian of the fit is built by finite differences —
            // the ones a simulator without sensitivities gets, to the bit.
            let (analytic, fd) = (
                fit(&SensFailsOnFile1, &files, config),
                fit(&model, &files, config),
            );
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&analytic.params), bits(&fd.params), "{on_failure:?}");
            assert_eq!(analytic.cost.to_bits(), fd.cost.to_bits(), "{on_failure:?}");
            assert_eq!(
                (analytic.iterations, analytic.fevals, analytic.jevals),
                (fd.iterations, fd.fevals, fd.jevals),
                "{on_failure:?}"
            );
        }
    }
}
