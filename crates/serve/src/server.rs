//! The server core: supervised workers, admission control, deadline
//! supervision, and graceful drain.
//!
//! Every admitted job runs inside `catch_unwind` on a worker thread, so
//! a panicking job — a poisoned model, an injected chaos fault —
//! terminates as a structured [`JobError::Panicked`] while the worker
//! and every co-tenant job keep running. A job's deadline is an instant
//! on its [`CancelToken`]: the solvers read it at step boundaries and
//! unwind cleanly once it has passed, so a blown deadline costs at most
//! one integration step, not a stuck worker, and no thread watches the
//! clock. Compiles go through the process-wide artifact cache in
//! `rms-driver`, so concurrent tenants submitting the same model at the
//! same options compile it exactly once.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rms_driver::{cache, CompilerSession, SessionOptions};
use rms_parallel::{
    EstimatorConfig, EstimatorError, FailurePolicy, FaultPlan, FaultySimulator, ParallelEstimator,
    Simulator,
};
use rms_solver::CancelToken;
use rms_workload::TapeSimulator;

use crate::json::{obj, Value};
use crate::protocol::{accepted_event, JobError, JobKind, JobRequest};
use crate::queue::FairQueue;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Admission-queue bound; a full queue rejects immediately.
    pub queue_capacity: usize,
    /// On-disk artifact cache directory shared by every job.
    pub cache_dir: Option<PathBuf>,
    /// In-memory artifact cache budget in bytes (`None` = unlimited).
    /// Applied process-wide when the server starts.
    pub memory_budget: Option<u64>,
    /// Deadline applied to jobs that do not carry their own.
    pub default_deadline_ms: Option<u64>,
    /// Chaos-injection plan: jobs are keyed by admission sequence
    /// number, so `panic_file(n)`/`stall_file(n)` target the n-th
    /// admitted job deterministically. `None` in production.
    pub faults: Option<FaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 2,
            queue_capacity: 32,
            cache_dir: None,
            memory_budget: None,
            default_deadline_ms: None,
            faults: None,
        }
    }
}

/// Counters accumulated over a server's lifetime; snapshot via
/// [`Server::stats`] or returned by [`Server::drain`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Jobs admitted to the queue.
    pub admitted: usize,
    /// Jobs that produced a `result` event.
    pub succeeded: usize,
    /// Jobs that produced an `error` event (any kind).
    pub failed: usize,
    /// Submissions rejected at admission (queue full or draining).
    pub rejected: usize,
    /// Failures classified as contained worker panics.
    pub panicked: usize,
    /// Failures classified as blown deadlines.
    pub deadlines: usize,
}

impl ServerStats {
    /// The final `drained` summary event.
    pub fn drained_event(&self) -> String {
        obj([
            ("event", "drained".into()),
            ("admitted", self.admitted.into()),
            ("succeeded", self.succeeded.into()),
            ("failed", self.failed.into()),
            ("rejected", self.rejected.into()),
            ("panicked", self.panicked.into()),
            ("deadlines", self.deadlines.into()),
        ])
        .to_json()
    }
}

/// An admitted job waiting for (or on) a worker.
struct Job {
    req: JobRequest,
    /// Admission sequence number; doubles as the fault-plan file index.
    seq: u64,
    /// Effective deadline (request's, else the server default).
    deadline_ms: Option<u64>,
    /// Where this job's events go.
    reply: Sender<String>,
}

struct QueueState {
    queue: FairQueue<Job>,
    /// Draining: admission closed, workers exit once the queue empties.
    closed: bool,
}

struct Inner {
    state: Mutex<QueueState>,
    work_ready: Condvar,
    seq: AtomicU64,
    stats: Mutex<ServerStats>,
    cache_dir: Option<PathBuf>,
    faults: Option<FaultPlan>,
}

/// A running server: a worker pool around a fair admission queue.
/// Submit with [`Server::submit`] (parsed requests) or
/// [`Server::submit_line`] (wire lines); stop with [`Server::drain`].
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    queue_capacity: usize,
    default_deadline_ms: Option<u64>,
}

/// Prefix naming worker threads, used to suppress the default panic
/// hook's backtrace spew for *contained* panics: a supervised job's
/// panic is reported exactly once, as its structured `error` event, not
/// also as stderr noise. Panics on any other thread print as usual.
const WORKER_THREAD_PREFIX: &str = "rms-serve-worker-";

fn install_quiet_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let contained = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with(WORKER_THREAD_PREFIX));
            if !contained {
                previous(info);
            }
        }));
    });
}

impl Server {
    /// Start the worker pool.
    pub fn start(config: ServerConfig) -> Server {
        install_quiet_panic_hook();
        if config.memory_budget.is_some() {
            cache::set_memory_budget(config.memory_budget);
        }
        let inner = Arc::new(Inner {
            state: Mutex::new(QueueState {
                queue: FairQueue::new(config.queue_capacity),
                closed: false,
            }),
            work_ready: Condvar::new(),
            seq: AtomicU64::new(0),
            stats: Mutex::new(ServerStats::default()),
            cache_dir: config.cache_dir.clone(),
            faults: config.faults.clone(),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("{WORKER_THREAD_PREFIX}{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker thread")
            })
            .collect();
        Server {
            inner,
            workers,
            queue_capacity: config.queue_capacity.max(1),
            default_deadline_ms: config.default_deadline_ms,
        }
    }

    /// Admit a parsed request. On success the `accepted` event has
    /// already been sent to `reply` (before any worker can touch the
    /// job, so it always precedes the terminal event) and the job will
    /// produce exactly one terminal `result`/`error` event later. On
    /// failure nothing was enqueued and nothing was sent — the caller
    /// routes the returned [`JobError`].
    pub fn submit(&self, req: JobRequest, reply: Sender<String>) -> Result<(), JobError> {
        let mut state = lock(&self.inner.state);
        if state.closed {
            let mut stats = lock(&self.inner.stats);
            stats.rejected += 1;
            return Err(JobError::Shutdown);
        }
        let job = Job {
            seq: self.inner.seq.fetch_add(1, Ordering::Relaxed),
            deadline_ms: req.deadline_ms.or(self.default_deadline_ms),
            reply,
            req,
        };
        let id = job.req.id.clone();
        let accepted = {
            let tenant = job.req.tenant.clone();
            let reply = job.reply.clone();
            if state.queue.push(&tenant, job).is_err() {
                let mut stats = lock(&self.inner.stats);
                stats.rejected += 1;
                return Err(JobError::Rejected {
                    capacity: self.queue_capacity,
                });
            }
            reply
        };
        // Send `accepted` while still holding the queue lock: a worker
        // cannot pop (and terminate) this job until we release it.
        let _ = accepted.send(accepted_event(&id, state.queue.len()));
        lock(&self.inner.stats).admitted += 1;
        drop(state);
        self.inner.work_ready.notify_one();
        Ok(())
    }

    /// Parse and admit one wire line. All failures — parse errors,
    /// rejection, shutdown — are sent to `reply` as structured `error`
    /// events (with a best-effort id for unparseable lines), so a
    /// transport can forward lines without inspecting them.
    pub fn submit_line(&self, line: &str, reply: &Sender<String>) {
        match JobRequest::parse(line) {
            Ok(req) => {
                let id = req.id.clone();
                if let Err(e) = self.submit(req, reply.clone()) {
                    let _ = reply.send(e.event(&id));
                }
            }
            Err(e) => {
                let id = crate::json::parse(line)
                    .ok()
                    .and_then(|v| v.get("id").and_then(Value::as_str).map(str::to_string))
                    .unwrap_or_default();
                let _ = reply.send(e.event(&id));
            }
        }
    }

    /// Snapshot the lifetime counters.
    pub fn stats(&self) -> ServerStats {
        *lock(&self.inner.stats)
    }

    /// Jobs currently queued (not yet picked up by a worker).
    pub fn queue_depth(&self) -> usize {
        lock(&self.inner.state).queue.len()
    }

    /// Close admission without waiting: subsequent submissions fail
    /// with [`JobError::Shutdown`]; already-admitted jobs keep running.
    pub fn close(&self) {
        lock(&self.inner.state).closed = true;
        self.inner.work_ready.notify_all();
    }

    /// Graceful drain: close admission, let workers finish every
    /// already-admitted job, join them, and return the final counters
    /// (from which the caller can emit [`ServerStats::drained_event`]).
    pub fn drain(mut self) -> ServerStats {
        self.shutdown();
        self.stats()
    }

    fn shutdown(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        self.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    /// Dropping without [`Server::drain`] still drains gracefully.
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Lock a mutex, riding through poisoning: a panicking job must never
/// wedge the server, and every guarded structure is valid at each
/// await-free critical section boundary.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let job = {
            let mut state = lock(&inner.state);
            loop {
                if let Some(job) = state.queue.pop() {
                    break job;
                }
                if state.closed {
                    return;
                }
                state = inner
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(|p| p.into_inner());
            }
        };
        process(inner, job);
    }
}

/// Run one job start to finish: start its deadline's clock, contain its
/// panics, classify its outcome, and send the terminal event.
fn process(inner: &Arc<Inner>, job: Job) {
    let started = Instant::now();
    // A deadline too far off to represent is none.
    let token = job
        .deadline_ms
        .and_then(|ms| started.checked_add(Duration::from_millis(ms)))
        .map(CancelToken::with_deadline);
    let outcome = catch_unwind(AssertUnwindSafe(|| run_job(inner, &job, token)));

    let outcome = match outcome {
        Ok(done) => done,
        Err(payload) => Err(JobError::Panicked {
            // `&*`: downcast the payload itself, not the box around it.
            message: panic_message(&*payload),
        }),
    };
    // A passed deadline surfaces as whatever error the cancelled solve
    // happened to produce (a solver error, an estimator abort, even a
    // panic racing the cancel). Classify all of those as the deadline —
    // pre-queue failures (invalid, compile diagnostics) keep their kind.
    let outcome = match outcome {
        Err(e)
            if token.is_some_and(|t| t.is_cancelled())
                && matches!(e, JobError::Solver { .. } | JobError::Panicked { .. }) =>
        {
            Err(JobError::Deadline {
                deadline_ms: job.deadline_ms.unwrap_or(0),
            })
        }
        other => other,
    };

    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    let line = match outcome {
        Ok(mut result) => {
            lock(&inner.stats).succeeded += 1;
            if let Value::Obj(map) = &mut result {
                map.insert("elapsed_ms".to_string(), elapsed_ms.into());
            }
            result.to_json()
        }
        Err(e) => {
            {
                let mut stats = lock(&inner.stats);
                stats.failed += 1;
                match e {
                    JobError::Panicked { .. } => stats.panicked += 1,
                    JobError::Deadline { .. } => stats.deadlines += 1,
                    _ => {}
                }
            }
            e.event(&job.req.id)
        }
    };
    // A disconnected client discards its events; the job still ran.
    let _ = job.reply.send(line);
}

/// Extract a readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Compile and execute one job. Every failure returns a structured
/// [`JobError`]; deadline/panic classification happens in [`process`].
fn run_job(inner: &Arc<Inner>, job: &Job, token: Option<CancelToken>) -> Result<Value, JobError> {
    let mut options = SessionOptions::new(job.req.level);
    options.deriv = true;
    options.cache_dir = inner.cache_dir.clone();
    // Same source + same options → same content address: concurrent
    // tenants share one compile through the process-wide cache.
    let compiled = CompilerSession::with_options(options)
        .compile_source("<job>", &job.req.source)
        .map_err(|d| JobError::Compile {
            message: d.render("<job>", &job.req.source),
        })?;
    let cache_status = compiled.status;
    let artifact = compiled.artifact;

    let n = artifact.system.len();
    let mut observable = vec![0.0; n];
    if job.req.observe.is_empty() {
        observable.iter_mut().for_each(|w| *w = 1.0);
    } else {
        for name in &job.req.observe {
            let idx = artifact
                .network
                .species_by_name(name)
                .map(|id| id.0 as usize)
                .ok_or_else(|| JobError::Invalid {
                    message: format!("unknown species '{name}'"),
                })?;
            observable[idx] = 1.0;
        }
    }
    let mut simulator = TapeSimulator::from_artifact(&artifact, observable);
    if let Some(token) = token {
        simulator.set_cancel_token(token);
    }
    let rates = &artifact.system.rate_values;

    let result = match &inner.faults {
        Some(plan) => execute(
            job,
            &FaultySimulator::new(simulator, plan.clone()),
            rates,
            token,
        ),
        None => execute(job, &simulator, rates, token),
    }?;
    Ok(finish(job, result, cache_status.name()))
}

/// Kind-independent execution result, before the event is assembled.
enum Executed {
    Simulated {
        values: Vec<f64>,
    },
    Estimated {
        objective: f64,
        records: usize,
        health: rms_parallel::HealthReport,
    },
}

/// Run the job's solves. A solve is a pure function of its inputs, so a
/// failed one is not retried; the job's deadline and the worker's
/// `catch_unwind` bound the rest.
fn execute<S: Simulator>(
    job: &Job,
    simulator: &S,
    rates: &[f64],
    token: Option<CancelToken>,
) -> Result<Executed, JobError> {
    match &job.req.kind {
        JobKind::Simulate { times } => {
            let values = simulator
                .simulate(rates, job.seq as usize, times)
                .map_err(|message| JobError::Solver { message })?;
            Ok(Executed::Simulated { values })
        }
        JobKind::Estimate { files, workers } => {
            let config = EstimatorConfig {
                dynamic_lb: true,
                on_failure: FailurePolicy::Penalize,
                ..EstimatorConfig::default()
            };
            // `workers` is outside input; the estimator clamps it to the
            // file count.
            let estimator =
                ParallelEstimator::with_config(simulator, files.clone(), *workers, config);
            let out = estimator.objective(rates).map_err(|e| match e {
                EstimatorError::RankPanic(p) => JobError::Panicked {
                    message: p.to_string(),
                },
                other => JobError::Solver {
                    message: other.to_string(),
                },
            })?;
            // Under `Penalize` a deadline-cancelled file contributes a
            // penalty residual instead of aborting; do not let that pass
            // as a success.
            if token.is_some_and(|t| t.is_cancelled()) {
                return Err(JobError::Solver {
                    message: "objective evaluation cancelled".to_string(),
                });
            }
            Ok(Executed::Estimated {
                objective: out.error_vector.iter().map(|r| r * r).sum(),
                records: out.error_vector.len(),
                health: out.health,
            })
        }
    }
}

/// Assemble the terminal `result` event (sans `elapsed_ms`, which
/// [`process`] stamps).
fn finish(job: &Job, result: Executed, cache_status: &str) -> Value {
    match result {
        Executed::Simulated { values } => obj([
            ("event", "result".into()),
            ("id", job.req.id.as_str().into()),
            ("kind", "simulate".into()),
            ("cache", cache_status.into()),
            ("values", values.into()),
        ]),
        Executed::Estimated {
            objective,
            records,
            health,
        } => obj([
            ("event", "result".into()),
            ("id", job.req.id.as_str().into()),
            ("kind", "estimate".into()),
            ("cache", cache_status.into()),
            ("objective", objective.into()),
            ("records", records.into()),
            (
                "health",
                obj([
                    ("healthy", health.is_healthy().into()),
                    ("file_failures", health.file_failures.len().into()),
                    ("rank_panics", health.rank_panics.len().into()),
                    ("comm_errors", health.comm_errors.len().into()),
                ]),
            ),
        ]),
    }
}
