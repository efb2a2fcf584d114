//! `serve_mix`: a seeded mix of independent tenants' jobs over `rms-serve`.
//!
//! An in-process server with `max(1, nproc − 1)` workers takes six hot RDL
//! models (`models/vulcanization.rdl`, chains 5..10, Zipf-weighted, cheapest
//! most popular) plus the two-species decay model, 80 % `simulate` and 20 %
//! `estimate` jobs, three tenants, and every 50th job a source the server
//! has never seen (one rate constant nudged, so a new fingerprint and a
//! cold compile beside the hot readers). Service is a millisecond-scale
//! solve, so solver and kernel changes reach this workload only through
//! service time, while JSON, admission, the fair queue, the single-flight
//! cache and worker scheduling decide the rest.
//!
//! The timed run drives the server in a closed loop, one client per worker:
//! the headline latency is submit → terminal event with nothing queued
//! ahead, and capacity is completions per second. The traced run adds two
//! open loops, one generator thread on a Poisson schedule, with latency
//! timed from when a job was *due*, so a stall charges the jobs queued
//! behind it. Those are per-layer numbers: the median latency of an open
//! loop at half the capacity spreads by 15–50 % between identical runs —
//! the arrival draw alone moves it that far — which no bound can gate on.
//!
//! The open-loop rates are absolute jobs per second, calibrated once on the
//! seed commit against the closed-loop capacity measured there and then
//! frozen below: a faster service must show up as lower latency at the same
//! offered load, not as a moved goalpost.

use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rms_parallel::{ExperimentFile, ParallelEstimator, Simulator};
use rms_serve::{JobRequest, Server, ServerConfig};
use rms_workload::TapeSimulator;

use super::{
    check_model, cores, describe, even_times, layer_probes, typical, Conservation, Run, Samples,
};
use crate::compile::{fresh_cache_dir, Cache, Model, Request};
use crate::gauge::Timed;
use crate::inputs::{self, JobDraw, MixSpec, Rng};
use crate::json::{self, Value};
use crate::refs::first_order_decay;
use crate::stats;
use crate::trace::span;

/// Polysulfide chain limits of the hot models, most popular first.
const HOT_CHAINS: [usize; 6] = [5, 6, 7, 8, 9, 10];
/// Offered load of the two open-loop phases, jobs per second: about 45 %
/// and 75 % of the closed-loop capacity of the seed commit on the recording
/// machine (2 cores, one worker: 105–115 jobs/s as measured), frozen.
const MID_JOBS_PER_S: f64 = 50.0;
const HI_JOBS_PER_S: f64 = 80.0;
/// Output-time grids a job may ask for: ten points to these horizons.
const GRID_HORIZONS: [f64; 2] = [1.0, 2.0];
const GRID_POINTS: usize = 10;
const TENANTS: usize = 3;
/// Jobs per closed-loop window and client, and per open-loop phase.
const CLOSED_WINDOW_JOBS: usize = 250;
const OPEN_JOBS: usize = 300;
/// Rate constant and initial concentration of the decay model.
const DECAY_RATE: f64 = 2.0;
const DECAY_INITIAL: f64 = 1.0;

fn mix() -> MixSpec {
    MixSpec {
        model_weights: (1..=HOT_CHAINS.len())
            .map(|rank| 1.0 / rank as f64)
            .collect(),
        decay_share: 0.1,
        // 20 % of all jobs: the decay model's jobs are all simulations.
        estimate_share: 0.2 / 0.9,
        tenants: TENANTS,
        grids: GRID_HORIZONS.len(),
        cold_every: 50,
        cold_model: HOT_CHAINS.len() - 1,
    }
}

fn grid(index: usize) -> Vec<f64> {
    even_times(GRID_HORIZONS[index], GRID_POINTS)
}

fn workers() -> usize {
    cores().saturating_sub(1).max(1)
}

/// What a correct terminal event carries.
#[derive(Clone)]
enum Expected {
    Values(Vec<f64>),
    Objective(f64),
}

/// An inline experiment file of an estimate job: label, times, values.
type InlineFile = (String, Vec<f64>, Vec<f64>);

/// The direct results over one output-time grid.
struct GridRun {
    values: Vec<f64>,
    /// The files an estimate job over this grid carries…
    files: Vec<InlineFile>,
    /// …and the objective they give.
    objective: f64,
}

/// One compiled source with its direct, server-free results.
struct Direct {
    /// The RDL text, as the jobs carry it.
    source: String,
    simulator: TapeSimulator,
    rates: Vec<f64>,
    per_grid: Vec<GridRun>,
}

/// Ranks an estimate job asks for.
fn estimate_ranks() -> usize {
    cores().min(2)
}

impl Direct {
    /// Compile `path` the way a job's worker will (same options, same
    /// process-wide cache) and run every grid directly.
    fn new(path: &std::path::Path, seed: u64, label: &str) -> Result<Direct, String> {
        let request = Request {
            model: Model::Source(path.to_path_buf()),
            sensitivity: false,
        };
        let (compiled, _) = request.compile(&Cache::Memory)?;
        let source = std::fs::read_to_string(path).map_err(|e| format!("read {label}: {e}"))?;
        let artifact = &compiled.artifact;
        // A job that names no species observes the sum of all of them.
        let simulator = TapeSimulator::from_artifact(artifact, vec![1.0; artifact.system.len()]);
        let rates = artifact.system.rate_values.clone();
        let mut noise = Rng::stream(seed, &format!("serve-files-{label}"));
        let mut per_grid = Vec::new();
        for g in 0..GRID_HORIZONS.len() {
            let times = grid(g);
            let values = simulator
                .simulate(&rates, 0, &times)
                .map_err(|e| format!("direct run of {label}: {e}"))?;
            let files: Vec<InlineFile> = ["a", "b"]
                .iter()
                .map(|name| {
                    (
                        name.to_string(),
                        times.clone(),
                        inputs::add_noise(&values, 0.01, &mut noise),
                    )
                })
                .collect();
            per_grid.push(GridRun {
                values,
                files,
                objective: f64::NAN,
            });
        }
        let mut direct = Direct {
            source,
            simulator,
            rates,
            per_grid,
        };
        for g in 0..GRID_HORIZONS.len() {
            direct.per_grid[g].objective = direct.objective(&direct.per_grid[g].files)?;
        }
        Ok(direct)
    }

    /// The estimation objective over inline files, without the server.
    fn objective(&self, files: &[InlineFile]) -> Result<f64, String> {
        let files = files
            .iter()
            .map(|(label, times, values)| ExperimentFile {
                label: label.clone(),
                times: times.clone(),
                values: values.clone(),
            })
            .collect();
        let estimator = ParallelEstimator::new(&self.simulator, files, estimate_ranks(), true);
        let out = estimator
            .objective(&self.rates)
            .map_err(|e| format!("direct objective: {e}"))?;
        Ok(out.error_vector.iter().map(|r| r * r).sum())
    }
}

/// A job ready to submit.
struct Job {
    id: String,
    draw: JobDraw,
    line: String,
    /// Path of a cold job's never-seen source, to check it afterwards.
    cold_source: Option<std::path::PathBuf>,
}

/// The hot models, the decay model, and the request lines of every phase.
struct Catalog {
    hot: Vec<Direct>,
    decay_source: String,
    /// Names of the decay model's two species: the disulfide, the radical.
    decay_species: [String; 2],
    cold_serial: usize,
}

impl Catalog {
    fn job(
        &mut self,
        run: &Run<'_>,
        phase: &str,
        index: usize,
        draw: JobDraw,
    ) -> Result<Job, String> {
        let id = format!("{phase}-{index}");
        let tenant = format!("tenant-{}", draw.tenant);
        let times = grid(draw.grid);
        let Some(model) = draw.model else {
            let observe = self.decay_species[draw.grid % 2].as_str();
            return Ok(Job {
                line: inputs::simulate_line(&id, &tenant, &self.decay_source, &[observe], &times),
                id,
                draw,
                cold_source: None,
            });
        };
        let hot_source = &self.hot[model].source;
        let (source, cold_source) = if draw.cold {
            self.cold_serial += 1;
            let text = inputs::cold_variant(
                hot_source,
                self.cold_serial,
                &mut Rng::stream(run.seed, &format!("cold-{phase}-{index}")),
            );
            let path = run
                .inputs
                .write(&format!("serve/cold_{phase}_{index}.rdl"), &text)
                .map_err(|e| format!("write cold source: {e}"))?;
            (text, Some(path))
        } else {
            (hot_source.clone(), None)
        };
        let line = if draw.estimate {
            inputs::estimate_line(
                &id,
                &tenant,
                &source,
                &[],
                &self.hot[model].per_grid[draw.grid].files,
                estimate_ranks(),
            )
        } else {
            inputs::simulate_line(&id, &tenant, &source, &[], &times)
        };
        Ok(Job {
            id,
            draw,
            line,
            cold_source,
        })
    }

    fn jobs(
        &mut self,
        run: &Run<'_>,
        phase: &str,
        count: usize,
        rate_per_s: Option<f64>,
    ) -> Result<Vec<Job>, String> {
        inputs::job_draws(run.seed, phase, &mix(), count, rate_per_s)
            .into_iter()
            .enumerate()
            .map(|(index, draw)| self.job(run, phase, index, draw))
            .collect()
    }

    /// What the job's terminal event must carry.
    fn expected(&self, run: &Run<'_>, job: &Job) -> Result<Expected, String> {
        let Some(model) = job.draw.model else {
            let values = grid(job.draw.grid)
                .iter()
                .map(|&t| {
                    let (disulfide, radical) = first_order_decay(DECAY_RATE, DECAY_INITIAL, t);
                    if job.draw.grid.is_multiple_of(2) {
                        disulfide
                    } else {
                        radical
                    }
                })
                .collect();
            return Ok(Expected::Values(values));
        };
        // A cold source is compared with a direct run of that very source
        // (compiled by now, so this is a cache hit), a hot one with the
        // direct run made in set-up.
        let cold;
        let direct = match &job.cold_source {
            Some(path) => {
                cold = Direct::new(path, run.seed, &format!("hot-{model}"))?;
                &cold
            }
            None => &self.hot[model],
        };
        let grid = &direct.per_grid[job.draw.grid];
        Ok(match (job.draw.estimate, &job.cold_source) {
            (false, _) => Expected::Values(grid.values.clone()),
            (true, None) => Expected::Objective(grid.objective),
            // The objective of the files the job actually carried.
            (true, Some(_)) => Expected::Objective(
                direct.objective(&self.hot[model].per_grid[job.draw.grid].files)?,
            ),
        })
    }
}

/// One job's terminal event as the client saw it.
struct Seen {
    latency_ms: f64,
    /// The event's own `elapsed_ms`: worker pick-up to completion.
    service_ms: f64,
    cache: String,
    event: Value,
}

/// What one phase produced.
struct Phase {
    /// Per job, in job order; `None` when no terminal event arrived.
    seen: Vec<Option<Seen>>,
    wall_s: f64,
    gen_lag_ms_max: f64,
    backlog_end: usize,
}

fn terminal(event: &Value) -> bool {
    matches!(
        event.get("event").and_then(Value::as_str),
        Some("result" | "error")
    )
}

/// Parse the lines a phase's clients received into per-job observations;
/// `due` is when each job was due (open loop) or submitted (closed loop).
fn collect(jobs: &[Job], due: &[Instant], received: Vec<(Instant, String)>) -> Vec<Option<Seen>> {
    let index: HashMap<&str, usize> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| (j.id.as_str(), i))
        .collect();
    let mut seen: Vec<Option<Seen>> = jobs.iter().map(|_| None).collect();
    for (at, line) in received {
        let Ok(event) = json::parse(&line) else {
            continue;
        };
        if !terminal(&event) {
            continue;
        }
        let Some(&i) = event
            .get("id")
            .and_then(Value::as_str)
            .and_then(|id| index.get(id))
        else {
            continue;
        };
        seen[i] = Some(Seen {
            latency_ms: at.saturating_duration_since(due[i]).as_secs_f64() * 1e3,
            service_ms: event.num("elapsed_ms").unwrap_or(0.0),
            cache: event
                .get("cache")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            event,
        });
    }
    seen
}

/// Open loop: one generator submits each job when it is due, whatever the
/// server is doing; a collector stamps every event on arrival.
fn open_loop(server: &Server, jobs: &[Job]) -> Phase {
    let (tx, rx) = mpsc::channel::<String>();
    let collector = std::thread::spawn(move || {
        rx.into_iter()
            .map(|line| (Instant::now(), line))
            .collect::<Vec<_>>()
    });
    let start = Instant::now();
    let mut due = Vec::with_capacity(jobs.len());
    let mut lag_max = Duration::ZERO;
    for job in jobs {
        let at = start + Duration::from_secs_f64(job.draw.due_s);
        if let Some(wait) = at.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        lag_max = lag_max.max(Instant::now().saturating_duration_since(at));
        server.submit_line(&job.line, &tx);
        due.push(at);
    }
    let backlog_end = server.queue_depth();
    // The collector's channel closes when the last queued job has replied.
    drop(tx);
    let received = collector.join().expect("collector thread");
    Phase {
        seen: collect(jobs, &due, received),
        wall_s: start.elapsed().as_secs_f64(),
        gen_lag_ms_max: lag_max.as_secs_f64() * 1e3,
        backlog_end,
    }
}

/// Closed loop: each client submits its next job when the previous one's
/// terminal event arrives; jobs are dealt to the clients round-robin.
fn closed_loop(server: &Server, jobs: &[Job], clients: usize) -> Phase {
    let start = Instant::now();
    /// A client's view of one job: its index, when it was submitted, and
    /// the event lines with their arrival times.
    type Exchange = (usize, Instant, Vec<(Instant, String)>);
    let mut per_client: Vec<Vec<Exchange>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    for (i, job) in jobs.iter().enumerate().skip(client).step_by(clients) {
                        let (tx, rx) = mpsc::channel::<String>();
                        let submitted = Instant::now();
                        server.submit_line(&job.line, &tx);
                        drop(tx);
                        let lines: Vec<(Instant, String)> =
                            rx.into_iter().map(|line| (Instant::now(), line)).collect();
                        mine.push((i, submitted, lines));
                    }
                    mine
                })
            })
            .collect();
        per_client = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut due = vec![start; jobs.len()];
    let mut received = Vec::new();
    for (i, submitted, lines) in per_client.into_iter().flatten() {
        due[i] = submitted;
        received.extend(lines);
    }
    Phase {
        seen: collect(jobs, &due, received),
        wall_s,
        gen_lag_ms_max: 0.0,
        backlog_end: 0,
    }
}

fn close(a: f64, b: f64, tolerance: f64) -> bool {
    (a - b).abs() <= tolerance * a.abs().max(b.abs())
}

/// Count every job of a phase in the ledger: it must have ended in a
/// `result` carrying what a direct run gives.
fn check_phase(
    run: &mut Run<'_>,
    catalog: &Catalog,
    jobs: &[Job],
    phase: &Phase,
) -> Result<(), String> {
    for (job, seen) in jobs.iter().zip(&phase.seen) {
        let Some(seen) = seen else {
            run.ledger
                .record(false, || format!("{}: no terminal event", job.id));
            continue;
        };
        let event = &seen.event;
        if event.get("event").and_then(Value::as_str) != Some("result") {
            run.ledger
                .record(false, || format!("{}: {}", job.id, event.to_json()));
            continue;
        }
        let ok = match catalog.expected(run, job)? {
            // The decay model is checked against its closed form, which a
            // solve at rtol 1e-6 meets to 1e-5; everything else against a
            // direct run of the same code, which it must reproduce.
            Expected::Values(want) => {
                let tolerance = if job.draw.model.is_none() { 1e-5 } else { 1e-9 };
                let got: Vec<f64> = event
                    .get("values")
                    .and_then(Value::as_arr)
                    .map(|a| a.iter().filter_map(Value::as_f64).collect())
                    .unwrap_or_default();
                got.len() == want.len()
                    && got.iter().zip(&want).all(|(g, w)| close(*g, *w, tolerance))
            }
            Expected::Objective(want) => event
                .num("objective")
                .is_ok_and(|got| close(got, want, 1e-9)),
        };
        run.ledger.record(ok, || {
            format!(
                "{}: result differs from a direct run: {}",
                job.id,
                event.to_json()
            )
        });
    }
    Ok(())
}

fn latencies(phase: &Phase) -> Vec<f64> {
    phase.seen.iter().flatten().map(|s| s.latency_ms).collect()
}

/// Record a phase's jobs as spans under the innermost open span. Jobs
/// queue behind each other, so their spans overlap: each is kept as an
/// uncounted span, and the intervals during which at least one job was in
/// the server are the counted `serve` spans.
fn record_jobs(run: &Run<'_>, phase_start_s: f64, jobs: &[Job], phase: &Phase) {
    let Some(tracer) = run.tracer else {
        return;
    };
    let mut intervals = Vec::new();
    for (job, seen) in jobs.iter().zip(&phase.seen) {
        if let Some(seen) = seen {
            let start_s = phase_start_s + job.draw.due_s;
            let seconds = seen.latency_ms * 1e-3;
            tracer.record_overlapping(&format!("job:{}", job.id), "serve", start_s, seconds);
            intervals.push((start_s, start_s + seconds));
        }
    }
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut busy: Option<(f64, f64)> = None;
    for (lo, hi) in intervals {
        match &mut busy {
            Some((_, end)) if lo <= *end => *end = end.max(hi),
            _ => {
                if let Some((start, end)) = busy {
                    tracer.record("serve:busy", "serve", start, end - start);
                }
                busy = Some((lo, hi));
            }
        }
    }
    if let Some((start, end)) = busy {
        tracer.record("serve:busy", "serve", start, end - start);
    }
}

/// Everything the timed part needs, produced by set-up.
struct Prepared {
    /// The largest hot model — the one the cold trickle varies — as a
    /// compile request, its artifact, and the disk cache that holds it.
    request: Request,
    compiled: rms_driver::Compiled,
    cache_dir: std::path::PathBuf,
    decay: rms_driver::Compiled,
    catalog: Catalog,
}

/// Write the sources, compile every hot model into the process cache the
/// server's workers share (the largest also into a disk cache for the timed
/// revivals) and run each directly for the reference results.
fn set_up(run: &Run<'_>) -> Result<Prepared, String> {
    rms_driver::cache::clear_memory();
    let write = |name: &str, text: &str| {
        run.inputs
            .write(name, text)
            .map_err(|e| format!("write input: {e}"))
    };
    let hot_paths: Vec<_> = HOT_CHAINS
        .iter()
        .map(|&chain| {
            write(
                &format!("serve/hot_{chain}.rdl"),
                &inputs::vulcanization_source(chain),
            )
        })
        .collect::<Result<_, _>>()?;
    let cache_dir = fresh_cache_dir(&run.out_dir, "serve_mix")?;
    let request = Request {
        model: Model::Source(hot_paths[mix().cold_model].clone()),
        sensitivity: false,
    };
    let (compiled, _) = request.compile(&Cache::Dir(cache_dir.clone()))?;
    let hot = hot_paths
        .iter()
        .enumerate()
        .map(|(i, path)| Direct::new(path, run.seed, &format!("hot-{i}")))
        .collect::<Result<Vec<_>, _>>()?;
    let decay = Request {
        model: Model::Source(write("serve/decay.rdl", inputs::CSSC_SOURCE)?),
        sensitivity: false,
    }
    .compile(&Cache::Memory)?
    .0;
    let radical = decay
        .artifact
        .network
        .species_iter()
        .map(|(_, s)| s.name.clone())
        .find(|name| name != "DiS")
        .ok_or("decay model has no radical")?;
    Ok(Prepared {
        request,
        compiled,
        cache_dir,
        decay,
        catalog: Catalog {
            hot,
            decay_source: inputs::CSSC_SOURCE.to_string(),
            decay_species: ["DiS".to_string(), radical],
            cold_serial: 0,
        },
    })
}

pub fn run(run: &mut Run<'_>) -> Result<(), String> {
    // Set-up is cheap here, so it is repeated and the median reported.
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..if run.traced() { 1 } else { 5 } {
        let (p, timed) = run
            .gauge
            .time(|| span(run.tracer, "setup", "harness", || set_up(run)));
        prepared = Some(p?);
        setups.push(timed);
    }
    describe("set-up", &setups);
    run.metrics.set("setup_s", typical(&setups));
    let Prepared {
        request,
        compiled,
        cache_dir,
        decay,
        mut catalog,
    } = prepared.expect("at least one set-up");

    let artifact = &compiled.artifact;
    let conservation = Conservation::of(artifact, run.seed);
    check_model(
        run,
        "serve_mix",
        artifact,
        &conservation,
        &artifact.system.rate_values,
    );
    check_model(
        run,
        "serve_mix-decay",
        &decay.artifact,
        &Conservation::of(&decay.artifact, run.seed),
        &decay.artifact.system.rate_values,
    );

    let workers = workers();
    let server = Server::start(ServerConfig {
        workers,
        ..ServerConfig::default()
    });
    let mut submitted = 0usize;

    // Windows of a closed loop with one client per worker, and the compiles
    // a cold job pays, so every kind of sample is spread over the whole run.
    // The mix is exact in every window, so a window's median latency is the
    // same jobs' every time.
    let windows = if run.traced() { 2 } else { run.reps(7, 3) };
    let mut samples = Samples::default();
    let mut closed = Vec::new();
    let (mut closed_p50, mut closed_per_job) = (Vec::new(), Vec::new());
    for window in 0..windows {
        let jobs = catalog.jobs(
            run,
            &format!("closed{window}"),
            workers * CLOSED_WINDOW_JOBS,
            None,
        )?;
        let (phase, timed) = run.gauge.time(|| {
            span(run.tracer, "phase:closed", "harness", || {
                closed_loop(&server, &jobs, workers)
            })
        });
        submitted += jobs.len();
        check_phase(run, &catalog, &jobs, &phase)?;
        // The window's median latency and its seconds per job, as measured
        // and with the machine speed around the window.
        closed_p50.push(Timed {
            seconds: stats::percentile(&latencies(&phase), 50.0) * 1e-3,
            ..timed
        });
        closed_per_job.push(Timed {
            seconds: phase.wall_s / jobs.len() as f64,
            ..timed
        });
        closed.push(phase);

        for child in 0..2 {
            let dir = fresh_cache_dir(&run.out_dir, &format!("serve_mix-{window}-{child}"))?;
            samples.cold_compile(run, &request, &dir)?;
        }
        for _ in 0..4 {
            samples.revived_compile(run, &request, &cache_dir)?;
        }
    }
    samples.report(run);
    describe("closed-loop median latency", &closed_p50);
    describe("closed-loop seconds per job", &closed_per_job);
    run.metrics.set("op_p50_ms", typical(&closed_p50) * 1e3);
    run.metrics.set("ops_per_s", 1.0 / typical(&closed_per_job));

    if run.traced() {
        serve_layer(run, &mut catalog, &server, &closed, &mut submitted)?;
    }

    // Every submission was either admitted or refused.
    let counters = server.drain();
    run.ledger
        .record(counters.admitted + counters.rejected == submitted, || {
            format!("{submitted} jobs submitted, but {counters:?}")
        });
    if run.traced() {
        run.metrics.set("serve.admitted", counters.admitted as f64);
        run.metrics
            .set("serve.succeeded", counters.succeeded as f64);
        run.metrics.set("serve.failed", counters.failed as f64);
        run.metrics.set("serve.rejected", counters.rejected as f64);
        run.metrics
            .set("serve.deadlines", counters.deadlines as f64);
        let cache = rms_driver::cache::stats();
        run.metrics.set("driver.cache_hits", cache.hits as f64);
        run.metrics.set("driver.cache_misses", cache.misses as f64);
        // The per-layer view of the model the cold trickle varies.
        let simulator = TapeSimulator::from_artifact(artifact, conservation.weights.clone());
        layer_probes(
            run,
            &request,
            &cache_dir,
            artifact,
            &simulator,
            &artifact.system.rate_values,
            &grid(1),
        )?;
    }
    Ok(())
}

/// Per-layer view of the server: the two open-loop phases, the split of
/// latency into queue wait and service, cache outcomes, and the parser alone.
fn serve_layer(
    run: &mut Run<'_>,
    catalog: &mut Catalog,
    server: &Server,
    closed: &[Phase],
    submitted: &mut usize,
) -> Result<(), String> {
    let mut open = |run: &mut Run<'_>, name: &str, rate: f64| -> Result<Phase, String> {
        let jobs = catalog.jobs(run, name, OPEN_JOBS, Some(rate))?;
        let start_s = run.tracer.map_or(0.0, |t| t.clock());
        let phase = span(run.tracer, &format!("phase:{name}"), "harness", || {
            let phase = open_loop(server, &jobs);
            record_jobs(run, start_s, &jobs, &phase);
            phase
        });
        *submitted += jobs.len();
        check_phase(run, catalog, &jobs, &phase)?;
        Ok(phase)
    };
    let mid = open(run, "mid", MID_JOBS_PER_S)?;
    let hi = open(run, "hi", HI_JOBS_PER_S)?;

    // The same closed loop without the per-job spans: tracing overhead.
    let again_jobs = catalog.jobs(run, "closed-untraced", closed[0].seen.len(), None)?;
    let tracer = run.tracer.take();
    let again = closed_loop(server, &again_jobs, workers());
    run.tracer = tracer;
    *submitted += again_jobs.len();
    check_phase(run, catalog, &again_jobs, &again)?;
    let traced_wall = stats::min(&closed.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    run.metrics.set(
        "harness.trace_overhead_share",
        traced_wall / again.wall_s - 1.0,
    );

    let hi_ms = latencies(&hi);
    run.metrics
        .set("serve.p50_ms_hi", stats::percentile(&hi_ms, 50.0));
    run.metrics
        .set("serve.p99_ms_hi", stats::percentile(&hi_ms, 99.0));
    run.metrics.set("serve.backlog_end", hi.backlog_end as f64);
    run.metrics.set(
        "serve.gen_lag_ms_max",
        mid.gen_lag_ms_max.max(hi.gen_lag_ms_max),
    );
    let mid_ms = latencies(&mid);
    run.metrics
        .set("serve.p50_ms_mid", stats::percentile(&mid_ms, 50.0));
    run.metrics
        .set("serve.p99_ms_mid", stats::percentile(&mid_ms, 99.0));

    // Queue wait is a job's latency minus the time its worker reports
    // having spent on it; read at the high rate, where queueing shows
    // first, with service read at the mid rate.
    let wait: Vec<f64> = hi
        .seen
        .iter()
        .flatten()
        .map(|s| (s.latency_ms - s.service_ms).max(0.0))
        .collect();
    let service: Vec<f64> = mid.seen.iter().flatten().map(|s| s.service_ms).collect();
    run.metrics
        .set("serve.queue_wait_ms_p50", stats::percentile(&wait, 50.0));
    run.metrics
        .set("serve.queue_wait_ms_p99", stats::percentile(&wait, 99.0));
    run.metrics
        .set("serve.service_ms_p50", stats::percentile(&service, 50.0));
    run.metrics
        .set("serve.service_ms_p99", stats::percentile(&service, 99.0));

    let every: Vec<&Seen> = closed
        .iter()
        .chain([&mid, &hi, &again])
        .flat_map(|p| p.seen.iter().flatten())
        .collect();
    let cold = every.iter().filter(|s| s.cache == "cold").count();
    run.metrics.set("serve.cold_compiles", cold as f64);
    run.metrics.set(
        "serve.cache_hit_share",
        1.0 - cold as f64 / every.len().max(1) as f64,
    );

    let line = &again_jobs[0].line;
    let parse_us = span(run.tracer, "probe:parse", "serve", || {
        crate::probes::time_per_call_us(0.01 * run.seconds, || {
            std::hint::black_box(JobRequest::parse(line).ok());
        })
    });
    run.metrics.set("serve.parse_us", parse_us);
    Ok(())
}
