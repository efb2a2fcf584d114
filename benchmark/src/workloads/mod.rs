//! The four workloads and what they share: the run context, the operation
//! and output-check ledger, and the checks every compiled model gets.

pub mod frontier;
pub mod rdl_fit;
pub mod serve_mix;
pub mod vulc5k;

use std::path::{Path, PathBuf};
use std::time::Instant;

use rms_driver::{Compiled, CompiledArtifact};
use rms_parallel::Simulator;
use rms_workload::TapeSimulator;

use crate::compile::{self, fresh_cache_dir, Cache, Request};
use crate::gauge::{Gauge, Timed};
use crate::inputs::{self, InputDir, Rng};
use crate::json::Value;
use crate::metrics::{Kind, Metrics, RUN_SECONDS};
use crate::probes;
use crate::refs::{self, MassAction};
use crate::stats;
use crate::trace::{span, Tracer};

/// Operations attempted and failed: every compile, trajectory, LM
/// iteration, fit and job counts once, and so does every output check.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
}

impl Ledger {
    /// Count one operation or check; a failure is reported on stderr so the
    /// result line stays the last line of stdout.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }
}

/// Everything one run of one workload carries.
pub struct Run<'a> {
    pub seed: u64,
    /// Seconds the run is asked to measure for.
    pub seconds: f64,
    /// `benchmark/out`.
    pub out_dir: PathBuf,
    pub inputs: InputDir,
    /// `Some` in the traced run.
    pub tracer: Option<&'a Tracer>,
    pub metrics: Metrics,
    pub ledger: Ledger,
    /// Machine-speed readings that bracket every timed sample.
    pub gauge: Gauge,
}

impl Run<'_> {
    pub fn traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// Repetitions of a timed operation: `nominal` at the declared
    /// `run_seconds`, scaled with `--seconds`, never below `floor`.
    /// Repetitions shrink with the budget; sizes never do.
    pub fn reps(&self, nominal: usize, floor: usize) -> usize {
        let scaled = (nominal as f64 * self.seconds / RUN_SECONDS as f64).round() as usize;
        scaled.max(floor)
    }
}

/// The value a set of repetitions of identical work reports: the median of
/// the samples, each at the reference machine speed (see [`crate::gauge`]).
/// Samples of every kind are interleaved across the run, so each kind sees
/// the whole run's weather.
pub fn typical(samples: &[Timed]) -> f64 {
    stats::median(&samples.iter().map(Timed::at_reference).collect::<Vec<_>>())
}

/// The timed samples of one run: cold and cache-revived compiles in child
/// processes, and the headline operation per input item and repetition.
#[derive(Default)]
pub struct Samples {
    cold: Vec<(Value, Timed)>,
    revived: Vec<(Value, Timed)>,
    /// Each repetition, per item.
    ops: Vec<Vec<Timed>>,
    /// The same repetitions again with tracing off (traced run only).
    untraced: Vec<Vec<Timed>>,
}

/// The seconds a compile child reports for the driver call, with the
/// machine speed the parent read around the child.
fn child_timed(seen: &Value, around: Timed) -> Timed {
    Timed {
        seconds: seen.num("seconds").unwrap_or(f64::NAN),
        local: around.local,
    }
}

impl Samples {
    /// Compile in a fresh process against the empty cache directory `dir`:
    /// what a first `rmsc --cache-dir` invocation pays, persisting
    /// included. In the traced run the child's stage records become spans
    /// and the compile-stage per-layer metrics.
    pub fn cold_compile(
        &mut self,
        run: &mut Run<'_>,
        request: &Request,
        dir: &Path,
    ) -> Result<(), String> {
        let (seen, around) = run.gauge.time(|| {
            let start_s = run.tracer.map_or(0.0, Tracer::clock);
            span(run.tracer, "compile:cold", "driver", || {
                let seen = request
                    .compile_in_child(&Cache::Dir(dir.to_path_buf()), Some(&contents_path(dir)))?;
                if let Some(tracer) = run.tracer {
                    compile::report_stages(&seen, tracer, start_s, &mut run.metrics);
                    let shares: Vec<String> = compile::layer_shares(&seen)
                        .iter()
                        .map(|(layer, share)| format!("{layer} {:.1}%", share * 100.0))
                        .collect();
                    eprintln!("cold compile by layer: {}", shares.join(", "));
                }
                Ok::<_, String>(seen)
            })
        });
        let cold =
            matches!(&seen, Ok(s) if s.get("status").and_then(Value::as_str) == Some("cold"));
        run.ledger.record(cold, || {
            format!("cold compile in a fresh process: {seen:?}")
        });
        let seen = seen?;
        let timed = child_timed(&seen, around);
        self.cold.push((seen, timed));
        Ok(())
    }

    /// The same call in a fresh process against the populated `dir`: what
    /// a second invocation pays.
    pub fn revived_compile(
        &mut self,
        run: &mut Run<'_>,
        request: &Request,
        dir: &Path,
    ) -> Result<(), String> {
        let (seen, around) = run.gauge.time(|| {
            span(run.tracer, "compile:revive", "driver", || {
                request.compile_in_child(&Cache::Dir(dir.to_path_buf()), None)
            })
        });
        let disk =
            matches!(&seen, Ok(s) if s.get("status").and_then(Value::as_str) == Some("disk"));
        run.ledger.record(disk, || {
            format!("second compile against the cache was not a disk hit: {seen:?}")
        });
        let seen = seen?;
        run.metrics
            .set("driver.disk_hit_s", seen.num("seconds").unwrap_or(0.0));
        run.metrics.set(
            "driver.cache_disk_hits",
            seen.num("cache_disk_hits").unwrap_or(0.0),
        );
        run.metrics
            .set("driver.quarantines", seen.num("quarantines").unwrap_or(0.0));
        let timed = child_timed(&seen, around);
        self.revived.push((seen, timed));
        Ok(())
    }

    /// Time one repetition of the headline operation on input `item`. In
    /// the traced run it is repeated with tracing off, to price the spans.
    pub fn op(
        &mut self,
        run: &mut Run<'_>,
        item: usize,
        name: &str,
        layer: &'static str,
        mut body: impl FnMut(&mut Run<'_>),
    ) {
        if self.ops.len() <= item {
            self.ops.resize(item + 1, Vec::new());
            self.untraced.resize(item + 1, Vec::new());
        }
        let before = run.gauge.read();
        let (_, seconds) = timed(run.tracer, name, layer, || body(run));
        let mut after = run.gauge.read();
        self.ops[item].push(Timed {
            seconds,
            local: 0.5 * (before + after),
        });
        if let Some(tracer) = run.tracer.take() {
            let before = after;
            let clock = Instant::now();
            body(run);
            let seconds = clock.elapsed().as_secs_f64();
            after = run.gauge.read();
            self.untraced[item].push(Timed {
                seconds,
                local: 0.5 * (before + after),
            });
            run.tracer = Some(tracer);
        }
    }

    /// Turn the samples into the run's end-to-end metrics.
    pub fn report(self, run: &mut Run<'_>) {
        let timed =
            |obs: &[(Value, Timed)]| -> Vec<Timed> { obs.iter().map(|(_, t)| *t).collect() };
        if !self.cold.is_empty() && !self.revived.is_empty() {
            describe("cold compile", &timed(&self.cold));
            describe("cache-revived compile", &timed(&self.revived));
            let rss: Vec<f64> = self
                .cold
                .iter()
                .map(|(seen, _)| seen.num("peak_rss_mib").unwrap_or(f64::NAN))
                .collect();
            let compile_s = typical(&timed(&self.cold));
            let recompile_s = typical(&timed(&self.revived));
            run.metrics.set("compile_s", compile_s);
            run.metrics.set("recompile_s", recompile_s);
            run.metrics.set("peak_rss_mb", stats::median(&rss));
        }
        if self.ops.is_empty() {
            return;
        }
        // Per input the median repetition; across inputs the median again.
        // One client runs the operations back to back, so throughput is
        // inputs over the sum of their times.
        for (item, reps) in self.ops.iter().enumerate().take(2) {
            describe(&format!("operation on input {item}"), reps);
        }
        let per_item: Vec<f64> = self.ops.iter().map(|reps| typical(reps)).collect();
        let mut overhead = None;
        if self.untraced.iter().all(|reps| !reps.is_empty()) {
            let bare: f64 = self.untraced.iter().map(|reps| typical(reps)).sum();
            overhead = Some(per_item.iter().sum::<f64>() / bare - 1.0);
        }
        run.metrics.set("op_p50_ms", stats::median(&per_item) * 1e3);
        run.metrics.set(
            "ops_per_s",
            per_item.len() as f64 / per_item.iter().sum::<f64>(),
        );
        if let Some(share) = overhead {
            run.metrics.set("harness.trace_overhead_share", share);
        }
    }
}

/// One line on stderr per timed sample set: the value reported, then
/// every sample as measured with the slowdown the gauge read around it.
pub fn describe(what: &str, samples: &[Timed]) {
    let shown: Vec<String> = samples
        .iter()
        .map(|t| format!("{:.4}/x{:.2}", t.seconds, t.slowdown()))
        .collect();
    eprintln!(
        "{what}: n={} median {:.4} s at reference speed; measured s / slowdown: {}",
        samples.len(),
        typical(samples),
        shown.join(" ")
    );
}

/// Run `body` inside a span (when tracing) and return its result with the
/// seconds it took.
pub fn timed<T>(
    tracer: Option<&Tracer>,
    name: &str,
    layer: &'static str,
    body: impl FnOnce() -> T,
) -> (T, f64) {
    let clock = Instant::now();
    let out = span(tracer, name, layer, body);
    (out, clock.elapsed().as_secs_f64())
}

/// Where a cold-compile child leaves the species' contents, beside the
/// cache entry it populated.
fn contents_path(cache_dir: &Path) -> PathBuf {
    cache_dir.join("species-contents.txt")
}

/// Observable weights under which a trajectory's reported value is a
/// conserved total: a seeded positive mix of every conserved quantity, so
/// the value stays constant exactly when each quantity does.
pub struct Conservation {
    pub weights: Vec<f64>,
    /// The mix's total at the model's initial state.
    pub total: f64,
    /// Quantities some reaction does not conserve.
    pub dropped: Vec<String>,
}

impl Conservation {
    /// `contents` is what each species holds of every countable quantity
    /// (see [`refs::species_contents`]).
    pub fn new(
        artifact: &CompiledArtifact,
        contents: Vec<(String, Vec<f64>)>,
        seed: u64,
    ) -> Conservation {
        let (rows, dropped) = refs::conserved_quantities(&artifact.network, contents);
        let mut rng = Rng::stream(seed, "conservation-mix");
        let mut weights = vec![0.0; artifact.system.len()];
        for (_, row) in &rows {
            let c = rng.uniform(0.5, 1.5);
            for (w, x) in weights.iter_mut().zip(row) {
                *w += c * x;
            }
        }
        let total = weights
            .iter()
            .zip(&artifact.system.initial)
            .map(|(w, y)| w * y)
            .sum();
        Conservation {
            weights,
            total,
            dropped,
        }
    }

    /// For an artifact compiled in this process, whose network still
    /// carries the species' structures.
    pub fn of(artifact: &CompiledArtifact, seed: u64) -> Conservation {
        Conservation::new(artifact, refs::species_contents(&artifact.network), seed)
    }
}

/// A model revived into this process and ready to integrate.
pub struct Warm {
    pub compiled: Compiled,
    /// Observes the conserved total of `conservation`.
    pub simulator: TapeSimulator,
    pub conservation: Conservation,
}

/// The first round's cold compile and the set-up of the compile-heavy
/// workloads on top of it: revive the artifact the compile left in its
/// cache directory and build the simulator over it, three times over from
/// an empty memory cache, and report `setup_s` (with `generate_s`, the
/// input generation before it). Returns the model and the directory, which
/// the timed revivals read too.
pub fn first_compile(
    run: &mut Run<'_>,
    samples: &mut Samples,
    request: &Request,
    label: &str,
    generate_s: f64,
) -> Result<(Warm, PathBuf), String> {
    let dir = fresh_cache_dir(&run.out_dir, &format!("{label}-0"))?;
    samples.cold_compile(run, request, &dir)?;
    let mut last = None;
    let mut repetitions = Vec::new();
    for _ in 0..3 {
        rms_driver::cache::clear_memory();
        let (warm, timed) = run.gauge.time(|| {
            span(run.tracer, "setup:revive", "harness", || {
                let (compiled, _) = request.compile(&Cache::Dir(dir.clone()))?;
                // A revived artifact carries no structures; the child that
                // compiled it left their contents beside the cache entry.
                let path = contents_path(&dir);
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("read {}: {e}", path.display()))?;
                let contents = refs::contents_from_text(&text)?;
                let conservation = Conservation::new(&compiled.artifact, contents, run.seed);
                let simulator =
                    TapeSimulator::from_artifact(&compiled.artifact, conservation.weights.clone());
                Ok::<_, String>(Warm {
                    compiled,
                    simulator,
                    conservation,
                })
            })
        });
        let warm = warm?;
        let status = warm.compiled.status;
        run.ledger
            .record(status == rms_driver::CacheStatus::Disk, || {
                format!("set-up was a {} compile, not a disk revival", status.name())
            });
        repetitions.push(timed);
        last = Some(warm);
    }
    describe("set-up (cache revival)", &repetitions);
    run.metrics
        .set("setup_s", generate_s + typical(&repetitions));
    Ok((last.expect("three repetitions ran"), dir))
}

/// `points` evenly spaced output times ending at `horizon`.
pub fn even_times(horizon: f64, points: usize) -> Vec<f64> {
    (1..=points)
        .map(|i| horizon * i as f64 / points as f64)
        .collect()
}

/// Cores this process may use.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// How far a conserved total may drift along a trajectory, as a share of
/// it: ten times the relative tolerance the simulator integrates at. (At
/// the seed commit the BDF start-up transient moves element totals by
/// 2–5·10⁻⁶ at `rtol = 10⁻⁶` and then holds them to 10⁻¹¹; see the README.)
pub fn drift_tolerance(simulator: &TapeSimulator) -> f64 {
    10.0 * simulator.options.rtol
}

/// Whether every reported value of a trajectory observed through
/// conserved weights stayed within `tolerance` (relative) of `total`.
pub fn stays_at(values: &[f64], total: f64, tolerance: f64) -> bool {
    values
        .iter()
        .all(|v| (v - total).abs() <= tolerance * total.abs())
}

/// Output checks every compiled model gets: its reactions conserve at
/// least one countable quantity it holds, and the compiled tape's right-hand side
/// equals the hand-written mass-action evaluator to 1e-10 of each species'
/// flow at three seeded states.
pub fn check_model(
    run: &mut Run<'_>,
    label: &str,
    artifact: &CompiledArtifact,
    conservation: &Conservation,
    rates: &[f64],
) {
    if !conservation.dropped.is_empty() {
        eprintln!(
            "{label}: some reaction does not conserve {}",
            conservation.dropped.join(", ")
        );
    }
    // A total of zero would make every trajectory check pass vacuously.
    run.ledger.record(conservation.total > 0.0, || {
        format!("{label}: no countable quantity is conserved by every reaction")
    });
    let reference = match MassAction::new(&artifact.network, &artifact.rates) {
        Ok(r) => r,
        Err(e) => {
            run.ledger.record(false, || format!("{label}: {e}"));
            return;
        }
    };
    let n = artifact.system.len();
    let mut got = vec![0.0; n];
    let mut frame = rms_core::ExecFrame::new();
    for (i, y) in inputs::states(run.seed, label, n, 3).iter().enumerate() {
        artifact.compiled.tape.eval(rates, y, &mut got);
        let mut worst = reference.worst_relative_error(rates, y, &got);
        // The decoded form is what the solvers evaluate.
        if let Some(exec) = &artifact.exec {
            exec.eval(rates, y, &mut got, &mut frame);
            worst = worst.max(reference.worst_relative_error(rates, y, &got));
        }
        run.ledger.record(worst <= 1e-10, || {
            format!("{label}: tape RHS deviates from mass action by {worst:e} at state {i}")
        });
    }
}

/// The traced run's per-layer view of one compiled model: a memory-layer
/// cache hit, one trajectory through the simulator and one through the
/// solver alone, and the kernel, solver and molecule probes. Returns the
/// plain trajectory's seconds.
pub fn layer_probes(
    run: &mut Run<'_>,
    request: &Request,
    cache_dir: &Path,
    artifact: &CompiledArtifact,
    simulator: &TapeSimulator,
    rates: &[f64],
    times: &[f64],
) -> Result<f64, String> {
    let tracer = run.tracer.ok_or("layer probes need a tracer")?;
    // A budget per timing loop: 2 % of the run, so the probes of one model
    // stay under a fifth of it.
    let budget_s = 0.02 * run.seconds;

    // The artifact is in this process's memory layer since set-up; only
    // the driver call is timed, not loading the model for it.
    let cache = Cache::Dir(cache_dir.to_path_buf());
    let hits = span(run.tracer, "compile:memory_hit", "driver", || {
        (0..5)
            .map(|_| request.compile(&cache).map(|(_, seconds)| seconds * 1e6))
            .collect::<Result<Vec<f64>, String>>()
    })?;
    run.metrics.set("driver.mem_hit_us", stats::median(&hits));
    let counters = rms_driver::cache::stats();
    run.metrics.set("driver.cache_hits", counters.hits as f64);
    run.metrics
        .set("driver.cache_misses", counters.misses as f64);

    let (values, simulate_s) = timed(run.tracer, "simulate", "workload", || {
        simulator.simulate(rates, 0, times)
    });
    run.ledger
        .record(values.is_ok(), || "traced trajectory".to_string());
    let y0 = &simulator.initials[0];
    let (bare, _) = timed(run.tracer, "solve", "solver", || {
        probes::bare_solve(artifact, rates, y0, times, simulator.options)
    });
    let bare = bare?;
    run.metrics
        .set("workload.simulate_overhead_s", simulate_s - bare.seconds);
    let hops = simulator.fallback_stats();
    run.metrics.set(
        "workload.fallback_hops",
        (hops.bdf_failures + hops.tightened_recoveries + hops.rk45_recoveries) as f64,
    );

    let costs = probes::kernels(
        artifact,
        rates,
        &bare.states,
        budget_s,
        tracer,
        &mut run.metrics,
    )?;
    probes::solver(
        artifact,
        rates,
        &bare,
        &costs,
        budget_s,
        tracer,
        &mut run.metrics,
    )?;
    probes::molecules(&artifact.network, budget_s, tracer, &mut run.metrics);
    Ok(simulate_s)
}

/// Start a run's context.
pub fn new_run<'a>(
    seed: u64,
    seconds: f64,
    out_dir: PathBuf,
    tracer: Option<&'a Tracer>,
) -> Result<Run<'a>, String> {
    let inputs = InputDir::create(&out_dir, seed).map_err(|e| format!("input directory: {e}"))?;
    Ok(Run {
        seed,
        seconds,
        out_dir,
        inputs,
        tracer,
        metrics: Metrics::new(if tracer.is_some() {
            Kind::PerLayer
        } else {
            Kind::EndToEnd
        }),
        ledger: Ledger::default(),
        gauge: Gauge::new(),
    })
}

/// Run the named workload.
pub fn dispatch(name: &str, run: &mut Run<'_>) -> Result<(), String> {
    match name {
        "frontier" => frontier::run(run),
        "vulc5k" => vulc5k::run(run),
        "rdl_fit" => rdl_fit::run(run),
        "serve_mix" => serve_mix::run(run),
        other => Err(format!("unknown workload '{other}'")),
    }
}
