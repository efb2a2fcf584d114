//! The repository's end-to-end benchmark: RDL text to trajectory, fitted
//! vector and served job, with per-layer attribution.
//!
//! ```text
//! rms-benchmark --workload W --seed N --seconds S --trace 0|1   one run, one result line
//! rms-benchmark run    [--seed N] [--seconds S]   every workload untraced, every end-to-end metric
//! rms-benchmark trace  [--seed N] [--seconds S]   every workload traced, every per-layer metric
//! rms-benchmark repeat [--sets K] [--runs R]      K sets of R runs, set medians against the bounds
//! rms-benchmark probe  [--seed N]                 determinism across two processes
//! rms-benchmark manifest                          print BENCHMARK.json
//! ```
//!
//! See `benchmark/README.md` for what each workload and metric is for.

mod compile;
mod gauge;
mod inputs;
mod json;
mod metrics;
mod orchestrate;
mod probe;
mod probes;
mod refs;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::{obj, Value};
use metrics::{RUN_SECONDS, WORKLOADS};
use trace::Tracer;

/// Where the harness writes: generated inputs, scratch caches, results and
/// traces all live under `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Run this executable again with `args` and parse the last line of its
/// stdout as JSON: how the harness gets a fresh process for a compile, a
/// probe or a whole workload. `show_stderr` passes the child's stderr
/// through (sample lists, failed checks) instead of keeping it for the error.
pub fn run_self(
    args: impl IntoIterator<Item = std::ffi::OsString>,
    show_stderr: bool,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = std::process::Command::new(exe);
    command.args(args);
    if show_stderr {
        command.stderr(std::process::Stdio::inherit());
    }
    let output = command.output().map_err(|e| format!("spawn child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "child exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    json::parse(line).map_err(|e| format!("child's last line: {e}"))
}

/// `--key value` options after the subcommand.
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sets: usize,
    pub runs: usize,
}

/// The seed `run`, `trace`, `repeat` and `probe` use when none is given.
const DEFAULT_SEED: u64 = 20070326;

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        sets: 2,
        runs: 3,
    };
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        let bad = |what: &str| format!("{key}: '{value}' is not {what}");
        match key.as_str() {
            "--workload" => {
                if !WORKLOADS.iter().any(|w| w.name == value) {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload '{value}' (expected one of {})",
                        names.join(", ")
                    ));
                }
                options.workload = Some(value.clone());
            }
            "--seed" => options.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                options.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--sets" => {
                options.sets = value
                    .parse()
                    .ok()
                    .filter(|s| *s >= 2)
                    .ok_or_else(|| bad("a whole number of at least 2"))?
            }
            "--runs" => {
                options.runs = value
                    .parse()
                    .ok()
                    .filter(|r| *r >= 1)
                    .ok_or_else(|| bad("a whole number of at least 1"))?
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(options)
}

/// One run of one workload: the driver's contract. Prints the result line
/// as the last line of stdout.
fn run_one(options: &Options) -> Result<(), String> {
    let name = options
        .workload
        .as_deref()
        .ok_or("--workload is required")?;
    let tracer = options.trace.then(Tracer::new);
    let mut run = workloads::new_run(options.seed, options.seconds, out_dir(), tracer.as_ref())?;
    trace::span(
        tracer.as_ref(),
        &format!("workload:{name}"),
        "harness",
        || workloads::dispatch(name, &mut run),
    )?;

    if let Some(tracer) = &tracer {
        let spans = tracer.spans();
        let root = spans[0].end_s - spans[0].start_s;
        let layers: f64 = trace::layer_self_times(&spans).values().sum();
        run.metrics.set("harness.layer_self_share", layers / root);
        let path = out_dir().join(format!("trace-{name}.json"));
        std::fs::write(&path, trace::to_json(name, &spans).to_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let ledger = &run.ledger;
    run.metrics.set(
        "harness.fail_share",
        ledger.failed as f64 / ledger.attempted.max(1) as f64,
    );
    let line = obj([
        ("correct", (ledger.failed == 0).into()),
        ("attempted", Value::Num(ledger.attempted.max(1) as f64)),
        ("failed", Value::Num(ledger.failed as f64)),
        ("metrics", run.metrics.to_json()?),
    ]);
    println!("{}", line.to_json());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(first) if !first.starts_with("--") => (first, &args[1..]),
        _ => ("", &args[..]),
    };
    let outcome = match command {
        "child-compile" => compile::child_main(rest),
        "probe-child" => parse_options(rest).and_then(|o| probe::child_main(&o)),
        "gauge" => parse_options(rest).map(|o| {
            // How steady is this machine? Readings of the reference
            // kernel for `--seconds`, against the reference speed.
            let gauge = gauge::Gauge::new();
            let clock = std::time::Instant::now();
            let mut readings = Vec::new();
            while clock.elapsed().as_secs_f64() < o.seconds {
                readings.push(gauge.read() * 1e3);
            }
            println!(
                "reference kernel: {} readings, min {:.4} ms, median {:.4} ms, max {:.4} ms; reference {:.4} ms",
                readings.len(),
                stats::min(&readings),
                stats::median(&readings),
                stats::max(&readings),
                gauge::REFERENCE * 1e3
            );
        }),
        "manifest" => {
            println!("{}", orchestrate::pretty(&metrics::manifest()));
            Ok(())
        }
        "" => parse_options(rest).and_then(|o| run_one(&o)),
        "run" => parse_options(rest).and_then(|o| orchestrate::run_all(&o, false)),
        "trace" => parse_options(rest).and_then(|o| orchestrate::run_all(&o, true)),
        "repeat" => parse_options(rest).and_then(|o| orchestrate::repeat(&o)),
        "probe" => parse_options(rest).and_then(|o| probe::main(&o)),
        other => Err(format!(
            "unknown command '{other}' (expected run, trace, repeat, probe or manifest)"
        )),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("rms-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
