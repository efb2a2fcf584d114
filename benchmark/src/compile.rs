//! Compiling a workload's model, in this process or in a fresh child.
//!
//! `compile_s`, `recompile_s` and `peak_rss_mb` are what a separate `rmsc`
//! invocation pays, so each timed compile runs in a fresh child process of
//! the harness: it times the one driver call, reads its own peak resident
//! set and prints an observation line the parent parses. The same
//! observation is built for compiles the parent makes itself, so both
//! kinds feed the per-layer metrics and the trace the same way.

use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::time::Instant;

use rms_driver::{
    cache, CacheMode, Compiled, CompilerSession, Diagnostic, OptLevel, PipelineReport,
    SessionOptions,
};

use crate::json::{obj, Value};
use crate::metrics::Metrics;
use crate::trace::Tracer;

/// What to compile.
#[derive(Debug, Clone)]
pub enum Model {
    /// RDL text in a generated input file.
    Source(PathBuf),
    /// EXPERIMENTS.md Table 1 case 4 at 1/25: a prebuilt network, so the
    /// pipeline starts at the equation generator.
    Vulc5k,
}

/// Table 1 case and scale of the `vulc5k` workload.
pub const VULC_CASE: usize = 4;
pub const VULC_SCALE: usize = 25;

/// How the compile meets the artifact cache.
#[derive(Debug, Clone)]
pub enum Cache {
    /// Never look, never store: a cold compile.
    Bypass,
    /// The product's default mode with no directory: the process-wide
    /// memory layer, which is how the server's jobs meet it.
    Memory,
    /// The product's default mode over this directory.
    Dir(PathBuf),
}

/// The compile request of one workload: the product's defaults at full
/// optimization, plus the derivative tapes the workload's solves need.
#[derive(Debug, Clone)]
pub struct Request {
    pub model: Model,
    /// Also compile the parameter-sensitivity tapes (the fitting
    /// workloads); the state Jacobian is always compiled.
    pub sensitivity: bool,
}

impl Request {
    fn session(&self, cache: &Cache) -> CompilerSession {
        let mut options = SessionOptions::new(OptLevel::Full);
        options.deriv = true;
        options.sensitivity = self.sensitivity;
        match cache {
            Cache::Bypass => options.cache = CacheMode::Bypass,
            Cache::Memory => {}
            Cache::Dir(dir) => options.cache_dir = Some(dir.clone()),
        }
        CompilerSession::with_options(options)
    }

    /// Compile in this process; returns the artifact and the seconds the
    /// one driver call took. Loading the input is not timed.
    pub fn compile(&self, cache: &Cache) -> Result<(Compiled, f64), String> {
        let session = self.session(cache);
        let render = |d: Diagnostic, source: &str| d.render("<benchmark>", source);
        match &self.model {
            Model::Source(path) => {
                let source = std::fs::read_to_string(path)
                    .map_err(|e| format!("read {}: {e}", path.display()))?;
                let name = path
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                let clock = Instant::now();
                let compiled = session
                    .compile_source(&name, &source)
                    .map_err(|d| render(d, &source))?;
                Ok((compiled, clock.elapsed().as_secs_f64()))
            }
            Model::Vulc5k => {
                let model = rms_workload::scaled_case(VULC_CASE, VULC_SCALE);
                let clock = Instant::now();
                let compiled = session
                    .compile_network("vulc5k", model.network, model.rates)
                    .map_err(|d| render(d, ""))?;
                Ok((compiled, clock.elapsed().as_secs_f64()))
            }
        }
    }

    /// Compile in a fresh child process and return its observation. The
    /// child also writes what each species holds of every countable
    /// quantity to `contents`, when given: it is the last process to see
    /// the species' structures, which a cached artifact drops.
    pub fn compile_in_child(
        &self,
        cache: &Cache,
        contents: Option<&Path>,
    ) -> Result<Value, String> {
        let mut args: Vec<OsString> = vec!["child-compile".into()];
        match &self.model {
            Model::Source(path) => args.extend(["--source".into(), path.into()]),
            Model::Vulc5k => args.push("--vulc5k".into()),
        }
        if self.sensitivity {
            args.push("--sensitivity".into());
        }
        match cache {
            Cache::Bypass => {}
            Cache::Memory => return Err("a child shares no memory cache".to_string()),
            Cache::Dir(dir) => args.extend(["--cache-dir".into(), dir.into()]),
        }
        if let Some(path) = contents {
            args.extend(["--contents".into(), path.into()]);
        }
        crate::run_self(args, false).map_err(|e| format!("compile child: {e}"))
    }
}

/// Entry point of the `child-compile` subcommand.
pub fn child_main(args: &[String]) -> Result<(), String> {
    let mut model = None;
    let mut sensitivity = false;
    let mut cache = Cache::Bypass;
    let mut contents = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--source" => model = Some(Model::Source(PathBuf::from(value()?))),
            "--vulc5k" => model = Some(Model::Vulc5k),
            "--sensitivity" => sensitivity = true,
            "--cache-dir" => cache = Cache::Dir(PathBuf::from(value()?)),
            "--contents" => contents = Some(PathBuf::from(value()?)),
            other => return Err(format!("child-compile: unknown argument '{other}'")),
        }
    }
    let request = Request {
        model: model.ok_or_else(|| "child-compile needs --source or --vulc5k".to_string())?,
        sensitivity,
    };
    let (compiled, seconds) = request.compile(&cache)?;
    // Read the peak before the harness's own bookkeeping below adds to it.
    let seen = observe(&compiled, seconds);
    if let Some(path) = contents {
        let rows = crate::refs::species_contents(&compiled.artifact.network);
        std::fs::write(&path, crate::refs::contents_to_text(&rows))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!("{}", seen.to_json());
    Ok(())
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where `/proc`
/// does not say.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What one compile looked like from outside: wall time of the driver
/// call, cache outcome, peak memory of the process, and the pipeline
/// report the driver attaches to every artifact.
pub fn observe(compiled: &Compiled, seconds: f64) -> Value {
    let artifact = &compiled.artifact;
    let report: &PipelineReport = &artifact.report;
    let stats = cache::stats();
    let counts = &report.counts;
    obj([
        ("seconds", seconds.into()),
        ("status", compiled.status.name().into()),
        ("peak_rss_mib", peak_rss_mib().into()),
        ("artifact_bytes", (artifact.approx_bytes() as f64).into()),
        ("species", report.species.into()),
        ("reactions", report.reactions.into()),
        ("rates", report.rates.into()),
        ("warnings", artifact.warnings.len().into()),
        ("ops_in", counts.input.total().into()),
        ("mults_after_cse", counts.after_cse.mults.into()),
        ("adds_after_cse", counts.after_cse.adds.into()),
        ("ops_out", counts.tape.total().into()),
        ("cache_hits", (stats.hits as f64).into()),
        ("cache_disk_hits", (stats.disk_hits as f64).into()),
        ("cache_misses", (stats.misses as f64).into()),
        ("quarantines", (stats.quarantines as f64).into()),
        (
            "stages",
            Value::Arr(
                report
                    .stages
                    .iter()
                    .map(|record| {
                        let mut fields = vec![
                            ("stage".to_string(), Value::from(record.stage.name())),
                            ("seconds".to_string(), Value::from(record.seconds)),
                        ];
                        fields.extend(
                            record
                                .metrics
                                .iter()
                                .map(|(name, value)| (name.clone(), Value::from(*value))),
                        );
                        Value::Obj(fields)
                    })
                    .collect(),
            ),
        ),
    ])
}

fn stage<'a>(observation: &'a Value, name: &str) -> Option<&'a Value> {
    observation
        .get("stages")?
        .as_arr()?
        .iter()
        .find(|s| s.get("stage").and_then(Value::as_str) == Some(name))
}

/// A stage field (`seconds` or one of its metrics), 0 when the stage did
/// not run or does not report it.
pub fn stage_value(observation: &Value, stage_name: &str, field: &str) -> f64 {
    stage(observation, stage_name)
        .and_then(|s| s.get(field))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// Which layer a pipeline stage is charged to.
fn stage_layer(stage_name: &str) -> &'static str {
    match stage_name {
        "parse" | "expand" | "network" => "rdl",
        "rcip" => "rcip",
        "odegen" => "odegen",
        _ => "core",
    }
}

/// Share of a cold compile spent in each layer's stages; what is left is
/// the driver's own.
pub fn layer_shares(observation: &Value) -> Vec<(&'static str, f64)> {
    let total = observation
        .num("seconds")
        .unwrap_or(0.0)
        .max(f64::MIN_POSITIVE);
    let mut shares: Vec<(&'static str, f64)> = Vec::new();
    let stages = observation
        .get("stages")
        .and_then(Value::as_arr)
        .unwrap_or(&[]);
    for s in stages {
        let layer = stage_layer(s.get("stage").and_then(Value::as_str).unwrap_or(""));
        let seconds = s.num("seconds").unwrap_or(0.0);
        match shares.iter_mut().find(|(l, _)| *l == layer) {
            Some((_, sum)) => *sum += seconds / total,
            None => shares.push((layer, seconds / total)),
        }
    }
    let staged: f64 = shares.iter().map(|(_, s)| s).sum();
    shares.push(("driver", (1.0 - staged).max(0.0)));
    shares
}

/// Per-layer metrics read straight off the observation: the metric, then
/// the stage and field it comes from (stage `""` is the observation itself).
const STAGE_METRICS: [(&str, &str, &str); 31] = [
    ("molecule.canonicalizations", "network", "canonicalizations"),
    (
        "molecule.prefilter_hit_rate",
        "network",
        "prefilter_hit_rate",
    ),
    ("rdl.parse_s", "parse", "seconds"),
    ("rdl.expand_s", "expand", "seconds"),
    ("rdl.network_s", "network", "seconds"),
    ("rdl.gen_max_s", "network", "gen_max_seconds"),
    ("rdl.species", "network", "species"),
    ("rdl.reactions", "network", "reactions"),
    ("rdl.rule_applications", "network", "rule_applications"),
    ("rdl.generations", "network", "generations"),
    ("rdl.peak_frontier", "network", "peak_frontier"),
    ("rcip.attach_s", "rcip", "seconds"),
    ("rcip.distinct_rates", "rcip", "distinct"),
    ("odegen.generate_s", "odegen", "seconds"),
    ("odegen.terms", "odegen", "terms"),
    ("odegen.ir_nodes", "odegen", "ir_nodes"),
    ("core.simplify_s", "simplify", "seconds"),
    ("core.distribute_s", "distribute", "seconds"),
    ("core.cse_s", "cse", "seconds"),
    ("core.deriv_s", "deriv", "seconds"),
    ("core.lower_s", "lower", "seconds"),
    ("core.exec_decode_s", "exec-decode", "seconds"),
    ("core.ops_in", "", "ops_in"),
    ("core.ops_out", "", "ops_out"),
    ("core.tape_instrs", "lower", "instrs"),
    ("core.exec_instrs", "exec-decode", "instrs"),
    ("core.fused", "exec-decode", "fused"),
    ("core.jac_nnz", "deriv", "nnz"),
    ("core.sens_entries", "deriv", "dfdp_nnz"),
    ("core.ir_nodes_after_cse", "cse", "ir_nodes"),
    ("driver.artifact_bytes", "", "artifact_bytes"),
];

/// The [`STAGE_METRICS`] of one compile.
pub fn stage_metrics(observation: &Value) -> impl Iterator<Item = (&'static str, f64)> + '_ {
    STAGE_METRICS.iter().map(move |&(metric, stage, field)| {
        let value = match stage {
            "" => observation.num(field).unwrap_or(0.0),
            stage => stage_value(observation, stage, field),
        };
        (metric, value)
    })
}

/// Re-emit a cold compile's stage records as child spans of the innermost
/// open span (the harness's compile span), laid end to end from
/// `start_s`, and record the compile-stage per-layer metrics.
pub fn report_stages(observation: &Value, tracer: &Tracer, start_s: f64, metrics: &mut Metrics) {
    let mut at = start_s;
    for s in observation
        .get("stages")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
    {
        let name = s.get("stage").and_then(Value::as_str).unwrap_or("?");
        let seconds = s.num("seconds").unwrap_or(0.0);
        tracer.record(&format!("stage:{name}"), stage_layer(name), at, seconds);
        at += seconds;
    }
    for (metric, value) in stage_metrics(observation) {
        metrics.set(metric, value);
    }
    // Derived: closure rate, what the optimizer left, and what the compile
    // call spent outside its stages (fingerprint, persist).
    let top = |field: &str| observation.num(field).unwrap_or(0.0);
    let network_s = stage_value(observation, "network", "seconds");
    if network_s > 0.0 {
        metrics.set(
            "rdl.species_per_s",
            stage_value(observation, "network", "species") / network_s,
        );
    }
    if top("ops_in") > 0.0 {
        metrics.set("core.ops_remaining_share", top("ops_out") / top("ops_in"));
    }
    metrics.set(
        "driver.overhead_s",
        (top("seconds") - (at - start_s)).max(0.0),
    );
}

/// A scratch cache directory under the run's output directory, emptied.
pub fn fresh_cache_dir(out_dir: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = out_dir.join("cache").join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observation_carries_the_pipeline_report() {
        let dir = std::env::temp_dir().join(format!("rms-bench-compile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cssc.rdl");
        std::fs::write(&path, crate::inputs::CSSC_SOURCE).unwrap();
        let request = Request {
            model: Model::Source(path),
            sensitivity: true,
        };
        let (compiled, seconds) = request.compile(&Cache::Bypass).unwrap();
        let seen = crate::json::parse(&observe(&compiled, seconds).to_json()).unwrap();
        assert_eq!(seen.get("status").unwrap().as_str(), Some("cold"));
        assert_eq!(seen.num("species"), Ok(2.0));
        assert_eq!(stage_value(&seen, "network", "species"), 2.0);
        assert!(stage_value(&seen, "deriv", "dfdp_nnz") > 0.0);
        assert_eq!(stage_value(&seen, "codegen", "seconds"), 0.0);
        let shares = layer_shares(&seen);
        let total: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9, "{shares:?}");
        assert!(shares.iter().any(|(l, _)| *l == "rdl"));

        let tracer = Tracer::new();
        let mut metrics = Metrics::new(crate::metrics::Kind::PerLayer);
        report_stages(&seen, &tracer, 0.0, &mut metrics);
        assert_eq!(metrics.get("rdl.species"), Some(2.0));
        assert_eq!(metrics.get("rcip.distinct_rates"), Some(1.0));
        let spans = tracer.spans();
        assert!(spans
            .iter()
            .any(|s| s.name == "stage:network" && s.layer == "rdl"));
        assert!(spans.windows(2).all(|w| w[0].end_s <= w[1].start_s + 1e-12));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
