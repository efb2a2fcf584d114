//! Shared helpers for the `table1`/`table2` binaries reproducing the
//! paper's tables. Everything else the repository measures comes from the
//! standalone `benchmark/` package (`BENCHMARK.json`).

use std::sync::Arc;
use std::time::Instant;

use rms_core::{CompiledOde, OptLevel};
use rms_odegen::OdeSystem;
use rms_suite::{CacheMode, CompiledArtifact, CompilerSession, SessionOptions};
use rms_workload::VulcanizationModel;

/// Run a workload model through the pass-managed pipeline session with
/// explicit options. All bench compilations funnel through here; there
/// is no ad-hoc stage chaining in the harnesses.
fn compile_with(model: &VulcanizationModel, options: SessionOptions) -> Arc<CompiledArtifact> {
    let compiled = CompilerSession::with_options(options)
        .compile_network("workload", model.network.clone(), model.rates.clone())
        .expect("workload models always compile");
    compiled.artifact
}

/// Compile a workload model end to end through the process-cached
/// pipeline. Repeated calls with the same model and level share one
/// artifact; the model's report carries per-stage wall times and the
/// Table 1 operation counts.
pub fn compile_case(model: &VulcanizationModel, level: OptLevel) -> Arc<CompiledArtifact> {
    compile_with(model, SessionOptions::new(level))
}

/// [`compile_case`] with the cache bypassed: a guaranteed-cold compile
/// whose report times reflect real pipeline work.
pub fn compile_case_cold(model: &VulcanizationModel, level: OptLevel) -> Arc<CompiledArtifact> {
    let mut options = SessionOptions::new(level);
    options.cache = CacheMode::Bypass;
    compile_with(model, options)
}

/// Build the (un)merged ODE system for a model through the session: a
/// passes-off pipeline (equation generation plus bare lowering) with the
/// generator's §3.1 merging switched explicitly.
pub fn system_for(model: &VulcanizationModel, simplify: bool) -> OdeSystem {
    let mut options = SessionOptions::new(OptLevel::None);
    options.gen_simplify = Some(simplify);
    compile_with(model, options).system.clone()
}

/// Time `iters` evaluations of a tape over a fixed state (the solver's
/// hot loop), returning seconds per evaluation.
pub fn time_tape_eval(compiled: &CompiledOde, system: &OdeSystem, iters: usize) -> f64 {
    let n = system.len();
    let mut y: Vec<f64> = (0..n).map(|i| 0.1 + (i % 7) as f64 * 0.1).collect();
    let mut ydot = vec![0.0; n];
    let mut scratch = Vec::new();
    let t0 = Instant::now();
    for _ in 0..iters {
        compiled
            .tape
            .eval_with_scratch(&system.rate_values, &y, &mut ydot, &mut scratch);
        // Feed a little of the output back so the work is not dead code.
        y[0] = 0.1 + ydot[0].abs().min(1.0) * 1e-9;
    }
    std::hint::black_box(&ydot);
    t0.elapsed().as_secs_f64() / iters as f64
}

/// Pretty seconds.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.2}us", s * 1e6)
    }
}

/// Strictly parsed `--key value` / `--switch` arguments for the bench
/// binaries. Unknown flags, missing values and malformed numbers are
/// usage errors (the binaries exit 2) instead of being silently ignored.
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    values: std::collections::BTreeMap<String, String>,
    switches: std::collections::BTreeSet<String>,
    /// `-h`/`--help` appeared anywhere.
    pub help: bool,
}

impl BenchArgs {
    /// Parse an argument vector (without the program name).
    /// `value_flags` take one value each; `switches` take none.
    pub fn parse(
        args: &[String],
        value_flags: &[&str],
        switches: &[&str],
    ) -> Result<BenchArgs, String> {
        let mut out = BenchArgs::default();
        let mut i = 0;
        while i < args.len() {
            let a = args[i].as_str();
            if a == "--help" || a == "-h" {
                out.help = true;
                i += 1;
            } else if value_flags.contains(&a) {
                let v = args
                    .get(i + 1)
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{a} requires a value"))?;
                out.values.insert(a.to_string(), v.clone());
                i += 2;
            } else if switches.contains(&a) {
                out.switches.insert(a.to_string());
                i += 1;
            } else {
                let mut known: Vec<&str> = value_flags.to_vec();
                known.extend_from_slice(switches);
                return Err(format!(
                    "unknown argument '{a}' (expected one of: {})",
                    known.join(", ")
                ));
            }
        }
        Ok(out)
    }

    /// The raw value of a flag, if given.
    pub fn value(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Whether a switch was given.
    pub fn switch(&self, key: &str) -> bool {
        self.switches.contains(key)
    }

    /// A numeric flag with a default; malformed values are usage errors.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{key} takes a number, got '{v}'")),
        }
    }

    /// A comma-separated list of numbers with a default.
    pub fn num_list<T>(&self, key: &str, default: &[T]) -> Result<Vec<T>, String>
    where
        T: std::str::FromStr + Clone,
    {
        match self.value(key) {
            None => Ok(default.to_vec()),
            Some(v) => v
                .split(',')
                .map(|c| {
                    c.trim()
                        .parse()
                        .map_err(|_| format!("{key} takes comma-separated numbers, got '{c}'"))
                })
                .collect(),
        }
    }
}

/// Run a bench `main` with conventional exit codes: `parse` failures are
/// usage errors (stderr + usage text, exit 2), `body` failures are
/// runtime errors (exit 1), `--help` prints the usage and exits 0.
pub fn run_bench<C>(
    usage: &str,
    args: BenchArgs,
    parse: impl FnOnce(&BenchArgs) -> Result<C, String>,
    body: impl FnOnce(C) -> Result<(), String>,
) {
    if args.help {
        print!("{usage}");
        return;
    }
    let config = match parse(&args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{usage}");
            std::process::exit(2);
        }
    };
    if let Err(msg) = body(config) {
        eprintln!("error: {msg}");
        std::process::exit(1);
    }
}

/// Parse the process arguments strictly or exit 2 with the usage text.
pub fn parse_or_exit(usage: &str, value_flags: &[&str], switches: &[&str]) -> BenchArgs {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match BenchArgs::parse(&argv, value_flags, switches) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{usage}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn strict_parsing_accepts_known_flags() {
        let args = BenchArgs::parse(
            &argv("--scale 10 --cases 1,2 --threaded"),
            &["--scale", "--cases"],
            &["--threaded"],
        )
        .unwrap();
        assert_eq!(args.num::<usize>("--scale", 25).unwrap(), 10);
        assert_eq!(args.num_list::<usize>("--cases", &[5]).unwrap(), vec![1, 2]);
        assert!(args.switch("--threaded"));
        assert!(!args.help);
    }

    #[test]
    fn strict_parsing_rejects_unknown_and_malformed() {
        // Typo'd flag.
        assert!(BenchArgs::parse(&argv("--scal 10"), &["--scale"], &[]).is_err());
        // Missing value.
        assert!(BenchArgs::parse(&argv("--scale"), &["--scale"], &[]).is_err());
        // Value that is itself a flag.
        assert!(
            BenchArgs::parse(&argv("--scale --cases 1"), &["--scale", "--cases"], &[]).is_err()
        );
        // Malformed number surfaces at the typed getter.
        let args = BenchArgs::parse(&argv("--scale ten"), &["--scale"], &[]).unwrap();
        assert!(args.num::<usize>("--scale", 25).is_err());
        let args = BenchArgs::parse(&argv("--cases 1,x"), &["--cases"], &[]).unwrap();
        assert!(args.num_list::<usize>("--cases", &[1]).is_err());
    }

    #[test]
    fn help_flag_detected_anywhere() {
        let args = BenchArgs::parse(&argv("--scale 5 -h"), &["--scale"], &[]).unwrap();
        assert!(args.help);
        let args = BenchArgs::parse(&argv("--help"), &[], &[]).unwrap();
        assert!(args.help);
    }

    #[test]
    fn defaults_apply_when_flags_absent() {
        let args = BenchArgs::parse(&[], &["--scale"], &["--smoke"]).unwrap();
        assert_eq!(args.num::<usize>("--scale", 25).unwrap(), 25);
        assert!(!args.switch("--smoke"));
        assert_eq!(args.value("--scale"), None);
    }
}
