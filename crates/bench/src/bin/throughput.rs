//! RHS-evaluation throughput: the legacy tape interpreter against the
//! pre-decoded execution engine (scalar and SIMD-batched), at the
//! (scaled) Table 1 case sizes. Prints a comparison table and writes a
//! machine-readable `BENCH_throughput.json`.
//!
//! The right-hand side is the hot loop of everything downstream — every
//! solver step, Newton iteration and finite-difference Jacobian column
//! is RHS evaluations — so evals/sec here is the lever on end-to-end
//! estimation time.
//!
//! Usage:
//!   throughput [--scale K] [--cases 1,2,3] [--iters N] [--out FILE] [--smoke]
//!
//! `--smoke` shrinks everything for CI: the two smallest cases at a deep
//! scale with a few iterations — enough to validate the measurement and
//! the JSON artifact, not to produce stable timings.

use std::fmt::Write as _;

use rms_bench::{
    compile_case, fmt_secs, parse_or_exit, run_bench, time_rhs, time_rhs_batch, write_artifact,
};
use rms_core::{OptLevel, LANES};
use rms_suite::EngineMode;
use rms_workload::{scaled_case, TABLE1};

const USAGE: &str = "\
throughput — RHS evals/sec: interpreter vs execution engine vs batched

USAGE:
  throughput [--scale K] [--cases 1,2,3] [--iters N] [--out FILE] [--smoke] [--force]

  --scale K     divide the Table 1 equation counts by K (default 25)
  --cases LIST  comma-separated Table 1 case ids (default 1,2,3,4,5)
  --iters N     RHS evaluations per engine measurement (default 400)
  --out FILE    JSON artifact path (default BENCH_throughput.json)
  --smoke       CI preset: --scale 500 --cases 1,2 --iters 16
  --force       let a --smoke run overwrite a full-run JSON artifact
";

struct CaseResult {
    case: usize,
    equations: usize,
    tape_instrs: usize,
    exec_instrs: usize,
    interp_secs: f64,
    exec_secs: f64,
    batched_secs: f64,
}

struct Config {
    smoke: bool,
    force: bool,
    scale: usize,
    iters: usize,
    cases: Vec<usize>,
    out_path: String,
}

fn main() {
    let args = parse_or_exit(
        USAGE,
        &["--scale", "--cases", "--iters", "--out"],
        &["--smoke", "--force"],
    );
    run_bench(USAGE, args, parse, run);
}

fn parse(args: &rms_bench::BenchArgs) -> Result<Config, String> {
    let smoke = args.switch("--smoke");
    let default_cases: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 3, 4, 5] };
    let config = Config {
        smoke,
        force: args.switch("--force"),
        scale: args.num("--scale", if smoke { 500 } else { 25 })?,
        iters: args.num("--iters", if smoke { 16 } else { 400 })?,
        cases: args.num_list("--cases", default_cases)?,
        out_path: args
            .value("--out")
            .unwrap_or("BENCH_throughput.json")
            .to_string(),
    };
    if config.cases.is_empty() || config.cases.iter().any(|&c| c == 0 || c > TABLE1.len()) {
        return Err(format!("--cases takes ids in 1..={}", TABLE1.len()));
    }
    if config.iters == 0 {
        return Err("--iters must be at least 1".to_string());
    }
    Ok(config)
}

fn run(config: Config) -> Result<(), String> {
    let Config {
        smoke,
        force,
        scale,
        iters,
        cases,
        out_path,
    } = config;
    let out_path = out_path.as_str();

    println!("RHS throughput benchmark (scale 1/{scale}, {iters} evals per engine)");
    println!(
        "{:>5} {:>6} {:>8} {:>8} | {:>10} {:>10} {:>10} | {:>9} {:>9}",
        "case", "eqs", "instrs", "fused", "interp", "exec", "batched", "exec/x", "batch/x"
    );

    let mut results = Vec::new();
    for &case in &cases {
        let model = scaled_case(case, scale);
        // Compile through the session; the ExecDecode stage already
        // produced the decoded tape the engine measurements need.
        let suite = compile_case(&model, OptLevel::Full);
        let system = &suite.system;
        let tape = &suite.compiled.tape;
        let exec_len = suite
            .exec
            .as_ref()
            .expect("every artifact is decoded")
            .len();
        let interp = suite.kernel(EngineMode::Interp).kernel;
        let exec = suite.kernel(EngineMode::Exec).kernel;
        let n = system.len();
        let rates = &system.rate_values;
        let y0: Vec<f64> = (0..n).map(|i| 0.1 + (i % 7) as f64 * 0.1).collect();
        let mut ydot = vec![0.0; n];

        let mut y = y0.clone();
        let interp_secs = time_rhs(&*interp, rates, &mut y, &mut ydot, iters);
        let mut y = y0.clone();
        let exec_secs = time_rhs(&*exec, rates, &mut y, &mut ydot, iters);
        let batched_secs = time_rhs_batch(&*exec, rates, &y0, iters);

        println!(
            "{case:>5} {n:>6} {:>8} {:>8} | {:>10} {:>10} {:>10} | {:>8.2}x {:>8.2}x",
            tape.len(),
            exec_len,
            fmt_secs(interp_secs),
            fmt_secs(exec_secs),
            fmt_secs(batched_secs),
            interp_secs / exec_secs,
            interp_secs / batched_secs
        );
        results.push(CaseResult {
            case,
            equations: n,
            tape_instrs: tape.len(),
            exec_instrs: exec_len,
            interp_secs,
            exec_secs,
            batched_secs,
        });
    }

    let largest = results
        .iter()
        .max_by_key(|r| r.equations)
        .expect("at least one case");
    println!(
        "\nlargest case ({} equations): exec {:.2}x, batched {:.2}x the interpreter's throughput",
        largest.equations,
        largest.interp_secs / largest.exec_secs,
        largest.interp_secs / largest.batched_secs
    );

    let json = render_json(scale, iters, smoke, &results, largest);
    write_artifact(out_path, &json, smoke, force)?;
    println!("wrote {out_path}");
    Ok(())
}

/// Hand-rolled JSON (the workspace has no serde): flat and line-oriented
/// so `python3 -m json.tool` and jq both take it.
fn render_json(
    scale: usize,
    iters: usize,
    smoke: bool,
    results: &[CaseResult],
    largest: &CaseResult,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"throughput\",");
    let _ = writeln!(out, "  \"scale\": {scale},");
    let _ = writeln!(out, "  \"iters\": {iters},");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"lanes\": {LANES},");
    let _ = writeln!(out, "  \"cases\": [");
    for (k, r) in results.iter().enumerate() {
        let comma = if k + 1 < results.len() { "," } else { "" };
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"case\": {},", r.case);
        let _ = writeln!(out, "      \"equations\": {},", r.equations);
        let _ = writeln!(out, "      \"tape_instrs\": {},", r.tape_instrs);
        let _ = writeln!(out, "      \"exec_instrs\": {},", r.exec_instrs);
        let _ = writeln!(
            out,
            "      \"interp_evals_per_sec\": {:.1},",
            1.0 / r.interp_secs
        );
        let _ = writeln!(
            out,
            "      \"exec_evals_per_sec\": {:.1},",
            1.0 / r.exec_secs
        );
        let _ = writeln!(
            out,
            "      \"batched_evals_per_sec\": {:.1},",
            1.0 / r.batched_secs
        );
        let _ = writeln!(
            out,
            "      \"exec_speedup_vs_interp\": {:.3},",
            r.interp_secs / r.exec_secs
        );
        let _ = writeln!(
            out,
            "      \"batched_speedup_vs_interp\": {:.3}",
            r.interp_secs / r.batched_secs
        );
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"largest_case\": {},", largest.case);
    let _ = writeln!(out, "  \"largest_equations\": {},", largest.equations);
    let _ = writeln!(
        out,
        "  \"largest_exec_speedup_vs_interp\": {:.3},",
        largest.interp_secs / largest.exec_secs
    );
    let _ = writeln!(
        out,
        "  \"largest_batched_speedup_vs_interp\": {:.3}",
        largest.interp_secs / largest.batched_secs
    );
    let _ = writeln!(out, "}}");
    out
}
