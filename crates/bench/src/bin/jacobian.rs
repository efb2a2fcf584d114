//! Jacobian-assembly benchmark: the compiler-emitted analytic sparse
//! tapes against colored and dense finite differences, at the (scaled)
//! Table 1 case sizes. Prints a comparison table and writes a
//! machine-readable `BENCH_jacobian.json`.
//!
//! Usage:
//!   jacobian [--scale K] [--cases 1,2,3] [--iters N] [--out FILE] [--smoke] [--force]
//!
//! `--smoke` shrinks everything for CI: the two smallest cases at a deep
//! scale with a couple of iterations — enough to validate the measurement
//! and the JSON artifact, not to produce stable timings.

use std::fmt::Write as _;
use std::time::Instant;

use rms_bench::{compile_case_deriv, fmt_secs, parse_or_exit, run_bench, write_artifact};
use rms_core::{DerivGroup, OptLevel};
use rms_solver::{fd_jacobian, fd_jacobian_colored, AnalyticJacobian, OdeRhs};
use rms_suite::EngineMode;
use rms_workload::{scaled_case, BoundKernel, TABLE1};

const USAGE: &str = "\
jacobian — Jacobian assembly: analytic tapes vs colored vs dense FD

USAGE:
  jacobian [--scale K] [--cases 1,2,3] [--iters N] [--out FILE] [--smoke] [--force]

  --scale K     divide the Table 1 equation counts by K (default 25)
  --cases LIST  comma-separated Table 1 case ids (default 1,2,3,4,5)
  --iters N     timing repetitions for the sparse sources (default 20)
  --out FILE    JSON artifact path (default BENCH_jacobian.json)
  --smoke       CI preset: --scale 500 --cases 1,2 --iters 3
  --force       let a --smoke run overwrite a full-run JSON artifact
";

struct CaseResult {
    case: usize,
    equations: usize,
    nnz: usize,
    n_colors: usize,
    analytic_secs: f64,
    colored_secs: f64,
    dense_secs: f64,
    max_rel_err: f64,
}

fn time_reps(mut f: impl FnMut(), reps: usize) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() / reps as f64
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
        iters: args.num("--iters", if smoke { 3 } else { 20 })?,
        cases: args.num_list("--cases", default_cases)?,
        out_path: args
            .value("--out")
            .unwrap_or("BENCH_jacobian.json")
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

    println!("Jacobian assembly benchmark (scale 1/{scale}, {iters} iters)");
    println!(
        "{:>5} {:>6} {:>8} {:>7} | {:>10} {:>10} {:>10} | {:>9} {:>9} {:>10}",
        "case",
        "eqs",
        "nnz",
        "colors",
        "analytic",
        "colored",
        "dense",
        "an/dense",
        "col/dense",
        "max rel err"
    );

    let mut results = Vec::new();
    for &case in &cases {
        let model = scaled_case(case, scale);
        // Compile through the session with the Deriv stage on: the
        // artifact carries the analytic tapes the benchmark measures.
        let suite = compile_case_deriv(&model, OptLevel::Full);
        let system = &suite.system;
        // The interpreter kernel: the FD baselines difference the tape
        // interpreter's RHS, the analytic path interprets the tape pair.
        let choice = suite.kernel(EngineMode::Interp);
        let provider = BoundKernel::new(&choice, &system.rate_values, DerivGroup::Jacobian);
        let rhs = &provider;
        let n = system.len();
        let y: Vec<f64> = (0..n).map(|i| 0.2 + 0.05 * (i % 7) as f64).collect();
        let mut f = vec![0.0; n];
        rhs.eval(0.0, &y, &mut f);

        // Analytic: one fused RHS+Jacobian tape pass per assembly.
        let entries = choice
            .kernel
            .jac_entries(DerivGroup::Jacobian)
            .expect("compiled with the Deriv stage");
        let mut vals = vec![0.0; entries.len()];
        let analytic_secs = time_reps(|| provider.eval_values(0.0, &y, &mut vals), iters);

        // Colored FD over the exact analytic pattern. Like dense below,
        // one assembly costs many RHS evaluations, so fewer repetitions.
        let pattern = provider.pattern();
        let (colors, n_colors) = pattern.color_columns();
        let colored_reps = (iters / 8).max(1);
        let colored_secs = time_reps(
            || {
                std::hint::black_box(fd_jacobian_colored(
                    rhs, 0.0, &y, &f, pattern, &colors, n_colors,
                ));
            },
            colored_reps,
        );

        // Dense FD: n RHS evaluations and an n x n matrix per assembly —
        // timed with fewer repetitions since it dwarfs the others.
        let dense_reps = (iters / 8).max(1);
        let dense_secs = time_reps(
            || {
                std::hint::black_box(fd_jacobian(rhs, 0.0, &y, &f));
            },
            dense_reps,
        );

        // Accuracy: analytic entries against one dense FD evaluation.
        let (dense, _) = fd_jacobian(rhs, 0.0, &y, &f);
        let mut max_rel_err = 0.0f64;
        for (&(i, j), &a) in entries.iter().zip(&vals) {
            let b = dense[(i as usize, j as usize)];
            max_rel_err = max_rel_err.max((a - b).abs() / a.abs().max(1.0));
        }

        println!(
            "{case:>5} {n:>6} {:>8} {n_colors:>7} | {:>10} {:>10} {:>10} | {:>8.1}x {:>8.1}x {:>10.2e}",
            entries.len(),
            fmt_secs(analytic_secs),
            fmt_secs(colored_secs),
            fmt_secs(dense_secs),
            dense_secs / analytic_secs,
            dense_secs / colored_secs,
            max_rel_err
        );
        results.push(CaseResult {
            case,
            equations: n,
            nnz: entries.len(),
            n_colors,
            analytic_secs,
            colored_secs,
            dense_secs,
            max_rel_err,
        });
    }

    let largest = results
        .iter()
        .max_by_key(|r| r.equations)
        .expect("at least one case");
    println!(
        "\nlargest case ({} equations): analytic assembly {:.1}x faster than dense FD",
        largest.equations,
        largest.dense_secs / largest.analytic_secs
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
    let _ = writeln!(out, "  \"bench\": \"jacobian\",");
    let _ = writeln!(out, "  \"scale\": {scale},");
    let _ = writeln!(out, "  \"iters\": {iters},");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"cases\": [");
    for (k, r) in results.iter().enumerate() {
        let comma = if k + 1 < results.len() { "," } else { "" };
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"case\": {},", r.case);
        let _ = writeln!(out, "      \"equations\": {},", r.equations);
        let _ = writeln!(out, "      \"nnz\": {},", r.nnz);
        let _ = writeln!(out, "      \"n_colors\": {},", r.n_colors);
        let _ = writeln!(out, "      \"analytic_secs\": {:e},", r.analytic_secs);
        let _ = writeln!(out, "      \"colored_secs\": {:e},", r.colored_secs);
        let _ = writeln!(out, "      \"dense_secs\": {:e},", r.dense_secs);
        let _ = writeln!(
            out,
            "      \"analytic_speedup_vs_dense\": {:.3},",
            r.dense_secs / r.analytic_secs
        );
        let _ = writeln!(
            out,
            "      \"colored_speedup_vs_dense\": {:.3},",
            r.dense_secs / r.colored_secs
        );
        let _ = writeln!(out, "      \"max_rel_err\": {:e}", r.max_rel_err);
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"largest_case\": {},", largest.case);
    let _ = writeln!(out, "  \"largest_equations\": {},", largest.equations);
    let _ = writeln!(
        out,
        "  \"largest_analytic_speedup_vs_dense\": {:.3}",
        largest.dense_secs / largest.analytic_secs
    );
    let _ = writeln!(out, "}}");
    out
}
