//! Native codegen backend against the execution engine: RHS evals/sec
//! for the dlopened kernel (scalar and lane-batched) versus the decoded
//! exec tape, at the (scaled) Table 1 case sizes. Prints a comparison
//! table and writes a machine-readable `BENCH_codegen.json`.
//!
//! The native backend removes the execution engine's per-instruction
//! dispatch. Its emitter rerolls runs of structurally identical reaction
//! stanzas into data-driven C `for` loops over static stride/index
//! tables, so the kernel stays small enough for the I-cache at every
//! size while replaying the exact same rounding sequence
//! (`-ffp-contract=off`) — trajectories stay bit-compatible with the exec
//! engine. The benchmark measures the kernel per case and integrates the
//! largest case on the interp, exec and native engines, asserting the
//! crossover acceptance: at a ≥250k-instruction case the kernel must
//! have loop regions and beat batched exec, with zero trajectory
//! deviation.
//!
//! Usage:
//!   codegen [--scale K] [--cases 1,2,3] [--iters N] [--out FILE] [--smoke]
//!
//! `--smoke` shrinks everything for CI: the two smallest cases at a deep
//! scale with a few iterations — enough to validate the toolchain probe,
//! the engine-agreement trajectory and the JSON artifact, not timings.

use std::fmt::Write as _;

use rms_bench::{
    compile_case_native, fmt_secs, parse_or_exit, run_bench, time_rhs, time_rhs_batch,
    write_artifact,
};
use rms_core::{Kernel, NativeKernel, OptLevel, LANES};
use rms_suite::{EngineMode, JacobianMode, SolverOptions, Stage, SuiteModel};
use rms_workload::{scaled_case, TABLE1};

const USAGE: &str = "\
codegen — RHS evals/sec: execution engine vs compiled native kernel

USAGE:
  codegen [--scale K] [--cases 1,2,3] [--iters N] [--out FILE] [--smoke] [--force]

  --scale K     divide the Table 1 equation counts by K (default 24,
                which puts case 5 above 250k tape instructions)
  --cases LIST  comma-separated Table 1 case ids (default 1,2,3,4,5)
  --iters N     RHS evaluations per engine measurement (default 800)
  --out FILE    JSON artifact path (default BENCH_codegen.json)
  --smoke       CI preset: --scale 500 --cases 1,2 --iters 16
  --force       let a --smoke run overwrite a full-run JSON artifact
";

/// The acceptance threshold: a case this large must show the crossover.
const ACCEPTANCE_INSTRS: usize = 250_000;

struct CaseResult {
    case: usize,
    equations: usize,
    tape_instrs: usize,
    /// Loop regions in the kernel (0 when nothing rolled).
    loop_count: usize,
    /// Flat instructions absorbed into those loops.
    rolled_instrs: usize,
    /// Rendered source size.
    source_bytes: usize,
    render_secs: f64,
    cc_secs: f64,
    /// Translation units of the build and their concurrent compile/link
    /// split.
    cc_units: usize,
    cc_unit_max_secs: f64,
    link_secs: f64,
    exec_secs: f64,
    exec_batched_secs: f64,
    native_secs: f64,
    native_batched_secs: f64,
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
        scale: args.num("--scale", if smoke { 500 } else { 24 })?,
        iters: args.num("--iters", if smoke { 16 } else { 800 })?,
        cases: args.num_list("--cases", default_cases)?,
        out_path: args
            .value("--out")
            .unwrap_or("BENCH_codegen.json")
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

/// Timing repetitions per measurement; the minimum is reported. The
/// first rep doubles as warm-up, and the min discards scheduler and
/// frequency-transition noise that a single sample would bake in.
const REPS: usize = 3;

/// Best-of-[`REPS`] wrapper around one timed measurement.
fn best_of(mut measure: impl FnMut() -> f64) -> f64 {
    (0..REPS).map(|_| measure()).fold(f64::INFINITY, f64::min)
}

/// A compiled case and its Codegen stage instrumentation.
struct Compiled {
    suite: SuiteModel,
    /// The loaded object (loop counters).
    native: std::sync::Arc<NativeKernel>,
    /// The same object as the solvers see it.
    kernel: std::sync::Arc<dyn Kernel>,
    cc_secs: f64,
    source_bytes: usize,
    render_secs: f64,
    cc_units: usize,
    cc_unit_max_secs: f64,
    link_secs: f64,
}

fn compile(case: usize, scale: usize, cache_dir: &std::path::Path) -> Result<Compiled, String> {
    let model = scaled_case(case, scale);
    let suite = compile_case_native(&model, OptLevel::Full, Some(cache_dir));
    let native = match suite.artifact().native.as_ref() {
        Some(native) => native.clone(),
        None => {
            let why = suite
                .artifact()
                .native_diag
                .as_deref()
                .unwrap_or("unknown codegen failure");
            return Err(format!("case {case}: no native kernel: {why}"));
        }
    };
    let record = suite.report.stage(Stage::Codegen);
    let metric = |key: &str| record.and_then(|r| r.get(key)).unwrap_or(0.0);
    Ok(Compiled {
        cc_secs: metric("cc_seconds"),
        source_bytes: metric("source_bytes") as usize,
        render_secs: metric("render_seconds"),
        cc_units: metric("cc_units") as usize,
        cc_unit_max_secs: metric("cc_unit_max_seconds"),
        link_secs: metric("link_seconds"),
        kernel: suite.kernel(EngineMode::Native).kernel,
        suite,
        native,
    })
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

    let toolchain = rms_suite::probe_toolchain()
        .map_err(|e| format!("codegen bench needs a C toolchain: {e}"))?;
    println!(
        "native codegen benchmark (scale 1/{scale}, {iters} evals per engine, cc: {})",
        toolchain.version
    );
    println!(
        "{:>5} {:>6} {:>8} {:>6} {:>9} {:>8} | {:>10} {:>10} {:>10} {:>10} | {:>8} {:>8}",
        "case",
        "eqs",
        "instrs",
        "loops",
        "src bytes",
        "cc",
        "exec",
        "exbatch",
        "native",
        "nbatch",
        "n/ex",
        "nb/exb"
    );

    // A fresh scratch cache per run: warm `.so` hits would skip the
    // render/cc work and zero out the size and compile-time columns.
    let scratch = std::env::temp_dir().join(format!("rms-codegen-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    let mut results = Vec::new();
    for &case in &cases {
        let compiled = compile(case, scale, &scratch)?;

        let system = &compiled.suite.system;
        let tape = &compiled.suite.compiled.tape;
        let exec = compiled.suite.kernel(EngineMode::Exec).kernel;
        let n = system.len();
        let rates = &system.rate_values;
        let y0: Vec<f64> = (0..n).map(|i| 0.1 + (i % 7) as f64 * 0.1).collect();
        let mut ydot = vec![0.0; n];

        // Every engine through the one `Kernel` interface, best of REPS.
        let mut scalar = |kernel: &dyn Kernel| {
            let mut y = y0.clone();
            best_of(|| time_rhs(kernel, rates, &mut y, &mut ydot, iters))
        };
        let batched = |kernel: &dyn Kernel| best_of(|| time_rhs_batch(kernel, rates, &y0, iters));
        let result = CaseResult {
            case,
            equations: n,
            tape_instrs: tape.len(),
            loop_count: compiled.native.loop_count(),
            rolled_instrs: compiled.native.rolled_instrs(),
            source_bytes: compiled.source_bytes,
            render_secs: compiled.render_secs,
            cc_secs: compiled.cc_secs,
            cc_units: compiled.cc_units,
            cc_unit_max_secs: compiled.cc_unit_max_secs,
            link_secs: compiled.link_secs,
            exec_secs: scalar(&*exec),
            exec_batched_secs: batched(&*exec),
            native_secs: scalar(&*compiled.kernel),
            native_batched_secs: batched(&*compiled.kernel),
        };
        println!(
            "{case:>5} {n:>6} {:>8} {:>6} {:>9} {:>8} | {:>10} {:>10} {:>10} {:>10} | {:>7.2}x {:>7.2}x",
            result.tape_instrs,
            result.loop_count,
            result.source_bytes,
            fmt_secs(result.cc_secs),
            fmt_secs(result.exec_secs),
            fmt_secs(result.exec_batched_secs),
            fmt_secs(result.native_secs),
            fmt_secs(result.native_batched_secs),
            result.exec_secs / result.native_secs,
            result.exec_batched_secs / result.native_batched_secs
        );
        results.push(result);
    }

    let largest_case = *cases
        .iter()
        .max_by_key(|&&c| {
            results
                .iter()
                .find(|r| r.case == c)
                .map(|r| r.equations)
                .unwrap_or(0)
        })
        .expect("at least one case");

    // Differential integration on the largest case: full BDF solves on
    // the exec and native engines must tell the same story.
    // Without FMA contraction both replay the tape's association order
    // exactly, so the deviation vs exec is expected to be 0.0; the
    // interp engine shares the flat tape and gets the 1e-12 envelope.
    let model = scaled_case(largest_case, scale);
    let suite = compile_case_native(&model, OptLevel::Full, Some(&scratch));
    let times: Vec<f64> = (1..=8).map(|i| 0.25 * i as f64).collect();
    let options = SolverOptions::default();
    let reference = suite
        .simulate_configured(&times, options, JacobianMode::FdColored, EngineMode::Exec)
        .map_err(|e| format!("exec integration failed: {e}"))?;
    let native_traj = suite
        .simulate_configured(&times, options, JacobianMode::FdColored, EngineMode::Native)
        .map_err(|e| format!("native integration failed: {e}"))?;
    let interp_traj = suite
        .simulate_configured(&times, options, JacobianMode::FdColored, EngineMode::Interp)
        .map_err(|e| format!("interp integration failed: {e}"))?;
    let deviation = |a: &Vec<Vec<f64>>, b: &Vec<Vec<f64>>| -> f64 {
        let mut worst: f64 = 0.0;
        for (x, z) in a.iter().flatten().zip(b.iter().flatten()) {
            worst = worst.max((x - z).abs() / x.abs().max(1.0));
        }
        worst
    };
    let traj_diff = deviation(&reference, &native_traj);
    let traj_diff_interp = deviation(&interp_traj, &native_traj);

    let largest = results
        .iter()
        .find(|r| r.case == largest_case)
        .expect("largest case measured");
    println!(
        "\nlargest case ({} equations, {} instrs, {} loops): native {:.2}x scalar exec, \
         {:.2}x batched exec; trajectory deviation {traj_diff:.3e} vs exec, \
         {traj_diff_interp:.3e} vs interp",
        largest.equations,
        largest.tape_instrs,
        largest.loop_count,
        largest.exec_secs / largest.native_secs,
        largest.exec_batched_secs / largest.native_batched_secs
    );

    // Crossover acceptance: at a ≥250k-instruction case — past the size
    // where straight-line C overran the I-cache and lost to batched exec
    // (DESIGN.md §14) — the kernel must (a) have loop regions, (b) beat
    // the exec engine scalar and batched, and (c) keep the trajectory
    // bit-identical to exec and within 1e-12 of interp. Smoke runs skip
    // the check — their cases are far below the crossover.
    if !smoke && largest.tape_instrs >= ACCEPTANCE_INSTRS {
        let batched_speedup = largest.exec_batched_secs / largest.native_batched_secs;
        let scalar_speedup = largest.exec_secs / largest.native_secs;
        if largest.loop_count == 0 {
            return Err(format!(
                "crossover acceptance failed: the kernel at {} instrs has no loop regions",
                largest.tape_instrs
            ));
        }
        if batched_speedup < 1.0 || scalar_speedup < 1.0 {
            return Err(format!(
                "crossover acceptance failed: native at {} instrs is not faster than \
                 exec (scalar {scalar_speedup:.3}x, batched {batched_speedup:.3}x)",
                largest.tape_instrs
            ));
        }
        if traj_diff != 0.0 {
            return Err(format!(
                "crossover acceptance failed: native deviates from exec by {traj_diff:e}"
            ));
        }
        if traj_diff_interp > 1e-12 {
            return Err(format!(
                "crossover acceptance failed: native deviates from interp by \
                 {traj_diff_interp:e}"
            ));
        }
        println!("crossover acceptance: PASS");
    }

    let json = render_json(
        scale,
        iters,
        smoke,
        &toolchain.version,
        &results,
        largest,
        traj_diff,
        traj_diff_interp,
    );
    write_artifact(out_path, &json, smoke, force)?;
    println!("wrote {out_path}");
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(())
}

/// Hand-rolled JSON (the workspace has no serde): flat and line-oriented
/// so `python3 -m json.tool` and jq both take it.
#[allow(clippy::too_many_arguments)]
fn render_json(
    scale: usize,
    iters: usize,
    smoke: bool,
    cc: &str,
    results: &[CaseResult],
    largest: &CaseResult,
    traj_diff: f64,
    traj_diff_interp: f64,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"codegen\",");
    let _ = writeln!(out, "  \"scale\": {scale},");
    let _ = writeln!(out, "  \"iters\": {iters},");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"lanes\": {LANES},");
    let _ = writeln!(out, "  \"cc\": {},", json_string(cc));
    let _ = writeln!(out, "  \"cases\": [");
    for (k, r) in results.iter().enumerate() {
        let comma = if k + 1 < results.len() { "," } else { "" };
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"case\": {},", r.case);
        let _ = writeln!(out, "      \"equations\": {},", r.equations);
        let _ = writeln!(out, "      \"tape_instrs\": {},", r.tape_instrs);
        let _ = writeln!(out, "      \"loop_count\": {},", r.loop_count);
        let _ = writeln!(out, "      \"rolled_instrs\": {},", r.rolled_instrs);
        let _ = writeln!(out, "      \"source_bytes\": {},", r.source_bytes);
        let _ = writeln!(out, "      \"render_seconds\": {:.6},", r.render_secs);
        let _ = writeln!(out, "      \"cc_seconds\": {:.6},", r.cc_secs);
        let _ = writeln!(out, "      \"cc_units\": {},", r.cc_units);
        let _ = writeln!(
            out,
            "      \"cc_unit_max_seconds\": {:.6},",
            r.cc_unit_max_secs
        );
        let _ = writeln!(out, "      \"link_seconds\": {:.6},", r.link_secs);
        let _ = writeln!(
            out,
            "      \"exec_evals_per_sec\": {:.1},",
            1.0 / r.exec_secs
        );
        let _ = writeln!(
            out,
            "      \"exec_batched_evals_per_sec\": {:.1},",
            1.0 / r.exec_batched_secs
        );
        let _ = writeln!(
            out,
            "      \"native_evals_per_sec\": {:.1},",
            1.0 / r.native_secs
        );
        let _ = writeln!(
            out,
            "      \"native_batched_evals_per_sec\": {:.1},",
            1.0 / r.native_batched_secs
        );
        let _ = writeln!(
            out,
            "      \"native_speedup_vs_exec\": {:.3},",
            r.exec_secs / r.native_secs
        );
        let _ = writeln!(
            out,
            "      \"native_batched_speedup_vs_batched_exec\": {:.3}",
            r.exec_batched_secs / r.native_batched_secs
        );
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"largest_case\": {},", largest.case);
    let _ = writeln!(out, "  \"largest_equations\": {},", largest.equations);
    let _ = writeln!(out, "  \"largest_tape_instrs\": {},", largest.tape_instrs);
    let _ = writeln!(
        out,
        "  \"largest_native_speedup_vs_exec\": {:.3},",
        largest.exec_secs / largest.native_secs
    );
    let _ = writeln!(
        out,
        "  \"largest_native_batched_speedup_vs_batched_exec\": {:.3},",
        largest.exec_batched_secs / largest.native_batched_secs
    );
    let _ = writeln!(out, "  \"largest_loop_count\": {},", largest.loop_count);
    let _ = writeln!(out, "  \"largest_trajectory_deviation\": {traj_diff:.3e},");
    let _ = writeln!(
        out,
        "  \"largest_trajectory_deviation_vs_interp\": {traj_diff_interp:.3e}"
    );
    let _ = writeln!(out, "}}");
    out
}

/// Minimal JSON string quoting for the compiler-version banner.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
