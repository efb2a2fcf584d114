//! Newton iteration-matrix kernels: fill-reducing sparse LU against the
//! dense LU baseline, at the (scaled) Table 1 case sizes. Prints a
//! comparison table and writes a machine-readable `BENCH_newton.json`.
//!
//! The BDF corrector refactors and solves `I − hβJ` every time the step
//! or order changes; at the paper's ~10,000-ODE vulcanization networks
//! that linear algebra — not the RHS tape — dominates the integration.
//! The sparse path exploits the compiler's exact structural sparsity: a
//! minimum-degree ordering and symbolic factorization computed once,
//! then O(nnz(L+U)) numeric refactorizations.
//!
//! Usage:
//!   newton [--scale K] [--cases 1,2,3] [--iters N] [--traj-limit N]
//!          [--out FILE] [--smoke] [--force]
//!
//! `--smoke` shrinks everything for CI: two small cases at a deep scale —
//! enough to validate the measurement, the speedup direction and the
//! JSON artifact, not to produce stable timings.

use std::fmt::Write as _;
use std::time::Instant;

use rms_bench::{compile_case_deriv, fmt_secs, parse_or_exit, run_bench, write_artifact};
use rms_core::{DerivGroup, OptLevel};
use rms_solver::{AnalyticJacobian, CsrMatrix, LinearSolver, Lu, SolverOptions, SparseNewton};
use rms_suite::EngineMode;
use rms_workload::{scaled_case, BoundKernel, JacobianMode, TABLE1};

const USAGE: &str = "\
newton — BDF iteration-matrix kernels: sparse LU vs dense LU

USAGE:
  newton [--scale K] [--cases 1,2,3] [--iters N] [--traj-limit N] [--out FILE] [--smoke] [--force]

  --scale K       divide the Table 1 equation counts by K (default 25)
  --cases LIST    comma-separated Table 1 case ids (default 1,2,3,4,5)
  --iters N       refactor+solve repetitions per method (default 5; the
                  dense factorization runs once above 2000 equations)
  --traj-limit N  max equations for the full sparse-vs-dense BDF
                  trajectory comparison (default 1000)
  --out FILE      JSON artifact path (default BENCH_newton.json)
  --smoke         CI preset: --scale 100 --cases 2,3 --iters 2
  --force         let a --smoke run overwrite a full-run JSON artifact
";

/// `hβ` used for the kernel measurements: a representative stiff-solver
/// step (the timings are scale-independent; only the values change).
const KERNEL_SCALE: f64 = 1e-3;

struct CaseResult {
    case: usize,
    equations: usize,
    jac_nnz: usize,
    fill_nnz: usize,
    symbolic_secs: f64,
    dense_secs: f64,
    sparse_secs: f64,
    dense_bytes: usize,
    sparse_bytes: usize,
    solve_rel_diff: f64,
    /// Max norm-relative state difference between full sparse and dense
    /// BDF trajectories; `None` when the case is above `--traj-limit`.
    traj_rel_diff: Option<f64>,
}

struct Config {
    smoke: bool,
    force: bool,
    scale: usize,
    iters: usize,
    traj_limit: usize,
    cases: Vec<usize>,
    out_path: String,
}

fn main() {
    let args = parse_or_exit(
        USAGE,
        &["--scale", "--cases", "--iters", "--traj-limit", "--out"],
        &["--smoke", "--force"],
    );
    run_bench(USAGE, args, parse, run);
}

fn parse(args: &rms_bench::BenchArgs) -> Result<Config, String> {
    let smoke = args.switch("--smoke");
    let default_cases: &[usize] = if smoke { &[2, 3] } else { &[1, 2, 3, 4, 5] };
    let config = Config {
        smoke,
        force: args.switch("--force"),
        scale: args.num("--scale", if smoke { 100 } else { 25 })?,
        iters: args.num("--iters", if smoke { 2 } else { 5 })?,
        traj_limit: args.num("--traj-limit", if smoke { 300 } else { 1000 })?,
        cases: args.num_list("--cases", default_cases)?,
        out_path: args
            .value("--out")
            .unwrap_or("BENCH_newton.json")
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

/// Max norm-relative difference between two stacked trajectories:
/// `max_t ||a_t − b_t||_inf / ||a_t||_inf`. Concentrations span many
/// decades, so the per-time solution norm (not each tiny component) is
/// the denominator.
fn trajectory_rel_diff(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(ya, yb)| {
            let norm = ya.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-300);
            let diff = ya
                .iter()
                .zip(yb)
                .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()));
            diff / norm
        })
        .fold(0.0, f64::max)
}

fn run(config: Config) -> Result<(), String> {
    let Config {
        smoke,
        force,
        scale,
        iters,
        traj_limit,
        cases,
        out_path,
    } = config;
    let out_path = out_path.as_str();

    println!("Newton iteration-matrix benchmark (scale 1/{scale}, {iters} refactor+solve reps)");
    println!(
        "{:>5} {:>6} {:>8} {:>9} | {:>10} {:>10} {:>8} | {:>8} {:>10}",
        "case", "eqs", "nnz", "fill", "dense", "sparse", "speedup", "mem/x", "traj-diff"
    );

    let mut results = Vec::new();
    for &case in &cases {
        let model = scaled_case(case, scale);
        let suite = compile_case_deriv(&model, OptLevel::Full);
        let system = &suite.system;
        let n = system.len();
        let choice = suite.kernel(EngineMode::default());
        let provider = BoundKernel::new(&choice, &system.rate_values, DerivGroup::Jacobian);
        let pattern = provider.pattern();

        // One Jacobian evaluation at the initial state feeds both kernels
        // (values in row-major entry order, exactly as the tapes emit).
        let mut jac = CsrMatrix::from_rows(
            (0..pattern.n_rows()).map(|i| pattern.row(i)),
            pattern.n_cols(),
        )
        .map_err(|e| format!("case {case}: bad Jacobian pattern: {e}"))?;
        provider.eval_values(0.0, &system.initial, jac.vals_mut());
        let b: Vec<f64> = (0..n).map(|i| 0.25 + (i % 9) as f64 * 0.1).collect();

        // Dense baseline: sparsity-aware assembly into a dense matrix,
        // then LU with partial pivoting. One rep above 2000 equations —
        // the O(n³) factorization is tens of seconds there, which is the
        // point of this benchmark.
        let dense_reps = if n > 2000 { 1 } else { iters };
        let mut x_dense = Vec::new();
        let t0 = Instant::now();
        for _ in 0..dense_reps {
            let m = jac.assemble_iteration_matrix(KERNEL_SCALE);
            let lu = Lu::factor(&m).map_err(|e| format!("case {case}: dense LU: {e}"))?;
            x_dense = b.clone();
            lu.solve_in_place(&mut x_dense)
                .map_err(|e| format!("case {case}: dense solve: {e}"))?;
        }
        let dense_secs = t0.elapsed().as_secs_f64() / dense_reps as f64;
        let dense_bytes = 2 * n * n * std::mem::size_of::<f64>();

        // Sparse path: symbolic analysis once (reported separately), then
        // numeric refactorizations over the fixed structure.
        let t0 = Instant::now();
        let mut kernel =
            SparseNewton::new(pattern).map_err(|e| format!("case {case}: symbolic: {e}"))?;
        let symbolic_secs = t0.elapsed().as_secs_f64();
        let mut x_sparse = Vec::new();
        let t0 = Instant::now();
        for _ in 0..iters {
            kernel
                .factor_from_csr(&jac, KERNEL_SCALE)
                .map_err(|e| format!("case {case}: sparse refactor: {e}"))?;
            x_sparse = b.clone();
            kernel
                .solve_in_place(&mut x_sparse)
                .map_err(|e| format!("case {case}: sparse solve: {e}"))?;
        }
        let sparse_secs = t0.elapsed().as_secs_f64() / iters as f64;

        let x_norm = x_dense
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()))
            .max(1e-300);
        let solve_rel_diff = x_dense
            .iter()
            .zip(&x_sparse)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()))
            / x_norm;

        // Full-trajectory agreement, where the dense integration is
        // affordable: the whole BDF solve under each linear solver. Run
        // tight — at loose tolerances the step controller amplifies
        // last-bit solve differences into tolerance-level trajectory
        // noise; near roundoff both paths converge to the same solution
        // and the comparison isolates the linear algebra.
        let traj_rel_diff = if n <= traj_limit {
            let times = [0.005, 0.01, 0.015, 0.02];
            let solve = |solver: LinearSolver| {
                let options = SolverOptions {
                    linear_solver: solver,
                    rtol: 1e-11,
                    atol: 1e-14,
                    max_steps: 4_000_000,
                    ..SolverOptions::default()
                };
                suite.simulate_with_jacobian(&times, options, JacobianMode::Analytic)
            };
            let dense_traj =
                solve(LinearSolver::Dense).map_err(|e| format!("case {case}: dense BDF: {e}"))?;
            let sparse_traj =
                solve(LinearSolver::Sparse).map_err(|e| format!("case {case}: sparse BDF: {e}"))?;
            Some(trajectory_rel_diff(&dense_traj, &sparse_traj))
        } else {
            None
        };

        println!(
            "{case:>5} {n:>6} {:>8} {:>9} | {:>10} {:>10} {:>7.1}x | {:>7.1}x {:>10}",
            jac.nnz(),
            kernel.fill_nnz(),
            fmt_secs(dense_secs),
            fmt_secs(sparse_secs),
            dense_secs / sparse_secs,
            dense_bytes as f64 / kernel.memory_bytes() as f64,
            traj_rel_diff.map_or("-".to_string(), |d| format!("{d:.1e}")),
        );
        results.push(CaseResult {
            case,
            equations: n,
            jac_nnz: jac.nnz(),
            fill_nnz: kernel.fill_nnz(),
            symbolic_secs,
            dense_secs,
            sparse_secs,
            dense_bytes,
            sparse_bytes: kernel.memory_bytes(),
            solve_rel_diff,
            traj_rel_diff,
        });
    }

    let largest = results
        .iter()
        .max_by_key(|r| r.equations)
        .expect("at least one case");
    println!(
        "\nlargest case ({} equations): sparse {:.1}x the dense factorize+solve, \
         {:.1}x less iteration-matrix memory, fill {:.2}% of n²",
        largest.equations,
        largest.dense_secs / largest.sparse_secs,
        largest.dense_bytes as f64 / largest.sparse_bytes as f64,
        100.0 * largest.fill_nnz as f64 / (largest.equations as f64 * largest.equations as f64),
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
    let _ = writeln!(out, "  \"bench\": \"newton\",");
    let _ = writeln!(out, "  \"scale\": {scale},");
    let _ = writeln!(out, "  \"iters\": {iters},");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"cases\": [");
    for (k, r) in results.iter().enumerate() {
        let comma = if k + 1 < results.len() { "," } else { "" };
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"case\": {},", r.case);
        let _ = writeln!(out, "      \"equations\": {},", r.equations);
        let _ = writeln!(out, "      \"jac_nnz\": {},", r.jac_nnz);
        let _ = writeln!(out, "      \"fill_nnz\": {},", r.fill_nnz);
        let _ = writeln!(
            out,
            "      \"fill_fraction_of_dense\": {:.6},",
            r.fill_nnz as f64 / (r.equations as f64 * r.equations as f64)
        );
        let _ = writeln!(out, "      \"symbolic_seconds\": {:.9},", r.symbolic_secs);
        let _ = writeln!(
            out,
            "      \"dense_factor_solve_seconds\": {:.9},",
            r.dense_secs
        );
        let _ = writeln!(
            out,
            "      \"sparse_factor_solve_seconds\": {:.9},",
            r.sparse_secs
        );
        let _ = writeln!(
            out,
            "      \"sparse_speedup_vs_dense\": {:.3},",
            r.dense_secs / r.sparse_secs
        );
        let _ = writeln!(out, "      \"dense_matrix_bytes\": {},", r.dense_bytes);
        let _ = writeln!(out, "      \"sparse_matrix_bytes\": {},", r.sparse_bytes);
        let _ = writeln!(
            out,
            "      \"memory_ratio_dense_over_sparse\": {:.3},",
            r.dense_bytes as f64 / r.sparse_bytes as f64
        );
        let _ = writeln!(out, "      \"solve_rel_diff\": {:.3e},", r.solve_rel_diff);
        match r.traj_rel_diff {
            Some(d) => {
                let _ = writeln!(out, "      \"trajectory_rel_diff\": {d:.3e}");
            }
            None => {
                let _ = writeln!(out, "      \"trajectory_rel_diff\": null");
            }
        }
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"largest_case\": {},", largest.case);
    let _ = writeln!(out, "  \"largest_equations\": {},", largest.equations);
    let _ = writeln!(
        out,
        "  \"largest_sparse_speedup_vs_dense\": {:.3},",
        largest.dense_secs / largest.sparse_secs
    );
    let _ = writeln!(
        out,
        "  \"largest_memory_ratio\": {:.3},",
        largest.dense_bytes as f64 / largest.sparse_bytes as f64
    );
    let max_traj = results
        .iter()
        .filter_map(|r| r.traj_rel_diff)
        .fold(0.0, f64::max);
    let _ = writeln!(out, "  \"max_trajectory_rel_diff\": {max_traj:.3e}");
    let _ = writeln!(out, "}}");
    out
}
