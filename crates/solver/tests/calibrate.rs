//! The measurement behind `SPARSE_COST_PER_MAC`: what one multiply-add
//! costs in `SparseNewton::factor_from_csr` (assembly + left-looking
//! refactorization over the plan's fill) relative to one in `Lu::factor`
//! (assembly + dense LU), on the models `LinearSolver::Auto`'s decision
//! table in `tests/sparse_newton.rs` covers. Prints; asserts nothing about
//! time. Run in release mode:
//!
//! ```text
//! cargo test --release -p rms-solver -- --ignored calibrate --nocapture
//! ```

use std::sync::Arc;
use std::time::Instant;

use rms_core::OptLevel;
use rms_driver::{CacheMode, CompiledArtifact, CompilerSession, EngineMode, SessionOptions};
use rms_solver::{
    solve_bdf_with_jacobian, AnalyticJacobian, CsrMatrix, Lu, NewtonPlan, SolverOptions,
    SparseNewton, SparsityPattern, SPARSE_COST_PER_MAC,
};
use rms_workload::{scaled_case, vulcanization_source, BoundKernel, VULCANIZATION_RDL};

/// A model's plan and its Jacobian at a state from its trajectory.
struct Case {
    label: &'static str,
    plan: Arc<NewtonPlan>,
    jac: CsrMatrix,
}

fn session() -> CompilerSession {
    let mut options = SessionOptions::new(OptLevel::Full);
    options.deriv = true;
    options.cache = CacheMode::Bypass;
    CompilerSession::with_options(options)
}

/// The Jacobian where a solve refactors it: mid-trajectory, every species
/// populated (at `t = 0` most entries are numerically zero and the sparse
/// kernel skips their updates).
fn compiled(label: &'static str, artifact: &CompiledArtifact) -> Case {
    let choice = artifact.kernel(EngineMode::Exec);
    let bound = BoundKernel::new(&choice, &artifact.system.rate_values);
    let (states, _) = solve_bdf_with_jacobian(
        &bound,
        0.0,
        &artifact.system.initial,
        &[0.5],
        SolverOptions::default(),
        bound.jacobian_source(),
    )
    .expect("model integrates");
    let plan = bound.plan().expect("Deriv ran");
    let mut jac = plan.jacobian_store();
    bound.eval_values(0.5, &states[0], jac.vals_mut());
    Case { label, plan, jac }
}

/// A fully coupled system: what `Auto` must send to the dense LU.
fn coupled(n: usize) -> Case {
    let pattern = SparsityPattern::new(vec![(0..n as u32).collect(); n], n);
    let plan = Arc::new(NewtonPlan::analyze(&pattern).expect("square pattern"));
    let mut jac = plan.jacobian_store();
    for (k, v) in jac.vals_mut().iter_mut().enumerate() {
        let (i, j) = (k / n, k % n);
        *v = if i == j {
            -(n as f64)
        } else {
            ((i * 31 + j * 17) % 13) as f64 / 13.0
        };
    }
    Case {
        label: "fully coupled",
        plan,
        jac,
    }
}

/// Best-of-five mean nanoseconds per call over ~50 ms batches.
fn ns_per_call(mut call: impl FnMut()) -> f64 {
    call();
    (0..5)
        .map(|_| {
            let (clock, mut calls) = (Instant::now(), 0u32);
            while clock.elapsed().as_secs_f64() < 0.05 {
                call();
                calls += 1;
            }
            clock.elapsed().as_secs_f64() * 1e9 / f64::from(calls)
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
#[ignore = "a measurement: run with --release --ignored --nocapture"]
fn calibrate_sparse_cost_per_mac() {
    let session = session();
    let vulcanization = session
        .compile_source("vulcanization.rdl", VULCANIZATION_RDL)
        .expect("bundled RDL model compiles");
    // The `rdl_fit` model.
    let rdl_fit = session
        .compile_source("rdl_fit", &vulcanization_source(16))
        .expect("scaled RDL model compiles");
    let table1 = scaled_case(2, 40);
    let table1 = session
        .compile_network("scaled_case(2, 40)", table1.network, table1.rates)
        .expect("workload models always compile");
    let cases = [
        compiled("vulcanization.rdl", &vulcanization.artifact),
        compiled("rdl_fit", &rdl_fit.artifact),
        compiled("scaled_case(2, 40)", &table1.artifact),
        coupled(64),
    ];

    let scale = 0.01;
    println!(
        "{:<20} {:>5} {:>11} {:>13} {:>10} {:>10} {:>8} {:>8} {:>6}  auto",
        "model",
        "n",
        "sparse MACs",
        "dense MACs",
        "sparse ns",
        "dense ns",
        "ns/MAC",
        "ns/MAC",
        "ratio"
    );
    for Case { label, plan, jac } in &cases {
        let n = jac.n_rows();
        let mut newton = SparseNewton::from_plan(plan.clone());
        let sparse_ns = ns_per_call(|| {
            std::hint::black_box(
                newton
                    .factor_from_csr(std::hint::black_box(jac), scale)
                    .ok(),
            );
        });
        let dense_ns = ns_per_call(|| {
            let m = std::hint::black_box(jac).assemble_iteration_matrix(scale);
            std::hint::black_box(Lu::factor(&m).ok());
        });
        let (sparse_macs, dense_macs) = (plan.factor_macs() as f64, plan.dense_factor_macs());
        let (sparse_per, dense_per) = (sparse_ns / sparse_macs, dense_ns / dense_macs);
        println!(
            "{label:<20} {n:>5} {sparse_macs:>11.0} {dense_macs:>13.0} {sparse_ns:>10.0} \
             {dense_ns:>10.0} {sparse_per:>8.3} {dense_per:>8.3} {:>6.2}  {}",
            sparse_per / dense_per,
            if plan.prefers_sparse() {
                "sparse"
            } else {
                "dense"
            },
        );
    }
    println!("SPARSE_COST_PER_MAC = {SPARSE_COST_PER_MAC} (the rdl_fit row's ratio when recorded)");
}
