//! Parallel scaling demo (Table 2's shape on your machine): the parallel
//! objective function over 16 replicated data files, with and without the
//! dynamic load balancer.
//!
//! Run with `cargo run --release --example parallel_scaling`.

use rms_suite::workload::{generate_model, synthesize, ExpDataSpec, VulcanizationSpec, TRUE_RATES};
use rms_suite::{
    block_schedule, compile_model, lpt_schedule, makespan, OptLevel, ParallelEstimator,
    TapeSimulator,
};

fn main() {
    // A model small enough that one objective call takes ~seconds.
    let model = generate_model(VulcanizationSpec {
        sites: 5,
        max_chain: 5,
        neighbourhood: 2,
    });
    let crosslinks = model.crosslink_species.clone();
    let suite = compile_model(model.network, model.rates, OptLevel::Full).expect("compiles");
    let mut observable = vec![0.0; suite.system.len()];
    for x in &crosslinks {
        observable[x.0 as usize] = 1.0;
    }
    let simulator = TapeSimulator::from_artifact(&suite, observable);

    // 16 files with skewed horizons => heterogeneous per-file solve times,
    // the imbalance the dynamic load balancer exists for.
    let files = synthesize(
        &simulator,
        &TRUE_RATES,
        ExpDataSpec {
            n_files: 16,
            records: 400,
            base_horizon: 2.0,
            horizon_skew: 0.45,
            noise: 0.0,
            seed: 3,
        },
    )
    .expect("synthesis succeeds");

    // Record real per-file solve times once (sequential run).
    let recorder = ParallelEstimator::new(&simulator, files.clone(), 1, false);
    recorder
        .objective(&TRUE_RATES)
        .expect("objective evaluates");
    let times = recorder.recorded_times().expect("times recorded");
    let total: f64 = times.iter().sum();
    println!("per-file solve times (ms):");
    for (i, t) in times.iter().enumerate() {
        println!("  formulation_{i:02}: {:8.2}", t * 1000.0);
    }
    println!("  total: {:.2} ms\n", total * 1000.0);

    // Schedule-model scaling (Table 2's shape, machine-independent):
    println!("=== schedule model: makespans from recorded times ===");
    println!(
        "{:>6} {:>14} {:>9} {:>14} {:>9}",
        "nodes", "block (ms)", "speedup", "LPT (ms)", "speedup"
    );
    for nodes in [1usize, 2, 4, 8, 16] {
        let block = makespan(
            &block_schedule(times.len(), nodes).expect("nodes > 0"),
            &times,
        );
        let lpt = makespan(&lpt_schedule(&times, nodes).expect("nodes > 0"), &times);
        println!(
            "{nodes:>6} {:>14.2} {:>9.2} {:>14.2} {:>9.2}",
            block * 1000.0,
            total / block,
            lpt * 1000.0,
            total / lpt
        );
    }

    // Real threaded runs, as far as this machine's cores allow.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("\n=== measured wall time on this machine ({cores} cores) ===");
    println!(
        "{:>6} {:>14} {:>9} {:>14} {:>9}",
        "nodes", "block (ms)", "speedup", "LPT (ms)", "speedup"
    );
    let mut t1 = None;
    for nodes in [1usize, 2, 4, 8, 16] {
        if nodes > cores {
            println!("{nodes:>6} (skipped: more ranks than cores)");
            continue;
        }
        let block_est = ParallelEstimator::new(&simulator, files.clone(), nodes, false);
        block_est.objective(&TRUE_RATES).expect("warmup");
        let block_t = block_est
            .objective(&TRUE_RATES)
            .expect("objective")
            .wall_time;
        let lb_est = ParallelEstimator::new(&simulator, files.clone(), nodes, true);
        lb_est.objective(&TRUE_RATES).expect("warmup records times");
        let lb_t = lb_est.objective(&TRUE_RATES).expect("objective").wall_time;
        let t1v = *t1.get_or_insert(block_t);
        println!(
            "{nodes:>6} {:>14.2} {:>9.2} {:>14.2} {:>9.2}",
            block_t * 1000.0,
            t1v / block_t,
            lb_t * 1000.0,
            t1v / lb_t
        );
    }
}
