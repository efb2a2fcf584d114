//! Table 2 reproduction: parallel objective-function scaling over 16
//! experimental data files, with and without dynamic load balancing.
//!
//! Usage:
//!   table2 [--records N] [--sites F] [--files N] [--threaded]
//!
//! The paper ran 1–16 IBM SP nodes. This harness measures real per-file
//! solve times sequentially, then reports the *schedule model*: each
//! node-count's total time is the makespan of the block or LPT schedule
//! over the measured times — exactly the quantity the SP measured, minus
//! the (negligible) AllReduce. `--threaded` additionally runs the real
//! thread-backed cluster (only meaningful when this machine has that many
//! cores; the build machine for the committed outputs has one core).

use rms_bench::{fmt_secs, parse_or_exit, run_bench};
use rms_core::OptLevel;
use rms_suite::{compile_model, ParallelEstimator, TapeSimulator};
use rms_workload::{
    generate_model, synthesize, ExpDataSpec, VulcanizationSpec, TABLE2, TRUE_RATES,
};

const USAGE: &str = "\
table2 — Table 2 reproduction (parallel objective-function scaling)

USAGE:
  table2 [--records N] [--sites F] [--files N] [--threaded]
";

struct Config {
    records: usize,
    sites: usize,
    n_files: usize,
    threaded: bool,
}

fn main() {
    let args = parse_or_exit(USAGE, &["--records", "--sites", "--files"], &["--threaded"]);
    run_bench(USAGE, args, parse, run);
}

fn parse(args: &rms_bench::BenchArgs) -> Result<Config, String> {
    let config = Config {
        records: args.num("--records", 600)?,
        sites: args.num("--sites", 6)?,
        n_files: args.num("--files", 16)?,
        threaded: args.switch("--threaded"),
    };
    if config.n_files == 0 || config.records == 0 {
        return Err("--files and --records must be at least 1".to_string());
    }
    Ok(config)
}

fn run(config: Config) -> Result<(), String> {
    let Config {
        records,
        sites,
        n_files,
        threaded,
    } = config;

    println!("Table 2 reproduction: {n_files} data files x {records} records");

    // Build and compile the model once (fully optimized — Table 2 sits on
    // top of the sequential optimizations).
    let model = generate_model(VulcanizationSpec {
        sites,
        max_chain: 6,
        neighbourhood: 2,
    });
    let crosslinks = model.crosslink_species.clone();
    let suite = compile_model(model.network, model.rates, OptLevel::Full).expect("compiles");
    let mut observable = vec![0.0; suite.system.len()];
    for x in &crosslinks {
        observable[x.0 as usize] = 1.0;
    }
    let simulator = TapeSimulator::from_artifact(&suite, observable);

    // Heterogeneous horizons reproduce the load imbalance that limited
    // the paper to 12.78x at 16 nodes without the balancer.
    let files = synthesize(
        &simulator,
        &TRUE_RATES,
        ExpDataSpec {
            n_files,
            records,
            base_horizon: 2.5,
            // Calibrated so the most expensive file is ~1.25x the mean,
            // the imbalance implied by the paper's 12.78x at 16 nodes.
            horizon_skew: 0.25,
            noise: 1e-3,
            seed: 16,
        },
    )
    .expect("synthesis succeeds");

    // Measure real per-file solve times (sequential, two passes: the
    // second is the measurement, warm).
    let recorder = ParallelEstimator::new(&simulator, files.clone(), 1, false);
    recorder.objective(&TRUE_RATES).expect("warmup");
    recorder.objective(&TRUE_RATES).expect("measure");
    let times = recorder.recorded_times().expect("recorded");
    let total: f64 = times.iter().sum();
    println!(
        "measured per-file solve times: min {} / max {} / total {}\n",
        fmt_secs(times.iter().copied().fold(f64::INFINITY, f64::min)),
        fmt_secs(times.iter().copied().fold(0.0, f64::max)),
        fmt_secs(total),
    );

    println!("schedule model over measured times (paper reference in [brackets]):");
    println!(
        "{:>6} | {:>12} {:>8} {:>9} | {:>12} {:>8} {:>9}",
        "nodes", "no-LB time", "speedup", "[paper]", "LB time", "speedup", "[paper]"
    );
    for (row, nodes) in TABLE2.iter().zip([1usize, 2, 4, 8, 16]) {
        let block = rms_suite::makespan(
            &rms_suite::block_schedule(times.len(), nodes).expect("nodes > 0"),
            &times,
        );
        let lpt = rms_suite::makespan(
            &rms_suite::lpt_schedule(&times, nodes).expect("nodes > 0"),
            &times,
        );
        println!(
            "{nodes:>6} | {:>12} {:>8.2} {:>9.2} | {:>12} {:>8.2} {:>9.2}",
            fmt_secs(block),
            total / block,
            row.speedup_block,
            fmt_secs(lpt),
            total / lpt,
            row.speedup_lb
        );
    }

    if threaded {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        println!("\nreal thread-backed cluster ({cores} cores):");
        println!("{:>6} {:>14} {:>14}", "nodes", "no-LB wall", "LB wall");
        for nodes in [1usize, 2, 4, 8, 16] {
            let block_est = ParallelEstimator::new(&simulator, files.clone(), nodes, false);
            block_est.objective(&TRUE_RATES).expect("warmup");
            let block_t = block_est
                .objective(&TRUE_RATES)
                .expect("objective")
                .wall_time;
            let lb_est = ParallelEstimator::new(&simulator, files.clone(), nodes, true);
            lb_est.objective(&TRUE_RATES).expect("warmup");
            let lb_t = lb_est.objective(&TRUE_RATES).expect("objective").wall_time;
            println!(
                "{nodes:>6} {:>14} {:>14}",
                fmt_secs(block_t),
                fmt_secs(lb_t)
            );
        }
    }
    Ok(())
}
