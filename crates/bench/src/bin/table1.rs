//! Table 1 reproduction: operation counts, compile success/failure of the
//! commercial-compiler model, and execution times across optimization
//! configurations, for the five vulcanization test cases — then the
//! per-pass ablation (`[ablation]` rows: one 450-equation model at every
//! optimization level).
//!
//! Usage:
//!   table1 [--scale K] [--cases 1,2,3] [--iters N] [--budget BYTES]
//!
//! `--scale 1` runs the paper-scale equation counts (case 5 = 250 000
//! equations; symbolically feasible but slow on a laptop). The default
//! scale keeps the run to minutes. Operation counts, which cells hit
//! "compiler error", and the measured speedups are printed next to the
//! paper's reference numbers; absolute seconds differ (their machine was
//! a 375 MHz POWER3), the *shape* is what reproduces.

use rms_bench::{
    compile_case, compile_case_cold, fmt_secs, parse_or_exit, run_bench, system_for, time_tape_eval,
};
use rms_core::{
    compact_registers, forward_copies, generic_compile, lower, optimize, GenericOptions, OptLevel,
    PAPER_MEMORY_BUDGET,
};
use rms_workload::{generate_model, scaled_case, VulcanizationSpec, TABLE1};

const USAGE: &str = "\
table1 — Table 1 reproduction (op counts, compile limits, eval times)

USAGE:
  table1 [--scale K] [--cases 1,2,3] [--iters N] [--budget BYTES]
";

struct Config {
    scale: usize,
    iters: usize,
    cases: Vec<usize>,
    budget: usize,
}

fn main() {
    let args = parse_or_exit(USAGE, &["--scale", "--cases", "--iters", "--budget"], &[]);
    run_bench(USAGE, args, parse, run);
}

fn parse(args: &rms_bench::BenchArgs) -> Result<Config, String> {
    let cases: Vec<usize> = args.num_list("--cases", &[1, 2, 3, 4, 5])?;
    if cases.is_empty() || cases.iter().any(|&c| c == 0 || c > TABLE1.len()) {
        return Err(format!("--cases takes ids in 1..={}", TABLE1.len()));
    }
    Ok(Config {
        scale: args.num("--scale", 25)?,
        iters: args.num("--iters", 50)?,
        cases,
        budget: args.num("--budget", 0)?,
    })
}

fn run(config: Config) -> Result<(), String> {
    let Config {
        scale,
        iters,
        cases,
        budget,
    } = config;
    // The compiler memory budget is normalized the way the paper's
    // 4.5 GB sits relative to its workload: just above what -O0 needs for
    // case 4 (which compiled) and below -O0's need for case 5 (which
    // died). We scale 4.5 GB by the ratio of our case-4 unoptimized op
    // count to the paper's (1 840 000), so the pass/fail pattern of
    // Table 1 emerges from the same mechanism at any --scale.
    let budget: usize = match budget {
        0 => {
            // Cached: if case 4 is in the run below, this compile is the
            // same artifact the loop will share.
            let case4 = scaled_case(4, scale);
            let tape_len = compile_case(&case4, OptLevel::None).compiled.tape.len();
            ((PAPER_MEMORY_BUDGET as u128 * tape_len as u128) / 1_840_000u128) as usize
        }
        explicit => explicit,
    };

    println!("Table 1 reproduction (scale 1/{scale}, compiler budget {budget} IR bytes)");
    println!("paper reference in [brackets]; times are this machine's, shapes should match\n");

    for &case in &cases {
        let reference = TABLE1[case - 1];
        let model = scaled_case(case, scale);
        let equations = model.network.species_count();
        println!(
            "── case {case}: {equations} equations [{}], {} reactions ──",
            reference.equations,
            model.network.reaction_count()
        );

        // Baseline: no optimizations at all (raw Fig. 4 style system).
        let baseline = compile_case(&model, OptLevel::None);
        let (raw, unopt) = (&baseline.system, &baseline.compiled);
        let unopt_counts = unopt.stages.after_cse;
        println!(
            "  without opts:      {:>9} mults [{}], {:>9} adds [{}]",
            unopt_counts.mults, reference.mults_unopt, unopt_counts.adds, reference.adds_unopt
        );

        // The paper's "without optimizations" column still goes through
        // the C compiler at default opt; its case-5 cell is a compiler
        // error. Report whether -O0 fits the budget, then measure the
        // interpreted RHS evaluation time (the paper's runtime is
        // solver-dominated and solver cost tracks RHS cost).
        // The C the paper feeds xlc names every temporary distinctly —
        // our SSA lowering, not the register-compacted execution tape
        // (value numbering runs before register allocation in any real
        // compiler).
        let ssa = lower(&unopt.forest);
        let o0_fits = generic_compile(
            &ssa,
            GenericOptions {
                opt_level: 0,
                memory_budget: budget,
            },
        )
        .is_ok();
        let t_unopt = time_tape_eval(unopt, raw, iters);
        println!(
            "  eval time/call:    {:>9}   [{}]{}",
            fmt_secs(t_unopt),
            reference
                .time_unopt
                .map_or("compiler error".to_string(), |t| format!("{t}s total")),
            if o0_fits {
                ""
            } else {
                "  (-O0 compile: lack of space, as in the paper)"
            }
        );

        // "With C compiler optimizations only": generic VN at -O4 with the
        // scaled memory budget; failures mirror Table 1's error cells.
        match generic_compile(
            &ssa,
            GenericOptions {
                opt_level: 4,
                memory_budget: budget,
            },
        ) {
            Ok(result) => {
                let mut ccomp = unopt.clone();
                // A real compiler coalesces the copies VN leaves behind;
                // forward them and re-allocate registers before timing.
                ccomp.tape = compact_registers(&forward_copies(&result.tape)).into();
                let t_ccomp = time_tape_eval(&ccomp, raw, iters);
                println!(
                    "  C-compiler-only:   {:>9}   [{}]  ({} ops eliminated)",
                    fmt_secs(t_ccomp),
                    reference
                        .time_ccomp
                        .map_or("compiler error".to_string(), |t| format!("{t}s total")),
                    result.eliminated
                );
            }
            Err(e) => println!(
                "  C-compiler-only:   {:>9}   [{}]",
                format!("{e}")
                    .split(" (")
                    .next()
                    .unwrap_or("error")
                    .to_string(),
                reference
                    .time_ccomp
                    .map_or("compiler error".to_string(), |t| format!("{t}s total"))
            ),
        }

        // With our algebraic + CSE optimizations. Cold compile so the
        // reported pipeline time is real work, not a cache hit.
        let optimized = compile_case_cold(&model, OptLevel::Full);
        let (simplified, opt) = (&optimized.system, &optimized.compiled);
        let compile_time = optimized.report.total_seconds;
        let opt_counts = opt.stages.after_cse;
        let t_opt = time_tape_eval(opt, simplified, iters);
        println!(
            "  with algebraic/CSE:{:>9} mults [{}], {:>9} adds [{}]  (compile {})",
            opt_counts.mults,
            reference.mults_opt,
            opt_counts.adds,
            reference.adds_opt,
            fmt_secs(compile_time)
        );
        println!(
            "  eval time/call:    {:>9}   [{}s total]",
            fmt_secs(t_opt),
            reference.time_opt
        );

        let total_fraction = opt_counts.total() as f64 / unopt_counts.total() as f64;
        let reference_fraction = (reference.mults_opt + reference.adds_opt) as f64
            / (reference.mults_unopt + reference.adds_unopt) as f64;
        let speedup = t_unopt / t_opt;
        let reference_speedup = reference.time_unopt.map(|t| t / reference.time_opt);
        println!(
            "  ops remaining:     {:>8.1}%   [{:.1}%]   eval speedup: {:.2}x{}",
            100.0 * total_fraction,
            100.0 * reference_fraction,
            speedup,
            reference_speedup.map_or(String::new(), |s| format!("   [{s:.2}x]"))
        );
        println!();
    }

    // The per-pass ablation, from the raw (unmerged) system: §3.1 runs as
    // part of the pipeline at every level above None.
    let model = generate_model(VulcanizationSpec::for_equation_count(450));
    let raw = system_for(&model, false);
    for level in OptLevel::ALL {
        let c = optimize(&raw, level).stages.after_cse;
        let (level, mults, adds, total) = (level.to_string(), c.mults, c.adds, c.total());
        println!("[ablation] level={level:<22} mults={mults:<7} adds={adds:<7} total={total}");
    }
    println!();

    println!("compiler-limit claim (§3.3): the admitted-model-size multiplier equals the");
    println!("optimizer's compression factor (paper: >=10x on their models; ~4x measured on");
    println!("this synthetic workload) — see tests/compiler_limits.rs.");
    Ok(())
}
