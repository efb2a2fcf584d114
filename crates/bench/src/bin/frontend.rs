//! Network-generation (frontend) throughput: wall time to close a
//! frontier workload's reaction network on one thread along the product
//! path and the engine's two `oracle` reference paths — legacy full-rescan
//! vs per-rule frontier, string canonical keys vs interned certificates.
//! Prints a comparison table and writes a machine-readable
//! `BENCH_frontend.json`.
//!
//! Every configuration must produce a bit-identical network (species
//! order, reaction list, rates); the run aborts if any fingerprint
//! disagrees. Speedups are relative to the product path.
//!
//! The bench is serial on purpose. Its configurations share one process,
//! and the allocator hands a serial closure the heap the previous one
//! freed while worker threads fault in arenas of their own, so a threaded
//! row here would measure that, not the engine (an untimed warm-up closure
//! gives the first timed row the same warm heap as the rest). What threads
//! buy is read off fresh processes: the repository benchmark's `frontier`
//! `compile_s` (EXPERIMENTS.md); that threads change nothing in the
//! network is `tests/frontend_determinism.rs`.
//!
//! Usage:
//!   frontend [--species N] [--out FILE] [--smoke] [--force]
//!
//! `--smoke` shrinks the workload for CI: a ~2000-species network —
//! enough to validate determinism, the prefilter and the JSON artifact,
//! not timings.

use std::collections::hash_map::DefaultHasher;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use rms_bench::{fmt_secs, parse_or_exit, run_bench, write_artifact};
use rms_rdl::{compile_with_oracle, Oracle};
use rms_suite::{
    expand_program, parse_rdl, CompiledModel, EngineOptions, RateTable, ReactionNetwork,
};
use rms_workload::FrontierSpec;

const USAGE: &str = "\
frontend — network-generation wall time on one thread: legacy rescan vs
frontier, string keys vs interned certificates

USAGE:
  frontend [--species N] [--out FILE] [--smoke] [--force]

  --species N    target species count for the frontier workload
                 (default 50000)
  --out FILE     JSON artifact path (default BENCH_frontend.json)
  --smoke        CI preset: --species 2000
  --force        let a --smoke run overwrite a full-run JSON artifact
";

struct Config {
    smoke: bool,
    force: bool,
    species: usize,
    out_path: String,
}

/// One engine configuration's measured closure.
struct Run {
    label: String,
    oracle: Oracle,
    seconds: f64,
    species: usize,
    reactions: usize,
    rule_applications: u64,
    canonicalizations: u64,
    prefilter_hit_rate: f64,
    peak_frontier: usize,
    generations: usize,
    gen_max_seconds: f64,
    fingerprint: u64,
}

fn main() {
    let args = parse_or_exit(USAGE, &["--species", "--out"], &["--smoke", "--force"]);
    run_bench(USAGE, args, parse, run);
}

fn parse(args: &rms_bench::BenchArgs) -> Result<Config, String> {
    let smoke = args.switch("--smoke");
    let config = Config {
        smoke,
        force: args.switch("--force"),
        species: args.num("--species", if smoke { 2000 } else { 50_000 })?,
        out_path: args
            .value("--out")
            .unwrap_or("BENCH_frontend.json")
            .to_string(),
    };
    if config.species < 10 {
        return Err("--species must be at least 10".to_string());
    }
    Ok(config)
}

/// Structural fingerprint of a network: species (name, initial) in id
/// order plus reactions (ids, rate, rule) in insertion order — any
/// divergence between engine configurations lands here.
fn fingerprint(network: &ReactionNetwork) -> u64 {
    let mut h = DefaultHasher::new();
    network.species_count().hash(&mut h);
    for (_, species) in network.species_iter() {
        species.name.hash(&mut h);
        species.initial_concentration.to_bits().hash(&mut h);
    }
    network.reaction_count().hash(&mut h);
    for reaction in network.reactions() {
        for id in &reaction.reactants {
            id.0.hash(&mut h);
        }
        u32::MAX.hash(&mut h);
        for id in &reaction.products {
            id.0.hash(&mut h);
        }
        reaction.rate.hash(&mut h);
        reaction.rule.hash(&mut h);
    }
    h.finish()
}

fn measure(program: &rms_suite::Program, label: &str, oracle: Oracle) -> Result<Run, String> {
    let rates =
        RateTable::parse(&program.rate_source).map_err(|e| format!("{label}: rates: {e}"))?;
    let seeds = expand_program(program).map_err(|e| format!("{label}: expand: {e}"))?;
    let t0 = Instant::now();
    let CompiledModel {
        network,
        rates: _,
        stats,
    } = compile_with_oracle(
        program,
        rates,
        &seeds,
        &EngineOptions { threads: 1 },
        oracle,
    )
    .map_err(|e| format!("{label}: closure: {e}"))?;
    let seconds = t0.elapsed().as_secs_f64();
    Ok(Run {
        label: label.to_string(),
        oracle,
        seconds,
        species: network.species_count(),
        reactions: network.reaction_count(),
        rule_applications: stats.rule_applications,
        canonicalizations: stats.canonicalizations,
        prefilter_hit_rate: stats.prefilter_hit_rate(),
        peak_frontier: stats.peak_frontier,
        generations: stats.generations,
        gen_max_seconds: stats.generation_seconds.iter().copied().fold(0.0, f64::max),
        fingerprint: fingerprint(&network),
    })
}

fn run(config: Config) -> Result<(), String> {
    let spec = FrontierSpec::for_species(config.species);
    let source = spec.rdl_source();
    let program = parse_rdl(&source).map_err(|e| format!("workload parse: {e}"))?;
    println!(
        "frontier workload: arms {} -> {} species expected",
        spec.arms,
        spec.species_estimate()
    );

    let oracle = |string_keys, legacy_rescan| Oracle {
        string_keys,
        legacy_rescan,
    };
    let plan = [
        ("baseline-rescan", oracle(true, true)),
        ("frontier-strings", oracle(true, false)),
        ("frontier-serial", Oracle::default()),
    ];
    measure(&program, "warm-up", Oracle::default())?;
    let mut runs = Vec::with_capacity(plan.len());
    for (label, oracle) in plan {
        let run = measure(&program, label, oracle)?;
        println!(
            "{:<20} {:>10}  {} species, {} reactions, {} canonicalizations, \
             prefilter {:.1}%, peak frontier {}",
            run.label,
            fmt_secs(run.seconds),
            run.species,
            run.reactions,
            run.canonicalizations,
            100.0 * run.prefilter_hit_rate,
            run.peak_frontier,
        );
        runs.push(run);
    }

    // Hard determinism gate: every configuration, whatever its schedule
    // or key representation, must build the identical network.
    let reference = runs[0].fingerprint;
    let bit_identical = runs.iter().all(|r| r.fingerprint == reference);
    if !bit_identical {
        let labels: Vec<&str> = runs
            .iter()
            .filter(|r| r.fingerprint != reference)
            .map(|r| r.label.as_str())
            .collect();
        return Err(format!(
            "network fingerprints diverge from {}: {}",
            runs[0].label,
            labels.join(", ")
        ));
    }
    println!("all {} configurations bit-identical", runs.len());

    let seconds_of = |label: &str| {
        runs.iter()
            .find(|r| r.label == label)
            .map(|r| r.seconds)
            .unwrap_or(f64::NAN)
    };
    let baseline = seconds_of("baseline-rescan");
    let serial = seconds_of("frontier-serial");
    let single_thread_speedup = baseline / serial;
    println!(
        "frontier+interning vs legacy rescan (1 thread): {:.2}x",
        single_thread_speedup
    );
    println!(
        "certificates vs string keys (1 thread): {:.2}x",
        seconds_of("frontier-strings") / serial
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"frontend\",");
    let _ = writeln!(json, "  \"smoke\": {},", config.smoke);
    let _ = writeln!(json, "  \"target_species\": {},", config.species);
    let _ = writeln!(json, "  \"arms\": {},", spec.arms);
    let _ = writeln!(json, "  \"bit_identical\": {bit_identical},");
    let _ = writeln!(
        json,
        "  \"single_thread_speedup_vs_baseline\": {single_thread_speedup:.3},"
    );
    let _ = writeln!(json, "  \"runs\": [");
    for (i, r) in runs.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"label\": \"{}\",", r.label);
        let _ = writeln!(json, "      \"string_keys\": {},", r.oracle.string_keys);
        let _ = writeln!(json, "      \"legacy_rescan\": {},", r.oracle.legacy_rescan);
        let _ = writeln!(json, "      \"seconds\": {:.6},", r.seconds);
        let _ = writeln!(
            json,
            "      \"speedup_vs_serial\": {:.3},",
            serial / r.seconds
        );
        let _ = writeln!(json, "      \"species\": {},", r.species);
        let _ = writeln!(json, "      \"reactions\": {},", r.reactions);
        let _ = writeln!(
            json,
            "      \"rule_applications\": {},",
            r.rule_applications
        );
        let _ = writeln!(
            json,
            "      \"canonicalizations\": {},",
            r.canonicalizations
        );
        let _ = writeln!(
            json,
            "      \"prefilter_hit_rate\": {:.4},",
            r.prefilter_hit_rate
        );
        let _ = writeln!(json, "      \"peak_frontier\": {},", r.peak_frontier);
        let _ = writeln!(json, "      \"generations\": {},", r.generations);
        let _ = writeln!(json, "      \"gen_max_seconds\": {:.6}", r.gen_max_seconds);
        let _ = writeln!(json, "    }}{}", if i + 1 < runs.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    write_artifact(&config.out_path, &json, config.smoke, config.force)?;
    println!("wrote {}", config.out_path);
    Ok(())
}
