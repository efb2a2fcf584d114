//! Compiler explorer: watch each optimization pass transform a model, and
//! compare against the "commercial compiler" (generic value numbering
//! with a memory budget).
//!
//! Run with `cargo run --release --example compiler_explorer`.

use rms_suite::workload::{generate_model, VulcanizationSpec};
use rms_suite::{compile_model, emit_c, generic_compile, GenericOptions, OptLevel, Passes};

fn main() {
    let model = generate_model(VulcanizationSpec::for_equation_count(450));
    println!(
        "model: {} species, {} reactions, {} distinct rate constants\n",
        model.network.species_count(),
        model.network.reaction_count(),
        model.rates.distinct_count()
    );

    // --- our optimizer, level by level -------------------------------
    println!("=== domain-specific optimizer (paper §3) ===");
    println!(
        "{:<22} {:>9} {:>9} {:>9} {:>10}",
        "level", "mults", "adds", "total", "remaining"
    );
    let mut baseline_total = 0usize;
    for level in OptLevel::ALL {
        let suite =
            compile_model(model.network.clone(), model.rates.clone(), level).expect("compiles");
        let counts = suite.compiled.stages.after_cse;
        if level == OptLevel::None {
            baseline_total = counts.total();
        }
        println!(
            "{:<22} {:>9} {:>9} {:>9} {:>9.1}%",
            level.to_string(),
            counts.mults,
            counts.adds,
            counts.total(),
            100.0 * counts.total() as f64 / baseline_total as f64
        );
    }

    // --- ablation: CSE without the distributive pass ------------------
    let suite = compile_model(model.network.clone(), model.rates.clone(), OptLevel::None)
        .expect("compiles");
    let cse_only = rms_suite::optimize_with_passes(
        &suite.system,
        Passes {
            simplify: true,
            distribute: false,
            cse: Some(Default::default()),
        },
    );
    println!(
        "{:<22} {:>9} {:>9} {:>9} {:>9.1}%   (ablation)",
        "simplify+cse (no dist)",
        cse_only.stages.after_cse.mults,
        cse_only.stages.after_cse.adds,
        cse_only.stages.after_cse.total(),
        100.0 * cse_only.stages.after_cse.total() as f64 / baseline_total as f64
    );

    // --- the commercial compiler model --------------------------------
    println!("\n=== generic 'commercial' compiler (Table 1's xlc model) ===");
    let unopt = compile_model(model.network.clone(), model.rates.clone(), OptLevel::None)
        .expect("compiles");
    // Feed the SSA lowering (the shape of the emitted C), not the
    // register-compacted execution tape.
    let ssa = rms_suite::lower(&unopt.compiled.forest);
    println!("input tape: {} instructions", ssa.len());
    println!(
        "{:<8} {:>14} {:>12} {:>12}",
        "level", "IR bytes", "eliminated", "result"
    );
    for level in 0..=4u8 {
        match generic_compile(
            &ssa,
            GenericOptions {
                opt_level: level,
                // A budget sized so low optimization levels fit but the
                // IR-hungry high levels die, like xlc on the big cases.
                memory_budget: ssa.len() * 7_000,
            },
        ) {
            Ok(result) => println!(
                "-O{level:<6} {:>14} {:>12} {:>9} ops",
                result.ir_bytes,
                result.eliminated,
                result.tape.op_counts().total()
            ),
            Err(e) => println!("-O{level:<6} {e}"),
        }
    }

    // --- generated C for a tiny slice ---------------------------------
    println!("\n=== generated C (3-site slice) ===");
    let tiny = generate_model(VulcanizationSpec {
        sites: 2,
        max_chain: 2,
        neighbourhood: 1,
    });
    let tiny = compile_model(tiny.network, tiny.rates, OptLevel::Full).expect("compiles");
    print!("{}", emit_c(&tiny.compiled.forest, "vulcanization_rhs"));
}
