//! Quickstart: describe a reaction in RDL, compile it to optimized ODEs,
//! inspect every intermediate artifact, and simulate.
//!
//! Run with `cargo run --example quickstart`.

use rms_suite::{compile_source, emit_native_c, OptLevel, TapeSimulator};

fn main() {
    // A disulfide that homolyzes and recombines — the smallest slice of
    // sulfur-vulcanization chemistry.
    let source = r#"
        # kinetics (RCIP sub-language; constants dedup by value)
        rate K_sc  = 2;
        rate K_rec = K_sc / 4;
        bound K_sc  in [0.1, 20];
        bound K_rec in [0.01, 5];

        # molecule variants: polysulfides CS{n}C for n = 2..4
        molecule PolyS = "CS{n}C" for n in 2..4 init 1.0;

        # rule 1: S-S homolysis (the paper's "disconnect two atoms")
        rule scission {
            site bond S ~ S order single;
            action disconnect;
            rate K_sc;
        }

        # rule 2: radical recombination ("connect two atoms")
        rule recombine {
            site pair S & radical, S & radical;
            action connect single;
            rate K_rec;
        }

        limit atoms 12;
        forbid chain S > 4;
    "#;

    let model = compile_source(source, OptLevel::Full).expect("model compiles");

    println!("=== reaction network (chemical compiler output, Fig. 3 form) ===");
    print!("{}", model.network.display_equations());

    println!("\n=== ODE system (equation generator output, Fig. 5 form) ===");
    print!("{}", model.system.display());

    println!("\n=== optimizer statistics ===");
    let s = model.compiled.stages;
    println!("input (sum-of-products): {}", s.input);
    println!("after simplify:          {}", s.after_simplify);
    println!("after distribute:        {}", s.after_distribute);
    println!("after CSE:               {}", s.after_cse);
    println!(
        "remaining fraction:      {:.1}%",
        100.0 * model.compiled.remaining_fraction()
    );

    println!("\n=== optimized expressions (optimizer output, `--dump-ir cse`) ===");
    print!("{}", model.compiled.forest);

    println!("\n=== generated C (backend output, `--emit c`) ===");
    print!("{}", emit_native_c(&model));

    println!("\n=== simulation (Gear/BDF stiff solver) ===");
    let times: Vec<f64> = (1..=5).map(|i| i as f64 * 0.2).collect();
    let simulator = TapeSimulator::from_artifact(&model, Vec::new());
    let solution = simulator
        .trajectory(&model.system.rate_values, 0, &times)
        .expect("integration succeeds");
    print!("{:>8}", "t");
    let names: Vec<String> = model
        .network
        .species_iter()
        .map(|(_, sp)| sp.name.clone())
        .collect();
    for name in &names {
        print!("{name:>14}");
    }
    println!();
    for (t, y) in times.iter().zip(&solution) {
        print!("{t:>8.2}");
        for v in y {
            print!("{v:>14.6}");
        }
        println!();
    }
}
