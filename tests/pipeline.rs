//! End-to-end pipeline integration: RDL source → chemical compiler →
//! RCIP → equation generator → optimizer → tape → solver.

use rms_suite::{compile_source, emit_c, CompiledArtifact, OptLevel, TapeSimulator};

const VULCANIZATION_RDL: &str = r#"
    # kinetics: scission fast, exchange derived, recombination slow
    rate K_sc  = 4;
    rate K_ex  = K_sc / 2;
    rate K_rec = 1;
    bound K_sc  in [0.1, 40];
    bound K_rec in [0.01, 10];

    molecule PolyS  = "CS{n}C" for n in 2..5 init 1.0;
    molecule Rubber = "CC=CC" init 2.0;

    rule scission {
        on PolyS;
        site bond S ~ S order single;
        action disconnect;
        rate K_sc;
    }
    rule abstraction {
        on Rubber;
        site atom C & allylic & hydrogens >= 1;
        action remove_h;
        rate K_ex;
    }
    rule graft {
        site pair S & radical, C & radical;
        action connect single;
        rate K_rec;
    }

    limit atoms 16;
    limit species 300;
    forbid chain S > 5;
"#;

/// The state at `times`, through the one solve path.
fn trajectory(model: &CompiledArtifact, times: &[f64]) -> Vec<Vec<f64>> {
    let simulator = TapeSimulator::from_artifact(model, Vec::new());
    simulator
        .trajectory(&model.system.rate_values, 0, times)
        .expect("simulates")
}

#[test]
fn full_pipeline_from_rdl_text() {
    let model = compile_source(VULCANIZATION_RDL, OptLevel::Full).expect("compiles");

    // The chemical compiler expanded variants and found reactions.
    assert!(
        model.network.species_count() > 6,
        "expected generated species beyond the seeds, got {}",
        model.network.species_count()
    );
    assert!(model.network.reaction_count() >= 6);

    // RCIP deduplicated by value: K_ex == K_sc/2 == 2 stays distinct from
    // K_rec == 1 and K_sc == 4.
    assert_eq!(model.rates.distinct_count(), 3);

    // The equation generator produced one ODE per species.
    assert_eq!(model.system.len(), model.network.species_count());

    // The optimizer reduced the work.
    assert!(
        model.compiled.stages.after_cse.total() < model.compiled.stages.input.total(),
        "{:?}",
        model.compiled.stages
    );

    // The C backend emits one assignment per equation.
    let c_code = emit_c(&model.compiled.forest, "rhs");
    assert_eq!(
        c_code.matches("ydot[").count(),
        model.system.len(),
        "every species needs an emitted derivative"
    );
}

#[test]
fn simulation_conserves_seeded_atoms() {
    let model = compile_source(VULCANIZATION_RDL, OptLevel::Full).expect("compiles");
    let times = [0.05, 0.2, 0.8];
    let solution = trajectory(&model, &times);

    // Sulfur atoms are conserved: weight each species by its sulfur count.
    let weights: Vec<f64> = model
        .network
        .species_iter()
        .map(|(_, sp)| {
            sp.structure
                .as_ref()
                .map(|m| {
                    m.atoms()
                        .filter(|(_, a)| a.element == rms_suite::molecule::Element::S)
                        .count() as f64
                })
                .unwrap_or(0.0)
        })
        .collect();
    let initial_sulfur: f64 = model
        .system
        .initial
        .iter()
        .zip(&weights)
        .map(|(c, w)| c * w)
        .sum();
    for (t, y) in times.iter().zip(&solution) {
        let sulfur: f64 = y.iter().zip(&weights).map(|(c, w)| c * w).sum();
        assert!(
            (sulfur - initial_sulfur).abs() < 1e-4 * initial_sulfur,
            "sulfur not conserved at t={t}: {sulfur} vs {initial_sulfur}"
        );
    }
}

#[test]
fn optimization_levels_identical_dynamics() {
    let times = [0.1, 0.4];
    let mut reference: Option<Vec<Vec<f64>>> = None;
    for level in OptLevel::ALL {
        let model = compile_source(VULCANIZATION_RDL, level).expect("compiles");
        let solution = trajectory(&model, &times);
        match &reference {
            None => reference = Some(solution),
            Some(expect) => {
                for (a, b) in expect.iter().flatten().zip(solution.iter().flatten()) {
                    assert!(
                        (a - b).abs() < 1e-5,
                        "{level}: {a} vs {b} — optimization changed the dynamics"
                    );
                }
            }
        }
    }
}

#[test]
fn deterministic_compilation() {
    let a = compile_source(VULCANIZATION_RDL, OptLevel::Full).expect("compiles");
    let b = compile_source(VULCANIZATION_RDL, OptLevel::Full).expect("compiles");
    assert_eq!(
        emit_c(&a.compiled.forest, "f"),
        emit_c(&b.compiled.forest, "f"),
        "compilation must be deterministic"
    );
    assert_eq!(a.compiled.tape.len(), b.compiled.tape.len());
}
