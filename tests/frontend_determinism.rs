//! Frontend determinism: the closure engine must build a byte-identical
//! `ReactionNetwork` whatever its execution configuration — serial or
//! threaded, string canonical keys or interned content hashes, per-rule
//! frontier or legacy full rescan. Errors must match too: a run that
//! blows the species limit blows it identically at every thread count.
//!
//! Also pins the paper's Table 1 case-5 scale (the 250 000-ODE ceiling
//! the parallel frontend targets) and the synthetic workloads' exact
//! species/reaction counts, so a frontend change that silently perturbs
//! network generation fails loudly here.

use proptest::prelude::*;

use rms_rdl::{compile_with_oracle, Oracle};
use rms_suite::{
    expand_program, parse_rdl, CompilerSession, EngineOptions, OptLevel, RateTable,
    ReactionNetwork, SessionOptions,
};
use rms_workload::{scaled_case, FrontierSpec, TABLE1};

/// Full byte-level serialization of a network: species (id, name,
/// initial, canonical form) in id order plus every reaction with its
/// operand ids, rate and rule. Any divergence between engine
/// configurations shows up as a string diff.
fn render(network: &ReactionNetwork) -> String {
    let mut out = String::new();
    for (id, species) in network.species_iter() {
        out.push_str(&format!(
            "s{} {} init {} canon {:?}\n",
            id.0,
            species.name,
            species.initial_concentration,
            network.canonical_smiles(id)
        ));
    }
    for reaction in network.reactions() {
        let ids = |v: &[rms_rdl::SpeciesId]| {
            v.iter()
                .map(|s| s.0.to_string())
                .collect::<Vec<_>>()
                .join("+")
        };
        out.push_str(&format!(
            "{} -> {} rate {} rule {}\n",
            ids(&reaction.reactants),
            ids(&reaction.products),
            reaction.rate,
            reaction.rule
        ));
    }
    out
}

/// Run the Network stage under one engine configuration; both the
/// success serialization and the error text participate in equality.
fn close(source: &str, (options, oracle): (EngineOptions, Oracle)) -> Result<String, String> {
    let program = parse_rdl(source).map_err(|e| e.to_string())?;
    let rates = RateTable::parse(&program.rate_source).map_err(|e| e.to_string())?;
    let seeds = expand_program(&program).map_err(|e| e.to_string())?;
    compile_with_oracle(&program, rates, &seeds, &options, oracle)
        .map(|model| render(&model.network))
        .map_err(|e| e.to_string())
}

/// The configurations under test: the PR-9 oracle (full rescan, string
/// keys, serial) and the frontier engine at 1, 2 and 8 threads with and
/// without interning, plus auto thread selection.
fn configurations() -> Vec<(&'static str, (EngineOptions, Oracle))> {
    let config = |threads, string_keys, legacy_rescan| {
        let oracle = Oracle {
            string_keys,
            legacy_rescan,
        };
        (EngineOptions { threads }, oracle)
    };
    vec![
        ("legacy-rescan", config(1, true, true)),
        ("frontier-t1", config(1, false, false)),
        ("frontier-t2", config(2, false, false)),
        ("frontier-t8", config(8, false, false)),
        ("frontier-t8-nointern", config(8, true, false)),
        ("frontier-auto", config(0, false, false)),
    ]
}

fn assert_all_configurations_agree(source: &str) {
    let configs = configurations();
    let reference = close(source, configs[0].1);
    for (label, options) in &configs[1..] {
        let got = close(source, *options);
        assert_eq!(got, reference, "{label} diverged from {}", configs[0].0);
    }
}

#[test]
fn frontier_workload_is_bit_identical_across_engines() {
    // 270 species, two growth generations, all three coupling pairs.
    assert_all_configurations_agree(&FrontierSpec { arms: 9 }.rdl_source());
}

/// One knob-randomized frontier-family program. Tight species caps make
/// some instances *fail* with `SpeciesLimitExceeded` — the error must be
/// identical across configurations too.
#[derive(Debug, Clone)]
struct RandomProgram {
    arms: usize,
    rule_mask: u8,
    generations: usize,
    species_cap: usize,
}

impl RandomProgram {
    const RULES: [&'static str; 6] = [
        "rule scission_s { on SChain; site bond S ~ S order single; action disconnect; rate K_sc_s; }",
        "rule scission_o { on OChain; site bond O ~ O order single; action disconnect; rate K_sc_o; }",
        "rule scission_n { on NChain; site bond N ~ N order single; action disconnect; rate K_sc_n; }",
        "rule couple_so { site pair S & radical, O & radical; action connect single; rate K_cp_so; }",
        "rule couple_sn { site pair S & radical, N & radical; action connect single; rate K_cp_sn; }",
        "rule couple_on { site pair O & radical, N & radical; action connect single; rate K_cp_on; }",
    ];

    fn source(&self) -> String {
        let mut src = String::from(
            "rate K_sc_s = 4;\nrate K_sc_o = 3;\nrate K_sc_n = 2;\n\
             rate K_cp_so = 2.5;\nrate K_cp_sn = 1.5;\nrate K_cp_on = 0.5;\n",
        );
        src.push_str(&format!(
            "molecule SChain = \"CS{{n}}C\" for n in 2..{a} init 1.0;\n\
             molecule OChain = \"CO{{n}}C\" for n in 2..{a} init 0.5;\n\
             molecule NChain = \"CN{{n}}C\" for n in 2..{a} init 0.25;\n",
            a = self.arms
        ));
        for (i, rule) in Self::RULES.iter().enumerate() {
            if self.rule_mask & (1 << i) != 0 {
                src.push_str(rule);
                src.push('\n');
            }
        }
        src.push_str(&format!(
            "limit atoms {};\nlimit species {};\nlimit generations {};\n",
            2 * self.arms,
            self.species_cap,
            self.generations
        ));
        src
    }
}

fn arb_program() -> impl Strategy<Value = RandomProgram> {
    (
        2usize..6,
        0u8..64,
        1usize..5,
        prop::sample::select(vec![10usize, 40, 100_000]),
    )
        .prop_map(
            |(arms, rule_mask, generations, species_cap)| RandomProgram {
                arms,
                rule_mask,
                generations,
                species_cap,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random rule subsets, chain lengths, generation caps and species
    /// caps: every engine configuration produces the identical
    /// serialization — or the identical error.
    #[test]
    fn random_programs_agree_across_engines(program in arb_program()) {
        let source = program.source();
        let configs = configurations();
        let reference = close(&source, configs[0].1);
        for (label, options) in &configs[1..] {
            prop_assert_eq!(
                &close(&source, *options),
                &reference,
                "{} diverged on {:?}",
                label,
                program
            );
        }
    }
}

#[test]
fn session_artifacts_agree_across_frontend_threads() {
    let source = FrontierSpec { arms: 6 }.rdl_source();
    let compile_at = |threads: usize| {
        let mut options = SessionOptions::new(OptLevel::Full);
        options.frontend_threads = threads;
        CompilerSession::with_options(options)
            .compile_source("frontier.rdl", &source)
            .expect("frontier workload compiles")
    };
    // Different thread counts hash to different cache keys, so both are
    // cold compiles — and must still agree on everything downstream.
    let serial = compile_at(1);
    let threaded = compile_at(2);
    assert_eq!(
        render(&serial.artifact.network),
        render(&threaded.artifact.network),
        "networks diverge across frontend thread counts"
    );
    assert_eq!(
        serial.artifact.compiled.tape.to_string(),
        threaded.artifact.compiled.tape.to_string(),
        "lowered tapes diverge across frontend thread counts"
    );
}

/// Table 1 case 5 is the paper's largest model — the 250 000-ODE wall
/// the parallel frontend exists to climb. Pin the reference row and the
/// sizes the synthetic stand-ins resolve to.
#[test]
fn table1_case_5_scale_is_pinned() {
    let c5 = TABLE1[4];
    assert_eq!(c5.case, 5);
    assert_eq!(c5.equations, 250_000);
    assert_eq!(c5.mults_unopt, 2_400_000);
    assert_eq!(c5.adds_unopt, 974_000);

    // The frontier workload sized for case 5: arms and exact closed
    // species count are a pure function of the target.
    let spec = FrontierSpec::for_species(c5.equations);
    assert_eq!(spec.arms, 289);
    assert_eq!(spec.species_estimate(), 250_560);

    // The vulcanization stand-in at 1/250 scale: exact generated counts.
    let model = scaled_case(5, 250);
    assert_eq!(
        (
            model.network.species_count(),
            model.network.reaction_count()
        ),
        (988, 10_242),
        "scaled_case(5, 250) network changed shape"
    );
}
