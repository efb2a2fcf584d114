//! A chemistry-derived vulcanization model written in RDL.
//!
//! The paper-scale test cases are synthesized programmatically
//! ([`crate::vulcanization`]); this module exercises the *frontend* path:
//! a real reaction description — accelerator-derived polysulfidic species
//! attacking a model diene rubber — compiled through SMILES, rule
//! application and network closure. Useful as a benchmark for the
//! chemical compiler itself and as a template users can extend.

/// RDL source: sulfur exchange + crosslinking on a 2-methyl-2-butene
/// rubber surrogate (one isoprene unit).
pub const VULCANIZATION_RDL: &str = r#"
# ---- kinetics (10 distinct parameters, as in the paper's models) ------
rate K_scission   = 4;        # S-S homolysis in polysulfides
rate K_exchange   = 2;        # interior S-S scission (chain shuffling)
rate K_abstract   = 1.5;      # allylic H abstraction by thiyl radicals
rate K_graft      = 3;        # C-S coupling (pendant formation)
rate K_couple     = 2.5;      # S-S radical recombination
rate K_quench     = 0.5;      # radical quench by hydrogen
rate K_deep       = K_exchange / 2;
rate K_beta       = 0.8;
rate K_gamma      = 1.2;
rate K_delta      = 0.3;

bound K_scission in [0.4, 40];
bound K_graft    in [0.3, 30];

# ---- species -----------------------------------------------------------
# model rubber: 2-methyl-2-butene (trisubstituted alkene, allylic CH3s)
molecule Rubber   = "CC=C(C)C" init 2.0;
# accelerator-derived polysulfides, chain lengths 2..5
molecule PolyS    = "CS{n}C" for n in 2..5 init 1.0;

# ---- rules: the paper's six primitives in chemical context -------------
rule scission {
    on PolyS;
    site bond S ~ S order single;
    action disconnect;
    rate K_scission;
}
rule deep_scission {
    site bond S & chain(S) >= 2 ~ S & chain(S) >= 2 order single;
    action disconnect;
    rate K_deep;
}
rule abstraction {
    on Rubber;
    site atom C & allylic & hydrogens >= 1;
    action remove_h;
    rate K_abstract;
}
rule graft {
    site pair S & radical, C & radical;
    action connect single;
    rate K_graft;
}
rule couple {
    site pair S & radical, S & radical;
    action connect single;
    rate K_couple;
}
rule quench {
    site atom S & radical & bonded(C);
    action add_h;
    rate K_quench;
}

# ---- generation control -------------------------------------------------
limit atoms 24;
limit species 400;
limit generations 4;
forbid chain S > 5;
"#;

/// [`VULCANIZATION_RDL`] with polysulfide chains `2..=max_chain` and its
/// generation limits scaled to match; rates as declared. At 16 it is the
/// 157-species model the `rdl_fit` benchmark workload fits (which keeps
/// its own copy of this function, `benchmark/src/inputs.rs`).
pub fn vulcanization_source(max_chain: usize) -> String {
    let replaced = [
        ("for n in 2..5", format!("for n in 2..{max_chain}")),
        (
            "forbid chain S > 5",
            format!("forbid chain S > {max_chain}"),
        ),
        (
            "limit atoms 24",
            format!("limit atoms {}", 24 * max_chain / 5 + 8),
        ),
        (
            "limit species 400",
            format!("limit species {}", 400 * max_chain / 5),
        ),
    ];
    let mut source = VULCANIZATION_RDL.to_string();
    for (from, to) in replaced {
        assert!(
            source.contains(from),
            "VULCANIZATION_RDL no longer contains '{from}'"
        );
        source = source.replace(from, &to);
    }
    source
}

#[cfg(test)]
mod tests {
    use super::*;
    use rms_rdl::{compile, parse_rdl};

    #[test]
    fn vulcanization_source_scales_every_limit() {
        let s = vulcanization_source(16);
        for scaled in [
            "for n in 2..16",
            "forbid chain S > 16",
            "limit atoms 84",
            "limit species 1280",
        ] {
            assert!(s.contains(scaled), "missing '{scaled}'");
        }
    }

    #[test]
    fn rdl_model_compiles_to_a_real_network() {
        let model = compile(&parse_rdl(VULCANIZATION_RDL).unwrap()).unwrap();
        // Seeds: Rubber + 4 PolyS variants = 5; closure must generate
        // radicals, grafts and recombination products.
        assert!(
            model.network.species_count() > 10,
            "only {} species",
            model.network.species_count()
        );
        assert!(
            model.network.reaction_count() > 15,
            "only {} reactions",
            model.network.reaction_count()
        );
        assert_eq!(model.rates.name_count(), 10);
        // K_deep = K_exchange/2 = 1 (distinct value) — all 10 distinct?
        // K_exchange=2 vs K_couple=2.5 vs ... check dedup count is <= 10.
        assert!(model.rates.distinct_count() <= 10);
    }

    #[test]
    fn grafting_produces_carbon_sulfur_crosslinks() {
        let model = compile(&parse_rdl(VULCANIZATION_RDL).unwrap()).unwrap();
        let grafts = model
            .network
            .reactions()
            .iter()
            .filter(|r| r.rule == "graft")
            .count();
        assert!(grafts > 0, "no graft reactions generated");
    }

    #[test]
    fn forbidden_chains_absent() {
        use rms_molecule::Element;
        let model = compile(&parse_rdl(VULCANIZATION_RDL).unwrap()).unwrap();
        for (_, sp) in model.network.species_iter() {
            if let Some(mol) = &sp.structure {
                // max same-element S component must be <= 5
                let mut seen = vec![false; mol.atom_count()];
                for start in 0..mol.atom_count() {
                    if seen[start] || mol.atom(start).unwrap().element != Element::S {
                        continue;
                    }
                    let mut size = 0;
                    let mut stack = vec![start];
                    seen[start] = true;
                    while let Some(at) = stack.pop() {
                        size += 1;
                        for nb in mol.neighbors(at).collect::<Vec<_>>() {
                            if !seen[nb] && mol.atom(nb).unwrap().element == Element::S {
                                seen[nb] = true;
                                stack.push(nb);
                            }
                        }
                    }
                    assert!(size <= 5, "species {} has S{size} chain", sp.name);
                }
            }
        }
    }

    #[test]
    fn full_pipeline_on_rdl_model() {
        use rms_core::OptLevel;
        use rms_driver::{CacheStatus, CompilerSession, Stage};
        let session = CompilerSession::new(OptLevel::Full);
        let compiled = session
            .compile_source("vulcanization.rdl", VULCANIZATION_RDL)
            .unwrap();
        let artifact = &compiled.artifact;
        assert!(
            artifact.compiled.stages.after_cse.total() < artifact.compiled.stages.input.total()
        );
        // The session instrumented every frontend stage on the way.
        for stage in [Stage::Parse, Stage::Expand, Stage::Rcip, Stage::Network] {
            assert!(artifact.report.stage(stage).is_some(), "missing {stage}");
        }
        // Semantics: tape equals naive evaluation.
        let sys = &artifact.system;
        let y: Vec<f64> = (0..sys.len())
            .map(|i| 0.05 + (i % 7) as f64 * 0.1)
            .collect();
        let expect = sys.eval_nominal(&y);
        let mut got = vec![0.0; sys.len()];
        artifact.compiled.tape.eval(&sys.rate_values, &y, &mut got);
        for (a, b) in expect.iter().zip(&got) {
            assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0));
        }
        // Recompiling the identical source hits the process-wide cache.
        let again = session
            .compile_source("vulcanization.rdl", VULCANIZATION_RDL)
            .unwrap();
        assert_eq!(again.status, CacheStatus::Memory);
        assert!(std::sync::Arc::ptr_eq(&compiled.artifact, &again.artifact));
    }
}
