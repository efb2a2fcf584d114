//! An oracle the engines did not write: mass-action kinetics evaluated
//! reaction by reaction, straight from the network's reaction list and
//! rate table. Nothing here touches the equation generator, the
//! optimizer, a tape or a kernel, so a bug in any of them cannot agree
//! with it by construction. (The benchmark keeps its own copy in
//! `benchmark/src/refs.rs`; it is a separate package.)
//!
//! Every engine's right-hand side must agree with it to 10⁻¹⁰ of each
//! species' flow magnitude, and every engine's analytic Jacobian with its
//! central difference, on both bundled models and the generated families.
//! Native rows print `SKIP:` where there is no C toolchain.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rms_suite::workload::{scaled_case, vulcanization_source, FrontierSpec};
use rms_suite::{
    probe_toolchain, CompiledArtifact, CompilerSession, EngineMode, KernelScratch, OptLevel,
    RateTable, ReactionNetwork, SessionOptions,
};

/// Mass-action kinetics evaluated reaction by reaction: each event flows
/// at `k · Π[reactant]` and moves that much out of every reactant
/// occurrence and into every product occurrence.
struct MassAction {
    /// Per reaction: index into the rate vector, reactants, products.
    reactions: Vec<(usize, Vec<usize>, Vec<usize>)>,
    n_species: usize,
}

impl MassAction {
    /// `rates` only maps each reaction's rate name to its slot in the rate
    /// vector the caller will evaluate with.
    fn new(network: &ReactionNetwork, rates: &RateTable) -> MassAction {
        let reactions = network
            .reactions()
            .iter()
            .map(|r| {
                let slot = rates.id(&r.rate).expect("every rate is declared");
                let ids = |side: &[rms_rdl::SpeciesId]| side.iter().map(|s| s.0 as usize).collect();
                (slot.0 as usize, ids(&r.reactants), ids(&r.products))
            })
            .collect();
        MassAction {
            reactions,
            n_species: network.species_count(),
        }
    }

    /// `ydot` receives the derivative and `scale` the sum of the absolute
    /// flows through each species — the magnitude against which a
    /// reordered floating-point sum may legitimately differ.
    fn eval(&self, rate_values: &[f64], y: &[f64], ydot: &mut [f64], scale: &mut [f64]) {
        assert_eq!(y.len(), self.n_species);
        ydot.fill(0.0);
        scale.fill(0.0);
        for (slot, reactants, products) in &self.reactions {
            let flow = reactants
                .iter()
                .fold(rate_values[*slot], |acc, &s| acc * y[s]);
            for &s in reactants {
                ydot[s] -= flow;
                scale[s] += flow.abs();
            }
            for &s in products {
                ydot[s] += flow;
                scale[s] += flow.abs();
            }
        }
    }
}

/// The models the oracle checks, compiled with the Jacobian tapes (and a
/// native kernel where there is a C compiler).
fn models(dir: &std::path::Path) -> Vec<(&'static str, Arc<CompiledArtifact>)> {
    let mut options = SessionOptions::new(OptLevel::Full);
    options.deriv = true;
    options.cache_dir = Some(dir.to_path_buf());
    options.native = probe_toolchain().is_ok();
    let session = CompilerSession::with_options(options);
    let source = |label, text: &str| {
        let compiled = session.compile_source(label, text).expect("model compiles");
        (label, compiled.artifact)
    };
    // The 60-equation floor of the Table 1 generator.
    let smallest = scaled_case(1, 1_000);
    let network = session
        .compile_network("scaled_case", smallest.network, smallest.rates)
        .expect("generated network compiles");
    vec![
        source("quickstart.rdl", include_str!("../models/quickstart.rdl")),
        source(
            "vulcanization.rdl",
            include_str!("../models/vulcanization.rdl"),
        ),
        source("vulcanization_source(8)", &vulcanization_source(8)),
        source(
            "FrontierSpec { arms: 5 }",
            &FrontierSpec { arms: 5 }.rdl_source(),
        ),
        ("scaled_case(1, 1000)", network.artifact),
    ]
}

/// Every engine this machine can run over `artifact`.
fn engines(artifact: &CompiledArtifact) -> Vec<EngineMode> {
    let mut engines = vec![EngineMode::Interp, EngineMode::Exec];
    match probe_toolchain() {
        Ok(_) => {
            let native = artifact.kernel(EngineMode::Native);
            assert!(!native.degraded, "{}", native.reason);
            engines.push(EngineMode::Native);
        }
        Err(e) => eprintln!("SKIP: native engine against mass action: {e}"),
    }
    engines
}

/// Seeded strictly positive states, away from the zero-concentration case.
fn states(n: usize) -> Vec<Vec<f64>> {
    let mut rng = SmallRng::seed_from_u64(2007);
    (0..3)
        .map(|_| (0..n).map(|_| rng.gen_range(0.1..1.1)).collect())
        .collect()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rms-mass-action-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn every_engine_evaluates_mass_action() {
    let dir = temp_dir("rhs");
    for (label, artifact) in models(&dir) {
        let oracle = MassAction::new(&artifact.network, &artifact.rates);
        let rates = &artifact.system.rate_values;
        let n = artifact.system.len();
        let (mut want, mut scale) = (vec![0.0; n], vec![0.0; n]);
        for engine in engines(&artifact) {
            let choice = artifact.kernel(engine);
            let mut scratch = KernelScratch::default();
            for (k, y) in states(n).iter().enumerate() {
                oracle.eval(rates, y, &mut want, &mut scale);
                let mut got = vec![0.0; n];
                choice.kernel.rhs(rates, y, &mut got, &mut scratch);
                for i in 0..n {
                    let error = (got[i] - want[i]).abs() / scale[i].max(f64::MIN_POSITIVE);
                    assert!(
                        error <= 1e-10,
                        "{label}/{engine} state {k}, species {i}: {} against mass action {} \
                         (flow magnitude {})",
                        got[i],
                        want[i],
                        scale[i]
                    );
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The Jacobian tapes against the oracle's central difference, entry by
/// entry over the whole `n × n` matrix, so an entry missing from the
/// compiled pattern shows as well as a wrong value. Mass action is at most
/// quadratic in the state, so the central difference is exact but for
/// rounding, about ε·flow/h.
#[test]
fn every_engines_analytic_jacobian_is_the_central_difference_of_mass_action() {
    let dir = temp_dir("jac");
    let h = 1e-3;
    for (label, artifact) in models(&dir) {
        let oracle = MassAction::new(&artifact.network, &artifact.rates);
        let rates = &artifact.system.rate_values;
        let n = artifact.system.len();
        for engine in engines(&artifact) {
            let choice = artifact.kernel(engine);
            let entries = choice.kernel.jac_entries().expect("Deriv ran");
            let mut scratch = KernelScratch::default();
            for (k, y) in states(n).iter().enumerate() {
                let (mut ydot, mut vals) = (vec![0.0; n], vec![0.0; entries.len()]);
                choice
                    .kernel
                    .rhs_jac(rates, y, &mut ydot, &mut vals, &mut scratch);
                let mut analytic = vec![0.0; n * n];
                for (&(i, j), v) in entries.iter().zip(&vals) {
                    analytic[i as usize * n + j as usize] = *v;
                }
                let (mut scale, mut unused) = (vec![0.0; n], vec![0.0; n]);
                oracle.eval(rates, y, &mut vec![0.0; n], &mut scale);
                for j in 0..n {
                    let (mut up, mut down) = (y.clone(), y.clone());
                    up[j] += h;
                    down[j] -= h;
                    let (mut f_up, mut f_down) = (vec![0.0; n], vec![0.0; n]);
                    oracle.eval(rates, &up, &mut f_up, &mut unused);
                    oracle.eval(rates, &down, &mut f_down, &mut unused);
                    for i in 0..n {
                        let central = (f_up[i] - f_down[i]) / (2.0 * h);
                        let a = analytic[i * n + j];
                        assert!(
                            (a - central).abs() <= 1e-8 * (scale[i] + a.abs()),
                            "{label}/{engine} state {k}: ∂f{i}/∂y{j} is {a}, central \
                             difference {central} (flow magnitude {})",
                            scale[i]
                        );
                    }
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
