//! `frontier`: a 20,169-species model from RDL text to trajectory.
//!
//! Compile is network closure — rule matching, canonicalization, interning
//! — with the optimizer a small remainder; the trajectory has a trivial
//! right-hand side at n = 20k, so sparse LU, Newton vector work and memory
//! traffic decide it. The closed-form species count `3k² + 6k` is a
//! reference nobody here computed by running the compiler.

use rms_parallel::Simulator;

use super::{
    check_model, drift_tolerance, even_times, first_compile, layer_probes, stays_at, timed, Run,
    Samples,
};
use crate::compile::{fresh_cache_dir, Model, Request};
use crate::inputs::{self, FRONTIER_TARGET_SPECIES};

/// Trajectories end here, sampled at this many evenly spaced times.
const HORIZON: f64 = 2.0;
const OUTPUT_TIMES: usize = 20;

/// Species of the closed network: three chain families of `k` lengths give
/// `3k` seeds, `3k` radicals and `3k²` cross-coupled chains, and the
/// generator picks the smallest `k` reaching the target.
fn closed_form_species() -> usize {
    let mut k = 1;
    while 3 * k * k + 6 * k < FRONTIER_TARGET_SPECIES {
        k += 1;
    }
    3 * k * k + 6 * k
}

pub fn run(run: &mut Run<'_>) -> Result<(), String> {
    let times = even_times(HORIZON, OUTPUT_TIMES);
    let (request, generate_s) = timed(run.tracer, "setup:generate", "harness", || {
        run.inputs
            .write("frontier.rdl", &inputs::frontier_source(run.seed))
            .map(|path| Request {
                model: Model::Source(path),
                sensitivity: true,
            })
            .map_err(|e| format!("write input: {e}"))
    });
    let request = request?;

    let mut samples = Samples::default();
    let (warm, warm_dir) = first_compile(run, &mut samples, &request, "frontier", generate_s)?;
    let artifact = &warm.compiled.artifact;
    let rates = &artifact.system.rate_values;
    let species = artifact.network.species_count();
    run.ledger.record(species == closed_form_species(), || {
        format!(
            "frontier closed to {species} species, not {}",
            closed_form_species()
        )
    });
    run.ledger.record(artifact.warnings.is_empty(), || {
        "frontier closure stopped before its fixpoint".to_string()
    });
    check_model(run, "frontier", artifact, &warm.conservation, rates);

    // Rounds of one cold compile (the first is the one above), two cache
    // revivals and three trajectories, so every kind of sample is spread
    // over the whole run.
    let rounds = if run.traced() { 1 } else { run.reps(3, 2) };
    for round in 0..rounds {
        if round > 0 {
            let dir = fresh_cache_dir(&run.out_dir, &format!("frontier-{round}"))?;
            samples.cold_compile(run, &request, &dir)?;
        }
        for _ in 0..2 {
            samples.revived_compile(run, &request, &warm_dir)?;
        }
        // The headline operation: one trajectory on the warm artifact at
        // the simulator's own tolerances. It reports a conserved total, so
        // every trajectory is also an output check.
        for _ in 0..3 {
            samples.op(run, 0, "simulate", "workload", |run| {
                let values = warm.simulator.simulate(rates, 0, &times);
                let ok = matches!(&values, Ok(v) if v.len() == times.len()
                    && stays_at(v, warm.conservation.total, drift_tolerance(&warm.simulator)));
                run.ledger.record(ok, || {
                    format!(
                        "trajectory lost atoms or failed (total {}): {values:?}",
                        warm.conservation.total
                    )
                });
            });
        }
    }
    if run.traced() {
        layer_probes(
            run,
            &request,
            &warm_dir,
            artifact,
            &warm.simulator,
            rates,
            &times,
        )?;
        // The molecule probes need structures, which only a frontend run
        // in this process still has.
        let tracer = run.tracer.expect("traced run");
        let source = match &request.model {
            Model::Source(path) => {
                std::fs::read_to_string(path).map_err(|e| format!("read input: {e}"))?
            }
            Model::Vulc5k => unreachable!("frontier compiles RDL text"),
        };
        let (model, _) = timed(run.tracer, "frontend:structures", "rdl", || {
            rms_rdl::parse_rdl(&source).and_then(|program| rms_rdl::compile(&program))
        });
        let model = model.map_err(|e| format!("frontend: {e}"))?;
        crate::probes::molecules(&model.network, 0.02 * run.seconds, tracer, &mut run.metrics);
    }
    samples.report(run);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_matches_the_issue_sizing() {
        assert_eq!(closed_form_species(), 20_169);
    }
}
