//! `vulc5k`: the paper's Table 1 case 4 at 1/25, from a prebuilt network.
//!
//! The mirror image of `frontier`: the frontend does nothing, the
//! optimizer's CSE and Deriv stages do all the compile work, and each
//! trajectory is kernel-heavy — 25 tape instructions per equation against
//! 3.5 there. Optimizer, kernel and engine changes must show here; a
//! frontend change must show nothing.

use rms_parallel::Simulator;
use rms_workload::TRUE_RATES;

use super::{
    check_model, drift_tolerance, even_times, first_compile, layer_probes, stays_at, timed, Run,
    Samples,
};
use crate::compile::{fresh_cache_dir, Model, Request};
use crate::inputs;
use crate::refs::TABLE1_CASE4_SCALE25;

const HORIZON: f64 = 2.0;
const OUTPUT_TIMES: usize = 20;
/// Trajectories run at rate vectors within ±20 % of the ground truth, as
/// the estimator's inner loop sees them.
const RATE_SPREAD: f64 = 0.2;

pub fn run(run: &mut Run<'_>) -> Result<(), String> {
    let times = even_times(HORIZON, OUTPUT_TIMES);
    let trajectories = if run.traced() { 1 } else { run.reps(8, 4) };
    let request = Request {
        model: Model::Vulc5k,
        sensitivity: true,
    };

    let (vectors, generate_s) = timed(run.tracer, "setup:generate", "harness", || {
        let vectors = inputs::rate_vectors(run.seed, &TRUE_RATES, trajectories, RATE_SPREAD);
        let path = run
            .inputs
            .write("vulc5k_rates.txt", &inputs::vectors_to_text(&vectors))
            .map_err(|e| format!("write input: {e}"))?;
        let text = std::fs::read_to_string(&path).map_err(|e| format!("read input: {e}"))?;
        inputs::vectors_from_text(&text)
    });
    let vectors = vectors?;

    let mut samples = Samples::default();
    let (warm, warm_dir) = first_compile(run, &mut samples, &request, "vulc5k", generate_s)?;
    let artifact = &warm.compiled.artifact;
    // The optimizer's output against EXPERIMENTS.md Table 1.
    let pin = TABLE1_CASE4_SCALE25;
    let counts = artifact.report.counts.after_cse;
    run.ledger.record(
        (artifact.system.len(), counts.mults, counts.adds)
            == (pin.equations, pin.mults_opt, pin.adds_opt),
        || {
            format!(
                "Table 1 case 4: {} equations, {counts}; expected {} equations, {} mults, {} adds",
                artifact.system.len(),
                pin.equations,
                pin.mults_opt,
                pin.adds_opt
            )
        },
    );
    check_model(run, "vulc5k", artifact, &warm.conservation, &vectors[0]);

    // Rounds of one cold compile (the first is the one above), two cache
    // revivals and one pass over the rate vectors: each vector is
    // integrated once per round, so its repetitions are a whole round apart.
    let rounds = if run.traced() { 1 } else { run.reps(2, 2) };
    for round in 0..rounds {
        if round > 0 {
            let dir = fresh_cache_dir(&run.out_dir, &format!("vulc5k-{round}"))?;
            samples.cold_compile(run, &request, &dir)?;
        }
        for _ in 0..2 {
            samples.revived_compile(run, &request, &warm_dir)?;
        }
        for (i, rates) in vectors.iter().enumerate() {
            samples.op(run, i, "simulate", "workload", |run| {
                let values = warm.simulator.simulate(rates, 0, &times);
                let ok = matches!(&values, Ok(v) if v.len() == times.len()
                    && stays_at(v, warm.conservation.total, drift_tolerance(&warm.simulator)));
                run.ledger.record(ok, || {
                    format!("trajectory {i} lost rubber sites or failed: {values:?}")
                });
            });
        }
    }
    if run.traced() {
        let plain_s = layer_probes(
            run,
            &request,
            &warm_dir,
            artifact,
            &warm.simulator,
            &vectors[0],
            &times,
        )?;
        // The sensitivity-augmented solve at large n: n × p multi-RHS
        // blocks behind the same factorization.
        let (aug, aug_s) = timed(
            run.tracer,
            "simulate_with_sensitivities",
            "workload",
            || {
                warm.simulator
                    .simulate_with_sensitivities(&vectors[0], 0, &times)
            },
        );
        run.ledger
            .record(aug.is_ok(), || format!("augmented solve: {:?}", aug.err()));
        run.metrics.set("workload.aug_solve_s", aug_s);
        run.metrics.set("workload.aug_over_plain", aug_s / plain_s);
    }
    samples.report(run);
    Ok(())
}
