//! `rdl_fit`: the paper's workflow, RDL text to a fitted rate vector.
//!
//! `models/vulcanization.rdl` with polysulfide chains 2..16 (157 species,
//! 1,730 reactions) is compiled from text with the sensitivity tapes, four
//! experiment files are synthesized at the declared rates with 1 % seeded
//! noise, and the estimator fits the two rates the model bounds. The
//! headline operation is one Levenberg–Marquardt iteration's fixed work —
//! one `objective_jacobian` plus one `objective` at a seeded vector — which
//! uses the solver and kernel layers differently from a plain trajectory:
//! sensitivity-augmented BDF with n × p multi-RHS blocks at small n, the
//! SPMD collectives and their load balance. Time to a converged fit is a
//! per-layer metric (`nlopt.fit_s`): its iteration count is not repeatable
//! between processes at the seed commit.

use rms_nlopt::LmOptions;
use rms_parallel::{run_cluster, ExperimentFile, ParallelEstimator, Simulator};
use rms_workload::TapeSimulator;

use super::{
    check_model, cores, describe, drift_tolerance, even_times, layer_probes, stays_at, timed,
    typical, Conservation, Run, Samples,
};
use crate::compile::{fresh_cache_dir, Cache, Model, Request};
use crate::inputs::{self, Rng};
use crate::trace::span;
use crate::{probe, stats};

/// Longest polysulfide chain of the model.
pub const MAX_CHAIN: usize = 16;
const FILES: usize = 4;
const RECORDS: usize = 20;
/// Relative measurement noise on the synthesized records.
const NOISE: f64 = 0.01;
/// The rates left free in the fit: the two the model declares bounds for.
const FREE_RATES: [&str; 2] = ["K_scission", "K_graft"];

/// SPMD ranks of the estimator.
pub fn ranks() -> usize {
    cores().min(FILES)
}

/// Observable of the fit: crosslinked products (two rubber units, so ten
/// or more carbons) at weight 1 plus carbon-centred radicals at weight ½.
/// One curve of this sum identifies both free rates at 1 % noise — the
/// crosslinks pin `K_scission`, the radical pool `K_graft` (predicted
/// standard errors 0.5 % and 0.2 %) — where any single family leaves one of
/// them free to within 5 % or worse.
pub fn product_observable(artifact: &rms_driver::CompiledArtifact) -> Vec<f64> {
    artifact
        .network
        .species_iter()
        .map(|(_, species)| {
            let Some(mol) = &species.structure else {
                return 0.0;
            };
            let carbons = mol
                .atoms()
                .filter(|(_, a)| a.element.symbol() == "C")
                .count();
            let carbon_radical = mol
                .atoms()
                .any(|(_, a)| a.element.symbol() == "C" && a.radicals > 0);
            let crosslink = if carbons >= 10 { 1.0 } else { 0.0 };
            crosslink + if carbon_radical { 0.5 } else { 0.0 }
        })
        .collect()
}

/// Output times of experiment file `index`: horizons spread from 1 to 2.5
/// so the files cost different amounts, as the paper's formulations do.
pub fn file_times(index: usize) -> Vec<f64> {
    even_times(1.0 + 0.5 * index as f64, RECORDS)
}

/// Everything the timed part needs, produced by set-up.
struct Prepared {
    request: Request,
    cache_dir: std::path::PathBuf,
    compiled: rms_driver::Compiled,
    files: Vec<ExperimentFile>,
}

fn set_up(run: &Run<'_>) -> Result<Prepared, String> {
    let path = run
        .inputs
        .write("rdl_fit.rdl", &inputs::vulcanization_source(MAX_CHAIN))
        .map_err(|e| format!("write input: {e}"))?;
    let request = Request {
        model: Model::Source(path),
        sensitivity: true,
    };
    let cache_dir = fresh_cache_dir(&run.out_dir, "rdl_fit")?;
    rms_driver::cache::clear_memory();
    let (compiled, _) = timed(run.tracer, "compile:warm", "driver", || {
        request.compile(&Cache::Dir(cache_dir.clone()))
    });
    let compiled = compiled?.0;
    let artifact = &compiled.artifact;

    // Data synthesis: simulate at the declared rates, add seeded noise,
    // write the files, and hand the estimator what reading them back gives.
    let simulator = TapeSimulator::from_artifact(artifact, product_observable(artifact));
    let mut noise = Rng::stream(run.seed, "rdl-fit-noise");
    let mut files = Vec::with_capacity(FILES);
    for index in 0..FILES {
        let times = file_times(index);
        let clean = simulator
            .simulate(&artifact.system.rate_values, index, &times)
            .map_err(|e| format!("data synthesis: {e}"))?;
        let file = ExperimentFile {
            label: format!("formulation_{index:02}"),
            values: inputs::add_noise(&clean, NOISE, &mut noise),
            times,
        };
        let path = run
            .inputs
            .write(&format!("rdl_fit_data/{}.dat", file.label), &file.to_text())
            .map_err(|e| format!("write data: {e}"))?;
        files.push(ExperimentFile::read(&path).map_err(|e| format!("read data: {e}"))?);
    }
    Ok(Prepared {
        request,
        cache_dir,
        compiled,
        files,
    })
}

pub fn run(run: &mut Run<'_>) -> Result<(), String> {
    // Set-up is cheap here, so it is repeated and the typical reported.
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..if run.traced() { 1 } else { 3 } {
        let (p, timed) = run
            .gauge
            .time(|| span(run.tracer, "setup", "harness", || set_up(run)));
        prepared = Some(p?);
        setups.push(timed);
    }
    describe("set-up", &setups);
    run.metrics.set("setup_s", typical(&setups));
    let Prepared {
        request,
        cache_dir,
        compiled,
        files,
    } = prepared.expect("at least one set-up");
    let artifact = &compiled.artifact;
    let truth = artifact.system.rate_values.clone();
    let conservation = Conservation::of(artifact, run.seed);
    check_model(run, "rdl_fit", artifact, &conservation, &truth);

    // One trajectory per file grid through conserved weights: atoms stay.
    let total = conservation.total;
    let checker = TapeSimulator::from_artifact(artifact, conservation.weights.clone());
    for index in 0..FILES {
        let values = checker.simulate(&truth, index, &file_times(index));
        let ok = matches!(&values, Ok(v) if stays_at(v, total, drift_tolerance(&checker)));
        run.ledger.record(ok, || {
            format!("trajectory of file {index} lost atoms or failed: {values:?}")
        });
    }

    let simulator = TapeSimulator::from_artifact(artifact, product_observable(artifact));
    let ranks = ranks();
    let estimator = ParallelEstimator::new(&simulator, files.clone(), ranks, true);

    // The free rates, their bounds, and seeded vectors near the truth: one
    // to evaluate the fixed work at, one to start the fit from.
    let free: Vec<usize> = FREE_RATES
        .iter()
        .map(|name| {
            artifact
                .rates
                .id(name)
                .map(|id| id.0 as usize)
                .ok_or_else(|| format!("the model no longer declares {name}"))
        })
        .collect::<Result<_, _>>()?;
    let (declared_lo, declared_hi) = artifact.rates.bounds_vectors();
    let (mut lo, mut hi) = (truth.clone(), truth.clone());
    let mut rng = Rng::stream(run.seed, "rdl-fit-vectors");
    let (mut probe_at, mut start) = (truth.clone(), truth.clone());
    for &k in &free {
        lo[k] = declared_lo[k];
        hi[k] = declared_hi[k];
        probe_at[k] *= rng.uniform(0.9, 1.1);
        start[k] *= rng.uniform(0.85, 1.15);
    }

    // Let the estimator record file times once, so every timed iteration
    // runs on the balanced schedule.
    estimator
        .objective(&probe_at)
        .map_err(|e| format!("warm-up objective: {e}"))?;

    // Rounds of two cold compiles, four cache revivals and three LM
    // iterations, so every kind of sample is spread over the whole run.
    // The headline operation is one iteration's fixed work.
    let rounds = if run.traced() { 1 } else { run.reps(3, 2) };
    let mut samples = Samples::default();
    for round in 0..rounds {
        for child in 0..2 {
            let dir = fresh_cache_dir(&run.out_dir, &format!("rdl_fit-{round}-{child}"))?;
            samples.cold_compile(run, &request, &dir)?;
        }
        for _ in 0..4 {
            samples.revived_compile(run, &request, &cache_dir)?;
        }
        for _ in 0..3 {
            samples.op(run, 0, "lm_iteration", "parallel", |run| {
                let jacobian = estimator.objective_jacobian(&probe_at);
                let residual = estimator.objective(&probe_at);
                let ok = matches!((&jacobian, &residual), (Ok(j), Ok(r))
                    if j.len() == RECORDS * truth.len() && r.health.is_healthy());
                run.ledger.record(ok, || {
                    format!(
                        "LM iteration failed: {:?} / {:?}",
                        jacobian.as_ref().err(),
                        residual.as_ref().err()
                    )
                });
            });
        }
    }
    if run.traced() {
        let times = file_times(0);
        let plain_s = layer_probes(
            run, &request, &cache_dir, artifact, &simulator, &truth, &times,
        )?;
        let (aug, aug_s) = timed(
            run.tracer,
            "simulate_with_sensitivities",
            "workload",
            || simulator.simulate_with_sensitivities(&truth, 0, &times),
        );
        run.ledger
            .record(aug.is_ok(), || format!("augmented solve: {:?}", aug.err()));
        run.metrics.set("workload.aug_solve_s", aug_s);
        run.metrics.set("workload.aug_over_plain", aug_s / plain_s);
        parallel_layer(run, &simulator, &estimator, &files, &probe_at, ranks)?;
    }
    samples.report(run);

    // One complete fit: both free rates must come back within 2 % of the
    // values the data were synthesized at.
    let (fit, fit_s) = timed(run.tracer, "fit", "nlopt", || {
        estimator.estimate(&start, &lo, &hi, LmOptions::default())
    });
    match fit {
        Err(e) => run.ledger.record(false, || format!("fit failed: {e}")),
        Ok(fit) => {
            let worst = free
                .iter()
                .map(|&k| (fit.params[k] / truth[k] - 1.0).abs())
                .fold(0.0, f64::max);
            run.ledger.record(worst <= 0.02, || {
                format!(
                    "fit recovered the free rates only to {worst:e}: {:?}",
                    fit.params
                )
            });
            run.metrics.set("nlopt.fit_s", fit_s);
            run.metrics.set("nlopt.iterations", fit.iterations as f64);
            run.metrics.set("nlopt.residual_evals", fit.fevals as f64);
            run.metrics.set("nlopt.jacobian_builds", fit.jevals as f64);
            run.metrics.set("nlopt.final_cost", fit.cost);
            run.metrics.set("nlopt.param_rel_err", worst);
            // Computed: the fit minus its estimator calls at their
            // separately measured unit costs.
            if let (Some(jac_s), Some(obj_s)) = (
                run.metrics.get("parallel.jacobian_s"),
                run.metrics.get("parallel.objective_s"),
            ) {
                run.metrics.set(
                    "nlopt.self_s",
                    fit_s - fit.jevals as f64 * jac_s - fit.fevals as f64 * obj_s,
                );
            }
        }
    }
    Ok(())
}

/// Per-layer view of the estimator: its two calls timed apart, the slowest
/// rank against the mean, one rank against all of them, the bare cost of a
/// collective, and whether two processes build the same Jacobian bits.
fn parallel_layer(
    run: &mut Run<'_>,
    simulator: &TapeSimulator,
    estimator: &ParallelEstimator<'_, TapeSimulator>,
    files: &[ExperimentFile],
    at: &[f64],
    ranks: usize,
) -> Result<(), String> {
    let mut objective_s = Vec::new();
    let mut jacobian_s = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        let (out, seconds) = timed(run.tracer, "objective", "parallel", || {
            estimator.objective(at)
        });
        last = Some(out.map_err(|e| format!("objective: {e}"))?);
        objective_s.push(seconds);
        let (out, seconds) = timed(run.tracer, "objective_jacobian", "parallel", || {
            estimator.objective_jacobian(at)
        });
        out.map_err(|e| format!("objective_jacobian: {e}"))?;
        jacobian_s.push(seconds);
    }
    let health = last.expect("three calls made").health;
    let walls = &health.per_rank_wall;
    let mean = walls.iter().sum::<f64>() / walls.len().max(1) as f64;
    run.metrics
        .set("parallel.objective_s", stats::min(&objective_s));
    run.metrics
        .set("parallel.jacobian_s", stats::min(&jacobian_s));
    run.metrics
        .set("parallel.rank_wall_max_s", stats::max(walls));
    run.metrics
        .set("parallel.imbalance", stats::max(walls) / mean);
    run.metrics.set(
        "parallel.retries",
        estimator.cumulative_health().retries as f64,
    );

    // One rank doing all the files, against `ranks` sharing them.
    let serial = ParallelEstimator::new(simulator, files.to_vec(), 1, true);
    let (out, serial_s) = timed(run.tracer, "objective:1-rank", "parallel", || {
        serial.objective(at)
    });
    out.map_err(|e| format!("1-rank objective: {e}"))?;
    run.metrics.set(
        "parallel.efficiency",
        serial_s / (ranks as f64 * stats::min(&objective_s)),
    );

    // A cluster start plus one all-reduce of an error-vector-sized buffer.
    let buffer = vec![1.0; RECORDS];
    let allreduce_us = span(run.tracer, "allreduce", "parallel", || {
        crate::probes::time_per_call_us(0.01 * run.seconds, || {
            let out = run_cluster(ranks, |comm| comm.all_reduce_sum(&buffer).map(|v| v[0]));
            std::hint::black_box(out);
        })
    });
    run.metrics.set("parallel.allreduce_us", allreduce_us);

    let (stable, _) = timed(run.tracer, "probe:two-processes", "harness", || {
        probe::jacobian_bits_repeat(run.seed, "rdl_fit")
    });
    run.metrics.set(
        "parallel.jacobian_hash_stable",
        if stable? { 1.0 } else { 0.0 },
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_has_the_issue_sizing_and_an_informative_observable() {
        let dir = std::env::temp_dir().join(format!("rms-bench-fit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.rdl");
        std::fs::write(&path, inputs::vulcanization_source(MAX_CHAIN)).unwrap();
        let request = Request {
            model: Model::Source(path),
            sensitivity: true,
        };
        let (compiled, _) = request.compile(&Cache::Bypass).unwrap();
        let artifact = &compiled.artifact;
        assert_eq!(artifact.network.species_count(), 157);
        assert_eq!(artifact.network.reaction_count(), 1_730);
        let observable = product_observable(artifact);
        assert!(observable.contains(&1.0), "no crosslinks observed");
        assert!(observable.contains(&0.5), "no carbon radicals observed");
        assert!(observable.contains(&0.0));
        for name in FREE_RATES {
            assert!(artifact.rates.id(name).is_some());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
