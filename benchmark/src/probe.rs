//! The determinism probe: the same work in two fresh processes.
//!
//! Each child compiles a workload's model cold, integrates one trajectory,
//! and evaluates one `objective` and one `objective_jacobian`; it prints
//! hashes of the tape, the trajectory, the error vector and the Jacobian,
//! and every count the pipeline and the solver report. Hashes that differ
//! are reported (`parallel.jacobian_hash_stable` is the Jacobian's); a
//! *count* that differs fails the probe, because the per-layer count
//! metrics are only worth comparing between two commits if they repeat
//! exactly on one.

use rms_parallel::{ExperimentFile, ParallelEstimator, Simulator};
use rms_workload::{TapeSimulator, TRUE_RATES};

use crate::compile::{self, Cache, Model, Request};
use crate::inputs::{self, InputDir, Rng};
use crate::json::{obj, Value};
use crate::workloads::rdl_fit;
use crate::{out_dir, probes, stats, Options};

/// The workloads the probe covers: one per compile entry point, both with
/// an estimator on top.
const PROBED: [&str; 2] = ["vulc5k", "rdl_fit"];

/// The count metrics of a child's report; all must repeat exactly. The
/// rest of what a compile and a solve report are timings.
fn is_count(metric: &str) -> bool {
    !metric.ends_with("_s") && !metric.ends_with("_rate") && !metric.ends_with("_bytes")
}

const HASHES: [&str; 4] = ["tape", "trajectory", "error_vector", "jacobian"];

/// Entry point of the `probe-child` subcommand.
pub fn child_main(options: &Options) -> Result<(), String> {
    let workload = options
        .workload
        .as_deref()
        .ok_or("probe-child needs --workload")?;
    let inputs_dir =
        InputDir::create(&out_dir(), options.seed).map_err(|e| format!("input directory: {e}"))?;
    let request = match workload {
        "vulc5k" => Request {
            model: Model::Vulc5k,
            sensitivity: true,
        },
        "rdl_fit" => Request {
            model: Model::Source(
                inputs_dir
                    .write(
                        "probe_rdl_fit.rdl",
                        &inputs::vulcanization_source(rdl_fit::MAX_CHAIN),
                    )
                    .map_err(|e| format!("write input: {e}"))?,
            ),
            sensitivity: true,
        },
        other => return Err(format!("the probe does not cover '{other}'")),
    };
    let (compiled, seconds) = request.compile(&Cache::Bypass)?;
    let seen = compile::observe(&compiled, seconds);
    let artifact = &compiled.artifact;

    let observable = match workload {
        "vulc5k" => {
            let model = rms_workload::scaled_case(compile::VULC_CASE, compile::VULC_SCALE);
            let mut weights = vec![0.0; artifact.system.len()];
            for id in &model.crosslink_species {
                weights[id.0 as usize] = 1.0;
            }
            weights
        }
        _ => rdl_fit::product_observable(artifact),
    };
    let simulator = TapeSimulator::from_artifact(artifact, observable);
    let truth = match workload {
        "vulc5k" => TRUE_RATES.to_vec(),
        _ => artifact.system.rate_values.clone(),
    };
    let times = rdl_fit::file_times(0);
    let trajectory = simulator
        .simulate(&truth, 0, &times)
        .map_err(|e| format!("trajectory: {e}"))?;
    let bare = probes::bare_solve(
        artifact,
        &truth,
        &artifact.system.initial,
        &times,
        simulator.options,
    )?;

    // Two files of seeded noisy data, and a seeded vector off the truth.
    let mut rng = Rng::stream(options.seed, "probe");
    let files: Vec<ExperimentFile> = (0..2)
        .map(|i| ExperimentFile {
            label: format!("probe_{i}"),
            times: times.clone(),
            values: inputs::add_noise(&trajectory, 0.01, &mut rng),
        })
        .collect();
    let at: Vec<f64> = truth.iter().map(|k| k * rng.uniform(0.9, 1.1)).collect();
    let estimator = ParallelEstimator::new(&simulator, files, rdl_fit::ranks().min(2), true);
    let residual = estimator
        .objective(&at)
        .map_err(|e| format!("objective: {e}"))?;
    let jacobian = estimator
        .objective_jacobian(&at)
        .map_err(|e| format!("objective_jacobian: {e}"))?;

    let counts = compile::stage_metrics(&seen)
        .chain(probes::solver_counts(&bare.stats))
        .filter(|(metric, _)| is_count(metric));
    let hashes: [u64; 4] = [
        stats::hash_u64(artifact.compiled.tape.to_string().bytes().map(u64::from)),
        stats::hash_f64(&trajectory),
        stats::hash_f64(&residual.error_vector),
        stats::hash_f64(&jacobian),
    ];
    let mut fields: Vec<(String, Value)> = counts
        .map(|(metric, value)| (metric.to_string(), value.into()))
        .collect();
    for (name, hash) in HASHES.iter().zip(hashes) {
        // Hex text: a u64 does not survive a trip through an f64.
        fields.push((format!("hash.{name}"), format!("{hash:016x}").into()));
    }
    println!("{}", Value::Obj(fields).to_json());
    Ok(())
}

/// Run the probe child for `workload` and parse its report.
fn child(seed: u64, workload: &str) -> Result<Value, String> {
    let args = [
        "probe-child",
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
    ]
    .map(Into::into);
    crate::run_self(args, false).map_err(|e| format!("probe child: {e}"))
}

/// Whether two fresh processes build a bit-identical residual Jacobian.
pub fn jacobian_bits_repeat(seed: u64, workload: &str) -> Result<bool, String> {
    let (a, b) = (child(seed, workload)?, child(seed, workload)?);
    Ok(a.get("hash.jacobian").is_some() && a.get("hash.jacobian") == b.get("hash.jacobian"))
}

/// The `probe` subcommand.
pub fn main(options: &Options) -> Result<(), String> {
    let mut unstable_counts = Vec::new();
    let mut report = Vec::new();
    for workload in PROBED {
        let (a, b) = (
            child(options.seed, workload)?,
            child(options.seed, workload)?,
        );
        println!("{workload}");
        for name in HASHES {
            let key = format!("hash.{name}");
            let same = a.get(&key) == b.get(&key);
            println!(
                "  {key:<28} {}",
                if same {
                    "same bits in both processes"
                } else {
                    "DIFFERS"
                }
            );
            report.push((format!("{workload}.{key}.stable"), Value::from(same)));
        }
        let counts = a
            .as_obj()
            .unwrap_or(&[])
            .iter()
            .map(|(name, _)| name.as_str());
        for name in counts.filter(|name| !name.starts_with("hash.")) {
            let (x, y) = (a.num(name)?, b.num(name)?);
            if x != y {
                println!("  {name:<28} {x} vs {y}  COUNT DIFFERS");
                unstable_counts.push(format!("{workload}:{name}"));
            } else {
                println!("  {name:<28} {x}");
            }
            report.push((format!("{workload}.{name}"), x.into()));
        }
        let stable = a.get("hash.jacobian") == b.get("hash.jacobian");
        println!(
            "  parallel.jacobian_hash_stable {}",
            if stable { 1 } else { 0 }
        );
    }
    let path = out_dir().join("probe.json");
    std::fs::write(
        &path,
        obj([
            ("seed", (options.seed as f64).into()),
            ("report", Value::Obj(report)),
        ])
        .to_json(),
    )
    .map_err(|e| format!("write {}: {e}", path.display()))?;
    if unstable_counts.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "count metrics differ between two processes: {}",
            unstable_counts.join(", ")
        ))
    }
}
