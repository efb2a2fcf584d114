//! Model discrimination — the reason the suite exists.
//!
//! "Tweaking of the reaction model and optimization might need to be
//! performed repeatedly until a good correlation with the experimental
//! results is obtained" (§1). The compiler's job is to make each such
//! round take minutes instead of months. This example runs one round:
//! two candidate mechanisms are fitted to the same synthetic experiment,
//! and the fit statistics (the Fig. 2 "Statistical Information"
//! component) tell the chemist which mechanism the data supports.
//!
//! Ground truth: disulfides undergo radical scission AND radical
//! recombination. Candidate A includes both; candidate B omits
//! recombination. Candidate A should win on every fit metric.
//!
//! Run with `cargo run --release --example model_selection`.

use rms_nlopt::{FitStatistics, Residual};
use rms_suite::workload::{synthesize, ExpDataSpec};
use rms_suite::{
    compile_source, CompiledArtifact, LmOptions, OptLevel, ParallelEstimator, Simulator,
    TapeSimulator,
};

const TRUE_MODEL: &str = r#"
    rate K_sc  = 3;
    rate K_rec = 2;
    molecule PolyS = "CS{n}C" for n in 2..4 init 1.0;
    rule scission {
        site bond S ~ S order single;
        action disconnect;
        rate K_sc;
    }
    rule recombine {
        site pair S & radical, S & radical;
        action connect single;
        rate K_rec;
    }
    limit atoms 12;
    forbid chain S > 4;
"#;

/// Candidate A: same mechanism, unknown rate values (fit both).
/// NOTE: the RCIP renames constants *by value* (paper §3.3), so two
/// independent parameters must start from distinct values or they
/// collapse into one fitted parameter.
const CANDIDATE_FULL: &str = r#"
    rate K_sc  = 1;
    rate K_rec = 1.5;
    bound K_sc  in [0.05, 30];
    bound K_rec in [0.05, 30];
    molecule PolyS = "CS{n}C" for n in 2..4 init 1.0;
    rule scission {
        site bond S ~ S order single;
        action disconnect;
        rate K_sc;
    }
    rule recombine {
        site pair S & radical, S & radical;
        action connect single;
        rate K_rec;
    }
    limit atoms 12;
    forbid chain S > 4;
"#;

/// Candidate B: scission only — structurally wrong.
const CANDIDATE_NO_RECOMBINATION: &str = r#"
    rate K_sc = 1;
    bound K_sc in [0.05, 30];
    molecule PolyS = "CS{n}C" for n in 2..4 init 1.0;
    rule scission {
        site bond S ~ S order single;
        action disconnect;
        rate K_sc;
    }
    limit atoms 12;
    forbid chain S > 4;
"#;

/// A simulator measuring the summed concentration of the named species.
fn simulator_for(model: &CompiledArtifact, observed: &[&str]) -> TapeSimulator {
    let mut observable = vec![0.0; model.system.len()];
    for name in observed {
        if let Some(id) = model.network.species_by_name(name) {
            observable[id.0 as usize] = 1.0;
        }
    }
    TapeSimulator::from_artifact(model, observable)
}

struct EstimatorResidual<'a, S: Simulator> {
    estimator: &'a ParallelEstimator<'a, S>,
    n_params: usize,
    n_residuals: usize,
}

impl<S: Simulator> Residual for EstimatorResidual<'_, S> {
    fn n_params(&self) -> usize {
        self.n_params
    }
    fn n_residuals(&self) -> usize {
        self.n_residuals
    }
    fn eval(&self, p: &[f64], out: &mut [f64]) -> Result<(), String> {
        let o = self.estimator.objective(p).map_err(|e| e.to_string())?;
        out.copy_from_slice(&o.error_vector);
        Ok(())
    }
}

fn main() {
    // 1. The "lab": synthesize data from the true mechanism. Observable:
    //    total parent polysulfide concentration (what the rheometer sees).
    let truth = compile_source(TRUE_MODEL, OptLevel::Full).expect("truth compiles");
    let observed_species = ["PolyS_2", "PolyS_3", "PolyS_4"];
    let lab = simulator_for(&truth, &observed_species);
    let files = synthesize(
        &lab,
        &truth.system.rate_values,
        ExpDataSpec {
            n_files: 4,
            records: 120,
            base_horizon: 1.5,
            horizon_skew: 0.2,
            noise: 2e-3,
            seed: 31,
        },
    )
    .expect("synthesis succeeds");
    let observed: Vec<f64> = files
        .iter()
        .flat_map(|f| f.values.iter().copied())
        .collect();
    println!(
        "synthesized {} experiments x {} records from the true mechanism\n",
        files.len(),
        files[0].len()
    );

    // 2. Fit each candidate.
    for (name, source) in [
        ("A: scission + recombination", CANDIDATE_FULL),
        ("B: scission only", CANDIDATE_NO_RECOMBINATION),
    ] {
        let model = compile_source(source, OptLevel::Full).expect("candidate compiles");
        let simulator = simulator_for(&model, &observed_species);
        let estimator = ParallelEstimator::new(&simulator, files.clone(), 2, true);
        let start = model.system.rate_values.clone();
        let (lo, hi) = model.rates.bounds_vectors();
        let options = LmOptions {
            max_iters: 50,
            fd_step: 1e-3,
            ..LmOptions::default()
        };
        let result = estimator
            .estimate(&start, &lo, &hi, options)
            .expect("estimation runs");

        println!("── candidate {name} ──");
        for i in 0..model.rates.distinct_count() {
            let rate_name = model.rates.canonical_name(rms_rcip::RateId(i as u32));
            println!("  {rate_name:<8} fitted to {:.4}", result.params[i]);
        }
        let wrap = EstimatorResidual {
            estimator: &estimator,
            n_params: start.len(),
            n_residuals: result.residuals.len(),
        };
        match FitStatistics::evaluate(&wrap, &result.params, Some(&observed), options.fd_step) {
            Ok(stats) => {
                println!(
                    "  SSE {:.4e}   RMSE {:.4e}   reduced chi^2 {:.4e}",
                    stats.sse, stats.rmse, stats.reduced_chi_square
                );
                for (j, se) in stats.standard_errors.iter().enumerate() {
                    println!(
                        "  param {j}: +/- {se:.2e} (95% {:.2e})",
                        stats.confidence_95[j]
                    );
                }
            }
            Err(e) => println!("  statistics unavailable: {e}"),
        }
        println!();
    }
    println!("the structurally correct mechanism fits with a lower chi^2; the chemist");
    println!("keeps candidate A and moves to the next refinement round (Fig. 1).");
}
