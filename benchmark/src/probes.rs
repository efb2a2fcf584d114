//! Per-layer probes: the harness timing one public call of one crate.
//!
//! The end-to-end numbers come from the product's default paths
//! (`TapeSimulator::from_artifact`, `ParallelEstimator::new`, the server).
//! These probes open those paths up for the traced run only: they evaluate
//! the artifact's kernels directly, repeat the trajectory through the
//! solver's own entry point to read its counters, and time the linear
//! algebra the solver reported using. The adapters below are the harness's
//! own, so the probes keep working when the product's adapter types change.

use std::cell::RefCell;
use std::time::Instant;

use rms_core::{ExecFrame, ExecTape, JacobianTapes};
use rms_driver::CompiledArtifact;
use rms_rdl::ReactionNetwork;
use rms_solver::{
    iteration_matrix_pattern, solve_bdf_with_jacobian, AnalyticJacobian, CsrMatrix, JacobianSource,
    Lu, OdeRhs, SolveStats, SolverOptions, SparseNewton, SparsityPattern, SymbolicLu,
};

use crate::metrics::Metrics;
use crate::trace::{span, Tracer};

/// Microseconds per call of `f`, repeated for at least `budget_s`
/// (and at least three times).
pub fn time_per_call_us(budget_s: f64, mut f: impl FnMut()) -> f64 {
    let clock = Instant::now();
    let mut calls = 0u32;
    while calls < 3 || clock.elapsed().as_secs_f64() < budget_s {
        f();
        calls += 1;
    }
    clock.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// The artifact's pre-decoded right-hand side as the solver's `OdeRhs`.
struct KernelRhs<'a> {
    exec: &'a ExecTape,
    rates: &'a [f64],
    frame: RefCell<ExecFrame>,
}

impl OdeRhs for KernelRhs<'_> {
    fn dim(&self) -> usize {
        self.exec.n_species()
    }

    fn eval(&self, _t: f64, y: &[f64], ydot: &mut [f64]) {
        self.exec
            .eval(self.rates, y, ydot, &mut self.frame.borrow_mut());
    }

    fn eval_batch(&self, _t: f64, ys: &[f64], ydots: &mut [f64]) {
        self.exec
            .eval_batch(self.rates, ys, ydots, &mut self.frame.borrow_mut());
    }
}

/// The artifact's analytic Jacobian tapes as the solver's provider.
struct KernelJacobian<'a> {
    tapes: &'a JacobianTapes,
    rates: &'a [f64],
    pattern: SparsityPattern,
    /// `(ydot, registers)` scratch shared by the tape pair.
    scratch: RefCell<(Vec<f64>, Vec<f64>)>,
}

impl<'a> KernelJacobian<'a> {
    fn new(tapes: &'a JacobianTapes, rates: &'a [f64]) -> KernelJacobian<'a> {
        KernelJacobian {
            tapes,
            rates,
            pattern: SparsityPattern::new(tapes.pattern_rows(), tapes.n_species),
            scratch: RefCell::new((vec![0.0; tapes.n_species], Vec::new())),
        }
    }
}

impl AnalyticJacobian for KernelJacobian<'_> {
    fn pattern(&self) -> &SparsityPattern {
        &self.pattern
    }

    fn eval_values(&self, _t: f64, y: &[f64], vals: &mut [f64]) {
        let (ydot, regs) = &mut *self.scratch.borrow_mut();
        self.tapes
            .eval_with_scratch(self.rates, y, ydot, vals, regs);
    }
}

/// One trajectory through the solver's own entry point.
pub struct BareSolve {
    pub seconds: f64,
    pub stats: SolveStats,
    /// Full state at each requested time.
    pub states: Vec<Vec<f64>>,
}

/// Integrate the artifact's system with BDF over its analytic Jacobian
/// under `options` (pass the simulator's, so this is the solve the
/// simulator makes, without the simulator around it).
pub fn bare_solve(
    artifact: &CompiledArtifact,
    rates: &[f64],
    y0: &[f64],
    times: &[f64],
    options: SolverOptions,
) -> Result<BareSolve, String> {
    let exec = artifact
        .exec
        .as_ref()
        .ok_or("artifact carries no decoded tape")?;
    let tapes = artifact
        .jacobian
        .as_ref()
        .ok_or("artifact carries no Jacobian tapes")?;
    let rhs = KernelRhs {
        exec,
        rates,
        frame: RefCell::new(ExecFrame::new()),
    };
    let jacobian = KernelJacobian::new(tapes, rates);
    let clock = Instant::now();
    let (states, stats) = solve_bdf_with_jacobian(
        &rhs,
        0.0,
        y0,
        times,
        options,
        JacobianSource::AnalyticTape(&jacobian),
    )
    .map_err(|e| format!("bare solve: {e}"))?;
    Ok(BareSolve {
        seconds: clock.elapsed().as_secs_f64(),
        stats,
        states,
    })
}

/// Unit costs of the artifact's kernels at states from the trajectory.
pub struct KernelCosts {
    pub rhs_us: f64,
    pub jac_us: f64,
}

/// Time `ExecTape::eval`/`eval_batch` and the Jacobian and ∂f/∂p tape
/// evaluators; `budget_s` is spent on each of the four.
pub fn kernels(
    artifact: &CompiledArtifact,
    rates: &[f64],
    states: &[Vec<f64>],
    budget_s: f64,
    tracer: &Tracer,
    metrics: &mut Metrics,
) -> Result<KernelCosts, String> {
    let exec = artifact
        .exec
        .as_ref()
        .ok_or("artifact carries no decoded tape")?;
    let tapes = artifact
        .jacobian
        .as_ref()
        .ok_or("artifact carries no Jacobian tapes")?;
    let n = exec.n_species();
    let mut frame = ExecFrame::new();
    let mut ydot = vec![0.0; n];
    // Walk the sampled states so no call re-reads the previous one's lines.
    let mut turn = 0usize;

    let rhs_us = span(Some(tracer), "probe:rhs_eval", "core", || {
        time_per_call_us(budget_s, || {
            turn = (turn + 1) % states.len();
            exec.eval(rates, &states[turn], &mut ydot, &mut frame);
            std::hint::black_box(&ydot);
        })
    });

    // Eight states per call: the batch evaluator's lane count.
    const BATCH: usize = 8;
    let ys: Vec<f64> = (0..BATCH)
        .flat_map(|i| states[i % states.len()].iter().copied())
        .collect();
    let mut ydots = vec![0.0; BATCH * n];
    let batch_us = span(Some(tracer), "probe:rhs_batch_eval", "core", || {
        time_per_call_us(budget_s, || {
            exec.eval_batch(rates, &ys, &mut ydots, &mut frame);
            std::hint::black_box(&ydots);
        })
    }) / BATCH as f64;

    let mut vals = vec![0.0; tapes.nnz()];
    let mut regs = Vec::new();
    let jac_us = span(Some(tracer), "probe:jac_eval", "core", || {
        time_per_call_us(budget_s, || {
            turn = (turn + 1) % states.len();
            tapes.eval_with_scratch(rates, &states[turn], &mut ydot, &mut vals, &mut regs);
            std::hint::black_box(&vals);
        })
    });

    if let Some(sens) = &artifact.sensitivity {
        let mut jac_vals = vec![0.0; sens.jac_nnz()];
        let mut dfdp_vals = vec![0.0; sens.dfdp_nnz()];
        let mut regs = Vec::new();
        let y = &states[0];
        // The ∂f/∂p tape reads registers the first two tapes filled.
        sens.eval_rhs_jac(rates, y, &mut ydot, &mut jac_vals, &mut regs);
        let dfdp_us = span(Some(tracer), "probe:dfdp_eval", "core", || {
            time_per_call_us(budget_s, || {
                sens.eval_dfdp_resumed(rates, y, &mut dfdp_vals, &mut regs);
                std::hint::black_box(&dfdp_vals);
            })
        });
        metrics.set("core.dfdp_eval_us", dfdp_us);
    }

    metrics.set("core.rhs_eval_us", rhs_us);
    metrics.set("core.rhs_batch_eval_us", batch_us);
    metrics.set("core.jac_eval_us", jac_us);
    // Computed: the tape's arithmetic operation count over the unit cost.
    let ops = artifact.report.counts.tape.total() as f64;
    metrics.set("core.rhs_flops_per_s", ops / (rhs_us * 1e-6));
    Ok(KernelCosts { rhs_us, jac_us })
}

/// The solver's own counters as per-layer metrics.
pub fn solver_counts(stats: &SolveStats) -> [(&'static str, f64); 7] {
    [
        ("solver.steps", stats.steps as f64),
        ("solver.rejected", stats.rejected as f64),
        ("solver.fevals", stats.fevals as f64),
        ("solver.jevals", stats.jevals as f64),
        ("solver.factorizations", stats.factorizations as f64),
        ("solver.newton_iters", stats.newton_iters as f64),
        ("solver.fill_nnz", stats.fill_nnz as f64),
    ]
}

/// Solver counters of `solve`, the unit costs of the linear algebra it
/// used, and the computed split of the trajectory's time.
pub fn solver(
    artifact: &CompiledArtifact,
    rates: &[f64],
    solve: &BareSolve,
    costs: &KernelCosts,
    budget_s: f64,
    tracer: &Tracer,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let tapes = artifact
        .jacobian
        .as_ref()
        .ok_or("artifact carries no Jacobian tapes")?;
    let n = tapes.n_species;
    let stats = solve.stats;
    let pattern = SparsityPattern::new(tapes.pattern_rows(), n);

    // The Jacobian at a state from the trajectory, and a step-sized scale.
    let mut jac = CsrMatrix::from_rows((0..n).map(|i| pattern.row(i)), n)
        .map_err(|e| format!("Jacobian pattern: {e}"))?;
    let y = &solve.states[solve.states.len() / 2];
    let mut ydot = vec![0.0; n];
    tapes.eval_with_scratch(rates, y, &mut ydot, jac.vals_mut(), &mut Vec::new());
    let scale = 0.01;
    let mut b = vec![1.0; n];

    // `fill_nnz` reads n² when the solver factored densely.
    let dense = stats.fill_nnz == n * n;
    let (symbolic_s, factor_us, tri_us) = if dense {
        let factor_us = span(Some(tracer), "probe:factor", "solver", || {
            time_per_call_us(budget_s, || {
                std::hint::black_box(Lu::factor(&jac.assemble_iteration_matrix(scale)).ok());
            })
        });
        let lu = Lu::factor(&jac.assemble_iteration_matrix(scale))
            .map_err(|e| format!("dense factor: {e}"))?;
        let tri_us = span(Some(tracer), "probe:tri_solve", "solver", || {
            time_per_call_us(budget_s, || {
                b.fill(1.0);
                std::hint::black_box(lu.solve_in_place(&mut b).ok());
            })
        });
        (0.0, factor_us, tri_us)
    } else {
        let iter_pattern = iteration_matrix_pattern(&pattern);
        let clock = Instant::now();
        span(Some(tracer), "probe:symbolic", "solver", || {
            std::hint::black_box(SymbolicLu::analyze(&iter_pattern).ok());
        });
        let symbolic_s = clock.elapsed().as_secs_f64();
        let mut newton =
            SparseNewton::new(&pattern).map_err(|e| format!("sparse analysis: {e}"))?;
        newton
            .factor_from_csr(&jac, scale)
            .map_err(|e| format!("sparse factor: {e}"))?;
        let factor_us = span(Some(tracer), "probe:factor", "solver", || {
            time_per_call_us(budget_s, || {
                std::hint::black_box(newton.factor_from_csr(&jac, scale).ok());
            })
        });
        let tri_us = span(Some(tracer), "probe:tri_solve", "solver", || {
            time_per_call_us(budget_s, || {
                b.fill(1.0);
                std::hint::black_box(newton.solve_in_place(&mut b).ok());
            })
        });
        (symbolic_s, factor_us, tri_us)
    };

    for (metric, count) in solver_counts(&stats) {
        metrics.set(metric, count);
    }
    metrics.set("solver.symbolic_s", symbolic_s);
    metrics.set("solver.factor_us", factor_us);
    metrics.set("solver.tri_solve_us", tri_us);
    // Computed: counts times separately timed unit costs.
    let rhs_s = stats.fevals as f64 * costs.rhs_us * 1e-6;
    let jac_s = stats.jevals as f64 * costs.jac_us * 1e-6;
    let factor_s = stats.factorizations as f64 * factor_us * 1e-6;
    let tri_s = stats.newton_iters as f64 * tri_us * 1e-6;
    metrics.set("solver.rhs_share", rhs_s / solve.seconds);
    metrics.set("solver.factor_share", factor_s / solve.seconds);
    metrics.set(
        "solver.self_s",
        solve.seconds - rhs_s - jac_s - factor_s - tri_s,
    );
    Ok(())
}

/// Re-run the molecule crate's canonical labelling and interned identity
/// over the finished network's species: microseconds per molecule.
pub fn molecules(network: &ReactionNetwork, budget_s: f64, tracer: &Tracer, metrics: &mut Metrics) {
    let mols: Vec<&rms_molecule::Molecule> = network
        .species_iter()
        .filter_map(|(_, s)| s.structure.as_ref())
        .collect();
    if mols.is_empty() {
        return;
    }
    // A sweep over a large network can outlast the budget on its own;
    // sample evenly so one call stays a fraction of it.
    let stride = mols.len().div_ceil(2_000);
    let sample: Vec<&rms_molecule::Molecule> = mols.iter().step_by(stride).copied().collect();
    let canon_us = span(Some(tracer), "probe:canon", "molecule", || {
        time_per_call_us(budget_s, || {
            for m in &sample {
                std::hint::black_box(rms_molecule::canon::canonical_ranks(m));
            }
        })
    }) / sample.len() as f64;
    let identify_us = span(Some(tracer), "probe:identify", "molecule", || {
        time_per_call_us(budget_s, || {
            for m in &sample {
                std::hint::black_box(rms_molecule::identify(m));
            }
        })
    }) / sample.len() as f64;
    metrics.set("molecule.canon_us", canon_us);
    metrics.set("molecule.identify_us", identify_us);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Kind;
    use rms_driver::{CacheMode, CompilerSession, OptLevel, SessionOptions};
    use rms_parallel::Simulator;
    use rms_workload::TapeSimulator;

    #[test]
    fn bare_solve_is_the_solve_the_simulator_makes() {
        let mut options = SessionOptions::new(OptLevel::Full);
        options.deriv = true;
        options.sensitivity = true;
        options.cache = CacheMode::Bypass;
        let compiled = CompilerSession::with_options(options)
            .compile_source("m.rdl", &crate::inputs::vulcanization_source(5))
            .unwrap();
        let artifact = &compiled.artifact;
        let n = artifact.system.len();
        let sim = TapeSimulator::from_artifact(artifact, vec![1.0; n]);
        let rates = &artifact.system.rate_values;
        let times = [0.25, 0.5, 1.0];
        let via_simulator = sim.simulate(rates, 0, &times).unwrap();
        let bare = bare_solve(
            artifact,
            rates,
            &artifact.system.initial,
            &times,
            sim.options,
        )
        .unwrap();
        for (total, state) in via_simulator.iter().zip(&bare.states) {
            assert_eq!(total.to_bits(), state.iter().sum::<f64>().to_bits());
        }
        assert!(bare.stats.steps > 0 && bare.stats.factorizations > 0);

        let tracer = Tracer::new();
        let mut metrics = Metrics::new(Kind::PerLayer);
        let costs = kernels(artifact, rates, &bare.states, 0.001, &tracer, &mut metrics).unwrap();
        solver(artifact, rates, &bare, &costs, 0.001, &tracer, &mut metrics).unwrap();
        molecules(&artifact.network, 0.001, &tracer, &mut metrics);
        for name in [
            "core.rhs_eval_us",
            "core.rhs_batch_eval_us",
            "core.jac_eval_us",
            "core.dfdp_eval_us",
            "solver.factor_us",
            "solver.tri_solve_us",
            "molecule.canon_us",
            "molecule.identify_us",
        ] {
            assert!(metrics.get(name).unwrap() > 0.0, "{name}");
        }
        assert_eq!(metrics.get("solver.steps"), Some(bare.stats.steps as f64));
    }
}
