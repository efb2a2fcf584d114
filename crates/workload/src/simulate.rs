//! The chemistry simulation backend: compiled kernel + stiff solver +
//! observable, plugged into the parallel estimator.

use std::sync::atomic::{AtomicUsize, Ordering};

use rms_driver::{CompiledArtifact, KernelChoice};
use rms_parallel::Simulator;
use rms_solver::{Bdf, CancelToken, JacobianSource, Rk45, SolverError, SolverOptions};

use crate::binding::BoundKernel;

/// Simulates the measured property (a weighted sum of species
/// concentrations — e.g. crosslink density) by integrating one of a
/// compiled artifact's kernels with the Gear/BDF stiff solver.
pub struct TapeSimulator {
    /// The kernel every solve evaluates, the engine it belongs to, and
    /// the Jacobian sparsity patterns it fills. Shared with the artifact,
    /// never copied.
    choice: KernelChoice,
    /// Per-formulation initial concentration vectors; experiment file `i`
    /// uses `initials[i % initials.len()]`.
    pub initials: Vec<Vec<f64>>,
    /// Observable weights: property = `Σ w_i · y_i`.
    pub observable: Vec<f64>,
    /// Solver configuration.
    pub options: SolverOptions,
    /// Cooperative cancellation shared with every solver this simulator
    /// builds (deadline/shutdown supervision).
    cancel: Option<CancelToken>,
    /// Primary BDF attempts that failed (fallback chain engaged).
    bdf_failures: AtomicUsize,
    /// Failures recovered by re-running BDF with tightened tolerances.
    tightened_recoveries: AtomicUsize,
    /// Failures recovered by the explicit RK45 last resort.
    rk45_recoveries: AtomicUsize,
}

/// Counters describing how often the solver fallback chain engaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FallbackStats {
    /// Primary BDF attempts that failed.
    pub bdf_failures: usize,
    /// Of those, recovered by BDF with 100× tighter tolerances.
    pub tightened_recoveries: usize,
    /// Of those, recovered by explicit RK45.
    pub rk45_recoveries: usize,
}

impl TapeSimulator {
    /// Build a simulator over a compiled pipeline artifact, solving on
    /// the kernel the artifact runs ([`CompiledArtifact::kernel`]). The
    /// artifact's kernels and sparsity patterns are shared, not copied.
    /// Every BDF solve takes its Jacobian as
    /// [`BoundKernel::jacobian_source`] finds it — the analytic tapes when
    /// the *Deriv* stage ran — and factors it as
    /// [`options`](TapeSimulator::options)' `linear_solver` (`Auto`) decides.
    pub fn from_artifact(artifact: &CompiledArtifact, observable: Vec<f64>) -> TapeSimulator {
        TapeSimulator::new(
            artifact.kernel(),
            artifact.system.initial.clone(),
            observable,
        )
    }

    /// A simulator over one kernel, starting from `initial`. Tests pass
    /// each of [`CompiledArtifact::evaluators`] to hold them to one
    /// trajectory.
    pub fn new(choice: KernelChoice, initial: Vec<f64>, observable: Vec<f64>) -> TapeSimulator {
        TapeSimulator {
            choice,
            initials: vec![initial],
            observable,
            options: SolverOptions {
                rtol: 1e-6,
                atol: 1e-9,
                max_steps: 2_000_000,
                ..SolverOptions::default()
            },
            cancel: None,
            bdf_failures: AtomicUsize::new(0),
            tightened_recoveries: AtomicUsize::new(0),
            rk45_recoveries: AtomicUsize::new(0),
        }
    }

    /// Whether the artifact carried parameter-sensitivity tapes. With
    /// them, [`Simulator::simulate_with_sensitivities`] integrates the
    /// forward sensitivity system alongside the state (sharing the Newton
    /// factorization), and the parallel estimator builds its residual
    /// Jacobian from them.
    pub fn has_sensitivities(&self) -> bool {
        self.choice.kernel.dfdp_entries().is_some()
    }

    /// The kernel every solve runs and the engine it belongs to.
    pub fn engine_choice(&self) -> &KernelChoice {
        &self.choice
    }

    /// Attach a [`CancelToken`]: every solver built by subsequent
    /// `simulate` calls checks it at each step boundary, and the fallback
    /// chain aborts immediately on cancellation instead of retrying with
    /// a different method.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Observable value for a state vector.
    pub fn measure(&self, y: &[f64]) -> f64 {
        self.observable.iter().zip(y).map(|(w, v)| w * v).sum()
    }

    /// How often the solver fallback chain has engaged on this simulator.
    pub fn fallback_stats(&self) -> FallbackStats {
        FallbackStats {
            bdf_failures: self.bdf_failures.load(Ordering::Relaxed),
            tightened_recoveries: self.tightened_recoveries.load(Ordering::Relaxed),
            rk45_recoveries: self.rk45_recoveries.load(Ordering::Relaxed),
        }
    }

    /// [`Simulator::simulate`], returning whole states instead of the observable.
    pub fn trajectory(
        &self,
        rate_constants: &[f64],
        file_index: usize,
        times: &[f64],
    ) -> Result<Vec<Vec<f64>>, String> {
        self.solve(rate_constants, file_index, times, <[f64]>::to_vec)
    }

    /// Integrate with BDF under `options`, reading each output state with `read`.
    fn integrate_bdf<T>(
        &self,
        rate_constants: &[f64],
        y0: &[f64],
        times: &[f64],
        options: SolverOptions,
        read: impl Fn(&[f64]) -> T,
    ) -> Result<Vec<T>, SolverError> {
        let bound = BoundKernel::new(&self.choice, rate_constants);
        let mut solver = Bdf::new(&bound, 0.0, y0, options);
        if let Some(token) = self.cancel {
            solver.set_cancel(token);
        }
        solver.set_jacobian_source(bound.jacobian_source());
        let mut out = Vec::with_capacity(times.len());
        for &t in times {
            solver.integrate_to(t)?;
            out.push(read(solver.y()));
        }
        Ok(out)
    }

    /// Sensitivity-augmented BDF solve: the state and every sensitivity
    /// column `s_k = ∂y/∂p_k` advance together, reusing the shared
    /// `I − hβJ` factorization, and the observable's derivative at each
    /// output time is the weighted sum `Σ w_i s_k[i]`.
    fn integrate_bdf_sens(
        &self,
        rate_constants: &[f64],
        y0: &[f64],
        times: &[f64],
        options: SolverOptions,
    ) -> Result<(Vec<f64>, Vec<Vec<f64>>), SolverError> {
        let bound = BoundKernel::new(&self.choice, rate_constants);
        let mut solver = Bdf::new(&bound, 0.0, y0, options);
        if let Some(token) = self.cancel {
            solver.set_cancel(token);
        }
        solver.set_jacobian_source(JacobianSource::AnalyticTape(&bound));
        solver.set_sensitivities(&bound);
        let n = y0.len();
        let mut values = Vec::with_capacity(times.len());
        let mut sens_rows = Vec::with_capacity(times.len());
        for &t in times {
            solver.integrate_to(t)?;
            values.push(self.measure(&solver.y()[..n]));
            let row: Vec<f64> = solver
                .sensitivities()
                .chunks(n.max(1))
                .map(|s_k| self.measure(s_k))
                .collect();
            sens_rows.push(row);
        }
        Ok((values, sens_rows))
    }

    /// The explicit RK45 last resort, reading states like `integrate_bdf`.
    fn integrate_rk45<T>(
        &self,
        rate_constants: &[f64],
        y0: &[f64],
        times: &[f64],
        read: impl Fn(&[f64]) -> T,
    ) -> Result<Vec<T>, SolverError> {
        let bound = BoundKernel::new(&self.choice, rate_constants);
        let mut solver = Rk45::new(&bound, 0.0, y0, self.options);
        if let Some(token) = self.cancel {
            solver.set_cancel(token);
        }
        let mut out = Vec::with_capacity(times.len());
        for &t in times {
            solver.integrate_to(t)?;
            out.push(read(&solver.y));
        }
        Ok(out)
    }
}

/// How the BDF stages of the fallback chain ended without a solution.
enum BdfFailure {
    /// A deadline/shutdown cancellation is not a numerical failure:
    /// retrying with tighter tolerances or RK45 would just burn wall
    /// clock past the deadline, so it surfaces directly.
    Cancelled(SolverError),
    /// Both stages failed numerically.
    Numerical {
        primary: SolverError,
        tightened: SolverError,
    },
}

impl TapeSimulator {
    /// The BDF stages every kind of solve shares, counted in
    /// [`fallback_stats`](TapeSimulator::fallback_stats): the configured
    /// tolerances, then 100× tighter error control (stiff-step rejection
    /// cascades often pass under stricter control). The success path of
    /// the first stage is byte-for-byte the chain-less behavior.
    fn bdf_chain<T>(
        &self,
        solve: impl Fn(SolverOptions) -> Result<T, SolverError>,
    ) -> Result<T, BdfFailure> {
        let primary = match solve(self.options) {
            Ok(out) => return Ok(out),
            Err(e) if e.is_cancelled() => return Err(BdfFailure::Cancelled(e)),
            Err(e) => e,
        };
        self.bdf_failures.fetch_add(1, Ordering::Relaxed);
        let tightened = SolverOptions {
            rtol: self.options.rtol * 1e-2,
            atol: self.options.atol * 1e-2,
            ..self.options
        };
        match solve(tightened) {
            Ok(out) => {
                self.tightened_recoveries.fetch_add(1, Ordering::Relaxed);
                Ok(out)
            }
            Err(e) if e.is_cancelled() => Err(BdfFailure::Cancelled(e)),
            Err(tightened) => Err(BdfFailure::Numerical { primary, tightened }),
        }
    }

    /// The BDF stages, then RK45, each reading states through `read`.
    fn solve<T>(
        &self,
        rate_constants: &[f64],
        file_index: usize,
        times: &[f64],
        read: impl Fn(&[f64]) -> T + Copy,
    ) -> Result<Vec<T>, String> {
        let y0 = &self.initials[file_index % self.initials.len()];
        let bdf = |options| self.integrate_bdf(rate_constants, y0, times, options, read);
        match self.bdf_chain(bdf) {
            Ok(out) => Ok(out),
            Err(BdfFailure::Cancelled(e)) => Err(e.to_string()),
            Err(BdfFailure::Numerical { primary, tightened }) => {
                match self.integrate_rk45(rate_constants, y0, times, read) {
                    Ok(out) => {
                        self.rk45_recoveries.fetch_add(1, Ordering::Relaxed);
                        Ok(out)
                    }
                    Err(rk45) => Err(format!(
                        "all solvers failed: BDF: {primary}; BDF (tightened): {tightened}; RK45: {rk45}"
                    )),
                }
            }
        }
    }
}

impl Simulator for TapeSimulator {
    /// Integrate with a three-stage fallback chain: the two BDF stages
    /// (configured tolerances, then 100× tighter), then explicit RK45.
    fn simulate(
        &self,
        rate_constants: &[f64],
        file_index: usize,
        times: &[f64],
    ) -> Result<Vec<f64>, String> {
        self.solve(rate_constants, file_index, times, |y| self.measure(y))
    }

    fn sensitivity_params(&self) -> usize {
        if self.has_sensitivities() {
            self.choice.kernel.n_rates()
        } else {
            0
        }
    }

    /// One forward-sensitivity-augmented solve per call, independent of
    /// the parameter count. The chain stops after its BDF stages: RK45
    /// integrates no sensitivity system, so a total failure surfaces as
    /// an error and the estimator falls back to finite differences for
    /// this point.
    fn simulate_with_sensitivities(
        &self,
        rate_constants: &[f64],
        file_index: usize,
        times: &[f64],
    ) -> Result<(Vec<f64>, Vec<Vec<f64>>), String> {
        if !self.has_sensitivities() {
            return Err("no parameter-sensitivity tapes compiled".to_string());
        }
        let y0 = &self.initials[file_index % self.initials.len()];
        self.bdf_chain(|options| self.integrate_bdf_sens(rate_constants, y0, times, options))
            .map_err(|failure| match failure {
                BdfFailure::Cancelled(e) => e.to_string(),
                BdfFailure::Numerical { primary, tightened } => format!(
                    "sensitivity solves failed: BDF: {primary}; BDF (tightened): {tightened}"
                ),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use rms_core::OptLevel;
    use rms_driver::{CompilerSession, SessionOptions, Stage};
    use rms_solver::solve_bdf_with_jacobian;

    use crate::vulcanization::{generate_model, VulcanizationSpec};

    /// The small vulcanization network compiled under `configure`d
    /// session options, with the crosslink-density observable.
    fn small_artifact(
        configure: impl FnOnce(&mut SessionOptions),
    ) -> (Arc<CompiledArtifact>, Vec<f64>) {
        let model = generate_model(VulcanizationSpec {
            sites: 3,
            max_chain: 3,
            neighbourhood: 1,
        });
        let crosslinks = model.crosslink_species.clone();
        let mut options = SessionOptions::new(OptLevel::Full);
        configure(&mut options);
        let artifact = CompilerSession::with_options(options)
            .compile_network("simulate-test", model.network, model.rates)
            .unwrap()
            .artifact;
        let mut observable = vec![0.0; artifact.system.len()];
        for &x in &crosslinks {
            observable[x.0 as usize] = 1.0;
        }
        (artifact, observable)
    }

    fn simulator_with(configure: impl FnOnce(&mut SessionOptions)) -> (TapeSimulator, Vec<f64>) {
        let (artifact, observable) = small_artifact(configure);
        (
            TapeSimulator::from_artifact(&artifact, observable),
            artifact.system.rate_values.clone(),
        )
    }

    fn small_simulator() -> (TapeSimulator, Vec<f64>) {
        simulator_with(|_| {})
    }

    #[test]
    fn simulation_produces_rising_crosslink_density() {
        let (sim, rates) = small_simulator();
        let times = [0.2, 0.6, 1.2, 2.4];
        let values = sim.simulate(&rates, 0, &times).unwrap();
        assert_eq!(values.len(), 4);
        assert!(values[0] > 0.0);
        // Cure curve: density rises to a plateau, then reversion may set
        // in (the real rheometer curves the paper fits show the same
        // rise-then-revert shape).
        assert!(
            values[1] > values[0] && values[2] > values[1],
            "density should rise early: {values:?}"
        );
        assert!(
            values[3] > 0.5 * values[2],
            "late-time collapse: {values:?}"
        );
    }

    #[test]
    fn different_rates_change_output() {
        let (sim, rates) = small_simulator();
        let times = [1.0];
        let base = sim.simulate(&rates, 0, &times).unwrap();
        let mut slower = rates.clone();
        for v in &mut slower {
            *v *= 0.5;
        }
        let slow = sim.simulate(&slower, 0, &times).unwrap();
        assert!(
            slow[0] < base[0],
            "halving all rates should slow crosslinking: {} vs {}",
            slow[0],
            base[0]
        );
    }

    #[test]
    fn fallback_chain_reports_every_stage_on_total_failure() {
        let (mut sim, rates) = small_simulator();
        // Starve every solver: one step is never enough to reach t = 2.
        sim.options.max_steps = 1;
        let err = sim.simulate(&rates, 0, &[2.0]).unwrap_err();
        assert!(err.contains("all solvers failed"), "{err}");
        assert!(err.contains("BDF (tightened)"), "{err}");
        assert!(err.contains("RK45"), "{err}");
        let stats = sim.fallback_stats();
        assert_eq!(stats.bdf_failures, 1);
        assert_eq!(stats.tightened_recoveries, 0);
        assert_eq!(stats.rk45_recoveries, 0);
    }

    #[test]
    fn sensitivity_fallback_chain_counts_its_failures() {
        let (mut sim, rates) = small_simulator_with_sensitivities();
        sim.options.max_steps = 1;
        let err = sim
            .simulate_with_sensitivities(&rates, 0, &[2.0])
            .unwrap_err();
        assert!(err.contains("sensitivity solves failed"), "{err}");
        assert!(err.contains("BDF (tightened)"), "{err}");
        let stats = sim.fallback_stats();
        assert_eq!(stats.bdf_failures, 1);
        assert_eq!(stats.tightened_recoveries, 0);
        assert_eq!(stats.rk45_recoveries, 0);
        // A healthy augmented solve leaves the counters alone.
        sim.options.max_steps = 2_000_000;
        sim.simulate_with_sensitivities(&rates, 0, &[0.5]).unwrap();
        assert_eq!(sim.fallback_stats(), stats);
    }

    #[test]
    fn trajectory_is_the_state_simulate_measures() {
        let (mut sim, rates) = small_simulator();
        let times = [0.2, 1.2];
        let states = sim.trajectory(&rates, 0, &times).unwrap();
        assert_eq!(states.len(), times.len());
        assert!(states.iter().all(|y| y.len() == sim.observable.len()));
        let measured: Vec<f64> = states.iter().map(|y| sim.measure(y)).collect();
        assert_eq!(measured, sim.simulate(&rates, 0, &times).unwrap());
        // A starved solve takes the whole chain, and says so.
        sim.options.max_steps = 1;
        let err = sim.trajectory(&rates, 0, &[2.0]).unwrap_err();
        assert!(err.starts_with("all solvers failed: BDF: "), "{err}");
        assert_eq!(sim.fallback_stats().bdf_failures, 1);
    }

    #[test]
    fn a_solve_is_a_pure_function_so_the_estimator_runs_it_once() {
        let (mut sim, rates) = small_simulator();
        let times = [0.2, 1.2];
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let first = bits(sim.simulate(&rates, 0, &times).unwrap());
        assert_eq!(bits(sim.simulate(&rates, 0, &times).unwrap()), first);
        // Starved, it fails the same way every time: a second attempt
        // could only repeat the first.
        sim.options.max_steps = 1;
        let error = sim.simulate(&rates, 0, &[2.0]).unwrap_err();
        assert_eq!(sim.simulate(&rates, 0, &[2.0]).unwrap_err(), error);

        // So an objective call runs the chain once for a failing file.
        let (mut starved, rates) = small_simulator();
        starved.options.max_steps = 1;
        let file = rms_parallel::ExperimentFile {
            label: "starved".to_string(),
            times: vec![2.0],
            values: vec![0.0],
        };
        let config = rms_parallel::EstimatorConfig {
            on_failure: rms_parallel::FailurePolicy::Penalize,
            ..Default::default()
        };
        let estimator =
            rms_parallel::ParallelEstimator::with_config(&starved, vec![file], 1, config);
        let out = estimator.objective(&rates).unwrap();
        assert_eq!(out.health.file_failures[0].error, error);
        assert_eq!(starved.fallback_stats().bdf_failures, 1);
    }

    #[test]
    fn healthy_solves_never_engage_fallback() {
        let (sim, rates) = small_simulator();
        sim.simulate(&rates, 0, &[0.5, 1.0]).unwrap();
        assert_eq!(sim.fallback_stats(), FallbackStats::default());
    }

    fn small_simulator_with_jacobian() -> (TapeSimulator, Vec<f64>) {
        simulator_with(|options| options.deriv = true)
    }

    /// The observable at `times` from one BDF solve over `sim`'s kernel
    /// per Jacobian source: the one the artifact selects, then colored and
    /// dense finite differences.
    fn observable_per_source(sim: &TapeSimulator, rates: &[f64], times: &[f64]) -> Vec<Vec<f64>> {
        let choice = sim.engine_choice();
        let bound = BoundKernel::new(choice, rates);
        let sources = [
            bound.jacobian_source(),
            JacobianSource::FdColored(choice.patterns.fd()),
            JacobianSource::FdDense,
        ];
        sources
            .into_iter()
            .map(|source| {
                let y0 = &sim.initials[0];
                let (states, _) =
                    solve_bdf_with_jacobian(&bound, 0.0, y0, times, sim.options, source).unwrap();
                states.iter().map(|y| sim.measure(y)).collect()
            })
            .collect()
    }

    #[test]
    fn analytic_jacobian_matches_fd_trajectories() {
        // An artifact with tapes solves on them, one without on colored
        // finite differences; dense finite differences only through `Bdf`.
        let (sim, rates) = small_simulator_with_jacobian();
        let times = [0.2, 0.6, 1.2, 2.4];
        let analytic = sim.simulate(&rates, 0, &times).unwrap();
        let colored = small_simulator().0.simulate(&rates, 0, &times).unwrap();
        let dense = observable_per_source(&sim, &rates, &times).remove(2);
        for i in 0..times.len() {
            let scale = analytic[i].abs().max(1e-12);
            assert!(
                (analytic[i] - colored[i]).abs() < 1e-4 * scale,
                "t={}: analytic {} vs colored {}",
                times[i],
                analytic[i],
                colored[i]
            );
            assert!(
                (analytic[i] - dense[i]).abs() < 1e-4 * scale,
                "t={}: analytic {} vs dense {}",
                times[i],
                analytic[i],
                dense[i]
            );
        }
    }

    #[test]
    fn analytic_mode_without_tapes_falls_back() {
        let (sim, rates) = small_simulator();
        let bound = BoundKernel::new(sim.engine_choice(), &rates);
        assert!(matches!(
            bound.jacobian_source(),
            JacobianSource::FdColored(_)
        ));
        let out = sim.simulate(&rates, 0, &[1.0]).unwrap();
        assert!(out[0].is_finite());
    }

    #[test]
    fn exec_engine_runs_every_jacobian_mode() {
        let (sim, rates) = small_simulator_with_jacobian();
        let times = [0.5, 1.0];
        let analytic = sim.simulate(&rates, 0, &times).unwrap();
        let per_source = observable_per_source(&sim, &rates, &times);
        // The simulator's solve is the selected source's, to the bit.
        assert_eq!(per_source[0], analytic);
        for other in &per_source[1..] {
            for (a, b) in analytic.iter().zip(other) {
                assert!((a - b).abs() <= 1e-4 * a.abs().max(1e-12), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn artifact_simulator_shares_the_compiled_stages() {
        let (artifact, observable) = small_artifact(|options| options.deriv = true);
        let kernels_before = Arc::strong_count(artifact.exec.as_ref().expect("decoded"));
        let sim = TapeSimulator::from_artifact(&artifact, observable);
        // The artifact carried Jacobian tapes, so the simulator solves on
        // them; it holds the artifact's own kernel and patterns, and
        // building it copied or re-referenced no instruction stream.
        let bound = BoundKernel::new(sim.engine_choice(), &artifact.system.rate_values);
        assert!(matches!(
            bound.jacobian_source(),
            JacobianSource::AnalyticTape(_)
        ));
        let choice = artifact.kernel();
        assert!(Arc::ptr_eq(&sim.engine_choice().kernel, &choice.kernel));
        assert!(Arc::ptr_eq(&sim.engine_choice().patterns, &choice.patterns));
        assert_eq!(
            Arc::strong_count(artifact.exec.as_ref().expect("decoded")),
            kernels_before
        );
    }

    fn small_simulator_with_sensitivities() -> (TapeSimulator, Vec<f64>) {
        simulator_with(|options| options.sensitivity = true)
    }

    #[test]
    fn sensitivities_match_central_differences() {
        let (mut sim, rates) = small_simulator_with_sensitivities();
        // Tight tolerances push the FD reference's solve-to-solve noise
        // floor well below the comparison threshold.
        sim.options.rtol = 1e-10;
        sim.options.atol = 1e-13;
        assert_eq!(
            rms_parallel::Simulator::sensitivity_params(&sim),
            rates.len()
        );
        let times = [0.3, 0.9, 1.8];
        let (values, sens) = sim.simulate_with_sensitivities(&rates, 0, &times).unwrap();
        let plain = sim.simulate(&rates, 0, &times).unwrap();
        for (a, b) in values.iter().zip(&plain) {
            assert!((a - b).abs() < 1e-7 * a.abs().max(1e-9), "{a} vs {b}");
        }
        assert_eq!(sens.len(), times.len());
        for k in 0..rates.len() {
            let h = 1e-4 * rates[k].abs().max(1e-4);
            let mut up = rates.clone();
            up[k] += h;
            let mut dn = rates.clone();
            dn[k] -= h;
            let fwd = sim.simulate(&up, 0, &times).unwrap();
            let bwd = sim.simulate(&dn, 0, &times).unwrap();
            for r in 0..times.len() {
                let fd = (fwd[r] - bwd[r]) / (2.0 * h);
                let got = sens[r][k];
                assert!(
                    (got - fd).abs() < 5e-4 * fd.abs().max(1e-2),
                    "t={} k={k}: analytic {got} vs fd {fd}",
                    times[r]
                );
            }
        }
    }

    #[test]
    fn simulator_without_tapes_rejects_sensitivity_requests() {
        let (sim, rates) = small_simulator();
        assert_eq!(rms_parallel::Simulator::sensitivity_params(&sim), 0);
        let err = sim
            .simulate_with_sensitivities(&rates, 0, &[1.0])
            .unwrap_err();
        assert!(err.contains("no parameter-sensitivity tapes"), "{err}");
    }

    #[test]
    fn artifact_with_sensitivity_stage_attaches_tapes() {
        let (artifact, observable) = small_artifact(|options| {
            options.deriv = true;
            options.sensitivity = true;
        });
        assert!(artifact.sensitivity.is_some());
        // Deriv-stage metrics cover the dfdp group.
        let deriv = artifact.report.stage(Stage::Deriv).expect("Deriv ran");
        assert!(deriv
            .metrics
            .iter()
            .any(|(k, v)| k == "dfdp_nnz" && *v > 0.0));
        assert!(deriv
            .metrics
            .iter()
            .any(|(k, v)| k == "dfdp_instrs" && *v > 0.0));
        let sim = TapeSimulator::from_artifact(&artifact, observable);
        assert!(sim.has_sensitivities());
        assert_eq!(
            rms_parallel::Simulator::sensitivity_params(&sim),
            artifact.system.rate_values.len()
        );
    }

    #[test]
    fn formulations_select_by_index() {
        let (mut sim, rates) = small_simulator();
        let mut alt = sim.initials[0].clone();
        for v in &mut alt {
            *v *= 0.5;
        }
        sim.initials.push(alt);
        let a = sim.simulate(&rates, 0, &[1.0]).unwrap();
        let b = sim.simulate(&rates, 1, &[1.0]).unwrap();
        let c = sim.simulate(&rates, 2, &[1.0]).unwrap(); // wraps to 0
        assert!(a[0] != b[0]);
        assert_eq!(a[0], c[0]);
    }
}
