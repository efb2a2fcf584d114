//! Cross-crate integration tests for the sparse Newton path: BDF
//! trajectories under `LinearSolver::Sparse` match the dense baseline
//! on both workload model families and both sparsity-aware Jacobian
//! sources, the factorization actually is sparse (nnz(L+U) ≪ n²), and
//! the analysis behind it runs once per compiled model: every solve over
//! an artifact shares the artifact's `NewtonPlan`, bit for bit the one a
//! solve would have analyzed for itself — and that plan's multiply-add
//! count is what `LinearSolver::Auto` chooses dense or sparse from. Plain
//! and sensitivity-augmented solves read one Jacobian, so there is one
//! plan; a revived artifact rebuilds it from the elimination order its
//! disk entry carries, without an ordering pass.

use std::sync::{Arc, Barrier, Mutex};

use rms_driver::KernelChoice;
use rms_solver::{orderings_computed_on_this_thread, ColoredPattern};
use rms_suite::{
    cache, solve_bdf_sensitivities, solve_bdf_with_jacobian, AnalyticJacobian, Bdf, BoundKernel,
    CacheMode, CacheStatus, CompiledArtifact, CompilerSession, FnRhs, JacobianSource, LinearSolver,
    NewtonPlan, OptLevel, SessionOptions, Simulator, SolveStats, SolverOptions, SparsityPattern,
    Stage, TapeSimulator, SPARSE_COST_PER_MAC,
};
use rms_workload::{scaled_case, vulcanization_source, VulcanizationModel, VULCANIZATION_RDL};

/// A session whose artifacts carry the analytic Jacobian tapes.
fn deriv_session() -> CompilerSession {
    let mut options = SessionOptions::new(OptLevel::Full);
    options.deriv = true;
    CompilerSession::with_options(options)
}

fn compile_network(model: VulcanizationModel) -> Arc<CompiledArtifact> {
    deriv_session()
        .compile_network("<network>", model.network, model.rates)
        .expect("workload models always compile")
        .artifact
}

/// Short horizon, tight tolerances: at loose tolerances the step
/// controller amplifies last-bit differences between the two linear
/// solvers into tolerance-level trajectory noise; run near roundoff and
/// the comparison isolates the linear algebra.
const TIMES: [f64; 4] = [0.0125, 0.025, 0.0375, 0.05];

fn tight(linear_solver: LinearSolver, rtol: f64, atol: f64) -> SolverOptions {
    SolverOptions {
        linear_solver,
        rtol,
        atol,
        max_steps: 4_000_000,
        ..SolverOptions::default()
    }
}

/// Max norm-relative difference between two stacked trajectories.
fn rel_diff(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(ya, yb)| {
            let norm = ya.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-300);
            let diff = ya
                .iter()
                .zip(yb)
                .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()));
            diff / norm
        })
        .fold(0.0, f64::max)
}

/// A sparsity-aware Jacobian source: the tapes the artifact carries,
/// which every solve over it selects, or colored finite differences over
/// the artifact's structural pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Analytic,
    FdColored,
}

impl Source {
    fn of<'a>(self, choice: &'a KernelChoice, bound: &'a BoundKernel<'a>) -> JacobianSource<'a> {
        match self {
            Source::Analytic => bound.jacobian_source(),
            Source::FdColored => JacobianSource::FdColored(choice.patterns.fd()),
        }
    }
}

/// The exec engine's states at [`TIMES`] under `options`, taken by one
/// BDF solve.
fn trajectory(
    model: &CompiledArtifact,
    options: SolverOptions,
    source: Source,
) -> Result<Vec<Vec<f64>>, String> {
    let choice = model.kernel();
    let bound = BoundKernel::new(&choice, &model.system.rate_values);
    let y0 = &model.system.initial;
    let solve =
        solve_bdf_with_jacobian(&bound, 0.0, y0, &TIMES, options, source.of(&choice, &bound));
    solve.map(|(states, _)| states).map_err(|e| e.to_string())
}

/// Sparse-vs-dense agreement for one model under both sparsity-aware
/// Jacobian sources (analytic tapes and colored finite differences).
/// The tolerance pair is per-model: as tight as its scaling admits.
fn assert_solvers_agree(model: &CompiledArtifact, label: &str, rtol: f64, atol: f64) {
    for mode in [Source::Analytic, Source::FdColored] {
        let dense = trajectory(model, tight(LinearSolver::Dense, rtol, atol), mode)
            .unwrap_or_else(|e| panic!("{label}/{mode:?}: dense solve failed: {e}"));
        let sparse = trajectory(model, tight(LinearSolver::Sparse, rtol, atol), mode)
            .unwrap_or_else(|e| panic!("{label}/{mode:?}: sparse solve failed: {e}"));
        let diff = rel_diff(&dense, &sparse);
        assert!(
            diff <= 1e-12,
            "{label}/{mode:?}: sparse trajectory deviates from dense by {diff:.3e}"
        );
        assert!(
            sparse.iter().flatten().all(|v| v.is_finite()),
            "{label}/{mode:?}: non-finite state"
        );
        // Non-vacuity: the system genuinely evolved over the horizon —
        // a trajectory frozen at y0 would agree trivially.
        let moved = sparse
            .last()
            .unwrap()
            .iter()
            .zip(&model.system.initial)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        assert!(
            moved > 1e-6,
            "{label}/{mode:?}: state never moved ({moved:e})"
        );
    }
}

#[test]
fn sparse_matches_dense_on_programmatic_workload() {
    let model = scaled_case(2, 100);
    let compiled = compile_network(model);
    assert_solvers_agree(&compiled, "scaled_case(2, 100)", 1e-11, 1e-14);
}

#[test]
fn sparse_matches_dense_on_rdl_workload() {
    let compiled = deriv_session()
        .compile_source("<rdl>", VULCANIZATION_RDL)
        .expect("bundled RDL model compiles")
        .artifact;
    // The RDL model's scaling underflows the step size below rtol 1e-10.
    assert_solvers_agree(&compiled, "VULCANIZATION_RDL", 1e-10, 1e-13);
}

/// The 157-species model the `rdl_fit` benchmark fits, compiled as that
/// workload compiles it: with the sensitivity tail, cold.
fn rdl_fit_model() -> Arc<CompiledArtifact> {
    let model = private_session()
        .compile_source("<rdl_fit>", &vulcanization_source(16))
        .expect("scaled RDL model compiles")
        .artifact;
    assert_eq!(model.system.len(), 157);
    model
}

/// The model `Auto` used to factor densely on a density guess: its sparse
/// and dense trajectories agree like the others', and so do its
/// sensitivity-augmented ones.
#[test]
fn sparse_matches_dense_on_rdl_fit_model() {
    let model = rdl_fit_model();
    // Sixteen sulfur ranks: the step size underflows below rtol 1e-9.
    assert_solvers_agree(&model, "rdl_fit", 1e-9, 1e-12);

    let augmented = |linear_solver| {
        let mut sim = TapeSimulator::from_artifact(&model, vec![1.0; model.system.len()]);
        sim.options = tight(linear_solver, 1e-9, 1e-12);
        sim.simulate_with_sensitivities(&model.system.rate_values, 0, &TIMES)
            .unwrap_or_else(|e| panic!("{linear_solver}: augmented solve failed: {e}"))
    };
    let (dense_values, dense_sens) = augmented(LinearSolver::Dense);
    let (sparse_values, sparse_sens) = augmented(LinearSolver::Sparse);
    let diff = rel_diff(&[dense_values], &[sparse_values]);
    assert!(diff <= 1e-12, "observable deviates by {diff:.3e}");
    // The bound `bdf::tests::sensitivity_with_sparse_factorization` holds
    // its sparse-path sensitivities to.
    let diff = rel_diff(&dense_sens, &sparse_sens);
    assert!(diff <= 1e-5, "sensitivities deviate by {diff:.3e}");
    assert!(sparse_sens.iter().flatten().any(|v| v.abs() > 1e-6));
}

/// On a scale-25 Table 1 case the factorization the solver reports is
/// genuinely sparse: nnz(L+U) stays far below the n² a dense LU carries,
/// and the run actually factors through the sparse kernel.
#[test]
fn solver_stats_report_sparse_fill() {
    let model = scaled_case(2, 25);
    let compiled = compile_network(model);
    let n = compiled.system.len();
    assert!(
        n >= 300,
        "scale-25 case 2 should be a few hundred equations"
    );

    let choice = compiled.kernel();
    let bound = BoundKernel::new(&choice, &compiled.system.rate_values);

    let options = SolverOptions {
        linear_solver: LinearSolver::Sparse,
        ..SolverOptions::default()
    };
    let (sol, stats) = solve_bdf_with_jacobian(
        &bound,
        0.0,
        &compiled.system.initial,
        &[0.01],
        options,
        bound.jacobian_source(),
    )
    .expect("sparse BDF solve succeeds");

    assert_eq!(sol.len(), 1);
    assert!(stats.factorizations > 0, "no factorizations recorded");
    assert!(stats.fill_nnz > 0, "fill gauge never set");
    assert!(
        stats.fill_nnz * 10 <= n * n,
        "fill {} is not \u{226a} n\u{b2} = {}",
        stats.fill_nnz,
        n * n
    );

    // The dense path reports the dense gauge, for contrast.
    let options = SolverOptions {
        linear_solver: LinearSolver::Dense,
        ..SolverOptions::default()
    };
    let (_, dense_stats) = solve_bdf_with_jacobian(
        &bound,
        0.0,
        &compiled.system.initial,
        &[0.01],
        options,
        bound.jacobian_source(),
    )
    .expect("dense BDF solve succeeds");
    assert_eq!(dense_stats.fill_nnz, n * n);
}

/// The derivative group with its tail, compiled for this test alone
/// (cache bypassed): a cold compile, so the *Deriv* stage's plan is on
/// the artifact already.
fn private_session() -> CompilerSession {
    let mut options = SessionOptions::new(OptLevel::Full);
    options.deriv = true;
    options.sensitivity = true;
    options.cache = CacheMode::Bypass;
    CompilerSession::with_options(options)
}

/// The in-memory artifact cache is process-wide: whoever clears it, or
/// counts on a hit in it, holds this meanwhile.
fn cache_lock() -> std::sync::MutexGuard<'static, ()> {
    static CACHE_LOCK: Mutex<()> = Mutex::new(());
    CACHE_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// `model` as a later process meets it: compiled into a cache directory,
/// dropped from memory and revived from disk — no plan on it until a
/// sparse-path solve asks (and then the symbolic fill under the stored
/// order, not an analysis). `tag` keeps the directory (and so the test)
/// to itself; callers pass models no other test in this binary compiles.
fn revived(tag: &str, model: VulcanizationModel) -> Arc<CompiledArtifact> {
    let _cache = cache_lock();
    let dir = std::env::temp_dir().join(format!("rms-plan-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut options = SessionOptions::new(OptLevel::Full);
    options.deriv = true;
    options.sensitivity = true;
    options.cache_dir = Some(dir.clone());
    let session = CompilerSession::with_options(options);
    session
        .compile_network(tag, model.network.clone(), model.rates.clone())
        .expect("workload models always compile");
    cache::clear_memory();
    let again = session
        .compile_network(tag, model.network, model.rates)
        .expect("revival");
    assert_eq!(again.status, CacheStatus::Disk);
    let _ = std::fs::remove_dir_all(&dir);
    let patterns = again.artifact.kernel().patterns;
    assert!(patterns.built_plan().is_none(), "a plan on revival");
    again.artifact
}

/// The same Jacobian as the [`BoundKernel`] it wraps, but a provider that
/// keeps the default `plan()`: its solves analyze for themselves.
struct OwnAnalysis<'a>(&'a BoundKernel<'a>);

impl AnalyticJacobian for OwnAnalysis<'_> {
    fn pattern(&self) -> &SparsityPattern {
        self.0.pattern()
    }

    fn eval_values(&self, t: f64, y: &[f64], vals: &mut [f64]) {
        self.0.eval_values(t, y, vals)
    }
}

fn sparse_options() -> SolverOptions {
    SolverOptions {
        linear_solver: LinearSolver::Sparse,
        ..SolverOptions::default()
    }
}

fn bits(rows: &[Vec<f64>]) -> Vec<u64> {
    rows.iter().flatten().map(|v| v.to_bits()).collect()
}

/// Which solve `TapeSimulator` makes: the state alone, or the state with
/// every sensitivity column beside it.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Plain,
    Augmented,
}

const KINDS: [Kind; 2] = [Kind::Plain, Kind::Augmented];

/// One solve of `kind` as `TapeSimulator` makes it: the bits of
/// everything it returned, and its counters.
fn solve_with(
    artifact: &CompiledArtifact,
    bound: &BoundKernel<'_>,
    source: JacobianSource<'_>,
    options: SolverOptions,
    kind: Kind,
) -> (Vec<u64>, SolveStats) {
    let y0 = &artifact.system.initial;
    match kind {
        Kind::Plain => {
            let (states, stats) = solve_bdf_with_jacobian(bound, 0.0, y0, &TIMES, options, source)
                .expect("plain solve");
            (bits(&states), stats)
        }
        Kind::Augmented => {
            let (states, sens, stats) =
                solve_bdf_sensitivities(bound, bound, 0.0, y0, &TIMES, options, source)
                    .expect("augmented solve");
            (bits(&[states, sens].concat()), stats)
        }
    }
}

/// One sparse-path solve of `kind` through `jacobian` (the bound kernel
/// itself, or [`OwnAnalysis`] of it).
fn solve_sparse(
    artifact: &CompiledArtifact,
    bound: &BoundKernel<'_>,
    jacobian: &dyn AnalyticJacobian,
    kind: Kind,
) -> (Vec<u64>, SolveStats) {
    let source = JacobianSource::AnalyticTape(jacobian);
    solve_with(artifact, bound, source, sparse_options(), kind)
}

/// The counters of a solve of `kind` through `source`, at the
/// simulator's tolerances.
fn solve_stats(
    artifact: &CompiledArtifact,
    kind: Kind,
    source: Source,
    linear_solver: LinearSolver,
) -> SolveStats {
    let choice = artifact.kernel();
    let bound = BoundKernel::new(&choice, &artifact.system.rate_values);
    let options = SolverOptions {
        linear_solver,
        ..SolverOptions::default()
    };
    solve_with(artifact, &bound, source.of(&choice, &bound), options, kind).1
}

/// The shared plan is the analysis a solve would have run: plain and
/// sensitivity-augmented trajectories agree bit for bit with solves that
/// analyze for themselves, and so do all counters but the new one.
fn assert_plan_changes_no_bit(artifact: &CompiledArtifact, label: &str) {
    let choice = artifact.kernel();
    for kind in KINDS {
        let bound = BoundKernel::new(&choice, &artifact.system.rate_values);
        let (shared, shared_stats) = solve_sparse(artifact, &bound, &bound, kind);
        let (own, own_stats) = solve_sparse(artifact, &bound, &OwnAnalysis(&bound), kind);
        assert!(shared == own, "{label}/{kind:?}: trajectories differ");
        assert!(shared_stats.factorizations > 0 && shared_stats.fill_nnz > 0);
        assert_eq!(shared_stats.symbolic_analyses, 0, "{label}/{kind:?}");
        assert_eq!(own_stats.symbolic_analyses, 1, "{label}/{kind:?}");
        assert_eq!(
            SolveStats {
                symbolic_analyses: 0,
                ..own_stats
            },
            shared_stats,
            "{label}/{kind:?}"
        );
    }
}

#[test]
fn shared_plan_changes_no_bit_of_a_trajectory() {
    let session = private_session();
    let model = scaled_case(2, 100);
    let programmatic = session
        .compile_network("<network>", model.network, model.rates)
        .expect("workload models always compile");
    // What the cold compile's Deriv stage analyzed is the plan the solves
    // run on, and the report says what it cost.
    let patterns = programmatic.artifact.kernel().patterns;
    let kept = patterns
        .built_plan()
        .expect("the Deriv stage keeps its analysis")
        .clone();
    let deriv = programmatic.artifact.report.stage(Stage::Deriv).unwrap();
    let metric = |name: &str| deriv.metrics.iter().find(|(k, _)| k == name).unwrap().1;
    assert_eq!(metric("lu_fill_nnz"), kept.fill_nnz() as f64);
    assert_eq!(metric("iter_nnz"), kept.iter_nnz() as f64);
    assert!(metric("symbolic_seconds") > 0.0);
    assert_plan_changes_no_bit(&programmatic.artifact, "scaled_case(2, 100)");
    assert!(Arc::ptr_eq(&patterns.plan().unwrap(), &kept));
    let rdl = session
        .compile_source("<rdl>", VULCANIZATION_RDL)
        .expect("bundled RDL model compiles");
    assert_plan_changes_no_bit(&rdl.artifact, "VULCANIZATION_RDL");
}

/// Eight solves start together on an artifact that has no plan yet: one
/// of them builds it inside `OnceLock::get_or_init`, the others wait for
/// it, and all eight run on that one plan without an analysis of their
/// own. A provider outside the artifact still pays for its own.
#[test]
fn concurrent_solves_share_one_plan_built_once() {
    let artifact = revived("concurrent", scaled_case(2, 30));
    let choice = artifact.kernel();
    let rates = &artifact.system.rate_values;
    let start = Barrier::new(8);
    let solves: Vec<_> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    let bound = BoundKernel::new(&choice, rates);
                    start.wait();
                    let (out, stats) = solve_sparse(&artifact, &bound, &bound, Kind::Plain);
                    (bound.plan().expect("Deriv ran"), out, stats)
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    let built = choice
        .patterns
        .built_plan()
        .expect("the first sparse-path solve built it");
    for (plan, out, stats) in &solves {
        assert!(Arc::ptr_eq(plan, built));
        assert_eq!(stats.symbolic_analyses, 0);
        assert!(stats.factorizations > 0);
        assert!(*out == solves[0].1, "same rates, same trajectory");
    }
    // An augmented solve finds the same plan.
    let bound = BoundKernel::new(&choice, rates);
    let (_, stats) = solve_sparse(&artifact, &bound, &bound, Kind::Augmented);
    assert_eq!(stats.symbolic_analyses, 0);
    assert!(Arc::ptr_eq(&bound.plan().expect("Deriv ran"), built));

    let own = OwnAnalysis(&bound);
    let (_, stats) = solve_sparse(&artifact, &bound, &own, Kind::Plain);
    assert_eq!(stats.symbolic_analyses, 1);
}

/// Every solve binds a fresh kernel; a solve after a failed one finds the
/// plan the failed one built.
#[test]
fn a_solve_after_a_failed_one_reuses_its_plan() {
    let artifact = revived("failed", scaled_case(2, 20));
    let choice = artifact.kernel();
    let observable = vec![1.0; artifact.system.len()];
    let rates = &artifact.system.rate_values;

    // Through the simulator: starved of steps, the solve fails, and what
    // it analyzed is still the artifact's plan.
    let mut sim = TapeSimulator::from_artifact(&artifact, observable);
    sim.options.linear_solver = LinearSolver::Sparse;
    sim.options.max_steps = 1;
    let err = sim.simulate(rates, 0, &[2.0]).unwrap_err();
    assert!(err.starts_with("exceeded 1 steps at t="), "{err}");
    let plan = choice
        .patterns
        .built_plan()
        .expect("the failed solve factored once")
        .clone();

    // A starved solve, then a whole one, at one tolerance.
    let outcomes = [1, sparse_options().max_steps].map(|max_steps| {
        let options = SolverOptions {
            max_steps,
            ..sparse_options()
        };
        let bound = BoundKernel::new(&choice, rates);
        let mut solver = Bdf::new(&bound, 0.0, &artifact.system.initial, options);
        solver.set_jacobian_source(bound.jacobian_source());
        let outcome = solver.integrate_to(0.05);
        assert!(solver.stats().factorizations > 0);
        assert_eq!(solver.stats().symbolic_analyses, 0);
        assert!(Arc::ptr_eq(&bound.plan().expect("Deriv ran"), &plan));
        outcome.is_ok()
    });
    assert_eq!(outcomes, [false, true]);
}

/// `LinearSolver::Dense` never asks for a plan, not even on a model `Auto`
/// factors sparsely. `Auto` always does, and on the 157-species model of
/// the `rdl_fit` benchmark — 19 % dense, which a density rule would send
/// to dense LU — the plan says sparse: 79,833 multiply-adds over a fill
/// of 5,549 against 157³/3, plain or sensitivity-augmented.
#[test]
fn dense_solves_never_build_a_plan() {
    let no_plan = |artifact: &CompiledArtifact, label: &str| {
        let patterns = artifact.kernel().patterns;
        assert!(patterns.built_plan().is_none(), "{label}");
    };

    let artifact = revived("dense", scaled_case(2, 40));
    let mut sim = TapeSimulator::from_artifact(&artifact, vec![1.0; artifact.system.len()]);
    sim.options.linear_solver = LinearSolver::Dense;
    let rates = &artifact.system.rate_values;
    sim.simulate(rates, 0, &TIMES).expect("dense solve");
    sim.simulate_with_sensitivities(rates, 0, &TIMES)
        .expect("dense augmented solve");
    no_plan(&artifact, "LinearSolver::Dense");
    // The same model does plan once it may: `Auto` takes it sparse.
    sim.options.linear_solver = LinearSolver::Auto;
    sim.simulate(rates, 0, &TIMES).expect("auto solve");
    let patterns = artifact.kernel().patterns;
    assert!(patterns.built_plan().is_some());

    let artifact = rdl_fit_model();
    let patterns = artifact.kernel().patterns;
    // The Deriv stage of the cold compile planned the Jacobian.
    let kept = patterns.built_plan().unwrap().clone();
    let sim = TapeSimulator::from_artifact(&artifact, vec![1.0; artifact.system.len()]);
    assert_eq!(sim.options.linear_solver, LinearSolver::Auto);
    let rates = &artifact.system.rate_values;
    sim.simulate(rates, 0, &TIMES).expect("auto solve");
    sim.simulate_with_sensitivities(rates, 0, &TIMES)
        .expect("auto augmented solve");
    assert_eq!((kept.fill_nnz(), kept.factor_macs()), (5_549, 79_833));
    for kind in KINDS {
        for _ in 0..2 {
            let stats = solve_stats(&artifact, kind, Source::Analytic, LinearSolver::Auto);
            assert_eq!(stats.fill_nnz, 5_549, "{kind:?}");
            assert_eq!(stats.symbolic_analyses, 0, "{kind:?}");
        }
    }
    // Planned once: every solve found the plan the compile left.
    assert!(Arc::ptr_eq(patterns.built_plan().unwrap(), &kept));
}

/// No solve over an artifact analyzes for itself, whichever way the
/// linear solver is chosen or chooses, whatever the artifact's history:
/// the plans belong to the artifact's patterns (one for the analytic
/// Jacobian, one beside the finite-difference coloring). And no solve
/// through the analytic pattern orders it either: the cold compile did,
/// and a revived artifact carries that order.
#[test]
fn artifact_backed_solves_never_analyze() {
    let model = scaled_case(2, 125);
    let mut options = SessionOptions::new(OptLevel::Full);
    options.deriv = true;
    options.sensitivity = true;
    let session = CompilerSession::with_options(options);
    let (cold, hit) = {
        let _cache = cache_lock();
        let compile = || {
            session
                .compile_network("never-analyze", model.network.clone(), model.rates.clone())
                .expect("workload models always compile")
        };
        let (cold, hit) = (compile(), compile());
        assert_eq!(hit.status, CacheStatus::Memory);
        (cold.artifact, hit.artifact)
    };
    let revived = revived("never-analyze", scaled_case(2, 150));
    for (label, artifact) in [("cold", &cold), ("memory hit", &hit), ("revived", &revived)] {
        for solver in [
            LinearSolver::Dense,
            LinearSolver::Auto,
            LinearSolver::Sparse,
        ] {
            for (kind, mode) in [
                (Kind::Plain, Source::Analytic),
                (Kind::Plain, Source::FdColored),
                (Kind::Augmented, Source::Analytic),
            ] {
                let ordered = orderings_computed_on_this_thread();
                let stats = solve_stats(artifact, kind, mode, solver);
                if mode == Source::Analytic {
                    let ran = orderings_computed_on_this_thread() - ordered;
                    assert_eq!(ran, 0, "{label}/{solver}/{kind:?}: minimum-degree passes");
                }
                assert!(stats.factorizations > 0);
                assert_eq!(
                    stats.symbolic_analyses, 0,
                    "{label}/{solver}/{kind:?}/{mode:?}"
                );
            }
            if solver == LinearSolver::Dense && label == "revived" {
                let patterns = artifact.kernel().patterns;
                assert!(patterns.built_plan().is_none());
                assert!(patterns.fd().pattern.built_plan().is_none());
            }
        }
    }
}

/// `Auto` reads its decision off the plan: sparse when one refactorization
/// over the fill costs fewer multiply-adds (at `SPARSE_COST_PER_MAC` dense
/// ones each) than the n³/3 of a dense LU. Every model here that costs
/// time is far from the crossover — the verdict is the same at half and
/// at twice the constant — and the solver does what the plan says.
#[test]
fn auto_decides_from_the_plans_multiply_adds() {
    let jacobian_plan = |model: &CompiledArtifact| {
        let patterns = model.kernel().patterns;
        let plan = patterns.plan().expect("Deriv ran");
        let stats = solve_stats(model, Kind::Plain, Source::Analytic, LinearSolver::Auto);
        (plan, stats.fill_nnz)
    };
    let rdl = deriv_session()
        .compile_source("<rdl>", VULCANIZATION_RDL)
        .expect("bundled RDL model compiles")
        .artifact;
    assert_eq!(rdl.system.len(), 47);

    // A fully coupled system: the fill is n² whatever the order.
    let n = 64;
    let coupled = SparsityPattern::new(vec![(0..n as u32).collect(); n], n);
    let coupled_plan = Arc::new(NewtonPlan::analyze(&coupled).unwrap());
    assert_eq!(coupled_plan.fill_nnz(), n * n);
    assert_eq!(
        coupled_plan.factor_macs() as usize,
        (n - 1) * n * (n + 1) / 3
    );
    let mixing = FnRhs::new(n, |_t, y: &[f64], ydot: &mut [f64]| {
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        for (d, v) in ydot.iter_mut().zip(y) {
            *d = mean - v;
        }
    });
    let y0: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let (_, coupled_stats) = solve_bdf_with_jacobian(
        &mixing,
        0.0,
        &y0,
        &[1.0],
        SolverOptions::default(),
        JacobianSource::FdColored(&ColoredPattern::new(coupled)),
    )
    .expect("coupled solve");

    let table = [
        ("vulcanization.rdl", jacobian_plan(&rdl), true),
        ("rdl_fit", jacobian_plan(&rdl_fit_model()), true),
        (
            "scaled_case(2, 40)",
            jacobian_plan(&compile_network(scaled_case(2, 40))),
            true,
        ),
        (
            "fully coupled",
            (coupled_plan, coupled_stats.fill_nnz),
            false,
        ),
    ];
    for (label, (plan, solved_fill), sparse) in table {
        assert_eq!(plan.prefers_sparse(), sparse, "{label}");
        let (macs, dense) = (plan.factor_macs() as f64, plan.dense_factor_macs());
        for scale in [0.5, 2.0] {
            assert_eq!(
                scale * SPARSE_COST_PER_MAC * macs < dense,
                sparse,
                "{label}: {macs} sparse against {dense} dense multiply-adds \
                 is on a knife edge at {scale} x the constant"
            );
        }
        let n = (3.0 * dense).cbrt().round() as usize;
        let expected_fill = if sparse { plan.fill_nnz() } else { n * n };
        assert_eq!(solved_fill, expected_fill, "{label}: the solver's path");
    }
}
