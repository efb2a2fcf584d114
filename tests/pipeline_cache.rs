//! Cache correctness for the pass-managed pipeline: a cache-hit compile
//! must be *behaviorally* identical to a cold one — same tape, same
//! operation counts, same BDF trajectory — at every optimization level
//! and for both workload model kinds (RDL source and the programmatic
//! network generator). Plus invalidation, disk revival — which reads
//! the derivative group, the plan's elimination order and the warnings
//! back, and derives nothing — and the report's Table 1 op-count fidelity.

use std::sync::{Arc, Mutex};

use rms_solver::orderings_computed_on_this_thread;
use rms_suite::workload::{generate_model, VulcanizationSpec, VULCANIZATION_RDL};
use rms_suite::{
    cache, generate, optimize, solve_bdf_sensitivities, solve_bdf_with_jacobian, BoundKernel,
    CacheMode, CacheStatus, Compiled, CompiledArtifact, CompilerSession, GenerateOptions, OptLevel,
    SessionOptions, SolveStats, SolverOptions, Stage, TapeSimulator,
};

/// The in-memory cache is process-wide and one test clears it; serialize
/// the tests in this binary so a clear cannot race a hit assertion.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    CACHE_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// A cascading scission that one generation cannot close: compiles, with
/// a warning anchored at the `limit` statement.
const CAPPED_RDL: &str = "rate K_sc = 2;\n\
    molecule Sx = \"CSSSSC\" init 1.0;\n\
    rule scission { site bond S ~ S order single; action disconnect; rate K_sc; }\n\
    limit generations 1;\n";

const LEVELS: [OptLevel; 4] = [
    OptLevel::None,
    OptLevel::Simplify,
    OptLevel::Algebraic,
    OptLevel::Full,
];

/// The two workload model kinds, compiled through the matching session
/// entry point.
#[derive(Clone, Copy)]
enum Model {
    RdlSource,
    Network,
}

fn compile(model: Model, options: SessionOptions) -> Compiled {
    let session = CompilerSession::with_options(options);
    match model {
        Model::RdlSource => session
            .compile_source("vulcanization.rdl", VULCANIZATION_RDL)
            .expect("rdl model compiles"),
        Model::Network => {
            let m = generate_model(VulcanizationSpec {
                sites: 3,
                max_chain: 3,
                neighbourhood: 1,
            });
            session
                .compile_network("vulcanization-small", m.network, m.rates)
                .expect("network model compiles")
        }
    }
}

/// Short BDF trajectory from the artifact's own initial state.
fn trajectory(artifact: &CompiledArtifact) -> Vec<Vec<f64>> {
    let simulator = TapeSimulator::from_artifact(artifact, Vec::new());
    simulator
        .trajectory(&artifact.system.rate_values, 0, &[0.02, 0.05])
        .expect("short solve succeeds")
}

/// One solve at the default options (`LinearSolver::Auto`, the analytic
/// Jacobian), plain or sensitivity-`augmented`. The bits of everything it
/// returned, and its counters.
fn solve(artifact: &CompiledArtifact, augmented: bool) -> (Vec<u64>, SolveStats) {
    let choice = artifact.kernel();
    let bound = BoundKernel::new(&choice, &artifact.system.rate_values);
    let (y0, times) = (&artifact.system.initial, [0.02, 0.05]);
    let (options, source) = (SolverOptions::default(), bound.jacobian_source());
    let (rows, stats) = if augmented {
        let (states, sens, stats) =
            solve_bdf_sensitivities(&bound, &bound, 0.0, y0, &times, options, source)
                .expect("augmented solve");
        ([states, sens].concat(), stats)
    } else {
        solve_bdf_with_jacobian(&bound, 0.0, y0, &times, options, source).expect("plain solve")
    };
    (rows.iter().flatten().map(|v| v.to_bits()).collect(), stats)
}

fn assert_identical(cold: &Arc<CompiledArtifact>, hit: &Arc<CompiledArtifact>, label: &str) {
    // Same lowered tape, instruction for instruction.
    assert_eq!(
        cold.compiled.tape.to_string(),
        hit.compiled.tape.to_string(),
        "{label}: tapes differ"
    );
    // Same Table 1 operation counts at every optimizer stage.
    assert_eq!(cold.compiled.stages, hit.compiled.stages, "{label}");
    assert_eq!(cold.report.counts, hit.report.counts, "{label}");
    assert_eq!(cold.warnings, hit.warnings, "{label}");
    // The same derivative group: every tape, every entry list, and the
    // tail hanging off the Jacobian pair the artifact shows as `jacobian`.
    let jacobian = |a: &CompiledArtifact| {
        a.jacobian.as_deref().map(|j| {
            let tapes = [&j.rhs, &j.jac].map(|t| t.to_string());
            (tapes, j.entries.clone(), j.n_species)
        })
    };
    assert!(jacobian(cold) == jacobian(hit), "{label}: Jacobian tapes");
    let tail = |a: &CompiledArtifact| {
        a.sensitivity.as_deref().map(|s| {
            let head = a.jacobian.as_ref().expect("sensitivity implies deriv");
            assert!(Arc::ptr_eq(head, &s.state), "{label}: one group");
            (s.dfdp.to_string(), s.dfdp_entries.clone(), s.n_rates)
        })
    };
    assert!(tail(cold) == tail(hit), "{label}: sensitivity tail");
    // Same first solve of each kind the group serves, to the bit and to
    // the counter: neither artifact analyzes in a solve — the cold
    // compile's Deriv stage did, a revived entry carries that order — and
    // the plan either way has the same fill.
    let kinds = [
        cold.jacobian.as_ref().map(|_| false),
        cold.sensitivity.as_ref().map(|_| true),
    ];
    let ordered = orderings_computed_on_this_thread();
    for augmented in kinds.into_iter().flatten() {
        let (cold_bits, cold_stats) = solve(cold, augmented);
        let (hit_bits, hit_stats) = solve(hit, augmented);
        let kind = if augmented { "augmented" } else { "plain" };
        assert!(cold_bits == hit_bits, "{label}: {kind} trajectories");
        assert_eq!(cold_stats, hit_stats, "{label}: {kind}");
        assert_eq!(cold_stats.symbolic_analyses, 0, "{label}: {kind}");
    }
    if cold.jacobian.is_some() {
        assert_eq!(orderings_computed_on_this_thread(), ordered, "{label}");
        let plans = [cold, hit].map(|a| {
            let patterns = a.kernel().patterns;
            patterns.plan().expect("Deriv ran")
        });
        let shape = |p: &rms_suite::NewtonPlan| (p.fill_nnz(), p.factor_macs(), p.order().to_vec());
        assert!(shape(&plans[0]) == shape(&plans[1]), "{label}: plans");
    }
    // Same dynamics through the simulator front door: the BDF
    // trajectories are bit-identical because the solver runs the same
    // instructions on the same initial state.
    assert_eq!(trajectory(cold), trajectory(hit), "{label}: trajectories");
}

#[test]
fn cache_hits_reproduce_cold_compiles_at_every_level() {
    let _guard = lock();
    for model in [Model::RdlSource, Model::Network] {
        for level in LEVELS {
            let label = format!("{level}");
            // Guaranteed-cold reference compile.
            let mut bypass = SessionOptions::new(level);
            bypass.cache = CacheMode::Bypass;
            let cold = compile(model, bypass);
            assert_eq!(cold.status, CacheStatus::Cold);

            // Cached compile twice: the second must be a memory hit that
            // shares the first's allocation.
            let warm = compile(model, SessionOptions::new(level));
            let hit = compile(model, SessionOptions::new(level));
            assert_eq!(hit.status, CacheStatus::Memory, "{label}");
            assert!(Arc::ptr_eq(&warm.artifact, &hit.artifact), "{label}");

            assert_identical(&cold.artifact, &hit.artifact, &label);
        }
    }
}

/// The content address is two std hashers over one walk of the model; it
/// must stay the address two separate walks gave (recorded at 8bddc5b),
/// or every cache directory in the field goes cold.
#[test]
fn cache_keys_are_the_ones_two_separate_walks_gave() {
    let _guard = lock();
    let source = CompilerSession::new(OptLevel::Full)
        .compile_source("x.rdl", CAPPED_RDL)
        .expect("capped model compiles");
    assert_eq!(source.artifact.key, 0xa2f0a2304c5fce570bee1875e061f8d1);
    let network = compile(Model::Network, SessionOptions::new(OptLevel::Full));
    assert_eq!(network.artifact.key, 0x161473105a2808ade2189a7a84b21dce);
    let mut options = SessionOptions::new(OptLevel::Algebraic);
    options.deriv = true;
    options.sensitivity = true;
    options.frontend_threads = 2;
    let network = compile(Model::Network, options);
    assert_eq!(network.artifact.key, 0x09056a426caab7c4a27be41cde9fcfc0);
}

#[test]
fn source_and_option_changes_invalidate_the_cache() {
    let _guard = lock();
    let base = compile(Model::RdlSource, SessionOptions::new(OptLevel::Full));

    // An unused rate definition changes the content address: the next
    // compile is cold, not a stale hit on the old artifact.
    let salted = format!("{VULCANIZATION_RDL}\nrate K_salt_invalidation = 977;\n");
    let session = CompilerSession::new(OptLevel::Full);
    let other = session
        .compile_source("vulcanization.rdl", &salted)
        .expect("salted model compiles");
    assert!(!Arc::ptr_eq(&base.artifact, &other.artifact));

    // Option changes invalidate too: requesting the Deriv stage may not
    // be served by an artifact compiled without it.
    let mut deriv = SessionOptions::new(OptLevel::Full);
    deriv.deriv = true;
    let with_jac = compile(Model::RdlSource, deriv);
    assert!(!Arc::ptr_eq(&base.artifact, &with_jac.artifact));
    assert!(base.artifact.jacobian.is_none());
    assert!(with_jac.artifact.jacobian.is_some());
}

#[test]
fn disk_cache_revives_identical_artifacts() {
    let _guard = lock();
    let dir = std::env::temp_dir().join(format!("rms-pipeline-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Plain, and every way a request can ask for derivatives.
    for (model, deriv, sensitivity) in [
        (Model::Network, false, false),
        (Model::Network, true, false),
        (Model::Network, false, true),
        (Model::Network, true, true),
        (Model::RdlSource, true, true),
    ] {
        let mut options = SessionOptions::new(OptLevel::Full);
        options.cache_dir = Some(dir.clone());
        options.deriv = deriv;
        options.sensitivity = sensitivity;

        // A cold build is what persists to disk, so start from an empty
        // memory layer (another test may have already cached this model).
        cache::clear_memory();
        let first = compile(model, options.clone());
        assert_eq!(first.status, CacheStatus::Cold);
        // Drop the in-memory layer: the next compile must come back
        // through deserialization, not a rebuild.
        cache::clear_memory();
        let revived = compile(model, options);
        assert_eq!(revived.status, CacheStatus::Disk);
        assert_eq!(revived.artifact.jacobian.is_some(), deriv || sensitivity);
        assert_eq!(revived.artifact.sensitivity.is_some(), sensitivity);
        let label = format!("disk, deriv: {deriv}, sensitivity: {sensitivity}");
        assert_identical(&first.artifact, &revived.artifact, &label);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cache hit repeats what the cold compile warned about: the closure
/// below stops at its generation cap, and the second compile — which
/// serves the same truncated network — must say so too.
#[test]
fn revived_artifacts_repeat_their_warnings() {
    let _guard = lock();
    let dir = std::env::temp_dir().join(format!("rms-cache-warnings-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut options = SessionOptions::new(OptLevel::Full);
    options.cache_dir = Some(dir.clone());
    let session = CompilerSession::with_options(options);
    let compile = || {
        cache::clear_memory();
        session
            .compile_source("capped.rdl", CAPPED_RDL)
            .expect("capped model compiles")
    };
    let cold = compile();
    assert_eq!(cold.status, CacheStatus::Cold);
    let [warning] = &cold.artifact.warnings[..] else {
        panic!("one warning expected: {:?}", cold.artifact.warnings);
    };
    assert_eq!(warning.stage, Stage::Network);
    assert!(warning.message.contains("generation cap"), "{warning}");
    assert!(warning.span.is_some(), "the cap's source position");
    let revived = compile();
    assert_eq!(revived.status, CacheStatus::Disk);
    assert_eq!(revived.artifact.warnings, cold.artifact.warnings);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn memory_hit_persists_into_a_cache_dir_that_lacks_the_entry() {
    let _guard = lock();
    let dir = std::env::temp_dir().join(format!("rms-pipeline-memhit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Someone without a cache directory compiles the model first …
    let first = compile(Model::Network, SessionOptions::new(OptLevel::Full));
    // … so a session with one is served from memory, and must still
    // leave its entry behind for the next process.
    let mut options = SessionOptions::new(OptLevel::Full);
    options.cache_dir = Some(dir.clone());
    let hit = compile(Model::Network, options.clone());
    assert_eq!(hit.status, CacheStatus::Memory);
    let written = std::fs::metadata(cached_file(&dir))
        .unwrap()
        .modified()
        .unwrap();
    // Remembered per slot: the next hit does not write again.
    let again = compile(Model::Network, options.clone());
    assert_eq!(again.status, CacheStatus::Memory);
    let unchanged = std::fs::metadata(cached_file(&dir))
        .unwrap()
        .modified()
        .unwrap();
    assert_eq!(written, unchanged);
    cache::clear_memory();
    let revived = compile(Model::Network, options);
    assert_eq!(revived.status, CacheStatus::Disk);
    assert_identical(&first.artifact, &revived.artifact, "memory-hit persist");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The single serialized artifact under a cache directory.
fn cached_file(dir: &std::path::Path) -> std::path::PathBuf {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("cache dir exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "rmsc"))
        .collect();
    assert_eq!(entries.len(), 1, "expected exactly one cached artifact");
    entries.pop().unwrap()
}

#[test]
fn corrupt_disk_entries_quarantine_and_fall_back_to_cold() {
    let _guard = lock();
    let dir = std::env::temp_dir().join(format!("rms-cache-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut options = SessionOptions::new(OptLevel::Full);
    options.cache_dir = Some(dir.clone());

    cache::clear_memory();
    let first = compile(Model::Network, options.clone());
    assert_eq!(first.status, CacheStatus::Cold);

    // Flip one bit in the middle of the payload — deep in f64 territory,
    // where the pre-checksum format would have revived silently wrong
    // numbers instead of failing a structural check.
    let path = cached_file(&dir);
    let mut bytes = std::fs::read(&path).expect("cached artifact readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, &bytes).expect("rewrite corrupted artifact");

    let quarantines_before = cache::stats().quarantines;
    cache::clear_memory();
    let recovered = compile(Model::Network, options.clone());
    // Not an error, not a disk hit: a cold compile.
    assert_eq!(recovered.status, CacheStatus::Cold);
    assert_identical(&first.artifact, &recovered.artifact, "corrupt-recovery");
    assert_eq!(cache::stats().quarantines, quarantines_before + 1);

    // The bad bytes were moved aside and a good entry rewritten: the
    // quarantine file holds the corrupted image, and the next compile
    // revives from disk again.
    let quarantined = std::fs::read(format!("{}.corrupt", path.display()))
        .expect("corrupt entry quarantined beside the cache file");
    assert_eq!(quarantined, bytes);
    cache::clear_memory();
    let revived = compile(Model::Network, options.clone());
    assert_eq!(revived.status, CacheStatus::Disk);

    // Truncation (a torn write survived somehow) takes the same path.
    let good = std::fs::read(&path).expect("rewritten artifact readable");
    std::fs::write(&path, &good[..good.len() / 3]).expect("truncate artifact");
    cache::clear_memory();
    let after_truncation = compile(Model::Network, options);
    assert_eq!(after_truncation.status, CacheStatus::Cold);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn memory_budget_evicts_least_recently_used() {
    let _guard = lock();
    cache::clear_memory();
    cache::set_memory_budget(None);

    // Two distinct models in memory: the RDL source and the generated
    // network hash to different keys.
    let a = compile(Model::RdlSource, SessionOptions::new(OptLevel::Full));
    let b = compile(Model::Network, SessionOptions::new(OptLevel::Full));
    let evictions_before = cache::stats().evictions;

    // A budget of exactly the newer artifact: fitting both is
    // impossible, so the LRU entry (the RDL model) is dropped, and
    // eviction stops right at the budget with the network model intact.
    cache::set_memory_budget(Some(b.artifact.approx_bytes()));
    assert!(cache::stats().evictions > evictions_before);
    let b_again = compile(Model::Network, SessionOptions::new(OptLevel::Full));
    assert_eq!(b_again.status, CacheStatus::Memory);
    assert!(Arc::ptr_eq(&b.artifact, &b_again.artifact));
    let a_again = compile(Model::RdlSource, SessionOptions::new(OptLevel::Full));
    assert_eq!(a_again.status, CacheStatus::Cold);
    assert!(!Arc::ptr_eq(&a.artifact, &a_again.artifact));

    cache::set_memory_budget(None);
}

#[test]
fn report_reproduces_table1_op_counts() {
    let _guard = lock();
    let compiled = compile(Model::Network, SessionOptions::new(OptLevel::Full));
    let report = &compiled.artifact.report;

    // Independently rerun the generator and optimizer (the pre-driver
    // pipeline) and compare the per-stage Table 1 operation counts.
    let m = generate_model(VulcanizationSpec {
        sites: 3,
        max_chain: 3,
        neighbourhood: 1,
    });
    let system =
        generate(&m.network, &m.rates, GenerateOptions { simplify: true }).expect("valid rates");
    let direct = optimize(&system, OptLevel::Full);
    assert_eq!(report.counts, direct.stages);

    // The report's identity fields and stage records line up as well.
    assert_eq!(report.species, m.network.species_count());
    assert_eq!(report.reactions, m.network.reaction_count());
    for stage in [Stage::OdeGen, Stage::Simplify, Stage::Cse, Stage::Lower] {
        assert!(report.stage(stage).is_some(), "missing {stage}");
    }
    assert!(report.total_seconds > 0.0);
}
