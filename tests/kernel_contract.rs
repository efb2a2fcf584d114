//! The `Kernel` contract, checked on every implementation against the
//! tape interpreter: right-hand side (scalar and batched), the Jacobian,
//! and `∂f/∂p` on its resume path and off it — and, through the one
//! `TapeSimulator` every solve path shares, the trajectories each engine
//! integrates to.

use std::sync::Arc;

use rms_suite::workload::{generate_model, VulcanizationSpec, VULCANIZATION_RDL};
use rms_suite::{
    probe_toolchain, solve_bdf_with_jacobian, BoundKernel, CompiledArtifact, CompilerSession,
    EngineMode, JacobianSource, Kernel, KernelScratch, OptLevel, SessionOptions, Simulator,
    TapeSimulator, FMA_CONTRACTS,
};

const MODES: [EngineMode; 4] = [
    EngineMode::Interp,
    EngineMode::Exec,
    EngineMode::Native,
    EngineMode::Auto,
];

/// Both workload families with the derivative group and its tail — and
/// a native kernel when this machine has a C toolchain (without one the
/// native contract is skipped, as in `tests/native_engine.rs`, and the
/// selection contract covers the degradation instead).
fn artifacts(dir: &std::path::Path) -> Vec<(&'static str, Arc<CompiledArtifact>)> {
    let mut options = SessionOptions::new(OptLevel::Full);
    options.deriv = true;
    options.sensitivity = true;
    options.cache_dir = Some(dir.to_path_buf());
    match probe_toolchain() {
        Ok(_) => options.native = true,
        Err(e) => eprintln!("SKIP: native kernel contract: {e}"),
    }
    let session = CompilerSession::with_options(options);
    let m = generate_model(VulcanizationSpec {
        sites: 3,
        max_chain: 3,
        neighbourhood: 1,
    });
    vec![
        (
            "rdl",
            session
                .compile_source("vulcanization.rdl", VULCANIZATION_RDL)
                .expect("rdl model compiles")
                .artifact,
        ),
        (
            "network",
            session
                .compile_network("vulcanization-small", m.network, m.rates)
                .expect("network model compiles")
                .artifact,
        ),
    ]
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rms-kernel-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Strictly positive states, different per `seed`.
fn state(n: usize, seed: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 0.2 + 0.05 * ((i + 3 * seed) % 7) as f64 + 0.01 * seed as f64)
        .collect()
}

/// Bit-equal where the build does not contract multiply-adds; within
/// contraction drift otherwise.
fn assert_same(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    if !FMA_CONTRACTS {
        assert_eq!(got, want, "{what}");
        return;
    }
    for (g, w) in got.iter().zip(want) {
        assert!(
            (g - w).abs() <= 1e-12 * w.abs().max(1.0),
            "{what}: {g} vs {w}"
        );
    }
}

/// Everything one kernel computes at the probe states, each `∂f/∂p`
/// labelled by the path that produced it.
#[derive(Default)]
struct Outputs {
    rhs: Vec<Vec<f64>>,
    /// `rhs_batch` over 1, 7, 8 and 9 stacked states (below, at and past
    /// the exec engine's lane count).
    batches: Vec<Vec<f64>>,
    /// `(ydot, values)` of `rhs_jac`.
    jac: (Vec<f64>, Vec<f64>),
    dfdp_resumed: Vec<f64>,
    dfdp_elsewhere: Vec<f64>,
    dfdp_resumed_elsewhere: Vec<f64>,
    dfdp_cold: Vec<f64>,
}

fn evaluate(kernel: &dyn Kernel, rates: &[f64]) -> Outputs {
    let n = kernel.n_species();
    let mut out = Outputs::default();
    let mut scratch = KernelScratch::default();
    for seed in 0..3 {
        let mut ydot = vec![0.0; n];
        kernel.rhs(rates, &state(n, seed), &mut ydot, &mut scratch);
        out.rhs.push(ydot);
    }
    for count in [1, 7, 8, 9] {
        let ys: Vec<f64> = (0..count).flat_map(|s| state(n, s)).collect();
        let mut ydots = vec![0.0; ys.len()];
        kernel.rhs_batch(rates, &ys, &mut ydots, &mut scratch);
        out.batches.push(ydots);
    }
    let (here, there) = (state(n, 1), state(n, 2));
    let nnz_jac = kernel.jac_entries().expect("group compiled").len();
    out.jac = (vec![0.0; n], vec![0.0; nnz_jac]);
    kernel.rhs_jac(rates, &here, &mut out.jac.0, &mut out.jac.1, &mut scratch);
    // The scratch now holds the group's registers at `here`: the first
    // request resumes over them, the second cannot.
    let nnz = kernel.dfdp_entries().expect("sensitivity compiled").len();
    out.dfdp_resumed = vec![0.0; nnz];
    kernel.dfdp(rates, &here, &mut out.dfdp_resumed, &mut scratch);
    // A right-hand side in between must not disturb those registers.
    kernel.rhs(rates, &there, &mut vec![0.0; n], &mut scratch);
    out.dfdp_elsewhere = vec![0.0; nnz];
    kernel.dfdp(rates, &there, &mut out.dfdp_elsewhere, &mut scratch);
    // Any Jacobian refresh is resumable — a plain solve's and an
    // augmented one's are the same call.
    let (mut ydot, mut vals) = (vec![0.0; n], vec![0.0; nnz_jac]);
    kernel.rhs_jac(rates, &there, &mut ydot, &mut vals, &mut scratch);
    out.dfdp_resumed_elsewhere = vec![0.0; nnz];
    kernel.dfdp(rates, &there, &mut out.dfdp_resumed_elsewhere, &mut scratch);
    // And with nothing to resume over at all.
    out.dfdp_cold = vec![0.0; nnz];
    kernel.dfdp(
        rates,
        &here,
        &mut out.dfdp_cold,
        &mut KernelScratch::default(),
    );
    out
}

#[test]
fn every_kernel_matches_the_interpreter() {
    let dir = temp_dir("contract");
    for (label, artifact) in artifacts(&dir) {
        let rates = &artifact.system.rate_values;
        let n = artifact.system.len();
        let oracle = evaluate(&*artifact.kernel(EngineMode::Interp).kernel, rates);
        // The oracle itself: batches are the scalar RHS stacked, and the
        // resumed `∂f/∂p` is the cold one.
        for (batch, count) in oracle.batches.iter().zip([1, 7, 8, 9]) {
            for s in 0..count.min(3) {
                assert_same(&batch[s * n..(s + 1) * n], &oracle.rhs[s], label);
            }
        }
        assert_eq!(oracle.dfdp_resumed, oracle.dfdp_cold, "{label}: resume");
        assert_eq!(
            oracle.dfdp_resumed_elsewhere, oracle.dfdp_elsewhere,
            "{label}: resume after a second refresh"
        );
        assert_ne!(
            oracle.dfdp_resumed, oracle.dfdp_elsewhere,
            "{label}: vacuous"
        );

        for mode in [EngineMode::Exec, EngineMode::Native] {
            let choice = artifact.kernel(mode);
            if choice.degraded {
                continue;
            }
            assert_eq!(
                (choice.kernel.n_species(), choice.kernel.n_rates()),
                (n, rates.len())
            );
            let got = evaluate(&*choice.kernel, rates);
            let what = |part: &str| format!("{label}/{mode}: {part}");
            for (g, w) in got.rhs.iter().zip(&oracle.rhs) {
                assert_same(g, w, &what("rhs"));
            }
            for (g, w) in got.batches.iter().zip(&oracle.batches) {
                assert_same(g, w, &what("rhs_batch"));
            }
            assert_same(&got.jac.0, &oracle.jac.0, &what("rhs_jac ydot"));
            assert_same(&got.jac.1, &oracle.jac.1, &what("rhs_jac values"));
            assert_same(
                &got.dfdp_resumed,
                &oracle.dfdp_resumed,
                &what("dfdp resumed"),
            );
            assert_same(
                &got.dfdp_elsewhere,
                &oracle.dfdp_elsewhere,
                &what("dfdp elsewhere"),
            );
            assert_same(
                &got.dfdp_resumed_elsewhere,
                &oracle.dfdp_resumed_elsewhere,
                &what("dfdp resumed elsewhere"),
            );
            assert_same(&got.dfdp_cold, &oracle.dfdp_cold, &what("dfdp cold"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every engine integrates to the interpreter's numbers: a plain solve
/// under each Jacobian source and the sensitivity-augmented one. Read
/// whole (`trajectory`, what `rmsc simulate` prints) or measured
/// (`simulate`, what a fit or a served job sees), the simulator's plain
/// solve is the same solve, to the bit; the finite-difference sources,
/// which no artifact with tapes selects, run through the solver.
#[test]
fn every_engine_integrates_like_the_interpreter() {
    let dir = temp_dir("select");
    let times = [0.05, 0.2, 0.5];
    for (label, artifact) in artifacts(&dir) {
        let rates = &artifact.system.rate_values;
        let observable: Vec<f64> = (0..artifact.system.len())
            .map(|i| 0.5 + 0.1 * (i % 5) as f64)
            .collect();
        // What the interpreter integrates to, per Jacobian source, and its
        // sensitivity-augmented solve: every other engine must land there.
        let mut oracle = Vec::new();
        for mode in MODES {
            let sim = TapeSimulator::with_engine(&artifact, observable.clone(), mode);
            let engine = sim.engine_choice().engine;
            assert_ne!(engine, EngineMode::Auto, "{label}/{mode}");
            if engine != mode {
                continue; // auto and degraded requests run one of the above
            }
            let observed = sim.simulate(rates, 0, &times).expect("measured solve");
            let states = sim.trajectory(rates, 0, &times).expect("whole-state solve");
            let measured: Vec<f64> = states.iter().map(|y| sim.measure(y)).collect();
            assert_eq!(observed, measured, "{label}/{mode}");
            let mut got = vec![observed];
            let choice = sim.engine_choice();
            let bound = BoundKernel::new(choice, rates);
            for source in [
                JacobianSource::FdColored(choice.patterns.fd()),
                JacobianSource::FdDense,
            ] {
                let y0 = &artifact.system.initial;
                let (states, _) =
                    solve_bdf_with_jacobian(&bound, 0.0, y0, &times, sim.options, source)
                        .expect("finite-difference solve");
                got.push(states.iter().map(|y| sim.measure(y)).collect());
            }
            let (values, sens) = sim
                .simulate_with_sensitivities(rates, 0, &times)
                .expect("augmented solve");
            got.push(values);
            got.extend(sens);
            if oracle.is_empty() {
                oracle = got;
                continue;
            }
            for (g, w) in got.iter().zip(&oracle) {
                assert_same(g, w, &format!("{label}/{mode} vs interp"));
            }
            assert_eq!(sim.fallback_stats(), Default::default(), "{label}/{mode}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `auto` on an artifact compiled without the Codegen stage is the exec
/// engine — selected, not degraded — and runs as such.
#[test]
fn auto_without_a_kernel_is_the_exec_engine() {
    let m = generate_model(VulcanizationSpec {
        sites: 3,
        max_chain: 3,
        neighbourhood: 1,
    });
    let artifact = CompilerSession::new(OptLevel::Full)
        .compile_network("vulcanization-small", m.network, m.rates)
        .expect("network model compiles")
        .artifact;
    let choice = artifact.kernel(EngineMode::Auto);
    assert_eq!(choice.engine, EngineMode::Exec);
    assert!(
        choice.reason.contains("no native kernel"),
        "{}",
        choice.reason
    );
    assert!(!choice.degraded);
    assert!(Arc::ptr_eq(
        &choice.kernel,
        &artifact.kernel(EngineMode::Exec).kernel
    ));
    let native = artifact.kernel(EngineMode::Native);
    assert!(native.degraded && native.engine == EngineMode::Exec);
    assert!(
        native.reason.starts_with("native engine unavailable"),
        "{}",
        native.reason
    );
    // Auto must dispatch (to exec) rather than panic.
    let weights = vec![1.0; artifact.system.len()];
    let rates = &artifact.system.rate_values;
    let auto = TapeSimulator::with_engine(&artifact, weights.clone(), EngineMode::Auto);
    let exec = TapeSimulator::from_artifact(&artifact, weights);
    assert_eq!(
        auto.simulate(rates, 0, &[0.5]).expect("auto solve"),
        exec.simulate(rates, 0, &[0.5]).expect("exec solve")
    );
}
