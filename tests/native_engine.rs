//! Differential tests for the native codegen engine: the `dlopen`ed
//! kernel must reproduce the exec and interp trajectories across both
//! workload families and every optimization level, the `.so` cache must
//! quarantine corrupt or stale objects exactly like the serialized
//! artifact cache, and `rmsc compile --emit c` must print the kernel
//! source the Codegen stage actually compiles.
//!
//! Tests that need a C compiler probe for one first and skip — visibly,
//! on stderr — when the host has none.

use std::process::Command;
use std::sync::{Arc, Mutex};

use rms_driver::codegen::emit_native_c;
use rms_suite::workload::{generate_model, VulcanizationSpec, VULCANIZATION_RDL};
use rms_suite::{
    probe_toolchain, CompiledArtifact, CompilerSession, EngineMode, OptLevel, SessionOptions,
    TapeSimulator,
};

/// The in-memory artifact cache is process-wide; serialize the tests in
/// this binary so a `clear_memory` cannot race another test's hit.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    CACHE_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

const LEVELS: [OptLevel; 4] = [
    OptLevel::None,
    OptLevel::Simplify,
    OptLevel::Algebraic,
    OptLevel::Full,
];

#[derive(Clone, Copy)]
enum Family {
    RdlSource,
    Network,
}

/// Compile one workload family with the Codegen stage enabled, caching
/// into `dir` so the test controls (and cleans up) the `.so` location.
fn compile_native(family: Family, level: OptLevel, dir: &std::path::Path) -> Arc<CompiledArtifact> {
    let mut options = SessionOptions::new(level);
    options.native = true;
    options.cache_dir = Some(dir.to_path_buf());
    let session = CompilerSession::with_options(options);
    let compiled = match family {
        Family::RdlSource => session
            .compile_source("vulcanization.rdl", VULCANIZATION_RDL)
            .expect("rdl model compiles"),
        Family::Network => {
            let m = generate_model(VulcanizationSpec {
                sites: 3,
                max_chain: 3,
                neighbourhood: 1,
            });
            session
                .compile_network("vulcanization-small", m.network, m.rates)
                .expect("network model compiles")
        }
    };
    compiled.artifact
}

fn trajectory(artifact: &Arc<CompiledArtifact>, engine: EngineMode) -> Vec<Vec<f64>> {
    let simulator = TapeSimulator::with_engine(artifact, Vec::new(), engine);
    simulator
        .trajectory(&artifact.system.rate_values, 0, &[0.02, 0.05, 0.1])
        .expect("short solve succeeds")
}

/// Largest norm-relative deviation between two trajectories.
fn deviation(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
    let mut worst: f64 = 0.0;
    for (ra, rb) in a.iter().zip(b) {
        let norm = ra.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (x, z) in ra.iter().zip(rb) {
            worst = worst.max((x - z).abs() / norm);
        }
    }
    worst
}

#[test]
fn native_trajectories_match_exec_and_interp_at_every_level() {
    let _guard = lock();
    if let Err(e) = probe_toolchain() {
        eprintln!("SKIP: native differential test: {e}");
        return;
    }
    let dir = std::env::temp_dir().join(format!("rms-native-diff-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for family in [Family::RdlSource, Family::Network] {
        for level in LEVELS {
            let artifact = compile_native(family, level, &dir);
            assert!(
                artifact.native.is_some(),
                "{level}: codegen produced no kernel: {:?}",
                artifact.native_diag
            );
            let native = trajectory(&artifact, EngineMode::Native);
            let exec = trajectory(&artifact, EngineMode::Exec);
            let interp = trajectory(&artifact, EngineMode::Interp);
            // The kernel replays the tape's exact rounding sequence and is
            // compiled with -ffp-contract=off, so agreement is bitwise on
            // contract-honoring toolchains; the bound only allows slack
            // for compilers that contract to FMA regardless.
            let d = deviation(&native, &exec);
            assert!(d <= 1e-12, "{level}: native vs exec deviates by {d:e}");
            let d = deviation(&native, &interp);
            assert!(d <= 1e-12, "{level}: native vs interp deviates by {d:e}");
            // Auto resolves to one of the engines above (a kernel is
            // attached, so exec or native depending on size/shape) and
            // must land inside the same envelope.
            let auto = trajectory(&artifact, EngineMode::Auto);
            let d = deviation(&auto, &exec);
            assert!(d <= 1e-12, "{level}: auto vs exec deviates by {d:e}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `.so` files currently under `dir`.
fn so_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut found: Vec<_> = std::fs::read_dir(dir)
        .expect("cache dir exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "so"))
        .collect();
    found.sort();
    found
}

/// Quarantine must be observed from a *fresh* process: `dlopen` caches
/// loaded libraries by path, so within one process a replaced `.so` file
/// is invisible while the original mapping is alive (content addressing
/// makes that benign — only out-of-band tampering can change the bytes
/// under a key). Each step therefore runs the real `rmsc` binary.
#[test]
fn corrupt_and_stale_kernels_quarantine_and_rebuild() {
    if let Err(e) = probe_toolchain() {
        eprintln!("SKIP: native quarantine test: {e}");
        return;
    }
    let dir = std::env::temp_dir().join(format!("rms-native-quarantine-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let rdl = dir.join("vulcanization.rdl");
    std::fs::write(&rdl, VULCANIZATION_RDL).expect("fixture written");
    let cache_dir = dir.join("cache");

    let simulate = |source: &std::path::Path| {
        let out = Command::new(env!("CARGO_BIN_EXE_rmsc"))
            .args([
                "simulate",
                &source.display().to_string(),
                "--engine",
                "native",
                "--cache-dir",
                &cache_dir.display().to_string(),
                "--tend",
                "0.05",
                "--steps",
                "2",
            ])
            .output()
            .expect("rmsc runs");
        assert_eq!(
            out.status.code(),
            Some(0),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("stdout is utf-8")
    };

    let first = simulate(&rdl);
    assert!(
        !first.contains("warning:"),
        "expected a working kernel on the first run:\n{first}"
    );
    let so = match so_files(&cache_dir).as_slice() {
        [one] => one.clone(),
        other => panic!("expected exactly one kernel object, found {other:?}"),
    };

    // Corrupt object: the fresh process fails to dlopen it, moves the
    // bytes aside, and rebuilds — same trajectory, no warning, exit 0.
    std::fs::write(&so, b"not an ELF object").expect("corrupt the kernel");
    let second = simulate(&rdl);
    assert_eq!(first, second, "rebuilt kernel reproduces the trajectory");
    assert_eq!(
        std::fs::read(format!("{}.corrupt", so.display())).expect("quarantined image"),
        b"not an ELF object"
    );
    assert!(so.exists(), "kernel object rebuilt after quarantine");

    // Stale object: a structurally valid kernel for a *different* model
    // at this key's path fails fingerprint validation and takes the same
    // quarantine-and-rebuild path.
    let salted = dir.join("salted.rdl");
    std::fs::write(
        &salted,
        format!("{VULCANIZATION_RDL}\nrate K_salt_stale = 977;\n"),
    )
    .expect("salted fixture written");
    let _ = simulate(&salted);
    let other = so_files(&cache_dir)
        .into_iter()
        .find(|p| *p != so)
        .expect("salted model compiled its own kernel");
    std::fs::copy(&other, &so).expect("plant a stale kernel");
    let third = simulate(&rdl);
    assert_eq!(first, third, "stale kernel was rejected and rebuilt");
    let quarantined = std::fs::read(format!("{}.corrupt", so.display())).expect("stale image");
    assert_eq!(
        quarantined,
        std::fs::read(&other).expect("other kernel readable")
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn emit_c_prints_the_kernel_source() {
    let dir = std::env::temp_dir().join(format!("rms-native-emit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("vulcanization.rdl");
    std::fs::write(&path, VULCANIZATION_RDL).expect("fixture written");

    let out = Command::new(env!("CARGO_BIN_EXE_rmsc"))
        .args(["compile", &path.display().to_string(), "--emit", "c"])
        .output()
        .expect("rmsc runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let source = String::from_utf8(out.stdout).expect("stdout is utf-8");

    // Golden structure of the rendered kernel: identity header, ABI
    // metadata, the scalar/Jacobian/sensitivity/batched entry points, and
    // round-trippable hex float literals.
    assert!(
        source.starts_with("/* generated by the Reaction Modeling Suite chemical compiler */\n")
    );
    assert!(source.contains("vulcanization.rdl */"));
    assert!(source.contains("/* fingerprint: "));
    assert!(source.contains("-ffp-contract=off"));
    for needle in [
        "const unsigned long long rms_key[2]",
        "const int rms_abi_version",
        "const int rms_n_species",
        "const long long rms_jac_nnz",
        "void ode_rhs(const double* restrict k, const double* restrict y",
        "void ode_jac(const double* restrict k, const double* restrict y",
        "void ode_sens(const double* restrict k, const double* restrict y",
        "void ode_rhs_batch(const double* restrict k, const double* restrict ys",
        "ode_rhs_lanes",
        "vector_size(64)",
    ] {
        assert!(
            source.contains(needle),
            "missing {needle:?} in emitted source"
        );
    }
    // (Non-integral constants render as C99 hex floats; the exact
    // round-trip property, including negative zero and subnormals, is
    // covered by the emit_c unit tests.)

    // The library renders the same source the CLI prints (the derivative
    // tapes are derived on demand by `emit_native_c`, so the plain
    // default compile matches the CLI's).
    let session = CompilerSession::with_options(SessionOptions::new(OptLevel::Full));
    let compiled = session
        .compile_source(&path.display().to_string(), VULCANIZATION_RDL)
        .expect("rdl model compiles");
    let lib_source = emit_native_c(&compiled.artifact);
    assert_eq!(source, lib_source);

    let _ = std::fs::remove_dir_all(&dir);
}

/// `emit_native_c` (what `rmsc compile --emit c` prints) and the Codegen
/// stage render through one function: for an artifact that carries both
/// derivative groups, the library's text is the file the stage left
/// beside the object it compiled.
#[test]
fn emit_native_c_is_the_source_the_codegen_stage_compiled() {
    let _guard = lock();
    if let Err(e) = probe_toolchain() {
        eprintln!("SKIP: emit-vs-codegen source test: {e}");
        return;
    }
    let dir = std::env::temp_dir().join(format!("rms-native-emit-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut options = SessionOptions::new(OptLevel::Full);
    options.native = true;
    options.deriv = true;
    options.sensitivity = true;
    options.cache_dir = Some(dir.clone());
    let artifact = CompilerSession::with_options(options)
        .compile_source("vulcanization.rdl", VULCANIZATION_RDL)
        .expect("rdl model compiles")
        .artifact;
    assert!(
        artifact.native.is_some(),
        "codegen produced no kernel: {:?}",
        artifact.native_diag
    );
    let on_disk = std::fs::read_to_string(dir.join(format!("{:032x}.so.c", artifact.key)))
        .expect("the Codegen stage keeps its source beside the object");
    assert!(on_disk.contains("void ode_sens("));
    assert_eq!(emit_native_c(&artifact), on_disk);

    let _ = std::fs::remove_dir_all(&dir);
}
