//! Graceful degradation when no C compiler is available: `--engine
//! native` must finish the simulation on the exec engine with a rendered
//! warning and exit code 0 — never a hard failure.
//!
//! This lives in its own test binary because it mutates `$CC` (passed to
//! the spawned `rmsc`, and set process-wide for the library half), which
//! must not race the differential tests that probe for a real toolchain.

use std::process::Command;

use rms_suite::workload::VULCANIZATION_RDL;
use rms_suite::{CompilerSession, OptLevel, SessionOptions, TapeSimulator};

/// An environment in which the toolchain probe cannot succeed: `$CC`
/// points at a path that does not exist, and an explicit `$CC` is tried
/// *exclusively* (never silently replaced by `cc` from `$PATH`).
const BROKEN_CC: &str = "/nonexistent/rms-no-such-compiler";

#[test]
fn simulate_with_native_engine_falls_back_to_exec_without_a_toolchain() {
    let dir = std::env::temp_dir().join(format!("rms-native-fallback-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("vulcanization.rdl");
    std::fs::write(&path, VULCANIZATION_RDL).expect("fixture written");

    let out = Command::new(env!("CARGO_BIN_EXE_rmsc"))
        .args([
            "simulate",
            &path.display().to_string(),
            "--engine",
            "native",
            "--tend",
            "0.05",
            "--steps",
            "2",
        ])
        .env("CC", BROKEN_CC)
        .output()
        .expect("rmsc runs");
    let stdout = String::from_utf8(out.stdout).expect("stdout is utf-8");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("warning: native engine unavailable:"),
        "missing diagnostic in:\n{stdout}"
    );
    assert!(
        stdout.contains("warning: falling back to the exec engine"),
        "missing fallback notice in:\n{stdout}"
    );
    // The simulation itself still ran to completion: a header row plus
    // one line per requested step.
    assert!(
        stdout.lines().any(|l| l.trim_start().starts_with('t')),
        "no trajectory header in:\n{stdout}"
    );
    assert!(
        stdout.lines().any(|l| l.trim_start().starts_with("0.05")),
        "no trajectory rows in:\n{stdout}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn library_native_request_degrades_to_exec_with_a_diagnostic() {
    // Process-wide, but this binary runs no test that needs a real
    // toolchain.
    std::env::set_var("CC", BROKEN_CC);

    let mut options = SessionOptions::new(OptLevel::Full);
    options.native = true;
    let compiled = CompilerSession::with_options(options)
        .compile_source("vulcanization.rdl", VULCANIZATION_RDL)
        .expect("codegen failure must not fail the compile");
    let artifact = compiled.artifact;
    assert!(artifact.native.is_none());
    let diag = artifact
        .native_diag
        .as_deref()
        .expect("diagnostic recorded");
    assert!(
        diag.contains(BROKEN_CC),
        "diagnostic names the compiler: {diag}"
    );

    // The artifact still solves — on the exec engine.
    assert_eq!(artifact.kernel().engine, "exec");
    let simulator = TapeSimulator::from_artifact(&artifact, Vec::new());
    let states = simulator.trajectory(&artifact.system.rate_values, 0, &[0.02, 0.05]);
    assert_eq!(states.expect("a native request solves on exec").len(), 2);
}
