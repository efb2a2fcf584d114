//! Pinned digests of what `rmsc simulate` prints: both bundled models
//! under `--engine exec` and `--engine native`, 4 tables at the default
//! `--tend` and `--steps`. The digests were recorded while `rmsc
//! simulate` still ran its own BDF solve beside the `TapeSimulator` every
//! other path uses, while it still took a Jacobian source and a linear
//! solver on the command line, and while `--engine` still offered the
//! interpreter and an `auto` pick — every one of which printed these
//! tables — so "the command solves through the one simulator, configures
//! the solve itself and runs the artifact's kernel" is a test, not a
//! claim.
//!
//! The `native` rows are skipped — visibly, on stderr — without a C
//! toolchain. Where the build contracts multiply-adds (`FMA_CONTRACTS`),
//! the exec engine may round differently from the interpreter the digests
//! agree with, so its rows are skipped too.

use std::fmt::Write;

use rms_suite::cli::{parse_args, run};
use rms_suite::{probe_toolchain, FMA_CONTRACTS};

/// FNV-1a, streamed (a fixed function, unlike `DefaultHasher`, whose
/// algorithm the standard library may change).
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
        Ok(())
    }
}

fn fnv(text: &str) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.write_str(text).expect("hashing cannot fail");
    h.0
}

const ENGINES: [&str; 2] = ["exec", "native"];

/// One model's digests, one per engine in the order of `ENGINES`.
type Pins = [u64; 2];

/// Run `rmsc simulate` on `model` on every engine and compare each
/// table's digest with its pin. On a mismatch the message carries every
/// digest this build printed, laid out as the pin table.
fn assert_pinned(model: &str, pins: &Pins) {
    let path = format!("{}/../../models/{model}", env!("CARGO_MANIFEST_DIR"));
    let toolchain = probe_toolchain().map_err(|e| e.to_string());
    let mut got = [0u64; 2];
    let mut mismatches = Vec::new();
    for (e, engine) in ENGINES.iter().enumerate() {
        let skip = match (*engine, &toolchain) {
            ("native", Err(why)) => Some(format!("no C toolchain: {why}")),
            ("exec", _) if FMA_CONTRACTS => Some("the build contracts FMAs".into()),
            _ => None,
        };
        if let Some(why) = skip {
            eprintln!("SKIP: {model} --engine {engine}: {why}");
            continue;
        }
        let args: Vec<String> = ["simulate", &path, "--engine", engine]
            .map(String::from)
            .into();
        let command = parse_args(&args).expect("a declared invocation");
        let table = run(&command).unwrap_or_else(|e| panic!("{args:?}: {e}"));
        got[e] = fnv(&table);
        if got[e] != pins[e] {
            mismatches.push(engine);
        }
    }
    assert!(
        mismatches.is_empty(),
        "{model}: tables moved at {mismatches:?}; this build prints\n{got:#?}"
    );
}

// On both models exec and native print one table.

#[test]
fn vulcanization_tables_are_pinned() {
    const TABLE: u64 = 15_936_071_455_610_601_300;
    assert_pinned("vulcanization.rdl", &[TABLE, TABLE]);
}

#[test]
fn quickstart_tables_are_pinned() {
    const TABLE: u64 = 14_514_943_634_184_189_247;
    assert_pinned("quickstart.rdl", &[TABLE, TABLE]);
}
