//! Pinned digests of what `rmsc simulate` prints: both bundled models
//! under every engine, 8 tables at the default `--tend` and `--steps`.
//! The digests were recorded while `rmsc simulate` still ran its own BDF
//! solve beside the `TapeSimulator` every other path uses, and while it
//! still took a Jacobian source and a linear solver on the command line —
//! every one of which printed these tables — so "the command solves
//! through the one simulator and configures the solve itself" is a test,
//! not a claim.
//!
//! Rows that need a C toolchain (`native`, and `auto`, which picks native
//! when it can) are skipped — visibly, on stderr — without one. Where the
//! build contracts multiply-adds (`FMA_CONTRACTS`), the exec engine may
//! round differently from the interpreter the digests agree with, so its
//! rows (and `auto`'s) are skipped too.

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

const ENGINES: [&str; 4] = ["interp", "exec", "native", "auto"];

/// One model's digests, one per engine in the order of `ENGINES`.
type Pins = [u64; 4];

/// Run `rmsc simulate` on `model` on every engine and compare each
/// table's digest with its pin. On a mismatch the message carries every
/// digest this build printed, laid out as the pin table.
fn assert_pinned(model: &str, pins: &Pins) {
    let path = format!("{}/../../models/{model}", env!("CARGO_MANIFEST_DIR"));
    let toolchain = probe_toolchain().map_err(|e| e.to_string());
    let mut got = [0u64; 4];
    let mut mismatches = Vec::new();
    for (e, engine) in ENGINES.iter().enumerate() {
        let skip = match (*engine, &toolchain) {
            ("native" | "auto", Err(why)) => Some(format!("no C toolchain: {why}")),
            ("exec" | "auto", _) if FMA_CONTRACTS => Some("the build contracts FMAs".into()),
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

// On both models interp, exec and native print one table. `auto` prints
// it under a line naming its pick, whose reason counts the loop regions
// of the kernel the compile built — on vulcanization.rdl the Jacobian,
// which `rmsc simulate` always compiles, is in it.

#[test]
fn vulcanization_tables_are_pinned() {
    const TABLE: u64 = 15_936_071_455_610_601_300;
    const AUTO: u64 = 13_011_395_361_108_600_092;
    assert_pinned("vulcanization.rdl", &[TABLE, TABLE, TABLE, AUTO]);
}

#[test]
fn quickstart_tables_are_pinned() {
    const TABLE: u64 = 14_514_943_634_184_189_247;
    const AUTO: u64 = 6_585_346_466_659_616_214;
    assert_pinned("quickstart.rdl", &[TABLE, TABLE, TABLE, AUTO]);
}
