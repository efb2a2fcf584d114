//! Pinned digests of the Deriv stage's output: the five derivative-group
//! tapes (the Jacobian group's RHS and `∂f/∂y`; the sensitivity group's
//! RHS, `∂f/∂y` and `∂f/∂p`) and the three entry lists for three models,
//! compiled through `CompilerSession` with `deriv` and `sensitivity` on.
//! The digests were recorded at commit e62d67f, *before* the per-variable
//! tree walkers in `rms_core::deriv` were replaced by the one-pass sparse
//! forward gradient — so "the new differentiator emits the same bytes"
//! is a test, not a claim. Any change that moves a derivative
//! expression's term order, a constant fold or a structural zero shows
//! up here (and in every disk-cache entry; bump `serial::VERSION` then).

use std::fmt::Write;

use rms_suite::{CompilerSession, OptLevel, SessionOptions};
use rms_workload::{scaled_case, FrontierSpec, VULCANIZATION_RDL};

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

fn session() -> CompilerSession {
    let mut options = SessionOptions::new(OptLevel::Full);
    options.deriv = true;
    options.sensitivity = true;
    CompilerSession::with_options(options)
}

/// `(jacobian nonzeros, ∂f/∂p nonzeros, instructions over the five
/// tapes, digest of their rendered text and the entry lists)`.
fn pinned(artifact: &rms_suite::CompiledArtifact) -> (usize, usize, usize, u64) {
    let jt = artifact.jacobian.as_ref().expect("compiled with deriv");
    let st = artifact
        .sensitivity
        .as_ref()
        .expect("compiled with sensitivity");
    let tapes = [&jt.rhs, &jt.jac, &st.rhs, &st.jac, &st.dfdp];
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for tape in tapes {
        write!(h, "{tape}").expect("hashing cannot fail");
    }
    for entries in [&jt.entries, &st.jac_entries, &st.dfdp_entries] {
        writeln!(h, "{entries:?}").expect("hashing cannot fail");
    }
    (
        jt.entries.len(),
        st.dfdp_entries.len(),
        tapes.iter().map(|t| t.instrs.len()).sum(),
        h.0,
    )
}

#[test]
fn vulcanization_derivatives_are_pinned() {
    let compiled = session()
        .compile_source("vulcanization.rdl", VULCANIZATION_RDL)
        .expect("bundled RDL model compiles");
    assert_eq!(
        pinned(&compiled.artifact),
        (356, 115, 2_206, 6_868_258_759_539_643_537)
    );
}

#[test]
fn scaled_case_4_derivatives_are_pinned() {
    let model = scaled_case(4, 50);
    let compiled = session()
        .compile_network("scaled_case(4, 50)", model.network, model.rates)
        .expect("workload models always compile");
    assert_eq!(
        pinned(&compiled.artifact),
        (37_591, 12_207, 298_811, 10_838_681_370_296_352_814)
    );
}

#[test]
fn frontier_2000_derivatives_are_pinned() {
    let compiled = session()
        .compile_source("frontier", &FrontierSpec::for_species(2_000).rdl_source())
        .expect("generated RDL model compiles");
    assert_eq!(
        pinned(&compiled.artifact),
        (8_625, 2_175, 41_113, 9_832_376_627_168_275_608)
    );
}
