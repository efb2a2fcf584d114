//! Pinned digests of the Deriv stage's output for three models and the
//! two kinds of request: `deriv` alone (the RHS and `∂f/∂y` tapes and
//! their entry list) and `deriv + sensitivity` (those over a register
//! file shared with the `∂f/∂p` tail, the tail and both entry lists).
//! The digests were recorded at commit 47ec281, when a `deriv +
//! sensitivity` request still compiled the two groups separately and kept
//! both — so "the one group a request compiles now is, byte for byte, the
//! group of that kind the parent compiled" is a test, not a claim. (The
//! parent's `deriv`-only digests equal those recorded at e62d67f, before
//! the one-pass sparse forward gradient.) Any change that moves a
//! derivative expression's term order, a constant fold or a structural
//! zero shows up here (and in every disk-cache entry; bump
//! `serial::VERSION` then).
//!
//! What the deletion of the second group stands on is held here too: a
//! plain solve reads the same Jacobian values off either kind of group.

use std::fmt::Write;
use std::sync::Arc;

use rms_suite::{
    CacheMode, Compiled, CompiledArtifact, CompilerSession, EngineMode, OptLevel, SessionOptions,
    Stage, Tape, TapeSimulator,
};
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

fn session(deriv: bool, sensitivity: bool) -> CompilerSession {
    let mut options = SessionOptions::new(OptLevel::Full);
    options.deriv = deriv;
    options.sensitivity = sensitivity;
    options.cache = CacheMode::Bypass;
    CompilerSession::with_options(options)
}

/// `(instructions over the tapes, digest of their rendered text and the
/// entry lists)`.
fn digest(tapes: &[&Tape], lists: &[&[(u32, u32)]]) -> (usize, u64) {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for tape in tapes {
        write!(h, "{tape}").expect("hashing cannot fail");
    }
    for entries in lists {
        writeln!(h, "{entries:?}").expect("hashing cannot fail");
    }
    (tapes.iter().map(|t| t.instrs.len()).sum(), h.0)
}

/// What a `deriv`-only request pins: `(jacobian nonzeros, (instructions,
/// digest) of its two tapes and one list)`.
type DerivPin = (usize, (usize, u64));
/// What a `deriv + sensitivity` request pins: `(jacobian nonzeros, ∂f/∂p
/// nonzeros, (instructions, digest) of its three tapes and two lists)`.
type SensitivityPin = (usize, usize, (usize, u64));

/// Both requests of one model against their pins, and what makes the one
/// group enough: the sensitivity artifact's Jacobian view *is* the head
/// of its group, and a plain BDF trajectory over it is, to the bit, the
/// one over the `deriv`-only artifact.
fn assert_pinned(
    compile: impl Fn(&CompilerSession) -> Compiled,
    deriv: DerivPin,
    sensitivity: SensitivityPin,
) {
    let plain = compile(&session(true, false)).artifact;
    let jt = plain.jacobian.as_ref().expect("compiled with deriv");
    assert!(plain.sensitivity.is_none());
    let pinned = digest(&[&jt.rhs, &jt.jac], &[&jt.entries]);
    assert_eq!((jt.nnz(), pinned), deriv, "deriv");

    let both = compile(&session(true, true)).artifact;
    let st = both.sensitivity.as_ref().expect("compiled with the tail");
    let head = both.jacobian.as_ref().expect("sensitivity implies deriv");
    assert!(Arc::ptr_eq(head, &st.state), "one group, two views");
    let pinned = digest(
        &[&head.rhs, &head.jac, &st.dfdp],
        &[&head.entries, &st.dfdp_entries],
    );
    assert_eq!(
        (st.jac_nnz(), st.dfdp_nnz(), pinned),
        sensitivity,
        "deriv + sensitivity"
    );

    let trajectory = |artifact: &Arc<CompiledArtifact>| -> Vec<u64> {
        let simulator = TapeSimulator::with_engine(artifact, Vec::new(), EngineMode::Exec);
        let states = simulator
            .trajectory(&artifact.system.rate_values, 0, &[0.02, 0.05])
            .expect("short solve succeeds");
        states.iter().flatten().map(|v| v.to_bits()).collect()
    };
    assert!(
        trajectory(&plain) == trajectory(&both),
        "a plain trajectory depends on whether the group has a tail"
    );
}

#[test]
fn vulcanization_derivatives_are_pinned() {
    assert_pinned(
        |session| {
            session
                .compile_source("vulcanization.rdl", VULCANIZATION_RDL)
                .expect("bundled RDL model compiles")
        },
        (356, (990, 14_551_024_443_771_633_591)),
        (356, 115, (1_216, 13_980_100_361_056_717_439)),
    );
}

#[test]
fn scaled_case_4_derivatives_are_pinned() {
    assert_pinned(
        |session| {
            let model = scaled_case(4, 50);
            session
                .compile_network("scaled_case(4, 50)", model.network, model.rates)
                .expect("workload models always compile")
        },
        (37_591, (136_691, 17_900_230_275_685_695_390)),
        (37_591, 12_207, (162_120, 4_200_652_905_101_894_733)),
    );
}

#[test]
fn frontier_2000_derivatives_are_pinned() {
    let source = FrontierSpec::for_species(2_000).rdl_source();
    assert_pinned(
        |session| {
            session
                .compile_source("frontier", &source)
                .expect("generated RDL model compiles")
        },
        (8_625, (18_697, 5_775_982_171_437_701_477)),
        (8_625, 2_175, (22_416, 3_839_199_006_482_175_088)),
    );
}

/// Whatever a request asks of the Deriv stage, it differentiates, re-CSEs
/// and lowers the forest once — or, asked nothing, not at all — and
/// `sensitivity` alone brings the Jacobian with it.
#[test]
fn every_request_is_one_pass_over_the_forest() {
    for (deriv, sensitivity) in [(false, false), (true, false), (false, true), (true, true)] {
        let artifact = session(deriv, sensitivity)
            .compile_source("vulcanization.rdl", VULCANIZATION_RDL)
            .expect("bundled RDL model compiles")
            .artifact;
        let what = format!("deriv: {deriv}, sensitivity: {sensitivity}");
        assert_eq!(artifact.jacobian.is_some(), deriv || sensitivity, "{what}");
        assert_eq!(artifact.sensitivity.is_some(), sensitivity, "{what}");
        let passes = artifact.report.stage(Stage::Deriv).map(|record| {
            let metric = |name: &str| record.metrics.iter().find(|(k, _)| k == name);
            metric("passes").expect("the stage counts its passes").1
        });
        let expected = (deriv || sensitivity).then_some(1.0);
        assert_eq!(passes, expected, "{what}");
    }
}
