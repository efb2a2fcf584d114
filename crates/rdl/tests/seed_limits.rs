//! Variant expansion and seeds obey the limits a program declares: a
//! `for n in lo..hi` range or a seed past `limit atoms` / `limit species`
//! ends in its diagnostic at once, however large — not in an expansion
//! that runs the process out of memory, or in a closure that never ends.

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rms_rdl::{compile, parse_rdl, RdlError};

const QUICKSTART: &str = include_str!("../../../models/quickstart.rdl");

/// What every case here must come back within.
const BOUND: Duration = Duration::from_secs(1);

/// Parse, expand and close `source`, timed.
fn compile_timed(source: &str) -> (Result<usize, RdlError>, Duration) {
    let started = Instant::now();
    let result = parse_rdl(source).and_then(|program| compile(&program));
    let species = result.map(|model| model.network.species_count());
    (species, started.elapsed())
}

/// `source` is refused for `molecule` within [`BOUND`]; the message.
fn assert_refused(source: &str, molecule: &str) -> String {
    let (result, elapsed) = compile_timed(source);
    assert!(elapsed < BOUND, "{molecule}: refused after {elapsed:?}");
    match result {
        Err(RdlError::SeedLimit {
            molecule: named,
            message,
        }) => {
            assert_eq!(named, molecule);
            message
        }
        other => panic!("{molecule}: {other:?}"),
    }
}

/// `models/quickstart.rdl` with its `PolyS` range replaced.
fn quickstart_with_range(range: &str) -> String {
    let source = QUICKSTART.replace("for n in 2..4", &format!("for n in {range}"));
    assert_ne!(source, QUICKSTART, "the model declares PolyS over 2..4");
    source
}

/// The ranges that ran `rmsc compile` out of memory or time before the
/// limits bounded seeds (quickstart.rdl declares `limit atoms 12`).
#[test]
fn oversized_ranges_are_refused_before_expansion() {
    for range in [
        "2..100000",
        "2..1000000",
        "1000000..1000001",
        "10000000..10000001",
        "2..4000000000",
    ] {
        let message = assert_refused(&quickstart_with_range(range), "PolyS");
        assert!(message.contains("limit atoms 12"), "{range}: {message}");
    }
    // A range of short variants can still be too many seeds.
    let many = QUICKSTART.replace("limit atoms 12;", "limit atoms 12;\nlimit species 2;");
    let message = assert_refused(&many, "PolyS");
    assert!(message.contains("limit species 2"), "{message}");
}

#[test]
fn a_literal_seed_past_limit_atoms_is_refused() {
    let long = format!("C{}C", "S".repeat(1_000_000));
    let source = QUICKSTART.replace(
        "rule scission",
        &format!("molecule Long = \"{long}\" init 1.0;\nrule scission"),
    );
    let message = assert_refused(&source, "Long");
    assert!(message.contains("1000002 atoms"), "{message}");
    // An expanded variant is held to the same count: `n` itself is under
    // the limit, the two carbons take it over.
    let message = assert_refused(&quickstart_with_range("11..12"), "PolyS_11");
    assert!(message.contains("13 atoms"), "{message}");
}

/// Seeded random programs: a random `X{n}` template over a random range
/// under random limits either compiles with every seed inside the limits
/// or is refused — within the bound either way.
#[test]
fn random_ranges_and_templates_stay_inside_the_declared_limits() {
    let templates = ["CS{n}C", "S{n}", "CCl{n}C", "S{n}CS{n}", "CO{n}C", "C{n}"];
    let mut rng = SmallRng::seed_from_u64(28);
    let (mut compiled, mut refused) = (0, 0);
    for case in 0..256 {
        let template = templates[rng.gen_range(0..templates.len())];
        let max_atoms = rng.gen_range(1..80u32);
        let max_species = rng.gen_range(1..500u32);
        // Mostly short ranges; the rest log-uniform up to 2³¹.
        let mut bound = || match rng.gen_bool(0.7) {
            true => rng.gen_range(1..40u32),
            false => 1u32 << rng.gen_range(0..32u32),
        };
        let (a, b) = (bound(), bound());
        let (lo, hi) = (a.min(b), a.max(b));
        let source = format!(
            "molecule X = \"{template}\" for n in {lo}..{hi} init 1.0;\n\
             limit atoms {max_atoms};\nlimit species {max_species};\n"
        );
        let (result, elapsed) = compile_timed(&source);
        assert!(elapsed < BOUND, "case {case}: {source}took {elapsed:?}");
        match result {
            Ok(species) => {
                assert!(hi <= max_atoms, "case {case}: {source}");
                assert!(species as u32 <= max_species, "case {case}: {source}");
                compiled += 1;
            }
            Err(RdlError::SeedLimit { .. }) => refused += 1,
            Err(other) => panic!("case {case}: {source}{other}"),
        }
    }
    eprintln!("{compiled} compiled, {refused} refused, of 256 random programs");
    assert!(compiled > 10 && refused > 10, "{compiled} / {refused}");
}
