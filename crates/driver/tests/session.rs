//! End-to-end driver tests: staged reports, cache layers, disk
//! round-trips, and IR dumps.

use std::sync::Arc;

use rms_driver::{cache, CacheMode, CompilerSession, Diagnostic, OptLevel, SessionOptions, Stage};

const SRC: &str = r#"
    rate K_sc = 2;
    rate K_rec = 1;
    molecule TetraS = "CS{n}C" for n in 2..4 init 1.0;
    rule scission {
        site bond S ~ S order single;
        action disconnect;
        rate K_sc;
    }
    rule recombine {
        site pair S & radical, S & radical;
        action connect single;
        rate K_rec;
    }
    limit atoms 12;
    forbid chain S > 4;
"#;

/// Make each test's source unique so in-process cache state never leaks
/// between tests (they share one global cache). The salt is an unused
/// rate definition, the closest thing RDL has to a comment.
fn salted(salt: &str) -> String {
    format!("{SRC}\nrate K_salt_{salt} = 977;\n")
}

#[test]
fn report_records_every_frontend_stage() {
    let session = CompilerSession::new(OptLevel::Full);
    let out = session
        .compile_source("m.rdl", &salted("reportstages"))
        .unwrap();
    let report = &out.artifact.report;
    for stage in [
        Stage::Parse,
        Stage::Expand,
        Stage::Rcip,
        Stage::Network,
        Stage::OdeGen,
        Stage::Simplify,
        Stage::Distribute,
        Stage::Cse,
        Stage::Lower,
        Stage::ExecDecode,
    ] {
        assert!(report.stage(stage).is_some(), "missing stage {stage}");
    }
    // Records are in stage order.
    let order: Vec<_> = report.stages.iter().map(|r| r.stage).collect();
    let mut sorted = order.clone();
    sorted.sort();
    assert_eq!(order, sorted);
    // No Deriv stage unless requested.
    assert!(report.stage(Stage::Deriv).is_none());
    assert_eq!(
        report.stage(Stage::Network).unwrap().get("species"),
        Some(out.artifact.network.species_count() as f64)
    );
    assert!(report.total_seconds > 0.0);
    // Report counts are the optimizer's stage counts.
    assert_eq!(report.counts, out.artifact.compiled.stages);
}

#[test]
fn memory_cache_shares_one_artifact() {
    let session = CompilerSession::new(OptLevel::Full);
    let src = salted("memorycache");
    let a = session.compile_source("m.rdl", &src).unwrap();
    let b = session.compile_source("m.rdl", &src).unwrap();
    assert!(Arc::ptr_eq(&a.artifact, &b.artifact));
    assert_ne!(a.status, b.status);
}

#[test]
fn changed_source_and_options_miss() {
    let src = salted("invalidation");
    let full = CompilerSession::new(OptLevel::Full)
        .compile_source("m.rdl", &src)
        .unwrap();
    let touched = CompilerSession::new(OptLevel::Full)
        .compile_source("m.rdl", &format!("{src} "))
        .unwrap();
    assert_ne!(full.artifact.key, touched.artifact.key);
    let algebraic = CompilerSession::new(OptLevel::Algebraic)
        .compile_source("m.rdl", &src)
        .unwrap();
    assert_ne!(full.artifact.key, algebraic.artifact.key);
    let mut opts = SessionOptions::new(OptLevel::Full);
    opts.deriv = true;
    let with_deriv = CompilerSession::with_options(opts)
        .compile_source("m.rdl", &src)
        .unwrap();
    assert_ne!(full.artifact.key, with_deriv.artifact.key);
    assert!(with_deriv.artifact.jacobian.is_some());
    assert!(with_deriv.artifact.report.stage(Stage::Deriv).is_some());
}

#[test]
fn deriv_record_splits_its_seconds() {
    let mut opts = SessionOptions::new(OptLevel::Full);
    opts.deriv = true;
    opts.sensitivity = true;
    opts.cache = CacheMode::Bypass;
    let compiled = CompilerSession::with_options(opts)
        .compile_source("m.rdl", &salted("derivsplit"))
        .unwrap();
    let deriv = compiled.artifact.report.stage(Stage::Deriv).unwrap();
    // Differentiation, re-CSE and lowering (summed over both groups) and
    // the sparse-Newton analysis are disjoint intervals inside the stage.
    let split: f64 = [
        "diff_seconds",
        "cse_seconds",
        "lower_seconds",
        "symbolic_seconds",
    ]
    .iter()
    .map(|name| {
        let value = deriv.get(name).unwrap_or_else(|| panic!("no {name}"));
        assert!(value > 0.0, "{name} = {value}");
        value
    })
    .sum();
    assert!(
        split <= deriv.seconds,
        "split {split} s exceeds the stage's {} s",
        deriv.seconds
    );
}

#[test]
fn bypass_always_compiles_cold() {
    let mut opts = SessionOptions::new(OptLevel::Full);
    opts.cache = CacheMode::Bypass;
    let session = CompilerSession::with_options(opts);
    let src = salted("bypass");
    let a = session.compile_source("m.rdl", &src).unwrap();
    let b = session.compile_source("m.rdl", &src).unwrap();
    assert_eq!(a.status, cache::CacheStatus::Cold);
    assert_eq!(b.status, cache::CacheStatus::Cold);
    assert!(!Arc::ptr_eq(&a.artifact, &b.artifact));
}

#[test]
fn disk_cache_round_trips_identically() {
    let dir = std::env::temp_dir().join(format!("rms-cache-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = SessionOptions::new(OptLevel::Full);
    opts.cache_dir = Some(dir.clone());
    opts.deriv = true;
    let session = CompilerSession::with_options(opts);
    let src = salted("diskroundtrip");

    let cold = session.compile_source("m.rdl", &src).unwrap();
    assert_eq!(cold.status, cache::CacheStatus::Cold);

    // Forget the in-memory copy; the next compile must revive from disk.
    cache::clear_memory();
    let disk = session.compile_source("m.rdl", &src).unwrap();
    assert_eq!(disk.status, cache::CacheStatus::Disk);

    assert_eq!(
        cold.artifact.compiled.tape.instrs,
        disk.artifact.compiled.tape.instrs
    );
    assert_eq!(cold.artifact.compiled.stages, disk.artifact.compiled.stages);
    assert_eq!(
        cold.artifact.system.rate_values,
        disk.artifact.system.rate_values
    );
    assert_eq!(cold.artifact.system.initial, disk.artifact.system.initial);
    assert_eq!(
        cold.artifact.system.species_names,
        disk.artifact.system.species_names
    );
    let (cj, dj) = (
        cold.artifact.jacobian.as_ref().unwrap(),
        disk.artifact.jacobian.as_ref().unwrap(),
    );
    assert_eq!(cj.entries, dj.entries);
    assert_eq!(cj.jac.instrs, dj.jac.instrs);
    assert_eq!(cold.artifact.report, disk.artifact.report);
    assert!(disk.artifact.exec.is_some());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_compiles_build_once() {
    let src = salted("concurrent");
    let statuses: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let src = &src;
                scope.spawn(move || {
                    CompilerSession::new(OptLevel::Full)
                        .compile_source("m.rdl", src)
                        .unwrap()
                        .status
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let cold = statuses
        .iter()
        .filter(|s| **s == cache::CacheStatus::Cold)
        .count();
    assert_eq!(cold, 1, "{statuses:?}");
}

#[test]
fn dump_ir_renders_requested_stage() {
    for (stage, needle) in [
        (Stage::Network, "\\ ["),
        (Stage::OdeGen, "d[TetraS_2]/dt"),
        (Stage::Cse, "dy0/dt"),
        (Stage::Lower, "; tape:"),
        (Stage::ExecDecode, "; exec tape:"),
    ] {
        let mut opts = SessionOptions::new(OptLevel::Full);
        opts.dump = Some(stage);
        let out = CompilerSession::with_options(opts)
            .compile_source("m.rdl", &salted("dump"))
            .unwrap();
        let dump = out.dump.unwrap_or_else(|| panic!("no dump for {stage}"));
        assert!(dump.contains(needle), "{stage} dump: {dump}");
    }
}

#[test]
fn diagnostics_carry_stage_and_span() {
    let err = CompilerSession::new(OptLevel::Full)
        .compile_source("m.rdl", "molecule = ;")
        .unwrap_err();
    assert_eq!(err.stage, Stage::Parse);
    assert!(err.span.is_some());

    let err = CompilerSession::new(OptLevel::Full)
        .compile_source("m.rdl", "rate A = B; rate B = A;")
        .unwrap_err();
    assert_eq!(err.stage, Stage::Rcip);

    let err: Diagnostic = CompilerSession::new(OptLevel::Full)
        .compile_source(
            "m.rdl",
            "molecule A = \"C\"; rule r { site atom C; action remove_h; rate K_missing; }",
        )
        .unwrap_err();
    assert_eq!(err.stage, Stage::Network);
}

#[test]
fn network_entry_point_caches_too() {
    use rms_rcip::RateTable;
    use rms_rdl::ReactionNetwork;

    let build = || {
        let mut n = ReactionNetwork::new();
        let a = n.add_abstract_species("A-net-entry", 1.0);
        let b = n.add_abstract_species("B-net-entry", 0.0);
        n.add_reaction_event(rms_rdl::Reaction {
            reactants: vec![a],
            products: vec![b, b],
            rate: "K".into(),
            rule: "r".into(),
        });
        let rates = RateTable::parse("rate K = 2;").unwrap();
        (n, rates)
    };
    let session = CompilerSession::new(OptLevel::Full);
    let (n1, r1) = build();
    let (n2, r2) = build();
    let a = session.compile_network("prog", n1, r1).unwrap();
    let b = session.compile_network("prog", n2, r2).unwrap();
    assert!(Arc::ptr_eq(&a.artifact, &b.artifact));
    assert!(a.artifact.report.stage(Stage::Parse).is_none());
    assert!(a.artifact.report.stage(Stage::OdeGen).is_some());
}
