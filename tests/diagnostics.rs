//! Golden-file tests for `rmsc` diagnostics: the exact rustc-style
//! rendering (span, caret, message) and the exit-code convention —
//! 2 for diagnostics and usage errors, 1 for runtime failures.

use std::path::PathBuf;
use std::process::{Command, Output};

fn rmsc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rmsc"))
        .args(args)
        .output()
        .expect("rmsc runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("stderr is utf-8")
}

/// Write an RDL source under a per-process temp dir and return its path.
fn fixture(name: &str, source: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rms-diagnostics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, source).expect("fixture written");
    path
}

#[test]
fn parse_error_renders_span_and_caret() {
    let path = fixture(
        "missing_semi.rdl",
        "rate K_a = 2;\nmolecule M = \"CC\" init 1.0\nrule r { site bond C ~ C order single; action disconnect; rate K_a; }\n",
    );
    let path = path.display();
    let out = rmsc(&["compile", &path.to_string()]);
    assert_eq!(out.status.code(), Some(2));
    let expected = format!(
        "error[parse]: expected 'for', 'init' or ';', found Ident(\"rule\")\n \
         --> {path}:3:5\n  \
         |\n\
         3 | rule r {{ site bond C ~ C order single; action disconnect; rate K_a; }}\n  \
         |     ^\n"
    );
    assert_eq!(stderr(&out), expected);
}

#[test]
fn rcip_syntax_error_renders_its_file_span_and_caret() {
    let path = fixture(
        "rcip_syntax.rdl",
        "rate K_sc = 2;\n\
         molecule DiS = \"CSSC\" init 1.0;\n\
         rule scission { site bond S ~ S order single; action disconnect; rate K_sc; }\n\
         \n\
         rate K_rec = K_sc / ;\n",
    );
    let path = path.display();
    let out = rmsc(&["compile", &path.to_string()]);
    assert_eq!(out.status.code(), Some(2));
    let expected = format!(
        "error[rcip]: expected expression, found Semi\n \
         --> {path}:5:21\n  \
         |\n\
         5 | rate K_rec = K_sc / ;\n  \
         |                     ^\n"
    );
    assert_eq!(stderr(&out), expected);
}

#[test]
fn rcip_error_names_the_undefined_constant() {
    let path = fixture(
        "undefined_constant.rdl",
        "rate K_a = K_missing * 2;\nmolecule M = \"CSSC\" init 1.0;\nrule r { site bond S ~ S order single; action disconnect; rate K_a; }\n",
    );
    let out = rmsc(&["compile", &path.display().to_string()]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        stderr(&out),
        "error[rcip]: constant 'K_missing' referenced by 'K_a' is never defined\n"
    );
}

#[test]
fn network_error_reports_bad_smiles() {
    let path = fixture("bad_smiles.rdl", "molecule M = \"C(C\" init 1.0;\n");
    let out = rmsc(&["compile", &path.display().to_string()]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        stderr(&out),
        "error[network]: molecule 'M': bad SMILES 'C(C': \
         SMILES syntax error at offset 3: unbalanced '('\n"
    );
}

#[test]
fn an_action_the_site_cannot_take_names_the_site_kind() {
    let path = fixture(
        "atom_disconnect.rdl",
        "rate K = 1;\nmolecule M = \"CO\" init 1.0;\nrule r { site atom O & radical; action disconnect; rate K; }\n",
    );
    let out = rmsc(&["compile", &path.display().to_string()]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        stderr(&out),
        "error[parse]: rule 'r': action 'disconnect' incompatible with site kind 'atom'\n"
    );
}

#[test]
fn diagnostics_are_consistent_across_subcommands() {
    // `compile-report` goes through the same session and renderer, so a
    // broken model produces the identical diagnostic and exit code.
    let path = fixture(
        "undefined_constant.rdl",
        "rate K_a = K_missing * 2;\nmolecule M = \"CSSC\" init 1.0;\nrule r { site bond S ~ S order single; action disconnect; rate K_a; }\n",
    );
    let path = path.display().to_string();
    let compile = rmsc(&["compile", &path]);
    let report = rmsc(&["compile-report", &path]);
    assert_eq!(report.status.code(), Some(2));
    assert_eq!(stderr(&report), stderr(&compile));
}

/// One generation is not enough to close a cascading scission over a
/// four-sulfur chain.
const CAPPED: &str = "rate K_sc = 2;\n\
    molecule Sx = \"CSSSSC\" init 1.0;\n\
    rule scission { site bond S ~ S order single; action disconnect; rate K_sc; }\n\
    limit generations 1;\n";

#[test]
fn generation_cap_warning_renders_span_and_exits_zero() {
    // One generation is not enough to close a cascading scission over a
    // four-sulfur chain: the compile succeeds (exit 0, artifact emitted)
    // but carries a warning naming the cap and the still-growing rule,
    // anchored at the `limit generations` statement.
    let path = fixture("capped.rdl", CAPPED);
    let path = path.display().to_string();
    let out = rmsc(&["compile", &path, "--emit", "stats"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout.clone()).unwrap();
    assert!(stdout.contains("species:"), "{stdout}");
    let expected = format!(
        "warning[network]: network closure stopped at the generation cap (1) \
         without reaching a fixpoint; still-growing rules: scission\n \
         --> {path}:4:1\n  \
         |\n\
         4 | limit generations 1;\n  \
         | ^\n"
    );
    assert_eq!(stderr(&out), expected);
}

#[test]
fn generation_cap_warning_repeats_on_a_cache_hit() {
    // The second `simulate --cache-dir` serves the same truncated network
    // from the disk entry; it must say so in the same words.
    let path = fixture("capped_cached.rdl", CAPPED);
    let cache = path.with_extension("cache");
    let _ = std::fs::remove_dir_all(&cache);
    let (path, cache) = (path.display().to_string(), cache.display().to_string());
    let run = || rmsc(&["simulate", &path, "--cache-dir", &cache]);
    let (first, second) = (run(), run());
    assert_eq!(first.status.code(), Some(0));
    assert!(
        stderr(&first).starts_with("warning[network]: network closure stopped"),
        "{}",
        stderr(&first)
    );
    assert_eq!(stderr(&second), stderr(&first));
    assert_eq!(second.stdout, first.stdout);
    assert_eq!(second.status.code(), Some(0));
}

#[test]
fn generation_cap_without_growth_stays_silent() {
    // The same model with room to finish reaches a fixpoint: no warning.
    let path = fixture(
        "uncapped.rdl",
        "rate K_sc = 2;\n\
         molecule Sx = \"CSSSSC\" init 1.0;\n\
         rule scission { site bond S ~ S order single; action disconnect; rate K_sc; }\n\
         limit generations 8;\n",
    );
    let out = rmsc(&["compile", &path.display().to_string(), "--emit", "stats"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(stderr(&out), "");
}

#[test]
fn runtime_errors_exit_1_with_prefix() {
    // A missing input is an environment failure, not a model diagnostic:
    // prefixed message, exit 1.
    let path = std::env::temp_dir()
        .join(format!("rms-diagnostics-{}", std::process::id()))
        .join("does_not_exist.rdl");
    let out = rmsc(&["compile", &path.display().to_string()]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        stderr(&out),
        format!(
            "rmsc: cannot read {}: No such file or directory (os error 2)\n",
            path.display()
        )
    );
}

#[test]
fn unknown_dump_stage_is_a_usage_error() {
    let path = fixture("bad_smiles.rdl", "molecule M = \"C(C\" init 1.0;\n");
    let out = rmsc(&["compile", &path.display().to_string(), "--dump-ir", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        stderr(&out),
        "rmsc: unknown stage 'bogus' (expected one of: parse, expand, rcip, \
         network, odegen, simplify, distribute, cse, deriv, lower, exec-decode, codegen)\n"
    );
}
