//! A closed form we did not compute, from RDL text to a recovered rate
//! constant. One scission, `CSSC → 2 CH3S·` at `K_sc`, is first-order
//! decay: `[DiS] = e^{−K t}` and `[CH3S·] = 2(1 − e^{−K t})` from
//! `[DiS] = 1`. The compiled model's trajectory must follow it, and a fit
//! to data written from it — not from our solver — must find `K_sc`.

use std::path::Path;
use std::process::Command;

use rms_suite::{CompilerSession, OptLevel, SessionOptions, TapeSimulator};

const K_SC: f64 = 2.0;

fn model(rate: &str) -> String {
    format!(
        r#"
        {rate}
        molecule DiS = "CSSC" init 1.0;
        rule scission {{
            site bond S ~ S order single;
            action disconnect;
            rate K_sc;
        }}
        "#
    )
}

fn dis(t: f64) -> f64 {
    (-K_SC * t).exp()
}

#[test]
fn scission_follows_first_order_decay() {
    let mut options = SessionOptions::new(OptLevel::Full);
    options.deriv = true;
    let source = model("rate K_sc = 2;");
    let artifact = CompilerSession::with_options(options)
        .compile_source("decay", &source)
        .expect("model compiles")
        .artifact;
    let network = &artifact.network;
    assert_eq!(network.species_count(), 2);
    let id = |name: &str| network.species_by_name(name).expect(name).0 as usize;
    let (parent, radical) = (id("DiS"), id("CH3S"));

    let simulator = TapeSimulator::from_artifact(&artifact, Vec::new());
    let times: Vec<f64> = (1..=20).map(|i| 0.1 * i as f64).collect();
    let states = simulator
        .trajectory(&artifact.system.rate_values, 0, &times)
        .expect("solves");
    let bound = 10.0 * simulator.options.rtol;
    for (&t, y) in times.iter().zip(&states) {
        for (got, want) in [(y[parent], dis(t)), (y[radical], 2.0 * (1.0 - dis(t)))] {
            let error = (got - want).abs() / want;
            assert!(error <= bound, "t = {t}: {got} against {want} ({error:e})");
        }
    }
}

/// `rmsc estimate` from `K_sc = 0.5` on noise-free [DiS] data recovers
/// `K_sc = 2` within 10⁻³.
#[test]
fn estimate_recovers_the_rate_constant_from_closed_form_data() {
    let dir = std::env::temp_dir().join(format!("rms-closed-form-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let data = dir.join("data");
    std::fs::create_dir_all(&data).unwrap();
    let path = dir.join("decay.rdl");
    std::fs::write(&path, model("rate K_sc = 0.5; bound K_sc in [0.1, 20];")).unwrap();
    for file in 0..4 {
        let horizon = 0.5 + 0.5 * file as f64;
        let records: String = (1..=20)
            .map(|i| {
                let t = horizon * i as f64 / 20.0;
                format!("{t:e} {:e}\n", dis(t))
            })
            .collect();
        std::fs::write(data.join(format!("formulation_{file:02}.dat")), records).unwrap();
    }

    let out = Command::new(env!("CARGO_BIN_EXE_rmsc"))
        .args(["estimate", &path.display().to_string()])
        .args(["--data", &data.display().to_string(), "--observe", "DiS"])
        .output()
        .expect("rmsc runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{stdout}{:?}", out.stderr);
    let row = stdout
        .lines()
        .find(|l| l.starts_with("K_sc "))
        .expect("K_sc row");
    let columns: Vec<f64> = row
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().unwrap())
        .collect();
    assert_eq!(columns[0], 0.5, "{stdout}");
    let error = (columns[1] - K_SC).abs() / K_SC;
    assert!(
        error <= 1e-3,
        "fitted K_sc = {} ({error:e})\n{stdout}",
        columns[1]
    );
    let _ = std::fs::remove_dir_all(Path::new(&dir));
}
