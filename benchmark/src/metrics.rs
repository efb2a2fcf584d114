//! Every workload and metric the benchmark declares, in one place.
//!
//! `BENCHMARK.json` at the repository root is this module written out
//! (`rms-benchmark manifest` prints it); a test holds the two equal, so a
//! metric cannot be printed without being declared or declared without
//! being printed.

use std::collections::BTreeMap;

use crate::json::{obj, Value};

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "frontier",
        why: "20,169-species RDL model: compile is network closure (rdl, molecule); the solve has a trivial RHS at n=20k, so sparse LU and vector work decide it; kernel and optimizer changes should not move it",
    },
    Workload {
        name: "vulc5k",
        why: "Table 1 case 4 at 1/25, a prebuilt 4,984-equation network: the frontend does nothing, CSE and Deriv do the compile, each trajectory is kernel-heavy; a frontend change should not move it",
    },
    Workload {
        name: "rdl_fit",
        why: "the paper's workflow, 157-species RDL text to a fitted rate vector: sensitivity-augmented solves at small n, estimator collectives and LM algebra; one operation is one LM iteration",
    },
    Workload {
        name: "serve_mix",
        why: "seeded job mix over rms-serve, one client per worker: 6 hot RDL models and a decay model, 3 tenants, 20% estimate jobs, every 50th source never seen; serve and the compile cache decide it",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Seconds one run measures for; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u64 = 20;

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "compile_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "recompile_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.05,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Layer = crate. A metric a workload does not exercise reads 0 there.
pub const PER_LAYER: [PerLayer; 100] = [
    // rms-molecule
    layer("molecule.canonicalizations", "count", "lower"),
    layer("molecule.prefilter_hit_rate", "ratio", "higher"),
    layer("molecule.canon_us", "us", "lower"),
    layer("molecule.identify_us", "us", "lower"),
    // rms-rdl
    layer("rdl.parse_s", "s", "lower"),
    layer("rdl.expand_s", "s", "lower"),
    layer("rdl.network_s", "s", "lower"),
    layer("rdl.gen_max_s", "s", "lower"),
    layer("rdl.species", "count", "lower"),
    layer("rdl.reactions", "count", "lower"),
    layer("rdl.rule_applications", "count", "lower"),
    layer("rdl.generations", "count", "lower"),
    layer("rdl.peak_frontier", "count", "lower"),
    layer("rdl.species_per_s", "1/s", "higher"),
    // rms-rcip
    layer("rcip.attach_s", "s", "lower"),
    layer("rcip.distinct_rates", "count", "lower"),
    // rms-odegen
    layer("odegen.generate_s", "s", "lower"),
    layer("odegen.terms", "count", "lower"),
    layer("odegen.ir_nodes", "count", "lower"),
    // rms-core, optimizer
    layer("core.simplify_s", "s", "lower"),
    layer("core.distribute_s", "s", "lower"),
    layer("core.cse_s", "s", "lower"),
    layer("core.deriv_s", "s", "lower"),
    layer("core.lower_s", "s", "lower"),
    layer("core.exec_decode_s", "s", "lower"),
    layer("core.ops_in", "count", "lower"),
    layer("core.ops_out", "count", "lower"),
    layer("core.ops_remaining_share", "ratio", "lower"),
    layer("core.tape_instrs", "count", "lower"),
    layer("core.exec_instrs", "count", "lower"),
    layer("core.fused", "count", "higher"),
    layer("core.jac_nnz", "count", "lower"),
    layer("core.sens_entries", "count", "lower"),
    layer("core.ir_nodes_after_cse", "count", "lower"),
    // rms-core, kernels
    layer("core.rhs_eval_us", "us", "lower"),
    layer("core.rhs_batch_eval_us", "us", "lower"),
    layer("core.jac_eval_us", "us", "lower"),
    layer("core.dfdp_eval_us", "us", "lower"),
    layer("core.rhs_flops_per_s", "1/s", "higher"),
    // rms-driver
    layer("driver.overhead_s", "s", "lower"),
    layer("driver.mem_hit_us", "us", "lower"),
    layer("driver.disk_hit_s", "s", "lower"),
    layer("driver.artifact_bytes", "B", "lower"),
    layer("driver.cache_hits", "count", "higher"),
    layer("driver.cache_disk_hits", "count", "higher"),
    layer("driver.cache_misses", "count", "lower"),
    layer("driver.quarantines", "count", "lower"),
    // rms-solver
    layer("solver.steps", "count", "lower"),
    layer("solver.rejected", "count", "lower"),
    layer("solver.fevals", "count", "lower"),
    layer("solver.jevals", "count", "lower"),
    layer("solver.factorizations", "count", "lower"),
    layer("solver.newton_iters", "count", "lower"),
    layer("solver.fill_nnz", "count", "lower"),
    layer("solver.symbolic_s", "s", "lower"),
    layer("solver.factor_us", "us", "lower"),
    layer("solver.tri_solve_us", "us", "lower"),
    layer("solver.rhs_share", "ratio", "lower"),
    layer("solver.factor_share", "ratio", "lower"),
    layer("solver.self_s", "s", "lower"),
    // rms-workload
    layer("workload.simulate_overhead_s", "s", "lower"),
    layer("workload.fallback_hops", "count", "lower"),
    layer("workload.aug_solve_s", "s", "lower"),
    layer("workload.aug_over_plain", "ratio", "lower"),
    // rms-parallel
    layer("parallel.objective_s", "s", "lower"),
    layer("parallel.jacobian_s", "s", "lower"),
    layer("parallel.rank_wall_max_s", "s", "lower"),
    layer("parallel.imbalance", "ratio", "lower"),
    layer("parallel.retries", "count", "lower"),
    layer("parallel.efficiency", "ratio", "higher"),
    layer("parallel.allreduce_us", "us", "lower"),
    layer("parallel.jacobian_hash_stable", "count", "higher"),
    // rms-nlopt
    layer("nlopt.fit_s", "s", "lower"),
    layer("nlopt.iterations", "count", "lower"),
    layer("nlopt.residual_evals", "count", "lower"),
    layer("nlopt.jacobian_builds", "count", "lower"),
    layer("nlopt.self_s", "s", "lower"),
    layer("nlopt.final_cost", "ratio", "lower"),
    layer("nlopt.param_rel_err", "ratio", "lower"),
    // rms-serve
    layer("serve.parse_us", "us", "lower"),
    layer("serve.admitted", "count", "higher"),
    layer("serve.succeeded", "count", "higher"),
    layer("serve.failed", "count", "lower"),
    layer("serve.rejected", "count", "lower"),
    layer("serve.deadlines", "count", "lower"),
    layer("serve.cold_compiles", "count", "lower"),
    layer("serve.cache_hit_share", "ratio", "higher"),
    layer("serve.queue_wait_ms_p50", "ms", "lower"),
    layer("serve.queue_wait_ms_p99", "ms", "lower"),
    layer("serve.service_ms_p50", "ms", "lower"),
    layer("serve.service_ms_p99", "ms", "lower"),
    layer("serve.p50_ms_mid", "ms", "lower"),
    layer("serve.p99_ms_mid", "ms", "lower"),
    layer("serve.p50_ms_hi", "ms", "lower"),
    layer("serve.p99_ms_hi", "ms", "lower"),
    layer("serve.gen_lag_ms_max", "ms", "lower"),
    layer("serve.backlog_end", "count", "lower"),
    // the harness itself
    layer("harness.fail_share", "ratio", "lower"),
    layer("harness.trace_overhead_share", "ratio", "lower"),
    layer("harness.layer_self_share", "ratio", "higher"),
];

/// Which list a run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    PerLayer,
}

/// The metrics of one run, keyed by declared name.
pub struct Metrics {
    kind: Kind,
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn new(kind: Kind) -> Metrics {
        Metrics {
            kind,
            values: BTreeMap::new(),
        }
    }

    /// `(name, unit)` of every metric of a kind, in declaration order.
    fn list(kind: Kind) -> Vec<(&'static str, &'static str)> {
        match kind {
            Kind::EndToEnd => END_TO_END.iter().map(|m| (m.name, m.unit)).collect(),
            Kind::PerLayer => PER_LAYER.iter().map(|m| (m.name, m.unit)).collect(),
        }
    }

    /// Record a metric. Recording one the active list does not declare is
    /// a bug in the harness; recording the other list's metric is a no-op,
    /// so a workload can report what it measured without asking which run
    /// it is in.
    pub fn set(&mut self, name: &str, value: f64) {
        let find = |kind| Metrics::list(kind).into_iter().find(|(n, _)| *n == name);
        if let Some((name, _)) = find(self.kind) {
            self.values.insert(name, value);
            return;
        }
        let other = match self.kind {
            Kind::EndToEnd => Kind::PerLayer,
            Kind::PerLayer => Kind::EndToEnd,
        };
        assert!(
            find(other).is_some(),
            "metric '{name}' is not declared in metrics.rs"
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The `metrics` object of the result line: every declared metric of
    /// this run's kind. A per-layer metric the workload does not exercise
    /// reads 0; an end-to-end metric must have been measured.
    pub fn to_json(&self) -> Result<Value, String> {
        let names = Metrics::list(self.kind);
        let mut fields = Vec::with_capacity(names.len());
        for (name, unit) in names {
            let value = match (self.values.get(name), self.kind) {
                (Some(v), _) if v.is_finite() => *v,
                (Some(v), _) => return Err(format!("metric '{name}' is {v}")),
                (None, Kind::PerLayer) => 0.0,
                (None, Kind::EndToEnd) => return Err(format!("metric '{name}' was not measured")),
            };
            fields.push((
                name.to_string(),
                obj([("value", value.into()), ("unit", unit.into())]),
            ));
        }
        Ok(Value::Obj(fields))
    }
}

/// `BENCHMARK.json`, from the declarations above.
pub fn manifest() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    obj([
        (
            "command",
            Value::Arr(command.iter().map(|&s| s.into()).collect()),
        ),
        ("paths", Value::Arr(vec!["benchmark".into()])),
        ("run_seconds", (RUN_SECONDS as usize).into()),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", w.name.into()), ("why", w.why.into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.into()),
                            ("bound", m.bound.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn declarations_respect_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} declared twice", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "{} declared twice", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(seen.insert(m.name), "{} declared twice", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest);
    }

    #[test]
    fn benchmark_json_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let on_disk = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = on_disk
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `rms-benchmark manifest > BENCHMARK.json`"
        );
        let command = on_disk.get("command").unwrap().as_arr().unwrap();
        assert!(command.len() <= 32);
        for word in command {
            let word = word.as_str().unwrap();
            assert!(word.len() <= 200 && !word.starts_with('/') && !word.contains(".."));
        }
    }

    /// The `key = value` lines of a manifest's `[profile.release]` table.
    fn release_profile(manifest: &str) -> Vec<String> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn the_harness_is_built_like_the_product() {
        let root = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"))
            .expect("the repository's Cargo.toml");
        let own = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"))
            .expect("the benchmark's Cargo.toml");
        let profile = release_profile(&root);
        assert!(
            !profile.is_empty(),
            "the repository sets no release profile"
        );
        assert_eq!(release_profile(&own), profile);
    }

    #[test]
    fn a_run_prints_exactly_the_declared_metrics() {
        let mut m = Metrics::new(Kind::PerLayer);
        m.set("solver.steps", 199.0);
        m.set("op_p50_ms", 1.0); // the other list's metric: ignored
        let printed = m.to_json().unwrap();
        let printed = printed.as_obj().unwrap();
        assert_eq!(printed.len(), PER_LAYER.len());
        for ((name, value), declared) in printed.iter().zip(&PER_LAYER) {
            assert_eq!(name, declared.name);
            assert_eq!(value.get("unit").unwrap().as_str(), Some(declared.unit));
        }
        assert_eq!(m.get("solver.steps"), Some(199.0));
        assert_eq!(printed[0].1.num("value"), Ok(0.0));

        let mut e = Metrics::new(Kind::EndToEnd);
        assert!(e.to_json().is_err(), "unmeasured end-to-end metric");
        for d in &END_TO_END {
            e.set(d.name, 1.5);
        }
        assert_eq!(
            e.to_json().unwrap().as_obj().unwrap().len(),
            END_TO_END.len()
        );
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_are_refused() {
        Metrics::new(Kind::PerLayer).set("solver.made_up", 1.0);
    }
}
