//! `run`, `trace` and `repeat`: every workload, each in a fresh process.
//!
//! A workload run is always the one-run command of the contract
//! (`--workload W --seed N --seconds S --trace 0|1`) in a child process, so
//! these commands measure exactly what the benchmark's driver measures and
//! no workload inherits another's warm caches.

use crate::json::{self, obj, Value};
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::{out_dir, stats, Options};

/// Indented JSON, for the files people read.
pub fn pretty(value: &Value) -> String {
    fn write(value: &Value, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent + 1);
        match value {
            Value::Arr(items) if !items.is_empty() => {
                // Arrays of scalars stay on one line.
                if items
                    .iter()
                    .all(|v| !matches!(v, Value::Arr(_) | Value::Obj(_)))
                {
                    out.push_str(&value.to_json().replace(",", ", "));
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    // One object of scalars per line reads as a table.
                    match item {
                        Value::Obj(fields)
                            if fields
                                .iter()
                                .all(|(_, v)| !matches!(v, Value::Arr(_) | Value::Obj(_))) =>
                        {
                            let cells: Vec<String> = fields
                                .iter()
                                .map(|(k, v)| {
                                    format!(
                                        "{}: {}",
                                        Value::from(k.as_str()).to_json(),
                                        v.to_json()
                                    )
                                })
                                .collect();
                            out.push_str(&format!("{{{}}}", cells.join(", ")));
                        }
                        other => write(other, indent + 1, out),
                    }
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Value::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (key, item)) in fields.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str(&Value::from(key.as_str()).to_json());
                    out.push_str(": ");
                    write(item, indent + 1, out);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
            scalar => out.push_str(&scalar.to_json()),
        }
    }
    let mut out = String::new();
    write(value, 0, &mut out);
    out
}

/// One workload in a fresh process; returns its parsed result line. The
/// child's stderr (sample lists, failed checks) passes through.
fn run_workload(name: &str, seed: u64, seconds: f64, traced: bool) -> Result<Value, String> {
    let args = [
        "--workload",
        name,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
    ]
    .map(Into::into);
    crate::run_self(args, true).map_err(|e| format!("workload {name}: {e}"))
}

fn metric(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// `run` (every end-to-end metric) and `trace` (every per-layer metric) of
/// every workload: prints each metric by name with its unit and writes
/// `out/results.json` or `out/layers.json`; `trace` also gathers the
/// workloads' span files into `out/trace.json`.
pub fn run_all(options: &Options, traced: bool) -> Result<(), String> {
    let names: Vec<(&str, &str)> = if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut results = Vec::new();
    for workload in &WORKLOADS {
        eprintln!("--- {} (seed {}) ---", workload.name, options.seed);
        results.push(run_workload(
            workload.name,
            options.seed,
            options.seconds,
            traced,
        )?);
    }

    print!("{:<32} {:<6}", "metric", "unit");
    for workload in &WORKLOADS {
        print!(" {:>14}", workload.name);
    }
    println!();
    for (name, unit) in &names {
        print!("{name:<32} {unit:<6}");
        for result in &results {
            match metric(result, name) {
                Some(v) => print!(" {:>14}", format!("{v:.6}")),
                None => print!(" {:>14}", "-"),
            }
        }
        println!();
    }
    let mut failed = 0.0;
    print!("{:<32} {:<6}", "failed / attempted", "count");
    for result in &results {
        let (f, a) = (result.num("failed")?, result.num("attempted")?);
        failed += f;
        print!(" {:>14}", format!("{f} / {a}"));
    }
    println!();

    let file = if traced {
        "layers.json"
    } else {
        "results.json"
    };
    let report = obj([
        ("seed", (options.seed as f64).into()),
        ("seconds", options.seconds.into()),
        (
            "workloads",
            Value::Obj(
                WORKLOADS
                    .iter()
                    .zip(&results)
                    .map(|(w, r)| (w.name.to_string(), r.clone()))
                    .collect(),
            ),
        ),
    ]);
    let path = out_dir().join(file);
    std::fs::write(&path, pretty(&report)).map_err(|e| format!("write {}: {e}", path.display()))?;
    if traced {
        let mut traces = Vec::new();
        for workload in &WORKLOADS {
            let part = out_dir().join(format!("trace-{}.json", workload.name));
            let text = std::fs::read_to_string(&part)
                .map_err(|e| format!("read {}: {e}", part.display()))?;
            traces.push(json::parse(&text)?);
        }
        let path = out_dir().join("trace.json");
        std::fs::write(&path, Value::Arr(traces).to_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    if failed > 0.0 {
        return Err(format!("{failed} operations or output checks failed"));
    }
    Ok(())
}

/// `repeat --sets K --runs R`: K sets of R runs of every workload, the
/// order of the workloads alternating from run to run and the seed moving
/// with every run; then, per end-to-end metric and workload, each set's
/// median, how much worse the last set is than the first, and whether that
/// stays within the metric's bound — the comparison the benchmark's driver
/// makes between two sets of ten runs.
pub fn repeat(options: &Options) -> Result<(), String> {
    // values[set][workload][metric] = that set's runs
    let mut values = vec![vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()]; options.sets];
    for (set, in_set) in values.iter_mut().enumerate() {
        for r in 0..options.runs {
            let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
            if (set * options.runs + r) % 2 == 1 {
                order.reverse();
            }
            let seed = options.seed + (set * options.runs + r) as u64;
            for w in order {
                let name = WORKLOADS[w].name;
                eprintln!("--- set {set}, run {r}: {name} (seed {seed}) ---");
                let result = run_workload(name, seed, options.seconds, false)?;
                if result.num("failed")? > 0.0 {
                    return Err(format!("set {set}: {name} failed an operation or check"));
                }
                for (m, declared) in END_TO_END.iter().enumerate() {
                    let v = metric(&result, declared.name)
                        .ok_or_else(|| format!("{name} did not report {}", declared.name))?;
                    in_set[w][m].push(v);
                }
            }
        }
    }

    let mut misses = Vec::new();
    println!(
        "{:<12} {:<14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first median", "last median", "worse by", "bound"
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (m, declared) in END_TO_END.iter().enumerate() {
            let first = stats::median(&values[0][w][m]);
            let last = stats::median(&values[options.sets - 1][w][m]);
            let worse = match declared.better {
                "lower" => last / first - 1.0,
                _ => first / last - 1.0,
            };
            let ok = worse <= declared.bound;
            println!(
                "{:<12} {:<14} {:>14.6} {:>14.6} {:>8.1}% {:>6.0}% {}",
                workload.name,
                declared.name,
                first,
                last,
                worse * 100.0,
                declared.bound * 100.0,
                if ok { "ok" } else { "MISS" }
            );
            if !ok {
                misses.push(format!("{}:{}", workload.name, declared.name));
            }
            if options.runs >= 4 {
                let spreads: Vec<String> = values
                    .iter()
                    .map(|set| format!("{:.1}%", stats::iqr_share(&set[w][m]) * 100.0))
                    .collect();
                println!(
                    "{:<12} {:<14} interquartile spread per set: {}",
                    "",
                    "",
                    spreads.join(" ")
                );
            }
        }
    }
    if misses.is_empty() {
        Ok(())
    } else {
        Err(format!("outside their bound: {}", misses.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_output_parses_back_to_the_same_value() {
        let manifest = crate::metrics::manifest();
        let text = pretty(&manifest);
        assert_eq!(json::parse(&text).unwrap(), manifest);
        assert!(text.lines().count() > 100, "one metric per line");
        assert!(text.contains("\n  \"paths\": [\"benchmark\"]"));
    }
}
