//! Per-stage pipeline instrumentation, serializable to JSON.
//!
//! "Reporting per-stage computational cost" is what lets the Table 1/2
//! harness attribute compile time and operation counts to individual
//! passes. The report is engine- and cache-independent: a cache-hit
//! compile reproduces the op-count fields of the cold compile that
//! produced the artifact.

use rms_core::StageCounts;
use rms_odegen::OpCounts;

use crate::json::{obj, Value};
use crate::stage::Stage;

/// One stage's observation: wall time plus ordered named metrics
/// (artifact sizes, op counts — whatever the stage measures).
#[derive(Debug, Clone, PartialEq)]
pub struct StageRecord {
    /// Which stage.
    pub stage: Stage,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Ordered `(name, value)` metrics.
    pub metrics: Vec<(String, f64)>,
}

impl StageRecord {
    /// New record with no metrics yet.
    pub fn new(stage: Stage, seconds: f64) -> StageRecord {
        StageRecord {
            stage,
            seconds,
            metrics: Vec::new(),
        }
    }

    /// Append a metric (builder style).
    pub fn metric(mut self, name: &str, value: f64) -> StageRecord {
        self.metrics.push((name.to_string(), value));
        self
    }

    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// The full compile-time report: model identity, per-stage records, and
/// the optimizer's Table 1 operation counts.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Model label (file name or workload case name).
    pub model: String,
    /// Optimization level display name.
    pub level: String,
    /// Species count (= equations).
    pub species: usize,
    /// Reaction count.
    pub reactions: usize,
    /// Distinct-valued rate constants.
    pub rates: usize,
    /// Per-stage records, execution order. Only stages that ran appear.
    pub stages: Vec<StageRecord>,
    /// The optimizer's per-stage operation counts (Table 1 numbers).
    pub counts: StageCounts,
    /// Total wall-clock seconds across all recorded stages.
    pub total_seconds: f64,
}

impl PipelineReport {
    /// The record for a stage, if it ran.
    pub fn stage(&self, stage: Stage) -> Option<&StageRecord> {
        self.stages.iter().find(|r| r.stage == stage)
    }

    /// Recompute `total_seconds` from the stage records.
    pub fn finish(&mut self) {
        self.total_seconds = self.stages.iter().map(|r| r.seconds).sum();
    }

    /// Serialize to a JSON object: `stages` in execution order, each
    /// record's metrics beside its `stage` and `seconds`.
    pub fn to_json(&self) -> String {
        let counts = |c: OpCounts| {
            obj([
                ("mults", c.mults.into()),
                ("adds", c.adds.into()),
                ("total", c.total().into()),
            ])
        };
        let stages = self.stages.iter().map(|rec| {
            let metrics = rec.metrics.iter().map(|(k, v)| (k.clone(), (*v).into()));
            let head = [
                ("stage".to_string(), rec.stage.name().into()),
                ("seconds".to_string(), rec.seconds.into()),
            ];
            Value::Obj(head.into_iter().chain(metrics).collect())
        });
        obj([
            ("model", self.model.as_str().into()),
            ("level", self.level.as_str().into()),
            ("species", self.species.into()),
            ("reactions", self.reactions.into()),
            ("rates", self.rates.into()),
            ("total_seconds", self.total_seconds.into()),
            (
                "counts",
                obj([
                    ("input", counts(self.counts.input)),
                    ("after_simplify", counts(self.counts.after_simplify)),
                    ("after_distribute", counts(self.counts.after_distribute)),
                    ("after_cse", counts(self.counts.after_cse)),
                    ("tape", counts(self.counts.tape)),
                ]),
            ),
            ("stages", Value::Arr(stages.collect())),
        ])
        .to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PipelineReport {
        let mut r = PipelineReport {
            model: "m\"x\"".into(),
            level: "simplify+distopt+cse".into(),
            species: 3,
            reactions: 2,
            rates: 1,
            stages: vec![
                StageRecord::new(Stage::Parse, 0.5).metric("molecules", 2.0),
                StageRecord::new(Stage::Lower, 0.25).metric("instrs", 7.0),
            ],
            counts: StageCounts {
                input: OpCounts { mults: 10, adds: 5 },
                ..StageCounts::default()
            },
            total_seconds: 0.0,
        };
        r.finish();
        r
    }

    #[test]
    fn totals_sum_stage_seconds() {
        assert_eq!(sample().total_seconds, 0.75);
    }

    #[test]
    fn json_shape() {
        let json = sample().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"model\":\"m\\\"x\\\"\""));
        assert!(json.contains("\"input\":{\"adds\":5,\"mults\":10,\"total\":15}"));
        assert!(json.contains("\"stage\":\"parse\""));
        assert!(json.contains("\"molecules\":2"));
    }

    #[test]
    fn stage_lookup() {
        let r = sample();
        assert_eq!(r.stage(Stage::Parse).unwrap().get("molecules"), Some(2.0));
        assert!(r.stage(Stage::Cse).is_none());
    }
}
