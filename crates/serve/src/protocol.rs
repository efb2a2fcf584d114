//! The line-delimited JSON wire protocol: job requests in, streamed
//! events out.
//!
//! One request per line:
//!
//! ```json
//! {"id":"j1","tenant":"acme","kind":"simulate","source":"<rdl>",
//!  "observe":["X"],"times":[0.5,1.0],"deadline_ms":2000,"level":"full"}
//! ```
//!
//! Responses are one event per line: `accepted` on admission, then
//! exactly one terminal `result` or `error` per accepted job, and a
//! final `drained` summary when the server shuts down. Every error is
//! structured — a [`JobError`] kind plus a message — so clients can
//! dispatch on failure class without parsing prose.

use rms_driver::OptLevel;
use rms_parallel::ExperimentFile;

use crate::json::{self, obj, Value};

/// What a job asks the pipeline to do.
#[derive(Debug, Clone, PartialEq)]
pub enum JobKind {
    /// Compile the model and integrate, returning the observable at the
    /// requested times.
    Simulate {
        /// Output times (strictly positive, ascending).
        times: Vec<f64>,
    },
    /// Compile the model and evaluate the parallel estimation objective
    /// against inline experiment files, returning the objective norm and
    /// the estimator's health report.
    Estimate {
        /// Inline experiment files, every record admitted through
        /// [`ExperimentFile::push`] — the rule data files on disk obey.
        files: Vec<ExperimentFile>,
        /// SPMD ranks requested for the objective evaluation; the
        /// server runs at most one per file.
        workers: usize,
    },
}

/// A parsed, validated job request.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Client-chosen id, echoed on every event for this job.
    pub id: String,
    /// Tenant for fair queueing; defaults to `"default"`.
    pub tenant: String,
    /// RDL model source.
    pub source: String,
    /// Species names summed into the observable.
    pub observe: Vec<String>,
    /// What to run.
    pub kind: JobKind,
    /// Per-job deadline in milliseconds; `None` = no deadline.
    pub deadline_ms: Option<u64>,
    /// Optimization level (`"level"`: `none|simplify|algebraic|full`,
    /// default `full`).
    pub level: OptLevel,
}

impl JobRequest {
    /// Parse one request line. Errors are [`JobError::Invalid`] —
    /// malformed JSON or missing/ill-typed fields never reach a worker.
    pub fn parse(line: &str) -> Result<JobRequest, JobError> {
        let v = json::parse(line).map_err(|e| JobError::Invalid {
            message: format!("malformed JSON: {e}"),
        })?;
        let invalid = |message: String| JobError::Invalid { message };
        let str_field = |key: &str| -> Result<String, JobError> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| invalid(format!("missing or non-string field '{key}'")))
        };
        let id = str_field("id")?;
        let source = str_field("source")?;
        let tenant = v
            .get("tenant")
            .and_then(Value::as_str)
            .unwrap_or("default")
            .to_string();
        let level = v
            .get("level")
            .and_then(Value::as_str)
            .unwrap_or("full")
            .parse()
            .map_err(invalid)?;
        let observe = match v.get("observe") {
            None => Vec::new(),
            Some(o) => o
                .as_arr()
                .ok_or_else(|| invalid("'observe' must be an array of species names".into()))?
                .iter()
                .map(|s| {
                    s.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| invalid("'observe' entries must be strings".into()))
                })
                .collect::<Result<_, _>>()?,
        };
        let deadline_ms =
            match v.get("deadline_ms") {
                None | Some(Value::Null) => None,
                Some(d) => Some(d.as_u64().ok_or_else(|| {
                    invalid("'deadline_ms' must be a non-negative integer".into())
                })?),
            };
        let numbers = |val: &Value, key: &str| -> Result<Vec<f64>, JobError> {
            val.as_arr()
                .ok_or_else(|| invalid(format!("'{key}' must be an array of numbers")))?
                .iter()
                .map(|n| {
                    n.as_f64()
                        .filter(|x| x.is_finite())
                        .ok_or_else(|| invalid(format!("'{key}' entries must be finite numbers")))
                })
                .collect()
        };
        let kind = match v.get("kind").and_then(Value::as_str).unwrap_or("simulate") {
            "simulate" => {
                let times = numbers(
                    v.get("times")
                        .ok_or_else(|| invalid("simulate jobs need 'times'".into()))?,
                    "times",
                )?;
                if times.is_empty() || times.windows(2).any(|w| w[0] >= w[1]) || times[0] <= 0.0 {
                    return Err(invalid(
                        "'times' must be positive and strictly ascending".into(),
                    ));
                }
                JobKind::Simulate { times }
            }
            "estimate" => {
                let files_val = v
                    .get("files")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| invalid("estimate jobs need a 'files' array".into()))?;
                if files_val.is_empty() {
                    return Err(invalid("estimate jobs need at least one file".into()));
                }
                let mut files = Vec::with_capacity(files_val.len());
                for (i, f) in files_val.iter().enumerate() {
                    let label = f
                        .get("label")
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .unwrap_or_else(|| format!("file{i}"));
                    let times = numbers(
                        f.get("times")
                            .ok_or_else(|| invalid(format!("file {i} needs 'times'")))?,
                        "times",
                    )?;
                    let values = numbers(
                        f.get("values")
                            .ok_or_else(|| invalid(format!("file {i} needs 'values'")))?,
                        "values",
                    )?;
                    if times.len() != values.len() || times.is_empty() {
                        return Err(invalid(format!(
                            "file {i}: 'times' and 'values' must be equal-length and non-empty"
                        )));
                    }
                    let mut file = ExperimentFile {
                        label,
                        ..ExperimentFile::default()
                    };
                    for (k, (&t, &value)) in times.iter().zip(&values).enumerate() {
                        file.push(t, value)
                            .map_err(|bad| invalid(format!("file {i}, record {k}: {bad}")))?;
                    }
                    files.push(file);
                }
                let workers = v
                    .get("workers")
                    .map(|w| {
                        w.as_u64()
                            .filter(|&w| w >= 1)
                            .ok_or_else(|| invalid("'workers' must be a positive integer".into()))
                    })
                    .transpose()?
                    .unwrap_or(2) as usize;
                JobKind::Estimate { files, workers }
            }
            other => {
                return Err(invalid(format!(
                    "unknown kind '{other}' (expected simulate or estimate)"
                )))
            }
        };
        Ok(JobRequest {
            id,
            tenant,
            source,
            observe,
            kind,
            deadline_ms,
            level,
        })
    }
}

/// Structured per-job failures. Exactly one of these kinds terminates
/// every admitted-but-unsuccessful job; none of them take the server or
/// a co-tenant down with them.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The admission queue was full; the job was never enqueued. Retry
    /// later (backoff recommended) — nothing was computed.
    Rejected {
        /// The queue capacity that was exhausted.
        capacity: usize,
    },
    /// The request line failed parsing or validation; never enqueued.
    Invalid {
        /// What was malformed.
        message: String,
    },
    /// The model failed to compile (diagnostic text included).
    Compile {
        /// The compiler diagnostic.
        message: String,
    },
    /// The solve failed on a numerical ground.
    Solver {
        /// The solver's error.
        message: String,
    },
    /// The per-job deadline fired; the solve was cancelled at a step
    /// boundary. Partial work is discarded.
    Deadline {
        /// The deadline that was exceeded.
        deadline_ms: u64,
    },
    /// The job's worker panicked; the panic was contained and the
    /// worker kept serving other jobs.
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The server is draining and no longer admits jobs.
    Shutdown,
}

impl JobError {
    /// Stable lowercase kind tag for the wire and for tests.
    pub fn kind(&self) -> &'static str {
        match self {
            JobError::Rejected { .. } => "rejected",
            JobError::Invalid { .. } => "invalid",
            JobError::Compile { .. } => "compile",
            JobError::Solver { .. } => "solver",
            JobError::Deadline { .. } => "deadline",
            JobError::Panicked { .. } => "panicked",
            JobError::Shutdown => "shutdown",
        }
    }

    /// Human-readable detail line.
    pub fn message(&self) -> String {
        match self {
            JobError::Rejected { capacity } => {
                format!("admission queue full (capacity {capacity})")
            }
            JobError::Invalid { message }
            | JobError::Compile { message }
            | JobError::Solver { message }
            | JobError::Panicked { message } => message.clone(),
            JobError::Deadline { deadline_ms } => {
                format!("deadline of {deadline_ms} ms exceeded")
            }
            JobError::Shutdown => "server is draining; no new jobs admitted".to_string(),
        }
    }

    /// The `error` event line for this failure.
    pub fn event(&self, id: &str) -> String {
        obj([
            ("event", "error".into()),
            ("id", id.into()),
            (
                "error",
                obj([
                    ("kind", self.kind().into()),
                    ("message", self.message().into()),
                ]),
            ),
        ])
        .to_json()
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind(), self.message())
    }
}

impl std::error::Error for JobError {}

/// The `accepted` admission event.
pub fn accepted_event(id: &str, queue_depth: usize) -> String {
    obj([
        ("event", "accepted".into()),
        ("id", id.into()),
        ("queue_depth", queue_depth.into()),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_simulate_request() {
        let req = JobRequest::parse(
            r#"{"id":"j1","source":"rate K = 1;","times":[0.5,1.0],"observe":["X"]}"#,
        )
        .unwrap();
        assert_eq!(req.id, "j1");
        assert_eq!(req.tenant, "default");
        assert_eq!(req.level, OptLevel::Full);
        assert_eq!(
            req.kind,
            JobKind::Simulate {
                times: vec![0.5, 1.0]
            }
        );
        assert_eq!(req.deadline_ms, None);
    }

    #[test]
    fn parses_an_estimate_request() {
        let req = JobRequest::parse(
            r#"{"id":"e1","tenant":"acme","kind":"estimate","source":"s","workers":3,
                "files":[{"label":"a","times":[0.1,0.2],"values":[1.0,2.0]}]}"#,
        )
        .unwrap();
        match req.kind {
            JobKind::Estimate { files, workers } => {
                assert_eq!(workers, 3);
                assert_eq!(files.len(), 1);
                assert_eq!(files[0].label, "a");
                assert_eq!(files[0].times, [0.1, 0.2]);
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_requests_as_invalid() {
        for bad in [
            "not json",
            r#"{"id":"x"}"#,
            r#"{"id":"x","source":"s","times":[]}"#,
            r#"{"id":"x","source":"s","times":[2.0,1.0]}"#,
            r#"{"id":"x","source":"s","times":[0.5],"deadline_ms":-3}"#,
            r#"{"id":"x","source":"s","kind":"teleport"}"#,
            r#"{"id":"x","source":"s","times":[0.5],"level":"turbo"}"#,
            r#"{"id":"x","source":"s","kind":"estimate","files":[]}"#,
            r#"{"id":"x","source":"s","kind":"estimate","files":[{"times":[0.5,0.2],"values":[1,1]}]}"#,
            r#"{"id":"x","source":"s","kind":"estimate","files":[{"times":[-0.1,0.2],"values":[1,1]}]}"#,
        ] {
            let err = JobRequest::parse(bad).unwrap_err();
            assert_eq!(err.kind(), "invalid", "{bad}");
        }
    }

    #[test]
    fn error_events_are_structured() {
        let e = JobError::Deadline { deadline_ms: 50 };
        let line = e.event("j9");
        let v = crate::json::parse(&line).unwrap();
        assert_eq!(v.get("event").and_then(Value::as_str), Some("error"));
        assert_eq!(v.get("id").and_then(Value::as_str), Some("j9"));
        let err = v.get("error").unwrap();
        assert_eq!(err.get("kind").and_then(Value::as_str), Some("deadline"));
    }
}
