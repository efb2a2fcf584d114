//! Experimental data files.
//!
//! "Each file contains more than 3000 records of the form
//! `<t_i, property value>`, where `t_i` is a time step and property value
//! is a measure of the property that is to be predicted by the chemical
//! model (e.g. elasticity or stiffness of the rubber compound)." (§4.3)
//!
//! Files are plain text: `#` comments, then one `t value` pair per line.
//! "The data files are replicated across the processors."

use std::fmt::Write as _;
use std::path::Path;

/// One experiment's measured time series.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExperimentFile {
    /// Experiment label (e.g. formulation name).
    pub label: String,
    /// Sample times, strictly increasing.
    pub times: Vec<f64>,
    /// Measured property values, one per time.
    pub values: Vec<f64>,
}

/// Errors reading an experiment file.
#[derive(Debug)]
pub enum DataFileError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed record at a line number.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// Times not strictly increasing at a line.
    NonMonotonicTime {
        /// 1-based line number.
        line: usize,
    },
}

impl std::fmt::Display for DataFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataFileError::Io(e) => write!(f, "io error: {e}"),
            DataFileError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            DataFileError::NonMonotonicTime { line } => {
                write!(f, "non-monotonic time at line {line}")
            }
        }
    }
}

impl std::error::Error for DataFileError {}

impl From<std::io::Error> for DataFileError {
    fn from(e: std::io::Error) -> Self {
        DataFileError::Io(e)
    }
}

/// Why a `<t, value>` record cannot follow the ones already in a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BadRecord {
    /// The time is NaN, infinite or negative.
    Time,
    /// The value is NaN or infinite.
    Value,
    /// The time does not exceed the previous record's.
    NotAscending,
}

impl std::fmt::Display for BadRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BadRecord::Time => "time must be finite and non-negative",
            BadRecord::Value => "value must be finite",
            BadRecord::NotAscending => "times must be strictly ascending",
        })
    }
}

impl ExperimentFile {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the file has no records.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Append one record. The record rule lives here and nowhere else —
    /// times finite, non-negative and strictly ascending, values finite —
    /// so the text parser and inline (JSON) files cannot drift apart: a
    /// NaN compares false to everything and would otherwise pass an
    /// ordering check and reach the fit as a NaN residual.
    pub fn push(&mut self, t: f64, v: f64) -> Result<(), BadRecord> {
        if !t.is_finite() || t < 0.0 {
            return Err(BadRecord::Time);
        }
        if !v.is_finite() {
            return Err(BadRecord::Value);
        }
        if self.times.last().is_some_and(|&last| t <= last) {
            return Err(BadRecord::NotAscending);
        }
        self.times.push(t);
        self.values.push(v);
        Ok(())
    }

    /// Parse the text format.
    pub fn parse(label: &str, text: &str) -> Result<ExperimentFile, DataFileError> {
        let mut file = ExperimentFile {
            label: label.to_string(),
            ..ExperimentFile::default()
        };
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(t_str), Some(v_str)) = (parts.next(), parts.next()) else {
                return Err(DataFileError::Parse {
                    line: i + 1,
                    message: format!("expected 't value', found '{line}'"),
                });
            };
            if parts.next().is_some() {
                return Err(DataFileError::Parse {
                    line: i + 1,
                    message: "trailing fields".to_string(),
                });
            }
            let t: f64 = t_str.parse().map_err(|_| DataFileError::Parse {
                line: i + 1,
                message: format!("bad time '{t_str}'"),
            })?;
            let v: f64 = v_str.parse().map_err(|_| DataFileError::Parse {
                line: i + 1,
                message: format!("bad value '{v_str}'"),
            })?;
            file.push(t, v).map_err(|bad| match bad {
                BadRecord::NotAscending => DataFileError::NonMonotonicTime { line: i + 1 },
                BadRecord::Time | BadRecord::Value => DataFileError::Parse {
                    line: i + 1,
                    message: format!("{bad}, found '{line}'"),
                },
            })?;
        }
        Ok(file)
    }

    /// Render the text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# experiment: {}", self.label);
        let _ = writeln!(out, "# records: {}", self.len());
        for (t, v) in self.times.iter().zip(&self.values) {
            let _ = writeln!(out, "{t:e} {v:e}"); // shortest round-trip form
        }
        out
    }

    /// Read from disk.
    pub fn read(path: &Path) -> Result<ExperimentFile, DataFileError> {
        let text = std::fs::read_to_string(path)?;
        let label = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        ExperimentFile::parse(&label, &text)
    }

    /// Write to disk.
    pub fn write(&self, path: &Path) -> Result<(), DataFileError> {
        std::fs::write(path, self.to_text())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic() {
        let f = ExperimentFile::parse("x", "0.0 1.0\n1.0 0.5\n2.0 0.25\n").unwrap();
        assert_eq!(f.len(), 3);
        assert_eq!(f.times, vec![0.0, 1.0, 2.0]);
        assert_eq!(f.values, vec![1.0, 0.5, 0.25]);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let f = ExperimentFile::parse("x", "# header\n\n0 1 # inline\n1 2\n").unwrap();
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn round_trip() {
        let f = ExperimentFile {
            label: "trial".to_string(),
            times: vec![0.0, 0.5, 1.5],
            values: vec![1.0, 0.7, 0.2],
        };
        let f2 = ExperimentFile::parse("trial", &f.to_text()).unwrap();
        assert_eq!(f.times, f2.times);
        assert_eq!(f.values, f2.values);
    }

    #[test]
    fn errors_reported() {
        assert!(matches!(
            ExperimentFile::parse("x", "0.0\n"),
            Err(DataFileError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            ExperimentFile::parse("x", "0 1 2\n"),
            Err(DataFileError::Parse { .. })
        ));
        assert!(matches!(
            ExperimentFile::parse("x", "1 1\n0.5 2\n"),
            Err(DataFileError::NonMonotonicTime { line: 2 })
        ));
        assert!(matches!(
            ExperimentFile::parse("x", "abc 1\n"),
            Err(DataFileError::Parse { .. })
        ));
        // `"nan".parse::<f64>()` succeeds, and NaN passes any ordering test.
        for bad in ["nan 1.0", "inf 1.0", "-1 1.0", "0.5 nan"] {
            assert!(
                matches!(
                    ExperimentFile::parse("x", &format!("0 1\n{bad}\n")),
                    Err(DataFileError::Parse { line: 2, .. })
                ),
                "{bad}"
            );
        }
    }

    #[test]
    fn disk_round_trip() {
        let dir = std::env::temp_dir().join("rms_datafile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("exp01.dat");
        let f = ExperimentFile {
            label: "exp01".to_string(),
            times: (0..100).map(|i| i as f64 * 0.1).collect(),
            values: (0..100).map(|i| (i as f64 * -0.05).exp()).collect(),
        };
        f.write(&path).unwrap();
        let f2 = ExperimentFile::read(&path).unwrap();
        assert_eq!(f2.label, "exp01");
        assert_eq!(f2.len(), 100);
        for (a, b) in f.values.iter().zip(&f2.values) {
            assert!((a - b).abs() < 1e-12);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
