//! RCIP error type.

use std::fmt;

/// Errors from parsing or evaluating rate-constant definitions.
#[derive(Debug, Clone, PartialEq)]
pub enum RcipError {
    /// Lexical or syntactic error at a line/column.
    Syntax {
        /// 1-based line.
        line: usize,
        /// 1-based column.
        column: usize,
        /// What was expected or found.
        message: String,
    },
    /// A definition references a constant that is never defined.
    Undefined {
        /// The missing constant.
        name: String,
        /// The definition that referenced it.
        referenced_by: String,
    },
    /// Definitions form a dependency cycle.
    Cycle(Vec<String>),
    /// The same constant is defined twice.
    Redefined(String),
    /// Division by zero while evaluating a definition.
    DivisionByZero(String),
    /// A definition evaluates to infinity or NaN.
    NotFinite {
        /// The constant.
        name: String,
        /// What it evaluated to.
        value: f64,
    },
    /// Evaluating a definition nests deeper than the evaluator goes
    /// (through its expression and the definitions it references).
    TooDeep(String),
    /// A bound references an unknown constant.
    BoundForUnknown(String),
    /// Lower bound exceeds upper bound.
    EmptyBound {
        /// The bounded constant.
        name: String,
        /// Offending lower bound.
        lo: f64,
        /// Offending upper bound.
        hi: f64,
    },
}

impl fmt::Display for RcipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RcipError::Syntax {
                line,
                column,
                message,
            } => write!(f, "syntax error at {line}:{column}: {message}"),
            RcipError::Undefined {
                name,
                referenced_by,
            } => write!(
                f,
                "constant '{name}' referenced by '{referenced_by}' is never defined"
            ),
            RcipError::Cycle(names) => write!(f, "definition cycle: {}", names.join(" -> ")),
            RcipError::Redefined(name) => write!(f, "constant '{name}' defined twice"),
            RcipError::DivisionByZero(name) => {
                write!(f, "division by zero while evaluating '{name}'")
            }
            RcipError::NotFinite { name, value } => {
                write!(
                    f,
                    "constant '{name}' evaluates to {value}, not a finite number"
                )
            }
            RcipError::TooDeep(name) => {
                write!(f, "evaluating '{name}' nests too deeply")
            }
            RcipError::BoundForUnknown(name) => {
                write!(f, "bound given for unknown constant '{name}'")
            }
            RcipError::EmptyBound { name, lo, hi } => {
                write!(f, "empty bound for '{name}': [{lo}, {hi}]")
            }
        }
    }
}

impl std::error::Error for RcipError {}

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, RcipError>;
