//! Span-carrying diagnostics: one error currency for the whole pipeline.
//!
//! Every frontend error (`RdlError`, `RcipError`, `OdegenError`) converts
//! into a [`Diagnostic`] tagged with the [`Stage`] that produced it and,
//! when the source position is known, a [`Span`]. `rmsc` renders
//! diagnostics against the original source text with a caret line.

use std::fmt;

use rms_odegen::OdegenError;
use rms_rcip::RcipError;
use rms_rdl::RdlError;

use crate::stage::Stage;

/// A 1-based source position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub column: usize,
}

/// How serious a diagnostic is: errors abort the compile, warnings ride
/// along on the produced artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Severity {
    /// The compile failed.
    #[default]
    Error,
    /// The compile succeeded but produced something the user should see
    /// (e.g. closure stopped at the generation cap without a fixpoint).
    Warning,
}

impl Severity {
    fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// A collection of diagnostics (the warnings attached to an artifact).
pub type Diagnostics = Vec<Diagnostic>;

/// A pipeline error or warning with provenance: which stage produced it,
/// where in the source (when known), and why.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The stage that produced the diagnostic.
    pub stage: Stage,
    /// Human-readable description.
    pub message: String,
    /// Source position, when the producing stage tracks one.
    pub span: Option<Span>,
    /// Error (aborts the compile) or warning (carried on the artifact).
    pub severity: Severity,
}

impl Diagnostic {
    /// A spanless error diagnostic.
    pub fn new(stage: Stage, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            stage,
            message: message.into(),
            span: None,
            severity: Severity::Error,
        }
    }

    /// A spanless warning diagnostic.
    pub fn warning(stage: Stage, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::new(stage, message)
        }
    }

    /// Attach a span (1-based line/column; line 0 means "unknown" and is
    /// dropped).
    pub fn with_span(mut self, line: usize, column: usize) -> Diagnostic {
        if line > 0 {
            self.span = Some(Span { line, column });
        }
        self
    }

    /// Render against the source text, rustc-style:
    ///
    /// ```text
    /// error[parse]: expected ';'
    ///  --> model.rdl:3:7
    ///   |
    /// 3 | molecule X = "C"
    ///   |       ^
    /// ```
    ///
    /// Without a span only the header line is produced.
    pub fn render(&self, filename: &str, source: &str) -> String {
        let mut out = format!(
            "{}[{}]: {}",
            self.severity.label(),
            self.stage,
            self.message
        );
        let Some(span) = self.span else {
            return out;
        };
        out.push_str(&format!("\n --> {filename}:{}:{}", span.line, span.column));
        if let Some(text) = source.lines().nth(span.line - 1) {
            let gutter = span.line.to_string();
            let pad = " ".repeat(gutter.len());
            out.push_str(&format!("\n{pad} |"));
            out.push_str(&format!("\n{gutter} | {text}"));
            let caret_pad = " ".repeat(span.column.saturating_sub(1));
            out.push_str(&format!("\n{pad} | {caret_pad}^"));
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}",
            self.severity.label(),
            self.stage,
            self.message
        )?;
        if let Some(span) = self.span {
            write!(f, " at {}:{}", span.line, span.column)?;
        }
        Ok(())
    }
}

impl std::error::Error for Diagnostic {}

impl From<RcipError> for Diagnostic {
    fn from(e: RcipError) -> Diagnostic {
        // An RDL file's rate sub-source keeps every statement at its
        // place in the file, so RCIP positions are file positions.
        match e {
            RcipError::Syntax {
                line,
                column,
                message,
            } => Diagnostic::new(Stage::Rcip, message).with_span(line, column),
            other => Diagnostic::new(Stage::Rcip, other.to_string()),
        }
    }
}

impl From<RdlError> for Diagnostic {
    fn from(e: RdlError) -> Diagnostic {
        match e {
            RdlError::Syntax {
                line,
                column,
                ref message,
            } => Diagnostic::new(Stage::Parse, message.clone()).with_span(line, column),
            RdlError::DuplicateMolecule(_)
            | RdlError::DuplicateRule(_)
            | RdlError::InvalidRule { .. } => Diagnostic::new(Stage::Parse, e.to_string()),
            RdlError::BadVariantRange { .. } | RdlError::SeedLimit { .. } => {
                Diagnostic::new(Stage::Expand, e.to_string())
            }
            RdlError::Rcip(inner) => inner.into(),
            RdlError::BadSmiles { .. }
            | RdlError::UnknownMolecule { .. }
            | RdlError::UnknownRate { .. }
            | RdlError::SpeciesLimitExceeded(_)
            | RdlError::ActionFailed { .. } => Diagnostic::new(Stage::Network, e.to_string()),
        }
    }
}

impl From<OdegenError> for Diagnostic {
    fn from(e: OdegenError) -> Diagnostic {
        Diagnostic::new(Stage::OdeGen, e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn syntax_error_maps_to_parse_with_span() {
        let d: Diagnostic = RdlError::Syntax {
            line: 3,
            column: 7,
            message: "expected ';'".into(),
        }
        .into();
        assert_eq!(d.stage, Stage::Parse);
        assert_eq!(d.span, Some(Span { line: 3, column: 7 }));
    }

    #[test]
    fn seed_limit_is_an_expand_diagnostic() {
        let d: Diagnostic = RdlError::SeedLimit {
            molecule: "PolyS".into(),
            message: "variant range reaches n = 100000, past limit atoms 12".into(),
        }
        .into();
        assert_eq!(
            d.to_string(),
            "error[expand]: molecule 'PolyS': variant range reaches n = 100000, past limit atoms 12"
        );
    }

    #[test]
    fn zero_line_span_dropped() {
        let d: Diagnostic = RdlError::Syntax {
            line: 0,
            column: 0,
            message: "m".into(),
        }
        .into();
        assert_eq!(d.span, None);
    }

    #[test]
    fn render_points_at_column() {
        let d = Diagnostic::new(Stage::Parse, "expected ';'").with_span(2, 5);
        let src = "line one\nabc def\nline three";
        let rendered = d.render("m.rdl", src);
        assert_eq!(
            rendered,
            "error[parse]: expected ';'\n --> m.rdl:2:5\n  |\n2 | abc def\n  |     ^"
        );
    }

    #[test]
    fn render_without_span_is_header_only() {
        let d = Diagnostic::new(Stage::OdeGen, "boom");
        assert_eq!(d.render("m.rdl", "src"), "error[odegen]: boom");
    }

    #[test]
    fn rcip_carries_stage() {
        let d: Diagnostic = RcipError::Cycle(vec!["A".into(), "B".into(), "A".into()]).into();
        assert_eq!(d.stage, Stage::Rcip);
        assert!(d.message.contains("A -> B -> A"));
    }
}
