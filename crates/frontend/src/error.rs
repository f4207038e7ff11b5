//! Frontend errors.
//!
//! [`FrontendError`] carries a classification, a message, and the source
//! [`Span`] it refers to. It deliberately stays renderer-free beyond the
//! plain [`FrontendError::render`] line format: the shared diagnostics
//! framework in `syncopt-core` (`diag::frontend_diagnostic`) converts it
//! to a full rustc-style [`Diagnostic`] with a source snippet, so there is
//! a single snippet renderer for the whole pipeline.
//!
//! [`Diagnostic`]: https://docs.rs/syncopt-core

use crate::span::Span;
use std::error::Error;
use std::fmt;

/// An error produced while lexing, parsing, type checking, or inlining a
/// `minisplit` program.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontendError {
    kind: FrontendErrorKind,
    span: Span,
    message: String,
}

/// Broad classification of a [`FrontendError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrontendErrorKind {
    /// Invalid character, malformed literal, unterminated comment.
    Lex,
    /// Unexpected token / malformed syntax.
    Parse,
    /// Type mismatch, unknown identifier, illegal construct.
    Type,
    /// Problems during call inlining (recursion, missing `main`).
    Inline,
    /// The program nests deeper than the parser's limit
    /// ([`MAX_NESTING`](crate::parser::MAX_NESTING)).
    Nesting,
}

impl FrontendError {
    /// Creates a lexical error at `span`.
    pub fn lex(span: Span, message: impl Into<String>) -> Self {
        FrontendError {
            kind: FrontendErrorKind::Lex,
            span,
            message: message.into(),
        }
    }

    /// Creates a syntax error at `span`.
    pub fn parse(span: Span, message: impl Into<String>) -> Self {
        FrontendError {
            kind: FrontendErrorKind::Parse,
            span,
            message: message.into(),
        }
    }

    /// Creates a type error at `span`.
    pub fn ty(span: Span, message: impl Into<String>) -> Self {
        FrontendError {
            kind: FrontendErrorKind::Type,
            span,
            message: message.into(),
        }
    }

    /// Creates a nesting-limit error at `span`.
    pub fn nesting(span: Span, message: impl Into<String>) -> Self {
        FrontendError {
            kind: FrontendErrorKind::Nesting,
            span,
            message: message.into(),
        }
    }

    /// Creates an inlining error at `span`.
    pub fn inline(span: Span, message: impl Into<String>) -> Self {
        FrontendError {
            kind: FrontendErrorKind::Inline,
            span,
            message: message.into(),
        }
    }

    /// The classification of this error.
    pub fn kind(&self) -> FrontendErrorKind {
        self.kind
    }

    /// The source span the error refers to.
    pub fn span(&self) -> Span {
        self.span
    }

    /// The human-readable message, without location information.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Renders the error with line/column information computed from `src`.
    pub fn render(&self, src: &str) -> String {
        let (line, col) = self.span.line_col(src);
        format!("{}:{}: {}: {}", line, col, self.kind, self.message)
    }
}

impl fmt::Display for FrontendErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FrontendErrorKind::Lex => "lexical error",
            FrontendErrorKind::Parse => "syntax error",
            FrontendErrorKind::Type => "type error",
            FrontendErrorKind::Inline => "inline error",
            FrontendErrorKind::Nesting => "nesting error",
        };
        f.write_str(s)
    }
}

impl fmt::Display for FrontendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}: {}", self.kind, self.span, self.message)
    }
}

impl Error for FrontendError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_line_and_column() {
        let src = "x\nyz";
        let err = FrontendError::parse(Span::new(2, 3), "bad thing");
        assert_eq!(err.render(src), "2:1: syntax error: bad thing");
    }

    #[test]
    fn display_mentions_kind() {
        let err = FrontendError::ty(Span::new(0, 1), "mismatch");
        let s = err.to_string();
        assert!(s.contains("type error"), "{s}");
        assert!(s.contains("mismatch"), "{s}");
    }
}
