//! Error type shared across the relational substrate.

use std::fmt;

/// Errors produced by the relational layer (and re-used by higher layers for
/// schema/type violations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelError {
    /// A relation name was not found in the catalog.
    UnknownRelation(String),
    /// A column name could not be resolved (possibly ambiguous).
    UnknownColumn(String),
    /// A value had the wrong type for the operation.
    TypeMismatch { expected: String, found: String },
    /// Tuple arity does not match the schema.
    ArityMismatch { expected: usize, found: usize },
    /// Input text could not be parsed into a value / relation.
    Parse(String),
    /// An execution aborted mid-flight; `kind` picks the recovery.
    Aborted { kind: AbortKind, message: String },
    /// Anything else (kept as a message to avoid a sprawling enum).
    Other(String),
}

/// Why an execution was aborted (see [`RelError::Aborted`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortKind {
    /// The execution panicked; the message is the payload's text.
    Panic,
    /// An unrecoverable injected fault (a machine lost with no checkpoint).
    Fault,
    /// A transient injected fault (a dropped delivery): retry-worthy.
    TransientFault,
}

impl fmt::Display for RelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelError::UnknownRelation(n) => write!(f, "unknown relation `{n}`"),
            RelError::UnknownColumn(n) => write!(f, "unknown or ambiguous column `{n}`"),
            RelError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            RelError::ArityMismatch { expected, found } => {
                write!(f, "arity mismatch: schema has {expected} columns, tuple has {found}")
            }
            RelError::Parse(m) => write!(f, "parse error: {m}"),
            RelError::Aborted { kind, message } => match kind {
                AbortKind::Panic => write!(f, "execution panicked: {message}"),
                AbortKind::Fault => write!(f, "fault: {message}"),
                AbortKind::TransientFault => write!(f, "transient fault: {message}"),
            },
            RelError::Other(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for RelError {}

impl RelError {
    /// Shorthand for a [`RelError::TypeMismatch`].
    pub fn type_mismatch(expected: impl Into<String>, found: impl Into<String>) -> Self {
        RelError::TypeMismatch { expected: expected.into(), found: found.into() }
    }

    /// True iff a bounded retry of the whole execution resolves this error.
    pub fn is_transient(&self) -> bool {
        matches!(self, RelError::Aborted { kind: AbortKind::TransientFault, .. })
    }
}
