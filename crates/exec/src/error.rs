//! Errors raised while executing a lowered pipeline.

use std::fmt;

/// What an [`ExecError`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecErrorKind {
    /// A bound input or output buffer does not meet the pipeline's
    /// interface: element type, number of dimensions, or origin.
    Shape,
    /// Anything else: unbound symbols, out-of-bounds accesses, failed
    /// assertions, or malformed (not fully lowered) statements.
    Run,
}

/// A runtime execution error: a buffer that does not meet the pipeline's
/// interface, unbound symbols, out-of-bounds accesses, failed assertions,
/// or malformed (not fully lowered) statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    kind: ExecErrorKind,
    message: String,
}

impl ExecError {
    /// Creates an [`ExecErrorKind::Run`] error with the given description.
    pub fn new(message: impl Into<String>) -> Self {
        ExecError {
            kind: ExecErrorKind::Run,
            message: message.into(),
        }
    }

    /// Creates an [`ExecErrorKind::Shape`] error with the given description.
    pub fn shape(message: impl Into<String>) -> Self {
        ExecError {
            kind: ExecErrorKind::Shape,
            message: message.into(),
        }
    }

    /// What the error reports.
    pub fn kind(&self) -> ExecErrorKind {
        self.kind
    }

    /// The description, without the `execution failed` prefix.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "execution failed: {}", self.message)
    }
}

impl std::error::Error for ExecError {}

/// Result alias for execution.
pub type Result<T> = std::result::Result<T, ExecError>;
