//! Error type of the command-line interface.

use std::fmt;

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// The command line itself is malformed (unknown command, missing flag, bad value).
    Usage(String),
    /// A file could not be read or written.
    Io(String),
    /// A JSON document could not be parsed or produced.
    Json(String),
    /// An algorithm reported an error (infeasible throughput, unsupported instance, …).
    Algorithm(String),
    /// A well-formed scheme document violates its feasibility constraints.
    InvalidScheme(String),
    /// A well-formed checkpoint document cannot be resumed (it violates an invariant of
    /// the run, session or controller state it describes).
    InvalidCheckpoint(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Io(msg) => write!(f, "I/O error: {msg}"),
            CliError::Json(msg) => write!(f, "JSON error: {msg}"),
            CliError::Algorithm(msg) => write!(f, "algorithm error: {msg}"),
            CliError::InvalidScheme(msg) => write!(f, "invalid scheme: {msg}"),
            CliError::InvalidCheckpoint(msg) => write!(f, "invalid checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e.to_string())
    }
}

impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> Self {
        CliError::Json(e.to_string())
    }
}

impl From<bmp_core::CoreError> for CliError {
    fn from(e: bmp_core::CoreError) -> Self {
        CliError::Algorithm(e.to_string())
    }
}

impl From<bmp_sim::CheckpointError> for CliError {
    fn from(e: bmp_sim::CheckpointError) -> Self {
        CliError::InvalidCheckpoint(e.to_string())
    }
}

impl From<bmp_platform::PlatformError> for CliError {
    fn from(e: bmp_platform::PlatformError) -> Self {
        CliError::Algorithm(e.to_string())
    }
}

impl From<bmp_trees::TreesError> for CliError {
    fn from(e: bmp_trees::TreesError) -> Self {
        CliError::Algorithm(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_prefixes() {
        assert!(CliError::Usage("x".into()).to_string().starts_with("usage"));
        assert!(CliError::Io("x".into()).to_string().starts_with("I/O"));
        assert!(CliError::Json("x".into()).to_string().starts_with("JSON"));
        assert!(CliError::Algorithm("x".into())
            .to_string()
            .starts_with("algorithm"));
        assert!(CliError::InvalidScheme("x".into())
            .to_string()
            .starts_with("invalid scheme"));
        assert!(CliError::InvalidCheckpoint("x".into())
            .to_string()
            .starts_with("invalid checkpoint"));
    }

    #[test]
    fn conversions() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        assert!(matches!(CliError::from(io), CliError::Io(_)));
        let json = serde_json::from_str::<u32>("not json").unwrap_err();
        assert!(matches!(CliError::from(json), CliError::Json(_)));
        let core = bmp_core::CoreError::InvalidWord("bad".into());
        assert!(matches!(CliError::from(core), CliError::Algorithm(_)));
        let platform = bmp_platform::PlatformError::EmptyInstance;
        assert!(matches!(CliError::from(platform), CliError::Algorithm(_)));
        let trees = bmp_trees::TreesError::NotAcyclic;
        assert!(matches!(CliError::from(trees), CliError::Algorithm(_)));
        let checkpoint = bmp_sim::CheckpointError("bad".into());
        assert!(matches!(
            CliError::from(checkpoint),
            CliError::InvalidCheckpoint(_)
        ));
    }
}
