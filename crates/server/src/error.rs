//! The unified error type of the delivery daemon and its client.
//!
//! Every fallible public API in this crate returns [`ServerError`] instead
//! of a bare `io::Error` or a stringly `Result<_, String>`: callers can
//! match on the failure class (I/O, protocol, configuration, checkpoint,
//! retry exhaustion) and walk `source()` chains for the root cause.

use crate::wire::ErrorCode;
use std::error::Error;
use std::fmt;
use std::io;

/// Result alias used across the server crate's public API.
pub type ServerResult<T> = Result<T, ServerError>;

/// Anything that can go wrong in the daemon, its wire protocol or client.
#[derive(Debug)]
pub enum ServerError {
    /// An underlying socket or file operation failed.
    Io(io::Error),
    /// A frame violated the wire protocol (bad length, UTF-8, JSON shape).
    Frame(String),
    /// The peer speaks an unsupported protocol version.
    ProtoMismatch {
        /// The version this build speaks.
        ours: u32,
        /// The version found on the wire.
        theirs: u32,
    },
    /// The server answered with a typed [`crate::wire::Response::Error`].
    Rejected {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable cause.
        message: String,
    },
    /// The server answered, but not with the expected response kind.
    UnexpectedResponse {
        /// What the request called for.
        expected: &'static str,
        /// Debug rendering of what actually arrived.
        got: String,
    },
    /// The connection closed before a response arrived.
    ConnectionClosed,
    /// The configuration cannot run.
    Config(ConfigError),
    /// A checkpoint file is missing, corrupt, or incompatible.
    Checkpoint {
        /// Path of the offending file or directory.
        path: String,
        /// What was wrong with it.
        detail: String,
    },
    /// Every retry attempt failed; `last` is the final attempt's error.
    RetriesExhausted {
        /// Attempts made, including the first.
        attempts: u32,
        /// The error from the last attempt.
        last: Box<ServerError>,
    },
    /// A wire-capture file could not be written or read, or is corrupt
    /// (see [`crate::record`]).
    Capture(crate::record::CaptureError),
}

impl ServerError {
    /// Whether retrying the operation could plausibly succeed (transient
    /// I/O and closed connections), as opposed to deterministic failures
    /// like protocol mismatches or invalid configuration.
    pub fn is_transient(&self) -> bool {
        matches!(self, ServerError::Io(_) | ServerError::ConnectionClosed)
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "i/o error: {e}"),
            ServerError::Frame(detail) => write!(f, "protocol frame error: {detail}"),
            ServerError::ProtoMismatch { ours, theirs } => {
                write!(f, "protocol version mismatch: we speak v{ours}, peer sent v{theirs}")
            }
            ServerError::Rejected { code, message } => {
                write!(f, "server rejected request ({code:?}): {message}")
            }
            ServerError::UnexpectedResponse { expected, got } => {
                write!(f, "expected {expected} response, got {got}")
            }
            ServerError::ConnectionClosed => write!(f, "connection closed by peer"),
            ServerError::Config(e) => write!(f, "invalid configuration: {e}"),
            ServerError::Checkpoint { path, detail } => {
                write!(f, "checkpoint {path}: {detail}")
            }
            ServerError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
            ServerError::Capture(e) => write!(f, "{e}"),
        }
    }
}

impl Error for ServerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServerError::Io(e) => Some(e),
            ServerError::Config(e) => Some(e),
            ServerError::Capture(e) => Some(e),
            ServerError::RetriesExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<ConfigError> for ServerError {
    fn from(e: ConfigError) -> Self {
        ServerError::Config(e)
    }
}

/// A specific way a [`crate::ServerConfig`] can be unusable, produced by
/// [`crate::ServerConfigBuilder::build`] and [`crate::ServerConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `shards` was zero.
    ZeroShards,
    /// `queue_capacity` was zero.
    ZeroQueueCapacity,
    /// `round_secs` was zero, negative, or NaN.
    BadRoundSecs,
    /// A periodic checkpoint interval was set without a checkpoint
    /// directory to write into.
    CheckpointIntervalWithoutDir,
    /// A fault-injection probability was outside `[0, 1]` or NaN.
    BadFaultRate,
    /// An alert rule or watchdog knob was unusable; the message names
    /// the offending rule and field.
    BadAlert(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroShards => write!(f, "shards must be at least 1"),
            ConfigError::ZeroQueueCapacity => write!(f, "queue_capacity must be at least 1"),
            ConfigError::BadRoundSecs => write!(f, "round_secs must be positive"),
            ConfigError::CheckpointIntervalWithoutDir => {
                write!(f, "checkpoint_every_rounds requires checkpoint_dir to be set")
            }
            ConfigError::BadFaultRate => {
                write!(f, "fault probabilities must lie in [0, 1]")
            }
            ConfigError::BadAlert(why) => write!(f, "alerts: {why}"),
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source_chain() {
        let io = io::Error::new(io::ErrorKind::ConnectionReset, "reset by peer");
        let err =
            ServerError::RetriesExhausted { attempts: 3, last: Box::new(ServerError::Io(io)) };
        assert!(err.to_string().contains("3 attempts"));
        // source() walks RetriesExhausted -> Io -> io::Error.
        let last = err.source().expect("has source");
        assert!(last.to_string().contains("i/o error"));
        let root = last.source().expect("io source");
        assert!(root.to_string().contains("reset by peer"));
    }

    #[test]
    fn config_error_wraps() {
        let err: ServerError = ConfigError::ZeroShards.into();
        assert!(err.to_string().contains("shards"));
        assert!(err.source().is_some());
        assert!(!err.is_transient());
    }

    #[test]
    fn transience_classification() {
        assert!(ServerError::ConnectionClosed.is_transient());
        assert!(ServerError::from(io::Error::other("x")).is_transient());
        assert!(!ServerError::ProtoMismatch { ours: 2, theirs: 1 }.is_transient());
        assert!(!ServerError::Frame("bad".into()).is_transient());
    }
}
