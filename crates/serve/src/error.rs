//! Typed errors for the classification service.

use appclass_metrics::ByeReason;
use std::fmt;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, ServeError>;

/// Everything that can go wrong on either side of a serving session.
///
/// Marked `#[non_exhaustive]` like the other error enums in the
/// workspace: downstream matches carry a wildcard arm so new failure
/// classes can be added without breaking them.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// A socket operation failed.
    Io(std::io::Error),
    /// A control frame failed to decode (bad checksum, bad envelope…).
    Wire(appclass_metrics::Error),
    /// The classification pipeline itself failed.
    Core(appclass_core::Error),
    /// A length prefix announced a frame beyond the protocol bound.
    FrameTooLarge {
        /// Announced size in bytes.
        size: usize,
        /// The protocol's hard cap.
        max: usize,
    },
    /// The peer closed the connection mid-protocol.
    ConnectionClosed,
    /// The versioned handshake failed.
    Handshake {
        /// What went wrong.
        reason: &'static str,
    },
    /// The server is not serving the model the client asked for.
    ModelMismatch {
        /// Fingerprint the client offered.
        offered: u64,
        /// Fingerprint the server serves.
        served: u64,
    },
    /// The peer refused or terminated the session with a typed reason
    /// (admission control, frame budget, shutdown…).
    Rejected {
        /// The `Bye` reason the peer sent.
        reason: ByeReason,
    },
    /// A frame arrived that the protocol state machine does not allow.
    UnexpectedFrame {
        /// What the state machine was waiting for.
        expected: &'static str,
        /// The frame kind that actually arrived.
        got: &'static str,
    },
    /// A server thread — the acceptor or a shard — panicked (observed at
    /// join time).
    WorkerPanicked,
    /// The server refused the connection because it is shedding load.
    /// Unlike [`ServeError::Rejected`] with `SessionLimit` this is a soft
    /// refusal: the server asked the client to come back.
    Busy {
        /// The server's retry-after hint, in milliseconds.
        retry_after_ms: u32,
    },
    /// The client-side circuit breaker is open: recent attempts against
    /// this endpoint failed hard, and the cooldown has not elapsed. No
    /// connection was attempted.
    CircuitOpen {
        /// Milliseconds left until the breaker half-opens for a probe.
        cooldown_ms: u64,
    },
    /// The retry loop's wall-clock budget ran out before a connection
    /// succeeded. Unlike a raw [`ServeError::Busy`], this is terminal:
    /// the caller's deadline — not the server's hint — decided the
    /// outcome, and retrying again without a fresh budget is pointless.
    RetryBudgetExhausted {
        /// Connection attempts made before giving up.
        attempts: u32,
        /// The wall-clock budget that was exhausted, in milliseconds.
        deadline_ms: u64,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Wire(e) => write!(f, "wire error: {e}"),
            ServeError::Core(e) => write!(f, "classification error: {e}"),
            ServeError::FrameTooLarge { size, max } => {
                write!(f, "frame of {size} bytes exceeds the {max}-byte protocol bound")
            }
            ServeError::ConnectionClosed => write!(f, "connection closed by peer"),
            ServeError::Handshake { reason } => write!(f, "handshake failed: {reason}"),
            ServeError::ModelMismatch { offered, served } => {
                write!(f, "model mismatch: client wants {offered:#018x}, server has {served:#018x}")
            }
            ServeError::Rejected { reason } => write!(f, "session refused: {reason}"),
            ServeError::UnexpectedFrame { expected, got } => {
                write!(f, "protocol violation: expected {expected}, got {got}")
            }
            ServeError::WorkerPanicked => write!(f, "a server thread panicked"),
            ServeError::Busy { retry_after_ms } => {
                write!(f, "server busy: retry after {retry_after_ms} ms")
            }
            ServeError::CircuitOpen { cooldown_ms } => {
                write!(f, "circuit breaker open: next probe in {cooldown_ms} ms")
            }
            ServeError::RetryBudgetExhausted { attempts, deadline_ms } => {
                write!(f, "retry budget exhausted: {attempts} attempts within {deadline_ms} ms")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Wire(e) => Some(e),
            ServeError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ServeError::ConnectionClosed
        } else {
            ServeError::Io(e)
        }
    }
}

impl From<appclass_metrics::Error> for ServeError {
    fn from(e: appclass_metrics::Error) -> Self {
        ServeError::Wire(e)
    }
}

impl From<appclass_core::Error> for ServeError {
    fn from(e: appclass_core::Error) -> Self {
        ServeError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(ServeError::ConnectionClosed.to_string().contains("closed"));
        assert!(ServeError::FrameTooLarge { size: 9, max: 4 }.to_string().contains("9"));
        assert!(ServeError::Handshake { reason: "no hello" }.to_string().contains("no hello"));
        assert!(ServeError::ModelMismatch { offered: 1, served: 2 }
            .to_string()
            .contains("mismatch"));
        assert!(ServeError::Rejected { reason: ByeReason::SessionLimit }
            .to_string()
            .contains("session limit"));
        assert!(ServeError::UnexpectedFrame { expected: "Hello", got: "Bye" }
            .to_string()
            .contains("Hello"));
        assert!(ServeError::Busy { retry_after_ms: 75 }.to_string().contains("75"));
        assert!(ServeError::CircuitOpen { cooldown_ms: 320 }.to_string().contains("320"));
        assert!(ServeError::RetryBudgetExhausted { attempts: 4, deadline_ms: 250 }
            .to_string()
            .contains("250"));
    }

    #[test]
    fn eof_maps_to_connection_closed() {
        let eof = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        assert!(matches!(ServeError::from(eof), ServeError::ConnectionClosed));
        let other = std::io::Error::new(std::io::ErrorKind::BrokenPipe, "pipe");
        assert!(matches!(ServeError::from(other), ServeError::Io(_)));
    }
}
