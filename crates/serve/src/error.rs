//! Typed client-facing service errors.

/// Why the service refused a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The admission queue is full (backpressure). Retry after roughly
    /// the given number of broadcast ticks — the scheduler's estimate
    /// of when the budgeted admission will have worked the queue down.
    QueueFull {
        /// Suggested retry delay in broadcast ticks.
        retry_after_ticks: u64,
    },
    /// The service is draining: it still answers everything already
    /// admitted, but accepts no new work.
    Draining,
    /// The service has fully stopped.
    Stopped,
    /// The host id exceeds the world's fleet capacity.
    HostOutOfRange {
        /// The offending host id.
        host: usize,
        /// Fleet capacity (maximum host id + 1).
        capacity: usize,
    },
    /// The host has no open session (register first).
    UnknownSession {
        /// The offending host id.
        host: usize,
    },
    /// The host's session is already open: a second `register` is
    /// refused, and nothing is staged.
    AlreadyRegistered {
        /// The offending host id.
        host: usize,
    },
    /// A reported position has a NaN or infinite coordinate. (A finite
    /// position outside the world is accepted as reported.)
    BadPosition {
        /// The host whose position it was.
        host: usize,
    },
    /// A submitted query the world cannot answer: a kNN `k` of zero or
    /// above the world's POI count, or a window with a non-finite or
    /// inverted corner.
    BadQuery {
        /// The submitting host.
        host: usize,
    },
    /// A lockstep service requires every submission to carry a
    /// [`crate::QueryTag`]; a scaled-time service stamps its own and
    /// rejects tagged submissions.
    TagMismatch,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull { retry_after_ticks } => {
                write!(
                    f,
                    "admission queue full; retry after ~{retry_after_ticks} ticks"
                )
            }
            ServeError::Draining => write!(f, "service is draining"),
            ServeError::Stopped => write!(f, "service has stopped"),
            ServeError::HostOutOfRange { host, capacity } => {
                write!(f, "host {host} out of range (fleet capacity {capacity})")
            }
            ServeError::UnknownSession { host } => {
                write!(f, "host {host} has no open session")
            }
            ServeError::AlreadyRegistered { host } => {
                write!(f, "host {host} already has an open session")
            }
            ServeError::BadPosition { host } => {
                write!(f, "host {host} reported a non-finite position")
            }
            ServeError::BadQuery { host } => {
                write!(f, "host {host} submitted a query the world cannot answer")
            }
            ServeError::TagMismatch => {
                write!(f, "submission tag does not match the service's pacing mode")
            }
        }
    }
}

impl std::error::Error for ServeError {}
