//! Error types of the networked runtime.

use crate::wire::WireError;

/// Process exit code for a run ended by [`NetError::FaultInjected`]. A chaos
/// harness supervising real processes uses this to tell a planned kill from an
/// incidental crash (which exits 1) without parsing stderr.
pub const FAULT_EXIT_CODE: i32 = 43;

/// Anything that can go wrong in the networked runtime: transport I/O, malformed
/// frames, or protocol violations.
#[derive(Debug)]
pub enum NetError {
    /// An underlying socket or channel operation failed.
    Io(std::io::Error),
    /// A frame failed to decode.
    Wire(WireError),
    /// The peer hung up mid-run.
    Disconnected,
    /// The peer violated the protocol (wrong message, bad handshake, config mismatch).
    Protocol(String),
    /// A serving role stopped the run on its `abort` fault plan
    /// (`--fault server0:push:abort:N`, `coord:push:abort:N`) and broadcast the
    /// server-error `Shutdown`.
    Aborted {
        /// Pushes the aborting role had applied when the plan came due.
        pushes: u64,
    },
    /// A spawned worker process failed.
    WorkerProcess(String),
    /// A labelled peer (e.g. one shard server of a group) produced no frame within the
    /// connection's read timeout. Raised instead of stalling forever on a blocking
    /// read, so losing one shard server turns into a clear, attributable error.
    PeerTimeout {
        /// Human-readable name of the unresponsive peer ("shard server 1 at ADDR").
        peer: String,
        /// The read timeout that elapsed, in milliseconds.
        timeout_ms: u64,
    },
    /// A labelled peer closed its connection mid-run. Carries everything a
    /// reconnecting client needs: where the peer lived, which rank this side spoke
    /// as, and the last weight version confirmed before the loss (so a resumed
    /// session can pull deltas against its cache instead of the full model).
    PeerLost {
        /// Human-readable name of the lost peer.
        peer: String,
        /// The peer's address, when known (`None` for in-process loopback links).
        addr: Option<String>,
        /// The rank this side identified as, when known.
        rank: Option<u32>,
        /// The last server clock (weight version) confirmed before the loss.
        last_clock: Option<u64>,
    },
    /// The structured chaos hook fired: this process killed itself on schedule
    /// according to its `restart` or `evict` fault plan. Distinct from
    /// [`NetError::Aborted`] so the chaos matrix can tell a planned kill from an
    /// orderly stop or an incidental failure.
    FaultInjected {
        /// The plan that fired, in the CLI `role:phase:action:after` form.
        plan: String,
    },
    /// Writing or reading a durable checkpoint failed (I/O, truncation, corruption,
    /// or job-digest skew).
    Checkpoint(dssp_ps::CheckpointError),
    /// A shard server refused an epoch-stamped request because the client routed by a
    /// retired (or not-yet-committed) group layout. Retryable: an empty `assignment`
    /// means the server is frozen mid-migration (wait and retry), a non-empty one
    /// carries the committed layout to adopt before retrying.
    EpochRefused {
        /// The epoch the server is at (or frozen toward).
        epoch: u64,
        /// The committed shard→server assignment, empty while the server is frozen.
        assignment: Vec<u32>,
    },
    /// A connection thread of a TCP server end panicked while it read a frame or ran
    /// the serving step on one: the run ends with this error instead of waiting for a
    /// thread that is gone.
    ReaderPanicked,
    /// A ranked client connection closed cleanly mid-run (server side). The serving
    /// loop decides whether that is fatal — a single server treats any worker EOF as a
    /// failed run, while a shard server outlives workers that already finished and
    /// only treats its *coordinator*'s disappearance as fatal.
    ClientLost {
        /// The transport rank of the closed connection.
        rank: usize,
    },
}

impl NetError {
    /// Whether this is an injected kill ([`NetError::FaultInjected`]): the process
    /// dies as a crash would, without any goodbye to its peers.
    pub fn is_injected_kill(&self) -> bool {
        matches!(self, NetError::FaultInjected { .. })
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport I/O error: {e}"),
            NetError::Wire(e) => write!(f, "wire protocol error: {e}"),
            NetError::Disconnected => write!(f, "peer disconnected mid-run"),
            NetError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            NetError::Aborted { pushes } => {
                write!(f, "run aborted after {pushes} pushes (abort fault plan)")
            }
            NetError::WorkerProcess(msg) => write!(f, "worker process failed: {msg}"),
            NetError::PeerTimeout { peer, timeout_ms } => {
                write!(
                    f,
                    "no frame from {peer} within {timeout_ms} ms (peer dead or stalled)"
                )
            }
            NetError::PeerLost {
                peer,
                addr,
                rank,
                last_clock,
            } => {
                write!(f, "{peer} closed the connection mid-run")?;
                if let Some(addr) = addr {
                    write!(f, " (addr {addr}")?;
                    if let Some(rank) = rank {
                        write!(f, ", rank {rank}")?;
                    }
                    if let Some(clock) = last_clock {
                        write!(f, ", last confirmed clock {clock}")?;
                    }
                    write!(f, ")")?;
                }
                Ok(())
            }
            NetError::FaultInjected { plan } => {
                write!(f, "fault plan fired: {plan}")
            }
            NetError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
            NetError::EpochRefused { epoch, assignment } => {
                if assignment.is_empty() {
                    write!(
                        f,
                        "request refused: layout epoch {epoch} migration in flight"
                    )
                } else {
                    write!(
                        f,
                        "request refused: retired layout, group committed epoch {epoch}"
                    )
                }
            }
            NetError::ClientLost { rank } => {
                write!(f, "client {rank} closed its connection mid-run")
            }
            NetError::ReaderPanicked => {
                write!(f, "a connection thread panicked while serving the run")
            }
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Wire(e) => Some(e),
            NetError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

impl From<dssp_ps::CheckpointError> for NetError {
    fn from(e: dssp_ps::CheckpointError) -> Self {
        NetError::Checkpoint(e)
    }
}

/// A kill plan that came due becomes the error its process dies with.
impl From<dssp_core::driver::FaultPlan> for NetError {
    fn from(plan: dssp_core::driver::FaultPlan) -> Self {
        NetError::FaultInjected {
            plan: plan.to_spec(),
        }
    }
}
