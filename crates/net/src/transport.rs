//! The transport abstraction and the in-process loopback implementation.
//!
//! A transport moves [`Message`]s between one server and `N` ranked workers. Two
//! implementations exist:
//!
//! * [`crate::tcp`] — real sockets, one blocking reader thread per connection;
//! * [`loopback`] — crossbeam channels inside one process, useful for tests and for
//!   proving that the networked server is bitwise-equivalent to the threaded runtime
//!   (no serialization happens, but the *protocol* — the opening pull, the weights
//!   that ride every `OK`, full versus delta replies — is exercised in full).
//!
//! Besides the owned-`Message` `send`/`recv` pair, both traits expose a buffer-reuse
//! fast path for the steady-state hot loop: workers push borrowed gradient slices
//! ([`WorkerTransport::send_push`]) and receive weights into caller-owned
//! weight/version caches ([`WorkerTransport::recv_pull_apply`]); the server ships
//! weights from a borrowed [`PullView`] of its store
//! ([`ServerTransport::send_pull_reply`]; a shard server through
//! [`ServerTransport::send_shard_reply`]) and hands consumed bulk buffers back to the
//! transport for recycling ([`ServerTransport::recycle_f32s`]). The TCP transport
//! implements these without staging: bulk frames are written from, and read into,
//! their final buffers, so neither endpoint copies a bulk byte twice or allocates per
//! message; the loopback transport keeps the simple owned-message defaults (its
//! purpose is equivalence testing, not throughput).
//!
//! [`WorkerTransport::pull_into`] — a request/reply pull carrying the *worker's*
//! cached versions (`PullDelta`) — predates the fused round; `run_worker` no longer
//! calls it and `serve` no longer answers `PullDelta`. It stays for the callers that
//! run their own serving loop over these transports.

use crate::wire::{self, Message, PullApplied, ShardUpdate};
use crate::NetError;
use crossbeam_channel::{unbounded, Receiver, Sender};

/// A borrowed snapshot of the server's parameter store, from which a pull reply —
/// full or delta — is written without copying the weights anywhere first.
///
/// `offsets` and `versions` come straight from the server's
/// [`dssp_ps::ShardedStore`]; `known` is what the receiving worker is known to hold,
/// per shard — the versions `serve` last shipped to that rank, or the ones a
/// [`Message::PullDelta`] request carried (`None` for a plain full reply).
#[derive(Debug, Clone, Copy)]
pub struct PullView<'a> {
    /// Server weight version (total pushes applied).
    pub clock: u64,
    /// Per-shard update versions, in shard order.
    pub versions: &'a [u64],
    /// Shard start offsets plus a final total-length sentinel
    /// (`offsets.len() == versions.len() + 1`).
    pub offsets: &'a [usize],
    /// The flat weight vector.
    pub weights: &'a [f32],
    /// The client's cached versions (`Some` to answer incrementally when they fit).
    pub known: Option<&'a [u64]>,
}

impl<'a> PullView<'a> {
    /// Whether the client's `known` vector is one this view can answer incrementally:
    /// present, one entry per shard, and nowhere ahead of the server (a client from a
    /// previous server life falls back to a full reply).
    pub fn delta_applicable(&self) -> bool {
        self.known
            .is_some_and(|known| dssp_ps::delta_compatible(self.versions, known))
    }

    /// The shards a delta reply ships, as `(shard, version, weights)` with the shard
    /// indices numbered from `first`: the ones whose version advanced past the
    /// client's when the view can answer incrementally, every shard otherwise. A
    /// single server numbers from 0; a shard server from its first owned global
    /// shard.
    pub fn shard_updates(&self, first: u32) -> impl Iterator<Item = (u32, u64, &'a [f32])> + Clone {
        let known = self.known.filter(|_| self.delta_applicable());
        let (versions, offsets, weights) = (self.versions, self.offsets, self.weights);
        (0..versions.len())
            .filter(move |&i| known.is_none_or(|known| versions[i] > known[i]))
            .map(move |i| {
                let run = &weights[offsets[i]..offsets[i + 1]];
                (first + i as u32, versions[i], run)
            })
    }

    /// Encodes the reply this view answers with — a delta when applicable, a full
    /// reply otherwise — appending the payload to `buf`. Byte-identical to encoding
    /// [`PullView::to_message`], but without materializing owned vectors (the server's
    /// zero-copy path).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        if self.delta_applicable() {
            wire::encode_pull_reply_delta(buf, self.clock, self.shard_updates(0));
        } else {
            wire::encode_pull_reply(buf, self.clock, self.versions, self.weights);
        }
    }

    /// Writes the reply this view answers with as one frame, straight from the store —
    /// stack headers plus the weights' own bytes in vectored writes, no frame buffer
    /// in between (the TCP server's reply path). Byte-identical to
    /// [`PullView::encode`] followed by [`wire::write_frame_payload`]. Returns the
    /// bytes written, length prefix included.
    pub fn write_frame<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<usize> {
        if self.delta_applicable() {
            wire::write_pull_reply_delta_frame(w, self.clock, self.shard_updates(0))
        } else {
            wire::write_pull_reply_frame(w, self.clock, self.versions, self.weights)
        }
    }

    /// Builds the owned reply message — a delta when applicable, a full reply
    /// otherwise. Used by the loopback transport, which moves messages instead of
    /// serializing them.
    pub fn to_message(&self) -> Message {
        if self.delta_applicable() {
            self.delta_message(0)
        } else {
            Message::PullReply {
                clock: self.clock,
                shard_versions: self.versions.to_vec(),
                weights: self.weights.to_vec(),
            }
        }
    }

    /// The owned [`Message::PullReplyDelta`] of [`PullView::shard_updates`].
    fn delta_message(&self, first: u32) -> Message {
        Message::PullReplyDelta {
            clock: self.clock,
            updates: self
                .shard_updates(first)
                .map(|(shard, version, weights)| ShardUpdate {
                    shard,
                    version,
                    weights: weights.to_vec(),
                })
                .collect(),
        }
    }
}

/// Outcome of a [`WorkerTransport::pull_into`] exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PullOutcome {
    /// A reply arrived and was applied to the caller's weight/version caches.
    Applied(PullApplied),
    /// The server shut the run down instead of answering.
    Shutdown {
        /// [`wire::SHUTDOWN_OK`] or [`wire::SHUTDOWN_SERVER_ERROR`].
        reason: u8,
    },
}

/// Applies an owned pull-reply message to a worker's cached weight and version
/// vectors, mirroring [`wire::apply_pull_reply`]'s semantics for transports that move
/// messages instead of bytes (loopback, tests).
pub fn apply_pull_message(
    msg: Message,
    weights: &mut Vec<f32>,
    versions: &mut Vec<u64>,
) -> Result<PullOutcome, NetError> {
    match msg {
        Message::PullReply {
            clock,
            shard_versions,
            weights: fresh,
        } => {
            versions.clear();
            versions.extend_from_slice(&shard_versions);
            weights.clear();
            weights.extend_from_slice(&fresh);
            Ok(PullOutcome::Applied(PullApplied {
                clock,
                full: true,
                shards_updated: versions.len(),
            }))
        }
        Message::PullReplyDelta { clock, updates } => {
            let shards_updated = updates.len();
            for update in &updates {
                let shard = update.shard;
                if (shard as usize) >= versions.len() {
                    return Err(wire::WireError::BadShard { shard }.into());
                }
                let (start, end) =
                    dssp_ps::shard_range(weights.len(), versions.len(), shard as usize);
                if update.weights.len() != end - start {
                    return Err(wire::WireError::BadShard { shard }.into());
                }
                weights[start..end].copy_from_slice(&update.weights);
                versions[shard as usize] = update.version;
            }
            Ok(PullOutcome::Applied(PullApplied {
                clock,
                full: false,
                shards_updated,
            }))
        }
        Message::Shutdown { reason } => Ok(PullOutcome::Shutdown { reason }),
        // Typed, retryable: the caller (the group fan) waits out a frozen server or
        // adopts the committed layout and retries the round.
        Message::EpochRefused { epoch, assignment } => {
            Err(NetError::EpochRefused { epoch, assignment })
        }
        other => Err(NetError::Protocol(format!(
            "expected a pull reply, got {other:?}"
        ))),
    }
}

/// Server side of a transport: a stream of rank-attributed incoming messages plus a
/// way to address each worker.
///
/// Implementations attribute messages to ranks from each connection's `Hello`; the
/// server logic on top still validates the handshake contents.
pub trait ServerTransport: Send {
    /// Number of workers this transport serves.
    fn num_workers(&self) -> usize;

    /// Blocks for the next message from any worker, attributed with its rank.
    fn recv(&mut self) -> Result<(usize, Message), NetError>;

    /// Sends a message to one worker.
    fn send(&mut self, rank: usize, msg: &Message) -> Result<(), NetError>;

    /// Ships a pull reply from a borrowed snapshot of the server's store —
    /// incrementally when `view.known` permits, fully otherwise. Implementations may
    /// write straight from the view (the TCP transport hands the socket the stale
    /// shard ranges themselves, [`PullView::write_frame`]); the default builds an owned
    /// message.
    fn send_pull_reply(&mut self, rank: usize, view: &PullView<'_>) -> Result<(), NetError> {
        self.send(rank, &view.to_message())
    }

    /// Hands a consumed bulk `f32` buffer (a processed push's gradients) back to the
    /// transport for reuse by `rank`'s connection. Default: drop it.
    fn recycle_f32s(&mut self, _rank: usize, _buf: Vec<f32>) {}

    /// Hands a consumed bulk `u64` buffer (a processed delta pull's version vector)
    /// back to the transport for reuse by `rank`'s connection. Default: drop it.
    fn recycle_u64s(&mut self, _rank: usize, _buf: Vec<u64>) {}

    /// Ships a shard server's reply from a borrowed view of its store: a
    /// [`Message::PullReplyDelta`] of [`PullView::shard_updates`] numbered from the
    /// server's first owned global shard `first_shard`, preceded by a
    /// [`Message::SliceApplied`] `{ version, applied }` when `ack` is set (the answer
    /// to a pulling [`Message::PushSlice`]). The TCP transport writes both frames
    /// straight from the store in one gathered write
    /// ([`wire::write_slice_applied_frames`]); the default sends owned messages.
    fn send_shard_reply(
        &mut self,
        rank: usize,
        ack: Option<(u64, &[u64])>,
        first_shard: u32,
        view: &PullView<'_>,
    ) -> Result<(), NetError> {
        if let Some((version, applied)) = ack {
            let applied = applied.to_vec();
            self.send(rank, &Message::SliceApplied { version, applied })?;
        }
        self.send(rank, &view.delta_message(first_shard))
    }

    /// Sends an already-encoded payload as one frame to `rank`, for callers that run
    /// their own serving loop over a transport and encode replies themselves. The
    /// default decodes and re-sends as an owned message, so transports that move
    /// messages instead of bytes (loopback) stay correct.
    fn send_payload(&mut self, rank: usize, payload: &[u8]) -> Result<(), NetError> {
        self.send(rank, &wire::decode(payload)?)
    }

    /// Byte/frame counters accumulated by this transport so far. Defaults to zero for
    /// transports that do not serialize (loopback).
    fn transport_stats(&self) -> crate::tcp::TransportStats {
        crate::tcp::TransportStats::default()
    }

    /// Best-effort broadcast (used for `Shutdown`); per-worker failures are ignored
    /// because exiting workers legitimately race the broadcast.
    fn broadcast(&mut self, msg: &Message) {
        for rank in 0..self.num_workers() {
            let _ = self.send(rank, msg);
        }
    }
}

/// Worker side of a transport: a bidirectional message pipe to the server.
pub trait WorkerTransport: Send {
    /// Sends a message to the server.
    fn send(&mut self, msg: &Message) -> Result<(), NetError>;

    /// Records the last server clock (weight version) this side saw confirmed, so a
    /// transport that later reports [`NetError::PeerLost`] can say where the session
    /// stood. Default: no-op (loopback links cannot be lost).
    fn note_confirmed_clock(&mut self, _clock: u64) {}

    /// Blocks for the next message from the server.
    fn recv(&mut self) -> Result<Message, NetError>;

    /// Blocks for the next message like [`WorkerTransport::recv`], except that the
    /// per-rank run of a [`Message::SliceApplied`] or [`Message::GroupGrant`] lands in
    /// `run` (overwritten) and the message holds an empty one: what keeps a warm
    /// group round allocation-free. The TCP transport decodes into `run`
    /// ([`wire::decode_with_run`]); the default moves the run out of the message.
    fn recv_with_run(&mut self, run: &mut Vec<u64>) -> Result<Message, NetError> {
        let mut msg = self.recv()?;
        if let Message::SliceApplied { applied: got, .. }
        | Message::GroupGrant { counted: got, .. } = &mut msg
        {
            run.clear();
            run.append(got);
        }
        Ok(msg)
    }

    /// Pushes one iteration's gradients from a borrowed slice, stamped with the
    /// worker's causal `trace` id. The TCP transport writes the frame to the socket
    /// straight from the slice; the default copies into an owned [`Message::Push`].
    fn send_push(&mut self, iteration: u64, trace: u64, grads: &[f32]) -> Result<(), NetError> {
        self.send(&Message::Push {
            iteration,
            trace,
            grads: grads.to_vec(),
        })
    }

    /// One pull exchange against the caller's weight/version caches: requests a delta
    /// when `delta` is set and `versions` is warm (otherwise a full pull), then
    /// applies the reply in place. `versions` doubles as the request's
    /// `known_versions` and is updated by the reply. The request carries the worker's
    /// causal `trace` id.
    fn pull_into(
        &mut self,
        delta: bool,
        trace: u64,
        weights: &mut Vec<f32>,
        versions: &mut Vec<u64>,
    ) -> Result<PullOutcome, NetError> {
        if delta && !versions.is_empty() {
            self.send(&Message::PullDelta {
                trace,
                known_versions: versions.clone(),
            })?;
        } else {
            self.send(&Message::Pull { trace })?;
        }
        let msg = self.recv()?;
        apply_pull_message(msg, weights, versions)
    }

    /// Pushes one iteration's gradient **slice** (a shard server's key range of the
    /// full gradient vector) from a borrowed slice, asking for the server's shards
    /// behind the ack when `pull` is set. The TCP transport writes the frame to the
    /// socket straight from the slice; the default copies into an owned
    /// [`Message::PushSlice`]. Part of a group worker's fan-out: requests go to every
    /// server first, then the answers are collected, so the servers work
    /// concurrently.
    fn send_push_slice(
        &mut self,
        iteration: u64,
        epoch: u64,
        trace: u64,
        pull: bool,
        grads: &[f32],
    ) -> Result<(), NetError> {
        self.send(&Message::PushSlice {
            iteration,
            epoch,
            trace,
            pull,
            grads: grads.to_vec(),
        })
    }

    /// Sends a shard-scoped pull request ([`Message::PullShards`]) from a borrowed
    /// sub-range of the caller's global version cache, stamped with the layout
    /// `epoch` the worker believes is current. The TCP transport encodes from the
    /// borrow; the default copies.
    fn send_pull_shards(
        &mut self,
        known_versions: &[u64],
        all: bool,
        epoch: u64,
        trace: u64,
    ) -> Result<(), NetError> {
        self.send(&Message::PullShards {
            known_versions: known_versions.to_vec(),
            all,
            epoch,
            trace,
        })
    }

    /// Receives one pull reply — requested, or riding an `OK` — and applies it to the
    /// caller's **global** weight and version buffers in place (a shard server's reply
    /// carries global shard indices, so each update lands in its own key range). The
    /// TCP transport reads each run from the socket straight into its key range; the
    /// default goes through an owned message.
    fn recv_pull_apply(
        &mut self,
        weights: &mut Vec<f32>,
        versions: &mut Vec<u64>,
    ) -> Result<PullOutcome, NetError> {
        let msg = self.recv()?;
        apply_pull_message(msg, weights, versions)
    }
}

/// Server end of a [`loopback`] transport.
pub struct LoopbackServer {
    /// Every worker end's messages in the order sent; `None` closes an end (it was
    /// dropped), like a FIN behind a connection's data.
    events: Receiver<(usize, Option<Message>)>,
    replies: Vec<Sender<Message>>,
}

/// Worker end of a [`loopback`] transport. Dropping it closes the link: the server
/// reads [`NetError::ClientLost`] for its rank after every message it sent.
pub struct LoopbackWorker {
    rank: usize,
    to_server: Sender<(usize, Option<Message>)>,
    from_server: Receiver<Message>,
}

/// Creates an in-process transport connecting one server to `num_workers` workers over
/// unbounded channels. Messages are moved, not serialized, so weights and gradients
/// are trivially bit-preserved; everything else about the protocol (handshake, explicit
/// pulls, delta negotiation, shutdown broadcast, a lost worker reported as
/// [`NetError::ClientLost`]) behaves exactly like the TCP transport.
///
/// # Panics
///
/// Panics if `num_workers` is zero.
pub fn loopback(num_workers: usize) -> (LoopbackServer, Vec<LoopbackWorker>) {
    assert!(num_workers > 0, "need at least one worker");
    let (event_tx, event_rx) = unbounded();
    let mut replies = Vec::with_capacity(num_workers);
    let mut workers = Vec::with_capacity(num_workers);
    for rank in 0..num_workers {
        let (reply_tx, reply_rx) = unbounded();
        replies.push(reply_tx);
        workers.push(LoopbackWorker {
            rank,
            to_server: event_tx.clone(),
            from_server: reply_rx,
        });
    }
    (
        LoopbackServer {
            events: event_rx,
            replies,
        },
        workers,
    )
}

impl ServerTransport for LoopbackServer {
    fn num_workers(&self) -> usize {
        self.replies.len()
    }

    fn recv(&mut self) -> Result<(usize, Message), NetError> {
        match self.events.recv() {
            Ok((rank, Some(msg))) => Ok((rank, msg)),
            Ok((rank, None)) => Err(NetError::ClientLost { rank }),
            Err(_) => Err(NetError::Disconnected),
        }
    }

    fn send(&mut self, rank: usize, msg: &Message) -> Result<(), NetError> {
        self.replies[rank]
            .send(msg.clone())
            .map_err(|_| NetError::Disconnected)
    }
}

impl WorkerTransport for LoopbackWorker {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        self.to_server
            .send((self.rank, Some(msg.clone())))
            .map_err(|_| NetError::Disconnected)
    }

    fn recv(&mut self) -> Result<Message, NetError> {
        self.from_server.recv().map_err(|_| NetError::Disconnected)
    }
}

impl Drop for LoopbackWorker {
    fn drop(&mut self) {
        // A server that is gone already has nobody to tell.
        let _ = self.to_server.send((self.rank, None));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_routes_by_rank() {
        let (mut server, mut workers) = loopback(2);
        workers[1].send(&Message::Pull { trace: 0 }).unwrap();
        let (rank, msg) = server.recv().unwrap();
        assert_eq!(rank, 1);
        assert_eq!(msg, Message::Pull { trace: 0 });
        server
            .send(
                0,
                &Message::PushReply {
                    granted_extra: 0,
                    version: 5,
                },
            )
            .unwrap();
        assert!(matches!(
            workers[0].recv().unwrap(),
            Message::PushReply { version: 5, .. }
        ));
    }

    #[test]
    fn a_dropped_worker_end_is_lost_after_what_it_sent() {
        let (mut server, mut workers) = loopback(2);
        workers[1].send(&Message::Pull { trace: 0 }).unwrap();
        drop(workers.remove(1));
        assert!(matches!(server.recv(), Ok((1, Message::Pull { .. }))));
        assert!(matches!(
            server.recv(),
            Err(NetError::ClientLost { rank: 1 })
        ));
        drop(workers);
        assert!(matches!(
            server.recv(),
            Err(NetError::ClientLost { rank: 0 })
        ));
        assert!(matches!(server.recv(), Err(NetError::Disconnected)));
    }

    #[test]
    fn dropping_the_server_disconnects_workers() {
        let (server, mut workers) = loopback(1);
        drop(server);
        assert!(matches!(workers[0].recv(), Err(NetError::Disconnected)));
    }

    fn view<'a>(
        clock: u64,
        versions: &'a [u64],
        offsets: &'a [usize],
        weights: &'a [f32],
        known: Option<&'a [u64]>,
    ) -> PullView<'a> {
        PullView {
            clock,
            versions,
            offsets,
            weights,
            known,
        }
    }

    #[test]
    fn pull_view_falls_back_to_full_replies_when_the_cache_is_incompatible() {
        let versions = [3u64, 4];
        let offsets = [0usize, 2, 4];
        let weights = [1.0f32, 2.0, 3.0, 4.0];
        // No cache (first contact).
        assert!(!view(7, &versions, &offsets, &weights, None).delta_applicable());
        // Wrong shard count.
        let short = [3u64];
        assert!(!view(7, &versions, &offsets, &weights, Some(&short)).delta_applicable());
        // Client ahead of the server (stale cache from a previous server life).
        let future = [9u64, 4];
        assert!(!view(7, &versions, &offsets, &weights, Some(&future)).delta_applicable());
        // Compatible cache.
        let known = [3u64, 3];
        let v = view(7, &versions, &offsets, &weights, Some(&known));
        assert!(v.delta_applicable());
        let updates: Vec<_> = v.shard_updates(0).collect();
        assert_eq!(updates, vec![(1u32, 4u64, &weights[2..4])]);
        // Numbered from a shard server's first global shard; without a usable
        // record, every shard.
        let updates: Vec<_> = v.shard_updates(6).collect();
        assert_eq!(updates, vec![(7u32, 4u64, &weights[2..4])]);
        let every: Vec<_> = view(7, &versions, &offsets, &weights, Some(&future))
            .shard_updates(6)
            .collect();
        assert_eq!(
            every,
            vec![(6u32, 3u64, &weights[..2]), (7, 4, &weights[2..4])]
        );
    }

    #[test]
    fn pull_view_zero_copy_encode_matches_the_owned_message_encoding() {
        let versions = [5u64, 5, 7];
        let offsets = [0usize, 2, 4, 5];
        let weights = [0.5f32, 1.5, 2.5, 3.5, 4.5];
        for known in [
            None,
            Some(&[5u64, 5, 7][..]), // nothing stale -> empty delta
            Some(&[4u64, 5, 0][..]), // two stale shards
            Some(&[5u64, 5][..]),    // incompatible -> full
        ] {
            let v = view(9, &versions, &offsets, &weights, known);
            let mut zero_copy = Vec::new();
            v.encode(&mut zero_copy);
            let mut owned = Vec::new();
            wire::encode(&v.to_message(), &mut owned);
            assert_eq!(zero_copy, owned, "known={known:?}");
        }
    }

    #[test]
    fn apply_pull_message_mirrors_the_byte_level_apply() {
        let mut weights = Vec::new();
        let mut versions = Vec::new();
        let full = Message::PullReply {
            clock: 3,
            shard_versions: vec![1, 1],
            weights: vec![1.0, 2.0, 3.0],
        };
        let outcome = apply_pull_message(full, &mut weights, &mut versions).unwrap();
        assert_eq!(
            outcome,
            PullOutcome::Applied(PullApplied {
                clock: 3,
                full: true,
                shards_updated: 2
            })
        );
        // Layout of 3 params over 2 shards: [0..2), [2..3).
        let delta = Message::PullReplyDelta {
            clock: 5,
            updates: vec![ShardUpdate {
                shard: 1,
                version: 2,
                weights: vec![-3.0],
            }],
        };
        let outcome = apply_pull_message(delta, &mut weights, &mut versions).unwrap();
        assert_eq!(
            outcome,
            PullOutcome::Applied(PullApplied {
                clock: 5,
                full: false,
                shards_updated: 1
            })
        );
        assert_eq!(weights, vec![1.0, 2.0, -3.0]);
        assert_eq!(versions, vec![1, 2]);
        // A wrong-length update is rejected.
        let bad = Message::PullReplyDelta {
            clock: 6,
            updates: vec![ShardUpdate {
                shard: 0,
                version: 3,
                weights: vec![0.0; 3],
            }],
        };
        assert!(apply_pull_message(bad, &mut weights, &mut versions).is_err());
    }
}
