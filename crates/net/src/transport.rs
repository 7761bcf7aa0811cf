//! The transport abstraction and the in-process loopback implementation.
//!
//! A transport moves length-prefixed frames between one server and `N` ranked
//! workers. Two implementations exist:
//!
//! * [`crate::tcp`] — real sockets, one blocking reader thread per connection;
//! * [`loopback`] — crossbeam channels inside one process that carry each write's
//!   bytes, length prefixes included: the same codec, the same frames and the same
//!   byte counts as TCP, without sockets or reader threads.
//!
//! Each trait requires only its frame primitives. Sending is one frame writer for both
//! sides ([`WorkerTransport::send_frame`], [`ServerReplies::send_frame`]): it hands an
//! operation a [`Write`] — the socket, or the bytes one channel message will carry —
//! plus the transport's scratch buffer for small frames. The worker receives through
//! one frame reader ([`WorkerTransport::recv_frame`]): a [`FrameBody`] over a [`Read`]
//! — the socket's buffered reader, or the bytes received so far. A server end receives
//! decoded messages its own way, and both ends run the same frame-to-message reader to
//! do it. A serving loop hands the transport a [`ServeStep`] to run on each
//! ([`ServerTransport::run_steps`]), as every serving role does: loopback runs it on
//! the calling thread, TCP on the connection thread that read the frame. Or it
//! receives them itself ([`ServerTransport::recv`]), as the round-cost ledger's stub
//! servers do.
//!
//! Every message operation — `send`, `recv`, the borrowed-slice pushes, the pulls
//! applied into caller-owned weight and version caches, the replies written from a
//! borrowed [`PullView`] of the server's store — is a provided method written once
//! over those primitives with the streaming codecs of [`crate::wire`]: bulk frames
//! are written from, and read into, their final buffers (`write_*_frame`,
//! [`PullView::write_frame`], [`FrameBody`]), every other frame is encoded into the
//! scratch buffer and decoded from a reused payload buffer. So every loopback run
//! executes the codec a TCP run does, and a shard server's acknowledgement plus its
//! weights arrive in one write on both.
//!
//! [`WorkerTransport::pull_into`] — a request/reply pull carrying the *worker's*
//! cached versions (`PullDelta`) — predates the fused round; `run_worker` no longer
//! calls it and `serve` no longer answers `PullDelta`. It stays for the callers that
//! run their own serving loop over these transports.

use crate::tcp::{connection_failed, read_message, TransportStats};
use crate::wire::{self, FrameBody, Message, PullApplied, TAG_PULL_REPLY, TAG_PULL_REPLY_DELTA};
use crate::NetError;
use crossbeam_channel::{unbounded, Receiver, Sender};
use std::any::Any;
use std::io::{self, Cursor, Read, Write};

/// One send operation: writes one or more whole frames to the transport's writer —
/// a small frame encoded through the scratch buffer first — and returns the bytes it
/// wrote, length prefixes included.
pub type FrameWriter<'a> = &'a dyn Fn(&mut dyn Write, &mut Vec<u8>) -> io::Result<usize>;

/// The send operation of one small frame: `encode` appends its payload to the
/// transport's (emptied) scratch buffer, which goes out length-prefixed.
fn small(
    encode: impl Fn(&mut Vec<u8>),
) -> impl Fn(&mut dyn Write, &mut Vec<u8>) -> io::Result<usize> {
    move |w, scratch| {
        scratch.clear();
        encode(scratch);
        wire::write_frame_payload(w, scratch)
    }
}

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

    /// Writes the reply this view answers with — a delta when applicable, a full
    /// reply otherwise — as one frame, straight from the store: stack headers plus the
    /// weights' own bytes in vectored writes, no frame buffer in between (the path of
    /// [`ServerReplies::send_pull_reply`]). Byte-identical to [`PullView::encode`]
    /// followed by [`wire::write_frame_payload`]. Returns the bytes written, length
    /// prefix included.
    pub fn write_frame<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<usize> {
        if self.delta_applicable() {
            wire::write_pull_reply_delta_frame(w, self.clock, self.shard_updates(0))
        } else {
            wire::write_pull_reply_frame(w, self.clock, self.versions, self.weights)
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

/// The outcome of a pull whose answer is not a pull reply: the server shut the run
/// down, refused the layout epoch, or broke the protocol.
fn not_a_pull_reply(payload: &[u8]) -> Result<PullOutcome, NetError> {
    match wire::decode(payload)? {
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

/// The reply side of a server end: one frame writer per rank, and every reply
/// operation written once over it. A serving step answers through it
/// ([`ServeStep::step`]); a [`ServerTransport`] is one, for the loops that receive
/// with [`ServerTransport::recv`].
pub trait ServerReplies {
    /// Number of workers this transport serves.
    fn num_workers(&self) -> usize;

    /// Sends `frames` whole frames to `rank` in one operation: `write` writes them to
    /// the transport's writer for that rank.
    fn send_frame(
        &mut self,
        rank: usize,
        frames: u64,
        write: FrameWriter<'_>,
    ) -> Result<(), NetError>;

    /// Byte and frame counters accumulated by this transport so far, length prefixes
    /// included.
    fn transport_stats(&self) -> TransportStats;

    /// Sends a message to one worker.
    fn send(&mut self, rank: usize, msg: &Message) -> Result<(), NetError> {
        self.send_frame(rank, 1, &|w, scratch| wire::write_frame(w, msg, scratch))
    }

    /// Ships a pull reply from a borrowed snapshot of the server's store —
    /// incrementally when `view.known` permits, fully otherwise — handing the writer
    /// the stale shard ranges themselves ([`PullView::write_frame`]).
    fn send_pull_reply(&mut self, rank: usize, view: &PullView<'_>) -> Result<(), NetError> {
        self.send_frame(rank, 1, &|w, _| view.write_frame(w))
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
    /// to a pulling [`Message::PushSlice`]). Both frames are written straight from the
    /// store in one gathered write ([`wire::write_slice_applied_frames`]).
    fn send_shard_reply(
        &mut self,
        rank: usize,
        ack: Option<(u64, &[u64])>,
        first_shard: u32,
        view: &PullView<'_>,
    ) -> Result<(), NetError> {
        let clock = view.clock;
        match ack {
            Some((version, applied)) => self.send_frame(rank, 2, &|w, _| {
                let updates = view.shard_updates(first_shard);
                wire::write_slice_applied_frames(w, version, applied, clock, updates)
            }),
            None => self.send_frame(rank, 1, &|w, _| {
                wire::write_pull_reply_delta_frame(w, clock, view.shard_updates(first_shard))
            }),
        }
    }

    /// Sends an already-encoded payload as one frame to `rank`, for callers that run
    /// their own serving loop over a transport and encode replies themselves.
    fn send_payload(&mut self, rank: usize, payload: &[u8]) -> Result<(), NetError> {
        self.send_frame(rank, 1, &|w, _| wire::write_frame_payload(w, payload))
    }

    /// Best-effort broadcast (used for `Shutdown`); per-worker failures are ignored
    /// because exiting workers legitimately race the broadcast.
    fn broadcast(&mut self, msg: &Message) {
        for rank in 0..self.num_workers() {
            let _ = self.send(rank, msg);
        }
    }
}

/// A reply side borrowed for one call: what lets the default
/// [`ServerTransport::run_steps`] hand a transport to a step as its reply side.
impl<T: ServerReplies + ?Sized> ServerReplies for &mut T {
    fn num_workers(&self) -> usize {
        (**self).num_workers()
    }

    fn send_frame(
        &mut self,
        rank: usize,
        frames: u64,
        write: FrameWriter<'_>,
    ) -> Result<(), NetError> {
        (**self).send_frame(rank, frames, write)
    }

    fn transport_stats(&self) -> TransportStats {
        (**self).transport_stats()
    }

    fn recycle_f32s(&mut self, rank: usize, buf: Vec<f32>) {
        (**self).recycle_f32s(rank, buf)
    }

    fn recycle_u64s(&mut self, rank: usize, buf: Vec<u64>) {
        (**self).recycle_u64s(rank, buf)
    }
}

/// What reaches a serving loop from its transport: a message attributed with its
/// sender's rank, or the failure that ended a connection (naming the rank when the
/// connection had announced one).
pub type Arrival = Result<(usize, Message), NetError>;

/// One step of a serving loop, handed to [`ServerTransport::run_steps`] by value so
/// that a transport may run it on whichever thread holds the arrival.
pub trait ServeStep: Any + Send {
    /// Handles one arrival, answering through `replies`. Returns whether the run is
    /// complete; an error ends the run.
    fn step(&mut self, arrival: Arrival, replies: &mut dyn ServerReplies)
        -> Result<bool, NetError>;
}

/// Server side of a transport: the [`ServerReplies`] to every worker plus the stream
/// of rank-attributed messages they send.
///
/// Implementations attribute messages to ranks from each connection's `Hello`; the
/// server logic on top still validates the handshake contents.
pub trait ServerTransport: ServerReplies + Send {
    /// Blocks for the next message from any worker, attributed with its rank. A
    /// connection whose read fails ends it with that failure, naming the rank.
    fn recv(&mut self) -> Result<(usize, Message), NetError>;

    /// Runs a serving loop: hands `step` every arrival, in order, with this
    /// transport's replies, until it reports the run complete or fails, then hands it
    /// back with the outcome. Default: on the calling thread, from
    /// [`ServerTransport::recv`]. TCP runs each step on the connection thread that
    /// read the frame.
    fn run_steps(&mut self, mut step: Box<dyn ServeStep>) -> StepsRun {
        let outcome = loop {
            let arrival = self.recv();
            match step.step(arrival, &mut &mut *self) {
                Ok(false) => {}
                Ok(true) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        (step, outcome)
    }
}

/// What [`ServerTransport::run_steps`] returns: the step it was handed, and whether
/// the run completed or how it failed.
pub type StepsRun = (Box<dyn ServeStep>, Result<(), NetError>);

/// Takes back the step [`ServerTransport::run_steps`] returned as the type it was
/// handed in as: what a serving loop reads its run's state from.
pub fn reclaim<S: ServeStep>(step: Box<dyn ServeStep>) -> Result<Box<S>, NetError> {
    (step as Box<dyn Any>)
        .downcast()
        .map_err(|_| NetError::Protocol("the transport swapped the serving step".into()))
}

/// Worker side of a transport: a bidirectional frame pipe to the server.
pub trait WorkerTransport: Send {
    /// Sends one frame to the server: `write` writes it whole to the transport's
    /// writer.
    fn send_frame(&mut self, write: FrameWriter<'_>) -> Result<(), NetError>;

    /// Blocks for the next frame from the server and returns it with its length
    /// prefix and tag read, plus the transport's reusable payload buffer for
    /// [`FrameBody::buffer`]. Consume the body before the next receive.
    fn recv_frame(&mut self) -> Result<(FrameBody<'_, dyn Read + '_>, &mut Vec<u8>), NetError>;

    /// Rewrites a failure met on the link — a receive's included, at a frame's start
    /// or inside its body — so it names the peer. Default: unchanged.
    fn peer_error(&self, e: NetError) -> NetError {
        e
    }

    /// Sends a message to the server.
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        self.send_frame(&|w, scratch| wire::write_frame(w, msg, scratch))
    }

    /// Records the last server clock (weight version) this side saw confirmed, so a
    /// transport that later reports [`NetError::PeerLost`] can say where the session
    /// stood. Default: no-op (loopback links cannot be lost).
    fn note_confirmed_clock(&mut self, _clock: u64) {}

    /// Blocks for the next message from the server.
    fn recv(&mut self) -> Result<Message, NetError> {
        read_frame(self, |body, payload| {
            body.buffer(payload)?;
            Ok(wire::decode(payload)?)
        })
    }

    /// Blocks for the next message like [`WorkerTransport::recv`], except that the
    /// per-rank run of a [`Message::SliceApplied`] or [`Message::GroupGrant`] lands in
    /// `run` (overwritten) and the message holds an empty one
    /// ([`wire::decode_with_run`]): what keeps a warm group round allocation-free.
    fn recv_with_run(&mut self, run: &mut Vec<u64>) -> Result<Message, NetError> {
        read_frame(self, |body, payload| {
            body.buffer(payload)?;
            Ok(wire::decode_with_run(payload, run)?)
        })
    }

    /// Pushes one iteration's gradients straight from a borrowed slice, stamped with
    /// the worker's causal `trace` id ([`wire::write_push_frame`]).
    fn send_push(&mut self, iteration: u64, trace: u64, grads: &[f32]) -> Result<(), NetError> {
        self.send_frame(&|w, _| wire::write_push_frame(w, iteration, trace, grads))
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
            self.send_frame(&small(|buf| wire::encode_pull_delta(buf, trace, versions)))?;
        } else {
            self.send_frame(&small(|buf| wire::encode_pull(buf, trace)))?;
        }
        self.recv_pull_apply(weights, versions)
    }

    /// Pushes one iteration's gradient **slice** (a shard server's key range of the
    /// full gradient vector) straight from a borrowed slice, asking for the server's
    /// shards behind the ack when `pull` is set ([`wire::write_push_slice_frame`]).
    /// Part of a group worker's fan-out: requests go to every server first, then the
    /// answers are collected, so the servers work concurrently.
    fn send_push_slice(
        &mut self,
        iteration: u64,
        epoch: u64,
        trace: u64,
        pull: bool,
        grads: &[f32],
    ) -> Result<(), NetError> {
        self.send_frame(&|w, _| {
            wire::write_push_slice_frame(w, iteration, epoch, trace, pull, grads)
        })
    }

    /// Sends a shard-scoped pull request ([`Message::PullShards`]) from a borrowed
    /// sub-range of the caller's global version cache, stamped with the layout
    /// `epoch` the worker believes is current.
    fn send_pull_shards(
        &mut self,
        known_versions: &[u64],
        all: bool,
        epoch: u64,
        trace: u64,
    ) -> Result<(), NetError> {
        self.send_frame(&small(|buf| {
            wire::encode_pull_shards(buf, all, epoch, trace, known_versions)
        }))
    }

    /// Receives one pull reply — requested, or riding an `OK` — and applies it to the
    /// caller's **global** weight and version buffers in place, each run read straight
    /// into its key range ([`FrameBody::pull_reply_apply`]; a shard server's reply
    /// carries global shard indices, so each update lands in its own key range).
    fn recv_pull_apply(
        &mut self,
        weights: &mut Vec<f32>,
        versions: &mut Vec<u64>,
    ) -> Result<PullOutcome, NetError> {
        read_frame(self, |body, payload| match body.tag() {
            TAG_PULL_REPLY | TAG_PULL_REPLY_DELTA => Ok(PullOutcome::Applied(
                body.pull_reply_apply(weights, versions)?,
            )),
            _ => {
                body.buffer(payload)?;
                not_a_pull_reply(payload)
            }
        })
    }
}

/// Reads `t`'s next frame through its frame reader and hands it to `read`; a failure
/// at the frame's start or inside its body goes through [`WorkerTransport::peer_error`].
fn read_frame<T: WorkerTransport + ?Sized, R>(
    t: &mut T,
    read: impl FnOnce(FrameBody<'_, dyn Read + '_>, &mut Vec<u8>) -> Result<R, NetError>,
) -> Result<R, NetError> {
    let got = t
        .recv_frame()
        .and_then(|(body, payload)| read(body, payload));
    got.map_err(|e| t.peer_error(e))
}

/// What travels from the worker ends of a [`loopback`] transport to its server end:
/// the sender's rank and one frame, length prefix included, or `None` when that end
/// was dropped.
type Upstream = (usize, Option<Vec<u8>>);

/// Server end of a [`loopback`] transport.
pub struct LoopbackServer {
    /// Every worker end's frames in the order sent; `None` closes an end (it was
    /// dropped), like a FIN behind a connection's data.
    events: Receiver<Upstream>,
    replies: Vec<Sender<Vec<u8>>>,
    scratch: Vec<u8>,
    payload: Vec<u8>,
    stats: TransportStats,
}

/// Worker end of a [`loopback`] transport. Dropping it closes the link: the server
/// reads [`NetError::ClientLost`] for its rank after every frame it sent.
pub struct LoopbackWorker {
    rank: usize,
    to_server: Sender<Upstream>,
    from_server: Receiver<Vec<u8>>,
    /// The bytes of the server's last write not read yet: whole frames, one or more.
    inbox: Cursor<Vec<u8>>,
    scratch: Vec<u8>,
    payload: Vec<u8>,
}

/// Creates an in-process transport connecting one server to `num_workers` workers over
/// unbounded channels. Each channel message carries the bytes of one write — whole
/// frames, length prefixes included, encoded and decoded by the same operations as
/// TCP's — so the protocol (handshake, explicit pulls, delta negotiation, shutdown
/// broadcast, a lost worker reported as [`NetError::ClientLost`], a malformed frame
/// refused naming its rank) and the byte and frame counts behave exactly like the TCP
/// transport's.
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
            inbox: Cursor::default(),
            scratch: Vec::new(),
            payload: Vec::new(),
        });
    }
    (
        LoopbackServer {
            events: event_rx,
            replies,
            scratch: Vec::new(),
            payload: Vec::new(),
            stats: TransportStats::default(),
        },
        workers,
    )
}

impl ServerTransport for LoopbackServer {
    fn recv(&mut self) -> Result<(usize, Message), NetError> {
        match self.events.recv() {
            Ok((rank, Some(frame))) => {
                let (msg, wire_len) = read_message(&mut &frame[..], &mut self.payload, None)
                    .map_err(|e| connection_failed(rank, e))?;
                self.stats.received(wire_len);
                Ok((rank, msg))
            }
            Ok((rank, None)) => Err(NetError::ClientLost { rank }),
            Err(_) => Err(NetError::Disconnected),
        }
    }
}

impl ServerReplies for LoopbackServer {
    fn num_workers(&self) -> usize {
        self.replies.len()
    }

    fn send_frame(
        &mut self,
        rank: usize,
        frames: u64,
        write: FrameWriter<'_>,
    ) -> Result<(), NetError> {
        let mut bytes = Vec::new();
        let wire_len = write(&mut bytes, &mut self.scratch)?;
        self.replies[rank]
            .send(bytes)
            .map_err(|_| NetError::Disconnected)?;
        self.stats.sent(frames, wire_len);
        Ok(())
    }

    fn transport_stats(&self) -> TransportStats {
        self.stats
    }
}

impl WorkerTransport for LoopbackWorker {
    fn send_frame(&mut self, write: FrameWriter<'_>) -> Result<(), NetError> {
        let mut frame = Vec::new();
        write(&mut frame, &mut self.scratch)?;
        self.to_server
            .send((self.rank, Some(frame)))
            .map_err(|_| NetError::Disconnected)
    }

    fn recv_frame(&mut self) -> Result<(FrameBody<'_, dyn Read + '_>, &mut Vec<u8>), NetError> {
        if self.inbox.position() == self.inbox.get_ref().len() as u64 {
            let bytes = self
                .from_server
                .recv()
                .map_err(|_| NetError::Disconnected)?;
            self.inbox = Cursor::new(bytes);
        }
        Ok((
            FrameBody::begin(&mut self.inbox as &mut dyn Read)?,
            &mut self.payload,
        ))
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
    use crate::wire::ShardUpdate;

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
        let full = Message::PullReply {
            clock: 9,
            shard_versions: versions.to_vec(),
            weights: weights.to_vec(),
        };
        let update = |shard: u32, version: u64, weights: &[f32]| ShardUpdate {
            shard,
            version,
            weights: weights.to_vec(),
        };
        for (known, owned) in [
            (None, full.clone()),
            // Nothing stale: an empty delta.
            (
                Some(&[5u64, 5, 7][..]),
                Message::PullReplyDelta {
                    clock: 9,
                    updates: Vec::new(),
                },
            ),
            // Two stale shards.
            (
                Some(&[4u64, 5, 0][..]),
                Message::PullReplyDelta {
                    clock: 9,
                    updates: vec![update(0, 5, &weights[..2]), update(2, 7, &weights[4..])],
                },
            ),
            // Incompatible: a full reply.
            (Some(&[5u64, 5][..]), full),
        ] {
            let v = view(9, &versions, &offsets, &weights, known);
            let mut zero_copy = Vec::new();
            v.encode(&mut zero_copy);
            let mut expected = Vec::new();
            wire::encode(&owned, &mut expected);
            assert_eq!(zero_copy, expected, "known={known:?}");
        }
    }
}
