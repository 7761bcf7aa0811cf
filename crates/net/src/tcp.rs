//! The TCP transport: real sockets over `std::net`, one blocking reader thread per
//! connection.
//!
//! Threading model: the server binds a listener; an acceptor thread accepts exactly
//! `num_workers` connections; each connection gets a reader thread that blocks on the
//! next frame and delivers it decoded, attributed with the rank announced in the
//! connection's leading `Hello`. While a serving loop runs
//! ([`ServerTransport::run_steps`]: the single server, the group coordinator and every
//! shard server), the reader that holds the frame runs the loop's step itself: it
//! takes the one lock, applies the message, and writes the replies — to its own peer
//! or, for a released `OK` or grant, to another — so a message costs one wake-up, not
//! a hand-off to a second thread. Steps run one at a time, each to its end, so a
//! serving loop still sees one message at a time. Frames that arrive while no step is
//! installed (peers that connect and say Hello before the role starts serving) wait in
//! one inbox under the same lock, in arrival order; `run_steps` serves them first.
//! [`ServerTransport::recv`] reads from that inbox for the loops that receive on their
//! own thread, which are only the round-cost ledger's stub servers now.
//!
//! **Why a step may write while it holds the lock.** A write blocks until its peer
//! reads, and a reader waiting for the lock is not reading its own socket. So a step's
//! write is safe while every peer it waits on keeps reading. Four facts see to that:
//!
//! 1. A reader consumes a whole frame before it takes the lock. A peer writes a frame
//!    larger than the socket buffers (a worker's slice, a relayed migration shard)
//!    only once it has read the answer to its previous frame on that connection — except
//!    behind the connection's leading `Hello`, which nothing answers: a worker that
//!    re-dials a restarted shard server sends its slice right behind it. That `Hello` is
//!    delivered from a second thread while the reader reads on. So no peer's write
//!    waits on a reader that waits for the lock.
//! 2. The coordinator's steps write small frames (grants, acks, layouts) that the
//!    socket buffers hold, and every frame sent to it is small. A shard server's step
//!    writes only to the peer whose frame it serves; its pulling-slice reply (≈ 153 KB
//!    on the ledger's `group_comm`) is larger than the initial socket buffers.
//! 3. A group worker reads its shard links in one fixed order, reads each reply whole
//!    before it writes to that link again, and waits on the coordinator only once it
//!    has read every link's reply. A shard server's step that waits for a worker
//!    therefore waits for one that is reading an earlier link, whose server's step in
//!    turn waits for a worker reading a still earlier one: the chain ends at a worker
//!    that is reading.
//! 4. The coordinator's steps that talk to the shard servers read the links in the
//!    same order, and its migrations run only at quiescence, when no worker has a
//!    request in flight.
//!
//! `dssp-coord`'s `group_e2e.rs` runs a group with replies of that size to the end.
//!
//! Every message operation is the traits' provided one (`crate::transport`); this
//! module supplies the primitives over the socket — the frame writer is the stream
//! itself, the worker's frame reader its `BufReader` — plus what only a socket needs:
//! the rank a worker announced and the last clock it saw confirmed (for
//! [`NetError::PeerLost`]), read errors attributed to the peer, byte counters, and the
//! per-connection pools that hand consumed bulk buffers back to the connection readers
//! ([`ServerReplies::recycle_f32s`]). On the training path every bulk byte is moved
//! once per hop, by the socket copy itself, and nothing is allocated per frame on
//! either end:
//!
//! * frames that carry an `f32` run (`Push`, `PushSlice`, pull replies) are written
//!   as one vectored write of a small stack header plus the run's own bytes — the
//!   worker's gradient slice, the server store's shard ranges
//!   ([`crate::transport::PullView::write_frame`]; a shard server's slice ack rides
//!   in front of its shards in the same write) — with no frame buffer in between;
//! * they are read through [`FrameBody`], the codec's one bulk reader: length, tag
//!   and fixed fields come through the connection's `BufReader` and are validated as
//!   strictly as the table's decoder validates them, then the run is read from that
//!   same reader straight into where it belongs — on the server a gradient `Vec` the serving loop handed back to the
//!   connection's pool, on the worker its own `weights[start..end]`;
//! * every other frame is small: it is encoded into a reusable scratch buffer and
//!   read into a reusable payload buffer (version vectors of `PullDelta` /
//!   `PullShards` decode into pooled `Vec`s as well, and the per-rank runs of
//!   `SliceApplied` / `GroupGrant` into the worker's own buffer).
//!
//! A counting-allocator test (`tests/zero_alloc_net.rs`) enforces the zero-allocation
//! property end to end, the same way the compute kernels' steady state is enforced.
//!
//! This is a cooperative-cluster transport, not a hardened public endpoint: a peer
//! that violates the protocol (bad magic, wrong version, non-`Hello` first frame)
//! aborts the run with an error rather than being quarantined.

use crate::transport::{
    Arrival, FrameWriter, ServeStep, ServerReplies, ServerTransport, StepsRun, WorkerTransport,
};
use crate::wire::{
    self, FrameBody, Message, TAG_PULL_DELTA, TAG_PULL_SHARDS, TAG_PUSH, TAG_PUSH_SLICE,
};
use crate::NetError;
use std::collections::VecDeque;
use std::io::{BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

/// Byte and frame counters of one transport endpoint, for benchmarks and reports
/// (the ledger's `net.tcp.bytes_per_push` and `/metrics`' `dssp_bytes_total` read
/// these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Total bytes written to the socket(s), including frame headers.
    pub bytes_sent: u64,
    /// Total bytes read from the socket(s), including frame headers.
    pub bytes_received: u64,
    /// Frames written.
    pub frames_sent: u64,
    /// Frames read.
    pub frames_received: u64,
}

impl TransportStats {
    /// Books `frames` frames sent, `wire_len` bytes long with their length prefixes.
    pub(crate) fn sent(&mut self, frames: u64, wire_len: usize) {
        self.bytes_sent += wire_len as u64;
        self.frames_sent += frames;
    }

    /// Books one frame received, `wire_len` bytes long with its length prefix.
    pub(crate) fn received(&mut self, wire_len: usize) {
        self.bytes_received += wire_len as u64;
        self.frames_received += 1;
    }
}

/// Receive-side counters shared with the connection reader threads.
#[derive(Debug, Default)]
struct RxCounters {
    bytes: AtomicU64,
    frames: AtomicU64,
}

impl RxCounters {
    /// Books one frame of `wire_len` bytes, length prefix included.
    fn record(&self, wire_len: usize) {
        self.bytes.fetch_add(wire_len as u64, Ordering::Relaxed);
        self.frames.fetch_add(1, Ordering::Relaxed);
    }
}

/// The consumed bulk buffers of one connection, handed back by the serving loop
/// ([`ServerReplies::recycle_f32s`]) for its reader to decode the next bulk frame into.
#[derive(Default)]
pub(crate) struct Pool {
    grads: Vec<Vec<f32>>,
    known: Vec<Vec<u64>>,
}

/// Where a serving loop's step stands.
enum Slot {
    /// No step is installed: arrivals queue in the inbox, for [`ServerTransport::recv`]
    /// or the next [`ServerTransport::run_steps`].
    Idle,
    /// Installed by `run_steps`: the thread that holds an arrival runs it.
    Running(Box<dyn ServeStep>),
    /// The step reported the run complete, or it failed: `run_steps` takes it back.
    Ended(Box<dyn ServeStep>, Result<(), NetError>),
}

/// What the connection threads and the server end share under [`Shared::state`].
struct State {
    /// Every connection the acceptor took, for `Drop` to shut down. `Drop` and the
    /// acceptor meet under the lock, so each accepted socket is shut down by exactly
    /// one of them: by `Drop` if it was accepted before, by the acceptor if after.
    accepted: Vec<TcpStream>,
    /// Set by `Drop`.
    closed: bool,
    /// Arrivals that came while no step was installed, in arrival order.
    inbox: VecDeque<Arrival>,
    step: Slot,
    /// The acceptor and the connection readers still running.
    sources: usize,
}

/// Each rank's write half, once its connection said `Hello`, with what writing needs.
struct Writers {
    streams: Vec<Option<TcpStream>>,
    scratch: Vec<u8>,
    /// The send-side counters (the receive side is [`Shared::rx`]).
    tx: TransportStats,
}

/// The server end's state, shared with its acceptor and connection reader threads.
struct Shared {
    /// Arrivals and the installed step. A step runs with this lock held, so steps
    /// run one at a time, each to its end, in the order their arrivals took it.
    state: Mutex<State>,
    /// Signalled when an arrival is queued, a step's run ends or a source stops.
    changed: Condvar,
    /// Taken for each write, inside `state` by a step and alone otherwise: a loop that
    /// receives with `recv` writes without holding up the readers.
    writers: Mutex<Writers>,
    /// Per rank, the buffers its connection reader decodes bulk frames into; locked
    /// apart from `state`, so a reader refills without waiting for a running step.
    pools: Vec<Mutex<Pool>>,
    rx: RxCounters,
}

/// Locks `mutex`; a thread that panicked holding it left nothing half-written that
/// this module reads.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// Hands `arrival` to the installed step, on this thread and under the lock, or
    /// queues it when no step is installed. `wire_len` is the size of the frame it
    /// was read from (0 for a failure that read none).
    fn deliver(&self, arrival: Arrival, wire_len: usize) {
        if wire_len > 0 {
            self.rx.record(wire_len);
        }
        let mut state = lock(&self.state);
        let wake = match std::mem::replace(&mut state.step, Slot::Idle) {
            Slot::Running(mut step) => match self.run_step(&mut *step, arrival) {
                None => {
                    state.step = Slot::Running(step);
                    false
                }
                Some(outcome) => {
                    state.step = Slot::Ended(step, outcome);
                    true
                }
            },
            idle_or_ended => {
                state.step = idle_or_ended;
                state.inbox.push_back(arrival);
                true
            }
        };
        // Woken after the unlock, the waiter does not wake into a held lock.
        drop(state);
        if wake {
            self.changed.notify_all();
        }
    }

    /// Runs `step` on one arrival: `Some` outcome once the run has ended. A panic in
    /// the step ends the run with [`NetError::ReaderPanicked`] rather than unwinding
    /// through a reader thread while the serving thread waits for it.
    fn run_step(&self, step: &mut dyn ServeStep, arrival: Arrival) -> Option<Result<(), NetError>> {
        let ran = panic::catch_unwind(AssertUnwindSafe(|| step.step(arrival, &mut &*self)));
        match ran {
            Ok(Ok(false)) => None,
            Ok(Ok(true)) => Some(Ok(())),
            Ok(Err(e)) => Some(Err(e)),
            Err(_) => Some(Err(NetError::ReaderPanicked)),
        }
    }
}

/// The reply side a step answers through: every write takes the writers' lock.
impl ServerReplies for &Shared {
    fn num_workers(&self) -> usize {
        self.pools.len()
    }

    fn send_frame(
        &mut self,
        rank: usize,
        frames: u64,
        write: FrameWriter<'_>,
    ) -> Result<(), NetError> {
        let mut writers = lock(&self.writers);
        let Writers {
            streams,
            scratch,
            tx,
        } = &mut *writers;
        let stream = streams[rank]
            .as_mut()
            .ok_or_else(|| NetError::Protocol(format!("worker {rank} never said Hello")))?;
        let wire_len = write(stream, scratch)?;
        tx.sent(frames, wire_len);
        Ok(())
    }

    fn transport_stats(&self) -> TransportStats {
        TransportStats {
            bytes_received: self.rx.bytes.load(Ordering::Relaxed),
            frames_received: self.rx.frames.load(Ordering::Relaxed),
            ..lock(&self.writers).tx
        }
    }

    fn recycle_f32s(&mut self, rank: usize, buf: Vec<f32>) {
        lock(&self.pools[rank]).grads.push(buf);
    }

    fn recycle_u64s(&mut self, rank: usize, buf: Vec<u64>) {
        lock(&self.pools[rank]).known.push(buf);
    }
}

/// Counts a thread that delivers arrivals — the acceptor or a connection reader —
/// among the live sources for as long as it runs. When the last one stops, or one
/// panics, an installed step's run ends instead of waiting for arrivals that cannot
/// come.
struct Source(Arc<Shared>);

impl Source {
    /// Counts a source in before its thread is spawned, so that the count never reads
    /// zero while a thread that is about to deliver has yet to start.
    fn start(shared: &Arc<Shared>) -> Self {
        lock(&shared.state).sources += 1;
        Self(Arc::clone(shared))
    }
}

impl Drop for Source {
    fn drop(&mut self) {
        let mut state = lock(&self.0.state);
        state.sources -= 1;
        let failure = if thread::panicking() {
            Some(NetError::ReaderPanicked)
        } else if state.sources == 0 {
            Some(NetError::Disconnected)
        } else {
            None
        };
        if let Some(e) = failure {
            state.step = match std::mem::replace(&mut state.step, Slot::Idle) {
                Slot::Running(step) => Slot::Ended(step, Err(e)),
                other => other,
            };
        }
        drop(state);
        self.0.changed.notify_all();
    }
}

/// Server end of the TCP transport.
pub struct TcpServerTransport {
    local_addr: SocketAddr,
    num_workers: usize,
    shared: Arc<Shared>,
}

impl TcpServerTransport {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts accepting
    /// exactly `num_workers` connections in the background.
    ///
    /// # Panics
    ///
    /// Panics if `num_workers` is zero.
    pub fn bind(addr: &str, num_workers: usize) -> Result<Self, NetError> {
        assert!(num_workers > 0, "need at least one worker");
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                accepted: Vec::new(),
                closed: false,
                inbox: VecDeque::new(),
                step: Slot::Idle,
                sources: 0,
            }),
            changed: Condvar::new(),
            writers: Mutex::new(Writers {
                streams: (0..num_workers).map(|_| None).collect(),
                scratch: Vec::new(),
                tx: TransportStats::default(),
            }),
            pools: (0..num_workers).map(|_| Mutex::default()).collect(),
            rx: RxCounters::default(),
        });
        let acceptor = Source::start(&shared);
        thread::Builder::new()
            .name("dssp-net-acceptor".into())
            .spawn(move || accept_loop(listener, acceptor))?;
        Ok(Self {
            local_addr,
            num_workers,
            shared,
        })
    }

    /// The bound address (useful with port 0 to learn the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Byte/frame counters accumulated so far (receive side includes every
    /// connection's reader thread).
    pub fn stats(&self) -> TransportStats {
        (&*self.shared).transport_stats()
    }
}

impl Drop for TcpServerTransport {
    /// Mirrors what the kernel does for a killed server process: close every
    /// connection so peers blocked in `recv` observe EOF. The reader threads hold
    /// duplicated FDs, so merely dropping the write halves would leave the sockets
    /// open — and a worker with nothing left to send would block forever on a reply
    /// that cannot come. `shutdown` acts on the socket itself, across every
    /// duplicate, unblocking both the peer and this connection's reader thread. It
    /// reaches every connection the acceptor took, registered or not: a reader thread
    /// may register its write half during the drop.
    fn drop(&mut self) {
        let mut state = lock(&self.shared.state);
        state.closed = true;
        for stream in state.accepted.drain(..) {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        drop(state);
        // Unblock the acceptor if any client slot was never claimed (a coordinator
        // binds an optional admin slot that only `repro -- drain/rebalance` dials):
        // a bounded burst of self-connects makes `accept` return so the thread can
        // exit instead of leaking. Once the acceptor has exited and dropped the
        // listener, the next connect fails fast and the loop stops.
        for _ in 0..self.num_workers {
            match TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(50)) {
                Ok(poke) => {
                    let _ = poke.shutdown(std::net::Shutdown::Both);
                }
                Err(_) => break,
            }
        }
    }
}

fn accept_loop(listener: TcpListener, acceptor: Source) {
    let shared = &acceptor.0;
    for _ in 0..shared.pools.len() {
        let stream = match listener.accept().and_then(|(stream, _)| {
            let kept = stream.try_clone()?;
            Ok((stream, kept))
        }) {
            Ok((stream, kept)) => {
                let mut state = lock(&shared.state);
                if state.closed {
                    // The transport is gone: this is one of its drop's self-connects,
                    // or a client that came too late. Either way nobody will serve it.
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    continue;
                }
                state.accepted.push(kept);
                stream
            }
            Err(e) => return shared.deliver(Err(e.into()), 0),
        };
        let reader = Source::start(shared);
        let _ = thread::Builder::new()
            .name("dssp-net-reader".into())
            .spawn(move || reader_loop(stream, reader));
    }
}

/// One connection's thread: reads its frames and delivers each, attributed with the
/// rank its leading `Hello` announced — running the installed step itself, or queueing
/// the frame when none is installed.
fn reader_loop(stream: TcpStream, source: Source) {
    let shared = &source.0;
    let _ = stream.set_nodelay(true);
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => return shared.deliver(Err(e.into()), 0),
    };
    let mut reader = BufReader::new(stream);
    let mut payload: Vec<u8> = Vec::new();
    // The first frame must be a Hello (or, on a shard server, a GroupHello)
    // announcing the connection's rank.
    let (hello, announced, wire_len) = match read_message(&mut reader, &mut payload, None) {
        Ok((hello @ (Message::Hello { rank, .. } | Message::GroupHello { rank, .. }), len)) => {
            (hello, rank, len)
        }
        Ok((other, len)) => {
            let e = NetError::Protocol(format!("first frame was {other:?}, expected Hello"));
            return shared.deliver(Err(e), len);
        }
        Err(e) => return shared.deliver(Err(e), 0),
    };
    // The slot count is really the transport's client-slot count: a shard server
    // binds `workers + 1` slots and its coordinator announces the extra top rank.
    let slots = shared.pools.len();
    let rank = announced as usize;
    if rank >= slots {
        let e = NetError::Protocol(format!(
            "rank {announced} out of range for {slots} client slots"
        ));
        return shared.deliver(Err(e), wire_len);
    }
    // Registered before the Hello is delivered, so whoever serves the rank's first
    // message can already answer it.
    lock(&shared.writers).streams[rank] = Some(write_half);
    let pool = &shared.pools[rank];
    // Nothing answers a Hello, so its peer may write a bulk frame right behind it: that
    // frame is read here while a second thread waits for the lock with the Hello (the
    // module docs give the argument this keeps whole). Without a thread to spare, the
    // Hello is delivered here first.
    let hello = Mutex::new(Some(hello));
    let deliver_hello = || {
        if let Some(hello) = lock(&hello).take() {
            shared.deliver(Ok((rank, hello)), wire_len);
        }
    };
    let mut next = thread::scope(|scope| {
        if thread::Builder::new()
            .spawn_scoped(scope, deliver_hello)
            .is_err()
        {
            deliver_hello();
        }
        read_message(&mut reader, &mut payload, Some(pool))
    });
    loop {
        match next {
            Ok((msg, wire_len)) => shared.deliver(Ok((rank, msg)), wire_len),
            // EOF after shutdown is the normal end of a connection.
            Err(e) => return shared.deliver(Err(connection_failed(rank, e)), 0),
        }
        next = read_message(&mut reader, &mut payload, Some(pool));
    }
}

/// The one frame-to-message reader of both server ends (TCP's connection readers, the
/// loopback server's `recv`): reads the next frame from `reader` and returns it
/// decoded with its size on the wire, length prefix included. The bulk kinds go into
/// buffers the serving loop handed back to the connection's `pool`, taken once the
/// frame's header has arrived (an empty or absent pool falls back to a fresh `Vec`, so
/// correctness never depends on the recycling): gradients stream through
/// [`FrameBody`] straight into their `Vec`; the kinds with a version vector are read
/// whole into `payload` and their vector decoded into its pooled `Vec`
/// ([`crate::wire::decode_with_run`]). Every other kind is read whole into `payload`
/// and decoded.
pub(crate) fn read_message<R: Read + ?Sized>(
    reader: &mut R,
    payload: &mut Vec<u8>,
    pool: Option<&Mutex<Pool>>,
) -> Result<(Message, usize), NetError> {
    fn recycled<T>(pool: Option<&Mutex<Pool>>, kind: fn(&mut Pool) -> &mut Vec<Vec<T>>) -> Vec<T> {
        pool.and_then(|pool| kind(&mut lock(pool)).pop())
            .unwrap_or_default()
    }
    let body = FrameBody::begin(reader)?;
    let wire_len = body.wire_len();
    let msg = match body.tag() {
        TAG_PUSH => {
            let mut grads = recycled(pool, |p| &mut p.grads);
            let (iteration, trace) = body.push_into(&mut grads)?;
            Message::Push {
                iteration,
                trace,
                grads,
            }
        }
        TAG_PUSH_SLICE => {
            let mut grads = recycled(pool, |p| &mut p.grads);
            let (iteration, epoch, trace, pull) = body.push_slice_into(&mut grads)?;
            Message::PushSlice {
                iteration,
                epoch,
                trace,
                pull,
                grads,
            }
        }
        TAG_PULL_DELTA | TAG_PULL_SHARDS => {
            body.buffer(payload)?;
            let mut known = recycled(pool, |p| &mut p.known);
            let mut msg = wire::decode_with_run(payload, &mut known)?;
            if let Message::PullDelta { known_versions, .. }
            | Message::PullShards { known_versions, .. } = &mut msg
            {
                *known_versions = known;
            }
            msg
        }
        _ => {
            body.buffer(payload)?;
            wire::decode(payload)?
        }
    };
    Ok((msg, wire_len))
}

/// What a failed read on `rank`'s connection ends a server's `recv` with, on either
/// transport. A clean EOF at a frame boundary keeps its rank as
/// [`NetError::ClientLost`], so serving loops can decide whether the departure is
/// fatal (shard servers outlive their finished workers; a single server does not). A
/// reset carries the same meaning: a killed worker with an unread reply in its
/// receive buffer closes with RST rather than FIN. Anything else — a frame that does
/// not decode — is a protocol failure naming the rank.
pub(crate) fn connection_failed(rank: usize, e: NetError) -> NetError {
    match e {
        NetError::Disconnected => NetError::ClientLost { rank },
        NetError::Io(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
                    | std::io::ErrorKind::BrokenPipe
            ) =>
        {
            NetError::ClientLost { rank }
        }
        e => NetError::Protocol(format!("connection of worker {rank} failed: {e}")),
    }
}

impl ServerTransport for TcpServerTransport {
    fn recv(&mut self) -> Result<(usize, Message), NetError> {
        let mut state = lock(&self.shared.state);
        loop {
            if let Some(arrival) = state.inbox.pop_front() {
                return arrival;
            }
            if state.sources == 0 {
                return Err(NetError::Disconnected);
            }
            state = self
                .shared
                .changed
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Runs `step` on the connection threads: whichever reader holds an arrival runs
    /// it, under the lock, and writes its replies itself. What arrived before the step
    /// was installed (the workers may connect, say Hello and pull before the server
    /// starts serving) is run first, here, in arrival order.
    fn run_steps(&mut self, mut step: Box<dyn ServeStep>) -> StepsRun {
        let shared = &*self.shared;
        let mut state = lock(&shared.state);
        while let Some(arrival) = state.inbox.pop_front() {
            if let Some(outcome) = shared.run_step(&mut *step, arrival) {
                return (step, outcome);
            }
        }
        if state.sources == 0 {
            return (step, Err(NetError::Disconnected));
        }
        state.step = Slot::Running(step);
        loop {
            state = shared
                .changed
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            match std::mem::replace(&mut state.step, Slot::Idle) {
                Slot::Ended(step, outcome) => return (step, outcome),
                running => state.step = running,
            }
        }
    }
}

impl ServerReplies for TcpServerTransport {
    fn num_workers(&self) -> usize {
        self.num_workers
    }

    fn send_frame(
        &mut self,
        rank: usize,
        frames: u64,
        write: FrameWriter<'_>,
    ) -> Result<(), NetError> {
        (&*self.shared).send_frame(rank, frames, write)
    }

    fn transport_stats(&self) -> TransportStats {
        self.stats()
    }

    fn recycle_f32s(&mut self, rank: usize, buf: Vec<f32>) {
        (&*self.shared).recycle_f32s(rank, buf)
    }

    fn recycle_u64s(&mut self, rank: usize, buf: Vec<u64>) {
        (&*self.shared).recycle_u64s(rank, buf)
    }
}

/// Worker end of the TCP transport.
pub struct TcpWorkerTransport {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    scratch: Vec<u8>,
    payload: Vec<u8>,
    stats: TransportStats,
    /// Human-readable peer name used to attribute timeout/disconnect errors
    /// ("shard server 1 at 127.0.0.1:4242"). Defaults to "server at ADDR".
    peer: String,
    /// The address this transport connected to, kept so a [`NetError::PeerLost`]
    /// carries enough context to reconnect.
    addr: String,
    /// The rank this side announced in its `Hello`/`GroupHello`, once known.
    rank: Option<u32>,
    /// The last server clock (weight version) confirmed by a reply, once known.
    last_clock: Option<u64>,
    /// Active read timeout, if any (see [`TcpWorkerTransport::set_read_timeout`]).
    read_timeout: Option<Duration>,
}

impl TcpWorkerTransport {
    /// Connects to a server at `addr`, retrying for a few seconds so workers may be
    /// launched before (or concurrently with) the server process.
    pub fn connect(addr: &str) -> Result<Self, NetError> {
        Self::connect_with_retry(addr, 50, Duration::from_millis(50))
    }

    /// Connects with an explicit retry schedule: `attempts` tries, starting
    /// `initial_pause` apart and backing off exponentially (doubling per attempt) up
    /// to a 2-second cap. Every sleep is scaled by a pseudo-random factor in
    /// `[0.5, 1.0)`, so a fleet of workers retrying against one restarted shard
    /// server does not hammer it in lockstep.
    pub fn connect_with_retry(
        addr: &str,
        attempts: u32,
        initial_pause: Duration,
    ) -> Result<Self, NetError> {
        const BACKOFF_CAP: Duration = Duration::from_secs(2);
        let mut jitter = Xorshift::from_entropy();
        let mut pause = initial_pause;
        let mut last_err: Option<std::io::Error> = None;
        for attempt in 0..attempts.max(1) {
            if attempt > 0 {
                thread::sleep(jitter.scale(pause));
                pause = (pause * 2).min(BACKOFF_CAP);
            }
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    let reader = BufReader::new(stream.try_clone()?);
                    return Ok(Self {
                        reader,
                        writer: stream,
                        scratch: Vec::new(),
                        payload: Vec::new(),
                        stats: TransportStats::default(),
                        peer: format!("server at {addr}"),
                        addr: addr.to_string(),
                        rank: None,
                        last_clock: None,
                        read_timeout: None,
                    });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.map(NetError::Io).unwrap_or(NetError::Disconnected))
    }

    /// Names this connection's peer for error attribution: a group worker labels each
    /// link ("shard server 2 at ADDR") so losing one server of a fleet produces an
    /// error naming exactly which one, not a generic disconnect.
    pub fn set_peer_label(&mut self, label: impl Into<String>) {
        self.peer = label.into();
    }

    /// Arms (or disarms, with `None`) a socket read timeout. A blocking `recv` that
    /// sees no frame within the window fails with [`NetError::PeerTimeout`] naming the
    /// peer, instead of stalling forever on a dead shard server. The connection is not
    /// usable for further reads after a timeout fires (a frame may have been consumed
    /// partially); callers treat it as fatal.
    ///
    /// Workers arm this only on shard-server links, whose replies (slice acks, pull
    /// replies) are always prompt — the coordinator link stays blocking because a
    /// policy may legitimately defer an `OK` for a long time.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), NetError> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        self.read_timeout = timeout;
        Ok(())
    }

    /// Byte/frame counters accumulated so far.
    pub fn stats(&self) -> TransportStats {
        self.stats
    }
}

/// Minimal xorshift64* generator used only to jitter reconnect backoff — not
/// statistical-quality randomness, just enough to break retry lockstep across a
/// fleet of workers.
struct Xorshift(u64);

impl Xorshift {
    fn from_entropy() -> Self {
        let seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
            .unwrap_or(0x9e37_79b9_7f4a_7c15);
        Self(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Scales `pause` by a factor in `[0.5, 1.0)`.
    fn scale(&mut self, pause: Duration) -> Duration {
        let frac = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        pause.mul_f64(0.5 + frac / 2.0)
    }
}

impl WorkerTransport for TcpWorkerTransport {
    fn send_frame(&mut self, write: FrameWriter<'_>) -> Result<(), NetError> {
        let wire_len =
            write(&mut self.writer, &mut self.scratch).map_err(|e| self.peer_error(e.into()))?;
        self.stats.sent(1, wire_len);
        Ok(())
    }

    fn recv_frame(&mut self) -> Result<(FrameBody<'_, dyn Read + '_>, &mut Vec<u8>), NetError> {
        let body = FrameBody::begin(&mut self.reader as &mut dyn Read)?;
        self.stats.received(body.wire_len());
        Ok((body, &mut self.payload))
    }

    /// Rewrites anonymous transport failures — a timeout, a lost connection — into
    /// ones that name the peer; the write path's failures go through it too.
    fn peer_error(&self, e: NetError) -> NetError {
        match e {
            NetError::Io(io)
                if matches!(
                    io.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) && self.read_timeout.is_some() =>
            {
                NetError::PeerTimeout {
                    peer: self.peer.clone(),
                    timeout_ms: self.read_timeout.map(|t| t.as_millis() as u64).unwrap_or(0),
                }
            }
            NetError::Disconnected => NetError::PeerLost {
                peer: self.peer.clone(),
                addr: Some(self.addr.clone()),
                rank: self.rank,
                last_clock: self.last_clock,
            },
            other => other,
        }
    }

    /// Also remembers the rank a `Hello` or `GroupHello` announces, for
    /// [`NetError::PeerLost`].
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        if let Message::Hello { rank, .. } | Message::GroupHello { rank, .. } = msg {
            self.rank = Some(*rank);
        }
        self.send_frame(&|w, scratch| wire::write_frame(w, msg, scratch))
    }

    fn note_confirmed_clock(&mut self, clock: u64) {
        self.last_clock = Some(clock);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{PullOutcome, PullView};
    use crate::wire::PROTOCOL_VERSION;

    #[test]
    fn tcp_frames_flow_both_ways() {
        let mut server = TcpServerTransport::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr().to_string();
        let client = thread::spawn(move || {
            let mut worker = TcpWorkerTransport::connect(&addr).unwrap();
            worker
                .send(&Message::Hello {
                    version: PROTOCOL_VERSION,
                    rank: 0,
                    num_workers: 1,
                    config_digest: 7,
                })
                .unwrap();
            worker.send_push(1, 42, &[0.5, -1.25]).unwrap();
            let reply = worker.recv().unwrap();
            assert!(matches!(reply, Message::PushReply { version: 1, .. }));
            let stats = worker.stats();
            assert_eq!(stats.frames_sent, 2);
            assert_eq!(stats.frames_received, 1);
            assert!(stats.bytes_sent > 0 && stats.bytes_received > 0);
        });
        let (rank, hello) = server.recv().unwrap();
        assert_eq!(rank, 0);
        assert!(matches!(
            hello,
            Message::Hello {
                config_digest: 7,
                ..
            }
        ));
        let (_, push) = server.recv().unwrap();
        match push {
            Message::Push {
                iteration,
                trace,
                grads,
            } => {
                assert_eq!(iteration, 1);
                assert_eq!(trace, 42);
                assert_eq!(grads, vec![0.5, -1.25]);
                server.recycle_f32s(0, grads);
            }
            other => panic!("unexpected: {other:?}"),
        }
        server
            .send(
                0,
                &Message::PushReply {
                    granted_extra: 0,
                    version: 1,
                },
            )
            .unwrap();
        let stats = server.stats();
        assert_eq!(stats.frames_received, 2);
        assert_eq!(stats.frames_sent, 1);
        client.join().unwrap();
    }

    #[test]
    fn tcp_delta_pull_round_trip_reconstructs_the_store() {
        let mut server = TcpServerTransport::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr().to_string();
        let client = thread::spawn(move || {
            let mut worker = TcpWorkerTransport::connect(&addr).unwrap();
            worker
                .send(&Message::Hello {
                    version: PROTOCOL_VERSION,
                    rank: 0,
                    num_workers: 1,
                    config_digest: 0,
                })
                .unwrap();
            let mut weights = Vec::new();
            let mut versions = Vec::new();
            // First pull: no cache yet, must arrive full.
            match worker
                .pull_into(true, 0, &mut weights, &mut versions)
                .unwrap()
            {
                PullOutcome::Applied(applied) => assert!(applied.full),
                other => panic!("unexpected: {other:?}"),
            }
            assert_eq!(weights, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
            assert_eq!(versions, vec![1, 1]);
            // Second pull: delta with one stale shard.
            match worker
                .pull_into(true, 0, &mut weights, &mut versions)
                .unwrap()
            {
                PullOutcome::Applied(applied) => {
                    assert!(!applied.full);
                    assert_eq!(applied.shards_updated, 1);
                }
                other => panic!("unexpected: {other:?}"),
            }
            assert_eq!(weights, vec![1.0, 2.0, 3.0, -4.0, -5.0]);
            assert_eq!(versions, vec![1, 2]);
        });
        // Server side: 5 weights over 2 shards ([0..3), [3..5)).
        let mut weights = vec![1.0f32, 2.0, 3.0, 4.0, 5.0];
        let offsets = [0usize, 3, 5];
        let mut versions = vec![1u64, 1];
        let (_, hello) = server.recv().unwrap();
        assert!(matches!(hello, Message::Hello { .. }));
        // Full pull.
        let (rank, msg) = server.recv().unwrap();
        assert!(matches!(msg, Message::Pull { .. }));
        server
            .send_pull_reply(
                rank,
                &PullView {
                    clock: 2,
                    versions: &versions,
                    offsets: &offsets,
                    weights: &weights,
                    known: None,
                },
            )
            .unwrap();
        // Mutate shard 1, then answer the delta pull.
        weights[3] = -4.0;
        weights[4] = -5.0;
        versions[1] = 2;
        let (rank, msg) = server.recv().unwrap();
        let known = match msg {
            Message::PullDelta { known_versions, .. } => known_versions,
            other => panic!("unexpected: {other:?}"),
        };
        assert_eq!(known, vec![1, 1]);
        server
            .send_pull_reply(
                rank,
                &PullView {
                    clock: 3,
                    versions: &versions,
                    offsets: &offsets,
                    weights: &weights,
                    known: Some(&known),
                },
            )
            .unwrap();
        server.recycle_u64s(rank, known);
        client.join().unwrap();
    }

    /// A step that says when it has served a `Hello` and panics on anything else.
    struct PanicsAfterHello(std::sync::mpsc::Sender<()>);

    impl ServeStep for PanicsAfterHello {
        fn step(&mut self, arrival: Arrival, _: &mut dyn ServerReplies) -> Result<bool, NetError> {
            match arrival {
                Ok((_, Message::Hello { .. })) => {
                    let _ = self.0.send(());
                    Ok(false)
                }
                _ => panic!("the step fails on purpose"),
            }
        }
    }

    /// The step runs on a connection thread while the serving thread waits for the
    /// run to end: a panic there must end the run with a typed error, not leave the
    /// serving thread waiting for a thread that is gone.
    #[test]
    fn a_step_that_panics_on_a_reader_thread_ends_the_run_with_an_error() {
        let mut server = TcpServerTransport::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr().to_string();
        let (helloed_tx, helloed) = std::sync::mpsc::channel();
        let (done_tx, done) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let (_, outcome) = server.run_steps(Box::new(PanicsAfterHello(helloed_tx)));
            let _ = done_tx.send(outcome);
        });
        let mut worker = TcpWorkerTransport::connect(&addr).unwrap();
        worker
            .send(&Message::Hello {
                version: PROTOCOL_VERSION,
                rank: 0,
                num_workers: 1,
                config_digest: 0,
            })
            .unwrap();
        // Once the Hello is served, the next frame finds the step installed, so its
        // reader runs it.
        helloed.recv_timeout(Duration::from_secs(10)).unwrap();
        worker.send(&Message::Pull { trace: 0 }).unwrap();
        assert!(matches!(
            done.recv_timeout(Duration::from_secs(10)),
            Ok(Err(NetError::ReaderPanicked))
        ));
    }

    #[test]
    fn non_hello_first_frame_is_a_protocol_error() {
        let mut server = TcpServerTransport::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr().to_string();
        let client = thread::spawn(move || {
            let mut worker = TcpWorkerTransport::connect(&addr).unwrap();
            worker.send(&Message::Pull { trace: 0 }).unwrap();
        });
        assert!(matches!(server.recv(), Err(NetError::Protocol(_))));
        client.join().unwrap();
    }

    #[test]
    fn out_of_range_rank_is_rejected() {
        let mut server = TcpServerTransport::bind("127.0.0.1:0", 2).unwrap();
        let addr = server.local_addr().to_string();
        let client = thread::spawn(move || {
            let mut worker = TcpWorkerTransport::connect(&addr).unwrap();
            worker
                .send(&Message::Hello {
                    version: PROTOCOL_VERSION,
                    rank: 9,
                    num_workers: 2,
                    config_digest: 0,
                })
                .unwrap();
        });
        assert!(matches!(server.recv(), Err(NetError::Protocol(_))));
        client.join().unwrap();
    }
}
