//! The TCP transport: real sockets over `std::net`, one blocking reader thread per
//! connection.
//!
//! Threading model: the server binds a listener; an acceptor thread accepts exactly
//! `num_workers` connections; each connection gets a reader thread that blocks on the
//! next frame and forwards it decoded — attributed with the rank announced in the
//! connection's leading `Hello` — into one crossbeam channel. The server's command
//! loop is the only consumer of that channel and the only writer to the sockets, so
//! the parameter server itself stays single-threaded and lock-free.
//!
//! Every message operation is the traits' provided one (`crate::transport`); this
//! module supplies the primitives over the socket — the frame writer is the stream
//! itself, the worker's frame reader its `BufReader` — plus what only a socket needs:
//! the rank a worker announced and the last clock it saw confirmed (for
//! [`NetError::PeerLost`]), read errors attributed to the peer, byte counters, and the
//! pools that hand consumed bulk buffers back to the connection readers
//! ([`ServerTransport::recycle_f32s`]). On the training path every bulk byte is moved
//! once per hop, by the socket copy itself, and nothing is allocated per frame on
//! either end:
//!
//! * frames that carry an `f32` run (`Push`, `PushSlice`, pull replies) are written
//!   as one vectored write of a small stack header plus the run's own bytes — the
//!   worker's gradient slice, the server store's shard ranges
//!   ([`crate::transport::PullView::write_frame`]; a shard server's slice ack rides
//!   in front of its shards in the same write) — with no frame buffer in between;
//! * they are read through [`FrameBody`]: length, tag and fixed fields come through
//!   the connection's `BufReader` and are validated like the buffered decoders
//!   validate them, then the run is read from that same reader straight into where it
//!   belongs — on the server a gradient `Vec` recycled back from the command loop
//!   through a per-rank pool channel, on the worker its own `weights[start..end]`;
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

use crate::transport::{FrameWriter, ServerTransport, WorkerTransport};
use crate::wire::{
    self, FrameBody, Message, TAG_PULL_DELTA, TAG_PULL_SHARDS, TAG_PUSH, TAG_PUSH_SLICE,
};
use crate::NetError;
use crossbeam_channel::{unbounded, Receiver, Sender};
use std::io::{BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
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

/// The recycle-channel senders of one rank's connection: the command loop pushes
/// consumed bulk buffers back so the reader can decode the next message into them.
struct RankPools {
    grads: Sender<Vec<f32>>,
    known: Sender<Vec<u64>>,
}

/// The receiving ends of [`RankPools`], which a connection's reader decodes into.
pub(crate) struct Recycled {
    grads: Receiver<Vec<f32>>,
    known: Receiver<Vec<u64>>,
}

enum Event {
    /// A connection completed its `Hello`; `stream` is the write half for its rank and
    /// `pools` the recycle channels feeding its reader's decode buffers.
    Register {
        rank: usize,
        stream: TcpStream,
        pools: RankPools,
    },
    /// A decoded frame from `rank` (or the error that ended its connection).
    Frame(usize, Result<Message, NetError>),
    /// A failure on a connection that never identified itself.
    Unattributed(NetError),
}

/// Every connection the acceptor took, and whether the transport is gone. `Drop` and
/// the acceptor meet under its lock, so each accepted socket is shut down by exactly
/// one of them: by `Drop` if it was accepted before, by the acceptor if after.
#[derive(Default)]
struct Accepted {
    streams: Vec<TcpStream>,
    closed: bool,
}

/// Server end of the TCP transport.
pub struct TcpServerTransport {
    local_addr: SocketAddr,
    num_workers: usize,
    accepted: Arc<Mutex<Accepted>>,
    events: Receiver<Event>,
    writers: Vec<Option<TcpStream>>,
    pools: Vec<Option<RankPools>>,
    scratch: Vec<u8>,
    rx: Arc<RxCounters>,
    /// The send-side counters (the receive side is `rx`).
    tx: TransportStats,
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
        let (event_tx, events) = unbounded();
        let rx = Arc::new(RxCounters::default());
        let rx_for_readers = Arc::clone(&rx);
        let accepted = Arc::new(Mutex::new(Accepted::default()));
        let taken = Arc::clone(&accepted);
        thread::Builder::new()
            .name("dssp-net-acceptor".into())
            .spawn(move || accept_loop(listener, num_workers, &taken, event_tx, rx_for_readers))
            .expect("spawn acceptor thread");
        Ok(Self {
            local_addr,
            num_workers,
            accepted,
            events,
            writers: (0..num_workers).map(|_| None).collect(),
            pools: (0..num_workers).map(|_| None).collect(),
            scratch: Vec::new(),
            rx,
            tx: TransportStats::default(),
        })
    }

    /// The bound address (useful with port 0 to learn the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Byte/frame counters accumulated so far (receive side includes every
    /// connection's reader thread).
    pub fn stats(&self) -> TransportStats {
        TransportStats {
            bytes_received: self.rx.bytes.load(Ordering::Relaxed),
            frames_received: self.rx.frames.load(Ordering::Relaxed),
            ..self.tx
        }
    }
}

/// `rank`'s write half, once its connection has registered.
fn writer_of(writers: &mut [Option<TcpStream>], rank: usize) -> Result<&mut TcpStream, NetError> {
    writers[rank]
        .as_mut()
        .ok_or_else(|| NetError::Protocol(format!("worker {rank} never said Hello")))
}

impl Drop for TcpServerTransport {
    /// Mirrors what the kernel does for a killed server process: close every
    /// connection so peers blocked in `recv` observe EOF. The reader threads hold
    /// duplicated FDs, so merely dropping the write halves would leave the sockets
    /// open — and a worker with nothing left to send would block forever on a reply
    /// that cannot come. `shutdown` acts on the socket itself, across every
    /// duplicate, unblocking both the peer and this connection's reader thread. It
    /// reaches every connection the acceptor took, registered or not: a reader thread
    /// that registers during the drop has its write half parked in the event channel,
    /// where no shutdown of the known writers would find it.
    fn drop(&mut self) {
        let mut accepted = self.accepted.lock().unwrap_or_else(PoisonError::into_inner);
        accepted.closed = true;
        for stream in accepted.streams.drain(..) {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        drop(accepted);
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

fn accept_loop(
    listener: TcpListener,
    num_workers: usize,
    accepted: &Mutex<Accepted>,
    event_tx: Sender<Event>,
    rx: Arc<RxCounters>,
) {
    for _ in 0..num_workers {
        let stream = match listener.accept().and_then(|(stream, _)| {
            let kept = stream.try_clone()?;
            Ok((stream, kept))
        }) {
            Ok((stream, kept)) => {
                let mut accepted = accepted.lock().unwrap_or_else(PoisonError::into_inner);
                if accepted.closed {
                    // The transport is gone: this is one of its drop's self-connects,
                    // or a client that came too late. Either way nobody will serve it.
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    continue;
                }
                accepted.streams.push(kept);
                stream
            }
            Err(e) => {
                let _ = event_tx.send(Event::Unattributed(e.into()));
                return;
            }
        };
        let tx = event_tx.clone();
        let rx = Arc::clone(&rx);
        let _ = thread::Builder::new()
            .name("dssp-net-reader".into())
            .spawn(move || reader_loop(stream, num_workers, tx, rx));
    }
}

fn reader_loop(stream: TcpStream, num_workers: usize, tx: Sender<Event>, rx: Arc<RxCounters>) {
    let _ = stream.set_nodelay(true);
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            let _ = tx.send(Event::Unattributed(e.into()));
            return;
        }
    };
    let mut reader = BufReader::new(stream);
    let mut payload: Vec<u8> = Vec::new();
    // Recycle channels: the command loop returns consumed bulk buffers here so the
    // steady-state decode below never allocates.
    let (grads_tx, grads) = unbounded::<Vec<f32>>();
    let (known_tx, known) = unbounded::<Vec<u64>>();
    let pools = Recycled { grads, known };
    let mut next = |reader: &mut BufReader<TcpStream>| {
        let (msg, wire_len) = read_message(reader, &mut payload, Some(&pools))?;
        rx.record(wire_len);
        Ok::<_, NetError>(msg)
    };
    // The first frame must be a Hello (or, on a shard server, a GroupHello)
    // announcing the connection's rank.
    let hello = match next(&mut reader) {
        Ok(msg @ (Message::Hello { .. } | Message::GroupHello { .. })) => msg,
        Ok(other) => {
            let _ = tx.send(Event::Unattributed(NetError::Protocol(format!(
                "first frame was {other:?}, expected Hello"
            ))));
            return;
        }
        Err(e) => {
            let _ = tx.send(Event::Unattributed(e));
            return;
        }
    };
    let announced = match &hello {
        Message::Hello { rank, .. } | Message::GroupHello { rank, .. } => *rank,
        _ => unreachable!("matched a hello above"),
    };
    // `num_workers` here is really the transport's client-slot count: a shard server
    // binds `workers + 1` slots and its coordinator announces the extra top rank.
    let rank = if (announced as usize) < num_workers {
        announced as usize
    } else {
        let _ = tx.send(Event::Unattributed(NetError::Protocol(format!(
            "rank {announced} out of range for {num_workers} client slots"
        ))));
        return;
    };
    // Registration travels on the same channel before the Hello frame, so the command
    // loop always owns the write half by the time it sees the rank's first message.
    if tx
        .send(Event::Register {
            rank,
            stream: write_half,
            pools: RankPools {
                grads: grads_tx,
                known: known_tx,
            },
        })
        .is_err()
    {
        return;
    }
    if tx.send(Event::Frame(rank, Ok(hello))).is_err() {
        return;
    }
    loop {
        match next(&mut reader) {
            Ok(msg) => {
                if tx.send(Event::Frame(rank, Ok(msg))).is_err() {
                    return; // server gone
                }
            }
            Err(e) => {
                // EOF after shutdown is the normal end of a connection; the command
                // loop has stopped receiving by then, so a failed send is fine too.
                let _ = tx.send(Event::Frame(rank, Err(e)));
                return;
            }
        }
    }
}

/// The one frame-to-message reader of both server ends (TCP's connection readers, the
/// loopback server's `recv`): reads the next frame from `reader` and returns it
/// decoded with its size on the wire, length prefix included. The bulk kinds go into
/// buffers recycled from the command loop through `pools` (an empty or absent pool
/// falls back to a fresh `Vec`, so correctness never depends on the recycling):
/// gradients stream straight into their `Vec`, version vectors are decoded from the
/// small buffered frame. Every other kind is buffered in `payload` and decoded.
pub(crate) fn read_message<R: Read + ?Sized>(
    reader: &mut R,
    payload: &mut Vec<u8>,
    pools: Option<&Recycled>,
) -> Result<(Message, usize), NetError> {
    fn recycled<T>(pool: Option<&Receiver<Vec<T>>>) -> Vec<T> {
        pool.and_then(|pool| pool.try_recv().ok())
            .unwrap_or_default()
    }
    let body = FrameBody::begin(reader)?;
    let wire_len = body.wire_len();
    let msg = match body.tag() {
        TAG_PUSH => {
            let mut grads = recycled(pools.map(|p| &p.grads));
            let (iteration, trace) = body.push_into(&mut grads)?;
            Message::Push {
                iteration,
                trace,
                grads,
            }
        }
        TAG_PUSH_SLICE => {
            let mut grads = recycled(pools.map(|p| &p.grads));
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
            let mut known = recycled(pools.map(|p| &p.known));
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
    fn num_workers(&self) -> usize {
        self.num_workers
    }

    fn recv(&mut self) -> Result<(usize, Message), NetError> {
        loop {
            match self.events.recv().map_err(|_| NetError::Disconnected)? {
                Event::Register {
                    rank,
                    stream,
                    pools,
                } => {
                    let _ = stream.set_nodelay(true);
                    self.writers[rank] = Some(stream);
                    self.pools[rank] = Some(pools);
                }
                Event::Frame(rank, Ok(msg)) => return Ok((rank, msg)),
                Event::Frame(rank, Err(e)) => return Err(connection_failed(rank, e)),
                Event::Unattributed(e) => return Err(e),
            }
        }
    }

    fn send_frame(
        &mut self,
        rank: usize,
        frames: u64,
        write: FrameWriter<'_>,
    ) -> Result<(), NetError> {
        let wire_len = write(writer_of(&mut self.writers, rank)?, &mut self.scratch)?;
        self.tx.sent(frames, wire_len);
        Ok(())
    }

    fn transport_stats(&self) -> TransportStats {
        self.stats()
    }

    fn recycle_f32s(&mut self, rank: usize, buf: Vec<f32>) {
        if let Some(pools) = &self.pools[rank] {
            let _ = pools.grads.send(buf);
        }
    }

    fn recycle_u64s(&mut self, rank: usize, buf: Vec<u64>) {
        if let Some(pools) = &self.pools[rank] {
            let _ = pools.known.send(buf);
        }
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
