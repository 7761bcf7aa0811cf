//! Structured event stream: a lock-free, bounded, append-only event log.
//!
//! Every networked role (single server, coordinator, shard server, worker) can record
//! the synchronization decisions it observes — pushes, pulls, gate blocks and
//! releases, r* credit grants, evictions, joins, checkpoints, reconnects — into an
//! [`EventLog`] and flush it to one NDJSON file per role at shutdown (`--event-log
//! DIR`). The DSSP paper's central claim is only visible as a *time series* of these
//! decisions, so the log is what turns a live run from a poll-at-end black box into an
//! inspectable timeline (see `repro -- trace`).
//!
//! Recording is designed for the PR 4 zero-allocation hot paths:
//!
//! * slots are preallocated at construction (`Box<[Slot]>` of atomics);
//! * a writer claims an index with one `fetch_add` and fills the slot with four
//!   relaxed stores plus one release store — no locks, no allocation, no `unsafe`;
//! * when the log is full, events are dropped and counted, never reallocated;
//! * a disabled log is simply an `Option::None` at the call site — the hook costs one
//!   branch.
//!
//! Timestamps are Unix-epoch microseconds ([`now_micros`]) rather than a per-process
//! monotonic clock, so NDJSON files flushed by *different processes* of one group run
//! merge onto a single comparable timeline.

use crate::json::{self, Value};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, Weak};
use std::time::{SystemTime, UNIX_EPOCH};

/// Which process role emitted an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The classic single parameter server (`repro -- serve`).
    Server,
    /// The group coordinator (clock/controller service).
    Coordinator,
    /// A storage-only shard server (rank = server index).
    ShardServer,
    /// A training worker (rank = worker rank).
    Worker,
}

impl Role {
    /// All roles, in wire order (the index is the packed representation).
    pub const ALL: [Role; 4] = [
        Role::Server,
        Role::Coordinator,
        Role::ShardServer,
        Role::Worker,
    ];

    /// Stable lowercase name used in the NDJSON `role` field.
    pub fn as_str(self) -> &'static str {
        match self {
            Role::Server => "server",
            Role::Coordinator => "coord",
            Role::ShardServer => "shard",
            Role::Worker => "worker",
        }
    }

    /// Parses the name produced by [`Role::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|r| r.as_str() == s)
    }

    /// Conventional NDJSON file name for this role at `rank` (shard index / worker
    /// rank; the single server and the coordinator ignore the rank).
    pub fn file_name(self, rank: u32) -> String {
        match self {
            Role::Server => "server.ndjson".to_string(),
            Role::Coordinator => "coord.ndjson".to_string(),
            Role::ShardServer => format!("shard-{rank}.ndjson"),
            Role::Worker => format!("worker-{rank}.ndjson"),
        }
    }
}

/// What happened. The `payload` interpretation is per-kind (documented on each
/// variant); it is always a single `u64` so recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A gradient push was sent (worker: payload = iteration) or applied (server:
    /// payload = resulting version).
    Push,
    /// A pull completed (payload = model version pulled, or shard count served).
    Pull,
    /// The synchronization gate blocked a worker (payload = blocked worker rank).
    GateBlock,
    /// A blocked worker was released (payload = released worker rank, or on the
    /// worker side the microseconds spent waiting).
    GateRelease,
    /// The DSSP policy granted extra credits (payload = r* credits granted).
    CreditGrant,
    /// A worker was evicted (payload = evicted worker rank).
    Eviction,
    /// A process joined / completed its handshake (payload = rank or resume point).
    Join,
    /// A checkpoint was written (payload = model version checkpointed).
    Checkpoint,
    /// A worker↔shard-server link was re-established (payload = server index).
    Reconnect,
    /// A shard migration froze the group and started transferring (payload = target
    /// layout epoch).
    MigrationPrepare,
    /// One shard's weights + momentum landed on its destination server (payload =
    /// global shard index).
    ShardTransfer,
    /// A migration committed: the group now serves the new layout (payload = the
    /// committed layout epoch).
    MigrationCommit,
    /// A migration was rolled back; the group keeps its old layout (payload = the
    /// abandoned target epoch).
    MigrationRollback,
    /// A traced operation started on this role (payload = a [`SpanOp`] discriminant;
    /// the `trace` field names the operation).
    SpanBegin,
    /// A traced operation finished on this role (payload = the same [`SpanOp`]
    /// discriminant its `span-begin` carried).
    SpanEnd,
}

impl EventKind {
    /// All kinds, in wire order (the index is the packed representation — new kinds
    /// are appended at the end, never inserted).
    pub const ALL: [EventKind; 15] = [
        EventKind::Push,
        EventKind::Pull,
        EventKind::GateBlock,
        EventKind::GateRelease,
        EventKind::CreditGrant,
        EventKind::Eviction,
        EventKind::Join,
        EventKind::Checkpoint,
        EventKind::Reconnect,
        EventKind::MigrationPrepare,
        EventKind::ShardTransfer,
        EventKind::MigrationCommit,
        EventKind::MigrationRollback,
        EventKind::SpanBegin,
        EventKind::SpanEnd,
    ];

    /// Stable kebab-case name used in the NDJSON `kind` field.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Push => "push",
            EventKind::Pull => "pull",
            EventKind::GateBlock => "gate-block",
            EventKind::GateRelease => "gate-release",
            EventKind::CreditGrant => "credit-grant",
            EventKind::Eviction => "eviction",
            EventKind::Join => "join",
            EventKind::Checkpoint => "checkpoint",
            EventKind::Reconnect => "reconnect",
            EventKind::MigrationPrepare => "migration-prepare",
            EventKind::ShardTransfer => "shard-transfer",
            EventKind::MigrationCommit => "migration-commit",
            EventKind::MigrationRollback => "migration-rollback",
            EventKind::SpanBegin => "span-begin",
            EventKind::SpanEnd => "span-end",
        }
    }

    /// Parses the name produced by [`EventKind::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.as_str() == s)
    }

    fn index(self) -> u64 {
        Self::ALL.iter().position(|k| *k == self).expect("in ALL") as u64
    }
}

/// The operation a `span-begin`/`span-end` pair brackets, carried in the event
/// payload (a worker-side networked operation; the span duration is that
/// operation's communication time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanOp {
    /// A gradient push (single-server `Push` or a group push fan-out, send → ack).
    Push,
    /// A weight pull (request → reply applied).
    Pull,
    /// A clock push to the coordinator (announce → grant received).
    Clock,
}

impl SpanOp {
    /// The payload value encoding this operation.
    pub fn code(self) -> u64 {
        match self {
            SpanOp::Push => 1,
            SpanOp::Pull => 2,
            SpanOp::Clock => 3,
        }
    }

    /// Decodes a span payload back into the operation, if known.
    pub fn from_code(code: u64) -> Option<Self> {
        match code {
            1 => Some(SpanOp::Push),
            2 => Some(SpanOp::Pull),
            3 => Some(SpanOp::Clock),
            _ => None,
        }
    }

    /// Stable name used in rendered timelines and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanOp::Push => "push",
            SpanOp::Pull => "pull",
            SpanOp::Clock => "clock",
        }
    }
}

/// Packs a worker-originated causal trace id from the originating rank and a
/// per-rank operation sequence number. `seq` starts at 1, so the id 0 is reserved
/// for "untraced" ([`NO_TRACE`]).
pub fn trace_id(rank: u32, seq: u32) -> u64 {
    (u64::from(rank) << 32) | u64::from(seq)
}

/// The trace id of an untraced event (no causal context).
pub const NO_TRACE: u64 = 0;

/// One recorded observation: when, who, what, and a kind-specific payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Unix-epoch microseconds at record time.
    pub ts: u64,
    /// Emitting role.
    pub role: Role,
    /// Rank within the role (worker rank / shard index; 0 for server and coord).
    pub rank: u32,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific payload (see [`EventKind`]).
    pub payload: u64,
    /// Causal trace id ([`trace_id`]) of the worker operation this event belongs
    /// to, or [`NO_TRACE`] when the event has no causal context.
    pub trace: u64,
}

/// Encodes an event as one NDJSON line (no trailing newline).
pub fn encode_line(e: &Event) -> String {
    format!(
        "{{\"ts\": {}, \"role\": {}, \"rank\": {}, \"kind\": {}, \"payload\": {}, \"trace\": {}}}",
        e.ts,
        json::escape(e.role.as_str()),
        e.rank,
        json::escape(e.kind.as_str()),
        e.payload,
        e.trace
    )
}

/// Parses one NDJSON line back into an [`Event`]. Truncated lines, missing fields,
/// wrong field types and unknown role/kind names are all rejected.
pub fn parse_line(line: &str) -> Result<Event, String> {
    let v = json::parse(line).map_err(|e| e.to_string())?;
    let field = |name: &str| -> Result<&Value, String> {
        v.get(name).ok_or_else(|| format!("missing field '{name}'"))
    };
    let num = |name: &str| -> Result<u64, String> {
        field(name)?
            .as_u64()
            .ok_or_else(|| format!("field '{name}' is not a non-negative integer"))
    };
    let role_name = field("role")?
        .as_str()
        .ok_or_else(|| "field 'role' is not a string".to_string())?;
    let role = Role::parse(role_name).ok_or_else(|| format!("unknown role '{role_name}'"))?;
    let kind_name = field("kind")?
        .as_str()
        .ok_or_else(|| "field 'kind' is not a string".to_string())?;
    let kind = EventKind::parse(kind_name).ok_or_else(|| format!("unknown kind '{kind_name}'"))?;
    let rank = num("rank")?;
    let rank = u32::try_from(rank).map_err(|_| "field 'rank' out of range".to_string())?;
    Ok(Event {
        ts: num("ts")?,
        role,
        rank,
        kind,
        payload: num("payload")?,
        trace: num("trace")?,
    })
}

/// Unix-epoch microseconds right now (the shared clock across a group's processes).
pub fn now_micros() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

struct Slot {
    ts: AtomicU64,
    payload: AtomicU64,
    trace: AtomicU64,
    // kind index + 1; 0 marks a slot that was claimed but not yet (or never) filled.
    meta: AtomicU64,
}

/// The lock-free, bounded, append-only event log (one per process).
///
/// Writers call [`EventLog::record`] from any thread; it never blocks, never
/// allocates, and drops (counting) once the fixed capacity is exhausted. The log is
/// read back with [`EventLog::events`] — normally once, at shutdown, to flush NDJSON.
pub struct EventLog {
    role: Role,
    rank: u32,
    slots: Box<[Slot]>,
    next: AtomicUsize,
    dropped: AtomicU64,
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("role", &self.role)
            .field("rank", &self.rank)
            .field("capacity", &self.slots.len())
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl EventLog {
    /// Default capacity: enough for every event of the repository's largest smoke
    /// runs with plenty of headroom, at ~1.5 MiB of preallocated slots.
    pub const DEFAULT_CAPACITY: usize = 65_536;

    /// A log for `role`/`rank` with [`EventLog::DEFAULT_CAPACITY`] slots.
    pub fn new(role: Role, rank: u32) -> Self {
        Self::with_capacity(role, rank, Self::DEFAULT_CAPACITY)
    }

    /// A log with an explicit slot capacity (events beyond it are dropped, counted).
    pub fn with_capacity(role: Role, rank: u32, capacity: usize) -> Self {
        let slots = (0..capacity)
            .map(|_| Slot {
                ts: AtomicU64::new(0),
                payload: AtomicU64::new(0),
                trace: AtomicU64::new(0),
                meta: AtomicU64::new(0),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            role,
            rank,
            slots,
            next: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// A shared log that will flush to `dir`, registered so [`live_logs`] can read it
    /// while its role still runs: a role that hangs never flushes.
    pub fn for_dir(role: Role, rank: u32, dir: &Path) -> Arc<Self> {
        let log = Arc::new(Self::new(role, rank));
        let mut live = LIVE.lock().unwrap_or_else(PoisonError::into_inner);
        live.retain(|(_, weak)| weak.strong_count() > 0);
        live.push((dir.to_path_buf(), Arc::downgrade(&log)));
        log
    }

    /// The emitting role this log was built for.
    pub fn role(&self) -> Role {
        self.role
    }

    /// The rank within the role this log was built for.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Records one event, timestamped now. Lock-free and allocation-free: one
    /// `fetch_add` to claim a slot, five atomic stores to fill it.
    #[inline]
    pub fn record(&self, kind: EventKind, payload: u64) {
        self.record_traced_at(now_micros(), kind, payload, NO_TRACE);
    }

    /// Like [`EventLog::record`] with an explicit timestamp (tests, replays).
    #[inline]
    pub fn record_at(&self, ts: u64, kind: EventKind, payload: u64) {
        self.record_traced_at(ts, kind, payload, NO_TRACE);
    }

    /// Records one event stamped with a causal [`trace_id`], timestamped now.
    #[inline]
    pub fn record_traced(&self, kind: EventKind, payload: u64, trace: u64) {
        self.record_traced_at(now_micros(), kind, payload, trace);
    }

    /// Like [`EventLog::record_traced`] with an explicit timestamp.
    #[inline]
    pub fn record_traced_at(&self, ts: u64, kind: EventKind, payload: u64, trace: u64) {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = self.slots.get(i) else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        slot.ts.store(ts, Ordering::Relaxed);
        slot.payload.store(payload, Ordering::Relaxed);
        slot.trace.store(trace, Ordering::Relaxed);
        // The release store publishes the slot: a reader that acquires a non-zero
        // meta sees the ts/payload/trace stores above.
        slot.meta.store(kind.index() + 1, Ordering::Release);
    }

    /// Number of events currently recorded (filled slots).
    pub fn len(&self) -> usize {
        self.next.load(Ordering::Relaxed).min(self.slots.len())
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// A snapshot of all published events, in record order. Slots claimed by a writer
    /// that has not finished its stores yet are skipped.
    pub fn events(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.len());
        for slot in self.slots.iter().take(self.len()) {
            let meta = slot.meta.load(Ordering::Acquire);
            if meta == 0 {
                continue;
            }
            let kind = EventKind::ALL[(meta - 1) as usize];
            out.push(Event {
                ts: slot.ts.load(Ordering::Relaxed),
                role: self.role,
                rank: self.rank,
                kind,
                payload: slot.payload.load(Ordering::Relaxed),
                trace: slot.trace.load(Ordering::Relaxed),
            });
        }
        out
    }

    /// Renders the whole log as NDJSON (one [`encode_line`] per event).
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            let _ = writeln!(out, "{}", encode_line(&e));
        }
        out
    }

    /// The conventional file name this log flushes to (role- and rank-derived).
    pub fn file_name(&self) -> String {
        self.role.file_name(self.rank)
    }

    /// Flushes the log to `dir/<file_name>`, creating `dir` if needed. Returns the
    /// written path.
    pub fn flush_to_dir(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_ndjson())?;
        Ok(path)
    }
}

/// Every log built by [`EventLog::for_dir`], with the directory it flushes to. Its
/// lock is taken poisoned or not: a `retain` of dead entries or a `push` leaves the
/// list valid at every step.
static LIVE: Mutex<Vec<(PathBuf, Weak<EventLog>)>> = Mutex::new(Vec::new());

/// The logs built by [`EventLog::for_dir`] for `dir` that are still alive, in the
/// order they were built — how a watchdog reads a hung run's last events.
pub fn live_logs(dir: &Path) -> Vec<Arc<EventLog>> {
    let live = LIVE.lock().unwrap_or_else(PoisonError::into_inner);
    live.iter()
        .filter(|(at, _)| at == dir)
        .filter_map(|(_, weak)| weak.upgrade())
        .collect()
}

/// Reads and merges every `*.ndjson` file in `dir`, sorted by timestamp (ties broken
/// by role/rank so the order is deterministic). Malformed lines are an error — a
/// torn flush should fail loudly, not render a misleading timeline.
pub fn read_dir_events(dir: &Path) -> std::io::Result<Vec<Event>> {
    let mut events = Vec::new();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("ndjson"))
        .collect();
    entries.sort();
    for path in entries {
        let text = std::fs::read_to_string(&path)?;
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let event = parse_line(line).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{}:{}: {e}", path.display(), lineno + 1),
                )
            })?;
            events.push(event);
        }
    }
    events.sort_by_key(|e| (e.ts, e.role.as_str(), e.rank));
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Event {
        Event {
            ts: 1_723_000_000_123_456,
            role: Role::Worker,
            rank: 2,
            kind: EventKind::CreditGrant,
            payload: 7,
            trace: trace_id(2, 9),
        }
    }

    #[test]
    fn every_kind_and_role_round_trips_through_ndjson() {
        for role in Role::ALL {
            for kind in EventKind::ALL {
                let e = Event {
                    ts: 42,
                    role,
                    rank: 3,
                    kind,
                    payload: u64::MAX,
                    trace: trace_id(3, u32::MAX),
                };
                let line = encode_line(&e);
                assert_eq!(parse_line(&line).unwrap(), e, "line: {line}");
            }
        }
    }

    #[test]
    fn trace_ids_pack_and_unpack() {
        assert_eq!(trace_id(0, 1), 1);
        assert_eq!(trace_id(7, 42), (7 << 32) | 42);
        assert_eq!(trace_id(u32::MAX, u32::MAX), u64::MAX);
        assert_eq!(NO_TRACE, 0);
        for op in [SpanOp::Push, SpanOp::Pull, SpanOp::Clock] {
            assert_eq!(SpanOp::from_code(op.code()), Some(op));
        }
        assert_eq!(SpanOp::from_code(0), None);
    }

    #[test]
    fn truncated_lines_are_rejected() {
        let line = encode_line(&sample());
        for cut in 1..line.len() {
            assert!(
                parse_line(&line[..cut]).is_err(),
                "prefix of length {cut} must not parse: {}",
                &line[..cut]
            );
        }
    }

    #[test]
    fn unknown_names_and_wrong_types_are_rejected() {
        assert!(parse_line(
            r#"{"ts": 1, "role": "gremlin", "rank": 0, "kind": "push", "payload": 0}"#
        )
        .is_err());
        assert!(parse_line(
            r#"{"ts": 1, "role": "worker", "rank": 0, "kind": "pushed", "payload": 0}"#
        )
        .is_err());
        assert!(parse_line(
            r#"{"ts": -1, "role": "worker", "rank": 0, "kind": "push", "payload": 0}"#
        )
        .is_err());
        assert!(
            parse_line(r#"{"role": "worker", "rank": 0, "kind": "push", "payload": 0}"#).is_err()
        );
        // Pre-v6 lines without a trace field are rejected too: the stream format is
        // versioned with the protocol, and a torn flush must fail loudly.
        assert!(parse_line(
            r#"{"ts": 1, "role": "worker", "rank": 0, "kind": "push", "payload": 0}"#
        )
        .is_err());
    }

    #[test]
    fn log_records_in_order_and_drops_when_full() {
        let log = EventLog::with_capacity(Role::ShardServer, 1, 4);
        for i in 0..6u64 {
            log.record_at(100 + i, EventKind::Push, i);
        }
        assert_eq!(log.len(), 4);
        assert_eq!(log.dropped(), 2);
        let events = log.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].payload, 0);
        assert_eq!(events[3].payload, 3);
        assert!(events
            .iter()
            .all(|e| e.role == Role::ShardServer && e.rank == 1));
    }

    #[test]
    fn concurrent_recording_loses_nothing_under_capacity() {
        let log = std::sync::Arc::new(EventLog::with_capacity(Role::Server, 0, 4096));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let log = std::sync::Arc::clone(&log);
                std::thread::spawn(move || {
                    for i in 0..512u64 {
                        log.record_at(t * 10_000 + i, EventKind::Pull, i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(log.len(), 2048);
        assert_eq!(log.dropped(), 0);
        assert_eq!(log.events().len(), 2048);
    }

    #[test]
    fn flush_and_read_dir_round_trip() {
        let dir = std::env::temp_dir().join(format!("dssp-events-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let worker = EventLog::with_capacity(Role::Worker, 0, 16);
        worker.record_at(20, EventKind::Push, 1);
        worker.record_at(40, EventKind::GateBlock, 0);
        let server = EventLog::with_capacity(Role::Server, 0, 16);
        server.record_at(30, EventKind::CreditGrant, 9);
        worker.flush_to_dir(&dir).unwrap();
        server.flush_to_dir(&dir).unwrap();
        let merged = read_dir_events(&dir).unwrap();
        assert_eq!(merged.len(), 3);
        assert_eq!(
            merged.iter().map(|e| e.ts).collect::<Vec<_>>(),
            vec![20, 30, 40],
            "merged stream is time-sorted across roles"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_logs_are_the_running_logs_of_one_directory() {
        let (a, b) = (Path::new("live-a"), Path::new("live-b"));
        let worker = EventLog::for_dir(Role::Worker, 1, a);
        let shard = EventLog::for_dir(Role::ShardServer, 0, a);
        let other = EventLog::for_dir(Role::Coordinator, 0, b);
        worker.record(EventKind::Push, 7);
        let live = live_logs(a);
        assert_eq!(live.len(), 2);
        assert_eq!(live[0].events().last().map(|e| e.payload), Some(7));
        assert_eq!(live[1].role(), Role::ShardServer);
        drop((live, shard));
        assert_eq!(live_logs(a).len(), 1, "a dropped log is no longer live");
        assert_eq!(live_logs(b)[0].role(), other.role());
    }
}
