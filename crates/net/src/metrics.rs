//! Live metrics: atomically-updated counters with a hand-rolled Prometheus
//! text-format `GET /metrics` endpoint.
//!
//! Every serving role (single server, shard server, coordinator) owns a [`Metrics`]
//! registry — a fixed set of `AtomicU64` counters, gauges and one staleness histogram
//! — and, when `--metrics-addr` is set, a [`MetricsServer`]: a tiny dedicated
//! listener that answers `GET /metrics` with the Prometheus text exposition format
//! (version 0.0.4). There is no HTTP library in this offline workspace and none is
//! needed: the endpoint reads one request head and writes one `Content-Length`
//! response.
//!
//! The hot-path contract matches PR 4's zero-allocation guarantee: every update is a
//! plain `fetch_add`/`store` on a preallocated atomic — rendering (which does
//! allocate) happens only on the scrape thread, never on the serving loop.
//!
//! [`parse_exposition`] is the inverse of [`Metrics::render`], used by the
//! `repro -- stats` fleet summary and by the golden-format tests (HELP/TYPE
//! discipline, label escaping, histogram bucket monotonicity).

use crate::NetError;
use dssp_core::events::Role;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Upper bounds of the staleness histogram buckets (`le` labels); an implicit `+Inf`
/// bucket follows. Powers of two past 2 because DSSP leads concentrate near the
/// threshold.
pub const STALENESS_LE: [u64; 7] = [0, 1, 2, 4, 8, 16, 32];

const BUCKETS: usize = STALENESS_LE.len() + 1;

/// Upper bounds (µs) of the `dssp_round_time` histogram buckets — the per-worker
/// inter-push gap observed at the serving role. Spans sub-millisecond loopback
/// rounds to multi-second straggler rounds.
pub const ROUND_TIME_LE: [u64; 10] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 50_000, 250_000, 1_000_000,
];

const ROUND_BUCKETS: usize = ROUND_TIME_LE.len() + 1;

/// Upper bounds (µs) of the `dssp_push_latency` histogram buckets — the time between
/// a push's apply and its grant (0 for immediate grants; the gate wait for deferred
/// ones).
pub const PUSH_LATENCY_LE: [u64; 10] = [
    50, 100, 250, 500, 1_000, 2_500, 10_000, 50_000, 250_000, 1_000_000,
];

const LATENCY_BUCKETS: usize = PUSH_LATENCY_LE.len() + 1;

/// Highest worker rank the per-rank straggler bitmask gauges can represent.
pub const MAX_STRAGGLER_RANKS: usize = 64;

/// The fixed metric registry of one serving role. All fields are plain atomics so
/// serving loops update them allocation-free; [`Metrics::render`] snapshots them into
/// the Prometheus text format on the scrape thread.
#[derive(Debug)]
pub struct Metrics {
    role: Role,
    rank: u32,
    /// Pushes applied (or, on the coordinator, clock pushes gated).
    pub pushes: AtomicU64,
    /// Pushes whose worker was blocked by the synchronization gate.
    pub blocked_pushes: AtomicU64,
    /// Full-model pulls served.
    pub pulls_full: AtomicU64,
    /// Incremental (delta) pulls served.
    pub pulls_delta: AtomicU64,
    /// Bytes written to the data transport (frames + length prefixes).
    pub bytes_sent: AtomicU64,
    /// Bytes read from the data transport.
    pub bytes_received: AtomicU64,
    /// Gauge: workers currently blocked waiting for a deferred `OK`.
    pub blocked_workers: AtomicU64,
    /// Gauge: the current model version (total pushes applied).
    pub version: AtomicU64,
    /// Extra-iteration credits granted by the DSSP controller (sum of r*).
    pub credits_granted: AtomicU64,
    /// Unspent credits reclaimed from evicted workers.
    pub credits_reclaimed: AtomicU64,
    /// Checkpoints written by this process.
    pub checkpoints_written: AtomicU64,
    /// Gauge: Unix seconds of the most recent checkpoint (0 = none yet).
    pub checkpoint_last_unix: AtomicU64,
    /// Worker↔server links re-established after a drop.
    pub reconnects: AtomicU64,
    /// Workers evicted from the run.
    pub evictions: AtomicU64,
    /// Join/Hello handshakes completed.
    pub joins: AtomicU64,
    /// Structured events dropped because the event log was full.
    pub events_dropped: AtomicU64,
    /// Gauge: the layout epoch this process currently runs at (bumped by each
    /// committed live migration).
    pub layout_epoch: AtomicU64,
    /// Gauge: shards this process currently owns (coordinator reports the group
    /// total; a drained server reports 0).
    pub shards_owned: AtomicU64,
    staleness_buckets: [AtomicU64; BUCKETS],
    staleness_sum: AtomicU64,
    staleness_count: AtomicU64,
    round_time_buckets: [AtomicU64; ROUND_BUCKETS],
    round_time_sum: AtomicU64,
    round_time_count: AtomicU64,
    push_latency_buckets: [AtomicU64; LATENCY_BUCKETS],
    push_latency_sum: AtomicU64,
    push_latency_count: AtomicU64,
    /// Bitmask of ranks (< [`MAX_STRAGGLER_RANKS`]) that ever had a straggler verdict.
    straggler_seen: AtomicU64,
    /// Bitmask of ranks currently flagged as stragglers.
    straggler_flags: AtomicU64,
}

impl Metrics {
    /// A zeroed registry labelled `role`/`rank` (the labels on every exported series).
    pub fn new(role: Role, rank: u32) -> Self {
        Self {
            role,
            rank,
            pushes: AtomicU64::new(0),
            blocked_pushes: AtomicU64::new(0),
            pulls_full: AtomicU64::new(0),
            pulls_delta: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
            bytes_received: AtomicU64::new(0),
            blocked_workers: AtomicU64::new(0),
            version: AtomicU64::new(0),
            credits_granted: AtomicU64::new(0),
            credits_reclaimed: AtomicU64::new(0),
            checkpoints_written: AtomicU64::new(0),
            checkpoint_last_unix: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            joins: AtomicU64::new(0),
            events_dropped: AtomicU64::new(0),
            layout_epoch: AtomicU64::new(0),
            shards_owned: AtomicU64::new(0),
            staleness_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            staleness_sum: AtomicU64::new(0),
            staleness_count: AtomicU64::new(0),
            round_time_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            round_time_sum: AtomicU64::new(0),
            round_time_count: AtomicU64::new(0),
            push_latency_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            push_latency_sum: AtomicU64::new(0),
            push_latency_count: AtomicU64::new(0),
            straggler_seen: AtomicU64::new(0),
            straggler_flags: AtomicU64::new(0),
        }
    }

    /// The role label value.
    pub fn role(&self) -> Role {
        self.role
    }

    /// The rank label value.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Records one per-push staleness sample into the histogram. Allocation-free:
    /// one bucket `fetch_add` plus sum/count updates.
    #[inline]
    pub fn observe_staleness(&self, staleness: u64) {
        let idx = STALENESS_LE
            .iter()
            .position(|le| staleness <= *le)
            .unwrap_or(BUCKETS - 1);
        self.staleness_buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.staleness_sum.fetch_add(staleness, Ordering::Relaxed);
        self.staleness_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one per-worker round time (inter-push gap, µs) into the
    /// `dssp_round_time` histogram. Allocation-free.
    #[inline]
    pub fn observe_round_time(&self, us: u64) {
        let idx = ROUND_TIME_LE
            .iter()
            .position(|le| us <= *le)
            .unwrap_or(ROUND_BUCKETS - 1);
        self.round_time_buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.round_time_sum.fetch_add(us, Ordering::Relaxed);
        self.round_time_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one cross-role push latency sample (apply → grant, µs) into the
    /// `dssp_push_latency` histogram. Allocation-free.
    #[inline]
    pub fn observe_push_latency(&self, us: u64) {
        let idx = PUSH_LATENCY_LE
            .iter()
            .position(|le| us <= *le)
            .unwrap_or(LATENCY_BUCKETS - 1);
        self.push_latency_buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.push_latency_sum.fetch_add(us, Ordering::Relaxed);
        self.push_latency_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Sets the straggler verdict for one rank (z-score of its cumulative gate wait
    /// above threshold → 1, otherwise 0). Two bitmask updates; ranks at or beyond
    /// [`MAX_STRAGGLER_RANKS`] are silently unrepresented.
    #[inline]
    pub fn set_straggler(&self, rank: usize, flagged: bool) {
        if rank >= MAX_STRAGGLER_RANKS {
            return;
        }
        let bit = 1u64 << rank;
        self.straggler_seen.fetch_or(bit, Ordering::Relaxed);
        if flagged {
            self.straggler_flags.fetch_or(bit, Ordering::Relaxed);
        } else {
            self.straggler_flags.fetch_and(!bit, Ordering::Relaxed);
        }
    }

    /// The current straggler bitmask (bit k = rank k flagged), for tests and the
    /// offline analyzer's live cross-check.
    pub fn straggler_flags(&self) -> u64 {
        self.straggler_flags.load(Ordering::Relaxed)
    }

    /// Renders the registry in the Prometheus text exposition format (0.0.4):
    /// `# HELP` / `# TYPE` headers, `role`/`rank` labels on every series, and a
    /// cumulative `dssp_staleness` histogram.
    pub fn render(&self) -> String {
        let labels = format!(
            "role=\"{}\",rank=\"{}\"",
            escape_label(self.role.as_str()),
            self.rank
        );
        let mut out = String::with_capacity(4096);
        let mut counter = |name: &str, help: &str, value: u64, extra: &str| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name}{{{labels}{extra}}} {value}");
        };
        counter(
            "dssp_pushes_total",
            "Gradient pushes applied (clock pushes gated, on the coordinator).",
            self.pushes.load(Ordering::Relaxed),
            "",
        );
        counter(
            "dssp_blocked_pushes_total",
            "Pushes whose worker was blocked by the synchronization gate.",
            self.blocked_pushes.load(Ordering::Relaxed),
            "",
        );
        counter(
            "dssp_credits_granted_total",
            "Extra-iteration credits granted by the DSSP controller (sum of r*).",
            self.credits_granted.load(Ordering::Relaxed),
            "",
        );
        counter(
            "dssp_credits_reclaimed_total",
            "Unspent credits reclaimed from evicted workers.",
            self.credits_reclaimed.load(Ordering::Relaxed),
            "",
        );
        counter(
            "dssp_checkpoints_written_total",
            "Checkpoints written by this process.",
            self.checkpoints_written.load(Ordering::Relaxed),
            "",
        );
        counter(
            "dssp_reconnects_total",
            "Worker-to-server links re-established after a drop.",
            self.reconnects.load(Ordering::Relaxed),
            "",
        );
        counter(
            "dssp_evictions_total",
            "Workers evicted from the run.",
            self.evictions.load(Ordering::Relaxed),
            "",
        );
        counter(
            "dssp_joins_total",
            "Join and Hello handshakes completed.",
            self.joins.load(Ordering::Relaxed),
            "",
        );
        counter(
            "dssp_events_dropped_total",
            "Structured events dropped because the event log was full.",
            self.events_dropped.load(Ordering::Relaxed),
            "",
        );

        // Labelled counter families share one HELP/TYPE header.
        let _ = writeln!(out, "# HELP dssp_pulls_total Pulls served, by mode.");
        let _ = writeln!(out, "# TYPE dssp_pulls_total counter");
        let _ = writeln!(
            out,
            "dssp_pulls_total{{{labels},mode=\"full\"}} {}",
            self.pulls_full.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "dssp_pulls_total{{{labels},mode=\"delta\"}} {}",
            self.pulls_delta.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "# HELP dssp_bytes_total Bytes moved over the data transport, by direction."
        );
        let _ = writeln!(out, "# TYPE dssp_bytes_total counter");
        let _ = writeln!(
            out,
            "dssp_bytes_total{{{labels},direction=\"sent\"}} {}",
            self.bytes_sent.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "dssp_bytes_total{{{labels},direction=\"received\"}} {}",
            self.bytes_received.load(Ordering::Relaxed)
        );

        let mut gauge = |name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name}{{{labels}}} {value}");
        };
        gauge(
            "dssp_blocked_workers",
            "Workers currently blocked waiting for a deferred OK.",
            self.blocked_workers.load(Ordering::Relaxed),
        );
        gauge(
            "dssp_model_version",
            "Current model version (total pushes applied).",
            self.version.load(Ordering::Relaxed),
        );
        gauge(
            "dssp_checkpoint_last_timestamp_seconds",
            "Unix time of the most recent checkpoint (0 = none).",
            self.checkpoint_last_unix.load(Ordering::Relaxed),
        );
        gauge(
            "dssp_layout_epoch",
            "Layout epoch this process runs at (bumped by each committed migration).",
            self.layout_epoch.load(Ordering::Relaxed),
        );
        gauge(
            "dssp_shards_owned",
            "Shards this process currently owns (group total on the coordinator).",
            self.shards_owned.load(Ordering::Relaxed),
        );

        let _ = writeln!(
            out,
            "# HELP dssp_staleness Per-push staleness (clock lead over the slowest worker)."
        );
        let _ = writeln!(out, "# TYPE dssp_staleness histogram");
        let mut cumulative = 0u64;
        for (i, le) in STALENESS_LE.iter().enumerate() {
            cumulative += self.staleness_buckets[i].load(Ordering::Relaxed);
            let _ = writeln!(
                out,
                "dssp_staleness_bucket{{{labels},le=\"{le}\"}} {cumulative}"
            );
        }
        cumulative += self.staleness_buckets[BUCKETS - 1].load(Ordering::Relaxed);
        let _ = writeln!(
            out,
            "dssp_staleness_bucket{{{labels},le=\"+Inf\"}} {cumulative}"
        );
        let _ = writeln!(
            out,
            "dssp_staleness_sum{{{labels}}} {}",
            self.staleness_sum.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "dssp_staleness_count{{{labels}}} {}",
            self.staleness_count.load(Ordering::Relaxed)
        );

        let mut histogram =
            |name: &str, help: &str, le: &[u64], buckets: &[AtomicU64], sum: u64, count: u64| {
                let _ = writeln!(out, "# HELP {name} {help}");
                let _ = writeln!(out, "# TYPE {name} histogram");
                let mut cumulative = 0u64;
                for (i, le) in le.iter().enumerate() {
                    cumulative += buckets[i].load(Ordering::Relaxed);
                    let _ = writeln!(out, "{name}_bucket{{{labels},le=\"{le}\"}} {cumulative}");
                }
                cumulative += buckets[le.len()].load(Ordering::Relaxed);
                let _ = writeln!(out, "{name}_bucket{{{labels},le=\"+Inf\"}} {cumulative}");
                let _ = writeln!(out, "{name}_sum{{{labels}}} {sum}");
                let _ = writeln!(out, "{name}_count{{{labels}}} {count}");
            };
        histogram(
            "dssp_round_time",
            "Per-worker round time in microseconds (inter-push gap at this role).",
            &ROUND_TIME_LE,
            &self.round_time_buckets,
            self.round_time_sum.load(Ordering::Relaxed),
            self.round_time_count.load(Ordering::Relaxed),
        );
        histogram(
            "dssp_push_latency",
            "Cross-role push latency in microseconds (gradient apply to clock grant).",
            &PUSH_LATENCY_LE,
            &self.push_latency_buckets,
            self.push_latency_sum.load(Ordering::Relaxed),
            self.push_latency_count.load(Ordering::Relaxed),
        );

        let seen = self.straggler_seen.load(Ordering::Relaxed);
        let flags = self.straggler_flags.load(Ordering::Relaxed);
        if seen != 0 {
            let _ = writeln!(
                out,
                "# HELP dssp_straggler Whether a worker's gate-wait share is a z-score outlier."
            );
            let _ = writeln!(out, "# TYPE dssp_straggler gauge");
            for rank in 0..MAX_STRAGGLER_RANKS {
                if seen & (1u64 << rank) != 0 {
                    let flagged = u64::from(flags & (1u64 << rank) != 0);
                    let _ = writeln!(
                        out,
                        "dssp_straggler{{{labels},worker=\"{rank}\"}} {flagged}"
                    );
                }
            }
        }
        out
    }
}

/// Escapes a Prometheus label value (`\` → `\\`, `"` → `\"`, newline → `\n`).
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// One parsed sample line of an exposition page.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (e.g. `dssp_pushes_total`).
    pub name: String,
    /// Label pairs in source order, values unescaped.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed exposition page: samples plus the HELP/TYPE metadata seen.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    /// All sample lines, in page order.
    pub samples: Vec<Sample>,
    /// `# TYPE` declarations: metric name → type string.
    pub types: Vec<(String, String)>,
    /// `# HELP` declarations: metric name → help text.
    pub helps: Vec<(String, String)>,
}

impl Exposition {
    /// First sample with this exact name and (subset of) labels.
    pub fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Sample> {
        self.samples
            .iter()
            .find(|s| s.name == name && labels.iter().all(|(k, v)| s.label(k) == Some(v)))
    }

    /// Like [`Exposition::find`], returning the sample's value.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.find(name, labels).map(|s| s.value)
    }
}

/// Parses a Prometheus text-format page (the dialect [`Metrics::render`] writes:
/// HELP/TYPE comment lines plus `name{labels} value` samples). Malformed lines are an
/// error, so the golden tests prove the page stays machine-readable.
pub fn parse_exposition(text: &str) -> Result<Exposition, String> {
    let mut page = Exposition::default();
    for (lineno, line) in text.lines().enumerate() {
        let fail = |msg: &str| format!("line {}: {msg}: {line}", lineno + 1);
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or_default();
            let name = parts.next().ok_or_else(|| fail("comment missing name"))?;
            let tail = parts.next().unwrap_or_default();
            match keyword {
                "HELP" => page.helps.push((name.to_string(), tail.to_string())),
                "TYPE" => {
                    if !matches!(
                        tail,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(fail("unknown metric type"));
                    }
                    page.types.push((name.to_string(), tail.to_string()));
                }
                _ => return Err(fail("unknown comment keyword")),
            }
            continue;
        }
        page.samples.push(parse_sample(line).map_err(|e| fail(&e))?);
    }
    Ok(page)
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let (head, value) = line
        .rsplit_once(' ')
        .ok_or_else(|| "sample missing value".to_string())?;
    let value: f64 = value
        .parse()
        .map_err(|_| "invalid sample value".to_string())?;
    let (name, labels) = match head.split_once('{') {
        None => (head.to_string(), Vec::new()),
        Some((name, rest)) => {
            let body = rest
                .strip_suffix('}')
                .ok_or_else(|| "unterminated label set".to_string())?;
            (name.to_string(), parse_labels(body)?)
        }
    };
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        || name.starts_with(|c: char| c.is_ascii_digit())
    {
        return Err(format!("invalid metric name '{name}'"));
    }
    Ok(Sample {
        name,
        labels,
        value,
    })
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if key.is_empty() {
            return Err("empty label name".to_string());
        }
        if chars.next() != Some('"') {
            return Err("label value must be quoted".to_string());
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                None => return Err("unterminated label value".to_string()),
                Some('"') => break,
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    _ => return Err("invalid label escape".to_string()),
                },
                Some(c) => value.push(c),
            }
        }
        labels.push((key, value));
        match chars.next() {
            None => return Ok(labels),
            Some(',') => continue,
            Some(_) => return Err("expected ',' between labels".to_string()),
        }
    }
}

/// Derives the listen address for a role `offset` ports above the base
/// `--metrics-addr` (shard server `i` listens at `port + 1 + i`). Port 0 stays 0, so
/// every role binds an ephemeral port of its own. A base that does not end in a
/// numeric port, or a derived port past 65535, is an error: a scrape target the
/// operator asked for must exist.
pub fn derive_metrics_addr(base: &str, offset: u16) -> Result<String, NetError> {
    let bad = |why: &str| NetError::Protocol(format!("--metrics-addr '{base}': {why}"));
    let (host, port) = base
        .rsplit_once(':')
        .ok_or_else(|| bad("expected HOST:PORT"))?;
    let port: u16 = port.parse().map_err(|_| bad("expected HOST:PORT"))?;
    let port = match port {
        0 => 0,
        _ => port
            .checked_add(offset)
            .ok_or_else(|| bad(&format!("no port {offset} above it")))?,
    };
    Ok(format!("{host}:{port}"))
}

/// The dedicated `GET /metrics` listener: accepts plain HTTP/1.x requests on its own
/// thread and answers each with a freshly rendered exposition page. Stop (or drop)
/// joins the thread.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9100`; port 0 picks an ephemeral port) and
    /// starts the responder thread.
    pub fn start(addr: &str, metrics: Arc<Metrics>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(format!("metrics-{local}"))
            .spawn(move || accept_loop(listener, metrics, stop_flag))?;
        Ok(Self {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals the responder thread and joins it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, metrics: Arc<Metrics>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Serve inline: scrapes are rare, tiny and read-only.
                let _ = respond(stream, &metrics);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn respond(mut stream: TcpStream, metrics: &Metrics) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut head = [0u8; 1024];
    let mut filled = 0;
    // Read until the end of the request head (or the buffer is full — more than
    // enough for the GET lines curl and `repro -- stats` send).
    while filled < head.len() {
        match stream.read(&mut head[filled..]) {
            Ok(0) => break,
            Ok(n) => {
                filled += n;
                if head[..filled].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let request = String::from_utf8_lossy(&head[..filled]);
    let line = request.lines().next().unwrap_or_default();
    let mut parts = line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, body) = if method == "GET" && (path == "/metrics" || path == "/") {
        ("200 OK", metrics.render())
    } else {
        ("404 Not Found", "only GET /metrics is served\n".to_string())
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

/// Scrapes `addr` once over plain TCP (a one-shot `GET /metrics`), returning the
/// response body. The client half of [`MetricsServer`], shared by `repro -- stats`
/// and the endpoint tests.
pub fn scrape(addr: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response")
        })?;
    if !response.starts_with("HTTP/1.1 200") && !response.starts_with("HTTP/1.0 200") {
        return Err(std::io::Error::other(format!(
            "non-200 response: {}",
            response.lines().next().unwrap_or_default()
        )));
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parses_and_buckets_are_monotonic() {
        let m = Metrics::new(Role::Server, 0);
        m.pushes.store(42, Ordering::Relaxed);
        for s in [0, 0, 1, 3, 9, 100] {
            m.observe_staleness(s);
        }
        let page = parse_exposition(&m.render()).expect("rendered page parses");
        assert_eq!(
            page.value("dssp_pushes_total", &[("role", "server"), ("rank", "0")]),
            Some(42.0)
        );
        let buckets: Vec<f64> = page
            .samples
            .iter()
            .filter(|s| s.name == "dssp_staleness_bucket")
            .map(|s| s.value)
            .collect();
        assert_eq!(buckets.len(), STALENESS_LE.len() + 1);
        assert!(
            buckets.windows(2).all(|w| w[0] <= w[1]),
            "cumulative buckets"
        );
        assert_eq!(*buckets.last().unwrap(), 6.0);
        assert_eq!(page.value("dssp_staleness_sum", &[]), Some(113.0));
    }

    #[test]
    fn latency_histograms_and_straggler_gauges_render() {
        let m = Metrics::new(Role::Coordinator, 0);
        for us in [80, 900, 4_000, 2_000_000] {
            m.observe_round_time(us);
        }
        for us in [0, 40, 700, 90_000] {
            m.observe_push_latency(us);
        }
        m.set_straggler(0, false);
        m.set_straggler(2, true);
        let page = parse_exposition(&m.render()).expect("rendered page parses");
        for name in ["dssp_round_time_bucket", "dssp_push_latency_bucket"] {
            let buckets: Vec<f64> = page
                .samples
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.value)
                .collect();
            assert_eq!(buckets.len(), ROUND_TIME_LE.len() + 1, "{name}");
            assert!(
                buckets.windows(2).all(|w| w[0] <= w[1]),
                "{name} cumulative"
            );
            assert_eq!(*buckets.last().unwrap(), 4.0, "{name} total");
        }
        assert_eq!(page.value("dssp_round_time_count", &[]), Some(4.0));
        assert_eq!(page.value("dssp_push_latency_sum", &[]), Some(90740.0));
        assert_eq!(page.value("dssp_straggler", &[("worker", "0")]), Some(0.0));
        assert_eq!(page.value("dssp_straggler", &[("worker", "2")]), Some(1.0));
        // Un-flagging clears the gauge but keeps the series visible.
        m.set_straggler(2, false);
        let page = parse_exposition(&m.render()).unwrap();
        assert_eq!(page.value("dssp_straggler", &[("worker", "2")]), Some(0.0));
    }

    #[test]
    fn label_escaping_round_trips() {
        let awkward = "we\\ird\"la\nbel";
        let line = format!("m{{l=\"{}\"}} 1", escape_label(awkward));
        let page = parse_exposition(&line).unwrap();
        assert_eq!(page.samples[0].label("l"), Some(awkward));
    }

    #[test]
    fn malformed_pages_are_rejected() {
        assert!(parse_exposition("# TYPE m flavour\n").is_err());
        assert!(parse_exposition("m{l=\"unterminated} 1\n").is_err());
        assert!(parse_exposition("m{l=\"v\"} not-a-number\n").is_err());
        assert!(parse_exposition("1bad_name 2\n").is_err());
    }

    #[test]
    fn derive_addr_offsets_the_port() {
        assert_eq!(
            derive_metrics_addr("127.0.0.1:9100", 2).unwrap(),
            "127.0.0.1:9102"
        );
        assert!(derive_metrics_addr("bad", 1).is_err());
    }

    #[test]
    fn derive_addr_keeps_an_ephemeral_port_ephemeral() {
        for offset in [0, 1, 7] {
            assert_eq!(
                derive_metrics_addr("127.0.0.1:0", offset).unwrap(),
                "127.0.0.1:0"
            );
        }
    }

    #[test]
    fn derive_addr_past_the_last_port_is_an_error() {
        assert_eq!(
            derive_metrics_addr("127.0.0.1:65534", 1).unwrap(),
            "127.0.0.1:65535"
        );
        let err = derive_metrics_addr("127.0.0.1:65535", 1).unwrap_err();
        assert!(err.to_string().contains("65535"), "{err}");
    }

    #[test]
    fn http_endpoint_serves_a_parseable_page() {
        let metrics = Arc::new(Metrics::new(Role::ShardServer, 3));
        metrics.pulls_delta.store(7, Ordering::Relaxed);
        let server = MetricsServer::start("127.0.0.1:0", Arc::clone(&metrics)).unwrap();
        let addr = server.local_addr().to_string();
        let body = scrape(&addr).expect("scrape succeeds");
        let page = parse_exposition(&body).expect("scraped page parses");
        assert_eq!(
            page.value(
                "dssp_pulls_total",
                &[("role", "shard"), ("rank", "3"), ("mode", "delta")]
            ),
            Some(7.0)
        );
        server.stop();
    }
}
