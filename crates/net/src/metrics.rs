//! Live metrics: atomically-updated counters with a hand-rolled Prometheus
//! text-format `GET /metrics` endpoint.
//!
//! Every serving role (single server, shard server, coordinator) owns a [`Metrics`]
//! registry and, when `--metrics-addr` is set, a [`MetricsServer`]: a tiny listener
//! that answers `GET /metrics` in the Prometheus text exposition format (0.0.4). No
//! HTTP library is needed: the endpoint reads one request head and writes one
//! `Content-Length` response.
//!
//! Each family on the page is one row of the `registry!` table below: its type, name
//! and HELP text, and its fields — an `AtomicU64` per series (with an optional label
//! pair; the series of one family share its header) or a [`Histogram`] with its
//! `const` bounds. The fields, [`Metrics::new`], the page [`Metrics::render`] writes
//! and [`Metrics::CATALOG`] are generated from it. Only the per-rank straggler gauge,
//! whose series depend on which ranks have had a verdict, is written by hand. A
//! [`Histogram`] holds a bucket per bound plus `+Inf`, a sum and a count; its
//! [`observe`](Histogram::observe) is the one bucket search and its rendering the one
//! writer of `_bucket` lines. `tests/metrics_exposition.rs` pins the page byte for
//! byte, and `tests/catalog.rs` holds README's catalog to [`Metrics::CATALOG`].
//!
//! Updates are relaxed `fetch_add`/`store`s on preallocated atomics, so a serving loop
//! never allocates for them; rendering happens on the scrape thread.
//! [`parse_exposition`] is the inverse of [`Metrics::render`], used by `repro -- stats`
//! and the golden-format tests.

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

/// Upper bounds (µs) of the round-time histogram buckets — the per-worker inter-push
/// gap observed at the serving role. Spans sub-millisecond loopback rounds to
/// multi-second straggler rounds.
pub const ROUND_TIME_LE: [u64; 10] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 50_000, 250_000, 1_000_000,
];

/// Upper bounds (µs) of the push-latency histogram buckets — the time between a
/// push's apply and its grant (0 for immediate grants; the gate wait for deferred
/// ones).
pub const PUSH_LATENCY_LE: [u64; 10] = [
    50, 100, 250, 500, 1_000, 2_500, 10_000, 50_000, 250_000, 1_000_000,
];

/// Highest worker rank the per-rank straggler bitmask gauges can represent.
pub const MAX_STRAGGLER_RANKS: usize = 64;

/// One family of the page as [`Metrics::CATALOG`] lists it: its name, its Prometheus
/// type and its HELP text.
pub type Family = (&'static str, &'static str, &'static str);

/// The straggler gauge, the one family outside the table: one series per rank that
/// has had a verdict, labelled `worker`.
const STRAGGLER: Family = (
    "dssp_straggler",
    "gauge",
    "Whether a worker's gate-wait share is a z-score outlier.",
);

/// Generates the registry from its table, whose two sections are in page order. A
/// scalar row is `counter|gauge "family" "HELP" { field (key = "value")?, ... }`, a
/// field per series (its label pair follows the role/rank labels); a histogram row is
/// `"family" "HELP" { field: BOUNDS }`.
macro_rules! registry {
    (
        scalars { $(
            $kind:ident $family:literal $help:literal {
                $( $field:ident $(($key:ident = $value:literal))? ),+ $(,)?
            }
        )* }
        histograms { $(
            $h_family:literal $h_help:literal { $h_field:ident: $le:ident }
        )* }
    ) => {
        /// The fixed metric registry of one serving role. All fields are plain atomics
        /// so serving loops update them allocation-free; [`Metrics::render`] snapshots
        /// them into the Prometheus text format on the scrape thread.
        #[derive(Debug)]
        pub struct Metrics {
            role: Role,
            rank: u32,
            $($(
                #[doc = concat!(
                    $help $(, " The `", stringify!($key), "=\"", $value, "\"` series.")?
                )]
                pub $field: AtomicU64,
            )+)*
            $(
                #[doc = $h_help]
                pub $h_field: Histogram<{ $le.len() }>,
            )*
            /// Bitmask of ranks (< [`MAX_STRAGGLER_RANKS`]) that ever had a straggler
            /// verdict.
            straggler_seen: AtomicU64,
            /// Bitmask of ranks currently flagged as stragglers.
            straggler_flags: AtomicU64,
        }

        impl Metrics {
            /// A zeroed registry labelled `role`/`rank` (the labels on every exported
            /// series).
            pub fn new(role: Role, rank: u32) -> Self {
                Self {
                    role,
                    rank,
                    $($( $field: AtomicU64::new(0), )+)*
                    $( $h_field: Histogram::new($le), )*
                    straggler_seen: AtomicU64::new(0),
                    straggler_flags: AtomicU64::new(0),
                }
            }

            /// Every family the page can carry, in page order: the table's rows, then
            /// the straggler gauge (on the page once a rank has had a verdict).
            pub const CATALOG: &'static [Family] = &[
                $( ($family, stringify!($kind), $help), )*
                $( ($h_family, "histogram", $h_help), )*
                STRAGGLER,
            ];

            /// Writes the table's families: a header each, then each of its series.
            fn render_table(&self, out: &mut String, labels: &str) {
                $(
                    header(out, ($family, stringify!($kind), $help));
                    $(
                        let _ = writeln!(
                            out,
                            concat!(
                                $family, "{{{}" $(, ",", stringify!($key), "=\"", $value, "\"")?,
                                "}} {}"
                            ),
                            labels,
                            self.$field.load(Ordering::Relaxed),
                        );
                    )+
                )*
                $(
                    header(out, ($h_family, "histogram", $h_help));
                    self.$h_field.render(out, $h_family, labels);
                )*
            }
        }
    };
}

registry! {
    scalars {
        counter "dssp_pushes_total"
            "Gradient pushes applied (clock pushes gated, on the coordinator)." { pushes }
        counter "dssp_blocked_pushes_total"
            "Pushes whose worker was blocked by the synchronization gate." { blocked_pushes }
        counter "dssp_credits_granted_total"
            "Extra-iteration credits granted by the DSSP controller (sum of r*)."
            { credits_granted }
        counter "dssp_credits_reclaimed_total"
            "Unspent credits reclaimed from evicted workers." { credits_reclaimed }
        counter "dssp_checkpoints_written_total"
            "Checkpoints written by this process." { checkpoints_written }
        counter "dssp_reconnects_total"
            "Worker-to-server links re-established after a drop." { reconnects }
        counter "dssp_evictions_total" "Workers evicted from the run." { evictions }
        counter "dssp_joins_total" "Join and Hello handshakes completed." { joins }
        counter "dssp_events_dropped_total"
            "Structured events dropped because the event log was full." { events_dropped }
        counter "dssp_pulls_total" "Pulls served, by mode." {
            pulls_full (mode = "full"),
            pulls_delta (mode = "delta"),
        }
        counter "dssp_bytes_total" "Bytes moved over the data transport, by direction." {
            bytes_sent (direction = "sent"),
            bytes_received (direction = "received"),
        }
        gauge "dssp_blocked_workers"
            "Workers currently blocked waiting for a deferred OK." { blocked_workers }
        gauge "dssp_model_version" "Current model version (total pushes applied)." { version }
        gauge "dssp_checkpoint_last_timestamp_seconds"
            "Unix time of the most recent checkpoint (0 = none)." { checkpoint_last_unix }
        gauge "dssp_layout_epoch"
            "Layout epoch this process runs at (bumped by each committed migration)."
            { layout_epoch }
        gauge "dssp_shards_owned"
            "Shards this process currently owns (group total on the coordinator)."
            { shards_owned }
    }
    histograms {
        "dssp_staleness" "Per-push staleness (clock lead over the slowest worker)."
            { staleness: STALENESS_LE }
        "dssp_round_time"
            "Per-worker round time in microseconds (inter-push gap at this role)."
            { round_time: ROUND_TIME_LE }
        "dssp_push_latency"
            "Cross-role push latency in microseconds (gradient apply to clock grant)."
            { push_latency: PUSH_LATENCY_LE }
    }
}

/// Writes a family's `# HELP` and `# TYPE` lines.
fn header(out: &mut String, (name, kind, help): Family) {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
}

/// A cumulative Prometheus histogram over `N` `const` upper bounds, with an implicit
/// `+Inf` bucket past the last one.
#[derive(Debug)]
pub struct Histogram<const N: usize> {
    le: [u64; N],
    buckets: [AtomicU64; N],
    /// Samples above the last bound: what the `+Inf` bucket adds.
    above: AtomicU64,
    sum: AtomicU64,
    count: AtomicU64,
}

impl<const N: usize> Histogram<N> {
    fn new(le: [u64; N]) -> Self {
        Self {
            le,
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            above: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one sample in the first bucket whose bound it does not exceed (`+Inf`
    /// past the last), plus the sum and the count. Allocation-free: three relaxed
    /// `fetch_add`s.
    #[inline]
    pub fn observe(&self, value: u64) {
        let bucket = match self.le.iter().position(|le| value <= *le) {
            Some(i) => &self.buckets[i],
            None => &self.above,
        };
        bucket.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Writes the series of family `name`: the cumulative `_bucket`s (`+Inf` last),
    /// `_sum` and `_count`.
    fn render(&self, out: &mut String, name: &str, labels: &str) {
        let mut cumulative = 0u64;
        for (le, bucket) in self.le.iter().zip(&self.buckets) {
            cumulative += bucket.load(Ordering::Relaxed);
            let _ = writeln!(out, "{name}_bucket{{{labels},le=\"{le}\"}} {cumulative}");
        }
        cumulative += self.above.load(Ordering::Relaxed);
        let _ = writeln!(out, "{name}_bucket{{{labels},le=\"+Inf\"}} {cumulative}");
        let (sum, count) = (
            self.sum.load(Ordering::Relaxed),
            self.count.load(Ordering::Relaxed),
        );
        let _ = writeln!(
            out,
            "{name}_sum{{{labels}}} {sum}\n{name}_count{{{labels}}} {count}"
        );
    }
}

impl Metrics {
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
    /// `# HELP` / `# TYPE` headers, `role`/`rank` labels on every series, the table's
    /// families in order, then the straggler gauge of every rank with a verdict.
    pub fn render(&self) -> String {
        let labels = format!(
            "role=\"{}\",rank=\"{}\"",
            escape_label(self.role.as_str()),
            self.rank
        );
        let mut out = String::with_capacity(4096);
        self.render_table(&mut out, &labels);
        let seen = self.straggler_seen.load(Ordering::Relaxed);
        let flags = self.straggler_flags.load(Ordering::Relaxed);
        if seen != 0 {
            header(&mut out, STRAGGLER);
            let (name, ..) = STRAGGLER;
            for rank in (0..MAX_STRAGGLER_RANKS).filter(|rank| seen & (1u64 << rank) != 0) {
                let flagged = (flags >> rank) & 1;
                let _ = writeln!(out, "{name}{{{labels},worker=\"{rank}\"}} {flagged}");
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
            m.staleness.observe(s);
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
            m.round_time.observe(us);
        }
        for us in [0, 40, 700, 90_000] {
            m.push_latency.observe(us);
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
