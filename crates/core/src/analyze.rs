//! Fleet health analytics: joins the per-role NDJSON event streams of one run
//! (`--event-log DIR`) into a per-round, per-worker explanation of where time went.
//!
//! The v6 causal trace ids ([`trace_id`](crate::events::trace_id)) are the join key:
//! a worker stamps one id on every operation it originates, the server/coordinator
//! stamp the same id on the events that operation caused, and the worker brackets
//! the operation with `span-begin`/`span-end`. Joining on the id therefore
//! reconstructs, for every push, the full causal chain
//!
//! ```text
//! worker span-begin ──wire──▶ server push (+ gate decision) ──wire──▶ worker
//!   gate-release ──▶ worker span-end
//! ```
//!
//! from which the analyzer derives:
//!
//! * a **per-round breakdown** per worker — compute vs. communication vs. DSSP
//!   gate wait — with slow rounds (wall time > mean + 2σ) called out together with
//!   the worker and component that dominated them;
//! * **cross-role push latency percentiles** (p50/p90/p99): worker `span-begin` to
//!   the server's `push` event with the same trace id, i.e. the one-way
//!   send + decode + apply time, measured across processes on the shared
//!   Unix-epoch-microsecond clock;
//! * a **staleness CDF**, replayed from the server's push stream with per-rank
//!   logical clocks (the paper's central distribution — how far ahead of the
//!   slowest worker each push ran);
//! * a **z-score straggler report** over total gate-wait time (a worker whose wait
//!   is more than [`STRAGGLER_Z`] standard deviations above the fleet mean is
//!   flagged — the offline twin of the live `dssp_straggler` gauge).
//!
//! `repro -- analyze <events-dir>` renders [`Analysis::to_text`]; `--json` emits
//! [`Analysis::to_json`] for dashboards and the golden tests.

use crate::events::{read_dir_events, Event, EventKind, Role, SpanOp, NO_TRACE};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;

/// A worker is flagged as a straggler when its total gate-wait time exceeds the
/// fleet mean by more than this many standard deviations ([`Spread::is_straggler`],
/// the rule of this report and of the live `dssp_straggler` gauge alike).
pub const STRAGGLER_Z: f64 = 2.0;

/// Rounds whose wall time exceeds the mean by more than this many standard
/// deviations are reported as slow, with their dominant worker and component.
pub const SLOW_ROUND_Z: f64 = 2.0;

/// The population mean and standard deviation of a sample: what every z-test here
/// (stragglers, slow rounds) and the live straggler gauge measure against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// The sample mean.
    pub mean: f64,
    /// The population standard deviation (divided by n, not n − 1).
    pub std: f64,
}

impl Spread {
    /// The spread of `values`, in two passes over the iterator and without
    /// allocating; `None` for fewer than two values, which no z-test can judge.
    pub fn of<I: Iterator<Item = f64> + Clone>(values: I) -> Option<Self> {
        let (n, sum) = values
            .clone()
            .fold((0usize, 0.0), |(n, sum), x| (n + 1, sum + x));
        if n < 2 {
            return None;
        }
        let n = n as f64;
        let mean = sum / n;
        let var = values.map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        Some(Self {
            mean,
            std: var.sqrt(),
        })
    }

    /// The z-score of `x`: 0 when every value is equal.
    pub fn z(&self, x: f64) -> f64 {
        if self.std > 0.0 {
            (x - self.mean) / self.std
        } else {
            0.0
        }
    }

    /// The straggler rule: a gate wait more than [`STRAGGLER_Z`] standard deviations
    /// above the mean.
    pub fn is_straggler(&self, wait: f64) -> bool {
        self.z(wait) > STRAGGLER_Z
    }
}

/// One worker's time breakdown within one round (one push iteration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerRound {
    /// The worker's rank.
    pub rank: u32,
    /// Microseconds spent computing the gradient (previous operation's end to this
    /// round's push `span-begin`).
    pub compute_us: u64,
    /// Microseconds spent communicating: pull spans feeding this round plus the
    /// push span net of the gate wait.
    pub comms_us: u64,
    /// Microseconds the DSSP gate blocked this worker (the worker-side
    /// `gate-release` payload for this round's trace).
    pub gate_wait_us: u64,
}

impl WorkerRound {
    /// Total microseconds this worker spent on this round.
    pub fn total_us(&self) -> u64 {
        self.compute_us + self.comms_us + self.gate_wait_us
    }
}

/// One round of the job: every worker's breakdown for one push iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundReport {
    /// The iteration number (worker push payload).
    pub iteration: u64,
    /// Per-worker breakdowns, sorted by rank.
    pub workers: Vec<WorkerRound>,
    /// Mean staleness of the pushes the server applied for this iteration
    /// (`NaN`-free: 0.0 when the server stream recorded none).
    pub mean_staleness: f64,
}

impl RoundReport {
    /// The round's wall time: the slowest worker's total.
    pub fn wall_us(&self) -> u64 {
        self.workers
            .iter()
            .map(WorkerRound::total_us)
            .max()
            .unwrap_or(0)
    }
}

/// A worker's whole-run totals and its straggler verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerTotals {
    /// The worker's rank.
    pub rank: u32,
    /// Rounds this worker completed (pushes with a closed span).
    pub rounds: u64,
    /// Total compute microseconds.
    pub compute_us: u64,
    /// Total communication microseconds.
    pub comms_us: u64,
    /// Total DSSP gate-wait microseconds.
    pub gate_wait_us: u64,
    /// This worker's gate-wait z-score against the fleet.
    pub z_score: f64,
    /// Whether the z-score exceeds [`STRAGGLER_Z`].
    pub straggler: bool,
}

/// Cross-role push latency distribution (worker `span-begin` → server `push`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyStats {
    /// Number of pushes that joined across roles.
    pub count: usize,
    /// 50th percentile, microseconds.
    pub p50_us: u64,
    /// 90th percentile, microseconds.
    pub p90_us: u64,
    /// 99th percentile, microseconds.
    pub p99_us: u64,
    /// Worst observed latency, microseconds.
    pub max_us: u64,
}

/// A round flagged as slow, with the dominant worker and time component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowRound {
    /// The flagged iteration.
    pub iteration: u64,
    /// The round's wall time, microseconds.
    pub wall_us: u64,
    /// The rank that took longest this round.
    pub rank: u32,
    /// The dominant component for that rank: `"compute"`, `"comms"` or
    /// `"gate-wait"`.
    pub component: &'static str,
}

/// The full fleet-health report for one run's event directory.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Per-round reports, sorted by iteration.
    pub rounds: Vec<RoundReport>,
    /// Per-worker totals, sorted by rank.
    pub workers: Vec<WorkerTotals>,
    /// Cross-role push latency percentiles (`None` when no push joined — e.g. a
    /// run recorded without worker logs).
    pub push_latency: Option<LatencyStats>,
    /// Staleness CDF: `(staleness, cumulative fraction)` pairs, ascending.
    pub staleness_cdf: Vec<(u64, f64)>,
    /// Rounds slower than mean + [`SLOW_ROUND_Z`]·σ, with their culprit.
    pub slow_rounds: Vec<SlowRound>,
    /// Total events analyzed.
    pub events: usize,
}

/// Reads every `*.ndjson` file in `dir` and analyzes the merged stream.
pub fn analyze_dir(dir: &Path) -> std::io::Result<Analysis> {
    Ok(analyze(&read_dir_events(dir)?))
}

/// In-flight state for one worker's current push round while streaming its events.
struct OpenRound {
    trace: u64,
    iteration: u64,
    compute_us: u64,
    pull_us: u64,
    gate_wait_us: u64,
}

/// Analyzes a time-sorted event stream (as produced by [`read_dir_events`]).
pub fn analyze(events: &[Event]) -> Analysis {
    // --- Per-worker streaming pass: rebuild each rank's rounds from its spans. ---
    // rank → stream state.
    let mut open_spans: HashMap<(u32, u64), (u64, SpanOp)> = HashMap::new();
    let mut prev_end: HashMap<u32, u64> = HashMap::new();
    let mut pending_comms: HashMap<u32, u64> = HashMap::new();
    let mut open_round: HashMap<u32, OpenRound> = HashMap::new();
    let mut rounds_by_iter: BTreeMap<u64, Vec<WorkerRound>> = BTreeMap::new();
    // trace → worker push span-begin ts, for the cross-role latency join.
    let mut push_begin: HashMap<u64, u64> = HashMap::new();
    let mut latencies: Vec<u64> = Vec::new();

    // --- Server replay state: per-rank logical clocks → staleness samples. ---
    let mut clocks: BTreeMap<u32, u64> = BTreeMap::new();
    for e in events {
        if e.role == Role::Worker {
            clocks.entry(e.rank).or_insert(0);
        }
    }
    let mut staleness_by_iter: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut staleness_all: Vec<u64> = Vec::new();

    for e in events {
        match e.role {
            Role::Worker => {
                let rank = e.rank;
                match e.kind {
                    EventKind::Join => {
                        prev_end.insert(rank, e.ts);
                    }
                    EventKind::SpanBegin => {
                        let Some(op) = SpanOp::from_code(e.payload) else {
                            continue;
                        };
                        open_spans.insert((rank, e.trace), (e.ts, op));
                        if op == SpanOp::Push {
                            let compute_us =
                                e.ts.saturating_sub(prev_end.get(&rank).copied().unwrap_or(e.ts));
                            open_round.insert(
                                rank,
                                OpenRound {
                                    trace: e.trace,
                                    iteration: 0,
                                    compute_us,
                                    pull_us: pending_comms.remove(&rank).unwrap_or(0),
                                    gate_wait_us: 0,
                                },
                            );
                            push_begin.insert(e.trace, e.ts);
                        }
                    }
                    EventKind::Push => {
                        if let Some(r) = open_round.get_mut(&rank) {
                            if r.trace == e.trace {
                                r.iteration = e.payload;
                            }
                        }
                    }
                    EventKind::GateRelease => {
                        if let Some(r) = open_round.get_mut(&rank) {
                            if r.trace == e.trace {
                                // Worker-side gate-release payload = µs waited.
                                r.gate_wait_us += e.payload;
                            }
                        }
                    }
                    EventKind::SpanEnd => {
                        let Some((begin, op)) = open_spans.remove(&(rank, e.trace)) else {
                            continue;
                        };
                        let dur = e.ts.saturating_sub(begin);
                        prev_end.insert(rank, e.ts);
                        match op {
                            // Pull and clock spans are pure communication; they
                            // feed the *next* push's round.
                            SpanOp::Pull | SpanOp::Clock => {
                                *pending_comms.entry(rank).or_insert(0) += dur;
                            }
                            SpanOp::Push => {
                                if let Some(r) = open_round.remove(&rank) {
                                    if r.trace == e.trace {
                                        let comms_us =
                                            r.pull_us + dur.saturating_sub(r.gate_wait_us);
                                        rounds_by_iter.entry(r.iteration).or_default().push(
                                            WorkerRound {
                                                rank,
                                                compute_us: r.compute_us,
                                                comms_us,
                                                gate_wait_us: r.gate_wait_us,
                                            },
                                        );
                                    }
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
            // The decision-making roles: their push stream is the ground truth for
            // both the latency join and the staleness replay. (Shard servers also
            // log per-slice pushes, but each worker push fans out to many slices —
            // counting those would double-count, so the replay sticks to the role
            // that ran the DSSP gate.)
            Role::Server | Role::Coordinator => {
                if e.kind == EventKind::Push {
                    if e.trace != NO_TRACE {
                        if let Some(begin) = push_begin.get(&e.trace) {
                            latencies.push(e.ts.saturating_sub(*begin));
                        }
                    }
                    // Server push payload = pusher rank. Replay the logical clock.
                    let pusher = e.payload as u32;
                    let min = clocks.values().copied().min().unwrap_or(0);
                    let clock = clocks.entry(pusher).or_insert(0);
                    let staleness = clock.saturating_sub(min);
                    *clock += 1;
                    let iteration = *clock;
                    staleness_by_iter
                        .entry(iteration)
                        .or_default()
                        .push(staleness);
                    staleness_all.push(staleness);
                }
            }
            Role::ShardServer => {}
        }
    }

    // --- Assemble the per-round table. ---
    let mut rounds: Vec<RoundReport> = rounds_by_iter
        .into_iter()
        .map(|(iteration, mut workers)| {
            workers.sort_by_key(|w| w.rank);
            let mean_staleness = staleness_by_iter
                .get(&iteration)
                .filter(|s| !s.is_empty())
                .map(|s| s.iter().sum::<u64>() as f64 / s.len() as f64)
                .unwrap_or(0.0);
            RoundReport {
                iteration,
                workers,
                mean_staleness,
            }
        })
        .collect();
    rounds.sort_by_key(|r| r.iteration);

    // --- Slow-round detection: wall time z-score over all rounds. ---
    let slow_rounds = detect_slow_rounds(&rounds);

    // --- Per-worker totals and the straggler z-test on gate-wait time. ---
    let mut totals: BTreeMap<u32, WorkerTotals> = BTreeMap::new();
    for round in &rounds {
        for w in &round.workers {
            let t = totals.entry(w.rank).or_insert(WorkerTotals {
                rank: w.rank,
                rounds: 0,
                compute_us: 0,
                comms_us: 0,
                gate_wait_us: 0,
                z_score: 0.0,
                straggler: false,
            });
            t.rounds += 1;
            t.compute_us += w.compute_us;
            t.comms_us += w.comms_us;
            t.gate_wait_us += w.gate_wait_us;
        }
    }
    let mut workers: Vec<WorkerTotals> = totals.into_values().collect();
    if let Some(spread) = Spread::of(workers.iter().map(|w| w.gate_wait_us as f64)) {
        for w in &mut workers {
            w.z_score = spread.z(w.gate_wait_us as f64);
            w.straggler = spread.is_straggler(w.gate_wait_us as f64);
        }
    }

    // --- Push-latency percentiles and the staleness CDF. ---
    latencies.sort_unstable();
    let push_latency = (!latencies.is_empty()).then(|| LatencyStats {
        count: latencies.len(),
        p50_us: percentile(&latencies, 0.50),
        p90_us: percentile(&latencies, 0.90),
        p99_us: percentile(&latencies, 0.99),
        max_us: *latencies.last().expect("non-empty"),
    });
    staleness_all.sort_unstable();
    let staleness_cdf = cdf(&staleness_all);

    Analysis {
        rounds,
        workers,
        push_latency,
        staleness_cdf,
        slow_rounds,
        events: events.len(),
    }
}

/// Nearest-rank percentile of a sorted, non-empty sample.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Collapses a sorted sample into `(value, cumulative fraction)` pairs.
fn cdf(sorted: &[u64]) -> Vec<(u64, f64)> {
    let n = sorted.len();
    let mut out: Vec<(u64, f64)> = Vec::new();
    for (i, &v) in sorted.iter().enumerate() {
        let frac = (i + 1) as f64 / n as f64;
        match out.last_mut() {
            Some(last) if last.0 == v => last.1 = frac,
            _ => out.push((v, frac)),
        }
    }
    out
}

/// Flags rounds whose wall time exceeds mean + [`SLOW_ROUND_Z`]·σ, naming the
/// slowest worker and its dominant component.
fn detect_slow_rounds(rounds: &[RoundReport]) -> Vec<SlowRound> {
    let walls = rounds.iter().map(|r| r.wall_us() as f64);
    let Some(Spread { mean, std }) = Spread::of(walls).filter(|s| s.std > 0.0) else {
        return Vec::new();
    };
    let threshold = mean + SLOW_ROUND_Z * std;
    rounds
        .iter()
        .filter(|r| (r.wall_us() as f64) > threshold)
        .filter_map(|r| {
            let culprit = r.workers.iter().max_by_key(|w| w.total_us())?;
            let component = if culprit.gate_wait_us >= culprit.compute_us
                && culprit.gate_wait_us >= culprit.comms_us
            {
                "gate-wait"
            } else if culprit.comms_us >= culprit.compute_us {
                "comms"
            } else {
                "compute"
            };
            Some(SlowRound {
                iteration: r.iteration,
                wall_us: r.wall_us(),
                rank: culprit.rank,
                component,
            })
        })
        .collect()
}

impl Analysis {
    /// Renders the report as human-readable text (the default `repro -- analyze`
    /// output).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== fleet health: {} events, {} workers, {} rounds ==",
            self.events,
            self.workers.len(),
            self.rounds.len()
        );
        let _ = writeln!(
            out,
            "\nper-worker totals (µs):\n{:>6} {:>8} {:>12} {:>12} {:>12} {:>8}  straggler",
            "rank", "rounds", "compute", "comms", "gate-wait", "z"
        );
        for w in &self.workers {
            let _ = writeln!(
                out,
                "{:>6} {:>8} {:>12} {:>12} {:>12} {:>8.2}  {}",
                w.rank,
                w.rounds,
                w.compute_us,
                w.comms_us,
                w.gate_wait_us,
                w.z_score,
                if w.straggler { "YES" } else { "no" }
            );
        }
        match &self.push_latency {
            Some(l) => {
                let _ = writeln!(
                    out,
                    "\npush latency (worker span-begin → server push, {} joined): p50={}µs p90={}µs p99={}µs max={}µs",
                    l.count, l.p50_us, l.p90_us, l.p99_us, l.max_us
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "\npush latency: no cross-role joins (missing worker or server logs?)"
                );
            }
        }
        if self.staleness_cdf.is_empty() {
            let _ = writeln!(out, "staleness: no server push stream recorded");
        } else {
            let _ = write!(out, "staleness CDF:");
            for (v, frac) in &self.staleness_cdf {
                let _ = write!(out, " s≤{v}: {:.0}%", frac * 100.0);
            }
            let _ = writeln!(out);
        }
        if self.slow_rounds.is_empty() {
            let _ = writeln!(
                out,
                "slow rounds: none (no round beyond mean + {SLOW_ROUND_Z}σ)"
            );
        } else {
            let _ = writeln!(out, "slow rounds ({}):", self.slow_rounds.len());
            for s in &self.slow_rounds {
                let _ = writeln!(
                    out,
                    "  iter {:>5}: wall {}µs — worker {} dominated by {}",
                    s.iteration, s.wall_us, s.rank, s.component
                );
            }
        }
        let stragglers: Vec<u32> = self
            .workers
            .iter()
            .filter(|w| w.straggler)
            .map(|w| w.rank)
            .collect();
        if stragglers.is_empty() {
            let _ = writeln!(
                out,
                "stragglers: none (all gate-wait z-scores ≤ {STRAGGLER_Z})"
            );
        } else {
            let _ = writeln!(
                out,
                "stragglers: {stragglers:?} (gate-wait z > {STRAGGLER_Z})"
            );
        }
        out
    }

    /// Renders the report as a single JSON object (for `repro -- analyze --json`
    /// and the golden tests).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"events\": {}, ", self.events);
        let _ = write!(out, "\"rounds\": [");
        for (i, r) in self.rounds.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"iteration\": {}, \"wall_us\": {}, \"mean_staleness\": {:.3}, \"workers\": [",
                r.iteration,
                r.wall_us(),
                r.mean_staleness
            );
            for (j, w) in r.workers.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{{\"rank\": {}, \"compute_us\": {}, \"comms_us\": {}, \"gate_wait_us\": {}}}",
                    w.rank, w.compute_us, w.comms_us, w.gate_wait_us
                );
            }
            out.push_str("]}");
        }
        let _ = write!(out, "], \"workers\": [");
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"rank\": {}, \"rounds\": {}, \"compute_us\": {}, \"comms_us\": {}, \"gate_wait_us\": {}, \"z_score\": {:.3}, \"straggler\": {}}}",
                w.rank, w.rounds, w.compute_us, w.comms_us, w.gate_wait_us, w.z_score, w.straggler
            );
        }
        out.push_str("], ");
        match &self.push_latency {
            Some(l) => {
                let _ = write!(
                    out,
                    "\"push_latency_us\": {{\"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}, ",
                    l.count, l.p50_us, l.p90_us, l.p99_us, l.max_us
                );
            }
            None => out.push_str("\"push_latency_us\": null, "),
        }
        let _ = write!(out, "\"staleness_cdf\": [");
        for (i, (v, frac)) in self.staleness_cdf.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "[{v}, {frac:.4}]");
        }
        let _ = write!(out, "], \"slow_rounds\": [");
        for (i, s) in self.slow_rounds.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"iteration\": {}, \"wall_us\": {}, \"rank\": {}, \"component\": \"{}\"}}",
                s.iteration, s.wall_us, s.rank, s.component
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::trace_id;

    fn ev(ts: u64, role: Role, rank: u32, kind: EventKind, payload: u64, trace: u64) -> Event {
        Event {
            ts,
            role,
            rank,
            kind,
            payload,
            trace,
        }
    }

    /// Two workers, two rounds each; worker 1 is gate-blocked hard in round 2.
    fn fixture() -> Vec<Event> {
        let mut e = Vec::new();
        for rank in 0..2u32 {
            let base = 1_000 + u64::from(rank) * 10;
            e.push(ev(base, Role::Worker, rank, EventKind::Join, 0, 0));
            // Initial pull: 100 µs of comms feeding round 1.
            let t_pull = trace_id(rank, 1);
            e.push(ev(
                base + 100,
                Role::Worker,
                rank,
                EventKind::SpanBegin,
                SpanOp::Pull.code(),
                t_pull,
            ));
            e.push(ev(
                base + 200,
                Role::Worker,
                rank,
                EventKind::SpanEnd,
                SpanOp::Pull.code(),
                t_pull,
            ));
            // Round 1: 300 µs compute, 50 µs push span, no gate wait.
            let t1 = trace_id(rank, 2);
            e.push(ev(
                base + 500,
                Role::Worker,
                rank,
                EventKind::SpanBegin,
                SpanOp::Push.code(),
                t1,
            ));
            e.push(ev(base + 505, Role::Worker, rank, EventKind::Push, 1, t1));
            e.push(ev(
                base + 520,
                Role::Server,
                0,
                EventKind::Push,
                u64::from(rank),
                t1,
            ));
            e.push(ev(
                base + 550,
                Role::Worker,
                rank,
                EventKind::SpanEnd,
                SpanOp::Push.code(),
                t1,
            ));
            // Round 2: 300 µs compute again; worker 1 waits 2 000 µs at the gate.
            let t2 = trace_id(rank, 3);
            let wait = if rank == 1 { 2_000 } else { 0 };
            e.push(ev(
                base + 850,
                Role::Worker,
                rank,
                EventKind::SpanBegin,
                SpanOp::Push.code(),
                t2,
            ));
            e.push(ev(base + 855, Role::Worker, rank, EventKind::Push, 2, t2));
            e.push(ev(
                base + 880,
                Role::Server,
                0,
                EventKind::Push,
                u64::from(rank),
                t2,
            ));
            if wait > 0 {
                e.push(ev(
                    base + 850 + wait,
                    Role::Worker,
                    rank,
                    EventKind::GateRelease,
                    wait,
                    t2,
                ));
            }
            e.push(ev(
                base + 900 + wait,
                Role::Worker,
                rank,
                EventKind::SpanEnd,
                SpanOp::Push.code(),
                t2,
            ));
        }
        e.sort_by_key(|e| e.ts);
        e
    }

    #[test]
    fn rounds_split_compute_comms_and_gate_wait() {
        let a = analyze(&fixture());
        assert_eq!(a.rounds.len(), 2);
        let r1 = &a.rounds[0];
        assert_eq!(r1.iteration, 1);
        assert_eq!(r1.workers.len(), 2);
        // Round 1, worker 0: 300 µs compute (pull end 1 200 → push begin 1 500),
        // comms = 100 µs pull + 50 µs push span.
        let w0 = &r1.workers[0];
        assert_eq!((w0.compute_us, w0.comms_us, w0.gate_wait_us), (300, 150, 0));
        // Round 2, worker 1: its 2 000 µs wait is split out of the push span.
        let r2 = &a.rounds[1];
        let w1 = r2.workers.iter().find(|w| w.rank == 1).unwrap();
        assert_eq!(w1.gate_wait_us, 2_000);
        assert_eq!(w1.comms_us, 50); // 2 050 µs span − 2 000 µs gate wait
        assert_eq!(w1.compute_us, 300);
    }

    #[test]
    fn push_latency_joins_worker_spans_to_server_pushes() {
        let a = analyze(&fixture());
        let l = a.push_latency.expect("pushes joined");
        // Every push: server event 20 or 30 µs after the worker span-begin.
        assert_eq!(l.count, 4);
        assert!(l.p50_us >= 20 && l.max_us <= 30, "{l:?}");
    }

    #[test]
    fn staleness_replay_builds_a_cdf() {
        let a = analyze(&fixture());
        // 4 server pushes, interleaved rank 0/1 → all staleness 0.
        assert_eq!(a.staleness_cdf, vec![(0, 1.0)]);
        assert!((a.rounds[0].mean_staleness - 0.0).abs() < 1e-9);
    }

    #[test]
    fn outsized_gate_wait_flags_a_straggler() {
        // The two-worker fixture can't exceed z = 2 (max z for n=2 is 1); widen the
        // fleet so worker 1's wait stands out.
        let mut e = fixture();
        for rank in 2..6u32 {
            let base = 5_000 + u64::from(rank) * 10;
            let t = trace_id(rank, 1);
            e.push(ev(
                base,
                Role::Worker,
                rank,
                EventKind::SpanBegin,
                SpanOp::Push.code(),
                t,
            ));
            e.push(ev(base + 5, Role::Worker, rank, EventKind::Push, 1, t));
            e.push(ev(
                base + 50,
                Role::Worker,
                rank,
                EventKind::SpanEnd,
                SpanOp::Push.code(),
                t,
            ));
        }
        e.sort_by_key(|e| e.ts);
        let a = analyze(&e);
        let flagged: Vec<u32> = a
            .workers
            .iter()
            .filter(|w| w.straggler)
            .map(|w| w.rank)
            .collect();
        assert_eq!(flagged, vec![1]);
        let w1 = a.workers.iter().find(|w| w.rank == 1).unwrap();
        assert!(w1.z_score > STRAGGLER_Z, "z = {}", w1.z_score);
    }

    #[test]
    fn text_and_json_render_the_report() {
        let a = analyze(&fixture());
        let text = a.to_text();
        assert!(text.contains("per-worker totals"), "{text}");
        assert!(text.contains("push latency"), "{text}");
        let json = a.to_json();
        let v = crate::json::parse(&json).expect("valid JSON");
        assert_eq!(
            v.get("events").and_then(|e| e.as_u64()),
            Some(fixture().len() as u64)
        );
        assert!(v.get("rounds").is_some());
        assert!(v.get("push_latency_us").is_some());
    }

    #[test]
    fn empty_stream_analyzes_to_an_empty_report() {
        let a = analyze(&[]);
        assert!(a.rounds.is_empty());
        assert!(a.workers.is_empty());
        assert!(a.push_latency.is_none());
        assert!(a.staleness_cdf.is_empty());
        assert!(!a.to_text().is_empty());
        assert!(crate::json::parse(&a.to_json()).is_ok());
    }
}
