//! The per-process observability bundle: one [`EventLog`] (when `--event-log DIR` is
//! set), one [`Metrics`] registry, and one [`MetricsServer`] (when `--metrics-addr`
//! is set), wired together behind methods the serving loops call from their hot
//! paths.
//!
//! Nothing here allocates on a serving loop (`tests/zero_alloc_net.rs` counts it):
//! when observability is enabled, each hook is a handful of relaxed atomic operations
//! (an [`EventLog`] slot claim plus counter updates); when disabled, the event hooks
//! reduce to an `Option` check and the metric stores still land in the preallocated
//! registry (nobody scrapes them, but keeping them unconditional keeps the hot path
//! branch-free). Rendering, serving and NDJSON flushing all happen off the serving
//! loop — on the scrape thread or after the run.
//!
//! The single server, the shard servers and the coordinator each own one `Obs`
//! ([`Role::Server`], [`Role::ShardServer`], [`Role::Coordinator`]); workers carry
//! only an event log (no endpoint) and use [`EventLog`] directly.

use crate::metrics::{Metrics, MetricsServer, MAX_STRAGGLER_RANKS};
use crate::tcp::TransportStats;
use crate::NetError;
use dssp_core::analyze::Spread;
use dssp_core::driver::{OkReply, ServerLoop};
use dssp_core::events::{EventKind, EventLog, Role, NO_TRACE};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

/// Current Unix time in microseconds (the clock the event log shares, so live
/// latency windows and offline analysis agree).
#[inline]
fn now_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// One serving process's observability state. See the module docs for the contract.
pub struct Obs {
    log: Option<Arc<EventLog>>,
    dir: Option<PathBuf>,
    metrics: Arc<Metrics>,
    server: Option<MetricsServer>,
    /// Per-rank µs timestamp of the last push (0 = none yet); consecutive pushes
    /// yield the `dssp_round_time` samples.
    last_push_us: [AtomicU64; MAX_STRAGGLER_RANKS],
    /// Per-rank µs timestamp of the rank's gate block (0 = not blocked); the matching
    /// release yields a `dssp_push_latency` sample and the rank's wait total.
    blocked_since_us: [AtomicU64; MAX_STRAGGLER_RANKS],
    /// Per-rank cumulative gate wait (µs), the input of the z-score straggler check.
    wait_total_us: [AtomicU64; MAX_STRAGGLER_RANKS],
}

impl Obs {
    /// Builds the bundle for a serving role: an event log when `event_dir` is set
    /// (flushed to `dir/<role file name>` by [`Obs::flush`]) and a live `GET /metrics`
    /// endpoint when `metrics_addr` is set. Failing to bind the metrics listener is a
    /// startup error, not a silent no-op — a scrape target the operator asked for must
    /// exist or the run must say why.
    pub fn new(
        role: Role,
        rank: u32,
        event_dir: Option<&Path>,
        metrics_addr: Option<&str>,
    ) -> Result<Self, NetError> {
        let log = event_dir.map(|dir| EventLog::for_dir(role, rank, dir));
        let metrics = Arc::new(Metrics::new(role, rank));
        let server =
            match metrics_addr {
                Some(addr) => Some(MetricsServer::start(addr, Arc::clone(&metrics)).map_err(
                    |e| NetError::Protocol(format!("cannot serve metrics on {addr}: {e}")),
                )?),
                None => None,
            };
        Ok(Self {
            log,
            dir: event_dir.map(Path::to_path_buf),
            metrics,
            server,
            last_push_us: std::array::from_fn(|_| AtomicU64::new(0)),
            blocked_since_us: std::array::from_fn(|_| AtomicU64::new(0)),
            wait_total_us: std::array::from_fn(|_| AtomicU64::new(0)),
        })
    }

    /// The metric registry (shared with the scrape thread).
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The event log, for sharing with helpers that record events of their own (the
    /// coordinator hands it to its shard fan so re-dials surface as `reconnect`
    /// events). `None` when event logging is off.
    pub fn event_log(&self) -> Option<&Arc<EventLog>> {
        self.log.as_ref()
    }

    /// The address the metrics listener actually bound (resolves an ephemeral `:0`
    /// request), `None` when no endpoint was asked for.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.server.as_ref().map(MetricsServer::local_addr)
    }

    /// Records one structured event when the event log is enabled; a single branch
    /// otherwise. The log's dropped-slot count is mirrored into
    /// `dssp_events_dropped_total` on every record, so a live scrape sees drops as
    /// they happen instead of only after the flush.
    #[inline]
    pub fn event(&self, kind: EventKind, payload: u64) {
        self.event_traced(kind, payload, NO_TRACE);
    }

    /// [`Obs::event`] with a causal trace id stamped into the event.
    #[inline]
    pub fn event_traced(&self, kind: EventKind, payload: u64, trace: u64) {
        if let Some(log) = &self.log {
            log.record_traced(kind, payload, trace);
            self.metrics.events_dropped.store(log.dropped(), Relaxed);
        }
    }

    /// Mirrors the decision loop's cumulative counters into the registry: pushes,
    /// blocked pushes, r* credits granted and reclaimed, the model-version gauge and
    /// the blocked-worker gauge. The loop already keeps these totals for the run
    /// trace, so the registry stores them instead of double-counting — the scrape can
    /// never drift from the trace.
    #[inline]
    pub fn sync_loop(&self, sl: &ServerLoop) {
        let stats = sl.stats();
        self.metrics.pushes.store(stats.pushes, Relaxed);
        self.metrics
            .blocked_pushes
            .store(stats.blocked_pushes, Relaxed);
        self.metrics
            .credits_granted
            .store(stats.credits_granted, Relaxed);
        self.metrics
            .credits_reclaimed
            .store(stats.credits_reclaimed, Relaxed);
        self.metrics.version.store(sl.version(), Relaxed);
        self.metrics
            .blocked_workers
            .store(sl.blocked_count() as u64, Relaxed);
    }

    /// The per-push hook: a `push` event, the pusher's staleness sample,
    /// `gate-block`/`gate-release`/`credit-grant` events derived from the reply set,
    /// and a counter sync. `payload` conventions: the worker rank for `push`,
    /// `gate-block` and `gate-release`; the granted r* for `credit-grant`.
    ///
    /// `traces` maps worker rank to that rank's outstanding push trace id (a worker
    /// has at most one push in flight, so one slot per rank suffices); events about a
    /// rank — including a `gate-release` caused by someone else's push — carry the
    /// *released* rank's trace, keeping the causal chain attached to the operation
    /// that actually waited. This hook also feeds the live fleet-health metrics:
    /// consecutive pushes from a rank bound one round (`dssp_round_time`), a
    /// block→release window is that push's gate latency (`dssp_push_latency`, 0 for
    /// immediate grants), and cumulative waits run through the z-score straggler
    /// check behind the `dssp_straggler` gauge.
    #[inline]
    pub fn on_push(
        &self,
        pusher: usize,
        staleness: u64,
        replies: &[OkReply],
        sl: &ServerLoop,
        traces: &[u64],
    ) {
        let now = now_us();
        let trace_of = |rank: usize| traces.get(rank).copied().unwrap_or(NO_TRACE);
        self.event_traced(EventKind::Push, pusher as u64, trace_of(pusher));
        self.metrics.staleness.observe(staleness);
        if pusher < MAX_STRAGGLER_RANKS {
            let prev = self.last_push_us[pusher].swap(now, Relaxed);
            if prev != 0 && now > prev {
                self.metrics.round_time.observe(now - prev);
            }
        }
        let mut granted = false;
        for reply in replies {
            if reply.worker == pusher {
                granted = true;
                self.metrics.push_latency.observe(0);
                if reply.granted_extra > 0 {
                    self.event_traced(
                        EventKind::CreditGrant,
                        reply.granted_extra,
                        trace_of(pusher),
                    );
                }
            } else {
                self.event_traced(
                    EventKind::GateRelease,
                    reply.worker as u64,
                    trace_of(reply.worker),
                );
                if reply.worker < MAX_STRAGGLER_RANKS {
                    let since = self.blocked_since_us[reply.worker].swap(0, Relaxed);
                    if since != 0 && now > since {
                        let wait = now - since;
                        self.metrics.push_latency.observe(wait);
                        self.wait_total_us[reply.worker].fetch_add(wait, Relaxed);
                    }
                }
            }
        }
        if !granted {
            self.event_traced(EventKind::GateBlock, pusher as u64, trace_of(pusher));
            if pusher < MAX_STRAGGLER_RANKS {
                self.blocked_since_us[pusher].store(now, Relaxed);
            }
        }
        self.update_stragglers();
        self.sync_loop(sl);
    }

    /// Re-runs the straggler check over every rank that has pushed at least once,
    /// with the offline analyzer's rule ([`Spread::is_straggler`]): a rank whose
    /// cumulative gate wait sits more than
    /// [`STRAGGLER_Z`](dssp_core::analyze::STRAGGLER_Z) standard deviations above
    /// the fleet mean is flagged on the `dssp_straggler` gauge, and unflagged once it
    /// catches back up. Sweeps over the preallocated per-rank slots — no allocation,
    /// called from the push hot path.
    #[inline]
    fn update_stragglers(&self) {
        let active =
            (0..MAX_STRAGGLER_RANKS).filter(|&rank| self.last_push_us[rank].load(Relaxed) != 0);
        let wait = |rank: usize| self.wait_total_us[rank].load(Relaxed) as f64;
        let Some(spread) = Spread::of(active.clone().map(wait)) else {
            return;
        };
        for rank in active {
            self.metrics
                .set_straggler(rank, spread.is_straggler(wait(rank)));
        }
    }

    /// The per-pull hook: one served pull, full or delta (`delta` is whether the
    /// reply actually shipped incrementally, not what the client asked for — the
    /// exported ratio is the delta *hit* rate). `trace` is the pulling worker's
    /// trace id ([`NO_TRACE`] when the client predates v6 tracing).
    #[inline]
    pub fn on_pull(&self, rank: usize, delta: bool, trace: u64) {
        if delta {
            self.metrics.pulls_delta.fetch_add(1, Relaxed);
        } else {
            self.metrics.pulls_full.fetch_add(1, Relaxed);
        }
        self.event_traced(EventKind::Pull, rank as u64, trace);
    }

    /// A completed membership join (`JoinRequest`/`JoinAck` exchange).
    #[inline]
    pub fn on_join(&self, rank: usize) {
        self.metrics.joins.fetch_add(1, Relaxed);
        self.event(EventKind::Join, rank as u64);
    }

    /// A worker reaped from the run (death or explicit `Evict`). Counter syncing is
    /// the caller's job (via the surrounding [`Obs::on_push`]/[`Obs::sync_loop`]) —
    /// eviction reclaims credits, which the sync mirrors.
    #[inline]
    pub fn on_eviction(&self, rank: usize) {
        self.metrics.evictions.fetch_add(1, Relaxed);
        self.event(EventKind::Eviction, rank as u64);
    }

    /// A durable checkpoint landed at model version `version`.
    pub fn on_checkpoint(&self, version: u64) {
        self.metrics.checkpoints_written.fetch_add(1, Relaxed);
        let unix_now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        self.metrics.checkpoint_last_unix.store(unix_now, Relaxed);
        self.event(EventKind::Checkpoint, version);
    }

    /// Mirrors a layout change into the registry gauges: the epoch the process now
    /// runs at and the shards it now owns (group total on the coordinator).
    #[inline]
    pub fn set_layout(&self, epoch: u64, shards_owned: u64) {
        self.metrics.layout_epoch.store(epoch, Relaxed);
        self.metrics.shards_owned.store(shards_owned, Relaxed);
    }

    /// Mirrors the transport's byte counters into the registry (two stores).
    #[inline]
    pub fn mirror_transport(&self, stats: &TransportStats) {
        self.metrics.bytes_sent.store(stats.bytes_sent, Relaxed);
        self.metrics
            .bytes_received
            .store(stats.bytes_received, Relaxed);
    }

    /// Flushes the event log to its NDJSON file (`DIR/<role file name>`), returning
    /// the path written, or `None` when event logging is off. Also folds the log's
    /// dropped-event count into the registry so a scrape after the run sees it.
    pub fn flush(&self) -> std::io::Result<Option<PathBuf>> {
        let (Some(log), Some(dir)) = (&self.log, &self.dir) else {
            return Ok(None);
        };
        self.metrics.events_dropped.store(log.dropped(), Relaxed);
        log.flush_to_dir(dir).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssp_core::analyze::analyze;
    use dssp_core::driver::JobConfig;
    use dssp_core::events::{trace_id, Event, SpanOp};
    use dssp_ps::PolicyKind;

    /// The live gauge and the offline analyzer judge the same per-rank gate waits
    /// alike: too few ranks, no spread, and one clear outlier.
    #[test]
    fn straggler_verdicts_match_the_analyzer() {
        let cases: [&[u64]; 3] = [&[500], &[700; 4], &[10, 12, 9, 11, 10, 10, 5_000]];
        let mut verdicts = Vec::new();
        for waits in cases {
            let obs = Obs::new(Role::Server, 0, None, None).unwrap();
            let mut events = Vec::new();
            for (rank, &wait) in waits.iter().enumerate() {
                obs.last_push_us[rank].store(1, Relaxed);
                obs.wait_total_us[rank].store(wait, Relaxed);
                let (rank, trace) = (rank as u32, trace_id(rank as u32, 1));
                let push = SpanOp::Push.code();
                for (ts, kind, payload) in [
                    (0, EventKind::SpanBegin, push),
                    (1, EventKind::Push, 1),
                    (1 + wait, EventKind::GateRelease, wait),
                    (2 + wait, EventKind::SpanEnd, push),
                ] {
                    events.push(Event {
                        ts,
                        role: Role::Worker,
                        rank,
                        kind,
                        payload,
                        trace,
                    });
                }
            }
            events.sort_by_key(|e| e.ts);
            obs.update_stragglers();
            let offline = analyze(&events)
                .workers
                .iter()
                .filter(|w| w.straggler)
                .fold(0u64, |flags, w| flags | 1 << w.rank);
            assert_eq!(obs.metrics().straggler_flags(), offline, "waits {waits:?}");
            verdicts.push(offline);
        }
        assert_eq!(verdicts, [0, 0, 1 << 6]);
    }

    #[test]
    fn disabled_bundle_is_inert_and_flushes_to_nothing() {
        let obs = Obs::new(Role::Server, 0, None, None).unwrap();
        obs.event(EventKind::Push, 1);
        obs.on_pull(0, true, NO_TRACE);
        obs.on_join(2);
        assert_eq!(obs.flush().unwrap(), None);
        assert!(obs.metrics_addr().is_none());
        // Metric stores still land even without an endpoint.
        assert_eq!(obs.metrics().pulls_delta.load(Relaxed), 1);
        assert_eq!(obs.metrics().joins.load(Relaxed), 1);
    }

    #[test]
    fn push_hook_classifies_grants_blocks_and_releases() {
        let dir = std::env::temp_dir().join(format!("dssp-obs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let obs = Obs::new(Role::Server, 0, Some(&dir), None).unwrap();
        let job = JobConfig::small(PolicyKind::Dssp { s_l: 2, r_max: 4 });
        let sl = ServerLoop::new(&job);
        // Pusher granted with 3 extra credits, worker 1 released alongside.
        let traces = [
            dssp_core::events::trace_id(0, 7),
            dssp_core::events::trace_id(1, 3),
        ];
        obs.on_push(
            0,
            5,
            &[
                OkReply {
                    worker: 0,
                    granted_extra: 3,
                },
                OkReply {
                    worker: 1,
                    granted_extra: 0,
                },
            ],
            &sl,
            &traces,
        );
        // Pusher blocked: no reply addressed to it (rank 2 is past the trace table,
        // so its events carry NO_TRACE — mixed-version fleets stay legal).
        obs.on_push(2, 0, &[], &sl, &traces);
        let path = obs.flush().unwrap().expect("log enabled");
        let text = std::fs::read_to_string(&path).unwrap();
        for needle in [
            "\"push\"",
            "\"credit-grant\"",
            "\"gate-release\"",
            "\"gate-block\"",
        ] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
        // The pusher's events carry its trace; the released worker's release carries
        // the *released* rank's trace, not the pusher's.
        let lines: Vec<&str> = text.lines().collect();
        let release = lines
            .iter()
            .find(|l| l.contains("\"gate-release\""))
            .expect("release line");
        assert!(
            release.contains(&format!("\"trace\": {}", dssp_core::events::trace_id(1, 3))),
            "release should carry rank 1's trace: {release}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn straggler_flags_worker_with_outsized_wait() {
        let obs = Obs::new(Role::Server, 0, None, None).unwrap();
        let job = JobConfig::small(PolicyKind::Dssp { s_l: 2, r_max: 4 });
        let sl = ServerLoop::new(&job);
        let grant = |worker| OkReply {
            worker,
            granted_extra: 0,
        };
        // Six workers push so they count as active (a lone outlier among n ranks can
        // reach at most z = √(n−1), so n = 6 clears the 2.0 threshold); worker 3 then
        // sits blocked for a long window before being released, which should trip the
        // z-score check.
        for rank in 0..6 {
            obs.on_push(rank, 0, &[grant(rank)], &sl, &[]);
        }
        obs.on_push(3, 0, &[], &sl, &[]); // blocked
        obs.blocked_since_us[3].store(1, Relaxed); // pretend the block started eons ago
        obs.on_push(0, 0, &[grant(0), grant(3)], &sl, &[]); // release rank 3
        let flags = obs.metrics().straggler_flags();
        assert_eq!(flags, 1 << 3, "only rank 3 should be flagged: {flags:#b}");
        // Wait totals equalize: flag must clear.
        for rank in (0..6).filter(|&r| r != 3) {
            obs.wait_total_us[rank].store(obs.wait_total_us[3].load(Relaxed), Relaxed);
        }
        obs.on_push(1, 0, &[grant(1)], &sl, &[]);
        assert_eq!(obs.metrics().straggler_flags(), 0);
    }
}
