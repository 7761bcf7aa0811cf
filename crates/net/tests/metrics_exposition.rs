//! Golden-format tests for the Prometheus text exposition: every rendered page must
//! parse with [`parse_exposition`] (the same parser `repro -- stats` uses), keep its
//! HELP/TYPE discipline, and serve identically over a real `GET /metrics` socket.

use dssp_core::events::Role;
use dssp_net::metrics::{parse_exposition, scrape, Metrics, MetricsServer, STALENESS_LE};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

fn populated() -> Metrics {
    let m = Metrics::new(Role::Server, 0);
    m.pushes.store(120, Relaxed);
    m.blocked_pushes.store(30, Relaxed);
    m.pulls_full.store(7, Relaxed);
    m.pulls_delta.store(110, Relaxed);
    m.bytes_sent.store(1 << 20, Relaxed);
    m.bytes_received.store(3 << 20, Relaxed);
    m.blocked_workers.store(2, Relaxed);
    m.version.store(120, Relaxed);
    m.credits_granted.store(9, Relaxed);
    m.credits_reclaimed.store(4, Relaxed);
    m.checkpoints_written.store(3, Relaxed);
    m.reconnects.store(1, Relaxed);
    m.evictions.store(1, Relaxed);
    m.joins.store(4, Relaxed);
    for s in [0, 0, 1, 3, 5, 40] {
        m.staleness.observe(s);
    }
    m
}

/// Every series on the page set through the public API, each scalar to its own
/// value, every histogram with a sample past its last bound, and straggler verdicts
/// for ranks 0 (flagged) and 5 (flagged, then cleared).
fn every_series() -> Metrics {
    let m = Metrics::new(Role::Coordinator, 2);
    for (i, field) in [
        &m.pushes,
        &m.blocked_pushes,
        &m.pulls_full,
        &m.pulls_delta,
        &m.bytes_sent,
        &m.bytes_received,
        &m.blocked_workers,
        &m.version,
        &m.credits_granted,
        &m.credits_reclaimed,
        &m.checkpoints_written,
        &m.checkpoint_last_unix,
        &m.reconnects,
        &m.evictions,
        &m.joins,
        &m.events_dropped,
        &m.layout_epoch,
        &m.shards_owned,
    ]
    .into_iter()
    .enumerate()
    {
        field.store(101 + i as u64, Relaxed);
    }
    for s in [0, 1, 3, 3, 17, 99] {
        m.staleness.observe(s);
    }
    for us in [80, 300, 7_000, 60_000, 3_000_000] {
        m.round_time.observe(us);
    }
    for us in [0, 0, 120, 2_000, 1_500_000] {
        m.push_latency.observe(us);
    }
    m.set_straggler(0, true);
    m.set_straggler(5, true);
    m.set_straggler(5, false);
    m
}

/// The page [`every_series`] renders, byte for byte: series order, labels, HELP
/// text and number formatting.
const EVERY_SERIES_PAGE: &str = r#"
# HELP dssp_pushes_total Gradient pushes applied (clock pushes gated, on the coordinator).
# TYPE dssp_pushes_total counter
dssp_pushes_total{role="coord",rank="2"} 101
# HELP dssp_blocked_pushes_total Pushes whose worker was blocked by the synchronization gate.
# TYPE dssp_blocked_pushes_total counter
dssp_blocked_pushes_total{role="coord",rank="2"} 102
# HELP dssp_credits_granted_total Extra-iteration credits granted by the DSSP controller (sum of r*).
# TYPE dssp_credits_granted_total counter
dssp_credits_granted_total{role="coord",rank="2"} 109
# HELP dssp_credits_reclaimed_total Unspent credits reclaimed from evicted workers.
# TYPE dssp_credits_reclaimed_total counter
dssp_credits_reclaimed_total{role="coord",rank="2"} 110
# HELP dssp_checkpoints_written_total Checkpoints written by this process.
# TYPE dssp_checkpoints_written_total counter
dssp_checkpoints_written_total{role="coord",rank="2"} 111
# HELP dssp_reconnects_total Worker-to-server links re-established after a drop.
# TYPE dssp_reconnects_total counter
dssp_reconnects_total{role="coord",rank="2"} 113
# HELP dssp_evictions_total Workers evicted from the run.
# TYPE dssp_evictions_total counter
dssp_evictions_total{role="coord",rank="2"} 114
# HELP dssp_joins_total Join and Hello handshakes completed.
# TYPE dssp_joins_total counter
dssp_joins_total{role="coord",rank="2"} 115
# HELP dssp_events_dropped_total Structured events dropped because the event log was full.
# TYPE dssp_events_dropped_total counter
dssp_events_dropped_total{role="coord",rank="2"} 116
# HELP dssp_pulls_total Pulls served, by mode.
# TYPE dssp_pulls_total counter
dssp_pulls_total{role="coord",rank="2",mode="full"} 103
dssp_pulls_total{role="coord",rank="2",mode="delta"} 104
# HELP dssp_bytes_total Bytes moved over the data transport, by direction.
# TYPE dssp_bytes_total counter
dssp_bytes_total{role="coord",rank="2",direction="sent"} 105
dssp_bytes_total{role="coord",rank="2",direction="received"} 106
# HELP dssp_blocked_workers Workers currently blocked waiting for a deferred OK.
# TYPE dssp_blocked_workers gauge
dssp_blocked_workers{role="coord",rank="2"} 107
# HELP dssp_model_version Current model version (total pushes applied).
# TYPE dssp_model_version gauge
dssp_model_version{role="coord",rank="2"} 108
# HELP dssp_checkpoint_last_timestamp_seconds Unix time of the most recent checkpoint (0 = none).
# TYPE dssp_checkpoint_last_timestamp_seconds gauge
dssp_checkpoint_last_timestamp_seconds{role="coord",rank="2"} 112
# HELP dssp_layout_epoch Layout epoch this process runs at (bumped by each committed migration).
# TYPE dssp_layout_epoch gauge
dssp_layout_epoch{role="coord",rank="2"} 117
# HELP dssp_shards_owned Shards this process currently owns (group total on the coordinator).
# TYPE dssp_shards_owned gauge
dssp_shards_owned{role="coord",rank="2"} 118
# HELP dssp_staleness Per-push staleness (clock lead over the slowest worker).
# TYPE dssp_staleness histogram
dssp_staleness_bucket{role="coord",rank="2",le="0"} 1
dssp_staleness_bucket{role="coord",rank="2",le="1"} 2
dssp_staleness_bucket{role="coord",rank="2",le="2"} 2
dssp_staleness_bucket{role="coord",rank="2",le="4"} 4
dssp_staleness_bucket{role="coord",rank="2",le="8"} 4
dssp_staleness_bucket{role="coord",rank="2",le="16"} 4
dssp_staleness_bucket{role="coord",rank="2",le="32"} 5
dssp_staleness_bucket{role="coord",rank="2",le="+Inf"} 6
dssp_staleness_sum{role="coord",rank="2"} 123
dssp_staleness_count{role="coord",rank="2"} 6
# HELP dssp_round_time Per-worker round time in microseconds (inter-push gap at this role).
# TYPE dssp_round_time histogram
dssp_round_time_bucket{role="coord",rank="2",le="100"} 1
dssp_round_time_bucket{role="coord",rank="2",le="250"} 1
dssp_round_time_bucket{role="coord",rank="2",le="500"} 2
dssp_round_time_bucket{role="coord",rank="2",le="1000"} 2
dssp_round_time_bucket{role="coord",rank="2",le="2500"} 2
dssp_round_time_bucket{role="coord",rank="2",le="5000"} 2
dssp_round_time_bucket{role="coord",rank="2",le="10000"} 3
dssp_round_time_bucket{role="coord",rank="2",le="50000"} 3
dssp_round_time_bucket{role="coord",rank="2",le="250000"} 4
dssp_round_time_bucket{role="coord",rank="2",le="1000000"} 4
dssp_round_time_bucket{role="coord",rank="2",le="+Inf"} 5
dssp_round_time_sum{role="coord",rank="2"} 3067380
dssp_round_time_count{role="coord",rank="2"} 5
# HELP dssp_push_latency Cross-role push latency in microseconds (gradient apply to clock grant).
# TYPE dssp_push_latency histogram
dssp_push_latency_bucket{role="coord",rank="2",le="50"} 2
dssp_push_latency_bucket{role="coord",rank="2",le="100"} 2
dssp_push_latency_bucket{role="coord",rank="2",le="250"} 3
dssp_push_latency_bucket{role="coord",rank="2",le="500"} 3
dssp_push_latency_bucket{role="coord",rank="2",le="1000"} 3
dssp_push_latency_bucket{role="coord",rank="2",le="2500"} 4
dssp_push_latency_bucket{role="coord",rank="2",le="10000"} 4
dssp_push_latency_bucket{role="coord",rank="2",le="50000"} 4
dssp_push_latency_bucket{role="coord",rank="2",le="250000"} 4
dssp_push_latency_bucket{role="coord",rank="2",le="1000000"} 4
dssp_push_latency_bucket{role="coord",rank="2",le="+Inf"} 5
dssp_push_latency_sum{role="coord",rank="2"} 1502120
dssp_push_latency_count{role="coord",rank="2"} 5
# HELP dssp_straggler Whether a worker's gate-wait share is a z-score outlier.
# TYPE dssp_straggler gauge
dssp_straggler{role="coord",rank="2",worker="0"} 1
dssp_straggler{role="coord",rank="2",worker="5"} 0
"#;

#[test]
fn every_series_renders_the_golden_page() {
    let page = every_series().render();
    assert_eq!(
        page,
        EVERY_SERIES_PAGE.trim_start(),
        "the page changed; it is now:\n{page}"
    );
}

#[test]
fn rendered_page_parses_and_keeps_help_type_discipline() {
    let page = populated().render();
    let exp = parse_exposition(&page).expect("page parses");

    // Every sample family carries a HELP and a TYPE declaration.
    for sample in &exp.samples {
        let family = sample
            .name
            .strip_suffix("_bucket")
            .or_else(|| sample.name.strip_suffix("_sum"))
            .or_else(|| sample.name.strip_suffix("_count"))
            .filter(|f| ["dssp_staleness", "dssp_round_time", "dssp_push_latency"].contains(f))
            .unwrap_or(&sample.name);
        assert!(
            exp.types.iter().any(|(n, _)| n == family),
            "{} has no TYPE declaration",
            sample.name
        );
        assert!(
            exp.helps.iter().any(|(n, _)| n == family),
            "{} has no HELP declaration",
            sample.name
        );
        // Every series is labelled with its emitting role and rank.
        assert_eq!(sample.label("role"), Some("server"), "{}", sample.name);
        assert_eq!(sample.label("rank"), Some("0"), "{}", sample.name);
    }

    // The key series carry the stored values.
    let labels: &[(&str, &str)] = &[];
    assert_eq!(exp.value("dssp_pushes_total", labels), Some(120.0));
    assert_eq!(exp.value("dssp_blocked_pushes_total", labels), Some(30.0));
    assert_eq!(exp.value("dssp_credits_granted_total", labels), Some(9.0));
    assert_eq!(exp.value("dssp_credits_reclaimed_total", labels), Some(4.0));
    assert_eq!(exp.value("dssp_blocked_workers", labels), Some(2.0));
    assert_eq!(exp.value("dssp_model_version", labels), Some(120.0));
    assert_eq!(
        exp.value("dssp_pulls_total", &[("mode", "full")]),
        Some(7.0)
    );
    assert_eq!(
        exp.value("dssp_pulls_total", &[("mode", "delta")]),
        Some(110.0)
    );
    assert_eq!(
        exp.value("dssp_bytes_total", &[("direction", "sent")]),
        Some((1u64 << 20) as f64)
    );
}

#[test]
fn staleness_histogram_is_cumulative_and_complete() {
    let page = populated().render();
    let exp = parse_exposition(&page).expect("page parses");

    // Buckets are cumulative and monotone, ending in +Inf == count.
    let mut last = -1.0;
    for le in STALENESS_LE {
        let v = exp
            .value("dssp_staleness_bucket", &[("le", &le.to_string())])
            .unwrap_or_else(|| panic!("missing le={le} bucket"));
        assert!(v >= last, "bucket le={le} not monotone");
        last = v;
    }
    let inf = exp
        .value("dssp_staleness_bucket", &[("le", "+Inf")])
        .expect("+Inf bucket");
    assert!(inf >= last);
    assert_eq!(exp.value("dssp_staleness_count", &[]), Some(inf));
    // Samples were 0,0,1,3,5,40 → sum 49, count 6, two in the le=0 bucket.
    assert_eq!(exp.value("dssp_staleness_sum", &[]), Some(49.0));
    assert_eq!(inf, 6.0);
    assert_eq!(
        exp.value("dssp_staleness_bucket", &[("le", "0")]),
        Some(2.0)
    );
}

#[test]
fn live_endpoint_serves_the_same_page() {
    let metrics = Arc::new(populated());
    let server = MetricsServer::start("127.0.0.1:0", Arc::clone(&metrics)).expect("bind");
    let addr = server.local_addr().to_string();

    let body = scrape(&addr).expect("scrape");
    let exp = parse_exposition(&body).expect("served page parses");
    assert_eq!(exp.value("dssp_pushes_total", &[]), Some(120.0));

    // A counter bumped between scrapes is visible on the next scrape.
    metrics.pushes.fetch_add(5, Relaxed);
    let exp2 = parse_exposition(&scrape(&addr).expect("second scrape")).expect("parses");
    assert_eq!(exp2.value("dssp_pushes_total", &[]), Some(125.0));

    server.stop();
    assert!(scrape(&addr).is_err(), "listener still up after stop");
}
