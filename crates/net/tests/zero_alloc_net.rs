//! The zero-allocation guarantee of the networked round, enforced with a counting
//! global allocator (the same technique `dssp-nn`'s `zero_alloc` test uses for the
//! compute kernels): once every buffer is warm, a full fused round over **real TCP
//! sockets** — push out, `OK` back with the weights right behind it — performs zero
//! heap allocations on the worker end (gradients written from their slice, weights
//! read into their key ranges), on the real [`dssp_net::serve`] command loop
//! (borrowed-slice push handling, replies gathered from the store through stack
//! arrays, the shipped-versions record, recycled gradient buffers), and on the
//! connection reader thread (gradients streamed into a pooled `Vec`). The counter is
//! process-wide, so allocations on *any* thread during the measured window fail the
//! test.
//!
//! The store has more shards than one vectored write of a delta reply gathers, and
//! every push makes all of them stale, so the chunked reply path is the one measured.
//! The frames are larger than the connection's `BufReader`, so the bulk runs are read
//! from the socket itself, not out of the reader's buffer.
//!
//! The measured window runs with observability fully enabled — a live (idle)
//! `GET /metrics` listener, metric counter updates, staleness histogram samples and
//! structured-event recording on both ends — proving the instrumentation keeps the
//! zero-allocation guarantee: [`dssp_core::events::EventLog::record`] claims a
//! preallocated slot and the metric hooks are plain atomics.
//!
//! The job is deterministic, so every event also passes through the
//! `DeterministicGate` before the server's one push method applies it: the window
//! covers the gate as well as the path wall-clock runs take, and the live page must
//! show one staleness sample per push in that mode too.

use dssp_core::driver::{JobConfig, WorkerStep};
use dssp_core::events::{trace_id, EventKind, EventLog, Role};
use dssp_net::metrics::{parse_exposition, scrape};
use dssp_net::{
    serve, Message, PullOutcome, TcpServerTransport, TcpWorkerTransport, WorkerTransport,
    PROTOCOL_VERSION,
};
use dssp_nn::models::ModelSpec;
use dssp_ps::PolicyKind;
use dssp_testalloc::{process_allocations, CountingAlloc};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// More than the 16 stale shards one vectored write of a delta reply gathers.
const SHARDS: usize = 40;
const WARMUP: u64 = 10;
const MEASURED: u64 = 50;

/// One fused round, exactly the steady-state message sequence of `run_worker` minus
/// the model compute (which has its own zero-allocation test in `dssp-core`): the
/// push, the `OK`, the weights behind it — with the events `run_worker` records under
/// `--event-log`, every one stamped with the round's trace id.
fn round(
    t: &mut TcpWorkerTransport,
    log: &EventLog,
    iteration: u64,
    grads: &[f32],
    weights: &mut Vec<f32>,
    versions: &mut Vec<u64>,
) {
    let trace = trace_id(0, iteration as u32 + 1);
    t.send_push(iteration, trace, grads).expect("push");
    log.record_traced(EventKind::Push, iteration, trace);
    log.record_traced(EventKind::GateBlock, iteration, trace);
    match t.recv().expect("push reply") {
        Message::PushReply { version, .. } => assert_eq!(version, iteration),
        other => panic!("unexpected: {other:?}"),
    }
    log.record_traced(EventKind::GateRelease, 0, trace);
    match t.recv_pull_apply(weights, versions).expect("weights") {
        PullOutcome::Applied(applied) => {
            assert!(!applied.full, "the server's record must stay warm");
            assert_eq!(applied.shards_updated, SHARDS);
            log.record_traced(EventKind::Pull, applied.clock, trace);
        }
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn steady_state_tcp_round_trips_do_not_allocate_on_either_end() {
    // Full observability bundle: event log enabled (flushed to a scratch dir at the
    // end) and a live metrics listener, idle during the measured window — exactly
    // the configuration a `--metrics-addr ... --event-log ...` run serves under.
    let event_dir =
        std::env::temp_dir().join(format!("dssp-zero-alloc-obs-{}", std::process::id()));
    std::fs::create_dir_all(&event_dir).expect("scratch dir");

    let mut job = JobConfig::small(PolicyKind::Asp);
    job.num_workers = 1;
    job.epochs = 4; // 128 iterations: the hand-driven rounds stop short of the target
    job.shards = SHARDS;
    job.model = ModelSpec::Mlp {
        input_dim: 16,
        hidden: vec![256],
        classes: 4,
    };
    job.eval_every_pushes = u64::MAX; // a mid-run evaluation is allowed to allocate
    job.deterministic = true;
    job.event_log = Some(event_dir.clone());
    // A port that was free a moment ago, so the page can be scraped by address.
    let metrics_addr = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("free port")
        .to_string();
    job.metrics_addr = Some(metrics_addr.clone());
    let step = WorkerStep::for_rank(&job, 0);
    assert!(step.target() > WARMUP + MEASURED);
    let grads = vec![1e-3f32; step.param_len()];
    assert!(
        grads.len() * 4 > 2 * 8192,
        "frames must outgrow the BufReader"
    );

    let mut server = TcpServerTransport::bind("127.0.0.1:0", 1).expect("bind");
    let addr = server.local_addr().to_string();
    let server_job = job.clone();
    let serving = std::thread::spawn(move || serve(&server_job, &mut server));

    // Handshake and the opening pull, by hand.
    let log = EventLog::new(Role::Worker, 0);
    let mut t = TcpWorkerTransport::connect(&addr).expect("connect");
    t.send(&Message::Hello {
        version: PROTOCOL_VERSION,
        rank: 0,
        num_workers: 1,
        config_digest: job.stable_digest(),
    })
    .expect("hello");
    t.send(&Message::JoinRequest).expect("join request");
    assert!(matches!(
        t.recv().expect("join ack"),
        Message::JoinAck { .. }
    ));
    t.send(&Message::Pull {
        trace: trace_id(0, 1),
    })
    .expect("pull");
    let (mut weights, mut versions) = (Vec::new(), Vec::new());
    assert!(matches!(
        t.recv_pull_apply(&mut weights, &mut versions).expect("opening weights"),
        PullOutcome::Applied(applied) if applied.full
    ));

    // Warm-up: buffers and pools grow to steady-state size; allocations expected.
    for iteration in 1..=WARMUP {
        round(&mut t, &log, iteration, &grads, &mut weights, &mut versions);
    }

    // Measured window: this thread, the server's command loop, its connection reader
    // thread and the idle metrics listener are all in steady state — the process-wide
    // counter must not move, event hooks and metric updates included.
    let before = process_allocations();
    for iteration in WARMUP + 1..=WARMUP + MEASURED {
        round(&mut t, &log, iteration, &grads, &mut weights, &mut versions);
    }
    let during = process_allocations() - before;
    assert_eq!(
        during, 0,
        "{MEASURED} steady-state fused rounds performed {during} heap allocations \
         with observability enabled"
    );
    assert_eq!(log.dropped(), 0, "event log must not saturate in this test");

    // The live page, mid-run: every push so far left its staleness sample.
    let page = parse_exposition(&scrape(&metrics_addr).expect("scrape")).expect("page parses");
    assert_eq!(
        page.value("dssp_staleness_count", &[]),
        Some((WARMUP + MEASURED) as f64)
    );

    // Leaving is an eviction; with its only worker gone the run ends.
    drop(t);
    let trace = serving
        .join()
        .expect("server thread")
        .expect("run completes");

    // The instrumentation observed the run: spot-check outside the window.
    assert_eq!(trace.total_pushes, WARMUP + MEASURED);
    assert!(
        event_dir.join(Role::Server.file_name(0)).exists(),
        "the server flushed its event log"
    );
    std::fs::remove_dir_all(&event_dir).ok();
}
