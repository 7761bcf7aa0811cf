//! The zero-allocation guarantee of the networked frame path, enforced with a
//! counting global allocator (the same technique `dssp-nn`'s `zero_alloc` test uses
//! for the compute kernels): once every buffer pool is warm, a full
//! push → reply → delta-pull round trip over **real TCP sockets** performs zero heap
//! allocations — on the worker end (encode from borrowed gradients, pooled payload
//! buffer, in-place delta apply), on the server command loop (borrowed-slice push
//! handling, zero-copy pull replies, recycled bulk buffers), and on the connection
//! reader thread (reused payload buffer, pool-fed bulk decodes). The counter is
//! global, so allocations on *any* thread during the measured window fail the test.
//!
//! The measured window runs with observability fully enabled — a live (idle)
//! `GET /metrics` listener, metric counter updates, staleness histogram samples and
//! structured-event recording on both ends — proving the instrumentation keeps the
//! zero-allocation guarantee: [`dssp_core::events::EventLog::record`] claims a
//! preallocated slot and the metric hooks are plain atomics.

use dssp_core::events::{trace_id, EventKind, EventLog, Role};
use dssp_net::transport::{PullOutcome, PullView};
use dssp_net::{
    Message, Obs, ServerTransport, TcpServerTransport, TcpWorkerTransport, WorkerTransport,
    PROTOCOL_VERSION,
};
use dssp_ps::ShardedStore;
use dssp_testalloc::{process_allocations, CountingAlloc};
use std::sync::atomic::Ordering::Relaxed;

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const DIM: usize = 4096;
const SHARDS: usize = 8;
const WARMUP: u64 = 10;
const MEASURED: u64 = 50;

/// The worker side: a fixed gradient pushed every iteration, followed by a delta
/// pull — the exact steady-state message sequence of `run_worker`, minus the model
/// compute (which has its own zero-allocation test in `dssp-nn`). Event recording is
/// on, exactly as `run_worker` records with `--event-log`.
fn worker_loop(addr: &str) {
    let log = EventLog::new(Role::Worker, 0);
    let mut t = TcpWorkerTransport::connect(addr).expect("connect");
    t.send(&Message::Hello {
        version: PROTOCOL_VERSION,
        rank: 0,
        num_workers: 1,
        config_digest: 0,
    })
    .expect("hello");
    let mut weights = Vec::new();
    let mut versions = Vec::new();
    let grads = vec![1e-3f32; DIM];
    assert!(matches!(
        t.pull_into(true, trace_id(0, 1), &mut weights, &mut versions)
            .expect("initial pull"),
        PullOutcome::Applied(applied) if applied.full
    ));
    for iter in 0..WARMUP + MEASURED {
        // Causal tracing on: every push/pull carries a fresh v6 trace id, and the
        // event hooks stamp it — the trace plumbing must stay allocation-free too.
        let push_trace = trace_id(0, iter as u32 * 2 + 2);
        t.send_push(iter + 1, push_trace, &grads).expect("push");
        log.record_traced(EventKind::Push, iter + 1, push_trace);
        log.record_traced(EventKind::GateBlock, iter + 1, push_trace);
        match t.recv().expect("push reply") {
            Message::PushReply { .. } => {}
            other => panic!("unexpected: {other:?}"),
        }
        log.record_traced(EventKind::GateRelease, 0, push_trace);
        let pull_trace = trace_id(0, iter as u32 * 2 + 3);
        match t
            .pull_into(true, pull_trace, &mut weights, &mut versions)
            .expect("pull")
        {
            PullOutcome::Applied(applied) => {
                assert!(!applied.full, "cache must stay warm");
                log.record_traced(EventKind::Pull, applied.clock, pull_trace);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
    assert_eq!(log.dropped(), 0, "event log must not saturate in this test");
    t.send(&Message::Done {
        iterations: WARMUP + MEASURED,
        epochs: 1,
        waiting_time_s: 0.0,
    })
    .expect("done");
}

/// The server side: the same command-loop shape as `dssp_net::serve`'s fast path —
/// apply the push to a sharded store, recycle the gradient buffer, reply, answer the
/// delta pull from a borrowed view — with the per-message observability hooks the
/// real loop runs (event records, counter updates, a histogram sample, transport
/// mirroring).
fn serve_iterations(
    server: &mut TcpServerTransport,
    store: &mut ShardedStore,
    obs: &Obs,
    count: u64,
) {
    let mut served = 0;
    while served < count {
        obs.mirror_transport(&server.transport_stats());
        let (rank, msg) = server.recv().expect("recv");
        match msg {
            Message::Push {
                iteration,
                trace,
                grads,
            } => {
                store.apply_all(&grads, 1e-3);
                server.recycle_f32s(rank, grads);
                server
                    .send(
                        rank,
                        &Message::PushReply {
                            granted_extra: 0,
                            version: iteration,
                        },
                    )
                    .expect("push reply");
                obs.event_traced(EventKind::Push, rank as u64, trace);
                obs.metrics().pushes.fetch_add(1, Relaxed);
                obs.metrics().version.store(iteration, Relaxed);
                obs.metrics().observe_staleness(iteration % 3);
            }
            Message::PullDelta {
                trace,
                known_versions,
            } => {
                server
                    .send_pull_reply(
                        rank,
                        &PullView {
                            clock: 0,
                            versions: store.versions(),
                            offsets: store.offsets(),
                            weights: store.as_flat(),
                            known: Some(&known_versions),
                        },
                    )
                    .expect("delta reply");
                server.recycle_u64s(rank, known_versions);
                obs.on_pull(rank, true, trace);
                served += 1;
            }
            other => panic!("unexpected: {other:?}"),
        }
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
    let obs = Obs::new(Role::Server, 0, Some(&event_dir), Some("127.0.0.1:0")).expect("obs");

    let mut server = TcpServerTransport::bind("127.0.0.1:0", 1).expect("bind");
    let addr = server.local_addr().to_string();
    let worker = std::thread::spawn(move || worker_loop(&addr));

    let mut store = ShardedStore::new(vec![0.5f32; DIM], SHARDS);
    // Handshake + initial full pull.
    let (rank, hello) = server.recv().expect("hello");
    assert!(matches!(hello, Message::Hello { .. }));
    let (_, first_pull) = server.recv().expect("initial pull");
    assert!(matches!(first_pull, Message::Pull { .. }));
    server
        .send_pull_reply(
            rank,
            &PullView {
                clock: 0,
                versions: store.versions(),
                offsets: store.offsets(),
                weights: store.as_flat(),
                known: None,
            },
        )
        .expect("full reply");

    // Warm-up: buffers and pools grow to steady-state size; allocations expected.
    serve_iterations(&mut server, &mut store, &obs, WARMUP);

    // Measured window: the worker thread, the connection reader thread, the idle
    // metrics listener and this command loop are all in steady state — the global
    // counter must not move, event hooks and metric updates included.
    let before = process_allocations();
    serve_iterations(&mut server, &mut store, &obs, MEASURED);
    let during = process_allocations() - before;
    assert_eq!(
        during, 0,
        "{MEASURED} steady-state push/pull round trips performed {during} heap allocations \
         with observability enabled"
    );

    // Drain the Done so the worker exits cleanly.
    let (_, done) = server.recv().expect("done");
    assert!(matches!(done, Message::Done { .. }));
    worker.join().expect("worker thread");

    // The instrumentation observed the run: flush and spot-check outside the window.
    assert_eq!(obs.metrics().pushes.load(Relaxed), WARMUP + MEASURED);
    let flushed = obs.flush().expect("flush").expect("event log enabled");
    assert!(flushed.exists());
    std::fs::remove_dir_all(&event_dir).ok();
}
