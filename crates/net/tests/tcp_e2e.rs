//! End-to-end tests over real TCP sockets on localhost: the full wire protocol with
//! serialization, framing and per-connection reader threads — bitwise against the
//! loopback transport, and the fused round itself, frame by frame.

use dssp_core::driver::{JobConfig, WorkerStep};
use dssp_core::events::trace_id;
use dssp_net::transport::FrameWriter;
use dssp_net::wire::FrameBody;
use dssp_net::{
    run_worker, serve, wire, Message, NetError, PullOutcome, ServerReplies, TcpServerTransport,
    TcpWorkerTransport, WorkerTransport, PROTOCOL_VERSION,
};
use dssp_ps::PolicyKind;
use std::io::Read;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

#[test]
fn dssp_trains_over_real_sockets_and_matches_a_deterministic_loopback_run() {
    let mut job = JobConfig::small(PolicyKind::Dssp { s_l: 1, r_max: 4 });
    job.epochs = 1;
    job.deterministic = true;

    // TCP run.
    let mut server = TcpServerTransport::bind("127.0.0.1:0", job.num_workers).unwrap();
    let addr = server.local_addr().to_string();
    let handles: Vec<_> = (0..job.num_workers)
        .map(|rank| {
            let job = job.clone();
            let addr = addr.clone();
            thread::spawn(move || {
                let mut transport = TcpWorkerTransport::connect(&addr).expect("connect");
                run_worker(&job, rank, &mut transport).expect("worker runs")
            })
        })
        .collect();
    let tcp_trace = serve(&job, &mut server).expect("tcp run completes");
    for handle in handles {
        handle.join().expect("worker thread");
    }

    // Loopback run of the same deterministic job.
    let (mut loop_server, loop_workers) = dssp_net::transport::loopback(job.num_workers);
    let handles: Vec<_> = loop_workers
        .into_iter()
        .enumerate()
        .map(|(rank, mut transport)| {
            let job = job.clone();
            thread::spawn(move || run_worker(&job, rank, &mut transport).expect("worker runs"))
        })
        .collect();
    let loop_trace = serve(&job, &mut loop_server).expect("loopback run completes");
    for handle in handles {
        handle.join().expect("worker thread");
    }

    // Serialization through real sockets must not perturb a single bit.
    assert_eq!(
        tcp_trace.with_times_zeroed(),
        loop_trace.with_times_zeroed(),
        "TCP and loopback deterministic runs must be bitwise-identical"
    );
    assert!(tcp_trace.total_pushes > 0);
}

/// The size on the wire of `msg`, length prefix included.
fn wire_len(msg: &Message) -> u64 {
    let mut payload = Vec::new();
    wire::encode(msg, &mut payload);
    payload.len() as u64 + 4
}

/// One worker's whole run, frame by frame and byte by byte: a round is one frame out
/// (the push) and two in (the `OK`, then the weights it carries); the only `Pull` the
/// worker ever sends is the one before its first iteration; the `OK` of its final push
/// comes alone; and nothing crosses the socket that this list does not name. The
/// loopback transport moves the same frames, so its server end counts the same bytes.
#[test]
fn a_round_is_one_frame_out_and_two_in_and_every_byte_is_accounted_for() {
    let mut job = JobConfig::small(PolicyKind::Asp);
    job.num_workers = 1;
    job.epochs = 1;
    job.shards = 5;
    let rounds = WorkerStep::for_rank(&job, 0).target();
    let params = WorkerStep::for_rank(&job, 0).param_len() as u64;
    let shards = job.shards as u64;
    assert!(rounds > 4, "the job must have warm rounds to count");

    let mut server = TcpServerTransport::bind("127.0.0.1:0", 1).unwrap();
    let addr = server.local_addr().to_string();
    let worker_job = job.clone();
    let worker = thread::spawn(move || {
        let mut transport = TcpWorkerTransport::connect(&addr).expect("connect");
        let report = run_worker(&worker_job, 0, &mut transport).expect("worker runs");
        (report, transport.stats())
    });
    let trace = serve(&job, &mut server).expect("run completes");
    let (report, worker_stats) = worker.join().expect("worker thread");
    assert_eq!(trace.total_pushes, rounds);

    let (mut loop_server, mut loop_workers) = dssp_net::transport::loopback(1);
    let mut loop_worker = loop_workers.pop().expect("one worker end");
    let worker_job = job.clone();
    let worker = thread::spawn(move || run_worker(&worker_job, 0, &mut loop_worker));
    let loop_trace = serve(&job, &mut loop_server).expect("loopback run completes");
    worker.join().expect("worker thread").expect("worker runs");
    assert_eq!(loop_trace.total_pushes, rounds);

    // Hello, JoinRequest, Pull, one Push per round, Done.
    assert_eq!(worker_stats.frames_sent, rounds + 4);
    // JoinAck, the opening weights, OK + weights for every round but the last, the
    // last round's OK on its own, Shutdown.
    assert_eq!(worker_stats.frames_received, 2 + 2 * (rounds - 1) + 1 + 1);
    assert_eq!((report.full_pulls, report.delta_pulls), (1, rounds - 1));

    let push_frame = 4 + 21 + 4 * params;
    let ok_frame = wire_len(&Message::PushReply {
        granted_extra: 0,
        version: 0,
    });
    let full_reply = 4 + 13 + 8 * shards + 4 + 4 * params;
    // Every push advances every shard, so every delta carries all of them.
    let delta_reply = 4 + 13 + 16 * shards + 4 * params;
    let sent = wire_len(&Message::Hello {
        version: PROTOCOL_VERSION,
        rank: 0,
        num_workers: 1,
        config_digest: 0,
    }) + wire_len(&Message::JoinRequest)
        + wire_len(&Message::Pull { trace: 0 })
        + rounds * push_frame
        + wire_len(&Message::Done {
            iterations: 0,
            epochs: 0,
            waiting_time_s: 0.0,
        });
    let received = wire_len(&Message::JoinAck {
        clock: 0,
        epoch: 0,
        assignment: Vec::new(),
    }) + full_reply
        + (rounds - 1) * (ok_frame + delta_reply)
        + ok_frame
        + wire_len(&Message::Shutdown { reason: 0 });
    assert_eq!(worker_stats.bytes_sent, sent);
    assert_eq!(worker_stats.bytes_received, received);
    // The server's view is the mirror image: per push it moved one push frame, one
    // `PushReply` and one reply frame, and nothing else.
    for (name, server_stats) in [
        ("tcp", server.stats()),
        ("loopback", loop_server.transport_stats()),
    ] {
        assert_eq!(server_stats.bytes_received, sent, "{name}");
        assert_eq!(server_stats.bytes_sent, received, "{name}");
        assert_eq!(
            server_stats.frames_received, worker_stats.frames_sent,
            "{name}"
        );
        assert_eq!(
            server_stats.frames_sent, worker_stats.frames_received,
            "{name}"
        );
    }
}

/// A client speaking the protocol by hand up to its opening weights.
fn join_by_hand(
    addr: &str,
    job: &JobConfig,
    rank: usize,
) -> (TcpWorkerTransport, Vec<f32>, Vec<u64>) {
    let mut t = TcpWorkerTransport::connect(addr).expect("connect");
    t.send(&Message::Hello {
        version: PROTOCOL_VERSION,
        rank: rank as u32,
        num_workers: job.num_workers as u32,
        config_digest: job.stable_digest(),
    })
    .expect("hello");
    t.send(&Message::JoinRequest).expect("join request");
    assert!(matches!(
        t.recv().expect("join ack"),
        Message::JoinAck { clock: 0, .. }
    ));
    t.send(&Message::Pull { trace: 0 }).expect("pull");
    let (mut weights, mut versions) = (Vec::new(), Vec::new());
    match t
        .recv_pull_apply(&mut weights, &mut versions)
        .expect("opening weights")
    {
        // (Not necessarily at clock 0: outside deterministic mode a quicker rank's
        // push may already be in.)
        PullOutcome::Applied(applied) => assert!(applied.full),
        other => panic!("expected the opening weights, got {other:?}"),
    }
    (t, weights, versions)
}

/// Under BSP the first pusher of a round is deferred until the second one arrives.
/// The weights that ride its late `OK` are the weights as of that `OK`: they already
/// contain the push that released it, exactly like the releasing worker's own.
#[test]
fn a_deferred_ok_carries_weights_that_contain_the_releasing_push() {
    let mut job = JobConfig::small(PolicyKind::Bsp);
    job.epochs = 1;
    job.shards = 3;
    let mut server = TcpServerTransport::bind("127.0.0.1:0", job.num_workers).unwrap();
    let addr = server.local_addr().to_string();

    let handles: Vec<_> = (0..job.num_workers)
        .map(|rank| {
            let job = job.clone();
            let addr = addr.clone();
            thread::spawn(move || {
                let (mut t, mut weights, mut versions) = join_by_hand(&addr, &job, rank);
                let opening = weights.clone();
                let grads = vec![0.25 * (rank as f32 + 1.0); weights.len()];
                t.send_push(1, 0, &grads).expect("push");
                let version = match t.recv().expect("ok") {
                    Message::PushReply { version, .. } => version,
                    other => panic!("expected the OK, got {other:?}"),
                };
                let applied = match t
                    .recv_pull_apply(&mut weights, &mut versions)
                    .expect("weights")
                {
                    PullOutcome::Applied(applied) => applied,
                    other => panic!("expected the weights behind the OK, got {other:?}"),
                };
                assert_ne!(weights, opening);
                // Dropping the socket evicts this rank, which is how the run ends.
                (version, applied, weights, versions)
            })
        })
        .collect();
    let trace = serve(&job, &mut server).expect("run ends once both ranks are gone");
    let seen: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("worker"))
        .collect();

    assert_eq!(trace.total_pushes, 2);
    assert_eq!(
        trace.server_stats.blocked_pushes, 1,
        "one of the two pushes was deferred"
    );
    for (version, applied, weights, versions) in &seen {
        // Whichever rank waited: its `OK` and its weights date from after both pushes.
        assert_eq!(*version, 2);
        assert_eq!((applied.clock, applied.full), (2, false));
        assert_eq!(versions, &vec![2; job.shards]);
        assert_eq!(weights, &seen[0].2, "both ranks hold the same model");
    }
}

/// A peer that still speaks protocol v6 would wait for a pull it has to request while
/// this server waits for its next push: it is turned away at the handshake.
#[test]
fn a_protocol_v6_hello_is_refused_with_the_version_error() {
    let mut job = JobConfig::small(PolicyKind::Asp);
    job.num_workers = 1;
    let mut server = TcpServerTransport::bind("127.0.0.1:0", 1).unwrap();
    let addr = server.local_addr().to_string();
    let digest = job.stable_digest();
    let old_peer = thread::spawn(move || {
        let mut t = TcpWorkerTransport::connect(&addr).expect("connect");
        t.send(&Message::Hello {
            version: 6,
            rank: 0,
            num_workers: 1,
            config_digest: digest,
        })
        .expect("hello");
        // The refusal reaches the peer as the server-error shutdown.
        t.recv()
    });
    match serve(&job, &mut server) {
        Err(NetError::Protocol(msg)) => {
            let current = format!("v{PROTOCOL_VERSION}");
            assert!(
                msg.contains("protocol v6") && msg.contains(&current),
                "{msg}"
            )
        }
        other => panic!("expected the version refusal, got {other:?}"),
    }
    assert!(matches!(
        old_peer.join().expect("peer thread"),
        Ok(Message::Shutdown {
            reason: wire::SHUTDOWN_SERVER_ERROR
        })
    ));
}

/// Observability continuity across the protocol change, on a scaled-down `tcp_comm`
/// (the benchmark's communication-bound job: DSSP 3/12, 8 shards, delta pulls, batch
/// 4, two workers): the offline analyzer still joins **every** push across roles on
/// the round's trace id, still finds communication and gate wait in every worker's
/// timeline now that the pull is no exchange of its own, and no event log comes near
/// its capacity at the benchmark's 4096 pushes — `bench-trace` fails a run on either.
#[test]
fn a_traced_run_still_joins_every_push_across_roles_in_the_analyzer() {
    use dssp_core::analyze::analyze_dir;
    use dssp_core::events::EventLog;

    let events_dir = std::env::temp_dir().join(format!("dssp-tcp-e2e-obs-{}", std::process::id()));
    let mut job = JobConfig::small(PolicyKind::Dssp { s_l: 3, r_max: 12 });
    job.model = dssp_nn::models::ModelSpec::Mlp {
        input_dim: 16,
        hidden: vec![128],
        classes: 4,
    };
    job.batch_size = 4;
    job.shards = 8;
    job.eval_every_pushes = u64::MAX;
    job.event_log = Some(events_dir.clone());

    let mut server = TcpServerTransport::bind("127.0.0.1:0", job.num_workers).unwrap();
    let addr = server.local_addr().to_string();
    let handles: Vec<_> = (0..job.num_workers)
        .map(|rank| {
            let job = job.clone();
            let addr = addr.clone();
            thread::spawn(move || {
                let mut transport = TcpWorkerTransport::connect(&addr).expect("connect");
                run_worker(&job, rank, &mut transport).expect("worker runs")
            })
        })
        .collect();
    let trace = serve(&job, &mut server).expect("traced run completes");
    for handle in handles {
        handle.join().expect("worker thread");
    }

    let analysis = analyze_dir(&events_dir).expect("event logs read back");
    let latency = analysis.push_latency.expect("pushes joined across roles");
    assert_eq!(latency.count as u64, trace.total_pushes);
    assert_eq!(analysis.workers.len(), job.num_workers);
    for worker in &analysis.workers {
        assert_eq!(
            worker.rounds,
            WorkerStep::for_rank(&job, worker.rank as usize).target()
        );
        assert!(worker.compute_us > 0, "rank {}", worker.rank);
        assert!(worker.comms_us > 0, "rank {}", worker.rank);
        assert!(worker.gate_wait_us > 0, "rank {}", worker.rank);
    }
    for entry in std::fs::read_dir(&events_dir).unwrap() {
        let path = entry.unwrap().path();
        let events = std::fs::read_to_string(&path).unwrap().lines().count() as u64;
        let at_benchmark_scale = events * 4096 / trace.total_pushes;
        assert!(
            at_benchmark_scale < EventLog::DEFAULT_CAPACITY as u64 / 2,
            "{}: {events} events for {} pushes is {at_benchmark_scale} at 4096",
            path.display(),
            trace.total_pushes
        );
    }
    std::fs::remove_dir_all(&events_dir).ok();
}

/// A worker end that sent its opening frames — `Hello`, `JoinRequest` and the opening
/// `Pull` — as soon as it connected. `run_worker`'s own sends of those frames are
/// matched against them, byte for byte, and not sent again.
struct OpenedEarly {
    inner: TcpWorkerTransport,
    /// The opening frames not matched yet, the next one last.
    unmatched: Vec<Vec<u8>>,
}

impl OpenedEarly {
    fn connect(addr: &str, job: &JobConfig, rank: usize) -> Self {
        let mut inner = TcpWorkerTransport::connect(addr).expect("connect");
        let opening = [
            Message::Hello {
                version: PROTOCOL_VERSION,
                rank: rank as u32,
                num_workers: job.num_workers as u32,
                config_digest: job.stable_digest(),
            },
            Message::JoinRequest,
            Message::Pull {
                trace: trace_id(rank as u32, 1),
            },
        ];
        let mut unmatched = Vec::new();
        for msg in opening.iter().rev() {
            let mut frame = Vec::new();
            wire::write_frame(&mut frame, msg, &mut Vec::new()).expect("encode");
            unmatched.push(frame);
        }
        for msg in &opening {
            inner.send(msg).expect("opening frame");
        }
        Self { inner, unmatched }
    }
}

impl WorkerTransport for OpenedEarly {
    fn send_frame(&mut self, write: FrameWriter<'_>) -> Result<(), NetError> {
        let mut frame = Vec::new();
        write(&mut frame, &mut Vec::new())?;
        if self.unmatched.last() == Some(&frame) {
            self.unmatched.pop();
            return Ok(());
        }
        self.inner
            .send_frame(&|w, _| w.write_all(&frame).map(|()| frame.len()))
    }

    fn recv_frame(&mut self) -> Result<(FrameBody<'_, dyn Read + '_>, &mut Vec<u8>), NetError> {
        self.inner.recv_frame()
    }

    fn peer_error(&self, e: NetError) -> NetError {
        self.inner.peer_error(e)
    }
}

/// Workers that connect, say Hello, ask to join and pull before `serve` starts: the
/// server end keeps those frames and serves them first, in arrival order, so the run
/// is the deterministic loopback run to the bit.
#[test]
fn frames_that_arrive_before_serve_starts_are_served_in_order() {
    let mut job = JobConfig::small(PolicyKind::Dssp { s_l: 1, r_max: 4 });
    job.epochs = 1;
    job.deterministic = true;

    let mut server = TcpServerTransport::bind("127.0.0.1:0", job.num_workers).unwrap();
    let addr = server.local_addr().to_string();
    let handles: Vec<_> = (0..job.num_workers)
        .map(|rank| {
            let mut transport = OpenedEarly::connect(&addr, &job, rank);
            let job = job.clone();
            thread::spawn(move || {
                run_worker(&job, rank, &mut transport).expect("worker runs");
                transport.unmatched.is_empty()
            })
        })
        .collect();
    // Every opening frame is in before `serve` starts.
    let opening_frames = 3 * job.num_workers as u64;
    let waiting = std::time::Instant::now();
    while server.stats().frames_received < opening_frames {
        assert!(
            waiting.elapsed() < Duration::from_secs(10),
            "opening frames lost"
        );
        thread::sleep(Duration::from_millis(5));
    }
    let tcp_trace = serve(&job, &mut server).expect("tcp run completes");
    for handle in handles {
        assert!(
            handle.join().expect("worker thread"),
            "the worker sent exactly the opening frames it had sent early"
        );
    }

    let (mut loop_server, loop_workers) = dssp_net::transport::loopback(job.num_workers);
    let handles: Vec<_> = loop_workers
        .into_iter()
        .enumerate()
        .map(|(rank, mut transport)| {
            let job = job.clone();
            thread::spawn(move || run_worker(&job, rank, &mut transport).expect("worker runs"))
        })
        .collect();
    let loop_trace = serve(&job, &mut loop_server).expect("loopback run completes");
    for handle in handles {
        handle.join().expect("worker thread");
    }
    assert_eq!(
        tcp_trace.with_times_zeroed(),
        loop_trace.with_times_zeroed(),
        "a run whose opening frames waited for the server is the loopback run"
    );
}

/// The TCP twin of `loopback.rs`'s `a_dropped_worker_end_is_evicted_not_waited_for`:
/// a connection closed after its worker was admitted reaches the serving step, on that
/// connection's own reader thread, as `ClientLost`. The BSP round is not left waiting
/// on it, and the survivor finishes alone.
#[test]
fn a_closed_worker_connection_is_evicted_not_waited_for() {
    let mut job = JobConfig::small(PolicyKind::Bsp);
    job.epochs = 1;
    let mut server = TcpServerTransport::bind("127.0.0.1:0", job.num_workers).unwrap();
    let addr = server.local_addr().to_string();
    let mut dying = TcpWorkerTransport::connect(&addr).expect("connect");
    dying
        .send(&Message::Hello {
            version: PROTOCOL_VERSION,
            rank: 1,
            num_workers: job.num_workers as u32,
            config_digest: job.stable_digest(),
        })
        .unwrap();
    dying.send(&Message::JoinRequest).unwrap();

    let (done_tx, done_rx) = mpsc::channel();
    let server_job = job.clone();
    thread::spawn(move || {
        let _ = done_tx.send(serve(&server_job, &mut server));
    });
    // Admitted first, so no send to rank 1 fails before its connection is gone.
    assert!(matches!(dying.recv(), Ok(Message::JoinAck { .. })));
    drop(dying);
    let worker_job = job.clone();
    let worker = thread::spawn(move || {
        let mut transport = TcpWorkerTransport::connect(&addr).expect("connect");
        run_worker(&worker_job, 0, &mut transport)
    });

    let trace = done_rx
        .recv_timeout(Duration::from_secs(20))
        .expect("serve must not wait for a closed connection")
        .expect("the run finishes without rank 1");
    let report = worker
        .join()
        .expect("worker thread")
        .expect("survivor runs");
    let target = WorkerStep::for_rank(&job, 0).target();
    assert_eq!(report.iterations, target);
    assert!(!report.shutdown_early);
    assert_eq!(
        trace.worker_summaries[1].iterations, 0,
        "rank 1 was evicted"
    );
    assert_eq!(trace.total_pushes, target);
}
