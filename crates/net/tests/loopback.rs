//! End-to-end tests of the networked runtime over the in-process loopback transport:
//! full training runs, sharded-versus-flat storage equality, shutdown behaviour, and
//! malformed frames refused the way TCP refuses them.

use dssp_core::driver::{JobConfig, WorkerStep};
use dssp_net::transport::{loopback, ServerReplies, ServerTransport, WorkerTransport};
use dssp_net::wire::{self, Message, PROTOCOL_VERSION, SHUTDOWN_SERVER_ERROR};
use dssp_net::{run_worker, serve, NetError, TcpServerTransport, TcpWorkerTransport, WorkerReport};
use dssp_ps::PolicyKind;
use dssp_sim::RunTrace;
use std::io::{self, Write};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// Runs a full job over loopback: server on this thread, one thread per worker.
fn run_loopback(job: &JobConfig) -> (Result<RunTrace, NetError>, Vec<WorkerReport>) {
    let (mut server, workers) = loopback(job.num_workers);
    let handles: Vec<_> = workers
        .into_iter()
        .enumerate()
        .map(|(rank, mut transport)| {
            let job = job.clone();
            thread::spawn(move || run_worker(&job, rank, &mut transport).expect("worker runs"))
        })
        .collect();
    let result = serve(job, &mut server);
    let reports = handles
        .into_iter()
        .map(|h| h.join().expect("worker thread"))
        .collect();
    (result, reports)
}

fn small_job(policy: PolicyKind) -> JobConfig {
    let mut job = JobConfig::small(policy);
    job.epochs = 1;
    job
}

#[test]
fn bsp_over_loopback_completes_and_learns() {
    let (result, reports) = run_loopback(&small_job(PolicyKind::Bsp));
    let trace = result.expect("run completes");
    assert_eq!(trace.workers, 2);
    let per_worker: u64 = trace.worker_summaries.iter().map(|w| w.iterations).sum();
    assert_eq!(per_worker, trace.total_pushes);
    assert!(
        trace.final_accuracy() > 0.3,
        "accuracy {}",
        trace.final_accuracy()
    );
    for report in &reports {
        assert!(!report.shutdown_early);
        assert_eq!(
            report.last_shard_versions.len(),
            1,
            "flat storage = 1 shard"
        );
    }
}

#[test]
fn dssp_with_a_straggler_grants_extra_iterations_over_the_wire() {
    let mut job = JobConfig::small(PolicyKind::Dssp { s_l: 1, r_max: 8 });
    job.epochs = 2;
    job.extra_compute_delay_ms = vec![0, 6];
    let (result, reports) = run_loopback(&job);
    let trace = result.expect("run completes");
    assert!(
        trace.server_stats.credits_granted > 0,
        "the controller should have granted extras to the fast worker"
    );
    // The fast worker saw those grants in its push replies.
    let total_seen: u64 = reports.iter().map(|r| r.granted_extra_total).sum();
    assert_eq!(total_seen, trace.server_stats.credits_granted);
    let per_worker: u64 = trace.worker_summaries.iter().map(|w| w.iterations).sum();
    assert_eq!(per_worker, trace.total_pushes);
}

#[test]
fn sharded_and_flat_storage_produce_identical_runs() {
    // Identical job, 1-shard vs 5-shard server storage, deterministic scheduling:
    // every learning-relevant number must agree bitwise.
    let mut flat = small_job(PolicyKind::Ssp { s: 2 });
    flat.deterministic = true;
    let mut sharded = flat.clone();
    sharded.shards = 5;
    let (flat_result, _) = run_loopback(&flat);
    let (sharded_result, sharded_reports) = run_loopback(&sharded);
    let flat_trace = flat_result.expect("flat run");
    let sharded_trace = sharded_result.expect("sharded run");
    for report in &sharded_reports {
        assert_eq!(report.last_shard_versions.len(), 5);
    }
    // Shard count is config, not math: only the policy label/config could differ, and
    // it does not — so the zeroed-time traces must be equal outright.
    assert_eq!(
        flat_trace.with_times_zeroed(),
        sharded_trace.with_times_zeroed()
    );
}

#[test]
fn pull_replies_report_monotonically_complete_shard_versions() {
    let mut job = small_job(PolicyKind::Bsp);
    job.shards = 3;
    let (result, reports) = run_loopback(&job);
    let trace = result.expect("run completes");
    for report in &reports {
        assert_eq!(report.last_shard_versions.len(), 3);
        // Every shard sees every whole-model update, so versions are uniform and
        // bounded by the total push count.
        let v0 = report.last_shard_versions[0];
        assert!(report.last_shard_versions.iter().all(|&v| v == v0));
        assert!(v0 <= trace.total_pushes);
    }
}

#[test]
fn chaos_abort_shuts_workers_down_cleanly() {
    let mut job = small_job(PolicyKind::Asp);
    job.fault_plan = dssp_core::driver::FaultPlan::parse("server0:push:abort:3");
    let (result, reports) = run_loopback(&job);
    match result {
        Err(NetError::Aborted { pushes }) => assert!(pushes >= 3),
        other => panic!("expected Aborted, got {other:?}"),
    }
    // Workers exited via the Shutdown broadcast, not by crashing.
    assert!(reports.iter().any(|r| r.shutdown_early));
}

#[test]
fn an_aborted_server_still_leaves_its_event_log() {
    use dssp_core::events::{read_dir_events, EventKind, Role};
    let dir = std::env::temp_dir().join(format!("dssp-loopback-abort-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut job = small_job(PolicyKind::Asp);
    job.fault_plan = dssp_core::driver::FaultPlan::parse("server0:push:abort:3");
    job.event_log = Some(dir.clone());
    let (result, _) = run_loopback(&job);
    let Err(NetError::Aborted { pushes }) = result else {
        panic!("expected Aborted, got {result:?}");
    };
    assert!(dir.join("server.ndjson").exists(), "no server event log");
    let applied = read_dir_events(&dir)
        .expect("event logs read back")
        .iter()
        .filter(|e| e.role == Role::Server && e.kind == EventKind::Push)
        .count() as u64;
    assert_eq!(applied, pushes);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn config_digest_mismatch_is_rejected_at_handshake() {
    let server_job = small_job(PolicyKind::Bsp);
    let mut worker_job = server_job.clone();
    worker_job.seed += 1; // a silently different dataset — must not train
    let (mut server, workers) = loopback(server_job.num_workers);
    let handles: Vec<_> = workers
        .into_iter()
        .enumerate()
        .map(|(rank, mut transport)| {
            let job = worker_job.clone();
            thread::spawn(move || run_worker(&job, rank, &mut transport))
        })
        .collect();
    let result = serve(&server_job, &mut server);
    assert!(
        matches!(result, Err(NetError::Protocol(ref msg)) if msg.contains("digest")),
        "got {result:?}"
    );
    for handle in handles {
        // Workers end via Shutdown (clean) or a disconnect error; neither may hang.
        let _ = handle.join().expect("worker thread must exit");
    }
}

/// A worker end dropped after it was admitted reaches `serve` as `ClientLost`, behind
/// everything it sent, as a closed socket does: the BSP round is not left waiting on
/// it, and the survivor finishes alone.
#[test]
fn a_dropped_worker_end_is_evicted_not_waited_for() {
    let job = small_job(PolicyKind::Bsp);
    let (mut server, mut workers) = loopback(job.num_workers);
    let mut dying = workers.pop().expect("rank 1's end");
    let mut survivor = workers.pop().expect("rank 0's end");
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
    // Admitted first, so no send to rank 1 fails before its end is gone.
    assert!(matches!(dying.recv(), Ok(Message::JoinAck { .. })));
    drop(dying);
    let worker_job = job.clone();
    let worker = thread::spawn(move || run_worker(&worker_job, 0, &mut survivor));

    let trace = done_rx
        .recv_timeout(Duration::from_secs(20))
        .expect("serve must not wait for a dropped worker end")
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

/// A server that answers the opening pull with more weights than the model has: the
/// worker refuses the reply with an error naming both counts instead of panicking in
/// its step.
#[test]
fn a_pull_reply_of_the_wrong_length_is_refused_by_the_worker() {
    let job = small_job(PolicyKind::Asp);
    let params = WorkerStep::for_rank(&job, 0).param_len();
    let (mut server, mut workers) = loopback(job.num_workers);
    let mut transport = workers.swap_remove(0);
    let worker_job = job.clone();
    let worker = thread::spawn(move || run_worker(&worker_job, 0, &mut transport));
    assert!(matches!(server.recv(), Ok((0, Message::Hello { .. }))));
    assert!(matches!(server.recv(), Ok((0, Message::JoinRequest))));
    let ack = Message::JoinAck {
        clock: 0,
        epoch: 0,
        assignment: Vec::new(),
    };
    server.send(0, &ack).unwrap();
    assert!(matches!(server.recv(), Ok((0, Message::Pull { .. }))));
    let reply = Message::PullReply {
        clock: 0,
        shard_versions: vec![0],
        weights: vec![0.0; params + 3],
    };
    server.send(0, &reply).unwrap();
    match worker
        .join()
        .expect("the worker must refuse the reply, not panic")
    {
        Err(NetError::Protocol(msg)) => assert!(
            msg.contains(&format!("{} weights for {params} parameters", params + 3)),
            "{msg}"
        ),
        other => panic!("expected a protocol error, got {other:?}"),
    }
}

/// A worker that pushes more gradients than the model has parameters: `serve` refuses
/// the push with a protocol error naming the rank, before any weight moves, and its
/// `Shutdown` still goes out.
#[test]
fn a_push_of_the_wrong_length_is_refused_by_the_server() {
    let mut job = small_job(PolicyKind::Asp);
    job.num_workers = 1;
    let params = WorkerStep::for_rank(&job, 0).param_len();
    let (mut server, mut workers) = loopback(job.num_workers);
    let mut worker = workers.swap_remove(0);
    let server_job = job.clone();
    let serving = thread::spawn(move || serve(&server_job, &mut server));
    worker
        .send(&Message::Hello {
            version: PROTOCOL_VERSION,
            rank: 0,
            num_workers: 1,
            config_digest: job.stable_digest(),
        })
        .unwrap();
    worker.send(&Message::JoinRequest).unwrap();
    assert!(matches!(worker.recv(), Ok(Message::JoinAck { .. })));
    worker.send(&Message::Pull { trace: 0 }).unwrap();
    assert!(matches!(worker.recv(), Ok(Message::PullReply { .. })));
    let push = Message::Push {
        iteration: 1,
        trace: 0,
        grads: vec![0.0; params + 3],
    };
    worker.send(&push).unwrap();
    match serving
        .join()
        .expect("serve must refuse the push, not panic")
    {
        Err(NetError::Protocol(msg)) => assert!(msg.contains("worker 0"), "{msg}"),
        other => panic!("expected a protocol error, got {other:?}"),
    }
    assert!(matches!(
        worker.recv(),
        Ok(Message::Shutdown { reason }) if reason == SHUTDOWN_SERVER_ERROR
    ));
}

/// Writes a `Push` frame whose gradient run declares more elements than the frame
/// holds: the frame itself is whole, so only its decode can refuse it.
fn overrunning_push(w: &mut dyn Write, _scratch: &mut Vec<u8>) -> io::Result<usize> {
    let mut payload = Vec::new();
    wire::encode_push(&mut payload, 1, 0, &[0.5, -0.5]);
    // The run's element count follows the tag, the iteration and the trace id.
    payload[17..21].copy_from_slice(&1000u32.to_le_bytes());
    wire::write_frame_payload(w, &payload)
}

/// Rank 1 says Hello and then sends [`overrunning_push`]: `serve` must end with the
/// same protocol error on both transports, naming the rank whose connection failed.
#[test]
fn a_malformed_frame_is_refused_naming_its_rank_on_both_transports() {
    let job = small_job(PolicyKind::Asp);
    let hello = Message::Hello {
        version: PROTOCOL_VERSION,
        rank: 1,
        num_workers: job.num_workers as u32,
        config_digest: job.stable_digest(),
    };

    let (mut server, mut ends) = loopback(job.num_workers);
    let mut worker = ends.pop().expect("rank 1's end");
    worker.send(&hello).unwrap();
    worker.send_frame(&overrunning_push).unwrap();
    let over_loopback = serve(&job, &mut server);

    let mut server = TcpServerTransport::bind("127.0.0.1:0", job.num_workers).unwrap();
    let mut worker = TcpWorkerTransport::connect(&server.local_addr().to_string()).unwrap();
    worker.send(&hello).unwrap();
    worker.send_frame(&overrunning_push).unwrap();
    let over_tcp = serve(&job, &mut server);

    for (name, result) in [("loopback", over_loopback), ("tcp", over_tcp)] {
        match result {
            Err(NetError::Protocol(msg)) => assert!(
                msg.starts_with("connection of worker 1 failed:") && msg.contains("1000"),
                "{name}: {msg}"
            ),
            other => panic!("{name}: expected a protocol error, got {other:?}"),
        }
    }
}
