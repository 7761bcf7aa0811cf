//! Dynamic membership under the elastic protocol: late joiners, voluntary leaves
//! (`Evict`), abrupt worker death, credit reclamation, and the checkpoint lifecycle
//! of a finished run.
//!
//! These are the membership half of the fault-tolerance story — the chaos matrix
//! (`tests/chaos_matrix.rs`) covers crashes at precise protocol phases; this suite
//! covers the fleet-composition events those crashes decompose into.

use dssp::core::driver::{CheckpointSpec, JobConfig, ServerLoop, WorkerStep};
use dssp::net::{
    run_worker, serve, Message, TcpServerTransport, TcpWorkerTransport, WorkerTransport,
};
use dssp::ps::Checkpoint;
use dssp::{PolicyKind, RunTrace};
use std::path::PathBuf;
use std::thread;
use std::time::Duration;

/// A per-test scratch directory under the system temp dir, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("dssp_membership_{}_{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Self(dir)
    }

    fn path(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `job` over real TCP sockets, with per-rank delays before each worker
/// connects (a late joiner is just a worker with a large delay).
fn run_tcp_with_delays(job: &JobConfig, delays: &[Duration]) -> RunTrace {
    let mut server = TcpServerTransport::bind("127.0.0.1:0", job.num_workers).expect("bind");
    let addr = server.local_addr().to_string();
    let handles: Vec<_> = (0..job.num_workers)
        .map(|rank| {
            let job = job.clone();
            let addr = addr.clone();
            let delay = delays[rank];
            thread::spawn(move || {
                thread::sleep(delay);
                let mut t = TcpWorkerTransport::connect(&addr).expect("connect");
                run_worker(&job, rank, &mut t).expect("worker runs")
            })
        })
        .collect();
    let trace = serve(job, &mut server).expect("run completes");
    for handle in handles {
        handle.join().expect("worker thread");
    }
    trace
}

/// A worker that shows up long after the others must converge to the *same* run:
/// in deterministic mode the gate orders events by rank, not arrival time, so the
/// trace is bitwise-equal to the punctual fleet's.
#[test]
fn late_joining_worker_converges_bitwise() {
    let mut job = JobConfig::small(PolicyKind::Dssp { s_l: 1, r_max: 2 });
    job.epochs = 1;
    job.deterministic = true;

    let punctual = run_tcp_with_delays(&job, &[Duration::ZERO, Duration::ZERO]);
    let late = run_tcp_with_delays(&job, &[Duration::ZERO, Duration::from_millis(300)]);
    assert_eq!(
        punctual.with_times_zeroed(),
        late.with_times_zeroed(),
        "a late joiner must not perturb a deterministic run"
    );
}

/// A worker can leave the fleet voluntarily with an `Evict` message: it is retired
/// with a partial summary, its departure releases anyone it was blocking, and the
/// survivors finish the run normally.
#[test]
fn evict_message_retires_a_worker_and_the_run_completes() {
    let mut job = JobConfig::small(PolicyKind::Dssp { s_l: 1, r_max: 2 });
    job.num_workers = 3;
    job.epochs = 1;

    let mut server = TcpServerTransport::bind("127.0.0.1:0", job.num_workers).expect("bind");
    let addr = server.local_addr().to_string();
    let mut handles: Vec<_> = (0..2)
        .map(|rank| {
            let job = job.clone();
            let addr = addr.clone();
            thread::spawn(move || {
                let mut t = TcpWorkerTransport::connect(&addr).expect("connect");
                run_worker(&job, rank, &mut t).expect("worker runs");
            })
        })
        .collect();

    // Rank 2 speaks the protocol by hand: join, push once, then ask to leave —
    // and keep the socket open until the server's Shutdown, like a real process
    // that scales itself in but lingers until the fleet acknowledges.
    let grads = vec![0.0f32; WorkerStep::for_rank(&job, 2).param_len()];
    let stub_job = job.clone();
    handles.push(thread::spawn(move || {
        let mut t = TcpWorkerTransport::connect(&addr).expect("connect");
        t.send(&Message::Hello {
            version: dssp::net::PROTOCOL_VERSION,
            rank: 2,
            num_workers: stub_job.num_workers as u32,
            config_digest: stub_job.stable_digest(),
        })
        .expect("hello");
        t.send(&Message::JoinRequest).expect("join request");
        match t.recv().expect("join ack") {
            Message::JoinAck { clock, .. } => assert_eq!(clock, 0, "fresh run admits at clock 0"),
            other => panic!("expected JoinAck, got {other:?}"),
        }
        t.send(&Message::Push {
            iteration: 1,
            trace: dssp_core::events::NO_TRACE,
            grads,
        })
        .expect("push");
        match t.recv().expect("push reply") {
            Message::PushReply { .. } => {}
            other => panic!("expected PushReply, got {other:?}"),
        }
        t.send(&Message::Evict { rank: 2 }).expect("leave request");
        loop {
            match t.recv().expect("server stays reachable until shutdown") {
                Message::Shutdown { .. } => break,
                _ => continue,
            }
        }
    }));

    let trace = serve(&job, &mut server).expect("run completes after the voluntary leave");
    for handle in handles {
        handle.join().expect("worker thread");
    }

    assert_eq!(trace.worker_summaries.len(), 3);
    assert_eq!(
        trace.worker_summaries[2].iterations, 1,
        "the leaver is recorded with the single push it contributed"
    );
    for summary in &trace.worker_summaries[..2] {
        assert!(
            summary.iterations > 1,
            "survivor {} should have finished its full shard, ran {}",
            summary.worker,
            summary.iterations
        );
    }
}

/// A worker that dies abruptly — socket gone, no goodbye — while the BSP gate has
/// everyone lockstepped is reaped instead of stalling the round: the survivor is
/// released and finishes alone.
#[test]
fn abrupt_worker_death_is_reaped_not_stalled() {
    let mut job = JobConfig::small(PolicyKind::Bsp);
    job.epochs = 1;

    let mut server = TcpServerTransport::bind("127.0.0.1:0", job.num_workers).expect("bind");
    let addr = server.local_addr().to_string();
    let survivor_addr = addr.clone();
    let survivor_job = job.clone();
    let survivor = thread::spawn(move || {
        let mut t = TcpWorkerTransport::connect(&survivor_addr).expect("connect");
        run_worker(&survivor_job, 0, &mut t).expect("survivor runs")
    });

    // Rank 1 pushes once and vanishes mid-handshake — no Done, no Evict, just a
    // dead socket while BSP would otherwise wait on it forever.
    let grads = vec![0.0f32; WorkerStep::for_rank(&job, 1).param_len()];
    let crasher_job = job.clone();
    let crasher = thread::spawn(move || {
        let mut t = TcpWorkerTransport::connect(&addr).expect("connect");
        t.send(&Message::Hello {
            version: dssp::net::PROTOCOL_VERSION,
            rank: 1,
            num_workers: crasher_job.num_workers as u32,
            config_digest: crasher_job.stable_digest(),
        })
        .expect("hello");
        t.send(&Message::Push {
            iteration: 1,
            trace: dssp_core::events::NO_TRACE,
            grads,
        })
        .expect("push");
        // Drop the transport: the connection closes with the push possibly still
        // unacknowledged, exactly like a SIGKILL'd worker process.
    });

    let trace = serve(&job, &mut server).expect("run completes despite the dead worker");
    crasher.join().expect("crasher thread");
    let report = survivor.join().expect("survivor thread");

    assert_eq!(trace.worker_summaries[1].iterations, 1);
    assert!(
        report.iterations > 1,
        "the survivor must be released from the dead worker's round, ran {}",
        report.iterations
    );
    assert_eq!(
        trace.total_pushes,
        report.iterations + 1,
        "every applied push is accounted to the survivor or the one dead-worker push"
    );
}

/// Evicting a worker that still holds unspent DSSP credits returns them to the
/// pool: `ServerStats::credits_reclaimed` records the refund.
#[test]
fn eviction_reclaims_unspent_credits() {
    let mut job = JobConfig::small(PolicyKind::Dssp { s_l: 1, r_max: 4 });
    job.epochs = 8; // headroom: nobody reaches its target in this test

    let mut sl = ServerLoop::new(&job);
    let grads = vec![0.0f32; sl.param_len()];
    let push = |sl: &mut ServerLoop, worker: usize, now: f64| {
        let mut replies = Vec::new();
        sl.handle_push_slice(worker, &grads, now, &mut replies);
        replies
    };

    // Worker 0 pushes every second, worker 1 every ten: once both have interval
    // history and worker 0's lead exceeds s_l, the controller grants it extra
    // credits (the schedule of the policy suite's granting test, driven through
    // the full server loop).
    let schedule: [(usize, f64); 6] =
        [(0, 1.0), (1, 10.0), (0, 2.0), (1, 20.0), (0, 3.0), (0, 4.0)];
    let mut granted = false;
    for (worker, now) in schedule {
        for reply in push(&mut sl, worker, now) {
            if reply.worker == 0 && reply.granted_extra > 0 {
                granted = true;
            }
        }
    }
    assert!(
        granted,
        "DSSP must grant the fast worker extra credits on this schedule"
    );

    // Evict the grantee before it can spend what it was given.
    sl.evict_worker(0, 5.0, &mut Vec::new());
    let stats = sl.stats().clone();
    assert!(
        stats.credits_granted > 0,
        "a grant must be on the books before eviction"
    );
    assert!(
        stats.credits_reclaimed > 0,
        "evicting the grantee must return its unspent credits, stats: {stats:?}"
    );
}

/// A checkpointing run leaves exactly one durable, loadable snapshot per role and
/// no temp litter; the terminal snapshot records the fleet as retired, and a
/// `--restore` from it is refused up front (a finished run is not resumable).
#[test]
fn finished_checkpoint_loads_but_refuses_restore() {
    let scratch = ScratchDir::new("finished_ckpt");
    let mut job = JobConfig::small(PolicyKind::Dssp { s_l: 1, r_max: 2 });
    job.epochs = 1;
    job.checkpoint = Some(CheckpointSpec {
        dir: scratch.path().clone(),
        every_pushes: 4,
        restore: false,
    });

    let trace = run_tcp_with_delays(&job, &[Duration::ZERO, Duration::ZERO]);
    assert!(trace.total_pushes > 0);

    let path = scratch.path().join(dssp::ps::server_checkpoint_name());
    let ckpt = Checkpoint::load_for_job(&path, job.stable_digest())
        .expect("the terminal checkpoint loads under the job's stable digest");
    assert!(
        ckpt.has_retired_workers(),
        "a finished run's snapshot records its workers as retired"
    );
    let litter: Vec<_> = std::fs::read_dir(scratch.path())
        .expect("scratch dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(dssp::ps::CHECKPOINT_TMP_SUFFIX))
        .collect();
    assert!(
        litter.is_empty(),
        "atomic writes must not leave temp files: {litter:?}"
    );

    // Restoring a finished run must be refused before any worker is admitted.
    let mut restore_job = job.clone();
    if let Some(spec) = restore_job.checkpoint.as_mut() {
        spec.restore = true;
    }
    let mut server =
        TcpServerTransport::bind("127.0.0.1:0", restore_job.num_workers).expect("bind");
    let err = serve(&restore_job, &mut server).expect_err("restore of a finished run must fail");
    let msg = err.to_string();
    assert!(
        msg.contains("retired"),
        "the refusal names the retired workers, got: {msg}"
    );
}
