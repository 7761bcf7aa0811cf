//! Cross-substrate equivalence: under deterministic scheduling, a networked run over
//! the loopback transport must be **bitwise-equal** to a threaded-runtime run of the
//! same job — same weights evolution, same accuracies, same synchronization statistics
//! (wall-clock fields excepted, see `RunTrace::with_times_zeroed`) — and since PR 5 the
//! same equality extends to a **multi-server group**: one coordinator plus N shard
//! servers over real TCP sockets, with the model spread across server processes.
//!
//! This is the end-to-end proof that `dssp-net`, `dssp-coord` and
//! `dssp-core::runtime` really are substrates of one driver: the only code that
//! differs between the runs is the message plumbing and the storage topology, and
//! neither perturbs a single bit.

use dssp::coord::run_group_threads;
use dssp::core::driver::{CheckpointSpec, JobConfig};
use dssp::core::runtime::run_threaded;
use dssp::net::transport::loopback;
use dssp::net::{run_worker, serve, TcpServerTransport, TcpWorkerTransport};
use dssp::{PolicyKind, RunTrace};
use std::path::Path;
use std::thread;

/// A classic single-server run over real TCP sockets (server + workers on threads).
fn run_tcp_single(job: &JobConfig) -> RunTrace {
    let mut server = TcpServerTransport::bind("127.0.0.1:0", job.num_workers).expect("bind");
    let addr = server.local_addr().to_string();
    let handles: Vec<_> = (0..job.num_workers)
        .map(|rank| {
            let job = job.clone();
            let addr = addr.clone();
            thread::spawn(move || {
                let mut t = TcpWorkerTransport::connect(&addr).expect("connect");
                run_worker(&job, rank, &mut t).expect("worker runs")
            })
        })
        .collect();
    let trace = serve(job, &mut server).expect("tcp run completes");
    for handle in handles {
        handle.join().expect("worker thread");
    }
    trace
}

/// A multi-server group run (coordinator + `job.servers` shard servers + workers,
/// all over real TCP).
fn run_group(job: &JobConfig) -> RunTrace {
    run_group_threads(job).expect("group run completes").trace
}

fn run_loopback(job: &JobConfig) -> RunTrace {
    let (mut server, workers) = loopback(job.num_workers);
    let handles: Vec<_> = workers
        .into_iter()
        .enumerate()
        .map(|(rank, mut transport)| {
            let job = job.clone();
            thread::spawn(move || run_worker(&job, rank, &mut transport).expect("worker runs"))
        })
        .collect();
    let trace = serve(job, &mut server).expect("networked run completes");
    for handle in handles {
        handle.join().expect("worker thread");
    }
    trace
}

fn assert_equivalent(policy: PolicyKind) {
    // The paper's downsized-AlexNet analogue: a real convolutional model, so the
    // equality covers conv/pool/dense forward-backward, not just toy MLP arithmetic.
    let mut job = JobConfig::small_alexnet(policy);
    job.deterministic = true;
    let threaded = run_threaded(job.clone());
    let networked = run_loopback(&job);
    assert!(threaded.total_pushes > 0);
    assert_eq!(
        threaded.with_times_zeroed(),
        networked.with_times_zeroed(),
        "threaded and networked runs diverged under policy {policy:?}"
    );
}

#[test]
fn bsp_networked_run_is_bitwise_equal_to_the_threaded_runtime() {
    assert_equivalent(PolicyKind::Bsp);
}

#[test]
fn dssp_networked_run_is_bitwise_equal_to_the_threaded_runtime() {
    assert_equivalent(PolicyKind::Dssp { s_l: 1, r_max: 4 });
}

#[test]
fn repeated_deterministic_networked_runs_are_bitwise_stable() {
    let mut job = JobConfig::small_alexnet(PolicyKind::Dssp { s_l: 1, r_max: 4 });
    job.deterministic = true;
    let a = run_loopback(&job);
    let b = run_loopback(&job);
    assert_eq!(a.with_times_zeroed(), b.with_times_zeroed());
}

#[test]
fn delta_pulls_do_not_perturb_a_single_bit() {
    // The same deterministic job with incremental pulls on and off: the workers
    // reconstruct identical weights from shard deltas, so traces are bitwise-equal
    // (delta_pulls is excluded from nothing else — only the wire traffic differs).
    // Sharded storage makes the deltas non-trivial.
    let mut job = JobConfig::small_alexnet(PolicyKind::Dssp { s_l: 1, r_max: 4 });
    job.deterministic = true;
    job.shards = 4;
    job.delta_pulls = true;
    let with_deltas = run_loopback(&job);
    job.delta_pulls = false;
    let without_deltas = run_loopback(&job);
    assert!(with_deltas.total_pushes > 0);
    assert_eq!(
        with_deltas.with_times_zeroed(),
        without_deltas.with_times_zeroed(),
        "delta and full pulls must reconstruct identical training"
    );
}

#[test]
fn group_runs_are_bitwise_equal_across_topologies() {
    // The acceptance matrix of the group subsystem: on the AlexNet analogue under
    // deterministic DSSP, a threaded run, a classic 1-server TCP run, and a 2-server
    // group run (delta pulls on AND off) must all be bitwise identical — the model is
    // physically spread over two server sockets with per-server optimizer slices, and
    // not a bit of the training run moves.
    let mut job = JobConfig::small_alexnet(PolicyKind::Dssp { s_l: 1, r_max: 4 });
    job.deterministic = true;
    job.shards = 4;

    let threaded = run_threaded(job.clone()).with_times_zeroed();
    let tcp_single = run_tcp_single(&job).with_times_zeroed();
    assert!(threaded.total_pushes > 0);
    assert_eq!(
        threaded, tcp_single,
        "threaded and 1-server TCP runs diverged"
    );

    job.servers = 2;
    let group_delta = run_group(&job).with_times_zeroed();
    assert_eq!(
        threaded, group_delta,
        "2-server group (delta pulls) diverged from the single server"
    );

    job.delta_pulls = false;
    let group_full = run_group(&job).with_times_zeroed();
    assert_eq!(
        threaded, group_full,
        "2-server group (full pulls) diverged from the single server"
    );
}

#[test]
fn four_server_group_matches_two_server_group_bitwise() {
    let mut job = JobConfig::small_alexnet(PolicyKind::Bsp);
    job.deterministic = true;
    job.shards = 8;
    job.servers = 2;
    let two = run_group(&job).with_times_zeroed();
    job.servers = 4;
    let four = run_group(&job).with_times_zeroed();
    assert!(two.total_pushes > 0);
    assert_eq!(two, four, "server count must not perturb a single bit");
}

#[test]
fn delta_pulls_match_the_threaded_runtime_bitwise() {
    // Threaded runtime (no pull step at all) vs networked runtime with delta pulls:
    // the strongest cross-substrate statement — inline weight handoff, full pulls and
    // incremental pulls all describe the same training run.
    let mut job = JobConfig::small_alexnet(PolicyKind::Bsp);
    job.deterministic = true;
    job.shards = 4;
    job.delta_pulls = true;
    let threaded = run_threaded(job.clone());
    let networked = run_loopback(&job);
    assert_eq!(threaded.with_times_zeroed(), networked.with_times_zeroed());
}

/// The weight and momentum bits a finished run's servers persisted, stitched in key
/// order: a single server's store, or each shard server's slice in server order.
fn final_store(dir: &Path, servers: usize) -> (Vec<u32>, Vec<u32>) {
    let names: Vec<String> = if servers == 1 {
        vec![dssp::ps::server_checkpoint_name()]
    } else {
        (0..servers).map(dssp::ps::shard_checkpoint_name).collect()
    };
    let (mut weights, mut velocity) = (Vec::new(), Vec::new());
    for name in names {
        let ckpt = dssp::ps::Checkpoint::load(&dir.join(name)).expect("final checkpoint");
        let store = ckpt.store.expect("a store section");
        weights.extend(store.flat.iter().map(|w| w.to_bits()));
        velocity.extend(store.velocity.iter().map(|v| v.to_bits()));
    }
    (weights, velocity)
}

/// A deterministic 3-worker group on 2 shard servers against the threaded runtime
/// (the trace) and a single server (the final weights and momentum, bit for bit).
/// Three ranks is the first worker count at which a grant's per-rank push counts say
/// more than its clock, so the rule that keeps or re-pulls the weights fetched by a
/// push round is exercised rank by rank; a worker that kept weights lacking a counted
/// push would push a different gradient, which the final weights show even where a
/// coarse test accuracy does not.
fn assert_three_worker_group_equivalent(policy: PolicyKind, tag: &str) {
    let mut job = JobConfig::small_alexnet(policy);
    job.deterministic = true;
    job.num_workers = 3;
    job.shards = 4;
    let threaded = run_threaded(job.clone()).with_times_zeroed();
    assert!(threaded.total_pushes > 0);

    let dir = std::env::temp_dir().join(format!("dssp-three-{tag}-{}", std::process::id()));
    let (single_dir, group_dir) = (dir.join("single"), dir.join("group"));
    for d in [&single_dir, &group_dir] {
        std::fs::create_dir_all(d).expect("scratch dir");
    }
    let checkpoint = |d: &Path| CheckpointSpec {
        dir: d.to_path_buf(),
        every_pushes: u64::MAX, // the final write only
        restore: false,
    };
    job.checkpoint = Some(checkpoint(&single_dir));
    run_loopback(&job);
    job.servers = 2;
    job.checkpoint = Some(checkpoint(&group_dir));
    let group = run_group(&job).with_times_zeroed();
    let (single_store, group_store) = (final_store(&single_dir, 1), final_store(&group_dir, 2));
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(
        threaded, group,
        "3-worker group diverged from the threaded runtime under {policy:?}"
    );
    assert!(
        single_store == group_store,
        "3-worker group ended on other weights than a single server under {policy:?}"
    );
}

#[test]
fn bsp_three_worker_group_is_bitwise_equal_to_the_threaded_runtime() {
    assert_three_worker_group_equivalent(PolicyKind::Bsp, "bsp");
}

#[test]
fn dssp_three_worker_group_is_bitwise_equal_to_the_threaded_runtime() {
    assert_three_worker_group_equivalent(PolicyKind::Dssp { s_l: 1, r_max: 4 }, "dssp");
}
