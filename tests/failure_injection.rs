//! Failure-injection tests: transient stragglers and unstable workers.
//!
//! The paper's future-work section asks how DSSP adapts to an unstable environment
//! where worker speeds fluctuate. These tests inject transient slowdowns through the
//! cluster model and check that (a) the synchronization invariants still hold and
//! (b) DSSP's adaptive threshold reduces the waiting time that a fixed-threshold SSP
//! suffers under the same disturbance. The last one injects a death instead of a
//! slowdown, over real sockets, at the one point the fused round added: between a
//! worker's `OK` and the weights that follow it.

use dssp_cluster::{ClusterSpec, DeviceProfile, LinkProfile, SlowdownEvent, WorkerSpec};
use dssp_core::driver::{JobConfig, WorkerStep};
use dssp_core::ExperimentBuilder;
use dssp_data::SyntheticVectorSpec;
use dssp_net::{
    run_worker, serve, Message, PullOutcome, TcpServerTransport, TcpWorkerTransport,
    WorkerTransport, PROTOCOL_VERSION,
};
use dssp_nn::models::ModelSpec;
use dssp_ps::PolicyKind;
use dssp_sim::RunTrace;

/// Four equal workers, one of which suffers a 5× slowdown for part of the run.
fn cluster_with_transient_straggler() -> ClusterSpec {
    ClusterSpec::homogeneous(
        4,
        WorkerSpec::single(DeviceProfile::gtx1080ti()),
        LinkProfile::infiniband_edr(),
    )
    .with_slowdown(SlowdownEvent {
        worker: 2,
        start_s: 0.05,
        duration_s: 0.6,
        factor: 5.0,
    })
}

fn run_with_straggler(policy: PolicyKind) -> RunTrace {
    ExperimentBuilder::small_mlp()
        .model(ModelSpec::Mlp {
            input_dim: 32,
            hidden: vec![48],
            classes: 10,
        })
        .vector_data(SyntheticVectorSpec {
            classes: 10,
            dim: 32,
            train_size: 1_200,
            test_size: 200,
            noise_std: 0.8,
        })
        .cluster(cluster_with_transient_straggler())
        .policy(policy)
        .epochs(3)
        .run()
}

#[test]
fn staleness_bounds_hold_under_a_transient_straggler() {
    let ssp = run_with_straggler(PolicyKind::Ssp { s: 3 });
    assert!(ssp.server_stats.staleness_max <= 4);

    // Strict-range DSSP promises a hard cap at s_U; the literal Algorithm-1 variant may
    // exceed it when the controller keeps granting extra iterations, but each individual
    // grant is still bounded by r_max.
    let dssp = run_with_straggler(PolicyKind::DsspStrict { s_l: 3, r_max: 12 });
    assert!(dssp.server_stats.staleness_max <= 3 + 12 + 1);

    let bsp = run_with_straggler(PolicyKind::Bsp);
    assert!(bsp.server_stats.staleness_max <= 1);
}

#[test]
fn every_worker_still_finishes_its_epochs_despite_the_straggler() {
    for policy in [
        PolicyKind::Bsp,
        PolicyKind::Asp,
        PolicyKind::Ssp { s: 3 },
        PolicyKind::Dssp { s_l: 3, r_max: 12 },
    ] {
        let trace = run_with_straggler(policy);
        let expected_per_worker = trace.total_pushes / trace.workers as u64;
        for w in &trace.worker_summaries {
            assert_eq!(
                w.iterations, expected_per_worker,
                "{}: worker {} did {} of {} iterations",
                trace.policy, w.worker, w.iterations, expected_per_worker
            );
        }
    }
}

#[test]
fn dssp_adapts_to_the_disturbance_better_than_fixed_ssp() {
    let ssp = run_with_straggler(PolicyKind::Ssp { s: 3 });
    let dssp = run_with_straggler(PolicyKind::Dssp { s_l: 3, r_max: 12 });
    assert!(
        dssp.total_waiting_time() <= ssp.total_waiting_time(),
        "DSSP waiting {} should not exceed SSP waiting {} under a transient straggler",
        dssp.total_waiting_time(),
        ssp.total_waiting_time()
    );
    // The run should still learn something despite the disturbance.
    assert!(dssp.best_accuracy() > 0.3);
}

#[test]
fn a_permanently_degraded_worker_does_not_stall_asp_or_dssp() {
    let cluster = ClusterSpec::homogeneous(
        3,
        WorkerSpec::single(DeviceProfile::gtx1060()),
        LinkProfile::ethernet_10g(),
    )
    .with_slowdown(SlowdownEvent {
        worker: 0,
        start_s: 0.0,
        duration_s: f64::MAX,
        factor: 8.0,
    });
    for policy in [PolicyKind::Asp, PolicyKind::Dssp { s_l: 3, r_max: 12 }] {
        let trace = ExperimentBuilder::small_mlp()
            .cluster(cluster.clone())
            .policy(policy)
            .epochs(2)
            .run();
        assert!(trace.total_pushes > 0);
        let healthy_iters: u64 = trace
            .worker_summaries
            .iter()
            .filter(|w| w.worker != 0)
            .map(|w| w.iterations)
            .sum();
        assert!(
            healthy_iters > 0,
            "{}: healthy workers made no progress",
            trace.policy
        );
    }
}

/// A worker that dies with its `OK` read and the weights behind it unread — the server
/// may be anywhere in writing them — is reaped like any other lost client: the BSP
/// round it was part of is not left waiting on it, and the survivor finishes alone.
#[test]
fn a_worker_killed_between_its_ok_and_the_weights_is_evicted_and_the_run_finishes() {
    let mut job = JobConfig::small(PolicyKind::Bsp);
    job.epochs = 1;
    job.shards = 4;
    let mut server = TcpServerTransport::bind("127.0.0.1:0", job.num_workers).expect("bind");
    let addr = server.local_addr().to_string();

    let survivor_job = job.clone();
    let survivor_addr = addr.clone();
    let survivor = std::thread::spawn(move || {
        let mut t = TcpWorkerTransport::connect(&survivor_addr).expect("connect");
        run_worker(&survivor_job, 0, &mut t).expect("survivor runs")
    });

    let victim_job = job.clone();
    let victim = std::thread::spawn(move || {
        let mut t = TcpWorkerTransport::connect(&addr).expect("connect");
        t.send(&Message::Hello {
            version: PROTOCOL_VERSION,
            rank: 1,
            num_workers: victim_job.num_workers as u32,
            config_digest: victim_job.stable_digest(),
        })
        .expect("hello");
        t.send(&Message::JoinRequest).expect("join request");
        assert!(matches!(
            t.recv().expect("join ack"),
            Message::JoinAck { .. }
        ));
        t.send(&Message::Pull { trace: 0 }).expect("pull");
        let (mut weights, mut versions) = (Vec::new(), Vec::new());
        assert!(matches!(
            t.recv_pull_apply(&mut weights, &mut versions)
                .expect("opening weights"),
            PullOutcome::Applied(_)
        ));
        t.send_push(1, 0, &vec![0.0; weights.len()]).expect("push");
        // BSP holds this `OK` until the survivor's first push is in as well.
        assert!(matches!(
            t.recv().expect("the OK"),
            Message::PushReply { .. }
        ));
        // Killed here: the weights frame is on its way, or about to be, and is never
        // read. The dropped socket is all the server gets to know.
    });

    let trace = serve(&job, &mut server).expect("the run finishes without the victim");
    victim.join().expect("victim thread");
    let report = survivor.join().expect("survivor thread");

    let target = WorkerStep::for_rank(&job, 0).target();
    assert_eq!(
        report.iterations, target,
        "the survivor ran its whole shard"
    );
    assert!(!report.shutdown_early);
    assert_eq!(trace.worker_summaries[1].iterations, 1);
    assert_eq!(trace.total_pushes, target + 1);
}
