//! End-to-end group runs over real localhost TCP: correctness, chaos shutdown, and
//! the timeout hardening that names a lost shard server — plus one loopback run that
//! scripts a worker dying before its grant, and the shard servers' frame accounting
//! compared across the two transports.

use dssp_coord::{
    connect_links, coordinate, initial_params, run_group_threads, run_group_worker, serve_shard,
    ServerLink, ShardServerState,
};
use dssp_core::driver::{FaultPlan, JobConfig};
use dssp_net::transport::{loopback, FrameWriter};
use dssp_net::wire::{PROTOCOL_VERSION, SHUTDOWN_SERVER_ERROR};
use dssp_net::{
    Message, NetError, ServerReplies, ServerTransport, TcpServerTransport, TcpWorkerTransport,
    TransportStats, WorkerTransport,
};
use dssp_nn::models::ModelSpec;
use dssp_ps::PolicyKind;
use dssp_sim::DataSpec;
use std::time::Duration;

fn group_job(policy: PolicyKind, servers: usize) -> JobConfig {
    let mut job = JobConfig::small(policy);
    job.shards = 4;
    job.servers = servers;
    job.epochs = 1;
    job
}

#[test]
fn two_server_group_trains_and_aggregates_stats() {
    let job = group_job(PolicyKind::Dssp { s_l: 1, r_max: 4 }, 2);
    let outcome = run_group_threads(&job).expect("group run completes");
    let trace = outcome.trace;
    assert!(trace.total_pushes > 0);
    assert_eq!(trace.workers, job.num_workers);
    // Every worker finished all of its iterations.
    let per_worker: u64 = trace.worker_summaries.iter().map(|w| w.iterations).sum();
    assert_eq!(per_worker, trace.total_pushes);
    // Per-server stats are aggregated into the trace: every push reached both
    // servers, and the slice sizes tile the model.
    assert_eq!(trace.group_servers.len(), 2);
    for gs in &trace.group_servers {
        assert_eq!(gs.pushes, trace.total_pushes, "server {}", gs.server);
        assert!(gs.bytes_sent > 0 && gs.bytes_received > 0);
        assert_eq!(gs.shards, 2);
    }
    // Workers trained on delta pulls after the initial full fan-out. The cached
    // versions come from each worker's *last* pull, which precedes its own final
    // push, so they trail the final clock by a little.
    for report in &outcome.workers {
        assert!(!report.shutdown_early);
        assert_eq!(report.full_pulls, 1);
        assert!(report.delta_pulls > 0);
        assert_eq!(report.last_shard_versions.len(), job.shards);
        for &v in &report.last_shard_versions {
            assert!(v > 0 && v <= trace.total_pushes);
        }
    }
    // The run actually learned something.
    assert!(
        trace.final_accuracy() > 0.3,
        "final accuracy {}",
        trace.final_accuracy()
    );
}

#[test]
fn group_runs_with_delta_pulls_off_use_full_fanouts() {
    let mut job = group_job(PolicyKind::Bsp, 2);
    job.delta_pulls = false;
    let outcome = run_group_threads(&job).expect("group run completes");
    for report in &outcome.workers {
        assert_eq!(report.delta_pulls, 0);
        assert!(report.full_pulls >= 1);
    }
    let (full, delta): (u64, u64) = outcome
        .trace
        .group_servers
        .iter()
        .fold((0, 0), |(f, d), gs| (f + gs.pulls_full, d + gs.pulls_delta));
    assert!(full > 0);
    assert_eq!(delta, 0);
}

#[test]
fn a_free_running_group_both_keeps_and_re_pulls_the_pushed_weights() {
    // Free-running BSP with a straggler: worker 0 pushes first and waits at the gate
    // for worker 1's push, which its weights lack, so it pulls again; worker 1 pushes
    // 5 ms later onto stores that hold worker 0's push and keeps what came back.
    let mut job = group_job(PolicyKind::Bsp, 2);
    job.extra_compute_delay_ms = vec![0, 5];
    job.eval_every_pushes = u64::MAX; // the coordinator pulls once, at the end
    let outcome = run_group_threads(&job).expect("group run completes");
    let trace = outcome.trace;
    // Every round but a rank's last fetches the weights behind its slice acks, and
    // every one of those rounds then either kept them or pulled again. Besides, each
    // server served every worker's opening pull and the closing evaluation's.
    let fetched = trace.total_pushes - job.num_workers as u64;
    for gs in &trace.group_servers {
        let served = gs.pulls_full + gs.pulls_delta;
        let re_pulls = served - fetched - job.num_workers as u64 - 1;
        let kept = fetched - re_pulls;
        assert!(re_pulls > 0, "server {}: no round pulled again", gs.server);
        assert!(kept > 0, "server {}: no round kept its weights", gs.server);
    }
    for report in &outcome.workers {
        assert!(!report.shutdown_early);
        // One pull per round: the opening one in full, every later one a delta,
        // kept or pulled again.
        assert_eq!(report.full_pulls, 1);
        assert_eq!(report.delta_pulls, report.iterations - 1);
    }
}

#[test]
fn group_server_stats_survive_a_mid_run_eviction() {
    // Worker 1 dies after its second push and is evicted; the survivors finish the
    // run. The graceful-shutdown stats snapshot must still populate the trace's
    // per-server counters — a torn link from the eviction must not strip them.
    let mut job = group_job(PolicyKind::Dssp { s_l: 1, r_max: 4 }, 2);
    job.num_workers = 3;
    job.fault_plan = Some(FaultPlan::parse("worker1:push:evict:2").expect("spec parses"));

    let mut server_addrs = Vec::new();
    let mut server_handles = Vec::new();
    for index in 0..job.servers {
        let mut transport = TcpServerTransport::bind("127.0.0.1:0", job.num_workers + 1).unwrap();
        server_addrs.push(transport.local_addr().to_string());
        let job = job.clone();
        server_handles.push(std::thread::spawn(move || {
            serve_shard(&job, index, &mut transport)
        }));
    }
    let mut coord_transport = TcpServerTransport::bind("127.0.0.1:0", job.num_workers).unwrap();
    let coord_addr = coord_transport.local_addr().to_string();
    let timeout = Some(Duration::from_millis(job.stall_timeout_ms.max(1)));
    let mut worker_handles = Vec::new();
    for rank in 0..job.num_workers {
        let job = job.clone();
        let coord_addr = coord_addr.clone();
        let server_addrs = server_addrs.clone();
        worker_handles.push(std::thread::spawn(move || {
            let mut coord = TcpWorkerTransport::connect(&coord_addr)?;
            let links = connect_links(&server_addrs, timeout)?;
            run_group_worker(&job, rank, &mut coord, links)
        }));
    }
    let links = connect_links(&server_addrs, timeout).unwrap();
    let trace = coordinate(&job, &mut coord_transport, links)
        .expect("run completes gracefully despite the eviction");
    drop(coord_transport);

    let mut outcomes = Vec::new();
    for handle in worker_handles {
        outcomes.push(handle.join().expect("worker thread"));
    }
    for handle in server_handles {
        handle
            .join()
            .expect("server thread")
            .expect("shard server exits cleanly");
    }

    // The planned fault fired on worker 1; the others finished.
    assert!(
        matches!(outcomes[1], Err(NetError::FaultInjected { .. })),
        "worker 1 should die by plan: {:?}",
        outcomes[1]
    );
    assert!(outcomes[0].is_ok() && outcomes[2].is_ok());

    // Satellite of the observability PR: the final StatsReply snapshot populated
    // the per-server rows even though a worker was evicted mid-run.
    assert_eq!(trace.group_servers.len(), 2);
    for gs in &trace.group_servers {
        assert_eq!(gs.pushes, trace.total_pushes, "server {}", gs.server);
        assert!(
            gs.bytes_sent > 0 && gs.bytes_received > 0,
            "server {}",
            gs.server
        );
    }
    assert!(trace.total_pushes > 0);
}

#[test]
fn a_worker_that_dies_before_its_grant_is_evicted_not_fatal() {
    // Worker 1 announces its first push and hangs up at once. Under BSP its grant is
    // owed only when workers 0 and 2 have pushed too, long after its end of the link
    // is gone: the loss must evict rank 1, not abort the group. (The loopback link
    // reports the dropped end as `ClientLost` right behind the push, as a socket's EOF
    // would; a failed send of the grant is the other place a loss can show.)
    let mut job = group_job(PolicyKind::Bsp, 1);
    job.num_workers = 3;
    let (mut shard_transport, mut shard_ends) = loopback(job.num_workers + 1);
    let (mut coord_transport, mut coord_ends) = loopback(job.num_workers);
    let link = |end| vec![ServerLink::new(Box::new(end), "shard server 0 (loopback)")];

    let mut dying = coord_ends.remove(1);
    dying
        .send(&Message::Hello {
            version: PROTOCOL_VERSION,
            rank: 1,
            num_workers: job.num_workers as u32,
            config_digest: job.stable_digest(),
        })
        .unwrap();
    dying
        .send(&Message::ClockPush {
            iteration: 1,
            trace: dssp_core::events::NO_TRACE,
        })
        .unwrap();
    drop(dying);

    let coord_link = link(shard_ends.pop().expect("the coordinator's end"));
    drop(shard_ends.remove(1));
    let shard_job = job.clone();
    let shard = std::thread::spawn(move || serve_shard(&shard_job, 0, &mut shard_transport));
    let workers: Vec<_> = [0usize, 2]
        .into_iter()
        .zip(coord_ends.into_iter().zip(shard_ends))
        .map(|(rank, (mut coord_end, shard_end))| {
            let job = job.clone();
            let links = link(shard_end);
            std::thread::spawn(move || run_group_worker(&job, rank, &mut coord_end, links))
        })
        .collect();

    let trace = coordinate(&job, &mut coord_transport, coord_link)
        .expect("the run finishes without the dead worker");
    let reports: Vec<_> = workers
        .into_iter()
        .map(|h| h.join().expect("worker thread").expect("survivor finishes"))
        .collect();
    shard
        .join()
        .expect("shard server thread")
        .expect("shard server exits cleanly");

    // Rank 1 was evicted at the one push it announced; the survivors ran everything.
    assert_eq!(trace.worker_summaries[1].iterations, 1);
    assert_eq!(trace.worker_summaries[1].epochs, 0);
    for report in &reports {
        assert!(!report.shutdown_early, "rank {}", report.rank);
        assert_eq!(
            report.iterations,
            trace.worker_summaries[report.rank].iterations
        );
    }
    let survivors: u64 = reports.iter().map(|r| r.iterations).sum();
    assert!(survivors > 2);
    assert_eq!(trace.total_pushes, survivors + 1);
}

/// A shard server's transport that keeps its counters as of its latest `recv`. After
/// the run they are the ones read when the coordinator's `Shutdown` arrived, before
/// the server forwards it to a worker that may already have hung up.
struct CountedAtRecv<T> {
    inner: T,
    at_recv: TransportStats,
}

impl<T: ServerTransport> ServerTransport for CountedAtRecv<T> {
    fn recv(&mut self) -> Result<(usize, Message), NetError> {
        let got = self.inner.recv();
        self.at_recv = self.inner.transport_stats();
        got
    }
}

impl<T: ServerTransport> ServerReplies for CountedAtRecv<T> {
    fn num_workers(&self) -> usize {
        self.inner.num_workers()
    }

    fn send_frame(
        &mut self,
        rank: usize,
        frames: u64,
        write: FrameWriter<'_>,
    ) -> Result<(), NetError> {
        self.inner.send_frame(rank, frames, write)
    }

    fn transport_stats(&self) -> TransportStats {
        self.inner.transport_stats()
    }

    fn recycle_f32s(&mut self, rank: usize, buf: Vec<f32>) {
        self.inner.recycle_f32s(rank, buf)
    }

    fn recycle_u64s(&mut self, rank: usize, buf: Vec<u64>) {
        self.inner.recycle_u64s(rank, buf)
    }
}

/// Runs a one-worker group over the given ends — each shard server's transport, the
/// worker's and the coordinator's links to them, the coordinator's transport and the
/// worker's end of it — and returns each shard server's counters as the run ended.
fn shard_server_counters<S: ServerTransport + 'static>(
    job: &JobConfig,
    shard_servers: Vec<S>,
    mut coord: impl ServerTransport,
    mut worker_coord: impl WorkerTransport + 'static,
    worker_links: Vec<ServerLink>,
    coord_links: Vec<ServerLink>,
) -> Vec<TransportStats> {
    let servers: Vec<_> = shard_servers
        .into_iter()
        .enumerate()
        .map(|(index, inner)| {
            let job = job.clone();
            std::thread::spawn(move || {
                let mut transport = CountedAtRecv {
                    inner,
                    at_recv: TransportStats::default(),
                };
                serve_shard(&job, index, &mut transport).expect("shard server");
                transport.at_recv
            })
        })
        .collect();
    let worker_job = job.clone();
    let worker = std::thread::spawn(move || {
        run_group_worker(&worker_job, 0, &mut worker_coord, worker_links)
    });
    coordinate(job, &mut coord, coord_links).expect("group run completes");
    worker.join().expect("worker thread").expect("worker runs");
    servers
        .into_iter()
        .map(|h| h.join().expect("shard server thread"))
        .collect()
}

/// Every shard server moves the same frames and bytes over loopback as over TCP: a
/// pulling push round's `SliceApplied` and `PullReplyDelta`, written together, count
/// as two frames on both.
#[test]
fn shard_servers_count_the_same_frames_and_bytes_on_both_transports() {
    let mut job = group_job(PolicyKind::Dssp { s_l: 1, r_max: 4 }, 2);
    (job.num_workers, job.deterministic) = (1, true);
    let slots = job.num_workers + 1;

    let shard_servers: Vec<_> = (0..job.servers)
        .map(|_| TcpServerTransport::bind("127.0.0.1:0", slots).unwrap())
        .collect();
    let addrs: Vec<_> = shard_servers
        .iter()
        .map(|t| t.local_addr().to_string())
        .collect();
    let coord = TcpServerTransport::bind("127.0.0.1:0", job.num_workers).unwrap();
    let worker_coord = TcpWorkerTransport::connect(&coord.local_addr().to_string()).unwrap();
    let links = || connect_links(&addrs, None).unwrap();
    let tcp = shard_server_counters(&job, shard_servers, coord, worker_coord, links(), links());

    let (mut shard_servers, mut worker_links, mut coord_links) =
        (Vec::new(), Vec::new(), Vec::new());
    for index in 0..job.servers {
        let (server, mut ends) = loopback(slots);
        let label = format!("shard server {index} (loopback)");
        coord_links.push(ServerLink::new(
            Box::new(ends.pop().unwrap()),
            label.clone(),
        ));
        worker_links.push(ServerLink::new(Box::new(ends.pop().unwrap()), label));
        shard_servers.push(server);
    }
    let (coord, mut coord_ends) = loopback(job.num_workers);
    let worker_coord = coord_ends.pop().unwrap();
    let over_loopback = shard_server_counters(
        &job,
        shard_servers,
        coord,
        worker_coord,
        worker_links,
        coord_links,
    );

    assert_eq!(over_loopback, tcp);
    for stats in &tcp {
        // A push in, two frames out: the server writes more frames than it reads.
        assert!(stats.frames_sent > stats.frames_received, "{stats:?}");
    }
}

#[test]
fn chaos_abort_at_group_scale_shuts_every_role_down() {
    let mut job = group_job(PolicyKind::Asp, 2);
    job.fault_plan = FaultPlan::parse("coord:push:abort:3");
    let started = std::time::Instant::now();
    let err = run_group_threads(&job).expect_err("chaos hook must abort the run");
    assert!(
        matches!(err, NetError::Aborted { pushes } if pushes >= 3),
        "unexpected error: {err}"
    );
    // run_group_threads joins every worker and shard-server thread before returning;
    // a leaked blocked worker would hang well past this bound.
    assert!(started.elapsed() < Duration::from_secs(20));
}

#[test]
fn every_serving_role_of_an_aborted_group_leaves_its_event_log() {
    use dssp_core::events::{read_dir_events, EventKind, Role};
    for (plan, role, rank) in [
        ("coord:push:abort:3", Role::Coordinator, 0),
        ("server1:push:abort:3", Role::ShardServer, 1),
    ] {
        let dir = std::env::temp_dir().join(format!(
            "dssp-group-abort-{}-{}",
            std::process::id(),
            role.as_str()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut job = group_job(PolicyKind::Asp, 2);
        job.fault_plan = FaultPlan::parse(plan);
        job.event_log = Some(dir.clone());
        run_group_threads(&job).expect_err("chaos hook must abort the run");
        for file in ["coord.ndjson", "shard-0.ndjson", "shard-1.ndjson"] {
            assert!(dir.join(file).exists(), "{plan}: no {file}");
        }
        // The aborting role recorded every push it applied, the third included.
        let applied = read_dir_events(&dir)
            .expect("event logs read back")
            .iter()
            .filter(|e| e.role == role && e.rank == rank && e.kind == EventKind::Push)
            .count();
        assert_eq!(applied, 3, "{plan}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// How every role of one group run ended.
#[derive(Debug)]
struct RoleEndings {
    coordinator: Result<dssp_sim::RunTrace, NetError>,
    servers: Vec<Result<dssp_coord::ShardServeReport, NetError>>,
    workers: Vec<Result<dssp_net::WorkerReport, NetError>>,
}

/// Runs `job` with every role on its own thread, as `run_group_threads` lays them
/// out, but keeps each role's result. Fails the test if the roles have not all
/// ended within `bound`.
fn run_every_role(job: &JobConfig, bound: Duration) -> RoleEndings {
    let job = job.clone();
    let (done, ended) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut server_addrs = Vec::new();
        let mut servers = Vec::new();
        for index in 0..job.servers {
            let mut transport =
                TcpServerTransport::bind("127.0.0.1:0", job.num_workers + 1).unwrap();
            server_addrs.push(transport.local_addr().to_string());
            let job = job.clone();
            servers.push(std::thread::spawn(move || {
                serve_shard(&job, index, &mut transport)
            }));
        }
        let mut coord_transport = TcpServerTransport::bind("127.0.0.1:0", job.num_workers).unwrap();
        let coord_addr = coord_transport.local_addr().to_string();
        let timeout = Some(Duration::from_millis(job.stall_timeout_ms));
        let workers: Vec<_> = (0..job.num_workers)
            .map(|rank| {
                let mut coord = TcpWorkerTransport::connect(&coord_addr).unwrap();
                let links = connect_links(&server_addrs, timeout).unwrap();
                let job = job.clone();
                std::thread::spawn(move || run_group_worker(&job, rank, &mut coord, links))
            })
            .collect();
        let links = connect_links(&server_addrs, timeout).unwrap();
        let coordinator = coordinate(&job, &mut coord_transport, links);
        drop(coord_transport);
        fn join<T>(handle: std::thread::JoinHandle<T>) -> T {
            handle.join().expect("no role panics")
        }
        let _ = done.send(RoleEndings {
            coordinator,
            servers: servers.into_iter().map(join).collect(),
            workers: workers.into_iter().map(join).collect(),
        });
    });
    ended
        .recv_timeout(bound)
        .unwrap_or_else(|e| panic!("the roles did not all end within {bound:?}: {e}"))
}

#[test]
fn a_shard_server_abort_ends_every_role_without_a_hang() {
    let mut job = group_job(PolicyKind::Asp, 2);
    job.fault_plan = FaultPlan::parse("server1:push:abort:3");
    // The wall-clock bound of the chaos matrix's group cells, `server0:push:evict`'s
    // among them.
    let endings = run_every_role(&job, Duration::from_secs(180));
    assert!(
        matches!(endings.servers[1], Err(NetError::Aborted { pushes }) if pushes >= 3),
        "{endings:?}"
    );
    // The aborting server's `Shutdown` reaches the workers mid-round and the
    // coordinator at its next read of that link; the coordinator's own broadcast then
    // shuts server 0 down.
    assert!(endings.coordinator.is_err(), "{endings:?}");
    for worker in &endings.workers {
        assert!(
            worker.as_ref().map_or(true, |r| r.shutdown_early),
            "{endings:?}"
        );
    }
}

/// Every group role serves on its connections' reader threads, and a shard server's
/// step writes its reply while it holds the server's lock. With `group_comm`'s
/// shape — 76,810 parameters in 8 shards over 2 shard servers — each pulling slice
/// is answered with ≈ 153 KB, more than a socket's initial buffers hold, so those
/// writes block until their worker reads. Two free-running workers of 256 rounds
/// each must still finish, within the chaos matrix's group bound.
#[test]
fn reader_thread_steps_finish_a_comm_sized_group_without_a_hang() {
    let mut job = group_job(PolicyKind::Dssp { s_l: 3, r_max: 12 }, 2);
    job.shards = 8;
    job.model = ModelSpec::Mlp {
        input_dim: 64,
        hidden: vec![1024],
        classes: 10,
    };
    let DataSpec::Vector(data) = &mut job.data else {
        panic!("the small job trains on vectors")
    };
    // 2048 examples over 2 workers at batch 4: 256 rounds per worker.
    (data.classes, data.dim, data.train_size, data.test_size) = (10, 64, 2048, 256);
    job.batch_size = 4;
    job.eval_every_pushes = u64::MAX;
    assert_eq!(initial_params(&job).len(), 76_810);
    let endings = run_every_role(&job, Duration::from_secs(180));
    let trace = endings.coordinator.expect("the coordinator finishes");
    for server in &endings.servers {
        assert!(server.is_ok(), "{server:?}");
    }
    for worker in &endings.workers {
        let report = worker.as_ref().expect("every worker finishes");
        assert!(!report.shutdown_early, "{report:?}");
        assert_eq!(report.iterations, 256, "{report:?}");
    }
    assert_eq!(trace.total_pushes, 512);
}

#[test]
fn losing_a_shard_server_names_it_instead_of_stalling() {
    // A "server" that accepts the connection and the hello, then goes silent: the
    // worker-side read timeout must fire with an error naming the shard server.
    let server = TcpServerTransport::bind("127.0.0.1:0", 2).unwrap();
    let addr = server.local_addr().to_string();
    let mut links = connect_links(
        std::slice::from_ref(&addr),
        Some(Duration::from_millis(200)),
    )
    .expect("connect");
    let link = &mut links[0];
    link.transport
        .send(&Message::GroupHello {
            version: PROTOCOL_VERSION,
            rank: 0,
            num_workers: 1,
            config_digest: 0,
            servers: 1,
            server_index: 0,
        })
        .unwrap();
    link.transport
        .send(&Message::PullShards {
            known_versions: vec![0],
            all: true,
            epoch: 0,
            trace: dssp_core::events::NO_TRACE,
        })
        .unwrap();
    let err = link
        .transport
        .recv()
        .expect_err("silent server must time out");
    match err {
        NetError::PeerTimeout { peer, timeout_ms } => {
            assert!(
                peer.contains("shard server 0"),
                "error must name the server: {peer}"
            );
            assert_eq!(timeout_ms, 200);
        }
        other => panic!("expected PeerTimeout, got {other}"),
    }
    drop(server);
}

#[test]
fn shard_server_rejects_mismatched_topology_and_digest() {
    let job = group_job(PolicyKind::Bsp, 2);
    let mut transport = TcpServerTransport::bind("127.0.0.1:0", job.num_workers + 1).unwrap();
    let addr = transport.local_addr().to_string();
    let job_for_server = job.clone();
    let handle = std::thread::spawn(move || serve_shard(&job_for_server, 0, &mut transport));
    let mut links = connect_links(&[addr], None).expect("connect");
    // Wrong server_index: the client thinks it is talking to server 1.
    links[0]
        .transport
        .send(&Message::GroupHello {
            version: PROTOCOL_VERSION,
            rank: 0,
            num_workers: job.num_workers as u32,
            config_digest: job.stable_digest(),
            servers: job.servers as u32,
            server_index: 1,
        })
        .unwrap();
    let result = handle.join().expect("server thread");
    assert!(
        matches!(result, Err(NetError::Protocol(_))),
        "mismatched topology must be refused: {result:?}"
    );
}

/// A worker slice longer than the server's key range: `serve_shard` refuses it with a
/// protocol error naming the rank, before its optimizer steps, and its `Shutdown`
/// still goes out.
#[test]
fn a_shard_server_refuses_a_slice_of_the_wrong_length() {
    let job = group_job(PolicyKind::Bsp, 2);
    let slice = ShardServerState::from_job(&job, 0).slice_len();
    let mut transport = TcpServerTransport::bind("127.0.0.1:0", job.num_workers + 1).unwrap();
    let addr = transport.local_addr().to_string();
    let job_for_server = job.clone();
    let handle = std::thread::spawn(move || serve_shard(&job_for_server, 0, &mut transport));
    let mut links = connect_links(&[addr], None).expect("connect");
    let link = &mut links[0].transport;
    link.send(&Message::GroupHello {
        version: PROTOCOL_VERSION,
        rank: 0,
        num_workers: job.num_workers as u32,
        config_digest: job.stable_digest(),
        servers: job.servers as u32,
        server_index: 0,
    })
    .unwrap();
    link.send(&Message::PushSlice {
        iteration: 1,
        epoch: 0,
        trace: 0,
        pull: false,
        grads: vec![0.0; slice + 3],
    })
    .unwrap();
    let result = handle
        .join()
        .expect("the shard server must refuse the slice, not panic");
    assert!(
        matches!(result, Err(NetError::Protocol(ref msg)) if msg.contains("worker 0")),
        "{result:?}"
    );
    assert!(matches!(
        link.recv(),
        Ok(Message::Shutdown { reason }) if reason == SHUTDOWN_SERVER_ERROR
    ));
}
