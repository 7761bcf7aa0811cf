//! The fused group round at its two ends: what a real shard server writes for each
//! kind of push slice, byte for byte against the buffered encoders; a worker fan's
//! warm pulling round against two real shard servers, which allocates nothing on the
//! fan's thread; and the order a real group worker's round puts its frames in,
//! against scripted servers.

use dssp_coord::{
    connect_links, initial_params, run_group_worker, serve_shard, FanOutcome, GroupLayout,
    ShardFan, ShardServerState,
};
use dssp_core::driver::JobConfig;
use dssp_net::wire::{self, Message, ShardUpdate, PROTOCOL_VERSION, SHUTDOWN_OK};
use dssp_net::{TcpServerTransport, TcpWorkerTransport, WorkerTransport};
use dssp_ps::PolicyKind;
use dssp_sim::DataSpec;
use dssp_testalloc::{thread_allocations_during, CountingAlloc};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// One worker, two shard servers of two shards each.
fn job() -> JobConfig {
    let mut job = JobConfig::small(PolicyKind::Asp);
    job.num_workers = 1;
    job.shards = 4;
    job.servers = 2;
    job
}

/// Starts shard server `index` of `job` on a thread; returns its address.
fn start_server(job: &JobConfig, index: usize) -> (String, JoinHandle<()>) {
    let mut transport = TcpServerTransport::bind("127.0.0.1:0", job.num_workers + 1).unwrap();
    let addr = transport.local_addr().to_string();
    let job = job.clone();
    let handle = std::thread::spawn(move || {
        serve_shard(&job, index, &mut transport).expect("shard server exits cleanly");
    });
    (addr, handle)
}

fn group_hello(job: &JobConfig, rank: usize, server_index: u32) -> Message {
    Message::GroupHello {
        version: PROTOCOL_VERSION,
        rank: rank as u32,
        num_workers: job.num_workers as u32,
        config_digest: job.stable_digest(),
        servers: job.servers as u32,
        server_index,
    }
}

/// A worker end that sees the raw frames.
struct RawClient {
    stream: TcpStream,
    scratch: Vec<u8>,
}

impl RawClient {
    fn send(&mut self, msg: &Message) {
        wire::write_frame(&mut self.stream, msg, &mut self.scratch).unwrap();
    }

    /// The next frame's payload.
    fn frame(&mut self) -> Vec<u8> {
        let mut payload = Vec::new();
        wire::FrameBody::begin(&mut self.stream)
            .and_then(|body| body.buffer(&mut payload))
            .unwrap();
        payload
    }

    fn push(&mut self, iteration: u64, epoch: u64, pull: bool, grads: &[f32]) {
        self.send(&Message::PushSlice {
            iteration,
            epoch,
            trace: 7,
            pull,
            grads: grads.to_vec(),
        });
    }
}

fn encoded(msg: &Message) -> Vec<u8> {
    let mut buf = Vec::new();
    wire::encode(msg, &mut buf);
    buf
}

#[test]
fn a_shard_server_answers_each_kind_of_slice_with_exactly_its_frames() {
    let job = job();
    // Server 1 owns global shards 2 and 3: the reply's indices must be global.
    let (addr, server) = start_server(&job, 1);
    let mut worker = RawClient {
        stream: TcpStream::connect(&addr).unwrap(),
        scratch: Vec::new(),
    };
    worker.send(&group_hello(&job, 0, 1));
    let mut coord = TcpWorkerTransport::connect(&addr).unwrap();
    coord.send(&group_hello(&job, job.num_workers, 1)).unwrap();

    // The same slices applied to a reference copy of the server's state.
    let mut reference = ShardServerState::from_job(&job, 1);
    let grads: Vec<f32> = (0..reference.slice_len())
        .map(|i| (i as f32 * 0.3).sin())
        .collect();

    // A plain slice — what the final push and the ledger's stubs speak: the ack alone.
    worker.push(1, 0, false, &grads);
    reference.apply_slice(&grads);
    assert_eq!(worker.frame(), encoded(&Message::SliceAck { version: 1 }));

    // A pulling slice: the new ack, then every owned shard under its global index.
    worker.push(2, 0, true, &grads);
    reference.apply_slice(&grads);
    let mut ack = Vec::new();
    wire::encode_slice_applied(&mut ack, 2, &[2]);
    assert_eq!(worker.frame(), ack);
    let layout = reference.layout().clone();
    let offsets = layout.local_offsets(1);
    let (first, _) = layout.shard_span(1);
    assert_eq!(first, 2);
    let mut shards = Vec::new();
    wire::encode_pull_reply_delta(
        &mut shards,
        2,
        (0..2).map(|i| {
            let weights = &reference.weights()[offsets[i]..offsets[i + 1]];
            ((first + i) as u32, 2u64, weights)
        }),
    );
    let reply = worker.frame();
    assert_eq!(reply, shards);
    match wire::decode(&reply).unwrap() {
        Message::PullReplyDelta { updates, .. } => {
            let indices: Vec<u32> = updates.iter().map(|u| u.shard).collect();
            assert_eq!(indices, [2, 3]);
        }
        other => panic!("expected the shards, got {other:?}"),
    }

    // Frozen mid-migration: the refusal comes alone. The next frame answers the next
    // request, once the freeze is rolled back.
    coord.send(&Message::MigratePrepare { epoch: 1 }).unwrap();
    assert!(matches!(coord.recv().unwrap(), Message::MigrateAck { .. }));
    worker.push(3, 0, true, &grads);
    let refused = Message::EpochRefused {
        epoch: 1,
        assignment: Vec::new(),
    };
    assert_eq!(worker.frame(), encoded(&refused));
    coord.send(&Message::MigrateAbort { epoch: 1 }).unwrap();
    coord.send(&Message::StatsRequest).unwrap();
    assert!(matches!(coord.recv().unwrap(), Message::StatsReply { .. }));
    worker.push(3, 0, false, &grads);
    assert_eq!(worker.frame(), encoded(&Message::SliceAck { version: 3 }));

    // Routed by a layout the server does not serve: the refusal alone, too.
    worker.push(4, 5, true, &grads);
    let refused = Message::EpochRefused {
        epoch: 0,
        assignment: layout.assignment().to_vec(),
    };
    assert_eq!(worker.frame(), encoded(&refused));
    worker.push(4, 0, false, &grads);
    assert_eq!(worker.frame(), encoded(&Message::SliceAck { version: 4 }));

    // The pulling slice was one served pull, counted as a delta one.
    coord.send(&Message::StatsRequest).unwrap();
    match coord.recv().unwrap() {
        Message::StatsReply {
            pushes,
            pulls_full,
            pulls_delta,
            ..
        } => assert_eq!((pushes, pulls_full, pulls_delta), (4, 0, 1)),
        other => panic!("expected the stats, got {other:?}"),
    }
    coord
        .send(&Message::Shutdown {
            reason: SHUTDOWN_OK,
        })
        .unwrap();
    server.join().unwrap();
}

#[test]
fn a_warm_pulling_round_allocates_nothing_on_the_fan_thread() {
    let job = job();
    let (addrs, servers): (Vec<String>, Vec<JoinHandle<()>>) =
        (0..job.servers).map(|i| start_server(&job, i)).unzip();
    let params = initial_params(&job).len();
    let mut fan = ShardFan::new(&job, params, connect_links(&addrs, None).unwrap());
    fan.hello(&job, 0).unwrap();
    let mut coord = ShardFan::new(&job, params, connect_links(&addrs, None).unwrap());
    coord.hello(&job, job.num_workers as u32).unwrap();

    let grads = vec![1e-3f32; params];
    let (mut weights, mut versions) = (Vec::new(), Vec::new());
    fan.pull_group(true, 0, &mut weights, &mut versions)
        .unwrap();
    let mut round = |iteration: u64| {
        let outcome = fan
            .push_and_pull(
                iteration,
                0,
                &grads,
                &mut weights,
                &mut versions,
                &mut || {},
            )
            .unwrap();
        assert_eq!(outcome, FanOutcome::Applied);
        // The lone worker's own push is in what came back, and nothing later is.
        assert!(fan.keeps_weights(&[iteration]));
        assert!(!fan.keeps_weights(&[iteration + 1]));
    };
    for iteration in 1..=4 {
        round(iteration);
    }
    let allocations = thread_allocations_during(|| {
        for iteration in 5..=12 {
            round(iteration);
        }
    });
    assert_eq!(allocations, 0, "8 warm pulling rounds allocated");
    // Each server's shards are the last round's: 12 pushes on every owned shard.
    assert_eq!(versions, vec![12; job.shards]);

    coord.send_all(&Message::Shutdown {
        reason: SHUTDOWN_OK,
    });
    for server in servers {
        server.join().unwrap();
    }
}

/// How long scripted shard server 1 holds a pulling slice's shards for a `ClockPush`.
const HOLD: Duration = Duration::from_secs(2);

/// The next frame on `stream`, decoded; `None` once the peer has hung up.
fn next_message(stream: &mut TcpStream) -> Option<Message> {
    let mut payload = Vec::new();
    wire::FrameBody::begin(stream)
        .and_then(|body| body.buffer(&mut payload))
        .ok()?;
    Some(wire::decode(&payload).unwrap())
}

/// A scripted shard server `index` of `layout`: it answers the one worker's pulls and
/// slices with its shards of `params` and counts each slice ack in `acks` before it
/// writes it. With `hold`, it writes a pulling slice's ack, then holds the shards
/// until `hold` says the coordinator has read a `ClockPush`, or for [`HOLD`]; it
/// returns how many holds ran out.
fn scripted_shard_server(
    listener: TcpListener,
    index: usize,
    layout: GroupLayout,
    params: Vec<f32>,
    acks: Arc<AtomicU64>,
    hold: Option<Receiver<()>>,
) -> JoinHandle<u32> {
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut scratch = Vec::new();
        let mut send = |stream: &mut TcpStream, msg: &Message| {
            wire::write_frame(stream, msg, &mut scratch).unwrap();
        };
        let (lo, hi) = layout.shard_span(index);
        let shards = |version: u64| Message::PullReplyDelta {
            clock: version,
            updates: (lo..hi)
                .map(|s| {
                    let (start, end) = layout.shard_key_range(s);
                    ShardUpdate {
                        shard: s as u32,
                        version,
                        weights: params[start..end].to_vec(),
                    }
                })
                .collect(),
        };
        let mut ran_out = 0;
        while let Some(msg) = next_message(&mut stream) {
            match msg {
                Message::GroupHello { .. } => {}
                Message::PullShards { .. } => send(&mut stream, &shards(0)),
                Message::PushSlice {
                    iteration,
                    pull: true,
                    ..
                } => {
                    // Late, so that a `ClockPush` sent before this ack was read
                    // reaches the coordinator while the ack count is short.
                    if hold.is_some() {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    acks.fetch_add(1, Ordering::SeqCst);
                    let applied = vec![iteration];
                    let ack = Message::SliceApplied {
                        version: iteration,
                        applied,
                    };
                    send(&mut stream, &ack);
                    if let Some(hold) = &hold {
                        if hold.recv_timeout(HOLD).is_err() {
                            ran_out += 1;
                        }
                    }
                    send(&mut stream, &shards(iteration));
                }
                Message::PushSlice { iteration, .. } => {
                    acks.fetch_add(1, Ordering::SeqCst);
                    send(&mut stream, &Message::SliceAck { version: iteration });
                }
                other => panic!("shard server {index} did not expect {other:?}"),
            }
        }
        ran_out
    })
}

/// A real group worker against a scripted coordinator and two scripted shard
/// servers. Server 1 writes each pulling slice's `SliceApplied`, then holds its
/// shards until the coordinator has read the worker's `ClockPush`. Every round must
/// complete without the hold running out, and every `ClockPush` must reach the
/// coordinator after both servers acked that round's slices.
#[test]
fn a_group_worker_announces_its_push_before_the_last_servers_shards() {
    let mut job = job();
    job.epochs = 1;
    let DataSpec::Vector(data) = &mut job.data else {
        panic!("the small job trains on vectors")
    };
    // 80 examples at batch 16: five rounds, four of them pulling.
    data.train_size = 80;
    let params = initial_params(&job);
    let layout = GroupLayout::new(params.len(), job.shards, job.servers);
    let acks = Arc::new(AtomicU64::new(0));
    let (announced, heard) = mpsc::channel();

    let coord_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let coord_addr = coord_listener.local_addr().unwrap().to_string();
    let coordinator = {
        let acks = Arc::clone(&acks);
        std::thread::spawn(move || {
            let (mut stream, _) = coord_listener.accept().unwrap();
            let mut scratch = Vec::new();
            let mut announced_pushes = 0;
            loop {
                let reply = match next_message(&mut stream).expect("the worker says Done") {
                    Message::Hello { .. } => continue,
                    Message::JoinRequest => Message::JoinAck {
                        clock: 0,
                        epoch: 0,
                        assignment: Vec::new(),
                    },
                    Message::ClockPush { iteration, .. } => {
                        assert_eq!(
                            acks.load(Ordering::SeqCst),
                            2 * iteration,
                            "ClockPush {iteration} came before both servers acked it"
                        );
                        announced_pushes += 1;
                        let _ = announced.send(());
                        Message::GroupGrant {
                            granted_extra: 0,
                            version: iteration,
                            counted: vec![iteration],
                        }
                    }
                    Message::Done { .. } => {
                        let bye = Message::Shutdown {
                            reason: SHUTDOWN_OK,
                        };
                        wire::write_frame(&mut stream, &bye, &mut scratch).unwrap();
                        return announced_pushes;
                    }
                    other => panic!("the coordinator did not expect {other:?}"),
                };
                wire::write_frame(&mut stream, &reply, &mut scratch).unwrap();
            }
        })
    };
    let mut hold = Some(heard);
    let (addrs, servers): (Vec<String>, Vec<JoinHandle<u32>>) = (0..job.servers)
        .map(|index| {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let hold = if index == 1 { hold.take() } else { None };
            let params = params.clone();
            let server = scripted_shard_server(
                listener,
                index,
                layout.clone(),
                params,
                Arc::clone(&acks),
                hold,
            );
            (addr, server)
        })
        .unzip();

    let mut coord = TcpWorkerTransport::connect(&coord_addr).unwrap();
    let links = connect_links(&addrs, Some(Duration::from_secs(10))).unwrap();
    let report = run_group_worker(&job, 0, &mut coord, links).expect("the worker finishes");
    assert_eq!(report.iterations, 5);
    assert!(!report.shutdown_early);
    assert_eq!(coordinator.join().unwrap(), 5, "one ClockPush per round");
    let ran_out: Vec<u32> = servers.into_iter().map(|s| s.join().unwrap()).collect();
    assert_eq!(
        ran_out,
        [0, 0],
        "server 1 held its shards for {HOLD:?} waiting for a ClockPush"
    );
}
