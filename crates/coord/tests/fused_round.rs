//! The fused group round at its two ends: what a real shard server writes for each
//! kind of push slice, byte for byte against the buffered encoders, and a worker
//! fan's warm pulling round against two real shard servers, which allocates nothing
//! on the fan's thread.

use dssp_coord::{
    connect_links, initial_params, serve_shard, FanOutcome, ShardFan, ShardServerState,
};
use dssp_core::driver::JobConfig;
use dssp_net::wire::{self, Message, PROTOCOL_VERSION, SHUTDOWN_OK};
use dssp_net::{TcpServerTransport, TcpWorkerTransport, WorkerTransport};
use dssp_ps::PolicyKind;
use dssp_testalloc::{thread_allocations_during, CountingAlloc};
use std::net::TcpStream;
use std::thread::JoinHandle;

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
            .push_and_pull(iteration, 0, &grads, &mut weights, &mut versions)
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
