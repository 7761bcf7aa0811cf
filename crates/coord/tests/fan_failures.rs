//! `ShardFan`'s failure policy, driven deterministically: each kind of round
//! (`push_and_pull`, `push_slices` and `pull_group`) against two scripted shard
//! servers that freeze and roll back, commit a new layout mid-round, drop a link, or
//! tear a push round. A stub is a plain TCP listener that checks every frame the fan
//! sends and writes the answers its script calls for.

use dssp_coord::{connect_links, FanOutcome, ShardFan};
use dssp_core::driver::JobConfig;
use dssp_net::wire::{self, Message, ShardUpdate, PROTOCOL_VERSION};
use dssp_net::NetError;
use dssp_ps::PolicyKind;
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

/// Eight parameters in four shards of two. Server 0 owns shards 0 and 1, server 1
/// shards 2 and 3.
const PARAMS: usize = 8;

/// Each server's shard span under the opening layout (epoch 0).
const OPENING: [(usize, usize); 2] = [(0, 2), (2, 4)];

/// The layout the group commits mid-round as epoch 1: server 1 takes shard 1 over.
const COMMITTED: [u32; 4] = [0, 1, 1, 1];

/// Each server's shard span under [`COMMITTED`].
const RE_LAID: [(usize, usize); 2] = [(0, 1), (1, 4)];

/// The version a stub reports for every shard it ships.
const VERSION: u64 = 7;

/// One worker, two servers of two shards each.
fn job() -> JobConfig {
    let mut job = JobConfig::small(PolicyKind::Asp);
    job.num_workers = 1;
    job.shards = 4;
    job.servers = 2;
    job
}

/// The weights a stub ships for shard `s`.
fn shard_weights(s: usize) -> Vec<f32> {
    vec![s as f32 + 0.5; 2]
}

/// A frozen server's refusal: the migration's epoch, the layout withheld.
fn frozen() -> Message {
    Message::EpochRefused {
        epoch: 1,
        assignment: Vec::new(),
    }
}

/// A committed server's refusal: the layout to re-route by.
fn committed() -> Message {
    Message::EpochRefused {
        epoch: 1,
        assignment: COMMITTED.to_vec(),
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    PushAndPull,
    PushSlices,
    PullGroup,
}

const KINDS: [Kind; 3] = [Kind::PushAndPull, Kind::PushSlices, Kind::PullGroup];

/// A scripted shard server's end of one link.
struct Stub {
    index: u32,
    listener: TcpListener,
    conn: Option<TcpStream>,
    scratch: Vec<u8>,
}

impl Stub {
    /// Accepts the fan's next connection and checks its handshake.
    fn accept(&mut self) {
        let (stream, _) = self.listener.accept().unwrap();
        self.conn = Some(stream);
        match self.recv() {
            Message::GroupHello {
                version,
                rank,
                server_index,
                ..
            } => assert_eq!(
                (version, rank, server_index),
                (PROTOCOL_VERSION, 0, self.index)
            ),
            other => panic!("server {} expected a GroupHello, got {other:?}", self.index),
        }
    }

    fn recv(&mut self) -> Message {
        let mut payload = Vec::new();
        wire::FrameBody::begin(self.conn.as_mut().unwrap())
            .and_then(|body| body.buffer(&mut payload))
            .unwrap();
        wire::decode(&payload).unwrap()
    }

    fn send(&mut self, msg: &Message) {
        wire::write_frame(self.conn.as_mut().unwrap(), msg, &mut self.scratch).unwrap();
    }

    /// Closes the link the way a crashed server does.
    fn drop_link(&mut self) {
        self.conn = None;
    }

    /// Reads the next request and checks it is `kind`'s, for the shards `lo..hi`
    /// under `epoch`.
    fn request(&mut self, kind: Kind, epoch: u64, (lo, hi): (usize, usize)) -> Message {
        let msg = self.recv();
        match (&msg, kind) {
            (
                Message::PushSlice {
                    epoch: stamped,
                    pull,
                    grads,
                    ..
                },
                Kind::PushAndPull | Kind::PushSlices,
            ) => assert_eq!(
                (*stamped, *pull, grads.len()),
                (epoch, kind == Kind::PushAndPull, 2 * (hi - lo)),
                "server {}'s slice",
                self.index
            ),
            (
                Message::PullShards {
                    epoch: stamped,
                    known_versions,
                    ..
                },
                Kind::PullGroup,
            ) => assert_eq!(
                (*stamped, known_versions.len()),
                (epoch, hi - lo),
                "server {}'s pull",
                self.index
            ),
            _ => panic!(
                "server {} expected a {kind:?} request, got {msg:?}",
                self.index
            ),
        }
        msg
    }

    /// Answers `request` as a healthy server owning the shards `lo..hi` does.
    fn answer(&mut self, request: &Message, (lo, hi): (usize, usize)) {
        let shards = Message::PullReplyDelta {
            clock: VERSION,
            updates: (lo..hi)
                .map(|s| ShardUpdate {
                    shard: s as u32,
                    version: VERSION,
                    weights: shard_weights(s),
                })
                .collect(),
        };
        match *request {
            Message::PushSlice {
                iteration,
                pull: false,
                ..
            } => self.send(&Message::SliceAck { version: iteration }),
            Message::PushSlice { iteration, .. } => {
                self.send(&Message::SliceApplied {
                    version: iteration,
                    applied: vec![iteration],
                });
                self.send(&shards);
            }
            _ => self.send(&shards),
        }
    }

    /// Reads one request for `span` under `epoch` and answers it.
    fn serve(&mut self, kind: Kind, epoch: u64, span: (usize, usize)) {
        let request = self.request(kind, epoch, span);
        self.answer(&request, span);
    }

    /// Serves the next pull, which must ask for every shard in `span`.
    fn serve_whole_pull(&mut self, span: (usize, usize)) {
        let request = self.request(Kind::PullGroup, 0, span);
        assert!(
            matches!(request, Message::PullShards { all: true, .. }),
            "server {} was asked for a delta: {request:?}",
            self.index
        );
        self.answer(&request, span);
    }
}

type Script = Box<dyn FnOnce(&mut Stub) + Send>;

/// Starts one stub per script (server `i` runs `scripts[i]` once it has accepted
/// the fan's handshake) and a fan over them that has said hello.
fn group(scripts: [Script; 2]) -> (ShardFan, Vec<JoinHandle<()>>) {
    let job = job();
    let mut addrs = Vec::new();
    let mut stubs = Vec::new();
    for (index, script) in scripts.into_iter().enumerate() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        addrs.push(listener.local_addr().unwrap().to_string());
        let mut stub = Stub {
            index: index as u32,
            listener,
            conn: None,
            scratch: Vec::new(),
        };
        stubs.push(std::thread::spawn(move || {
            stub.accept();
            script(&mut stub);
        }));
    }
    let links = connect_links(&addrs, Some(Duration::from_secs(10))).unwrap();
    let mut fan = ShardFan::new(&job, PARAMS, links);
    fan.hello(&job, 0).unwrap();
    (fan, stubs)
}

/// Closes the fan's links and waits for every stub's script to finish.
fn finish(fan: ShardFan, stubs: Vec<JoinHandle<()>>) {
    drop(fan);
    for stub in stubs {
        stub.join().unwrap();
    }
}

/// One round of `kind` at `iteration`.
fn run(
    fan: &mut ShardFan,
    kind: Kind,
    iteration: u64,
    weights: &mut Vec<f32>,
    versions: &mut Vec<u64>,
) -> Result<FanOutcome, NetError> {
    let grads = vec![0.25f32; PARAMS];
    match kind {
        Kind::PushAndPull => fan.push_and_pull(iteration, 9, &grads, weights, versions, &mut || {}),
        Kind::PushSlices => fan.push_slices(iteration, 9, &grads),
        Kind::PullGroup => fan.pull_group(true, 9, weights, versions),
    }
}

/// After a round of `kind` that fetched, every shard's weights and version are the
/// stubs'.
fn check_fetched(kind: Kind, weights: &[f32], versions: &[u64]) {
    if kind != Kind::PushSlices {
        let expected: Vec<f32> = (0..4).flat_map(shard_weights).collect();
        assert_eq!(weights, expected, "{kind:?}");
        assert_eq!(versions, [VERSION; 4], "{kind:?}");
    }
}

#[test]
fn a_frozen_server_is_probed_until_its_migration_rolls_back() {
    for kind in KINDS {
        let (mut fan, stubs) = group([
            Box::new(move |s| s.serve(kind, 0, OPENING[0])),
            Box::new(move |s| {
                // Twice frozen, then rolled back: the same request is answered.
                for _ in 0..2 {
                    s.request(kind, 0, OPENING[1]);
                    s.send(&frozen());
                }
                s.serve(kind, 0, OPENING[1]);
            }),
        ]);
        let (mut weights, mut versions) = (Vec::new(), Vec::new());
        let outcome = run(&mut fan, kind, 1, &mut weights, &mut versions).unwrap();
        assert_eq!(outcome, FanOutcome::Applied, "{kind:?}");
        assert_eq!(
            fan.layout().epoch(),
            0,
            "{kind:?}: a rollback keeps the layout"
        );
        assert_eq!(fan.reconnects, 0, "{kind:?}");
        check_fetched(kind, &weights, &versions);
        if kind == Kind::PushAndPull {
            assert!(
                fan.keeps_weights(&[1]),
                "the probed round's weights are whole"
            );
        }
        finish(fan, stubs);
    }
}

#[test]
fn a_layout_committed_mid_round_is_adopted_and_the_round_re_routed() {
    for kind in KINDS {
        // Both servers committed before the round reached them: a push round is
        // re-sliced whole, a pull round re-requested link by link.
        let script = move |i: usize| -> Script {
            Box::new(move |s| {
                s.request(kind, 0, OPENING[i]);
                s.send(&committed());
                s.serve(kind, 1, RE_LAID[i]);
            })
        };
        let (mut fan, stubs) = group([script(0), script(1)]);
        let (mut weights, mut versions) = (Vec::new(), Vec::new());
        let outcome = run(&mut fan, kind, 1, &mut weights, &mut versions).unwrap();
        assert_eq!(outcome, FanOutcome::Applied, "{kind:?}");
        assert_eq!(fan.layout().epoch(), 1, "{kind:?}");
        assert_eq!(fan.layout().assignment(), COMMITTED, "{kind:?}");
        check_fetched(kind, &weights, &versions);
        finish(fan, stubs);
    }
}

#[test]
fn a_lost_link_is_re_dialed_and_the_next_pull_asks_for_every_shard() {
    for kind in KINDS {
        let (mut fan, stubs) = group([
            Box::new(move |s| {
                s.serve(Kind::PullGroup, 0, OPENING[0]);
                s.serve(kind, 0, OPENING[0]);
                s.serve_whole_pull(OPENING[0]);
            }),
            Box::new(move |s| {
                s.serve(Kind::PullGroup, 0, OPENING[1]);
                // The server dies holding the request; its successor gets the
                // handshake again, then the request.
                s.request(kind, 0, OPENING[1]);
                s.drop_link();
                s.accept();
                s.serve(kind, 0, OPENING[1]);
                s.serve_whole_pull(OPENING[1]);
            }),
        ]);
        let (mut weights, mut versions) = (Vec::new(), Vec::new());
        // A first pull warms the version cache, so a whole pull later is the loss's.
        let opening = fan.pull_group(true, 9, &mut weights, &mut versions);
        assert_eq!(opening.unwrap(), FanOutcome::Applied);
        let outcome = run(&mut fan, kind, 1, &mut weights, &mut versions).unwrap();
        assert_eq!(outcome, FanOutcome::Applied, "{kind:?}");
        assert_eq!(fan.reconnects, 1, "{kind:?}");
        assert!(
            !fan.keeps_weights(&[0]),
            "{kind:?}: a round that re-dialed leaves nothing to keep"
        );
        let next = fan.pull_group(true, 9, &mut weights, &mut versions);
        assert_eq!(next.unwrap(), FanOutcome::Applied, "{kind:?}");
        check_fetched(Kind::PullGroup, &weights, &versions);
        finish(fan, stubs);
    }
}

#[test]
fn a_commit_behind_an_applied_slice_tears_a_push_round_but_re_routes_a_pull() {
    for kind in KINDS {
        let (mut fan, stubs) = group([
            Box::new(move |s| s.serve(kind, 0, OPENING[0])),
            Box::new(move |s| {
                s.request(kind, 0, OPENING[1]);
                s.send(&committed());
                if kind == Kind::PullGroup {
                    s.serve(kind, 1, RE_LAID[1]);
                }
            }),
        ]);
        let (mut weights, mut versions) = (Vec::new(), Vec::new());
        let outcome = run(&mut fan, kind, 3, &mut weights, &mut versions);
        if kind == Kind::PullGroup {
            // Pull replies carry global shard indices: what server 0 shipped under
            // the retired layout stays valid, server 1 ships its new span.
            assert_eq!(outcome.unwrap(), FanOutcome::Applied);
            assert_eq!(fan.layout().epoch(), 1);
            check_fetched(kind, &weights, &versions);
        } else {
            match outcome {
                Err(NetError::Protocol(msg)) => assert!(msg.contains("torn"), "{kind:?}: {msg}"),
                other => panic!("{kind:?}: expected the torn-round refusal, got {other:?}"),
            }
        }
        finish(fan, stubs);
    }
}
