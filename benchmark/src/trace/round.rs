//! The hand-driven round: one thread plays both workers and the server, calling each
//! layer's public function in the order a networked round does, one span per call
//! under a `round` span.
//!
//! Two kinds of call share the round. Six are the round's *critical path* — what a
//! worker on the TCP substrate waits for, in order: compute the gradient, encode the
//! push, decode it, handle it on the server, encode the pull reply, apply it. Their
//! sum is `round.handdriven_us`. The rest break `core.server_handle_us` down on
//! stand-alone instances fed the same gradients (`ParameterServer`, `SyncGate`,
//! `SyncController`), or are storage-level pulls the TCP path bypasses; they are
//! reported, not summed.

use super::Probe;
use crate::alloc::allocations;
use crate::spans::Recorder;
use crate::stats::median;
use dssp_core::driver::{JobConfig, ServerLoop, WorkerStep};
use dssp_core::events::NO_TRACE;
use dssp_net::{wire, PullView};
use dssp_nn::{Model, Sgd};
use dssp_ps::{
    IntervalTracker, ParameterServer, PolicyKind, ServerConfig, SyncController, SyncGate,
};

/// Span names of the critical path, in call order.
const CRITICAL_PATH: [&str; 6] = [
    "core.worker_step",
    "net.wire.encode_push",
    "net.wire.decode_push",
    "core.server_handle",
    "net.wire.encode_pull_reply",
    "net.wire.apply_pull_reply",
];

/// Span names measured beside the critical path.
const BREAKDOWN: [&str; 5] = [
    "ps.push_apply",
    "ps.gate_on_push",
    "ps.controller_decide",
    "ps.pull_full",
    "ps.pull_delta",
];

/// One worker's buffers, as `dssp_net::run_worker` keeps them.
struct WorkerSide {
    step: WorkerStep,
    weights: Vec<f32>,
    versions: Vec<u64>,
    grads: Vec<f32>,
}

/// Allocations seen inside two of the round's calls.
#[derive(Default)]
struct AllocTally {
    rounds: u64,
    step: u64,
    push_apply: u64,
}

/// Everything one hand-driven round touches.
struct Stage {
    workers: Vec<WorkerSide>,
    server: ServerLoop,
    // Stand-alone instances for the breakdown spans.
    ps: ParameterServer,
    gate: SyncGate,
    controller: SyncController,
    intervals: IntervalTracker,
    // Reused buffers, as the TCP transport and server keep them.
    push_frame: Vec<u8>,
    decoded_grads: Vec<f32>,
    replies: Vec<dssp_core::driver::OkReply>,
    released: Vec<usize>,
    reply_frame: Vec<u8>,
    pulled: Vec<f32>,
    known: Vec<u64>,
    delta_meta: Vec<(u32, u64)>,
    delta_weights: Vec<f32>,
    rounds: u64,
    tally: AllocTally,
    refused: u64,
}

impl Stage {
    fn new(job: &JobConfig) -> Self {
        let dataset = job.data.generate(job.seed);
        let server = ServerLoop::with_dataset(job, &dataset);
        let workers = dataset
            .shard_train(job.num_workers)
            .into_iter()
            .enumerate()
            .map(|(rank, shard)| WorkerSide {
                step: WorkerStep::with_shard(job, rank, shard),
                weights: Vec::new(),
                versions: Vec::new(),
                grads: Vec::new(),
            })
            .collect();
        let initial = job.model.build(job.seed).params_flat();
        let r_max = match job.policy {
            PolicyKind::Dssp { r_max, .. } | PolicyKind::DsspStrict { r_max, .. } => r_max,
            _ => 0,
        };
        let mut stage = Self {
            workers,
            server,
            ps: ParameterServer::new(
                initial.clone(),
                Sgd::new(job.sgd.clone(), initial.len()),
                ServerConfig::new(job.num_workers, job.policy).with_shards(job.shards),
            ),
            gate: SyncGate::new(job.num_workers, job.policy),
            controller: SyncController::new(job.num_workers, r_max),
            intervals: IntervalTracker::new(job.num_workers),
            push_frame: Vec::new(),
            decoded_grads: Vec::new(),
            replies: Vec::new(),
            released: Vec::new(),
            reply_frame: Vec::new(),
            pulled: Vec::new(),
            known: Vec::new(),
            delta_meta: Vec::new(),
            delta_weights: Vec::new(),
            rounds: 0,
            tally: AllocTally::default(),
            refused: 0,
        };
        // Every worker's first pull, as in `run_worker`: its version cache is empty,
        // so the reply is a full one.
        let mut unrecorded = Recorder::new();
        for rank in 0..stage.workers.len() {
            stage.pull(rank, &mut unrecorded);
        }
        stage
    }

    /// Encodes a pull reply for `rank` from the server's store and applies it to the
    /// worker's buffers, one span each.
    fn pull(&mut self, rank: usize, rec: &mut Recorder) {
        let worker = &mut self.workers[rank];
        let store = self.server.server().store();
        let view = PullView {
            clock: self.server.version(),
            versions: store.versions(),
            offsets: store.offsets(),
            weights: store.as_flat(),
            known: Some(&worker.versions),
        };
        rec.span("net.wire.encode_pull_reply", || {
            self.reply_frame.clear();
            view.encode(&mut self.reply_frame);
        });
        rec.span("net.wire.apply_pull_reply", || {
            wire::apply_pull_reply(&self.reply_frame, &mut worker.weights, &mut worker.versions)
        })
        .expect("a reply encoded from the store applies to the worker's cache");
    }

    /// One round of worker `rounds % workers`.
    fn round(&mut self, rec: &mut Recorder) {
        let rank = (self.rounds % self.workers.len() as u64) as usize;
        self.rounds += 1;
        let iteration = self.workers[rank].step.completed() + 1;
        // The policy clock: workers alternate a millisecond apart.
        let now = self.rounds as f64 * 1e-3;
        let round = rec.enter("round");

        let worker = &mut self.workers[rank];
        rec.span("core.worker_step", || {
            let before = allocations();
            worker
                .step
                .compute_gradient_into(&worker.weights, &mut worker.grads);
            self.tally.step += allocations() - before;
        });
        rec.span("net.wire.encode_push", || {
            self.push_frame.clear();
            wire::encode_push(&mut self.push_frame, iteration, NO_TRACE, &worker.grads);
        });
        rec.span("net.wire.decode_push", || {
            wire::decode_push_into(&self.push_frame, &mut self.decoded_grads)
        })
        .expect("a frame encoded a line above decodes");
        let decision = rec.span("core.server_handle", || {
            self.replies.clear();
            self.server
                .handle_push_slice(rank, &self.decoded_grads, now, &mut self.replies)
        });
        // Workers alternate, so nobody leads by more than one push and every push is
        // granted at once.
        if !decision.ok_now || !self.replies.iter().any(|r| r.worker == rank) {
            self.refused += 1;
        }

        rec.span("ps.push_apply", || {
            let before = allocations();
            self.released.clear();
            self.ps
                .handle_push_into(rank, &self.decoded_grads, now, &mut self.released);
            self.tally.push_apply += allocations() - before;
        });
        rec.span("ps.gate_on_push", || {
            self.released.clear();
            self.gate.on_push(rank, now, &mut self.released)
        });
        self.intervals.record_push(rank, now);
        let other = (rank + 1) % self.workers.len();
        rec.span("ps.controller_decide", || {
            std::hint::black_box(self.controller.decide(rank, other, &self.intervals));
        });
        rec.span("ps.pull_full", || self.ps.pull_into(&mut self.pulled));
        // A client that has everything except the newest version of shard 0.
        self.known.clear();
        self.known.extend_from_slice(self.ps.shard_versions());
        self.known[0] -= 1;
        rec.span("ps.pull_delta", || {
            self.ps
                .pull_delta_into(&self.known, &mut self.delta_meta, &mut self.delta_weights)
        });

        self.pull(rank, rec);
        rec.exit(round);
        self.tally.rounds += 1;
    }
}

/// Plays the hand-driven round at `job`'s shape, appends its metrics, and returns
/// `round.handdriven_us`.
pub fn measure(
    probe: &mut Probe,
    job: &JobConfig,
    metrics: &mut Vec<(&'static str, f64)>,
) -> Result<f64, String> {
    let mut stage = Stage::new(job);
    // Two unrecorded rounds per worker let every reused buffer reach its final size,
    // so the allocation tally below covers steady-state rounds only.
    let mut unrecorded = Recorder::new();
    for _ in 0..2 * stage.workers.len() {
        stage.round(&mut unrecorded);
    }
    stage.tally = AllocTally::default();
    let names: Vec<&'static str> = CRITICAL_PATH.iter().chain(&BREAKDOWN).copied().collect();
    let ns = probe.time_round(&names, |rec| stage.round(rec));
    let ns_of = |name: &str| ns[names.iter().position(|n| *n == name).expect("listed above")];

    // The stage must have been a faithful round: every push granted, the worker that
    // pulled last holding the server's weights bit for bit, and the stand-alone
    // parameter server having applied the same updates as the one in the loop.
    if stage.refused > 0 {
        return Err(format!(
            "{} hand-driven pushes were not granted at once",
            stage.refused
        ));
    }
    let served = stage.server.server().weights();
    let last = ((stage.rounds - 1) % stage.workers.len() as u64) as usize;
    let bits = |w: &[f32]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    if bits(&stage.workers[last].weights) != bits(served) {
        return Err("the pulled weights differ from the server's".into());
    }
    if bits(stage.ps.weights()) != bits(served) {
        return Err("the stand-alone parameter server diverged from the server loop's".into());
    }
    if served.iter().any(|w| !w.is_finite()) {
        return Err("the hand-driven rounds produced non-finite weights".into());
    }

    for (metric, span) in [
        ("core.worker_step_us", "core.worker_step"),
        ("net.wire.encode_push_us", "net.wire.encode_push"),
        ("net.wire.decode_push_us", "net.wire.decode_push"),
        ("core.server_handle_us", "core.server_handle"),
        ("ps.push_apply_us", "ps.push_apply"),
        ("ps.pull_full_us", "ps.pull_full"),
        ("ps.pull_delta_us", "ps.pull_delta"),
        (
            "net.wire.encode_pull_reply_us",
            "net.wire.encode_pull_reply",
        ),
        ("net.wire.apply_pull_reply_us", "net.wire.apply_pull_reply"),
    ] {
        metrics.push((metric, ns_of(span) / 1e3));
    }
    metrics.push(("ps.gate_on_push_ns", ns_of("ps.gate_on_push")));
    metrics.push(("ps.controller_decide_ns", ns_of("ps.controller_decide")));
    let handdriven_us = CRITICAL_PATH.iter().map(|n| ns_of(n)).sum::<f64>() / 1e3;
    metrics.push(("round.handdriven_us", handdriven_us));
    // What a round spends outside every call span: the stage's bookkeeping between
    // calls and the recorder itself. It bounds what the spans leave out.
    let rounds: Vec<f64> = (0..probe.rec.spans().len())
        .filter(|&i| probe.rec.spans()[i].name == "round")
        .map(|i| probe.rec.self_time_ns(i) as f64)
        .collect();
    metrics.push(("round.self_us", median(&rounds) / 1e3));

    // Exact counts.
    let rounds = stage.tally.rounds as f64;
    metrics.push(("nn.step_allocs", stage.tally.step as f64 / rounds));
    metrics.push(("ps.push_allocs", stage.tally.push_apply as f64 / rounds));
    // Frame sizes as they cross the socket: payload plus the 4-byte length prefix.
    // In training every push advances every shard, so the reply carries them all.
    metrics.push((
        "net.wire.push_frame_bytes",
        (stage.push_frame.len() + 4) as f64,
    ));
    metrics.push((
        "net.wire.pull_reply_bytes",
        (stage.reply_frame.len() + 4) as f64,
    ));
    Ok(handdriven_us)
}
