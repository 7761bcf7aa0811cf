//! The simulation engine: configuration, the main event loop, and the lanes it hands
//! every gradient and evaluation to. The server side is the shared
//! [`ServerLoop`](crate::driver::ServerLoop); the event loop keeps what virtual time
//! needs.

use crate::driver::{JobConfig, OkReply, ServerLoop, WorkerStep};
use crate::event::{EventKind, EventQueue};
use crate::pool::{helpers_for, lock, Pool, Tasks};
use crate::trace::{RunTrace, TracePoint, WorkerSummary};
use crate::worker::{SimWorker, WorkerState};
use dssp_cluster::{ClusterSpec, TimeModel};
use dssp_data::{
    shard_sizes, Dataset, Examples, Shard, Split, SyntheticImageSpec, SyntheticVectorSpec,
};
use dssp_nn::models::ModelSpec;
use dssp_nn::{CostProfile, Evaluator, SgdConfig};
use dssp_ps::PolicyKind;
use dssp_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};

/// Which synthetic dataset a run trains on.
///
/// Every role builds only what it reads, from the same seeded streams: a worker its
/// training shard ([`DataSpec::train_shard`]), a server or coordinator the shard sizes
/// and the evaluation batch ([`DataSpec::shard_sizes`], [`DataSpec::test_batch`]). The
/// simulator and the threaded runtime read both splits in one process and generate
/// the whole dataset once ([`DataSpec::generate`]). The two splits come from
/// independent streams, so either way the examples are bit for bit the same.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DataSpec {
    /// Image tensors (`[N, 3, side, side]`) for the convolutional models.
    Image(SyntheticImageSpec),
    /// Flat feature vectors for the MLP / logistic-regression models.
    Vector(SyntheticVectorSpec),
}

impl DataSpec {
    /// Generates the dataset, both splits, with the given seed.
    pub fn generate(&self, seed: u64) -> Dataset {
        match self {
            DataSpec::Image(spec) => Dataset::generate(spec, seed),
            DataSpec::Vector(spec) => Dataset::generate_vectors(spec, seed),
        }
    }

    /// Generates one split alone.
    fn split(&self, seed: u64, split: Split) -> Examples {
        match self {
            DataSpec::Image(spec) => spec.generate_split(seed, split),
            DataSpec::Vector(spec) => spec.generate_split(seed, split),
        }
    }

    /// Worker `rank`'s shard of the training split over `workers`, generating the
    /// training split only: `generate(seed).shard_train(workers)[rank]`, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or `rank` is out of range.
    pub fn train_shard(&self, seed: u64, workers: usize, rank: usize) -> Shard {
        self.split(seed, Split::Train).into_shard(workers, rank)
    }

    /// The evaluation batch, the first `max_examples` test examples, generating the
    /// test split only: `generate(seed).test_batch(max_examples)`, bit for bit.
    pub fn test_batch(&self, seed: u64, max_examples: usize) -> (Tensor, Vec<usize>) {
        self.split(seed, Split::Test).into_batch(max_examples)
    }

    /// The example count of each worker's training shard, from the spec alone.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn shard_sizes(&self, workers: usize) -> Vec<usize> {
        let train_len = match self {
            DataSpec::Image(spec) => spec.train_size,
            DataSpec::Vector(spec) => spec.train_size,
        };
        shard_sizes(train_len, workers)
    }

    /// Number of classes in the task.
    pub fn classes(&self) -> usize {
        match self {
            DataSpec::Image(spec) => spec.classes,
            DataSpec::Vector(spec) => spec.classes,
        }
    }
}

/// Configuration of one simulated training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// The model architecture every worker replicates.
    pub model: ModelSpec,
    /// The dataset to train on.
    pub data: DataSpec,
    /// The cluster (devices, link, injected slowdowns).
    pub cluster: ClusterSpec,
    /// The synchronization paradigm.
    pub policy: PolicyKind,
    /// Mini-batch size per worker iteration.
    pub batch_size: usize,
    /// Number of passes each worker makes over its shard.
    pub epochs: usize,
    /// Server-side SGD configuration.
    pub sgd: SgdConfig,
    /// Master seed controlling weight init, data generation, shuffling and jitter.
    pub seed: u64,
    /// Evaluate test accuracy every this many applied pushes.
    pub eval_every_pushes: u64,
    /// Cap on the number of test examples used per evaluation.
    pub eval_max_examples: usize,
    /// Optional cost profile used by the cluster time model *instead of* the trained
    /// model's own cost.
    ///
    /// The reproduction trains laptop-scale stand-ins for the paper's networks; their
    /// convergence behaviour under staleness is real, but their FLOP and parameter
    /// counts are orders of magnitude below the originals, so their
    /// compute/communication ratio is not representative. Setting `cost_override` to the
    /// original architecture's cost profile (see `dssp-core::presets`) makes the
    /// *virtual time* follow the paper's models while the *learning* follows the
    /// stand-in. `None` uses the trained model's own cost.
    pub cost_override: Option<CostProfile>,
}

impl SimConfig {
    /// A small, fully specified configuration suitable for tests and doc examples;
    /// callers typically override `model`, `data`, `cluster` and `policy` via struct
    /// update syntax.
    pub fn default_small() -> Self {
        Self {
            model: ModelSpec::Mlp {
                input_dim: 16,
                hidden: vec![16],
                classes: 4,
            },
            data: DataSpec::Vector(SyntheticVectorSpec {
                classes: 4,
                dim: 16,
                train_size: 256,
                test_size: 64,
                noise_std: 0.6,
            }),
            cluster: ClusterSpec::heterogeneous_pair(),
            policy: PolicyKind::Ssp { s: 3 },
            batch_size: 16,
            epochs: 2,
            sgd: SgdConfig::default(),
            seed: 42,
            eval_every_pushes: 20,
            eval_max_examples: 256,
            cost_override: None,
        }
    }

    /// The job the shared driver runs: this run's model, data, policy and training
    /// schedule on one flat server, with no fault, persistence or observability hook.
    fn job(&self) -> JobConfig {
        JobConfig {
            model: self.model.clone(),
            data: self.data.clone(),
            num_workers: self.cluster.num_workers(),
            batch_size: self.batch_size,
            epochs: self.epochs,
            sgd: self.sgd.clone(),
            seed: self.seed,
            eval_every_pushes: self.eval_every_pushes,
            eval_max_examples: self.eval_max_examples,
            ..JobConfig::small(self.policy)
        }
    }
}

/// A discrete-event simulation of one training run.
pub struct Simulation {
    events: EventLoop,
    lanes: Lanes,
}

/// The pool lane of the evaluator.
const EVAL_LANE: usize = 0;

/// The pool lane of worker `w`'s gradients.
fn worker_lane(w: usize) -> usize {
    1 + w
}

/// The evaluator's lane: the job's evaluator and the snapshot of the server weights it
/// scores.
struct EvalLane {
    evaluator: Arc<Mutex<Evaluator>>,
    weights: Vec<f32>,
    accuracy: f32,
}

/// What `run`'s pool runs: [`EVAL_LANE`] scores its weight snapshot, lane
/// [`worker_lane`]`(w)` computes worker `w`'s gradient.
struct Lanes {
    eval: Mutex<EvalLane>,
    workers: Vec<Mutex<WorkerStep>>,
}

impl Tasks for Lanes {
    fn run(&self, lane: usize) {
        if lane == EVAL_LANE {
            let eval = &mut *lock(&self.eval);
            eval.accuracy = lock(&eval.evaluator).accuracy(&eval.weights);
        } else {
            lock(&self.workers[lane - 1]).compute();
        }
    }
}

/// The event loop's state: everything but the lanes.
struct EventLoop {
    workers: Vec<SimWorker>,
    server: ServerLoop,
    time_model: TimeModel,
    queue: EventQueue,
    /// The trace point whose accuracy the evaluator's lane is computing.
    pending_eval: Option<TracePoint>,
    now: f64,
    /// The `OK`s the push being handled owes (reused across pushes).
    replies: Vec<OkReply>,
    /// Time at which the parameter server's link becomes free again. Every push and pull
    /// transfer occupies the link exclusively for its serialization time, which models
    /// the parameter-server communication bottleneck responsible for BSP's
    /// burst-synchronized slowdown on parameter-heavy models (paper Section V-C).
    nic_free_at: f64,
    /// Link occupancy (serialization time) of one parameter/gradient transfer.
    comm_occupancy: f64,
    /// One-way propagation latency added to each transfer without occupying the link.
    comm_latency: f64,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("server", &self.events.server)
            .field("now", &self.events.now)
            .finish()
    }
}

impl Simulation {
    /// Builds a simulation from its configuration (generates data, builds replicas,
    /// initialises the server).
    ///
    /// # Panics
    ///
    /// Panics if the model's class count differs from the dataset's.
    pub fn new(config: SimConfig) -> Self {
        let job = config.job();
        let dataset = config.data.generate(config.seed);
        let server = ServerLoop::with_dataset(&job, &dataset);
        let initial_params = server.pull();
        let cost = config.cost_override.unwrap_or_else(|| {
            CostProfile::of_model(
                &config.model.build(config.seed),
                config.model.has_fc_layers(),
            )
        });
        let workers = dataset
            .shard_train(job.num_workers)
            .into_iter()
            .enumerate()
            .map(|(rank, shard)| Mutex::new(WorkerStep::with_shard(&job, rank, shard)))
            .collect();
        let eval = EvalLane {
            evaluator: server.evaluator(),
            weights: initial_params,
            accuracy: 0.0,
        };
        let time_model =
            TimeModel::new(config.cluster.clone(), cost, config.batch_size, config.seed);
        let comm_occupancy = time_model.link_occupancy_seconds();
        let comm_latency = time_model.link_latency_seconds();

        Self {
            events: EventLoop {
                workers: (0..job.num_workers).map(|_| SimWorker::default()).collect(),
                server,
                time_model,
                queue: EventQueue::new(),
                pending_eval: None,
                now: 0.0,
                replies: Vec::new(),
                nic_free_at: 0.0,
                comm_occupancy,
                comm_latency,
            },
            lanes: Lanes {
                eval: Mutex::new(eval),
                workers,
            },
        }
    }

    /// Runs the simulation to completion and returns the trace.
    ///
    /// The event loop runs on the calling thread; the gradients and evaluations run on
    /// a pool of `available_parallelism() − 1` helpers (see the crate docs). The
    /// trace is the same, bit for bit, on any number of cores.
    pub fn run(self) -> RunTrace {
        let helpers = helpers_for(1 + self.lanes.workers.len());
        self.run_on(helpers)
    }

    /// [`Simulation::run`] with `helpers` helper threads; with 0 every task runs on the
    /// event loop at its join.
    fn run_on(self, helpers: usize) -> RunTrace {
        let Simulation { mut events, lanes } = self;
        let lane_count = 1 + lanes.workers.len();
        let pool = Pool::new(lanes, lane_count, helpers);
        std::thread::scope(|scope| {
            let _shutdown = pool.start(scope);
            events.run(&pool);
        });
        events.finish()
    }
}

impl EventLoop {
    fn run(&mut self, pool: &Pool<Lanes>) {
        // Every worker pulls the initial weights and starts its first iteration at t=0.
        for w in 0..self.workers.len() {
            self.start_iteration(pool, w, 0.0);
        }
        loop {
            while let Some(event) = self.queue.pop() {
                self.now = event.time;
                match event.kind {
                    EventKind::ComputeDone => self.handle_compute_done(event.worker, event.time),
                    EventKind::PushArrives => {
                        self.handle_push_arrival(pool, event.worker, event.time)
                    }
                }
            }
            // End-of-training drain: workers can remain blocked forever if the workers
            // that would have released them already finished. Release them so every
            // worker completes its configured epochs, as in the paper's fixed-epoch runs.
            let stuck: Vec<usize> = (0..self.workers.len())
                .filter(|&w| self.workers[w].state == WorkerState::Blocked && !self.finished(w))
                .collect();
            if stuck.is_empty() {
                break;
            }
            for w in stuck {
                let wait_start = self.workers[w].last_push_time;
                self.workers[w].waiting_time += self.now - wait_start;
                self.start_iteration(pool, w, self.now);
            }
        }
        self.join_eval(pool);
        // Every worker reports its summary once the drain is over, the slowest last:
        // while a slowest one is still active, retiring the others moves neither the
        // gate's slowest count nor any blocked worker's lead, so no release is counted
        // that the run did not make.
        let mut order: Vec<usize> = (0..self.workers.len()).collect();
        order.sort_by_key(|&w| std::cmp::Reverse(self.server.push_count(w)));
        for w in order {
            let summary = WorkerSummary {
                worker: w,
                iterations: self.server.push_count(w),
                epochs: lock(&pool.tasks().workers[w]).epoch(),
                waiting_time_s: self.workers[w].waiting_time,
            };
            self.server
                .handle_done(summary, self.now, &mut self.replies);
        }
    }

    /// Whether `worker` has pushed its last iteration.
    fn finished(&self, worker: usize) -> bool {
        self.server.push_count(worker) >= self.server.targets()[worker]
    }

    /// Reserves the server link for one transfer starting no earlier than `now` and
    /// returns the time at which the transfer is fully delivered (occupancy on the
    /// shared link, then propagation latency).
    fn reserve_link(&mut self, now: f64) -> f64 {
        let start = now.max(self.nic_free_at);
        self.nic_free_at = start + self.comm_occupancy;
        self.nic_free_at + self.comm_latency
    }

    /// Pulls the global weights for `worker` (queuing the pull transfer on the server
    /// link), submits its gradient to the pool, and schedules the `ComputeDone` event.
    fn start_iteration(&mut self, pool: &Pool<Lanes>, worker: usize, now: f64) {
        // Copy the global weights into the lane's replica (same length every iteration,
        // so no allocation). The lane is idle: its last gradient was joined at its push.
        lock(&pool.tasks().workers[worker])
            .arenas()
            .0
            .copy_from_slice(self.server.server().weights());
        pool.submit(worker_lane(worker));
        let pull_done = self.reserve_link(now);
        let cost = self.time_model.sample_iteration(worker, now);
        self.workers[worker].state = WorkerState::Computing;
        self.queue
            .schedule(pull_done + cost.compute_s, worker, EventKind::ComputeDone);
    }

    /// The worker finished computing; its push now queues on the server link.
    fn handle_compute_done(&mut self, worker: usize, now: f64) {
        let push_done = self.reserve_link(now);
        self.queue
            .schedule(push_done, worker, EventKind::PushArrives);
    }

    /// Processes the arrival of a worker's push request at the server: the shared
    /// loop applies it, then the `OK`s it owes start their workers' next iterations —
    /// the pusher's first, then the released workers', in the loop's order.
    fn handle_push_arrival(&mut self, pool: &Pool<Lanes>, worker: usize, now: f64) {
        pool.join(worker_lane(worker));
        let lane = lock(&pool.tasks().workers[worker]);
        self.workers[worker].loss_sum += f64::from(lane.loss());
        self.replies.clear();
        let decision = self
            .server
            .handle_push_slice(worker, lane.grads(), now, &mut self.replies);
        drop(lane);
        self.workers[worker].last_push_time = now;

        if self.finished(worker) {
            self.workers[worker].state = WorkerState::Done;
        } else if decision.ok_now {
            self.start_iteration(pool, worker, now);
        } else {
            self.workers[worker].state = WorkerState::Blocked;
        }

        for i in usize::from(decision.ok_now)..self.replies.len() {
            let released = self.replies[i].worker;
            if self.workers[released].state != WorkerState::Blocked {
                continue;
            }
            let wait_start = self.workers[released].last_push_time;
            self.workers[released].waiting_time += now - wait_start;
            if self.finished(released) {
                self.workers[released].state = WorkerState::Done;
            } else {
                self.start_iteration(pool, released, now);
            }
        }

        if let Some(point) = self.server.take_pending_eval() {
            self.start_eval(pool, point);
        }
    }

    /// Mean training loss of every gradient pushed so far, summed per worker in rank
    /// order.
    fn mean_loss(&self) -> f64 {
        let pushes = self.server.version();
        if pushes == 0 {
            return 0.0;
        }
        self.workers.iter().map(|w| w.loss_sum).sum::<f64>() / pushes as f64
    }

    /// Submits the evaluation of a snapshot of the current global weights on the
    /// held-out batch, for the point the server loop found due; [`EventLoop::join_eval`]
    /// writes its accuracy into the point and hands it back. Evaluation happens outside
    /// simulated time (it is measurement, not work the cluster performs).
    fn start_eval(&mut self, pool: &Pool<Lanes>, point: TracePoint) {
        self.join_eval(pool);
        lock(&pool.tasks().eval)
            .weights
            .copy_from_slice(self.server.server().weights());
        pool.submit(EVAL_LANE);
        self.pending_eval = Some(TracePoint {
            train_loss: self.mean_loss(),
            ..point
        });
    }

    /// Joins the evaluation in flight, if any, and records its point.
    fn join_eval(&mut self, pool: &Pool<Lanes>) {
        if let Some(point) = self.pending_eval.take() {
            pool.join(EVAL_LANE);
            let accuracy = lock(&pool.tasks().eval).accuracy;
            self.server.record_eval(point, accuracy);
        }
    }

    /// The trace: the server loop closes it with an evaluation of the final weights,
    /// whose training loss is the run's.
    fn finish(self) -> RunTrace {
        let train_loss = self.mean_loss();
        let mut trace = self.server.finish(self.now);
        if let Some(last) = trace.points.last_mut() {
            last.train_loss = train_loss;
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssp_cluster::{DeviceProfile, LinkProfile, WorkerSpec};

    fn vector_config(policy: PolicyKind) -> SimConfig {
        SimConfig {
            model: ModelSpec::Mlp {
                input_dim: 16,
                hidden: vec![24],
                classes: 4,
            },
            data: DataSpec::Vector(SyntheticVectorSpec {
                classes: 4,
                dim: 16,
                train_size: 240,
                test_size: 80,
                noise_std: 0.7,
            }),
            cluster: ClusterSpec::heterogeneous_pair(),
            policy,
            batch_size: 16,
            epochs: 3,
            sgd: SgdConfig {
                schedule: dssp_nn::LrSchedule::constant(0.05),
                momentum: 0.9,
                weight_decay: 0.0,
            },
            seed: 7,
            eval_every_pushes: 10,
            eval_max_examples: 80,
            cost_override: None,
        }
    }

    #[test]
    fn run_completes_all_worker_iterations() {
        let config = vector_config(PolicyKind::Ssp { s: 2 });
        let trace = Simulation::new(config.clone()).run();
        assert_eq!(trace.workers, 2);
        // 240 examples / 2 workers = 120 per shard; 120/16 = 8 batches/epoch (ceil),
        // 3 epochs = 24 iterations per worker.
        for w in &trace.worker_summaries {
            assert_eq!(w.iterations, 24, "worker {} iterations", w.worker);
            // The epoch counter reports *completed* passes; after the final batch of the
            // last epoch it reads one less than the configured epoch count.
            assert!(w.epochs >= 2);
        }
        assert_eq!(trace.total_pushes, 48);
        assert!(trace.total_time_s > 0.0);
        assert!(!trace.points.is_empty());
    }

    /// A small convolutional run (`DownsizedAlexNet` on 8×8 images).
    fn conv_config(cluster: ClusterSpec, policy: PolicyKind) -> SimConfig {
        SimConfig {
            model: ModelSpec::DownsizedAlexNet {
                image_side: 8,
                classes: 4,
            },
            data: DataSpec::Image(
                SyntheticImageSpec::cifar10_like()
                    .with_classes(4)
                    .with_image_side(8)
                    .with_sizes(64, 32),
            ),
            cluster,
            policy,
            batch_size: 8,
            epochs: 1,
            sgd: SgdConfig::default(),
            seed: 3,
            eval_every_pushes: 4,
            eval_max_examples: 32,
            cost_override: None,
        }
    }

    /// The gradients and evaluations run on the pool in whatever order the threads
    /// take them; the trace must not see it. With no helper every task runs at its
    /// join, in the one-thread simulator's order: that run is the reference. The conv
    /// run has the deepest tasks, the 4-worker run more lanes than a 2-core host has
    /// threads.
    #[test]
    fn same_seed_gives_identical_traces() {
        let configs = [
            vector_config(PolicyKind::Dssp { s_l: 1, r_max: 4 }),
            conv_config(
                ClusterSpec::heterogeneous_pair(),
                PolicyKind::Dssp { s_l: 1, r_max: 4 },
            ),
            SimConfig {
                cluster: ClusterSpec::homogeneous(
                    4,
                    WorkerSpec::single(DeviceProfile::gtx1060()),
                    LinkProfile::infiniband_edr(),
                ),
                eval_every_pushes: 3,
                ..vector_config(PolicyKind::Ssp { s: 1 })
            },
        ];
        for config in configs {
            let reference = Simulation::new(config.clone()).run_on(0);
            for helpers in [1, 2] {
                assert_eq!(reference, Simulation::new(config.clone()).run_on(helpers));
            }
            for _ in 0..4 {
                assert_eq!(reference, Simulation::new(config.clone()).run());
            }
        }
    }

    /// `Simulation::new` checks class counts but not input width, so this run panics
    /// in its first gradient — on the event loop or on a helper, whichever takes the
    /// first task. Either way `run` must end in a panic, not wait forever for a task
    /// that will never finish.
    #[test]
    fn a_panicking_gradient_ends_run_instead_of_hanging() {
        let mut config = vector_config(PolicyKind::Asp);
        config.data = DataSpec::Vector(SyntheticVectorSpec {
            classes: 4,
            dim: 8, // the model reads 16
            train_size: 240,
            test_size: 80,
            noise_std: 0.7,
        });
        for attempt in 0..8 {
            let (done, outcome) = std::sync::mpsc::channel();
            let config = config.clone();
            std::thread::spawn(move || {
                let run = std::panic::catch_unwind(|| Simulation::new(config).run());
                let _ = done.send(run.is_err());
            });
            let panicked = outcome
                .recv_timeout(std::time::Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("run {attempt} still running after 30 s"));
            assert!(panicked, "run {attempt} returned a trace");
        }
    }

    #[test]
    fn training_improves_accuracy_over_random_guessing() {
        let config = vector_config(PolicyKind::Bsp);
        let trace = Simulation::new(config).run();
        // 4 balanced classes => random guessing is 25%.
        assert!(
            trace.final_accuracy() > 0.4,
            "final accuracy {} should beat random guessing",
            trace.final_accuracy()
        );
    }

    /// A configuration where communication is a significant but non-saturating fraction
    /// of an iteration, which is the regime in which the paper observes BSP losing
    /// wall-clock time to the asynchronous paradigms (Section V-C, "DNNs with fully
    /// connected layers").
    fn comm_heavy_config(policy: PolicyKind) -> SimConfig {
        SimConfig {
            model: ModelSpec::Mlp {
                input_dim: 16,
                hidden: vec![64, 64],
                classes: 4,
            },
            data: DataSpec::Vector(SyntheticVectorSpec {
                classes: 4,
                dim: 16,
                train_size: 1280,
                test_size: 80,
                noise_std: 0.7,
            }),
            cluster: ClusterSpec::homogeneous(
                4,
                WorkerSpec::single(DeviceProfile::gtx1060()),
                LinkProfile::infiniband_edr(),
            ),
            batch_size: 32,
            epochs: 2,
            ..vector_config(policy)
        }
    }

    #[test]
    fn bsp_takes_longer_than_asp_when_communication_matters() {
        let bsp = Simulation::new(comm_heavy_config(PolicyKind::Bsp)).run();
        let asp = Simulation::new(comm_heavy_config(PolicyKind::Asp)).run();
        assert!(
            bsp.total_time_s > asp.total_time_s * 1.05,
            "BSP ({}) should be noticeably slower than ASP ({})",
            bsp.total_time_s,
            asp.total_time_s
        );
        // And BSP's workers spend strictly more time waiting for the barrier.
        assert!(bsp.total_waiting_time() > asp.total_waiting_time());
    }

    #[test]
    fn dssp_waits_less_than_ssp_at_the_lower_bound() {
        let ssp = Simulation::new(vector_config(PolicyKind::Ssp { s: 1 })).run();
        let dssp = Simulation::new(vector_config(PolicyKind::Dssp { s_l: 1, r_max: 8 })).run();
        assert!(
            dssp.total_waiting_time() <= ssp.total_waiting_time() + 1e-9,
            "DSSP waiting {} should not exceed SSP waiting {}",
            dssp.total_waiting_time(),
            ssp.total_waiting_time()
        );
    }

    #[test]
    fn staleness_bound_holds_in_full_simulation_for_strict_dssp() {
        let config = vector_config(PolicyKind::DsspStrict { s_l: 2, r_max: 5 });
        let trace = Simulation::new(config).run();
        assert!(trace.server_stats.staleness_max <= 2 + 5 + 1);
    }

    #[test]
    fn literal_dssp_runs_further_ahead_than_strict_dssp_on_a_skewed_cluster() {
        // On the strongly heterogeneous cluster the literal Algorithm-1 policy keeps
        // re-granting extra iterations to the fast worker, so its realized staleness can
        // exceed the strict variant's hard cap — this is the mechanism behind the paper's
        // Figure 4, where DSSP tracks ASP's progress on mixed GPUs.
        let literal = Simulation::new(vector_config(PolicyKind::Dssp { s_l: 2, r_max: 5 })).run();
        let strict =
            Simulation::new(vector_config(PolicyKind::DsspStrict { s_l: 2, r_max: 5 })).run();
        assert!(strict.server_stats.staleness_max <= 2 + 5 + 1);
        assert!(
            literal.server_stats.staleness_max >= strict.server_stats.staleness_max,
            "literal staleness {} should be at least the strict variant's {}",
            literal.server_stats.staleness_max,
            strict.server_stats.staleness_max
        );
        assert!(literal.total_waiting_time() <= strict.total_waiting_time() + 1e-9);
    }

    #[test]
    fn homogeneous_cluster_runs_image_model() {
        let config = conv_config(
            ClusterSpec::homogeneous(
                2,
                WorkerSpec::single(DeviceProfile::p100()),
                LinkProfile::infiniband_edr(),
            ),
            PolicyKind::Dssp { s_l: 3, r_max: 12 },
        );
        let trace = Simulation::new(config).run();
        assert_eq!(trace.model, "downsized-alexnet");
        assert!(trace.total_pushes > 0);
        assert!(trace.iteration_throughput() > 0.0);
    }

    #[test]
    #[should_panic(expected = "class counts must agree")]
    fn mismatched_classes_rejected() {
        let mut config = vector_config(PolicyKind::Asp);
        config.model = ModelSpec::Mlp {
            input_dim: 16,
            hidden: vec![8],
            classes: 7,
        };
        Simulation::new(config);
    }
}
