//! A real multi-threaded parameter-server runtime.
//!
//! The discrete-event simulator (`dssp-sim`) is the primary vehicle for reproducing the
//! paper's figures because it is deterministic and fast. This module provides the
//! complementary piece a downstream user would actually deploy on one machine: worker
//! **threads** that compute gradients concurrently and exchange them with a server
//! thread over channels, driving the *same* [`dssp_ps::ParameterServer`] decision logic
//! under real wall-clock time.
//!
//! The worker step-loop and server decision-loop live in [`crate::driver`] and are
//! shared with the networked runtime (`dssp-net`): one driver, three substrates —
//! simulator events, threads + channels, and processes + sockets. The server thread
//! here is the smallest of the serving loops, and has their one shape: offer each
//! event off the channel to the `ServerLoop`, drain what it is ready to release, send
//! each `OK` it appends as [`WorkerCommand::Proceed`] with the weights of that moment.
//!
//! Heterogeneity can be emulated by giving workers artificial per-iteration compute
//! delays (`extra_compute_delay_ms`), which plays the role of the mixed GPU models in
//! the paper's Figure 4 experiment.
//!
//! # Shutdown behaviour
//!
//! The server loop owns the run: when it finishes, finds a dead worker thread, or
//! panics, it broadcasts [`WorkerCommand::Shutdown`] to every worker and joins all
//! threads before returning, so no worker thread is ever leaked — [`run_threaded`]
//! either returns a complete trace or panics with every thread reaped. Stopping a run
//! from inside is a fault plan's `abort` (`server0:push:abort:N`), which the serving
//! loops of `dssp-net` and `dssp-coord` run; this runtime runs no fault plan.

use crate::driver::{JobConfig, OkReply, ServerLoop, WorkerEvent, WorkerStep};
use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use dssp_sim::{RunTrace, WorkerSummary};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Configuration of a threaded training run (an alias of the shared driver
/// configuration; the threaded runtime adds no substrate-specific knobs).
pub use crate::driver::JobConfig as ThreadedConfig;

/// What the server sends a worker in response to its push.
#[derive(Debug, Clone)]
pub enum WorkerCommand {
    /// The worker may start its next iteration on these fresh global weights.
    Proceed(Vec<f32>),
    /// The run is over (normally or because the server failed); the worker must exit
    /// its loop immediately.
    Shutdown,
}

/// Why a threaded run ended without a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// One or more worker threads died (panicked or exited early) before reporting
    /// `Done`.
    WorkersFailed {
        /// Ranks of the dead workers.
        workers: Vec<usize>,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::WorkersFailed { workers } => {
                write!(f, "worker threads {workers:?} died before finishing")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Runs a training job on real threads and returns the same [`RunTrace`] the simulator
/// produces (times are wall-clock seconds since the start of training, or logical event
/// counts under [`JobConfig::deterministic`]).
///
/// # Panics
///
/// Panics if the configuration is inconsistent (zero workers, class mismatch, or a
/// delay vector whose length differs from the worker count), or if the run fails (see
/// [`try_run_threaded`] for the non-panicking variant). In every case all worker
/// threads are shut down and joined first.
pub fn run_threaded(config: ThreadedConfig) -> RunTrace {
    try_run_threaded(config).unwrap_or_else(|e| panic!("threaded run failed: {e}"))
}

/// Like [`run_threaded`], but reports server-side failures as an error instead of
/// panicking. Worker threads are always joined before this returns.
pub fn try_run_threaded(config: ThreadedConfig) -> Result<RunTrace, RuntimeError> {
    config.validate();
    // One dataset generation serves the evaluation batch and every worker's shard. (In
    // the networked runtime each process generates only the split it reads: a worker
    // the training split, a server the test split.)
    let dataset = config.data.generate(config.seed);
    let mut sl = ServerLoop::with_dataset(&config, &dataset);
    let initial_params = sl.pull();

    let (push_tx, push_rx): (Sender<WorkerEvent>, Receiver<WorkerEvent>) = unbounded();
    let mut ok_txs: Vec<Sender<WorkerCommand>> = Vec::with_capacity(config.num_workers);
    let mut handles: Vec<JoinHandle<()>> = Vec::with_capacity(config.num_workers);

    for (rank, shard) in dataset
        .shard_train(config.num_workers)
        .into_iter()
        .enumerate()
    {
        let (ok_tx, ok_rx): (Sender<WorkerCommand>, Receiver<WorkerCommand>) = unbounded();
        ok_txs.push(ok_tx);
        let step = WorkerStep::with_shard(&config, rank, shard);
        let tx = push_tx.clone();
        let init = initial_params.clone();
        handles.push(thread::spawn(move || {
            worker_loop(step, init, tx, ok_rx);
        }));
    }
    drop(push_tx);

    // Server loop on the current thread. Any outcome — normal completion, worker
    // death, or a panic inside the decision logic — falls through to the broadcast +
    // join below, so threads are never leaked.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        server_loop(&config, &mut sl, &push_rx, &ok_txs, &handles)
    }));

    for tx in &ok_txs {
        // Idempotent: workers that already exited just leave the message undelivered.
        let _ = tx.send(WorkerCommand::Shutdown);
    }
    let mut dead = Vec::new();
    for (rank, handle) in handles.into_iter().enumerate() {
        if handle.join().is_err() {
            dead.push(rank);
        }
    }

    match outcome {
        Err(panic) => resume_unwind(panic),
        Ok(Err(e)) => Err(e),
        Ok(Ok(elapsed)) => {
            if dead.is_empty() {
                Ok(sl.finish(elapsed))
            } else {
                Err(RuntimeError::WorkersFailed { workers: dead })
            }
        }
    }
}

/// Runs the server decision-loop to completion, returning the elapsed wall-clock
/// seconds: offer every arriving event, apply whatever the loop is ready to release
/// (arrival order, or the canonical order in deterministic mode), deliver the `OK`s.
fn server_loop(
    config: &JobConfig,
    sl: &mut ServerLoop,
    push_rx: &Receiver<WorkerEvent>,
    ok_txs: &[Sender<WorkerCommand>],
    handles: &[JoinHandle<()>],
) -> Result<f64, RuntimeError> {
    let start = Instant::now();
    let stall = Duration::from_millis(config.stall_timeout_ms.max(1));
    let mut replies: Vec<OkReply> = Vec::new();

    loop {
        while let Some(event) = sl.next_ready() {
            let now = start.elapsed().as_secs_f64();
            replies.clear();
            match event {
                WorkerEvent::Push { worker, grads, .. } => {
                    sl.handle_push_slice(worker, &grads, now, &mut replies);
                    if let Some(point) = sl.take_pending_eval() {
                        sl.record_eval(point, sl.accuracy(sl.server().weights()));
                    }
                }
                WorkerEvent::Done(summary) => sl.handle_done(summary, now, &mut replies),
                WorkerEvent::Pull { worker } => {
                    unreachable!("worker thread {worker} was handed its weights; it never pulls")
                }
            }
            for reply in &replies {
                // A send can only fail if the worker already exited after its final
                // push; that is expected and harmless.
                let _ = ok_txs[reply.worker].send(WorkerCommand::Proceed(sl.pull()));
            }
        }
        if sl.all_done() {
            return Ok(start.elapsed().as_secs_f64());
        }
        match push_rx.recv_timeout(stall) {
            Ok(event) => sl.offer(event),
            Err(RecvTimeoutError::Timeout) => {
                // A finished thread is only *dead* if its worker never reported Done —
                // cleanly completed workers exit while slower peers keep training, and
                // in deterministic mode a Done can sit queued for a while.
                let dead: Vec<usize> = handles
                    .iter()
                    .enumerate()
                    .filter(|(rank, h)| h.is_finished() && !sl.worker_accounted_for(*rank))
                    .map(|(rank, _)| rank)
                    .collect();
                if !dead.is_empty() {
                    return Err(RuntimeError::WorkersFailed { workers: dead });
                }
                // Otherwise workers are just slow; keep waiting.
            }
            Err(RecvTimeoutError::Disconnected) => {
                // Every worker hung up without all of them reporting Done.
                return Err(RuntimeError::WorkersFailed {
                    workers: (0..config.num_workers).collect(),
                });
            }
        }
    }
}

fn worker_loop(
    mut step: WorkerStep,
    initial_params: Vec<f32>,
    tx: Sender<WorkerEvent>,
    ok_rx: Receiver<WorkerCommand>,
) {
    let worker = step.rank();
    let target = step.target();
    // Weights arrive as owned vectors and move into the replica, uncopied.
    *step.arenas().0 = initial_params;
    let mut waiting_time_s = 0.0;
    for iter in 0..target {
        step.compute();
        if tx
            .send(WorkerEvent::Push {
                worker,
                iteration: iter + 1,
                grads: step.grads().to_vec(),
            })
            .is_err()
        {
            return; // server gone; exit quietly
        }
        if iter + 1 < target {
            let wait_start = Instant::now();
            match ok_rx.recv() {
                Ok(WorkerCommand::Proceed(w)) => {
                    waiting_time_s += wait_start.elapsed().as_secs_f64();
                    *step.arenas().0 = w;
                }
                Ok(WorkerCommand::Shutdown) | Err(_) => return,
            }
        }
    }
    let _ = tx.send(WorkerEvent::Done(WorkerSummary {
        worker,
        iterations: target,
        epochs: step.epoch(),
        waiting_time_s,
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssp_ps::PolicyKind;

    #[test]
    fn threaded_bsp_run_completes_and_learns() {
        let trace = run_threaded(ThreadedConfig::small(PolicyKind::Bsp));
        assert_eq!(trace.workers, 2);
        assert!(trace.total_pushes > 0);
        assert!(
            trace.final_accuracy() > 0.3,
            "accuracy {}",
            trace.final_accuracy()
        );
        // Every worker completed all of its iterations.
        let per_worker: u64 = trace.worker_summaries.iter().map(|w| w.iterations).sum();
        assert_eq!(per_worker, trace.total_pushes);
    }

    #[test]
    fn threaded_strict_dssp_respects_staleness_bound() {
        // The strict-range variant is the one that promises a hard staleness cap; the
        // literal Algorithm-1 policy may run further ahead on repeated controller grants.
        let mut config = ThreadedConfig::small(PolicyKind::DsspStrict { s_l: 2, r_max: 4 });
        // Make worker 1 an artificial straggler so staleness actually arises.
        config.extra_compute_delay_ms = vec![0, 3];
        let trace = run_threaded(config);
        assert!(trace.server_stats.staleness_max <= 2 + 4 + 1);
        assert!(trace.total_pushes > 0);
    }

    #[test]
    fn threaded_literal_dssp_completes_all_work_under_a_straggler() {
        let mut config = ThreadedConfig::small(PolicyKind::Dssp { s_l: 2, r_max: 4 });
        config.extra_compute_delay_ms = vec![0, 3];
        let trace = run_threaded(config);
        assert!(trace.total_pushes > 0);
        let per_worker: u64 = trace.worker_summaries.iter().map(|w| w.iterations).sum();
        assert_eq!(per_worker, trace.total_pushes);
        assert_eq!(
            trace.server_stats.blocked_pushes,
            trace.server_stats.releases
        );
    }

    #[test]
    fn threaded_asp_never_blocks() {
        let mut config = ThreadedConfig::small(PolicyKind::Asp);
        config.extra_compute_delay_ms = vec![0, 2];
        let trace = run_threaded(config);
        assert_eq!(trace.server_stats.blocked_pushes, 0);
    }

    #[test]
    #[should_panic(expected = "one entry per worker")]
    fn wrong_delay_vector_length_panics() {
        let mut config = ThreadedConfig::small(PolicyKind::Asp);
        config.extra_compute_delay_ms = vec![1];
        config.num_workers = 3;
        run_threaded(config);
    }

    #[test]
    fn deterministic_mode_is_bitwise_reproducible_across_runs() {
        let mut config = ThreadedConfig::small(PolicyKind::Dssp { s_l: 1, r_max: 4 });
        config.deterministic = true;
        config.epochs = 1;
        let a = run_threaded(config.clone());
        let b = run_threaded(config);
        assert_eq!(
            a.with_times_zeroed(),
            b.with_times_zeroed(),
            "two deterministic runs must match bitwise (wall-clock fields aside)"
        );
    }
}
