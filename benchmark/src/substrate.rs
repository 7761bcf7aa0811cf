//! The only place the benchmark's workloads call into the program's runtimes: one
//! adapter per substrate. When a runtime is deleted or merged (ROADMAP item 2),
//! re-point its adapter here and nothing else in the benchmark changes
//! (README.md, "Re-pointing a substrate adapter").
//!
//! Every adapter runs one fresh job to completion on the calling thread (plus the
//! threads the runtime itself starts, all joined before it returns) and splits the
//! wall time into set-up and training.

use crate::workloads::Job;
use dssp_core::driver::JobConfig;
use dssp_net::{run_worker, serve, TcpServerTransport, TcpWorkerTransport};
use dssp_sim::{RunTrace, SimConfig, Simulation};
use std::time::Instant;

/// One completed job.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The program's own record of the run.
    pub trace: RunTrace,
    /// Wall seconds before training started: dataset generation, model builds,
    /// binds, connects, thread starts (and their teardown).
    pub setup_s: f64,
    /// Wall seconds of training.
    pub train_s: f64,
    /// Socket traffic, on the substrates that have sockets.
    pub net: Option<NetCounts>,
}

/// What crossed the sockets during one networked job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetCounts {
    /// Bytes the parameter server(s) read and wrote, frame headers included.
    pub server_bytes: u64,
    /// Pull replies the workers received as full models.
    pub full_pulls: u64,
    /// Pull replies the workers received as shard deltas.
    pub delta_pulls: u64,
}

/// Runs `job` on the substrate it names.
pub fn run(job: Job) -> Result<Outcome, String> {
    match job {
        Job::Sim(config) => sim(config),
        Job::Threads(job) => threads(job),
        Job::Tcp(job) => tcp(&job),
        Job::Group(job) => group(&job),
    }
}

/// The discrete-event simulator. Its `RunTrace` times are virtual, so both halves of
/// the wall time are taken here: `Simulation::new` is set-up, `Simulation::run` is
/// training.
pub fn sim(config: SimConfig) -> Result<Outcome, String> {
    let start = Instant::now();
    let simulation = Simulation::new(config);
    let setup_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let trace = simulation.run();
    let train_s = start.elapsed().as_secs_f64();
    Ok(Outcome {
        trace,
        setup_s,
        train_s,
        net: None,
    })
}

/// `dssp_core::runtime`: worker threads and a server loop over channels.
pub fn threads(job: JobConfig) -> Result<Outcome, String> {
    real_time(|| {
        let trace = dssp_core::runtime::try_run_threaded(job).map_err(|e| e.to_string())?;
        Ok((trace, None))
    })
}

/// `dssp_net::serve` on this thread plus one `run_worker` thread per rank, over
/// localhost TCP on an ephemeral port.
pub fn tcp(job: &JobConfig) -> Result<Outcome, String> {
    real_time(|| {
        let mut server = TcpServerTransport::bind("127.0.0.1:0", job.num_workers)
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().to_string();
        let handles: Vec<_> = (0..job.num_workers)
            .map(|rank| {
                let job = job.clone();
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut transport = TcpWorkerTransport::connect(&addr)?;
                    run_worker(&job, rank, &mut transport)
                })
            })
            .collect();
        let served = serve(job, &mut server);
        let stats = server.stats();
        // Closing the server's sockets unblocks any worker still reading, so the
        // joins below cannot hang after a failed serve.
        drop(server);
        let mut net = NetCounts {
            server_bytes: stats.bytes_sent + stats.bytes_received,
            full_pulls: 0,
            delta_pulls: 0,
        };
        let mut worker_error = None;
        for (rank, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(Ok(report)) if !report.shutdown_early => {
                    net.full_pulls += report.full_pulls;
                    net.delta_pulls += report.delta_pulls;
                }
                Ok(Ok(_)) => worker_error = Some(format!("worker {rank} was shut down early")),
                Ok(Err(e)) => worker_error = Some(format!("worker {rank}: {e}")),
                Err(_) => worker_error = Some(format!("worker {rank} panicked")),
            }
        }
        let trace = served.map_err(|e| format!("serve: {e}"))?;
        worker_error.map_or(Ok((trace, Some(net))), Err)
    })
}

/// `dssp_coord::run_group_threads`: shard servers, workers and the coordinator in
/// this process over localhost TCP.
pub fn group(job: &JobConfig) -> Result<Outcome, String> {
    real_time(|| {
        let outcome = dssp_coord::run_group_threads(job).map_err(|e| e.to_string())?;
        let net = NetCounts {
            server_bytes: outcome
                .trace
                .group_servers
                .iter()
                .map(|s| s.bytes_sent + s.bytes_received)
                .sum(),
            full_pulls: outcome.workers.iter().map(|w| w.full_pulls).sum(),
            delta_pulls: outcome.workers.iter().map(|w| w.delta_pulls).sum(),
        };
        Ok((outcome.trace, Some(net)))
    })
}

/// Times a real-time substrate: the runtime reports its own training wall time as
/// `RunTrace.total_time_s`; whatever else the call took is set-up.
fn real_time(
    run: impl FnOnce() -> Result<(RunTrace, Option<NetCounts>), String>,
) -> Result<Outcome, String> {
    let start = Instant::now();
    let (trace, net) = run()?;
    let wall_s = start.elapsed().as_secs_f64();
    let train_s = trace.total_time_s;
    Ok(Outcome {
        setup_s: wall_s - train_s,
        train_s,
        trace,
        net,
    })
}
