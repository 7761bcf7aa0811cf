//! One-call group runs over real localhost TCP, with every role in-process.
//!
//! [`run_group_threads`] is the test/bench harness entry point: it binds one
//! [`TcpServerTransport`] per shard server plus one for the coordinator, runs the
//! shard servers and workers on threads, and coordinates on the calling thread —
//! real sockets, real wire protocol, one process. The multi-*process* deployment
//! lives in [`crate::launch`].

use crate::client::{run_group_worker, ServerLink};
use crate::coordinator::coordinate;
use crate::shard_server::serve_shard;
use dssp_core::driver::JobConfig;
use dssp_net::worker::WorkerReport;
use dssp_net::{NetError, TcpServerTransport, TcpWorkerTransport};
use dssp_sim::RunTrace;
use std::time::Duration;

/// What a full in-process group run produced.
#[derive(Debug)]
pub struct GroupRunOutcome {
    /// The coordinator's run trace (with per-server group statistics).
    pub trace: RunTrace,
    /// Every worker's report, in rank order.
    pub workers: Vec<WorkerReport>,
}

/// Connects one labelled link per shard server, arming the read timeout that turns a
/// dead server into a clear [`NetError::PeerTimeout`] instead of a stalled read.
pub fn connect_links(
    addrs: &[String],
    timeout: Option<Duration>,
) -> Result<Vec<ServerLink>, NetError> {
    let mut links = Vec::with_capacity(addrs.len());
    for (i, addr) in addrs.iter().enumerate() {
        let mut t = TcpWorkerTransport::connect(addr)?;
        let label = format!("shard server {i} at {addr}");
        t.set_peer_label(label.clone());
        t.set_read_timeout(timeout)?;
        // Links over real TCP are reconnectable: if the server process is restarted
        // in place, the fan re-dials, replays the hello, and resumes.
        links.push(ServerLink::new(Box::new(t), label).with_reconnect(addr.clone(), timeout));
    }
    Ok(links)
}

/// Runs a whole group job — N shard servers, M workers, one coordinator — over
/// localhost TCP inside this process and returns the trace plus every worker report.
///
/// A run the coordinator aborts (an `abort` fault plan such as `coord:push:abort:N`)
/// returns that error *after* joining every thread: the shutdown broadcast reaches
/// workers both directly and relayed through the shard servers, so nothing is leaked.
///
/// # Panics
///
/// Panics if the configuration is inconsistent.
pub fn run_group_threads(job: &JobConfig) -> Result<GroupRunOutcome, NetError> {
    job.validate();
    // Shard servers: one transport each, serving every worker plus the coordinator.
    let mut server_addrs = Vec::with_capacity(job.servers);
    let mut server_handles = Vec::with_capacity(job.servers);
    for index in 0..job.servers {
        let mut transport = TcpServerTransport::bind("127.0.0.1:0", job.num_workers + 1)?;
        server_addrs.push(transport.local_addr().to_string());
        let job = job.clone();
        server_handles.push(std::thread::spawn(move || {
            serve_shard(&job, index, &mut transport)
        }));
    }

    let mut coord_transport = TcpServerTransport::bind("127.0.0.1:0", job.num_workers)?;
    let coord_addr = coord_transport.local_addr().to_string();

    // Every worker connects before the coordinator starts: a worker thread that only
    // dialed once the run had already aborted would retry the closed listeners for a
    // minute instead of reading the `Shutdown` waiting on its connections.
    let timeout = Some(Duration::from_millis(job.stall_timeout_ms.max(1)));
    let mut worker_handles = Vec::with_capacity(job.num_workers);
    for rank in 0..job.num_workers {
        let job = job.clone();
        let mut coord = TcpWorkerTransport::connect(&coord_addr)?;
        let links = connect_links(&server_addrs, timeout)?;
        worker_handles.push(std::thread::spawn(
            move || -> Result<WorkerReport, NetError> {
                run_group_worker(&job, rank, &mut coord, links)
            },
        ));
    }

    let links = connect_links(&server_addrs, timeout)?;
    let result = coordinate(job, &mut coord_transport, links);
    // A faulted coordinator dies *without* the protocol goodbye. Closing its
    // transport here is what lets workers blocked on a coordinator read observe
    // the loss and unwind, so the joins below cannot hang.
    drop(coord_transport);

    let mut workers = Vec::with_capacity(job.num_workers);
    let mut worker_failure: Option<NetError> = None;
    for (rank, handle) in worker_handles.into_iter().enumerate() {
        match handle.join() {
            Ok(Ok(report)) => workers.push(report),
            Ok(Err(e)) => {
                worker_failure.get_or_insert(NetError::WorkerProcess(format!(
                    "worker {rank} failed: {e}"
                )));
            }
            Err(_) => {
                worker_failure
                    .get_or_insert(NetError::WorkerProcess(format!("worker {rank} panicked")));
            }
        }
    }
    for (index, handle) in server_handles.into_iter().enumerate() {
        match handle.join() {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => {
                worker_failure.get_or_insert(NetError::WorkerProcess(format!(
                    "shard server {index} failed: {e}"
                )));
            }
            Err(_) => {
                worker_failure.get_or_insert(NetError::WorkerProcess(format!(
                    "shard server {index} panicked"
                )));
            }
        }
    }

    let trace = result?;
    if let Some(e) = worker_failure {
        return Err(e);
    }
    Ok(GroupRunOutcome { trace, workers })
}
