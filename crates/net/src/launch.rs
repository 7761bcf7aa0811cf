//! Multi-process deployment on one machine: run the server in-process and spawn one
//! OS process per worker, connected over localhost TCP.
//!
//! This is the `repro -- launch` backend and the networked analogue of the paper's
//! 4-node testbed, collapsed onto one host: every worker is a real process with its own
//! address space, exchanging gradients and weights through the wire protocol.

use crate::server::serve;
use crate::tcp::TcpServerTransport;
use crate::NetError;
use dssp_core::driver::JobConfig;
use dssp_sim::RunTrace;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};

/// The result of a multi-process launch.
#[derive(Debug)]
pub struct LaunchOutcome {
    /// The server's run trace.
    pub trace: RunTrace,
    /// The address the server listened on.
    pub addr: SocketAddr,
}

/// Binds `listen` (use port 0 for an ephemeral port), spawns `job.num_workers` child
/// processes running `worker_exe worker --connect <addr> --rank K <job flags>`, serves
/// the run in-process, and reaps every child.
///
/// `worker_exe` is typically `std::env::current_exe()` of the `repro` binary. Worker
/// stdout/stderr are inherited so their logs interleave with the server's.
///
/// On any server-side failure the children are killed before the error is returned; a
/// child that exits unsuccessfully after a successful run turns the launch into an
/// error too.
///
/// # Panics
///
/// Panics if the configuration is inconsistent ([`JobConfig::validate`]).
pub fn launch(job: &JobConfig, listen: &str, worker_exe: &Path) -> Result<LaunchOutcome, NetError> {
    job.validate();
    let mut transport = TcpServerTransport::bind(listen, job.num_workers)?;
    let addr = transport.local_addr();

    let mut children: Vec<Child> = Vec::with_capacity(job.num_workers);
    for rank in 0..job.num_workers {
        let spawned = Command::new(worker_exe)
            .arg("worker")
            .arg("--connect")
            .arg(addr.to_string())
            .arg("--rank")
            .arg(rank.to_string())
            .args(crate::cli::job_args(job))
            .stdin(Stdio::null())
            .spawn();
        match spawned {
            Ok(child) => children.push(child),
            Err(e) => {
                reap(&mut children, true, "worker");
                return Err(NetError::WorkerProcess(format!(
                    "failed to spawn worker {rank}: {e}"
                )));
            }
        }
    }

    let result = serve(job, &mut transport);
    let kill = result.is_err();
    let failures = reap(&mut children, kill, "worker");

    let trace = result?;
    if let Some(failures) = failures {
        return Err(NetError::WorkerProcess(format!(
            "worker processes exited unsuccessfully: {failures}"
        )));
    }
    Ok(LaunchOutcome { trace, addr })
}

/// Waits for every child, killing it first if `kill`. Returns one `<what> <index>
/// exited with <status>` (or failed-to-wait) clause per child that failed, joined by
/// `; `, or `None` if none did. A child killed here has not failed.
pub fn reap(children: &mut [Child], kill: bool, what: &str) -> Option<String> {
    let failures: Vec<String> = children
        .iter_mut()
        .enumerate()
        .filter_map(|(i, child)| {
            if kill {
                let _ = child.kill();
            }
            match child.wait() {
                Ok(status) if status.success() || kill => None,
                Ok(status) => Some(format!("{what} {i} exited with {status}")),
                Err(e) => Some(format!("failed to wait for {what} {i}: {e}")),
            }
        })
        .collect();
    (!failures.is_empty()).then(|| failures.join("; "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exiting(code: u32) -> Child {
        Command::new("sh")
            .arg("-c")
            .arg(format!("exit {code}"))
            .spawn()
            .expect("spawn sh")
    }

    #[test]
    fn reap_names_each_failed_child_and_its_status() {
        let mut children = [exiting(0), exiting(3), exiting(0), exiting(4)];
        let failures = reap(&mut children, false, "worker").expect("two children failed");
        let clauses: Vec<&str> = failures.split("; ").collect();
        assert_eq!(clauses.len(), 2, "{failures}");
        assert!(clauses[0].starts_with("worker 1 exited with ") && clauses[0].ends_with('3'));
        assert!(clauses[1].starts_with("worker 3 exited with ") && clauses[1].ends_with('4'));
        assert_eq!(reap(&mut [exiting(0)], false, "worker"), None);
        // A child the launcher kills has not failed, whatever its status.
        assert_eq!(reap(&mut [exiting(5)], true, "worker"), None);
    }
}
