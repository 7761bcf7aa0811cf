//! Multi-process group deployment on one machine: N shard-server processes, M worker
//! processes, and the coordinator in-process.
//!
//! This is the `repro -- launch --servers N` backend. Shard servers bind ephemeral
//! ports, so each child announces its address on stdout as a `DSSP_LISTEN <addr>`
//! line (the [`LISTEN_LINE_PREFIX`] contract with the `repro serve --server-index`
//! mode); the launcher reads that line, forwards the rest of the child's output, and
//! passes every address to the workers. All children are reaped on every exit path —
//! success, coordinator failure, or an `abort` fault plan such as `coord:push:abort:N`
//! (where the shutdown broadcast reaches workers both directly and relayed via their
//! shard servers).

use crate::coordinator::coordinate;
use crate::run::connect_links;
use dssp_core::driver::JobConfig;
use dssp_net::launch::reap;
use dssp_net::{NetError, TcpServerTransport};
use dssp_sim::RunTrace;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// The stdout line prefix a `serve --server-index` child uses to announce its bound
/// address to the launcher.
pub const LISTEN_LINE_PREFIX: &str = "DSSP_LISTEN ";

/// How [`reap`] names a child of a group launch: by its index in spawn order.
const GROUP_CHILD: &str = "group child";

/// The result of a multi-process group launch.
#[derive(Debug)]
pub struct GroupLaunchOutcome {
    /// The coordinator's run trace (with per-server group statistics).
    pub trace: RunTrace,
    /// The address the coordinator listened on for workers.
    pub coord_addr: SocketAddr,
    /// The shard servers' addresses, in server order.
    pub server_addrs: Vec<String>,
}

/// Spawns `job.servers` shard-server processes and `job.num_workers` worker processes
/// running `exe`, coordinates the run in-process, and reaps every child.
///
/// `listen` is the coordinator's bind address for workers (port 0 for ephemeral).
/// `exe` is typically `std::env::current_exe()` of the `repro` binary; children are
/// invoked as `exe serve --server-index I --listen 127.0.0.1:0 <job flags>` and
/// `exe worker --connect ADDR --server-addrs A,B,... --rank K <job flags>`.
///
/// # Panics
///
/// Panics if the configuration is inconsistent ([`JobConfig::validate`]).
pub fn launch_group(
    job: &JobConfig,
    listen: &str,
    exe: &Path,
) -> Result<GroupLaunchOutcome, NetError> {
    job.validate();
    let mut children: Vec<Child> = Vec::new();
    // The coordinator's worker-facing listener outlives the run: its connections
    // close only once every child has been reaped.
    let mut listener = None;
    let result = spawn_and_coordinate(job, listen, exe, &mut children, &mut listener);
    // The one exit path: a failed launch or run kills whatever it spawned and sweeps
    // the temp files a killed child may have left mid-checkpoint.
    let failed = result.is_err();
    let failures = reap(&mut children, failed, GROUP_CHILD);
    if failed {
        clean_checkpoint_tmps(job);
    }
    let outcome = result?;
    if let Some(failures) = failures {
        return Err(NetError::WorkerProcess(format!(
            "group child processes exited unsuccessfully (children 0..{} are the shard \
             servers, the workers follow in rank order): {failures}",
            job.servers
        )));
    }
    Ok(outcome)
}

/// Spawns the shard servers, binds the coordinator's listener into `listener`,
/// spawns the workers and coordinates the run, pushing every child it spawns onto
/// `children` for the caller to reap.
fn spawn_and_coordinate(
    job: &JobConfig,
    listen: &str,
    exe: &Path,
    children: &mut Vec<Child>,
    listener: &mut Option<TcpServerTransport>,
) -> Result<GroupLaunchOutcome, NetError> {
    // Phase 1: shard servers. Each prints its DSSP_LISTEN line before serving.
    let mut server_addrs: Vec<String> = Vec::with_capacity(job.servers);
    for index in 0..job.servers {
        let mut child = Command::new(exe)
            .arg("serve")
            .arg("--server-index")
            .arg(index.to_string())
            .arg("--listen")
            .arg("127.0.0.1:0")
            .args(dssp_net::cli::job_args(job))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| {
                NetError::WorkerProcess(format!("failed to spawn shard server {index}: {e}"))
            })?;
        let announced = read_listen_line(&mut child);
        children.push(child);
        server_addrs.push(announced.map_err(|e| {
            NetError::WorkerProcess(format!(
                "shard server {index} never announced its address: {e}"
            ))
        })?);
    }

    // Phase 2: the coordinator's worker-facing listener and its server links. One
    // spare slot past the workers: the admin channel (rank `num_workers`), which a
    // `repro -- drain`/`repro -- rebalance` CLI dials mid-run to request a live
    // migration. Left unused it costs nothing — the transport's drop path reaps
    // never-connected slots.
    let transport = listener.insert(TcpServerTransport::bind(listen, job.num_workers + 1)?);
    let coord_addr = transport.local_addr();
    let timeout = Some(Duration::from_millis(job.stall_timeout_ms.max(1)));
    let links = connect_links(&server_addrs, timeout)?;

    // Phase 3: worker processes.
    for rank in 0..job.num_workers {
        let child = Command::new(exe)
            .arg("worker")
            .arg("--connect")
            .arg(coord_addr.to_string())
            .arg("--server-addrs")
            .arg(server_addrs.join(","))
            .arg("--rank")
            .arg(rank.to_string())
            .args(dssp_net::cli::job_args(job))
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| NetError::WorkerProcess(format!("failed to spawn worker {rank}: {e}")))?;
        children.push(child);
    }

    let trace = coordinate(job, transport, links)?;
    Ok(GroupLaunchOutcome {
        trace,
        coord_addr,
        server_addrs,
    })
}

/// Reads a shard-server child's stdout until its `DSSP_LISTEN` line, then forwards
/// the rest of its output to this process's stdout from a background thread.
fn read_listen_line(child: &mut Child) -> Result<String, String> {
    let stdout = child.stdout.take().ok_or("stdout not piped")?;
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("read failed: {e}"))?;
        if n == 0 {
            return Err("child exited before announcing".to_string());
        }
        if let Some(addr) = line.trim_end().strip_prefix(LISTEN_LINE_PREFIX) {
            let addr = addr.trim().to_string();
            // Keep the child's remaining log lines visible without blocking it.
            std::thread::spawn(move || {
                let mut reader = reader;
                let mut line = String::new();
                while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                    print!("{line}");
                    line.clear();
                }
            });
            return Ok(addr);
        }
        print!("{line}");
    }
}

/// Sweeps checkpoint temp files out of the job's checkpoint directory. A child
/// killed between a checkpoint's temp-file write and its atomic rename leaks the
/// `*.ckpt.tmp` file; left in place, those accumulate across chaos-matrix restarts
/// and can be mistaken for checkpoints by directory listings. Called from every
/// child-reap path once the children are confirmed dead (so no child is still
/// mid-write when the sweep runs).
pub fn clean_checkpoint_tmps(job: &JobConfig) {
    let Some(spec) = &job.checkpoint else { return };
    let Ok(entries) = std::fs::read_dir(&spec.dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let is_tmp = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with(dssp_ps::CHECKPOINT_TMP_SUFFIX));
        if is_tmp {
            let _ = std::fs::remove_file(&path);
        }
    }
}
