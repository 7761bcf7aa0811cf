//! Regenerates the paper's tables and figures, and deploys the networked runtime.
//!
//! ```text
//! cargo run --release -p dssp-bench --bin repro -- <experiment> [--full]
//! cargo run --release -p dssp-bench --bin repro -- all --full
//! ```
//!
//! Experiments: `fig1 fig2 fig3a fig3b fig3c fig3d fig3e fig3f fig4 table1 throughput
//! theory ablation all`. By default experiments run at the quick scale; `--full` uses
//! the scale README's "Reproducing the paper's figures and tables" documents. None of
//! the modes measures speed: that is
//! the round-cost ledger's job (`bash benchmark/run.sh`, see `benchmark/README.md`).
//!
//! The deployment modes run real networked training over TCP (`dssp-net`, and
//! `dssp-coord` for multi-server groups). Job flags (`--model --policy --workers
//! --epochs --batch-size --seed --shards --servers --eval-every --straggler-ms
//! --deterministic`) are shared by every mode and must match between all processes of
//! a job (enforced by a config digest in the handshakes):
//!
//! ```text
//! # classic single server (--servers 1, the default)
//! repro serve  --listen 127.0.0.1:7070 [job flags] [--trace-out FILE]
//! repro worker --connect 127.0.0.1:7070 --rank K [job flags]
//! repro launch [--listen ADDR] [job flags] [--trace-out FILE]   # server + N worker processes
//!
//! # multi-server group (--servers N, needs --shards >= N)
//! repro serve  --server-index I --listen 127.0.0.1:0 [job flags]   # one shard server
//! repro coord  --listen ADDR --server-addrs A,B,... [job flags] [--trace-out FILE]
//! repro worker --connect COORD --server-addrs A,B,... --rank K [job flags]
//! repro launch --servers 2 --workers 4 [job flags] [--trace-out FILE]   # whole group
//! (prefix with `cargo run --release -p dssp-bench --bin repro -- ` to build-and-run)
//! ```
//!
//! A shard server binding an ephemeral port announces it on stdout as
//! `DSSP_LISTEN <addr>`, which is how `launch` wires the group together.
//!
//! Chaos: every deployment mode accepts `--fault role:phase:action:after` and
//! `--checkpoint-dir D [--checkpoint-every N] [--restore]`; a process whose own
//! kill plan (`restart`, `evict`) fires exits with the distinct code
//! [`dssp_net::FAULT_EXIT_CODE`] so a supervisor can tell a planned kill from a real
//! crash, while an `abort` plan (`server0:push:abort:N`, `coord:push:abort:N`) stops
//! the run with the shutdown broadcast and exits 1, as any failed run does. The `chaos-smoke` mode runs
//! one kill+restart cell per role (worker, shard server, coordinator), plus a
//! coordinator kill half a second into the run that must resume, over real
//! processes (`launch --servers 2 --workers 3`) and writes the per-cell outcomes to
//! `TRACE_chaos_smoke.json`, exiting nonzero if any cell ends outside its designed
//! outcome set:
//!
//! ```text
//! cargo run --release -p dssp-bench --bin repro -- chaos-smoke [--out FILE]
//! ```
//!
//! Live migration: a running group can move shard ownership between its servers
//! without stopping. `--migrate drain:<server>:<at_version>` schedules a drain
//! declaratively (a spec the job can never run is refused up front), and two admin
//! subcommands drive one from the outside (they dial the coordinator's spare admin
//! slot and exit once the migration commits or is refused):
//!
//! ```text
//! repro drain <server-index> --connect COORD [job flags]   # empty one server live
//! repro rebalance --connect COORD [job flags]              # re-spread the shards
//! repro migration-smoke [--out FILE]   # 3-server drain mid-run + /metrics epoch check
//! ```
//!
//! Observability: every deployment mode accepts `--event-log DIR` (per-role NDJSON
//! event timelines, causally trace-stamped since protocol v6) and `--metrics-addr
//! HOST:PORT` (live Prometheus `GET /metrics`; shard server `i` scrapes at
//! `PORT+1+i`). Three companion modes consume them:
//!
//! ```text
//! repro stats --addr HOST:PORT[,HOST:PORT...]     # scrape + one-screen fleet summary
//! repro trace <run.json | events-dir> [-o FILE]   # render chrome-trace JSON
//! repro analyze <events-dir> [--json] [-o FILE]   # per-round fleet-health report
//! ```

use dssp_bench as bench;
use dssp_core::presets::Scale;
use dssp_core::{json, report};
use dssp_net::cli::{flag_value, job_from_flags};

/// Maps a run-ending error to the process exit code: a fired fault plan exits with
/// the distinct [`dssp_net::FAULT_EXIT_CODE`], everything else with 1.
fn exit_code_for(e: &dssp_net::NetError) -> i32 {
    if matches!(e, dssp_net::NetError::FaultInjected { .. }) {
        dssp_net::FAULT_EXIT_CODE
    } else {
        1
    }
}

fn net_job_or_exit(args: &[String]) -> dssp_core::driver::JobConfig {
    match job_from_flags(args) {
        Ok(job) => job,
        Err(msg) => {
            eprintln!("invalid job flags: {msg}");
            std::process::exit(2);
        }
    }
}

fn write_trace(trace: &dssp_core::RunTrace, args: &[String]) {
    println!("{}", report::trace_summary_line(trace));
    println!(
        "DSSP extra iterations granted (r* total): {}",
        trace.server_stats.credits_granted
    );
    if let Some(path) = flag_value(args, "--trace-out") {
        let json = report::trace_json(trace);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}

fn run_serve_mode(args: &[String]) {
    let job = net_job_or_exit(args);
    let listen = flag_value(args, "--listen").unwrap_or_else(|| "127.0.0.1:0".to_string());
    if let Some(index) = flag_value(args, "--server-index") {
        let index: usize = match index.parse() {
            Ok(i) if i < job.servers => i,
            _ => {
                eprintln!("--server-index must be an integer below --servers");
                std::process::exit(2);
            }
        };
        // Shard-server mode: one extra client slot for the coordinator.
        let mut transport = match dssp_net::TcpServerTransport::bind(&listen, job.num_workers + 1) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("failed to bind {listen}: {e}");
                std::process::exit(1);
            }
        };
        // The launcher parses this line to learn the ephemeral port.
        println!(
            "{}{}",
            dssp_coord::LISTEN_LINE_PREFIX,
            transport.local_addr()
        );
        println!(
            "shard server {index}/{} serving {} workers + coordinator on {}",
            job.servers,
            job.num_workers,
            transport.local_addr()
        );
        match dssp_coord::serve_shard(&job, index, &mut transport) {
            Ok(report) => println!(
                "shard server {index}: {} pushes applied, {} full + {} delta pulls served",
                report.pushes, report.pulls_full, report.pulls_delta
            ),
            Err(e) => {
                eprintln!("shard server {index} failed: {e}");
                std::process::exit(exit_code_for(&e));
            }
        }
        return;
    }
    if job.servers > 1 {
        eprintln!(
            "--servers {} needs either --server-index I (shard-server mode) or the \
             coord/launch modes",
            job.servers
        );
        std::process::exit(2);
    }
    let mut transport = match dssp_net::TcpServerTransport::bind(&listen, job.num_workers) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("failed to bind {listen}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "serving {} workers on {} (policy {})",
        job.num_workers,
        transport.local_addr(),
        job.policy
    );
    match dssp_net::serve(&job, &mut transport) {
        Ok(trace) => write_trace(&trace, args),
        Err(e) => {
            eprintln!("server failed: {e}");
            std::process::exit(exit_code_for(&e));
        }
    }
}

fn server_addrs_or_exit(args: &[String], job: &dssp_core::driver::JobConfig) -> Vec<String> {
    let Some(addrs) = flag_value(args, "--server-addrs") else {
        eprintln!("group mode requires --server-addrs A,B,... (one per shard server)");
        std::process::exit(2);
    };
    let addrs: Vec<String> = addrs
        .split(',')
        .map(|a| a.trim().to_string())
        .filter(|a| !a.is_empty())
        .collect();
    if addrs.len() != job.servers {
        eprintln!(
            "--server-addrs lists {} addresses but the job has --servers {}",
            addrs.len(),
            job.servers
        );
        std::process::exit(2);
    }
    addrs
}

fn run_coord_mode(args: &[String]) {
    let job = net_job_or_exit(args);
    let addrs = server_addrs_or_exit(args, &job);
    let listen = flag_value(args, "--listen").unwrap_or_else(|| "127.0.0.1:0".to_string());
    // One spare slot past the workers: the admin channel that `repro -- drain` /
    // `repro -- rebalance` dial mid-run (reaped on shutdown if never used).
    let mut transport = match dssp_net::TcpServerTransport::bind(&listen, job.num_workers + 1) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("failed to bind {listen}: {e}");
            std::process::exit(1);
        }
    };
    let timeout = std::time::Duration::from_millis(job.stall_timeout_ms.max(1));
    let links = match dssp_coord::connect_links(&addrs, Some(timeout)) {
        Ok(links) => links,
        Err(e) => {
            eprintln!("failed to connect to the shard servers: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "coordinating {} workers over {} shard servers on {} (policy {})",
        job.num_workers,
        job.servers,
        transport.local_addr(),
        job.policy
    );
    match dssp_coord::coordinate(&job, &mut transport, links) {
        Ok(trace) => write_trace(&trace, args),
        Err(e) => {
            eprintln!("coordinator failed: {e}");
            std::process::exit(exit_code_for(&e));
        }
    }
}

fn run_worker_mode(args: &[String]) {
    let job = net_job_or_exit(args);
    let Some(addr) = flag_value(args, "--connect") else {
        eprintln!("worker mode requires --connect ADDR");
        std::process::exit(2);
    };
    let rank: usize = match flag_value(args, "--rank").map(|r| r.parse()) {
        Some(Ok(rank)) if rank < job.num_workers => rank,
        _ => {
            eprintln!("worker mode requires --rank K with K < --workers");
            std::process::exit(2);
        }
    };
    let mut transport = match dssp_net::TcpWorkerTransport::connect(&addr) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("worker {rank} failed to connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    let result = if flag_value(args, "--server-addrs").is_some() {
        // Group worker: clock traffic to the coordinator at --connect, bulk traffic
        // fanned over the shard servers.
        let addrs = server_addrs_or_exit(args, &job);
        let timeout = std::time::Duration::from_millis(job.stall_timeout_ms.max(1));
        let links = match dssp_coord::connect_links(&addrs, Some(timeout)) {
            Ok(links) => links,
            Err(e) => {
                eprintln!("worker {rank} failed to connect to the shard servers: {e}");
                std::process::exit(1);
            }
        };
        dssp_coord::run_group_worker(&job, rank, &mut transport, links)
    } else {
        dssp_net::run_worker(&job, rank, &mut transport)
    };
    match result {
        Ok(r) => {
            println!(
                "worker {rank}: {} iterations, {} epochs, waited {:.3}s, r* credits seen {}{}",
                r.iterations,
                r.epochs,
                r.waiting_time_s,
                r.granted_extra_total,
                if r.shutdown_early {
                    " (server shut the run down early)"
                } else {
                    ""
                }
            );
        }
        Err(e) => {
            eprintln!("worker {rank} failed: {e}");
            std::process::exit(exit_code_for(&e));
        }
    }
}

fn run_launch_mode(args: &[String]) {
    let job = net_job_or_exit(args);
    let listen = flag_value(args, "--listen").unwrap_or_else(|| "127.0.0.1:0".to_string());
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate own executable: {e}");
            std::process::exit(1);
        }
    };
    if job.servers > 1 {
        println!(
            "launching a {}-server group with {} worker processes (policy {}, model {})",
            job.servers,
            job.num_workers,
            job.policy,
            job.model.display_name()
        );
        match dssp_coord::launch_group(&job, &listen, &exe) {
            Ok(outcome) => write_trace(&outcome.trace, args),
            Err(e) => {
                eprintln!("group launch failed: {e}");
                std::process::exit(exit_code_for(&e));
            }
        }
        return;
    }
    println!(
        "launching {} worker processes (policy {}, model {})",
        job.num_workers,
        job.policy,
        job.model.display_name()
    );
    match dssp_net::launch::launch(&job, &listen, &exe) {
        Ok(outcome) => write_trace(&outcome.trace, args),
        Err(e) => {
            eprintln!("launch failed: {e}");
            std::process::exit(exit_code_for(&e));
        }
    }
}

/// One kill+restart chaos cell per role over real processes: leg A launches the
/// group with the cell's fault plan armed and must *fail*; leg B relaunches with
/// `--restore` (fault dropped, as a supervisor would) and must either resume or be
/// refused with one of the designed typed errors. Everything else fails the smoke.
fn run_chaos_smoke_mode(args: &[String]) {
    use dssp_core::driver::{CheckpointSpec, FaultPlan, JobConfig};

    let out_path = flag_value(args, "--out").unwrap_or_else(|| "TRACE_chaos_smoke.json".into());
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate own executable: {e}");
            std::process::exit(1);
        }
    };
    let scratch = std::env::temp_dir().join(format!("dssp_chaos_smoke_{}", std::process::id()));

    // Each cell is `(fault, policy, straggler delay in ms, leg B must resume)`. One
    // restart cell per role at the push phase (the one every role has), milliseconds
    // into the run; the coordinator's push cell always tears (the shard servers hold
    // the push its checkpoint misses), so it ends in a designed refusal. The last cell
    // kills the coordinator right after a consistent cut, ≈ 0.5 s into a wall-clock
    // run: under BSP behind an 80 ms-per-iteration straggler, checkpoint 20 follows
    // the second fast worker's push of round 7 of 11, when both fast workers wait at
    // the gate and only the straggler computes. Its leg B must resume, and the
    // restored coordinator's policy clock must carry on from the checkpoint's.
    let dssp = dssp_ps::PolicyKind::Dssp { s_l: 1, r_max: 2 };
    let cells = [
        ("worker1:push:restart:3", dssp, 0, false),
        ("server0:push:restart:3", dssp, 0, false),
        ("coord:push:restart:3", dssp, 0, false),
        ("coord:ckpt:restart:20", dssp_ps::PolicyKind::Bsp, 80, true),
    ];
    let mut records = Vec::new();
    let mut all_ok = true;
    for (spec, policy, straggler_ms, must_resume) in cells {
        let plan = FaultPlan::parse(spec).expect("smoke cell spec parses");
        let dir = scratch.join(spec.replace(':', "_"));
        let _ = std::fs::remove_dir_all(&dir);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }

        let mut job = JobConfig::small(policy);
        job.num_workers = 3;
        if straggler_ms > 0 {
            // The last rank, the one straggler the worker command line can carry.
            job.extra_compute_delay_ms = vec![0, 0, straggler_ms];
        }
        job.shards = 4;
        job.servers = 2;
        job.epochs = 1;
        // Keep the dead-shard collapse window short: prompt shard replies make a
        // few seconds of read timeout plenty.
        job.stall_timeout_ms = 5_000;
        // Checkpoint on every push so each role has a durable cut before the fault
        // fires at push 3 (the push fault trips *before* that push's checkpoint
        // write, so a sparser cadence would leave leg B with nothing to restore).
        job.checkpoint = Some(CheckpointSpec {
            dir: dir.clone(),
            every_pushes: 1,
            restore: false,
        });
        job.fault_plan = Some(plan);

        let mut cell_ok = true;
        println!("== chaos cell {spec}: leg A (fault armed) ==");
        let leg_a = match dssp_coord::launch_group(&job, "127.0.0.1:0", &exe) {
            Ok(_) => {
                cell_ok = false;
                "unexpectedly completed".to_string()
            }
            Err(e) => format!("failed as planned: {e}"),
        };

        println!("== chaos cell {spec}: leg B (restore, fault dropped) ==");
        job.fault_plan = None;
        if let Some(ckpt) = job.checkpoint.as_mut() {
            ckpt.restore = true;
        }
        let leg_b = match dssp_coord::launch_group(&job, "127.0.0.1:0", &exe) {
            Ok(outcome) => format!("resumed ({} pushes)", outcome.trace.total_pushes),
            Err(e) => {
                let msg = e.to_string();
                let lower = msg.to_lowercase();
                let designed = lower.contains("restore skew")
                    || lower.contains("retired")
                    || lower.contains("checkpoint");
                if designed && !must_resume {
                    format!("refused: {msg}")
                } else {
                    cell_ok = false;
                    format!("failed outside the designed outcome set: {msg}")
                }
            }
        };
        if !cell_ok {
            all_ok = false;
        }
        println!("cell {spec}: leg A {leg_a}; leg B {leg_b}");
        records.push(format!(
            "    {{\"cell\": {}, \"leg_a\": {}, \"leg_b\": {}, \"ok\": {}}}",
            json::escape(spec),
            json::escape(&leg_a),
            json::escape(&leg_b),
            cell_ok
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let json = format!(
        "{{\n  \"id\": \"chaos_smoke\",\n  \"ok\": {all_ok},\n  \"cells\": [\n{}\n  ]\n}}\n",
        records.join(",\n")
    );
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
    if !all_ok {
        eprintln!("chaos smoke failed: a cell ended outside its designed outcome set");
        std::process::exit(1);
    }
}

/// The operator side of a live migration: dials the coordinator's admin slot, sends
/// `Drain`/`Rebalance`, and blocks until the coordinator acks the outcome. `--workers`
/// must match the running job (the admin speaks as rank `num_workers`).
fn run_admin_mode(args: &[String], subcommand: &str) {
    let job = net_job_or_exit(args);
    let Some(addr) = flag_value(args, "--connect") else {
        eprintln!("{subcommand} mode requires --connect COORD_ADDR");
        std::process::exit(2);
    };
    let command = if subcommand == "drain" {
        let server: u32 = match args
            .get(1)
            .filter(|a| !a.starts_with('-'))
            .map(|a| a.parse())
        {
            Some(Ok(server)) => server,
            _ => {
                eprintln!("drain mode requires a server index: repro -- drain <server-index>");
                std::process::exit(2);
            }
        };
        dssp_net::Message::Drain { server }
    } else {
        dssp_net::Message::Rebalance
    };
    let mut transport = match dssp_net::TcpWorkerTransport::connect(&addr) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{subcommand} failed to connect to the coordinator at {addr}: {e}");
            std::process::exit(1);
        }
    };
    match dssp_coord::run_admin_command(&mut transport, job.num_workers, &command) {
        Ok((epoch, _)) => {
            println!("migration committed: the group now runs layout epoch {epoch}");
        }
        Err(e) => {
            eprintln!("{subcommand} failed: {e}");
            std::process::exit(1);
        }
    }
}

/// One live-migration smoke over real processes: a 3-server deterministic group with
/// a declarative mid-run drain. The run must complete with every survivor finishing,
/// the coordinator's `/metrics` endpoint must report the layout-epoch bump while the
/// run is still live, and the coordinator's event log must record the commit.
fn run_migration_smoke_mode(args: &[String]) {
    use dssp_core::driver::{JobConfig, MigrationSpec};
    use dssp_net::metrics::{parse_exposition, scrape};

    let out_path =
        flag_value(args, "--out").unwrap_or_else(|| "TRACE_migration_smoke.json".to_string());
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate own executable: {e}");
            std::process::exit(1);
        }
    };
    let scratch = std::env::temp_dir().join(format!("dssp_migration_smoke_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("cannot create {}: {e}", scratch.display());
        std::process::exit(1);
    }

    let mut job = JobConfig::small(dssp_ps::PolicyKind::Dssp { s_l: 1, r_max: 8 });
    job.num_workers = 2;
    job.shards = 4;
    job.servers = 3;
    job.epochs = 1;
    job.deterministic = true;
    job.stall_timeout_ms = 5_000;
    // Slow the straggler so the post-commit run leaves a comfortable window for
    // the /metrics poll below to observe the epoch-1 gauge live. (Straggler-shaped
    // — zeros then a delay on the last rank — because `launch_group`'s child
    // processes reconstruct the delays from `--straggler-ms` and every role must
    // agree on the config digest.)
    let mut delays = vec![0; job.num_workers];
    delays[job.num_workers - 1] = 10;
    job.extra_compute_delay_ms = delays;
    job.migration = Some(MigrationSpec {
        drain: 2,
        at_version: 8,
    });
    job.event_log = Some(scratch.clone());
    let metrics_addr = "127.0.0.1:9184".to_string();
    job.metrics_addr = Some(metrics_addr.clone());

    println!("== migration smoke: 3-server group, drain server 2 at version 8 ==");
    let launcher = {
        let job = job.clone();
        std::thread::spawn(move || dssp_coord::launch_group(&job, "127.0.0.1:0", &exe))
    };
    // Poll the coordinator's live gauge until the commit lands (or the run ends).
    let mut live_epoch = 0u64;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while live_epoch < 1 && std::time::Instant::now() < deadline && !launcher.is_finished() {
        std::thread::sleep(std::time::Duration::from_millis(20));
        if let Ok(page) = scrape(&metrics_addr) {
            if let Ok(exp) = parse_exposition(&page) {
                live_epoch = exp.value("dssp_layout_epoch", &[]).unwrap_or(0.0) as u64;
            }
        }
    }
    let run = launcher.join().expect("launcher thread");
    let survivors_finished = matches!(&run, Ok(outcome) if outcome.trace.total_pushes > 0);
    let committed_in_log = std::fs::read_to_string(scratch.join("coord.ndjson"))
        .map(|s| s.contains("migration-commit"))
        .unwrap_or(false);
    let ok = survivors_finished && live_epoch >= 1 && committed_in_log;
    let detail = match &run {
        Ok(outcome) => format!("completed with {} pushes", outcome.trace.total_pushes),
        Err(e) => format!("run failed: {e}"),
    };
    println!(
        "survivors finished: {survivors_finished}; live /metrics epoch: {live_epoch}; \
         commit in event log: {committed_in_log}"
    );
    let json = format!(
        "{{\n  \"id\": \"migration_smoke\",\n  \"ok\": {ok},\n  \"live_epoch\": {live_epoch},\n  \
         \"commit_in_log\": {committed_in_log},\n  \"detail\": {}\n}}\n",
        json::escape(&detail)
    );
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
    if !ok {
        eprintln!("migration smoke failed ({detail})");
        std::process::exit(1);
    }
}

/// Renders a chrome-trace (Trace Event Format) timeline from either an `--event-log`
/// directory (per-role NDJSON files) or a `--trace-out` run record. Open the output
/// in `chrome://tracing` or Perfetto.
fn run_trace_mode(args: &[String]) {
    let Some(input) = args.get(1).filter(|a| !a.starts_with('-')) else {
        eprintln!(
            "trace mode requires an input: an --event-log directory or a --trace-out JSON file"
        );
        std::process::exit(2);
    };
    let out = flag_value(args, "-o")
        .or_else(|| flag_value(args, "--out"))
        .unwrap_or_else(|| "trace.json".to_string());
    let path = std::path::Path::new(input);
    let json = if path.is_dir() {
        let events = match dssp_core::events::read_dir_events(path) {
            Ok(events) => events,
            Err(e) => {
                eprintln!("failed to read event logs under {input}: {e}");
                std::process::exit(1);
            }
        };
        if events.is_empty() {
            eprintln!("no events found under {input} (expected *.ndjson files from --event-log)");
            std::process::exit(1);
        }
        println!("{} events across the fleet", events.len());
        dssp_core::chrome_trace::render_chrome_trace(&events)
    } else {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("failed to read {input}: {e}");
                std::process::exit(1);
            }
        };
        match dssp_core::chrome_trace::parse_run_trace(&text) {
            Ok(run) => dssp_core::chrome_trace::render_chrome_trace_from_run(&run),
            Err(e) => {
                eprintln!("{input} is not a --trace-out run record: {e}");
                std::process::exit(1);
            }
        }
    };
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out} (open in chrome://tracing or https://ui.perfetto.dev)");
}

/// Joins an `--event-log` directory's per-role NDJSON streams into the fleet-health
/// report: per-round compute/comms/gate-wait breakdowns per worker, cross-role push
/// latency percentiles (joined on the v6 trace ids), a staleness CDF, slow-round
/// culprits and the z-score straggler verdicts.
fn run_analyze_mode(args: &[String]) {
    let Some(input) = args.get(1).filter(|a| !a.starts_with('-')) else {
        eprintln!("analyze mode requires an input: an --event-log directory");
        std::process::exit(2);
    };
    let analysis = match dssp_core::analyze::analyze_dir(std::path::Path::new(input)) {
        Ok(analysis) => analysis,
        Err(e) => {
            eprintln!("failed to read event logs under {input}: {e}");
            std::process::exit(1);
        }
    };
    if analysis.events == 0 {
        eprintln!("no events found under {input} (expected *.ndjson files from --event-log)");
        std::process::exit(1);
    }
    if args.iter().any(|a| a == "--json") {
        println!("{}", analysis.to_json());
    } else {
        print!("{}", analysis.to_text());
    }
    if let Some(out) = flag_value(args, "-o").or_else(|| flag_value(args, "--out")) {
        if let Err(e) = std::fs::write(&out, analysis.to_json()) {
            eprintln!("failed to write {out}: {e}");
            std::process::exit(1);
        }
        println!("wrote {out}");
    }
}

/// Scrapes one or more live `/metrics` endpoints and prints a one-screen summary per
/// process. Comma-separate addresses to cover a group (coordinator at the base port,
/// shard server `i` at base+1+i).
fn run_stats_mode(args: &[String]) {
    use dssp_net::metrics::{parse_exposition, scrape};

    let Some(addrs) = flag_value(args, "--addr") else {
        eprintln!("stats mode requires --addr HOST:PORT[,HOST:PORT...]");
        std::process::exit(2);
    };
    let mut ok = true;
    for addr in addrs.split(',').map(str::trim).filter(|a| !a.is_empty()) {
        let page = match scrape(addr) {
            Ok(page) => page,
            Err(e) => {
                eprintln!("scrape of {addr} failed: {e}");
                ok = false;
                continue;
            }
        };
        let exp = match parse_exposition(&page) {
            Ok(exp) => exp,
            Err(e) => {
                eprintln!("{addr} served a malformed exposition page: {e}");
                ok = false;
                continue;
            }
        };
        print_fleet_summary(addr, &exp);
    }
    if !ok {
        std::process::exit(1);
    }
}

fn human_bytes(v: f64) -> String {
    if v >= 1024.0 * 1024.0 {
        format!("{:.1} MiB", v / (1024.0 * 1024.0))
    } else if v >= 1024.0 {
        format!("{:.1} KiB", v / 1024.0)
    } else {
        format!("{v:.0} B")
    }
}

fn print_fleet_summary(addr: &str, exp: &dssp_net::metrics::Exposition) {
    let v = |name: &str| exp.value(name, &[]).unwrap_or(0.0);
    let (role, rank) = exp
        .samples
        .first()
        .map(|s| {
            (
                s.label("role").unwrap_or("?").to_string(),
                s.label("rank").unwrap_or("?").to_string(),
            )
        })
        .unwrap_or_else(|| ("?".to_string(), "?".to_string()));
    println!("== {role}/{rank} @ {addr} ==");
    println!(
        "  model version {:.0}, {:.0} worker(s) blocked at the gate",
        v("dssp_model_version"),
        v("dssp_blocked_workers")
    );
    let full = exp
        .value("dssp_pulls_total", &[("mode", "full")])
        .unwrap_or(0.0);
    let delta = exp
        .value("dssp_pulls_total", &[("mode", "delta")])
        .unwrap_or(0.0);
    let hit = if full + delta > 0.0 {
        100.0 * delta / (full + delta)
    } else {
        0.0
    };
    println!(
        "  pushes {:.0} ({:.0} blocked), pulls {:.0} (delta hit {hit:.1}%)",
        v("dssp_pushes_total"),
        v("dssp_blocked_pushes_total"),
        full + delta
    );
    println!(
        "  r* credits granted {:.0}, reclaimed {:.0}",
        v("dssp_credits_granted_total"),
        v("dssp_credits_reclaimed_total")
    );
    let sum = v("dssp_staleness_sum");
    let count = v("dssp_staleness_count");
    if count > 0.0 {
        println!(
            "  staleness mean {:.2} over {count:.0} gated pushes",
            sum / count
        );
    }
    let sent = exp
        .value("dssp_bytes_total", &[("direction", "sent")])
        .unwrap_or(0.0);
    let received = exp
        .value("dssp_bytes_total", &[("direction", "received")])
        .unwrap_or(0.0);
    println!(
        "  transport {} sent, {} received",
        human_bytes(sent),
        human_bytes(received)
    );
    println!(
        "  layout epoch {:.0}, {:.0} shard(s) owned",
        v("dssp_layout_epoch"),
        v("dssp_shards_owned")
    );
    let rounds = v("dssp_round_time_count");
    if rounds > 0.0 {
        println!(
            "  round time mean {:.0}µs over {rounds:.0} rounds",
            v("dssp_round_time_sum") / rounds
        );
    }
    let gated = v("dssp_push_latency_count");
    if gated > 0.0 {
        println!(
            "  push gate latency mean {:.0}µs over {gated:.0} pushes",
            v("dssp_push_latency_sum") / gated
        );
    }
    let stragglers: Vec<String> = exp
        .samples
        .iter()
        .filter(|s| s.name == "dssp_straggler" && s.value > 0.5)
        .filter_map(|s| s.label("worker").map(str::to_string))
        .collect();
    if !stragglers.is_empty() {
        println!("  STRAGGLERS: workers {}", stragglers.join(", "));
    }
    println!(
        "  joins {:.0}, reconnects {:.0}, evictions {:.0}, checkpoints {:.0}, events dropped {:.0}",
        v("dssp_joins_total"),
        v("dssp_reconnects_total"),
        v("dssp_evictions_total"),
        v("dssp_checkpoints_written_total"),
        v("dssp_events_dropped_total")
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => {
            run_serve_mode(&args);
            return;
        }
        Some("coord") => {
            run_coord_mode(&args);
            return;
        }
        Some("worker") => {
            run_worker_mode(&args);
            return;
        }
        Some("launch") => {
            run_launch_mode(&args);
            return;
        }
        Some("chaos-smoke") => {
            run_chaos_smoke_mode(&args);
            return;
        }
        Some("drain") => {
            run_admin_mode(&args, "drain");
            return;
        }
        Some("rebalance") => {
            run_admin_mode(&args, "rebalance");
            return;
        }
        Some("migration-smoke") => {
            run_migration_smoke_mode(&args);
            return;
        }
        Some("trace") => {
            run_trace_mode(&args);
            return;
        }
        Some("analyze") => {
            run_analyze_mode(&args);
            return;
        }
        Some("stats") => {
            run_stats_mode(&args);
            return;
        }
        _ => {}
    }
    let scale = if args.iter().any(|a| a == "--full") {
        Scale::Full
    } else {
        Scale::Quick
    };
    let targets: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let selected = if targets.is_empty() {
        vec!["all"]
    } else {
        targets
    };

    for target in selected {
        match target {
            "fig1" => print_experiment("fig1", bench::fig1()),
            "fig2" => print_experiment("fig2", bench::fig2()),
            "fig3a" => print_experiment("fig3a", bench::fig3a(scale)),
            "fig3b" => print_experiment("fig3b", bench::fig3b(scale)),
            "fig3c" => print_experiment("fig3c", bench::fig3c(scale)),
            "fig3d" => print_experiment("fig3d", bench::fig3d(scale)),
            "fig3e" => print_experiment("fig3e", bench::fig3e(scale)),
            "fig3f" => print_experiment("fig3f", bench::fig3f(scale)),
            "fig4" => print_experiment("fig4", bench::fig4(scale)),
            "table1" => print_experiment("table1", bench::table1(scale)),
            "throughput" => print_experiment("throughput", bench::throughput(scale)),
            "theory" => print_experiment("theory", bench::theory()),
            "ablation" => print_experiment("ablation", bench::ablation_rmax(scale)),
            "ablation_strict" => print_experiment("ablation_strict", bench::ablation_strict(scale)),
            "all" => {
                print_experiment("fig1", bench::fig1());
                print_experiment("fig2", bench::fig2());
                print_experiment("fig3a", bench::fig3a(scale));
                print_experiment("fig3b", bench::fig3b(scale));
                print_experiment("fig3c", bench::fig3c(scale));
                print_experiment("fig3d", bench::fig3d(scale));
                print_experiment("fig3e", bench::fig3e(scale));
                print_experiment("fig3f", bench::fig3f(scale));
                print_experiment("fig4", bench::fig4(scale));
                print_experiment("table1", bench::table1(scale));
                print_experiment("throughput", bench::throughput(scale));
                print_experiment("theory", bench::theory());
                print_experiment("ablation", bench::ablation_rmax(scale));
                print_experiment("ablation_strict", bench::ablation_strict(scale));
            }
            other => {
                eprintln!("unknown experiment '{other}'");
                eprintln!(
                    "expected one of: fig1 fig2 fig3a fig3b fig3c fig3d fig3e fig3f fig4 \
                     table1 throughput theory ablation ablation_strict all serve coord worker \
                     launch chaos-smoke drain rebalance migration-smoke trace analyze stats"
                );
                std::process::exit(2);
            }
        }
    }
}

fn print_experiment(id: &str, body: String) {
    println!("################################################################");
    println!("# {id}");
    println!("################################################################");
    println!("{body}");
}
