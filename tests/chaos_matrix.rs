//! The role×phase chaos matrix: kill (worker | shard server | coordinator) while it
//! is (pushing | pulling | gate-blocked | checkpointing), then either restart the
//! fleet from its checkpoints or run on without the victim — and assert that every
//! cell ends in one of exactly two ways:
//!
//! 1. **bitwise recovery** — in deterministic mode the resumed run's terminal
//!    checkpoint files are byte-identical to an unfailed reference run's, or
//! 2. **a clean typed abort** — torn per-role checkpoints, a finished snapshot, or
//!    a collapsed fleet are refused with a descriptive [`NetError`],
//!
//! and never in a hang or a leaked thread (every leg is wall-clock bounded and every
//! helper joins all the threads it spawned). Each leg runs under a watchdog
//! ([`watched`]): a leg that outlives its bound fails its test with a report naming
//! the cell, its fault plan and each role's last event, instead of hanging the suite.
//!
//! Cells absent from the matrix, and why:
//! - `worker*:ckpt:*` — workers persist nothing, so the phase never occurs.
//! - `server*:gate:*` in the group topology — shard servers are storage-only; the
//!   synchronization gate lives in the coordinator. (The single-server topology
//!   covers the server-side gate cell instead.)
//! - `worker*:*:restart` mid-run — a rank's connection is admitted once per server
//!   lifetime, so restarting a single worker degrades to eviction at fleet level;
//!   whole-fleet worker restart is exactly what the server restart cells exercise
//!   via the re-handshake/replay path.

use dssp::coord::run_group_threads;
use dssp::core::driver::{
    CheckpointSpec, FaultAction, FaultPhase, FaultPlan, FaultRole, JobConfig, MigrationSpec,
};
use dssp::core::events::{encode_line, live_logs};
use dssp::net::{
    run_worker, serve, NetError, TcpServerTransport, TcpWorkerTransport, WorkerReport,
};
use dssp::{PolicyKind, RunTrace};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::{Duration, Instant};

/// Wall-clock ceiling for a single-server leg, and its watchdog's deadline (a leg
/// finishes in under 0.1 s; the bound only exists to convert a hang into a loud
/// failure).
const SINGLE_BOUND_S: u64 = 60;
/// Wall-clock ceiling for a group leg, and its watchdog's deadline: about six times
/// the slowest leg (a fleet collapsing after a shard server's death waits out the
/// bounded reconnect schedule, about 30 s; every other group leg takes under 10 s).
const GROUP_BOUND_S: u64 = 180;

/// A per-cell scratch directory under the system temp dir, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("dssp_chaos_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Self(dir)
    }

    fn path(&self) -> PathBuf {
        self.0.clone()
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one leg of `cell` — `leg(job)`, with the roles logging events into a fresh
/// directory — on its own thread, and returns what it returns. If the leg is still
/// running after `bound_s` seconds, prints the cell, the fault plan and each role's
/// last event, then fails the test: a hung leg ends its test instead of the suite.
fn watched<T: Send + 'static>(
    cell: &str,
    job: &JobConfig,
    bound_s: u64,
    leg: fn(&JobConfig) -> T,
) -> T {
    static LEGS: AtomicUsize = AtomicUsize::new(0);
    let events = ScratchDir::new(&format!("events{}", LEGS.fetch_add(1, Ordering::Relaxed)));
    let mut job = job.clone();
    job.event_log = Some(events.path());
    let plan = job
        .fault_plan
        .as_ref()
        .map_or("none".to_string(), FaultPlan::to_spec);
    let (done, finished) = mpsc::channel();
    let runner = thread::spawn(move || {
        let _ = done.send(leg(&job));
    });
    match finished.recv_timeout(Duration::from_secs(bound_s)) {
        Ok(out) => {
            runner.join().expect("the leg returned");
            out
        }
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().expect_err("the leg panicked"))
        }
        Err(RecvTimeoutError::Timeout) => {
            // The hung leg's thread cannot be joined; the test binary exits without it.
            let last = last_events(&events.path());
            panic!("{cell}: leg still running after {bound_s} s; fault plan {plan}\n{last}");
        }
    }
}

/// Each role's last event in `dir`: a running role's from its live log, a finished
/// role's from the file it flushed.
fn last_events(dir: &Path) -> String {
    let mut report = String::new();
    for log in live_logs(dir) {
        let last = log
            .events()
            .last()
            .map_or("no event".to_string(), encode_line);
        report += &format!("  running  {}: {last}\n", log.file_name());
    }
    let mut flushed: Vec<_> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|entry| entry.path())
        .collect();
    flushed.sort();
    for path in flushed {
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        report += &format!(
            "  finished {name}: {}\n",
            text.lines().last().unwrap_or("no event")
        );
    }
    report
}

/// Checkpoint cadence for every cell: one write per BSP round (`num_workers`
/// pushes). Under deterministic BSP this makes every durable cut a *round
/// boundary* — the one kind of cut where no worker holds a gradient computed from
/// pre-cut weights, so a restored fleet rebases onto exactly the basis the
/// unfailed run used and recovery is bitwise. (Under DSSP a worker's gradient
/// basis is worker-side state no server checkpoint can capture: a resumed run is a
/// *valid* DSSP execution and deterministic in itself, but rebases the fleet onto
/// the cut — see [`single_server_dssp_restart_resumes_deterministically`].)
const CADENCE: u64 = 2;

fn checkpointing(dir: PathBuf, restore: bool) -> Option<CheckpointSpec> {
    Some(CheckpointSpec {
        dir,
        every_pushes: CADENCE,
        restore,
    })
}

fn single_job(policy: PolicyKind) -> JobConfig {
    let mut job = JobConfig::small(policy);
    job.epochs = 1;
    job.deterministic = true;
    assert_eq!(
        job.num_workers, CADENCE as usize,
        "the matrix's cadence is one checkpoint per BSP round"
    );
    job
}

fn group_job(policy: PolicyKind) -> JobConfig {
    let mut job = single_job(policy);
    job.shards = 4;
    job.servers = 2;
    job
}

/// Runs a single-server TCP job with every role on a thread, returning the server's
/// result and each worker's, joining everything (nothing leaks even when a leg
/// fails). The server transport is dropped *before* the worker joins, so a faulted
/// server's abrupt death is observable as a closed socket — the same thing a killed
/// process produces.
fn run_single(
    job: &JobConfig,
) -> (
    Result<RunTrace, NetError>,
    Vec<Result<WorkerReport, NetError>>,
) {
    let mut server = TcpServerTransport::bind("127.0.0.1:0", job.num_workers).expect("bind");
    let addr = server.local_addr().to_string();
    let handles: Vec<_> = (0..job.num_workers)
        .map(|rank| {
            let job = job.clone();
            let addr = addr.clone();
            thread::spawn(move || {
                let mut t = TcpWorkerTransport::connect(&addr)?;
                run_worker(&job, rank, &mut t)
            })
        })
        .collect();
    let served = serve(job, &mut server);
    drop(server);
    let workers = handles
        .into_iter()
        .map(|h| h.join().expect("worker thread must not panic"))
        .collect();
    (served, workers)
}

fn read_ckpt(dir: &ScratchDir, name: &str) -> Vec<u8> {
    std::fs::read(dir.path().join(name))
        .unwrap_or_else(|e| panic!("checkpoint {name} must exist in {:?}: {e}", dir.path()))
}

/// Byte-identity assertion with a readable failure: on mismatch, decode both files
/// and report the first diverging *field* instead of dumping two binary blobs.
fn assert_ckpt_bitwise(cell: &str, name: &str, got: &[u8], expected: &[u8]) {
    use dssp::ps::Checkpoint;
    if got == expected {
        return;
    }
    let g = Checkpoint::decode(got).expect("recovered checkpoint decodes");
    let e = Checkpoint::decode(expected).expect("reference checkpoint decodes");
    assert_eq!(g.tick, e.tick, "{cell}: {name} logical tick");
    match (&g.store, &e.store) {
        (Some(gs), Some(es)) => {
            assert_eq!(gs.offsets, es.offsets, "{cell}: {name} store offsets");
            assert_eq!(gs.versions, es.versions, "{cell}: {name} shard versions");
            assert_eq!(gs.epoch, es.epoch, "{cell}: {name} store epoch");
            for (field, gv, ev) in [
                ("flat", &gs.flat, &es.flat),
                ("velocity", &gs.velocity, &es.velocity),
            ] {
                assert_eq!(gv.len(), ev.len(), "{cell}: {name} {field} length");
                if let Some(i) = (0..gv.len()).find(|&i| gv[i].to_bits() != ev[i].to_bits()) {
                    panic!(
                        "{cell}: {name} {field}[{i}] diverges: {:?} (bits {:#010x}) vs reference {:?} (bits {:#010x})",
                        gv[i],
                        gv[i].to_bits(),
                        ev[i],
                        ev[i].to_bits()
                    );
                }
            }
        }
        (gs, es) => assert_eq!(gs.is_some(), es.is_some(), "{cell}: {name} store presence"),
    }
    assert_eq!(g.gate, e.gate, "{cell}: {name} gate snapshot");
    panic!("{cell}: {name} bytes differ outside any decoded field");
}

/// What a restore leg did: resumed bitwise against the reference, resumed without a
/// byte-level claim (DSSP rebases the fleet onto the cut), or refused typed.
#[derive(Debug, PartialEq)]
enum Recovery {
    Bitwise,
    Resumed,
    TypedAbort(String),
}

/// Checks a restore leg's outcome: success must reproduce the reference checkpoint
/// bytes exactly (when the cell carries the bitwise claim); failure must be one of
/// the *designed* refusals (torn per-role checkpoints, a finished/retired snapshot,
/// or a missing checkpoint file), never an arbitrary error.
fn check_recovery(
    cell: &str,
    outcome: Result<(), NetError>,
    dir: &ScratchDir,
    reference: Option<&[(String, Vec<u8>)]>,
) -> Recovery {
    match outcome {
        Ok(()) => match reference {
            Some(reference) => {
                for (name, expected) in reference {
                    let got = read_ckpt(dir, name);
                    assert_ckpt_bitwise(cell, name, &got, expected);
                }
                Recovery::Bitwise
            }
            None => Recovery::Resumed,
        },
        Err(e) => {
            let msg = e.to_string();
            let lower = msg.to_lowercase();
            assert!(
                lower.contains("restore skew")
                    || lower.contains("retired")
                    || lower.contains("checkpoint")
                    || lower.contains("migration"),
                "{cell}: restore must fail with a designed refusal, got: {msg}"
            );
            Recovery::TypedAbort(msg)
        }
    }
}

fn phase_tag(phase: FaultPhase) -> &'static str {
    match phase {
        FaultPhase::Push => "push",
        FaultPhase::Pull => "pull",
        FaultPhase::GateBlocked => "gate",
        FaultPhase::Checkpoint => "ckpt",
        FaultPhase::MigratePrepare => "prepare",
        FaultPhase::MigrateTransfer => "transfer",
        FaultPhase::MigrateCommit => "commit",
    }
}

// ---------------------------------------------------------------------------
// Single-server cells: kill the server at each phase, restart from checkpoint.
// ---------------------------------------------------------------------------

/// server0 × {push, pull, gate, ckpt} × kill+restart, single-server topology,
/// deterministic BSP.
///
/// The single server holds store *and* gate in one checkpoint file, so its snapshot
/// can never be torn, and BSP's round-boundary cuts (see [`CADENCE`]) leave no
/// worker-side state behind: every phase must recover **bitwise** after a restart.
#[test]
fn single_server_restart_cells_recover_bitwise() {
    // Reference: the same checkpointing job, never failed — shared by every cell.
    let ref_dir = ScratchDir::new("single_ref");
    let mut ref_job = single_job(PolicyKind::Bsp);
    ref_job.checkpoint = checkpointing(ref_dir.path(), false);
    let (ref_trace, ref_workers) =
        watched("server0 reference", &ref_job, SINGLE_BOUND_S, run_single);
    let ref_trace = ref_trace.expect("reference run completes");
    for w in &ref_workers {
        w.as_ref().expect("reference worker completes");
    }
    let ref_bytes = read_ckpt(&ref_dir, &dssp::ps::server_checkpoint_name());

    let cells = [
        (FaultPhase::Push, 3),
        // The weights ride the `OK`s, which go out before the round's checkpoint is
        // written: pulls 1–2 are the opening ones, 3–4 close round 1 with nothing on
        // disk yet, so the fifth is the first a restart can follow.
        (FaultPhase::Pull, 5),
        // BSP defers every non-final push of each round, so the gate phase is
        // guaranteed to occur early.
        (FaultPhase::GateBlocked, 3),
        (FaultPhase::Checkpoint, 3),
    ];
    for (phase, after) in cells {
        let cell = format!("server0:{}:restart:{after}", phase_tag(phase));
        let mut job = single_job(PolicyKind::Bsp);

        // Leg A: the fault fires, the server dies without a goodbye, every worker
        // observes the loss and errors out — nobody hangs.
        let dir = ScratchDir::new(&format!("single_{}", phase_tag(phase)));
        job.checkpoint = checkpointing(dir.path(), false);
        job.fault_plan = Some(FaultPlan {
            role: FaultRole::ShardServer(0),
            phase,
            action: FaultAction::KillRestart,
            after,
        });
        let started = Instant::now();
        let (served, workers) = watched(&format!("{cell} leg A"), &job, SINGLE_BOUND_S, run_single);
        assert!(
            matches!(served, Err(NetError::FaultInjected { .. })),
            "{cell}: leg A must die on the injected fault, got {served:?}"
        );
        for (rank, w) in workers.iter().enumerate() {
            assert!(
                w.is_err(),
                "{cell}: worker {rank} must observe the server's death, got {w:?}"
            );
        }
        assert!(
            started.elapsed().as_secs() < SINGLE_BOUND_S,
            "{cell}: leg A took {:?}",
            started.elapsed()
        );

        // Leg B: restart from the same directory (the harness drops the fault plan,
        // as a supervisor would). The run completes and the terminal checkpoint is
        // byte-identical to the never-failed reference.
        job.fault_plan = None;
        job.checkpoint = checkpointing(dir.path(), true);
        let started = Instant::now();
        let (served, workers) = watched(&format!("{cell} leg B"), &job, SINGLE_BOUND_S, run_single);
        let trace = served.unwrap_or_else(|e| panic!("{cell}: restart leg must complete: {e}"));
        for (rank, w) in workers.iter().enumerate() {
            assert!(w.is_ok(), "{cell}: restarted worker {rank} failed: {w:?}");
        }
        assert!(
            started.elapsed().as_secs() < SINGLE_BOUND_S,
            "{cell}: leg B took {:?}",
            started.elapsed()
        );
        assert_ckpt_bitwise(
            &cell,
            "server.ckpt",
            &read_ckpt(&dir, &dssp::ps::server_checkpoint_name()),
            &ref_bytes,
        );
        assert_eq!(
            trace.total_pushes, ref_trace.total_pushes,
            "{cell}: the resumed run accounts for every push of the full job"
        );
    }
}

/// server0 × push × kill+restart under deterministic **DSSP**.
///
/// A DSSP cut can fall while workers hold gradients computed from pre-cut weights —
/// worker-side state no server checkpoint can capture — so the resumed run rebases
/// the fleet onto the cut and is *not* byte-identical to the unfailed run. What
/// restart must still guarantee is **resume determinism**: two independent restarts
/// from the same checkpoint replay to bitwise-identical terminal state, and account
/// for every push of the full job.
#[test]
fn single_server_dssp_restart_resumes_deterministically() {
    let cell = "server0:push:restart:3 (dssp)";
    let dir = ScratchDir::new("single_dssp");
    let mut job = single_job(PolicyKind::Dssp { s_l: 1, r_max: 2 });
    job.checkpoint = checkpointing(dir.path(), false);
    job.fault_plan = Some(FaultPlan {
        role: FaultRole::ShardServer(0),
        phase: FaultPhase::Push,
        action: FaultAction::KillRestart,
        after: 3,
    });
    let (served, _) = watched(&format!("{cell} leg A"), &job, SINGLE_BOUND_S, run_single);
    assert!(
        matches!(served, Err(NetError::FaultInjected { .. })),
        "{cell}: leg A must die on the injected fault, got {served:?}"
    );

    // Restore twice from the *same* crash checkpoint (legs get separate copies:
    // each resumed run overwrites its directory with its own terminal snapshot).
    let crash_bytes = read_ckpt(&dir, &dssp::ps::server_checkpoint_name());
    job.fault_plan = None;
    let mut finals = Vec::new();
    for leg in 0..2 {
        let leg_dir = ScratchDir::new(&format!("single_dssp_leg{leg}"));
        std::fs::write(
            leg_dir.path().join(dssp::ps::server_checkpoint_name()),
            &crash_bytes,
        )
        .expect("seed the leg's checkpoint");
        job.checkpoint = checkpointing(leg_dir.path(), true);
        let started = Instant::now();
        let (served, workers) = watched(
            &format!("{cell} restart leg {leg}"),
            &job,
            SINGLE_BOUND_S,
            run_single,
        );
        let trace =
            served.unwrap_or_else(|e| panic!("{cell}: restart leg {leg} must complete: {e}"));
        for (rank, w) in workers.iter().enumerate() {
            assert!(w.is_ok(), "{cell}: leg {leg} worker {rank} failed: {w:?}");
        }
        assert!(
            started.elapsed().as_secs() < SINGLE_BOUND_S,
            "{cell}: leg {leg} took {:?}",
            started.elapsed()
        );
        assert_eq!(
            trace.total_pushes,
            trace
                .worker_summaries
                .iter()
                .map(|w| w.iterations)
                .sum::<u64>(),
            "{cell}: leg {leg} accounts for every push"
        );
        finals.push(read_ckpt(&leg_dir, &dssp::ps::server_checkpoint_name()));
    }
    assert_ckpt_bitwise(cell, "server.ckpt", &finals[0], &finals[1]);
}

// ---------------------------------------------------------------------------
// Worker cells: kill one worker at each phase; the fleet completes without it.
// ---------------------------------------------------------------------------

/// worker1 × {push, pull, gate} × {restart, evict}, single-server topology.
///
/// Both actions assert the same fleet-level behaviour — the victim is reaped via
/// `ClientLost`, its credits return to the pool, survivors finish — because a lone
/// worker cannot re-handshake into a live server (see the module docs).
#[test]
fn worker_death_cells_complete_with_survivors() {
    let cells = [
        (
            FaultPhase::Push,
            PolicyKind::Dssp { s_l: 1, r_max: 2 },
            false,
            2,
        ),
        (
            FaultPhase::Pull,
            PolicyKind::Dssp { s_l: 1, r_max: 2 },
            false,
            2,
        ),
        // The gate cell runs deterministic BSP: the victim dies while the canonical
        // gate holds its reply, exercising the gate's forget/release path.
        (FaultPhase::GateBlocked, PolicyKind::Bsp, true, 3),
    ];
    for (phase, policy, deterministic, after) in cells {
        for action in [FaultAction::KillRestart, FaultAction::KillEvict] {
            let cell = format!(
                "worker1:{}:{}:{after}",
                phase_tag(phase),
                if action == FaultAction::KillRestart {
                    "restart"
                } else {
                    "evict"
                }
            );
            let mut job = single_job(policy);
            job.deterministic = deterministic;
            job.fault_plan = Some(FaultPlan {
                role: FaultRole::Worker(1),
                phase,
                action,
                after,
            });
            let started = Instant::now();
            let (served, workers) = watched(&cell, &job, SINGLE_BOUND_S, run_single);
            let trace = served.unwrap_or_else(|e| panic!("{cell}: fleet must survive: {e}"));
            assert!(
                matches!(&workers[1], Err(NetError::FaultInjected { .. })),
                "{cell}: the victim dies on its own fault, got {:?}",
                workers[1]
            );
            let survivor = workers[0]
                .as_ref()
                .unwrap_or_else(|e| panic!("{cell}: survivor failed: {e}"));
            assert!(
                started.elapsed().as_secs() < SINGLE_BOUND_S,
                "{cell}: took {:?}",
                started.elapsed()
            );
            assert!(
                survivor.iterations > trace.worker_summaries[1].iterations,
                "{cell}: survivor ran {} iterations, victim is recorded with {}",
                survivor.iterations,
                trace.worker_summaries[1].iterations
            );
            assert_eq!(
                trace.total_pushes,
                trace
                    .worker_summaries
                    .iter()
                    .map(|w| w.iterations)
                    .sum::<u64>(),
                "{cell}: every applied push is attributed to a worker"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Group cells: coordinator and shard-server deaths across the two-server group.
// ---------------------------------------------------------------------------

/// Reference group run (checkpointing, never failed): terminal bytes of every
/// role's checkpoint file, for bitwise comparison by the restart legs.
fn group_reference(policy: PolicyKind, tag: &str) -> (ScratchDir, Vec<(String, Vec<u8>)>) {
    let dir = ScratchDir::new(&format!("group_ref_{tag}"));
    let mut job = group_job(policy);
    job.checkpoint = checkpointing(dir.path(), false);
    watched(
        &format!("group reference ({tag})"),
        &job,
        GROUP_BOUND_S,
        run_group_threads,
    )
    .expect("reference group run completes");
    let names = [
        dssp::ps::coord_checkpoint_name(),
        dssp::ps::shard_checkpoint_name(0),
        dssp::ps::shard_checkpoint_name(1),
    ];
    let bytes = names
        .into_iter()
        .map(|name| {
            let data = read_ckpt(&dir, &name);
            (name, data)
        })
        .collect();
    (dir, bytes)
}

/// Runs one group cell: leg A (the fault fires, the fleet unwinds with a typed
/// error inside the bound), and for restart cells leg B (resume from the same
/// directory), returning the recovery outcome. Cells that pass a reference carry
/// the bitwise claim; cells that pass `None` (DSSP rebases the fleet onto the cut,
/// see [`CADENCE`]) only claim resume-or-typed-refusal.
fn run_group_cell(
    policy: PolicyKind,
    role: FaultRole,
    phase: FaultPhase,
    action: FaultAction,
    after: u64,
    reference: Option<&[(String, Vec<u8>)]>,
) -> Option<Recovery> {
    let role_tag = match role {
        FaultRole::Coordinator => "coord".to_string(),
        FaultRole::ShardServer(i) => format!("server{i}"),
        FaultRole::Worker(r) => format!("worker{r}"),
    };
    let cell = format!("{role_tag}:{}:…:{after}", phase_tag(phase));
    let dir = ScratchDir::new(&format!("group_{role_tag}_{}", phase_tag(phase)));
    let mut job = group_job(policy);
    job.checkpoint = checkpointing(dir.path(), false);
    job.fault_plan = Some(FaultPlan {
        role,
        phase,
        action,
        after,
    });

    let started = Instant::now();
    let err = watched(
        &format!("{cell} leg A"),
        &job,
        GROUP_BOUND_S,
        run_group_threads,
    )
    .expect_err("the injected fault must end the run");
    if matches!(role, FaultRole::Coordinator) {
        assert!(
            matches!(err, NetError::FaultInjected { .. }),
            "{cell}: the coordinator's own error surfaces first, got {err}"
        );
    }
    assert!(
        started.elapsed().as_secs() < GROUP_BOUND_S,
        "{cell}: leg A took {:?}",
        started.elapsed()
    );

    if action != FaultAction::KillRestart {
        return None;
    }
    // Leg B: the whole fleet restarts against the surviving checkpoint directory.
    job.fault_plan = None;
    job.checkpoint = checkpointing(dir.path(), true);
    let started = Instant::now();
    let outcome = watched(
        &format!("{cell} leg B"),
        &job,
        GROUP_BOUND_S,
        run_group_threads,
    )
    .map(|_| ());
    assert!(
        started.elapsed().as_secs() < GROUP_BOUND_S,
        "{cell}: leg B took {:?}",
        started.elapsed()
    );
    Some(check_recovery(&cell, outcome, &dir, reference))
}

/// coord × {push, gate, ckpt, pull} × restart, plus coord × push × evict.
///
/// Under deterministic BSP every durable cut is a round boundary (see [`CADENCE`])
/// and, in the group topology, shard servers only hold gate-granted pushes — so a
/// coordinator crash at the ckpt or gate phase leaves a *consistent* cross-role
/// set and must resume bitwise. The DSSP push/pull cells crash between writes
/// where the coordinator's and shard servers' files can tear: those must either
/// resume (rebased onto the cut) or refuse with the typed `restore skew` error.
#[test]
fn coordinator_cells_recover_bitwise_or_refuse_torn_state() {
    let (_bsp_dir, bsp_reference) = group_reference(PolicyKind::Bsp, "coord_bsp");

    let ckpt_cell = run_group_cell(
        PolicyKind::Bsp,
        FaultRole::Coordinator,
        FaultPhase::Checkpoint,
        FaultAction::KillRestart,
        3,
        Some(&bsp_reference),
    );
    // The non-vacuousness anchor of the whole matrix: at least this cell really
    // resumes and reproduces the unfailed bytes.
    assert_eq!(
        ckpt_cell,
        Some(Recovery::Bitwise),
        "a checkpoint-phase coordinator crash leaves a consistent set and must resume bitwise"
    );
    // Gate-blocked pushes need a policy that defers: BSP's gate holds every
    // non-final push of a round.
    run_group_cell(
        PolicyKind::Bsp,
        FaultRole::Coordinator,
        FaultPhase::GateBlocked,
        FaultAction::KillRestart,
        2,
        Some(&bsp_reference),
    );

    let dssp = PolicyKind::Dssp { s_l: 1, r_max: 2 };
    for phase in [FaultPhase::Push, FaultPhase::Pull] {
        let after = if phase == FaultPhase::Pull { 1 } else { 3 };
        run_group_cell(
            dssp,
            FaultRole::Coordinator,
            phase,
            FaultAction::KillRestart,
            after,
            None,
        );
    }

    // Evict: no restart leg; the fleet just unwinds with the typed error.
    run_group_cell(
        dssp,
        FaultRole::Coordinator,
        FaultPhase::Push,
        FaultAction::KillEvict,
        3,
        None,
    );
}

/// server0 × {push, ckpt} × restart, plus server0 × push × evict, group topology.
///
/// A dead shard server collapses the fleet within the bounded reconnect window;
/// the surviving roles keep checkpointing past the victim's last write, so the
/// restart leg meets a *torn* set and must end in a typed refusal — or, if the
/// crash happened to land on a consistent cut, resume cleanly (no byte claim:
/// DSSP rebases the fleet onto the cut).
#[test]
fn shard_server_cells_collapse_typed_and_restore_refuses_torn_state() {
    let dssp = PolicyKind::Dssp { s_l: 1, r_max: 2 };

    for phase in [FaultPhase::Push, FaultPhase::Checkpoint] {
        run_group_cell(
            dssp,
            FaultRole::ShardServer(0),
            phase,
            FaultAction::KillRestart,
            3,
            None,
        );
    }
    run_group_cell(
        dssp,
        FaultRole::ShardServer(0),
        FaultPhase::Push,
        FaultAction::KillEvict,
        3,
        None,
    );
}

// ---------------------------------------------------------------------------
// Migration cells: kill a role mid-migration; commit, roll back, or refuse typed.
// ---------------------------------------------------------------------------

/// A 3-server group that drains server 2 mid-run: the migration matrix topology.
/// Server 2 is the *source* of every move; server 1 is a *destination* (it stages
/// the drained shard under the post-drain assignment).
fn migration_job(policy: PolicyKind) -> JobConfig {
    let mut job = group_job(policy);
    job.servers = 3;
    job.shards = 4;
    job.migration = Some(MigrationSpec {
        drain: 2,
        at_version: 2,
    });
    job
}

/// {source=server2, dest=server1, coord} × {prepare, transfer, commit} × {kill,
/// restart}: a victim dying in any migration phase must end the leg in a typed
/// error within the bound — the freeze never orphans into a hang — and a restart
/// from the surviving checkpoints must either resume (re-attempting the drain from
/// the pre-migration epoch-0 cut) or refuse with a designed typed refusal.
///
/// `coord:commit` fires with `after: 2` so the coordinator dies *mid-broadcast* —
/// server 0 already on the new epoch, servers 1 and 2 never told — the torn-commit
/// cut the protocol must not persist (the forced layout checkpoint happens only
/// after every server acked, so the restart leg restores a consistent epoch-0 set).
#[test]
fn migration_cells_end_typed_and_restart_or_refuse() {
    let dssp = PolicyKind::Dssp { s_l: 1, r_max: 2 };
    let cells = [
        (FaultRole::ShardServer(2), FaultPhase::MigratePrepare, 1),
        (FaultRole::ShardServer(2), FaultPhase::MigrateTransfer, 1),
        (FaultRole::ShardServer(2), FaultPhase::MigrateCommit, 1),
        (FaultRole::ShardServer(1), FaultPhase::MigratePrepare, 1),
        (FaultRole::ShardServer(1), FaultPhase::MigrateTransfer, 1),
        (FaultRole::ShardServer(1), FaultPhase::MigrateCommit, 1),
        (FaultRole::Coordinator, FaultPhase::MigratePrepare, 1),
        (FaultRole::Coordinator, FaultPhase::MigrateTransfer, 1),
        (FaultRole::Coordinator, FaultPhase::MigrateCommit, 2),
    ];
    for (role, phase, after) in cells {
        for action in [FaultAction::KillEvict, FaultAction::KillRestart] {
            let role_tag = match role {
                FaultRole::Coordinator => "coord".to_string(),
                FaultRole::ShardServer(i) => format!("server{i}"),
                FaultRole::Worker(r) => format!("worker{r}"),
            };
            let action_tag = if action == FaultAction::KillRestart {
                "restart"
            } else {
                "kill"
            };
            let cell = format!("{role_tag}:{}:{action_tag}:{after}", phase_tag(phase));
            let dir = ScratchDir::new(&format!("mig_{role_tag}_{}_{action_tag}", phase_tag(phase)));
            let mut job = migration_job(dssp);
            job.checkpoint = checkpointing(dir.path(), false);
            job.fault_plan = Some(FaultPlan {
                role,
                phase,
                action,
                after,
            });

            let started = Instant::now();
            let err = watched(
                &format!("{cell} leg A"),
                &job,
                GROUP_BOUND_S,
                run_group_threads,
            )
            .expect_err("a mid-migration death must end the run with a typed error");
            if matches!(role, FaultRole::Coordinator) {
                assert!(
                    matches!(err, NetError::FaultInjected { .. }),
                    "{cell}: the coordinator's own fault surfaces first, got {err}"
                );
            }
            assert!(
                started.elapsed().as_secs() < GROUP_BOUND_S,
                "{cell}: leg A took {:?}",
                started.elapsed()
            );

            if action != FaultAction::KillRestart {
                continue;
            }
            // Leg B: the fleet restarts against the surviving checkpoints. Every
            // persisted cut predates the commit (the layout checkpoint is forced
            // only after all servers acked), so the restored epoch-0 fleet re-arms
            // the drain spec and must finish the job on the post-drain layout —
            // or refuse with a designed typed error, never anything else.
            job.fault_plan = None;
            job.checkpoint = checkpointing(dir.path(), true);
            let started = Instant::now();
            let outcome = watched(
                &format!("{cell} leg B"),
                &job,
                GROUP_BOUND_S,
                run_group_threads,
            )
            .map(|_| ());
            assert!(
                started.elapsed().as_secs() < GROUP_BOUND_S,
                "{cell}: leg B took {:?}",
                started.elapsed()
            );
            check_recovery(&cell, outcome, &dir, None);
        }
    }
}

/// [`run_group_threads`] folds any worker failure into the run's result; this
/// split harness keeps the coordinator's trace and each worker's own outcome
/// apart, which is what the victim-vs-survivor migration cell needs to assert.
fn run_group_split(
    job: &JobConfig,
) -> (
    Result<RunTrace, NetError>,
    Vec<Result<WorkerReport, NetError>>,
) {
    use dssp::coord::{connect_links, coordinate, run_group_worker, serve_shard};
    use std::time::Duration;

    let mut server_addrs = Vec::with_capacity(job.servers);
    let mut server_handles = Vec::with_capacity(job.servers);
    for index in 0..job.servers {
        let mut transport =
            TcpServerTransport::bind("127.0.0.1:0", job.num_workers + 1).expect("bind shard");
        server_addrs.push(transport.local_addr().to_string());
        let job = job.clone();
        server_handles.push(thread::spawn(move || {
            serve_shard(&job, index, &mut transport)
        }));
    }
    let mut coord_transport =
        TcpServerTransport::bind("127.0.0.1:0", job.num_workers).expect("bind coord");
    let coord_addr = coord_transport.local_addr().to_string();
    let timeout = Some(Duration::from_millis(job.stall_timeout_ms.max(1)));
    let worker_handles: Vec<_> = (0..job.num_workers)
        .map(|rank| {
            let job = job.clone();
            let coord_addr = coord_addr.clone();
            let server_addrs = server_addrs.clone();
            thread::spawn(move || -> Result<WorkerReport, NetError> {
                let mut coord = TcpWorkerTransport::connect(&coord_addr)?;
                let links = connect_links(&server_addrs, timeout)?;
                run_group_worker(&job, rank, &mut coord, links)
            })
        })
        .collect();
    let links = connect_links(&server_addrs, timeout).expect("coordinator links");
    let served = coordinate(job, &mut coord_transport, links);
    drop(coord_transport);
    let workers = worker_handles
        .into_iter()
        .map(|h| h.join().expect("worker thread must not panic"))
        .collect();
    for handle in server_handles {
        let _ = handle.join().expect("shard thread must not panic");
    }
    (served, workers)
}

/// worker1 × commit × kill: the victim dies immediately after adopting the
/// committed layout. The migration itself is already committed fleet-wide, so the
/// coordinator reaps the victim via `ClientLost` and the survivors finish the job
/// on the post-drain layout.
#[test]
fn worker_death_at_migration_commit_leaves_survivors_running() {
    let cell = "worker1:commit:kill:1";
    let mut job = migration_job(PolicyKind::Dssp { s_l: 1, r_max: 2 });
    job.deterministic = false;
    job.fault_plan = Some(FaultPlan {
        role: FaultRole::Worker(1),
        phase: FaultPhase::MigrateCommit,
        action: FaultAction::KillEvict,
        after: 1,
    });
    let started = Instant::now();
    let (served, workers) = watched(cell, &job, GROUP_BOUND_S, run_group_split);
    let trace = served.unwrap_or_else(|e| panic!("{cell}: the fleet must survive the victim: {e}"));
    assert!(
        started.elapsed().as_secs() < GROUP_BOUND_S,
        "{cell}: took {:?}",
        started.elapsed()
    );
    assert!(
        matches!(&workers[1], Err(NetError::FaultInjected { .. })),
        "{cell}: the victim dies on its own fault, got {:?}",
        workers[1]
    );
    let survivor = workers[0]
        .as_ref()
        .unwrap_or_else(|e| panic!("{cell}: survivor failed: {e}"));
    assert!(
        survivor.iterations > trace.worker_summaries[1].iterations,
        "{cell}: survivor ran {} iterations, victim is recorded with {}",
        survivor.iterations,
        trace.worker_summaries[1].iterations
    );
    assert_eq!(
        trace.total_pushes,
        trace
            .worker_summaries
            .iter()
            .map(|w| w.iterations)
            .sum::<u64>(),
        "{cell}: every applied push is attributed to a worker"
    );
}

/// A deliberately *torn* cross-role checkpoint set around a commit: the
/// coordinator's file records the post-drain epoch-1 layout, but shard server 1's
/// file comes from an identically-configured run that never migrated (epoch 0).
/// Restore must refuse with the typed layout-skew error — "restore skew" — rather
/// than silently running a group whose roles disagree about shard ownership.
///
/// Both donor fleets are killed *mid-run* (coordinator dies at its 6th cadence
/// checkpoint, well after the version-2 commit): a run that finishes retires its
/// workers and a terminal coordinator checkpoint is refused as non-resumable
/// before the skew check ever runs — the splice needs resumable halves so the
/// refusal we observe is the layout one.
#[test]
fn restore_refuses_layout_epoch_skew_across_roles() {
    let dssp = PolicyKind::Dssp { s_l: 1, r_max: 2 };
    let mid_run_coordinator_kill = Some(FaultPlan {
        role: FaultRole::Coordinator,
        phase: FaultPhase::Checkpoint,
        action: FaultAction::KillRestart,
        after: 6,
    });

    // A migrated fleet, killed after the drain committed: the surviving checkpoints
    // all record layout epoch 1.
    let migrated = ScratchDir::new("mig_skew_migrated");
    let mut job = migration_job(dssp);
    job.checkpoint = checkpointing(migrated.path(), false);
    job.fault_plan = mid_run_coordinator_kill;
    watched("migrated donor", &job, GROUP_BOUND_S, run_group_threads)
        .expect_err("the migrated donor dies by plan");

    // The same job, never migrated, killed at the same point: its checkpoints all
    // record epoch 0. (`migration` and `fault_plan` are digest-masked, so every
    // run here shares one config digest.)
    let flat = ScratchDir::new("mig_skew_flat");
    let mut flat_job = migration_job(dssp);
    flat_job.migration = None;
    flat_job.checkpoint = checkpointing(flat.path(), false);
    flat_job.fault_plan = mid_run_coordinator_kill;
    watched(
        "unmigrated donor",
        &flat_job,
        GROUP_BOUND_S,
        run_group_threads,
    )
    .expect_err("the unmigrated donor dies by plan");

    // Splice: epoch-1 coordinator + epoch-0 shard server 1.
    let spliced = ScratchDir::new("mig_skew_spliced");
    for name in [
        dssp::ps::coord_checkpoint_name(),
        dssp::ps::shard_checkpoint_name(0),
        dssp::ps::shard_checkpoint_name(2),
    ] {
        std::fs::write(spliced.path().join(&name), read_ckpt(&migrated, &name))
            .expect("seed spliced checkpoint");
    }
    let shard1 = dssp::ps::shard_checkpoint_name(1);
    std::fs::write(spliced.path().join(&shard1), read_ckpt(&flat, &shard1))
        .expect("seed spliced shard 1");

    let mut restore_job = migration_job(dssp);
    restore_job.migration = None;
    restore_job.checkpoint = checkpointing(spliced.path(), true);
    let err = watched(
        "spliced restore",
        &restore_job,
        GROUP_BOUND_S,
        run_group_threads,
    )
    .expect_err("a layout-skewed checkpoint set must be refused");
    let msg = err.to_string().to_lowercase();
    assert!(
        msg.contains("restore skew") && msg.contains("layout epoch"),
        "expected the typed layout-skew refusal, got: {err}"
    );
}

// ---------------------------------------------------------------------------
// The full product: every cell's CLI spec parses and round-trips.
// ---------------------------------------------------------------------------

/// Every role×phase×action coordinate of the matrix has a parseable, round-tripping
/// CLI spelling (`--fault role:phase:action:after`), including the cells the
/// behavioural tests document as vacuous — a harness must be able to *name* a cell
/// to decide it is skippable.
#[test]
fn every_matrix_cell_spec_parses_and_round_trips() {
    let roles = ["worker0", "worker1", "server0", "server1", "coord"];
    let phases = [
        "push", "pull", "gate", "ckpt", "prepare", "transfer", "commit",
    ];
    let actions = ["restart", "evict"];
    for role in roles {
        for phase in phases {
            for action in actions {
                let spec = format!("{role}:{phase}:{action}:3");
                let plan = FaultPlan::parse(&spec)
                    .unwrap_or_else(|| panic!("cell spec {spec} must parse"));
                assert_eq!(plan.to_spec(), spec, "round-trip of {spec}");
            }
        }
    }
    for bad in [
        "coord:push:restart:0",
        "worker:push:restart:1",
        "server0:nap:restart:1",
        "coord:push:maybe:1",
        "coord:push:restart:1:extra",
        "coord:push:restart",
    ] {
        assert!(FaultPlan::parse(bad).is_none(), "{bad} must be rejected");
    }
}
