//! The part of trace mode that runs the program itself: the workload once for its
//! `RunTrace`, the two comm jobs for their socket counts, one of them again with the
//! program's event log on for the analyzer cross-check, and the simulator's policy
//! sweep for its exact virtual times.

use crate::run::{check, guarded, Failure};
use crate::substrate::{self, NetCounts, Outcome};
use crate::workloads::{self, comm_job, Job, Workload};
use dssp_core::analyze::analyze_dir;
use dssp_core::events::EventLog;
use dssp_core::presets::{dssp_reference, resnet110_heterogeneous, Scale};
use dssp_ps::PolicyKind;
use dssp_sim::Simulation;
use std::path::Path;
use std::time::Duration;

/// A program run that has not finished after this long counts as failed.
const RUN_LIMIT: Duration = Duration::from_secs(60);

/// Accuracy the sweep's time-to-accuracy is taken at: twice chance on the 20-class
/// task, which every policy passes within the quick-scale job under most seeds. A
/// run that never reaches it reports its whole job time.
const SWEEP_TARGET_ACCURACY: f64 = 0.10;

/// Pushes the program runs attempted and failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProgramRuns {
    /// Pushes attempted.
    pub attempted: u64,
    /// Pushes of runs that failed or failed a check.
    pub failed: u64,
}

/// Runs one workload job under the watchdog and the output checks.
fn checked_run(
    workload: &'static Workload,
    job: Job,
    what: &str,
    tally: &mut ProgramRuns,
    errors: &mut Vec<String>,
) -> Option<Outcome> {
    tally.attempted += workload.expected_pushes;
    let outcome = guarded(RUN_LIMIT, move || substrate::run(job)).and_then(|outcome| {
        check(workload, &outcome.trace).map_err(Failure::Error)?;
        Ok(outcome)
    });
    outcome
        .map_err(|failure| {
            tally.failed += workload.expected_pushes;
            errors.push(format!("{what}: {failure}"));
        })
        .ok()
}

fn pushes_per_s(outcome: &Outcome) -> f64 {
    outcome.trace.total_pushes as f64 / outcome.train_s
}

/// Appends the metrics that come from running the program. `handdriven_us` is the
/// hand-driven round at the workload's shape, for the unattributed share.
pub fn measure(
    workload: &'static Workload,
    seed: u64,
    handdriven_us: f64,
    out_dir: &Path,
    metrics: &mut Vec<(&'static str, f64)>,
    errors: &mut Vec<String>,
) -> ProgramRuns {
    let mut tally = ProgramRuns::default();
    let tcp_workload = workloads::find("tcp_comm").expect("in the set");
    let group_workload = workloads::find("group_comm").expect("in the set");

    // The comm jobs, untraced: socket counts, and the baseline for tracing overhead.
    let tcp = checked_run(
        tcp_workload,
        Job::Tcp(comm_job(seed, 1)),
        "tcp_comm run",
        &mut tally,
        errors,
    );
    let group = checked_run(
        group_workload,
        Job::Group(comm_job(seed, 2)),
        "group_comm run",
        &mut tally,
        errors,
    );
    // The workload's own run (one of the two above when it is a comm workload).
    let own = match workload.job(seed) {
        Job::Tcp(_) => tcp.clone(),
        Job::Group(_) => group.clone(),
        job => checked_run(workload, job, "workload run", &mut tally, errors),
    };

    if let Some(own) = &own {
        let stats = &own.trace.server_stats;
        metrics.push(("ps.blocked_share", stats.blocked_fraction()));
        metrics.push(("ps.mean_staleness", stats.mean_staleness()));
        metrics.push((
            "ps.credits_per_push",
            stats.credits_granted as f64 / stats.pushes.max(1) as f64,
        ));
        // What one worker's round takes on the wall, against what the hand-driven
        // calls account for.
        let round_wall_us = workload.concurrency as f64 / pushes_per_s(own) * 1e6;
        metrics.push((
            "round.unattributed_share",
            1.0 - handdriven_us / round_wall_us,
        ));
    }
    let per_push = |net: NetCounts, outcome: &Outcome| {
        net.server_bytes as f64 / outcome.trace.total_pushes as f64
    };
    if let Some((outcome, net)) = tcp.as_ref().and_then(|o| Some((o, o.net?))) {
        metrics.push(("net.tcp.bytes_per_push", per_push(net, outcome)));
    }
    if let Some((outcome, net)) = group.as_ref().and_then(|o| Some((o, o.net?))) {
        metrics.push(("coord.bytes_per_push", per_push(net, outcome)));
    }

    // The analyzer sees networked roles only (ROADMAP item 5), so the cross-check
    // runs on the group for group_comm and on the single TCP server otherwise.
    let (obs_workload, untraced, servers) = if matches!(workload.job(seed), Job::Group(_)) {
        (group_workload, group, 2)
    } else {
        (tcp_workload, tcp, 1)
    };
    if let Some(net) = untraced.as_ref().and_then(|o| o.net) {
        let pulls = net.full_pulls + net.delta_pulls;
        metrics.push((
            "net.delta_pull_share",
            net.delta_pulls as f64 / pulls.max(1) as f64,
        ));
    }
    let events_dir = out_dir.join(format!("events-{}", std::process::id()));
    let mut traced_job = comm_job(seed, servers);
    traced_job.event_log = Some(events_dir.clone());
    let traced_job = if servers == 2 {
        Job::Group(traced_job)
    } else {
        Job::Tcp(traced_job)
    };
    let traced = checked_run(obs_workload, traced_job, "traced run", &mut tally, errors);
    if let (Some(untraced), Some(traced)) = (&untraced, &traced) {
        match analyzer_metrics(&events_dir, traced, metrics) {
            Ok(()) => metrics.push((
                "obs.overhead_share",
                1.0 - pushes_per_s(traced) / pushes_per_s(untraced),
            )),
            Err(e) => errors.push(format!("analyzer cross-check: {e}")),
        }
    }
    let _ = std::fs::remove_dir_all(&events_dir);

    sweep(seed, metrics, errors);
    tally
}

/// Feeds the traced run's event directory to `dssp_core::analyze` and reports where
/// it says the workers' time went.
fn analyzer_metrics(
    events_dir: &Path,
    traced: &Outcome,
    metrics: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let analysis = analyze_dir(events_dir).map_err(|e| format!("{}: {e}", events_dir.display()))?;
    let (mut compute, mut comms, mut gate) = (0u64, 0u64, 0u64);
    for worker in &analysis.workers {
        compute += worker.compute_us;
        comms += worker.comms_us;
        gate += worker.gate_wait_us;
    }
    let total = (compute + comms + gate) as f64;
    if total == 0.0 {
        return Err("the analyzer attributed no time to any worker".into());
    }
    let latency = analysis
        .push_latency
        .ok_or("the analyzer joined no push across roles")?;
    metrics.push(("obs.compute_share", compute as f64 / total));
    metrics.push(("obs.comms_share", comms as f64 / total));
    metrics.push(("obs.gate_wait_share", gate as f64 / total));
    metrics.push(("obs.push_latency_p50_us", latency.p50_us as f64));

    // The logs do not record their own drop count, so it is bounded from outside: a
    // dropped event leaves a push the analyzer cannot join, and a log can only have
    // dropped once it is full.
    let unjoined = traced
        .trace
        .total_pushes
        .saturating_sub(latency.count as u64);
    let mut full_logs = 0u64;
    let entries = std::fs::read_dir(events_dir).map_err(|e| e.to_string())?;
    for entry in entries.flatten() {
        let text = std::fs::read_to_string(entry.path()).map_err(|e| e.to_string())?;
        full_logs += u64::from(text.lines().count() >= EventLog::DEFAULT_CAPACITY);
    }
    let dropped = unjoined + full_logs;
    metrics.push(("obs.events_dropped", dropped as f64));
    if dropped > 0 {
        return Err(format!(
            "{unjoined} pushes not joined across roles, {full_logs} event logs full"
        ));
    }
    Ok(())
}

/// Paper Table I at quick scale: virtual job time and time to accuracy of the four
/// paradigms on the heterogeneous ResNet-110 preset. Virtual, so exact per seed.
fn sweep(seed: u64, metrics: &mut Vec<(&'static str, f64)>, errors: &mut Vec<String>) {
    for (policy, job_metric, tta_metric) in [
        (
            PolicyKind::Bsp,
            "sim.virtual_job_s.bsp",
            "sim.virtual_tta_s.bsp",
        ),
        (
            PolicyKind::Asp,
            "sim.virtual_job_s.asp",
            "sim.virtual_tta_s.asp",
        ),
        (
            PolicyKind::Ssp { s: 3 },
            "sim.virtual_job_s.ssp3",
            "sim.virtual_tta_s.ssp3",
        ),
        (
            dssp_reference(),
            "sim.virtual_job_s.dssp",
            "sim.virtual_tta_s.dssp",
        ),
    ] {
        let mut config = resnet110_heterogeneous(policy, Scale::Quick);
        config.seed = seed;
        match guarded(RUN_LIMIT, move || Ok(Simulation::new(config).run())) {
            Ok(trace) => {
                metrics.push((job_metric, trace.total_time_s));
                let tta = trace.time_to_accuracy(SWEEP_TARGET_ACCURACY);
                metrics.push((tta_metric, tta.unwrap_or(trace.total_time_s)));
            }
            Err(failure) => errors.push(format!("sweep {job_metric}: {failure}")),
        }
    }
}
