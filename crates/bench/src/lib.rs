//! Figure and table regeneration for the DSSP paper.
//!
//! Every experiment in the paper's evaluation section has a function here that runs the
//! corresponding workload on the simulator and renders the same rows/series the paper
//! reports. The `repro` binary (`cargo run --release -p dssp-bench --bin repro -- <id>`)
//! dispatches to these functions. How fast any of it runs is not measured here: the
//! round-cost ledger (`benchmark/`) is the one place a speed claim is judged.

use dssp_cluster::{ClusterSpec, TimeModel};
use dssp_core::metrics::{average_curve, time_to_accuracy_table, ThroughputSummary};
use dssp_core::presets::{
    alexnet_homogeneous, dssp_reference, resnet110_heterogeneous, resnet110_homogeneous,
    resnet50_homogeneous, ssp_sweep, Scale,
};
use dssp_core::{report, RunTrace};
use dssp_ps::theory::{dssp_regret_bound, regret_rate, ssp_regret_bound, BoundParams};
use dssp_ps::{IntervalTracker, PolicyKind, SyncController};
use dssp_sim::{SimConfig, Simulation};
use std::fmt::Write as _;

/// Runs one simulator configuration and returns its trace.
pub fn run(config: SimConfig) -> RunTrace {
    Simulation::new(config).run()
}

/// Runs one configuration per policy, holding everything else fixed.
///
/// Independent policies execute concurrently on the [`dssp_core::pool`] thread pool
/// (bounded by `DSSP_THREADS` / the machine's parallelism). Each simulation is
/// deterministic given its configuration and results are returned in `policies` order,
/// so the output is identical to a serial run.
pub fn run_policies(
    base: impl Fn(PolicyKind) -> SimConfig + Sync,
    policies: &[PolicyKind],
) -> Vec<RunTrace> {
    dssp_core::pool::parallel_map(policies.len(), dssp_core::pool::default_threads(), |i| {
        run(base(policies[i]))
    })
}

fn headline_with_average_ssp(
    base: impl Fn(PolicyKind) -> SimConfig + Copy + Sync,
    out: &mut String,
) -> Vec<RunTrace> {
    // One parallel sweep over the headline paradigms and the whole SSP range.
    let mut policies = vec![PolicyKind::Bsp, PolicyKind::Asp, dssp_reference()];
    policies.extend(ssp_sweep());
    let mut all = run_policies(base, &policies);
    let ssp_traces = all.split_off(3);
    let avg_ssp = average_curve(&ssp_traces, 30, "Average SSP s=3 to 15");

    let mut traces = all;
    traces.push(avg_ssp);
    for t in &traces {
        let _ = writeln!(out, "{}", report::trace_summary_line(t));
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "{}", report::traces_to_csv(&traces));
    traces.extend(ssp_traces);
    traces
}

fn sweep_vs_dssp(
    base: impl Fn(PolicyKind) -> SimConfig + Copy + Sync,
    out: &mut String,
) -> Vec<RunTrace> {
    let mut policies = ssp_sweep();
    policies.push(dssp_reference());
    let traces = run_policies(base, &policies);
    for t in &traces {
        let _ = writeln!(out, "{}", report::trace_summary_line(t));
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "{}", report::traces_to_csv(&traces));
    traces
}

/// Figure 1: iteration intervals measured from push timestamps, decomposed into compute
/// and communication time, for every worker of the heterogeneous cluster.
pub fn fig1() -> String {
    let mut out = String::from(
        "Figure 1 — iteration intervals per worker (heterogeneous cluster, ResNet-110 cost)\n\n",
    );
    let cluster = ClusterSpec::heterogeneous_pair();
    let mut model = TimeModel::new(
        cluster.clone(),
        dssp_core::presets::resnet110_paper_cost(),
        32,
        7,
    );
    let _ = writeln!(
        out,
        "{:>8} {:>10} {:>14} {:>14} {:>14}",
        "worker", "iteration", "compute (s)", "comm (s)", "interval (s)"
    );
    for worker in 0..cluster.num_workers() {
        let mut now = 0.0;
        for iteration in 0..6 {
            let cost = model.sample_iteration(worker, now);
            now += cost.total();
            let _ = writeln!(
                out,
                "{:>8} {:>10} {:>14.4} {:>14.4} {:>14.4}",
                worker,
                iteration,
                cost.compute_s,
                cost.comm_s,
                cost.total()
            );
        }
    }
    out
}

/// Figure 2: the synchronization controller's predicted timelines and its choice of
/// `r*` for a fast worker (1 s/iteration) running alongside a slow worker
/// (4 s/iteration), with `r` in `[0, 8]`.
pub fn fig2() -> String {
    let mut out =
        String::from("Figure 2 — controller prediction: fast worker 1 s/iter, slow worker 4 s/iter, r_max = 8\n\n");
    let mut tracker = IntervalTracker::new(2);
    tracker.record_push(0, 9.0);
    tracker.record_push(0, 10.0); // fast worker: interval 1 s
    tracker.record_push(1, 6.0);
    tracker.record_push(1, 10.0); // slow worker: interval 4 s
    let r_max = 8;
    let mut controller = SyncController::new(2, r_max);
    let decision = controller.decide(0, 1, &tracker);
    // The two timelines Algorithm 2 evaluates, from the same table `A` entries.
    let timeline = |worker, first: u64| {
        let (latest, interval) = (
            tracker.latest(worker).unwrap(),
            tracker.interval(worker).unwrap(),
        );
        (first..=first + r_max).map(move |i| latest + i as f64 * interval)
    };
    let _ = writeln!(
        out,
        "{:>4} {:>18} {:>22} {:>16}",
        "r", "fast stops at (s)", "nearest slow push (s)", "predicted wait (s)"
    );
    for (r, fast_t) in timeline(0, 0).enumerate() {
        let (nearest, wait) = timeline(1, 1)
            .map(|s| (s, (s - fast_t).abs()))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        let marker = if r as u64 == decision.extra_iterations {
            "  <= r*"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "{r:>4} {fast_t:>18.2} {nearest:>22.2} {wait:>16.2}{marker}"
        );
    }
    let _ = writeln!(
        out,
        "\nchosen r* = {} extra iterations, predicted waiting time {:.2} s",
        decision.extra_iterations, decision.predicted_wait
    );
    out
}

/// Figure 3a: BSP / ASP / DSSP / averaged SSP on the downsized AlexNet (CIFAR-10-like),
/// homogeneous 4-worker cluster.
pub fn fig3a(scale: Scale) -> String {
    let mut out = String::from("Figure 3a — downsized AlexNet, all paradigms + averaged SSP\n\n");
    headline_with_average_ssp(|p| alexnet_homogeneous(p, scale), &mut out);
    out
}

/// Figure 3b: DSSP against each individual SSP threshold on the downsized AlexNet.
pub fn fig3b(scale: Scale) -> String {
    let mut out = String::from("Figure 3b — downsized AlexNet, SSP s=3..15 vs DSSP\n\n");
    sweep_vs_dssp(|p| alexnet_homogeneous(p, scale), &mut out);
    out
}

/// Figure 3c: BSP / ASP / DSSP / averaged SSP on the ResNet-50 analogue.
pub fn fig3c(scale: Scale) -> String {
    let mut out = String::from("Figure 3c — ResNet-50 analogue, all paradigms + averaged SSP\n\n");
    headline_with_average_ssp(|p| resnet50_homogeneous(p, scale), &mut out);
    out
}

/// Figure 3d: DSSP against each individual SSP threshold on the ResNet-50 analogue.
pub fn fig3d(scale: Scale) -> String {
    let mut out = String::from("Figure 3d — ResNet-50 analogue, SSP s=3..15 vs DSSP\n\n");
    sweep_vs_dssp(|p| resnet50_homogeneous(p, scale), &mut out);
    out
}

/// Figure 3e: BSP / ASP / DSSP / averaged SSP on the ResNet-110 analogue.
pub fn fig3e(scale: Scale) -> String {
    let mut out = String::from("Figure 3e — ResNet-110 analogue, all paradigms + averaged SSP\n\n");
    headline_with_average_ssp(|p| resnet110_homogeneous(p, scale), &mut out);
    out
}

/// Figure 3f: DSSP against each individual SSP threshold on the ResNet-110 analogue.
pub fn fig3f(scale: Scale) -> String {
    let mut out = String::from("Figure 3f — ResNet-110 analogue, SSP s=3..15 vs DSSP\n\n");
    sweep_vs_dssp(|p| resnet110_homogeneous(p, scale), &mut out);
    out
}

/// The policy list used by Figure 4 / Table I.
pub fn fig4_policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::Bsp,
        PolicyKind::Asp,
        PolicyKind::Ssp { s: 3 },
        PolicyKind::Ssp { s: 6 },
        PolicyKind::Ssp { s: 15 },
        dssp_reference(),
    ]
}

fn fig4_traces(scale: Scale) -> Vec<RunTrace> {
    run_policies(|p| resnet110_heterogeneous(p, scale), &fig4_policies())
}

/// Figure 4: accuracy versus time on the heterogeneous GTX 1060 + GTX 1080 Ti cluster.
pub fn fig4(scale: Scale) -> String {
    let mut out =
        String::from("Figure 4 — ResNet-110 analogue on the mixed GTX1060 + GTX1080Ti cluster\n\n");
    let traces = fig4_traces(scale);
    for t in &traces {
        let _ = writeln!(out, "{}", report::trace_summary_line(t));
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "{}", report::traces_to_csv(&traces));
    out
}

/// Table I: time to reach the two target accuracies on the heterogeneous cluster.
///
/// The paper uses absolute targets (0.67 / 0.68); the reproduction sets the targets
/// relative to the best accuracy BSP achieves, mirroring the paper's choice of targets
/// at the top of BSP's achievable range.
pub fn table1(scale: Scale) -> String {
    table1_from(&fig4_traces(scale))
}

fn table1_from(traces: &[RunTrace]) -> String {
    let mut out = String::from("Table I — time (s) to reach the targeted test accuracy\n\n");
    let bsp_best = traces
        .iter()
        .find(|t| t.policy == "BSP")
        .map(|t| t.best_accuracy())
        .unwrap_or(0.0);
    let targets = [bsp_best * 0.99, bsp_best];
    let _ = writeln!(
        out,
        "targets are {:.3} and {:.3} (99% and 100% of BSP's best accuracy {:.3})\n",
        targets[0], targets[1], bsp_best
    );
    let table = time_to_accuracy_table(traces, &targets);
    let _ = writeln!(
        out,
        "{}",
        report::time_to_accuracy_markdown(&table, &targets)
    );
    out
}

/// Section V-C analysis: iteration throughput and waiting time of every paradigm on the
/// FC-heavy model versus the pure convolutional model.
pub fn throughput(scale: Scale) -> String {
    let mut out = String::from("Section V-C — iteration throughput by model family\n");
    for (name, base) in [
        (
            "downsized AlexNet (with FC layers)",
            Box::new(move |p| alexnet_homogeneous(p, scale))
                as Box<dyn Fn(PolicyKind) -> SimConfig + Sync>,
        ),
        (
            "ResNet-110 analogue (no FC layers)",
            Box::new(move |p| resnet110_homogeneous(p, scale)),
        ),
    ] {
        let _ = writeln!(out, "\n== {name} ==\n");
        let traces = run_policies(&base, &dssp_core::presets::headline_policies());
        let summaries: Vec<ThroughputSummary> = traces.iter().map(ThroughputSummary::of).collect();
        let _ = writeln!(out, "{}", report::throughput_markdown(&summaries));
    }
    out
}

/// Theorems 1 and 2: numeric regret bounds for SSP and DSSP.
pub fn theory() -> String {
    let mut out = String::from("Theorems 1 & 2 — regret bounds (F = L = 1, P = 4 workers)\n\n");
    let params = BoundParams::default();
    let _ = writeln!(
        out,
        "{:>12} {:>18} {:>22} {:>18}",
        "T", "SSP s=3 bound", "DSSP [3,15] bound", "DSSP bound / T"
    );
    for t in [1_000u64, 10_000, 100_000, 1_000_000] {
        let ssp = ssp_regret_bound(&params, 3, t);
        let dssp = dssp_regret_bound(&params, 3, 12, t);
        let _ = writeln!(
            out,
            "{:>12} {:>18.1} {:>22.1} {:>18.4}",
            t,
            ssp,
            dssp,
            regret_rate(dssp, t)
        );
    }
    let _ = writeln!(
        out,
        "\nDSSP with range [3,15] shares SSP(s=15)'s bound: {} = {}",
        dssp_regret_bound(&params, 3, 12, 100_000),
        ssp_regret_bound(&params, 15, 100_000)
    );
    out
}

/// Ablation (`repro ablation`): DSSP controller look-ahead `r_max` on the
/// heterogeneous cluster. `r_max = 0` degenerates to SSP at the lower bound.
pub fn ablation_rmax(scale: Scale) -> String {
    let mut out =
        String::from("Ablation — DSSP controller look-ahead r_max (heterogeneous cluster)\n\n");
    let _ = writeln!(
        out,
        "{:>8} {:>14} {:>16} {:>14} {:>14}",
        "r_max", "total time(s)", "waiting time(s)", "mean stale", "best acc"
    );
    for r_max in [0u64, 2, 4, 8, 12] {
        let trace = run(resnet110_heterogeneous(
            PolicyKind::Dssp { s_l: 3, r_max },
            scale,
        ));
        let _ = writeln!(
            out,
            "{:>8} {:>14.1} {:>16.1} {:>14.2} {:>14.3}",
            r_max,
            trace.total_time_s,
            trace.total_waiting_time(),
            trace.server_stats.mean_staleness(),
            trace.best_accuracy()
        );
    }
    out
}

/// Ablation (`repro ablation_strict`): literal Algorithm-1 DSSP versus the strict-range
/// variant that hard-caps the realized staleness at `s_U`, on the heterogeneous cluster
/// where the two differ most.
///
/// The literal policy keeps re-granting extra iterations to the persistently faster
/// worker, so it tracks ASP's progress (the paper's Figure 4 behaviour); the strict
/// variant degenerates towards SSP at the upper bound once the fast worker's cumulative
/// lead reaches `s_U`.
pub fn ablation_strict(scale: Scale) -> String {
    let mut out = String::from(
        "Ablation — literal Algorithm-1 DSSP vs strict-range DSSP (heterogeneous cluster)\n\n",
    );
    let policies = [
        dssp_reference(),
        PolicyKind::DsspStrict { s_l: 3, r_max: 12 },
        PolicyKind::Ssp { s: 15 },
        PolicyKind::Asp,
    ];
    let _ = writeln!(
        out,
        "{:<24} {:>12} {:>14} {:>12} {:>12} {:>10}",
        "policy", "time (s)", "waiting (s)", "max stale", "mean stale", "best acc"
    );
    for policy in policies {
        let trace = run(resnet110_heterogeneous(policy, scale));
        let _ = writeln!(
            out,
            "{:<24} {:>12.1} {:>14.1} {:>12} {:>12.2} {:>10.3}",
            trace.policy,
            trace.total_time_s,
            trace.total_waiting_time(),
            trace.server_stats.staleness_max,
            trace.server_stats.mean_staleness(),
            trace.best_accuracy()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_run_policies_is_identical_to_serial_runs() {
        // Each simulation is deterministic given its config, and run_policies returns
        // results in input order, so the thread pool must be invisible in the output.
        let base = |p: PolicyKind| SimConfig {
            policy: p,
            ..SimConfig::default_small()
        };
        let policies = [
            PolicyKind::Bsp,
            PolicyKind::Asp,
            PolicyKind::Ssp { s: 2 },
            dssp_reference(),
        ];
        let parallel = run_policies(base, &policies);
        let serial: Vec<RunTrace> = policies.iter().map(|&p| run(base(p))).collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn fig2_reports_a_positive_r_star() {
        let text = fig2();
        assert!(text.contains("<= r*"));
        assert!(text.contains("chosen r*"));
    }

    #[test]
    fn fig1_lists_both_workers() {
        let text = fig1();
        assert!(text.contains("compute (s)"));
        assert!(
            text.lines()
                .filter(|l| l.trim_start().starts_with('0'))
                .count()
                >= 6
        );
    }

    #[test]
    fn theory_table_mentions_shared_bound() {
        let text = theory();
        assert!(text.contains("shares SSP(s=15)'s bound"));
    }

    #[test]
    fn table1_renders_markdown_with_targets_from_the_bsp_row() {
        // The quick-scale Figure-4 sweep itself is run end to end, with output checks,
        // by the ledger's `sim_hetero` workload; here only the rendering is under test.
        let policies = [PolicyKind::Bsp, dssp_reference()];
        let traces = run_policies(
            |p| SimConfig {
                policy: p,
                ..SimConfig::default_small()
            },
            &policies,
        );
        let bsp_best = traces[0].best_accuracy();
        assert!(bsp_best > 0.0);
        let text = table1_from(&traces);
        assert!(text.contains("| Distributed Paradigm |"));
        assert!(text.contains("DSSP"));
        assert!(text.contains(&format!("100% of BSP's best accuracy {bsp_best:.3}")));
        // BSP reaches both targets by construction, so its row holds two times.
        let bsp_row = text.lines().find(|l| l.starts_with("| BSP |")).unwrap();
        assert!(!bsp_row.contains('−'), "{bsp_row}");
    }
}
