//! Cross-crate integration tests: full training runs through the public API.

use dssp_core::metrics::{accuracy_time_auc, time_to_accuracy_table};
use dssp_core::presets::{alexnet_homogeneous, dssp_reference, Scale};
use dssp_core::runtime::{run_threaded, ThreadedConfig};
use dssp_core::ExperimentBuilder;
use dssp_ps::PolicyKind;
use dssp_sim::Simulation;

#[test]
fn experiment_api_runs_end_to_end_and_is_deterministic() {
    let experiment = ExperimentBuilder::small_mlp()
        .policy(dssp_reference())
        .epochs(2)
        .seed(123)
        .build();
    let a = experiment.run();
    let b = experiment.run();
    assert_eq!(a, b, "same configuration must produce identical traces");
    assert!(a.final_accuracy() > 0.2);
    assert!(a.total_time_s > 0.0);
}

#[test]
fn all_four_paradigms_complete_identical_work_on_the_same_experiment() {
    let experiment = ExperimentBuilder::small_mlp().epochs(2).build();
    let traces = experiment.compare(&[
        PolicyKind::Bsp,
        PolicyKind::Asp,
        PolicyKind::Ssp { s: 3 },
        dssp_reference(),
    ]);
    assert_eq!(traces.len(), 4);
    let pushes: Vec<u64> = traces.iter().map(|t| t.total_pushes).collect();
    assert!(
        pushes.windows(2).all(|w| w[0] == w[1]),
        "all paradigms process the same number of mini-batches: {pushes:?}"
    );
    // Each paradigm produced a usable accuracy curve.
    for trace in &traces {
        assert!(!trace.points.is_empty());
        assert!(
            trace.best_accuracy() > 0.2,
            "{}: {}",
            trace.policy,
            trace.best_accuracy()
        );
    }
}

#[test]
fn alexnet_preset_runs_through_the_simulator() {
    let trace = Simulation::new(alexnet_homogeneous(dssp_reference(), Scale::Quick)).run();
    assert_eq!(trace.model, "downsized-alexnet");
    assert_eq!(trace.workers, 4);
    assert!(trace.total_pushes > 0);
    assert!(trace.final_accuracy() > 0.1);
}

#[test]
fn time_to_accuracy_table_covers_every_policy() {
    let experiment = ExperimentBuilder::small_mlp().epochs(2).build();
    let traces = experiment.compare(&[PolicyKind::Bsp, dssp_reference()]);
    let table = time_to_accuracy_table(&traces, &[0.1, 1.01]);
    assert_eq!(table.len(), 2);
    for row in &table {
        // The 0.1 target should be reached; an above-1.0 target never can be.
        assert!(row.times[0].is_some(), "{} never reached 0.1", row.policy);
        assert!(
            row.times[1].is_none(),
            "{} reached an impossible accuracy",
            row.policy
        );
    }
}

#[test]
fn simulator_and_threaded_runtime_agree_on_synchronization_invariants() {
    // Same workload through both runtimes: the realized staleness bound and the total
    // number of pushes must agree even though timing differs (virtual vs wall clock).
    // The strict-range DSSP variant is used because it is the one that promises a hard
    // bound on the realized staleness.
    let policy = PolicyKind::DsspStrict { s_l: 2, r_max: 4 };

    let sim_trace = ExperimentBuilder::small_mlp()
        .policy(policy)
        .epochs(2)
        .run();

    let mut threaded_config = ThreadedConfig::small(policy);
    threaded_config.epochs = 2;
    threaded_config.extra_compute_delay_ms = vec![0, 2];
    let threaded_trace = run_threaded(threaded_config);

    for trace in [&sim_trace, &threaded_trace] {
        assert!(
            trace.server_stats.staleness_max <= 2 + 4 + 1,
            "{} staleness bound violated: {}",
            trace.policy,
            trace.server_stats.staleness_max
        );
    }
    assert_eq!(
        sim_trace.total_pushes,
        sim_trace
            .worker_summaries
            .iter()
            .map(|w| w.iterations)
            .sum::<u64>()
    );
    assert_eq!(
        threaded_trace.total_pushes,
        threaded_trace
            .worker_summaries
            .iter()
            .map(|w| w.iterations)
            .sum::<u64>()
    );
}

#[test]
fn auc_metric_is_consistent_with_final_accuracy_ordering_for_identical_curves() {
    let trace = ExperimentBuilder::small_mlp().epochs(2).run();
    let auc = accuracy_time_auc(&trace);
    assert!((0.0..=1.0).contains(&auc), "AUC {auc} out of range");
}
