//! A/A: two sets of runs of the same build, compared against the benchmark's own
//! bounds. A benchmark whose two readings of one program disagree by more than the
//! bound it sets for a regression cannot resolve that regression.

use crate::catalog::{BOUNDS, END_TO_END, PER_LAYER};
use crate::result::RunResult;
use crate::stats::{median, worse_by};

/// Per-layer metrics that are counts or virtual times and must read exactly the same
/// on every run of one build under one seed.
pub fn is_exact(name: &str) -> bool {
    name.ends_with("_allocs")
        || name.ends_with("_bytes")
        || name.ends_with("bytes_per_push")
        || name == "net.delta_pull_share"
        || name.starts_with("sim.virtual_")
}

/// One workload's end-to-end result within a set, as read back from its own process.
#[derive(Debug, Clone, PartialEq)]
pub struct SetEntry {
    /// The workload.
    pub workload: &'static str,
    /// Whether the run passed every check.
    pub correct: bool,
    /// Metric values by name.
    pub metrics: Vec<(String, f64)>,
}

/// Folds several runs of one workload into one entry: each metric's median, and
/// correct only if every run was.
///
/// # Panics
///
/// Panics if `runs` is empty.
pub fn median_entry(runs: &[SetEntry]) -> SetEntry {
    let metrics = runs[0]
        .metrics
        .iter()
        .map(|(name, _)| {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
                .collect();
            (name.clone(), median(&values))
        })
        .collect();
    SetEntry {
        workload: runs[0].workload,
        correct: runs.iter().all(|r| r.correct),
        metrics,
    }
}

/// Compares two end-to-end sets (one entry per workload, same order). Returns the
/// table and whether every workload × metric pair agrees within its bound — and, on
/// the simulator, whether the virtual `busy_share` is identical.
pub fn compare_sets(first: &[SetEntry], second: &[SetEntry]) -> (String, bool) {
    let mut table = format!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "set A", "set B", "B vs A", "bound"
    );
    let mut all_ok = first.len() == second.len();
    for (a, b) in first.iter().zip(second) {
        let value =
            |e: &SetEntry, name: &str| e.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        for (def, bound) in END_TO_END.iter().zip(BOUNDS) {
            let (Some(va), Some(vb)) = (value(a, def.name), value(b, def.name)) else {
                table.push_str(&format!(
                    "{:<14} {:<16} not measured  MISS\n",
                    a.workload, def.name
                ));
                all_ok = false;
                continue;
            };
            let worse = worse_by(va, vb, def.higher_is_better);
            let exact = a.workload == "sim_hetero" && def.name == "busy_share";
            let ok = if exact {
                va.to_bits() == vb.to_bits()
            } else {
                worse.abs() <= bound
            };
            all_ok &= ok;
            table.push_str(&format!(
                "{:<14} {:<16} {:>14.6} {:>14.6} {:>+8.2}% {:>6.1}%  {}\n",
                a.workload,
                def.name,
                va,
                vb,
                worse * 100.0,
                if exact { 0.0 } else { bound * 100.0 },
                if ok { "ok" } else { "MISS" },
            ));
        }
        all_ok &= a.correct && b.correct && a.workload == b.workload;
    }
    (table, all_ok)
}

/// Compares the exact per-layer metrics of two trace runs of one workload.
pub fn compare_exact(first: &RunResult, second: &RunResult) -> (String, bool) {
    let mut table = String::new();
    let mut all_ok = true;
    for def in PER_LAYER.iter().filter(|d| is_exact(d.name)) {
        let value = |r: &RunResult| {
            r.metrics
                .iter()
                .find(|(n, _)| *n == def.name)
                .map(|(_, v)| *v)
        };
        let (a, b) = (value(first), value(second));
        let ok = a.is_some() && a.map(f64::to_bits) == b.map(f64::to_bits);
        all_ok &= ok;
        table.push_str(&format!(
            "{:<28} {:>20} {:>20}  {}\n",
            def.name,
            a.map_or("missing".to_string(), |v| v.to_string()),
            b.map_or("missing".to_string(), |v| v.to_string()),
            if ok { "identical" } else { "DIFFERS" },
        ));
    }
    (table, all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(workload: usize, pushes_per_s: f64, wait_share: f64) -> SetEntry {
        SetEntry {
            workload: crate::workloads::ALL[workload].name,
            correct: true,
            metrics: vec![
                ("pushes_per_s".to_string(), pushes_per_s),
                ("cpu_ms_per_push".to_string(), 1.0),
                ("busy_share".to_string(), 1.0 - wait_share),
                ("peak_rss_mb".to_string(), 10.0),
                ("setup_s".to_string(), 0.1),
            ],
        }
    }

    #[test]
    fn agreement_within_the_bound_passes_and_beyond_it_misses() {
        let (_, ok) = compare_sets(&[report(1, 1000.0, 0.3)], &[report(1, 1050.0, 0.31)]);
        assert!(ok);
        let (table, ok) = compare_sets(&[report(1, 1000.0, 0.3)], &[report(1, 700.0, 0.3)]);
        assert!(!ok);
        assert!(table.contains("MISS"));
        // Being better by more than the bound is a disagreement too.
        let (_, ok) = compare_sets(&[report(1, 1000.0, 0.3)], &[report(1, 1400.0, 0.3)]);
        assert!(!ok);
    }

    #[test]
    fn a_set_entry_is_the_median_of_its_runs() {
        let mut bad = report(1, 1200.0, 0.3);
        bad.correct = false;
        let folded = median_entry(&[report(1, 1000.0, 0.3), report(1, 1100.0, 0.3), bad.clone()]);
        assert_eq!(folded.metrics[0], ("pushes_per_s".to_string(), 1100.0));
        assert!(!folded.correct);
        assert!(median_entry(&[report(1, 1000.0, 0.3)]).correct);
    }

    #[test]
    fn the_simulators_busy_share_must_be_identical() {
        let (_, ok) = compare_sets(&[report(0, 190.0, 0.18)], &[report(0, 190.0, 0.18)]);
        assert!(ok);
        let (_, ok) = compare_sets(&[report(0, 190.0, 0.18)], &[report(0, 190.0, 0.180001)]);
        assert!(!ok);
    }

    #[test]
    fn exact_metrics_are_the_counts_and_virtual_times() {
        let exact: Vec<_> = PER_LAYER
            .iter()
            .filter(|d| is_exact(d.name))
            .map(|d| d.name)
            .collect();
        assert!(exact.contains(&"nn.step_allocs"));
        assert!(exact.contains(&"net.wire.push_frame_bytes"));
        assert!(exact.contains(&"coord.bytes_per_push"));
        assert!(exact.contains(&"sim.virtual_tta_s.dssp"));
        assert_eq!(exact.len(), 3 + 4 + 1 + 8);
        assert!(!is_exact("net.tcp.push_rtt_us"));
    }

    #[test]
    fn exact_comparison_wants_bitwise_equality() {
        let result = |bytes: f64| RunResult {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: PER_LAYER
                .iter()
                .map(|d| {
                    (
                        d.name,
                        if d.name == "coord.bytes_per_push" {
                            bytes
                        } else {
                            1.0
                        },
                    )
                })
                .collect(),
        };
        assert!(compare_exact(&result(5.0), &result(5.0)).1);
        let (table, ok) = compare_exact(&result(5.0), &result(5.5));
        assert!(!ok && table.contains("DIFFERS"));
    }
}
