//! Plain-text rendering of traces and tables (CSV for plotting, Markdown for reports).

use crate::json::escape;
use crate::metrics::{ThroughputSummary, TimeToAccuracyRow};
use dssp_sim::RunTrace;
use std::fmt::Write as _;

/// Renders a set of traces as a long-format CSV:
/// `policy,model,time_s,pushes,epoch,test_accuracy,train_loss`.
///
/// One row per evaluation point per trace — the format the paper's accuracy-versus-time
/// figures plot directly.
pub fn traces_to_csv(traces: &[RunTrace]) -> String {
    let mut out = String::from("policy,model,time_s,pushes,epoch,test_accuracy,train_loss\n");
    for trace in traces {
        for p in &trace.points {
            let _ = writeln!(
                out,
                "{},{},{:.6},{},{},{:.4},{:.4}",
                trace.policy,
                trace.model,
                p.time_s,
                p.pushes,
                p.epoch,
                p.test_accuracy,
                p.train_loss
            );
        }
    }
    out
}

/// Renders the time-to-accuracy table (Table I) as Markdown. Unreached targets are shown
/// as a dash, exactly as in the paper.
pub fn time_to_accuracy_markdown(rows: &[TimeToAccuracyRow], targets: &[f64]) -> String {
    let mut out = String::from("| Distributed Paradigm |");
    for t in targets {
        let _ = write!(out, " Time to reach {t:.2} accuracy |");
    }
    out.push('\n');
    out.push_str("|---|");
    for _ in targets {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        let _ = write!(out, "| {} |", row.policy);
        for time in &row.times {
            match time {
                Some(t) => {
                    let _ = write!(out, " {t:.1} |");
                }
                None => {
                    let _ = write!(out, " − |");
                }
            }
        }
        out.push('\n');
    }
    out
}

/// Renders per-policy throughput summaries as a Markdown table (the Section V-C
/// iteration-throughput analysis).
pub fn throughput_markdown(summaries: &[ThroughputSummary]) -> String {
    let mut out = String::from(
        "| Paradigm | Pushes/s | Total time (s) | Waiting time (s) | Mean staleness | Best accuracy |\n|---|---|---|---|---|---|\n",
    );
    for s in summaries {
        let _ = writeln!(
            out,
            "| {} | {:.1} | {:.1} | {:.1} | {:.2} | {:.3} |",
            s.policy,
            s.pushes_per_second,
            s.total_time_s,
            s.waiting_time_s,
            s.mean_staleness,
            s.best_accuracy
        );
    }
    out
}

/// Renders a trace as pretty-printed JSON (hand-rolled: the offline serde shim only
/// marks types, it does not serialize). This is the machine-readable artifact the
/// `repro -- serve` / `repro -- launch` subcommands write and CI uploads.
pub fn trace_json(trace: &RunTrace) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"policy\": {},", escape(&trace.policy));
    let _ = writeln!(out, "  \"model\": {},", escape(&trace.model));
    let _ = writeln!(out, "  \"workers\": {},", trace.workers);
    let _ = writeln!(out, "  \"total_time_s\": {:.6},", trace.total_time_s);
    let _ = writeln!(out, "  \"total_pushes\": {},", trace.total_pushes);
    out.push_str("  \"points\": [\n");
    for (i, p) in trace.points.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"time_s\": {:.6}, \"pushes\": {}, \"epoch\": {}, \"test_accuracy\": {:.6}, \"train_loss\": {:.6}}}",
            p.time_s, p.pushes, p.epoch, p.test_accuracy, p.train_loss
        );
        out.push_str(if i + 1 < trace.points.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n  \"worker_summaries\": [\n");
    for (i, w) in trace.worker_summaries.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"worker\": {}, \"iterations\": {}, \"epochs\": {}, \"waiting_time_s\": {:.6}}}",
            w.worker, w.iterations, w.epochs, w.waiting_time_s
        );
        out.push_str(if i + 1 < trace.worker_summaries.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    let s = &trace.server_stats;
    out.push_str("  ],\n  \"server_stats\": {\n");
    let _ = writeln!(out, "    \"pushes\": {},", s.pushes);
    let _ = writeln!(out, "    \"blocked_pushes\": {},", s.blocked_pushes);
    let _ = writeln!(out, "    \"releases\": {},", s.releases);
    let _ = writeln!(out, "    \"staleness_sum\": {},", s.staleness_sum);
    let _ = writeln!(out, "    \"staleness_max\": {},", s.staleness_max);
    let _ = writeln!(out, "    \"credits_granted\": {}", s.credits_granted);
    out.push_str("  },\n  \"group_servers\": [\n");
    for (i, g) in trace.group_servers.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"server\": {}, \"params\": {}, \"shards\": {}, \"pushes\": {}, \"pulls_full\": {}, \"pulls_delta\": {}, \"bytes_sent\": {}, \"bytes_received\": {}}}",
            g.server,
            g.params,
            g.shards,
            g.pushes,
            g.pulls_full,
            g.pulls_delta,
            g.bytes_sent,
            g.bytes_received
        );
        out.push_str(if i + 1 < trace.group_servers.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders a compact per-trace summary line, useful for example binaries.
pub fn trace_summary_line(trace: &RunTrace) -> String {
    format!(
        "{:<16} time={:>8.1}s pushes={:>6} throughput={:>7.1}/s best_acc={:.3} final_acc={:.3} wait={:>7.1}s",
        trace.policy,
        trace.total_time_s,
        trace.total_pushes,
        trace.iteration_throughput(),
        trace.best_accuracy(),
        trace.final_accuracy(),
        trace.total_waiting_time()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssp_ps::ServerStats;
    use dssp_sim::TracePoint;

    fn trace() -> RunTrace {
        RunTrace {
            policy: "DSSP s=3, r=12".into(),
            model: "downsized-alexnet".into(),
            workers: 4,
            points: vec![TracePoint {
                time_s: 1.5,
                pushes: 10,
                epoch: 0,
                test_accuracy: 0.42,
                train_loss: 1.8,
            }],
            total_time_s: 1.5,
            total_pushes: 10,
            worker_summaries: vec![],
            server_stats: ServerStats::default(),
            group_servers: vec![dssp_sim::GroupServerStats {
                server: 0,
                params: 4242,
                shards: 8,
                pushes: 10,
                pulls_full: 4,
                pulls_delta: 6,
                bytes_sent: 1000,
                bytes_received: 2000,
            }],
        }
    }

    #[test]
    fn csv_has_header_and_one_row_per_point() {
        let csv = traces_to_csv(&[trace()]);
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("policy,model,time_s"));
        assert!(lines[1].starts_with("DSSP s=3, r=12,downsized-alexnet,1.5"));
    }

    #[test]
    fn table_markdown_prints_dash_for_unreached_targets() {
        let rows = vec![TimeToAccuracyRow {
            policy: "BSP".into(),
            times: vec![Some(6159.2), None],
        }];
        let md = time_to_accuracy_markdown(&rows, &[0.67, 0.68]);
        assert!(md.contains("| BSP | 6159.2 | − |"));
        assert!(md.contains("Time to reach 0.67 accuracy"));
    }

    #[test]
    fn throughput_markdown_has_one_row_per_summary() {
        let summaries = vec![crate::metrics::ThroughputSummary::of(&trace())];
        let md = throughput_markdown(&summaries);
        assert_eq!(md.trim().lines().count(), 3);
        assert!(md.contains("DSSP"));
    }

    #[test]
    fn summary_line_mentions_policy_and_accuracy() {
        let line = trace_summary_line(&trace());
        assert!(line.contains("DSSP"));
        assert!(line.contains("0.420"));
    }

    #[test]
    fn trace_json_is_balanced_and_contains_the_key_fields() {
        let json = trace_json(&trace());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"policy\": \"DSSP s=3, r=12\""));
        assert!(json.contains("\"total_pushes\": 10"));
        assert!(json.contains("\"credits_granted\": 0"));
        assert!(json.contains("\"test_accuracy\": 0.420000"));
        // Group runs aggregate per-server counters into the same report.
        assert!(json.contains(
            "{\"server\": 0, \"params\": 4242, \"shards\": 8, \"pushes\": 10, \
             \"pulls_full\": 4, \"pulls_delta\": 6, \"bytes_sent\": 1000, \
             \"bytes_received\": 2000}"
        ));
    }
}
