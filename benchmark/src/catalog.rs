//! Every metric the benchmark reports: name, unit, direction. `BENCHMARK.json` lists
//! the same metrics; a unit test keeps the two in step. README.md holds the glossary.

/// One metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a larger value is the better one.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// What a user of the system sees. Every workload reports all of them
/// (`bench run`, nothing traced).
pub const END_TO_END: [MetricDef; 5] = [
    higher("pushes_per_s", "1/s"),
    lower("cpu_ms_per_push", "ms"),
    higher("busy_share", "ratio"),
    lower("peak_rss_mb", "MiB"),
    lower("setup_s", "s"),
];

/// How far a later change may worsen each end-to-end metric (share of the parent's
/// median), in the order of [`END_TO_END`]. Fixed from the A/A sets in README.md.
pub const BOUNDS: [f64; 5] = [0.25, 0.25, 0.10, 0.10, 0.25];

/// Single layers (`bench-trace`). Grouped as in README.md.
pub const PER_LAYER: &[MetricDef] = &[
    // Hand-driven round: one thread plays worker and server, one span per call.
    lower("core.worker_step_us", "us"),
    lower("net.wire.encode_push_us", "us"),
    lower("net.wire.decode_push_us", "us"),
    lower("core.server_handle_us", "us"),
    lower("ps.push_apply_us", "us"),
    lower("ps.gate_on_push_ns", "ns"),
    lower("ps.controller_decide_ns", "ns"),
    lower("ps.pull_full_us", "us"),
    lower("ps.pull_delta_us", "us"),
    lower("net.wire.encode_pull_reply_us", "us"),
    lower("net.wire.apply_pull_reply_us", "us"),
    lower("round.handdriven_us", "us"),
    lower("round.self_us", "us"),
    lower("round.unattributed_share", "ratio"),
    // Transport probes against the benchmark's own stub servers.
    lower("net.tcp.small_rtt_us", "us"),
    lower("net.tcp.push_rtt_us", "us"),
    lower("net.tcp.pull_rtt_us", "us"),
    lower("net.loopback.push_rtt_us", "us"),
    lower("coord.push_round_us.s1", "us"),
    lower("coord.push_round_us.s2", "us"),
    lower("coord.push_round_us.s4", "us"),
    lower("coord.pull_group_us.s1", "us"),
    lower("coord.pull_group_us.s2", "us"),
    lower("coord.pull_group_us.s4", "us"),
    lower("coord.clock_rtt_us", "us"),
    // Kernels and data.
    lower("tensor.matmul_us", "us"),
    lower("tensor.matmul_nt_us", "us"),
    lower("tensor.matmul_tn_us", "us"),
    lower("tensor.conv2d_fwd_us", "us"),
    lower("tensor.conv2d_bwd_us", "us"),
    lower("nn.forward_us", "us"),
    lower("nn.backward_us", "us"),
    lower("data.next_batch_us", "us"),
    lower("data.generate_ms", "ms"),
    lower("sim.engine_us_per_push", "us"),
    // Exact counts: allocations.
    lower("nn.step_allocs", "count"),
    lower("ps.push_allocs", "count"),
    lower("net.round_allocs", "count"),
    // Exact counts: bytes.
    lower("net.wire.push_frame_bytes", "B"),
    lower("net.wire.pull_reply_bytes", "B"),
    lower("net.tcp.bytes_per_push", "B"),
    lower("coord.bytes_per_push", "B"),
    higher("net.delta_pull_share", "ratio"),
    // Exact counts: the simulator's policy sweep (paper Table I).
    lower("sim.virtual_job_s.bsp", "s"),
    lower("sim.virtual_job_s.asp", "s"),
    lower("sim.virtual_job_s.ssp3", "s"),
    lower("sim.virtual_job_s.dssp", "s"),
    lower("sim.virtual_tta_s.bsp", "s"),
    lower("sim.virtual_tta_s.asp", "s"),
    lower("sim.virtual_tta_s.ssp3", "s"),
    lower("sim.virtual_tta_s.dssp", "s"),
    // From the workload's own RunTrace.
    lower("ps.blocked_share", "ratio"),
    lower("ps.mean_staleness", "count"),
    higher("ps.credits_per_push", "count"),
    // Cross-check with the program's own analyzer (`dssp_core::analyze`).
    higher("obs.compute_share", "ratio"),
    lower("obs.comms_share", "ratio"),
    lower("obs.gate_wait_share", "ratio"),
    lower("obs.push_latency_p50_us", "us"),
    lower("obs.events_dropped", "count"),
    lower("obs.overhead_share", "ratio"),
];

/// Whether `name` is a legal metric or workload name under the benchmark contract:
/// starts with a letter or digit, then at most 63 more of letters, digits, `_`, `.`, `-`.
pub fn is_valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit under the benchmark contract.
pub fn is_valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_are_legal_and_unique() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for m in &all {
            assert!(is_valid_name(m.name), "bad name {}", m.name);
            assert!(is_valid_unit(m.unit), "bad unit {} of {}", m.unit, m.name);
            assert_eq!(
                all.iter().filter(|o| o.name == m.name).count(),
                1,
                "{}",
                m.name
            );
        }
        assert!(PER_LAYER.len() <= 128);
        assert_eq!(END_TO_END.len(), BOUNDS.len());
        assert!(BOUNDS.iter().all(|&b| b > 0.0 && b <= 0.25));
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = END_TO_END.iter().position(|m| m.name == "setup_s").unwrap();
        assert!(BOUNDS.iter().all(|&b| b <= BOUNDS[setup]));
    }

    /// `../BENCHMARK.json` is what the driver reads; this file is what the binaries
    /// print. They must list the same workloads and metrics.
    #[test]
    fn benchmark_json_lists_exactly_this_catalog() {
        use dssp_core::json::{parse, Value};
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = parse(&std::fs::read_to_string(path).expect(path)).expect("valid JSON");
        let Value::Object(keys) = &spec else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).map(str::to_string);
        let better = |d: &MetricDef| {
            Some(
                if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                }
                .to_string(),
            )
        };

        let listed = spec.get("end_to_end").and_then(Value::as_array).unwrap();
        assert_eq!(listed.len(), END_TO_END.len());
        for ((entry, def), bound) in listed.iter().zip(&END_TO_END).zip(BOUNDS) {
            assert_eq!(field(entry, "name").as_deref(), Some(def.name));
            assert_eq!(
                field(entry, "unit").as_deref(),
                Some(def.unit),
                "{}",
                def.name
            );
            assert_eq!(field(entry, "better"), better(def), "{}", def.name);
            assert_eq!(
                entry.get("bound").and_then(Value::as_f64),
                Some(bound),
                "{}",
                def.name
            );
        }
        let listed = spec.get("per_layer").and_then(Value::as_array).unwrap();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (entry, def) in listed.iter().zip(PER_LAYER) {
            assert_eq!(field(entry, "name").as_deref(), Some(def.name));
            assert_eq!(
                field(entry, "unit").as_deref(),
                Some(def.unit),
                "{}",
                def.name
            );
            assert_eq!(field(entry, "better"), better(def), "{}", def.name);
        }
        let listed = spec.get("workloads").and_then(Value::as_array).unwrap();
        assert_eq!(listed.len(), crate::workloads::ALL.len());
        for (entry, workload) in listed.iter().zip(&crate::workloads::ALL) {
            assert_eq!(field(entry, "name").as_deref(), Some(workload.name));
            assert_eq!(field(entry, "why").as_deref(), Some(workload.why));
        }
        assert_eq!(
            spec.get("run_seconds").and_then(Value::as_f64),
            Some(crate::cli::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn name_and_unit_rules() {
        assert!(is_valid_name("coord.push_round_us.s4"));
        assert!(!is_valid_name(".hidden"));
        assert!(!is_valid_name("has space"));
        assert!(!is_valid_name(""));
        assert!(!is_valid_name(&"x".repeat(65)));
        assert!(is_valid_unit("1/s"));
        assert!(!is_valid_unit("micro seconds"));
        assert!(!is_valid_unit(""));
    }
}
