//! Per-layer mode: the benchmark's own files time calls into each layer's public
//! functions (one span per call, kept in memory, written to `out/` at exit), count
//! allocations and bytes, and run the program a few times for the numbers only a real
//! run has (`runs.rs`).
//!
//! Every timing is the median over [`BATCHES`] batches of the mean span duration in
//! a batch, less the recorder's own per-span cost.

mod kernels;
mod round;
mod runs;
mod transport;

use crate::catalog::PER_LAYER;
use crate::result::RunResult;
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::Workload;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Batches behind every reported timing.
pub const BATCHES: usize = 9;

/// Calls after which a batch ends even if its time is not up, so that
/// nanosecond-scale probes do not fill memory with spans.
const MAX_CALLS_PER_BATCH: usize = 1000;

/// Share of `--seconds` one batch lasts: 9 batches of some 30 probes, plus the
/// program runs, add up to about `--seconds`.
const BATCH_SHARE: f64 = 0.002;

/// Shards the transport probes split the workload's parameters into (the comm
/// workloads' own count; the others have no transport to take one from).
pub const PROBE_SHARDS: usize = 8;

/// Times calls, one span each, in batches.
pub struct Probe {
    /// Every span recorded so far.
    pub rec: Recorder,
    batch: Duration,
    overhead_ns: f64,
    /// Calls timed so far.
    pub calls: u64,
}

impl Probe {
    /// A probe whose batches last `seconds × BATCH_SHARE`. Measures the recorder's
    /// own cost per span first, to subtract it from every timing.
    pub fn new(seconds: f64) -> Self {
        let mut probe = Self {
            rec: Recorder::new(),
            batch: Duration::from_secs_f64(seconds * BATCH_SHARE),
            overhead_ns: 0.0,
            calls: 0,
        };
        probe.overhead_ns = probe.time("probe.empty_span", || ());
        probe
    }

    /// Nanoseconds per call of `call`.
    pub fn time(&mut self, name: &'static str, mut call: impl FnMut()) -> f64 {
        self.time_round(&[name], |rec| rec.span(name, &mut call))[0]
    }

    /// Plays `round` in batches. The round records spans called `names` (any number
    /// of each); the result is nanoseconds per span for each name, in order.
    pub fn time_round(
        &mut self,
        names: &[&'static str],
        mut round: impl FnMut(&mut Recorder),
    ) -> Vec<f64> {
        let mut scratch = Recorder::new();
        round(&mut scratch); // warm-up, not kept
        let mut means = vec![Vec::with_capacity(BATCHES); names.len()];
        for _ in 0..BATCHES {
            let mark = self.rec.mark();
            let start = Instant::now();
            for rounds in 1.. {
                round(&mut self.rec);
                if rounds >= MAX_CALLS_PER_BATCH || start.elapsed() >= self.batch {
                    break;
                }
            }
            for (name, means) in names.iter().zip(&mut means) {
                let (mean, count) = self.rec.mean_since(mark, name);
                self.calls += count as u64;
                means.push(mean);
            }
        }
        means
            .iter()
            .map(|m| (median(m) - self.overhead_ns).max(0.0))
            .collect()
    }
}

/// What one trace run produced.
pub struct TraceReport {
    /// The result in contract form.
    pub result: RunResult,
    /// What went wrong, one line per failure.
    pub errors: Vec<String>,
    /// Where the spans were written.
    pub spans_file: PathBuf,
}

/// Directory trace mode writes into: `out/` beside the benchmark's `Cargo.toml`.
fn out_dir() -> PathBuf {
    // `cargo run` sets the variable at run time; the compile-time value covers a
    // binary started by hand from the tree it was built in.
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest_dir).join("out")
}

/// Runs every per-layer probe at `workload`'s shape.
pub fn trace(workload: &'static Workload, seed: u64, seconds: f64) -> Result<TraceReport, String> {
    if !crate::alloc::installed() {
        return Err("the counting allocator is not installed (run bench-trace, not bench)".into());
    }
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;

    let job = workload.shape_job(seed);
    let mut probe = Probe::new(seconds);
    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    let mut errors = Vec::new();

    let handdriven_us = round::measure(&mut probe, &job, &mut metrics)?;
    transport::measure(&mut probe, &job, &mut metrics)?;
    kernels::measure(&mut probe, &job, seed, &mut metrics);
    let program = runs::measure(
        workload,
        seed,
        handdriven_us,
        &out,
        &mut metrics,
        &mut errors,
    );

    let spans_file = out.join(format!("spans-{}-{seed}.json", workload.name));
    std::fs::write(&spans_file, probe.rec.to_chrome_trace())
        .map_err(|e| format!("cannot write {}: {e}", spans_file.display()))?;

    // Report in catalog order, so that every run prints the same table.
    metrics.sort_by_key(|(name, _)| PER_LAYER.iter().position(|d| d.name == *name));
    Ok(TraceReport {
        result: RunResult {
            correct: errors.is_empty(),
            attempted: probe.calls + program.attempted,
            failed: program.failed,
            metrics,
        },
        errors,
        spans_file,
    })
}

impl TraceReport {
    /// A table for people: every per-layer metric by name, with its unit.
    pub fn table(&self, workload: &Workload) -> String {
        let mut out = format!(
            "per-layer metrics at the shape of {} (median of {BATCHES} batches each)\n",
            workload.name
        );
        for (name, value) in &self.result.metrics {
            let unit = PER_LAYER
                .iter()
                .find(|d| d.name == *name)
                .map_or("?", |d| d.unit);
            out.push_str(&format!("  {name:<32} {value:>16.4} {unit}\n"));
        }
        out.push_str(&format!(
            "  spans written to {}\n",
            self.spans_file.display()
        ));
        for e in &self.errors {
            out.push_str(&format!("  FAILED {e}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_reports_one_value_per_name_and_counts_calls() {
        let mut probe = Probe::new(0.5);
        let calls_before = probe.calls;
        let mut spins = 0u64;
        let ns = probe.time_round(&["a", "b"], |rec| {
            rec.span("a", || {
                for i in 0..2_000u64 {
                    spins = std::hint::black_box(spins + i);
                }
            });
            rec.span("b", || ());
            rec.span("b", || ());
        });
        assert_eq!(ns.len(), 2);
        assert!(
            ns[0] > ns[1],
            "the loop must cost more than nothing: {ns:?}"
        );
        let calls = probe.calls - calls_before;
        assert!(calls >= 3 * BATCHES as u64);
        assert_eq!(calls % 3, 0, "two b spans per a span");
    }
}
