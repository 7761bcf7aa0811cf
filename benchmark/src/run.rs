//! End-to-end mode: fresh jobs of one workload, back to back in one process, nothing
//! traced. One warm-up repeat is discarded; as many timed repeats follow as fit in
//! `--seconds` on the reference host, and every wall-clock metric is the median over
//! them.

use crate::catalog::END_TO_END;
use crate::procfs;
use crate::result::RunResult;
use crate::stats::Summary;
use crate::substrate::{self, Outcome};
use crate::workloads::{repeat_seed, virtual_twin, Job, Workload, VIRTUAL_SEEDS};
use dssp_sim::RunTrace;
use dssp_sim::Simulation;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A repeat that has not finished after this long counts as failed and ends the run.
const REPEAT_LIMIT: Duration = Duration::from_secs(60);

/// Fewest timed repeats a run makes, however short `--seconds` is.
const MIN_REPEATS: usize = 3;

/// A run on a host much slower than the reference one stops early once it has
/// measured for this multiple of `--seconds` (and made [`MIN_REPEATS`]).
const OVERRUN: f64 = 1.2;

/// Fresh processes whose median peak is `peak_rss_mb`. One probe's peak repeats to
/// 1 % (README.md, "Noise"); with three, one odd reading does not count.
pub const PEAK_PROBES: u64 = 3;

/// Timed repeats planned for `seconds` of measuring: as many as fit on the reference
/// host. Planned from the workload's nominal repeat time, not from this run's speed,
/// so that one `(seed, seconds)` pair always trains the same jobs and the simulator's
/// virtual results repeat exactly.
pub fn planned_repeats(workload: &Workload, seconds: f64) -> usize {
    ((seconds / workload.nominal_repeat_s) as usize).max(MIN_REPEATS)
}

/// What one timed repeat measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Set-up wall seconds.
    pub setup_s: f64,
    /// Pushes per second of training wall time.
    pub pushes_per_s: f64,
    /// Process CPU milliseconds (user + system, set-up included) per push.
    pub cpu_ms_per_push: f64,
    /// Seconds the workers spent waiting for an `OK`, summed over workers.
    pub waiting_s: f64,
    /// Seconds the workers were in the job, summed over workers: workers × training
    /// time (virtual on the simulator, like `waiting_s`).
    pub worker_s: f64,
}

/// Everything one end-to-end run produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The workload that ran.
    pub workload: &'static Workload,
    /// One sample per timed repeat that passed its checks.
    pub samples: Vec<Sample>,
    /// Pushes attempted, warm-up included.
    pub attempted: u64,
    /// Pushes of repeats that failed, timed out or failed a check.
    pub failed: u64,
    /// What went wrong, one line per failure.
    pub errors: Vec<String>,
    /// On the simulator: virtual seconds waited and virtual worker seconds, summed over
    /// [`VIRTUAL_SEEDS`] virtual twins of the job. `None` on real-time substrates,
    /// where `busy_share` comes from the timed repeats themselves.
    pub virtual_time: Option<(f64, f64)>,
    /// `VmHWM` of each of [`PEAK_PROBES`] fresh processes that ran one
    /// [`Workload::probe_job`], MiB. This process's own `VmHWM` is no use: every repeat
    /// adds what the allocator keeps of freed memory in per-thread arenas (README.md,
    /// "Noise"), so at exit it measures how many repeats ran, not what a job needs.
    pub peaks_mib: Vec<f64>,
}

/// Why a guarded call produced nothing.
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    /// It returned an error or panicked.
    Error(String),
    /// It was still running at the limit (given). Its thread cannot be stopped, so the
    /// caller must end the process soon.
    TimedOut(Duration),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Error(e) => f.write_str(e),
            Failure::TimedOut(limit) => write!(f, "still running after {} s", limit.as_secs()),
        }
    }
}

/// Runs `f` on its own thread and waits at most `limit` for it. Never hangs: a panic
/// is an error, a stall is [`Failure::TimedOut`].
pub fn guarded<T: Send + 'static>(
    limit: Duration,
    f: impl FnOnce() -> Result<T, String> + Send + 'static,
) -> Result<T, Failure> {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(limit) {
        Ok(result) => {
            let _ = handle.join();
            result.map_err(Failure::Error)
        }
        Err(mpsc::RecvTimeoutError::Timeout) => Err(Failure::TimedOut(limit)),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            let _ = handle.join();
            Err(Failure::Error("the job panicked".to_string()))
        }
    }
}

/// The output checks every repeat must pass.
pub fn check(workload: &Workload, trace: &RunTrace) -> Result<(), String> {
    if trace.total_pushes != workload.expected_pushes {
        return Err(format!(
            "{} pushes applied, expected {}",
            trace.total_pushes, workload.expected_pushes
        ));
    }
    let by_worker: u64 = trace.worker_summaries.iter().map(|w| w.iterations).sum();
    if by_worker != trace.total_pushes {
        return Err(format!(
            "workers report {by_worker} iterations but the server applied {}",
            trace.total_pushes
        ));
    }
    if trace.points.is_empty() {
        return Err("no evaluation point recorded".to_string());
    }
    if let Some(p) = trace
        .points
        .iter()
        .find(|p| !p.train_loss.is_finite() || !p.test_accuracy.is_finite())
    {
        return Err(format!(
            "non-finite loss or accuracy at {} pushes",
            p.pushes
        ));
    }
    if !(trace.total_time_s.is_finite() && trace.total_time_s > 0.0) {
        return Err(format!("training time is {}", trace.total_time_s));
    }
    let accuracy = trace.final_accuracy();
    if accuracy < workload.accuracy_floor {
        return Err(format!(
            "final accuracy {accuracy:.4} is below the floor {}",
            workload.accuracy_floor
        ));
    }
    Ok(())
}

/// Runs one [`Workload::probe_job`] in this process and returns the process's `VmHWM`
/// in MiB. Meant for a process that does nothing else: `bench probe`.
pub fn probe(workload: &'static Workload, seed: u64) -> Result<f64, String> {
    let job = workload.probe_job(seed);
    let outcome = guarded(REPEAT_LIMIT, move || substrate::run(job)).map_err(|f| f.to_string())?;
    let pushes = outcome.trace.total_pushes;
    if pushes == 0 || workload.expected_pushes % pushes != 0 {
        return Err(format!(
            "{pushes} pushes applied, not one epoch of {}",
            workload.expected_pushes
        ));
    }
    if !outcome.trace.final_accuracy().is_finite() {
        return Err("non-finite final accuracy".to_string());
    }
    procfs::peak_rss_mib()
}

/// The peaks of [`PEAK_PROBES`] probes of `workload`, each in a process of its own
/// (this binary's `probe` command), one after the other, each under another seed.
fn fresh_peaks(workload: &Workload, seed: u64) -> Result<Vec<f64>, String> {
    let this = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    (0..PEAK_PROBES)
        .map(|index| {
            let child = std::process::Command::new(&this)
                .args(["probe", workload.name])
                .args(["--seed", &repeat_seed(seed, index).to_string()])
                .output()
                .map_err(|e| format!("cannot start {}: {e}", this.display()))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            let peak = stdout.lines().last().and_then(|l| l.trim().parse().ok());
            peak.filter(|_| child.status.success()).ok_or_else(|| {
                format!(
                    "probe {index}: {} {}",
                    child.status,
                    String::from_utf8_lossy(&child.stderr).trim()
                )
            })
        })
        .collect()
}

/// The simulator's virtual results, which depend on the seed and the time model
/// alone: two runs that share those must agree on them bit for bit.
fn virtual_totals(trace: &RunTrace) -> (u64, u64, dssp_ps::ServerStats) {
    (
        trace.total_time_s.to_bits(),
        trace.total_waiting_time().to_bits(),
        trace.server_stats.clone(),
    )
}

/// Virtual seconds waited and virtual worker seconds of `config`'s virtual twin,
/// summed over [`VIRTUAL_SEEDS`] seeds derived from `seed`.
fn virtual_time(config: &dssp_sim::SimConfig, seed: u64) -> (f64, f64) {
    let mut twin = virtual_twin(config);
    let (mut waiting, mut total) = (0.0, 0.0);
    for index in 0..VIRTUAL_SEEDS {
        twin.seed = repeat_seed(seed, index);
        let trace = Simulation::new(twin.clone()).run();
        waiting += trace.total_waiting_time();
        total += trace.workers as f64 * trace.total_time_s;
    }
    (waiting, total)
}

/// Runs `workload` under `seed`: the peak-memory probes, one discarded warm-up repeat,
/// then [`planned_repeats`] timed ones. Timed repeat `i` trains under
/// [`repeat_seed`]`(seed, i)`; the warm-up shares repeat 0's seed, which on the
/// simulator must make the two agree bit for bit.
pub fn run(workload: &'static Workload, seed: u64, seconds: f64) -> RunReport {
    let mut report = RunReport {
        workload,
        samples: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        virtual_time: None,
        peaks_mib: Vec::new(),
    };
    match fresh_peaks(workload, seed) {
        Ok(peaks) => report.peaks_mib = peaks,
        Err(e) => report.errors.push(e),
    }
    let planned = planned_repeats(workload, seconds);
    let mut measuring_since = None;
    // Repeat 0 is the warm-up; timed repeat `i` is repeat `i + 1`.
    for repeat in 0..=planned {
        let warm_up = repeat == 0;
        let label = if warm_up {
            "warm-up".to_string()
        } else {
            format!("repeat {repeat}")
        };
        report.attempted += workload.expected_pushes;
        let index = repeat.saturating_sub(1) as u64;
        let job = workload.job(repeat_seed(seed, index));
        let cpu_before = procfs::cpu_seconds();
        let outcome = guarded(REPEAT_LIMIT, move || substrate::run(job));
        let cpu_after = procfs::cpu_seconds();
        let cpu_s = cpu_before.and_then(|before| cpu_after.map(|after| after - before));
        let checked = outcome.and_then(|outcome: Outcome| {
            check(workload, &outcome.trace).map_err(Failure::Error)?;
            if index == 0 {
                if let Job::Sim(config) = workload.job(repeat_seed(seed, 0)) {
                    // The warm-up and the first timed repeat share a seed, and so does
                    // this virtual twin: all three must agree bit for bit.
                    let twin = virtual_totals(&Simulation::new(virtual_twin(&config)).run());
                    if virtual_totals(&outcome.trace) != twin {
                        return Err(Failure::Error(
                            "the job's virtual totals differ from its virtual twin's".to_string(),
                        ));
                    }
                }
            }
            Ok((outcome, cpu_s.map_err(Failure::Error)?))
        });
        match checked {
            Ok((outcome, cpu_s)) if !warm_up => {
                let pushes = outcome.trace.total_pushes as f64;
                report.samples.push(Sample {
                    setup_s: outcome.setup_s,
                    pushes_per_s: pushes / outcome.train_s,
                    cpu_ms_per_push: cpu_s * 1e3 / pushes,
                    waiting_s: outcome.trace.total_waiting_time(),
                    worker_s: outcome.trace.workers as f64 * outcome.trace.total_time_s,
                });
            }
            Ok(_) => {}
            Err(failure) => {
                report.failed += workload.expected_pushes;
                report.errors.push(format!("{label}: {failure}"));
                if matches!(failure, Failure::TimedOut(_)) {
                    break; // the stuck job still holds the cores; nothing after it counts
                }
            }
        }
        let since = *measuring_since.get_or_insert_with(Instant::now);
        if since.elapsed().as_secs_f64() >= seconds * OVERRUN && repeat >= MIN_REPEATS {
            break;
        }
    }
    if let Job::Sim(config) = workload.job(seed) {
        report.virtual_time = Some(virtual_time(&config, seed));
    }
    report
}

impl RunReport {
    /// Whether every repeat ran and passed its checks.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && !self.samples.is_empty()
    }

    /// The per-repeat (for `peak_rss_mb`, per-probe) values of a metric that has them,
    /// summarised; `None` for `busy_share`.
    pub fn repeats(&self, metric: &str) -> Option<Summary> {
        if metric == "peak_rss_mb" {
            return Summary::of(&self.peaks_mib);
        }
        let pick: fn(&Sample) -> f64 = match metric {
            "pushes_per_s" => |s| s.pushes_per_s,
            "cpu_ms_per_push" => |s| s.cpu_ms_per_push,
            "setup_s" => |s| s.setup_s,
            _ => return None,
        };
        Summary::of(&self.samples.iter().map(pick).collect::<Vec<_>>())
    }

    /// The value reported for one end-to-end metric.
    ///
    /// * `pushes_per_s`, `cpu_ms_per_push`: median over the timed repeats.
    /// * `peak_rss_mb`: median over the probes.
    /// * `setup_s`: mean over the timed repeats. On the socket substrates set-up is
    ///   three dataset generations sharing two cores; it takes 0.075 s or 0.12 s
    ///   depending on how they are scheduled, and a median flips between the two
    ///   modes from run to run where the mean does not (README.md, "Noise").
    /// * `busy_share`: pooled over the repeats, see [`RunReport::busy_share`].
    pub fn value(&self, metric: &str) -> Option<f64> {
        match metric {
            "busy_share" => self.busy_share(),
            "setup_s" if !self.samples.is_empty() => Some(
                self.samples.iter().map(|s| s.setup_s).sum::<f64>() / self.samples.len() as f64,
            ),
            _ => self.repeats(metric).map(|s| s.median),
        }
    }

    /// Share of the workers' time *not* spent waiting for an `OK`: a ratio of sums,
    /// over the timed repeats on real-time substrates and over the virtual twins on
    /// the simulator, where the ratio is exact for one seed but jumps from seed to
    /// seed (README.md, "Noise").
    pub fn busy_share(&self) -> Option<f64> {
        let (waiting, total) = self.virtual_time.unwrap_or_else(|| {
            self.samples
                .iter()
                .fold((0.0, 0.0), |(w, t), s| (w + s.waiting_s, t + s.worker_s))
        });
        (total > 0.0).then(|| 1.0 - waiting / total)
    }

    /// The result in contract form.
    pub fn result(&self) -> RunResult {
        RunResult {
            correct: self.correct(),
            attempted: self.attempted,
            failed: self.failed,
            metrics: END_TO_END
                .iter()
                .map(|def| (def.name, self.value(def.name).unwrap_or(f64::NAN)))
                .collect(),
        }
    }

    /// A table for people: each metric's value and, where it comes from per-repeat
    /// values, their count, inter-quartile range and fast quartile.
    pub fn table(&self) -> String {
        let mut out = format!(
            "workload {} — {} timed repeats of {} pushes ({} workers, closed loop)\n",
            self.workload.name,
            self.samples.len(),
            self.workload.expected_pushes,
            crate::workloads::WORKERS,
        );
        out.push_str(&format!(
            "  {:<16} {:>6} {:>14} {:>4} {:>12} {:>8} {:>14}\n",
            "metric", "unit", "value", "n", "iqr", "iqr/med", "fast quartile"
        ));
        for def in &END_TO_END {
            let Some(value) = self.value(def.name) else {
                out.push_str(&format!(
                    "  {:<16} {:>6} not measured\n",
                    def.name, def.unit
                ));
                continue;
            };
            out.push_str(&format!(
                "  {:<16} {:>6} {:>14.6}",
                def.name, def.unit, value
            ));
            if let Some(s) = self.repeats(def.name) {
                out.push_str(&format!(
                    " {:>4} {:>12.6} {:>7.2}% {:>14.6}",
                    s.n,
                    s.iqr(),
                    s.rel_iqr() * 100.0,
                    s.fast_quartile(def.higher_is_better),
                ));
            }
            out.push('\n');
        }
        if let Some(busy) = self.busy_share() {
            out.push_str(&format!(
                "  wait share = 1 - busy_share = {:.6}\n",
                1.0 - busy
            ));
        }
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
    fn guard_passes_results_and_errors_through() {
        assert_eq!(guarded(Duration::from_secs(5), || Ok(7)), Ok(7));
        assert_eq!(
            guarded(Duration::from_secs(5), || Err::<u8, _>("nope".to_string())),
            Err(Failure::Error("nope".to_string()))
        );
    }

    #[test]
    fn guard_turns_a_panic_into_an_error_and_a_stall_into_a_timeout() {
        let panicked = guarded(Duration::from_secs(5), || -> Result<u8, String> {
            panic!("boom")
        });
        assert!(matches!(panicked, Err(Failure::Error(_))));
        let (release, gate) = mpsc::channel::<()>();
        let stalled = guarded(Duration::from_millis(20), move || {
            let _ = gate.recv();
            Ok(1)
        });
        assert_eq!(stalled, Err(Failure::TimedOut(Duration::from_millis(20))));
        drop(release);
    }
}
