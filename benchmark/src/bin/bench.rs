//! `bench`: end-to-end mode. Nothing is traced and the system allocator is untouched.
//!
//! ```text
//! bench [run] <workload> [--seed N] [--seconds S]     one workload
//! bench --workload W --seed N --seconds S --trace 0   the same, contract form
//! bench aa [--seed N] [--seconds S]                   two sets of 3 runs per workload, compared
//! bench probe <workload> [--seed N]                   one one-epoch job; prints the peak RSS in MiB
//! ```

use ledger::aa::SetEntry;
use ledger::catalog::END_TO_END;
use ledger::{aa, cli, result, run, workloads};

fn main() {
    std::process::exit(match real_main() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("bench: {e}");
            2
        }
    });
}

fn real_main() -> Result<bool, String> {
    let args = cli::parse(std::env::args().skip(1))?;
    if args.trace == Some(true) {
        return Err("--trace 1 is bench-trace's job (benchmark/run.sh picks the binary)".into());
    }
    let mut words = args.positional.iter().map(String::as_str).peekable();
    match words.peek() {
        Some(&"aa") => return run_aa(args.seed, args.seconds),
        Some(&"probe") => {
            words.next();
            let workload = cli::workload_named(words.next())?;
            println!("{}", run::probe(workload, args.seed)?);
            return Ok(true);
        }
        Some(&"run") => {
            words.next();
        }
        _ => {}
    }
    let workload = cli::workload_named(args.workload.as_deref().or(words.next()))?;
    let report = run::run(workload, args.seed, args.seconds);
    print!("{}", report.table());
    let result = report.result();
    println!("{}", result.to_json_line(&END_TO_END)?);
    Ok(result.correct)
}

/// Runs of each workload in each A/A set.
const AA_RUNS: usize = 3;

/// One run of `workload` in a process of its own, as under the benchmark driver
/// (`peak_rss_mb` is a process-wide high-water mark).
fn run_in_child(workload: &'static str, seed: u64, seconds: f64) -> Result<SetEntry, String> {
    let this = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let child = std::process::Command::new(&this)
        .args(["run", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("cannot start {}: {e}", this.display()))?;
    let stdout = String::from_utf8_lossy(&child.stdout);
    print!("{stdout}");
    let (correct, metrics) = result::parse_line(stdout.lines().last().unwrap_or_default())?;
    Ok(SetEntry {
        workload,
        correct: correct && child.status.success(),
        metrics,
    })
}

/// Two sets on this build, compared against the benchmark's own bounds. A set is the
/// median of [`AA_RUNS`] runs per workload; the two sets' runs alternate (A B B A A B),
/// so that the host's drift over minutes falls on both alike.
fn run_aa(seed: u64, seconds: f64) -> Result<bool, String> {
    let mut sets: [Vec<SetEntry>; 2] = [Vec::new(), Vec::new()];
    for workload in &workloads::ALL {
        let mut runs: [Vec<SetEntry>; 2] = [Vec::new(), Vec::new()];
        for pair in 0..AA_RUNS {
            for side in [pair % 2, 1 - pair % 2] {
                eprintln!(
                    "{} set {} run {}",
                    workload.name,
                    ["A", "B"][side],
                    pair + 1
                );
                runs[side].push(run_in_child(workload.name, seed, seconds)?);
            }
        }
        for (set, runs) in sets.iter_mut().zip(&runs) {
            set.push(aa::median_entry(runs));
        }
    }
    let (table, ok) = aa::compare_sets(&sets[0], &sets[1]);
    print!("{table}");
    println!(
        "{}",
        if ok {
            "A/A: every pair within its bound"
        } else {
            "A/A: MISSED"
        }
    );
    Ok(ok)
}
