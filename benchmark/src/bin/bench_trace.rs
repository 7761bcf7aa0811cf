//! `bench-trace`: per-layer mode. Installs the counting allocator, times calls into
//! each layer from the benchmark's own files, and writes the spans to `out/`.
//!
//! ```text
//! bench-trace <workload> [--seed N] [--seconds S]
//! bench-trace --workload W --seed N --seconds S --trace 1   the same, contract form
//! bench-trace aa [<workload>] [--seed N] [--seconds S]      two traces; exact metrics must match
//! ```

use ledger::alloc::CountingAlloc;
use ledger::catalog::PER_LAYER;
use ledger::run::guarded;
use ledger::trace::TraceReport;
use ledger::workloads::Workload;
use ledger::{aa, cli, trace};
use std::time::Duration;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The whole trace must end well inside the contract's 180 s per run.
const TRACE_LIMIT: Duration = Duration::from_secs(150);

fn main() {
    std::process::exit(match real_main() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("bench-trace: {e}");
            2
        }
    });
}

fn real_main() -> Result<bool, String> {
    let args = cli::parse(std::env::args().skip(1))?;
    if args.trace == Some(false) {
        return Err("--trace 0 is bench's job (benchmark/run.sh picks the binary)".into());
    }
    let mut words = args.positional.iter().map(String::as_str).peekable();
    let is_aa = words.next_if_eq(&"aa").is_some();
    let name = args.workload.as_deref().or(words.next());
    if is_aa {
        // The counts do not depend much on the shape; the comm shape exercises them all.
        let workload = cli::workload_named(name.or(Some("tcp_comm")))?;
        let first = traced(workload, args.seed, args.seconds)?;
        let second = traced(workload, args.seed, args.seconds)?;
        let (table, identical) = aa::compare_exact(&first.result, &second.result);
        print!("{table}");
        return Ok(identical && first.result.correct && second.result.correct);
    }
    let workload = cli::workload_named(name)?;
    let report = traced(workload, args.seed, args.seconds)?;
    print!("{}", report.table(workload));
    println!("{}", report.result.to_json_line(PER_LAYER)?);
    Ok(report.result.correct)
}

fn traced(workload: &'static Workload, seed: u64, seconds: f64) -> Result<TraceReport, String> {
    guarded(TRACE_LIMIT, move || trace::trace(workload, seed, seconds))
        .map_err(|failure| format!("trace: {failure}"))
}
