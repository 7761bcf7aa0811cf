//! Command-line arguments shared by `bench` and `bench-trace`.
//!
//! Both accept the flag form the benchmark contract drives
//! (`--workload W --seed N --seconds S --trace 0|1`) and a positional form for people
//! (`bench run W`, `bench aa`, `bench-trace W`).

use crate::workloads::{self, Workload, DEFAULT_SEED};

/// Seconds one run measures for when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 22.0;

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Words that are not flags, in order (`run`, `aa`, a workload name).
    pub positional: Vec<String>,
    /// `--workload`.
    pub workload: Option<String>,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `--trace` (0 or 1), when given.
    pub trace: Option<bool>,
}

/// Parses `args` (without the program name).
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        positional: Vec::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                parsed.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v}: not a whole number"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                parsed.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {v}: not a positive number"))?;
            }
            "--trace" => {
                parsed.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                });
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => parsed.positional.push(arg),
        }
    }
    Ok(parsed)
}

/// Resolves a workload name, listing the known ones when it is missing or unknown.
pub fn workload_named(name: Option<&str>) -> Result<&'static Workload, String> {
    let known = || {
        workloads::ALL
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    };
    let name = name.ok_or_else(|| format!("no workload given (one of: {})", known()))?;
    workloads::find(name).ok_or_else(|| format!("unknown workload {name} (one of: {})", known()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn contract_form_parses() {
        let a = parse(words("--workload tcp_comm --seed 7 --seconds 12 --trace 0")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("tcp_comm"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, Some(false)));
        assert!(a.positional.is_empty());
    }

    #[test]
    fn positional_form_and_defaults() {
        let a = parse(words("run sim_hetero")).unwrap();
        assert_eq!(a.positional, ["run", "sim_hetero"]);
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (DEFAULT_SEED, DEFAULT_SECONDS, None)
        );
    }

    #[test]
    fn bad_input_is_refused() {
        for bad in [
            "--seed x",
            "--seconds 0",
            "--seconds",
            "--trace 2",
            "--frobnicate 1",
        ] {
            assert!(parse(words(bad)).is_err(), "{bad}");
        }
        assert!(workload_named(Some("nope")).is_err());
        assert!(workload_named(None).is_err());
        assert_eq!(
            workload_named(Some("group_comm")).unwrap().name,
            "group_comm"
        );
    }
}
