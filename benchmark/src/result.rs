//! The one-line JSON result a run ends with, in the shape the benchmark contract
//! fixes: `correct`, `attempted`, `failed`, and `metrics` with a value and a unit each.

use crate::catalog::{self, MetricDef};
use std::fmt::Write as _;

/// The outcome of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted (pushes in end-to-end mode, probe calls in trace mode).
    pub attempted: u64,
    /// Operations that failed or belong to a run that failed a check.
    pub failed: u64,
    /// Metric values by name, in reporting order.
    pub metrics: Vec<(&'static str, f64)>,
}

impl RunResult {
    /// Renders the result line. `expected` is the metric list of the mode that ran:
    /// the line must carry exactly those metrics, each with a finite value, or this
    /// is an error and no line is printed.
    pub fn to_json_line(&self, expected: &[MetricDef]) -> Result<String, String> {
        for def in expected {
            if !self.metrics.iter().any(|(name, _)| *name == def.name) {
                return Err(format!("metric {} was not measured", def.name));
            }
        }
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let def = expected
                .iter()
                .find(|d| d.name == *name)
                .ok_or_else(|| format!("metric {name} is not in this mode's catalog"))?;
            if !catalog::is_valid_name(def.name) || !catalog::is_valid_unit(def.unit) {
                return Err(format!("metric {name} has an illegal name or unit"));
            }
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            if i > 0 {
                line.push_str(", ");
            }
            // `{}` prints the shortest decimal that reads back to the same f64: all
            // the digits that were measured, and never an exponent-free truncation.
            let _ = write!(
                line,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name, value, def.unit
            );
        }
        line.push_str("}}");
        Ok(line)
    }
}

/// A result line read back: whether the run was correct, and its metric values.
pub fn parse_line(line: &str) -> Result<(bool, Vec<(String, f64)>), String> {
    use dssp_core::json::{parse, Value};
    let parsed = parse(line).map_err(|e| format!("not a result line ({e:?}): {line}"))?;
    let correct = parsed.get("correct") == Some(&Value::Bool(true))
        && parsed.get("failed").and_then(Value::as_u64) == Some(0);
    let Some(Value::Object(entries)) = parsed.get("metrics") else {
        return Err(format!("no metrics in: {line}"));
    };
    let metrics = entries
        .iter()
        .map(|(name, entry)| {
            let value = entry.get("value").and_then(Value::as_f64);
            value
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("{name} has no value"))
        })
        .collect::<Result<_, _>>()?;
    Ok((correct, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{END_TO_END, PER_LAYER};
    use dssp_core::json::Value;

    fn full(list: &[MetricDef]) -> RunResult {
        RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: list
                .iter()
                .enumerate()
                .map(|(i, d)| (d.name, 1.5 + i as f64))
                .collect(),
        }
    }

    #[test]
    fn every_metric_is_named_legally_and_has_a_unit() {
        for list in [&END_TO_END[..], PER_LAYER] {
            let line = full(list).to_json_line(list).unwrap();
            assert!(!line.contains('\n'));
            let parsed = dssp_core::json::parse(&line).expect("the line is strict JSON");
            let Some(Value::Object(keys)) = Some(&parsed) else {
                panic!("not an object: {line}")
            };
            let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(parsed.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(parsed.get("attempted").and_then(Value::as_u64), Some(10));
            assert_eq!(parsed.get("failed").and_then(Value::as_u64), Some(0));
            let Some(Value::Object(metrics)) = parsed.get("metrics") else {
                panic!("no metrics object: {line}")
            };
            assert_eq!(metrics.len(), list.len());
            for (name, metric) in metrics {
                assert!(catalog::is_valid_name(name), "{name}");
                let unit = metric.get("unit").and_then(Value::as_str).expect("a unit");
                assert!(catalog::is_valid_unit(unit), "{name}: {unit}");
                assert!(
                    metric.get("value").and_then(Value::as_f64).is_some(),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn values_keep_all_their_digits() {
        let mut r = full(&END_TO_END);
        r.metrics[0].1 = 1_234.567_891_234_5;
        assert!(r
            .to_json_line(&END_TO_END)
            .unwrap()
            .contains("1234.5678912345"));
    }

    #[test]
    fn missing_unknown_and_non_finite_metrics_are_refused() {
        let mut r = full(&END_TO_END);
        r.metrics.pop();
        assert!(r.to_json_line(&END_TO_END).is_err());
        let mut r = full(&END_TO_END);
        r.metrics.push(("core.worker_step_us", 1.0));
        assert!(r.to_json_line(&END_TO_END).is_err());
        let mut r = full(&END_TO_END);
        r.metrics[1].1 = f64::NAN;
        assert!(r.to_json_line(&END_TO_END).is_err());
    }

    #[test]
    fn a_printed_line_reads_back() {
        let mut r = full(&END_TO_END);
        r.metrics[2].1 = 0.1 + 0.2; // a value whose shortest form has 17 digits
        let (correct, metrics) = parse_line(&r.to_json_line(&END_TO_END).unwrap()).unwrap();
        assert!(correct);
        let expected: Vec<(String, f64)> =
            r.metrics.iter().map(|(n, v)| (n.to_string(), *v)).collect();
        assert_eq!(metrics, expected);
        r.failed = 1;
        assert!(!parse_line(&r.to_json_line(&END_TO_END).unwrap()).unwrap().0);
        assert!(parse_line("workload tcp_comm").is_err());
    }

    #[test]
    fn attempted_is_at_least_one() {
        let mut r = full(&END_TO_END);
        r.attempted = 0;
        assert!(r
            .to_json_line(&END_TO_END)
            .unwrap()
            .contains("\"attempted\": 1,"));
    }
}
