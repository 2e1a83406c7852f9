//! A run's result: every metric by name and unit, the correctness
//! tallies, and the one-line JSON object the benchmark ends with.

use std::fmt::Write as _;

use crate::stats;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as written in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as written in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The reported value (by default the median of `samples`).
    pub value: f64,
    /// Per-repetition samples behind `value` (empty for single readings).
    pub samples: Vec<f64>,
    /// False where the layer is not on this workload's path; the value
    /// is then reported as 0.
    pub applies: bool,
}

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Records whose results were checked.
    pub attempted: u64,
    /// Of those, records whose pairs differed from the reference.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Adds a single reading.
    pub fn value(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.aggregate(name, unit, value, Vec::new());
    }

    /// Adds a metric reported as the median of its samples.
    pub fn median(&mut self, name: &'static str, unit: &'static str, samples: Vec<f64>) {
        self.aggregate(name, unit, stats::median(&samples), samples);
    }

    /// Adds a metric whose value summarises its per-stream samples some
    /// other way than their median.
    pub fn aggregate(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        samples: Vec<f64>,
    ) {
        self.metrics.push(Metric {
            name,
            unit,
            value: finite(value),
            samples,
            applies: true,
        });
    }

    /// Adds a metric whose layer this workload does not exercise.
    pub fn not_applicable(&mut self, name: &'static str, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            unit,
            value: 0.0,
            samples: Vec::new(),
            applies: false,
        });
    }

    /// The metric called `name`.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Whether every checked record matched the reference.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// Share of checked records whose pairs differed from the reference.
    pub fn failed_frac(&self) -> f64 {
        stats::ratio(self.failed as f64, self.attempted as f64)
    }

    /// Prints one aligned line per metric: value, unit, and the sample
    /// quartiles where there are samples.
    pub fn print_table(&self) {
        for m in &self.metrics {
            if !m.applies {
                println!(
                    "{:<30} {:>16} {:<8} (layer not on this path)",
                    m.name, "n/a", m.unit
                );
                continue;
            }
            let mut line = format!("{:<30} {:>16.6} {:<8}", m.name, m.value, m.unit);
            if m.samples.len() > 1 {
                let (q1, q3) = stats::quartiles(&m.samples);
                let _ = write!(
                    line,
                    " {:>3} samples, q1 {:.6}, q3 {:.6}, spread {:.2}%",
                    m.samples.len(),
                    q1,
                    q3,
                    stats::spread(&m.samples) * 100.0
                );
            }
            println!("{line}");
        }
        println!(
            "{:<30} {:>16.6} {:<8} ({} of {} records differ from the reference)",
            "failed_frac",
            self.failed_frac(),
            "frac",
            self.failed,
            self.attempted
        );
    }

    /// The closing JSON object: `correct`, `attempted`, `failed` and every
    /// metric as `{"value", "unit"}`.
    pub fn json_line(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// JSON has no NaN or infinity; a degenerate ratio reports 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 10,
            failed: 0,
            ..Report::default()
        };
        r.median("throughput_rps", "1/s", vec![3.0, 1.0, 2.0]);
        r.value("setup_s", "s", f64::NAN);
        r.not_applicable("session.respawns", "count");
        assert_eq!(
            r.json_line(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"throughput_rps\": {\"value\": 2.0, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}, \
             \"session.respawns\": {\"value\": 0.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let r = Report {
            attempted: 200,
            failed: 3,
            ..Report::default()
        };
        assert!(!r.correct());
        assert!((r.failed_frac() - 0.015).abs() < 1e-12);
        assert!(!Report::default().correct());
    }
}
