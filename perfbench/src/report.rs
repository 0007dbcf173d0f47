//! The result line every run ends with, and the helpers that fill it.

use crate::stats::Summary;

/// One workload run's outcome: the ops attempted and failed, whether
/// every output check passed, and the metrics by name in insertion
/// order.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    pub correct: bool,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Records metric `name` (replacing an earlier value of that name).
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.metrics.iter_mut().find(|(n, _, _)| n == name) {
            Some(m) => *m = (name.to_string(), value, unit),
            None => self.metrics.push((name.to_string(), value, unit)),
        }
    }

    /// Records a timing series in microseconds as `<base>_p50_us`,
    /// `<base>_p90_us` and its sample count `<base>_n`.
    pub fn timing_us(&mut self, base: &str, samples_us: &[f64]) {
        let s = Summary::of(samples_us);
        self.set(&format!("{base}_p50_us"), s.p50, "us");
        self.set(&format!("{base}_p90_us"), s.p90, "us");
        self.set(&format!("{base}_n"), s.n as f64, "count");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Records one failed op with the reason on stderr (the first few
    /// only, so a systematic mismatch does not flood the log).
    pub fn fail(&mut self, why: &str) {
        if self.failed < 5 {
            eprintln!("failed op: {why}");
        }
        self.failed += 1;
        self.correct = false;
    }

    /// Keeps only the named metrics, in the given order; a name the run
    /// did not produce is an error in the benchmark itself.
    pub fn select(&self, names: &[&str]) -> Vec<(String, f64, &'static str)> {
        names
            .iter()
            .map(|&name| {
                self.metrics
                    .iter()
                    .find(|(n, _, _)| n == name)
                    .cloned()
                    .unwrap_or_else(|| panic!("the run produced no metric {name:?}"))
            })
            .collect()
    }

    /// Human-readable lines, one per metric.
    pub fn lines(&self) -> impl Iterator<Item = String> + '_ {
        self.metrics
            .iter()
            .map(|(n, v, u)| format!("  {n:<44} {v:>16.6} {u}"))
    }

    /// The final JSON line with the given metrics (`correct` also
    /// requires zero failed ops).
    pub fn json(&self, metrics: &[(String, f64, &'static str)]) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.failed == 0,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// A JSON number with every digit of the measurement (shortest
/// round-trip form); non-finite values have no JSON literal and print as
/// 0 with the failure recorded elsewhere.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = Report::new();
        r.attempted = 3;
        r.set("p50_ms", 1.25, "ms");
        r.set("setup_s", 0.5, "s");
        let line = r.json(&r.select(&["p50_ms", "setup_s"]));
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_failed_op_makes_the_run_incorrect() {
        let mut r = Report::new();
        r.attempted = 2;
        r.fail("mismatch");
        assert!(r
            .json(&[])
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }

    #[test]
    fn timing_reports_p50_p90_and_count() {
        let mut r = Report::new();
        r.timing_us("x", &[1.0, 2.0, 3.0]);
        assert_eq!(r.get("x_p50_us"), Some(2.0));
        assert_eq!(r.get("x_n"), Some(3.0));
    }
}
