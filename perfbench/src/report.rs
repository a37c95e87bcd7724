//! Metric lists and the result line.

use crate::harness::Faults;
use crate::stats::{percentile, Percentile};
use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count and other context, printed next to the value.
    pub note: String,
}

/// Everything a run prints.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Ops attempted: timed-phase ops, sweep reads, burst updates, and
    /// planned ops a panic or stall kept from finishing.
    pub attempted: u64,
    /// Faults among them.
    pub faults: Faults,
    /// Planned ops that never finished (in `faults` as panics/stalls).
    pub unfinished: u64,
    /// Longest single store call of the run, ns.
    pub max_call_ns: u64,
    /// Failed checks that are not single ops (e.g. a recovery that
    /// replayed the wrong number of records).
    pub check_failures: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn push(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            note: note.into(),
        });
    }

    /// Adds a latency percentile of `sorted` (ns) in µs, its sample count
    /// in the note. A refused percentile (under ten samples beyond it) is
    /// reported as 0 with the refusal in the note; `Err` tells the caller.
    pub fn push_pct(
        &mut self,
        name: &'static str,
        sorted: &[u64],
        p: f64,
    ) -> Result<Percentile, Percentile> {
        match percentile(sorted, p) {
            Ok(pc) => {
                self.push(
                    name,
                    pc.value as f64 / 1e3,
                    "us",
                    format!("n={} beyond={}", pc.samples, pc.beyond),
                );
                Ok(pc)
            }
            Err(pc) => {
                self.push(
                    name,
                    0.0,
                    "us",
                    format!(
                        "REFUSED n={} beyond={} (< {})",
                        pc.samples,
                        pc.beyond,
                        crate::stats::MIN_BEYOND
                    ),
                );
                Err(pc)
            }
        }
    }

    /// Ops that failed.
    pub fn failed(&self) -> u64 {
        self.faults.total()
    }

    /// Whether every op succeeded and every check passed.
    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.check_failures.is_empty()
    }

    /// The human-readable lines and the final JSON result line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<34} {:>14.4} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        let _ = writeln!(
            out,
            "# ops attempted={} failed={} failed_frac={:.6} (unfinished={}; {}); slowest call {:.3} ms",
            self.attempted,
            self.failed(),
            self.failed() as f64 / self.attempted.max(1) as f64,
            self.unfinished,
            self.faults.describe(),
            self.max_call_ns as f64 / 1e6
        );
        for c in &self.check_failures {
            let _ = writeln!(out, "# CHECK FAILED: {c}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed(),
            metrics.join(", ")
        );
        out
    }
}

/// A JSON number with all its digits.
pub fn json_num(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    let s = format!("{v:?}");
    if s.contains('e') || s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_last_and_complete() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        r.push("ops_s", 1234.5, "1/s", "");
        let lat: Vec<u64> = (1..=100).map(|i| i * 1000).collect();
        assert!(r.push_pct("read_p50_us", &lat, 50.0).is_ok());
        assert!(r.push_pct("read_p99_us", &lat, 99.0).is_err());
        let text = r.render();
        let last = text.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"ops_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}, \"read_p50_us\": {\"value\": 50.0, \"unit\": \"us\"}, \"read_p99_us\": {\"value\": 0.0, \"unit\": \"us\"}}}"
        );
        assert!(text.contains("n=100 beyond=50"));
        assert!(text.contains("REFUSED n=100 beyond=1"));
    }

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(f64::NAN), "0");
    }
}
