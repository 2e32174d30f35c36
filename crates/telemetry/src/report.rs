//! One report format for every driver.
//!
//! A [`Report`] is a title and an ordered list of figures, each a label, a
//! value and whether it passes its gate. Everything a driver says about a
//! run derives from that one list: the summary line (its `Display`,
//! `<title>: k=v …`), the JSON record ([`save`]), the gate
//! ([`Report::check`]) and the lookup tests read ([`Report::get`]). A
//! figure is printed, recorded and gated once, the same way.
//!
//! Booleans are `0`/`1`; a missing value (a percentile over nothing) is
//! `-` on the line and `null` in JSON. Wall-clock figures stay out of
//! reports — the perf ledger under `benchmark/` owns time.
//!
//! # Examples
//!
//! ```
//! use watchmen_telemetry::report::{Report, Value};
//!
//! let report = Report::new("fleet summary")
//!     .figure("completed", 4u64, true)
//!     .figure("false_verdicts", 1u64, false)
//!     .figure("ttd_p99", None::<u64>, true);
//! assert_eq!(report.to_string(), "fleet summary: completed=4 false_verdicts=1 ttd_p99=-");
//! assert_eq!(report.get("completed"), Some(Value::Count(4)));
//! assert_eq!(report.failing(), Some("false_verdicts"));
//! assert!(report.check().is_err());
//! ```

use std::fmt;
use std::path::Path;

use crate::export::json_string;

/// One figure's value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A count; booleans are 0 or 1.
    Count(u64),
    /// A measured ratio or percentage, rendered to three decimals.
    Real(f64),
    /// Nothing to report, e.g. a percentile over no samples.
    Missing,
}

impl Value {
    fn render(self, missing: &str) -> String {
        match self {
            Value::Count(v) => v.to_string(),
            Value::Real(v) if v.is_finite() => format!("{v:.3}"),
            Value::Real(_) | Value::Missing => missing.to_owned(),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Count(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Count(v as u64)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Count(u64::from(v))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Real(v)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Missing, Into::into)
    }
}

/// A titled, ordered list of `(label, value, passes)` figures.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    title: String,
    figures: Vec<(String, Value, bool)>,
}

impl Report {
    /// An empty report; `title` heads its summary line and keys its JSON
    /// record.
    #[must_use]
    pub fn new(title: impl Into<String>) -> Self {
        Report { title: title.into(), figures: Vec::new() }
    }

    /// Appends a figure; `passes` is its gate (`true` for a figure that
    /// is only reported).
    #[must_use]
    pub fn figure(
        mut self,
        label: impl Into<String>,
        value: impl Into<Value>,
        passes: bool,
    ) -> Self {
        self.figures.push((label.into(), value.into(), passes));
        self
    }

    /// The title.
    #[must_use]
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The value of the figure labelled `label`.
    #[must_use]
    pub fn get(&self, label: &str) -> Option<Value> {
        self.figures.iter().find(|(l, ..)| l == label).map(|&(_, value, _)| value)
    }

    /// The label of the first figure that fails its gate.
    #[must_use]
    pub fn failing(&self) -> Option<&str> {
        self.figures.iter().find(|(.., passes)| !passes).map(|(label, ..)| label.as_str())
    }

    /// The gate: every figure passes.
    ///
    /// # Errors
    ///
    /// Names the first figure that fails, with the whole summary line.
    pub fn check(&self) -> Result<(), String> {
        match self.figures.iter().find(|(.., passes)| !passes) {
            Some((label, value, _)) => {
                Err(format!("{label}={} fails the gate ({self})", value.render("-")))
            }
            None => Ok(()),
        }
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:", self.title)?;
        self.figures
            .iter()
            .try_for_each(|(label, value, _)| write!(f, " {label}={}", value.render("-")))
    }
}

/// Reads the counts `labels` back from a summary line that a report
/// titled `title` printed, strictly.
///
/// # Errors
///
/// Names the title or the first label that is missing or not a count.
pub fn read<const N: usize>(
    line: &str,
    title: &str,
    labels: [&str; N],
) -> Result<[u64; N], String> {
    let figures = line
        .strip_prefix(title)
        .and_then(|rest| rest.strip_prefix(':'))
        .ok_or_else(|| format!("{line:?} is not a {title:?} line"))?;
    let mut values = [0; N];
    for (value, label) in values.iter_mut().zip(labels) {
        *value = figures
            .split_whitespace()
            .find_map(|pair| pair.strip_prefix(label)?.strip_prefix('='))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{line:?} has no count {label}="))?;
    }
    Ok(values)
}

/// The JSON document of `reports`: one object keyed by title, each
/// holding exactly its report's figures in order.
fn document(reports: &[Report]) -> String {
    let mut out = String::from("{\n");
    for (i, report) in reports.iter().enumerate() {
        out.push_str(&format!("  {}: {{\n", json_string(&report.title)));
        for (j, (label, value, _)) in report.figures.iter().enumerate() {
            let comma = if j + 1 < report.figures.len() { "," } else { "" };
            out.push_str(&format!("    {}: {}{comma}\n", json_string(label), value.render("null")));
        }
        out.push_str(if i + 1 < reports.len() { "  },\n" } else { "  }\n" });
    }
    out.push_str("}\n");
    out
}

/// Writes `reports` as `BENCH_<name>.json` into the directory that
/// `WATCHMEN_BENCH_OUT` names, or does nothing when it is unset or empty.
///
/// # Errors
///
/// A set but unwritable destination fails the run rather than vanish.
pub fn save(name: &str, reports: &[Report]) -> Result<(), String> {
    match std::env::var("WATCHMEN_BENCH_OUT") {
        Ok(dir) if !dir.trim().is_empty() => {
            let path = Path::new(dir.trim()).join(format!("BENCH_{name}.json"));
            std::fs::write(&path, document(reports))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report::new("detection slo")
            .figure("injected", 2u64, true)
            .figure("ok", true, true)
            .figure("ttd_p50", None::<u64>, true)
            .figure("overhead_pct", 0.74_f64, true)
    }

    #[test]
    fn line_and_json_come_from_one_list() {
        let report = sample();
        assert_eq!(
            report.to_string(),
            "detection slo: injected=2 ok=1 ttd_p50=- overhead_pct=0.740"
        );
        assert_eq!(
            document(&[report, Report::new("empty")]),
            "{\n  \"detection slo\": {\n    \"injected\": 2,\n    \"ok\": 1,\n    \
             \"ttd_p50\": null,\n    \"overhead_pct\": 0.740\n  },\n  \"empty\": {\n  }\n}\n"
        );
    }

    #[test]
    fn check_names_the_first_failing_figure() {
        assert_eq!(sample().check(), Ok(()));
        assert_eq!(sample().failing(), None);
        let failed = sample().figure("false_verdicts", 3u64, false).figure("x", 0u64, false);
        assert_eq!(failed.failing(), Some("false_verdicts"));
        let err = failed.check().unwrap_err();
        assert!(err.starts_with("false_verdicts=3 fails the gate (detection slo: "), "{err}");
    }

    #[test]
    fn get_reads_figures_not_lines() {
        let report = sample();
        assert_eq!(report.get("injected"), Some(Value::Count(2)));
        assert_eq!(report.get("ttd_p50"), Some(Value::Missing));
        assert_eq!(report.get("absent"), None);
        assert_eq!(report.title(), "detection slo");
    }

    #[test]
    fn read_round_trips_a_line() {
        let line = sample().to_string();
        assert_eq!(read(&line, "detection slo", ["ok", "injected"]), Ok([1, 2]));
    }

    #[test]
    fn read_rejects_a_line_with_a_key_missing() {
        let line = "node 3 result: severe=4 heartbeats=9";
        assert!(read(line, "node 3 result", ["severe", "false_verdicts"]).is_err());
        // A key that is present but not a count is as good as missing …
        assert!(read(&sample().to_string(), "detection slo", ["ttd_p50"]).is_err());
        // … and so is a prefix of another key, or another node's line.
        assert!(read("node 3 result: severe_x=1", "node 3 result", ["severe"]).is_err());
        assert!(read(line, "node 4 result", ["severe"]).is_err());
        assert_eq!(read(line, "node 3 result", ["heartbeats", "severe"]), Ok([9, 4]));
    }
}
