//! Snapshot exporters: the Prometheus text exposition format for
//! metrics, and the Chrome `trace_event` format for flight-recorder
//! events.

use std::fmt::Write as _;

use crate::registry::{MetricValue, Snapshot};
use crate::trace::{EventKind, TraceEvent, NO_SUBJECT};

/// Renders a snapshot in the Prometheus text exposition format.
///
/// Counters and gauges render one sample line each; histograms render
/// cumulative `_bucket{le="…"}` lines over their non-empty buckets plus
/// `_sum` and `_count`. `# HELP`/`# TYPE` headers are emitted once per
/// metric name, label values and help text are escaped per the
/// exposition format, and metrics named with the workspace's internal
/// `_ms` suffix are exported under the Prometheus base unit as
/// `_seconds` with values scaled accordingly.
///
/// # Examples
///
/// ```
/// use watchmen_telemetry::Registry;
///
/// let r = Registry::new();
/// r.counter_with("updates_total", &[("class", "state")]).add(7);
/// let text = watchmen_telemetry::export::prometheus_text(&r.snapshot());
/// assert!(text.contains("updates_total{class=\"state\"} 7"));
/// ```
#[must_use]
pub fn prometheus_text(snapshot: &Snapshot) -> String {
    prometheus_text_with_help(snapshot, &|_| None)
}

/// Like [`prometheus_text`], with a help-text lookup (normally
/// `|name| registry.help_for(name)`).
#[must_use]
pub fn prometheus_text_with_help(
    snapshot: &Snapshot,
    help: &dyn Fn(&str) -> Option<&'static str>,
) -> String {
    let mut out = String::new();
    let mut last_name: Option<&str> = None;
    for entry in &snapshot.entries {
        let (name, scale) = exposition_name(entry.name);
        if last_name != Some(entry.name) {
            if let Some(h) = help(entry.name) {
                let _ = writeln!(out, "# HELP {name} {}", escape_help(h));
            }
            let kind = match entry.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram { .. } => "histogram",
            };
            let _ = writeln!(out, "# TYPE {name} {kind}");
            last_name = Some(entry.name);
        }
        match &entry.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "{name}{} {v}", labels(&entry.labels, &[]));
            }
            MetricValue::Gauge(v) => {
                if scale == 1.0 {
                    let _ = writeln!(out, "{name}{} {v}", labels(&entry.labels, &[]));
                } else {
                    let scaled = fmt_f64(*v as f64 * scale);
                    let _ = writeln!(out, "{name}{} {scaled}", labels(&entry.labels, &[]));
                }
            }
            MetricValue::Histogram { count, sum, buckets, .. } => {
                let mut cumulative = 0u64;
                for (bound, n) in buckets {
                    cumulative += n;
                    let le = fmt_f64(*bound * scale);
                    let _ = writeln!(
                        out,
                        "{name}_bucket{} {cumulative}",
                        labels(&entry.labels, &[("le", &le)]),
                    );
                }
                let _ = writeln!(
                    out,
                    "{name}_bucket{} {count}",
                    labels(&entry.labels, &[("le", "+Inf")]),
                );
                let _ = writeln!(
                    out,
                    "{name}_sum{} {}",
                    labels(&entry.labels, &[]),
                    fmt_f64(*sum * scale)
                );
                let _ = writeln!(out, "{name}_count{} {count}", labels(&entry.labels, &[]));
            }
        }
    }
    out
}

/// Maps an internal metric name to its exposition-format name plus the
/// value scale: the workspace records durations in milliseconds under a
/// `_ms` suffix, while Prometheus convention wants base units
/// (`_seconds`). Everything else passes through unscaled.
fn exposition_name(name: &str) -> (std::borrow::Cow<'_, str>, f64) {
    match name.strip_suffix("_ms") {
        Some(base) => (std::borrow::Cow::Owned(format!("{base}_seconds")), 1e-3),
        None => (std::borrow::Cow::Borrowed(name), 1.0),
    }
}

/// Escapes `# HELP` text (backslash and newline, per the exposition
/// format).
fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Renders flight-recorder events in the Chrome `trace_event` JSON
/// format, loadable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
///
/// [`EventKind::Span`] events become complete (`"ph": "X"`) spans with
/// microsecond timestamps and durations — one track per node (`pid` =
/// node, `tid` = node) — so per-tick phase spans (subscription, publish,
/// proxy relay, verify, net flush) render as nested bars. All other
/// kinds become thread-scoped instant (`"ph": "i"`) events. Trace id,
/// frame, subject, and value travel in `args` for the inspector pane.
///
/// # Examples
///
/// ```
/// use watchmen_telemetry::trace::{EventKind, Phase, TraceEvent, TraceId};
///
/// let mut span = TraceEvent::point(
///     TraceId::NONE, 0, u32::MAX, 1, Phase::Tick, EventKind::Span, "tick", 0,
/// );
/// span.at_us = 10;
/// span.dur_us = 250;
/// let json = watchmen_telemetry::export::chrome_trace(&[span]);
/// assert!(json.contains("\"ph\": \"X\""));
/// assert!(json.contains("\"dur\": 250"));
/// ```
#[must_use]
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"traceEvents\": [");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let name = if e.detail.is_empty() { e.kind.label() } else { e.detail };
        let _ = write!(
            out,
            "\n  {{\"name\": {}, \"cat\": {}, \"pid\": {}, \"tid\": {}, \"ts\": {}",
            json_string(name),
            json_string(e.phase.label()),
            e.node,
            e.node,
            e.at_us,
        );
        if e.kind == EventKind::Span {
            let _ = write!(out, ", \"ph\": \"X\", \"dur\": {}", e.dur_us);
        } else {
            out.push_str(", \"ph\": \"i\", \"s\": \"t\"");
        }
        let _ = write!(
            out,
            ", \"args\": {{\"kind\": {}, \"frame\": {}",
            json_string(e.kind.label()),
            e.frame
        );
        if e.trace_id.is_some() {
            let _ = write!(out, ", \"trace_id\": \"{}\"", e.trace_id);
        }
        if e.subject != NO_SUBJECT {
            let _ = write!(out, ", \"subject\": {}", e.subject);
        }
        if e.value != 0 {
            let _ = write!(out, ", \"value\": {}", e.value);
        }
        out.push_str("}}");
    }
    out.push_str("\n], \"displayTimeUnit\": \"ms\"}");
    out
}

/// Renders a `{k="v",…}` label block, merging metric labels with extras
/// (e.g. `le`); empty when there are no labels at all.
fn labels(base: &[(&'static str, String)], extra: &[(&str, &str)]) -> String {
    if base.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in base.iter().map(|(k, v)| (*k, v.as_str())).chain(extra.iter().copied()) {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape(v));
    }
    out.push('}');
    out
}

/// Escapes a Prometheus label value (backslash, quote, newline).
fn escape(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Formats a float compactly: integers without a trailing `.0`, others
/// with enough digits to round-trip the histogram's resolution.
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        let s = format!("{v:.6}");
        let s = s.trim_end_matches('0').trim_end_matches('.');
        s.to_owned()
    }
}

/// JSON-escapes a string and wraps it in quotes — the workspace's one
/// escaper ([`chrome_trace`], [`crate::report`], the verdict audit
/// stream).
///
/// # Examples
///
/// ```
/// assert_eq!(watchmen_telemetry::export::json_string("a\"b\n"), "\"a\\\"b\\n\"");
/// ```
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
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
    use crate::Registry;

    #[test]
    fn prometheus_counter_and_gauge_lines() {
        let r = Registry::new();
        r.describe("a_total", "things that happened");
        r.counter("a_total").add(5);
        r.gauge("depth").set(-2);
        let text = prometheus_text_with_help(&r.snapshot(), &|n| r.help_for(n));
        assert!(text.contains("# HELP a_total things that happened"));
        assert!(text.contains("# TYPE a_total counter"));
        assert!(text.contains("a_total 5"));
        assert!(text.contains("# TYPE depth gauge"));
        assert!(text.contains("depth -2"));
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative() {
        let r = Registry::new();
        let h = r.histogram("lat_ms");
        h.record(1.0);
        h.record(1.0);
        h.record(100.0);
        let text = prometheus_text(&r.snapshot());
        // Internal `_ms` histograms export under the base unit.
        assert!(text.contains("# TYPE lat_seconds histogram"), "{text}");
        assert!(text.contains("lat_seconds_count 3"), "{text}");
        assert!(text.contains("lat_seconds_sum 0.102"), "{text}");
        assert!(text.contains("le=\"+Inf\"} 3"), "{text}");
        assert!(!text.contains("lat_ms"), "{text}");
        // The 1ms bucket line must carry 2 observations before the 100ms
        // line reaches the cumulative 3.
        let one_line = text.lines().find(|l| l.starts_with("lat_seconds_bucket")).unwrap();
        assert!(one_line.ends_with(" 2"), "{one_line}");
    }

    #[test]
    fn ms_gauges_export_as_scaled_seconds() {
        let r = Registry::new();
        r.describe("quantum_ms", "scheduler quantum");
        r.gauge("quantum_ms").set(250);
        let text = prometheus_text_with_help(&r.snapshot(), &|n| r.help_for(n));
        assert!(text.contains("# HELP quantum_seconds scheduler quantum"), "{text}");
        assert!(text.contains("# TYPE quantum_seconds gauge"), "{text}");
        assert!(text.contains("quantum_seconds 0.25"), "{text}");
    }

    #[test]
    fn help_text_is_escaped() {
        let r = Registry::new();
        r.describe("odd_total", "line one\nback\\slash");
        r.counter("odd_total").inc();
        let text = prometheus_text_with_help(&r.snapshot(), &|n| r.help_for(n));
        assert!(text.contains("# HELP odd_total line one\\nback\\\\slash"), "{text}");
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter_with("x_total", &[("who", "a\"b\\c")]).inc();
        let text = prometheus_text(&r.snapshot());
        assert!(text.contains("who=\"a\\\"b\\\\c\""), "{text}");
    }

    #[test]
    fn empty_snapshot_renders_an_empty_document() {
        assert_eq!(prometheus_text(&Registry::new().snapshot()), "");
    }

    #[test]
    fn chrome_trace_emits_spans_and_instants() {
        use crate::trace::{EventKind, Phase, TraceEvent, TraceId};
        let mut span = TraceEvent::point(
            TraceId::NONE,
            3,
            u32::MAX,
            42,
            Phase::Subscription,
            EventKind::Span,
            "subscriptions",
            0,
        );
        span.at_us = 100;
        span.dur_us = 50;
        let mut point = TraceEvent::point(
            TraceId::from_origin_seq(9, 7),
            3,
            9,
            42,
            Phase::Verify,
            EventKind::Violation,
            "position",
            8,
        );
        point.at_us = 160;
        let out = chrome_trace(&[span, point]);
        assert!(out.starts_with("{\"traceEvents\": ["), "{out}");
        assert!(out.contains("\"ph\": \"X\""), "{out}");
        assert!(out.contains("\"dur\": 50"), "{out}");
        assert!(out.contains("\"ph\": \"i\""), "{out}");
        assert!(out.contains("\"subject\": 9"), "{out}");
        assert!(out.contains("\"cat\": \"verify\""), "{out}");
        assert!(out.ends_with("\"displayTimeUnit\": \"ms\"}"), "{out}");
    }

    #[test]
    fn chrome_trace_empty_is_valid_shell() {
        let out = chrome_trace(&[]);
        assert_eq!(out, "{\"traceEvents\": [\n], \"displayTimeUnit\": \"ms\"}");
    }
}
