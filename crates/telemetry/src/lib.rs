//! Zero-dependency metrics and tracing for the Watchmen workspace.
//!
//! The paper evaluates Watchmen almost entirely through measurements —
//! bandwidth per player (Fig. 3), update age (Fig. 7), detection latency
//! (Fig. 6), proxy and witness overhead — so the reproduction needs a
//! first-class way to count, time and summarize what every layer does.
//! This crate is that layer: `std`-only, allocation-light on the hot
//! path, and safe to call from any thread.
//!
//! # Primitives
//!
//! * [`Counter`] — a monotonic `u64` (events that only happen more).
//! * [`Gauge`] — a signed instantaneous value (queue depths, in-flight).
//! * [`Histogram`] — a log-linear-bucket distribution with cheap
//!   [`Histogram::quantile`] queries (p50/p90/p99) and ~3% relative
//!   resolution over the full `u64` range.
//! * [`Registry`] — interns metrics by static name plus a label set and
//!   hands out [`std::sync::Arc`] handles; the [`global`] registry is what
//!   the node, proxy, net and sim layers record into.
//! * [`FrameTimer`] — a span-style scope guard that records elapsed
//!   wall-clock milliseconds into a histogram on drop.
//!
//! # Tracing
//!
//! Metrics aggregate; the tracing layer keeps *individual* decisions
//! auditable. [`trace::TraceId`] gives every wire message a causal
//! identity derived from its `(origin, seq)` pair — recomputable at each
//! hop with no extra wire bytes — and [`FlightRecorder`] is the per-node
//! fixed-capacity ring of [`trace::TraceEvent`]s (overwrite-oldest, zero
//! allocation after startup). When a verification check or invariant
//! fires, [`FlightRecorder::dump`] snapshots the events touching the
//! offending trace or player into a [`FlightDump`] report, and
//! [`causal_chain`] stitches one message's origin → proxy → subscriber
//! journey across several nodes' recorders.
//!
//! # Exporters
//!
//! [`export::prometheus_text`] renders a [`Snapshot`] in the Prometheus
//! text exposition format — the workspace's one metrics format.
//! [`export::chrome_trace`] renders flight-recorder events as a Chrome
//! `trace_event` JSON document loadable in `chrome://tracing` or
//! Perfetto. [`report::Report`] is the one run report every driver
//! prints, records (`BENCH_<name>.json`) and gates through.
//!
//! For *live* visibility — watching a fleet mid-run rather than reading
//! a dump after it exits — [`serve::MetricsServer`] is a `std`-only HTTP
//! scrape endpoint (`/metrics`, `/healthz`) on a background thread,
//! enabled by the `WATCHMEN_METRICS_ADDR` knob (and held up after the
//! run for `WATCHMEN_METRICS_HOLD_MS`).
//!
//! # Examples
//!
//! ```
//! use watchmen_telemetry::{Registry, FrameTimer};
//!
//! let registry = Registry::new();
//! let sent = registry.counter("net_messages_sent_total");
//! sent.inc();
//! sent.add(2);
//!
//! let ticks = registry.histogram("node_tick_duration_ms");
//! {
//!     let _span = FrameTimer::start(&ticks);
//!     // ... the work being timed ...
//! }
//! assert_eq!(sent.get(), 3);
//! assert_eq!(ticks.count(), 1);
//!
//! let text = watchmen_telemetry::export::prometheus_text(&registry.snapshot());
//! assert!(text.contains("net_messages_sent_total 3"));
//! ```
//!
//! # Conventions
//!
//! Metric names are `snake_case`, prefixed by the owning layer
//! (`node_`, `proxy_`, `net_`, `udp_`), with `_total` for
//! counters and a unit suffix (`_ms`, `_bytes`, `_kbps`) for histograms.
//! The Prometheus exporter renames `_ms` metrics to the base-unit
//! `_seconds` form (values scaled) so scrapes conform to Prometheus
//! conventions; the internal names keep milliseconds. Label keys are
//! `&'static str`; label values are small closed sets (message class,
//! check name, architecture) — never player ids or other unbounded
//! values. See DESIGN.md § "Telemetry & observability".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counter;
pub mod export;
mod histogram;
mod recorder;
mod registry;
pub mod report;
pub mod serve;
mod timer;
pub mod trace;

pub use counter::{Counter, Gauge};
pub use histogram::Histogram;
pub use recorder::{FlightDump, FlightRecorder, SpanGuard, DEFAULT_CAPACITY};
pub use registry::{MetricValue, Registry, Snapshot, SnapshotEntry};
pub use serve::MetricsServer;
pub use timer::{time, FrameTimer};
pub use trace::{causal_chain, EventKind, Phase, TraceEvent, TraceId};

use std::sync::OnceLock;

/// The process-wide registry the instrumented layers record into.
///
/// Handles looked up here are cheap to clone and cache; hot paths should
/// fetch their handles once (at construction) rather than per event.
///
/// # Examples
///
/// ```
/// let drops = watchmen_telemetry::global().counter("example_drops_total");
/// drops.inc();
/// assert!(drops.get() >= 1);
/// ```
#[must_use]
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}
