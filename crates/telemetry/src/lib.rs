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
//!   hands out [`std::sync::Arc`] handles. There is no process-wide
//!   registry: every metric goes to the registry its driver names. A
//!   layer counts its events in its own stats and publishes a finished
//!   run's totals there ([`Registry::add_counts`]), so counters are per
//!   run; a driver that times calls (the match cluster, the fleet cell)
//!   records into histogram handles it fetched there once, from an
//!   `Instant` pair around each call. A layer whose driver reports its
//!   stats directly (the live transport, the store) publishes nothing.
//!
//! # Tracing
//!
//! Metrics aggregate; the tracing layer keeps *individual* decisions
//! auditable. [`trace::TraceId`] gives every wire message a causal
//! identity derived from its `(origin, seq)` pair — recomputable at each
//! hop with no extra wire bytes. A verdict's record in the node's audit
//! stream carries the trace id of the message it judged, and since a run
//! is deterministic from its seed, a re-run's datagrams filtered by that
//! id are the message's origin → proxy → verdict journey (DESIGN §8).
//! No node records into [`FlightRecorder`], a fixed-capacity ring of
//! [`trace::TraceEvent`]s; it stays for the benchmark ledger's
//! `telemetry.recorder.record_ns` kernel.
//!
//! # Exporters
//!
//! [`export::prometheus_text`] renders a [`Snapshot`] in the Prometheus
//! text exposition format — the workspace's one metrics format and its
//! one renderer, for a printed dump and a live scrape alike. Each
//! [`SnapshotEntry`] carries the help text [`Registry::describe`]
//! attached to its name, so the snapshot is all a renderer needs.
//! [`report::Report`] is the one run report every driver prints, records
//! (`BENCH_<name>.json`) and gates through.
//!
//! For *live* visibility — watching a fleet mid-run rather than reading
//! a report after it exits — [`serve::MetricsServer`] is a `std`-only HTTP
//! scrape endpoint (`/metrics`, `/healthz`) on a background thread over
//! one snapshot source, enabled by the `WATCHMEN_METRICS_ADDR` knob (and
//! held up after the run for `WATCHMEN_METRICS_HOLD_MS`).
//!
//! # Examples
//!
//! ```
//! use std::time::Instant;
//! use watchmen_telemetry::Registry;
//!
//! let registry = Registry::new();
//! let sent = registry.counter("net_messages_sent_total");
//! sent.inc();
//! sent.add(2);
//!
//! let ticks = registry.histogram("node_tick_duration_ms");
//! let started = Instant::now();
//! // ... the work being timed ...
//! ticks.record(started.elapsed().as_secs_f64() * 1000.0);
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
//! (`node_`, `proxy_`, `net_`, `fleet_`), with `_total` for
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
pub mod trace;

pub use counter::{Counter, Gauge};
pub use histogram::Histogram;
pub use recorder::FlightRecorder;
pub use registry::{MetricValue, Registry, Snapshot, SnapshotEntry};
pub use serve::MetricsServer;
pub use trace::{EventKind, Phase, TraceEvent, TraceId};
