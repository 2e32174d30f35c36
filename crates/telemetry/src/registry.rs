//! Metric interning: names + label sets → shared handles.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

use crate::{Counter, Gauge, Histogram};

/// A label set: sorted `(key, value)` pairs. Keys are static; values are
/// small closed sets (class names, check names) — never unbounded ids.
type Labels = Vec<(&'static str, String)>;

/// Identity of one metric instance.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    name: &'static str,
    labels: Labels,
}

#[derive(Debug, Clone)]
enum Entry {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// The value of one metric at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter total.
    Counter(u64),
    /// A gauge reading.
    Gauge(i64),
    /// A histogram summary: count, sum, min, max, p50/p90/p99 and the
    /// non-empty `(upper_bound, count)` buckets.
    Histogram {
        /// Observation count.
        count: u64,
        /// Sum of observations.
        sum: f64,
        /// Smallest observation.
        min: f64,
        /// Largest observation.
        max: f64,
        /// Median.
        p50: f64,
        /// 90th percentile.
        p90: f64,
        /// 99th percentile.
        p99: f64,
        /// Non-empty buckets as `(upper_bound, count)`.
        buckets: Vec<(f64, u64)>,
    },
}

/// One metric in a [`Snapshot`].
#[derive(Debug, Clone)]
pub struct SnapshotEntry {
    /// Metric name.
    pub name: &'static str,
    /// Sorted label pairs.
    pub labels: Vec<(&'static str, String)>,
    /// The text [`Registry::describe`] attached to the name, if any.
    pub help: Option<&'static str>,
    /// The captured value.
    pub value: MetricValue,
}

/// A point-in-time capture of every metric in a registry, sorted by name
/// then labels, each with its help text — everything
/// [`crate::export::prometheus_text`] renders.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Captured metrics in deterministic order.
    pub entries: Vec<SnapshotEntry>,
}

impl Snapshot {
    /// Looks up a metric by name with an empty label set.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.get_with(name, &[])
    }

    /// Looks up a metric by name and exact label set.
    #[must_use]
    pub fn get_with(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        self.entries
            .iter()
            .find(|e| {
                e.name == name
                    && e.labels.len() == labels.len()
                    && e.labels.iter().zip(labels).all(|((k1, v1), (k2, v2))| k1 == k2 && v1 == v2)
            })
            .map(|e| &e.value)
    }

    /// Sum of all counters whose name matches, across label sets.
    #[must_use]
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.name == name)
            .map(|e| match e.value {
                MetricValue::Counter(v) => v,
                _ => 0,
            })
            .sum()
    }
}

/// Interns metrics by `(name, labels)` and hands out cheap shared
/// handles.
///
/// The common path — looking up an already-registered metric — takes one
/// read lock; first registration takes the write lock once. Hot loops
/// should cache the returned [`Arc`] at construction time rather than
/// re-looking it up per event.
///
/// # Examples
///
/// ```
/// use watchmen_telemetry::Registry;
///
/// let r = Registry::new();
/// let a = r.counter_with("requests_total", &[("class", "state")]);
/// let b = r.counter_with("requests_total", &[("class", "state")]);
/// a.inc();
/// assert_eq!(b.get(), 1); // same underlying metric
/// ```
#[derive(Debug, Default)]
pub struct Registry {
    metrics: RwLock<BTreeMap<Key, Entry>>,
    help: RwLock<BTreeMap<&'static str, &'static str>>,
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Attaches help text to a metric name: each [`SnapshotEntry`] of that
    /// name carries it, and the Prometheus exporter renders it as
    /// `# HELP`.
    pub fn describe(&self, name: &'static str, help: &'static str) {
        self.help.write().expect("telemetry help lock").insert(name, help);
    }

    /// Describes each `(name, help)` of `described` and adds the value at
    /// the same index to the counter `name`: how the owner of a run's
    /// counts publishes its totals.
    ///
    /// # Panics
    ///
    /// Panics if a name is already registered as a different metric type.
    pub fn add_counts<const N: usize>(
        &self,
        described: &[(&'static str, &'static str); N],
        values: [u64; N],
    ) {
        for (&(name, help), n) in described.iter().zip(values) {
            self.describe(name, help);
            self.counter(name).add(n);
        }
    }

    /// The counter `name` with no labels.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// The counter `name` with the given labels.
    ///
    /// # Panics
    ///
    /// Panics if the same `(name, labels)` is registered as a different
    /// metric type.
    pub fn counter_with(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Arc<Counter> {
        match self.intern(name, labels, || Entry::Counter(Arc::new(Counter::new()))) {
            Entry::Counter(c) => c,
            other => panic!("metric {name} already registered as {}", kind_name(&other)),
        }
    }

    /// The gauge `name` with no labels.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// The gauge `name` with the given labels.
    ///
    /// # Panics
    ///
    /// Panics if the same `(name, labels)` is registered as a different
    /// metric type.
    pub fn gauge_with(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Arc<Gauge> {
        match self.intern(name, labels, || Entry::Gauge(Arc::new(Gauge::new()))) {
            Entry::Gauge(g) => g,
            other => panic!("metric {name} already registered as {}", kind_name(&other)),
        }
    }

    /// The histogram `name` with no labels.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        self.histogram_with(name, &[])
    }

    /// The histogram `name` with the given labels.
    ///
    /// # Panics
    ///
    /// Panics if the same `(name, labels)` is registered as a different
    /// metric type.
    pub fn histogram_with(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Arc<Histogram> {
        match self.intern(name, labels, || Entry::Histogram(Arc::new(Histogram::new()))) {
            Entry::Histogram(h) => h,
            other => panic!("metric {name} already registered as {}", kind_name(&other)),
        }
    }

    fn intern(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        make: impl FnOnce() -> Entry,
    ) -> Entry {
        let mut labels: Labels = labels.iter().map(|&(k, v)| (k, v.to_owned())).collect();
        labels.sort_unstable();
        let key = Key { name, labels };
        if let Some(e) = self.metrics.read().expect("telemetry lock").get(&key) {
            return e.clone();
        }
        let mut map = self.metrics.write().expect("telemetry lock");
        map.entry(key).or_insert_with(make).clone()
    }

    /// Captures every metric, with its help text, into a deterministic,
    /// lock-free-to-consume [`Snapshot`].
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let map = self.metrics.read().expect("telemetry lock");
        let help = self.help.read().expect("telemetry help lock");
        let entries = map
            .iter()
            .map(|(key, entry)| SnapshotEntry {
                name: key.name,
                labels: key.labels.clone(),
                help: help.get(key.name).copied(),
                value: match entry {
                    Entry::Counter(c) => MetricValue::Counter(c.get()),
                    Entry::Gauge(g) => MetricValue::Gauge(g.get()),
                    Entry::Histogram(h) => MetricValue::Histogram {
                        count: h.count(),
                        sum: h.sum(),
                        min: h.min(),
                        max: h.max(),
                        p50: h.quantile(0.5),
                        p90: h.quantile(0.9),
                        p99: h.quantile(0.99),
                        buckets: h.nonzero_buckets(),
                    },
                },
            })
            .collect();
        Snapshot { entries }
    }

    /// Merges every metric registered in `other` into this registry,
    /// appending `extra` to each metric's label set — the shard-rollup
    /// primitive: give each shard (worker thread, match group, process
    /// slice) its own private registry, then fold them into one fleet
    /// registry as `metric{shard="3", ...}` entries whose histograms keep
    /// full bucket resolution (see [`Histogram::merge_from`]).
    ///
    /// Counters and gauges add; histograms merge bucket-wise. Calling the
    /// merge twice adds twice — it is an accumulation, not a sync. Pass an
    /// empty `extra` to fold shards into label-free fleet aggregates.
    ///
    /// # Panics
    ///
    /// Panics if a merged `(name, labels)` pair is already registered here
    /// as a different metric type.
    ///
    /// # Examples
    ///
    /// ```
    /// use watchmen_telemetry::Registry;
    ///
    /// let shard = Registry::new();
    /// shard.counter("ticks_total").add(7);
    /// let fleet = Registry::new();
    /// fleet.merge_labeled(&shard, &[("shard", "0")]);
    /// let snap = fleet.snapshot();
    /// assert_eq!(snap.counter_sum("ticks_total"), 7);
    /// assert!(snap.get_with("ticks_total", &[("shard", "0")]).is_some());
    /// ```
    pub fn merge_labeled(&self, other: &Registry, extra: &[(&'static str, &str)]) {
        // Clone the handles out so no lock is held while interning into
        // `self` (which may be the same registry in degenerate uses).
        let entries: Vec<(Key, Entry)> = {
            let map = other.metrics.read().expect("telemetry lock");
            map.iter().map(|(k, e)| (k.clone(), e.clone())).collect()
        };
        for (key, entry) in entries {
            let mut labels: Vec<(&'static str, &str)> =
                key.labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
            labels.extend_from_slice(extra);
            match entry {
                Entry::Counter(c) => self.counter_with(key.name, &labels).add(c.get()),
                Entry::Gauge(g) => self.gauge_with(key.name, &labels).add(g.get()),
                Entry::Histogram(h) => self.histogram_with(key.name, &labels).merge_from(&h),
            }
        }
        let help: Vec<(&'static str, &'static str)> = {
            let map = other.help.read().expect("telemetry help lock");
            map.iter().map(|(k, v)| (*k, *v)).collect()
        };
        for (name, text) in help {
            self.describe(name, text);
        }
    }
}

fn kind_name(e: &Entry) -> &'static str {
    match e {
        Entry::Counter(_) => "counter",
        Entry::Gauge(_) => "gauge",
        Entry::Histogram(_) => "histogram",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_same_metric() {
        let r = Registry::new();
        let a = r.counter("x_total");
        let b = r.counter("x_total");
        a.add(3);
        assert_eq!(b.get(), 3);
    }

    #[test]
    fn labels_distinguish_instances() {
        let r = Registry::new();
        let a = r.counter_with("x_total", &[("class", "state")]);
        let b = r.counter_with("x_total", &[("class", "guidance")]);
        a.inc();
        assert_eq!(b.get(), 0);
        assert_eq!(r.snapshot().counter_sum("x_total"), 1);
    }

    #[test]
    fn label_order_does_not_matter() {
        let r = Registry::new();
        let a = r.counter_with("x_total", &[("a", "1"), ("b", "2")]);
        let b = r.counter_with("x_total", &[("b", "2"), ("a", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("y_total");
        let _ = r.gauge("y_total");
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let r = Registry::new();
        r.counter("b_total").add(2);
        r.counter("a_total").inc();
        r.gauge("depth").set(-3);
        r.histogram("lat_ms").record(5.0);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["a_total", "b_total", "depth", "lat_ms"]);
        assert_eq!(snap.get("a_total"), Some(&MetricValue::Counter(1)));
        assert_eq!(snap.get("depth"), Some(&MetricValue::Gauge(-3)));
        match snap.get("lat_ms") {
            Some(MetricValue::Histogram { count, .. }) => assert_eq!(*count, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn merge_labeled_folds_shards_into_one_snapshot() {
        let shard0 = Registry::new();
        let shard1 = Registry::new();
        shard0.counter("fleet_ticks_total").add(10);
        shard1.counter("fleet_ticks_total").add(32);
        shard0.gauge("fleet_in_flight").set(2);
        shard1.gauge("fleet_in_flight").set(3);
        shard0.histogram("fleet_tick_ms").record(1.0);
        shard1.histogram("fleet_tick_ms").record(9.0);
        shard0.describe("fleet_ticks_total", "ticks advanced");

        let fleet = Registry::new();
        fleet.merge_labeled(&shard0, &[("shard", "0")]);
        fleet.merge_labeled(&shard1, &[("shard", "1")]);
        let snap = fleet.snapshot();
        assert_eq!(
            snap.get_with("fleet_ticks_total", &[("shard", "0")]),
            Some(&MetricValue::Counter(10))
        );
        assert_eq!(
            snap.get_with("fleet_ticks_total", &[("shard", "1")]),
            Some(&MetricValue::Counter(32))
        );
        assert_eq!(snap.counter_sum("fleet_ticks_total"), 42);
        assert_eq!(
            snap.get_with("fleet_in_flight", &[("shard", "1")]),
            Some(&MetricValue::Gauge(3))
        );
        let help = |name| snap.entries.iter().find(|e| e.name == name).and_then(|e| e.help);
        assert_eq!(help("fleet_ticks_total"), Some("ticks advanced"));
        assert_eq!(help("fleet_in_flight"), None);

        // Label-free merge aggregates the histograms bucket-wise.
        let agg = Registry::new();
        agg.merge_labeled(&shard0, &[]);
        agg.merge_labeled(&shard1, &[]);
        match agg.snapshot().get("fleet_tick_ms") {
            Some(MetricValue::Histogram { count, min, max, .. }) => {
                assert_eq!(*count, 2);
                assert!((min - 1.0).abs() < 1e-9 && (max - 9.0).abs() < 1e-9);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn merge_labeled_preserves_existing_labels() {
        let shard = Registry::new();
        shard.counter_with("verdicts_total", &[("check", "position")]).add(5);
        let fleet = Registry::new();
        fleet.merge_labeled(&shard, &[("shard", "7")]);
        let snap = fleet.snapshot();
        assert_eq!(
            snap.get_with("verdicts_total", &[("check", "position"), ("shard", "7")]),
            Some(&MetricValue::Counter(5))
        );
    }
}
