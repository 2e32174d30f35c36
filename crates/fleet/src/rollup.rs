//! Reading the fleet's tick latency out of the shard registries.
//!
//! Every pool worker records into a shard-private
//! [`watchmen_telemetry::Registry`]. After the run, [`roll_up`] reads the
//! one histogram the fleet reports, `fleet_tick_ms`, two ways:
//!
//! * **per shard** — from each shard's own snapshot, so one overloaded
//!   worker shows up even when the fleet-wide figure looks healthy;
//! * **fleet-wide** — from one bucket-level merge of every shard's
//!   histogram, so fleet percentiles are computed over the union of
//!   observations rather than averaged across shards (averaging
//!   percentiles is the classic telemetry mistake this split exists to
//!   avoid).

use std::sync::Arc;

use watchmen_telemetry::{Histogram, MetricValue, Registry};

/// Summary of one tick-duration histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickStats {
    /// Frames observed.
    pub count: u64,
    /// Median frame duration, ms.
    pub p50: f64,
    /// 90th percentile, ms.
    pub p90: f64,
    /// 99th percentile, ms.
    pub p99: f64,
    /// Worst frame, ms.
    pub max: f64,
}

impl TickStats {
    fn from_metric(value: Option<&MetricValue>) -> Option<TickStats> {
        match value {
            Some(&MetricValue::Histogram { count, p50, p90, p99, max, .. }) if count > 0 => {
                Some(TickStats { count, p50, p90, p99, max })
            }
            _ => None,
        }
    }
}

/// The tick latency of one fleet run.
#[derive(Debug)]
pub struct FleetRollup {
    /// Tick-duration summaries per shard (index = shard; `None` when the
    /// shard recorded no frames).
    pub shard_ticks: Vec<Option<TickStats>>,
    /// Fleet-wide tick-duration summary over the merged distribution.
    pub fleet_ticks: Option<TickStats>,
}

impl FleetRollup {
    /// The per-shard tick p99s, for gates and the bench record.
    #[must_use]
    pub fn shard_tick_p99s(&self) -> Vec<f64> {
        self.shard_ticks.iter().flatten().map(|t| t.p99).collect()
    }

    /// The worst per-shard tick p99 — the fleet's fairness headline: one
    /// overloaded shard shows up here even when the fleet-wide p99 looks
    /// healthy.
    #[must_use]
    pub fn worst_shard_tick_p99(&self) -> f64 {
        self.shard_tick_p99s().into_iter().fold(0.0, f64::max)
    }
}

/// Reads the tick latency of one pool run's shards (see module docs).
#[must_use]
pub fn roll_up(shards: &[Arc<Registry>]) -> FleetRollup {
    let fleet = Histogram::new();
    let shard_ticks = shards
        .iter()
        .map(|shard| {
            let ticks = TickStats::from_metric(shard.snapshot().get("fleet_tick_ms"));
            if ticks.is_some() {
                fleet.merge_from(&shard.histogram("fleet_tick_ms"));
            }
            ticks
        })
        .collect();
    let fleet_ticks = (fleet.count() > 0).then(|| TickStats {
        count: fleet.count(),
        p50: fleet.quantile(0.5),
        p90: fleet.quantile(0.9),
        p99: fleet.quantile(0.99),
        max: fleet.max(),
    });
    FleetRollup { shard_ticks, fleet_ticks }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard_with_ticks(ticks: &[f64]) -> Arc<Registry> {
        let r = Registry::new();
        let h = r.histogram("fleet_tick_ms");
        for &t in ticks {
            h.record(t);
        }
        Arc::new(r)
    }

    #[test]
    fn rollup_keeps_shard_views_and_merges_the_fleet() {
        let shards = vec![shard_with_ticks(&[1.0, 1.0, 1.0]), shard_with_ticks(&[100.0, 100.0])];
        let rollup = roll_up(&shards);

        let s0 = rollup.shard_ticks[0].expect("shard 0 recorded");
        let s1 = rollup.shard_ticks[1].expect("shard 1 recorded");
        assert_eq!(s0.count, 3);
        assert_eq!(s1.count, 2);
        assert!(s0.p99 < s1.p99, "slow shard must dominate its own p99");

        let fleet = rollup.fleet_ticks.expect("fleet merged");
        assert_eq!(fleet.count, 5, "the fleet figure must union all observations");
        assert!(fleet.max >= 100.0);

        // The slow shard is visible via the headline knob.
        assert!((rollup.worst_shard_tick_p99() - s1.p99).abs() < f64::EPSILON);
    }

    #[test]
    fn empty_fleet_rolls_up_to_nothing() {
        let rollup = roll_up(&[]);
        assert!(rollup.shard_ticks.is_empty());
        assert!(rollup.fleet_ticks.is_none());
        assert_eq!(rollup.worst_shard_tick_p99(), 0.0);
    }

    #[test]
    fn idle_shard_yields_none_not_zeroes() {
        let shards = vec![shard_with_ticks(&[2.0]), Arc::new(Registry::new())];
        let rollup = roll_up(&shards);
        assert!(rollup.shard_ticks[0].is_some());
        assert!(rollup.shard_ticks[1].is_none());
        assert_eq!(rollup.shard_tick_p99s().len(), 1);
    }
}
