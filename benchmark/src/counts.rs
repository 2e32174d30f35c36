//! Exact tallies of one unit of work (a match), and their sums.
//!
//! Every field is a count the run repeats bit for bit at a fixed seed,
//! traced or not — except the `label`/`undecodable`/`checks_run`/`signs`
//! group, which needs every delivered datagram decoded and is therefore
//! filled on traced runs only.

use watchmen::core::node::{ChurnStats, ControlPlaneStats};
use watchmen::net::live::LiveStats;
use watchmen::net::NetStats;

/// `Payload::label()` values in tag order.
pub const LABELS: [&str; 12] = [
    "state",
    "position",
    "guidance",
    "subscribe",
    "unsubscribe",
    "kill-claim",
    "handoff",
    "ack",
    "leave",
    "join",
    "bootstrap",
    "evict",
];

/// The labels that have metrics of their own: all but `kill-claim`, which
/// no driver in the repository ever sends (`claim_kill` has no caller).
pub fn reported_labels() -> impl Iterator<Item = (usize, &'static str)> {
    LABELS.iter().copied().enumerate().filter(|(_, l)| *l != "kill-claim")
}

fn add_control(into: &mut ControlPlaneStats, o: &ControlPlaneStats) {
    into.retransmits += o.retransmits;
    into.acks_sent += o.acks_sent;
    into.acks_received += o.acks_received;
    into.abandoned += o.abandoned;
    into.superseded += o.superseded;
    into.proxy_fallbacks += o.proxy_fallbacks;
}

/// Sums the transport counters the benchmark reports.
pub fn add_live(into: &mut LiveStats, o: &LiveStats) {
    into.frames_in += o.frames_in;
    into.frames_out += o.frames_out;
    into.heartbeats_sent += o.heartbeats_sent;
    into.queue_dropped += o.queue_dropped;
    into.unroutable_dropped += o.unroutable_dropped;
    into.malformed += o.malformed;
    into.truncated += o.truncated;
}

pub fn label_index(label: &str) -> usize {
    LABELS.iter().position(|l| *l == label).expect("every Payload::label() is listed in LABELS")
}

/// Update ages at or beyond this many frames share the last bucket.
pub const AGE_BUCKETS: usize = 64;

#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub units: u64,
    pub frames: u64,
    /// Σ over frames of nodes ticked (the denominator of per-player rates).
    pub player_frames: u64,
    pub wire_bytes: u64,
    pub datagrams_in: u64,
    /// Datagrams emitted by `datagram()` calls (proxy relays, acks).
    pub relay_out: u64,
    /// Datagrams emitted by `tick()` calls.
    pub tick_out: u64,

    pub ev_delivery: u64,
    pub ev_bad_signature: u64,
    pub ev_replay: u64,
    pub ev_suspicion: u64,
    pub age_hist: Vec<u64>,
    pub false_verdicts: u64,
    pub audit_records: u64,
    /// Frames from the first scripted cheat to the first severe verdict,
    /// one entry per scripted cheater.
    pub ttd: Vec<u64>,

    pub control: ControlPlaneStats,
    pub churn: ChurnStats,
    pub net: NetStats,
    pub in_flight_max: u64,
    pub live: LiveStats,
    pub queued_max: u64,

    /// What the adversary shim injected.
    pub shim_tampered: u64,
    pub shim_replayed: u64,

    // --- traced runs only
    pub label: [u64; 12],
    pub undecodable: u64,
    /// State updates received straight from their origin: the ones a
    /// proxy runs the physics check on.
    pub checks_run: u64,
    /// Envelopes signed: the span of sequence numbers seen per origin.
    pub signs: u64,
}

impl Counts {
    pub fn new() -> Self {
        Counts { age_hist: vec![0; AGE_BUCKETS], ..Counts::default() }
    }

    pub fn add(&mut self, o: &Counts) {
        self.units += o.units;
        self.frames += o.frames;
        self.player_frames += o.player_frames;
        self.wire_bytes += o.wire_bytes;
        self.datagrams_in += o.datagrams_in;
        self.relay_out += o.relay_out;
        self.tick_out += o.tick_out;
        self.ev_delivery += o.ev_delivery;
        self.ev_bad_signature += o.ev_bad_signature;
        self.ev_replay += o.ev_replay;
        self.ev_suspicion += o.ev_suspicion;
        for (a, b) in self.age_hist.iter_mut().zip(&o.age_hist) {
            *a += b;
        }
        self.false_verdicts += o.false_verdicts;
        self.audit_records += o.audit_records;
        self.ttd.extend_from_slice(&o.ttd);

        add_control(&mut self.control, &o.control);
        self.churn.stale_drops += o.churn.stale_drops;
        self.churn.joins_applied += o.churn.joins_applied;
        self.churn.evictions_applied += o.churn.evictions_applied;
        self.net.sent += o.net.sent;
        self.net.delivered += o.net.delivered;
        self.net.dropped += o.net.dropped;
        self.net.duplicated += o.net.duplicated;
        self.in_flight_max = self.in_flight_max.max(o.in_flight_max);
        add_live(&mut self.live, &o.live);
        self.queued_max = self.queued_max.max(o.queued_max);
        self.shim_tampered += o.shim_tampered;
        self.shim_replayed += o.shim_replayed;

        for (a, b) in self.label.iter_mut().zip(&o.label) {
            *a += b;
        }
        self.undecodable += o.undecodable;
        self.checks_run += o.checks_run;
        self.signs += o.signs;
    }

    /// Folds one node's control-plane and churn counters in.
    pub fn add_node_stats(&mut self, control: ControlPlaneStats, churn: ChurnStats) {
        add_control(&mut self.control, &control);
        self.churn.stale_drops += churn.stale_drops;
        // Every node applies the same roster deltas; report one node's view.
        self.churn.joins_applied = self.churn.joins_applied.max(churn.joins_applied);
        self.churn.evictions_applied = self.churn.evictions_applied.max(churn.evictions_applied);
    }

    /// Bytes put on the wire per player per second of game time.
    pub fn wire_bytes_per_player_s(&self, frame_ms: f64) -> f64 {
        if self.player_frames == 0 {
            return 0.0;
        }
        self.wire_bytes as f64 / (self.player_frames as f64 * frame_ms / 1000.0)
    }

    /// Nearest-rank percentile of the update-age distribution, in frames.
    pub fn age_percentile(&self, p: f64) -> u64 {
        let total: u64 = self.age_hist.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (age, n) in self.age_hist.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return age as u64;
            }
        }
        (AGE_BUCKETS - 1) as u64
    }

    /// Datagrams that left the fast path, as a share of all handled:
    /// rejected (bad signature, replay, stale churn traffic) or control.
    /// Needs the traced-only label counts.
    pub fn offpath_share(&self) -> f64 {
        if self.datagrams_in == 0 {
            return 0.0;
        }
        // Every label from `subscribe` on is control traffic, bar `kill-claim`.
        let control: u64 =
            (3..12).filter(|&i| LABELS[i] != "kill-claim").map(|i| self.label[i]).sum();
        let off = self.ev_bad_signature + self.ev_replay + self.churn.stale_drops + control;
        off as f64 / self.datagrams_in as f64
    }
}
