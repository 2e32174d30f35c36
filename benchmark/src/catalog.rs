//! Every metric the benchmark emits, by name. `BENCHMARK.json` lists the
//! same names; `--selfcheck` verifies the two agree.
//!
//! Per-layer names are `<crate>.<module>.<what>`. A workload that never
//! exercises a layer reports 0 for it.

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`; for plain work counts the direction says
    /// which way a cheaper run moves them.
    pub better: &'static str,
}

const fn d(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// End-to-end metrics: what a user of the system sees, on every workload.
/// One *op* is one match frame (deliver, tick every node, lobby, audit
/// drain) on the four match workloads, one match on `fleet1w`, and one
/// `commit_and_maybe_compact` of 256 outcomes on `store256k`.
pub const END_TO_END: [Def; 5] = [
    d("setup_s", "s", "lower"),
    d("ops_per_sec", "1/s", "higher"),
    d("op_ms_p50", "ms", "lower"),
    d("op_ms_p90", "ms", "lower"),
    d("peak_heap_mb", "MB", "lower"),
];

pub const PER_LAYER: [Def; 127] = [
    // Exact protocol-level outcomes (identical traced or not).
    d("wire_bytes_per_player_s", "B/s", "lower"),
    d("update_age_frames_p50", "frames", "lower"),
    d("update_age_frames_p99", "frames", "lower"),
    d("ttd_frames_p99", "frames", "lower"),
    // Resident set of the traced process (trace buffers included).
    d("peak_rss_mb", "MB", "lower"),
    // crypto
    d("crypto.schnorr.verify_us", "us", "lower"),
    d("crypto.schnorr.sign_us", "us", "lower"),
    d("crypto.schnorr.verifies", "count", "lower"),
    d("crypto.schnorr.signs", "count", "lower"),
    d("crypto.schnorr.keygen_us", "us", "lower"),
    d("crypto.sha256.us_per_kb", "us", "lower"),
    // core.msg
    d("core.msg.decode_us", "us", "lower"),
    d("core.msg.encode_us", "us", "lower"),
    d("core.msg.wire_bytes_avg", "B", "lower"),
    d("core.msg.count.state", "count", "lower"),
    d("core.msg.count.position", "count", "lower"),
    d("core.msg.count.guidance", "count", "lower"),
    d("core.msg.count.subscribe", "count", "lower"),
    d("core.msg.count.unsubscribe", "count", "lower"),
    d("core.msg.count.handoff", "count", "lower"),
    d("core.msg.count.ack", "count", "lower"),
    d("core.msg.count.leave", "count", "lower"),
    d("core.msg.count.join", "count", "lower"),
    d("core.msg.count.bootstrap", "count", "lower"),
    d("core.msg.count.evict", "count", "lower"),
    // core.sans_io (the node behind it)
    d("core.sans_io.datagram_s", "s", "lower"),
    d("core.sans_io.datagram_us_p50", "us", "lower"),
    d("core.sans_io.datagram_us_p99", "us", "lower"),
    d("core.sans_io.datagram_us.state", "us", "lower"),
    d("core.sans_io.datagram_us.position", "us", "lower"),
    d("core.sans_io.datagram_us.guidance", "us", "lower"),
    d("core.sans_io.datagram_us.subscribe", "us", "lower"),
    d("core.sans_io.datagram_us.unsubscribe", "us", "lower"),
    d("core.sans_io.datagram_us.handoff", "us", "lower"),
    d("core.sans_io.datagram_us.ack", "us", "lower"),
    d("core.sans_io.datagram_us.leave", "us", "lower"),
    d("core.sans_io.datagram_us.join", "us", "lower"),
    d("core.sans_io.datagram_us.bootstrap", "us", "lower"),
    d("core.sans_io.datagram_us.evict", "us", "lower"),
    d("core.sans_io.tick_s", "s", "lower"),
    d("core.sans_io.tick_us_p50", "us", "lower"),
    d("core.sans_io.tick_us_p99", "us", "lower"),
    d("core.sans_io.relay_fanout", "ratio", "lower"),
    d("core.sans_io.out_per_tick", "count", "lower"),
    d("core.sans_io.offpath_share", "ratio", "lower"),
    // core.node counters
    d("core.node.events.delivery", "count", "higher"),
    d("core.node.events.bad_signature", "count", "lower"),
    d("core.node.events.replay", "count", "lower"),
    d("core.node.events.suspicion", "count", "lower"),
    d("core.node.control.retransmits", "count", "lower"),
    d("core.node.control.acks_sent", "count", "lower"),
    d("core.node.control.acks_received", "count", "lower"),
    d("core.node.control.abandoned", "count", "lower"),
    d("core.node.control.superseded", "count", "lower"),
    d("core.node.control.proxy_fallbacks", "count", "lower"),
    d("core.node.churn.stale_drops", "count", "lower"),
    d("core.node.churn.joins_applied", "count", "higher"),
    d("core.node.churn.evictions_applied", "count", "higher"),
    // kernels reachable only inside the node, replayed
    d("core.subscription.compute_sets_us.16p", "us", "lower"),
    d("core.subscription.compute_sets_us.48p", "us", "lower"),
    d("core.proxy.proxy_of_us", "us", "lower"),
    d("core.proxy.clients_of_us", "us", "lower"),
    d("core.verify.check_position_us", "us", "lower"),
    d("core.verify.checks_run", "count", "lower"),
    d("core.verify.false_verdicts", "count", "lower"),
    d("core.lobby.tick_s", "s", "lower"),
    d("core.lobby.admit_midgame_us", "us", "lower"),
    d("core.audit.drain_s", "s", "lower"),
    d("core.audit.records", "count", "lower"),
    // net
    d("net.simnet.advance_s", "s", "lower"),
    d("net.simnet.send_s", "s", "lower"),
    d("net.simnet.sent", "count", "lower"),
    d("net.simnet.delivered", "count", "higher"),
    d("net.simnet.dropped", "count", "lower"),
    d("net.simnet.duplicated", "count", "lower"),
    d("net.simnet.in_flight_max", "count", "lower"),
    d("net.live.pump_us_p50", "us", "lower"),
    d("net.live.pump_us_p99", "us", "lower"),
    d("net.live.frames_in", "count", "higher"),
    d("net.live.frames_out", "count", "lower"),
    d("net.live.heartbeats_sent", "count", "lower"),
    d("net.live.queue_dropped", "count", "lower"),
    d("net.live.unroutable_dropped", "count", "lower"),
    d("net.live.malformed", "count", "lower"),
    d("net.live.truncated", "count", "lower"),
    d("net.live.queued_max", "count", "lower"),
    d("net.live.transport_ms_per_tick", "ms", "lower"),
    d("net.udp.encode_frame_us", "us", "lower"),
    d("net.udp.parse_frame_us", "us", "lower"),
    // set-up and match-end layers
    d("game.trace.record_us_per_player_frame", "us", "lower"),
    d("sim.workload.build_s", "s", "lower"),
    d("sim.quality.evaluate_ms", "ms", "lower"),
    // fleet
    d("fleet.cell.first_quantum_ms_p50", "ms", "lower"),
    d("fleet.cell.quantum_ms_p50", "ms", "lower"),
    d("fleet.cell.quantum_ms_p99", "ms", "lower"),
    d("fleet.cell.final_quantum_ms_p50", "ms", "lower"),
    d("fleet.pool.quanta", "count", "lower"),
    d("fleet.pool.steals", "count", "lower"),
    d("fleet.pool.overhead_share", "ratio", "lower"),
    d("fleet.pool.speedup_2w", "ratio", "higher"),
    d("fleet.rollup.roll_up_ms", "ms", "lower"),
    d("fleet.rollup.shard_p99_spread", "ratio", "lower"),
    // store
    d("store.store.note_outcome_us.b16", "us", "lower"),
    d("store.store.note_outcome_us.b256", "us", "lower"),
    d("store.store.commit_ms_p99", "ms", "lower"),
    d("store.store.compact_ms_p50", "ms", "lower"),
    d("store.store.compactions", "count", "lower"),
    d("store.store.wal_bytes_per_outcome", "B", "lower"),
    d("store.store.recover_wal_records", "count", "lower"),
    d("store.record.encode_frame_us", "us", "lower"),
    d("store.record.crc32_us_per_kb", "us", "lower"),
    d("store.snapshot.encode_ms", "ms", "lower"),
    d("store.snapshot.decode_ms", "ms", "lower"),
    d("store.io.fs_commit_ms_p50", "ms", "lower"),
    d("store.io.fs_recover_ms", "ms", "lower"),
    // telemetry
    d("telemetry.histogram.record_ns", "ns", "lower"),
    d("telemetry.histogram.p99_rel_err", "ratio", "lower"),
    d("telemetry.histogram.p99_bucket_width_ms", "ms", "lower"),
    d("telemetry.recorder.record_ns", "ns", "lower"),
    // the ledger itself
    d("attrib.tick_ms_p99", "ms", "lower"),
    d("attrib.driver_residual_share", "ratio", "lower"),
    d("attrib.crypto_share", "ratio", "lower"),
    d("attrib.codec_share", "ratio", "lower"),
    d("attrib.node_other_share", "ratio", "lower"),
    d("attrib.trace_overhead_pct", "%", "lower"),
    // what the shared host did to the traced run (see `host`)
    d("attrib.host_contended_share", "ratio", "lower"),
    d("attrib.host_slowdown_p50", "ratio", "lower"),
];

/// Counts that must repeat bit for bit at a fixed seed (`--selfcheck`).
pub fn is_exact(name: &str) -> bool {
    matches!(
        name,
        "wire_bytes_per_player_s"
            | "update_age_frames_p50"
            | "update_age_frames_p99"
            | "ttd_frames_p99"
    ) || name.starts_with("core.msg.count.")
        || name.starts_with("core.node.events.")
        || name.starts_with("core.node.control.")
        || name.starts_with("core.node.churn.")
        || name.starts_with("net.simnet.") && !name.ends_with("_s")
        || matches!(
            name,
            "crypto.schnorr.verifies"
                | "crypto.schnorr.signs"
                | "core.verify.checks_run"
                | "core.verify.false_verdicts"
                | "core.audit.records"
                | "store.store.compactions"
                | "store.store.wal_bytes_per_outcome"
                | "store.store.recover_wal_records"
        )
}
