//! Microbenchmarks of the architecture's hot kernels: signature
//! sign/verify, subscription-set computation, proxy schedule evaluation,
//! the verification suite, the durable store's checksum, snapshot and
//! staging paths, and the live transport beside the raw sockets under it.
//!
//! Each kernel is timed into a [`watchmen_telemetry::Histogram`], so the
//! reported p50/p99 come from the same quantile machinery the runtime
//! instrumentation uses.

use std::cell::RefCell;
use std::hint::black_box;
use std::io::ErrorKind;
use std::net::UdpSocket;
use std::sync::Arc;
use std::time::Instant;

use watchmen_bench::run_experiment;
use watchmen_core::proxy::ProxySchedule;
use watchmen_core::subscription::{compute_sets, NoRecency};
use watchmen_core::verify::Verifier;
use watchmen_core::WatchmenConfig;
use watchmen_crypto::schnorr::{Keypair, VerifyingKey};
use watchmen_crypto::{sha256, sha256_compress, sha256_compress_scalar};
use watchmen_game::PlayerId;
use watchmen_net::live::{LiveConfig, LiveTransport};
use watchmen_net::udp::HEADER_LEN;
use watchmen_sim::workload::standard_workload;
use watchmen_store::{
    crc32, crc32_bitwise, crc32_table, decode_snapshot, encode_snapshot, snapshot_matches, MemDir,
    RepState, ReputationStore, StorePolicy, StoreRecord,
};
use watchmen_telemetry::trace::{EventKind, Phase, TraceEvent, TraceId};
use watchmen_telemetry::{FlightRecorder, Histogram, Registry};
use watchmen_world::PhysicsConfig;

/// Iterations per kernel (quick mode: fewer).
fn iterations() -> u32 {
    if std::env::var_os("WATCHMEN_QUICK").is_some() {
        200
    } else {
        2000
    }
}

/// Times `body` `iters` times into a per-kernel histogram
/// (microseconds); `settle` runs untimed after each call, for kernels
/// that must put something back before the next one.
fn time_kernel(
    registry: &Registry,
    name: &'static str,
    iters: u32,
    mut body: impl FnMut(),
    mut settle: impl FnMut(),
) -> Arc<Histogram> {
    let hist = registry.histogram_with("kernel_duration_us", &[("kernel", name)]);
    // Warm up caches and branch predictors outside the measurement.
    for _ in 0..8.min(iters) {
        body();
        settle();
    }
    for _ in 0..iters {
        let start = Instant::now();
        body();
        hist.record(start.elapsed().as_secs_f64() * 1e6);
        settle();
    }
    hist
}

/// Times `body` and renders one summary line (all figures in
/// microseconds).
fn bench_kernel(registry: &Registry, name: &'static str, body: impl FnMut()) -> String {
    let hist = time_kernel(registry, name, iterations(), body, || {});
    format!(
        "{name:<28} p50 {:>9.2}us  p99 {:>9.2}us  mean {:>9.2}us  ({} iters)",
        hist.quantile(0.5),
        hist.quantile(0.99),
        hist.mean(),
        hist.count(),
    )
}

/// Times `compress` over a 64-block batch (one block is too short for
/// the clock) and renders the median as nanoseconds per 64-byte block.
fn bench_compress(
    registry: &Registry,
    name: &'static str,
    mut compress: impl FnMut(&mut [u32; 8], &[[u8; 64]]),
) -> String {
    let blocks = [[0x5au8; 64]; 64];
    let mut state = [0x6a09_e667u32; 8];
    let hist = time_kernel(
        registry,
        name,
        iterations(),
        || compress(black_box(&mut state), black_box(&blocks)),
        || {},
    );
    let per_block = |us: f64| us * 1e3 / blocks.len() as f64;
    format!(
        "{name:<28} p50 {:>9.1}ns  p99 {:>9.1}ns  per 64-byte block  ({} x {} blocks)",
        per_block(hist.quantile(0.5)),
        per_block(hist.quantile(0.99)),
        hist.count(),
        blocks.len(),
    )
}

/// Public-key scalars are not dense: spreads index `i` over the `u64`
/// identity space, as the ledger's `store256k` does.
fn spread_identity(i: u64) -> u64 {
    (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The store's checksum over a snapshot-sized buffer: slicing-by-8
/// beside whatever `crc32` dispatches to — carry-less-multiply folding
/// where the CPU has it, the same tables (and the same figure) where it
/// does not. Both rows read as microseconds per KiB.
fn bench_crc32(registry: &Registry, lines: &mut Vec<String>) {
    const KIB: usize = 1024;
    let buffer: Vec<u8> = (0..KIB * 1024).map(|i| (i * 31) as u8).collect();
    let iters = (iterations() / 10).max(2);
    let mut row = |name: &'static str, kernel: fn(&[u8]) -> u32| {
        let body = || {
            black_box(kernel(black_box(&buffer)));
        };
        let hist = time_kernel(registry, name, iters, body, || {});
        lines.push(format!(
            "{name:<28} p50 {:>9.4}us  p99 {:>9.4}us  per KiB of a 1 MiB buffer  ({} iters)",
            hist.quantile(0.5) / KIB as f64,
            hist.quantile(0.99) / KIB as f64,
            hist.count(),
        ));
    };
    row("crc32_table", crc32_table);
    row("crc32", crc32);
}

/// The store's whole-image kernels and its point lookup at the ledger's
/// `store256k` size. One image call is milliseconds, so those get a
/// hundredth of the iterations.
fn bench_snapshot_kernels(registry: &Registry, lines: &mut Vec<String>) {
    const IDENTITIES: u64 = 262_144;
    const LOOKUPS: u64 = 4096;
    let mut state = RepState::new();
    for i in 0..IDENTITIES {
        let identity = spread_identity(i);
        state.apply(&StoreRecord::Outcome { seq: i + 1, identity, ok: 30, failed: 1 });
    }
    // A stride coprime to the table size visits identities in no order
    // the columns or the cache could follow.
    let mut next = 0u64;
    let hist = time_kernel(
        registry,
        "rep_state_entry",
        iterations(),
        || {
            for _ in 0..LOOKUPS {
                next = (next + 104_729) % IDENTITIES;
                black_box(state.entry(black_box(spread_identity(next))));
            }
        },
        || {},
    );
    lines.push(format!(
        "{:<28} p50 {:>9.1}ns  p99 {:>9.1}ns  per lookup at {IDENTITIES} identities  ({} x {LOOKUPS})",
        "rep_state_entry",
        hist.quantile(0.5) * 1e3 / LOOKUPS as f64,
        hist.quantile(0.99) * 1e3 / LOOKUPS as f64,
        hist.count(),
    ));
    let image = encode_snapshot(&state);
    let iters = (iterations() / 100).max(2);
    let mut row = |name: &'static str, body: &mut dyn FnMut()| {
        let hist = time_kernel(registry, name, iters, body, || {});
        lines.push(format!(
            "{name:<28} p50 {:>9.2}ms  max {:>9.2}ms  at {IDENTITIES} identities, {:.1} MB  ({} iters)",
            hist.quantile(0.5) / 1e3,
            hist.max() / 1e3,
            image.len() as f64 / 1e6,
            hist.count(),
        ));
    };
    row("snapshot_encode_256k", &mut || {
        black_box(encode_snapshot(black_box(&state)));
    });
    row("snapshot_decode_256k", &mut || {
        black_box(decode_snapshot(black_box(&image)).is_ok());
    });
    row("snapshot_verify_256k", &mut || {
        black_box(snapshot_matches(black_box(&image), black_box(&state)));
    });
}

/// `note_outcome` per call when the staged batch is `batch` long: the
/// batch is staged timed, committed untimed.
fn bench_note_outcome(registry: &Registry, name: &'static str, batch: u64) -> String {
    let store = ReputationStore::open(Box::new(MemDir::new()), StorePolicy::default())
        .expect("MemDir never fails")
        .0;
    let store = RefCell::new(store);
    let mut next = 0u64;
    let hist = time_kernel(
        registry,
        name,
        (iterations() / 10).max(2),
        || {
            let mut store = store.borrow_mut();
            for _ in 0..batch {
                // 4096 identities, revisited: the largest batch repeats none,
                // later batches meet a store that already holds them.
                next = (next + 1) % 4096;
                store.note_outcome(black_box(spread_identity(next)), 30, 1);
            }
        },
        || {
            store.borrow_mut().commit().expect("MemDir never fails");
        },
    );
    format!(
        "{name:<28} p50 {:>9.1}ns  p99 {:>9.1}ns  per call  ({} batches of {batch})",
        hist.quantile(0.5) * 1e3 / batch as f64,
        hist.quantile(0.99) * 1e3 / batch as f64,
        hist.count(),
    )
}

/// Sockets in the loopback ring, as many as `live16` has players.
const RING: usize = 16;
/// Payloads each socket sends its ring successor per round.
const PER_ROUND: usize = 4;
/// A signed state update is ~100 bytes on the wire.
const RING_PAYLOAD: usize = 100;
/// The two ring kernels take turns in this many blocks of rounds each.
const RING_BLOCKS: u32 = 50;

/// The live transport beside the raw sockets under it: µs per datagram
/// sent and received over a ring of `RING` loopback sockets, each sending
/// its successor `PER_ROUND` datagrams a round.
fn bench_udp_ring(registry: &Registry, lines: &mut Vec<String>) {
    // What the kernel charges: drain what the predecessor sent, send the
    // successor datagrams of a framed payload's size. Nothing is parsed,
    // counted or allocated.
    let sockets: Vec<UdpSocket> = (0..RING)
        .map(|_| {
            let socket = UdpSocket::bind("127.0.0.1:0").expect("bind loopback");
            socket.set_nonblocking(true).expect("nonblocking");
            socket
        })
        .collect();
    let raw_addrs: Vec<_> = sockets.iter().map(|s| s.local_addr().expect("bound")).collect();
    let datagram = [0x5au8; HEADER_LEN + RING_PAYLOAD];
    let mut buf = [0u8; 2048];
    let mut raw_round = || {
        for (i, socket) in sockets.iter().enumerate() {
            loop {
                match socket.recv_from(&mut buf) {
                    Ok(received) => {
                        black_box(received);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) => panic!("loopback receive: {e}"),
                }
            }
            for _ in 0..PER_ROUND {
                let to = raw_addrs[(i + 1) % RING];
                socket.send_to(black_box(&datagram), to).expect("loopback send");
            }
        }
    };

    // The same ring through `LiveTransport`: pump (drain, flush), then
    // queue the next payloads. Received payload buffers are queued again,
    // so the allocations timed are the transport's own. No cadence
    // heartbeats: every datagram moved is one of the counted.
    let config = LiveConfig { heartbeat_every: 0, ..LiveConfig::default() };
    let mut transports: Vec<LiveTransport> = (0..RING)
        .map(|i| LiveTransport::bind(i as u32, "127.0.0.1:0").expect("bind loopback"))
        .map(|t| t.with_config(config))
        .collect();
    let addrs: Vec<_> = transports.iter().map(|t| t.local_addr().expect("bound")).collect();
    for (i, t) in transports.iter_mut().enumerate() {
        let next = (i + 1) % RING;
        t.register_peer(next as u32, addrs[next]);
    }
    // A round's worth sits queued and another in socket buffers.
    let mut stock = vec![vec![0x5au8; RING_PAYLOAD]; 3 * RING * PER_ROUND];
    let mut live_round = || {
        for (i, t) in transports.iter_mut().enumerate() {
            stock.extend(t.pump().expect("loopback pump").into_iter().map(|(_, payload)| payload));
            for _ in 0..PER_ROUND {
                t.queue(((i + 1) % RING) as u32, stock.pop().expect("a payload per datagram"));
            }
        }
    };

    // Alternate short blocks of the two kernels and compare each live block
    // with the raw block beside it: the host's speed drifts by ±15 % over a
    // run, under both rows alike, and the median ratio sheds the spikes.
    let rounds = (iterations() / RING_BLOCKS).max(1);
    let block_mean = |hist: &Histogram, seen: &mut (f64, u64)| {
        let mean = (hist.sum() - seen.0) / (hist.count() - seen.1) as f64;
        *seen = (hist.sum(), hist.count());
        mean
    };
    let (mut raw_seen, mut live_seen) = ((0.0, 0), (0.0, 0));
    let mut over_raw = Vec::new();
    let mut hists = None;
    for _ in 0..RING_BLOCKS {
        let raw = time_kernel(registry, "udp_loopback_raw", rounds, &mut raw_round, || {});
        let live = time_kernel(registry, "live_transport", rounds, &mut live_round, || {});
        let (raw_us, live_us) =
            (block_mean(&raw, &mut raw_seen), block_mean(&live, &mut live_seen));
        over_raw.push((live_us / raw_us - 1.0) * 100.0);
        hists = Some((raw, live));
    }
    let (raw, live) = hists.expect("at least one block");
    over_raw.sort_by(f64::total_cmp);
    let lost = transports.iter().map(|t| t.stats()).any(|s| {
        s.queue_dropped + s.unroutable_dropped + s.malformed + s.truncated + s.heartbeats_sent > 0
    });
    assert!(!lost, "the ring dropped, rejected or added traffic");

    let datagrams = (RING * PER_ROUND) as f64;
    let row = |name: &str, hist: &Histogram, note: String| {
        format!(
            "{name:<28} p50 {:>9.2}us  p99 {:>9.2}us  per datagram sent and received{note}  \
             ({} rounds of {datagrams})",
            hist.quantile(0.5) / datagrams,
            hist.quantile(0.99) / datagrams,
            hist.count(),
        )
    };
    lines.push(row("udp_loopback_raw", &raw, String::new()));
    let median = over_raw[over_raw.len() / 2];
    lines.push(row("live_transport", &live, format!(", {median:+.1} % over raw")));
}

fn main() {
    run_experiment(
        "micro_kernels",
        "hot-kernel costs (sign/verify, IS, proxy schedule, checks)",
        || {
            let registry = Registry::new();
            let mut lines = Vec::new();

            let keys = Keypair::generate(1);
            let msg = vec![0xabu8; 88]; // a 700-bit state update
            let sig = keys.sign(&msg);
            lines.push(bench_kernel(&registry, "schnorr_sign_88B", || {
                black_box(keys.sign(black_box(&msg)));
            }));
            lines.push(bench_kernel(&registry, "schnorr_verify_88B", || {
                black_box(keys.public().verify(black_box(&msg), black_box(&sig)));
            }));

            // What a node pays per datagram: the roster already holds the
            // origin's prepared key; preparation is paid once per member.
            let prepared = VerifyingKey::new(keys.public());
            lines.push(bench_kernel(&registry, "schnorr_verify_prepared_88B", || {
                black_box(black_box(&prepared).verify(black_box(&msg), black_box(&sig)));
            }));
            lines.push(bench_kernel(&registry, "schnorr_prepare_key", || {
                black_box(VerifyingKey::new(black_box(keys.public())));
            }));
            // 81 bytes is the modal signed state-update body; with a
            // signature's hash prefix it still pads out to two blocks.
            let body = [0x5au8; 81];
            lines.push(bench_kernel(&registry, "sha256_2block", || {
                black_box(sha256(black_box(&body)));
            }));
            // Both compression paths side by side; on a CPU without the
            // SHA extensions the two rows read the same.
            lines.push(bench_compress(&registry, "sha256_compress_scalar", |state, blocks| {
                for block in blocks {
                    sha256_compress_scalar(state, block);
                }
            }));
            lines.push(bench_compress(&registry, "sha256_compress_dispatched", sha256_compress));

            // The store's checksum: the bit-at-a-time definition on
            // 1 KiB (so microseconds read as us/KiB), then the two
            // kernels it is the reference for.
            let kb = [0x5au8; 1024];
            lines.push(bench_kernel(&registry, "crc32_bitwise_1KB", || {
                black_box(crc32_bitwise(black_box(&kb)));
            }));
            bench_crc32(&registry, &mut lines);
            bench_snapshot_kernels(&registry, &mut lines);
            for (name, batch) in
                [("note_outcome_b16", 16), ("note_outcome_b256", 256), ("note_outcome_b4096", 4096)]
            {
                lines.push(bench_note_outcome(&registry, name, batch));
            }

            // The live transport's whole overhead is the gap between
            // these two rows.
            bench_udp_ring(&registry, &mut lines);

            let w = standard_workload(48, 7, 10);
            let states = &w.trace.frames[9].states;
            let config = WatchmenConfig::default();
            lines.push(bench_kernel(&registry, "compute_sets_48p", || {
                black_box(compute_sets(
                    black_box(PlayerId(0)),
                    states,
                    &w.map,
                    &config,
                    &NoRecency,
                ));
            }));

            let schedule = ProxySchedule::new(42, 48, 40);
            lines.push(bench_kernel(&registry, "proxy_of_48p", || {
                black_box(schedule.proxy_of(black_box(PlayerId(17)), black_box(4321)));
            }));
            lines.push(bench_kernel(&registry, "clients_of_48p", || {
                black_box(schedule.clients_of(black_box(PlayerId(17)), black_box(4321)));
            }));

            let wv = standard_workload(16, 7, 40);
            let verifier = Verifier::new(config, PhysicsConfig::default());
            let prev = wv.trace.frames[30].states[3].position;
            let next = wv.trace.frames[31].states[3].position;
            lines.push(bench_kernel(&registry, "check_position", || {
                black_box(verifier.check_position(black_box(prev), black_box(next), 1, &wv.map));
            }));

            // Flight-recorder hot path: one record() call is the entire
            // per-message tracing overhead a node pays.
            let recorder = FlightRecorder::new(4096);
            let mut seq = 0u64;
            lines.push(bench_kernel(&registry, "recorder_record", || {
                seq += 1;
                recorder.record(black_box(TraceEvent::point(
                    TraceId::from_origin_seq(3, seq),
                    0,
                    3,
                    seq,
                    Phase::Publish,
                    EventKind::Send,
                    "state",
                    88,
                )));
            }));

            // The realistic per-message hot path — signature verify plus
            // the physics check — with and without tracing. The delta
            // between the two is the recorder's overhead on message
            // handling (the budget is < 5%).
            lines.push(bench_kernel(&registry, "handle_state", || {
                black_box(prepared.verify(black_box(&msg), black_box(&sig)));
                black_box(verifier.check_position(black_box(prev), black_box(next), 1, &wv.map));
            }));
            let mut tseq = 0u64;
            lines.push(bench_kernel(&registry, "handle_state_traced", || {
                black_box(prepared.verify(black_box(&msg), black_box(&sig)));
                let score = verifier.check_position(black_box(prev), black_box(next), 1, &wv.map);
                tseq += 1;
                recorder.record(TraceEvent::point(
                    TraceId::from_origin_seq(3, tseq),
                    0,
                    3,
                    tseq,
                    Phase::Verify,
                    EventKind::Verdict,
                    "position",
                    i64::from(score),
                ));
                black_box(score);
            }));

            lines.join("\n")
        },
    );
}
