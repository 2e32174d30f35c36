//! Layers that are only reachable inside `ProtocolCore::datagram` /
//! `tick`, measured through their own public functions: the wire bytes a
//! traced match carried are replayed through the codec and the signature
//! scheme, and the stateless kernels run on frame states generated from
//! the seed. Cost per call here × the run's exact call counts is what the
//! `attrib.*` shares are built from.

use std::hint::black_box;

use watchmen::core::msg::SignedEnvelope;
use watchmen::core::proxy::ProxySchedule;
use watchmen::core::subscription::{compute_sets, NoRecency};
use watchmen::core::verify::Verifier;
use watchmen::core::WatchmenConfig;
use watchmen::crypto::schnorr::Keypair;
use watchmen::crypto::sha256;
use watchmen::game::PlayerId;
use watchmen::net::udp::{encode_frame, parse_frame};
use watchmen::sim::workload::{match_workload, standard_workload};
use watchmen::telemetry::trace::{EventKind, Phase, TraceEvent, TraceId};
use watchmen::telemetry::{FlightRecorder, Histogram};
use watchmen::world::PhysicsConfig;

use crate::matches::Corpus;
use crate::report::Report;
use crate::stats::{per_call_ns, Samples};

/// Calls per timed batch: short enough that an interruption spoils one
/// batch, long enough that the clock reads vanish.
const BATCH: usize = 256;

/// Codec and signature costs on the captured corpus.
pub fn replay_corpus(report: &mut Report, corpus: &Corpus) {
    let n = corpus.datagrams.len();
    if n == 0 {
        return;
    }
    let decoded: Vec<(SignedEnvelope, &Keypair)> = corpus
        .datagrams
        .iter()
        .map(|(bytes, origin)| {
            (
                SignedEnvelope::decode(bytes).expect("corpus holds decodable datagrams"),
                &corpus.keys[*origin as usize],
            )
        })
        .collect();

    let decode = per_call_ns(n, BATCH, |i| {
        black_box(SignedEnvelope::decode(black_box(&corpus.datagrams[i].0)).is_ok());
    });
    let verify = per_call_ns(n, BATCH, |i| {
        let (msg, keys) = &decoded[i];
        black_box(black_box(msg).verify(&keys.public()));
    });
    let sign = per_call_ns(n, BATCH, |i| {
        let (msg, keys) = &decoded[i];
        black_box(black_box(msg.envelope).sign(keys));
    });
    let encode = per_call_ns(n, BATCH, |i| {
        black_box(black_box(&decoded[i].0).encode());
    });
    report.set("core.msg.decode_us", decode / 1e3, n as u64);
    report.set("crypto.schnorr.verify_us", verify / 1e3, n as u64);
    report.set("crypto.schnorr.sign_us", sign / 1e3, n as u64);
    report.set("core.msg.encode_us", encode / 1e3, n as u64);

    let framed: Vec<Vec<u8>> =
        corpus.datagrams.iter().map(|(bytes, origin)| encode_frame(*origin, bytes)).collect();
    let enc_frame = per_call_ns(n, BATCH, |i| {
        black_box(encode_frame(7, black_box(&corpus.datagrams[i].0)));
    });
    let parse = per_call_ns(n, BATCH, |i| {
        black_box(parse_frame(black_box(&framed[i])));
    });
    report.set("net.udp.encode_frame_us", enc_frame / 1e3, n as u64);
    report.set("net.udp.parse_frame_us", parse / 1e3, n as u64);
}

/// The stateless kernels, on inputs generated from `seed`.
pub fn stateless(report: &mut Report, seed: u64) {
    const CALLS: usize = 4096;
    let config = WatchmenConfig::default();

    let kb = vec![0xabu8; 1024];
    let sha = per_call_ns(CALLS, 64, |_| {
        black_box(sha256(black_box(&kb)));
    });
    report.set("crypto.sha256.us_per_kb", sha / 1e3, CALLS as u64);

    let w16 = match_workload(16, seed, 64);
    let w48 = standard_workload(48, seed, 64);
    for (name, w) in [
        ("core.subscription.compute_sets_us.16p", &w16),
        ("core.subscription.compute_sets_us.48p", &w48),
    ] {
        let players = w.players();
        let ns = per_call_ns(CALLS, 64, |i| {
            let states = &w.trace.frames[i % 64].states;
            black_box(compute_sets(
                PlayerId((i % players) as u32),
                states,
                &w.map,
                &config,
                &NoRecency,
            ));
        });
        report.set(name, ns / 1e3, CALLS as u64);
    }

    let schedule = ProxySchedule::new(seed, 48, config.proxy_period);
    let proxy_of = per_call_ns(CALLS, BATCH, |i| {
        black_box(schedule.proxy_of(PlayerId((i % 48) as u32), black_box(4321 + i as u64)));
    });
    let clients_of = per_call_ns(CALLS, BATCH, |i| {
        black_box(schedule.clients_of(PlayerId((i % 48) as u32), black_box(4321 + i as u64)));
    });
    report.set("core.proxy.proxy_of_us", proxy_of / 1e3, CALLS as u64);
    report.set("core.proxy.clients_of_us", clients_of / 1e3, CALLS as u64);

    let verifier = Verifier::new(config, PhysicsConfig::default());
    let check = per_call_ns(CALLS, BATCH, |i| {
        let f = i % 63;
        let p = i % 16;
        let prev = w16.trace.frames[f].states[p].position;
        let next = w16.trace.frames[f + 1].states[p].position;
        black_box(verifier.check_position(prev, next, 1, &w16.map));
    });
    report.set("core.verify.check_position_us", check / 1e3, CALLS as u64);

    let hist = Histogram::new();
    let rec = per_call_ns(1 << 16, 1024, |i| hist.record(0.2 + (i % 97) as f64 * 0.001));
    report.set("telemetry.histogram.record_ns", rec, 1 << 16);

    let recorder = FlightRecorder::new(128);
    let rec = per_call_ns(1 << 16, 1024, |i| {
        recorder.record(black_box(TraceEvent::point(
            TraceId::from_origin_seq(3, i as u64),
            0,
            3,
            i as u64,
            Phase::Publish,
            EventKind::Send,
            "state",
            88,
        )));
    });
    report.set("telemetry.recorder.record_ns", rec, 1 << 16);
}

/// Feeds exact per-frame samples into the program's log-linear histogram
/// and compares its p99 with the exact one: how much of an "identical
/// p99" can the bucketing explain?
pub fn histogram_fidelity(report: &mut Report, ticks: &Samples) {
    if ticks.is_empty() {
        return;
    }
    let hist = Histogram::new();
    for &ns in ticks.as_slice() {
        hist.record(ns as f64 / 1e6);
    }
    let exact = ticks.percentile_ms(99.0);
    let bucketed = hist.quantile(0.99);
    report.set(
        "telemetry.histogram.p99_rel_err",
        (bucketed - exact).abs() / exact,
        ticks.len() as u64,
    );

    // The bucket the p99 falls in: first non-empty bucket whose cumulative
    // count reaches the rank. Widths follow from the documented layout —
    // values in thousandths, 32 linear sub-buckets per power of two.
    let rank = (0.99 * hist.count() as f64).ceil() as u64;
    let mut seen = 0;
    for (upper, n) in hist.nonzero_buckets() {
        seen += n;
        if seen >= rank {
            let upper_scaled = (upper * 1000.0).round() as u64;
            let mut width = 1u64;
            while upper_scaled / width > 64 {
                width *= 2;
            }
            report.set("telemetry.histogram.p99_bucket_width_ms", width as f64 / 1000.0, 0);
            break;
        }
    }
}
