//! Microbenchmarks of the architecture's hot kernels: signature
//! sign/verify, subscription-set computation, proxy schedule evaluation
//! and the verification suite.
//!
//! Each kernel is timed into a [`watchmen_telemetry::Histogram`], so the
//! reported p50/p99 come from the same quantile machinery the runtime
//! instrumentation uses.

use std::hint::black_box;
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
use watchmen_sim::workload::standard_workload;
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

/// Times `body` `iters` times into a per-kernel histogram (microseconds).
fn time_kernel(registry: &Registry, name: &'static str, mut body: impl FnMut()) -> Arc<Histogram> {
    let hist = registry.histogram_with("kernel_duration_us", &[("kernel", name)]);
    // Warm up caches and branch predictors outside the measurement.
    for _ in 0..8 {
        body();
    }
    for _ in 0..iterations() {
        let start = Instant::now();
        body();
        hist.record(start.elapsed().as_secs_f64() * 1e6);
    }
    hist
}

/// Times `body` and renders one summary line (all figures in
/// microseconds).
fn bench_kernel(registry: &Registry, name: &'static str, body: impl FnMut()) -> String {
    let hist = time_kernel(registry, name, body);
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
    let hist = time_kernel(registry, name, || compress(black_box(&mut state), black_box(&blocks)));
    let per_block = |us: f64| us * 1e3 / blocks.len() as f64;
    format!(
        "{name:<28} p50 {:>9.1}ns  p99 {:>9.1}ns  per 64-byte block  ({} x {} blocks)",
        per_block(hist.quantile(0.5)),
        per_block(hist.quantile(0.99)),
        hist.count(),
        blocks.len(),
    )
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
