#![allow(clippy::needless_range_loop)] // cores/states are index-parallel

//! End-to-end exercises of the sans-io [`ProtocolCore`] under transports
//! the unit tests don't reach:
//!
//! * the shared deliver-then-tick loop ([`Cluster`]) over a clean 8 ms
//!   simnet, asserting protocol liveness and zero false verdicts on an
//!   honest match;
//! * an in-process cluster of [`LiveTransport`]s over *real* loopback
//!   UDP sockets — the same marriage `examples/live_cluster.rs` performs
//!   across OS processes — detecting a scripted speed-hacker with zero
//!   false verdicts.

use watchmen::core::node::NodeEvent;
use watchmen::core::sans_io::{secured_cores, CoreOutput, ProtocolCore};
use watchmen::core::WatchmenConfig;
use watchmen::crypto::schnorr::{Keypair, PublicKey};
use watchmen::game::PlayerId;
use watchmen::net::live::LiveTransport;
use watchmen::net::{latency, SimNetwork};
use watchmen::sim::cluster::Cluster;
use watchmen::sim::workload::{match_workload, speed_hack, Workload};

fn build_cores(players: usize, seed: u64, workload: &Workload) -> Vec<ProtocolCore> {
    let keys: Vec<Keypair> = (0..players).map(|i| Keypair::generate(seed ^ i as u64)).collect();
    let directory: Vec<PublicKey> = keys.iter().map(Keypair::public).collect();
    secured_cores(&keys, &directory, None, seed, WatchmenConfig::default(), &workload.map).collect()
}

fn count_verdicts(out: &CoreOutput, cheater: Option<u32>, severe: &mut u64, false_v: &mut u64) {
    for e in &out.events {
        if let NodeEvent::Suspicion { subject, rating, .. } = e {
            if rating.is_suspicious() {
                if Some(subject.0) == cheater {
                    *severe += 1;
                } else {
                    *false_v += 1;
                }
            }
        }
    }
}

/// An honest match over the shared simnet loop: the control plane makes
/// progress (acks flow, nothing is abandoned) and no honest player is
/// ever flagged.
#[test]
fn honest_match_over_bus_has_no_false_verdicts() {
    const PLAYERS: usize = 6;
    const FRAMES: u64 = 200;
    let workload = match_workload(PLAYERS, 0x5a11, FRAMES);
    let mut cluster = Cluster::new(
        build_cores(PLAYERS, 0x5a11, &workload),
        SimNetwork::new(PLAYERS, latency::constant(8.0), 0.0, 0x5a11),
        WatchmenConfig::default().frame_ms,
    );
    let (mut severe, mut false_v) = (0, 0);
    for f in 0..FRAMES {
        cluster.step(
            f,
            |i| workload.trace.frames[f as usize].states[i],
            |_, out| count_verdicts(out, None, &mut severe, &mut false_v),
        );
    }

    assert_eq!(severe + false_v, 0, "honest match must produce zero verdicts");
    let cores = cluster.cores.iter().flatten();
    let acks: u64 = cores.clone().map(|c| c.node().control_stats().acks_received).sum();
    assert!(acks > 0, "control plane never acked anything");
    for c in cores {
        assert_eq!(c.node().control_stats().abandoned, 0, "control chains were abandoned");
    }
}

/// The live-driver marriage in-process: four `LiveTransport`s on real
/// loopback UDP sockets carry the identical core, and the cheater's
/// proxy — reached only through the kernel's UDP stack — convicts it.
#[test]
fn live_transports_carry_the_core_and_catch_a_cheater() {
    const PLAYERS: usize = 4;
    const FRAMES: u64 = 160;
    const DRAIN: u64 = 40;
    const CHEATER: u32 = 1;
    let workload = match_workload(PLAYERS, 0xbeef, FRAMES);
    let mut cores = build_cores(PLAYERS, 0xbeef, &workload);

    let mut transports: Vec<LiveTransport> = (0..PLAYERS)
        .map(|i| LiveTransport::bind(i as u32, "127.0.0.1:0").expect("bind loopback"))
        .collect();
    let addrs: Vec<_> = transports.iter().map(|t| t.local_addr().unwrap()).collect();
    for i in 0..PLAYERS {
        for (j, addr) in addrs.iter().enumerate() {
            if i != j {
                transports[i].register_peer(j as u32, *addr);
            }
        }
    }

    let (mut severe, mut false_v) = (0, 0);
    for f in 0..FRAMES + DRAIN {
        for i in 0..PLAYERS {
            // Loopback delivery is synchronous, so each node sees the
            // previous frame's sends in this frame's pump.
            let inbound = transports[i].pump().expect("pump");
            for (sender, bytes) in inbound {
                let out = cores[i].datagram(f, PlayerId(sender), &bytes);
                count_verdicts(&out, Some(CHEATER), &mut severe, &mut false_v);
                for o in out.datagrams {
                    transports[i].queue(o.to.0, o.bytes);
                }
            }
            let mut state = workload.trace.frames[(f as usize).min(FRAMES as usize - 1)].states[i];
            if i as u32 == CHEATER && f < FRAMES {
                speed_hack(&mut state, f);
            }
            let out = cores[i].tick(f, &state);
            count_verdicts(&out, Some(CHEATER), &mut severe, &mut false_v);
            for o in out.datagrams {
                transports[i].queue(o.to.0, o.bytes);
            }
            transports[i].pump().expect("flush");
        }
    }

    assert!(severe > 0, "the speed-hacker was never convicted over live UDP");
    assert_eq!(false_v, 0, "honest players were flagged over live UDP");
    for t in &transports {
        let s = t.stats();
        assert_eq!(s.malformed + s.truncated, 0, "wire corruption on loopback");
        assert!(s.frames_in > 0, "a transport never received payload frames");
    }
}
