//! End-to-end exercises of the sans-io [`ProtocolCore`] under both
//! transports the one deliver-then-tick loop ([`Cluster`]) steps over:
//!
//! * a clean 8 ms simnet, asserting protocol liveness and zero false
//!   verdicts on an honest match;
//! * [`LiveTransport`]s over *real* loopback UDP sockets, one
//!   single-seat cluster each — what `examples/live_cluster.rs` runs
//!   across OS processes — detecting a scripted speed-hacker with zero
//!   false verdicts.

use watchmen::core::sans_io::{secured_cores, ProtocolCore};
use watchmen::core::WatchmenConfig;
use watchmen::crypto::schnorr::{Keypair, PublicKey};
use watchmen::net::live::LiveTransport;
use watchmen::net::{latency, SimNetwork, Transport};
use watchmen::sim::cluster::{Cluster, Verdicts};
use watchmen::sim::workload::{match_workload, speed_hack, Workload};

fn build_cores(players: usize, seed: u64, workload: &Workload) -> Vec<ProtocolCore> {
    let keys: Vec<Keypair> = (0..players).map(|i| Keypair::generate(seed ^ i as u64)).collect();
    let directory: Vec<PublicKey> = keys.iter().map(Keypair::public).collect();
    secured_cores(&keys, &directory, None, seed, WatchmenConfig::default(), &workload.map).collect()
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
    let mut verdicts = Verdicts::new(&[]);
    for f in 0..FRAMES {
        cluster.step(
            f,
            |i| workload.trace.frames[f as usize].states[i],
            |_, out| verdicts.note(&out.events),
        );
    }

    assert_eq!(verdicts.false_verdicts, 0, "honest match must produce zero verdicts");
    let cores = cluster.cores.iter().flatten();
    let acks: u64 = cores.clone().map(|c| c.node().control_stats().acks_received).sum();
    assert!(acks > 0, "control plane never acked anything");
    for c in cores {
        assert_eq!(c.node().control_stats().abandoned, 0, "control chains were abandoned");
    }
}

/// The live driver in-process: four single-seat clusters, each on its
/// own `LiveTransport` over a real loopback UDP socket, carry the
/// identical core, and the cheater's proxy — reached only through the
/// kernel's UDP stack — convicts it.
#[test]
fn live_transports_carry_the_core_and_catch_a_cheater() {
    const PLAYERS: usize = 4;
    const FRAMES: u64 = 160;
    const DRAIN: u64 = 40;
    const CHEATER: u32 = 1;
    let workload = match_workload(PLAYERS, 0xbeef, FRAMES);
    let frame_ms = WatchmenConfig::default().frame_ms;

    let mut clusters: Vec<Cluster<LiveTransport>> = build_cores(PLAYERS, 0xbeef, &workload)
        .into_iter()
        .enumerate()
        .map(|(i, core)| {
            let transport = LiveTransport::bind(i as u32, "127.0.0.1:0").expect("bind loopback");
            let mut cluster = Cluster::new([], transport, frame_ms);
            cluster.cores[i] = Some(core);
            cluster
        })
        .collect();
    let addrs: Vec<_> = clusters.iter().map(|c| c.net.local_addr().unwrap()).collect();
    for (i, c) in clusters.iter_mut().enumerate() {
        for (j, addr) in addrs.iter().enumerate().filter(|&(j, _)| j != i) {
            c.net.register_peer(j as u32, *addr);
        }
    }

    // Stepped in index order. Loopback delivery is synchronous, so one
    // more flush on every transport after the frame's steps drains that
    // frame's sends from every peer; the carry hands them over in the
    // next frame's step, and the last ones in the final delivery.
    let mut verdicts = Verdicts::new(&[CHEATER]);
    let mut handed = 0;
    for f in 0..FRAMES + DRAIN {
        for c in &mut clusters {
            handed += c.step(
                f,
                |i| {
                    let mut state =
                        workload.trace.frames[(f as usize).min(FRAMES as usize - 1)].states[i];
                    if i as u32 == CHEATER && f < FRAMES {
                        speed_hack(&mut state, f);
                    }
                    state
                },
                |_, out| verdicts.note(&out.events),
            );
        }
        for c in &mut clusters {
            c.net.flush();
        }
    }
    let end_ms = (FRAMES + DRAIN) as f64 * frame_ms;
    for c in &mut clusters {
        handed += c.deliver_until(FRAMES + DRAIN, end_ms, |_, out| verdicts.note(&out.events));
    }

    let received: u64 = clusters.iter().map(|c| c.net.stats().frames_in).sum();
    assert_eq!(handed as u64, received, "a drained payload frame never reached its core");
    assert!(verdicts.detected(), "the speed-hacker was never convicted over live UDP");
    assert_eq!(verdicts.false_verdicts, 0, "honest players were flagged over live UDP");
    for c in &clusters {
        let s = c.net.stats();
        assert_eq!(s.malformed + s.truncated, 0, "wire corruption on loopback");
        assert!(s.frames_in > 0, "a transport never received payload frames");
    }
}
