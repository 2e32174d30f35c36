//! A full match through the lobby: players register their keys, the lobby
//! freezes the roster into the shared seed + directory, every player runs
//! a [`watchmen::core::node::WatchmenNode`], proxy-side verification
//! reports flow back to the lobby's reputation system, and a speed-hacking
//! player gets banned mid-match.
//!
//! ```sh
//! cargo run --release --example lobby_match
//! ```

use watchmen::core::lobby::{GameLobby, LobbyEvent};
use watchmen::core::node::NodeEvent;
use watchmen::core::sans_io::secured_cores;
use watchmen::core::WatchmenConfig;
use watchmen::crypto::schnorr::Keypair;
use watchmen::game::trace::standard_trace;
use watchmen::game::PlayerId;
use watchmen::net::{latency, SimNetwork};
use watchmen::sim::cluster::Cluster;
use watchmen::sim::workload::speed_hack;
use watchmen::world::maps;

const PLAYERS: usize = 10;
const CHEATER: u32 = 4;
const FRAMES: u64 = 600;

fn main() {
    let config = WatchmenConfig::default();
    let seed = 0x10bb7;

    // --- Lobby phase: everyone registers a key; the roster freezes.
    let mut lobby = GameLobby::new(seed, config, 100);
    let keys: Vec<Keypair> = (0..PLAYERS).map(|i| Keypair::generate(seed ^ i as u64)).collect();
    for k in &keys {
        lobby.register(k.public());
    }
    lobby.start();
    println!("lobby: {} players registered, roster frozen, seed {seed:#x}", lobby.players());

    // --- Match phase: one node per player over an 8 ms simnet.
    let map = maps::q3dm17_like();
    let mut cluster = Cluster::new(
        secured_cores(&keys, lobby.directory(), None, seed, config, &map),
        SimNetwork::new(PLAYERS, latency::constant(8.0), 0.0, seed),
        config.frame_ms,
    );
    let trace = standard_trace(PLAYERS, seed, FRAMES);

    let mut banned_frame: Option<u64> = None;
    for frame in 0..FRAMES {
        cluster.step(
            frame,
            |i| {
                let mut state = trace.frames[frame as usize].states[i];
                // The cheater falsifies some of its positions.
                if i as u32 == CHEATER {
                    speed_hack(&mut state, frame);
                }
                state
            },
            |i, output| {
                let observer = PlayerId(i as u32);
                for e in &output.events {
                    // Proxy reports and epoch summaries (clean or not)
                    // flow to the lobby's reputation system.
                    if let NodeEvent::Suspicion { subject, rating, check } = e {
                        lobby.report(observer, *subject, rating);
                        if rating.score >= 8 {
                            println!(
                                "frame {frame:3}: {observer} flags {subject} ({check}, {rating})"
                            );
                        }
                    }
                }
            },
        );
        for i in 0..PLAYERS {
            lobby.heartbeat(PlayerId(i as u32), frame);
        }
        for event in lobby.tick(frame) {
            match event {
                LobbyEvent::Banned(p) => {
                    println!(
                        "frame {frame:3}: lobby BANS {p} (suspicion {:.2})",
                        lobby.suspicion(p)
                    );
                    banned_frame.get_or_insert(frame);
                }
                LobbyEvent::Disconnected(p) => {
                    println!("frame {frame:3}: lobby drops {p} (timeout)");
                }
            }
        }
        if banned_frame.is_some() {
            break;
        }
    }

    // Everyone heartbeats every frame, so only a ban ends good standing.
    println!("\nfinal standings:");
    let active = lobby.active_players();
    for i in 0..PLAYERS {
        let pid = PlayerId(i as u32);
        println!(
            "  {pid:>3} {:<12} suspicion {:.3}{}",
            if active.contains(&pid) { "active" } else { "banned" },
            lobby.suspicion(pid),
            if pid.0 == CHEATER { "  ← the cheater" } else { "" }
        );
    }
    match banned_frame {
        Some(f) => println!("\ncheater banned after {f} frames ({:.1} s of play)", f as f64 * 0.05),
        None => println!("\ncheater escaped detection (unexpected!)"),
    }
}
