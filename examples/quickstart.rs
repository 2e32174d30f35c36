//! Quickstart: a five-minute tour of the Watchmen public API.
//!
//! Runs a small bot deathmatch, records a trace, computes one player's
//! interest/vision sets, derives the verifiable proxy schedule, signs a
//! state update, and runs one verification check.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use watchmen::core::msg::{Envelope, Payload, StateUpdate};
use watchmen::core::proxy::ProxySchedule;
use watchmen::core::subscription::{compute_sets, NoRecency};
use watchmen::core::verify::Verifier;
use watchmen::core::WatchmenConfig;
use watchmen::crypto::schnorr::Keypair;
use watchmen::game::trace::GameTrace;
use watchmen::game::{GameConfig, PlayerId};
use watchmen::world::{maps, PhysicsConfig};

fn main() {
    // 1. Record a short 8-player deathmatch on the q3dm17-like map.
    let map = maps::q3dm17_like();
    let config = GameConfig { map: map.clone(), ..GameConfig::default() };
    let trace = GameTrace::record(config, 8, 42, 200);
    println!("recorded {} frames of an 8-player game on {}", trace.len(), map.name());

    // 2. The subscription model: partition everyone from player 0's view.
    let wm_config = WatchmenConfig::default();
    let states = &trace.frames[199].states;
    let sets = compute_sets(PlayerId(0), states, &map, &wm_config, &NoRecency);
    println!(
        "player p0 sees: IS = {:?}, VS = {:?}, {} others",
        sets.interest,
        sets.vision,
        sets.others.len()
    );

    // 3. The verifiable proxy schedule: every node computes the same
    // assignment from the shared seed, with no communication.
    let schedule = ProxySchedule::new(42, 8, wm_config.proxy_period);
    let frame = 199;
    println!(
        "at frame {frame}, p0's proxy is {} (next epoch: {})",
        schedule.proxy_of(PlayerId(0), frame),
        schedule.proxy_of(PlayerId(0), schedule.next_renewal(frame))
    );

    // 4. Lightweight signatures on wire messages.
    let keys = Keypair::generate(0xD00D);
    let update = Envelope {
        from: PlayerId(0),
        seq: 1,
        frame,
        payload: Payload::State(StateUpdate::from(&states[0])),
    };
    let signed = update.sign(&keys);
    println!(
        "signed state update: {} bytes total ({} payload + 16 signature), verifies: {}",
        signed.wire_size(),
        update.wire_size(),
        signed.verify(&keys.public())
    );

    // 5. A sanity check: is a 20-unit single-frame move legal?
    let verifier = Verifier::new(wm_config, PhysicsConfig::default());
    let prev = states[0].position;
    let teleport = prev + watchmen::math::Vec3::new(20.0, 0.0, 0.0);
    let score = verifier.check_position(prev, teleport, 1, &map);
    println!("teleporting 20 units in one frame rates {score}/10 (10 = certainly cheating)");

    // WATCHMEN_TELEMETRY=prom|json dumps everything the run recorded.
    watchmen::telemetry::dump_from_env("quickstart");
}
