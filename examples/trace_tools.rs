//! Trace tooling: record a deathmatch, persist it to disk in the compact
//! binary format, reload it, and analyze it — the workflow of the paper's
//! tracing module + replay engine ("a tracing module … records in a trace
//! file all important game information").
//!
//! ```sh
//! cargo run --release --example trace_tools [players] [frames] [path]
//! ```

use watchmen::game::heatmap::Heatmap;
use watchmen::game::trace::GameTrace;
use watchmen::game::{GameConfig, GameEvent};
use watchmen::world::maps;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1).inspect(|a| {
        if a.parse::<u64>().is_err() && !a.contains('/') && !a.contains('.') {
            eprintln!("warning: ignoring unparseable argument {a:?}, using the default");
        }
    });
    let players: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(16);
    let frames: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(1200);
    let path = args.next().unwrap_or_else(|| {
        std::env::temp_dir().join("watchmen-demo.trace").to_string_lossy().into_owned()
    });

    // Record.
    let map = maps::q3dm17_like();
    let config = GameConfig { map: map.clone(), ..GameConfig::default() };
    println!("recording {players}-player, {frames}-frame deathmatch…");
    let trace = GameTrace::record(config, players, 1337, frames);

    // Persist.
    let bytes = trace.to_bytes();
    std::fs::write(&path, &bytes)?;
    println!(
        "wrote {path}: {} bytes ({:.1} bytes/player/frame)",
        bytes.len(),
        bytes.len() as f64 / (players as f64 * frames as f64)
    );

    // Reload and verify integrity.
    let restored = GameTrace::from_bytes(&std::fs::read(&path)?)?;
    assert_eq!(restored, trace, "trace roundtrip mismatch");
    println!("reloaded and verified byte-exact roundtrip");

    // Analyze: event counts off the frames, heatmap for presence.
    let (mut kills, mut shots, mut pickups) = (0u64, 0u64, 0u64);
    for e in restored.frames.iter().flat_map(|f| &f.events) {
        match e {
            GameEvent::Kill { .. } => kills += 1,
            GameEvent::Shot { .. } => shots += 1,
            GameEvent::Pickup { .. } => pickups += 1,
            _ => {}
        }
    }
    println!("replay: {shots} shots, {kills} kills, {pickups} pickups");
    let heat = Heatmap::from_trace(&map, &restored);
    println!(
        "presence: {} samples, top-decile share {:.0}%, gini {:.2}",
        heat.total(),
        heat.top_share(0.1) * 100.0,
        heat.gini()
    );
    std::fs::remove_file(&path).ok();
    Ok(())
}
