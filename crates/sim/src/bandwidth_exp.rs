//! Scalability: per-player bandwidth versus game size.
//!
//! Section II gives the centralized reference ("average bandwidth
//! requirements in centralized Quake III is 12·n kbps where n is the
//! number of players") and Section VI argues Watchmen's proxy scheme keeps
//! per-player cost bounded and fair. This sweep replays growing player
//! counts under each architecture and reports per-node upload/download.

use watchmen_core::WatchmenConfig;
use watchmen_net::latency;

use crate::overlay::{run_client_server, run_donnybrook, run_watchmen, OverlayReport};
use crate::report::render_table;
use crate::workload::standard_workload;

/// One sweep point.
#[derive(Debug)]
pub struct BandwidthRow {
    /// Player count.
    pub players: usize,
    /// Architecture name.
    pub architecture: &'static str,
    /// Mean per-player upload (kbps).
    pub mean_up_kbps: f64,
    /// Max per-player upload (kbps).
    pub max_up_kbps: f64,
    /// Mean per-player download (kbps).
    pub mean_down_kbps: f64,
    /// Server upload (kbps; 0 for P2P architectures).
    pub server_up_kbps: f64,
    /// The paper's centralized server reference `12·n` kbps.
    pub centralized_reference_kbps: f64,
}

fn row_from(report: &OverlayReport, players: usize) -> BandwidthRow {
    BandwidthRow {
        players,
        architecture: report.architecture,
        mean_up_kbps: report.mean_up_kbps,
        max_up_kbps: report.max_up_kbps,
        mean_down_kbps: report.mean_down_kbps,
        server_up_kbps: report.server_up_kbps,
        centralized_reference_kbps: 12.0 * players as f64,
    }
}

/// Runs the sweep: for each player count, replays `frames` frames under
/// the three architectures over a constant-latency network (bandwidth is
/// latency-independent).
#[must_use]
pub fn run_bandwidth_sweep(
    player_counts: &[usize],
    frames: u64,
    config: &WatchmenConfig,
    seed: u64,
) -> Vec<BandwidthRow> {
    let mut rows = Vec::new();
    for &n in player_counts {
        let w = standard_workload(n, seed ^ n as u64, frames);
        let wm = run_watchmen(&w.trace, &w.map, config, latency::constant(30.0), 0.0, seed);
        let db = run_donnybrook(&w.trace, &w.map, config, latency::constant(30.0), 0.0, seed);
        let cs = run_client_server(&w.trace, &w.map, config, latency::constant(30.0), 0.0, seed);
        rows.push(row_from(&wm, n));
        rows.push(row_from(&db, n));
        rows.push(row_from(&cs, n));
    }
    rows
}

/// Renders the sweep.
#[must_use]
pub fn format_bandwidth(rows: &[BandwidthRow]) -> String {
    let header = [
        "players",
        "architecture",
        "mean up (kbps)",
        "max up (kbps)",
        "mean down (kbps)",
        "server up (kbps)",
        "central ref 12n",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.players.to_string(),
                r.architecture.to_owned(),
                format!("{:.1}", r.mean_up_kbps),
                format!("{:.1}", r.max_up_kbps),
                format!("{:.1}", r.mean_down_kbps),
                format!("{:.1}", r.server_up_kbps),
                format!("{:.1}", r.centralized_reference_kbps),
            ]
        })
        .collect();
    render_table(&header, &body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlay::state_len;

    fn sweep() -> Vec<BandwidthRow> {
        run_bandwidth_sweep(&[8, 16], 120, &WatchmenConfig::default(), 3)
    }

    #[test]
    fn three_rows_per_count() {
        let rows = sweep();
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|r| r.mean_up_kbps > 0.0));
    }

    #[test]
    fn client_server_concentrates_load_on_server() {
        let rows = sweep();
        let cs16 =
            rows.iter().find(|r| r.architecture == "client-server" && r.players == 16).unwrap();
        // The server uploads far more than any client.
        assert!(cs16.server_up_kbps > cs16.mean_up_kbps * 4.0);
        // P2P architectures have no server.
        let wm16 = rows.iter().find(|r| r.architecture == "watchmen" && r.players == 16).unwrap();
        assert_eq!(wm16.server_up_kbps, 0.0);
    }

    #[test]
    fn watchmen_stays_below_full_mesh_frequent_updates() {
        // The multi-resolution scheme must beat the naive P2P baseline
        // where every player streams one signed state to every other
        // player at 20 Hz.
        let rows = sweep();
        let state_bits =
            state_len(&standard_workload(2, 3, 1).trace.frames[0].states[0]) as f64 * 8.0;
        for n in [8usize, 16] {
            let wm = rows.iter().find(|r| r.architecture == "watchmen" && r.players == n).unwrap();
            let mesh_kbps = state_bits * (n as f64 - 1.0) * 20.0 / 1000.0;
            assert!(
                wm.mean_up_kbps < mesh_kbps * 0.8,
                "{n}p: watchmen {} vs mesh {mesh_kbps}",
                wm.mean_up_kbps
            );
        }
    }

    /// The paper's scaling claims, from the shipped node: quadrupling the
    /// game less than quadruples a Watchmen player's upload, which stays
    /// above Donnybrook's (the price of verifying proxies), while the
    /// client/server's server upload grows faster than the game.
    #[test]
    fn scaling_shapes_hold() {
        let rows = run_bandwidth_sweep(&[8, 32], 100, &WatchmenConfig::default(), 42);
        let row = |arch: &str, n: usize| {
            rows.iter().find(|r| r.architecture == arch && r.players == n).unwrap()
        };
        let (wm8, wm32) = (row("watchmen", 8), row("watchmen", 32));
        assert!(wm32.mean_up_kbps < 4.0 * wm8.mean_up_kbps, "watchmen is not sub-linear");
        assert!(wm32.mean_up_kbps > row("donnybrook", 32).mean_up_kbps);
        let (cs8, cs32) = (row("client-server", 8), row("client-server", 32));
        assert!(cs32.server_up_kbps > 4.0 * cs8.server_up_kbps, "server is not super-linear");
    }

    #[test]
    fn formatting_contains_architectures() {
        let s = format_bandwidth(&sweep());
        assert!(s.contains("watchmen"));
        assert!(s.contains("donnybrook"));
        assert!(s.contains("client-server"));
    }
}
