//! One match as a schedulable unit.
//!
//! A [`MatchCell`] owns everything a single Watchmen match needs — its
//! recorded trace, a [`GameLobby`] and a [`Cluster`] of one secured
//! sans-io core per player on its own simnet — and shares **nothing**
//! with any other cell, so thousands of cells run in parallel without coordination and
//! a cell's outcome depends only on its [`MatchSpec`]. The cell
//! implements [`Task`]: each quantum advances the match by a bounded
//! number of frames, which lets the pool interleave long matches with
//! short ones instead of running each to completion.
//!
//! Cheating is scripted the same way the deathmatch example scripts it:
//! a cheater's reported position teleports sideways every fourth frame,
//! which the player's proxy flags as a severe physics violation. The
//! cell classifies the nodes' events with [`Verdicts`] against the
//! spec's cheater set: a severe verdict on a cheater is a detection, on
//! an honest player a **false verdict**.
//! Every suspicion report is also forwarded to the cell's lobby, whose
//! threshold reputation bans players that accumulate enough failed
//! interactions — long matches end with their cheaters banned. Each
//! quantum times its frames (`fleet_tick_ms`) and, through
//! [`Cluster::time_into`], every call into a core into the registry of
//! the shard running it. When the match drains, its nodes', simnet's and
//! verdicts' counters are published into the shard's registry, once.

use std::time::Instant;

use watchmen_core::audit::AuditRecord;
use watchmen_core::lobby::{GameLobby, LobbyEvent};
use watchmen_core::node::NodeEvent;
use watchmen_core::sans_io::{secured_cores, ProtocolCore};
use watchmen_core::verify::checks;
use watchmen_core::WatchmenConfig;
use watchmen_crypto::schnorr::Keypair;
use watchmen_game::trace::GameTrace;
use watchmen_game::PlayerId;
use watchmen_net::{latency, SimNetwork};
use watchmen_sim::cluster::{Cluster, Verdicts};
use watchmen_sim::quality::{evaluate, DetectionQuality, GroundTruth, UNDETECTED};
use watchmen_sim::workload::{match_workload, speed_hack, FIRST_CHEAT_FRAME};
use watchmen_telemetry::Registry;

use crate::pool::{Quantum, ShardContext, Task};

/// Simnet one-way latency for fleet matches, in milliseconds.
const LATENCY_MS: f64 = 8.0;

/// Everything that defines one match. Two cells built from equal specs
/// produce byte-identical [`MatchReport`]s regardless of which workers
/// run them or in what order — the property `tests/fleet_e2e.rs` pins.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchSpec {
    /// Fleet-assigned match id (also the report sort key).
    pub match_id: u64,
    /// One keypair seed per seat, in seat order: the match's identities,
    /// and its player count (≥ 3, since proxies supervise third parties).
    pub key_seeds: Vec<u64>,
    /// Playable frames; the cell drives these plus a short drain sweep.
    pub frames: u64,
    /// The match seed: workload, lobby key, simnet and proxy schedule all
    /// derive from it.
    pub seed: u64,
    /// Frames advanced per scheduler quantum (≥ 1).
    pub tick_quantum: u64,
    /// Players scripted to speed-hack (report teleported positions every
    /// fourth frame).
    pub cheaters: Vec<u32>,
    /// Panic deliberately at this frame — test hook for the pool's
    /// panic-isolation path.
    pub poison_at: Option<u64>,
    /// Collect the verdict audit stream and compute the detection-quality
    /// join (default on; turned off for the plane-overhead probe).
    pub observe: bool,
    /// Retain the audit stream as JSONL lines in the report (default
    /// off — a 160-frame match emits thousands of records).
    pub audit: bool,
}

impl MatchSpec {
    /// An honest `players`-bot match of `frames` frames, seat `i` keyed
    /// by `seed ^ i`.
    #[must_use]
    pub fn new(match_id: u64, players: usize, frames: u64, seed: u64) -> Self {
        MatchSpec {
            match_id,
            key_seeds: (0..players as u64).map(|i| seed ^ i).collect(),
            frames,
            seed,
            tick_quantum: 16,
            cheaters: Vec::new(),
            poison_at: None,
            observe: true,
            audit: false,
        }
    }

    /// Players in the match.
    #[must_use]
    pub fn players(&self) -> usize {
        self.key_seeds.len()
    }

    /// Scripts `player` as a speed-hacker.
    #[must_use]
    pub fn with_cheater(mut self, player: u32) -> Self {
        self.cheaters.push(player);
        self
    }

    /// Sets the frames-per-quantum granularity.
    #[must_use]
    pub fn with_tick_quantum(mut self, tick_quantum: u64) -> Self {
        self.tick_quantum = tick_quantum.max(1);
        self
    }

    /// Scripts a panic at `frame` (see [`MatchSpec::poison_at`]).
    #[must_use]
    pub fn poisoned_at(mut self, frame: u64) -> Self {
        self.poison_at = Some(frame);
        self
    }
}

/// What one finished match reports back to the fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchReport {
    /// The spec's match id.
    pub match_id: u64,
    /// Players in the match.
    pub players: usize,
    /// Playable frames driven.
    pub frames: u64,
    /// How many players were scripted cheaters.
    pub cheaters: usize,
    /// Whether every scripted cheater drew at least one severe verdict.
    pub detected: bool,
    /// Severe verdicts against scripted cheaters.
    pub severe_verdicts: u64,
    /// Severe verdicts against honest players — the fleet-wide gate
    /// asserts this is zero.
    pub false_verdicts: u64,
    /// Envelope signature failures observed.
    pub bad_signatures: u64,
    /// Players the lobby's reputation system banned.
    pub banned: u64,
    /// The lobby's `(identity, acceptable, failed)` interaction outcomes,
    /// one per seat in seat order — what the durable reputation store
    /// folds in at match end.
    pub outcomes: Vec<(u64, u64, u64)>,
    /// Messages the cell's simnet delivered.
    pub messages: u64,
    /// Audit records the match emitted (0 when observability is off).
    pub audit_records: u64,
    /// The detection-quality join against the spec's ground truth
    /// (empty/default when observability is off).
    pub quality: DetectionQuality,
    /// The audit stream as JSONL lines, each prefixed with the match id
    /// (empty unless [`MatchSpec::audit`] is set).
    pub audit_lines: Vec<String>,
}

impl MatchReport {
    /// The report as one deterministic line — the unit the
    /// cross-worker-count determinism test compares byte-for-byte.
    /// Wall-clock never appears here.
    #[must_use]
    pub fn summary_line(&self) -> String {
        // The worst time-to-detect across this match's cheaters: `-`
        // when there is nothing to detect (or the plane is off),
        // `never` when a cheater escaped every check.
        let ttd = match self.quality.ttd_frames.iter().max() {
            None => "-".to_owned(),
            Some(&UNDETECTED) => "never".to_owned(),
            Some(&frames) => frames.to_string(),
        };
        format!(
            "match {id}: players={p} frames={f} cheaters={c} detected={d} severe={s} \
             false_verdicts={fv} bad_signatures={bs} banned={b} messages={m} ttd={ttd} \
             audit={a}",
            id = self.match_id,
            p = self.players,
            f = self.frames,
            c = self.cheaters,
            d = u64::from(self.detected),
            s = self.severe_verdicts,
            fv = self.false_verdicts,
            bs = self.bad_signatures,
            b = self.banned,
            m = self.messages,
            a = self.audit_records,
        )
    }
}

/// The live state of a running match, built lazily on the cell's first
/// quantum so a 10k-match fleet only materialises the cells currently in
/// flight.
struct Running {
    cluster: Cluster,
    lobby: GameLobby,
    trace: GameTrace,
    frame: u64,
    verdicts: Verdicts,
    banned: u64,
    /// The match's audit stream, drained from every emitter each frame
    /// in a deterministic order (nodes by index, then the lobby).
    audit: Vec<AuditRecord>,
}

/// One match, schedulable on the fleet pool. See the module docs.
pub struct MatchCell {
    spec: MatchSpec,
    state: Option<Box<Running>>,
}

impl MatchCell {
    /// Wraps a spec into a schedulable cell. Nothing is simulated until
    /// the pool runs the first quantum.
    #[must_use]
    pub fn new(spec: MatchSpec) -> Self {
        MatchCell { spec, state: None }
    }

    /// The spec this cell was built from.
    #[must_use]
    pub fn spec(&self) -> &MatchSpec {
        &self.spec
    }

    /// Builds the match world: workload trace, keys, lobby, secured
    /// nodes and the simnet, all derived from the spec's seed.
    fn build(&self) -> Box<Running> {
        let spec = &self.spec;
        let config = WatchmenConfig::default();
        let players = spec.players();
        let workload = match_workload(players, spec.seed, spec.frames);

        let keys: Vec<Keypair> = spec.key_seeds.iter().map(|&s| Keypair::generate(s)).collect();
        // Heartbeats are implicit in a bot match (every player reports
        // every frame), so the timeout only needs to outlast the match.
        let mut lobby = GameLobby::new(spec.seed, config, spec.frames + 1)
            .with_keys(Keypair::generate(spec.seed ^ 0xf1ee7));
        for k in &keys {
            lobby.register(k.public());
        }
        lobby.start();
        let lobby_key = lobby.lobby_key().expect("fleet lobby has keys");

        let cores = secured_cores(
            &keys,
            lobby.directory(),
            Some(lobby_key),
            spec.seed,
            config,
            &workload.map,
        )
        .map(|core| {
            let mut node = core.into_node();
            node.set_audit_enabled(spec.observe);
            ProtocolCore::new(node)
        });
        let net = SimNetwork::new(players, latency::constant(LATENCY_MS), 0.0, spec.seed);
        let cluster = Cluster::new(cores, net, config.frame_ms);
        lobby.set_audit_enabled(spec.observe);

        Box::new(Running {
            cluster,
            lobby,
            trace: workload.trace,
            frame: 0,
            verdicts: Verdicts::new(&spec.cheaters),
            banned: 0,
            audit: Vec::new(),
        })
    }

    /// Advances the match by one frame: deliver due messages, then begin
    /// the next frame on every node, feeding suspicion reports to the
    /// lobby as they appear.
    fn step_frame(run: &mut Running, spec: &MatchSpec) {
        let f = run.frame;
        if spec.poison_at == Some(f) {
            panic!("scripted poison in match {} at frame {f}", spec.match_id);
        }

        let Running { cluster, trace, verdicts, lobby, .. } = run;
        cluster.step(
            f,
            |i| {
                let mut state = trace.frames[f as usize].states[i];
                if spec.cheaters.contains(&(i as u32)) {
                    speed_hack(&mut state, f);
                }
                state
            },
            |i, output| note(verdicts, lobby, PlayerId(i as u32), &output.events),
        );
        for i in 0..spec.players() {
            lobby.heartbeat(PlayerId(i as u32), f);
        }

        for e in lobby.tick(f) {
            if let LobbyEvent::Banned(_) = e {
                run.banned += 1;
            }
        }
        Self::collect_audit(run, spec);
        run.frame += 1;
    }

    /// Drains every emitter's per-frame audit buffer into the match
    /// stream, nodes by player index first and the lobby last — a fixed
    /// order, so the stream depends only on the spec, never on which
    /// worker ran the quantum.
    fn collect_audit(run: &mut Running, spec: &MatchSpec) {
        if !spec.observe {
            return;
        }
        for core in run.cluster.cores.iter_mut().flatten() {
            run.audit.append(&mut core.drain_audit());
        }
        run.audit.append(&mut run.lobby.drain_audit());
    }

    /// Final sweep after the last playable frame: deliver everything
    /// still in flight (constant latency means one generous horizon
    /// catches it all), count verdicts, but send nothing new — the match
    /// is over. Then the match's counts go to the shard's `registry`.
    fn drain(run: &mut Running, spec: &MatchSpec, registry: &Registry) -> MatchReport {
        let Running { cluster, verdicts, lobby, .. } = run;
        let horizon = (spec.frames as f64 + 2.0) * cluster.frame_ms + 10.0 * LATENCY_MS;
        cluster.deliver_until(spec.frames, horizon, |i, output| {
            note(verdicts, lobby, PlayerId(i as u32), &output.events);
        });
        let net = cluster.net.stats();
        net.assert_invariant("fleet match cell");
        cluster.publish(registry);
        verdicts.publish(registry);
        Self::collect_audit(run, spec);
        let verdicts = &run.verdicts;

        let quality = if spec.observe {
            let truth = GroundTruth {
                cheaters: spec.cheaters.clone(),
                first_cheat_frame: FIRST_CHEAT_FRAME,
                expected_check: checks::POSITION,
                expected_overrides: Vec::new(),
            };
            let quality = evaluate(&truth, &run.audit);
            // The join re-derives the cell's inline counts from the
            // audit stream — the two accountings must agree.
            debug_assert_eq!(quality.false_verdicts, verdicts.false_verdicts);
            debug_assert_eq!(
                quality.per_check.values().map(|c| c.true_pos).sum::<u64>(),
                verdicts.severe(),
            );
            quality
        } else {
            DetectionQuality::default()
        };
        let audit_lines: Vec<String> = if spec.audit {
            // Prefix each record with the match id so a fleet-wide JSONL
            // dump stays unambiguous across matches.
            run.audit
                .iter()
                .map(|r| format!("{{\"match\":{},{}", spec.match_id, &r.to_jsonl()[1..]))
                .collect()
        } else {
            Vec::new()
        };

        MatchReport {
            match_id: spec.match_id,
            players: spec.players(),
            frames: spec.frames,
            cheaters: spec.cheaters.len(),
            detected: verdicts.detected(),
            severe_verdicts: verdicts.severe(),
            false_verdicts: verdicts.false_verdicts,
            bad_signatures: verdicts.bad_signatures,
            banned: run.banned,
            outcomes: run.lobby.match_outcomes(),
            messages: net.delivered,
            audit_records: run.audit.len() as u64,
            quality,
            audit_lines,
        }
    }
}

/// Classifies one node's events, and forwards every suspicion — the
/// clean per-epoch summaries included — to the lobby's reputation system
/// under the observing player's name.
fn note(verdicts: &mut Verdicts, lobby: &mut GameLobby, observer: PlayerId, events: &[NodeEvent]) {
    verdicts.note(events);
    for e in events {
        if let NodeEvent::Suspicion { subject, rating, .. } = e {
            lobby.report(observer, *subject, rating);
        }
    }
}

impl Task for MatchCell {
    type Output = MatchReport;

    fn run_quantum(&mut self, cx: &ShardContext) -> Quantum<MatchReport> {
        if self.state.is_none() {
            self.state = Some(self.build());
        }
        let run = self.state.as_mut().expect("cell state just built");

        let tick_ms = cx.registry.histogram("fleet_tick_ms");
        cx.registry.describe("fleet_tick_ms", "wall-clock duration of one match frame");
        run.cluster.time_into(&cx.registry);
        let until = (run.frame + self.spec.tick_quantum).min(self.spec.frames);
        let mut ticks = 0;
        while run.frame < until {
            let started = Instant::now();
            Self::step_frame(run, &self.spec);
            tick_ms.record(started.elapsed().as_secs_f64() * 1000.0);
            ticks += 1;
        }

        if run.frame >= self.spec.frames {
            let output = Self::drain(run, &self.spec, &cx.registry);
            self.state = None;
            Quantum::Complete { ticks, output }
        } else {
            Quantum::Pending { ticks }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn drive(spec: MatchSpec) -> MatchReport {
        let cx = ShardContext { shard: 0, registry: Arc::new(Registry::new()) };
        let mut cell = MatchCell::new(spec);
        loop {
            match cell.run_quantum(&cx) {
                Quantum::Pending { .. } => {}
                Quantum::Complete { output, .. } => return output,
            }
        }
    }

    #[test]
    fn honest_match_completes_clean() {
        let report = drive(MatchSpec::new(0, 8, 120, 901).with_tick_quantum(32));
        assert_eq!(report.false_verdicts, 0, "honest arena match must score clean");
        assert_eq!(report.severe_verdicts, 0);
        assert_eq!(report.bad_signatures, 0);
        assert!(!report.detected, "nothing to detect");
        assert!(report.messages > 0, "nodes must have exchanged traffic");
    }

    #[test]
    fn scripted_cheater_is_detected_without_false_verdicts() {
        let report = drive(MatchSpec::new(1, 8, 160, 902).with_cheater(2));
        assert!(report.detected, "speed-hacker must draw a severe verdict: {report:?}");
        assert!(report.severe_verdicts > 0);
        assert_eq!(report.false_verdicts, 0, "honest players must stay clean: {report:?}");
    }

    /// The population soak keys each seat from its own identity pool and
    /// folds `outcomes` back by identity, so they must follow the spec's
    /// seeds seat by seat — with the failed interactions on the cheater.
    #[test]
    fn outcomes_follow_the_spec_identities_in_seat_order() {
        let mut spec = MatchSpec::new(5, 6, 120, 907).with_cheater(4);
        spec.key_seeds = vec![41, 7, 1009, 3, 77, 12];
        let report = drive(spec.clone());
        let identities: Vec<u64> = report.outcomes.iter().map(|&(id, _, _)| id).collect();
        let expected: Vec<u64> =
            spec.key_seeds.iter().map(|&s| Keypair::generate(s).public().to_u64()).collect();
        assert_eq!(identities, expected);
        for (seat, &(_, ok, failed)) in report.outcomes.iter().enumerate() {
            assert!(ok + failed > 0, "seat {seat} was never rated: {:?}", report.outcomes);
            assert_eq!(failed > 0, seat == 4, "seat {seat}: {:?}", report.outcomes);
        }
    }

    #[test]
    fn equal_specs_produce_identical_reports() {
        let spec = MatchSpec::new(7, 8, 100, 903).with_cheater(3);
        let a = drive(spec.clone());
        let b = drive(spec);
        assert_eq!(a, b);
        assert_eq!(a.summary_line(), b.summary_line());
    }

    #[test]
    fn quantum_size_does_not_change_the_outcome() {
        let a = drive(MatchSpec::new(9, 8, 100, 904).with_cheater(1).with_tick_quantum(1));
        let b = drive(MatchSpec::new(9, 8, 100, 904).with_cheater(1).with_tick_quantum(64));
        assert_eq!(a, b, "tick quantum is scheduling granularity, not simulation input");
    }

    /// Reports captured at commit 9d5bedc, before the cell moved onto
    /// `sim::cluster`: the summary line (which also pins its format)
    /// plus a SHA-256 over the audit JSONL. `fleet_e2e` proves equality
    /// across worker counts; this proves it across commits. A protocol
    /// change that moves these on purpose re-captures them; a driver
    /// refactor must not.
    #[test]
    fn reports_match_the_golden_capture() {
        let golden = [
            (
                MatchSpec::new(0, 16, 160, 2013),
                "match 0: players=16 frames=160 cheaters=0 detected=0 severe=0 false_verdicts=0 \
                 bad_signatures=0 banned=0 messages=8945 ttd=- audit=53",
                "067e40e6fbd1264ef01eef7d604dd04e594c07c2175aff563a23cde41ae588dc",
            ),
            (
                MatchSpec::new(1, 16, 160, 2013).with_cheater(2),
                "match 1: players=16 frames=160 cheaters=1 detected=1 severe=56 false_verdicts=0 \
                 bad_signatures=0 banned=1 messages=8722 ttd=1 audit=114",
                "abbb1b6592fed585ebdc60eba8bbe007705bcb9b2600a8319658ba633a7be834",
            ),
            (
                MatchSpec::new(2, 6, 80, 4177),
                "match 2: players=6 frames=80 cheaters=0 detected=0 severe=0 false_verdicts=0 \
                 bad_signatures=0 banned=0 messages=791 ttd=- audit=6",
                "499f35974bb24fc904f497fb0ac80b533d3155ef09435108141f88b661aee016",
            ),
        ];
        for (spec, line, audit_sha) in golden {
            let report = drive(MatchSpec { audit: true, ..spec });
            assert_eq!(report.summary_line(), line);
            let mut hash = watchmen_crypto::Sha256::new();
            for l in &report.audit_lines {
                hash.update(l.as_bytes());
                hash.update(b"\n");
            }
            let hex: String = hash.finalize().iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, audit_sha, "audit stream of match {}", report.match_id);
        }
    }

    #[test]
    fn audit_stream_joins_ground_truth() {
        let spec = MatchSpec::new(2, 8, 160, 905).with_cheater(2);
        let report = drive(MatchSpec { audit: true, ..spec });
        assert!(report.audit_records > 0, "the plane must have recorded decisions");
        assert_eq!(report.audit_lines.len(), report.audit_records as usize);
        assert!(report.audit_lines[0].starts_with("{\"match\":2,\"frame\":"));

        let q = &report.quality;
        assert_eq!(q.injected, 1);
        assert_eq!(q.detected, 1, "the speed-hacker must be caught: {q:?}");
        assert_eq!(q.false_verdicts, 0);
        assert_eq!(q.ttd_frames.len(), 1);
        assert!(q.ttd_frames[0] < 32, "detection must be prompt: {q:?}");
        assert!(q.per_check["position"].true_pos > 0, "{q:?}");
    }

    #[test]
    fn observability_off_still_detects_inline() {
        let spec = MatchSpec::new(4, 8, 120, 906).with_cheater(1);
        let on = drive(spec.clone());
        let off = drive(MatchSpec { observe: false, ..spec });
        assert!(off.detected, "inline tallies are independent of the plane");
        assert_eq!(off.audit_records, 0);
        assert_eq!(off.quality, DetectionQuality::default());
        // The plane is read-only: simulation outcomes are identical.
        assert_eq!(on.detected, off.detected);
        assert_eq!(on.severe_verdicts, off.severe_verdicts);
        assert_eq!(on.messages, off.messages);
    }
}
