//! The sans-io protocol core: one poll-driven state machine, many drivers.
//!
//! The Watchmen protocol is transport-agnostic — proxy duties, epoch
//! summaries and verification depend only on *which datagrams arrived
//! before which tick* — so the full per-player endpoint is exposed here
//! as a pure poll-driven state machine. [`ProtocolCore`] has exactly two
//! inputs and two outputs:
//!
//! | direction | carrier | meaning |
//! |---|---|---|
//! | in | [`CoreInput::Tick`] | frame `now` begins; here is my avatar state |
//! | in | [`CoreInput::Datagram`] | these bytes arrived before frame `now` |
//! | out | [`CoreOutput::datagrams`] | `(destination, bytes)` to put on *some* wire |
//! | out | [`CoreOutput::events`] | deliveries/suspicions for the app & reputation layer |
//!
//! No sockets, no clocks, no sleeps: time is the `now_frame` the driver
//! passes in, and retransmits/heartbeats/epoch boundaries all fall out of
//! the tick input. That makes the identical core exact under both
//! drivers in the repo:
//!
//! | driver | where | transport | time source |
//! |---|---|---|---|
//! | `Cluster` | `watchmen-sim::cluster` | [`watchmen_net::SimNetwork`] | virtual ms |
//! | live | `examples/live_cluster.rs`, `tests/sans_io_e2e.rs` | `watchmen_net::live::LiveTransport` (real UDP) | wall-clock paced ticks |
//!
//! Every simnet match — the scripted soaks of `watchmen-sim::scenario`,
//! the fleet's match cell, the deathmatch and lobby examples — is a
//! caller of `Cluster::step`. Three loops stay separate on purpose: the
//! unit tests below (which cannot depend on `watchmen-sim`),
//! `tests/node_protocol.rs` (a same-frame instant bus whose assertions
//! are about intra-frame ordering), and the perf ledger under
//! `benchmark/` (it times each call into the core from outside).
//!
//! A worked tick, as every driver performs it:
//!
//! ```text
//!        ┌───────────────────────── driver ─────────────────────────┐
//!        │  1. collect datagrams the transport delivered since the  │
//!        │     last tick (simnet advance_to / UDP drain-all)        │
//!        └──────────────────────────────────────────────────────────┘
//!   for each:  core.handle(now, Datagram { wire_sender, bytes })
//!                │                                   │
//!                ▼                                   ▼
//!        CoreOutput.datagrams ──► transport     CoreOutput.events ──► app
//!        (proxy forwards, acks)                 (deliveries, suspicions)
//!
//!   then once:  core.handle(now, Tick { state })
//!                │                                   │
//!                ▼                                   ▼
//!        CoreOutput.datagrams ──► transport     CoreOutput.events ──► app
//!        (state publish, guidance, handoffs,
//!         control retransmits due this frame)
//! ```
//!
//! The deliver-then-tick order matters and is shared by every driver: a
//! datagram is presented with the frame number *at which it is
//! processed*, and the tick that follows sees its effects (acks cancel
//! retransmits queued this frame, learned states feed this frame's
//! subscription sets).
//!
//! [`ProtocolCore`] is the only driver API: the node's tick and datagram
//! entry points are crate-private, and return the [`CoreOutput`] this
//! core hands back unchanged.

use watchmen_crypto::schnorr::{Keypair, PublicKey};
use watchmen_game::trace::PlayerFrame;
use watchmen_game::PlayerId;
use watchmen_world::{GameMap, PhysicsConfig};

use crate::audit::AuditRecord;
use crate::node::{NodeEvent, Outgoing, WatchmenNode};
use crate::WatchmenConfig;

/// One input to the core: a tick boundary or an arrived datagram.
#[derive(Debug)]
pub enum CoreInput<'a> {
    /// Frame `now_frame` begins; `state` is the local avatar's state this
    /// frame. Drives publishing, subscriptions, epoch boundaries and
    /// control-plane retransmits.
    Tick {
        /// The local player's state for this frame.
        state: &'a PlayerFrame,
    },
    /// `bytes` arrived from the transport, which believes they came from
    /// `wire_sender` (the core re-verifies: signatures decide identity,
    /// the wire id only routes).
    Datagram {
        /// The transport-level sender id (frame header, not trusted).
        wire_sender: PlayerId,
        /// The received payload.
        bytes: &'a [u8],
    },
}

/// Everything one [`ProtocolCore::handle`] call produced.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CoreOutput {
    /// Datagrams to put on the wire: `(destination, bytes)` pairs, in
    /// send order.
    pub datagrams: Vec<Outgoing>,
    /// Events for the application and reputation layer, in emission
    /// order.
    pub events: Vec<NodeEvent>,
}

/// The poll-driven protocol endpoint. Construct a [`WatchmenNode`]
/// (regular or joining) and wrap it; from then on the only way the
/// protocol observes the world is through [`ProtocolCore::handle`].
///
/// # Examples
///
/// ```
/// use watchmen_core::sans_io::{CoreInput, ProtocolCore};
/// use watchmen_core::node::WatchmenNode;
/// use watchmen_core::WatchmenConfig;
/// use watchmen_crypto::schnorr::Keypair;
/// use watchmen_game::trace::GameTrace;
/// use watchmen_game::{GameConfig, PlayerId};
/// use watchmen_world::{maps, PhysicsConfig};
///
/// let map = maps::arena(16, 10.0);
/// let keys: Vec<Keypair> = (0..4).map(|i| Keypair::generate(7 ^ i)).collect();
/// let directory: Vec<_> = keys.iter().map(Keypair::public).collect();
/// let trace = GameTrace::record(
///     GameConfig { map: map.clone(), ..GameConfig::default() },
///     4,
///     7,
///     2,
/// );
/// let mut core = ProtocolCore::new(WatchmenNode::new(
///     PlayerId(0),
///     keys[0].clone(),
///     directory,
///     7,
///     WatchmenConfig::default(),
///     map,
///     PhysicsConfig::default(),
/// ));
/// let out = core.handle(0, CoreInput::Tick { state: &trace.frames[0].states[0] });
/// assert!(!out.datagrams.is_empty(), "frame 0 publishes state to the proxy");
/// ```
#[derive(Debug)]
pub struct ProtocolCore {
    node: WatchmenNode,
}

impl ProtocolCore {
    /// Wraps a constructed node. The node may be mid-game (joining) —
    /// the core carries whatever state it already has.
    #[must_use]
    pub fn new(node: WatchmenNode) -> Self {
        ProtocolCore { node }
    }

    /// The single entry point: feed one input at frame `now_frame`, get
    /// the datagrams and events it produced. Drivers present all
    /// datagrams delivered before a frame, then the frame's tick.
    pub fn handle(&mut self, now_frame: u64, input: CoreInput<'_>) -> CoreOutput {
        match input {
            CoreInput::Tick { state } => self.node.begin_frame(now_frame, state),
            CoreInput::Datagram { wire_sender, bytes } => {
                self.node.handle_message(now_frame, wire_sender, bytes)
            }
        }
    }

    /// Convenience for [`CoreInput::Tick`].
    pub fn tick(&mut self, now_frame: u64, state: &PlayerFrame) -> CoreOutput {
        self.handle(now_frame, CoreInput::Tick { state })
    }

    /// Convenience for [`CoreInput::Datagram`].
    pub fn datagram(&mut self, now_frame: u64, wire_sender: PlayerId, bytes: &[u8]) -> CoreOutput {
        self.handle(now_frame, CoreInput::Datagram { wire_sender, bytes })
    }

    /// Announces this player's graceful departure (reliable control
    /// traffic; the leave lands at a future epoch boundary).
    pub fn announce_leave(&mut self, now_frame: u64) -> CoreOutput {
        self.node.announce_leave(now_frame)
    }

    /// Submits a kill claim for witness verification.
    pub fn claim_kill(&mut self, now_frame: u64, claim: crate::msg::KillClaim) -> CoreOutput {
        self.node.claim_kill(now_frame, claim)
    }

    /// This endpoint's player id.
    #[must_use]
    pub fn id(&self) -> PlayerId {
        self.node.id()
    }

    /// Drains the verdict audit stream (delegates to the node).
    pub fn drain_audit(&mut self) -> Vec<AuditRecord> {
        self.node.drain_audit()
    }

    /// Read access to the wrapped node for stats and introspection
    /// (`control_stats`, `roster_digest`, …). The protocol itself is
    /// only ever driven through [`ProtocolCore::handle`].
    #[must_use]
    pub fn node(&self) -> &WatchmenNode {
        &self.node
    }

    /// Mutable access for driver-side configuration (audit toggles,
    /// flight-dump draining) — not for protocol input.
    pub fn node_mut(&mut self) -> &mut WatchmenNode {
        &mut self.node
    }

    /// Unwraps the node.
    #[must_use]
    pub fn into_node(self) -> WatchmenNode {
        self.node
    }
}

/// One secured core per key, ids dense from 0 in key order, all sharing
/// `directory`, `seed`, `config` and `map` with default physics — the
/// cluster every simnet and in-process live driver starts from. With a
/// `lobby_key` the nodes accept lobby-signed join tickets. Lazy, so a
/// caller that adjusts each node (`into_node`, rewrap) never holds two
/// full sets.
///
/// # Panics
///
/// Panics (on iteration) if `directory` does not cover every key.
pub fn secured_cores<'a>(
    keys: &'a [Keypair],
    directory: &'a [PublicKey],
    lobby_key: Option<PublicKey>,
    seed: u64,
    config: WatchmenConfig,
    map: &'a GameMap,
) -> impl Iterator<Item = ProtocolCore> + 'a {
    keys.iter().enumerate().map(move |(i, k)| {
        let node = WatchmenNode::new(
            PlayerId(i as u32),
            k.clone(),
            directory.to_vec(),
            seed,
            config,
            map.clone(),
            PhysicsConfig::default(),
        );
        ProtocolCore::new(match lobby_key {
            Some(key) => node.with_lobby_key(key),
            None => node,
        })
    })
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // cores/states are index-parallel
mod tests {
    use super::*;
    use watchmen_crypto::schnorr::Keypair;
    use watchmen_game::trace::GameTrace;
    use watchmen_game::GameConfig;
    use watchmen_world::{maps, PhysicsConfig};

    use crate::WatchmenConfig;

    fn build_cluster(n: usize, seed: u64) -> Vec<WatchmenNode> {
        let map = maps::arena(16, 10.0);
        let keys: Vec<Keypair> = (0..n).map(|i| Keypair::generate(seed ^ i as u64)).collect();
        let directory: Vec<_> = keys.iter().map(Keypair::public).collect();
        keys.into_iter()
            .enumerate()
            .map(|(i, k)| {
                WatchmenNode::new(
                    PlayerId(i as u32),
                    k,
                    directory.clone(),
                    seed,
                    WatchmenConfig::default(),
                    map.clone(),
                    PhysicsConfig::default(),
                )
            })
            .collect()
    }

    fn record(n: usize, seed: u64, frames: u64) -> GameTrace {
        let map = maps::arena(16, 10.0);
        GameTrace::record(GameConfig { map, ..GameConfig::default() }, n, seed, frames)
    }

    /// The poll contract: inputs only through `handle`, outputs only
    /// through the returned `CoreOutput` — a datagram handled at a frame
    /// affects the very next tick (acks cancel pending retransmits).
    #[test]
    fn datagrams_feed_the_following_tick() {
        const N: usize = 5;
        const SEED: u64 = 0x909;
        let trace = record(N, SEED, 60);
        let mut cores: Vec<ProtocolCore> =
            build_cluster(N, SEED).into_iter().map(ProtocolCore::new).collect();

        // Run with full delivery: control chains complete, nothing
        // abandoned, and ticks keep producing the publish traffic.
        let mut bus: std::collections::VecDeque<(PlayerId, PlayerId, Vec<u8>)> = Default::default();
        let mut any_delivery = false;
        for f in 0..60 {
            for i in 0..N {
                let out = cores[i].tick(f, &trace.frames[f as usize].states[i]);
                assert!(
                    !out.datagrams.is_empty() || f == 0,
                    "every tick publishes at least the state update"
                );
                for o in out.datagrams {
                    bus.push_back((PlayerId(i as u32), o.to, o.bytes));
                }
            }
            while let Some((s, t, b)) = bus.pop_front() {
                let out = cores[t.index()].datagram(f, s, &b);
                any_delivery |= out.events.iter().any(|e| matches!(e, NodeEvent::Delivery { .. }));
                for o in out.datagrams {
                    bus.push_back((t, o.to, o.bytes));
                }
            }
        }
        assert!(any_delivery, "verified deliveries must surface as events");
        let acks: u64 = cores.iter().map(|c| c.node().control_stats().acks_received).sum();
        assert!(acks > 0, "acks handled as datagrams must cancel pending retransmits");
        for c in &cores {
            assert_eq!(c.node().control_stats().abandoned, 0, "instant bus abandons nothing");
        }
    }
}
