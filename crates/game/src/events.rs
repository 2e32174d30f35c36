//! Game events recorded in traces.

use std::fmt;

use watchmen_math::Vec3;
use watchmen_world::ItemKind;

use crate::{PlayerId, WeaponKind};

/// A discrete game event, stamped with the frame it occurred in by its
/// position in the trace.
///
/// Shots, hits, kills, pickups and respawns are exactly the event classes
/// the paper's tracing module records ("item pickups, shootings, and
/// killing of players"), and the raw material for interaction-recency in
/// the attention metric and for kill verification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GameEvent {
    /// A weapon was fired.
    Shot {
        /// Who fired.
        attacker: PlayerId,
        /// The weapon used.
        weapon: WeaponKind,
        /// Muzzle position.
        origin: Vec3,
        /// Normalized fire direction.
        direction: Vec3,
    },
    /// A shot damaged a target.
    Hit {
        /// Who fired.
        attacker: PlayerId,
        /// Who was hit.
        target: PlayerId,
        /// The weapon used.
        weapon: WeaponKind,
        /// Damage dealt after armor.
        damage: i32,
        /// Attacker–target distance at impact.
        distance: f64,
    },
    /// A hit reduced the victim's health to zero.
    Kill {
        /// Who got the kill.
        attacker: PlayerId,
        /// Who died.
        victim: PlayerId,
        /// The weapon used.
        weapon: WeaponKind,
        /// Attacker–victim distance at the kill.
        distance: f64,
    },
    /// An avatar fell into a pit.
    Fall {
        /// Who fell.
        victim: PlayerId,
    },
    /// An item was picked up.
    Pickup {
        /// Who picked it up.
        player: PlayerId,
        /// What was picked up.
        kind: ItemKind,
        /// Index of the spawner in [`watchmen_world::GameMap::item_spawners`].
        spawner: usize,
    },
    /// A dead avatar re-entered play.
    Respawn {
        /// Who respawned.
        player: PlayerId,
        /// Where they respawned.
        position: Vec3,
    },
}

impl fmt::Display for GameEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GameEvent::Shot { attacker, weapon, .. } => write!(f, "{attacker} fires {weapon}"),
            GameEvent::Hit { attacker, target, damage, .. } => {
                write!(f, "{attacker} hits {target} for {damage}")
            }
            GameEvent::Kill { attacker, victim, weapon, .. } => {
                write!(f, "{attacker} kills {victim} with {weapon}")
            }
            GameEvent::Fall { victim } => write!(f, "{victim} falls into the void"),
            GameEvent::Pickup { player, kind, .. } => write!(f, "{player} picks up {kind}"),
            GameEvent::Respawn { player, position } => {
                write!(f, "{player} respawns at {position}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let kill = GameEvent::Kill {
            attacker: PlayerId(0),
            victim: PlayerId(1),
            weapon: WeaponKind::Railgun,
            distance: 120.0,
        };
        let s = kill.to_string();
        assert!(s.contains("p0") && s.contains("p1") && s.contains("railgun"));
    }
}
