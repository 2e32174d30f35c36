//! The data plane: full state, position-only and dead-reckoning updates
//! and kill claims, and the layouts every plane shares — a vector, an aim,
//! a weapon and a whole [`StateUpdate`], which handoff notices and
//! bootstrap entries embed as well.

use watchmen_game::trace::PlayerFrame;
use watchmen_game::{PlayerId, WeaponKind};
use watchmen_math::{Aim, Vec3};

use super::{DecodeError, Wire};
use crate::dead_reckoning::Guidance;

/// A full state update: the frequent (per-frame) message sent to
/// interest-set subscribers, "including the avatars position, aim,
/// ammunition, weapons, health, etc.".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateUpdate {
    /// Position.
    pub position: Vec3,
    /// Velocity.
    pub velocity: Vec3,
    /// Aim.
    pub aim: Aim,
    /// Health.
    pub health: i32,
    /// Armor.
    pub armor: i32,
    /// Weapon held.
    pub weapon: WeaponKind,
    /// Ammo remaining.
    pub ammo: u32,
}

impl From<&PlayerFrame> for StateUpdate {
    fn from(f: &PlayerFrame) -> Self {
        StateUpdate {
            position: f.position,
            velocity: f.velocity,
            aim: f.aim,
            health: f.health,
            armor: f.armor,
            weapon: f.weapon,
            ammo: f.ammo,
        }
    }
}

impl From<&StateUpdate> for PlayerFrame {
    fn from(s: &StateUpdate) -> Self {
        PlayerFrame {
            position: s.position,
            velocity: s.velocity,
            aim: s.aim,
            health: s.health,
            armor: s.armor,
            weapon: s.weapon,
            ammo: s.ammo,
        }
    }
}

/// The infrequent position-only update sent to *others*: "partial state
/// updates containing only the position of the avatars, sufficient to
/// determine the subscription type".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PositionUpdate {
    /// Position.
    pub position: Vec3,
}

/// A claim that the sender killed `victim` — cross-verified by proxies and
/// witnesses ("interactions such as hit and kill-claims are verified by
/// proxies and by players acting as witnesses").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KillClaim {
    /// The claimed victim.
    pub victim: PlayerId,
    /// Weapon used.
    pub weapon: WeaponKind,
    /// Claimed attacker position at fire time.
    pub attacker_position: Vec3,
    /// Claimed victim position at impact.
    pub victim_position: Vec3,
}

/// `x`, `y`, `z`: 24 bytes.
impl Wire for Vec3 {
    fn encode_into(&self, b: &mut Vec<u8>) {
        self.x.encode_into(b);
        self.y.encode_into(b);
        self.z.encode_into(b);
    }
    fn decode_from(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Vec3::new(f64::decode_from(buf)?, f64::decode_from(buf)?, f64::decode_from(buf)?))
    }
}

/// Yaw, then pitch: 16 bytes. The one aim decoder every payload uses, and
/// it admits only what `Aim::new` outputs — yaw in `(-π, π]`, pitch in
/// `[-π/2, π/2]`, bit for bit. Normalising instead would decode yaw 0 and
/// yaw 2π to one aim with one encoding, so a relay could rewrite either
/// into the other and the datagram would still verify.
impl Wire for Aim {
    fn encode_into(&self, b: &mut Vec<u8>) {
        self.yaw().encode_into(b);
        self.pitch().encode_into(b);
    }
    fn decode_from(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let (yaw, pitch) = <(f64, f64)>::decode_from(buf)?;
        let aim = Aim::new(yaw, pitch);
        if aim.yaw().to_bits() == yaw.to_bits() && aim.pitch().to_bits() == pitch.to_bits() {
            Ok(aim)
        } else {
            Err(DecodeError::NonCanonical)
        }
    }
}

/// One byte: machine gun 0, shotgun 1, rocket launcher 2, railgun 3.
impl Wire for WeaponKind {
    fn encode_into(&self, b: &mut Vec<u8>) {
        let tag: u8 = match self {
            WeaponKind::MachineGun => 0,
            WeaponKind::Shotgun => 1,
            WeaponKind::RocketLauncher => 2,
            WeaponKind::Railgun => 3,
        };
        tag.encode_into(b);
    }
    fn decode_from(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode_from(buf)? {
            0 => Ok(WeaponKind::MachineGun),
            1 => Ok(WeaponKind::Shotgun),
            2 => Ok(WeaponKind::RocketLauncher),
            3 => Ok(WeaponKind::Railgun),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

/// Position, velocity, aim, health, armor, weapon, ammo: 77 bytes.
impl Wire for StateUpdate {
    fn encode_into(&self, b: &mut Vec<u8>) {
        self.position.encode_into(b);
        self.velocity.encode_into(b);
        self.aim.encode_into(b);
        self.health.encode_into(b);
        self.armor.encode_into(b);
        self.weapon.encode_into(b);
        self.ammo.encode_into(b);
    }
    fn decode_from(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(StateUpdate {
            position: Wire::decode_from(buf)?,
            velocity: Wire::decode_from(buf)?,
            aim: Wire::decode_from(buf)?,
            health: Wire::decode_from(buf)?,
            armor: Wire::decode_from(buf)?,
            weapon: Wire::decode_from(buf)?,
            ammo: Wire::decode_from(buf)?,
        })
    }
}

impl Wire for PositionUpdate {
    fn encode_into(&self, b: &mut Vec<u8>) {
        self.position.encode_into(b);
    }
    fn decode_from(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(PositionUpdate { position: Wire::decode_from(buf)? })
    }
}

/// Position, velocity, aim, predicted position, frame: 96 bytes.
impl Wire for Guidance {
    fn encode_into(&self, b: &mut Vec<u8>) {
        self.position.encode_into(b);
        self.velocity.encode_into(b);
        self.aim.encode_into(b);
        self.predicted_position.encode_into(b);
        self.frame.encode_into(b);
    }
    fn decode_from(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Guidance {
            position: Wire::decode_from(buf)?,
            velocity: Wire::decode_from(buf)?,
            aim: Wire::decode_from(buf)?,
            predicted_position: Wire::decode_from(buf)?,
            frame: Wire::decode_from(buf)?,
        })
    }
}

/// Victim, weapon, attacker position, victim position: 53 bytes.
impl Wire for KillClaim {
    fn encode_into(&self, b: &mut Vec<u8>) {
        self.victim.encode_into(b);
        self.weapon.encode_into(b);
        self.attacker_position.encode_into(b);
        self.victim_position.encode_into(b);
    }
    fn decode_from(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(KillClaim {
            victim: Wire::decode_from(buf)?,
            weapon: Wire::decode_from(buf)?,
            attacker_position: Wire::decode_from(buf)?,
            victim_position: Wire::decode_from(buf)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use std::f64::consts::{FRAC_PI_2, PI};

    use super::*;

    #[test]
    fn every_aim_new_output_decodes_to_itself() {
        for (yaw, pitch) in
            [(0.0, 0.0), (-0.0, -0.0), (PI, FRAC_PI_2), (-3.0, -FRAC_PI_2), (7.5, 9.0)]
        {
            let aim = Aim::new(yaw, pitch);
            let mut b = Vec::new();
            aim.encode_into(&mut b);
            assert_eq!(Aim::decode_from(&mut b.as_slice()), Ok(aim), "{yaw} {pitch}");
        }
        // -π names the same direction as π, which is the form Aim::new keeps.
        let mut b = Vec::new();
        (-PI, 0.0).encode_into(&mut b);
        assert_eq!(Aim::decode_from(&mut b.as_slice()), Err(DecodeError::NonCanonical));
    }
}
