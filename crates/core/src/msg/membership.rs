//! The membership plane: the lobby-signed join ticket and the joiner's
//! bootstrap snapshot. `Leave` carries its effective frame and `Evict`
//! `(player, effective frame)`, laid out where the tag table builds them.

use watchmen_crypto::schnorr::{Keypair, PublicKey, Signature};
use watchmen_game::{PlayerId, WeaponKind};
use watchmen_math::{Aim, Vec3};

use super::{DecodeError, StateUpdate, Wire};

/// A lobby-signed admission ticket for a mid-game joiner.
///
/// The ticket solves the bootstrap chicken-and-egg of an unknown origin:
/// veterans have no directory entry for the joiner, so they cannot verify
/// its envelope signature — but the ticket carries the joiner's public
/// key under the *lobby's* signature, which every player can check. A
/// `Join` envelope is therefore verified in two steps: the ticket against
/// the lobby key, then the envelope against the ticket's key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinTicket {
    /// The id the lobby assigned the joiner — always the next dense
    /// index, so every node admitting the same joins derives the same
    /// directory.
    pub player: PlayerId,
    /// The joiner's public key, vouched for by the lobby.
    pub key: PublicKey,
    /// Earliest frame the join may take effect; the actual admission
    /// happens at the first proxy-renewal boundary at or after it, so all
    /// nodes grow their rosters at the same epoch.
    pub admit_frame: u64,
    /// The lobby's signature over (player, key, admit_frame).
    pub lobby_sig: Signature,
}

impl JoinTicket {
    /// The bytes the lobby signs — the ticket's wire encoding up to the
    /// signature.
    #[must_use]
    pub fn signing_bytes(player: PlayerId, key: PublicKey, admit_frame: u64) -> Vec<u8> {
        let mut b = Vec::with_capacity(20);
        player.encode_into(&mut b);
        key.encode_into(&mut b);
        admit_frame.encode_into(&mut b);
        b
    }

    /// Issues a ticket signed by the lobby's keypair.
    #[must_use]
    pub fn issue(lobby: &Keypair, player: PlayerId, key: PublicKey, admit_frame: u64) -> Self {
        let lobby_sig = lobby.sign(&Self::signing_bytes(player, key, admit_frame));
        JoinTicket { player, key, admit_frame, lobby_sig }
    }

    /// Verifies the lobby's signature.
    #[must_use]
    pub fn verify(&self, lobby_key: &PublicKey) -> bool {
        lobby_key
            .verify(&Self::signing_bytes(self.player, self.key, self.admit_frame), &self.lobby_sig)
    }
}

/// Maximum states a [`BootstrapSnapshot`] carries. The payload stays
/// `Copy` (like every other payload), so the snapshot is a fixed-capacity
/// array; a joiner learns the rest of the world from live traffic within
/// its first epoch.
pub const MAX_BOOTSTRAP_ENTRIES: usize = 8;

/// One player's last known state inside a bootstrap snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapEntry {
    /// Who the state describes.
    pub player: PlayerId,
    /// Frame the state was observed in.
    pub frame: u64,
    /// The state itself.
    pub state: StateUpdate,
}

impl Default for BootstrapEntry {
    fn default() -> Self {
        BootstrapEntry {
            player: PlayerId(0),
            frame: 0,
            state: StateUpdate {
                position: Vec3::ZERO,
                velocity: Vec3::ZERO,
                aim: Aim::default(),
                health: 0,
                armor: 0,
                weapon: WeaponKind::MachineGun,
                ammo: 0,
            },
        }
    }
}

/// The state snapshot a joiner's first proxy assembles from its retained
/// summaries and IS knowledge, so the newcomer converges within one epoch
/// instead of starting blind.
#[derive(Debug, Clone, Copy)]
pub struct BootstrapSnapshot {
    /// The sender's roster epoch when the snapshot was taken.
    pub roster_epoch: u64,
    len: u8,
    entries: [BootstrapEntry; MAX_BOOTSTRAP_ENTRIES],
}

impl BootstrapSnapshot {
    /// An empty snapshot stamped with the sender's roster epoch.
    #[must_use]
    pub fn new(roster_epoch: u64) -> Self {
        BootstrapSnapshot {
            roster_epoch,
            len: 0,
            entries: [BootstrapEntry::default(); MAX_BOOTSTRAP_ENTRIES],
        }
    }

    /// Appends an entry; returns `false` (dropping it) once full.
    pub fn push(&mut self, entry: BootstrapEntry) -> bool {
        if (self.len as usize) < MAX_BOOTSTRAP_ENTRIES {
            self.entries[self.len as usize] = entry;
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// The populated entries.
    #[must_use]
    pub fn entries(&self) -> &[BootstrapEntry] {
        &self.entries[..self.len as usize]
    }

    /// Number of populated entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the snapshot carries no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl PartialEq for BootstrapSnapshot {
    /// Compares only the populated prefix, so a decoded snapshot (whose
    /// spare slots are defaults) equals the original regardless of what
    /// the sender's spare slots held.
    fn eq(&self, other: &Self) -> bool {
        self.roster_epoch == other.roster_epoch && self.entries() == other.entries()
    }
}

/// The key as its 8-byte group element; anything else is refused.
impl Wire for PublicKey {
    fn encode_into(&self, b: &mut Vec<u8>) {
        self.to_u64().encode_into(b);
    }
    fn decode_from(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        PublicKey::from_u64(u64::decode_from(buf)?).ok_or(DecodeError::InvalidKey)
    }
}

/// The signed bytes (player, key, admit frame), then the lobby's
/// signature: 36 bytes.
impl Wire for JoinTicket {
    fn encode_into(&self, b: &mut Vec<u8>) {
        b.extend_from_slice(&Self::signing_bytes(self.player, self.key, self.admit_frame));
        self.lobby_sig.encode_into(b);
    }
    fn decode_from(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(JoinTicket {
            player: Wire::decode_from(buf)?,
            key: Wire::decode_from(buf)?,
            admit_frame: Wire::decode_from(buf)?,
            lobby_sig: Wire::decode_from(buf)?,
        })
    }
}

/// Player, frame, state: 89 bytes.
impl Wire for BootstrapEntry {
    fn encode_into(&self, b: &mut Vec<u8>) {
        self.player.encode_into(b);
        self.frame.encode_into(b);
        self.state.encode_into(b);
    }
    fn decode_from(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(BootstrapEntry {
            player: Wire::decode_from(buf)?,
            frame: Wire::decode_from(buf)?,
            state: Wire::decode_from(buf)?,
        })
    }
}

/// Roster epoch, entry count (at most [`MAX_BOOTSTRAP_ENTRIES`]), then
/// the entries: 9 + 89·n bytes.
impl Wire for BootstrapSnapshot {
    fn encode_into(&self, b: &mut Vec<u8>) {
        self.roster_epoch.encode_into(b);
        self.len.encode_into(b);
        for e in self.entries() {
            e.encode_into(b);
        }
    }
    fn decode_from(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let mut snapshot = BootstrapSnapshot::new(u64::decode_from(buf)?);
        let count = u8::decode_from(buf)?;
        if usize::from(count) > MAX_BOOTSTRAP_ENTRIES {
            return Err(DecodeError::TooManyEntries(count));
        }
        for _ in 0..count {
            snapshot.push(BootstrapEntry::decode_from(buf)?);
        }
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_ticket_verifies_under_the_lobby_key_only() {
        let lobby = Keypair::generate(1000);
        let joiner = Keypair::generate(1001);
        let ticket = JoinTicket::issue(&lobby, PlayerId(16), joiner.public(), 200);
        assert!(ticket.verify(&lobby.public()));
        // A non-lobby key does not vouch for the ticket.
        assert!(!ticket.verify(&joiner.public()));
        // Tampering with any field breaks the lobby signature.
        let mut forged = ticket;
        forged.player = PlayerId(17);
        assert!(!forged.verify(&lobby.public()));
        let mut forged = ticket;
        forged.admit_frame = 0;
        assert!(!forged.verify(&lobby.public()));
        let mut forged = ticket;
        forged.key = lobby.public();
        assert!(!forged.verify(&lobby.public()));
    }

    #[test]
    fn bootstrap_snapshot_capacity_and_equality() {
        let entry = |i: usize| BootstrapEntry {
            player: PlayerId(i as u32),
            frame: i as u64,
            ..BootstrapEntry::default()
        };
        let mut s = BootstrapSnapshot::new(7);
        assert!(s.is_empty());
        for i in 0..MAX_BOOTSTRAP_ENTRIES {
            assert!(s.push(entry(i)));
        }
        // Overflow is dropped, not a panic.
        assert!(!s.push(BootstrapEntry::default()));
        assert_eq!(s.len(), MAX_BOOTSTRAP_ENTRIES);
        // Equality covers only the populated prefix.
        let mut a = BootstrapSnapshot::new(3);
        a.push(entry(2));
        let mut b = a;
        b.entries[5] = entry(9);
        assert_eq!(a, b);
        b.push(BootstrapEntry::default());
        assert_ne!(a, b);
    }
}
