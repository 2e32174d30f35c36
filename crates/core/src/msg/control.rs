//! The control plane: a subscription's set kind and the handoff notice.
//! `Subscribe`/`Unsubscribe` carry `(target, kind)` and `Ack` the acked
//! sequence number, laid out where the tag table builds them.

use watchmen_game::PlayerId;

use super::{DecodeError, Payload, StateUpdate, Wire};
use crate::subscription::SetKind;

/// A proxy's summary of one epoch of duty, handed to the next epoch's
/// proxy. Fixed-size: instead of embedding the chain of earlier summaries,
/// it carries the predecessor's digest, which the successor can verify
/// against the notice it received in the predecessor's own handoff.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HandoffNotice {
    /// The supervised player whose duty transfers.
    pub player: PlayerId,
    /// The epoch the summary covers.
    pub epoch: u64,
    /// Frame at which `last_state` was actually observed by the sending
    /// proxy. Carried explicitly because the envelope frame only says when
    /// the notice was *sent*: under loss the observation can be several
    /// frames older, and stamping it with the send frame would make the
    /// successor compute impossible speeds from the player's very next
    /// update (a false teleport verdict).
    pub observed_frame: u64,
    /// The player's last known state.
    pub last_state: StateUpdate,
    /// Worst cheat rating observed this epoch (1 = clean).
    pub worst_rating: u8,
    /// Updates received from the player this epoch.
    pub updates_seen: u32,
    /// SHA-256 digest of the predecessor summary chain.
    pub predecessor_digest: [u8; 32],
}

impl HandoffNotice {
    /// SHA-256 of this notice's canonical wire encoding (tag included) —
    /// what the successor embeds as its own `predecessor_digest`, chaining
    /// consecutive summaries. Because it covers the exact wire bytes, the
    /// digest is identical at sender and receiver and stable across
    /// retransmissions (which re-send the same bytes), so duplicates
    /// deduplicate to the same chain link.
    #[must_use]
    pub fn digest(&self) -> [u8; 32] {
        let mut b = Vec::new();
        Payload::Handoff(*self).encode_into(&mut b);
        watchmen_crypto::sha256(&b)
    }
}

/// One byte: interest 0, vision 1, others 2.
impl Wire for SetKind {
    fn encode_into(&self, b: &mut Vec<u8>) {
        let tag: u8 = match self {
            SetKind::Interest => 0,
            SetKind::Vision => 1,
            SetKind::Others => 2,
        };
        tag.encode_into(b);
    }
    fn decode_from(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::decode_from(buf)? {
            0 => Ok(SetKind::Interest),
            1 => Ok(SetKind::Vision),
            2 => Ok(SetKind::Others),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

/// Player, epoch, observed frame, last state, worst rating, updates seen,
/// predecessor digest: 134 bytes.
impl Wire for HandoffNotice {
    fn encode_into(&self, b: &mut Vec<u8>) {
        self.player.encode_into(b);
        self.epoch.encode_into(b);
        self.observed_frame.encode_into(b);
        self.last_state.encode_into(b);
        self.worst_rating.encode_into(b);
        self.updates_seen.encode_into(b);
        self.predecessor_digest.encode_into(b);
    }
    fn decode_from(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(HandoffNotice {
            player: Wire::decode_from(buf)?,
            epoch: Wire::decode_from(buf)?,
            observed_frame: Wire::decode_from(buf)?,
            last_state: Wire::decode_from(buf)?,
            worst_rating: Wire::decode_from(buf)?,
            updates_seen: Wire::decode_from(buf)?,
            predecessor_digest: Wire::decode_from(buf)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use watchmen_crypto::schnorr::Keypair;
    use watchmen_game::WeaponKind;
    use watchmen_math::{Aim, Vec3};

    use super::*;
    use crate::msg::{Envelope, SignedEnvelope};

    #[test]
    fn handoff_notice_digest_survives_the_wire() {
        // The successor recomputes the digest from the decoded notice:
        // it must equal the sender's, and a retransmission (the same
        // signed bytes again) must decode to the same digest, so
        // duplicates deduplicate to one chain link.
        let notice = HandoffNotice {
            player: PlayerId(6),
            epoch: 3,
            observed_frame: 117,
            last_state: StateUpdate {
                position: Vec3::new(1.0, 2.0, 3.0),
                velocity: Vec3::new(-1.0, 0.5, 0.0),
                aim: Aim::new(0.7, -0.2),
                health: 85,
                armor: 40,
                weapon: WeaponKind::Railgun,
                ammo: 7,
            },
            worst_rating: 2,
            updates_seen: 40,
            predecessor_digest: [7u8; 32],
        };
        let keys = Keypair::generate(42);
        let env =
            Envelope { from: PlayerId(6), seq: 9, frame: 117, payload: Payload::Handoff(notice) };
        let bytes = env.sign(&keys).encode();
        for _ in 0..2 {
            let decoded = SignedEnvelope::decode(&bytes).unwrap();
            let Payload::Handoff(got) = decoded.envelope.payload else { panic!("payload changed") };
            assert_eq!(got.digest(), notice.digest());
        }
        // A colluding middleman cannot launder the chain: rewriting the
        // verdict it received, or the link to its own predecessor, moves
        // the digest its successor embeds.
        let laundered = HandoffNotice { worst_rating: 1, ..notice };
        assert_ne!(laundered.digest(), notice.digest());
        let relinked = HandoffNotice { predecessor_digest: [0; 32], ..notice };
        assert_ne!(relinked.digest(), notice.digest());
    }
}
