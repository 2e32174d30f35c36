//! The epoch-versioned roster: who is in the game, under which key (§VI).
//!
//! "Most architectures have to deal with churn. … These nodes are removed
//! in the next round, through an agreement protocol, from the proxy
//! pool." Watchmen's agreement protocol needs no election traffic: every
//! membership change is a [`RosterDelta`] applied *deterministically at a
//! proxy-renewal boundary*, so any two honest nodes that have seen the
//! same deltas hold byte-identical rosters — compared cheaply via
//! [`Roster::digest`] — and derive the identical proxy pool from them.
//!
//! The roster is append-only: departed members keep their slot (status
//! [`MemberStatus::Left`] / [`MemberStatus::Evicted`]) and their id is
//! never recycled, so stale traffic signed under a dead id can never
//! alias a rejoined player (rejoiners get a fresh id from the lobby).

use watchmen_crypto::schnorr::{PublicKey, VerifyingKey};
use watchmen_game::PlayerId;

/// A member's lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberStatus {
    /// Announced via a lobby ticket but not yet admitted at a boundary
    /// (only ever present in the joiner's own pre-admission roster).
    Joining,
    /// Playing.
    Active,
    /// Departed gracefully via a `Leave` announcement.
    Left,
    /// Removed by the membership timeout.
    Evicted,
}

impl MemberStatus {
    /// Stable wire/digest tag.
    fn tag(self) -> u8 {
        match self {
            MemberStatus::Joining => 0,
            MemberStatus::Active => 1,
            MemberStatus::Left => 2,
            MemberStatus::Evicted => 3,
        }
    }
}

/// One membership change, applied at a proxy-renewal boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RosterDelta {
    /// A lobby-admitted joiner enters under a fresh dense id.
    Join {
        /// The id the lobby assigned (must be the next dense index).
        player: PlayerId,
        /// The joiner's public key.
        key: PublicKey,
    },
    /// A graceful departure.
    Leave {
        /// Who left.
        player: PlayerId,
    },
    /// A timeout eviction.
    Evict {
        /// Who was evicted.
        player: PlayerId,
    },
}

/// The epoch-versioned membership view shared by all honest nodes.
///
/// # Examples
///
/// ```
/// use watchmen_core::roster::{MemberStatus, Roster, RosterDelta};
/// use watchmen_crypto::schnorr::Keypair;
/// use watchmen_game::PlayerId;
///
/// let keys: Vec<_> = (0..3).map(|i| Keypair::generate(i).public()).collect();
/// let mut roster = Roster::new(keys);
/// assert_eq!(roster.epoch(), 0);
/// roster.apply(&[RosterDelta::Leave { player: PlayerId(1) }]);
/// assert_eq!(roster.epoch(), 1);
/// assert_eq!(roster.status(PlayerId(1)), Some(MemberStatus::Left));
/// assert_eq!(roster.active_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Roster {
    /// Each member's key in its prepared form: the roster is where a
    /// node's per-datagram signature checks look keys up, so preparation
    /// is paid once per membership change, never per message.
    keys: Vec<VerifyingKey>,
    status: Vec<MemberStatus>,
    /// Monotonic version counter: advances once per *applied* delta, so
    /// any two nodes that have applied the same delta set — however the
    /// deltas were grouped across boundaries — agree on the epoch too.
    epoch: u64,
}

impl Roster {
    /// A founding roster: every directory entry active, epoch 0.
    ///
    /// # Panics
    ///
    /// Panics if the directory has fewer than two entries.
    #[must_use]
    pub fn new(directory: Vec<PublicKey>) -> Self {
        assert!(directory.len() >= 2, "need at least two players");
        let status = vec![MemberStatus::Active; directory.len()];
        Roster { keys: directory.into_iter().map(VerifyingKey::new).collect(), status, epoch: 0 }
    }

    /// Total members ever admitted (ids are dense and never recycled).
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the roster is empty (never true for a constructed roster).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The current roster version.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The member's public key, if a member.
    #[must_use]
    pub fn key(&self, player: PlayerId) -> Option<PublicKey> {
        self.verifying_key(player).map(VerifyingKey::public)
    }

    /// The member's key prepared for verification, if a member.
    #[must_use]
    pub fn verifying_key(&self, player: PlayerId) -> Option<&VerifyingKey> {
        self.keys.get(player.index())
    }

    /// The member's status, if a member.
    #[must_use]
    pub fn status(&self, player: PlayerId) -> Option<MemberStatus> {
        self.status.get(player.index()).copied()
    }

    /// Whether `player` is currently playing.
    #[must_use]
    pub fn is_active(&self, player: PlayerId) -> bool {
        self.status(player) == Some(MemberStatus::Active)
    }

    /// Whether `player` has departed (left or been evicted).
    #[must_use]
    pub fn is_departed(&self, player: PlayerId) -> bool {
        matches!(self.status(player), Some(MemberStatus::Left | MemberStatus::Evicted))
    }

    /// Number of active members.
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.status.iter().filter(|&&s| s == MemberStatus::Active).count()
    }

    /// The active members, in id order.
    #[must_use]
    pub fn active_players(&self) -> Vec<PlayerId> {
        (0..self.status.len())
            .filter(|&i| self.status[i] == MemberStatus::Active)
            .map(|i| PlayerId(i as u32))
            .collect()
    }

    /// Appends a provisional [`MemberStatus::Joining`] member *without*
    /// bumping the epoch — used by a joiner building its own
    /// pre-admission view from the lobby snapshot. The member flips to
    /// active (and the epoch advances) when its `Join` delta applies at a
    /// boundary, exactly as on every veteran.
    ///
    /// Returns the new member's id.
    pub fn admit_provisional(&mut self, key: PublicKey) -> PlayerId {
        let id = PlayerId(self.keys.len() as u32);
        self.keys.push(VerifyingKey::new(key));
        self.status.push(MemberStatus::Joining);
        id
    }

    /// Adopts a peer's epoch if it is ahead — a joiner syncing to its
    /// first proxy's bootstrap snapshot, whose delta history predates the
    /// lobby snapshot the joiner was built from. Never moves backwards,
    /// and never touches membership content.
    pub fn sync_epoch(&mut self, epoch: u64) {
        self.epoch = self.epoch.max(epoch);
    }

    /// Applies membership deltas, returning how many actually changed the
    /// roster. Already-applied deltas (a duplicate `Leave`, a `Join` for
    /// an already-active member) are no-ops and do not advance the
    /// epoch, so redundant delivery cannot diverge replicas. A `Join`
    /// whose id is not the next dense index (and not an existing
    /// provisional/joining member) is refused — the caller holds it until
    /// the gap fills, keeping ids identical across nodes regardless of
    /// arrival order.
    pub fn apply(&mut self, deltas: &[RosterDelta]) -> usize {
        let mut applied: usize = 0;
        // Departures first, joins second, so a boundary that both removes
        // and admits members settles identically however the caller
        // ordered the slice.
        for d in deltas {
            let (player, to) = match *d {
                RosterDelta::Leave { player } => (player, MemberStatus::Left),
                RosterDelta::Evict { player } => (player, MemberStatus::Evicted),
                RosterDelta::Join { .. } => continue,
            };
            if matches!(
                self.status.get(player.index()),
                Some(MemberStatus::Active | MemberStatus::Joining)
            ) {
                self.status[player.index()] = to;
                applied += 1;
            }
        }
        let mut joins: Vec<(PlayerId, PublicKey)> = deltas
            .iter()
            .filter_map(|d| match *d {
                RosterDelta::Join { player, key } => Some((player, key)),
                _ => None,
            })
            .collect();
        joins.sort_by_key(|(p, _)| p.index());
        for (player, key) in joins {
            if player.index() == self.keys.len() {
                self.keys.push(VerifyingKey::new(key));
                self.status.push(MemberStatus::Active);
                applied += 1;
            } else if self.status.get(player.index()) == Some(&MemberStatus::Joining)
                && self.keys[player.index()].public() == key
            {
                self.status[player.index()] = MemberStatus::Active;
                applied += 1;
            }
            // Anything else: already applied, or out of dense order —
            // the caller re-queues it.
        }
        self.epoch += applied as u64;
        applied
    }

    /// SHA-256 over the full membership view (epoch, keys, statuses) —
    /// what nodes compare to assert roster agreement at boundaries.
    #[must_use]
    pub fn digest(&self) -> [u8; 32] {
        let mut bytes = Vec::with_capacity(8 + self.keys.len() * 9);
        bytes.extend_from_slice(&self.epoch.to_le_bytes());
        for (key, status) in self.keys.iter().zip(&self.status) {
            bytes.extend_from_slice(&key.public().to_u64().to_le_bytes());
            bytes.push(status.tag());
        }
        watchmen_crypto::sha256(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use watchmen_crypto::schnorr::Keypair;

    fn keys(n: u64) -> Vec<PublicKey> {
        (0..n).map(|i| Keypair::generate(i).public()).collect()
    }

    #[test]
    fn deltas_apply_identically_regardless_of_grouping() {
        let joiner = Keypair::generate(99).public();
        let all = [
            RosterDelta::Evict { player: PlayerId(2) },
            RosterDelta::Leave { player: PlayerId(0) },
            RosterDelta::Join { player: PlayerId(4), key: joiner },
        ];
        // Node A applies everything at one boundary.
        let mut a = Roster::new(keys(4));
        a.apply(&all);
        // Node B applies the same deltas over two boundaries, in a
        // different order.
        let mut b = Roster::new(keys(4));
        b.apply(&all[2..]);
        b.apply(&all[..2]);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.epoch(), 3);
        assert_eq!(a.active_players(), vec![PlayerId(1), PlayerId(3), PlayerId(4)]);
        assert_eq!(a.key(PlayerId(4)), Some(joiner));
    }

    #[test]
    fn duplicate_deltas_are_noops() {
        let mut r = Roster::new(keys(3));
        let leave = [RosterDelta::Leave { player: PlayerId(1) }];
        assert_eq!(r.apply(&leave), 1);
        assert_eq!(r.apply(&leave), 0, "redundant delivery must not diverge replicas");
        assert_eq!(r.epoch(), 1);
        // A departed member cannot be evicted into a different status.
        assert_eq!(r.apply(&[RosterDelta::Evict { player: PlayerId(1) }]), 0);
        assert_eq!(r.status(PlayerId(1)), Some(MemberStatus::Left));
    }

    #[test]
    fn out_of_order_join_is_refused_until_the_gap_fills() {
        let k4 = Keypair::generate(50).public();
        let k3 = Keypair::generate(51).public();
        let mut r = Roster::new(keys(3));
        // Join for id 4 arrives before the join for id 3.
        assert_eq!(r.apply(&[RosterDelta::Join { player: PlayerId(4), key: k4 }]), 0);
        assert_eq!(r.len(), 3);
        // Once both are present, one apply admits them in id order.
        let both = [
            RosterDelta::Join { player: PlayerId(4), key: k4 },
            RosterDelta::Join { player: PlayerId(3), key: k3 },
        ];
        assert_eq!(r.apply(&both), 2);
        assert_eq!(r.key(PlayerId(3)), Some(k3));
        assert_eq!(r.key(PlayerId(4)), Some(k4));
    }

    #[test]
    fn provisional_member_flips_active_on_its_own_join() {
        let joiner = Keypair::generate(60).public();
        // The joiner's own view: provisional self, no epoch bump yet.
        let mut own = Roster::new(keys(2));
        let id = own.admit_provisional(joiner);
        assert_eq!(id, PlayerId(2));
        assert_eq!(own.epoch(), 0);
        assert_eq!(own.status(id), Some(MemberStatus::Joining));
        assert!(!own.is_active(id));
        // A veteran's view: plain append.
        let mut veteran = Roster::new(keys(2));
        let join = [RosterDelta::Join { player: id, key: joiner }];
        own.apply(&join);
        veteran.apply(&join);
        assert_eq!(own.digest(), veteran.digest(), "both views converge at the boundary");
        assert!(own.is_active(id));
    }

    /// Every path that adds a member — founding directory, lobby
    /// snapshot, provisional self-admission, a `Join` at a boundary —
    /// must leave a prepared key that verifies that member's traffic.
    #[test]
    fn prepared_keys_follow_every_admission_path() {
        use crate::msg::{Envelope, Payload, SignedEnvelope};

        let pairs: Vec<Keypair> = (0..5).map(Keypair::generate).collect();
        let public = |i: usize| pairs[i].public();
        let signed_by = |i: usize| {
            Envelope {
                from: PlayerId(i as u32),
                seq: 1,
                frame: 40,
                payload: Payload::Ack { ack_seq: 0 },
            }
            .sign_encoded(&pairs[i])
        };
        let verifies = |bytes: &[u8], key: &VerifyingKey| {
            SignedEnvelope::decode(bytes).expect("decodes").verify_received(bytes, key)
        };
        let assert_in_step = |roster: &Roster, members: usize| {
            assert_eq!(roster.len(), members);
            for i in 0..members {
                let id = PlayerId(i as u32);
                let prepared = roster.verifying_key(id).expect("member");
                assert_eq!(Some(prepared.public()), roster.key(id));
                assert_eq!(prepared.public(), public(i));
                assert!(verifies(&signed_by(i), prepared), "member {i}'s own traffic");
                assert!(!verifies(&signed_by((i + 1) % members), prepared));
            }
            assert!(roster.verifying_key(PlayerId(members as u32)).is_none());
        };

        // A veteran: founded with three, admits 3 and 4 at one boundary.
        let mut veteran = Roster::new((0..3).map(public).collect());
        assert_in_step(&veteran, 3);
        let joins = [
            RosterDelta::Join { player: PlayerId(4), key: public(4) },
            RosterDelta::Join { player: PlayerId(3), key: public(3) },
        ];
        assert_eq!(veteran.apply(&joins), 2);
        // The joiners' first signed messages verify right after the boundary.
        assert_in_step(&veteran, 5);
        // Departures keep the slot and its key: late traffic still
        // authenticates before it is dropped as stale.
        veteran.apply(&[RosterDelta::Evict { player: PlayerId(1) }]);
        assert_in_step(&veteran, 5);

        // Joiner 3: lobby snapshot of the founders, then itself provisionally.
        let mut joiner = Roster::new((0..3).map(public).collect());
        assert_in_step(&joiner, 3);
        assert_eq!(joiner.admit_provisional(public(3)), PlayerId(3));
        assert_in_step(&joiner, 4);
        joiner.apply(&joins);
        assert_in_step(&joiner, 5);
    }

    #[test]
    fn digest_tracks_membership_and_epoch() {
        let a = Roster::new(keys(3));
        let mut b = Roster::new(keys(3));
        assert_eq!(a.digest(), b.digest());
        b.apply(&[RosterDelta::Leave { player: PlayerId(2) }]);
        assert_ne!(a.digest(), b.digest());
        assert!(b.is_departed(PlayerId(2)));
        assert_eq!(b.key(PlayerId(9)), None);
    }
}
