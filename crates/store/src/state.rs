//! The replayed reputation state and the ban policy.
//!
//! [`RepState`] is a pure fold over [`StoreRecord`]s: no I/O, no clock.
//! Replay is **idempotent** by construction — every record carries a
//! sequence number and the fold drops any record whose seq is not
//! strictly greater than the highest applied — which is what makes
//! recovery safe to run over a log that contains duplicated batches
//! (a commit retried after a failed fsync appends the same records,
//! same seqs, twice).
//!
//! # Layout
//!
//! The identity table is two parallel columns sorted by identity
//! (`ids`, `vals`) behind a directory: `dir[p]` is how many identities
//! have their top 16 bits below `p`, so a lookup is one directory read
//! and a binary search of the run of identities that share the key's
//! prefix. Identities are public-key scalars, spread evenly, so at
//! 262 144 of them a run is about four long. Identities that all share
//! a prefix make one long run and the search is the O(log n) of any
//! ordered map — there is no hash, so nothing a chosen key set can make
//! worse than that.
//!
//! An identity first seen since the columns were last built goes into a
//! small ordered map, `recent`, and moves into the columns — one
//! in-place merge from the back, then the directory again — once
//! `recent` outgrows max(1 024, a sixteenth of the columns). A new
//! identity therefore costs sixteen element moves amortised, a store of
//! up to 1 024 identities is just the map (the 256 KiB directory is only
//! built for columns longer than that), and [`RepState::iter`] is the
//! ordered merge of the two, so everything built on it — snapshot
//! bytes, digests, the ban list — is in identity order whatever the
//! split.

use std::collections::BTreeMap;

use watchmen_crypto::Sha256;

use crate::record::StoreRecord;

/// The store-side ban policy: the paper's threshold rule, applied to
/// the *cross-match* interaction totals instead of one match's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorePolicy {
    /// Ban when `ok / total` falls below this.
    pub ban_threshold: f64,
    /// Reports required before a ban can trigger.
    pub min_reports: u64,
}

impl Default for StorePolicy {
    fn default() -> Self {
        // The same calibration the lobby defaults to: a ≤5%
        // false-positive detector never drags an honest player under
        // 85% acceptable.
        StorePolicy { ban_threshold: 0.85, min_reports: 30 }
    }
}

impl StorePolicy {
    /// Validates the policy.
    ///
    /// # Panics
    ///
    /// Panics if the threshold is outside `(0, 1)` or `min_reports`
    /// is zero.
    pub fn validate(&self) {
        assert!(
            self.ban_threshold > 0.0 && self.ban_threshold < 1.0,
            "ban_threshold {} out of range",
            self.ban_threshold
        );
        assert!(self.min_reports > 0, "min_reports must be positive");
    }

    /// Whether counts `(ok, failed)` satisfy the ban condition.
    #[must_use]
    pub fn should_ban(&self, ok: u64, failed: u64) -> bool {
        let total = ok + failed;
        total >= self.min_reports && (ok as f64 / total as f64) < self.ban_threshold
    }
}

/// One identity's durable standing.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IdentityEntry {
    /// Interactions rated acceptable, across every match.
    pub ok: u64,
    /// Interactions rated failed, across every match.
    pub failed: u64,
    /// Whether a durable [`StoreRecord::Ban`] exists for this identity.
    pub banned: bool,
    /// The suspicion recorded with the ban, in permille (0 when not
    /// banned).
    pub ban_suspicion_permille: u32,
}

impl IdentityEntry {
    /// Total interactions recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.ok + self.failed
    }

    /// The failed proportion in `[0, 1]` (0 with no reports).
    #[must_use]
    pub fn suspicion(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.failed as f64 / self.total() as f64
        }
    }
}

/// `recent` is merged into the columns once it holds more than this
/// many identities (or a sixteenth of the columns, if that is more), and
/// columns no longer than this are searched without a directory.
const SMALL: usize = 1024;

/// The directory's prefixes: an identity's top 16 bits.
const PREFIXES: usize = 1 << 16;

fn prefix(identity: u64) -> usize {
    (identity >> 48) as usize
}

/// The full replayed state: per-identity entries plus the replay
/// cursor. See the module docs for the layout.
#[derive(Debug, Default, Clone)]
pub struct RepState {
    /// Ascending, no repeats; `vals[i]` belongs to `ids[i]`.
    ids: Vec<u64>,
    vals: Vec<IdentityEntry>,
    /// Empty, or `PREFIXES + 1` offsets into the columns: the identities
    /// with prefix `p` are `ids[dir[p]..dir[p + 1]]`.
    dir: Vec<u32>,
    /// Identities not in the columns.
    recent: BTreeMap<u64, IdentityEntry>,
    applied_seq: u64,
}

/// Two states are equal when they hold the same entries and cursor,
/// however each splits them between columns and `recent`.
impl PartialEq for RepState {
    fn eq(&self, other: &Self) -> bool {
        self.applied_seq == other.applied_seq
            && self.len() == other.len()
            && self.iter().eq(other.iter())
    }
}

impl Eq for RepState {}

impl RepState {
    /// An empty state (applied seq 0: every valid record applies).
    /// Allocates nothing.
    #[must_use]
    pub fn new() -> Self {
        RepState::default()
    }

    /// Rebuilds a state from snapshot parts.
    #[must_use]
    pub fn from_parts(entries: BTreeMap<u64, IdentityEntry>, applied_seq: u64) -> Self {
        let mut state = RepState { applied_seq, ..RepState::default() };
        (state.ids, state.vals) = entries.into_iter().unzip();
        state.build_directory();
        state
    }

    /// [`Self::from_parts`] for entries already in strictly ascending
    /// identity order — what a snapshot image holds — pushed straight
    /// into the columns. `None` if they are not.
    pub(crate) fn from_ascending(
        entries: impl ExactSizeIterator<Item = (u64, IdentityEntry)>,
        applied_seq: u64,
    ) -> Option<Self> {
        let mut state = RepState { applied_seq, ..RepState::default() };
        state.ids.reserve_exact(entries.len());
        state.vals.reserve_exact(entries.len());
        for (id, entry) in entries {
            if state.ids.last().is_some_and(|&last| last >= id) {
                return None;
            }
            state.ids.push(id);
            state.vals.push(entry);
        }
        state.build_directory();
        Some(state)
    }

    /// Builds `dir` for the columns as they stand (or leaves it empty
    /// for columns a plain binary search serves as well).
    fn build_directory(&mut self) {
        self.dir.clear();
        // Offsets are `u32`; columns past that are searched whole.
        let Ok(len) = u32::try_from(self.ids.len()) else { return };
        if self.ids.len() <= SMALL {
            return;
        }
        self.dir.reserve_exact(PREFIXES + 1);
        for (at, &id) in (0..len).zip(&self.ids) {
            // Every prefix up to this identity's that has no offset yet
            // has no identity before this one either.
            if self.dir.len() <= prefix(id) {
                self.dir.resize(prefix(id) + 1, at);
            }
        }
        self.dir.resize(PREFIXES + 1, len);
    }

    /// Where `identity` is in the columns, or would be.
    fn find(&self, identity: u64) -> Result<usize, usize> {
        let (from, to) = match self.dir.get(prefix(identity)..=prefix(identity) + 1) {
            Some(run) => (run[0] as usize, run[1] as usize),
            None => (0, self.ids.len()),
        };
        self.ids[from..to].binary_search(&identity).map(|at| from + at).map_err(|at| from + at)
    }

    /// Moves `recent` into the columns: both are ascending and share no
    /// identity, so one pass from the back places every element once.
    fn merge_recent(&mut self) {
        let recent = std::mem::take(&mut self.recent);
        let mut from = self.ids.len();
        let mut to = from + recent.len();
        // Exact, not amortised: the merge already touches every element,
        // and a compaction holds two images beside these columns.
        self.ids.reserve_exact(recent.len());
        self.vals.reserve_exact(recent.len());
        self.ids.resize(to, 0);
        self.vals.resize(to, IdentityEntry::default());
        for (id, entry) in recent.into_iter().rev() {
            while from > 0 && self.ids[from - 1] > id {
                from -= 1;
                to -= 1;
                self.ids[to] = self.ids[from];
                self.vals[to] = self.vals[from];
            }
            to -= 1;
            self.ids[to] = id;
            self.vals[to] = entry;
        }
        self.build_directory();
    }

    /// The highest record sequence number folded in.
    #[must_use]
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Identities tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len() + self.recent.len()
    }

    /// Whether no identity is tracked yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One identity's entry, if any reports exist.
    #[must_use]
    pub fn entry(&self, identity: u64) -> Option<&IdentityEntry> {
        match self.find(identity) {
            Ok(at) => Some(&self.vals[at]),
            Err(_) => self.recent.get(&identity),
        }
    }

    /// Iterates entries in identity order (deterministic): before each
    /// identity in `recent`, the run of the columns below it.
    pub fn iter(&self) -> impl Iterator<Item = (&u64, &IdentityEntry)> {
        let mut from = 0;
        self.recent.iter().map(Some).chain([None]).flat_map(move |next| {
            let to = next.map_or(self.ids.len(), |(id, _)| self.find(*id).unwrap_or_else(|at| at));
            let run = self.ids[from..to].iter().zip(&self.vals[from..to]);
            from = to;
            run.chain(next)
        })
    }

    /// Whether a durable ban exists for `identity`.
    #[must_use]
    pub fn is_banned(&self, identity: u64) -> bool {
        self.entry(identity).is_some_and(|e| e.banned)
    }

    /// Every banned identity, ascending.
    #[must_use]
    pub fn banned_identities(&self) -> Vec<u64> {
        self.iter().filter(|(_, e)| e.banned).map(|(&id, _)| id).collect()
    }

    /// Folds one record in. Returns `false` (and changes nothing) for
    /// records at-or-below the applied cursor — the idempotence rule.
    pub fn apply(&mut self, record: &StoreRecord) -> bool {
        if record.seq() <= self.applied_seq {
            return false;
        }
        self.applied_seq = record.seq();
        let entry = match self.find(record.identity()) {
            Ok(at) => &mut self.vals[at],
            Err(_) => self.recent.entry(record.identity()).or_default(),
        };
        match *record {
            StoreRecord::Outcome { ok, failed, .. } => {
                entry.ok += u64::from(ok);
                entry.failed += u64::from(failed);
            }
            StoreRecord::Ban { suspicion_permille, .. } => {
                entry.banned = true;
                entry.ban_suspicion_permille = suspicion_permille;
            }
        }
        if self.recent.len() > SMALL.max(self.ids.len() / 16) {
            self.merge_recent();
        }
        true
    }

    /// A digest over the interaction counts only (identity, ok, failed
    /// per entry) — the crash-loop's convergence check, deliberately
    /// excluding ban flags so acked-ban and no-false-ban assertions can
    /// be made separately and exactly.
    #[must_use]
    pub fn counts_digest(&self) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(&(self.len() as u64).to_le_bytes());
        for (id, e) in self.iter() {
            h.update(&id.to_le_bytes());
            h.update(&e.ok.to_le_bytes());
            h.update(&e.failed.to_le_bytes());
        }
        h.finalize()
    }

    /// A digest over the full state (counts, ban flags, applied seq).
    #[must_use]
    pub fn digest(&self) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(&self.applied_seq.to_le_bytes());
        h.update(&(self.len() as u64).to_le_bytes());
        for (id, e) in self.iter() {
            h.update(&id.to_le_bytes());
            h.update(&e.ok.to_le_bytes());
            h.update(&e.failed.to_le_bytes());
            h.update(&[u8::from(e.banned)]);
            h.update(&e.ban_suspicion_permille.to_le_bytes());
        }
        h.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(seq: u64, identity: u64, ok: u32, failed: u32) -> StoreRecord {
        StoreRecord::Outcome { seq, identity, ok, failed }
    }

    #[test]
    fn apply_folds_counts_and_bans() {
        let mut state = RepState::new();
        assert!(state.apply(&outcome(1, 7, 9, 1)));
        assert!(state.apply(&outcome(2, 7, 3, 7)));
        assert!(state.apply(&StoreRecord::Ban { seq: 3, identity: 7, suspicion_permille: 400 }));
        let entry = state.entry(7).expect("tracked");
        assert_eq!((entry.ok, entry.failed), (12, 8));
        assert!(entry.banned);
        assert_eq!(entry.suspicion(), 0.4);
        assert_eq!(state.applied_seq(), 3);
        assert_eq!(state.banned_identities(), vec![7]);
    }

    #[test]
    fn replay_is_idempotent_under_duplicates() {
        let records = [
            outcome(1, 1, 10, 0),
            outcome(2, 2, 2, 8),
            StoreRecord::Ban { seq: 3, identity: 2, suspicion_permille: 800 },
        ];
        let mut once = RepState::new();
        for r in &records {
            assert!(once.apply(r));
        }
        // A retried batch duplicates the records verbatim; replaying the
        // doubled log must land on the identical state.
        let mut doubled = RepState::new();
        for r in records.iter().chain(records.iter()) {
            doubled.apply(r);
        }
        assert_eq!(once, doubled);
        assert_eq!(once.digest(), doubled.digest());
        // And stale records are rejected outright.
        assert!(!doubled.apply(&outcome(2, 9, 1, 1)));
        assert!(doubled.entry(9).is_none());
    }

    #[test]
    fn gaps_in_seq_are_tolerated() {
        // A corrupted middle record gets skipped by recovery resync; the
        // fold accepts the gap and keeps the cursor honest.
        let mut state = RepState::new();
        assert!(state.apply(&outcome(1, 1, 5, 0)));
        assert!(state.apply(&outcome(5, 1, 5, 0)));
        assert_eq!(state.applied_seq(), 5);
        assert_eq!(state.entry(1).expect("tracked").ok, 10);
    }

    #[test]
    fn policy_matches_threshold_reputation_semantics() {
        let policy = StorePolicy::default();
        policy.validate();
        assert!(!policy.should_ban(0, 0), "no reports, no ban");
        assert!(!policy.should_ban(0, 29), "below min_reports");
        assert!(policy.should_ban(0, 30));
        assert!(policy.should_ban(15, 15), "50% acceptable is under 85%");
        assert!(!policy.should_ban(100, 5), "95% acceptable stays clean");
    }

    #[test]
    #[should_panic(expected = "ban_threshold")]
    fn bad_policy_threshold_panics() {
        StorePolicy { ban_threshold: 1.5, ..StorePolicy::default() }.validate();
    }

    #[test]
    fn digests_separate_counts_from_bans() {
        let mut a = RepState::new();
        let mut b = RepState::new();
        a.apply(&outcome(1, 3, 5, 5));
        b.apply(&outcome(1, 3, 5, 5));
        b.apply(&StoreRecord::Ban { seq: 2, identity: 3, suspicion_permille: 500 });
        assert_eq!(a.counts_digest(), b.counts_digest(), "counts ignore bans");
        assert_ne!(a.digest(), b.digest(), "full digest sees bans");
    }

    /// The table as it was before the columns: one ordered map, and the
    /// fold written out against it.
    #[derive(Default)]
    struct Model {
        entries: BTreeMap<u64, IdentityEntry>,
        applied_seq: u64,
    }

    impl Model {
        fn apply(&mut self, record: &StoreRecord) -> bool {
            if record.seq() <= self.applied_seq {
                return false;
            }
            self.applied_seq = record.seq();
            let entry = self.entries.entry(record.identity()).or_default();
            match *record {
                StoreRecord::Outcome { ok, failed, .. } => {
                    entry.ok += u64::from(ok);
                    entry.failed += u64::from(failed);
                }
                StoreRecord::Ban { suspicion_permille, .. } => {
                    entry.banned = true;
                    entry.ban_suspicion_permille = suspicion_permille;
                }
            }
            true
        }
    }

    /// Whole-table agreement: order, content, length, both digests (the
    /// model's taken through `from_parts`, which builds columns only),
    /// equality in both directions, and a snapshot round trip.
    fn assert_same_table(state: &RepState, model: &Model, what: &str) {
        assert_eq!(state.len(), model.entries.len(), "{what}");
        assert_eq!(state.is_empty(), model.entries.is_empty(), "{what}");
        assert!(state.iter().eq(model.entries.iter()), "{what}: iteration differs");
        let banned: Vec<u64> =
            model.entries.iter().filter(|(_, e)| e.banned).map(|(&id, _)| id).collect();
        assert_eq!(state.banned_identities(), banned, "{what}");
        let columns_only = RepState::from_parts(model.entries.clone(), model.applied_seq);
        assert_eq!(*state, columns_only, "{what}");
        assert_eq!(columns_only, *state, "{what}");
        assert_eq!(state.digest(), columns_only.digest(), "{what}");
        assert_eq!(state.counts_digest(), columns_only.counts_digest(), "{what}");
        let image = crate::snapshot::encode_snapshot(state);
        assert_eq!(image, crate::snapshot::encode_snapshot(&columns_only), "{what}: image bytes");
        let decoded = crate::snapshot::decode_snapshot(&image).expect("own image");
        assert!(decoded.recent.is_empty(), "{what}: an ascending image decodes into columns");
        assert_eq!(decoded, *state, "{what}");
        assert_eq!(decoded.digest(), state.digest(), "{what}");
        assert_eq!(decoded.counts_digest(), state.counts_digest(), "{what}");
    }

    #[test]
    fn columns_are_indistinguishable_from_an_ordered_map() {
        use watchmen_crypto::rng::SplitMix64;
        const STEPS: usize = 17_000; // per identity set: 51 000 in all
        const POOL: u64 = 5_000;
        // How each set turns a pool index into an identity.
        type IdentityOf = fn(u64) -> u64;
        let sets: [(&str, IdentityOf); 3] = [
            // Key scalars: spread over the whole space.
            ("uniform", |i| (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            // One directory run holds everything.
            ("shared prefix", |i| {
                (0xabcd << 48) | ((i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 16)
            }),
            // Both ends of the space, dense in between, and the extremes.
            ("edges", |i| match i {
                0 => 0,
                1 => u64::MAX,
                i if i % 2 == 0 => i,
                i => u64::MAX - i,
            }),
        ];
        for (name, identity) in sets {
            let mut rng = SplitMix64::new(0x636f_6c73);
            let (mut state, mut model) = (RepState::new(), Model::default());
            let (mut seq, mut merges) = (0u64, 0u32);
            assert!(state.dir.capacity() == 0 && state.ids.capacity() == 0, "new() allocates");
            for step in 0..STEPS {
                let id = identity(rng.next_u64() % POOL);
                match rng.next_u64() % 10 {
                    0..=5 => {
                        // Mostly forwards; a stale seq now and then.
                        seq += 1 + rng.next_u64() % 3;
                        let stale = rng.next_u64().is_multiple_of(16);
                        let seq = if stale { seq / 2 } else { seq };
                        let record = if rng.next_u64().is_multiple_of(8) {
                            StoreRecord::Ban { seq, identity: id, suspicion_permille: step as u32 }
                        } else {
                            let failed = (rng.next_u64() % 4) as u32;
                            StoreRecord::Outcome { seq, identity: id, ok: 10 - failed, failed }
                        };
                        let columns_before = state.ids.len();
                        assert_eq!(state.apply(&record), model.apply(&record), "{name} {step}");
                        merges += u32::from(state.ids.len() != columns_before);
                    }
                    6 | 7 => {
                        assert_eq!(state.entry(id), model.entries.get(&id), "{name} {step}");
                        // A neighbour that is usually absent.
                        let near = id.wrapping_add(1);
                        assert_eq!(state.entry(near), model.entries.get(&near), "{name} {step}");
                    }
                    8 => assert_eq!(
                        state.is_banned(id),
                        model.entries.get(&id).is_some_and(|e| e.banned),
                        "{name} {step}"
                    ),
                    _ => {
                        assert_eq!(state.len(), model.entries.len(), "{name} {step}");
                        assert_eq!(state.applied_seq(), model.applied_seq, "{name} {step}");
                    }
                }
                if state.len() <= SMALL {
                    assert!(state.dir.is_empty() && state.ids.is_empty(), "{name}: small store");
                }
                if step % 1_000 == 999 {
                    assert_same_table(&state, &model, &format!("{name} after {step}"));
                }
            }
            assert_same_table(&state, &model, name);
            assert!(merges >= 3, "{name}: only {merges} merges");
            assert!(!state.recent.is_empty(), "{name}: the last checks saw columns only");
            assert_eq!(state.dir.len(), PREFIXES + 1, "{name}");
        }
    }

    #[test]
    fn directory_covers_every_prefix_and_the_extremes() {
        // Identities 0 and MAX, nothing else in their prefixes, and
        // enough in between to build the directory.
        let mut entries: BTreeMap<u64, IdentityEntry> =
            (1..=2 * SMALL as u64).map(|i| (i << 40, IdentityEntry::default())).collect();
        entries.insert(0, IdentityEntry { ok: 1, ..IdentityEntry::default() });
        entries.insert(u64::MAX, IdentityEntry { ok: 2, ..IdentityEntry::default() });
        let state = RepState::from_parts(entries.clone(), 9);
        assert_eq!(state.dir.len(), PREFIXES + 1);
        assert_eq!((state.dir[0], state.dir[PREFIXES]), (0, state.ids.len() as u32));
        assert!(state.dir.windows(2).all(|w| w[0] <= w[1]));
        for (id, entry) in &entries {
            assert_eq!(state.entry(*id), Some(entry));
            assert_eq!(state.entry(id ^ (1 << 20)), None, "a stranger in the same prefix");
        }
        assert_eq!(state.entry(u64::MAX - 1), None);
        assert_eq!(state.entry(1), None);
    }
}
