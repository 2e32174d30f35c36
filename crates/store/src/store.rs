//! The store facade: staging, durable commits, recovery, compaction.
//!
//! [`ReputationStore`] ties the pieces together around one hard
//! contract: **an acknowledgement means durability**. `note_outcome`
//! and the bans it derives are only *staged*; [`ReputationStore::commit`]
//! appends the staged batch to the WAL, fsyncs, and only then folds
//! them into the visible state and returns a receipt. A crash before
//! the receipt may lose the batch (the caller never saw an ack); a
//! crash after cannot, because recovery replays the WAL.
//!
//! Failure handling is retry-shaped: a failed append or fsync keeps the
//! staged batch (with its already-assigned sequence numbers) so the
//! next commit re-appends it. That can duplicate frames in the file —
//! harmless, because replay is seq-idempotent (see
//! [`crate::state::RepState::apply`]).
//!
//! Compaction writes the folded state into one of two alternating
//! snapshot slots, **reads it back and verifies it is a valid image of
//! the same state**, and only then truncates the WAL. A torn snapshot
//! therefore never costs data: the WAL still holds everything, and
//! recovery falls back to the other slot or to full replay. The
//! verification is one pass over the bytes read back
//! ([`crate::snapshot::snapshot_matches`]): no second copy of the state
//! is built to compare against. Recovery is as sparing: it validates
//! both slots but builds a state only from the fresher valid one, and
//! holds at most one image besides the one it is keeping.
//!
//! What a call costs is independent of how much is staged:
//! `note_outcome` keeps, per identity the batch mentions, the entry that
//! identity will have once the batch folds, so deciding a ban is one
//! hash lookup however long the batch has grown; `commit` encodes the
//! batch into one buffer of frames, one checksum per 256 records, and
//! recovery folds each frame as the scan decodes it, never holding the
//! log's records as a list. [`StoreTimings`] records the wall-clock time
//! spent in fsync and in compaction beside [`StoreStats`]' deterministic
//! counts. The store publishes no metrics: its driver reports both.

use std::collections::HashMap;
use std::io;
use std::time::{Duration, Instant};

use crate::io::Dir;
use crate::log::scan_frames;
use crate::record::{encode_frames, StoreRecord, FRAME_LEN};
use crate::snapshot::{encode_snapshot, snapshot_matches, CheckedImage};
use crate::state::{IdentityEntry, RepState, StorePolicy};

/// WAL file name inside the store directory.
pub const WAL_FILE: &str = "wal.bin";

/// The two alternating snapshot slots.
pub const SNAP_SLOTS: [&str; 2] = ["snap.a", "snap.b"];

/// What recovery found while opening a store.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a valid snapshot was loaded (vs. starting from empty).
    pub snapshot_loaded: bool,
    /// Snapshot slots that existed but failed validation.
    pub snapshot_slots_invalid: u64,
    /// WAL records decoded.
    pub wal_records: u64,
    /// WAL records dropped by the seq-idempotence guard (duplicated
    /// batches, or records the snapshot already covers).
    pub stale_replays: u64,
    /// Corruption episodes resynced past mid-log.
    pub corrupt_episodes: u64,
    /// Bytes skipped while resyncing.
    pub skipped_bytes: u64,
    /// Dangling torn-tail bytes at the end of the WAL.
    pub torn_tail_bytes: u64,
    /// Bans re-staged at open because recovered counts satisfied the
    /// policy but the durable ban record was lost in a torn tail.
    pub restaged_bans: u64,
}

/// The receipt a successful commit returns: everything at or below
/// `acked_seq` is durable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitReceipt {
    /// Highest durable sequence number.
    pub acked_seq: u64,
    /// Records made durable by this commit.
    pub records: u64,
    /// Identities whose ban became durable in this commit, with the
    /// triggering suspicion in permille.
    pub new_bans: Vec<(u64, u32)>,
}

/// Cumulative operational counters, reported by the store's driver.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Successful commits.
    pub commits: u64,
    /// Records made durable.
    pub records_committed: u64,
    /// Commit attempts that failed (append or fsync error) and left the
    /// batch staged for retry.
    pub commit_failures: u64,
    /// Extra append calls needed because of short writes.
    pub short_write_retries: u64,
    /// Successful compactions (snapshot verified, WAL truncated).
    pub compactions: u64,
    /// Compaction attempts abandoned because the written snapshot
    /// failed read-back verification (WAL left untouched).
    pub snapshot_verify_failures: u64,
    /// Corruption episodes seen at recovery.
    pub corrupt_episodes: u64,
    /// Bytes skipped at recovery (resync + torn tail).
    pub lost_bytes: u64,
}

/// Wall-clock time the store spent making commits durable and
/// compacting. Kept apart from [`StoreStats`], which deterministic runs
/// compare with `==`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StoreTimings {
    /// Total time inside the backend's `sync` in successful commits: what
    /// durability itself costs, which on real files is most of a commit.
    pub fsync_total: Duration,
    /// Total time in successful compactions (encode, replace, read
    /// back, verify, truncate).
    pub compaction_total: Duration,
}

/// A durable, crash-safe reputation store over an abstract [`Dir`].
pub struct ReputationStore {
    dir: Box<dyn Dir>,
    policy: StorePolicy,
    state: RepState,
    staged: Vec<StoreRecord>,
    /// For each identity `staged` mentions, the entry it will have once
    /// the batch folds: `state`'s counts plus the staged ones, banned
    /// if either says so. Only ever looked up by key; kept in step by
    /// [`Self::stage`], cleared when the batch folds into `state`.
    prospective: HashMap<u64, IdentityEntry>,
    next_seq: u64,
    next_snap_slot: usize,
    wal_bytes: u64,
    stats: StoreStats,
    timings: StoreTimings,
}

impl ReputationStore {
    /// Opens a store, running recovery: load the freshest valid
    /// snapshot slot (if any), replay the WAL over it with the
    /// seq-idempotence guard, and re-stage any ban the recovered counts
    /// justify but whose durable record was lost.
    ///
    /// # Errors
    ///
    /// Propagates backend I/O errors from reading the directory.
    /// Corruption is never an error — it is tolerated and counted.
    ///
    /// # Panics
    ///
    /// Panics if `policy` is invalid (see [`StorePolicy::validate`]).
    pub fn open(mut dir: Box<dyn Dir>, policy: StorePolicy) -> io::Result<(Self, RecoveryReport)> {
        policy.validate();
        let mut report = RecoveryReport::default();

        // Pick the freshest snapshot slot that validates. Each image is
        // read, checked and kept or dropped before the next is read, and
        // only the one kept is built into a state.
        let mut freshest: Option<(usize, CheckedImage)> = None;
        for (slot, name) in SNAP_SLOTS.iter().enumerate() {
            let Some(bytes) = dir.read(name)? else { continue };
            match CheckedImage::check(bytes) {
                Ok(image) => {
                    if freshest.as_ref().is_none_or(|(_, f)| image.applied_seq() > f.applied_seq())
                    {
                        freshest = Some((slot, image));
                    }
                }
                Err(_) => report.snapshot_slots_invalid += 1,
            }
        }
        let (loaded_slot, mut state) = match freshest {
            Some((slot, image)) => (Some(slot), image.decode()),
            None => (None, RepState::new()),
        };
        report.snapshot_loaded = loaded_slot.is_some();

        // Replay the WAL over the snapshot.
        let wal = dir.read(WAL_FILE)?.unwrap_or_default();
        let wal_bytes = wal.len() as u64;
        let scan = scan_frames(&wal, |frame| {
            for record in frame {
                if state.apply(record) {
                    report.wal_records += 1;
                } else {
                    report.stale_replays += 1;
                }
            }
        });
        report.corrupt_episodes = scan.corrupt_episodes;
        report.skipped_bytes = scan.skipped_bytes;
        report.torn_tail_bytes = scan.torn_tail_bytes;

        let next_seq = state.applied_seq() + 1;
        // Write the next snapshot into the slot we did NOT load from,
        // so a torn compaction can't destroy the good copy.
        let next_snap_slot = loaded_slot.map_or(0, |s| 1 - s);
        let mut store = ReputationStore {
            dir,
            policy,
            state,
            staged: Vec::new(),
            prospective: HashMap::new(),
            next_seq,
            next_snap_slot,
            wal_bytes,
            stats: StoreStats {
                corrupt_episodes: scan.corrupt_episodes,
                lost_bytes: scan.skipped_bytes + scan.torn_tail_bytes,
                ..StoreStats::default()
            },
            timings: StoreTimings::default(),
        };

        // Counts may satisfy the ban policy while the Ban record itself
        // was lost in a torn tail — possible only where a frame boundary
        // falls between the two, since a frame is kept or lost whole (it
        // was never acked, so no contract is violated — but convergence
        // demands the decision be re-made).
        let overdue: Vec<(u64, u32)> = store
            .state
            .iter()
            .filter(|(_, e)| !e.banned && policy.should_ban(e.ok, e.failed))
            .map(|(&id, e)| (id, suspicion_permille(e)))
            .collect();
        for (identity, permille) in overdue {
            store.stage(StoreRecord::Ban { seq: 0, identity, suspicion_permille: permille });
            report.restaged_bans += 1;
        }
        Ok((store, report))
    }

    /// The configured ban policy.
    #[must_use]
    pub fn policy(&self) -> StorePolicy {
        self.policy
    }

    /// The durable (committed) state. Staged records are not visible.
    #[must_use]
    pub fn state(&self) -> &RepState {
        &self.state
    }

    /// Whether a *durable* ban exists for `identity`.
    #[must_use]
    pub fn is_banned(&self, identity: u64) -> bool {
        self.state.is_banned(identity)
    }

    /// Every durably banned identity, ascending.
    #[must_use]
    pub fn banned_identities(&self) -> Vec<u64> {
        self.state.banned_identities()
    }

    /// Approximate WAL size in bytes (exact when no faults tore writes).
    #[must_use]
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes
    }

    /// Operational counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// The wall-clock time spent in fsync and in compaction.
    #[must_use]
    pub fn timings(&self) -> StoreTimings {
        self.timings
    }

    /// Stages one match's aggregated outcome for `identity` and, if the
    /// prospective cross-match counts now satisfy the ban policy (and
    /// no ban exists or is staged), stages the ban decision too.
    ///
    /// Nothing is durable until [`ReputationStore::commit`] succeeds.
    pub fn note_outcome(&mut self, identity: u64, ok: u32, failed: u32) {
        let entry = self.stage(StoreRecord::Outcome { seq: 0, identity, ok, failed });
        self.stage_ban_if_due(identity, &entry);
    }

    /// [`Self::note_outcome`] as it was before the `prospective` index:
    /// the entry found by scanning the whole staged batch. The
    /// differential test holds the indexed path to it.
    #[cfg(test)]
    fn note_outcome_by_scan(&mut self, identity: u64, ok: u32, failed: u32) {
        self.stage(StoreRecord::Outcome { seq: 0, identity, ok, failed });
        let mut entry = self.state.entry(identity).copied().unwrap_or_default();
        for r in &self.staged {
            match *r {
                StoreRecord::Outcome { identity: id, ok, failed, .. } if id == identity => {
                    entry.ok += u64::from(ok);
                    entry.failed += u64::from(failed);
                }
                StoreRecord::Ban { identity: id, .. } if id == identity => entry.banned = true,
                _ => {}
            }
        }
        self.stage_ban_if_due(identity, &entry);
    }

    fn stage_ban_if_due(&mut self, identity: u64, prospective: &IdentityEntry) {
        if !prospective.banned && self.policy.should_ban(prospective.ok, prospective.failed) {
            let permille = suspicion_permille(prospective);
            self.stage(StoreRecord::Ban { seq: 0, identity, suspicion_permille: permille });
        }
    }

    /// Stamps `record` with the next seq and stages it. Returns its
    /// identity's prospective entry, this record included.
    fn stage(&mut self, record: StoreRecord) -> IdentityEntry {
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = record.identity();
        let entry = self
            .prospective
            .entry(id)
            .or_insert_with(|| self.state.entry(id).copied().unwrap_or_default());
        let stamped = match record {
            StoreRecord::Outcome { identity, ok, failed, .. } => {
                entry.ok += u64::from(ok);
                entry.failed += u64::from(failed);
                StoreRecord::Outcome { seq, identity, ok, failed }
            }
            StoreRecord::Ban { identity, suspicion_permille, .. } => {
                entry.banned = true;
                StoreRecord::Ban { seq, identity, suspicion_permille }
            }
        };
        self.staged.push(stamped);
        *entry
    }

    /// Commits every staged record: append to the WAL, fsync, fold into
    /// the visible state, acknowledge.
    ///
    /// # Errors
    ///
    /// On append or fsync failure the batch stays staged (same seqs)
    /// and the error is returned; the caller retries by calling
    /// `commit` again. A retry may duplicate frames already partially
    /// written — replay's idempotence makes that harmless.
    pub fn commit(&mut self) -> io::Result<CommitReceipt> {
        if self.staged.is_empty() {
            return Ok(CommitReceipt {
                acked_seq: self.state.applied_seq(),
                records: 0,
                new_bans: Vec::new(),
            });
        }
        let frames = encode_frames(&self.staged);
        let mut written = 0usize;
        let mut calls = 0u64;
        while written < frames.len() {
            match self.dir.append(WAL_FILE, &frames[written..]) {
                Ok(n) => {
                    written += n;
                    self.wal_bytes += n as u64;
                    calls += 1;
                }
                Err(e) => {
                    self.stats.commit_failures += 1;
                    self.stats.short_write_retries += calls.saturating_sub(1);
                    return Err(e);
                }
            }
        }
        self.stats.short_write_retries += calls.saturating_sub(1);
        let syncing = Instant::now();
        if let Err(e) = self.dir.sync(WAL_FILE) {
            self.stats.commit_failures += 1;
            return Err(e);
        }
        let synced = syncing.elapsed();

        // Durable: fold, collect bans, acknowledge.
        let mut new_bans = Vec::new();
        let records = self.staged.len() as u64;
        for record in self.staged.drain(..) {
            if let StoreRecord::Ban { identity, suspicion_permille, .. } = record {
                new_bans.push((identity, suspicion_permille));
            }
            self.state.apply(&record);
        }
        self.prospective.clear();
        self.stats.commits += 1;
        self.stats.records_committed += records;
        self.timings.fsync_total += synced;
        Ok(CommitReceipt { acked_seq: self.state.applied_seq(), records, new_bans })
    }

    /// Compacts: snapshot the committed state into the alternate slot,
    /// read it back and verify it is a valid image of the identical
    /// state ([`snapshot_matches`], one pass over the bytes), then
    /// truncate the WAL. On verification failure the WAL is left
    /// untouched — no data is at risk, the attempt just didn't pay off.
    ///
    /// # Errors
    ///
    /// Backend I/O errors, or `InvalidData` when the written snapshot
    /// fails read-back verification.
    pub fn compact(&mut self) -> io::Result<()> {
        let started = Instant::now();
        let slot = SNAP_SLOTS[self.next_snap_slot];
        // The encoded image is a temporary of this statement: it is gone
        // before the read-back allocates its copy.
        self.dir.replace(slot, &encode_snapshot(&self.state))?;
        let ok = self.dir.read(slot)?.is_some_and(|back| snapshot_matches(&back, &self.state));
        if !ok {
            self.stats.snapshot_verify_failures += 1;
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("snapshot slot {slot} failed read-back verification"),
            ));
        }
        self.dir.replace(WAL_FILE, &[])?;
        self.wal_bytes = 0;
        self.next_snap_slot = 1 - self.next_snap_slot;
        self.stats.compactions += 1;
        self.timings.compaction_total += started.elapsed();
        Ok(())
    }

    /// Commits, then compacts if the WAL has grown past `threshold`
    /// bytes. The convenience loop for long-running owners.
    ///
    /// # Errors
    ///
    /// Propagates commit errors; compaction errors are swallowed into
    /// stats (the WAL still holds everything, so nothing is lost).
    pub fn commit_and_maybe_compact(&mut self, threshold: u64) -> io::Result<CommitReceipt> {
        let receipt = self.commit()?;
        if self.wal_bytes >= threshold.max(FRAME_LEN as u64) {
            // Best-effort: a failed compaction costs nothing.
            let _ = self.compact();
        }
        Ok(receipt)
    }
}

fn suspicion_permille(entry: &IdentityEntry) -> u32 {
    (entry.suspicion() * 1000.0).round() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{FaultDir, FaultSpec, MemDir};
    use crate::log::scan_log;
    use crate::record::decode_frame;

    fn mem_store() -> (MemDir, ReputationStore) {
        let dir = MemDir::new();
        let (store, report) =
            ReputationStore::open(Box::new(dir.clone()), StorePolicy::default()).expect("open");
        assert_eq!(report, RecoveryReport::default());
        (dir, store)
    }

    fn reopen(dir: &MemDir) -> (ReputationStore, RecoveryReport) {
        ReputationStore::open(Box::new(dir.clone()), StorePolicy::default()).expect("reopen")
    }

    #[test]
    fn outcomes_commit_and_recover() {
        let (dir, mut store) = mem_store();
        store.note_outcome(7, 28, 2);
        store.note_outcome(9, 30, 0);
        let receipt = store.commit().expect("commit");
        assert_eq!(receipt.records, 2);
        assert!(receipt.new_bans.is_empty());

        let (back, report) = reopen(&dir);
        assert_eq!(back.state(), store.state());
        assert_eq!(report.wal_records, 2);
        assert!(!report.snapshot_loaded);
    }

    #[test]
    fn ban_is_staged_when_policy_trips_and_survives_recovery() {
        let (dir, mut store) = mem_store();
        store.note_outcome(5, 10, 25); // 10/35 ≈ 29% ok — well under 85%
        let receipt = store.commit().expect("commit");
        assert_eq!(receipt.new_bans, vec![(5, 714)]);
        assert!(store.is_banned(5));

        let (back, _) = reopen(&dir);
        assert!(back.is_banned(5), "acked ban must survive recovery");
        assert_eq!(back.state().entry(5).expect("entry").ban_suspicion_permille, 714);
    }

    #[test]
    fn no_double_ban_across_commits() {
        let (_dir, mut store) = mem_store();
        store.note_outcome(5, 0, 40);
        assert_eq!(store.commit().expect("commit").new_bans.len(), 1);
        store.note_outcome(5, 0, 40);
        assert!(store.commit().expect("commit").new_bans.is_empty(), "already banned");
    }

    #[test]
    fn empty_commit_is_a_cheap_noop() {
        let (_dir, mut store) = mem_store();
        let receipt = store.commit().expect("commit");
        assert_eq!(receipt.records, 0);
        assert_eq!(store.stats().commits, 0);
    }

    #[test]
    fn compaction_truncates_wal_and_recovery_uses_snapshot() {
        let (dir, mut store) = mem_store();
        for i in 0..10 {
            store.note_outcome(i, 20, 1);
        }
        store.commit().expect("commit");
        assert!(store.wal_bytes() > 0);
        store.compact().expect("compact");
        assert_eq!(store.wal_bytes(), 0);
        assert_eq!(dir.len(WAL_FILE), 0);

        let (back, report) = reopen(&dir);
        assert!(report.snapshot_loaded);
        assert_eq!(report.wal_records, 0);
        assert_eq!(back.state(), store.state());
    }

    #[test]
    fn alternating_slots_fall_back_when_freshest_is_corrupt() {
        let (dir, mut store) = mem_store();
        store.note_outcome(1, 10, 0);
        store.commit().expect("commit");
        store.compact().expect("compact into slot a");
        store.note_outcome(2, 10, 0);
        store.commit().expect("commit");
        store.compact().expect("compact into slot b");
        // Both slots exist. Corrupt the freshest (slot b): recovery must
        // fall back to slot a — identity 2 lives only in the truncated
        // WAL now, so it is forgotten, but nothing panics and slot a's
        // contents survive intact.
        let fresh = dir.clone().read(SNAP_SLOTS[1]).expect("read").expect("exists");
        dir.clone().replace(SNAP_SLOTS[1], &fresh[..fresh.len() / 2]).expect("corrupt");
        let (back, report) = reopen(&dir);
        assert!(report.snapshot_loaded);
        assert_eq!(report.snapshot_slots_invalid, 1);
        assert!(back.state().entry(1).is_some(), "slot a state survives");
    }

    #[test]
    fn recovery_keeps_the_fresher_valid_slot_whatever_the_other_holds() {
        let (dir, mut store) = mem_store();
        store.note_outcome(1, 10, 0);
        store.commit().expect("commit");
        store.compact().expect("compact into slot a");
        store.note_outcome(2, 10, 0);
        store.commit().expect("commit");
        store.compact().expect("compact into slot b");
        store.note_outcome(3, 10, 0);
        store.commit().expect("commit: one record in the log");
        let read = |name| dir.clone().read(name).expect("read").expect("exists");
        let (older, fresher) = (read(SNAP_SLOTS[0]), read(SNAP_SLOTS[1]));
        let flipped = |image: &[u8]| {
            let mut bent = image.to_vec();
            bent[image.len() / 2] ^= 0x10;
            bent
        };

        // Both valid: the fresher one, and the log on top of it.
        let (back, report) = reopen(&dir);
        let expected =
            RecoveryReport { snapshot_loaded: true, wal_records: 1, ..RecoveryReport::default() };
        assert_eq!(report, expected);
        assert_eq!(back.state(), store.state());

        // The older one corrupt: counted, and nothing else changes.
        dir.clone().replace(SNAP_SLOTS[0], &flipped(&older)).expect("corrupt");
        let (back, report) = reopen(&dir);
        assert_eq!(report, RecoveryReport { snapshot_slots_invalid: 1, ..expected });
        assert_eq!(back.state(), store.state());
        assert_eq!(back.state().digest(), store.state().digest());

        // Both corrupt: nothing to load, so the state is the log alone.
        dir.clone().replace(SNAP_SLOTS[1], &flipped(&fresher)).expect("corrupt");
        let (back, report) = reopen(&dir);
        assert!(!report.snapshot_loaded);
        assert_eq!((report.snapshot_slots_invalid, report.wal_records), (2, 1));
        assert_eq!(back.state().len(), 1);
        assert_eq!(back.state().entry(3).expect("replayed").ok, 10);
        assert_eq!(back.state().applied_seq(), store.state().applied_seq());
    }

    #[test]
    fn failed_fsync_keeps_batch_staged_and_retry_converges() {
        // Fail every fsync until the spec is swapped out.
        let spec = FaultSpec { fsync_fail_permille: 1000, ..FaultSpec::default() };
        let dir = MemDir::new();
        let faulty = FaultDir::new(dir.clone(), spec);
        let (mut store, _) =
            ReputationStore::open(Box::new(faulty), StorePolicy::default()).expect("open");
        store.note_outcome(3, 5, 5);
        assert!(store.commit().is_err(), "fsync always fails");
        assert!(store.commit().is_err());
        assert_eq!(store.stats().commit_failures, 2);

        // The file now holds duplicated frames; a clean reopen must fold
        // them exactly once.
        let (back, report) = reopen(&dir);
        assert_eq!(report.stale_replays, 1, "duplicate batch dropped by seq guard");
        let entry = back.state().entry(3).expect("entry");
        assert_eq!((entry.ok, entry.failed), (5, 5));
    }

    #[test]
    fn recovery_restages_ban_lost_in_torn_tail() {
        let (dir, mut store) = mem_store();
        // 255 clean outcomes first, so the outcome that trips the ban
        // closes the batch's first frame and the Ban opens the second.
        for identity in 1000..1255 {
            store.note_outcome(identity, 20, 0);
        }
        store.note_outcome(4, 0, 40);
        store.commit().expect("commit");
        // Chop the Ban frame (the last one) off the WAL: an unacked-ban
        // crash shape. Counts survive, the ban record does not.
        let wal = dir.clone().read(WAL_FILE).expect("read").expect("exists");
        let torn = &wal[..wal.len() - FRAME_LEN];
        let (_, scan) = scan_log(torn);
        assert_eq!((scan.records, scan.torn_tail_bytes), (256, 0), "torn at a frame boundary");
        dir.clone().replace(WAL_FILE, torn).expect("truncate");

        let (mut back, report) = reopen(&dir);
        assert!(!back.is_banned(4), "lost ban is not yet durable");
        assert_eq!(report.restaged_bans, 1, "but the decision is re-staged");
        let receipt = back.commit().expect("commit");
        assert_eq!(receipt.new_bans.len(), 1);
        assert!(back.is_banned(4));
    }

    #[test]
    fn commits_behind_a_torn_batch_frame_survive_the_next_reopen() {
        let (dir, mut store) = mem_store();
        // 255 clean outcomes, the one that trips a ban, 255 more: the
        // Ban opens the second of two 256-record frames.
        for identity in 1000..1255 {
            store.note_outcome(identity, 20, 0);
        }
        store.note_outcome(4, 0, 40);
        for identity in 2000..2255 {
            store.note_outcome(identity, 20, 0);
        }
        store.commit().expect("commit");
        // A crash tears the second frame mid-payload, its header intact.
        let wal = dir.clone().read(WAL_FILE).expect("read").expect("exists");
        assert_eq!(wal.len(), 2 * 4_372);
        dir.clone().replace(WAL_FILE, &wal[..4_372 + 100]).expect("tear");

        let (mut back, report) = reopen(&dir);
        assert_eq!((report.torn_tail_bytes, report.restaged_bans), (100, 1));
        back.note_outcome(5, 7, 3);
        // The re-staged ban and the outcome: one 54-byte frame, far
        // shorter than the 4 272 bytes the torn frame still claims.
        let receipt = back.commit().expect("commit");
        assert_eq!((receipt.records, receipt.new_bans.len()), (2, 1));
        drop(back);

        let (back, report) = reopen(&dir);
        assert!(back.is_banned(4), "the acked ban survives");
        let entry = back.state().entry(5).expect("the acked outcome survives");
        assert_eq!((entry.ok, entry.failed), (7, 3));
        assert_eq!(back.state().applied_seq(), receipt.acked_seq);
        assert_eq!(report.restaged_bans, 0);
        let damage = (report.corrupt_episodes, report.skipped_bytes, report.torn_tail_bytes);
        assert_eq!(damage, (1, 100, 0), "the torn frame is skipped, not the log's end");
    }

    #[test]
    fn a_batch_of_256_outcomes_is_one_4372_byte_frame() {
        let (dir, mut store) = mem_store();
        for identity in 0..256 {
            store.note_outcome(identity, 30, 1);
        }
        assert_eq!(store.commit().expect("commit").records, 256);
        assert_eq!((store.wal_bytes(), dir.len(WAL_FILE)), (4_372, 4_372));
        // 17.08 bytes per outcome, against 37 for a frame per record.
        assert_eq!(store.wal_bytes() * 100 / 256, 1_707);
    }

    #[test]
    fn commit_and_maybe_compact_compacts_past_threshold() {
        let (dir, mut store) = mem_store();
        store.note_outcome(1, 9, 1);
        store.commit_and_maybe_compact(1).expect("commit");
        assert_eq!(store.stats().compactions, 1);
        assert_eq!(dir.len(WAL_FILE), 0);
    }

    #[test]
    fn commits_are_counted_in_stats() {
        let (_dir, mut store) = mem_store();
        store.note_outcome(1, 9, 1);
        store.commit().expect("commit");
        assert_eq!((store.stats().commits, store.stats().records_committed), (1, 1));
    }

    #[test]
    fn timings_cover_fsync_and_compaction() {
        let (_dir, mut store) = mem_store();
        store.commit().expect("empty commit");
        assert_eq!(store.timings(), StoreTimings::default(), "nothing to time");
        store.note_outcome(1, 9, 1);
        store.commit().expect("commit");
        assert_eq!(store.timings().compaction_total, Duration::ZERO, "nothing compacted yet");
        store.compact().expect("compact");
        assert!(store.timings().compaction_total > Duration::ZERO);
    }

    /// Drives the indexed `note_outcome` and the staged scan it replaced
    /// through the same script — a sliding window of 32 identities so
    /// batches are full of repeats, batch sizes from 1 to 700, short
    /// writes and failed fsyncs that leave batches staged across
    /// commits, and a reopen that loses a ban to a torn tail — and
    /// requires them to be indistinguishable throughout.
    #[test]
    fn indexed_staging_is_indistinguishable_from_the_staged_scan() {
        use watchmen_crypto::rng::SplitMix64;
        const CALLS: u64 = 16_000;
        let spec = FaultSpec {
            seed: 17,
            short_permille: 100,
            fsync_fail_permille: 150,
            ..FaultSpec::default()
        };
        let open = |media: &MemDir| {
            let dir = FaultDir::new(media.clone(), spec);
            ReputationStore::open(Box::new(dir), StorePolicy::default()).expect("open")
        };
        let wal_of =
            |media: &MemDir| media.clone().read(WAL_FILE).expect("read").unwrap_or_default();
        let (media_a, media_b) = (MemDir::new(), MemDir::new());
        let (mut indexed, mut scanned) = (open(&media_a).0, open(&media_b).0);
        let mut rng = SplitMix64::new(2013);
        let (mut calls, mut failed_commits, mut bans, mut restaged) = (0u64, 0u64, 0usize, 0u64);
        let mut reopened = false;
        while calls < CALLS {
            let batch = [1, 3, 16, 64, 256, 700][(rng.next_u64() % 6) as usize];
            for _ in 0..batch {
                let identity = calls / 400 * 8 + rng.next_u64() % 32;
                let failed =
                    (rng.next_u64() % if identity.is_multiple_of(4) { 8 } else { 2 }) as u32;
                indexed.note_outcome(identity, 10 - failed, failed);
                scanned.note_outcome_by_scan(identity, 10 - failed, failed);
                calls += 1;
            }
            assert_eq!(indexed.staged, scanned.staged, "after {calls} calls");
            match commit_both(&mut indexed, &mut scanned, calls) {
                Some(receipt) => bans += receipt.new_bans.len(),
                None => failed_commits += 1,
            }
            assert_eq!(indexed.staged, scanned.staged, "what a commit leaves staged");
            assert_eq!(indexed.state().digest(), scanned.state().digest());
            assert_eq!(wal_of(&media_a), wal_of(&media_b));

            if !reopened && calls >= CALLS / 2 {
                reopened = true;
                // Settle what is staged, then commit 255 clean outcomes
                // and one that trips a ban: the ban opens the batch's
                // second frame.
                while !indexed.staged.is_empty() {
                    commit_both(&mut indexed, &mut scanned, calls);
                }
                for store in [&mut indexed, &mut scanned] {
                    for i in 0..255 {
                        store.note_outcome(1 << 40 | i, 10, 0);
                    }
                    store.note_outcome(1 << 41, 0, 40);
                }
                assert_eq!(indexed.staged, scanned.staged, "the padded batch");
                while commit_both(&mut indexed, &mut scanned, calls).is_none() {}
                // Tear both logs at the start of the first frame holding
                // that ban (every frame in them is whole), so the counts
                // before it stay durable and recovery re-stages the ban.
                let wal = wal_of(&media_a);
                let (records, _) = scan_log(&wal);
                let last_ban = records
                    .iter()
                    .rfind(|r| matches!(r, StoreRecord::Ban { .. }))
                    .expect("a ban was logged")
                    .seq();
                let mut tear = 0;
                loop {
                    let mut frame = Vec::new();
                    let used = decode_frame(&wal[tear..], &mut frame).expect("whole frames");
                    if frame.iter().any(|r| r.seq() == last_ban) {
                        break;
                    }
                    tear += used;
                }
                for media in [&media_a, &media_b] {
                    media.clone().replace(WAL_FILE, &wal[..tear]).expect("tear");
                }
                let (a, report_a) = open(&media_a);
                let (b, report_b) = open(&media_b);
                assert_eq!(report_a, report_b);
                restaged = report_a.restaged_bans;
                (indexed, scanned) = (a, b);
                assert_eq!(indexed.staged, scanned.staged, "re-staged at open");
            }
        }
        assert!(failed_commits >= 5, "only {failed_commits} commits failed");
        assert!(bans >= 50, "only {bans} bans");
        assert!(restaged >= 1, "the torn ban was not re-staged");
    }

    /// Commits both stores of the differential test and requires them to
    /// agree: the shared receipt, or `None` when both failed.
    fn commit_both(
        indexed: &mut ReputationStore,
        scanned: &mut ReputationStore,
        calls: u64,
    ) -> Option<CommitReceipt> {
        match (indexed.commit(), scanned.commit()) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "receipts after {calls} calls");
                Some(a)
            }
            (Err(_), Err(_)) => None,
            (a, b) => panic!("commits disagree after {calls} calls: {a:?} vs {b:?}"),
        }
    }
}
