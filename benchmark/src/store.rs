//! `store256k`: the only workload where `crates/store` does any work.
//!
//! A `ReputationStore` on `MemDir` is first populated with one outcome
//! for each of 262 144 identities (2 % of them misbehave) — input
//! preparation, untimed, so that every timed operation meets a store of
//! the same size. Then it takes batches of 256 `note_outcome` calls on
//! random identities and makes each durable with
//! `commit_and_maybe_compact(1 MiB)`. Every 500 commits the store is
//! dropped and opened again on the same media, so recovery is exercised —
//! and timed as the workload's set-up — many times per run. Each reopened
//! state is checked against a reference fold of every acknowledged batch.

use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use watchmen::store::{
    crc32, decode_snapshot, encode_snapshot, CommitReceipt, Dir, FsDir, MemDir, ReputationStore,
    StorePolicy, StoreRecord, FRAME_LEN,
};

use crate::catalog;
use crate::host::{self, Ops};
use crate::kernels;
use crate::report::Report;
use crate::stats::{derive_seed, median_f64, peak_rss_mb, per_call_ns, Samples, SplitMix64};
use crate::workloads::{set_end_to_end, Budget};

pub const COUNTED_CYCLES: u32 = 4;
const IDENTITIES: u64 = 262_144;
const OUTCOMES_PER_COMMIT: usize = 256;
const COMMITS_PER_CYCLE: usize = 500;
const COMPACT_THRESHOLD: u64 = 1 << 20;
/// One identity in fifty misbehaves badly enough to be banned.
const MISBEHAVES_EVERY: u64 = 50;

/// Spreads dense indices over the `u64` identity space (public-key
/// scalars are not dense), so the store's ordered map sees random keys.
fn identity(index: u64) -> u64 {
    (index + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// One match's aggregated outcome for the identity at `index`.
fn outcome_of(index: u64, rng: &mut SplitMix64) -> (u64, u32, u32) {
    if index.is_multiple_of(MISBEHAVES_EVERY) {
        (identity(index), 20, 10)
    } else {
        (identity(index), 30, (rng.below(16) == 0) as u32)
    }
}

/// One match's aggregated outcome for a random identity.
fn outcome(rng: &mut SplitMix64) -> (u64, u32, u32) {
    let index = rng.below(IDENTITIES);
    outcome_of(index, rng)
}

/// What every acknowledged batch adds up to.
#[derive(Default)]
struct Reference {
    counts: HashMap<u64, (u64, u64)>,
    bans: BTreeSet<u64>,
    acked_seq: u64,
}

impl Reference {
    /// Folds in a batch the store acknowledged with `receipt`.
    fn ack(&mut self, batch: &[(u64, u32, u32)], receipt: &CommitReceipt) {
        for &(id, ok, failed) in batch {
            let e = self.counts.entry(id).or_default();
            e.0 += u64::from(ok);
            e.1 += u64::from(failed);
        }
        self.bans.extend(receipt.new_bans.iter().map(|&(id, _)| id));
        self.acked_seq = receipt.acked_seq;
    }

    /// Compares a freshly recovered store with the fold; returns what differs.
    fn diff(&self, store: &ReputationStore, full: bool) -> Option<String> {
        let state = store.state();
        if state.applied_seq() != self.acked_seq {
            return Some(format!(
                "recovered seq {} but {} was acknowledged",
                state.applied_seq(),
                self.acked_seq
            ));
        }
        if state.len() != self.counts.len() {
            return Some(format!(
                "recovered {} identities, acknowledged {}",
                state.len(),
                self.counts.len()
            ));
        }
        let banned: BTreeSet<u64> = store.banned_identities().into_iter().collect();
        if banned != self.bans {
            return Some(format!(
                "recovered {} bans, acknowledged {}",
                banned.len(),
                self.bans.len()
            ));
        }
        if full {
            for (id, &(ok, failed)) in &self.counts {
                match state.entry(*id) {
                    Some(e) if (e.ok, e.failed) == (ok, failed) => {}
                    other => {
                        return Some(format!(
                            "identity {id:#x}: recovered {other:?}, acknowledged ({ok}, {failed})"
                        ))
                    }
                }
            }
        }
        None
    }
}

/// Input preparation: one outcome per identity, in batches of 256, each
/// committed; leaves the image the timed cycles start from.
fn populate(dir: &MemDir, seed: u64, reference: &mut Reference) -> std::io::Result<()> {
    let mut rng = SplitMix64::new(derive_seed(seed, 0x706f_7075_6c00, 0));
    let (mut store, _) = open(dir, &mut Ops::default())?;
    let mut batch = Vec::with_capacity(OUTCOMES_PER_COMMIT);
    for first in (0..IDENTITIES).step_by(OUTCOMES_PER_COMMIT) {
        batch.clear();
        batch.extend((first..first + OUTCOMES_PER_COMMIT as u64).map(|i| outcome_of(i, &mut rng)));
        for &(id, ok, failed) in &batch {
            store.note_outcome(id, ok, failed);
        }
        let receipt = store.commit_and_maybe_compact(COMPACT_THRESHOLD)?;
        reference.ack(&batch, &receipt);
    }
    Ok(())
}

/// Opens the store on `dir`, timing the recovery into `opens`. Returns the
/// store and the WAL records it replayed.
fn open(dir: &MemDir, opens: &mut Ops) -> std::io::Result<(ReputationStore, u64)> {
    let (store, recovery) =
        opens.time(|| ReputationStore::open(Box::new(dir.clone()), StorePolicy::default()))?;
    Ok((store, recovery.wal_records))
}

pub fn run(seed: u64, budget: Budget, traced: bool, out: &Path) -> Report {
    let def = if traced { &catalog::PER_LAYER[..] } else { &catalog::END_TO_END[..] };
    let mut report = Report::new("store256k", traced, seed, def);

    let dir = MemDir::new();
    let mut reference = Reference::default();
    if let Err(e) = populate(&dir, seed, &mut reference) {
        report.attempted += 1;
        report.failed += 1;
        report.failure_notes.push(format!("populating the store failed: {e}"));
    }
    let mut ops = Ops::with_capacity(1 << 14);
    let (mut staging, mut commits, mut compacting) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut opens = Ops::default();
    let (mut recovered_records, mut compactions, mut records_committed, mut outcomes_noted) =
        (0u64, 0u64, 0u64, 0u64);

    let started = Instant::now();
    let mut cycle = 0u32;
    'cycles: while cycle < budget.counted_units || started.elapsed().as_secs_f64() < budget.seconds
    {
        // Inputs first, untimed: the program receives only generated values.
        let mut rng = SplitMix64::new(derive_seed(seed, 0x7374_6f72_6500, u64::from(cycle)));
        let batches: Vec<Vec<(u64, u32, u32)>> = (0..COMMITS_PER_CYCLE)
            .map(|_| (0..OUTCOMES_PER_COMMIT).map(|_| outcome(&mut rng)).collect())
            .collect();

        let (mut store, wal_records) = match open(&dir, &mut opens) {
            Ok(opened) => opened,
            Err(e) => {
                report.attempted += 1;
                report.failed += 1;
                report.failure_notes.push(format!("cycle {cycle}: open failed: {e}"));
                break 'cycles;
            }
        };
        if let Some(diff) = reference.diff(&store, false) {
            report.failed += 1;
            report.failure_notes.push(format!("cycle {cycle}: after recovery, {diff}"));
        }
        let counted = cycle < budget.counted_units;
        if counted {
            recovered_records += wal_records;
        }

        for batch in &batches {
            let before = store.stats();
            let probe_before = host::probe();
            let t0 = Instant::now();
            for &(id, ok, failed) in batch {
                store.note_outcome(id, ok, failed);
            }
            let t1 = Instant::now();
            let receipt = store.commit_and_maybe_compact(COMPACT_THRESHOLD);
            let t2 = Instant::now();
            ops.push((t2 - t0).as_nanos() as u64, probe_before, host::probe());
            report.attempted += 1;
            match receipt {
                Ok(receipt) if receipt.records >= batch.len() as u64 => {
                    reference.ack(batch, &receipt)
                }
                Ok(receipt) => {
                    report.failed += 1;
                    report.failure_notes.push(format!(
                        "commit acknowledged {} of {} records",
                        receipt.records,
                        batch.len()
                    ));
                }
                Err(e) => {
                    report.failed += 1;
                    report.failure_notes.push(format!("commit failed: {e}"));
                }
            }
            let after = store.stats();
            staging.push((t1 - t0).as_nanos() as u64);
            let commit_ns = (t2 - t1).as_nanos() as u64;
            commits.push(commit_ns);
            if after.compactions > before.compactions {
                compacting.push(commit_ns);
            }
            if counted {
                compactions += after.compactions - before.compactions;
                records_committed += after.records_committed - before.records_committed;
                outcomes_noted += batch.len() as u64;
            }
        }
        cycle += 1;
    }

    let peak_heap_mb = crate::heap::peak_mb();

    // The final image, recovered once more and compared identity by identity.
    let final_state = match open(&dir, &mut Ops::default()) {
        Ok((store, _)) => {
            if let Some(diff) = reference.diff(&store, true) {
                report.failed += 1;
                report.failure_notes.push(format!("final recovery: {diff}"));
            }
            Some(store)
        }
        Err(e) => {
            report.failed += 1;
            report.failure_notes.push(format!("final open failed: {e}"));
            None
        }
    };
    report.failure_notes.truncate(12);

    let n = ops.len() as u64;
    if !traced {
        set_end_to_end(
            &mut report,
            peak_heap_mb,
            &ops.uncontended(),
            &opens.uncontended(),
            ops.contention(),
        );
        return report;
    }

    report.set("peak_rss_mb", peak_rss_mb(), 1);
    report.set(
        "store.store.note_outcome_us.b256",
        staging.percentile_us(50.0) / OUTCOMES_PER_COMMIT as f64,
        staging.len() as u64,
    );
    report.set_percentile(
        "store.store.commit_ms_p99",
        commits.percentile_ms(99.0),
        n,
        commits.beyond(99.0),
    );
    report.set(
        "store.store.compact_ms_p50",
        compacting.percentile_ms(50.0),
        compacting.len() as u64,
    );
    report.set("store.store.compactions", compactions as f64, 0);
    if outcomes_noted > 0 {
        report.set(
            "store.store.wal_bytes_per_outcome",
            (records_committed * FRAME_LEN as u64) as f64 / outcomes_noted as f64,
            0,
        );
    }
    report.set("store.store.recover_wal_records", recovered_records as f64, 0);
    small_batches(&mut report, seed);
    record_kernels(&mut report);
    if let Some(store) = &final_state {
        snapshot_kernels(&mut report, store);
    }
    if let Err(e) = real_files(&mut report, seed, out) {
        eprintln!("warning: FsDir pass skipped: {e}");
    }
    kernels::stateless(&mut report, seed);
    kernels::histogram_fidelity(&mut report, &ops.wall());
    let (share, factor) = ops.contention();
    report.set("attrib.host_contended_share", share, n);
    report.set("attrib.host_slowdown_p50", factor, n);
    report
}

/// `note_outcome` at batch 16: it scans the whole staged batch per call,
/// so its cost per call grows with the batch.
fn small_batches(report: &mut Report, seed: u64) {
    const BATCH: usize = 16;
    const ROUNDS: usize = 512;
    let mut rng = SplitMix64::new(derive_seed(seed, 0x6231_3600, 0));
    let Ok((mut store, _)) = ReputationStore::open(Box::new(MemDir::new()), StorePolicy::default())
    else {
        return;
    };
    let mut costs = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let batch: Vec<_> = (0..BATCH).map(|_| outcome(&mut rng)).collect();
        let start = Instant::now();
        for &(id, ok, failed) in &batch {
            store.note_outcome(id, ok, failed);
        }
        costs.push(start.elapsed().as_nanos() as f64 / BATCH as f64 / 1e3);
        if store.commit().is_err() {
            return;
        }
    }
    report.set("store.store.note_outcome_us.b16", median_f64(&costs), ROUNDS as u64);
}

fn record_kernels(report: &mut Report) {
    const CALLS: usize = 1 << 14;
    let frame = per_call_ns(CALLS, 256, |i| {
        let record =
            StoreRecord::Outcome { seq: i as u64, identity: identity(i as u64), ok: 30, failed: 1 };
        black_box(black_box(record).encode_frame());
    });
    report.set("store.record.encode_frame_us", frame / 1e3, CALLS as u64);
    let kb = vec![0x5au8; 1024];
    let crc = per_call_ns(CALLS, 256, |_| {
        black_box(crc32(black_box(&kb)));
    });
    report.set("store.record.crc32_us_per_kb", crc / 1e3, CALLS as u64);
}

fn snapshot_kernels(report: &mut Report, store: &ReputationStore) {
    const REPS: usize = 5;
    let mut image = Vec::new();
    let encode = per_call_ns(REPS, 1, |_| image = encode_snapshot(black_box(store.state())));
    let decode = per_call_ns(REPS, 1, |_| {
        black_box(decode_snapshot(black_box(&image)).is_ok());
    });
    report.set("store.snapshot.encode_ms", encode / 1e6, REPS as u64);
    report.set("store.snapshot.decode_ms", decode / 1e6, REPS as u64);
}

/// A short pass on real files (ungated): what `MemDir` leaves out is the
/// file system — write, fsync, rename.
fn real_files(report: &mut Report, seed: u64, out: &Path) -> std::io::Result<()> {
    const COMMITS: usize = 48;
    let root = out.join(format!("fsdir-{}", std::process::id()));
    let result = (|| {
        let mut rng = SplitMix64::new(derive_seed(seed, 0x6673_6469_7200, 0));
        let dir: Box<dyn Dir> = Box::new(FsDir::open(&root)?);
        let (mut store, _) = ReputationStore::open(dir, StorePolicy::default())?;
        let mut commits = Samples::default();
        for _ in 0..COMMITS {
            for _ in 0..OUTCOMES_PER_COMMIT {
                let (id, ok, failed) = outcome(&mut rng);
                store.note_outcome(id, ok, failed);
            }
            let start = Instant::now();
            store.commit_and_maybe_compact(COMPACT_THRESHOLD)?;
            commits.push_since(start);
        }
        drop(store);
        report.set("store.io.fs_commit_ms_p50", commits.percentile_ms(50.0), COMMITS as u64);
        let start = Instant::now();
        black_box(ReputationStore::open(Box::new(FsDir::open(&root)?), StorePolicy::default())?);
        report.set("store.io.fs_recover_ms", start.elapsed().as_secs_f64() * 1e3, 1);
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&root);
    result
}
