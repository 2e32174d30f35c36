//! Crash-safe durable reputation store for cross-match bans.
//!
//! The Watchmen paper's reputation system ranks players by how often
//! their interactions are tagged suspicious — but a reputation that
//! evaporates when the match ends (or the process dies) cannot back a
//! *ban*. This crate persists the per-identity interaction totals and
//! explicit ban decisions across matches and across crashes:
//!
//! * [`record`] — checksummed, length-prefixed WAL frames, one per
//!   committed run of up to 256 [`StoreRecord`]s, and the CRC-32 itself,
//!   on the CPU's carry-less multiply where it has one;
//! * [`log`] — the scan-to-last-valid recovery scanner ([`scan_log`])
//!   tolerating torn tails, bit flips, and duplicated batches;
//! * [`snapshot`] — whole-state images with a trailing CRC, written to
//!   two alternating slots so a torn compaction never loses the good copy;
//! * [`state`] — the pure, seq-idempotent fold ([`RepState`]: sorted
//!   columns behind a radix directory) and the cross-match ban policy
//!   ([`StorePolicy`]);
//! * [`io`] — the [`Dir`] storage abstraction: a real directory
//!   ([`FsDir`]), an in-memory crash-simulating one ([`MemDir`]), and a
//!   deterministic fault-injection shim ([`FaultDir`]) scripted by a
//!   [`FaultSpec`];
//! * [`store`] — the [`ReputationStore`] facade: stage, commit
//!   (append + fsync, *then* ack), compact, recover.
//!
//! The durability contract in one line: **a commit receipt means the
//! batch survives any crash; absence of a receipt means the batch may
//! be lost but never corrupts what was already acked.** Bans are
//! explicit records, never re-derived from counts at recovery, so a
//! crash can delay a ban (recovery re-stages it) but cannot invent one.
//!
//! The crate is `deny(unsafe_code)` with one private module allowed,
//! `record::clmul`: a single call of a `#[target_feature]` function
//! straight after the run-time detection that makes it sound — the same
//! shape, and the only other use in the workspace, as `watchmen_crypto`'s
//! SHA-256 kernel. It lives here because the checksum is part of this
//! crate's file format.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod io;
pub mod log;
pub mod record;
pub mod snapshot;
pub mod state;
pub mod store;

pub use crate::io::{Dir, FaultDir, FaultSpec, FaultStats, FsDir, MemDir};
pub use crate::log::{scan_log, LogScanReport};
pub use crate::record::{crc32, decode_frame, FrameError, StoreRecord, FRAME_LEN, FRAME_MAGIC};
#[doc(hidden)]
pub use crate::record::{crc32_bitwise, crc32_table};
pub use crate::snapshot::{decode_snapshot, encode_snapshot, snapshot_matches, SnapshotError};
pub use crate::state::{IdentityEntry, RepState, StorePolicy};
pub use crate::store::{
    CommitReceipt, RecoveryReport, ReputationStore, StoreStats, StoreTimings, SNAP_SLOTS, WAL_FILE,
};
