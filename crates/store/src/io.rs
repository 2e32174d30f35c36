//! Storage backends and the deterministic fault-injecting shim.
//!
//! The store never touches `std::fs` directly — every byte flows through
//! the [`Dir`] trait, a tiny directory-of-files abstraction with exactly
//! the operations a write-ahead log needs: append, fsync, atomic
//! replace, read. Three implementations:
//!
//! * [`FsDir`] — the production backend over a real directory;
//! * [`MemDir`] — an in-memory directory with an explicit *durability
//!   line* per file (bytes before it survived an fsync; bytes after it
//!   live in the page cache and die in a crash), shared between handles
//!   so a test can "reboot" a store against the same media;
//! * [`FaultDir`] — a wrapper over either that injects deterministic
//!   faults from a [`FaultSpec`] (`WATCHMEN_STORE_FAULTS`): short
//!   writes, failed fsyncs, torn replaces, and scripted crash points.
//!
//! A crash point in a [`MemDir`] truncates every file's volatile tail to
//! a pseudo-random surviving prefix (optionally flipping a bit in it —
//! the classic torn-write + media-corruption model); in an [`FsDir`] it
//! aborts the process, which is what the kill-and-restart crash-loop
//! harness leans on for *real* mid-write crashes at scripted offsets.
//!
//! # Durability of directory entries
//!
//! On a real file system a file's fsync makes its *bytes* durable, not
//! the directory entry that names it. [`FsDir`] therefore fsyncs the
//! directory whenever an entry appears or moves: after the rename in
//! `replace`, and after each handle's first `append` to a file, whether
//! or not the file was already there — a WAL created by an earlier
//! process, or by an append that then failed, exists without its entry
//! being durable. Once per file per open, so steady-state commits pay
//! nothing (after that the WAL's entry only ever moves by `replace`).
//! No test here can observe the difference: it only shows after a power
//! cut, which neither [`MemDir`]'s crash model (it has no directory
//! entries to lose) nor a killed process (the kernel keeps its cache)
//! reproduces.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use watchmen_crypto::rng::SplitMix64;
use watchmen_telemetry::spec;

/// A directory of named, append-oriented files — the store's entire
/// view of stable storage.
pub trait Dir: Send {
    /// Reads a file's full contents, or `None` if it does not exist.
    ///
    /// # Errors
    ///
    /// Propagates backend I/O errors.
    fn read(&mut self, name: &str) -> io::Result<Option<Vec<u8>>>;

    /// Appends bytes to a file (creating it), returning how many bytes
    /// were actually written — **may be short**, like `Write::write`;
    /// callers loop. Appended bytes are *not* durable until
    /// [`Dir::sync`] succeeds.
    ///
    /// # Errors
    ///
    /// Propagates backend I/O errors.
    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<usize>;

    /// Forces a file's appended bytes to stable storage.
    ///
    /// # Errors
    ///
    /// Propagates backend I/O errors; on error, none, some, or all of
    /// the unsynced bytes may have reached the media.
    fn sync(&mut self, name: &str) -> io::Result<()>;

    /// Atomically replaces a file's contents (write temp, sync, rename)
    /// so the file holds either the old or the new bytes, durably, on
    /// return. The fault shim can violate this — which is why the store
    /// verifies snapshots by read-back before trusting them.
    ///
    /// # Errors
    ///
    /// Propagates backend I/O errors.
    fn replace(&mut self, name: &str, bytes: &[u8]) -> io::Result<()>;

    /// Simulates (or performs) a crash at this instant: volatile bytes
    /// are lost, possibly leaving a torn, bit-flipped tail. [`MemDir`]
    /// mutates its shared state and returns; [`FsDir`] aborts the
    /// process.
    fn crash(&mut self, rng: &mut SplitMix64, flip_bits: bool);
}

// ---------------------------------------------------------------------
// FsDir
// ---------------------------------------------------------------------

/// The production backend: one real directory.
#[derive(Debug)]
pub struct FsDir {
    root: PathBuf,
    /// Files this handle has appended to and then fsynced the directory
    /// for (module docs, "Durability of directory entries").
    entry_synced: BTreeSet<String>,
}

impl FsDir {
    /// Opens (creating if needed) the directory at `root`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from directory creation.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(FsDir { root, entry_synced: BTreeSet::new() })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Makes a created or renamed directory entry durable (best effort:
    /// not every platform lets a directory be fsynced through std).
    fn sync_root(&self) {
        if let Ok(dir) = std::fs::File::open(&self.root) {
            let _ = dir.sync_all();
        }
    }
}

impl Dir for FsDir {
    fn read(&mut self, name: &str) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(self.path(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<usize> {
        use std::io::Write as _;
        let mut file =
            std::fs::OpenOptions::new().create(true).append(true).open(self.path(name))?;
        file.write_all(bytes)?;
        if !self.entry_synced.contains(name) {
            // `sync` reaches the file's bytes, not the entry naming it.
            self.sync_root();
            self.entry_synced.insert(name.to_owned());
        }
        Ok(bytes.len())
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        std::fs::OpenOptions::new().read(true).open(self.path(name))?.sync_all()
    }

    fn replace(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let tmp = self.path(&format!("{name}.tmp"));
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(bytes)?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, self.path(name))?;
        self.sync_root();
        Ok(())
    }

    fn crash(&mut self, _rng: &mut SplitMix64, _flip_bits: bool) {
        // A real crash: the kernel keeps whatever it already has. The
        // crash-loop harness restarts the process and recovers.
        std::process::abort();
    }
}

// ---------------------------------------------------------------------
// MemDir
// ---------------------------------------------------------------------

#[derive(Debug, Default, Clone)]
struct MemFile {
    /// Full contents, including bytes not yet fsynced.
    data: Vec<u8>,
    /// Bytes `..durable` survived the last successful sync.
    durable: usize,
}

#[derive(Debug, Default)]
struct MemDirInner {
    files: BTreeMap<String, MemFile>,
}

/// An in-memory directory with crash semantics. Handles are cheap
/// clones sharing the same media, so a test can hand one handle to a
/// store, crash it, and reopen a fresh store over the surviving bytes.
#[derive(Debug, Clone, Default)]
pub struct MemDir {
    inner: Arc<Mutex<MemDirInner>>,
}

impl MemDir {
    /// A fresh, empty in-memory directory.
    #[must_use]
    pub fn new() -> Self {
        MemDir::default()
    }

    /// Total bytes currently held (durable or not) in `name`.
    #[must_use]
    pub fn len(&self, name: &str) -> usize {
        self.inner.lock().expect("memdir lock").files.get(name).map_or(0, |f| f.data.len())
    }

    /// Whether the directory holds no files.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.lock().expect("memdir lock").files.is_empty()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemDirInner> {
        self.inner.lock().expect("memdir lock")
    }
}

impl Dir for MemDir {
    fn read(&mut self, name: &str) -> io::Result<Option<Vec<u8>>> {
        Ok(self.lock().files.get(name).map(|f| f.data.clone()))
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<usize> {
        let mut inner = self.lock();
        let file = inner.files.entry(name.to_owned()).or_default();
        file.data.extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        let mut inner = self.lock();
        if let Some(file) = inner.files.get_mut(name) {
            file.durable = file.data.len();
        }
        Ok(())
    }

    fn replace(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let mut inner = self.lock();
        inner.files.insert(name.to_owned(), MemFile { data: bytes.to_vec(), durable: bytes.len() });
        Ok(())
    }

    fn crash(&mut self, rng: &mut SplitMix64, flip_bits: bool) {
        let mut inner = self.lock();
        for file in inner.files.values_mut() {
            let volatile = file.data.len() - file.durable;
            if volatile == 0 {
                continue;
            }
            // A pseudo-random prefix of the unsynced tail survives the
            // crash (the kernel flushed some pages, not others)…
            let survives = (rng.next_u64() % (volatile as u64 + 1)) as usize;
            file.data.truncate(file.durable + survives);
            // …and the surviving torn region may come back corrupted.
            if flip_bits && survives > 0 && rng.next_u64().is_multiple_of(2) {
                let at = file.durable + (rng.next_u64() % survives as u64) as usize;
                file.data[at] ^= 1 << (rng.next_u64() % 8);
            }
        }
    }
}

// ---------------------------------------------------------------------
// FaultSpec + FaultDir
// ---------------------------------------------------------------------

/// Deterministic fault plan for a [`FaultDir`], parsed from the
/// `WATCHMEN_STORE_FAULTS` spec (mirroring the simnet's
/// `WATCHMEN_FAULTS` style): comma-separated `key=value` entries.
///
/// * `seed=<u64>` — RNG stream for every probabilistic draw;
/// * `short=<permille>` — probability an append writes only a random
///   prefix of the buffer (the caller sees the short count and loops);
/// * `fsync_fail=<permille>` — probability a sync returns an error
///   without making anything durable;
/// * `torn_replace=<permille>` — probability an atomic replace writes
///   only a durable *prefix* of the new contents (a broken rename);
/// * `crash_at=<n>` — crash on the `n`-th I/O operation (1-based,
///   counting appends, syncs and replaces);
/// * `flip=0|1` — whether a crash may flip one bit in the torn tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// RNG seed for every probabilistic draw.
    pub seed: u64,
    /// Short-write probability, in permille.
    pub short_permille: u32,
    /// Failed-fsync probability, in permille.
    pub fsync_fail_permille: u32,
    /// Torn-replace probability, in permille.
    pub torn_replace_permille: u32,
    /// Crash on this I/O operation (0 = never).
    pub crash_at_op: u64,
    /// Whether crashes may flip a bit in the surviving torn tail.
    pub flip_bits: bool,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 1,
            short_permille: 0,
            fsync_fail_permille: 0,
            torn_replace_permille: 0,
            crash_at_op: 0,
            flip_bits: false,
        }
    }
}

impl FaultSpec {
    /// Parses a comma-separated spec (see the type docs for keys).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or unknown entry.
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        let mut out = FaultSpec::default();
        for pair in spec::pairs(spec) {
            let (key, value) = pair?;
            match key {
                "seed" => out.seed = spec::num(key, value)?,
                "short" => out.short_permille = spec::num(key, value)?,
                "fsync_fail" => out.fsync_fail_permille = spec::num(key, value)?,
                "torn_replace" => out.torn_replace_permille = spec::num(key, value)?,
                "crash_at" => out.crash_at_op = spec::num(key, value)?,
                "flip" => out.flip_bits = spec::num::<u64>(key, value)? != 0,
                other => return Err(format!("unknown store fault knob {other:?}")),
            }
        }
        for (name, p) in [
            ("short", out.short_permille),
            ("fsync_fail", out.fsync_fail_permille),
            ("torn_replace", out.torn_replace_permille),
        ] {
            if p > 1000 {
                return Err(format!("{name} permille {p} exceeds 1000"));
            }
        }
        Ok(out)
    }

    /// Reads `WATCHMEN_STORE_FAULTS`; `None` when unset or empty.
    ///
    /// # Panics
    ///
    /// Panics if the variable is set but malformed — a misspelled fault
    /// plan must fail loudly, not silently run an un-faulted store.
    #[must_use]
    pub fn from_env() -> Option<Self> {
        spec::from_env("WATCHMEN_STORE_FAULTS", Self::from_spec)
    }
}

/// Counters of faults a [`FaultDir`] actually injected.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Appends cut short.
    pub short_writes: u64,
    /// Syncs that returned an error.
    pub failed_syncs: u64,
    /// Replaces that left a torn prefix.
    pub torn_replaces: u64,
    /// Whether the scripted crash point fired.
    pub crashed: bool,
}

/// Wraps any [`Dir`] and injects the faults a [`FaultSpec`] scripts.
/// All draws come from one seeded [`SplitMix64`], so a given spec
/// produces the identical fault sequence every run.
#[derive(Debug)]
pub struct FaultDir<D: Dir> {
    inner: D,
    spec: FaultSpec,
    rng: SplitMix64,
    ops: u64,
    stats: FaultStats,
}

impl<D: Dir> FaultDir<D> {
    /// Wraps `inner` under `spec`.
    #[must_use]
    pub fn new(inner: D, spec: FaultSpec) -> Self {
        FaultDir {
            inner,
            spec,
            rng: SplitMix64::new(spec.seed),
            ops: 0,
            stats: FaultStats::default(),
        }
    }

    /// What the shim injected so far.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    fn roll(&mut self, permille: u32) -> bool {
        permille > 0 && self.rng.next_u64() % 1000 < u64::from(permille)
    }

    /// Counts one I/O op; fires the scripted crash when its turn comes.
    /// Returns `true` if the crash fired (in-memory backends survive the
    /// call; the caller sees every later op fail).
    fn tick_op(&mut self) -> bool {
        self.ops += 1;
        if self.spec.crash_at_op != 0 && self.ops == self.spec.crash_at_op {
            self.stats.crashed = true;
            let flip = self.spec.flip_bits;
            self.inner.crash(&mut self.rng, flip);
            return true;
        }
        self.stats.crashed
    }

    fn crashed_err() -> io::Error {
        io::Error::other("store media crashed (scripted fault)")
    }
}

impl<D: Dir> Dir for FaultDir<D> {
    fn read(&mut self, name: &str) -> io::Result<Option<Vec<u8>>> {
        if self.stats.crashed {
            return Err(Self::crashed_err());
        }
        self.inner.read(name)
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<usize> {
        if self.tick_op() {
            return Err(Self::crashed_err());
        }
        if !bytes.is_empty() && self.roll(self.spec.short_permille) {
            let keep = 1 + (self.rng.next_u64() % bytes.len() as u64) as usize;
            if keep < bytes.len() {
                self.stats.short_writes += 1;
                return self.inner.append(name, &bytes[..keep]);
            }
        }
        self.inner.append(name, bytes)
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        if self.tick_op() {
            return Err(Self::crashed_err());
        }
        if self.roll(self.spec.fsync_fail_permille) {
            self.stats.failed_syncs += 1;
            return Err(io::Error::other("injected fsync failure"));
        }
        self.inner.sync(name)
    }

    fn replace(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        if self.tick_op() {
            return Err(Self::crashed_err());
        }
        if !bytes.is_empty() && self.roll(self.spec.torn_replace_permille) {
            let keep = (self.rng.next_u64() % bytes.len() as u64) as usize;
            self.stats.torn_replaces += 1;
            return self.inner.replace(name, &bytes[..keep]);
        }
        self.inner.replace(name, bytes)
    }

    fn crash(&mut self, rng: &mut SplitMix64, flip_bits: bool) {
        self.stats.crashed = true;
        self.inner.crash(rng, flip_bits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memdir_append_sync_read_round_trip() {
        let mut dir = MemDir::new();
        assert_eq!(dir.read("wal").expect("read"), None);
        assert_eq!(dir.append("wal", b"abc").expect("append"), 3);
        dir.sync("wal").expect("sync");
        assert_eq!(dir.append("wal", b"def").expect("append"), 3);
        assert_eq!(dir.read("wal").expect("read").expect("exists"), b"abcdef");
        assert_eq!(dir.len("wal"), 6);
    }

    #[test]
    fn memdir_crash_keeps_durable_prefix_only_plus_torn_tail() {
        for seed in 0..64 {
            let mut dir = MemDir::new();
            dir.append("wal", b"durable!").expect("append");
            dir.sync("wal").expect("sync");
            dir.append("wal", b"volatile-tail").expect("append");
            let mut rng = SplitMix64::new(seed);
            dir.crash(&mut rng, false);
            let data = dir.read("wal").expect("read").expect("exists");
            assert!(data.len() >= 8, "durable bytes lost at seed {seed}");
            assert_eq!(&data[..8], b"durable!");
            assert!(data.len() <= 8 + 13);
        }
    }

    #[test]
    fn memdir_handles_share_media() {
        let dir = MemDir::new();
        let mut a = dir.clone();
        let mut b = dir.clone();
        a.append("wal", b"xy").expect("append");
        assert_eq!(b.read("wal").expect("read").expect("exists"), b"xy");
    }

    #[test]
    fn fault_spec_parses_and_rejects_junk() {
        let spec = FaultSpec::from_spec("seed=9,short=50,fsync_fail=10,crash_at=7,flip=1")
            .expect("valid spec");
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.short_permille, 50);
        assert_eq!(spec.fsync_fail_permille, 10);
        assert_eq!(spec.crash_at_op, 7);
        assert!(spec.flip_bits);
        assert!(FaultSpec::from_spec("short").is_err(), "missing value");
        assert!(FaultSpec::from_spec("bogus=1").is_err(), "unknown knob");
        assert!(FaultSpec::from_spec("short=abc").is_err(), "bad number");
        assert!(FaultSpec::from_spec("short=1001").is_err(), "permille out of range");
        // 2^32 + 1000: a u64 parse cast to u32 wrapped this to a valid 1000.
        assert!(FaultSpec::from_spec("short=4294968296").is_err(), "must not wrap into range");
        assert_eq!(FaultSpec::from_spec("").expect("empty is defaults"), FaultSpec::default());
    }

    #[test]
    fn fault_dir_injects_deterministically() {
        let run = |spec: FaultSpec| {
            let mut dir = FaultDir::new(MemDir::new(), spec);
            let mut written = Vec::new();
            for i in 0..200u32 {
                let n = dir.append("wal", &i.to_le_bytes()).expect("append");
                written.push(n);
                let _ = dir.sync("wal");
            }
            (written, dir.stats())
        };
        let spec = FaultSpec {
            seed: 42,
            short_permille: 200,
            fsync_fail_permille: 100,
            ..FaultSpec::default()
        };
        let (a, sa) = run(spec);
        let (b, sb) = run(spec);
        assert_eq!(a, b, "fault sequence must be deterministic");
        assert_eq!(sa, sb);
        assert!(sa.short_writes > 0, "short writes never fired: {sa:?}");
        assert!(sa.failed_syncs > 0, "fsync failures never fired: {sa:?}");
    }

    #[test]
    fn fault_dir_scripted_crash_kills_the_media() {
        let media = MemDir::new();
        let spec = FaultSpec { crash_at_op: 3, ..FaultSpec::default() };
        let mut dir = FaultDir::new(media.clone(), spec);
        dir.append("wal", b"one").expect("op 1");
        dir.sync("wal").expect("op 2");
        assert!(dir.append("wal", b"two").is_err(), "op 3 crashes");
        assert!(dir.stats().crashed);
        assert!(dir.append("wal", b"three").is_err(), "dead media stays dead");
        // The durable prefix survived on the shared media.
        let mut after = media;
        let data = after.read("wal").expect("read").expect("exists");
        assert!(data.starts_with(b"one"));
    }

    #[test]
    fn torn_replace_leaves_a_prefix() {
        let spec = FaultSpec { seed: 5, torn_replace_permille: 1000, ..FaultSpec::default() };
        let mut dir = FaultDir::new(MemDir::new(), spec);
        dir.replace("snap", b"full snapshot contents").expect("replace");
        assert_eq!(dir.stats().torn_replaces, 1);
        let got = dir.read("snap").expect("read").expect("exists");
        assert!(got.len() < b"full snapshot contents".len(), "replace should tear");
        assert!(b"full snapshot contents".starts_with(&got[..]));
    }

    #[test]
    fn fsdir_round_trips_and_replaces_atomically() {
        let root = std::env::temp_dir().join(format!("watchmen_store_io_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut dir = FsDir::open(&root).expect("open");
        assert_eq!(dir.read("wal").expect("read"), None);
        dir.append("wal", b"abc").expect("append");
        dir.sync("wal").expect("sync");
        dir.append("wal", b"def").expect("append");
        assert_eq!(dir.read("wal").expect("read").expect("exists"), b"abcdef");
        dir.replace("snap", b"v1").expect("replace");
        dir.replace("snap", b"v2-longer").expect("replace");
        assert_eq!(dir.read("snap").expect("read").expect("exists"), b"v2-longer");
        std::fs::remove_dir_all(&root).expect("cleanup");
    }
}
