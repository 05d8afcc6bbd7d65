//! Storage as a capability: the [`SimFs`] trait, the passthrough
//! [`RealFs`], the store-nothing [`NoDisk`], the append-buffering
//! [`WriteBehind`] adapter, and the fault-injecting in-memory
//! [`SimDisk`].
//!
//! The operations are exactly the ones an atomic-checkpoint path needs
//! — write, fsync, rename, read, list, remove — each a *separate* call
//! so a simulated crash can land between any two of them. [`SimDisk`]
//! models what cheap storage actually does under power loss:
//!
//! * **torn writes** — data written but not fsynced survives a crash
//!   only as a prefix, cut at a seeded byte boundary;
//! * **unjournaled renames** — a rename can be left volatile (the
//!   classic non-journaling-filesystem hazard), so after a crash the
//!   file exists at its final name *with torn contents*;
//! * **bit rot** — a crash can flip one bit in an otherwise durable
//!   file.
//!
//! All injection is driven by a seeded RNG: the same seed tears the
//! same writes at the same boundaries on every run.

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A failed filesystem operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsError {
    /// The path involved.
    pub path: PathBuf,
    /// Rendered cause.
    pub detail: String,
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fs error at {}: {}", self.path.display(), self.detail)
    }
}

impl std::error::Error for FsError {}

fn fs_err(path: &Path, detail: impl fmt::Display) -> FsError {
    FsError {
        path: path.to_path_buf(),
        detail: detail.to_string(),
    }
}

/// The filesystem surface a crash-safe persistence path is written
/// against. Every step of an atomic write (data, fsync, rename) is its
/// own call so a simulator can crash between any two.
pub trait SimFs: Send + Sync + fmt::Debug {
    /// Creates `dir` and its parents.
    ///
    /// # Errors
    ///
    /// [`FsError`] when the directory cannot be created.
    fn create_dir_all(&self, dir: &Path) -> Result<(), FsError>;

    /// Creates (or truncates) `path` with `bytes`. The data is *not*
    /// durable until [`SimFs::sync`] succeeds on the same path.
    ///
    /// # Errors
    ///
    /// [`FsError`] on any write failure.
    fn write_file(&self, path: &Path, bytes: &[u8]) -> Result<(), FsError>;

    /// Appends `bytes` to `path`, creating it when absent. Like
    /// [`SimFs::write_file`] the appended suffix is volatile until
    /// [`SimFs::sync`]; unlike a truncating rewrite, the previously
    /// synced prefix stays durable, so a crash between append and sync
    /// tears the *tail* only — the hazard an append-only log's
    /// record CRCs and recovery truncation exist to absorb.
    ///
    /// # Errors
    ///
    /// [`FsError`] on any write failure.
    fn append(&self, path: &Path, bytes: &[u8]) -> Result<(), FsError>;

    /// Makes previously written data at `path` durable (fsync).
    ///
    /// # Errors
    ///
    /// [`FsError`] when the sync fails (the data stays volatile).
    fn sync(&self, path: &Path) -> Result<(), FsError>;

    /// Atomically renames `from` to `to`. Durability of the rename
    /// itself is implementation-defined (see [`SimDiskProfile`]).
    ///
    /// # Errors
    ///
    /// [`FsError`] when the rename fails.
    fn rename(&self, from: &Path, to: &Path) -> Result<(), FsError>;

    /// Reads the current contents of `path` (volatile writes included).
    ///
    /// # Errors
    ///
    /// [`FsError`] when the file is absent or unreadable.
    fn read(&self, path: &Path) -> Result<Vec<u8>, FsError>;

    /// Lists the files directly inside `dir`. A missing directory is an
    /// empty listing, not an error — recovery paths probe directories
    /// that may never have been created.
    ///
    /// # Errors
    ///
    /// [`FsError`] on listing failures other than absence.
    fn list(&self, dir: &Path) -> Result<Vec<PathBuf>, FsError>;

    /// Removes `path`.
    ///
    /// # Errors
    ///
    /// [`FsError`] when the file is absent or cannot be removed.
    fn remove_file(&self, path: &Path) -> Result<(), FsError>;
}

/// Passthrough to `std::fs` — the implementation a real deployment
/// runs on.
#[derive(Debug, Clone, Default)]
pub struct RealFs;

impl SimFs for RealFs {
    fn create_dir_all(&self, dir: &Path) -> Result<(), FsError> {
        std::fs::create_dir_all(dir).map_err(|e| fs_err(dir, e))
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> Result<(), FsError> {
        let mut f = std::fs::File::create(path).map_err(|e| fs_err(path, e))?;
        f.write_all(bytes).map_err(|e| fs_err(path, e))
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> Result<(), FsError> {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)
            .map_err(|e| fs_err(path, e))?;
        f.write_all(bytes).map_err(|e| fs_err(path, e))
    }

    fn sync(&self, path: &Path) -> Result<(), FsError> {
        // Re-open for sync: the trait is stateless by design so a
        // simulator can interpose between write and sync.
        let f = std::fs::File::open(path).map_err(|e| fs_err(path, e))?;
        f.sync_all().map_err(|e| fs_err(path, e))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), FsError> {
        std::fs::rename(from, to).map_err(|e| fs_err(from, e))
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>, FsError> {
        std::fs::read(path).map_err(|e| fs_err(path, e))
    }

    fn list(&self, dir: &Path) -> Result<Vec<PathBuf>, FsError> {
        match std::fs::read_dir(dir) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(fs_err(dir, e)),
            Ok(entries) => {
                let mut out = Vec::new();
                for entry in entries {
                    out.push(entry.map_err(|e| fs_err(dir, e))?.path());
                }
                out.sort();
                Ok(out)
            }
        }
    }

    fn remove_file(&self, path: &Path) -> Result<(), FsError> {
        std::fs::remove_file(path).map_err(|e| fs_err(path, e))
    }
}

/// A filesystem with no backing store: every write succeeds and is
/// forgotten, every read finds nothing. A caller that keeps its own
/// in-memory copy (an effect log's records) runs over it unchanged,
/// and a reopen after a crash starts empty.
#[derive(Debug, Clone, Default)]
pub struct NoDisk;

impl SimFs for NoDisk {
    fn create_dir_all(&self, _dir: &Path) -> Result<(), FsError> {
        Ok(())
    }

    fn write_file(&self, _path: &Path, _bytes: &[u8]) -> Result<(), FsError> {
        Ok(())
    }

    fn append(&self, _path: &Path, _bytes: &[u8]) -> Result<(), FsError> {
        Ok(())
    }

    fn sync(&self, _path: &Path) -> Result<(), FsError> {
        Ok(())
    }

    fn rename(&self, _from: &Path, _to: &Path) -> Result<(), FsError> {
        Ok(())
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>, FsError> {
        Err(fs_err(path, "no backing store"))
    }

    fn list(&self, _dir: &Path) -> Result<Vec<PathBuf>, FsError> {
        Ok(Vec::new())
    }

    fn remove_file(&self, _path: &Path) -> Result<(), FsError> {
        Ok(())
    }
}

/// A write-behind adapter over another filesystem: an append, and the
/// sync that follows it, cost no I/O. The bytes wait in memory until
/// the next operation that reads, rewrites, renames or removes a file,
/// which first writes and fsyncs them in order — so a checkpoint
/// written through the adapter carries the appends before it to disk.
/// A process that dies in between loses the buffered tail: the tear a
/// crash between append and sync leaves.
#[derive(Debug)]
pub struct WriteBehind<F> {
    inner: F,
    /// Appends not yet handed to `inner`, oldest first; consecutive
    /// appends to one path share an entry.
    pending: Mutex<Vec<(PathBuf, Vec<u8>)>>,
    /// Held across every write to `inner`, so writes reach it in order
    /// while appends go on buffering.
    writing: Mutex<()>,
}

impl<F: SimFs> WriteBehind<F> {
    /// Buffers appends in front of `inner`.
    pub fn new(inner: F) -> Self {
        WriteBehind {
            inner,
            pending: Mutex::new(Vec::new()),
            writing: Mutex::new(()),
        }
    }

    /// Writes and fsyncs every buffered append, oldest first, and
    /// returns the write lock for the caller's own operation. On an
    /// error, what was left unwritten stays buffered, ahead of anything
    /// appended since.
    fn flushed(&self) -> Result<MutexGuard<'_, ()>, FsError> {
        let order = self.writing.lock().expect("write lock poisoned");
        let mut batch =
            std::mem::take(&mut *self.pending.lock().expect("buffer poisoned")).into_iter();
        while let Some((path, bytes)) = batch.next() {
            if let Err(e) = self
                .inner
                .append(&path, &bytes)
                .and_then(|()| self.inner.sync(&path))
            {
                let mut pending = self.pending.lock().expect("buffer poisoned");
                let later = std::mem::take(&mut *pending);
                pending.push((path, bytes));
                pending.extend(batch.chain(later));
                return Err(e);
            }
        }
        Ok(order)
    }
}

impl<F: SimFs> SimFs for WriteBehind<F> {
    fn create_dir_all(&self, dir: &Path) -> Result<(), FsError> {
        self.inner.create_dir_all(dir)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> Result<(), FsError> {
        let _order = self.flushed()?;
        self.inner.write_file(path, bytes)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> Result<(), FsError> {
        let mut pending = self.pending.lock().expect("buffer poisoned");
        match pending.last_mut() {
            Some((last, buf)) if last == path => buf.extend_from_slice(bytes),
            _ => pending.push((path.to_path_buf(), bytes.to_vec())),
        }
        Ok(())
    }

    fn sync(&self, path: &Path) -> Result<(), FsError> {
        // A buffered append is synced by the flush that writes it.
        let pending = self.pending.lock().expect("buffer poisoned");
        if pending.iter().any(|(p, _)| p == path) {
            return Ok(());
        }
        drop(pending);
        self.inner.sync(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), FsError> {
        let _order = self.flushed()?;
        self.inner.rename(from, to)
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>, FsError> {
        let _order = self.flushed()?;
        self.inner.read(path)
    }

    fn list(&self, dir: &Path) -> Result<Vec<PathBuf>, FsError> {
        let _order = self.flushed()?;
        self.inner.list(dir)
    }

    fn remove_file(&self, path: &Path) -> Result<(), FsError> {
        let _order = self.flushed()?;
        self.inner.remove_file(path)
    }
}

/// How durable a file's current contents are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Durability {
    /// Fully on disk; survives a crash intact.
    Synced,
    /// Data written but not fsynced; tears on crash.
    PendingData,
    /// Data synced but the rename that placed it here is unjournaled;
    /// tears on crash (the file keeps its final name — the hazard the
    /// checkpoint CRC defends against).
    PendingRename,
}

#[derive(Debug, Clone)]
struct FileState {
    content: Vec<u8>,
    durability: Durability,
    /// Length of the durable prefix: a crash never tears below this.
    /// `write_file` resets it to 0 (the whole rewrite is volatile);
    /// `append` leaves it alone (the old prefix stays safe); `sync`
    /// raises it to the full length.
    synced_len: usize,
}

/// Fault-injection tuning for a [`SimDisk`].
#[derive(Debug, Clone)]
pub struct SimDiskProfile {
    /// Probability that a rename is left unjournaled (volatile) — its
    /// target tears if a crash lands before the next sync of that path.
    pub torn_rename_prob: f64,
    /// Probability that a crash flips one bit in one surviving durable
    /// file (bit rot).
    pub bit_rot_prob: f64,
}

impl Default for SimDiskProfile {
    /// A hostile but not absurd disk: a quarter of renames volatile,
    /// bit rot on one crash in twenty.
    fn default() -> Self {
        SimDiskProfile {
            torn_rename_prob: 0.25,
            bit_rot_prob: 0.05,
        }
    }
}

impl SimDiskProfile {
    /// A perfectly well-behaved disk (every operation durable); crashes
    /// still tear unsynced writes, because nothing can save those.
    pub fn pristine() -> Self {
        SimDiskProfile {
            torn_rename_prob: 0.0,
            bit_rot_prob: 0.0,
        }
    }
}

/// Operation counters a simulation can assert against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimDiskStats {
    /// `write_file` calls.
    pub writes: u64,
    /// `sync` calls.
    pub syncs: u64,
    /// `rename` calls.
    pub renames: u64,
    /// Crashes simulated.
    pub crashes: u64,
    /// Files left torn (truncated) by crashes.
    pub torn_files: u64,
    /// Bits flipped by crashes.
    pub bit_flips: u64,
}

#[derive(Debug)]
struct DiskInner {
    files: BTreeMap<PathBuf, FileState>,
    rng: StdRng,
    profile: SimDiskProfile,
    stats: SimDiskStats,
}

/// An in-memory filesystem with seeded crash semantics. See the module
/// docs for the fault model.
#[derive(Debug)]
pub struct SimDisk {
    inner: Mutex<DiskInner>,
}

impl SimDisk {
    /// A disk with the given fault profile, torn boundaries and rot
    /// driven by `seed`.
    pub fn new(seed: u64, profile: SimDiskProfile) -> Self {
        SimDisk {
            inner: Mutex::new(DiskInner {
                files: BTreeMap::new(),
                rng: StdRng::seed_from_u64(seed ^ 0xD15C_0000_0000_0000),
                profile,
                stats: SimDiskStats::default(),
            }),
        }
    }

    /// Simulates power loss: every file with volatile state (unsynced
    /// data or an unjournaled rename) is truncated at a seeded byte
    /// boundary; with [`SimDiskProfile::bit_rot_prob`], one surviving
    /// durable file gets one bit flipped.
    pub fn crash(&self) {
        let mut inner = self.inner.lock().expect("disk poisoned");
        inner.stats.crashes += 1;
        let volatile: Vec<PathBuf> = inner
            .files
            .iter()
            .filter(|(_, f)| f.durability != Durability::Synced)
            .map(|(p, _)| p.clone())
            .collect();
        for path in volatile {
            let keep = {
                let f = &inner.files[&path];
                let lo = f.synced_len.min(f.content.len()) as u64;
                let len = f.content.len() as u64;
                if len == lo {
                    lo as usize
                } else {
                    inner.rng.random_range(lo..len + 1) as usize
                }
            };
            let file = inner.files.get_mut(&path).expect("listed above");
            if keep < file.content.len() {
                file.content.truncate(keep);
                inner.stats.torn_files += 1;
            }
            let file = inner.files.get_mut(&path).expect("listed above");
            file.durability = Durability::Synced; // what's left is all there is
            file.synced_len = file.content.len();
        }
        let rot: f64 = inner.rng.random();
        if rot < inner.profile.bit_rot_prob {
            let candidates: Vec<PathBuf> = inner
                .files
                .iter()
                .filter(|(_, f)| !f.content.is_empty())
                .map(|(p, _)| p.clone())
                .collect();
            if !candidates.is_empty() {
                let pick = inner.rng.random_range(0..candidates.len() as u64) as usize;
                let path = candidates[pick].clone();
                let (byte, bit) = {
                    let len = inner.files[&path].content.len() as u64;
                    (
                        inner.rng.random_range(0..len) as usize,
                        inner.rng.random_range(0..8) as u32,
                    )
                };
                let file = inner.files.get_mut(&path).expect("candidate exists");
                file.content[byte] ^= 1u8 << bit;
                inner.stats.bit_flips += 1;
            }
        }
    }

    /// Current operation counters.
    pub fn stats(&self) -> SimDiskStats {
        self.inner.lock().expect("disk poisoned").stats
    }

    /// Plants a file directly as durable content (test scaffolding).
    pub fn plant(&self, path: impl Into<PathBuf>, bytes: impl Into<Vec<u8>>) {
        let mut inner = self.inner.lock().expect("disk poisoned");
        let content: Vec<u8> = bytes.into();
        let synced_len = content.len();
        inner.files.insert(
            path.into(),
            FileState {
                content,
                durability: Durability::Synced,
                synced_len,
            },
        );
    }
}

impl SimFs for SimDisk {
    fn create_dir_all(&self, _dir: &Path) -> Result<(), FsError> {
        Ok(()) // directories are implicit in the flat namespace
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> Result<(), FsError> {
        let mut inner = self.inner.lock().expect("disk poisoned");
        inner.stats.writes += 1;
        inner.files.insert(
            path.to_path_buf(),
            FileState {
                content: bytes.to_vec(),
                durability: Durability::PendingData,
                synced_len: 0, // a truncating rewrite forfeits the old prefix
            },
        );
        Ok(())
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> Result<(), FsError> {
        let mut inner = self.inner.lock().expect("disk poisoned");
        inner.stats.writes += 1;
        let file = inner
            .files
            .entry(path.to_path_buf())
            .or_insert_with(|| FileState {
                content: Vec::new(),
                durability: Durability::PendingData,
                synced_len: 0,
            });
        file.content.extend_from_slice(bytes);
        // The synced prefix keeps its durability; only the tail is at
        // risk, which the crash model expresses via `synced_len`.
        file.durability = Durability::PendingData;
        Ok(())
    }

    fn sync(&self, path: &Path) -> Result<(), FsError> {
        let mut inner = self.inner.lock().expect("disk poisoned");
        inner.stats.syncs += 1;
        match inner.files.get_mut(path) {
            Some(f) => {
                f.durability = Durability::Synced;
                f.synced_len = f.content.len();
                Ok(())
            }
            None => Err(fs_err(path, "sync of nonexistent file")),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), FsError> {
        let mut inner = self.inner.lock().expect("disk poisoned");
        inner.stats.renames += 1;
        let volatile: f64 = inner.rng.random();
        let torn = volatile < inner.profile.torn_rename_prob;
        let mut file = inner
            .files
            .remove(from)
            .ok_or_else(|| fs_err(from, "rename of nonexistent file"))?;
        if torn {
            file.durability = Durability::PendingRename;
            file.synced_len = 0; // an unjournaled rename can tear anywhere
        }
        inner.files.insert(to.to_path_buf(), file);
        Ok(())
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>, FsError> {
        let inner = self.inner.lock().expect("disk poisoned");
        inner
            .files
            .get(path)
            .map(|f| f.content.clone())
            .ok_or_else(|| fs_err(path, "no such file"))
    }

    fn list(&self, dir: &Path) -> Result<Vec<PathBuf>, FsError> {
        let inner = self.inner.lock().expect("disk poisoned");
        Ok(inner
            .files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .cloned()
            .collect())
    }

    fn remove_file(&self, path: &Path) -> Result<(), FsError> {
        let mut inner = self.inner.lock().expect("disk poisoned");
        inner
            .files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| fs_err(path, "no such file"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn real_fs_round_trips_and_lists() {
        let dir = std::env::temp_dir().join(format!("dst-realfs-{}", crate::unique_nonce()));
        let fs = RealFs;
        fs.create_dir_all(&dir).unwrap();
        assert_eq!(fs.list(&dir).unwrap(), Vec::<PathBuf>::new());
        let tmp = dir.join("a.tmp");
        let fin = dir.join("a.dat");
        fs.write_file(&tmp, b"hello").unwrap();
        fs.sync(&tmp).unwrap();
        fs.rename(&tmp, &fin).unwrap();
        assert_eq!(fs.read(&fin).unwrap(), b"hello");
        assert_eq!(fs.list(&dir).unwrap(), vec![fin.clone()]);
        fs.remove_file(&fin).unwrap();
        assert!(fs.read(&fin).is_err());
        assert_eq!(
            fs.list(&dir.join("never-created")).unwrap(),
            Vec::<PathBuf>::new(),
            "missing directory lists empty"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn no_disk_accepts_every_write_and_finds_nothing() {
        let fs = NoDisk;
        let (tmp, fin) = (p("/d/a.tmp"), p("/d/a.dat"));
        fs.create_dir_all(&p("/d")).unwrap();
        fs.write_file(&tmp, b"hello").unwrap();
        fs.append(&tmp, b"!").unwrap();
        fs.sync(&tmp).unwrap();
        fs.rename(&tmp, &fin).unwrap();
        assert!(fs.read(&fin).is_err());
        assert!(fs.read(&tmp).is_err());
        assert_eq!(fs.list(&p("/d")).unwrap(), Vec::<PathBuf>::new());
        fs.remove_file(&fin).unwrap();
    }

    #[test]
    fn write_behind_holds_appends_until_another_operation() {
        let dir = std::env::temp_dir().join(format!("dst-behind-{}", crate::unique_nonce()));
        let on_disk = |name| std::fs::read(dir.join(name)).unwrap();
        let log = dir.join("log");
        let fs = WriteBehind::new(RealFs);
        fs.create_dir_all(&dir).unwrap();
        fs.write_file(&log, b"H").unwrap();
        fs.sync(&log).unwrap();
        fs.append(&log, b"ab").unwrap();
        fs.sync(&log).unwrap();
        assert_eq!(on_disk("log"), b"H", "an append and its sync wait");
        fs.write_file(&dir.join("ckpt"), b"x").unwrap();
        assert_eq!(on_disk("log"), b"Hab", "another file's write flushes first");
        fs.append(&log, b"c").unwrap();
        assert_eq!(fs.read(&log).unwrap(), b"Habc", "a read flushes first");
        fs.append(&log, b"!").unwrap();
        drop(fs); // a crash: the buffered tail never reaches the disk
        assert_eq!(on_disk("log"), b"Habc");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn synced_data_survives_a_crash_intact() {
        let disk = SimDisk::new(1, SimDiskProfile::pristine());
        disk.write_file(&p("/d/f"), b"durable").unwrap();
        disk.sync(&p("/d/f")).unwrap();
        disk.crash();
        assert_eq!(disk.read(&p("/d/f")).unwrap(), b"durable");
        assert_eq!(disk.stats().torn_files, 0);
    }

    #[test]
    fn unsynced_data_tears_at_a_deterministic_boundary() {
        let run = |seed| {
            let disk = SimDisk::new(seed, SimDiskProfile::pristine());
            disk.write_file(&p("/d/f"), b"0123456789abcdef").unwrap();
            disk.crash();
            disk.read(&p("/d/f")).unwrap()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed, same tear boundary");
        assert!(a.len() <= 16);
        assert_eq!(&a[..], &b"0123456789abcdef"[..a.len()], "prefix semantics");
        // Some seed in a small range must actually tear (not all keep 16).
        assert!(
            (0..20u64).any(|s| run(s).len() < 16),
            "tearing must be possible"
        );
    }

    #[test]
    fn unjournaled_rename_tears_the_final_name() {
        // torn_rename_prob = 1: every rename volatile.
        let disk = SimDisk::new(
            3,
            SimDiskProfile {
                torn_rename_prob: 1.0,
                bit_rot_prob: 0.0,
            },
        );
        disk.write_file(&p("/d/x.tmp"), b"full checkpoint contents")
            .unwrap();
        disk.sync(&p("/d/x.tmp")).unwrap();
        disk.rename(&p("/d/x.tmp"), &p("/d/x.ckpt")).unwrap();
        assert_eq!(
            disk.read(&p("/d/x.ckpt")).unwrap(),
            b"full checkpoint contents",
            "before the crash the rename looks complete"
        );
        // Find a seed whose tear actually truncates.
        disk.crash();
        let after = disk.read(&p("/d/x.ckpt")).unwrap();
        assert!(after.len() <= 24);
        assert!(disk.read(&p("/d/x.tmp")).is_err(), "tmp name is gone");
    }

    #[test]
    fn bit_rot_flips_exactly_one_bit() {
        let disk = SimDisk::new(
            11,
            SimDiskProfile {
                torn_rename_prob: 0.0,
                bit_rot_prob: 1.0,
            },
        );
        let body = vec![0u8; 64];
        disk.write_file(&p("/d/f"), &body).unwrap();
        disk.sync(&p("/d/f")).unwrap();
        disk.crash();
        let after = disk.read(&p("/d/f")).unwrap();
        let flipped: u32 = after.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit flipped");
        assert_eq!(disk.stats().bit_flips, 1);
    }

    #[test]
    fn append_tears_only_the_unsynced_tail() {
        let run = |seed| {
            let disk = SimDisk::new(seed, SimDiskProfile::pristine());
            disk.append(&p("/d/log"), b"SAFE-PREFIX-").unwrap();
            disk.sync(&p("/d/log")).unwrap();
            disk.append(&p("/d/log"), b"volatile-tail").unwrap();
            disk.crash();
            disk.read(&p("/d/log")).unwrap()
        };
        for seed in 0..20u64 {
            let after = run(seed);
            assert!(
                after.starts_with(b"SAFE-PREFIX-"),
                "seed {seed}: synced prefix must survive, got {after:?}"
            );
            assert_eq!(
                &after[..],
                &b"SAFE-PREFIX-volatile-tail"[..after.len()],
                "seed {seed}: survivor is a prefix of the full content"
            );
        }
        assert_eq!(run(7), run(7), "same seed, same tear boundary");
        assert!(
            (0..20u64).any(|s| run(s).len() < b"SAFE-PREFIX-volatile-tail".len()),
            "tail tearing must be possible"
        );
    }

    #[test]
    fn append_to_fresh_file_is_fully_volatile() {
        // Never-synced appends have no durable prefix: a crash may
        // erase the file's contents entirely.
        let torn_empty = (0..40u64).any(|seed| {
            let disk = SimDisk::new(seed, SimDiskProfile::pristine());
            disk.append(&p("/d/log"), b"abcdef").unwrap();
            disk.crash();
            disk.read(&p("/d/log")).unwrap().is_empty()
        });
        assert!(torn_empty, "some seed must tear a fresh append to zero");
    }

    #[test]
    fn append_after_rewrite_forfeits_the_old_prefix() {
        let disk = SimDisk::new(5, SimDiskProfile::pristine());
        disk.append(&p("/d/log"), b"old").unwrap();
        disk.sync(&p("/d/log")).unwrap();
        // A truncating rewrite discards the synced prefix claim…
        disk.write_file(&p("/d/log"), b"rewritten-everything")
            .unwrap();
        disk.append(&p("/d/log"), b"-tail").unwrap();
        disk.crash();
        let after = disk.read(&p("/d/log")).unwrap();
        // …so the survivor is a (possibly empty) prefix of the rewrite.
        assert_eq!(
            &after[..],
            &b"rewritten-everything-tail"[..after.len()],
            "prefix semantics after rewrite"
        );
    }

    #[test]
    fn real_fs_append_extends_in_place() {
        let dir = std::env::temp_dir().join(format!("dst-realfs-app-{}", crate::unique_nonce()));
        let fs = RealFs;
        fs.create_dir_all(&dir).unwrap();
        let log = dir.join("e.log");
        fs.append(&log, b"one").unwrap();
        fs.append(&log, b"-two").unwrap();
        fs.sync(&log).unwrap();
        assert_eq!(fs.read(&log).unwrap(), b"one-two");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn listing_is_per_directory_and_sorted() {
        let disk = SimDisk::new(0, SimDiskProfile::pristine());
        disk.plant("/a/2", b"x".to_vec());
        disk.plant("/a/1", b"y".to_vec());
        disk.plant("/a/sub/3", b"z".to_vec());
        assert_eq!(disk.list(&p("/a")).unwrap(), vec![p("/a/1"), p("/a/2")]);
        assert_eq!(disk.list(&p("/a/sub")).unwrap(), vec![p("/a/sub/3")]);
        assert_eq!(disk.list(&p("/b")).unwrap(), Vec::<PathBuf>::new());
    }
}
