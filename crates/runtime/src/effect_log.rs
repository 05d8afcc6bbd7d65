//! The durable append-only effect log a replica group's guarantees
//! rest on.
//!
//! Every externally acknowledged *effect* (a deduplicated client write
//! reaching a shard) is appended here — epoch, log position, request
//! id, key — CRC-sealed per record, fsynced, and shipped to every
//! backup **before** the acknowledgement leaves the primary. That
//! ordering is the whole safety argument: once a client sees an ack,
//! the effect exists on `replication` disks, so a permanent primary
//! loss promotes a backup that already holds it (the fleet invariant
//! `EffectLost` checks exactly this).
//!
//! # On-disk format
//!
//! ```text
//! header  (8 bytes):  "TEFL" | version u8 (=1) | 3 zero pad bytes
//! record (36 bytes):  epoch u64 LE | pos u64 LE | req_id u64 LE
//!                     | key u64 LE | crc32 u32 LE  (over the 32
//!                     preceding bytes)
//! ```
//!
//! Appends go through [`dst::SimFs::append`] + [`dst::SimFs::sync`],
//! so in simulation a crash between the two tears the *tail* only —
//! [`EffectLog::open`] walks records sequentially and truncates at the
//! first short or CRC-failing record, exactly the recovery a real
//! append-only log performs.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dst::{crc32, IdHashState, SimFs};

use crate::snapshot::SnapshotError;

fn io_err(path: &Path, e: impl std::fmt::Display) -> SnapshotError {
    SnapshotError::Io {
        path: path.to_path_buf(),
        detail: e.to_string(),
    }
}

/// File magic: Thermal Effect Log.
const MAGIC: &[u8; 4] = b"TEFL";
/// Current format version.
const VERSION: u8 = 1;
/// Header length, bytes.
const HEADER_LEN: usize = 8;
/// Record length, bytes (32 payload + 4 CRC).
const RECORD_LEN: usize = 36;

/// One acknowledged effect, as recorded durably.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EffectRecord {
    /// The primary epoch the effect was accepted under.
    pub epoch: u64,
    /// Zero-based position in the log (dense, gap-free).
    pub pos: u64,
    /// The client request id (the dedup key).
    pub req_id: u64,
    /// The affected key (channel / site identifier).
    pub key: u64,
}

impl EffectRecord {
    fn encode(&self) -> [u8; RECORD_LEN] {
        let mut out = [0u8; RECORD_LEN];
        out[0..8].copy_from_slice(&self.epoch.to_le_bytes());
        out[8..16].copy_from_slice(&self.pos.to_le_bytes());
        out[16..24].copy_from_slice(&self.req_id.to_le_bytes());
        out[24..32].copy_from_slice(&self.key.to_le_bytes());
        let crc = crc32(&out[..32]);
        out[32..36].copy_from_slice(&crc.to_le_bytes());
        out
    }

    fn decode(bytes: &[u8]) -> Option<EffectRecord> {
        if bytes.len() < RECORD_LEN {
            return None;
        }
        let stored = u32::from_le_bytes(bytes[32..36].try_into().ok()?);
        if crc32(&bytes[..32]) != stored {
            return None;
        }
        Some(EffectRecord {
            epoch: u64::from_le_bytes(bytes[0..8].try_into().ok()?),
            pos: u64::from_le_bytes(bytes[8..16].try_into().ok()?),
            req_id: u64::from_le_bytes(bytes[16..24].try_into().ok()?),
            key: u64::from_le_bytes(bytes[24..32].try_into().ok()?),
        })
    }
}

/// What [`EffectLog::open`] had to repair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogRecovery {
    /// Records recovered intact.
    pub recovered: u64,
    /// Bytes truncated off the tail (torn or CRC-failing suffix).
    pub truncated_bytes: u64,
}

/// A CRC-checked append-only log of acknowledged effects, durable
/// through a [`SimFs`].
#[derive(Debug)]
pub struct EffectLog {
    fs: Arc<dyn SimFs>,
    path: PathBuf,
    records: Vec<EffectRecord>,
    /// Every record's `req_id`, for [`EffectLog::contains_req`]. Keyed
    /// per log, so clients cannot pick colliding ids; never iterated.
    req_ids: HashSet<u64, IdHashState>,
}

impl EffectLog {
    /// Opens (or creates) the log at `path`, validating every record
    /// sequentially and truncating the file at the first torn or
    /// corrupt one — a crash between append and fsync leaves exactly
    /// such a tail. A log whose header is not a version-1 `TEFL`
    /// header recovers the same way, as an empty log: nothing after a
    /// rotted header can be trusted, and anti-entropy refills it.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on I/O failure writing the header or
    /// rewriting a truncated file.
    pub fn open(
        fs: Arc<dyn SimFs>,
        path: &Path,
    ) -> Result<(EffectLog, LogRecovery), SnapshotError> {
        if let Some(dir) = path.parent() {
            fs.create_dir_all(dir).map_err(|e| io_err(path, e))?;
        }
        let bytes = match fs.read(path) {
            Ok(b) if b.len() >= HEADER_LEN && &b[..4] == MAGIC && b[4] == VERSION => b,
            other => {
                // Fresh or rotted log: write and sync the header now so
                // the file exists durably before the first record.
                let mut header = Vec::with_capacity(HEADER_LEN);
                header.extend_from_slice(MAGIC);
                header.push(VERSION);
                header.extend_from_slice(&[0, 0, 0]);
                fs.write_file(path, &header).map_err(|e| io_err(path, e))?;
                fs.sync(path).map_err(|e| io_err(path, e))?;
                return Ok((
                    EffectLog {
                        fs,
                        path: path.to_path_buf(),
                        records: Vec::new(),
                        req_ids: HashSet::default(),
                    },
                    LogRecovery {
                        recovered: 0,
                        truncated_bytes: other.map_or(0, |b| b.len() as u64),
                    },
                ));
            }
        };
        let mut records = Vec::new();
        let mut req_ids = HashSet::default();
        let mut off = HEADER_LEN;
        while let Some(rec) = EffectRecord::decode(&bytes[off..]) {
            // Positions must be dense: a CRC-valid record at the wrong
            // position means the tail was rewritten mid-crash; stop.
            if rec.pos != records.len() as u64 {
                break;
            }
            req_ids.insert(rec.req_id);
            records.push(rec);
            off += RECORD_LEN;
        }
        let truncated = (bytes.len() - off) as u64;
        if truncated > 0 {
            // Persist the truncation so a later open sees a clean tail.
            fs.write_file(path, &bytes[..off])
                .map_err(|e| io_err(path, e))?;
            fs.sync(path).map_err(|e| io_err(path, e))?;
        }
        let recovery = LogRecovery {
            recovered: records.len() as u64,
            truncated_bytes: truncated,
        };
        Ok((
            EffectLog {
                fs,
                path: path.to_path_buf(),
                records,
                req_ids,
            },
            recovery,
        ))
    }

    /// Appends an effect durably: the record's `pos` is assigned here
    /// (next dense position), then append + fsync. Returns the record
    /// as written.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when the append or sync fails — the
    /// caller must NOT acknowledge the effect in that case.
    pub fn append(
        &mut self,
        epoch: u64,
        req_id: u64,
        key: u64,
    ) -> Result<EffectRecord, SnapshotError> {
        let rec = EffectRecord {
            epoch,
            pos: self.records.len() as u64,
            req_id,
            key,
        };
        self.append_replicated(rec)?;
        Ok(rec)
    }

    /// Appends a record replicated from a primary, verbatim — used by
    /// backups, which must store the primary's epoch/pos, not mint
    /// their own.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] when `rec.pos` is not the next dense
    /// position (the replication stream has a gap — the caller must
    /// trigger anti-entropy instead of acking); [`SnapshotError::Io`]
    /// on write failure.
    pub fn append_replicated(&mut self, rec: EffectRecord) -> Result<(), SnapshotError> {
        if rec.pos != self.records.len() as u64 {
            return Err(SnapshotError::Corrupt {
                path: self.path.clone(),
                detail: format!(
                    "replication gap: got pos {}, expected {}",
                    rec.pos,
                    self.records.len()
                ),
            });
        }
        self.fs
            .append(&self.path, &rec.encode())
            .map_err(|e| io_err(&self.path, e))?;
        self.fs
            .sync(&self.path)
            .map_err(|e| io_err(&self.path, e))?;
        self.req_ids.insert(rec.req_id);
        self.records.push(rec);
        Ok(())
    }

    /// Rewrites this log to exactly `records` — the anti-entropy
    /// repair path, converging a divergent backup to the primary's
    /// canonical log.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on write failure.
    pub fn reset_to(&mut self, records: &[EffectRecord]) -> Result<(), SnapshotError> {
        let mut bytes = Vec::with_capacity(HEADER_LEN + records.len() * RECORD_LEN);
        bytes.extend_from_slice(MAGIC);
        bytes.push(VERSION);
        bytes.extend_from_slice(&[0, 0, 0]);
        for rec in records {
            bytes.extend_from_slice(&rec.encode());
        }
        self.fs
            .write_file(&self.path, &bytes)
            .map_err(|e| io_err(&self.path, e))?;
        self.fs
            .sync(&self.path)
            .map_err(|e| io_err(&self.path, e))?;
        self.records = records.to_vec();
        self.req_ids = records.iter().map(|r| r.req_id).collect();
        Ok(())
    }

    /// Number of records (also the next position).
    pub fn len(&self) -> u64 {
        self.records.len() as u64
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Whether `req_id` has already been applied (the dedup check).
    pub fn contains_req(&self, req_id: u64) -> bool {
        self.req_ids.contains(&req_id)
    }

    /// All records, in position order.
    pub fn records(&self) -> &[EffectRecord] {
        &self.records
    }

    /// The epoch of the last record, or 0 for an empty log.
    pub fn last_epoch(&self) -> u64 {
        self.records.last().map_or(0, |r| r.epoch)
    }

    /// The log's path (for reporting).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dst::{SimDisk, SimDiskProfile};

    fn disk() -> Arc<SimDisk> {
        Arc::new(SimDisk::new(1, SimDiskProfile::pristine()))
    }

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn fresh_log_appends_and_reopens() {
        let fs = disk();
        let path = p("/logs/effects.log");
        let (mut log, rec) = EffectLog::open(fs.clone(), &path).unwrap();
        assert_eq!(rec, LogRecovery::default());
        log.append(1, 100, 7).unwrap();
        log.append(1, 101, 8).unwrap();
        assert_eq!(log.len(), 2);
        assert!(log.contains_req(100));
        assert!(!log.contains_req(999));

        let (back, rec) = EffectLog::open(fs, &path).unwrap();
        assert_eq!(rec.recovered, 2);
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(back.records(), log.records());
        assert_eq!(back.last_epoch(), 1);
    }

    #[test]
    fn torn_tail_is_truncated_and_earlier_records_survive() {
        let fs = disk();
        let path = p("/logs/effects.log");
        let (mut log, _) = EffectLog::open(fs.clone(), &path).unwrap();
        log.append(3, 100, 7).unwrap();
        log.append(3, 101, 8).unwrap();
        // Tear the file mid-record, as a crash between append and
        // fsync would.
        let bytes = fs.read(&path).unwrap();
        fs.plant(path.clone(), bytes[..bytes.len() - 13].to_vec());

        let (back, rec) = EffectLog::open(fs.clone(), &path).unwrap();
        assert_eq!(rec.recovered, 1, "first record intact");
        assert_eq!(rec.truncated_bytes, RECORD_LEN as u64 - 13);
        assert_eq!(back.records()[0].req_id, 100);
        // The truncation persisted: a second open is clean.
        let (_, rec2) = EffectLog::open(fs, &path).unwrap();
        assert_eq!(rec2.truncated_bytes, 0);
    }

    #[test]
    fn corrupt_record_stops_recovery_at_the_last_good_one() {
        let fs = disk();
        let path = p("/logs/effects.log");
        let (mut log, _) = EffectLog::open(fs.clone(), &path).unwrap();
        log.append(1, 100, 7).unwrap();
        log.append(1, 101, 8).unwrap();
        log.append(1, 102, 9).unwrap();
        let mut bytes = fs.read(&path).unwrap();
        // Flip a bit inside the second record's payload.
        let off = HEADER_LEN + RECORD_LEN + 5;
        bytes[off] ^= 0x40;
        fs.plant(path.clone(), bytes);

        let (back, rec) = EffectLog::open(fs, &path).unwrap();
        assert_eq!(rec.recovered, 1, "records after the corruption are gone");
        assert_eq!(back.len(), 1);
        assert_eq!(rec.truncated_bytes, 2 * RECORD_LEN as u64);
    }

    #[test]
    fn bad_header_recovers_an_empty_log() {
        let fs = disk();
        let path = p("/logs/effects.log");
        fs.plant(path.clone(), b"WHAT".to_vec());
        let (mut log, rec) = EffectLog::open(fs.clone(), &path).unwrap();
        assert!(log.is_empty());
        assert_eq!(
            rec,
            LogRecovery {
                recovered: 0,
                truncated_bytes: 4
            }
        );
        log.append(2, 100, 7).unwrap();
        let (back, rec) = EffectLog::open(fs, &path).unwrap();
        assert_eq!(
            rec,
            LogRecovery {
                recovered: 1,
                truncated_bytes: 0
            }
        );
        assert_eq!(back.records(), log.records());
    }

    #[test]
    fn replicated_appends_enforce_dense_positions() {
        let fs = disk();
        let (mut primary, _) = EffectLog::open(fs.clone(), &p("/logs/p.log")).unwrap();
        let r0 = primary.append(2, 100, 7).unwrap();
        let r1 = primary.append(2, 101, 8).unwrap();

        let (mut backup, _) = EffectLog::open(fs, &p("/logs/b.log")).unwrap();
        backup.append_replicated(r0).unwrap();
        // A gap (skipping r1, jumping to pos 2) must be refused.
        let gap = EffectRecord { pos: 2, ..r1 };
        assert!(matches!(
            backup.append_replicated(gap),
            Err(SnapshotError::Corrupt { .. })
        ));
        backup.append_replicated(r1).unwrap();
        assert_eq!(backup.records(), primary.records());
    }

    #[test]
    fn reset_to_converges_a_divergent_log() {
        let fs = disk();
        let (mut primary, _) = EffectLog::open(fs.clone(), &p("/logs/p.log")).unwrap();
        primary.append(5, 100, 7).unwrap();
        primary.append(5, 101, 8).unwrap();

        let (mut backup, _) = EffectLog::open(fs.clone(), &p("/logs/b.log")).unwrap();
        backup.append(4, 900, 1).unwrap(); // diverged under an old epoch
        backup.reset_to(primary.records()).unwrap();
        assert_eq!(backup.records(), primary.records());
        assert!(!backup.contains_req(900));

        // Durable: a reopen sees the converged log.
        let (back, rec) = EffectLog::open(fs, &p("/logs/b.log")).unwrap();
        assert_eq!(rec.recovered, 2);
        assert_eq!(back.records(), primary.records());
    }

    #[test]
    fn crash_between_append_and_sync_loses_only_the_tail() {
        // Drive the real SimDisk crash model: append without sync,
        // crash, reopen — earlier synced records must survive.
        let fs = Arc::new(SimDisk::new(9, SimDiskProfile::pristine()));
        let path = p("/logs/effects.log");
        let (mut log, _) = EffectLog::open(fs.clone(), &path).unwrap();
        log.append(1, 100, 7).unwrap(); // synced by append()
                                        // Simulate the torn append: raw append without the sync.
        let rec = EffectRecord {
            epoch: 1,
            pos: 1,
            req_id: 101,
            key: 8,
        };
        fs.append(&path, &rec.encode()).unwrap();
        fs.crash();
        let (back, recov) = EffectLog::open(fs, &path).unwrap();
        assert_eq!(back.records()[0].req_id, 100, "synced record survives");
        assert!(recov.recovered >= 1);
    }
}
