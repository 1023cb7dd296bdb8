//! The content-addressed artifact store.
//!
//! Protection results are keyed by [`ArtifactKey`] — `(source hash, config
//! hash, seed)` — and persisted in a two-file, append-only layout under one
//! directory:
//!
//! ```text
//! <dir>/index.rds   "RDSI" + u32 version, then append-only framed records
//!                   [u32 len][payload][xxh64] (recfile::frame_record),
//!                   each payload Put { key, off, len, blob_hash } or Evict { key }
//! <dir>/blobs.rds   "RDSB" + u32 version, then raw image blobs
//!                   (recfile::encode_payload of the Image), back to back;
//!                   blob_hash = xxh64(blob)
//! ```
//!
//! Every index record is sealed by its frame's [`xxh64`] and carries the
//! [`xxh64`] of the blob it points at (`blob_hash`). Corruption is therefore
//! *local*: a torn or damaged tail record stops replay at the last good
//! record, a flipped blob byte fails its checksum on
//! [`get`](ArtifactStore::get) — both surface as cache misses, never as
//! wrong artifacts (pinned by the `store_roundtrip` suite).
//!
//! The files are version-stamped. A store written at any other version than
//! [`STORE_VERSION`] opens empty and is rewritten at the current one: an
//! artifact store is a cache, so losing it costs time, not correctness.
//!
//! Eviction is FIFO by insertion order, driven by a byte budget
//! ([`StoreConfig::max_blob_bytes`]). Evict records only mark entries dead;
//! [`compact`](ArtifactStore::compact) rewrites both files to drop dead
//! bytes, and runs automatically when dead bytes outgrow live bytes.

use crate::codec::encode_image;
use crate::recfile::{self, read_header, write_header, xxh64, FramedReader};
use raindrop_machine::Image;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic prefix of `index.rds`.
pub const INDEX_MAGIC: [u8; 4] = *b"RDSI";
/// Magic prefix of `blobs.rds`.
pub const BLOBS_MAGIC: [u8; 4] = *b"RDSB";
/// Current on-disk store format version.
pub const STORE_VERSION: u32 = 3;

/// The cache key of one protection artifact.
///
/// * `source_hash` — stable hash of the protected program *and* the target
///   list (the same program protected for different targets is a different
///   artifact);
/// * `config_hash` — [`raindrop::ObfConfig::config_hash`], which excludes
///   per-pass seeds;
/// * `seed` — the request seed, threaded into every pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ArtifactKey {
    /// Stable hash of the source program + target list.
    pub source_hash: u128,
    /// Stable hash of the obfuscation configuration (seed-independent).
    pub config_hash: u128,
    /// The protection seed.
    pub seed: u64,
}

impl fmt::Display for ArtifactKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}-{:032x}-{:016x}", self.source_hash, self.config_hash, self.seed)
    }
}

/// Store construction knobs.
#[derive(Debug, Clone, Default)]
pub struct StoreConfig {
    /// FIFO-evict oldest artifacts once live blob bytes exceed this
    /// (`None` = unbounded).
    pub max_blob_bytes: Option<u64>,
}

/// Aggregate store statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Artifacts currently retrievable.
    pub live_entries: u64,
    /// Bytes of live blobs.
    pub live_bytes: u64,
    /// Bytes of dead (evicted/overwritten) blobs awaiting compaction.
    pub dead_bytes: u64,
    /// Successful [`get`](ArtifactStore::get) calls.
    pub hits: u64,
    /// [`get`](ArtifactStore::get) calls that found nothing.
    pub misses: u64,
    /// Hits invalidated by checksum/decode failure (served as misses).
    pub corrupt: u64,
    /// Entries evicted by the FIFO byte budget.
    pub evictions: u64,
    /// Times the files were compacted.
    pub compactions: u64,
}

/// Errors from store I/O (corruption is *not* an error — it demotes to a
/// miss; these are real filesystem failures).
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O failed: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    off: u64,
    len: u64,
    blob_hash: u64,
    /// Monotonic insertion sequence — the FIFO eviction order.
    seq: u64,
}

/// The content-addressed, versioned artifact store. See the [module
/// docs](self) for the on-disk layout and corruption model.
///
/// # Example
///
/// ```no_run
/// use raindrop_server::{ArtifactKey, ArtifactStore, StoreConfig};
///
/// # fn main() -> Result<(), raindrop_server::StoreError> {
/// let mut store = ArtifactStore::open("/tmp/raindrop-store", StoreConfig::default())?;
/// let key = ArtifactKey { source_hash: 1, config_hash: 2, seed: 3 };
/// if store.get(&key)?.is_none() {
///     let image = expensive_protection_run();
///     store.put(&key, &image)?;
/// }
/// assert!(store.get(&key)?.is_some(), "subsequent requests hit the cache");
/// # Ok(())
/// # }
/// # fn expensive_protection_run() -> raindrop_machine::Image { unimplemented!() }
/// ```
pub struct ArtifactStore {
    dir: PathBuf,
    config: StoreConfig,
    index: File,
    blobs: File,
    entries: BTreeMap<ArtifactKey, Entry>,
    next_seq: u64,
    stats: StoreStats,
}

/// One `index.rds` record, framed by [`recfile::frame_record`].
#[derive(Serialize, Deserialize)]
enum IndexRecord {
    /// `key`'s artifact is the blob at `off..off + len` of `blobs.rds`.
    Put { key: ArtifactKey, off: u64, len: u64, blob_hash: u64 },
    /// `key` is dead.
    Evict { key: ArtifactKey },
}

impl ArtifactStore {
    /// Opens (or creates) a store in `dir`. A store written at another
    /// format version restarts empty.
    pub fn open(dir: impl AsRef<Path>, config: StoreConfig) -> Result<ArtifactStore, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let index_path = dir.join("index.rds");
        let blobs_path = dir.join("blobs.rds");

        // Replay whatever is on disk (tolerating any corruption) into the
        // in-memory table.
        let index_bytes = std::fs::read(&index_path).unwrap_or_default();
        let blob_bytes = std::fs::read(&blobs_path).unwrap_or_default();
        let mut replayed: Vec<(ArtifactKey, Vec<u8>, u64)> = Vec::new();
        if read_header(&index_bytes, INDEX_MAGIC) == Some(STORE_VERSION)
            && read_header(&blob_bytes, BLOBS_MAGIC) == Some(STORE_VERSION)
        {
            let mut live: BTreeMap<ArtifactKey, (u64, u64, u64)> = BTreeMap::new();
            let mut order: Vec<ArtifactKey> = Vec::new();
            for body in FramedReader::new(&index_bytes, recfile::HEADER_LEN) {
                let Some(rec) = recfile::decode_payload::<IndexRecord>(body) else {
                    break; // corrupt record: everything after is a miss
                };
                match rec {
                    IndexRecord::Put { key, off, len, blob_hash } => {
                        if live.insert(key, (off, len, blob_hash)).is_none() {
                            order.push(key);
                        }
                    }
                    IndexRecord::Evict { key } => {
                        live.remove(&key);
                    }
                }
            }
            for key in order {
                let Some((off, len, blob_hash)) = live.get(&key).copied() else { continue };
                let (off, len) = (off as usize, len as usize);
                let Some(end) = off.checked_add(len).filter(|e| *e <= blob_bytes.len()) else {
                    continue; // blob out of range: miss
                };
                let blob = &blob_bytes[off..end];
                if xxh64(blob) != blob_hash {
                    continue; // damaged blob: miss
                }
                replayed.push((key, blob.to_vec(), blob_hash));
            }
        }

        // Rewrite both files from the replayed state: this compacts dead
        // bytes for free and stamps the current version.
        let mut index = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&index_path)?;
        let mut blobs = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&blobs_path)?;
        write_header(&mut index, INDEX_MAGIC, STORE_VERSION)?;
        write_header(&mut blobs, BLOBS_MAGIC, STORE_VERSION)?;
        let mut store = ArtifactStore {
            dir,
            config,
            index,
            blobs,
            entries: BTreeMap::new(),
            next_seq: 0,
            stats: StoreStats::default(),
        };
        for (key, blob, blob_hash) in replayed {
            store.append_blob(&key, &blob, blob_hash)?;
        }
        store.flush()?;
        // Replay artifacts are inventory, not traffic: forget counters.
        store.stats = StoreStats {
            live_entries: store.entries.len() as u64,
            live_bytes: store.live_bytes(),
            ..StoreStats::default()
        };
        Ok(store)
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn live_bytes(&self) -> u64 {
        self.entries.values().map(|e| e.len).sum()
    }

    fn append_record(&mut self, rec: &IndexRecord) -> Result<(), StoreError> {
        self.index.seek(SeekFrom::End(0))?;
        self.index.write_all(&recfile::frame_record(&recfile::encode_payload(rec)))?;
        Ok(())
    }

    /// Appends `blob` and its index record; `blob_hash` is the caller's
    /// [`xxh64`] of `blob`, so a blob just verified is not hashed again.
    fn append_blob(
        &mut self,
        key: &ArtifactKey,
        blob: &[u8],
        blob_hash: u64,
    ) -> Result<(), StoreError> {
        let off = self.blobs.seek(SeekFrom::End(0))?;
        self.blobs.write_all(blob)?;
        self.append_record(&IndexRecord::Put {
            key: *key,
            off,
            len: blob.len() as u64,
            blob_hash,
        })?;
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(old) =
            self.entries.insert(*key, Entry { off, len: blob.len() as u64, blob_hash, seq })
        {
            self.stats.dead_bytes += old.len;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        self.blobs.flush()?;
        self.index.flush()?;
        Ok(())
    }

    /// Stores `image` under `key` (overwriting any previous artifact),
    /// enforcing the FIFO byte budget and auto-compacting when dead bytes
    /// outgrow live bytes.
    pub fn put(&mut self, key: &ArtifactKey, image: &Image) -> Result<(), StoreError> {
        let blob = encode_image(image);
        self.append_blob(key, &blob, xxh64(&blob))?;
        if let Some(budget) = self.config.max_blob_bytes {
            while self.live_bytes() > budget && self.entries.len() > 1 {
                let oldest = *self.entries.iter().min_by_key(|(_, e)| e.seq).expect("non-empty").0;
                self.evict(&oldest)?;
            }
        }
        if self.stats.dead_bytes > self.live_bytes() {
            self.compact()?;
        }
        self.flush()?;
        self.stats.live_entries = self.entries.len() as u64;
        self.stats.live_bytes = self.live_bytes();
        Ok(())
    }

    /// Marks `key` dead (its blob bytes are reclaimed by the next
    /// [`compact`](ArtifactStore::compact)).
    pub fn evict(&mut self, key: &ArtifactKey) -> Result<bool, StoreError> {
        let Some(entry) = self.entries.remove(key) else { return Ok(false) };
        self.append_record(&IndexRecord::Evict { key: *key })?;
        self.stats.dead_bytes += entry.len;
        self.stats.evictions += 1;
        self.stats.live_entries = self.entries.len() as u64;
        self.stats.live_bytes = self.live_bytes();
        Ok(true)
    }

    /// Retrieves the artifact stored under `key`. Damaged records or blobs
    /// demote to a miss (and the entry is dropped so the damage is not
    /// re-read).
    pub fn get(&mut self, key: &ArtifactKey) -> Result<Option<Image>, StoreError> {
        let Some(entry) = self.entries.get(key).copied() else {
            self.stats.misses += 1;
            return Ok(None);
        };
        let mut blob = vec![0u8; entry.len as usize];
        let ok = self
            .blobs
            .seek(SeekFrom::Start(entry.off))
            .and_then(|_| self.blobs.read_exact(&mut blob))
            .is_ok();
        let image = if ok && xxh64(&blob) == entry.blob_hash {
            recfile::decode_payload::<Image>(&blob)
        } else {
            None
        };
        match image {
            Some(image) => {
                self.stats.hits += 1;
                Ok(Some(image))
            }
            None => {
                self.entries.remove(key);
                self.stats.corrupt += 1;
                self.stats.misses += 1;
                self.stats.live_entries = self.entries.len() as u64;
                self.stats.live_bytes = self.live_bytes();
                Ok(None)
            }
        }
    }

    /// Whether `key` currently has a (believed-live) artifact.
    pub fn contains(&self, key: &ArtifactKey) -> bool {
        self.entries.contains_key(key)
    }

    /// Rewrites both files keeping only live entries, reclaiming dead blob
    /// bytes and collapsing the index to one record per artifact.
    pub fn compact(&mut self) -> Result<(), StoreError> {
        let mut ordered: Vec<(ArtifactKey, Entry)> =
            self.entries.iter().map(|(k, e)| (*k, *e)).collect();
        ordered.sort_by_key(|(_, e)| e.seq);
        let mut kept: Vec<(ArtifactKey, Vec<u8>, u64)> = Vec::with_capacity(ordered.len());
        for (key, entry) in ordered {
            let mut blob = vec![0u8; entry.len as usize];
            let ok = self
                .blobs
                .seek(SeekFrom::Start(entry.off))
                .and_then(|_| self.blobs.read_exact(&mut blob))
                .is_ok();
            if ok && xxh64(&blob) == entry.blob_hash {
                kept.push((key, blob, entry.blob_hash));
            }
        }
        self.index.set_len(0)?;
        self.index.seek(SeekFrom::Start(0))?;
        self.blobs.set_len(0)?;
        self.blobs.seek(SeekFrom::Start(0))?;
        write_header(&mut self.index, INDEX_MAGIC, STORE_VERSION)?;
        write_header(&mut self.blobs, BLOBS_MAGIC, STORE_VERSION)?;
        self.entries.clear();
        for (key, blob, blob_hash) in kept {
            self.append_blob(&key, &blob, blob_hash)?;
        }
        self.flush()?;
        self.stats.dead_bytes = 0;
        self.stats.compactions += 1;
        self.stats.live_entries = self.entries.len() as u64;
        self.stats.live_bytes = self.live_bytes();
        Ok(())
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> StoreStats {
        self.stats.clone()
    }
}
