//! The content-addressed artifact cache.
//!
//! Artifacts are opaque byte payloads keyed by `(kind, 128-bit content
//! hash of the inputs that produced them)`. Two layers:
//!
//! * an **in-memory LRU** bounded by entry count, shared by every
//!   worker thread behind one mutex (artifact fetch/store is far off
//!   the hot path — each job does a handful of cache operations around
//!   multi-millisecond pipeline stages);
//! * an optional **on-disk layer** (`target/plx-cache/` by default for
//!   the CLI) that persists artifacts across processes, written
//!   atomically via a temp-file rename.
//!
//! A resident payload is kept at its exact length, with none of its
//! encoder's `Vec` growth slack: a long-running server holds its
//! entries for good.
//!
//! Every stored payload carries its own content hash. Both layers
//! re-verify the hash on every fetch, so a corrupted entry — bit-rot,
//! a torn write, or the deliberate poisoning of the fault-injection
//! harness — is *detected, evicted, and recomputed*, never silently
//! linked against. This is the property the poisoned-cache fault
//! scenario ([`parallax_core::FaultPlan::poison_scan_cache`]) asserts.

use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::Mutex;

use parallax_image::{format, LinkedImage};

use crate::hash::hash128;

/// What kind of artifact a cache entry holds: gadget scans, protected
/// results and pass-1 function rewrites. Part of the key, so two kinds
/// hashed from the same bytes never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// A serialized gadget scan of a linked image.
    Scan,
    /// A full protected image plus its compact report.
    Protected,
    /// One function's pass-1 rewrite outcome, keyed by the function's
    /// content fingerprint (bytes, relocs, markers, rewrite config).
    RewrittenFunc,
}

impl ArtifactKind {
    /// Stable short name (used in file names and JSON events).
    pub fn name(self) -> &'static str {
        match self {
            ArtifactKind::Scan => "scan",
            ArtifactKind::Protected => "protected",
            ArtifactKind::RewrittenFunc => "rewritten-func",
        }
    }
}

impl fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A cache key: artifact kind plus content hash of its inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    /// Artifact kind.
    pub kind: ArtifactKind,
    /// 128-bit content hash of the inputs that determine the artifact.
    pub hash: u128,
}

impl Key {
    /// The key of an artifact determined by the bytes of `input` (a
    /// function fingerprint, a gadget content's verdict key, ...).
    pub fn of(kind: ArtifactKind, input: &[u8]) -> Key {
        Key {
            kind,
            hash: hash128(input),
        }
    }

    /// The key of a whole-image artifact (a scan): the hash of the
    /// image's container bytes.
    pub fn of_image(kind: ArtifactKind, img: &LinkedImage) -> Key {
        Key::of(kind, &format::save(img))
    }

    fn file_name(&self) -> String {
        format!("{}-{:032x}.plxc", self.kind.name(), self.hash)
    }
}

/// Result of a cache fetch.
#[derive(Debug)]
pub enum Fetch {
    /// Verified payload.
    Hit(Vec<u8>),
    /// No entry.
    Miss,
    /// An entry existed but failed its content-hash check; it has been
    /// evicted from both layers. The caller must recompute.
    Poisoned,
}

/// Cache operation counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Verified fetches served from memory or disk.
    pub hits: u64,
    /// Fetches with no entry.
    pub misses: u64,
    /// Entries evicted because their payload failed the hash check.
    pub poisoned: u64,
    /// Entries evicted to respect the in-memory capacity.
    pub evictions: u64,
    /// Entries currently resident in memory.
    pub entries: usize,
}

impl CacheStats {
    /// Hit rate over all fetches (0.0 when nothing was fetched).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.poisoned;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    payload: Vec<u8>,
    /// Content hash of `payload` at store time.
    payload_hash: u128,
    /// LRU clock value of the last touch.
    tick: u64,
}

struct Inner {
    map: HashMap<Key, Entry>,
    tick: u64,
    stats: CacheStats,
}

/// The two-layer content-addressed artifact cache. Cheap to share:
/// clone an `Arc<ArtifactCache>` per worker.
pub struct ArtifactCache {
    inner: Mutex<Inner>,
    capacity: usize,
    disk: Option<PathBuf>,
}

const DISK_MAGIC: &[u8; 4] = b"PLXC";

impl ArtifactCache {
    /// Creates a cache holding at most `capacity` in-memory entries,
    /// with an optional on-disk layer rooted at `disk` (created on
    /// first store; a failing disk layer degrades to memory-only).
    pub fn new(capacity: usize, disk: Option<PathBuf>) -> ArtifactCache {
        ArtifactCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                stats: CacheStats::default(),
            }),
            capacity: capacity.max(1),
            disk,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A worker panicking mid-protect must not wedge the whole
        // batch; cache state is verified-on-read, so continuing past a
        // poisoned mutex is safe.
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Fetches and verifies the payload for `key`.
    pub fn fetch(&self, key: Key) -> Fetch {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.map.get_mut(&key) {
            if hash128(&entry.payload) == entry.payload_hash {
                entry.tick = tick;
                let payload = entry.payload.clone();
                inner.stats.hits += 1;
                return Fetch::Hit(payload);
            }
            // In-memory poisoning: evict everywhere.
            inner.map.remove(&key);
            inner.stats.poisoned += 1;
            inner.stats.entries = inner.map.len();
            drop(inner);
            self.remove_disk(key);
            return Fetch::Poisoned;
        }
        drop(inner);
        match self.read_disk(key) {
            DiskRead::Ok(payload) => {
                let mut inner = self.lock();
                inner.stats.hits += 1;
                drop(inner);
                self.insert_mem(key, payload.clone());
                Fetch::Hit(payload)
            }
            DiskRead::Corrupt => {
                self.remove_disk(key);
                self.lock().stats.poisoned += 1;
                Fetch::Poisoned
            }
            DiskRead::Absent => {
                self.lock().stats.misses += 1;
                Fetch::Miss
            }
        }
    }

    /// Stores a payload under `key` in both layers.
    pub fn store(&self, key: Key, payload: Vec<u8>) {
        self.write_disk(key, &payload);
        self.insert_mem(key, payload);
    }

    fn insert_mem(&self, key: Key, mut payload: Vec<u8>) {
        // A resident entry holds its exact length: an encoder's growth
        // slack would otherwise stay allocated for the entry's lifetime.
        payload.shrink_to_fit();
        let payload_hash = hash128(&payload);
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        while inner.map.len() >= self.capacity && !inner.map.contains_key(&key) {
            let Some((&lru, _)) = inner.map.iter().min_by_key(|(_, e)| e.tick) else {
                break;
            };
            inner.map.remove(&lru);
            inner.stats.evictions += 1;
        }
        inner.map.insert(
            key,
            Entry {
                payload,
                payload_hash,
                tick,
            },
        );
        inner.stats.entries = inner.map.len();
    }

    /// Evicts `key` from both layers and counts it as poisoned.
    ///
    /// For *consumer-level* corruption: the payload's self-hash
    /// matched (the bytes are what was stored) but a higher layer —
    /// e.g. decoding a `Protected` artifact back into an image —
    /// found them semantically invalid. The entry must not be served
    /// again.
    pub fn evict(&self, key: Key) {
        let mut inner = self.lock();
        inner.map.remove(&key);
        inner.stats.poisoned += 1;
        inner.stats.entries = inner.map.len();
        drop(inner);
        self.remove_disk(key);
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let mut inner = self.lock();
        inner.stats.entries = inner.map.len();
        inner.stats
    }

    /// Drops every in-memory entry (the disk layer, if any, persists).
    pub fn clear_memory(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.stats.entries = 0;
    }

    /// Fault-injection seam: corrupts the payload bytes of every stored
    /// entry, in memory and on disk, *without* updating the stored
    /// hashes — exactly what bit-rot or tampering would do. Subsequent
    /// fetches must detect the mismatch and report
    /// [`Fetch::Poisoned`]. Returns the number of entries corrupted.
    pub fn poison_everything(&self) -> usize {
        let mut n = 0;
        let mut inner = self.lock();
        for entry in inner.map.values_mut() {
            if parallax_core::poison_cache_blob(&mut entry.payload) {
                n += 1;
            }
        }
        drop(inner);
        if let Some(dir) = &self.disk {
            if let Ok(rd) = std::fs::read_dir(dir) {
                for f in rd.flatten() {
                    let path = f.path();
                    if path.extension().is_none_or(|e| e != "plxc") {
                        continue;
                    }
                    let Ok(mut bytes) = std::fs::read(&path) else {
                        continue;
                    };
                    // Corrupt the payload region only, leaving header
                    // and stored hash intact.
                    if bytes.len() > 20 && parallax_core::poison_cache_blob(&mut bytes[20..]) {
                        let _ = std::fs::write(&path, &bytes);
                        n += 1;
                    }
                }
            }
        }
        n
    }

    // ----- disk layer -----

    fn disk_path(&self, key: Key) -> Option<PathBuf> {
        self.disk.as_ref().map(|d| d.join(key.file_name()))
    }

    fn write_disk(&self, key: Key, payload: &[u8]) {
        let Some(path) = self.disk_path(key) else {
            return;
        };
        let Some(dir) = path.parent() else {
            return;
        };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let mut bytes = Vec::with_capacity(20 + payload.len());
        bytes.extend_from_slice(DISK_MAGIC);
        bytes.extend_from_slice(&hash128(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        // Durable atomic publish: write the temp file, fsync it, then
        // rename. The fsync guarantees the rename never publishes a
        // name whose *contents* are still in flight — a crash can
        // leave a stale temp file behind but never a torn entry under
        // the final name. The temp name carries a process-wide
        // sequence number in addition to the pid: two threads of the
        // same process storing the same key concurrently (two `serve`
        // requests for one binary) must not share a temp file, or one
        // writer's `File::create` truncates under the other and the
        // rename can publish torn bytes.
        static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp{}-{seq}", std::process::id()));
        let publish = || -> std::io::Result<()> {
            use std::io::Write;
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
            drop(f);
            std::fs::rename(&tmp, &path)
        };
        if publish().is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    fn read_disk(&self, key: Key) -> DiskRead {
        let Some(path) = self.disk_path(key) else {
            return DiskRead::Absent;
        };
        let Ok(bytes) = std::fs::read(&path) else {
            return DiskRead::Absent;
        };
        if bytes.len() < 20 || &bytes[..4] != DISK_MAGIC {
            return DiskRead::Corrupt;
        }
        let mut hash_bytes = [0u8; 16];
        hash_bytes.copy_from_slice(&bytes[4..20]);
        let stored = u128::from_le_bytes(hash_bytes);
        let payload = &bytes[20..];
        if hash128(payload) != stored {
            return DiskRead::Corrupt;
        }
        DiskRead::Ok(payload.to_vec())
    }

    fn remove_disk(&self, key: Key) {
        if let Some(path) = self.disk_path(key) {
            let _ = std::fs::remove_file(path);
        }
    }
}

enum DiskRead {
    Ok(Vec<u8>),
    Corrupt,
    Absent,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(h: u128) -> Key {
        Key {
            kind: ArtifactKind::Scan,
            hash: h,
        }
    }

    #[test]
    fn memory_roundtrip_and_lru() {
        let c = ArtifactCache::new(2, None);
        c.store(key(1), vec![1, 1]);
        c.store(key(2), vec![2, 2]);
        assert!(matches!(c.fetch(key(1)), Fetch::Hit(v) if v == vec![1, 1]));
        // key(2) is now least-recently-used; inserting a third evicts it.
        c.store(key(3), vec![3, 3]);
        assert!(matches!(c.fetch(key(2)), Fetch::Miss));
        assert!(matches!(c.fetch(key(1)), Fetch::Hit(_)));
        assert!(matches!(c.fetch(key(3)), Fetch::Hit(_)));
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
    }

    #[test]
    fn resident_payloads_keep_no_growth_slack() {
        let c = ArtifactCache::new(2, None);
        let mut payload = Vec::with_capacity(1024);
        payload.extend_from_slice(b"scan");
        c.store(key(4), payload);
        assert_eq!(c.lock().map[&key(4)].payload.capacity(), 4);
        assert!(matches!(c.fetch(key(4)), Fetch::Hit(v) if v == b"scan"));
    }

    #[test]
    fn poisoned_entries_are_detected_and_evicted() {
        let c = ArtifactCache::new(8, None);
        c.store(key(7), vec![0u8; 64]);
        assert_eq!(c.poison_everything(), 1);
        assert!(matches!(c.fetch(key(7)), Fetch::Poisoned));
        // Evicted: the next fetch is a clean miss, and a re-store works.
        assert!(matches!(c.fetch(key(7)), Fetch::Miss));
        c.store(key(7), vec![0u8; 64]);
        assert!(matches!(c.fetch(key(7)), Fetch::Hit(_)));
        assert_eq!(c.stats().poisoned, 1);
    }

    #[test]
    fn disk_layer_roundtrip_and_corruption() {
        let dir = std::env::temp_dir().join(format!("plx-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let c = ArtifactCache::new(8, Some(dir.clone()));
            c.store(key(9), b"artifact".to_vec());
        }
        // A fresh cache (cold memory) reads through the disk layer.
        let c2 = ArtifactCache::new(8, Some(dir.clone()));
        assert!(matches!(c2.fetch(key(9)), Fetch::Hit(v) if v == b"artifact"));
        // Corrupt on disk, cold memory again: detected.
        let c3 = ArtifactCache::new(8, Some(dir.clone()));
        assert!(c3.poison_everything() >= 1);
        c3.clear_memory();
        assert!(matches!(c3.fetch(key(9)), Fetch::Poisoned));
        assert!(matches!(c3.fetch(key(9)), Fetch::Miss));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
