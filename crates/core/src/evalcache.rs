//! Content-addressed evaluation cache.
//!
//! GA populations are full of repeated programs: elites survive
//! generations unchanged, crossover recombines identical gene runs, and a
//! converged search measures near-duplicates constantly. Since the shipped
//! measurements are pure functions of program content (see
//! [`crate::Measurement::content_pure`]), re-simulating an
//! already-measured program is pure waste. This cache keys results by
//! `(configuration fingerprint, canonical gene hash)` and hands back the
//! exact measurement vector — bit-identical to a fresh simulation — on a
//! hit.
//!
//! Determinism: a hit returns the same bits a miss would recompute, so
//! cache size, eviction order, and thread scheduling can never change the
//! evolved result — they only change how much work is saved.
//!
//! The cache persists across crash/resume as an `evalcache.bin` sidecar
//! written alongside the checkpoint manifest (same atomic tmp+rename
//! discipline). The sidecar is an optimization, not state: a missing,
//! stale, or corrupt sidecar simply starts the cache cold. Since format
//! version 2 every record carries a CRC-32 of its own bytes, so a
//! bit-flipped sidecar (cosmic ray, torn storage) drops only the corrupt
//! records on load — the healthy remainder still warms the cache.

use crate::error::GestError;
use crate::output::{atomic_write, WriteFs};
use gest_ga::Fnv128;
use gest_isa::codec::{Decoder, Encoder, Sink};
use gest_isa::Gene;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Magic bytes identifying an evaluation-cache sidecar.
const MAGIC: &[u8; 8] = b"GESTEVC1";

/// Current sidecar format version. Version 2 added the per-record CRC-32
/// (version-1 sidecars are treated as stale and start the cache cold —
/// safe, because the sidecar is an optimization, never state).
const VERSION: u32 = 2;

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the per-record checksum
/// guarding sidecar records against silent corruption. Byte-at-a-time
/// through [`CRC32_TABLE`]; every eviction re-encodes the whole cache, so
/// the checksum is on the serve scheduler's path.
fn crc32(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(0xFFFF_FFFF_u32, |crc, &byte| {
        CRC32_TABLE[((crc ^ u32::from(byte)) & 0xFF) as usize] ^ (crc >> 8)
    })
}

/// The CRC-32 of every byte value, built at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[byte] = crc;
        byte += 1;
    }
    table
};

/// File name of the sidecar inside a run's output directory.
pub const EVAL_CACHE_FILE: &str = "evalcache.bin";

/// Canonical content hash of an individual's genes: 128-bit FNV-1a over
/// the same codec encoding population files use, so two individuals hash
/// equal exactly when they would be saved byte-identically. The encoding
/// streams straight into the hasher; no byte buffer is built.
pub fn genes_hash(genes: &[Gene]) -> u128 {
    let mut enc = Encoder::with_sink(HashSink(Fnv128::new()));
    enc.genes(genes);
    enc.into_sink().0.finish()
}

/// Feeds an [`Encoder`]'s bytes into a running [`Fnv128`].
struct HashSink(Fnv128);

impl Sink for HashSink {
    fn put(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }
}

/// Cache key: which search configuration measured which program content.
///
/// The configuration fingerprint (see [`crate::config_fingerprint`])
/// covers the machine model, run budgets, measurement name, template, and
/// instruction pool — everything that could change a measurement besides
/// the genes themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EvalKey {
    /// FNV-1a 64 of the run's canonical `config.xml` rendering.
    pub config_fp: u64,
    /// Canonical gene-content hash ([`genes_hash`]).
    pub genes_hash: u128,
}

/// A cached evaluation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedEval {
    /// The measurement vector, in metric order.
    pub measurements: Vec<f64>,
    /// The simulator's full stat export (`RunResult::metric_kv`) when the
    /// measurement provided detail; replayed into telemetry histograms on
    /// a hit so observability is independent of hit rate. Dropped by the
    /// on-disk sidecar (restored entries report `None`).
    pub detail_kv: Option<Vec<(&'static str, f64)>>,
}

impl CachedEval {
    /// Approximate heap footprint, for the memory cap.
    fn payload_bytes(&self) -> usize {
        self.measurements.len() * 8
            + self
                .detail_kv
                .as_ref()
                .map_or(0, |kv| kv.len() * (8 + std::mem::size_of::<&str>()))
    }
}

/// Point-in-time counters of an [`EvalCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalCacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries stored (including overwrites of identical keys).
    pub inserts: u64,
    /// Entries evicted by the memory cap.
    pub evictions: u64,
    /// Sidecar records dropped on load because their CRC did not match
    /// (bit rot, torn storage). Zero except right after a resume from a
    /// damaged sidecar.
    pub corrupt_dropped: u64,
    /// Approximate bytes currently held.
    pub bytes: usize,
    /// Entries currently held.
    pub entries: usize,
}

impl EvalCacheStats {
    /// Hit rate in `[0, 1]`; 0.0 before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Fixed per-entry bookkeeping charged against the cap on top of the
/// payload (key, slab node, map slot).
const ENTRY_OVERHEAD: usize = 96;

const NIL: usize = usize::MAX;

/// One slab cell of the intrusive LRU list.
#[derive(Debug)]
struct Node {
    key: EvalKey,
    value: CachedEval,
    bytes: usize,
    prev: usize,
    next: usize,
}

/// Map + slab-backed doubly-linked LRU list.
#[derive(Debug)]
struct Inner {
    map: HashMap<EvalKey, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    /// Most recently used, or `NIL` when empty.
    head: usize,
    /// Least recently used, or `NIL` when empty.
    tail: usize,
    bytes: usize,
}

impl Inner {
    fn new() -> Inner {
        Inner {
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
        }
    }

    fn unlink(&mut self, index: usize) {
        let (prev, next) = (self.nodes[index].prev, self.nodes[index].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next].prev = prev;
        }
    }

    fn push_front(&mut self, index: usize) {
        self.nodes[index].prev = NIL;
        self.nodes[index].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = index;
        }
        self.head = index;
        if self.tail == NIL {
            self.tail = index;
        }
    }

    fn touch(&mut self, index: usize) {
        if self.head != index {
            self.unlink(index);
            self.push_front(index);
        }
    }
}

/// Thread-safe, LRU-bounded, content-addressed result cache.
///
/// # Examples
///
/// ```
/// use gest_core::{CachedEval, EvalCache, EvalKey};
/// let cache = EvalCache::new(1 << 20, 7);
/// let key = EvalKey { config_fp: 7, genes_hash: 42 };
/// assert!(cache.get(&key).is_none());
/// cache.insert(
///     key,
///     CachedEval { measurements: vec![1.5, 2.5], detail_kv: None },
/// );
/// assert_eq!(cache.get(&key).unwrap().measurements, vec![1.5, 2.5]);
/// let stats = cache.stats();
/// assert_eq!((stats.hits, stats.misses), (1, 1));
/// ```
#[derive(Debug)]
pub struct EvalCache {
    inner: Mutex<Inner>,
    max_bytes: usize,
    config_fp: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    corrupt_dropped: AtomicU64,
}

impl EvalCache {
    /// Creates an empty cache capped at roughly `max_bytes` of payload,
    /// bound to one configuration fingerprint (used when persisting).
    pub fn new(max_bytes: usize, config_fp: u64) -> EvalCache {
        EvalCache {
            inner: Mutex::new(Inner::new()),
            max_bytes,
            config_fp,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            corrupt_dropped: AtomicU64::new(0),
        }
    }

    /// Locks the LRU state, recovering from poison: a panic in one cache
    /// user (e.g. a panicking measurement plug-in unwinding through a
    /// worker thread) must not take the cache — and with it every other
    /// evaluation — down. The cached data is an optimization, so
    /// best-effort recovery is always safe: the worst case is a stale or
    /// missing entry, which behaves like a miss.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The configuration fingerprint this cache is bound to. Results are
    /// only valid for runs whose configuration hashes to the same value.
    pub fn config_fingerprint(&self) -> u64 {
        self.config_fp
    }

    /// Looks up a key, refreshing its recency on a hit, and copies out
    /// the whole entry.
    pub fn get(&self, key: &EvalKey) -> Option<CachedEval> {
        self.probe(key, CachedEval::clone)
    }

    /// [`get`](EvalCache::get) for a reader that needs only the
    /// measurements: a hit copies out the measurement vector alone, not
    /// the simulator detail. Hit/miss counts and recency are updated
    /// exactly as by `get`.
    pub fn measurements(&self, key: &EvalKey) -> Option<Vec<f64>> {
        self.probe(key, |value| value.measurements.clone())
    }

    /// One counted lookup under the lock: on a hit, refreshes the entry's
    /// recency and hands it to `read`.
    fn probe<T>(&self, key: &EvalKey, read: impl FnOnce(&CachedEval) -> T) -> Option<T> {
        let mut inner = self.lock();
        match inner.map.get(key).copied() {
            Some(index) => {
                inner.touch(index);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(read(&inner.nodes[index].value))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a result, evicting least-recently-used entries past the
    /// memory cap. Re-inserting an existing key replaces its value (the
    /// values are identical in practice — measurements are content-pure).
    pub fn insert(&self, key: EvalKey, value: CachedEval) {
        let bytes = value.payload_bytes() + ENTRY_OVERHEAD;
        let mut inner = self.lock();
        self.inserts.fetch_add(1, Ordering::Relaxed);
        if let Some(index) = inner.map.get(&key).copied() {
            inner.bytes = inner.bytes - inner.nodes[index].bytes + bytes;
            inner.nodes[index].value = value;
            inner.nodes[index].bytes = bytes;
            inner.touch(index);
        } else {
            let index = match inner.free.pop() {
                Some(index) => {
                    inner.nodes[index] = Node {
                        key,
                        value,
                        bytes,
                        prev: NIL,
                        next: NIL,
                    };
                    index
                }
                None => {
                    inner.nodes.push(Node {
                        key,
                        value,
                        bytes,
                        prev: NIL,
                        next: NIL,
                    });
                    inner.nodes.len() - 1
                }
            };
            inner.push_front(index);
            inner.map.insert(key, index);
            inner.bytes += bytes;
        }
        while inner.bytes > self.max_bytes && inner.map.len() > 1 {
            let victim = inner.tail;
            inner.unlink(victim);
            let victim_key = inner.nodes[victim].key;
            inner.map.remove(&victim_key);
            inner.bytes -= inner.nodes[victim].bytes;
            inner.nodes[victim].value = CachedEval {
                measurements: Vec::new(),
                detail_kv: None,
            };
            inner.free.push(victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> EvalCacheStats {
        let inner = self.lock();
        EvalCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            corrupt_dropped: self.corrupt_dropped.load(Ordering::Relaxed),
            bytes: inner.bytes,
            entries: inner.map.len(),
        }
    }

    /// Serializes the entries (least recent first, so loading restores
    /// recency order). Each record is length-prefixed and carries a
    /// CRC-32 of its bytes, so load can drop individually corrupted
    /// records instead of discarding the whole sidecar. Detail key/value
    /// exports are dropped: they hold `&'static str` keys that cannot be
    /// restored from disk, and only telemetry consumes them.
    pub fn encode(&self) -> Vec<u8> {
        let inner = self.lock();
        let mut enc = Encoder::new();
        enc.bytes(MAGIC);
        enc.u32(VERSION);
        enc.u64(self.config_fp);
        enc.varint(inner.map.len() as u64);
        let mut record = Vec::new();
        let mut index = inner.tail;
        while index != NIL {
            let node = &inner.nodes[index];
            record.clear();
            let mut fields = Encoder::with_sink(&mut record);
            fields.u64((node.key.genes_hash >> 64) as u64);
            fields.u64(node.key.genes_hash as u64);
            fields.varint(node.value.measurements.len() as u64);
            for &m in &node.value.measurements {
                fields.f64(m);
            }
            enc.bytes(&record);
            enc.u32(crc32(&record));
            index = node.prev;
        }
        enc.into_bytes()
    }

    /// Writes the sidecar atomically into `dir` as [`EVAL_CACHE_FILE`].
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn save(&self, dir: &Path) -> Result<(), GestError> {
        atomic_write(&dir.join(EVAL_CACHE_FILE), &self.encode())?;
        Ok(())
    }

    /// Like [`EvalCache::save`], but through an explicit [`WriteFs`] —
    /// the seam fault-injection harnesses use to simulate disk-full and
    /// corrupted sidecar writes against the real persistence logic.
    ///
    /// # Errors
    ///
    /// I/O errors from the [`WriteFs`].
    pub fn save_via(&self, dir: &Path, fs: &dyn WriteFs) -> Result<(), GestError> {
        fs.write_atomic(&dir.join(EVAL_CACHE_FILE), &self.encode())?;
        Ok(())
    }

    /// Loads a sidecar from `dir` into a fresh cache (see
    /// [`EvalCache::decode`]), warning once on stderr when corrupt records
    /// were dropped. A missing sidecar yields an empty cache.
    pub fn load(dir: &Path, config_fp: u64, max_bytes: usize) -> EvalCache {
        let Ok(bytes) = std::fs::read(dir.join(EVAL_CACHE_FILE)) else {
            return EvalCache::new(max_bytes, config_fp);
        };
        let cache = EvalCache::decode(&bytes, config_fp, max_bytes);
        let dropped = cache.corrupt_dropped.load(Ordering::Relaxed);
        if dropped > 0 {
            eprintln!(
                "warning: eval-cache sidecar in {} had {dropped} corrupt record{} \
                 (dropped; the healthy remainder still warms the cache)",
                dir.display(),
                if dropped == 1 { "" } else { "s" }
            );
        }
        cache
    }

    /// Decodes sidecar bytes into a fresh cache. Stale or
    /// fingerprint-mismatched input yields an empty cache — the sidecar
    /// is an optimization, never required state. Records whose CRC does
    /// not match (bit rot, torn storage) are dropped individually; the
    /// healthy remainder still loads (counted in
    /// [`EvalCacheStats::corrupt_dropped`]). Structural damage past the
    /// last decodable record keeps whatever loaded before it.
    pub fn decode(bytes: &[u8], config_fp: u64, max_bytes: usize) -> EvalCache {
        let cache = EvalCache::new(max_bytes, config_fp);
        let mut dec = Decoder::new(bytes);
        let header_ok = (|| -> Result<bool, gest_isa::CodecError> {
            Ok(dec.bytes()? == MAGIC && dec.u32()? == VERSION && dec.u64()? == config_fp)
        })();
        if !header_ok.unwrap_or(false) {
            return cache;
        }
        let Ok(count) = dec.varint() else {
            return cache;
        };
        let mut dropped: u64 = 0;
        for _ in 0..count {
            // A failure here is structural (a corrupted length prefix
            // desynchronized the stream): stop, keeping earlier records.
            let Ok((record, stored_crc)) = (|| -> Result<(&[u8], u32), gest_isa::CodecError> {
                Ok((dec.bytes()?, dec.u32()?))
            })() else {
                dropped += 1;
                break;
            };
            if crc32(record) != stored_crc {
                dropped += 1;
                continue;
            }
            let Ok((genes_hash, measurements)) =
                (|| -> Result<(u128, Vec<f64>), gest_isa::CodecError> {
                    let mut rec = Decoder::new(record);
                    let hi = rec.u64()?;
                    let lo = rec.u64()?;
                    let n = rec.count(8, "measurements")?;
                    let mut measurements = Vec::with_capacity(n);
                    for _ in 0..n {
                        measurements.push(rec.f64()?);
                    }
                    Ok(((u128::from(hi) << 64) | u128::from(lo), measurements))
                })()
            else {
                // CRC matched but the record does not decode: a schema
                // bug rather than bit rot; drop just this record.
                dropped += 1;
                continue;
            };
            cache.insert(
                EvalKey {
                    config_fp,
                    genes_hash,
                },
                CachedEval {
                    measurements,
                    detail_kv: None,
                },
            );
        }
        // Decoding went through insert: reset the counters it inflated.
        cache.inserts.store(0, Ordering::Relaxed);
        cache.misses.store(0, Ordering::Relaxed);
        cache.hits.store(0, Ordering::Relaxed);
        cache.evictions.store(0, Ordering::Relaxed);
        cache.corrupt_dropped.store(dropped, Ordering::Relaxed);
        cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key(h: u128) -> EvalKey {
        EvalKey {
            config_fp: 99,
            genes_hash: h,
        }
    }

    fn value(seed: f64) -> CachedEval {
        CachedEval {
            measurements: vec![seed, seed * 2.0, seed * 3.0],
            detail_kv: Some(vec![("ipc", seed)]),
        }
    }

    #[test]
    fn hit_returns_exact_bits() {
        let cache = EvalCache::new(1 << 20, 99);
        let v = CachedEval {
            measurements: vec![0.1 + 0.2, f64::MIN_POSITIVE, -0.0],
            detail_kv: None,
        };
        cache.insert(key(1), v.clone());
        let out = cache.get(&key(1)).unwrap();
        assert_eq!(
            out.measurements
                .iter()
                .map(|m| m.to_bits())
                .collect::<Vec<_>>(),
            v.measurements
                .iter()
                .map(|m| m.to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn lru_evicts_oldest_under_pressure() {
        // Both lookups count and refresh recency alike; `measurements`
        // hands back the entry's measurements alone.
        let probes: [fn(&EvalCache, u128) -> bool; 2] = [
            |cache, h| cache.get(&key(h)).is_some(),
            |cache, h| {
                cache
                    .measurements(&key(h))
                    .inspect(|m| assert_eq!(*m, value(h as f64).measurements))
                    .is_some()
            },
        ];
        for probe in probes {
            // Three entries of 144 bytes each; cap at two of them.
            let cache = EvalCache::new(300, 99);
            cache.insert(key(1), value(1.0));
            cache.insert(key(2), value(2.0));
            assert!(probe(&cache, 1)); // refresh 1; 2 becomes LRU
            cache.insert(key(3), value(3.0));
            assert!(!probe(&cache, 2), "LRU entry evicted");
            assert!(probe(&cache, 1));
            assert!(probe(&cache, 3));
            let stats = cache.stats();
            assert_eq!((stats.hits, stats.misses), (3, 1));
            assert_eq!(stats.evictions, 1);
            assert_eq!(stats.entries, 2);
            assert!(stats.bytes <= 300);
        }
    }

    #[test]
    fn reinsert_replaces_without_growth() {
        let cache = EvalCache::new(1 << 20, 99);
        cache.insert(key(5), value(1.0));
        let before = cache.stats().bytes;
        cache.insert(key(5), value(2.0));
        assert_eq!(cache.stats().bytes, before);
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.get(&key(5)).unwrap().measurements[0], 2.0);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let cache = EvalCache::new(1 << 20, 99);
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), value(1.0));
        assert!(cache.get(&key(1)).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(EvalCacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn sidecar_round_trips_and_rejects_mismatches() {
        let dir = std::env::temp_dir().join(format!("gest_evc_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let cache = EvalCache::new(1 << 20, 99);
        cache.insert(key(1), value(1.0));
        cache.insert(key(2), value(2.0));
        cache.save(&dir).unwrap();

        let restored = EvalCache::load(&dir, 99, 1 << 20);
        let out = restored.get(&key(2)).unwrap();
        assert_eq!(out.measurements, value(2.0).measurements);
        assert!(out.detail_kv.is_none(), "detail is not persisted");
        assert_eq!(restored.stats().entries, 2);
        assert_eq!(restored.stats().inserts, 0, "loading is not inserting");

        // Another fingerprint ignores the sidecar.
        assert_eq!(EvalCache::load(&dir, 100, 1 << 20).stats().entries, 0);
        // Corruption degrades to an empty cache, never an error.
        std::fs::write(dir.join(EVAL_CACHE_FILE), b"garbage").unwrap();
        assert_eq!(EvalCache::load(&dir, 99, 1 << 20).stats().entries, 0);
        // Missing file likewise.
        std::fs::remove_file(dir.join(EVAL_CACHE_FILE)).unwrap();
        assert_eq!(EvalCache::load(&dir, 99, 1 << 20).stats().entries, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flipped_sidecar_drops_only_corrupt_records() {
        let dir = std::env::temp_dir().join(format!("gest_evc_crc_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let cache = EvalCache::new(1 << 20, 99);
        cache.insert(key(1), value(1.0));
        cache.insert(key(2), value(2.0));
        cache.insert(key(3), value(3.0));
        cache.save(&dir).unwrap();

        // Flip one bit in the final record (its trailing CRC byte): only
        // that record may be lost.
        let mut bytes = std::fs::read(dir.join(EVAL_CACHE_FILE)).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(dir.join(EVAL_CACHE_FILE), &bytes).unwrap();

        let restored = EvalCache::load(&dir, 99, 1 << 20);
        let stats = restored.stats();
        assert_eq!(stats.entries, 2, "healthy records still load");
        assert_eq!(stats.corrupt_dropped, 1);
        // Records are saved least-recent first, so the damaged final
        // record is the most recently used key.
        assert!(restored.get(&key(1)).is_some());
        assert!(restored.get(&key(2)).is_some());
        assert!(restored.get(&key(3)).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_sidecar_keeps_records_before_the_tear() {
        let dir = std::env::temp_dir().join(format!("gest_evc_trunc_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let cache = EvalCache::new(1 << 20, 99);
        cache.insert(key(1), value(1.0));
        cache.insert(key(2), value(2.0));
        cache.insert(key(3), value(3.0));
        cache.save(&dir).unwrap();

        let bytes = std::fs::read(dir.join(EVAL_CACHE_FILE)).unwrap();
        std::fs::write(dir.join(EVAL_CACHE_FILE), &bytes[..bytes.len() - 6]).unwrap();

        let restored = EvalCache::load(&dir, 99, 1 << 20);
        let stats = restored.stats();
        assert_eq!(stats.entries, 2, "records before the tear survive");
        assert!(stats.corrupt_dropped >= 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The exact sidecar bytes of a fixed cache: 300 entries of one to
    /// seven measurements, with lookups reordering recency and a byte cap
    /// that evicts the oldest. FNV-1a 64 of `encode()`.
    #[test]
    fn fixed_cache_sidecar_bytes_are_pinned() {
        let key_of = |i: u64| EvalKey {
            config_fp: 0x5eed_cafe,
            genes_hash: u128::from(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) << 64 | u128::from(i),
        };
        let cache = EvalCache::new(24_000, 0x5eed_cafe);
        for i in 0..300u64 {
            let measurements = (0..=i % 7)
                .map(|m| (i * 8 + m) as f64 / 3.0 - 50.0)
                .collect();
            cache.insert(
                key_of(i),
                CachedEval {
                    measurements,
                    detail_kv: None,
                },
            );
            if i % 5 == 0 {
                let _ = cache.get(&key_of(i / 2));
            }
        }
        assert!(cache.stats().evictions > 0, "the cap evicts");
        let digest = cache
            .encode()
            .iter()
            .fold(0xcbf2_9ce4_8422_2325_u64, |hash, &byte| {
                (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
            });
        assert_eq!(
            digest, 0xe04c_1418_58cd_ff5e,
            "sidecar digest {digest:#018x}"
        );
    }

    /// The bitwise CRC-32 the table replaced: one shift per bit.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFF_u32;
        for &byte in bytes {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn table_crc32_matches_the_bitwise_reference(
            bytes in prop::collection::vec(any::<u8>(), 0..300usize),
        ) {
            prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        }
    }

    /// Hammers a cache from 8 threads: each thread inserts its own key
    /// range once and performs two lookups per key (its own plus a
    /// neighbour's). Returns (total inserts, total lookups).
    fn hammer(cache: &EvalCache) -> (u64, u64) {
        const THREADS: u64 = 8;
        const KEYS_PER_THREAD: u64 = 400;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..KEYS_PER_THREAD {
                        let own = key(u128::from(t * KEYS_PER_THREAD + i));
                        cache.insert(own, value(i as f64));
                        let _ = cache.get(&own);
                        let neighbour = key(u128::from(((t + 1) % THREADS) * KEYS_PER_THREAD + i));
                        let _ = cache.get(&neighbour);
                    }
                });
            }
        });
        (THREADS * KEYS_PER_THREAD, 2 * THREADS * KEYS_PER_THREAD)
    }

    #[test]
    fn counters_stay_consistent_under_parallel_hammering() {
        // Roomy cache: nothing is ever evicted, so occupancy must equal
        // the number of distinct keys and every lookup must be accounted.
        let cache = EvalCache::new(64 << 20, 99);
        let (inserts, lookups) = hammer(&cache);
        let stats = cache.stats();
        assert_eq!(stats.inserts, inserts);
        assert_eq!(stats.hits + stats.misses, lookups, "no lookup lost");
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.entries as u64, inserts, "distinct keys all held");
        assert!(stats.hits >= inserts, "own-key lookups cannot miss");
    }

    #[test]
    fn eviction_counters_stay_consistent_under_parallel_hammering() {
        // Tiny cap: eviction churns constantly while 8 threads race.
        // Every key is inserted exactly once, so whatever was not evicted
        // must still be resident — and the byte cap must hold.
        let cache = EvalCache::new(2_000, 99);
        let (inserts, lookups) = hammer(&cache);
        let stats = cache.stats();
        assert_eq!(stats.inserts, inserts);
        assert_eq!(stats.hits + stats.misses, lookups, "no lookup lost");
        assert_eq!(
            stats.entries as u64 + stats.evictions,
            inserts,
            "every insert is either resident or counted as evicted"
        );
        assert!(stats.evictions > 0, "the cap must have triggered");
        assert!(stats.bytes <= 2_000, "cap respected: {stats:?}");
    }

    #[test]
    fn genes_hash_is_content_addressed() {
        let genes_a = vec![gest_isa::Gene {
            def_index: 0,
            instrs: gest_isa::asm::parse_block("ADD x1, x2, x3").unwrap().into(),
        }];
        let genes_b = vec![gest_isa::Gene {
            def_index: 0,
            instrs: gest_isa::asm::parse_block("ADD x1, x2, x4").unwrap().into(),
        }];
        assert_eq!(genes_hash(&genes_a), genes_hash(&genes_a.clone()));
        assert_ne!(genes_hash(&genes_a), genes_hash(&genes_b));
        let different_def = vec![gest_isa::Gene {
            def_index: 1,
            ..genes_a[0].clone()
        }];
        assert_ne!(genes_hash(&genes_a), genes_hash(&different_def));
    }
}
