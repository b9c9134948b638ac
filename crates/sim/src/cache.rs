//! A small set-associative L1 data-cache model with LRU replacement.
//!
//! The paper notes that power viruses have "extremely high L1 hit rates";
//! the stress programs here address a scratch buffer smaller than L1, so
//! after warm-up every access hits. The model still tracks real tags so
//! misses are costed correctly for workloads that do stride past L1.

/// L1 data-cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes (power of two).
    pub size_bytes: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.line_bytes * self.ways)
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 1.0 when there were no accesses.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A set-associative data cache with true-LRU replacement.
///
/// # Examples
///
/// ```
/// use gest_sim::{CacheConfig, DataCache};
/// let mut cache = DataCache::new(CacheConfig { size_bytes: 1024, line_bytes: 64, ways: 2 });
/// assert!(!cache.access(0));   // cold miss
/// assert!(cache.access(8));    // same line: hit
/// assert_eq!(cache.stats().misses, 1);
/// ```
#[derive(Debug, Clone)]
pub struct DataCache {
    config: CacheConfig,
    /// `ways` consecutive (tag, last-use tick) entries per set;
    /// `u64::MAX` tag = invalid.
    lines: Vec<(u64, u64)>,
    /// log2 of the line size.
    line_shift: u32,
    /// log2 of the set count.
    set_shift: u32,
    tick: u64,
    stats: CacheStats,
}

impl DataCache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not power-of-two sized or implies a set
    /// count that is zero or not a power of two.
    pub fn new(config: CacheConfig) -> DataCache {
        assert!(
            config.size_bytes.is_power_of_two(),
            "cache size must be a power of two"
        );
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(config.ways >= 1, "need at least one way");
        let sets = config.sets();
        assert!(sets >= 1, "geometry implies zero sets");
        assert!(
            sets.is_power_of_two(),
            "set count must be a power of two, got {sets}"
        );
        DataCache {
            config,
            lines: vec![(u64::MAX, 0); sets * config.ways],
            line_shift: config.line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accesses the byte address; returns `true` on hit. Misses fill the
    /// line (write-allocate; stores and loads are treated alike).
    #[inline]
    pub fn access(&mut self, addr: usize) -> bool {
        self.tick += 1;
        let line = addr >> self.line_shift;
        let set_index = line & ((1 << self.set_shift) - 1);
        let tag = (line >> self.set_shift) as u64;
        let ways = self.config.ways;
        let set = &mut self.lines[set_index * ways..(set_index + 1) * ways];
        if let Some(way) = set.iter_mut().find(|(t, _)| *t == tag) {
            way.1 = self.tick;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        // Replace LRU (smallest tick; invalid ways have tick 0).
        let victim = set
            .iter_mut()
            .min_by_key(|(_, used)| *used)
            .expect("ways >= 1");
        *victim = (tag, self.tick);
        false
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Writes a replacement-order signature of the contents into `out`
    /// (reused): per way its tag and its LRU rank within its set, ranked
    /// by `(tick, way index)`. Ranks are all the replacement policy ever
    /// consumes — a hit moves the touched way to the globally newest tick
    /// (top rank), and the victim is always the first rank-0 way — so
    /// equal signatures guarantee identical future hit/evict behavior
    /// regardless of absolute tick values. Statistics are excluded.
    pub(crate) fn lru_signature(&self, out: &mut Vec<(u64, u8)>) {
        out.clear();
        for set in self.lines.chunks_exact(self.config.ways) {
            for (i, &(tag, tick)) in set.iter().enumerate() {
                let rank = set
                    .iter()
                    .enumerate()
                    .filter(|&(j, &(_, t))| (t, j) < (tick, i))
                    .count() as u8;
                out.push((tag, rank));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DataCache {
        // 4 sets × 2 ways × 64 B = 512 B.
        DataCache::new(CacheConfig {
            size_bytes: 512,
            line_bytes: 64,
            ways: 2,
        })
    }

    #[test]
    fn warm_working_set_always_hits() {
        let mut cache = small();
        // Touch every line of a 512-byte buffer twice; second pass all hits.
        for pass in 0..2 {
            for addr in (0..512).step_by(64) {
                let hit = cache.access(addr);
                if pass == 1 {
                    assert!(hit, "addr {addr} should hit on second pass");
                }
            }
        }
        assert_eq!(cache.stats().misses, 8);
        assert_eq!(cache.stats().hits, 8);
    }

    #[test]
    fn conflict_eviction_with_lru() {
        let mut cache = small();
        // Three lines mapping to set 0 (stride = sets × line = 256).
        cache.access(0);
        cache.access(256);
        cache.access(512); // evicts line 0 (LRU)
        assert!(!cache.access(0), "line 0 was evicted");
        assert!(cache.access(512 + 8), "line 512 retained");
    }

    #[test]
    fn lru_respects_recency() {
        let mut cache = small();
        cache.access(0);
        cache.access(256);
        cache.access(0); // refresh line 0
        cache.access(512); // should evict 256, not 0
        assert!(cache.access(0));
        assert!(!cache.access(256));
    }

    #[test]
    fn hit_rate_counts_hits_over_accesses() {
        let mut cache = small();
        cache.access(0);
        cache.access(0);
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_hit_rate_is_one() {
        assert_eq!(CacheStats::default().hit_rate(), 1.0);
    }

    #[test]
    #[should_panic(expected = "set count must be a power of two")]
    fn non_power_of_two_set_count_panics() {
        // 4096 B / (64 B lines × 3 ways) = 21 sets.
        let _ = DataCache::new(CacheConfig {
            size_bytes: 4096,
            line_bytes: 64,
            ways: 3,
        });
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = DataCache::new(CacheConfig {
            size_bytes: 1000,
            line_bytes: 64,
            ways: 2,
        });
    }
}
