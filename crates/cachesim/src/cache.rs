//! A single set-associative, write-allocate, write-back cache with true
//! LRU replacement.

/// Geometry of one cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: usize,
    /// Ways per set.
    pub assoc: usize,
    /// Line size in bytes (64 everywhere in this workspace).
    pub line: usize,
}

impl CacheConfig {
    /// Create a new instance.
    pub fn new(size: usize, assoc: usize, line: usize) -> Self {
        assert!(line.is_power_of_two(), "line size must be a power of two");
        assert!(
            size.is_multiple_of(assoc * line),
            "size must be sets*assoc*line"
        );
        Self { size, assoc, line }
    }

    #[inline]
    /// N sets.
    pub fn n_sets(&self) -> usize {
        self.size / (self.assoc * self.line)
    }
}

/// One cached line: tag plus dirty bit.
#[derive(Clone, Copy, Debug)]
struct Entry {
    tag: u64,
    dirty: bool,
}

/// Access outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The line was resident.
    Hit,
    /// Miss; reports whether a dirty victim was written back.
    Miss {
        /// True when the evicted victim line was dirty.
        writeback: bool,
    },
}

/// Set-associative LRU cache. Each set keeps entries MRU-first; with the
/// small associativities modelled here (≤ 24) linear scans beat fancier
/// structures.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Vec<Entry>>,
    line_shift: u32,
    set_mask: u64,
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Dirty lines evicted (write-back traffic in lines).
    pub writebacks: u64,
}

impl Cache {
    /// Create a new instance.
    pub fn new(cfg: CacheConfig) -> Self {
        let n_sets = cfg.n_sets();
        assert!(n_sets.is_power_of_two(), "set count must be a power of two");
        Self {
            cfg,
            sets: vec![Vec::with_capacity(cfg.assoc); n_sets],
            line_shift: cfg.line.trailing_zeros(),
            set_mask: (n_sets - 1) as u64,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    #[inline]
    /// Config.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Access one byte address; the whole line is cached. Returns whether
    /// it hit and whether a dirty victim was written back.
    pub fn access(&mut self, addr: u64, write: bool) -> Outcome {
        let line_addr = addr >> self.line_shift;
        let set_idx = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_mask.count_ones();
        let set = &mut self.sets[set_idx];

        if let Some(pos) = set.iter().position(|e| e.tag == tag) {
            let mut e = set.remove(pos);
            e.dirty |= write;
            set.insert(0, e);
            self.hits += 1;
            return Outcome::Hit;
        }

        self.misses += 1;
        let mut writeback = false;
        if set.len() == self.cfg.assoc {
            let victim = set.pop().expect("full set has a victim");
            writeback = victim.dirty;
            if writeback {
                self.writebacks += 1;
            }
        }
        set.insert(0, Entry { tag, dirty: write });
        Outcome::Miss { writeback }
    }

    /// Hit ratio of demand accesses.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Reset statistics, keep contents.
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
        self.writebacks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 64B = 512B.
        Cache::new(CacheConfig::new(512, 2, 64))
    }

    #[test]
    fn geometry() {
        let c = tiny();
        assert_eq!(c.config().n_sets(), 4);
    }

    #[test]
    fn repeat_access_hits() {
        let mut c = tiny();
        assert_eq!(c.access(0x1000, false), Outcome::Miss { writeback: false });
        assert_eq!(c.access(0x1000, false), Outcome::Hit);
        assert_eq!(c.access(0x103f, false), Outcome::Hit, "same line");
        assert_eq!(c.access(0x1040, false), Outcome::Miss { writeback: false });
        assert_eq!(c.hits, 2);
        assert_eq!(c.misses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to set 0 (set = (addr>>6) & 3): stride 256.
        let a = 0x0000;
        let b = 0x0100;
        let d = 0x0200;
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // a is MRU
        c.access(d, false); // evicts b
        assert_eq!(c.access(a, false), Outcome::Hit);
        assert_eq!(c.access(b, false), Outcome::Miss { writeback: false });
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.access(0x0000, true); // dirty
        c.access(0x0100, false);
        let out = c.access(0x0200, false); // evicts dirty 0x0000
        assert_eq!(out, Outcome::Miss { writeback: true });
        assert_eq!(c.writebacks, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0x0000, false);
        c.access(0x0000, true); // hit, now dirty
        c.access(0x0100, false);
        let out = c.access(0x0200, false);
        assert_eq!(out, Outcome::Miss { writeback: true });
    }

    #[test]
    fn working_set_within_capacity_stays_resident() {
        // 32 KB, 8-way: a 16 KB working set must fully hit on re-walk.
        let mut c = Cache::new(CacheConfig::new(32 * 1024, 8, 64));
        for addr in (0..16 * 1024u64).step_by(64) {
            c.access(addr, false);
        }
        c.reset_stats();
        for addr in (0..16 * 1024u64).step_by(64) {
            c.access(addr, false);
        }
        assert_eq!(c.misses, 0);
        assert_eq!(c.hits, 256);
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        // 4 KB direct-ish cache walked with an 8 KB set: LRU streaming
        // produces 0 hits on the second pass.
        let mut c = Cache::new(CacheConfig::new(4 * 1024, 4, 64));
        for _pass in 0..2 {
            for addr in (0..8 * 1024u64).step_by(64) {
                c.access(addr, false);
            }
        }
        assert_eq!(c.hits, 0);
    }

    #[test]
    fn hit_ratio_bounds() {
        let mut c = tiny();
        assert_eq!(c.hit_ratio(), 0.0);
        c.access(0, false);
        c.access(0, false);
        assert!((c.hit_ratio() - 0.5).abs() < 1e-12);
    }
}
