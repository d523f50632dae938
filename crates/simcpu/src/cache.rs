//! Set-associative caches with true-LRU replacement.
//!
//! The cache model is intentionally simple — tags only, no data — because
//! the PMU only needs *hit/miss outcomes* and access counts. Measurement
//! perturbation ("cache pollution" from counter-read syscalls, §4 of the
//! paper) is modelled by [`Cache::pollute`], which evicts lines as a system
//! call's kernel footprint would.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCfg {
    /// Total capacity in bytes.
    pub size: u32,
    /// Line size in bytes (power of two).
    pub line: u32,
    /// Associativity (ways per set).
    pub assoc: u32,
}

impl CacheCfg {
    pub fn sets(&self) -> usize {
        (self.size / (self.line * self.assoc)) as usize
    }
}

/// One cache level. Tags are full addresses shifted by the line bits.
///
/// Storage is a single flat tag array (`assoc` slots per set, MRU first)
/// plus a per-set occupancy byte, instead of one heap `Vec` per set: the
/// model sits on the measured hot path (every simulated kernel crossing
/// pollutes the L1), so a `pollute` must not chase one heap pointer per
/// evicted line. Popping the LRU way is a decrement of `len[set]`; the tag
/// slots beyond `len[set]` are dead storage and never read.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheCfg,
    line_shift: u32,
    assoc: usize,
    /// Set `s` occupies `tags[s*assoc ..][..len[s]]`, most-recently-used
    /// first.
    tags: Vec<u64>,
    len: Vec<u8>,
    accesses: u64,
    misses: u64,
}

impl Cache {
    pub fn new(cfg: CacheCfg) -> Self {
        assert!(
            cfg.line.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            cfg.size.is_multiple_of(cfg.line * cfg.assoc),
            "size must be sets*line*assoc"
        );
        let n = cfg.sets();
        assert!(n.is_power_of_two(), "set count must be a power of two");
        assert!(cfg.assoc <= u8::MAX as u32, "associativity exceeds 255");
        Cache {
            cfg,
            line_shift: cfg.line.trailing_zeros(),
            assoc: cfg.assoc as usize,
            tags: vec![0; n * cfg.assoc as usize],
            len: vec![0; n],
            accesses: 0,
            misses: 0,
        }
    }

    pub fn cfg(&self) -> CacheCfg {
        self.cfg
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let tag = addr >> self.line_shift;
        let set = (tag as usize) & (self.len.len() - 1);
        (set, tag)
    }

    /// Look up `tag` in set `si` and make it the MRU way; on a miss,
    /// insert it (evicting the LRU way when the set is full). Returns
    /// whether it was a hit. Shared by `access` and `install`, which
    /// differ only in statistics.
    fn touch(&mut self, si: usize, tag: u64) -> bool {
        let n = self.len[si] as usize;
        let set = &mut self.tags[si * self.assoc..][..self.assoc];
        if let Some(pos) = set[..n].iter().position(|&t| t == tag) {
            if pos > 0 {
                set[..=pos].rotate_right(1); // move to MRU
            }
            true
        } else {
            // Insert at MRU, shifting the rest down; the LRU way falls off
            // the end when the set is full.
            let keep = n.min(self.assoc - 1);
            set.copy_within(..keep, 1);
            set[0] = tag;
            self.len[si] = (keep + 1) as u8;
            false
        }
    }

    /// Access `addr`; returns `true` on a hit. Misses allocate (both loads
    /// and stores allocate — write-allocate policy).
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let (si, tag) = self.set_and_tag(addr);
        let hit = self.touch(si, tag);
        if !hit {
            self.misses += 1;
        }
        hit
    }

    /// Count `n` accesses to `addr`, whose line is already the MRU way of
    /// its set: the hits that [`Cache::access`] would report, which move
    /// nothing, without the lookup. Debug builds check the precondition.
    pub(crate) fn access_mru(&mut self, addr: u64, n: u64) {
        let (si, tag) = self.set_and_tag(addr);
        debug_assert!(
            self.len[si] > 0 && self.tags[si * self.assoc] == tag,
            "{addr:#x} is not the MRU line of its set"
        );
        self.accesses += n;
    }

    /// Install a line without touching access/miss statistics — the path a
    /// hardware prefetcher uses.
    pub fn install(&mut self, addr: u64) {
        let (si, tag) = self.set_and_tag(addr);
        self.touch(si, tag);
    }

    /// Probe without updating state or statistics (used by tests/tools).
    pub fn probe(&self, addr: u64) -> bool {
        let (si, tag) = self.set_and_tag(addr);
        self.tags[si * self.assoc..][..self.len[si] as usize].contains(&tag)
    }

    /// Evict up to `n` lines pseudo-randomly — the cache footprint of a
    /// kernel crossing (counter-read syscall, interrupt handler). Evicting
    /// a set's LRU way is one saturating decrement of its occupancy byte,
    /// so the whole sweep touches only the `len` array.
    pub fn pollute(&mut self, n: u32, seed: u64) {
        // Counter-indexed multiply-shift hash rather than an iterated LCG:
        // each target set is a pure function of (seed, i), so the host CPU
        // can overlap the iterations instead of serializing on one
        // multiply-dependent state word, and one multiply per line is
        // enough mixing to scatter evictions. Still deterministic per seed.
        let len = &mut self.len[..];
        let mask = len.len() - 1;
        let mut x = seed | 1;
        for _ in 0..n {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let si = (x.wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 33) as usize & mask;
            len[si] = len[si].saturating_sub(1);
        }
    }

    /// Total accesses since construction/reset.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses since construction/reset.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of resident lines (for tests).
    pub fn resident(&self) -> usize {
        self.len.iter().map(|&l| l as usize).sum()
    }

    /// Drop all lines and statistics.
    pub fn reset(&mut self) {
        self.len.fill(0);
        self.accesses = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512B
        Cache::new(CacheCfg {
            size: 512,
            line: 64,
            assoc: 2,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x103f)); // same line
        assert_eq!(c.misses(), 1);
        assert_eq!(c.accesses(), 3);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // three lines mapping to the same set (set stride = 4 sets * 64B = 256B)
        let a = 0x0000;
        let b = 0x0100;
        let d = 0x0200;
        c.access(a);
        c.access(b);
        c.access(a); // a is MRU, b is LRU
        c.access(d); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn working_set_within_capacity_all_hits_after_warmup() {
        let mut c = Cache::new(CacheCfg {
            size: 16 * 1024,
            line: 64,
            assoc: 4,
        });
        let lines = 16 * 1024 / 64;
        for i in 0..lines {
            c.access(i as u64 * 64);
        }
        let warm_misses = c.misses();
        assert_eq!(warm_misses, lines as u64);
        for _ in 0..3 {
            for i in 0..lines {
                assert!(c.access(i as u64 * 64));
            }
        }
        assert_eq!(c.misses(), warm_misses);
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut c = tiny(); // 8 lines total
                            // stream 32 distinct lines repeatedly, all mapping across sets
        for _ in 0..4 {
            for i in 0..32u64 {
                c.access(i * 64);
            }
        }
        // every access to a line evicted last round misses
        assert_eq!(c.misses(), c.accesses());
    }

    #[test]
    fn pollute_evicts() {
        let mut c = tiny();
        for i in 0..8u64 {
            c.access(i * 64);
        }
        let before = c.resident();
        c.pollute(4, 42);
        assert!(c.resident() < before);
        // pollution must not change access/miss statistics
        assert_eq!(c.accesses(), 8);
    }

    #[test]
    fn reset_clears() {
        let mut c = tiny();
        c.access(0);
        c.reset();
        assert_eq!(c.accesses(), 0);
        assert_eq!(c.misses(), 0);
        assert_eq!(c.resident(), 0);
        assert!(!c.probe(0));
    }

    #[test]
    #[should_panic]
    fn bad_line_size_panics() {
        Cache::new(CacheCfg {
            size: 512,
            line: 48,
            assoc: 2,
        });
    }
}
