//! Naive reference models of the caches, the TLBs and the branch predictor,
//! run differentially against the simulator's own structures.
//!
//! The machine's fetch memo and its batched pure runs both rest on MRU
//! invariants of `Cache` and `Tlb`, and every cache, TLB and branch count
//! the PMU reports comes from these structures. The models here are the
//! plainest form of what the platform files state: a per-set LRU list of
//! line tags, an LRU list of pages and a table of 2-bit counters behind the
//! same gshare index. Seeded random, strided and pointer-chase streams,
//! with prefetch installs, kernel pollution and TLB flushes interleaved,
//! run through both over the geometry of every `platforms/*.toml` file, and
//! every hit or miss, the totals and the resident line count must agree. A
//! failure prints the case's seed.

use simcpu::branch::BranchPredictor;
use simcpu::cache::{Cache, CacheCfg};
use simcpu::rng::SmallRng;
use simcpu::tlb::{Tlb, PAGE_SIZE};
use simcpu::{load_platform_file, PlatformSpec};

/// Every platform file in `platforms/`, in name order.
fn platform_files() -> Vec<PlatformSpec> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../platforms");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 9, "{} platform files", paths.len());
    paths
        .iter()
        .map(|p| load_platform_file(p).unwrap())
        .collect()
}

/// A set-associative true-LRU cache: one list of line tags per set, most
/// recently used first.
struct RefCache {
    line: u64,
    assoc: usize,
    sets: Vec<Vec<u64>>,
    accesses: u64,
    misses: u64,
}

impl RefCache {
    fn new(cfg: CacheCfg) -> Self {
        RefCache {
            line: cfg.line as u64,
            assoc: cfg.assoc as usize,
            sets: vec![Vec::new(); cfg.sets()],
            accesses: 0,
            misses: 0,
        }
    }

    /// Make `addr`'s line the set's most recent, inserting it (and
    /// dropping the least recent beyond `assoc`) on a miss.
    fn touch(&mut self, addr: u64) -> bool {
        let tag = addr / self.line;
        let n = self.sets.len() as u64;
        let set = &mut self.sets[(tag % n) as usize];
        let hit = match set.iter().position(|&t| t == tag) {
            Some(pos) => {
                set.remove(pos);
                true
            }
            None => false,
        };
        set.insert(0, tag);
        set.truncate(self.assoc);
        hit
    }

    fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let hit = self.touch(addr);
        self.misses += !hit as u64;
        hit
    }

    /// A kernel crossing's footprint: the least recent line of `n` sets,
    /// chosen by the same seeded hash `Cache::pollute` documents.
    fn pollute(&mut self, n: u32, seed: u64) {
        let mut x = seed | 1;
        for _ in 0..n {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let si = (x.wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 33) as usize % self.sets.len();
            self.sets[si].pop();
        }
    }

    fn resident(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// A fully associative LRU TLB: a list of pages, most recently used first.
struct RefTlb {
    entries: usize,
    pages: Vec<u64>,
    accesses: u64,
    misses: u64,
}

impl RefTlb {
    fn new(entries: usize) -> Self {
        RefTlb {
            entries,
            pages: Vec::new(),
            accesses: 0,
            misses: 0,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let page = addr / PAGE_SIZE;
        let hit = match self.pages.iter().position(|&p| p == page) {
            Some(pos) => {
                self.pages.remove(pos);
                true
            }
            None => false,
        };
        self.pages.insert(0, page);
        self.pages.truncate(self.entries);
        self.misses += !hit as u64;
        hit
    }
}

/// A table of 2-bit saturating counters (0–1 predict not taken, 2–3
/// taken, all starting weakly not taken) indexed by the PC's instruction
/// number xor the last `history_bits` outcomes.
struct RefPredictor {
    counters: Vec<u8>,
    history: Vec<bool>,
    history_bits: usize,
    mispredictions: u64,
}

impl RefPredictor {
    fn new(entries: usize, history_bits: usize) -> Self {
        RefPredictor {
            counters: vec![1; entries],
            history: Vec::new(),
            history_bits,
            mispredictions: 0,
        }
    }

    /// Whether the prediction for `pc` was wrong, after learning `taken`.
    fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        // The most recent outcome is bit 0 of the history.
        let h = self
            .history
            .iter()
            .rev()
            .take(self.history_bits)
            .enumerate()
            .fold(0u64, |h, (i, &t)| h | (t as u64) << i);
        let i = ((pc / 4) ^ h) as usize % self.counters.len();
        let c = &mut self.counters[i];
        let wrong = (*c >= 2) != taken;
        *c = if taken {
            (*c + 1).min(3)
        } else {
            c.saturating_sub(1)
        };
        self.history.push(taken);
        self.mispredictions += wrong as u64;
        wrong
    }
}

/// An address stream of `len` accesses over `span` bytes from `base`:
/// uniform random, a fixed stride that wraps, or a pointer chase through
/// a random cycle of `granule`-byte slots.
fn stream(rng: &mut SmallRng, base: u64, span: u64, granule: u64, len: usize) -> Vec<u64> {
    match rng.gen_range(0..3u32) {
        0 => (0..len).map(|_| base + rng.gen_range(0..span)).collect(),
        1 => {
            let stride = [4, 8, 64, granule, granule * 3, span / 7 + 1][rng.gen_range(0..6usize)];
            let mut a = rng.gen_range(0..span);
            (0..len)
                .map(|_| {
                    a = (a + stride) % span;
                    base + a
                })
                .collect()
        }
        _ => {
            let slots = (span / granule).max(2) as usize;
            let mut order: Vec<usize> = (0..slots).collect();
            for i in (1..slots).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let mut next = vec![0; slots];
            for w in 0..slots {
                next[order[w]] = order[(w + 1) % slots];
            }
            let mut s = order[0];
            (0..len)
                .map(|_| {
                    s = next[s];
                    base + s as u64 * granule + rng.gen_range(0..granule)
                })
                .collect()
        }
    }
}

/// Every cache level of every platform file against the per-set LRU list,
/// on streams whose footprint ranges from a fraction of the cache to eight
/// times its size, with prefetch installs and kernel pollution interleaved.
#[test]
fn caches_match_a_per_set_lru_list() {
    let mut case = 0u64;
    for spec in platform_files() {
        for (level, cfg) in [
            ("l1d", spec.mem.l1d),
            ("l1i", spec.mem.l1i),
            ("l2", spec.mem.l2),
        ] {
            for _ in 0..6 {
                let seed = 0xCAC4_0000 + case;
                case += 1;
                let mut rng = SmallRng::seed_from_u64(seed);
                let (mut cache, mut model) = (Cache::new(cfg), RefCache::new(cfg));
                let span = (cfg.size as u64 * [1, 4, 16, 64][rng.gen_range(0..4usize)] / 8).max(1);
                let base = rng.gen_range(0..1u64 << 30);
                let addrs = stream(&mut rng, base, span, cfg.line as u64, 4_000);
                for (i, &a) in addrs.iter().enumerate() {
                    let at = || {
                        format!(
                            "{} {level} case seed {seed:#x}, access {i} ({a:#x})",
                            spec.name
                        )
                    };
                    match rng.gen_range(0..40u32) {
                        0 => {
                            let next = a.wrapping_add(cfg.line as u64);
                            cache.install(next);
                            model.touch(next);
                        }
                        1 => {
                            let (lines, s) = (rng.gen_range(1..=64u32), rng.gen());
                            cache.pollute(lines, s);
                            model.pollute(lines, s);
                            assert_eq!(cache.resident(), model.resident(), "{}: pollute", at());
                        }
                        _ => {}
                    }
                    assert_eq!(cache.access(a), model.access(a), "{}: hit or miss", at());
                    assert!(cache.probe(a), "{}: line resident after access", at());
                }
                let at = format!("{} {level} case seed {seed:#x}", spec.name);
                assert_eq!(
                    (cache.accesses(), cache.misses()),
                    (model.accesses, model.misses),
                    "{at}: totals"
                );
                assert_eq!(cache.resident(), model.resident(), "{at}: resident lines");
            }
        }
    }
}

/// Both TLBs of every platform file against the LRU page list, on page
/// streams from a few pages to several times the TLB's reach, with
/// context-switch flushes interleaved.
#[test]
fn tlbs_match_an_lru_page_list() {
    let mut case = 0u64;
    for spec in platform_files() {
        for (which, entries) in [
            ("dtlb", spec.mem.dtlb_entries),
            ("itlb", spec.mem.itlb_entries),
        ] {
            for _ in 0..6 {
                let seed = 0x71B0_0000 + case;
                case += 1;
                let mut rng = SmallRng::seed_from_u64(seed);
                let (mut tlb, mut model) = (Tlb::new(entries), RefTlb::new(entries));
                let reach = entries as u64 * PAGE_SIZE;
                let span = (reach * [1, 4, 8, 24][rng.gen_range(0..4usize)] / 8).max(PAGE_SIZE);
                let base = rng.gen_range(0..1u64 << 30);
                let addrs = stream(&mut rng, base, span, PAGE_SIZE, 4_000);
                for (i, &a) in addrs.iter().enumerate() {
                    if rng.gen_range(0..200u32) == 0 {
                        tlb.flush();
                        model.pages.clear();
                    }
                    assert_eq!(
                        tlb.access(a),
                        model.access(a),
                        "{} {which} case seed {seed:#x}, access {i} ({a:#x})",
                        spec.name
                    );
                }
                assert_eq!(
                    (tlb.accesses(), tlb.misses()),
                    (model.accesses, model.misses),
                    "{} {which} case seed {seed:#x}: totals",
                    spec.name
                );
            }
        }
    }
}

/// The branch predictor against the 2-bit counter table, for the
/// machine's geometry (1 024 entries, 8 history bits) and a few others,
/// on branch streams that mix loop-like, alternating, biased and random
/// outcomes over a handful to a few thousand branch sites.
#[test]
fn the_predictor_matches_a_table_of_two_bit_counters() {
    let geometries = [(1024, 8), (64, 0), (256, 4), (4096, 12), (1, 3)];
    for case in 0..40u64 {
        let seed = 0xB4A2_0000 + case;
        let mut rng = SmallRng::seed_from_u64(seed);
        let (entries, bits) = geometries[case as usize % geometries.len()];
        let (mut bp, mut model) = (
            BranchPredictor::new(entries, bits),
            RefPredictor::new(entries, bits as usize),
        );
        let sites: Vec<u64> = (0..rng.gen_range(1..=3_000usize))
            .map(|_| 0x1000 + 4 * rng.gen_range(0..1u64 << 20))
            .collect();
        let mut trips = vec![0u32; sites.len()];
        for i in 0..6_000 {
            let s = rng.gen_range(0..sites.len());
            let taken = match s % 4 {
                0 => {
                    trips[s] += 1;
                    !trips[s].is_multiple_of(9)
                }
                1 => {
                    trips[s] += 1;
                    trips[s].is_multiple_of(2)
                }
                2 => rng.gen_range(0..10u32) < 8,
                _ => rng.gen_bool(0.5),
            };
            assert_eq!(
                bp.predict_and_update(sites[s], taken),
                model.predict_and_update(sites[s], taken),
                "geometry {entries}x{bits} case seed {seed:#x}, branch {i} at {:#x}",
                sites[s]
            );
        }
        assert_eq!(bp.predictions(), 6_000, "case seed {seed:#x}");
        assert_eq!(
            bp.mispredictions(),
            model.mispredictions,
            "case seed {seed:#x}: totals"
        );
    }
}
