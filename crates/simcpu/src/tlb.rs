//! Fully-associative translation lookaside buffers with LRU replacement.

/// Page size used throughout the simulator (4 KiB, like every platform the
/// paper ran on except some large-page configurations we do not model).
pub const PAGE_SIZE: u64 = 4096;

/// A fully-associative TLB of `entries` page translations.
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: usize,
    /// Page numbers, most-recently-used first.
    pages: Vec<u64>,
    accesses: u64,
    misses: u64,
}

impl Tlb {
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0);
        Tlb {
            entries,
            pages: Vec::with_capacity(entries),
            accesses: 0,
            misses: 0,
        }
    }

    /// Translate `addr`; returns `true` on a TLB hit.
    ///
    /// The list is kept in recency order in place: a hit on the MRU entry
    /// moves nothing, any other hit rotates only the entries in front of
    /// it, and a miss shifts the list once. The machine looks the I-TLB up
    /// only when a fetch leaves the line or page of the fetch before it;
    /// any other fetch only counts an access.
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let page = addr / PAGE_SIZE;
        if let Some(pos) = self.pages.iter().position(|&p| p == page) {
            if pos > 0 {
                self.pages[..=pos].rotate_right(1);
            }
            true
        } else {
            self.misses += 1;
            if self.pages.len() < self.entries {
                self.pages.push(page);
            }
            self.pages.rotate_right(1);
            self.pages[0] = page;
            false
        }
    }

    /// Count `n` translations of `addr`, whose page is already the MRU
    /// entry: the hits that [`Tlb::access`] would report, which move
    /// nothing, without the lookup. Debug builds check the precondition.
    pub(crate) fn access_mru(&mut self, addr: u64, n: u64) {
        debug_assert!(
            self.pages.first() == Some(&(addr / PAGE_SIZE)),
            "{addr:#x} is not on the MRU page"
        );
        self.accesses += n;
    }

    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Flush all translations (context switch on platforms without ASIDs).
    pub fn flush(&mut self) {
        self.pages.clear();
    }

    pub fn reset(&mut self) {
        self.pages.clear();
        self.accesses = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_miss_same_page() {
        let mut t = Tlb::new(4);
        assert!(!t.access(0x1000));
        assert!(t.access(0x1ff8)); // same page
        assert_eq!(t.misses(), 1);
    }

    #[test]
    fn lru_capacity() {
        let mut t = Tlb::new(2);
        t.access(0);
        t.access(PAGE_SIZE);
        t.access(0); // page 0 MRU
        t.access(2 * PAGE_SIZE); // evicts page 1
        assert!(t.access(0));
        assert!(!t.access(PAGE_SIZE));
    }

    #[test]
    fn flush_keeps_stats() {
        let mut t = Tlb::new(4);
        t.access(0);
        t.flush();
        assert_eq!(t.accesses(), 1);
        assert!(!t.access(0)); // miss again after flush
        assert_eq!(t.misses(), 2);
    }

    #[test]
    fn sequential_walk_misses_once_per_page() {
        let mut t = Tlb::new(64);
        for a in (0..16 * PAGE_SIZE).step_by(64) {
            t.access(a);
        }
        assert_eq!(t.misses(), 16);
    }
}
