//! Sequence-stamped synchronization for the lock-free read path.
//!
//! Two primitives live here, both built on one even/odd sequence word:
//!
//! * [`SeqCell`] — exclusive access for the *owning* thread (and the rare
//!   cross-thread inspector) signalled through the stamp itself. The
//!   owner's acquire is one uncontended compare-exchange (even → odd); the
//!   release is one store (odd → even). There is no OS mutex anywhere on
//!   the path: nothing parks, nothing is poisoned, and a session operation
//!   can never be blocked by any number of concurrent observers, because
//!   observers never touch the exclusive word at all — they read the
//!   [`PublishedCounts`] snapshot area instead.
//! * [`PublishedCounts`] — a classic seqlock publication area. The owner
//!   writes counter state under the odd phase of its own stamp; readers
//!   copy the values and retry if the stamp moved (a torn read), so they
//!   *never block* and never observe a mix of two generations.
//!
//! ## Memory model
//!
//! The exclusive side is a spinlock in the C++11 sense: `compare_exchange
//! (Acquire)` to enter, `store (Release)` to leave, so everything written
//! inside the critical section happens-before the next acquirer. The
//! publication side keeps every slot an individual atomic (`AtomicI64` /
//! `AtomicU64`) with `Relaxed` element accesses bracketed by
//! `Acquire`/`Release` stamp accesses: readers that observe an even,
//! unchanged stamp on both sides of the copy are guaranteed a consistent
//! snapshot, and ThreadSanitizer sees no data race because no non-atomic
//! location is ever read concurrently with a write.
//!
//! Spin waits yield to the scheduler after a short burst
//! (`SPINS_BEFORE_YIELD`) so a single-core host (CI containers) makes
//! progress even when an inspector collides with a long-running owner
//! operation such as `run_app`.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// Spin iterations before the loser of a stamp race yields its timeslice.
const SPINS_BEFORE_YIELD: u32 = 64;

/// Exclusive-access cell whose lock word is an even/odd sequence stamp.
///
/// Even = quiescent, odd = an exclusive section is in progress. The stamp
/// is monotone: every exclusive section advances it by 2, so an observer
/// can detect "the state changed while I looked" by comparing stamps.
pub struct SeqCell<T> {
    seq: AtomicU64,
    data: UnsafeCell<T>,
}

// SAFETY: access to `data` is mediated by the even→odd compare-exchange:
// at most one thread holds the odd phase, giving it a unique &mut. T must
// be Send for the value to be mutated from whichever thread wins.
unsafe impl<T: Send> Send for SeqCell<T> {}
unsafe impl<T: Send> Sync for SeqCell<T> {}

impl<T> SeqCell<T> {
    /// A quiescent cell holding `value` (stamp 0).
    pub fn new(value: T) -> Self {
        SeqCell {
            seq: AtomicU64::new(0),
            data: UnsafeCell::new(value),
        }
    }

    /// Consume the cell and return the value (no synchronization needed:
    /// ownership proves exclusivity).
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }

    /// The current stamp. Odd means an exclusive section is in progress;
    /// two equal even readings with unchanged data in between certify a
    /// consistent observation.
    #[inline]
    pub fn sequence(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    /// Enter the exclusive (odd) phase, spinning until the cell is
    /// quiescent. For the owning thread this is a single uncontended
    /// compare-exchange: the owner is the only frequent writer, and pure
    /// observers never acquire.
    #[inline]
    pub fn lock(&self) -> SeqGuard<'_, T> {
        let mut spins = 0u32;
        loop {
            let cur = self.seq.load(Ordering::Relaxed);
            if cur & 1 == 0
                && self
                    .seq
                    .compare_exchange_weak(cur, cur + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return SeqGuard { cell: self };
            }
            spins += 1;
            if spins >= SPINS_BEFORE_YIELD {
                spins = 0;
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for SeqCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeqCell")
            .field("seq", &self.seq.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// Exclusive access to a [`SeqCell`]'s value; releasing advances the stamp
/// to the next even value.
pub struct SeqGuard<'a, T> {
    cell: &'a SeqCell<T>,
}

impl<T> std::ops::Deref for SeqGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: the odd phase was won by compare-exchange; no other
        // guard can exist until Drop stores the next even value.
        unsafe { &*self.cell.data.get() }
    }
}

impl<T> std::ops::DerefMut for SeqGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above — the odd phase grants unique access.
        unsafe { &mut *self.cell.data.get() }
    }
}

impl<T> Drop for SeqGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        // odd → next even; Release publishes the critical section.
        let cur = self.cell.seq.load(Ordering::Relaxed);
        debug_assert!(cur & 1 == 1, "guard dropped outside the odd phase");
        self.cell.seq.store(cur + 1, Ordering::Release);
    }
}

/// Upper bound on events a session publishes for non-blocking observers.
///
/// Sixteen covers every platform model in the tree (the widest has 8
/// counters) with room for derived-event fan-out; sets larger than this
/// are still fully readable through the exclusive path, they just aren't
/// published for lock-free observation.
pub const MAX_PUBLISHED_EVENTS: usize = 16;

/// One seqlock-published counter snapshot: the owning thread's latest
/// `read_into` results plus the programming generation they belong to.
///
/// Single writer (the session's owning thread), any number of wait-free
/// readers. All fields are atomics so a racing read is *torn*, never UB:
/// the stamp check rejects torn copies and the reader retries.
pub struct PublishedCounts {
    /// Even/odd stamp for the publication area (independent of the
    /// session cell's stamp so observers never interact with the
    /// exclusive word).
    seq: AtomicU64,
    /// Programming generation: bumped by start/reset/stop/reprogram, so a
    /// reader can tell "the counters restarted" from "the counters
    /// advanced". Mixed-generation values can never be observed — the
    /// stamp brackets generation and values together.
    generation: AtomicU64,
    /// Number of live values (0 = nothing published, e.g. set too wide).
    len: AtomicUsize,
    values: [AtomicI64; MAX_PUBLISHED_EVENTS],
}

impl Default for PublishedCounts {
    fn default() -> Self {
        PublishedCounts {
            seq: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            len: AtomicUsize::new(0),
            values: std::array::from_fn(|_| AtomicI64::new(0)),
        }
    }
}

/// A consistent observation of a [`PublishedCounts`] area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountSnapshot {
    /// Programming generation the values belong to.
    pub generation: u64,
    /// Number of valid entries in `values`.
    pub len: usize,
    /// The published counter values (entries past `len` are zero).
    pub values: [i64; MAX_PUBLISHED_EVENTS],
}

impl PublishedCounts {
    /// Publish `values` under `generation`. Called only by the owning
    /// thread; the odd phase is entered with plain stores because there is
    /// exactly one writer.
    #[inline]
    pub fn publish(&self, generation: u64, values: &[i64]) {
        let n = values.len().min(MAX_PUBLISHED_EVENTS);
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s + 1, Ordering::Release);
        // Element stores may be reordered among themselves (Relaxed) —
        // the bracketing stamp stores are what readers validate against.
        self.generation.store(generation, Ordering::Relaxed);
        self.len.store(n, Ordering::Relaxed);
        for (slot, &v) in self.values.iter().zip(values.iter().take(n)) {
            slot.store(v, Ordering::Relaxed);
        }
        self.seq.store(s + 2, Ordering::Release);
    }

    /// Mark the publication area empty (set stopped / nothing published).
    pub fn clear(&self) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s + 1, Ordering::Release);
        self.len.store(0, Ordering::Relaxed);
        self.seq.store(s + 2, Ordering::Release);
    }

    /// Copy out a consistent snapshot, spin-retrying torn reads. Never
    /// blocks: an in-progress publication (odd stamp) or a stamp that
    /// moved during the copy just retries the copy loop.
    ///
    /// Returns `None` when nothing is published (len 0).
    #[inline]
    pub fn snapshot(&self) -> Option<CountSnapshot> {
        let mut spins = 0u32;
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 0 {
                let generation = self.generation.load(Ordering::Relaxed);
                let len = self.len.load(Ordering::Relaxed);
                let mut values = [0i64; MAX_PUBLISHED_EVENTS];
                if len <= MAX_PUBLISHED_EVENTS {
                    for (out, slot) in values.iter_mut().zip(self.values.iter()).take(len) {
                        *out = slot.load(Ordering::Relaxed);
                    }
                    // Acquire so the element loads cannot drift past the
                    // validation load.
                    let s2 = self.seq.load(Ordering::Acquire);
                    if s1 == s2 {
                        if len == 0 {
                            return None;
                        }
                        return Some(CountSnapshot {
                            generation,
                            len,
                            values,
                        });
                    }
                }
            }
            spins += 1;
            if spins >= SPINS_BEFORE_YIELD {
                spins = 0;
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

impl std::fmt::Debug for PublishedCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PublishedCounts")
            .field("seq", &self.seq.load(Ordering::Relaxed))
            .field("len", &self.len.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn seqcell_exclusive_roundtrip_advances_stamp() {
        let cell = SeqCell::new(7u64);
        assert_eq!(cell.sequence(), 0);
        {
            let mut g = cell.lock();
            *g += 1;
            assert_eq!(cell.sequence() & 1, 1, "odd while held");
        }
        assert_eq!(cell.sequence(), 2);
        assert_eq!(*cell.lock(), 8);
        assert_eq!(cell.into_inner(), 8);
    }

    #[test]
    fn seqcell_serializes_concurrent_increments() {
        let cell = Arc::new(SeqCell::new(0u64));
        let mut joins = Vec::new();
        for _ in 0..4 {
            let cell = cell.clone();
            joins.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    *cell.lock() += 1;
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(*cell.lock(), 40_000);
        // 4 * 10_000 sections + this lock's own (held) odd increment.
        assert!(cell.sequence() >= 80_000);
    }

    #[test]
    fn published_counts_snapshot_roundtrip() {
        let p = PublishedCounts::default();
        assert!(p.snapshot().is_none(), "nothing published yet");
        p.publish(3, &[10, 20, 30]);
        let s = p.snapshot().unwrap();
        assert_eq!(s.generation, 3);
        assert_eq!(s.len, 3);
        assert_eq!(&s.values[..3], &[10, 20, 30]);
        p.clear();
        assert!(p.snapshot().is_none());
    }

    #[test]
    fn published_counts_truncates_past_capacity() {
        let p = PublishedCounts::default();
        let wide: Vec<i64> = (0..MAX_PUBLISHED_EVENTS as i64 + 8).collect();
        p.publish(1, &wide);
        let s = p.snapshot().unwrap();
        assert_eq!(s.len, MAX_PUBLISHED_EVENTS);
        assert_eq!(s.values[MAX_PUBLISHED_EVENTS - 1], 15);
    }

    #[test]
    fn snapshot_never_observes_mixed_generations() {
        // Writer publishes (g, [g, 2g]) in a tight loop; readers must only
        // ever see pairs satisfying the invariant values == [g, 2*g].
        let p = Arc::new(PublishedCounts::default());
        let done = Arc::new(AtomicBool::new(false));
        let seen_total = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut readers = Vec::new();
        for _ in 0..2 {
            let p = p.clone();
            let done = done.clone();
            let seen_total = seen_total.clone();
            readers.push(std::thread::spawn(move || {
                let mut seen = 0u64;
                while !done.load(Ordering::Relaxed) {
                    if let Some(s) = p.snapshot() {
                        let g = s.generation as i64;
                        assert_eq!(s.len, 2);
                        assert_eq!(s.values[0], g, "torn snapshot");
                        assert_eq!(s.values[1], 2 * g, "torn snapshot");
                        seen += 1;
                        seen_total.fetch_add(1, Ordering::Relaxed);
                    }
                }
                seen
            }));
        }
        // Publish until both readers have demonstrably observed snapshots;
        // yield periodically so single-core hosts schedule the readers.
        let mut g = 0i64;
        while seen_total.load(Ordering::Relaxed) < 200 && g < 50_000_000 {
            g += 1;
            p.publish(g as u64, &[g, 2 * g]);
            if g % 512 == 0 {
                std::thread::yield_now();
            }
        }
        done.store(true, Ordering::Relaxed);
        for r in readers {
            // At least one reader must have seen snapshots (both usually
            // do, but a heavily loaded host may starve one).
            let _ = r.join().unwrap();
        }
        assert!(
            seen_total.load(Ordering::Relaxed) > 0,
            "no reader ever saw a snapshot"
        );
    }
}
