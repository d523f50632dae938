//! # papi-obs — self-instrumentation for the PAPI reproduction
//!
//! The original PAPI papers spend much of their length on a question the
//! library itself could not answer at the time: *how much does the
//! measurement infrastructure cost, and what is it doing internally?*
//! Overheads of the multiplexing timer, the per-read substrate traffic, and
//! the statistical-sampling substrate (§4 of the IPPS paper, bounded at
//! "less than 1–2%") were all established with external experiments.
//!
//! `papi-obs` turns that measurement inward.  It provides:
//!
//! * a **lock-free counter registry** ([`registry::Registry`]) of named
//!   internal counters grouped by subsystem — event-set traffic, multiplex
//!   rotations, overflow dispatches, allocator search effort;
//! * **cycle-resolution span timing** ([`registry::Span`]) using the
//!   substrate's virtual clock, so the library self-accounts the cycles it
//!   spends inside its own hot paths;
//! * a **bounded structured event journal** ([`journal::Journal`]) of typed,
//!   serializable records for offline correlation with application traces;
//! * **snapshot/export** ([`export::Snapshot`]) as flat JSON and
//!   Prometheus-style text exposition;
//! * the suite's one **JSON codec** ([`json`]), shared by every crate that
//!   reads or writes JSON, and its one **TOML-subset reader** ([`toml`]),
//!   under the platform-model files and the benchmark-matrix config;
//! * a **per-thread CPU clock** ([`thread_cpu_ns`]) for the harnesses that
//!   time contended reads.
//!
//! The whole layer hangs off an `Option<ObsHandle>` inside the core `Papi`
//! context: when no handle is attached (the default), every instrumentation
//! site is a `None` check and the layer costs nothing; when attached, counter
//! updates are single relaxed atomic adds and journaling is gated behind its
//! own atomic flag.  Crucially, the layer performs **no costed substrate
//! operations**, so it never perturbs the virtual-time measurements it
//! reports on — the observer is invisible to the observed clock.  The
//! `exp_selfobs` experiment quantifies the residual host-side cost.

#![deny(missing_docs)]

pub mod alloc_track;
pub mod export;
pub mod histogram;
pub mod journal;
pub mod json;
pub mod registry;
pub mod toml;

pub use export::{CounterSample, HistogramSample, Snapshot};
pub use histogram::{HistSnapshot, LogHistogram};
pub use journal::{Journal, JournalEvent, JournalRecord, DEFAULT_JOURNAL_CAPACITY};
pub use registry::{Counter, Registry, Span, COUNTERS, NUM_COUNTERS};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Best-effort CPU time consumed by the calling thread so far, in
/// nanoseconds (Linux: the on-CPU field of `/proc/thread-self/schedstat`).
/// Returns `None` where the interface is unavailable; callers fall back to
/// wall-clock.
///
/// Why this exists: contention benchmarks must distinguish "the read path
/// serialized on a shared lock" from "the host has fewer cores than worker
/// threads". Wall-clock per-op time inflates with time-slicing on a
/// single-core CI box even for perfectly independent threads; per-thread
/// CPU time does not — it charges each thread only for cycles it actually
/// burned, which is exactly the lock-free claim under test.
///
/// The scheduler updates the on-CPU account lazily (on ticks and context
/// switches), so a yield is issued first to force the calling thread
/// through the scheduler and make the reading current.
pub fn thread_cpu_ns() -> Option<u64> {
    std::thread::yield_now();
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Identifier for one of the built-in latency histograms.
///
/// Each histogram shadows one of the `cycles.*` self-accounting counters:
/// the counter keeps the total, the histogram keeps the distribution
/// (p50/p95/p99 of per-call latency), so tail behaviour is observable, not
/// just means.  The discriminant doubles as the slot index in [`Obs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Hist {
    /// Per-call `read`/`read_into` latency (virtual cycles).
    ReadCycles,
    /// Per-call `start`+`stop` latency (virtual cycles).
    StartStopCycles,
    /// Per-rotation multiplex switch latency (virtual cycles).
    MpxRotateCycles,
}

/// All histograms, in slot order.
pub const HISTS: &[Hist] = &[
    Hist::ReadCycles,
    Hist::StartStopCycles,
    Hist::MpxRotateCycles,
];

/// Number of histogram slots.
pub const NUM_HISTS: usize = HISTS.len();

impl Hist {
    /// Stable export name.
    pub fn name(self) -> &'static str {
        match self {
            Hist::ReadCycles => "read_cycles",
            Hist::StartStopCycles => "start_stop_cycles",
            Hist::MpxRotateCycles => "mpx_rotate_cycles",
        }
    }

    /// The histogram shadowing `counter`, if any.
    pub fn for_counter(counter: Counter) -> Option<Hist> {
        match counter {
            Counter::CyclesInRead => Some(Hist::ReadCycles),
            Counter::CyclesInStartStop => Some(Hist::StartStopCycles),
            Counter::CyclesInMpxRotate => Some(Hist::MpxRotateCycles),
            _ => None,
        }
    }
}

/// Shared, cloneable handle to one observability context.
///
/// Cloning is an `Arc` refcount bump; all clones feed the same registry and
/// journal.
pub type ObsHandle = Arc<Obs>;

/// One observability context: a counter registry plus an optional journal.
pub struct Obs {
    registry: Registry,
    hists: [LogHistogram; NUM_HISTS],
    journal_on: AtomicBool,
    journal: Mutex<Journal>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("journal_on", &self.journal_enabled())
            .field("journal_len", &self.journal.lock().unwrap().len())
            .finish_non_exhaustive()
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs {
            registry: Registry::new(),
            hists: std::array::from_fn(|_| LogHistogram::new()),
            journal_on: AtomicBool::new(false),
            journal: Mutex::new(Journal::new(DEFAULT_JOURNAL_CAPACITY)),
        }
    }
}

impl Obs {
    /// A fresh context with all counters zero and the journal disabled.
    pub fn new() -> ObsHandle {
        Arc::new(Obs::default())
    }

    /// The counter registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Increment counter `c` by one.
    #[inline]
    pub fn inc(&self, c: Counter) {
        self.registry.inc(c);
    }

    /// Add `v` to counter `c`.
    #[inline]
    pub fn add(&self, c: Counter, v: u64) {
        self.registry.add(c, v);
    }

    /// Current value of counter `c`.
    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.registry.get(c)
    }

    /// Charge `v` cycles to counter `c` **and** record the value into the
    /// latency histogram shadowing `c` (if one exists).  The core hot paths
    /// use this for their per-call cost accounting so per-session
    /// read/dispatch latency distributions feed the aggregation layer, not
    /// just totals.  Both halves are relaxed atomics — no locks, no heap.
    #[inline]
    pub fn observe_cycles(&self, c: Counter, v: u64) {
        self.registry.add(c, v);
        if let Some(h) = Hist::for_counter(c) {
            self.hists[h as usize].record(v);
        }
    }

    /// The latency histogram for slot `h`.
    #[inline]
    pub fn hist(&self, h: Hist) -> &LogHistogram {
        &self.hists[h as usize]
    }

    /// Enable journaling with the given ring capacity, replacing any
    /// previously held records.
    pub fn enable_journal(&self, capacity: usize) {
        let mut j = self.journal.lock().unwrap();
        *j = Journal::new(capacity);
        drop(j);
        self.journal_on.store(true, Ordering::Release);
    }

    /// Disable journaling.  Held records remain readable.
    pub fn disable_journal(&self) {
        self.journal_on.store(false, Ordering::Release);
    }

    /// Whether journaling is currently enabled.
    #[inline]
    pub fn journal_enabled(&self) -> bool {
        self.journal_on.load(Ordering::Acquire)
    }

    /// Append a journal record at virtual time `cycles` if journaling is
    /// enabled.  The event is built lazily by `make` so disabled journaling
    /// pays only the atomic-flag load.
    #[inline]
    pub fn record(&self, cycles: u64, make: impl FnOnce() -> JournalEvent) {
        if self.journal_enabled() {
            let mut j = self.journal.lock().unwrap();
            j.push(cycles, make());
            let dropped = j.dropped();
            drop(j);
            self.registry.inc(Counter::JournalRecords);
            // Keep the registry's dropped count in sync with the ring's.
            let seen = self.registry.get(Counter::JournalDropped);
            if dropped > seen {
                self.registry.add(Counter::JournalDropped, dropped - seen);
            }
        }
    }

    /// Copy of the journal's records, oldest first.
    pub fn journal_records(&self) -> Vec<JournalRecord> {
        self.journal.lock().unwrap().records()
    }

    /// Number of journal records evicted due to the capacity bound.
    pub fn journal_dropped(&self) -> u64 {
        self.journal.lock().unwrap().dropped()
    }

    /// Snapshot the registry, including any latency histograms that have
    /// recorded at least one value.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::capture(&self.registry);
        for &h in HISTS {
            let hs = self.hists[h as usize].snapshot();
            if hs.count > 0 {
                snap.hists
                    .push(HistogramSample::from_snapshot(h.name(), &hs));
            }
        }
        snap
    }

    /// Open a cycle span charging `target` at virtual time `now`.
    #[inline]
    pub fn span(&self, target: Counter, now: u64) -> Span {
        Span::begin(target, now)
    }

    /// Close `span` at virtual time `now`.
    #[inline]
    pub fn end_span(&self, span: Span, now: u64) {
        span.end(&self.registry, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_gating() {
        let obs = Obs::new();
        // Disabled: the closure must not run, nothing is recorded.
        obs.record(5, || panic!("journal closure ran while disabled"));
        assert!(obs.journal_records().is_empty());

        obs.enable_journal(16);
        obs.record(10, || JournalEvent::Stop { set: 3 });
        assert!(obs.journal_enabled());
        let recs = obs.journal_records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].cycles, 10);
        assert_eq!(obs.get(Counter::JournalRecords), 1);

        obs.disable_journal();
        obs.record(20, || panic!("journal closure ran after disable"));
        assert_eq!(obs.journal_records().len(), 1);
    }

    #[test]
    fn dropped_records_mirrored_into_registry() {
        let obs = Obs::new();
        obs.enable_journal(2);
        for i in 0..5 {
            obs.record(i, || JournalEvent::Reset { set: 0 });
        }
        assert_eq!(obs.journal_dropped(), 3);
        assert_eq!(obs.get(Counter::JournalDropped), 3);
        assert_eq!(obs.get(Counter::JournalRecords), 5);
    }

    #[test]
    fn span_roundtrip_through_handle() {
        let obs = Obs::new();
        let s = obs.span(Counter::CyclesInMpxRotate, 1000);
        obs.end_span(s, 1750);
        assert_eq!(obs.get(Counter::CyclesInMpxRotate), 750);
    }

    #[test]
    fn observe_cycles_feeds_counter_and_histogram() {
        let obs = Obs::new();
        for v in [100u64, 200, 300] {
            obs.observe_cycles(Counter::CyclesInRead, v);
        }
        assert_eq!(obs.get(Counter::CyclesInRead), 600);
        assert_eq!(obs.hist(Hist::ReadCycles).count(), 3);
        // Non-latency counters have no histogram shadow.
        obs.observe_cycles(Counter::Reads, 1);
        assert_eq!(obs.get(Counter::Reads), 1);
        let snap = obs.snapshot();
        assert_eq!(snap.hists.len(), 1);
        assert_eq!(snap.hists[0].name, "read_cycles");
        assert_eq!(snap.hists[0].count, 3);
        assert!(snap.hists[0].p99 >= 300 && snap.hists[0].max == 300);
    }

    #[test]
    fn handle_clones_share_state() {
        let obs = Obs::new();
        let other = obs.clone();
        other.inc(Counter::Starts);
        assert_eq!(obs.get(Counter::Starts), 1);
    }

    #[test]
    fn obs_is_send_and_sync() {
        // One Obs context may be shared by every registered thread's session:
        // the registry is relaxed atomics and the journal writer is
        // mutex-guarded, so the handle must be freely shareable.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Obs>();
        assert_send_sync::<ObsHandle>();
    }

    #[test]
    fn journal_survives_concurrent_writers_without_losing_records() {
        let obs = Obs::new();
        obs.enable_journal(16_384);
        let mut handles = Vec::new();
        for t in 0..4usize {
            let obs = obs.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    obs.record(i, || JournalEvent::Read {
                        set: t,
                        cost_cycles: i,
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Every append landed exactly once: 4000 records, none dropped, and
        // the mirrored registry counters agree with the ring's accounting.
        let recs = obs.journal_records();
        assert_eq!(recs.len(), 4000);
        assert_eq!(obs.journal_dropped(), 0);
        assert_eq!(obs.get(Counter::JournalRecords), 4000);
        // Sequence numbers are a permutation of 0..4000 (unique, gapless).
        let mut seqs: Vec<u64> = recs.iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        assert!(seqs.iter().enumerate().all(|(i, &s)| s == i as u64));
    }
}
