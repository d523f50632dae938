//! Per-tenant aggregation state: series rings, histograms, sources, and
//! the exactly-once anti-replay window.
//!
//! Each source (one monitored session) stamps its frames with a gapless
//! sequence number starting at 0.  The daemon keeps, per (tenant, source),
//! the highest sequence seen plus a 64-bit bitmap of the window below it —
//! the IPsec anti-replay structure.  A duplicate (bit already set, or
//! older than the window) is dropped and counted; a late-but-new frame
//! inside the window is applied and counted as out-of-order.  Counter
//! deltas commute, so out-of-order application is exact, and "applied
//! count == claimed frame count" at close time proves the stream arrived
//! gaplessly exactly once.
//!
//! `CLOSE_SOURCE` retires the source: its window leaves the map of open
//! sources and its id becomes one bit in a set of 64-id bitmap blocks, so
//! a daemon that serves session after session keeps a bit per closed
//! session, not a window.  A frame for a retired id is dropped as a
//! duplicate, and a repeated close of one changes nothing.

use crate::bucket::{SeriesRing, WindowOutcome};
use papi_obs::histogram::NUM_BUCKETS;
use papi_obs::{Counter, LogHistogram, Obs};
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Mutex;

/// What ingestion did with one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// Applied in order.
    Applied,
    /// Applied, but arrived behind a higher sequence number.
    OutOfOrder,
    /// Dropped: already applied (retry/duplicate) or beyond the replay
    /// window where dup-detection is no longer possible.
    DupDropped,
    /// Dropped: per-tenant frame quota for the window was exhausted.
    QuotaDropped,
    /// Dropped: the tenant id was not bound on this connection.
    UnknownTenant,
}

impl IngestOutcome {
    /// Whether the frame was applied (in order or not).
    pub fn applied(self) -> bool {
        matches!(self, IngestOutcome::Applied | IngestOutcome::OutOfOrder)
    }
}

/// Anti-replay window for one source stream.
#[derive(Debug, Default)]
struct SourceState {
    /// Highest sequence number applied (valid when `any`).
    top: u64,
    /// Bitmap of `top - i` for `i in 0..64`; bit 0 is `top` itself.
    bitmap: u64,
    /// Whether any frame was applied yet.
    any: bool,
    /// Frames applied exactly once from this source.
    applied: u64,
    /// Frames admitted (seq consumed) but shed by quota.
    shed: u64,
}

impl SourceState {
    /// Admit `seq` exactly once.  Returns `None` for a duplicate.
    fn admit(&mut self, seq: u64) -> Option<IngestOutcome> {
        if !self.any {
            self.any = true;
            self.top = seq;
            self.bitmap = 1;
            self.applied += 1;
            return Some(IngestOutcome::Applied);
        }
        if seq > self.top {
            let ahead = seq - self.top;
            self.bitmap = if ahead >= 64 { 0 } else { self.bitmap << ahead };
            self.bitmap |= 1;
            self.top = seq;
            self.applied += 1;
            return Some(IngestOutcome::Applied);
        }
        let behind = self.top - seq;
        if behind >= 64 {
            // Beyond the replay window: dup-detection is impossible, so
            // the frame is shed (counted, never silently double-applied).
            return None;
        }
        let bit = 1u64 << behind;
        if self.bitmap & bit != 0 {
            return None;
        }
        self.bitmap |= bit;
        self.applied += 1;
        Some(IngestOutcome::OutOfOrder)
    }
}

/// Ids of closed sources, as 64-id bitmap blocks keyed by `id / 64`.
#[derive(Debug, Default)]
struct RetiredIds(HashMap<u64, u64>);

impl RetiredIds {
    fn contains(&self, id: u64) -> bool {
        self.0
            .get(&(id >> 6))
            .is_some_and(|block| block & (1 << (id & 63)) != 0)
    }

    /// Retire `id`; `false` when it already was.
    fn insert(&mut self, id: u64) -> bool {
        let block = self.0.entry(id >> 6).or_insert(0);
        let bit = 1 << (id & 63);
        let fresh = *block & bit == 0;
        *block |= bit;
        fresh
    }
}

/// One named series: windowed counters plus a latency histogram.
#[derive(Debug)]
struct Series {
    name: String,
    ring: SeriesRing,
    hist: LogHistogram,
}

/// Per-window frame-quota tracker (a small ring parallel to the series
/// rings, whole-frame granularity).
#[derive(Debug)]
struct QuotaRing {
    window_cycles: u64,
    slots: Vec<(u64, u32)>,
}

impl QuotaRing {
    fn new(window_cycles: u64, windows: usize) -> Self {
        QuotaRing {
            window_cycles: window_cycles.max(1),
            slots: vec![(u64::MAX, 0); windows.max(1)],
        }
    }

    /// Count one frame against `cycles`'s window; `false` when the quota
    /// is exhausted.
    fn admit(&mut self, cycles: u64, quota: u32) -> bool {
        let w = cycles / self.window_cycles;
        let n = self.slots.len() as u64;
        let slot = &mut self.slots[(w % n) as usize];
        if slot.0 != w {
            *slot = (w, 0);
        }
        if slot.1 >= quota {
            return false;
        }
        slot.1 += 1;
        true
    }
}

/// Mutable tenant state behind the tenant mutex.
#[derive(Debug)]
struct TenantState {
    series: Vec<Series>,
    names: HashMap<String, u16>,
    /// Open sources only: a closed one moves to `retired`.
    sources: HashMap<u64, SourceState>,
    retired: RetiredIds,
    quota: QuotaRing,
}

impl TenantState {
    /// Admit `seq` from `source` exactly once: `None` for a duplicate or a
    /// frame from a retired source.
    fn admit(&mut self, source: u64, seq: u64) -> Option<IngestOutcome> {
        if let Some(src) = self.sources.get_mut(&source) {
            return src.admit(seq);
        }
        if self.retired.contains(source) {
            return None;
        }
        self.sources.entry(source).or_default().admit(seq)
    }

    /// Count one frame in and decide whether it applies: `Applied` or
    /// `OutOfOrder` when it does, `DupDropped` or `QuotaDropped` when it
    /// does not. Every outcome is counted in `obs`.
    fn admit_frame(
        &mut self,
        obs: &Obs,
        source: u64,
        seq: u64,
        cycles: u64,
        quota: u32,
    ) -> IngestOutcome {
        obs.inc(Counter::AggdFramesIn);
        let Some(admitted) = self.admit(source, seq) else {
            obs.inc(Counter::AggdDupDropped);
            return IngestOutcome::DupDropped;
        };
        if !self.quota.admit(cycles, quota) {
            // The seq stays consumed, so quota drops are still exactly
            // once: a retry of a shed frame is a dup by design. The frame
            // counts as shed, not applied, so close-time gapless checks
            // reflect applied-to-series frames.
            if let Some(src) = self.sources.get_mut(&source) {
                src.applied -= 1;
                src.shed += 1;
            }
            obs.inc(Counter::AggdDroppedFrames);
            return IngestOutcome::QuotaDropped;
        }
        obs.inc(Counter::AggdApplied);
        if admitted == IngestOutcome::OutOfOrder {
            obs.inc(Counter::AggdOutOfOrder);
        }
        admitted
    }
}

/// One tenant: named series, source streams, quotas, accounting.
#[derive(Debug)]
pub struct Tenant {
    name: String,
    state: Mutex<TenantState>,
    /// Activity stamp from the aggregator's logical clock (LRU eviction).
    pub(crate) last_active: AtomicU64,
    quota: u32,
}

impl Tenant {
    pub(crate) fn new(name: &str, window_cycles: u64, windows: usize, quota: u32) -> Tenant {
        Tenant {
            name: name.to_string(),
            state: Mutex::new(TenantState {
                series: Vec::new(),
                names: HashMap::new(),
                sources: HashMap::new(),
                retired: RetiredIds::default(),
                quota: QuotaRing::new(window_cycles, windows),
            }),
            last_active: AtomicU64::new(0),
            quota,
        }
    }

    /// Tenant name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Register (or look up) a series by name; returns its tenant-local
    /// index. `window_cycles`/`windows` shape comes from the aggregator
    /// config captured at tenant creation.
    pub fn register_series(&self, name: &str, window_cycles: u64, windows: usize) -> u16 {
        let mut st = self.state.lock().unwrap();
        if let Some(&idx) = st.names.get(name) {
            return idx;
        }
        let idx = st.series.len() as u16;
        st.series.push(Series {
            name: name.to_string(),
            ring: SeriesRing::new(window_cycles, windows),
            hist: LogHistogram::new(),
        });
        st.names.insert(name.to_string(), idx);
        idx
    }

    /// Ingest one snapshot frame. `map` translates connection-local series
    /// ids to tenant series indices (identity when the caller already holds
    /// tenant indices). Zero heap allocations once the source exists; a
    /// frame from a retired source is a [`IngestOutcome::DupDropped`].
    pub fn ingest_snapshot(
        &self,
        obs: &Obs,
        source: u64,
        seq: u64,
        cycles: u64,
        deltas: impl Iterator<Item = (u16, u64)>,
        map: &[u16],
    ) -> IngestOutcome {
        let mut st = self.state.lock().unwrap();
        let outcome = st.admit_frame(obs, source, seq, cycles, self.quota);
        if !outcome.applied() {
            return outcome;
        }
        for (sid, delta) in deltas {
            let mapped = map.get(sid as usize);
            let Some(series) = mapped.and_then(|&idx| st.series.get_mut(idx as usize)) else {
                obs.inc(Counter::AggdUnknownSeries);
                continue;
            };
            match series.ring.apply(cycles, delta) {
                WindowOutcome::Applied => {}
                WindowOutcome::Evicted => obs.inc(Counter::AggdEvictedWindows),
                WindowOutcome::Stale => obs.inc(Counter::AggdStaleWindows),
            }
        }
        outcome
    }

    /// Ingest one histogram frame (sparse bucket counts for one series).
    #[allow(clippy::too_many_arguments)] // mirrors the wire frame's fields
    pub fn ingest_hist(
        &self,
        obs: &Obs,
        source: u64,
        seq: u64,
        cycles: u64,
        sid: u16,
        buckets: impl Iterator<Item = (u16, u64)>,
        map: &[u16],
    ) -> IngestOutcome {
        let mut st = self.state.lock().unwrap();
        let outcome = st.admit_frame(obs, source, seq, cycles, self.quota);
        if !outcome.applied() {
            return outcome;
        }
        let mapped = map.get(sid as usize);
        match mapped.and_then(|&idx| st.series.get_mut(idx as usize)) {
            Some(series) => {
                for (b, n) in buckets {
                    if (b as usize) < NUM_BUCKETS {
                        series.hist.merge_bucket(b as usize, n);
                    }
                }
            }
            None => obs.inc(Counter::AggdUnknownSeries),
        }
        outcome
    }

    /// Close a source stream and retire its id: `true` when every claimed
    /// frame was applied (gapless, exactly once).  A shortfall is
    /// reported, not hidden.  Closing a retired id again changes and
    /// counts nothing, and returns `false`.
    pub fn close_source(&self, obs: &Obs, source: u64, frames_sent: u64, complete: bool) -> bool {
        let mut st = self.state.lock().unwrap();
        if !st.retired.insert(source) {
            return false;
        }
        let src = st.sources.remove(&source).unwrap_or_default();
        let clean = complete && src.applied + src.shed >= frames_sent;
        if clean {
            obs.inc(Counter::AggdSourcesClosed);
        } else {
            obs.inc(Counter::AggdSourcesIncomplete);
        }
        clean
    }

    /// Visit every series as `(name, &ring, hist_snapshot_provider)`.
    pub(crate) fn visit_series<R>(
        &self,
        mut f: impl FnMut(&str, &SeriesRing, &LogHistogram) -> R,
    ) -> Vec<R> {
        let st = self.state.lock().unwrap();
        st.series
            .iter()
            .map(|s| f(&s.name, &s.ring, &s.hist))
            .collect()
    }

    /// Look up one series and project it through `f`.
    pub(crate) fn with_series<R>(
        &self,
        name: &str,
        f: impl FnOnce(&SeriesRing, &LogHistogram) -> R,
    ) -> Option<R> {
        let st = self.state.lock().unwrap();
        let &idx = st.names.get(name)?;
        let s = &st.series[idx as usize];
        Some(f(&s.ring, &s.hist))
    }

    /// Number of registered series.
    pub fn series_count(&self) -> usize {
        self.state.lock().unwrap().series.len()
    }

    /// Number of open source streams (closed ones are retired).
    pub fn source_count(&self) -> usize {
        self.state.lock().unwrap().sources.len()
    }

    /// Approximate resident bytes for this tenant.
    pub fn approx_bytes(&self) -> usize {
        let st = self.state.lock().unwrap();
        let series: usize = st
            .series
            .iter()
            .map(|s| {
                s.name.len()
                    + s.ring.approx_bytes()
                    + std::mem::size_of::<LogHistogram>()
                    + std::mem::size_of::<Series>()
            })
            .sum();
        let sources = st.sources.len()
            * (std::mem::size_of::<u64>() + std::mem::size_of::<SourceState>() + 16);
        let retired = st.retired.0.len() * (2 * std::mem::size_of::<u64>() + 16);
        std::mem::size_of::<Self>() + series + sources + retired + st.quota.slots.len() * 12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenant() -> Tenant {
        Tenant::new("t", 1000, 8, u32::MAX)
    }

    fn obs() -> papi_obs::ObsHandle {
        Obs::new()
    }

    /// A tenant's accounting as its `Obs` counted it, with `applied`
    /// counted from the outcomes the tenant returned.
    struct Tally {
        frames_in: u64,
        applied: u64,
        dup_dropped: u64,
        out_of_order: u64,
        dropped_frames: u64,
    }

    impl Tally {
        fn of(o: &Obs, outcomes: &[IngestOutcome]) -> Tally {
            Tally {
                frames_in: o.get(Counter::AggdFramesIn),
                applied: outcomes.iter().filter(|x| x.applied()).count() as u64,
                dup_dropped: o.get(Counter::AggdDupDropped),
                out_of_order: o.get(Counter::AggdOutOfOrder),
                dropped_frames: o.get(Counter::AggdDroppedFrames),
            }
        }

        /// The zero-silent-drop identity: every frame is accounted for.
        fn accounted(&self) -> bool {
            self.frames_in == self.applied + self.dup_dropped + self.dropped_frames
        }
    }

    #[test]
    fn duplicates_never_double_apply() {
        let t = tenant();
        let o = obs();
        let sid = t.register_series("s", 1000, 8);
        let map = [sid];
        let outcomes: Vec<_> = (0..3)
            .map(|_| t.ingest_snapshot(&o, 1, 0, 10, [(0u16, 5u64)].into_iter(), &map))
            .collect();
        assert_eq!(t.with_series("s", |r, _| r.lifetime_total()), Some(5));
        let st = Tally::of(&o, &outcomes);
        assert_eq!(st.frames_in, 3);
        assert_eq!(st.applied, 1);
        assert_eq!(st.dup_dropped, 2);
        assert!(st.accounted());
        assert_eq!(o.get(Counter::AggdDupDropped), 2);
    }

    #[test]
    fn out_of_order_within_window_applies_once() {
        let t = tenant();
        let o = obs();
        let sid = t.register_series("s", 1000, 8);
        let map = [sid];
        // seqs arrive 2, 0, 1, then 1 again (dup).
        let outcomes = [
            t.ingest_snapshot(&o, 7, 2, 10, [(0u16, 1u64)].into_iter(), &map),
            t.ingest_snapshot(&o, 7, 0, 10, [(0u16, 2u64)].into_iter(), &map),
            t.ingest_snapshot(&o, 7, 1, 10, [(0u16, 4u64)].into_iter(), &map),
            t.ingest_snapshot(&o, 7, 1, 10, [(0u16, 4u64)].into_iter(), &map),
        ];
        assert_eq!(t.with_series("s", |r, _| r.lifetime_total()), Some(7));
        let st = Tally::of(&o, &outcomes);
        assert_eq!(st.out_of_order, 2);
        assert_eq!(st.dup_dropped, 1);
        assert_eq!(st.applied, 3);
        assert!(st.accounted());
    }

    #[test]
    fn beyond_window_oldies_are_shed_not_applied() {
        let t = tenant();
        let o = obs();
        let sid = t.register_series("s", 1000, 8);
        let map = [sid];
        let first = t.ingest_snapshot(&o, 1, 100, 10, [(0u16, 1u64)].into_iter(), &map);
        // 100 - 30 = 70 > 64: cannot prove it isn't a dup; shed.
        let out = t.ingest_snapshot(&o, 1, 30, 10, [(0u16, 1u64)].into_iter(), &map);
        assert_eq!(out, IngestOutcome::DupDropped);
        assert_eq!(t.with_series("s", |r, _| r.lifetime_total()), Some(1));
        assert!(Tally::of(&o, &[first, out]).accounted());
    }

    #[test]
    fn quota_sheds_frames_and_accounts_them() {
        let t = Tenant::new("q", 1000, 4, 2);
        let o = obs();
        let sid = t.register_series("s", 1000, 4);
        let map = [sid];
        let mut outcomes: Vec<_> = (0..5)
            .map(|seq| t.ingest_snapshot(&o, 1, seq, 10, [(0u16, 1u64)].into_iter(), &map))
            .collect();
        let st = Tally::of(&o, &outcomes);
        assert_eq!(st.frames_in, 5);
        assert_eq!(st.applied, 2);
        assert_eq!(st.dropped_frames, 3);
        assert!(st.accounted());
        assert_eq!(t.with_series("s", |r, _| r.lifetime_total()), Some(2));
        // A later window admits frames again.
        outcomes.push(t.ingest_snapshot(&o, 1, 5, 1500, [(0u16, 1u64)].into_iter(), &map));
        assert_eq!(Tally::of(&o, &outcomes).applied, 3);
    }

    #[test]
    fn hist_frames_merge_into_series_histogram() {
        let t = tenant();
        let o = obs();
        let sid = t.register_series("s", 1000, 8);
        let map = [sid];
        let src = LogHistogram::new();
        for v in [10u64, 10, 100, 10_000] {
            src.record(v);
        }
        let pairs = src.snapshot().nonzero_buckets();
        t.ingest_hist(&o, 1, 0, 10, 0, pairs.iter().copied(), &map);
        // Duplicate hist frame: dropped.
        t.ingest_hist(&o, 1, 0, 10, 0, pairs.iter().copied(), &map);
        let (count, p99) = t
            .with_series("s", |_, h| {
                let s = h.snapshot();
                (s.count, s.quantile(0.99))
            })
            .unwrap();
        assert_eq!(count, 4);
        assert!(p99 >= 10_000);
    }

    #[test]
    fn close_source_checks_gaplessness() {
        let t = tenant();
        let o = obs();
        let sid = t.register_series("s", 1000, 8);
        let map = [sid];
        for seq in 0..10 {
            t.ingest_snapshot(&o, 3, seq, 10, [(0u16, 1u64)].into_iter(), &map);
        }
        assert!(t.close_source(&o, 3, 10, true));
        assert_eq!(o.get(Counter::AggdSourcesClosed), 1);
        // A source that claims more frames than arrived is incomplete.
        t.ingest_snapshot(&o, 4, 0, 10, [(0u16, 1u64)].into_iter(), &map);
        assert!(!t.close_source(&o, 4, 5, true));
        assert_eq!(o.get(Counter::AggdSourcesIncomplete), 1);
        // An explicitly incomplete close is reported as such.
        assert!(!t.close_source(&o, 5, 0, false));
    }

    #[test]
    fn frames_after_close_are_dropped_as_duplicates() {
        let t = tenant();
        let o = obs();
        let sid = t.register_series("s", 1000, 8);
        let map = [sid];
        let mut outcomes: Vec<_> = (0..4)
            .map(|seq| t.ingest_snapshot(&o, 3, seq, 10, [(0u16, 1u64)].into_iter(), &map))
            .collect();
        assert!(t.close_source(&o, 3, 4, true));
        assert_eq!(t.source_count(), 0, "the closed source is retired");
        // A replay of an applied seq and a seq never sent: both too late.
        for seq in [0, 4] {
            let out = t.ingest_snapshot(&o, 3, seq, 10, [(0u16, 1u64)].into_iter(), &map);
            assert_eq!(out, IngestOutcome::DupDropped);
            outcomes.push(out);
        }
        let out = t.ingest_hist(&o, 3, 5, 10, 0, [(3u16, 1u64)].into_iter(), &map);
        assert_eq!(out, IngestOutcome::DupDropped);
        outcomes.push(out);
        assert_eq!(t.with_series("s", |r, _| r.lifetime_total()), Some(4));
        let st = Tally::of(&o, &outcomes);
        assert_eq!((st.frames_in, st.applied, st.dup_dropped), (7, 4, 3));
        assert!(st.accounted());
        assert_eq!(o.get(Counter::AggdDupDropped), 3);
    }

    #[test]
    fn a_repeated_close_is_counted_once() {
        let t = tenant();
        let o = obs();
        let map = [t.register_series("s", 1000, 8)];
        t.ingest_snapshot(&o, 3, 0, 10, [(0u16, 1u64)].into_iter(), &map);
        assert!(t.close_source(&o, 3, 1, true));
        assert!(!t.close_source(&o, 3, 1, true));
        assert!(!t.close_source(&o, 3, 9, false));
        assert!(!t.close_source(&o, 4, 0, false));
        assert!(!t.close_source(&o, 4, 0, false));
        assert_eq!(o.get(Counter::AggdSourcesClosed), 1);
        assert_eq!(o.get(Counter::AggdSourcesIncomplete), 1);
    }

    #[test]
    fn unseen_ids_beside_retired_ones_are_admitted() {
        let t = tenant();
        let o = obs();
        let map = [t.register_series("s", 1000, 8)];
        let frame = |source| t.ingest_snapshot(&o, source, 1, 10, [(0u16, 1u64)].into_iter(), &map);
        // Ids 62, 63 | 64, 66: two bitmap blocks, with gaps at 65 and 67.
        for source in [62, 63, 64, 66] {
            assert!(t.close_source(&o, source, 0, true));
        }
        let mut outcomes = Vec::new();
        for source in [62, 63, 64, 66] {
            let out = frame(source);
            assert_eq!(out, IngestOutcome::DupDropped, "source {source}");
            outcomes.push(out);
        }
        for source in [61, 65, 67, 128] {
            let out = frame(source);
            assert_eq!(out, IngestOutcome::Applied, "source {source}");
            outcomes.push(out);
        }
        assert_eq!(t.source_count(), 4);
        assert_eq!(t.with_series("s", |r, _| r.lifetime_total()), Some(4));
        assert!(Tally::of(&o, &outcomes).accounted());
    }
}
