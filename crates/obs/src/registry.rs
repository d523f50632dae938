//! Lock-free internal counter registry.
//!
//! Every counter the library keeps about *itself* is a named slot in a fixed
//! array of relaxed atomics.  Incrementing a counter is a single
//! `fetch_add(Relaxed)`; reading the registry never blocks writers.  Counters
//! are grouped by subsystem (`eventset`, `mpx`, `overflow`, `alloc`,
//! `journal`, `cycles`) so exports can be organised the way the paper
//! organises its overhead discussion: per-call costs, multiplexing costs, and
//! sampling costs.

use std::sync::atomic::{AtomicU64, Ordering};

/// Identifier for one internal counter.
///
/// The discriminant doubles as the slot index in [`Registry`]; the order of
/// variants therefore must match [`COUNTERS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Event sets created (`create_eventset`).
    EventsetCreated,
    /// Event sets destroyed (`destroy_eventset`).
    EventsetDestroyed,
    /// Successful `start` calls.
    Starts,
    /// `start` calls that returned an error (conflict, no-resources, ...).
    StartErrors,
    /// Successful `stop` calls.
    Stops,
    /// API-level `read` calls.
    Reads,
    /// API-level `accum` calls.
    Accums,
    /// API-level `reset` calls.
    Resets,
    /// Physical (substrate) counter read operations, including those issued
    /// by `stop`, `accum`, and the multiplexing flush path.
    CounterReads,
    /// Multiplex partition rotations (timer-driven context switches).
    MpxRotations,
    /// Multiplex flushes: live partition readouts folded into estimates.
    MpxFlushes,
    /// Hardware programming operations issued when switching partitions.
    MpxProgramOps,
    /// Overflow interrupts delivered to the dispatcher.
    OverflowInterrupts,
    /// Overflow interrupts routed to a user handler.
    OverflowHandlerDispatches,
    /// Overflow interrupts routed to a `profil` histogram.
    ProfilHits,
    /// Counter-allocation solves attempted.
    AllocAttempts,
    /// Allocation solves that found a feasible assignment.
    AllocSuccesses,
    /// Allocation solves that found no feasible assignment.
    AllocFailures,
    /// Augmenting-path probe calls inside the allocator (search effort).
    AllocAugmentSteps,
    /// Events displaced and re-placed during augmenting-path search
    /// (backtracking effort).
    AllocBacktracks,
    /// Allocation requests answered from the memo cache (no solver search).
    AllocMemoHits,
    /// Allocation requests that had to run the solver (and seeded the memo).
    AllocMemoMisses,
    /// Records appended to the event journal.
    JournalRecords,
    /// Records dropped because the journal ring was full.
    JournalDropped,
    /// Virtual cycles spent inside `read`/`accum` (self-accounted).
    CyclesInRead,
    /// Virtual cycles spent inside `start` + `stop` (self-accounted).
    CyclesInStartStop,
    /// Virtual cycles spent inside multiplex rotation (self-accounted).
    CyclesInMpxRotate,
    /// OS threads registered into a session table (`register_thread`).
    ThreadsRegistered,
    /// OS threads unregistered from a session table.
    ThreadsUnregistered,
    /// Operations rejected because an EventSet id was tagged for a
    /// different thread's session (cross-thread misuse).
    CrossThreadDenied,
    /// Transient substrate errors absorbed by the bounded retry loop.
    FaultRetries,
    /// Operations that exhausted the retry budget and surfaced a transient
    /// error to the caller.
    FaultGaveUp,
    /// Hardware counter wraparounds detected (and widened) by the portable
    /// layer on substrates with counters narrower than 64 bits.
    FaultWraps,
    /// Snapshot/histogram frames presented to an aggregation daemon's
    /// ingestion front end (every frame, applied or not).
    AggdFramesIn,
    /// Frames dropped because their sequence number was already applied
    /// (or fell behind the anti-replay window) — exactly-once enforcement.
    AggdDupDropped,
    /// Frames that arrived out of sequence order but were still applied
    /// exactly once (informational: reordering observed, not lost).
    AggdOutOfOrder,
    /// Frames dropped by per-tenant quota backpressure (never silently:
    /// this counter is the accounting).
    AggdDroppedFrames,
    /// Non-empty time windows overwritten by ring rotation (oldest-window
    /// eviction under the bounded-memory policy).
    AggdEvictedWindows,
    /// Frames whose window had already rotated out of the ring; applied to
    /// lifetime totals only, excluded from windowed queries.
    AggdStaleWindows,
    /// Per-series deltas referencing a series id the tenant never
    /// registered (skipped, counted).
    AggdUnknownSeries,
    /// Tenants registered into the aggregation table.
    AggdTenantsRegistered,
    /// Tenants evicted from the aggregation table (capacity or explicit).
    AggdTenantsEvicted,
    /// Sources (tenant x host x thread streams) closed by their session.
    AggdSourcesClosed,
    /// Sources closed *incomplete* (the session gave up mid-stream, e.g.
    /// under fault injection) — explicitly reported, never silent.
    AggdSourcesIncomplete,
    /// Wire messages that did not decode (truncated, unknown opcode,
    /// invalid UTF-8); the connection stays open.
    AggdMalformedFrames,
    /// Wire messages whose length prefix exceeded the protocol's largest
    /// frame; the connection is closed.
    AggdOversizeFrames,
    /// Benchmark-matrix cells executed to completion (supported).
    MatrixCellsRun,
    /// Benchmark-matrix cells whose setup the substrate refused
    /// (contributes zero to the performance-portability score).
    MatrixCellsUnsupported,
    /// Worker threads launched by the benchmark-matrix runner.
    MatrixThreadsLaunched,
}

/// All counters, in slot order.  `COUNTERS[c as usize] == c` for every `c`.
pub const COUNTERS: &[Counter] = &[
    Counter::EventsetCreated,
    Counter::EventsetDestroyed,
    Counter::Starts,
    Counter::StartErrors,
    Counter::Stops,
    Counter::Reads,
    Counter::Accums,
    Counter::Resets,
    Counter::CounterReads,
    Counter::MpxRotations,
    Counter::MpxFlushes,
    Counter::MpxProgramOps,
    Counter::OverflowInterrupts,
    Counter::OverflowHandlerDispatches,
    Counter::ProfilHits,
    Counter::AllocAttempts,
    Counter::AllocSuccesses,
    Counter::AllocFailures,
    Counter::AllocAugmentSteps,
    Counter::AllocBacktracks,
    Counter::AllocMemoHits,
    Counter::AllocMemoMisses,
    Counter::JournalRecords,
    Counter::JournalDropped,
    Counter::CyclesInRead,
    Counter::CyclesInStartStop,
    Counter::CyclesInMpxRotate,
    Counter::ThreadsRegistered,
    Counter::ThreadsUnregistered,
    Counter::CrossThreadDenied,
    Counter::FaultRetries,
    Counter::FaultGaveUp,
    Counter::FaultWraps,
    Counter::AggdFramesIn,
    Counter::AggdDupDropped,
    Counter::AggdOutOfOrder,
    Counter::AggdDroppedFrames,
    Counter::AggdEvictedWindows,
    Counter::AggdStaleWindows,
    Counter::AggdUnknownSeries,
    Counter::AggdTenantsRegistered,
    Counter::AggdTenantsEvicted,
    Counter::AggdSourcesClosed,
    Counter::AggdSourcesIncomplete,
    Counter::AggdMalformedFrames,
    Counter::AggdOversizeFrames,
    Counter::MatrixCellsRun,
    Counter::MatrixCellsUnsupported,
    Counter::MatrixThreadsLaunched,
];

/// Number of registry slots.
pub const NUM_COUNTERS: usize = COUNTERS.len();

impl Counter {
    /// Subsystem grouping, used as the export prefix.
    pub fn subsystem(self) -> &'static str {
        use Counter::*;
        match self {
            EventsetCreated | EventsetDestroyed | Starts | StartErrors | Stops | Reads | Accums
            | Resets | CounterReads => "eventset",
            MpxRotations | MpxFlushes | MpxProgramOps => "mpx",
            OverflowInterrupts | OverflowHandlerDispatches | ProfilHits => "overflow",
            AllocAttempts | AllocSuccesses | AllocFailures | AllocAugmentSteps
            | AllocBacktracks | AllocMemoHits | AllocMemoMisses => "alloc",
            JournalRecords | JournalDropped => "journal",
            CyclesInRead | CyclesInStartStop | CyclesInMpxRotate => "cycles",
            ThreadsRegistered | ThreadsUnregistered | CrossThreadDenied => "threads",
            FaultRetries | FaultGaveUp | FaultWraps => "fault",
            AggdFramesIn
            | AggdDupDropped
            | AggdOutOfOrder
            | AggdDroppedFrames
            | AggdEvictedWindows
            | AggdStaleWindows
            | AggdUnknownSeries
            | AggdTenantsRegistered
            | AggdTenantsEvicted
            | AggdSourcesClosed
            | AggdSourcesIncomplete
            | AggdMalformedFrames
            | AggdOversizeFrames => "aggd",
            MatrixCellsRun | MatrixCellsUnsupported | MatrixThreadsLaunched => "matrix",
        }
    }

    /// Short name within the subsystem.
    pub fn name(self) -> &'static str {
        use Counter::*;
        match self {
            EventsetCreated => "created",
            EventsetDestroyed => "destroyed",
            Starts => "starts",
            StartErrors => "start_errors",
            Stops => "stops",
            Reads => "reads",
            Accums => "accums",
            Resets => "resets",
            CounterReads => "counter_reads",
            MpxRotations => "rotations",
            MpxFlushes => "flushes",
            MpxProgramOps => "program_ops",
            OverflowInterrupts => "interrupts",
            OverflowHandlerDispatches => "handler_dispatches",
            ProfilHits => "profil_hits",
            AllocAttempts => "attempts",
            AllocSuccesses => "successes",
            AllocFailures => "failures",
            AllocAugmentSteps => "augment_steps",
            AllocBacktracks => "backtracks",
            AllocMemoHits => "memo_hits",
            AllocMemoMisses => "memo_misses",
            JournalRecords => "records",
            JournalDropped => "dropped",
            CyclesInRead => "in_read",
            CyclesInStartStop => "in_start_stop",
            CyclesInMpxRotate => "in_mpx_rotate",
            ThreadsRegistered => "registered",
            ThreadsUnregistered => "unregistered",
            CrossThreadDenied => "cross_thread_denied",
            FaultRetries => "retries",
            FaultGaveUp => "gave_up",
            FaultWraps => "wraps",
            AggdFramesIn => "frames_in",
            AggdDupDropped => "dup_dropped",
            AggdOutOfOrder => "out_of_order",
            AggdDroppedFrames => "dropped_frames",
            AggdEvictedWindows => "evicted_windows",
            AggdStaleWindows => "stale_windows",
            AggdUnknownSeries => "unknown_series",
            AggdTenantsRegistered => "tenants_registered",
            AggdTenantsEvicted => "tenants_evicted",
            AggdSourcesClosed => "sources_closed",
            AggdSourcesIncomplete => "sources_incomplete",
            AggdMalformedFrames => "malformed_frames",
            AggdOversizeFrames => "oversize_frames",
            MatrixCellsRun => "cells_run",
            MatrixCellsUnsupported => "cells_unsupported",
            MatrixThreadsLaunched => "threads_launched",
        }
    }

    /// Fully qualified `subsystem.name` key.
    pub fn key(self) -> String {
        format!("{}.{}", self.subsystem(), self.name())
    }
}

/// Fixed-size array of relaxed atomic counters.
///
/// All operations are lock-free; relaxed ordering is sufficient because the
/// registry carries no inter-thread happens-before obligations — readers only
/// want eventually-consistent totals.
pub struct Registry {
    slots: [AtomicU64; NUM_COUNTERS],
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A registry with every counter at zero.
    pub fn new() -> Self {
        Registry {
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Add `v` to counter `c`.
    #[inline]
    pub fn add(&self, c: Counter, v: u64) {
        self.slots[c as usize].fetch_add(v, Ordering::Relaxed);
    }

    /// Increment counter `c` by one.
    #[inline]
    pub fn inc(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Current value of counter `c`.
    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.slots[c as usize].load(Ordering::Relaxed)
    }

    /// All `(counter, value)` pairs in slot order.
    pub fn values(&self) -> Vec<(Counter, u64)> {
        COUNTERS.iter().map(|&c| (c, self.get(c))).collect()
    }

    /// Reset every counter to zero (for test isolation and tool reuse).
    pub fn clear(&self) {
        for slot in &self.slots {
            slot.store(0, Ordering::Relaxed);
        }
    }
}

/// An open cycle-resolution span over one of the `cycles.*` counters.
///
/// Construct with a begin timestamp from the substrate's virtual clock, close
/// with an end timestamp; the saturated difference is accumulated into the
/// target counter.  Spans are plain values — dropping one without closing it
/// records nothing.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    target: Counter,
    begin_cycles: u64,
}

impl Span {
    /// Open a span charging `target`, beginning at virtual time `now`.
    pub fn begin(target: Counter, now: u64) -> Self {
        Span {
            target,
            begin_cycles: now,
        }
    }

    /// Close the span at virtual time `now`, accumulating the elapsed cycles.
    pub fn end(self, registry: &Registry, now: u64) {
        registry.add(self.target, now.saturating_sub(self.begin_cycles));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_slot_order_matches_discriminants() {
        for (i, &c) in COUNTERS.iter().enumerate() {
            assert_eq!(c as usize, i, "COUNTERS[{i}] = {c:?} out of order");
        }
    }

    #[test]
    fn keys_are_unique() {
        let mut keys: Vec<String> = COUNTERS.iter().map(|c| c.key()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), NUM_COUNTERS);
    }

    #[test]
    fn add_inc_get() {
        let r = Registry::new();
        assert_eq!(r.get(Counter::Reads), 0);
        r.inc(Counter::Reads);
        r.add(Counter::Reads, 4);
        assert_eq!(r.get(Counter::Reads), 5);
        assert_eq!(r.get(Counter::Stops), 0);
        r.clear();
        assert_eq!(r.get(Counter::Reads), 0);
    }

    #[test]
    fn span_accumulates_saturating() {
        let r = Registry::new();
        let s = Span::begin(Counter::CyclesInRead, 100);
        s.end(&r, 340);
        assert_eq!(r.get(Counter::CyclesInRead), 240);
        // A clock that goes backwards saturates to zero instead of wrapping.
        let s = Span::begin(Counter::CyclesInRead, 500);
        s.end(&r, 400);
        assert_eq!(r.get(Counter::CyclesInRead), 240);
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let r = std::sync::Arc::new(Registry::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    r.inc(Counter::CounterReads);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.get(Counter::CounterReads), 4000);
    }
}
