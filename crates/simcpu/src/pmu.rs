//! The performance-monitoring unit: a small set of physical counter
//! registers, each programmable with one *native event*, plus overflow
//! interrupt generation and ProfileMe/EAR-style precise sampling hardware.
//!
//! Native events are platform-specific combinations of machine-level
//! [`EventKind`] signals (see [`crate::platform`]); a physical counter
//! counts the sum of its event's signals, subject to a counting *domain*
//! (user/kernel). Constraints on which events may live on which counters —
//! the reason the paper casts allocation as bipartite matching — are encoded
//! as a per-event counter bitmask in [`NativeEventDesc::counter_mask`].

/// Machine-level event signals the simulated core raises as it executes.
///
/// Native events on each platform are built from these; the variants are the
/// union of what the paper's platforms could observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// Elapsed core cycles (including stalls).
    Cycles = 0,
    /// Retired instructions.
    Instructions,
    /// Integer ALU operations.
    IntOps,
    /// FP adds retired.
    FpAdd,
    /// FP multiplies retired.
    FpMul,
    /// Fused multiply-adds retired (one instruction, two FLOPs).
    FpFma,
    /// FP divides retired.
    FpDiv,
    /// FP convert/round instructions retired.
    FpCvt,
    /// Loads retired.
    Loads,
    /// Stores retired.
    Stores,
    /// L1 data-cache accesses.
    L1DAccess,
    /// L1 data-cache misses.
    L1DMiss,
    /// L1 instruction-cache accesses.
    L1IAccess,
    /// L1 instruction-cache misses.
    L1IMiss,
    /// Unified L2 accesses.
    L2Access,
    /// Unified L2 misses.
    L2Miss,
    /// Data-TLB misses.
    DtlbMiss,
    /// Instruction-TLB misses.
    ItlbMiss,
    /// Conditional branches retired.
    Branches,
    /// Conditional branches taken.
    BranchTaken,
    /// Conditional branches mispredicted.
    BranchMispred,
    /// Cycles in which the pipeline was stalled (memory or divide).
    StallCycles,
    /// Messages sent to an inter-thread channel.
    MsgSend,
    /// Messages received from an inter-thread channel.
    MsgRecv,
    /// Cycles spent blocked waiting for a message.
    MsgBlockCycles,
}

/// Number of [`EventKind`] variants (kept in sync by [`EventKind::ALL`]).
pub const NUM_EVENT_KINDS: usize = 25;

impl EventKind {
    /// All variants, indexable by `as usize`.
    pub const ALL: [EventKind; NUM_EVENT_KINDS] = [
        EventKind::Cycles,
        EventKind::Instructions,
        EventKind::IntOps,
        EventKind::FpAdd,
        EventKind::FpMul,
        EventKind::FpFma,
        EventKind::FpDiv,
        EventKind::FpCvt,
        EventKind::Loads,
        EventKind::Stores,
        EventKind::L1DAccess,
        EventKind::L1DMiss,
        EventKind::L1IAccess,
        EventKind::L1IMiss,
        EventKind::L2Access,
        EventKind::L2Miss,
        EventKind::DtlbMiss,
        EventKind::ItlbMiss,
        EventKind::Branches,
        EventKind::BranchTaken,
        EventKind::BranchMispred,
        EventKind::StallCycles,
        EventKind::MsgSend,
        EventKind::MsgRecv,
        EventKind::MsgBlockCycles,
    ];

    /// Bit in a sample record's `kind_mask`.
    pub fn bit(self) -> u32 {
        1 << (self as u8)
    }
}

/// Counting domain of a counter: which privilege modes it counts in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Domain {
    pub user: bool,
    pub kernel: bool,
}

impl Domain {
    pub const USER: Domain = Domain {
        user: true,
        kernel: false,
    };
    pub const KERNEL: Domain = Domain {
        user: false,
        kernel: true,
    };
    pub const ALL: Domain = Domain {
        user: true,
        kernel: true,
    };

    pub fn matches(&self, kernel_mode: bool) -> bool {
        if kernel_mode {
            self.kernel
        } else {
            self.user
        }
    }
}

/// Description of one native event a platform exposes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NativeEventDesc {
    /// Platform-scoped event code. By convention bit 30 is set (mirroring
    /// PAPI's `PAPI_NATIVE_MASK`).
    pub code: u32,
    /// Vendor-style mnemonic, e.g. `INST_RETIRED` or `PM_FPU0_CMPL`.
    pub name: &'static str,
    pub descr: &'static str,
    /// The machine signals this event sums, with multipliers.
    pub kinds: Vec<(EventKind, u32)>,
    /// Bitmask of physical counters this event may be programmed on.
    pub counter_mask: u32,
    /// Group id on group-allocated platforms (e.g. POWER3); `None` on
    /// counter-mask platforms.
    pub group: Option<u32>,
}

/// Event programmed onto one physical counter.
#[derive(Debug, Clone)]
struct Programmed {
    code: u32,
    kinds: Vec<(EventKind, u32)>,
    domain: Domain,
}

#[derive(Debug, Clone)]
struct OverflowCfg {
    threshold: u64,
    next: u64,
}

/// Precise-sampling (ProfileMe / EAR) configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleConfig {
    /// Mean retired-instruction period between samples.
    pub period: u64,
    /// Uniform jitter applied to each period, `[-jitter, +jitter]`, to avoid
    /// phase-locking with loops (real ProfileMe randomizes its counter).
    pub jitter: u32,
    /// Ring-buffer capacity before the hardware raises a buffer-full event.
    pub buffer_capacity: usize,
}

impl Default for SampleConfig {
    fn default() -> Self {
        SampleConfig {
            period: 1024,
            jitter: 64,
            buffer_capacity: 256,
        }
    }
}

/// One precise sample: the *exact* instruction the hardware selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleRecord {
    /// Exact PC of the sampled instruction (no skid).
    pub pc: u64,
    /// Thread that retired it.
    pub thread: u32,
    /// OR of [`EventKind::bit`] for every signal the instruction raised.
    pub kind_mask: u32,
    /// Cycles the instruction occupied retirement (its latency).
    pub latency: u32,
    /// Cycle timestamp at retirement.
    pub cycle: u64,
    /// Effective data address, for loads/stores (the *data* Event Address
    /// Register of Itanium; ProfileMe records the same).
    pub daddr: Option<u64>,
}

impl SampleRecord {
    pub fn has(&self, kind: EventKind) -> bool {
        self.kind_mask & kind.bit() != 0
    }
}

/// Saved per-thread counter state (counter virtualization).
#[derive(Debug, Clone, Default)]
pub struct PmuContext {
    counts: Vec<u64>,
    next_ovf: Vec<Option<u64>>,
    /// Programming epoch the counts were saved under; a restore against a
    /// different epoch means the counters were reprogrammed while this
    /// thread was off-CPU and the saved counts belong to *other events*.
    epoch: u64,
}

impl PmuContext {
    /// Saved value of counter `idx`, if this context has been populated.
    pub fn count(&self, idx: usize) -> Option<u64> {
        self.counts.get(idx).copied()
    }

    /// Programming epoch this context was saved under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

#[derive(Debug, Clone)]
struct SamplingState {
    cfg: SampleConfig,
    countdown: u64,
    buffer: Vec<SampleRecord>,
}

/// The PMU attached to a simulated core.
#[derive(Debug, Clone)]
pub struct Pmu {
    counters: Vec<Option<Programmed>>,
    counts: Vec<u64>,
    overflow: Vec<Option<OverflowCfg>>,
    running: bool,
    pending_overflow: u32,
    sampling: Option<SamplingState>,
    /// Bumped on every `program()` call; saved contexts are only restored
    /// against the epoch they were captured under (see
    /// [`Pmu::restore_context`]).
    epoch: u64,
    /// Register width in bits (1..=64). Narrow registers wrap: counts are
    /// kept modulo `2^bits`, like the paper-era 32-bit R10000/UltraSPARC
    /// and 40-bit Pentium counters. 64 means never wraps.
    bits: u32,
    /// `2^bits - 1`, precomputed (`u64::MAX` for 64-bit registers).
    mask: u64,
    /// Flat dispatch table: one `(kind, counter, mult, domain)` entry per
    /// signal of every programmed counter, rebuilt by [`Pmu::program`].
    /// [`Pmu::record`] scans this contiguous list instead of the per-slot
    /// `kinds` vectors.
    incr: Vec<(EventKind, u32, u32, Domain)>,
}

impl Pmu {
    pub fn new(num_counters: usize) -> Self {
        Self::with_width(num_counters, 64)
    }

    /// A PMU whose counter registers are `bits` wide (1..=64). Counts wrap
    /// modulo `2^bits`; software above must widen them.
    pub fn with_width(num_counters: usize, bits: u32) -> Self {
        assert!(num_counters > 0 && num_counters <= 32);
        assert!((1..=64).contains(&bits), "counter width out of range");
        Pmu {
            counters: vec![None; num_counters],
            counts: vec![0; num_counters],
            overflow: vec![None; num_counters],
            running: false,
            pending_overflow: 0,
            sampling: None,
            epoch: 0,
            bits,
            mask: if bits == 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            },
            incr: Vec::new(),
        }
    }

    /// Register width in bits.
    pub fn counter_bits(&self) -> u32 {
        self.bits
    }

    /// `2^bits - 1`: the largest value a register can hold.
    pub fn counter_mask(&self) -> u64 {
        self.mask
    }

    /// Test hook: set counter `idx`'s register to `v` (masked to the
    /// register width) and re-base any armed overflow threshold on it.
    /// Lets wraparound tests start a register near saturation without
    /// simulating `2^32` events.
    pub fn preload(&mut self, idx: usize, v: u64) {
        self.counts[idx] = v & self.mask;
        if let Some(o) = &mut self.overflow[idx] {
            o.next = self.counts[idx] + o.threshold;
        }
    }

    pub fn num_counters(&self) -> usize {
        self.counters.len()
    }

    pub fn running(&self) -> bool {
        self.running
    }

    /// Program counter `idx` with a native event in the given domain, or
    /// clear it with `None`. Programming implicitly resets the count.
    pub fn program(&mut self, idx: usize, event: Option<(&NativeEventDesc, Domain)>) {
        self.counters[idx] = event.map(|(e, d)| Programmed {
            code: e.code,
            kinds: e.kinds.clone(),
            domain: d,
        });
        self.counts[idx] = 0;
        if let Some(o) = &mut self.overflow[idx] {
            o.next = o.threshold;
        }
        self.rebuild_incr();
        // Any saved per-thread context now describes different events.
        self.epoch += 1;
    }

    /// Rebuild the flat `record` dispatch table from the programmed slots.
    fn rebuild_incr(&mut self) {
        self.incr.clear();
        for (i, slot) in self.counters.iter().enumerate() {
            let Some(p) = slot else { continue };
            for &(k, mult) in &p.kinds {
                self.incr.push((k, i as u32, mult, p.domain));
            }
        }
    }

    /// Current programming epoch (bumped by every [`Pmu::program`] call).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Code programmed on counter `idx`, if any.
    pub fn programmed_code(&self, idx: usize) -> Option<u32> {
        self.counters[idx].as_ref().map(|p| p.code)
    }

    pub fn start(&mut self) {
        self.running = true;
    }

    pub fn stop(&mut self) {
        self.running = false;
    }

    /// Read counter `idx` (no cost model here — the machine charges it).
    pub fn read(&self, idx: usize) -> u64 {
        self.counts[idx]
    }

    /// Zero all counters and re-arm overflow thresholds.
    pub fn reset_counts(&mut self) {
        for c in &mut self.counts {
            *c = 0;
        }
        for o in self.overflow.iter_mut().flatten() {
            o.next = o.threshold;
        }
        self.pending_overflow = 0;
    }

    /// Arm (or disarm with `None`) overflow interrupts on counter `idx`.
    /// The interrupt fires each time the count crosses a multiple of
    /// `threshold` counted from arming.
    pub fn set_overflow(&mut self, idx: usize, threshold: Option<u64>) {
        self.overflow[idx] = threshold.map(|t| {
            assert!(t > 0, "overflow threshold must be positive");
            OverflowCfg {
                threshold: t,
                next: self.counts[idx] + t,
            }
        });
    }

    /// True if any counter has overflow armed.
    pub fn overflow_armed(&self) -> bool {
        self.overflow.iter().any(|o| o.is_some())
    }

    /// Record `n` occurrences of `kind` in the given privilege mode.
    ///
    /// Dispatches through the flat `Pmu::incr` table (rebuilt by
    /// `program()`) instead of scanning every counter's heap-allocated
    /// `kinds` list: `record` runs on every simulated instruction batch
    /// *and* every costed kernel crossing, so the per-call constant is
    /// what bounds the whole simulator's hot loop.
    pub fn record(&mut self, kind: EventKind, n: u64, kernel_mode: bool) {
        if !self.running || n == 0 {
            return;
        }
        let Pmu {
            incr,
            counts,
            overflow,
            pending_overflow,
            mask,
            ..
        } = self;
        for &(k, i, mult, d) in incr.iter() {
            if k != kind || !d.matches(kernel_mode) {
                continue;
            }
            let i = i as usize;
            // Overflow crossings are detected on the unwrapped sum,
            // then the register wraps to its width; any armed
            // threshold is re-based by the same amount so crossings
            // keep firing at the right counts across a wrap.
            let s = counts[i] + n * mult as u64;
            if let Some(o) = &mut overflow[i] {
                if s >= o.next {
                    *pending_overflow |= 1 << i;
                    let past = s - o.next;
                    o.next += o.threshold * (past / o.threshold + 1);
                }
            }
            let wrapped = s & *mask;
            if wrapped != s {
                if let Some(o) = &mut overflow[i] {
                    o.next = o.next.saturating_sub(s - wrapped);
                }
            }
            counts[i] = wrapped;
        }
    }

    /// Take the pending-overflow bitmask, clearing it.
    pub fn take_overflows(&mut self) -> u32 {
        std::mem::take(&mut self.pending_overflow)
    }

    // --- precise sampling -------------------------------------------------

    /// Enable or disable precise sampling.
    pub fn configure_sampling(&mut self, cfg: Option<SampleConfig>) {
        self.sampling = cfg.map(|c| {
            assert!(c.period > 0 && c.buffer_capacity > 0);
            SamplingState {
                cfg: c,
                countdown: c.period,
                buffer: Vec::with_capacity(c.buffer_capacity),
            }
        });
    }

    pub fn sampling_enabled(&self) -> bool {
        self.sampling.is_some()
    }

    /// Called once per retired instruction while sampling; returns `true`
    /// when the buffer reached capacity (hardware raises buffer-full).
    ///
    /// `rand_word` supplies the jitter; the machine passes its RNG output.
    #[allow(clippy::too_many_arguments)]
    pub fn sample_tick(
        &mut self,
        pc: u64,
        thread: u32,
        kind_mask: u32,
        latency: u32,
        cycle: u64,
        daddr: Option<u64>,
        rand_word: u64,
    ) -> bool {
        let Some(s) = &mut self.sampling else {
            return false;
        };
        if !self.running {
            return false;
        }
        if s.countdown > 1 {
            s.countdown -= 1;
            return false;
        }
        s.buffer.push(SampleRecord {
            pc,
            thread,
            kind_mask,
            latency,
            cycle,
            daddr,
        });
        let j = if s.cfg.jitter == 0 {
            0
        } else {
            (rand_word % (2 * s.cfg.jitter as u64 + 1)) as i64 - s.cfg.jitter as i64
        };
        s.countdown = (s.cfg.period as i64 + j).max(1) as u64;
        s.buffer.len() >= s.cfg.buffer_capacity
    }

    /// Drain the sample buffer (the machine charges per-record cost).
    pub fn drain_samples(&mut self) -> Vec<SampleRecord> {
        match &mut self.sampling {
            Some(s) => std::mem::take(&mut s.buffer),
            None => Vec::new(),
        }
    }

    /// Number of buffered samples.
    pub fn buffered_samples(&self) -> usize {
        self.sampling.as_ref().map_or(0, |s| s.buffer.len())
    }

    // --- per-thread virtualization ----------------------------------------

    /// Save the current counts for a departing thread and zero the live
    /// registers for the next one.
    pub fn save_context(&mut self) -> PmuContext {
        let ctx = PmuContext {
            counts: self.counts.clone(),
            next_ovf: self
                .overflow
                .iter()
                .map(|o| o.as_ref().map(|o| o.next))
                .collect(),
            epoch: self.epoch,
        };
        for c in &mut self.counts {
            *c = 0;
        }
        for o in self.overflow.iter_mut().flatten() {
            o.next = o.threshold;
        }
        ctx
    }

    /// Restore a previously saved context.
    ///
    /// A context is only meaningful for the programming epoch it was saved
    /// under: if the counters were reprogrammed since (the epoch advanced),
    /// the saved counts belong to events that are no longer on the hardware,
    /// and restoring them would bleed one configuration's counts into
    /// another thread's view of the new one. Such stale contexts reset the
    /// registers instead.
    pub fn restore_context(&mut self, ctx: &PmuContext) {
        if ctx.counts.len() == self.counts.len() && ctx.epoch == self.epoch {
            self.counts.copy_from_slice(&ctx.counts);
            for (o, n) in self.overflow.iter_mut().zip(&ctx.next_ovf) {
                if let (Some(o), Some(n)) = (o.as_mut(), n) {
                    o.next = *n;
                }
            }
        } else {
            // Fresh or stale context (never populated, or the counters were
            // reprogrammed since it was saved).
            self.reset_counts();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kinds: Vec<(EventKind, u32)>) -> NativeEventDesc {
        NativeEventDesc {
            code: 0x4000_0001,
            name: "TEST_EV",
            descr: "test",
            kinds,
            counter_mask: 0b11,
            group: None,
        }
    }

    #[test]
    fn kinds_all_is_complete_and_ordered() {
        for (i, k) in EventKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i);
        }
    }

    #[test]
    fn counts_only_when_running() {
        let mut p = Pmu::new(2);
        p.program(0, Some((&ev(vec![(EventKind::Loads, 1)]), Domain::ALL)));
        p.record(EventKind::Loads, 5, false);
        assert_eq!(p.read(0), 0);
        p.start();
        p.record(EventKind::Loads, 5, false);
        assert_eq!(p.read(0), 5);
        p.stop();
        p.record(EventKind::Loads, 5, false);
        assert_eq!(p.read(0), 5);
    }

    #[test]
    fn multiplier_and_multi_kind_events() {
        // An FP_OPS-style event: adds + muls + 2*fma
        let e = ev(vec![
            (EventKind::FpAdd, 1),
            (EventKind::FpMul, 1),
            (EventKind::FpFma, 2),
        ]);
        let mut p = Pmu::new(1);
        p.program(0, Some((&e, Domain::ALL)));
        p.start();
        p.record(EventKind::FpAdd, 3, false);
        p.record(EventKind::FpFma, 4, false);
        p.record(EventKind::FpDiv, 9, false);
        assert_eq!(p.read(0), 3 + 8);
    }

    #[test]
    fn domain_filtering() {
        let mut p = Pmu::new(2);
        p.program(0, Some((&ev(vec![(EventKind::Cycles, 1)]), Domain::USER)));
        p.program(1, Some((&ev(vec![(EventKind::Cycles, 1)]), Domain::ALL)));
        p.start();
        p.record(EventKind::Cycles, 10, false);
        p.record(EventKind::Cycles, 7, true);
        assert_eq!(p.read(0), 10);
        assert_eq!(p.read(1), 17);
    }

    #[test]
    fn overflow_fires_on_threshold_crossings() {
        let mut p = Pmu::new(1);
        p.program(
            0,
            Some((&ev(vec![(EventKind::Instructions, 1)]), Domain::ALL)),
        );
        p.set_overflow(0, Some(100));
        p.start();
        p.record(EventKind::Instructions, 99, false);
        assert_eq!(p.take_overflows(), 0);
        p.record(EventKind::Instructions, 1, false);
        assert_eq!(p.take_overflows(), 1);
        assert_eq!(p.take_overflows(), 0); // cleared
        p.record(EventKind::Instructions, 100, false);
        assert_eq!(p.take_overflows(), 1);
    }

    #[test]
    fn overflow_big_jump_delivers_once_and_rearms() {
        let mut p = Pmu::new(1);
        p.program(0, Some((&ev(vec![(EventKind::Cycles, 1)]), Domain::ALL)));
        p.set_overflow(0, Some(10));
        p.start();
        p.record(EventKind::Cycles, 35, false); // crosses 10,20,30
        assert_eq!(p.take_overflows(), 1);
        // next threshold is 40
        p.record(EventKind::Cycles, 4, false);
        assert_eq!(p.take_overflows(), 0);
        p.record(EventKind::Cycles, 1, false);
        assert_eq!(p.take_overflows(), 1);
    }

    #[test]
    fn program_resets_count() {
        let mut p = Pmu::new(1);
        let e = ev(vec![(EventKind::Loads, 1)]);
        p.program(0, Some((&e, Domain::ALL)));
        p.start();
        p.record(EventKind::Loads, 5, false);
        p.program(0, Some((&e, Domain::ALL)));
        assert_eq!(p.read(0), 0);
    }

    #[test]
    fn sampling_period_and_buffer_full() {
        let mut p = Pmu::new(1);
        p.configure_sampling(Some(SampleConfig {
            period: 10,
            jitter: 0,
            buffer_capacity: 3,
        }));
        p.start();
        let mut full = false;
        let mut n = 0;
        for i in 0..1000 {
            full = p.sample_tick(0x1000 + i, 0, 0, 1, i, None, 0);
            n += 1;
            if full {
                break;
            }
        }
        assert!(full);
        assert_eq!(n, 30); // 3 samples at period 10
        let recs = p.drain_samples();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].pc, 0x1000 + 9);
        assert_eq!(p.buffered_samples(), 0);
    }

    #[test]
    fn sampling_respects_running() {
        let mut p = Pmu::new(1);
        p.configure_sampling(Some(SampleConfig {
            period: 1,
            jitter: 0,
            buffer_capacity: 100,
        }));
        for i in 0..10 {
            p.sample_tick(i, 0, 0, 1, i, None, 0);
        }
        assert_eq!(p.buffered_samples(), 0);
        p.start();
        for i in 0..10 {
            p.sample_tick(i, 0, 0, 1, i, None, 0);
        }
        assert_eq!(p.buffered_samples(), 10);
    }

    #[test]
    fn sample_record_kind_mask() {
        let r = SampleRecord {
            pc: 0,
            thread: 0,
            kind_mask: EventKind::L1DMiss.bit() | EventKind::Loads.bit(),
            latency: 12,
            cycle: 0,
            daddr: Some(0x1000),
        };
        assert!(r.has(EventKind::L1DMiss));
        assert!(r.has(EventKind::Loads));
        assert!(!r.has(EventKind::Stores));
    }

    #[test]
    fn context_save_restore_roundtrip() {
        let mut p = Pmu::new(2);
        let e = ev(vec![(EventKind::Instructions, 1)]);
        p.program(0, Some((&e, Domain::ALL)));
        p.start();
        p.record(EventKind::Instructions, 42, false);
        let ctx = p.save_context();
        assert_eq!(p.read(0), 0); // fresh for next thread
        p.record(EventKind::Instructions, 7, false);
        p.restore_context(&ctx);
        assert_eq!(p.read(0), 42);
    }

    #[test]
    fn context_restore_after_reprogram_resets() {
        let mut p = Pmu::new(2);
        let e = ev(vec![(EventKind::Instructions, 1)]);
        p.program(0, Some((&e, Domain::ALL)));
        p.start();
        p.record(EventKind::Instructions, 42, false);
        let ctx = PmuContext::default(); // stale/empty context
        p.restore_context(&ctx);
        assert_eq!(p.read(0), 0);
    }

    #[test]
    fn stale_epoch_context_does_not_bleed_into_new_programming() {
        // A context saved under one programming must not restore its counts
        // into counters that have since been reprogrammed to other events:
        // the counter *count* is unchanged, so only the epoch distinguishes
        // the configurations.
        let mut p = Pmu::new(2);
        p.program(
            0,
            Some((&ev(vec![(EventKind::Instructions, 1)]), Domain::ALL)),
        );
        p.start();
        p.record(EventKind::Instructions, 42, false);
        let ctx = p.save_context();
        assert_eq!(ctx.epoch(), p.epoch());

        // Reprogram counter 0 to a different event between save and restore.
        p.program(0, Some((&ev(vec![(EventKind::Loads, 1)]), Domain::ALL)));
        p.restore_context(&ctx);
        assert_eq!(p.read(0), 0, "stale instruction count bled into loads");

        // A context saved under the *current* programming still round-trips.
        p.record(EventKind::Loads, 9, false);
        let ctx2 = p.save_context();
        p.restore_context(&ctx2);
        assert_eq!(p.read(0), 9);
    }

    #[test]
    fn narrow_registers_wrap_at_width() {
        let mut p = Pmu::with_width(1, 8); // 8-bit register: wraps at 256
        assert_eq!(p.counter_bits(), 8);
        assert_eq!(p.counter_mask(), 255);
        p.program(0, Some((&ev(vec![(EventKind::Loads, 1)]), Domain::ALL)));
        p.start();
        p.record(EventKind::Loads, 250, false);
        assert_eq!(p.read(0), 250);
        p.record(EventKind::Loads, 10, false); // 260 -> wraps to 4
        assert_eq!(p.read(0), 4);
    }

    #[test]
    fn preload_biases_register_toward_wrap() {
        let mut p = Pmu::with_width(1, 32);
        p.program(0, Some((&ev(vec![(EventKind::Loads, 1)]), Domain::ALL)));
        p.start();
        p.preload(0, (1u64 << 32) - 3);
        p.record(EventKind::Loads, 5, false);
        assert_eq!(p.read(0), 2); // crossed the 32-bit boundary
    }

    #[test]
    fn overflow_keeps_firing_across_wrap() {
        let mut p = Pmu::with_width(1, 8);
        p.program(0, Some((&ev(vec![(EventKind::Cycles, 1)]), Domain::ALL)));
        p.set_overflow(0, Some(100));
        p.start();
        p.preload(0, 250);
        // Armed at 250: next crossing at 350 (unwrapped), i.e. 94 after wrap.
        p.record(EventKind::Cycles, 50, false); // register now 300&255 = 44
        assert_eq!(p.take_overflows(), 0);
        p.record(EventKind::Cycles, 50, false); // unwrapped 350: fires
        assert_eq!(p.take_overflows(), 1);
        assert_eq!(p.read(0), 94);
    }

    #[test]
    fn full_width_pmu_never_wraps() {
        let p = Pmu::new(1);
        assert_eq!(p.counter_bits(), 64);
        assert_eq!(p.counter_mask(), u64::MAX);
    }

    #[test]
    fn program_advances_epoch() {
        let mut p = Pmu::new(2);
        let e0 = p.epoch();
        p.program(0, Some((&ev(vec![(EventKind::Cycles, 1)]), Domain::ALL)));
        assert!(p.epoch() > e0);
        let e1 = p.epoch();
        p.program(0, None); // deprogramming counts too
        assert!(p.epoch() > e1);
    }
}
