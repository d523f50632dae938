//! The simulated machine: core + memory hierarchy + PMU + a minimal OS.
//!
//! [`Machine::run`] executes the loaded program(s) instruction by
//! instruction and *exits* to the caller whenever something the software
//! stack must handle occurs: an overflow interrupt (after the platform's
//! out-of-order skid), a programmable timer tick, a full precise-sample
//! buffer, or an instrumentation probe. The portable counter library drives
//! this loop the way a PAPI signal handler drives a real machine.
//!
//! All interaction with the counter hardware goes through the `costed_*`
//! methods, which charge the platform's [`crate::platform::CostModel`] in
//! simulated kernel-mode cycles and pollute the data cache — so measurement
//! overhead and perturbation are *emergent*, not asserted.
//!
//! # When the PMU sees user-mode signals
//!
//! A retired instruction adds each signal to a per-kind array where it
//! raises it, and the array reaches the PMU in one [`Pmu::record_user`]
//! call. While an overflow threshold is armed or ground truth is recorded,
//! that call happens after every instruction. Otherwise it happens only
//! where counts can be observed or charged: before [`Machine::run`]
//! returns, before [`Machine::consume_kernel`] charges kernel cycles, and
//! before a context switch saves the outgoing thread's counters. Blocked
//! time (`MsgBlockCycles`) joins the same array. So **outside `run()` the
//! PMU is always current**, and a batch gives the same registers as
//! per-instruction recording: counts are sums, register wrap is modular,
//! and thresholds are live only on the per-instruction path.
//!
//! # Pure runs retire in one step
//!
//! A pure instruction (arithmetic or `Nop`, see `pure_op`) touches
//! nothing but its fetch, its signals and the clocks, so what a run of
//! them does is known at [`Machine::load`]: each thread keeps, for every
//! pure instruction, the run of pure instructions that starts there and
//! stays inside one fetch block (see `Machine::fetch_block`). `step`
//! retires such a run at once when nothing watches single instructions
//! (no armed threshold, truth, sampling, pending overflow or queued skid,
//! decided once per `run()` call), the fetch memo holds the run's block,
//! and the run ends by the deadline and the end of the quantum and
//! strictly before the next timer tick. The batch adds what stepping
//! would: MRU hits in the L1I and the I-TLB, the signals, the cycles and
//! the retired count. Everything else steps one instruction at a time,
//! which is the reference the batch is tested against.

use crate::branch::BranchPredictor;
use crate::cache::Cache;
use crate::isa::Inst;
use crate::platform::PlatformSpec;
use crate::pmu::{Domain, EventKind, Pmu, PmuContext, SampleConfig, SampleRecord, NUM_EVENT_KINDS};
use crate::program::Program;
use crate::rng::SmallRng;
use crate::tlb::{Tlb, PAGE_SIZE};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Identifies a thread on the machine.
pub type ThreadId = u32;

/// Why [`Machine::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// Every thread has halted.
    Halted,
    /// An instrumentation probe trapped.
    Probe { id: u32, thread: ThreadId, pc: u64 },
    /// A counter overflow interrupt was delivered. `pc` is the program
    /// counter *as seen by the handler* — skidded on out-of-order cores.
    Overflow {
        counter: usize,
        thread: ThreadId,
        pc: u64,
    },
    /// The programmable timer fired.
    Timer,
    /// The precise-sample buffer reached capacity.
    SampleBufferFull,
    /// The cycle budget given to `run` was exhausted.
    CycleLimit,
    /// Every non-halted thread is blocked on a message receive: the
    /// application has deadlocked.
    Deadlock,
}

/// Counting granularity: one set of counts for the whole machine, or
/// virtualized per thread (saved/restored on context switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    System,
    Thread,
}

/// Memory-utilization snapshot (the paper's planned PAPI-3 extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemInfo {
    pub page_size: u64,
    /// Data pages this thread has touched and that are still counted
    /// resident.
    pub resident_pages: u64,
    /// High-water mark of resident pages.
    pub peak_pages: u64,
    /// Pages of program text.
    pub text_pages: u64,
    /// Total data pages touched machine-wide.
    pub system_pages: u64,
}

/// Errors from machine operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachError {
    NoSuchThread(ThreadId),
    NoSuchCounter(usize),
    SamplingUnsupported,
}

impl std::fmt::Display for MachError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachError::NoSuchThread(t) => write!(f, "no such thread {t}"),
            MachError::NoSuchCounter(c) => write!(f, "no such counter {c}"),
            MachError::SamplingUnsupported => {
                write!(f, "platform has no precise sampling hardware")
            }
        }
    }
}

impl std::error::Error for MachError {}

#[derive(Debug, Clone, Copy)]
struct InstState {
    ctr: u64,
    cursor: u64,
    /// Page this memory instruction touched last, so already in the
    /// thread's page set (`u64::MAX`, no page, before its first access).
    page: u64,
}

impl InstState {
    const FRESH: InstState = InstState {
        ctr: 0,
        cursor: 0,
        page: u64::MAX,
    };
}

/// One-multiply hasher for the machine's integer-keyed tables (page
/// numbers, channel ids), which SipHash would charge to every simulated
/// load and store. Nothing iterates these tables, so the hash decides
/// speed only, never a statistic.
#[derive(Default)]
struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        let x = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type IntHash = BuildHasherDefault<IntHasher>;

/// Arithmetic kinds, `IntOps` through `FpCvt`, as [`PureRun::kinds`]
/// indexes them.
const ARITH: usize = EventKind::IntOps as usize;
const ARITH_KINDS: usize = EventKind::FpCvt as usize + 1 - ARITH;

/// The signal kind (none for `Nop`) and the cycles of a pure instruction,
/// one that raises no signal but its own kind, its fetch and its cycles;
/// `None` for any other. The single step and the run table both take a
/// pure instruction's effect from here.
fn pure_op(inst: Inst, div_latency: u32) -> Option<(Option<EventKind>, u64)> {
    Some(match inst {
        Inst::Int => (Some(EventKind::IntOps), 1),
        Inst::FAdd => (Some(EventKind::FpAdd), 1),
        Inst::FMul => (Some(EventKind::FpMul), 1),
        Inst::FFma => (Some(EventKind::FpFma), 1),
        Inst::FDiv => (Some(EventKind::FpDiv), 1 + div_latency as u64),
        Inst::FCvt => (Some(EventKind::FpCvt), 1),
        Inst::Nop => (None, 1),
        _ => return None,
    })
}

/// The pure instructions from one index to the last that follows it
/// inside its fetch block (empty where the instruction is not pure):
/// what retiring them all adds. A block holds at most `PAGE_SIZE / 4`
/// instructions, so the counts fit a `u16`.
#[derive(Debug, Clone, Copy, Default)]
struct PureRun {
    len: u16,
    /// Instructions of each arithmetic kind, from [`ARITH`].
    kinds: [u16; ARITH_KINDS],
    cycles: u64,
}

#[derive(Debug)]
struct Thread {
    program: Program,
    /// The pure run starting at each instruction.
    runs: Vec<PureRun>,
    pc: usize,
    stack: Vec<usize>,
    state: Vec<InstState>,
    halted: bool,
    /// Channel this thread is blocked receiving on, if any.
    blocked_on: Option<u16>,
    /// Cycle timestamp when the thread blocked (for MsgBlockCycles).
    blocked_since: u64,
    /// Cycles spent in user mode on behalf of this thread (virtual time).
    user_cycles: u64,
    pages: HashSet<u64, IntHash>,
    peak_pages: u64,
    pmu_ctx: PmuContext,
}

#[derive(Debug, Clone, Copy)]
struct PendingOvf {
    counter: usize,
    skid_left: u32,
}

#[derive(Debug, Clone, Copy)]
struct TimerState {
    period: u64,
    next: u64,
}

/// Per-PC ground-truth event histograms, for attribution experiments.
#[derive(Debug, Default)]
pub struct Truth {
    maps: Vec<HashMap<u64, u64>>,
}

impl Truth {
    fn new() -> Self {
        Truth {
            maps: (0..NUM_EVENT_KINDS).map(|_| HashMap::new()).collect(),
        }
    }

    fn add(&mut self, kind: usize, pc: u64, n: u64) {
        *self.maps[kind].entry(pc).or_insert(0) += n;
    }

    /// True per-PC counts for `kind`.
    pub fn histogram(&self, kind: EventKind) -> &HashMap<u64, u64> {
        &self.maps[kind as usize]
    }

    /// Total true count for `kind`.
    pub fn total(&self, kind: EventKind) -> u64 {
        self.maps[kind as usize].values().sum()
    }
}

/// The simulated machine.
pub struct Machine {
    spec: PlatformSpec,
    pmu: Pmu,
    l1d: Cache,
    l1i: Cache,
    l2: Cache,
    dtlb: Tlb,
    itlb: Tlb,
    bp: BranchPredictor,
    threads: Vec<Thread>,
    current: usize,
    cycles: u64,
    kernel_cycles: u64,
    retired: u64,
    /// RNG driving application behaviour (random branches/addresses).
    /// Kept separate from `sys_rng` so that measurement activity never
    /// changes the monitored program's execution path.
    app_rng: SmallRng,
    /// RNG driving measurement-side randomness (sampling, pollution).
    sys_rng: SmallRng,
    /// RNG drawing overflow-interrupt skid.  Its own stream, so the skid
    /// of the n-th threshold crossing does not depend on how many kernel
    /// crossings (each drawing a pollution seed from `sys_rng`) came
    /// before it.
    skid_rng: SmallRng,
    granularity: Granularity,
    timer: Option<TimerState>,
    pending: Vec<PendingOvf>,
    quantum_next: u64,
    truth: Option<Truth>,
    /// Inter-thread message channels: available token count per channel.
    channels: HashMap<u16, u64, IntHash>,
    /// User-mode signals the PMU has not seen yet, per kind (see the
    /// module docs for when they are flushed).
    unflushed: [u64; NUM_EVENT_KINDS],
    /// True while `unflushed` may be non-zero.
    signals_pending: bool,
    /// Block (`pc >> fetch_shift`) of the last instruction fetch, or
    /// `u64::MAX` when none is remembered. That fetch left its line the
    /// MRU way of its L1I set and its page the I-TLB's MRU entry. Only a
    /// fetch or a TLB flush changes either structure (kernel crossings
    /// pollute the L1D, the prefetcher fills the L1D and the L2), so a
    /// fetch from the same block is an MRU hit in both that moves nothing,
    /// and so is every fetch of a pure run inside it: a batch counts them
    /// without a lookup.
    fetch_block: u64,
    /// log2 of the smaller of the L1I line and the page, so a block lies
    /// inside one line and one page even where a line spans pages.
    fetch_shift: u32,
}

/// Indices of the set bits of an [`EventKind::bit`] mask, lowest first.
fn kinds_in(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let k = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (k < 32).then_some(k)
    })
}

/// Count one `kind` signal where it is raised, and note its kind in `mask`
/// for truth and sampling.
#[inline(always)]
fn raise(unflushed: &mut [u64; NUM_EVENT_KINDS], mask: &mut u32, kind: EventKind) {
    *mask |= kind.bit();
    unflushed[kind as usize] += 1;
}

impl Machine {
    /// Build a machine for the given platform with a deterministic seed.
    pub fn new(spec: PlatformSpec, seed: u64) -> Self {
        let pmu = Pmu::with_width(spec.num_counters, spec.counter_bits);
        let l1d = Cache::new(spec.mem.l1d);
        let l1i = Cache::new(spec.mem.l1i);
        let l2 = Cache::new(spec.mem.l2);
        let dtlb = Tlb::new(spec.mem.dtlb_entries);
        let itlb = Tlb::new(spec.mem.itlb_entries);
        let quantum = spec.quantum_cycles;
        let fetch_shift = spec
            .mem
            .l1i
            .line
            .trailing_zeros()
            .min(PAGE_SIZE.trailing_zeros());
        Machine {
            spec,
            pmu,
            l1d,
            l1i,
            l2,
            dtlb,
            itlb,
            bp: BranchPredictor::new(1024, 8),
            threads: Vec::new(),
            current: 0,
            cycles: 0,
            kernel_cycles: 0,
            retired: 0,
            app_rng: SmallRng::seed_from_u64(seed),
            sys_rng: SmallRng::seed_from_u64(seed ^ 0x5DEECE66D),
            skid_rng: SmallRng::seed_from_u64(seed ^ 0x5C1D_5C1D_5C1D_5C1D),
            granularity: Granularity::System,
            timer: None,
            pending: Vec::new(),
            quantum_next: quantum,
            truth: None,
            channels: HashMap::default(),
            unflushed: [0; NUM_EVENT_KINDS],
            signals_pending: false,
            fetch_block: u64::MAX,
            fetch_shift,
        }
    }

    /// The platform this machine implements.
    pub fn spec(&self) -> &PlatformSpec {
        &self.spec
    }

    /// Load a program as a new thread; returns its id.
    pub fn load(&mut self, program: Program) -> ThreadId {
        let state = vec![InstState::FRESH; program.insts.len()];
        let runs = self.pure_runs(&program.insts);
        let pc = program.entry;
        self.threads.push(Thread {
            program,
            runs,
            pc,
            stack: Vec::new(),
            state,
            halted: false,
            blocked_on: None,
            blocked_since: 0,
            user_cycles: 0,
            pages: HashSet::default(),
            peak_pages: 0,
            pmu_ctx: PmuContext::default(),
        });
        (self.threads.len() - 1) as ThreadId
    }

    /// The pure run starting at each of `insts`, built back to front: a
    /// pure instruction extends the run after it when both lie in one
    /// fetch block.
    fn pure_runs(&self, insts: &[Inst]) -> Vec<PureRun> {
        let block = |i: usize| Program::pc_of(i) >> self.fetch_shift;
        let mut runs = vec![PureRun::default(); insts.len()];
        for i in (0..insts.len()).rev() {
            let Some((kind, cycles)) = pure_op(insts[i], self.spec.pipeline.div_latency) else {
                continue;
            };
            let mut run = match runs.get(i + 1) {
                Some(&next) if block(i + 1) == block(i) => next,
                _ => PureRun::default(),
            };
            run.len += 1;
            run.cycles += cycles;
            if let Some(k) = kind {
                run.kinds[k as usize - ARITH] += 1;
            }
            runs[i] = run;
        }
        runs
    }

    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    pub fn thread_halted(&self, t: ThreadId) -> bool {
        self.threads.get(t as usize).is_none_or(|t| t.halted)
    }

    /// Direct PMU access (uncosted — for tests and internal use).
    pub fn pmu(&self) -> &Pmu {
        &self.pmu
    }

    /// Direct mutable PMU access (uncosted).
    pub fn pmu_mut(&mut self) -> &mut Pmu {
        &mut self.pmu
    }

    /// Counting granularity (system-wide or per-thread virtualized).
    pub fn set_granularity(&mut self, g: Granularity) {
        self.granularity = g;
    }

    /// Record per-PC ground-truth histograms from now on (attribution
    /// experiments). Costs nothing on the simulated machine.
    pub fn enable_truth(&mut self) {
        self.truth = Some(Truth::new());
    }

    /// The ground truth recorded so far, if enabled.
    pub fn truth(&self) -> Option<&Truth> {
        self.truth.as_ref()
    }

    // --- clocks -----------------------------------------------------------

    /// Total elapsed machine cycles (user + kernel).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Cycles spent in kernel mode (measurement + OS overhead).
    pub fn kernel_cycles(&self) -> u64 {
        self.kernel_cycles
    }

    /// Total retired instructions.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// `(accesses, misses)` of the L1I, the I-TLB, the L1D, the D-TLB and
    /// the L2, in that order, as each structure counts them. Prefetch
    /// fills and pollution count nothing.
    pub fn cache_stats(&self) -> [(u64, u64); 5] {
        [
            (self.l1i.accesses(), self.l1i.misses()),
            (self.itlb.accesses(), self.itlb.misses()),
            (self.l1d.accesses(), self.l1d.misses()),
            (self.dtlb.accesses(), self.dtlb.misses()),
            (self.l2.accesses(), self.l2.misses()),
        ]
    }

    /// Wall-clock nanoseconds since machine start.
    pub fn real_ns(&self) -> u64 {
        self.spec.cycles_to_ns(self.cycles)
    }

    /// Virtual (user-mode) nanoseconds consumed by thread `t`.
    pub fn virt_ns(&self, t: ThreadId) -> Result<u64, MachError> {
        let th = self
            .threads
            .get(t as usize)
            .ok_or(MachError::NoSuchThread(t))?;
        Ok(self.spec.cycles_to_ns(th.user_cycles))
    }

    /// Consume kernel-mode cycles (measurement overhead, interrupt handling).
    /// Advances the wall clock and feeds counters whose domain includes
    /// kernel mode, but not any thread's virtual time.
    pub fn consume_kernel(&mut self, cycles: u64) {
        self.flush_signals();
        self.cycles += cycles;
        self.kernel_cycles += cycles;
        self.pmu.record(EventKind::Cycles, cycles, true);
    }

    // --- costed counter-interface operations -------------------------------
    // These are what the portable layer calls; each charges the platform
    // cost model and pollutes the data cache like a real kernel crossing.

    fn kernel_crossing(&mut self, cycles: u64) {
        self.consume_kernel(cycles);
        let seed = self.sys_rng.gen();
        self.l1d.pollute(self.spec.costs.pollute_lines, seed);
    }

    /// Read one counter through the native interface.
    pub fn costed_read(&mut self, idx: usize) -> Result<u64, MachError> {
        if idx >= self.pmu.num_counters() {
            return Err(MachError::NoSuchCounter(idx));
        }
        self.kernel_crossing(self.spec.costs.read_cycles);
        Ok(self.pmu.read(idx))
    }

    /// Read several counters in ONE kernel crossing, appending to `out`.
    /// Real counter interfaces return the whole counter state per syscall,
    /// so a multi-counter read costs one crossing, not one per counter.
    pub fn costed_read_batch(
        &mut self,
        ctrs: &[usize],
        out: &mut Vec<u64>,
    ) -> Result<(), MachError> {
        for &c in ctrs {
            if c >= self.pmu.num_counters() {
                return Err(MachError::NoSuchCounter(c));
            }
        }
        self.kernel_crossing(self.spec.costs.read_cycles);
        for &c in ctrs {
            out.push(self.pmu.read(c));
        }
        Ok(())
    }

    /// Program the full counter configuration (multiplex switch /
    /// EventSet start). `assign[i] = Some((code, domain))` or `None`.
    ///
    /// The image is checked before any counter changes, so a bad one
    /// programs nothing. The PMU borrows each event descriptor from the
    /// platform spec, so once warm this allocates nothing. Each
    /// reprogrammed counter loses any overflow it raised but has not
    /// delivered: the PMU drops its pending bit and the interrupt queue
    /// its skid entry, as that interrupt belongs to the event counted
    /// before.
    pub fn costed_program(&mut self, assign: &[Option<(u32, Domain)>]) -> Result<(), MachError> {
        self.kernel_crossing(self.spec.costs.program_cycles);
        let n = self.pmu.num_counters();
        if assign.len() > n {
            return Err(MachError::NoSuchCounter(n));
        }
        let spec = &self.spec;
        if let Some(i) = assign
            .iter()
            .position(|slot| slot.is_some_and(|(code, _)| spec.event_by_code(code).is_none()))
        {
            return Err(MachError::NoSuchCounter(i));
        }
        self.pmu.program_image(
            assign.iter().map(|slot| {
                slot.and_then(|(code, domain)| Some((spec.event_by_code(code)?, domain)))
            }),
        );
        self.pending.retain(|p| p.counter >= assign.len());
        Ok(())
    }

    /// Start counting.
    pub fn costed_start(&mut self) {
        self.kernel_crossing(self.spec.costs.start_stop_cycles);
        self.pmu.start();
    }

    /// Stop counting.
    pub fn costed_stop(&mut self) {
        self.kernel_crossing(self.spec.costs.start_stop_cycles);
        self.pmu.stop();
    }

    /// Zero the counters.
    pub fn costed_reset(&mut self) {
        self.kernel_crossing(self.spec.costs.start_stop_cycles);
        self.pmu.reset_counts();
    }

    /// Arm/disarm overflow interrupts on a counter.
    pub fn costed_set_overflow(
        &mut self,
        idx: usize,
        threshold: Option<u64>,
    ) -> Result<(), MachError> {
        if idx >= self.pmu.num_counters() {
            return Err(MachError::NoSuchCounter(idx));
        }
        self.kernel_crossing(self.spec.costs.program_cycles);
        self.pmu.set_overflow(idx, threshold);
        Ok(())
    }

    /// Configure precise sampling (errors on platforms without the
    /// hardware).
    pub fn costed_configure_sampling(
        &mut self,
        cfg: Option<SampleConfig>,
    ) -> Result<(), MachError> {
        if cfg.is_some() && !self.spec.precise_sampling {
            return Err(MachError::SamplingUnsupported);
        }
        self.kernel_crossing(self.spec.costs.program_cycles);
        self.pmu.configure_sampling(cfg);
        Ok(())
    }

    /// Drain buffered precise samples, charging per-record cost.
    pub fn costed_drain_samples(&mut self) -> Vec<SampleRecord> {
        let recs = self.pmu.drain_samples();
        let cost = self.spec.costs.sample_drain_per_rec * recs.len() as u64;
        if cost > 0 {
            self.kernel_crossing(cost);
        }
        recs
    }

    /// Set (or clear) the programmable timer; period in cycles.
    pub fn set_timer(&mut self, period_cycles: Option<u64>) {
        self.timer = period_cycles.map(|p| {
            assert!(p > 0);
            TimerState {
                period: p,
                next: self.cycles + p,
            }
        });
    }

    /// Counter value attributed to thread `t` under [`Granularity::Thread`]
    /// virtualization: the live register when `t` is running, otherwise its
    /// saved context (0 if the thread never ran with this configuration).
    pub fn thread_count(&self, t: ThreadId, counter: usize) -> Result<u64, MachError> {
        if counter >= self.pmu.num_counters() {
            return Err(MachError::NoSuchCounter(counter));
        }
        let th = self
            .threads
            .get(t as usize)
            .ok_or(MachError::NoSuchThread(t))?;
        if t as usize == self.current {
            Ok(self.pmu.read(counter))
        } else {
            Ok(th.pmu_ctx.count(counter).unwrap_or(0))
        }
    }

    /// Costed third-party read of another thread's counter (PAPI_attach).
    pub fn costed_read_thread(&mut self, t: ThreadId, counter: usize) -> Result<u64, MachError> {
        let v = self.thread_count(t, counter)?;
        self.kernel_crossing(self.spec.costs.read_cycles);
        Ok(v)
    }

    /// Memory-utilization info for thread `t`.
    pub fn mem_info(&self, t: ThreadId) -> Result<MemInfo, MachError> {
        let th = self
            .threads
            .get(t as usize)
            .ok_or(MachError::NoSuchThread(t))?;
        let system: u64 = self.threads.iter().map(|t| t.pages.len() as u64).sum();
        Ok(MemInfo {
            page_size: PAGE_SIZE,
            resident_pages: th.pages.len() as u64,
            peak_pages: th.peak_pages,
            text_pages: (th.program.insts.len() as u64 * 4).div_ceil(PAGE_SIZE),
            system_pages: system,
        })
    }

    // --- execution ----------------------------------------------------------

    /// Run until an exit condition, or until `budget` more cycles have
    /// elapsed (if given). The PMU is current when this returns.
    pub fn run(&mut self, budget: Option<u64>) -> RunExit {
        let deadline = budget.map_or(u64::MAX, |b| self.cycles.saturating_add(b));
        // Armed thresholds and truth histograms must see every instruction.
        let armed = self.pmu.overflow_armed();
        let per_inst = armed || self.truth.is_some();
        // Whether a sample or an overflow can end the run after an
        // instruction retires. This holds for the whole call: sampling and
        // thresholds change only between calls, only an armed counter
        // raises an overflow, and only a raised overflow queues a skid.
        let watched = armed
            || self.pmu.overflow_pending()
            || !self.pending.is_empty()
            || self.pmu.sampling_enabled();
        let events = watched || self.timer.is_some();
        // The cycle a pure run may end at to retire in one step: by the
        // deadline and before the next tick, which ends the call, so the
        // bound holds for the whole call. `None` while anything watches
        // single instructions.
        let batch_end = (!per_inst && !watched).then(|| {
            let tick = self.timer.map_or(u64::MAX, |t| t.next - 1);
            deadline.min(tick)
        });
        let exit = loop {
            if self.cycles >= deadline {
                break RunExit::CycleLimit;
            }
            if let Some(exit) = self.step(per_inst, events, batch_end) {
                break exit;
            }
        };
        self.flush_signals();
        exit
    }

    /// Convenience: run to completion, ignoring every intermediate exit
    /// except `Halted` (drains sample buffers to nowhere, drops interrupts).
    /// Intended for tests that don't care about the software stack.
    /// Panics on application deadlock.
    pub fn run_to_halt(&mut self) {
        loop {
            match self.run(None) {
                RunExit::Halted => return,
                RunExit::Deadlock => panic!("application deadlocked"),
                RunExit::SampleBufferFull => {
                    self.pmu.drain_samples();
                }
                _ => {}
            }
        }
    }

    /// Hand the user-mode signals raised since the last flush to the PMU
    /// in one batch.
    fn flush_signals(&mut self) {
        if self.signals_pending {
            self.pmu.record_user(&self.unflushed);
            self.unflushed = [0; NUM_EVENT_KINDS];
            self.signals_pending = false;
        }
    }

    fn all_halted(&self) -> bool {
        self.threads.iter().all(|t| t.halted)
    }

    fn runnable(t: &Thread) -> bool {
        !t.halted && t.blocked_on.is_none()
    }

    fn switch_to(&mut self, next: usize) {
        if next == self.current {
            return;
        }
        if self.spec.mem.tlb_flush_on_switch {
            self.dtlb.flush();
            self.itlb.flush();
            self.fetch_block = u64::MAX;
        }
        if self.granularity == Granularity::Thread {
            self.flush_signals();
            let ctx = self.pmu.save_context();
            self.threads[self.current].pmu_ctx = ctx;
            let next_ctx = std::mem::take(&mut self.threads[next].pmu_ctx);
            self.pmu.restore_context(&next_ctx);
            self.threads[next].pmu_ctx = next_ctx;
        }
        self.current = next;
    }

    /// Scheduler: rotate to the next runnable thread, charging the context
    /// switch cost. Returns false if nothing is runnable.
    fn schedule(&mut self, force_rotate: bool) -> bool {
        let n = self.threads.len();
        if n == 0 {
            return false;
        }
        let runnable = self.threads.iter().filter(|t| Self::runnable(t)).count();
        if runnable == 0 {
            return false;
        }
        if Self::runnable(&self.threads[self.current]) && !force_rotate {
            return true;
        }
        let mut next = self.current;
        for off in 1..=n {
            let cand = (self.current + off) % n;
            if Self::runnable(&self.threads[cand]) {
                next = cand;
                break;
            }
        }
        if next != self.current {
            self.consume_kernel(self.spec.costs.ctx_switch_cycles);
            self.switch_to(next);
        }
        true
    }

    /// Wake every thread blocked on `chan`; each re-executes its `Recv` and
    /// re-checks the channel when scheduled. Blocked time is charged to the
    /// `MsgBlockCycles` event at the blocking `Recv`'s PC.
    fn wake_blocked(&mut self, chan: u16) {
        let now = self.cycles;
        for t in &mut self.threads {
            if t.blocked_on == Some(chan) {
                t.blocked_on = None;
                let blocked = now.saturating_sub(t.blocked_since);
                if blocked > 0 {
                    let k = EventKind::MsgBlockCycles as usize;
                    self.unflushed[k] += blocked;
                    self.signals_pending = true;
                    if let Some(truth) = &mut self.truth {
                        truth.add(k, Program::pc_of(t.pc), blocked);
                    }
                }
            }
        }
    }

    /// Retire the pure run `run` of the current thread, from instruction
    /// `idx`, in one step: exactly what stepping through it adds. Every
    /// fetch is an MRU hit in the block the memo holds, which the run
    /// never leaves.
    #[inline]
    fn retire_run(&mut self, idx: usize, run: PureRun) {
        let n = run.len as u64;
        let last = Program::pc_of(idx + run.len as usize - 1);
        self.itlb.access_mru(last, n);
        self.l1i.access_mru(last, n);
        let u = &mut self.unflushed;
        u[EventKind::L1IAccess as usize] += n;
        u[EventKind::Instructions as usize] += n;
        for (u, &k) in u[ARITH..ARITH + ARITH_KINDS].iter_mut().zip(&run.kinds) {
            *u += k as u64;
        }
        u[EventKind::Cycles as usize] += run.cycles;
        self.signals_pending = true;
        let th = &mut self.threads[self.current];
        th.pc = idx + run.len as usize;
        th.user_cycles += run.cycles;
        self.cycles += run.cycles;
        self.retired += n;
    }

    /// Execute one instruction of the current thread, or with `batch_end`
    /// the pure run it starts (see the module docs). Returns an exit if
    /// one must be delivered to software. The instruction's signals go to
    /// `unflushed`; with `per_inst` they reach the PMU (and the truth
    /// histograms) before this returns. Without `events` no sample,
    /// overflow or timer tick can be due, and their checks are skipped.
    fn step(&mut self, per_inst: bool, events: bool, batch_end: Option<u64>) -> Option<RunExit> {
        // The running thread keeps the core until its quantum ends.
        let stays = self.cycles < self.quantum_next
            && self.threads.get(self.current).is_some_and(Self::runnable);
        if !stays {
            if self.all_halted() {
                return Some(RunExit::Halted);
            }
            if !self.threads.iter().any(Self::runnable) {
                return Some(RunExit::Deadlock);
            }
            // Round-robin preemption.
            if self.cycles >= self.quantum_next {
                self.quantum_next = self.cycles + self.spec.quantum_cycles;
                let runnable = self.threads.iter().filter(|t| Self::runnable(t)).count();
                self.schedule(runnable > 1);
            } else {
                self.schedule(false);
            }
        }

        let cur = self.current;
        let tid = cur as ThreadId;
        let idx = self.threads[cur].pc;
        let inst = self.threads[cur].program.insts[idx];
        let pc = Program::pc_of(idx);

        if let Some(end) = batch_end {
            let run = self.threads[cur].runs[idx];
            if run.len > 0
                && pc >> self.fetch_shift == self.fetch_block
                && self.cycles + run.cycles <= end.min(self.quantum_next)
            {
                self.retire_run(idx, run);
                return None;
            }
        }

        // --- probes trap before costing anything ---
        if let Inst::Probe { id } = inst {
            self.threads[cur].pc = idx + 1;
            return Some(RunExit::Probe {
                id,
                thread: tid,
                pc,
            });
        }
        if let Inst::Halt = inst {
            self.threads[cur].halted = true;
            if self.all_halted() {
                return Some(RunExit::Halted);
            }
            return None;
        }
        // A receive on an empty channel blocks without retiring anything;
        // the instruction re-executes once a sender wakes the thread.
        if let Inst::Recv { chan } = inst {
            if self.channels.get(&chan).copied().unwrap_or(0) == 0 {
                let t = &mut self.threads[cur];
                t.blocked_on = Some(chan);
                t.blocked_since = self.cycles;
                return None;
            }
        }

        // Apart from the stall and cycle counts, every signal an
        // instruction raises is one occurrence of its kind, counted where
        // it is raised; `kind_mask` notes the kinds for truth and sampling.
        let mem = self.spec.mem;
        let mut mem_stall: u64 = 0;
        let u = &mut self.unflushed;
        let mut kind_mask = 0;

        // --- fetch ---
        raise(u, &mut kind_mask, EventKind::L1IAccess);
        let block = pc >> self.fetch_shift;
        if block == self.fetch_block {
            // See `fetch_block`: two MRU hits, only their counts move.
            self.itlb.access_mru(pc, 1);
            self.l1i.access_mru(pc, 1);
        } else {
            self.fetch_block = block;
            if !self.itlb.access(pc) {
                raise(u, &mut kind_mask, EventKind::ItlbMiss);
                mem_stall += mem.tlb_walk as u64;
            }
            if !self.l1i.access(pc) {
                raise(u, &mut kind_mask, EventKind::L1IMiss);
                raise(u, &mut kind_mask, EventKind::L2Access);
                if self.l2.access(pc) {
                    mem_stall += mem.l2_lat as u64;
                } else {
                    raise(u, &mut kind_mask, EventKind::L2Miss);
                    mem_stall += mem.l2_lat as u64 + mem.mem_lat as u64;
                }
            }
        }

        // --- execute ---
        raise(u, &mut kind_mask, EventKind::Instructions);
        let mut cost: u64 = 1;
        let mut daddr: Option<u64> = None;
        let mut next_pc = idx + 1;
        match inst {
            Inst::Int
            | Inst::FAdd
            | Inst::FMul
            | Inst::FFma
            | Inst::FDiv
            | Inst::FCvt
            | Inst::Nop => {
                let (kind, cycles) =
                    pure_op(inst, self.spec.pipeline.div_latency).expect("a pure instruction");
                if let Some(k) = kind {
                    raise(u, &mut kind_mask, k);
                }
                cost = cycles;
            }
            Inst::Load(gen) | Inst::Store(gen) => {
                let is_load = matches!(inst, Inst::Load(_));
                let rand_word: u64 = self.app_rng.gen();
                let th = &mut self.threads[cur];
                let st = &mut th.state[idx];
                let addr = gen.next(&mut st.cursor, rand_word);
                let page = addr / PAGE_SIZE;
                if page != st.page {
                    st.page = page;
                    if th.pages.insert(page) {
                        th.peak_pages = th.peak_pages.max(th.pages.len() as u64);
                    }
                }
                daddr = Some(addr);
                if is_load {
                    raise(u, &mut kind_mask, EventKind::Loads);
                } else {
                    raise(u, &mut kind_mask, EventKind::Stores);
                }
                if !self.dtlb.access(addr) {
                    raise(u, &mut kind_mask, EventKind::DtlbMiss);
                    mem_stall += mem.tlb_walk as u64;
                }
                raise(u, &mut kind_mask, EventKind::L1DAccess);
                if !self.l1d.access(addr) {
                    raise(u, &mut kind_mask, EventKind::L1DMiss);
                    raise(u, &mut kind_mask, EventKind::L2Access);
                    let penalty = if self.l2.access(addr) {
                        mem.l2_lat as u64
                    } else {
                        raise(u, &mut kind_mask, EventKind::L2Miss);
                        mem.l2_lat as u64 + mem.mem_lat as u64
                    };
                    // Stores drain through the write buffer: half the visible
                    // penalty of a load miss.
                    mem_stall += if is_load { penalty } else { penalty / 2 };
                    if mem.prefetch_next_line {
                        // Next-line prefetch: install the successor line in
                        // L1D (and L2) off the critical path, no stats.
                        self.l1d.install(addr.wrapping_add(64));
                        self.l2.install(addr.wrapping_add(64));
                    }
                }
            }
            Inst::Br { pat, target } => {
                let rand_byte: u8 = self.app_rng.gen();
                let st = &mut self.threads[cur].state[idx];
                let taken = pat.outcome(&mut st.ctr, rand_byte);
                raise(u, &mut kind_mask, EventKind::Branches);
                if taken {
                    raise(u, &mut kind_mask, EventKind::BranchTaken);
                    next_pc = target as usize;
                }
                if self.bp.predict_and_update(pc, taken) {
                    raise(u, &mut kind_mask, EventKind::BranchMispred);
                    cost += self.spec.pipeline.mispredict_penalty as u64;
                }
            }
            Inst::Jmp { target } => next_pc = target as usize,
            Inst::Call { target } => {
                self.threads[cur].stack.push(idx + 1);
                next_pc = target as usize;
            }
            Inst::Ret => match self.threads[cur].stack.pop() {
                Some(ra) => next_pc = ra,
                None => {
                    // Returning from the entry function retires nothing:
                    // its fetch stays done, its signals are taken back.
                    for k in kinds_in(kind_mask) {
                        u[k] -= 1;
                    }
                    self.threads[cur].halted = true;
                    if self.all_halted() {
                        return Some(RunExit::Halted);
                    }
                    return None;
                }
            },
            Inst::Send { chan } => {
                *self.channels.entry(chan).or_insert(0) += 1;
                raise(u, &mut kind_mask, EventKind::MsgSend);
                self.wake_blocked(chan);
            }
            Inst::Recv { chan } => {
                let tokens = self
                    .channels
                    .get_mut(&chan)
                    .expect("checked non-empty above");
                *tokens -= 1;
                raise(u, &mut kind_mask, EventKind::MsgRecv);
            }
            Inst::Probe { .. } | Inst::Halt => unreachable!("handled above"),
        }

        // Out-of-order cores hide part of the memory stall.
        let visible_stall = mem_stall * (100 - self.spec.pipeline.overlap_pct as u64) / 100;
        cost += visible_stall;

        // --- commit ---
        kind_mask |= EventKind::Cycles.bit();
        if visible_stall > 0 {
            kind_mask |= EventKind::StallCycles.bit();
            self.unflushed[EventKind::StallCycles as usize] += visible_stall;
        }
        self.unflushed[EventKind::Cycles as usize] += cost;
        self.signals_pending = true;
        if per_inst {
            // `unflushed` holds this instruction's signals alone (plus any
            // blocked time it woke, which `kind_mask` leaves out).
            if let Some(truth) = &mut self.truth {
                for k in kinds_in(kind_mask) {
                    truth.add(k, pc, self.unflushed[k]);
                }
            }
            self.flush_signals();
        }
        let th = &mut self.threads[cur];
        th.pc = next_pc;
        th.user_cycles += cost;
        self.cycles += cost;
        self.retired += 1;
        if !events {
            return None;
        }

        // --- precise sampling ---
        if self.pmu.sampling_enabled() {
            let rw: u64 = self.sys_rng.gen();
            if self
                .pmu
                .sample_tick(pc, tid, kind_mask, cost as u32, self.cycles, daddr, rw)
            {
                return Some(RunExit::SampleBufferFull);
            }
        }

        // --- overflow interrupts (with skid) ---
        let ovf = self.pmu.take_overflows();
        if ovf != 0 {
            for c in 0..self.pmu.num_counters() {
                if ovf & (1 << c) != 0 {
                    let (lo, hi) = (self.spec.pipeline.skid_min, self.spec.pipeline.skid_max);
                    let skid = if hi > lo {
                        self.skid_rng.gen_range(lo..=hi)
                    } else {
                        lo
                    };
                    self.pending.push(PendingOvf {
                        counter: c,
                        skid_left: skid,
                    });
                }
            }
        }
        if !self.pending.is_empty() {
            let mut deliver: Option<usize> = None;
            for p in &mut self.pending {
                if p.skid_left == 0 {
                    continue; // queued behind another delivery this step
                }
                p.skid_left -= 1;
            }
            for (i, p) in self.pending.iter().enumerate() {
                if p.skid_left == 0 {
                    deliver = Some(i);
                    break;
                }
            }
            if let Some(i) = deliver {
                let p = self.pending.remove(i);
                self.kernel_crossing(self.spec.costs.interrupt_cycles);
                let th = &self.threads[cur];
                let report_pc = Program::pc_of(th.pc.min(th.program.insts.len() - 1));
                return Some(RunExit::Overflow {
                    counter: p.counter,
                    thread: tid,
                    pc: report_pc,
                });
            }
        }

        // --- programmable timer ---
        if let Some(t) = &mut self.timer {
            if self.cycles >= t.next {
                t.next = self.cycles + t.period;
                let cost = self.spec.costs.timer_cycles;
                self.consume_kernel(cost);
                return Some(RunExit::Timer);
            }
        }

        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AddrGen, BranchPat};
    use crate::platform::{sim_generic, sim_ia64, sim_t3e, sim_x86};
    use crate::pmu::NativeEventDesc;
    use crate::program::ProgramBuilder;

    fn fp_program(iters: u32, fmas_per_iter: usize) -> Program {
        let mut b = ProgramBuilder::new();
        b.func("main", |f| {
            f.loop_(iters, |f| {
                f.ffma(fmas_per_iter);
            });
        });
        b.build("main")
    }

    fn machine_with(prog: Program) -> Machine {
        let mut m = Machine::new(sim_generic(), 42);
        m.load(prog);
        m
    }

    fn program_counter(m: &mut Machine, idx: usize, name: &str) {
        let code = m.spec().event_by_name(name).unwrap().code;
        let ev = m.spec().event_by_code(code).unwrap().clone();
        m.pmu_mut().program(idx, Some((&ev, Domain::ALL)));
    }

    #[test]
    fn runs_to_halt() {
        let mut m = machine_with(fp_program(10, 3));
        m.run_to_halt();
        assert!(m.retired() > 0);
        assert!(m.cycles() >= m.retired());
    }

    #[test]
    fn fma_count_exact() {
        let mut m = machine_with(fp_program(100, 5));
        program_counter(&mut m, 0, "GEN_FMA");
        program_counter(&mut m, 1, "GEN_INST");
        m.pmu_mut().start();
        m.run_to_halt();
        assert_eq!(m.pmu().read(0), 500);
        // loop: 5 fma + 1 br per iter, plus ret + _start call/halt
        // instructions = 100*(5+1) + ret + call = 602
        assert_eq!(m.pmu().read(1), 100 * 6 + 2);
    }

    #[test]
    fn fp_ops_weights_fma_twice() {
        let mut m = machine_with(fp_program(50, 2));
        program_counter(&mut m, 0, "GEN_FP_OPS");
        program_counter(&mut m, 1, "GEN_FP_INS");
        m.pmu_mut().start();
        m.run_to_halt();
        assert_eq!(m.pmu().read(0), 200); // 100 FMA * 2
        assert_eq!(m.pmu().read(1), 100);
    }

    #[test]
    fn loads_and_cache_misses_counted() {
        let mut b = ProgramBuilder::new();
        // Stream 1 MiB with 64B stride: every access a new line, L1 = 16 KiB.
        b.func("main", |f| {
            f.loop_(16 * 1024, |f| {
                f.load(AddrGen::Stride {
                    base: 0x10_0000,
                    stride: 64,
                    len: 1 << 20,
                });
            });
        });
        let mut m = machine_with(b.build("main"));
        program_counter(&mut m, 0, "GEN_LOADS");
        program_counter(&mut m, 1, "GEN_L1D_MISS");
        m.pmu_mut().start();
        m.run_to_halt();
        assert_eq!(m.pmu().read(0), 16 * 1024);
        // 1 MiB / 64 B = 16384 distinct lines, touched once each: all miss.
        assert_eq!(m.pmu().read(1), 16 * 1024);
    }

    #[test]
    fn repeated_small_buffer_hits_after_warmup() {
        let mut b = ProgramBuilder::new();
        // 4 KiB working set walked 100 times, fits L1 (16 KiB).
        b.func("main", |f| {
            f.loop_(100 * 64, |f| {
                f.load(AddrGen::Stride {
                    base: 0x20_0000,
                    stride: 64,
                    len: 4096,
                });
            });
        });
        let mut m = machine_with(b.build("main"));
        program_counter(&mut m, 0, "GEN_L1D_MISS");
        m.pmu_mut().start();
        m.run_to_halt();
        assert_eq!(m.pmu().read(0), 64); // only the 64 cold misses
    }

    #[test]
    fn branch_events() {
        let mut m = machine_with(fp_program(1000, 1));
        program_counter(&mut m, 0, "GEN_BRANCHES");
        program_counter(&mut m, 1, "GEN_BR_TAKEN");
        program_counter(&mut m, 2, "GEN_BR_MISP");
        m.pmu_mut().start();
        m.run_to_halt();
        assert_eq!(m.pmu().read(0), 1000);
        assert_eq!(m.pmu().read(1), 999); // not taken once at exit
                                          // gshare warm-up mispredicts once per fresh history pattern (~8-10
                                          // with 8 history bits), then only the loop exit mispredicts.
        assert!(
            m.pmu().read(2) <= 20,
            "loop branch should be predictable, got {}",
            m.pmu().read(2)
        );
    }

    #[test]
    fn probe_traps_and_resumes() {
        let mut b = ProgramBuilder::new();
        b.func("main", |f| {
            f.int(2);
            f.raw(Inst::Probe { id: 7 });
            f.int(3);
        });
        let mut m = machine_with(b.build("main"));
        match m.run(None) {
            RunExit::Probe { id, thread, .. } => {
                assert_eq!(id, 7);
                assert_eq!(thread, 0);
            }
            e => panic!("expected probe, got {e:?}"),
        }
        assert_eq!(m.run(None), RunExit::Halted);
    }

    #[test]
    fn overflow_delivered_with_skid_on_ooo() {
        let mut m = machine_with(fp_program(10_000, 4));
        program_counter(&mut m, 0, "GEN_FMA");
        m.pmu_mut().set_overflow(0, Some(1000));
        m.pmu_mut().start();
        let mut overflows = 0;
        loop {
            match m.run(None) {
                RunExit::Overflow { counter, .. } => {
                    assert_eq!(counter, 0);
                    overflows += 1;
                }
                RunExit::Halted => break,
                e => panic!("unexpected {e:?}"),
            }
        }
        // 40_000 FMAs / threshold 1000 = 40 interrupts (skid may drop the
        // last one at halt).
        assert!((39..=40).contains(&overflows), "got {overflows}");
    }

    #[test]
    fn in_order_skid_is_tiny() {
        let spec = sim_ia64();
        assert!(spec.pipeline.skid_max <= 2);
        let mut m = Machine::new(spec, 7);
        m.load(fp_program(100, 10));
        let code = m.spec().event_by_name("FP_OPS_RETIRED").unwrap().clone();
        m.pmu_mut().program(0, Some((&code, Domain::ALL)));
        m.pmu_mut().set_overflow(0, Some(100));
        m.pmu_mut().start();
        let mut pcs = Vec::new();
        loop {
            match m.run(None) {
                RunExit::Overflow { pc, .. } => pcs.push(pc),
                RunExit::Halted => break,
                _ => {}
            }
        }
        assert!(!pcs.is_empty());
        // All overflow PCs must land inside the tiny loop body (4 insts + br).
        for pc in pcs {
            let idx = Program::idx_of(pc);
            assert!(idx <= 12, "in-order skid escaped the loop: idx {idx}");
        }
    }

    #[test]
    fn timer_fires_periodically() {
        let mut m = machine_with(fp_program(100_000, 2));
        m.set_timer(Some(10_000));
        let mut ticks = 0;
        loop {
            match m.run(None) {
                RunExit::Timer => ticks += 1,
                RunExit::Halted => break,
                _ => {}
            }
        }
        assert!(ticks >= 10, "expected many timer ticks, got {ticks}");
    }

    #[test]
    fn costed_read_charges_cycles_and_counts_kernel_domain() {
        let mut m = Machine::new(sim_x86(), 1);
        m.load(fp_program(1, 1));
        let cyc = m.spec().event_by_name("CPU_CLK_UNHALTED").unwrap().clone();
        m.pmu_mut().program(0, Some((&cyc, Domain::ALL)));
        m.pmu_mut().program(1, Some((&cyc, Domain::USER)));
        m.pmu_mut().start();
        let before = m.cycles();
        let _ = m.costed_read(0).unwrap();
        assert_eq!(m.cycles() - before, m.spec().costs.read_cycles);
        // Kernel cycles visible on the ALL-domain counter only.
        assert_eq!(m.pmu().read(0), m.spec().costs.read_cycles);
        assert_eq!(m.pmu().read(1), 0);
    }

    #[test]
    fn costed_read_bad_counter() {
        let mut m = Machine::new(sim_t3e(), 1);
        assert_eq!(m.costed_read(99), Err(MachError::NoSuchCounter(99)));
    }

    #[test]
    fn sampling_unsupported_on_x86() {
        let mut m = Machine::new(sim_x86(), 1);
        assert_eq!(
            m.costed_configure_sampling(Some(SampleConfig::default())),
            Err(MachError::SamplingUnsupported)
        );
    }

    #[test]
    fn sampling_collects_exact_pcs() {
        let mut m = Machine::new(sim_ia64(), 99);
        m.load(fp_program(5000, 4));
        m.costed_configure_sampling(Some(SampleConfig {
            period: 100,
            jitter: 10,
            buffer_capacity: 64,
        }))
        .unwrap();
        m.pmu_mut().start();
        let mut samples = Vec::new();
        loop {
            match m.run(None) {
                RunExit::SampleBufferFull => samples.extend(m.costed_drain_samples()),
                RunExit::Halted => {
                    samples.extend(m.costed_drain_samples());
                    break;
                }
                _ => {}
            }
        }
        assert!(samples.len() > 100, "got {}", samples.len());
        // Sampled PCs must be real instruction addresses within the program.
        for s in &samples {
            let idx = Program::idx_of(s.pc);
            assert!(idx < 16, "sample pc outside program: {idx}");
        }
        // Most samples land on the FMA body.
        let fma = samples.iter().filter(|s| s.has(EventKind::FpFma)).count();
        assert!(
            fma * 2 > samples.len(),
            "fma samples {fma}/{}",
            samples.len()
        );
    }

    #[test]
    fn two_threads_round_robin_and_virtual_time() {
        let mut m = Machine::new(sim_generic(), 5);
        m.load(fp_program(50_000, 2));
        m.load(fp_program(50_000, 2));
        m.run_to_halt();
        let v0 = m.virt_ns(0).unwrap();
        let v1 = m.virt_ns(1).unwrap();
        assert!(v0 > 0 && v1 > 0);
        // Both threads got comparable CPU shares.
        let ratio = v0 as f64 / v1 as f64;
        assert!(ratio > 0.5 && ratio < 2.0, "ratio {ratio}");
        // Real time covers both plus overhead.
        assert!(m.real_ns() >= v0.max(v1));
    }

    #[test]
    fn per_thread_counter_virtualization() {
        let mut m = Machine::new(sim_generic(), 5);
        m.set_granularity(Granularity::Thread);
        let t0 = m.load(fp_program(20_000, 4)); // FP-heavy
        let t1 = {
            let mut b = ProgramBuilder::new();
            b.func("main", |f| {
                f.loop_(20_000, |f| {
                    f.int(4);
                });
            });
            m.load(b.build("main"))
        };
        program_counter(&mut m, 0, "GEN_FMA");
        m.pmu_mut().start();
        m.run_to_halt();
        // After halt the PMU holds the last-running thread's context; sum
        // over saved contexts must attribute FMA only to t0.
        // Read back by switching contexts:
        m.switch_to(t0 as usize);
        let fma_t0 = m.pmu().read(0);
        m.switch_to(t1 as usize);
        let fma_t1 = m.pmu().read(0);
        assert_eq!(fma_t0 + fma_t1, 80_000);
        assert_eq!(fma_t1, 0, "integer thread must see zero FMAs");
    }

    #[test]
    fn reprogram_invalidates_saved_thread_contexts() {
        let mut m = Machine::new(sim_generic(), 7);
        m.set_granularity(Granularity::Thread);
        let t0 = m.load(fp_program(10, 1)) as usize;
        let t1 = m.load(fp_program(10, 1)) as usize;
        program_counter(&mut m, 0, "GEN_FMA");
        m.pmu_mut().start();
        m.switch_to(t0);
        m.pmu_mut().record(EventKind::FpFma, 42, false);
        assert_eq!(m.pmu().read(0), 42);
        // Switch t0 out (its 42 FMAs are saved in its context), then
        // reprogram counter 0 to a different event while t0 is off-CPU —
        // exactly what happens when one registered thread's session
        // reconfigures between another thread's quanta.
        m.switch_to(t1);
        program_counter(&mut m, 0, "GEN_INST");
        m.switch_to(t0);
        assert_eq!(
            m.pmu().read(0),
            0,
            "stale FMA count bled into the reprogrammed instruction counter"
        );
    }

    #[test]
    fn meminfo_tracks_pages() {
        let mut b = ProgramBuilder::new();
        b.func("main", |f| {
            f.loop_(64, |f| {
                f.store(AddrGen::Stride {
                    base: 0x100_0000,
                    stride: 4096,
                    len: 64 * 4096,
                });
            });
        });
        let mut m = machine_with(b.build("main"));
        m.run_to_halt();
        let mi = m.mem_info(0).unwrap();
        assert_eq!(mi.resident_pages, 64);
        assert_eq!(mi.peak_pages, 64);
        assert!(mi.text_pages >= 1);
    }

    #[test]
    fn truth_histogram_totals_match_counters() {
        let mut m = machine_with(fp_program(200, 3));
        m.enable_truth();
        program_counter(&mut m, 0, "GEN_FMA");
        m.pmu_mut().start();
        m.run_to_halt();
        let truth = m.truth().unwrap();
        assert_eq!(truth.total(EventKind::FpFma), m.pmu().read(0));
        // All FMA truth lands on exactly 3 PCs (the 3 body instructions).
        assert_eq!(truth.histogram(EventKind::FpFma).len(), 3);
    }

    #[test]
    fn virt_time_excludes_kernel_overhead() {
        let mut m = machine_with(fp_program(1000, 1));
        m.run_to_halt();
        let v = m.virt_ns(0).unwrap();
        let before = m.real_ns();
        m.consume_kernel(1_000_000);
        assert_eq!(m.virt_ns(0).unwrap(), v);
        assert!(m.real_ns() > before);
    }

    #[test]
    fn cycle_limit_exit() {
        let mut m = machine_with(fp_program(1_000_000, 4));
        let exit = m.run(Some(1000));
        assert_eq!(exit, RunExit::CycleLimit);
        assert!(m.cycles() >= 1000);
    }

    #[test]
    fn overflow_raised_while_disarming_is_delivered_by_the_next_run() {
        // The disarming crossing's own kernel cycles cross the threshold,
        // so an overflow is pending once nothing is armed any more.
        let mut m = machine_with(fp_program(100, 4));
        program_counter(&mut m, 0, "GEN_CYCLES");
        m.pmu_mut().start();
        let program = m.spec().costs.program_cycles;
        m.costed_set_overflow(0, Some(program)).unwrap();
        m.costed_set_overflow(0, None).unwrap();
        assert!(!m.pmu().overflow_armed() && m.pmu().overflow_pending());
        assert!(matches!(m.run(None), RunExit::Overflow { counter: 0, .. }));
        assert_eq!(m.run(None), RunExit::Halted);
    }

    #[test]
    fn timer_and_overflow_coexist() {
        let mut m = machine_with(fp_program(200_000, 2));
        program_counter(&mut m, 0, "GEN_FMA");
        m.pmu_mut().set_overflow(0, Some(20_000));
        m.pmu_mut().start();
        m.set_timer(Some(50_000));
        let (mut ovf, mut tmr) = (0, 0);
        loop {
            match m.run(None) {
                RunExit::Overflow { .. } => ovf += 1,
                RunExit::Timer => tmr += 1,
                RunExit::Halted => break,
                e => panic!("unexpected {e:?}"),
            }
        }
        // 400k FMAs / 20k threshold ~= 20 overflows; run ~1.2M+ cycles / 50k ~= 20+ timer ticks.
        assert!((18..=20).contains(&ovf), "overflows {ovf}");
        assert!(tmr >= 10, "timer ticks {tmr}");
    }

    #[test]
    fn run_budget_preserved_across_many_calls() {
        // Driving the machine in small budget slices reaches the same final
        // state as one big run.
        let run_sliced = |slice: u64| {
            let mut m = machine_with(fp_program(50_000, 3));
            loop {
                match m.run(Some(slice)) {
                    RunExit::Halted => break,
                    RunExit::CycleLimit => {}
                    e => panic!("unexpected {e:?}"),
                }
            }
            (m.cycles(), m.retired())
        };
        let big = run_sliced(u64::MAX / 2);
        let small = run_sliced(1_000);
        assert_eq!(big, small);
    }

    #[test]
    fn stall_cycles_consistent_with_total() {
        // Cycles == Instructions + visible stalls + branch/div penalties;
        // at minimum, cycles >= instructions + stalls.
        let mut b = ProgramBuilder::new();
        b.func("main", |f| {
            f.loop_(20_000, |f| {
                f.load(AddrGen::Chase {
                    base: 0x50_0000,
                    len: 1 << 21,
                });
            });
        });
        let mut m = machine_with(b.build("main"));
        program_counter(&mut m, 0, "GEN_CYCLES");
        program_counter(&mut m, 1, "GEN_INST");
        program_counter(&mut m, 2, "GEN_STALLS");
        m.pmu_mut().start();
        m.run_to_halt();
        let (cyc, ins, stl) = (m.pmu().read(0), m.pmu().read(1), m.pmu().read(2));
        assert!(cyc >= ins + stl, "cyc {cyc} < ins {ins} + stalls {stl}");
        // A 2 MiB chase must be mostly stalled.
        assert!(stl * 2 > cyc, "chase should be memory-bound: {stl}/{cyc}");
    }

    #[test]
    fn l2_access_only_on_l1_miss() {
        let mut m = machine_with(fp_program(10_000, 2));
        program_counter(&mut m, 0, "GEN_L2_ACCESS");
        program_counter(&mut m, 1, "GEN_L1D_MISS");
        program_counter(&mut m, 2, "GEN_L1I_MISS");
        m.pmu_mut().start();
        m.run_to_halt();
        assert_eq!(m.pmu().read(0), m.pmu().read(1) + m.pmu().read(2));
    }

    #[test]
    fn counter_domain_user_excludes_interrupt_handling() {
        // Overflow interrupts charge kernel cycles; a USER-domain cycle
        // counter must not see them while an ALL-domain one does.
        let mut m = machine_with(fp_program(100_000, 2));
        let cyc = m.spec().event_by_name("GEN_CYCLES").unwrap().clone();
        let fma = m.spec().event_by_name("GEN_FMA").unwrap().clone();
        m.pmu_mut().program(0, Some((&cyc, Domain::USER)));
        m.pmu_mut().program(1, Some((&cyc, Domain::ALL)));
        m.pmu_mut().program(2, Some((&fma, Domain::ALL)));
        m.pmu_mut().set_overflow(2, Some(5_000));
        m.pmu_mut().start();
        loop {
            match m.run(None) {
                RunExit::Halted => break,
                RunExit::Overflow { .. } => {}
                e => panic!("unexpected {e:?}"),
            }
        }
        let user = m.pmu().read(0);
        let all = m.pmu().read(1);
        // ~40 interrupts x 1500 kernel cycles
        assert!(all > user + 30_000, "all {all} vs user {user}");
    }

    fn pingpong_programs(rounds: u32) -> (crate::Program, crate::Program) {
        // Thread A sends on 0, receives on 1; thread B mirrors.
        let mut a = ProgramBuilder::new();
        a.func("main", |f| {
            f.loop_(rounds, |f| {
                f.ffma(3);
                f.send(0);
                f.recv(1);
            });
        });
        let mut b = ProgramBuilder::new();
        b.func("main", |f| {
            f.loop_(rounds, |f| {
                f.recv(0);
                f.int(5);
                f.send(1);
            });
        });
        (a.build("main"), b.build("main"))
    }

    #[test]
    fn pingpong_completes_and_counts_messages() {
        let mut m = Machine::new(sim_generic(), 8);
        let (pa, pb) = pingpong_programs(500);
        m.load(pa);
        m.load(pb);
        program_counter(&mut m, 0, "GEN_MSG_SEND");
        program_counter(&mut m, 1, "GEN_MSG_RECV");
        program_counter(&mut m, 2, "GEN_MSG_BLOCK");
        m.pmu_mut().start();
        m.run_to_halt();
        assert_eq!(m.pmu().read(0), 1000); // 500 each way
        assert_eq!(m.pmu().read(1), 1000);
        assert!(m.pmu().read(2) > 0, "someone must have waited");
        assert!(m.thread_halted(0) && m.thread_halted(1));
    }

    #[test]
    fn recv_without_sender_deadlocks() {
        let mut m = Machine::new(sim_generic(), 8);
        let mut b = ProgramBuilder::new();
        b.func("main", |f| {
            f.int(2);
            f.recv(7);
        });
        m.load(b.build("main"));
        let mut saw_deadlock = false;
        for _ in 0..10 {
            match m.run(None) {
                RunExit::Deadlock => {
                    saw_deadlock = true;
                    break;
                }
                RunExit::Halted => panic!("must not halt"),
                _ => {}
            }
        }
        assert!(saw_deadlock);
    }

    #[test]
    fn send_before_recv_buffers_tokens() {
        // A sends everything first and halts; B drains afterwards: no
        // deadlock, tokens buffered in the channel.
        let mut m = Machine::new(sim_generic(), 8);
        let mut a = ProgramBuilder::new();
        a.func("main", |f| {
            f.loop_(50, |f| {
                f.send(3);
            });
        });
        let mut b = ProgramBuilder::new();
        b.func("main", |f| {
            f.loop_(50, |f| {
                f.recv(3);
            });
        });
        m.load(a.build("main"));
        m.load(b.build("main"));
        m.run_to_halt();
        assert!(m.thread_halted(0) && m.thread_halted(1));
    }

    #[test]
    fn blocked_thread_accrues_no_virtual_time() {
        let mut m = Machine::new(sim_generic(), 8);
        // B blocks immediately; A computes a while, then sends.
        let mut a = ProgramBuilder::new();
        a.func("main", |f| {
            f.loop_(30_000, |f| {
                f.ffma(2);
            });
            f.send(0);
        });
        let mut b = ProgramBuilder::new();
        b.func("main", |f| {
            f.recv(0);
            f.int(10);
        });
        m.load(a.build("main"));
        m.load(b.build("main"));
        m.run_to_halt();
        let va = m.virt_ns(0).unwrap();
        let vb = m.virt_ns(1).unwrap();
        assert!(
            vb * 20 < va,
            "blocked thread must not accrue time: {vb} vs {va}"
        );
    }

    #[test]
    fn next_line_prefetch_halves_stream_misses() {
        let stream = || {
            let mut b = ProgramBuilder::new();
            b.func("main", |f| {
                f.loop_(8192, |f| {
                    f.load(AddrGen::Stride {
                        base: 0x40_0000,
                        stride: 64,
                        len: 1 << 20,
                    });
                });
            });
            b.build("main")
        };
        let misses_with = |prefetch: bool| {
            let mut spec = sim_generic();
            spec.mem.prefetch_next_line = prefetch;
            let mut m = Machine::new(spec, 3);
            m.enable_truth();
            m.load(stream());
            m.run_to_halt();
            m.truth().unwrap().total(EventKind::L1DMiss)
        };
        let plain = misses_with(false);
        let pf = misses_with(true);
        assert_eq!(plain, 8192, "cold stream misses every line");
        assert_eq!(pf, 4096, "next-line prefetch halves stream misses");
        // The chase defeats the prefetcher.
        let chase_misses = |prefetch: bool| {
            let mut spec = sim_generic();
            spec.mem.prefetch_next_line = prefetch;
            let mut m = Machine::new(spec, 3);
            m.enable_truth();
            let mut b = ProgramBuilder::new();
            b.func("main", |f| {
                f.loop_(8192, |f| {
                    f.load(AddrGen::Chase {
                        base: 0x40_0000,
                        len: 1 << 21,
                    });
                });
            });
            m.load(b.build("main"));
            m.run_to_halt();
            m.truth().unwrap().total(EventKind::L1DMiss)
        };
        let c_plain = chase_misses(false);
        let c_pf = chase_misses(true);
        assert!(
            (c_pf as f64 - c_plain as f64).abs() / (c_plain as f64) < 0.05,
            "prefetch should not help the chase: {c_plain} vs {c_pf}"
        );
    }

    #[test]
    fn tlb_flush_on_switch_inflates_misses() {
        let misses_with = |flush: bool| {
            let mut spec = sim_generic();
            spec.mem.tlb_flush_on_switch = flush;
            spec.quantum_cycles = 5_000; // switch often
            let mut m = Machine::new(spec, 3);
            m.enable_truth();
            for _ in 0..2 {
                let mut b = ProgramBuilder::new();
                b.func("main", |f| {
                    f.loop_(30_000, |f| {
                        f.load(AddrGen::Stride {
                            base: 0x40_0000,
                            stride: 64,
                            len: 32 * 4096,
                        });
                    });
                });
                m.load(b.build("main"));
            }
            m.run_to_halt();
            m.truth().unwrap().total(EventKind::DtlbMiss)
        };
        let asid = misses_with(false);
        let flush = misses_with(true);
        assert!(
            flush > 3 * asid,
            "TLB flushing must hurt: {flush} vs {asid}"
        );
    }

    #[test]
    fn jmp_and_skip_paths() {
        // skip_if(Always) jumps over its body; a raw Jmp skips further code.
        let mut b = ProgramBuilder::new();
        b.func("main", |f| {
            f.skip_if(BranchPat::Always, |f| {
                f.ffma(100); // must be skipped
            });
            f.int(1);
            let target = f.here() + 2; // skip the next fadd
            f.raw(Inst::Jmp {
                target: target as u32,
            });
            f.raw(Inst::FAdd);
            f.int(1);
        });
        let mut m = machine_with(b.build("main"));
        m.enable_truth();
        m.run_to_halt();
        let t = m.truth().unwrap();
        assert_eq!(t.total(EventKind::FpFma), 0, "skip_if body must not run");
        assert_eq!(t.total(EventKind::FpAdd), 0, "jmp must skip the fadd");
        assert_eq!(t.total(EventKind::IntOps), 2);
    }

    #[test]
    fn fixed_address_stays_hot() {
        let mut b = ProgramBuilder::new();
        b.func("main", |f| {
            f.loop_(10_000, |f| {
                f.load(AddrGen::Fixed { addr: 0x70_0000 });
            });
        });
        let mut m = machine_with(b.build("main"));
        program_counter(&mut m, 0, "GEN_L1D_MISS");
        m.pmu_mut().start();
        m.run_to_halt();
        assert_eq!(m.pmu().read(0), 1, "a hot lock word misses exactly once");
    }

    #[test]
    fn returning_from_the_entry_function_retires_nothing() {
        // Without `_start` the thread halts by returning from its entry
        // function. That `Ret` is fetched from a line of its own, so the
        // L1I counts its access and its miss, but no counter sees either.
        let mut b = ProgramBuilder::new();
        b.func("main", |f| {
            f.nop(16);
        });
        let mut prog = b.build("main");
        prog.entry = prog.symbol("main").unwrap().start;
        let mut m = machine_with(prog);
        let kinds = [
            EventKind::Instructions,
            EventKind::L1IAccess,
            EventKind::L1IMiss,
            EventKind::L2Access,
        ];
        let events: Vec<NativeEventDesc> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| NativeEventDesc {
                code: 0x4000_0100 + i as u32,
                name: "ONE_KIND",
                descr: "one machine signal",
                kinds: vec![(k, 1)],
                counter_mask: u32::MAX,
                group: None,
            })
            .collect();
        for (i, ev) in events.iter().enumerate() {
            m.pmu_mut().program(i, Some((ev, Domain::ALL)));
        }
        m.pmu_mut().start();
        m.run_to_halt();
        assert_eq!(m.retired(), 16);
        assert_eq!(m.cache_stats()[0], (17, 2), "L1I accesses and misses");
        let counts: Vec<u64> = (0..4).map(|c| m.pmu().read(c)).collect();
        assert_eq!(counts, [16, 16, 1, 1]);
    }

    #[test]
    fn empty_machine_halts_immediately() {
        let mut m = Machine::new(sim_generic(), 0);
        assert_eq!(m.run(None), RunExit::Halted);
        assert_eq!(m.cycles(), 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut m = Machine::new(sim_x86(), 1234);
            let mut b = ProgramBuilder::new();
            b.func("main", |f| {
                f.loop_(5000, |f| {
                    f.load(AddrGen::Rand {
                        base: 0x50_0000,
                        len: 1 << 18,
                    });
                    f.skip_if(BranchPat::Rand { p_num: 100 }, |f| {
                        f.ffma(2);
                    });
                });
            });
            m.load(b.build("main"));
            m.run_to_halt();
            (m.cycles(), m.retired())
        };
        assert_eq!(run(), run());
    }
}
