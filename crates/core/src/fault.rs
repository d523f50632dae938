//! Fault-injection substrate decorator.
//!
//! [`FaultSubstrate`] wraps any [`Substrate`] and perturbs it according to a
//! seeded, fully deterministic [`FaultPlan`]: transient `start`/`stop`/`read`
//! failures (the `EINTR`-style errors every real counter interface produces
//! under load), counter saturation at configurable register widths (the
//! paper's platforms ranged from 32-bit MIPS/UltraSPARC counters to 40-bit
//! Pentium MSRs and 47-bit Itanium PMDs), and delayed or jittered interrupt
//! delivery.
//!
//! The decorator exists to *prove the portable layer degrades gracefully*:
//! the conformance suite (`crates/conformance`) runs every spec check both
//! clean and faulted and requires identical counts — the retry loop must
//! absorb the transients, the widening layer must absorb the wraps, and the
//! overflow dispatcher must deliver exactly one callback per threshold
//! crossing even when the interrupt arrives late.
//!
//! Registered in the [`crate::registry::SubstrateRegistry`] as a name
//! prefix: `fault:sim:x86` wraps `sim:x86` with an empty (pass-through)
//! plan; `fault[read=5,bits=32]:sim:x86` parses a plan from the bracketed
//! `key=value` spec; `fault[chaos]:<inner>` derives a full fault schedule
//! from the instance seed.
//!
//! Everything here is allocation-free in steady state: fail decisions are
//! integer arithmetic on pre-seeded state, injected errors are
//! [`PapiError::SubstrateTransient`] carrying `&'static str`, and the
//! deferred-interrupt slot is a plain `Option`.
//!
//! Composition with the lock-free read path: the portable layer's
//! transient-retry loop (`retry_transient`) runs entirely *inside* the
//! owning session's exclusive sequence phase, while a seqlock snapshot
//! retry ([`crate::PublishedCounts`]) happens entirely *outside* it, on
//! the observer's thread. The two retry loops therefore never interleave
//! on shared state: an injected read failure reissues the substrate
//! crossing without republishing, and observers simply keep the previous
//! published snapshot until a read succeeds — a faulted read can never
//! tear or roll back what observers see.

use crate::error::{PapiError, Result};
use crate::substrate::{HwInfo, Substrate};
use simcpu::platform::GroupDef;
use simcpu::{
    Domain, MemInfo, NativeEventDesc, Program, RunExit, SampleConfig, SampleRecord, ThreadId,
};

/// A deterministic fault schedule.
///
/// All fields default to "off" ([`FaultPlan::default`] is a pure
/// pass-through, preserving the zero-allocation and exact-count guarantees
/// of the wrapped substrate). Periods count *calls*: `read_fail_period = 5`
/// makes every 5th read call begin a burst of `fail_burst` consecutive
/// transient failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the internal LCG driving jitter decisions.
    pub seed: u64,
    /// Every Nth `read`/`read_batch` call fails transiently (0 = never).
    pub read_fail_period: u32,
    /// Every Nth `start` call fails transiently (0 = never).
    pub start_fail_period: u32,
    /// Every Nth `stop` call fails transiently (0 = never).
    pub stop_fail_period: u32,
    /// Consecutive failures per episode (minimum 1). Must stay at or below
    /// the portable layer's retry budget for the faulted run to converge.
    pub fail_burst: u32,
    /// Counter width presented upward, in bits (64 = native width, no
    /// wrapping). Narrower widths mask read values modulo `2^bits`.
    pub counter_bits: u32,
    /// Bias added to every raw reading before masking, when
    /// `counter_bits < 64`. Preloading near `2^bits` makes modest workloads
    /// cross the wrap boundary without simulating billions of events.
    pub preload: u64,
    /// Delay overflow-interrupt delivery by roughly this many cycles
    /// (0 = deliver immediately). The monitored application keeps running
    /// during the delay, so the handler observes a skidded PC — exactly
    /// what the paper reports for interrupt-based overflow on real OSes.
    pub overflow_delay_cycles: u64,
    /// Jitter multiplex-timer delivery by up to this many cycles
    /// (0 = punctual). Estimates must stay within tolerance regardless.
    pub timer_jitter_cycles: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0x5EED,
            read_fail_period: 0,
            start_fail_period: 0,
            stop_fail_period: 0,
            fail_burst: 1,
            counter_bits: 64,
            preload: 0,
            overflow_delay_cycles: 0,
            timer_jitter_cycles: 0,
        }
    }
}

impl FaultPlan {
    /// The pass-through plan: no faults injected.
    pub fn quiet() -> FaultPlan {
        FaultPlan::default()
    }

    /// A full fault schedule derived from `seed`: transient failures on
    /// every path, 32-bit counters preloaded near the wrap boundary, and
    /// delayed/jittered interrupt delivery. Different seeds shift the
    /// failure phases so a matrix of seeds exercises different interleavings.
    pub fn chaos(seed: u64) -> FaultPlan {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s >> 33
        };
        FaultPlan {
            seed,
            read_fail_period: 3 + (next() % 5) as u32,
            start_fail_period: 2 + (next() % 3) as u32,
            stop_fail_period: 2 + (next() % 3) as u32,
            fail_burst: 1 + (next() % 2) as u32,
            counter_bits: 32,
            preload: (1u64 << 32) - 2_000 - next() % 3_000,
            overflow_delay_cycles: 100 + next() % 400,
            timer_jitter_cycles: 50 + next() % 250,
        }
    }

    /// Parse a bracketed registry spec: a comma-separated `key=value` list.
    ///
    /// Keys: `seed`, `read`, `start`, `stop`, `burst`, `bits`, `preload`,
    /// `ovfdelay`, `jitter`; the bare token `chaos` starts from
    /// [`FaultPlan::chaos`]`(default_seed)` and later keys override it.
    /// The empty string parses to [`FaultPlan::quiet`].
    pub fn parse(spec: &str, default_seed: u64) -> Result<FaultPlan> {
        let mut plan = FaultPlan {
            seed: default_seed,
            ..FaultPlan::default()
        };
        for item in spec.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            if item == "chaos" {
                plan = FaultPlan::chaos(default_seed);
                continue;
            }
            let (k, v) = item
                .split_once('=')
                .ok_or(PapiError::Inval("fault spec item is not key=value"))?;
            let v: u64 = v
                .parse()
                .map_err(|_| PapiError::Inval("fault spec value is not a number"))?;
            match k {
                "seed" => plan.seed = v,
                "read" => plan.read_fail_period = v as u32,
                "start" => plan.start_fail_period = v as u32,
                "stop" => plan.stop_fail_period = v as u32,
                "burst" => plan.fail_burst = (v as u32).max(1),
                "bits" => {
                    if !(1..=64).contains(&v) {
                        return Err(PapiError::Inval("fault counter bits out of range"));
                    }
                    plan.counter_bits = v as u32;
                }
                "preload" => plan.preload = v,
                "ovfdelay" => plan.overflow_delay_cycles = v,
                "jitter" => plan.timer_jitter_cycles = v,
                _ => return Err(PapiError::Inval("unknown fault spec key")),
            }
        }
        Ok(plan)
    }
}

/// Per-operation failure-schedule state: a call counter plus the remaining
/// length of the current failure burst.
#[derive(Debug, Default, Clone, Copy)]
struct FailState {
    calls: u64,
    burst_left: u32,
}

impl FailState {
    /// Advance the schedule by one call; true means this call fails.
    fn tick(&mut self, period: u32, burst: u32) -> bool {
        if self.burst_left > 0 {
            self.burst_left -= 1;
            return true;
        }
        self.calls += 1;
        if period > 0 && self.calls.is_multiple_of(period as u64) {
            self.burst_left = burst.saturating_sub(1);
            return true;
        }
        false
    }
}

/// A substrate decorator injecting deterministic faults per a [`FaultPlan`].
pub struct FaultSubstrate<S> {
    inner: S,
    plan: FaultPlan,
    /// `2^counter_bits - 1` (`u64::MAX` disables wrapping).
    mask: u64,
    rng: u64,
    read_fail: FailState,
    start_fail: FailState,
    stop_fail: FailState,
    /// An interrupt whose delivery was deferred while the application ran
    /// through the delay window; handed out on the next `run` call.
    deferred: Option<RunExit>,
    /// Total injected failures (all paths), for test assertions.
    injected: u64,
}

impl<S: Substrate> FaultSubstrate<S> {
    /// Wrap `inner` with the given plan.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        let mask = if plan.counter_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << plan.counter_bits) - 1
        };
        let rng = plan.seed | 1;
        FaultSubstrate {
            inner,
            plan,
            mask,
            rng,
            read_fail: FailState::default(),
            start_fail: FailState::default(),
            stop_fail: FailState::default(),
            deferred: None,
            injected: 0,
        }
    }

    /// The wrapped substrate.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The wrapped substrate, mutably (e.g. to load programs).
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// The active plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Total transient failures injected so far.
    pub fn injected_failures(&self) -> u64 {
        self.injected
    }

    fn next_rand(&mut self) -> u64 {
        self.rng = self
            .rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.rng >> 33
    }
}

impl<S: Substrate> Substrate for FaultSubstrate<S> {
    fn hw_info(&self) -> HwInfo {
        self.inner.hw_info()
    }

    fn num_counters(&self) -> usize {
        self.inner.num_counters()
    }

    fn native_events(&self) -> &[NativeEventDesc] {
        self.inner.native_events()
    }

    fn groups(&self) -> &[GroupDef] {
        self.inner.groups()
    }

    fn counter_width(&self) -> u32 {
        self.plan.counter_bits.min(self.inner.counter_width())
    }

    fn alloc_model(&self) -> crate::alloc::AllocModel {
        self.inner.alloc_model()
    }

    fn load_program(&mut self, program: Program) -> Result<()> {
        self.inner.load_program(program)
    }

    fn program(&mut self, assign: &[Option<(u32, Domain)>]) -> Result<()> {
        self.inner.program(assign)
    }

    fn start(&mut self) -> Result<()> {
        if self
            .start_fail
            .tick(self.plan.start_fail_period, self.plan.fail_burst)
        {
            self.injected += 1;
            return Err(PapiError::SubstrateTransient("injected start fault"));
        }
        self.inner.start()
    }

    fn stop(&mut self) -> Result<()> {
        if self
            .stop_fail
            .tick(self.plan.stop_fail_period, self.plan.fail_burst)
        {
            self.injected += 1;
            return Err(PapiError::SubstrateTransient("injected stop fault"));
        }
        self.inner.stop()
    }

    fn reset(&mut self) -> Result<()> {
        self.inner.reset()
    }

    fn read_batch(&mut self, ctrs: &[usize], out: &mut Vec<u64>) -> Result<()> {
        // The whole batch is one kernel crossing: one schedule tick, and a
        // failure loses the entire crossing (no partial output).
        if self
            .read_fail
            .tick(self.plan.read_fail_period, self.plan.fail_burst)
        {
            self.injected += 1;
            return Err(PapiError::SubstrateTransient("injected read fault"));
        }
        let base = out.len();
        self.inner.read_batch(ctrs, out)?;
        // Present the raw readings at the plan's register width: bias by
        // the preload and wrap. With 64-bit width this is the identity.
        if self.mask != u64::MAX {
            for v in &mut out[base..] {
                *v = v.wrapping_add(self.plan.preload) & self.mask;
            }
        }
        Ok(())
    }

    fn set_overflow(&mut self, idx: usize, threshold: Option<u64>) -> Result<()> {
        self.inner.set_overflow(idx, threshold)
    }

    fn configure_sampling(&mut self, cfg: Option<SampleConfig>) -> Result<()> {
        self.inner.configure_sampling(cfg)
    }

    fn drain_samples(&mut self) -> Vec<SampleRecord> {
        self.inner.drain_samples()
    }

    fn set_timer(&mut self, period_cycles: Option<u64>) {
        self.inner.set_timer(period_cycles)
    }

    fn set_granularity(&mut self, g: simcpu::Granularity) {
        self.inner.set_granularity(g)
    }

    fn run(&mut self, budget_cycles: Option<u64>) -> RunExit {
        // Deliver an interrupt deferred by a previous delay window first:
        // delivery is late, never dropped and never duplicated.
        if let Some(e) = self.deferred.take() {
            return e;
        }
        let exit = self.inner.run(budget_cycles);
        let delay = match exit {
            RunExit::Overflow { .. } if self.plan.overflow_delay_cycles > 0 => Some(
                self.plan.overflow_delay_cycles
                    + self.next_rand() % self.plan.overflow_delay_cycles,
            ),
            RunExit::Timer if self.plan.timer_jitter_cycles > 0 => {
                Some(1 + self.next_rand() % self.plan.timer_jitter_cycles)
            }
            _ => None,
        };
        if let Some(d) = delay {
            // Let the application run through the delay window before the
            // (now skidded) interrupt reaches software. Anything else that
            // happens during the window is queued behind it.
            match self.inner.run(Some(d)) {
                RunExit::CycleLimit => {}
                other => self.deferred = Some(other),
            }
        }
        exit
    }

    fn real_cycles(&self) -> u64 {
        self.inner.real_cycles()
    }

    fn real_ns(&self) -> u64 {
        self.inner.real_ns()
    }

    fn virt_ns(&self, thread: ThreadId) -> Result<u64> {
        self.inner.virt_ns(thread)
    }

    fn mem_info(&self, thread: ThreadId) -> Result<MemInfo> {
        self.inner.mem_info(thread)
    }

    fn read_attached(&mut self, thread: ThreadId, idx: usize) -> Result<u64> {
        // Per-thread reads model a kernel-virtualized 64-bit view (as real
        // kernels present), so no narrowing; the transient schedule still
        // applies — it is the same syscall path.
        if self
            .read_fail
            .tick(self.plan.read_fail_period, self.plan.fail_burst)
        {
            self.injected += 1;
            return Err(PapiError::SubstrateTransient("injected read fault"));
        }
        self.inner.read_attached(thread, idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::SimSubstrate;
    use simcpu::platform::sim_x86;

    fn sub() -> SimSubstrate {
        SimSubstrate::for_platform(sim_x86(), 1)
    }

    #[test]
    fn quiet_plan_is_pass_through() {
        let mut f = FaultSubstrate::new(sub(), FaultPlan::quiet());
        assert_eq!(f.counter_width(), 64);
        f.start().unwrap();
        let mut out = Vec::new();
        f.read_batch(&[0, 1], &mut out).unwrap();
        assert_eq!(out, vec![0, 0]);
        f.stop().unwrap();
        assert_eq!(f.injected_failures(), 0);
    }

    #[test]
    fn read_failures_follow_the_period() {
        let plan = FaultPlan {
            read_fail_period: 3,
            ..FaultPlan::default()
        };
        let mut f = FaultSubstrate::new(sub(), plan);
        let mut fails = 0;
        for _ in 0..12 {
            if f.read_batch(&[0], &mut Vec::new()).is_err() {
                fails += 1;
            }
        }
        assert_eq!(fails, 4, "every 3rd of 12 calls fails");
        assert_eq!(f.injected_failures(), 4);
    }

    #[test]
    fn bursts_fail_consecutively() {
        let plan = FaultPlan {
            start_fail_period: 2,
            fail_burst: 3,
            ..FaultPlan::default()
        };
        let mut f = FaultSubstrate::new(sub(), plan);
        // Call 1 ok; call 2 starts a burst of 3; calls 3,4 continue it;
        // call 5 ok (schedule counter resumes at 3); call 6 (counter 4) fails.
        let pattern: Vec<bool> = (0..6).map(|_| f.start().is_err()).collect();
        assert_eq!(pattern, vec![false, true, true, true, false, true]);
    }

    #[test]
    fn injected_errors_are_transient() {
        let plan = FaultPlan {
            stop_fail_period: 1,
            ..FaultPlan::default()
        };
        let mut f = FaultSubstrate::new(sub(), plan);
        let e = f.stop().unwrap_err();
        assert!(e.is_transient());
    }

    #[test]
    fn narrow_width_wraps_and_preloads_reads() {
        let plan = FaultPlan {
            counter_bits: 32,
            preload: (1u64 << 32) - 10,
            ..FaultPlan::default()
        };
        let mut f = FaultSubstrate::new(sub(), plan);
        assert_eq!(f.counter_width(), 32);
        // Inner counter is 0, so the raw reading is the preload itself.
        let mut out = Vec::new();
        f.read_batch(&[0], &mut out).unwrap();
        assert_eq!(out, vec![(1u64 << 32) - 10]);
    }

    #[test]
    fn parse_round_trips_keys() {
        let p = FaultPlan::parse(
            "read=5,start=2,stop=3,burst=2,bits=40,preload=7,ovfdelay=100,jitter=50,seed=9",
            42,
        )
        .unwrap();
        assert_eq!(p.read_fail_period, 5);
        assert_eq!(p.start_fail_period, 2);
        assert_eq!(p.stop_fail_period, 3);
        assert_eq!(p.fail_burst, 2);
        assert_eq!(p.counter_bits, 40);
        assert_eq!(p.preload, 7);
        assert_eq!(p.overflow_delay_cycles, 100);
        assert_eq!(p.timer_jitter_cycles, 50);
        assert_eq!(p.seed, 9);
        assert_eq!(
            FaultPlan::parse("", 7).unwrap(),
            FaultPlan {
                seed: 7,
                ..FaultPlan::default()
            }
        );
        assert!(FaultPlan::parse("bits=0", 0).is_err());
        assert!(FaultPlan::parse("bogus=1", 0).is_err());
        assert!(FaultPlan::parse("read", 0).is_err());
    }

    #[test]
    fn chaos_is_deterministic_and_seed_sensitive() {
        assert_eq!(FaultPlan::chaos(3), FaultPlan::chaos(3));
        assert_ne!(FaultPlan::chaos(3), FaultPlan::chaos(4));
        let p = FaultPlan::chaos(1);
        assert_eq!(p.counter_bits, 32);
        assert!(p.read_fail_period > 0);
        assert!(p.preload > (1u64 << 32) - 5_000);
    }
}
