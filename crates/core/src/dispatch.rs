//! Counting machinery: start/stop/read/accum/reset, counter allocation,
//! overflow and profil arming, multiplex rotation, and the application run
//! loop that services substrate events.
//!
//! Thread safety: everything here takes `&mut Papi`, so a single session is
//! never entered concurrently — concurrency lives one layer up, in
//! [`crate::threads`], which gives every registered thread its *own*
//! session (and thus its own overflow routes, multiplex timers and scratch
//! buffers). Overflow dispatch in particular never crosses threads: a
//! callback fires on the thread driving its session's run loop.

use crate::alloc;
use crate::error::{PapiError, Result};
use crate::eventset::{EventSetId, OvfRoute, SetState};
use crate::multiplex::{self, partition_events_with, MpxState, DEFAULT_MPX_PERIOD_CYCLES};
use crate::profile::{Profil, ProfilConfig};
use crate::session::Papi;
use crate::substrate::Substrate;
use papi_obs::{Counter as ObsCounter, JournalEvent as ObsEvent};
use simcpu::{Domain, NativeEventDesc, RunExit, ThreadId};

/// Identifies a profiling histogram registered with [`Papi::profil`].
pub type ProfilId = usize;

/// Information delivered to a user overflow callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverflowInfo {
    /// The EventSet whose event overflowed.
    pub set: EventSetId,
    /// PAPI event code that overflowed.
    pub code: u32,
    /// Program counter delivered with the interrupt (skidded on OoO cores).
    pub pc: u64,
    /// Thread that was running.
    pub thread: ThreadId,
}

/// Why [`Papi::next_event`] returned control to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppExit {
    /// The monitored application finished.
    Halted,
    /// An instrumentation probe trapped (dynaprof-style tools handle it and
    /// resume).
    Probe { id: u32, thread: ThreadId, pc: u64 },
    /// The cycle budget passed to [`Papi::run_for`] elapsed (the
    /// application is still runnable).
    Paused,
}

/// How the running set's natives are being counted.
pub(crate) enum RunMode {
    /// `assign[i]` is the physical counter holding native `i`.
    Direct { assign: Vec<usize> },
    /// Time-sliced multiplexing.
    Mpx(MpxState),
}

/// The precomputed read route of a started EventSet: resolved native codes
/// and the derived-event term table, flattened into structure-of-arrays
/// form — native indices and coefficients in separate contiguous vectors.
///
/// Built once by `start()` and owned by the runtime for the set's whole run,
/// so the steady-state read path walks cache-friendly slices and never
/// clones or rebuilds per call (the paper's §4: the cost of counting must
/// stay near the hardware floor for per-call instrumentation to be viable).
/// The SoA layout lets [`ReadPlan::apply`] run as tight loops over
/// homogeneous slices the compiler can autovectorize, instead of a per-term
/// tuple walk; the common no-derived-events case collapses to a widening
/// cast-copy.
pub(crate) struct ReadPlan {
    /// Unique native codes in use.
    pub(crate) natives: Vec<u32>,
    /// Flattened native index of every term, all events concatenated.
    term_native: Vec<u32>,
    /// Coefficient of every term, parallel to `term_native`.
    term_coeff: Vec<i64>,
    /// Event `i`'s terms are the `term_bounds[i]..term_bounds[i+1]` range
    /// of the two term arrays.
    term_bounds: Vec<u32>,
    /// True when every event is exactly `1 * natives[event]` — no derived
    /// events, no shared natives. The dominant layout for preset sets; the
    /// delta application is then a straight cast-copy of the counts.
    identity: bool,
}

impl ReadPlan {
    /// Number of PAPI events the plan covers.
    pub(crate) fn n_events(&self) -> usize {
        self.term_bounds.len() - 1
    }

    /// The native index of event `ev`'s first term (the counter overflow
    /// registrations arm on).
    pub(crate) fn first_native(&self, ev: usize) -> u32 {
        self.term_native[self.term_bounds[ev] as usize]
    }

    /// Fold native `counts` through the term table into per-event values.
    ///
    /// The hot half of every read: identity plans take the vectorizable
    /// cast-copy lane; general plans run the SoA dot-product per event, a
    /// contiguous multiply-accumulate over `term_coeff`/`term_native`
    /// slices with no tuple destructuring in the inner loop.
    pub(crate) fn apply(&self, counts: &[u64], out: &mut [i64]) -> Result<()> {
        let n = self.n_events();
        if out.len() != n {
            return Err(PapiError::Inval("value buffer length mismatch"));
        }
        if self.identity {
            // counts.len() == n by construction of identity plans.
            for (slot, &c) in out.iter_mut().zip(counts.iter()) {
                *slot = c as i64;
            }
            return Ok(());
        }
        for (ev, slot) in out.iter_mut().enumerate() {
            let lo = self.term_bounds[ev] as usize;
            let hi = self.term_bounds[ev + 1] as usize;
            let idxs = &self.term_native[lo..hi];
            let coeffs = &self.term_coeff[lo..hi];
            let mut acc = 0i64;
            for (&i, &c) in idxs.iter().zip(coeffs.iter()) {
                acc += c * counts[i as usize] as i64;
            }
            *slot = acc;
        }
        Ok(())
    }
}

/// Resolution + allocation state of the running EventSet.
pub(crate) struct Running {
    pub(crate) set: EventSetId,
    /// Thread this run is attached to (PAPI_attach).
    pub(crate) attached: Option<ThreadId>,
    /// Cached read route: natives + derived-event term table.
    pub(crate) plan: ReadPlan,
    pub(crate) mode: RunMode,
    /// Armed overflow routes: `(physical counter, papi code, route)`.
    pub(crate) routes: Vec<(usize, u32, OvfRoute)>,
    /// Wraparound-widening state, engaged when the substrate's counters are
    /// narrower than 64 bits ([`Substrate::counter_width`]); `None` on
    /// full-width substrates, where raw readings are used verbatim.
    pub(crate) widen: Option<WidenState>,
}

/// Wraparound widening for substrates with counters narrower than 64 bits.
///
/// Raw readings are values modulo `2^width` with an arbitrary bias (real
/// registers are rarely zeroed; the fault substrate deliberately preloads
/// them near saturation). The portable layer therefore never interprets a
/// raw reading directly: it baselines every counter when counting (re)starts
/// and accumulates `(raw - last) mod 2^width` deltas into full 64-bit
/// counts, so API-visible values never go backwards across a hardware wrap.
///
/// All buffers are sized once at `start`; the steady-state widening path
/// allocates nothing.
pub(crate) struct WidenState {
    /// `2^width - 1`.
    mask: u64,
    /// Last raw reading per physical counter.
    last: Vec<u64>,
    /// Widened cumulative count per physical counter (direct mode).
    acc: Vec<u64>,
    /// Every physical counter index, for baseline batch reads.
    all: Vec<usize>,
    /// Baseline-read staging buffer.
    tmp: Vec<u64>,
    /// Wraps observed since the last [`WidenState::take_wraps`].
    wraps: u64,
}

impl WidenState {
    pub(crate) fn new(width: u32, num_counters: usize) -> Self {
        debug_assert!(width < 64);
        WidenState {
            mask: (1u64 << width) - 1,
            last: vec![0; num_counters],
            acc: vec![0; num_counters],
            all: (0..num_counters).collect(),
            tmp: Vec::with_capacity(num_counters),
            wraps: 0,
        }
    }

    /// Re-read every counter's raw value as the new delta baseline (after
    /// counting starts, after a reset, or after reprogramming — anything
    /// that rebases the hardware registers).
    pub(crate) fn rebaseline<S: Substrate>(&mut self, sub: &mut S) -> Result<()> {
        self.tmp.clear();
        sub.read_batch(&self.all, &mut self.tmp)?;
        self.last.copy_from_slice(&self.tmp);
        Ok(())
    }

    /// Zero the accumulated counts (the baseline is re-read separately).
    pub(crate) fn reset_acc(&mut self) {
        self.acc.iter_mut().for_each(|a| *a = 0);
    }

    /// Width-aware delta of counter `ctr` since its last reading.
    pub(crate) fn delta(&mut self, ctr: usize, raw: u64) -> u64 {
        if raw < self.last[ctr] {
            self.wraps += 1;
        }
        let d = raw.wrapping_sub(self.last[ctr]) & self.mask;
        self.last[ctr] = raw;
        d
    }

    /// Fold a raw reading into counter `ctr`'s widened cumulative count.
    pub(crate) fn widen(&mut self, ctr: usize, raw: u64) -> u64 {
        let d = self.delta(ctr, raw);
        self.acc[ctr] += d;
        self.acc[ctr]
    }

    /// Drain the wrap counter (for `fault.wraps` accounting).
    pub(crate) fn take_wraps(&mut self) -> u64 {
        std::mem::take(&mut self.wraps)
    }
}

/// Reissue `f` while it fails transiently, up to `budget` retries; count
/// and journal each retry and the final give-up through `obs`.
///
/// A free function over disjoint borrows (the obs handle is never captured
/// by `f`), so call sites can retry substrate operations that mutably
/// borrow other session fields. `now` is the virtual time when the
/// operation began — retries are journaled against it, since the substrate
/// clock is unreachable while `f` borrows the substrate.
///
/// Allocation-free: injected transient errors carry `&'static str`
/// payloads, and the journal closure only runs when journaling is enabled.
pub(crate) fn retry_transient<T>(
    obs: &Option<papi_obs::ObsHandle>,
    now: u64,
    budget: u32,
    op: &'static str,
    mut f: impl FnMut() -> Result<T>,
) -> Result<T> {
    let mut attempt: u32 = 0;
    loop {
        match f() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() => {
                if attempt < budget {
                    attempt += 1;
                    if let Some(obs) = obs {
                        obs.inc(ObsCounter::FaultRetries);
                        obs.record(now, || ObsEvent::TransientRetried { op, attempt });
                    }
                } else {
                    if let Some(obs) = obs {
                        obs.inc(ObsCounter::FaultGaveUp);
                        obs.record(now, || ObsEvent::TransientGaveUp {
                            op,
                            attempts: attempt + 1,
                        });
                    }
                    return Err(e);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Per-session reusable buffers for the hot read/accum/rotate paths.  Sized
/// on first use, then reused forever: the steady state performs no heap
/// allocation.
#[derive(Default)]
pub(crate) struct ReadScratch {
    /// Per-native counts (direct readouts, or multiplex estimates).
    counts: Vec<u64>,
    /// Live-partition counter readouts during a multiplex flush.
    live: Vec<u64>,
    /// Derived values staging area for `accum`.
    values: Vec<i64>,
    /// Hardware programming image for multiplex partition switches.
    prog: Vec<Option<(u32, Domain)>>,
}

/// Overflow callbacks must be `Send`: like the C library's signal-based
/// handlers, they may run on whichever thread drives the event loop, and a
/// global session (the C API) moves across threads.
pub type OvfHandler = Box<dyn FnMut(OverflowInfo) + Send>;

impl<S: Substrate> Papi<S> {
    // --- overflow & profil registration -------------------------------------

    /// `PAPI_overflow`: call `handler` every `threshold` occurrences of
    /// `code` while the set runs. The handler receives the (possibly
    /// skidded) interrupt PC.
    pub fn overflow(
        &mut self,
        id: EventSetId,
        code: u32,
        threshold: u64,
        handler: OvfHandler,
    ) -> Result<()> {
        if threshold == 0 {
            return Err(PapiError::Inval("zero overflow threshold"));
        }
        let route = OvfRoute::Handler(self.handlers.len());
        self.arm_overflow_route(id, code, threshold, route)?;
        self.handlers.push(handler);
        Ok(())
    }

    /// `PAPI_profil`: statistical profiling of `code` over a text range.
    /// Returns a handle to retrieve the histogram with
    /// [`Papi::profil_histogram`].
    pub fn profil(&mut self, id: EventSetId, code: u32, cfg: ProfilConfig) -> Result<ProfilId> {
        let pid = self.profils.len();
        let route = OvfRoute::Profil(pid);
        self.arm_overflow_route(id, code, cfg.threshold, route)?;
        self.profils.push(Profil::new(cfg));
        Ok(pid)
    }

    /// Shared validation for [`Papi::overflow`] and [`Papi::profil`]
    /// registrations.
    fn arm_overflow_route(
        &mut self,
        id: EventSetId,
        code: u32,
        threshold: u64,
        route: OvfRoute,
    ) -> Result<()> {
        let s = self.set_mut(id)?;
        if s.state == SetState::Running {
            return Err(PapiError::IsRun);
        }
        if s.multiplex {
            return Err(PapiError::Cnflct);
        }
        if !s.events.contains(&code) {
            return Err(PapiError::NoEvnt(code));
        }
        if s.overflow.iter().any(|o| o.code == code) {
            return Err(PapiError::Cnflct);
        }
        s.overflow.push(crate::eventset::OverflowReg {
            code,
            threshold,
            route,
        });
        Ok(())
    }

    /// The histogram collected by a [`Papi::profil`] registration.
    pub fn profil_histogram(&self, pid: ProfilId) -> Option<&Profil> {
        self.profils.get(pid)
    }

    // --- resolution & allocation --------------------------------------------

    /// Resolve the set's PAPI events into a [`ReadPlan`]: unique natives +
    /// the flattened per-event term table.
    fn resolve_set(&self, id: EventSetId) -> Result<ReadPlan> {
        let s = self.set_ref(id)?;
        if s.events.is_empty() {
            return Err(PapiError::Inval("EventSet is empty"));
        }
        let mut natives: Vec<u32> = Vec::new();
        let mut term_native: Vec<u32> = Vec::new();
        let mut term_coeff: Vec<i64> = Vec::new();
        let mut term_bounds: Vec<u32> = Vec::with_capacity(s.events.len() + 1);
        term_bounds.push(0);
        for &code in &s.events {
            let m = self.presets.resolve(code, self.sub.native_events())?;
            for (ncode, coeff) in m.terms {
                let idx = match natives.iter().position(|&n| n == ncode) {
                    Some(i) => i,
                    None => {
                        natives.push(ncode);
                        natives.len() - 1
                    }
                };
                term_native.push(idx as u32);
                term_coeff.push(coeff);
            }
            term_bounds.push(term_native.len() as u32);
        }
        // Identity plan: event i is exactly 1 * natives[i]. Then delta
        // application is a cast-copy and the apply loop vectorizes.
        let identity = term_native.len() == s.events.len()
            && natives.len() == s.events.len()
            && term_coeff.iter().all(|&c| c == 1)
            && term_native
                .iter()
                .enumerate()
                .all(|(i, &t)| t as usize == i);
        Ok(ReadPlan {
            natives,
            term_native,
            term_coeff,
            term_bounds,
            identity,
        })
    }

    /// Solve counter allocation for `natives` through the PAPI-3 split: the
    /// substrate translates its constraint scheme into solver instances
    /// ([`Substrate::alloc_model`]); the hardware-independent matcher does
    /// the rest. No group special-casing here.  Solutions are memoized by
    /// sorted-signature, so re-`start` of an unchanged set skips the search.
    fn allocate(&mut self, natives: &[u32]) -> Option<Vec<usize>> {
        let mut stats = alloc::AllocStats::default();
        let (assign, memo_hit) = self.alloc_memo.allocate(
            &self.alloc_model,
            natives,
            self.sub.native_events(),
            &mut stats,
        );
        if let Some(obs) = &self.obs {
            obs.inc(ObsCounter::AllocAttempts);
            obs.inc(if assign.is_some() {
                ObsCounter::AllocSuccesses
            } else {
                ObsCounter::AllocFailures
            });
            obs.inc(if memo_hit {
                ObsCounter::AllocMemoHits
            } else {
                ObsCounter::AllocMemoMisses
            });
            obs.add(ObsCounter::AllocAugmentSteps, stats.augment_steps);
            obs.add(ObsCounter::AllocBacktracks, stats.backtracks);
            obs.record(self.sub.real_cycles(), || ObsEvent::AllocAttempt {
                events: natives.len(),
                success: assign.is_some(),
                augment_steps: stats.augment_steps,
                backtracks: stats.backtracks,
            });
        }
        assign
    }

    // --- start / stop / read ------------------------------------------------

    /// `PAPI_start`: resolve, allocate, program and start the counters.
    pub fn start(&mut self, id: EventSetId) -> Result<()> {
        let begin_cycles = self.sub.real_cycles();
        let r = self.start_inner(id);
        if let Some(obs) = &self.obs {
            match &r {
                Ok(()) => {
                    obs.inc(ObsCounter::Starts);
                    let now = self.sub.real_cycles();
                    obs.observe_cycles(
                        ObsCounter::CyclesInStartStop,
                        now.saturating_sub(begin_cycles),
                    );
                    let (natives, multiplexed) = self
                        .running
                        .as_ref()
                        .map(|run| (run.plan.natives.len(), matches!(run.mode, RunMode::Mpx(_))))
                        .unwrap_or((0, false));
                    obs.record(now, || ObsEvent::Start {
                        set: id,
                        natives,
                        multiplexed,
                    });
                }
                Err(_) => obs.inc(ObsCounter::StartErrors),
            }
        }
        r
    }

    fn start_inner(&mut self, id: EventSetId) -> Result<()> {
        if self.running.is_some() {
            return Err(PapiError::IsRun);
        }
        let plan = self.resolve_set(id)?;
        let (domain, multiplex, mpx_period, attached, overflow) = {
            let s = self.set_ref(id)?;
            (
                s.domain,
                s.multiplex,
                s.mpx_period,
                s.attached,
                s.overflow.clone(),
            )
        };
        if attached.is_some() && multiplex {
            return Err(PapiError::Cnflct);
        }

        let mode = match self.allocate(&plan.natives) {
            Some(assign) => RunMode::Direct { assign },
            None if multiplex => {
                let descs: Vec<&NativeEventDesc> = plan
                    .natives
                    .iter()
                    .map(|&c| {
                        self.sub
                            .native_events()
                            .iter()
                            .find(|e| e.code == c)
                            .unwrap()
                    })
                    .collect();
                let parts =
                    partition_events_with(&descs, &self.alloc_model).ok_or(PapiError::Cnflct)?;
                let now = self.sub.real_cycles();
                let period = mpx_period.unwrap_or(DEFAULT_MPX_PERIOD_CYCLES);
                RunMode::Mpx(MpxState::new(parts, plan.natives.len(), period, now))
            }
            None => return Err(PapiError::Cnflct),
        };

        // Program the hardware for the initial configuration.
        let mut routes = Vec::new();
        match &mode {
            RunMode::Direct { assign } => {
                let mut prog: Vec<Option<(u32, Domain)>> = vec![None; self.sub.num_counters()];
                for (i, &ctr) in assign.iter().enumerate() {
                    prog[ctr] = Some((plan.natives[i], domain));
                }
                self.sub.program(&prog)?;
                // Arm overflow registrations on the counter of each event's
                // first native term.
                for reg in &overflow {
                    let ev_pos = {
                        let s = self.set_ref(id)?;
                        s.events
                            .iter()
                            .position(|&e| e == reg.code)
                            .ok_or(PapiError::NoEvnt(reg.code))?
                    };
                    let nidx = plan.first_native(ev_pos);
                    let ctr = assign[nidx as usize];
                    self.sub.set_overflow(ctr, Some(reg.threshold))?;
                    routes.push((ctr, reg.code, reg.route));
                }
            }
            RunMode::Mpx(mpx) => {
                self.program_partition(&plan.natives, domain, &mpx.partitions[0])?;
                self.sub.set_timer(Some(mpx.period));
            }
        }

        // Re-anchor the mpx clock after programming costs.
        let mut mode = mode;
        if let RunMode::Mpx(m) = &mut mode {
            m.switched_at = self.sub.real_cycles();
        }

        let width = self.sub.counter_width();
        let widen = (width < 64).then(|| WidenState::new(width, self.sub.num_counters()));
        self.running = Some(Running {
            set: id,
            attached,
            plan,
            mode,
            routes,
            widen,
        });
        self.set_mut(id)?.state = SetState::Running;
        let now = self.sub.real_cycles();
        let budget = self.retry_budget;
        if let Err(e) = retry_transient(&self.obs, now, budget, "start", || self.sub.start()) {
            // A failed start must leave the session stopped, not
            // half-running: disarm what was programmed and restore state.
            self.rollback_failed_start(id)?;
            return Err(e);
        }
        // Baseline for wraparound widening: the raw register values at the
        // instant counting begins carry the hardware's arbitrary bias, so
        // they are recorded now and only deltas are trusted from here on.
        if let Some(run) = self.running.as_mut() {
            if let Some(w) = run.widen.as_mut() {
                let r = retry_transient(&self.obs, now, budget, "read", || {
                    w.rebaseline(&mut self.sub)
                });
                if let Err(e) = r {
                    let _ = self.sub.stop();
                    self.rollback_failed_start(id)?;
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Undo the side effects of a partially performed `start`.
    fn rollback_failed_start(&mut self, id: EventSetId) -> Result<()> {
        if let Some(run) = self.running.take() {
            for (ctr, _, _) in run.routes {
                let _ = self.sub.set_overflow(ctr, None);
            }
            if matches!(run.mode, RunMode::Mpx(_)) {
                self.sub.set_timer(None);
            }
        }
        self.set_mut(id)?.state = SetState::Stopped;
        Ok(())
    }

    fn program_partition(
        &mut self,
        natives: &[u32],
        domain: Domain,
        part: &multiplex::Partition,
    ) -> Result<()> {
        let mut prog: Vec<Option<(u32, Domain)>> = vec![None; self.sub.num_counters()];
        for (slot, &nidx) in part.natives.iter().enumerate() {
            prog[part.counters[slot]] = Some((natives[nidx], domain));
        }
        self.sub.program(&prog)
    }

    /// Read the running set's native counts into `self.scratch.counts`.
    ///
    /// Allocation-free in steady state: the scratch buffers reach capacity
    /// on the first call and are reused thereafter, and the cached
    /// [`ReadPlan`]/assignment are borrowed in place (disjoint fields), never
    /// cloned per call.
    fn read_native_counts_into(&mut self) -> Result<()> {
        let budget = self.retry_budget;
        let now = self.sub.real_cycles();
        let run = self.running.as_mut().ok_or(PapiError::NotRun)?;
        let Running {
            attached,
            mode,
            widen,
            ..
        } = run;
        match mode {
            RunMode::Direct { assign } => {
                if let Some(obs) = &self.obs {
                    obs.add(ObsCounter::CounterReads, assign.len() as u64);
                }
                match *attached {
                    Some(t) => {
                        self.scratch.counts.clear();
                        for &ctr in assign.iter() {
                            let v = retry_transient(&self.obs, now, budget, "read", || {
                                self.sub.read_attached(t, ctr)
                            })?;
                            self.scratch.counts.push(v);
                        }
                    }
                    // One kernel crossing for the whole counter state. The
                    // buffer is cleared inside the closure so a retried
                    // crossing never leaves partial values behind.
                    None => {
                        retry_transient(&self.obs, now, budget, "read", || {
                            self.scratch.counts.clear();
                            self.sub.read_batch(assign, &mut self.scratch.counts)
                        })?;
                        if let Some(w) = widen.as_mut() {
                            for (i, &ctr) in assign.iter().enumerate() {
                                self.scratch.counts[i] = w.widen(ctr, self.scratch.counts[i]);
                            }
                            if let Some(obs) = &self.obs {
                                obs.add(ObsCounter::FaultWraps, w.take_wraps());
                            }
                        }
                    }
                }
            }
            RunMode::Mpx(m) => {
                // Flush the live partition, then leave estimates in scratch.
                retry_transient(&self.obs, now, budget, "read", || {
                    self.scratch.live.clear();
                    self.sub
                        .read_batch(&m.partitions[m.current].counters, &mut self.scratch.live)
                })?;
                if let Some(w) = widen.as_mut() {
                    for (slot, &ctr) in m.partitions[m.current].counters.iter().enumerate() {
                        self.scratch.live[slot] = w.delta(ctr, self.scratch.live[slot]);
                    }
                    if let Some(obs) = &self.obs {
                        obs.add(ObsCounter::FaultWraps, w.take_wraps());
                    }
                }
                // Avoid double counting on the next flush.
                retry_transient(&self.obs, now, budget, "reset", || self.sub.reset())?;
                if let Some(w) = widen.as_mut() {
                    retry_transient(&self.obs, now, budget, "read", || {
                        w.rebaseline(&mut self.sub)
                    })?;
                }
                if let Some(obs) = &self.obs {
                    obs.add(ObsCounter::CounterReads, self.scratch.live.len() as u64);
                    obs.inc(ObsCounter::MpxFlushes);
                    let partition = m.current;
                    let live_cycles = now.saturating_sub(m.switched_at);
                    obs.record(now, || ObsEvent::MpxFlush {
                        partition,
                        live_cycles,
                    });
                }
                m.flush(now, &self.scratch.live);
                m.estimates_into(&mut self.scratch.counts);
            }
        }
        Ok(())
    }

    /// Fold `self.scratch.counts` through the plan's term table into `out`.
    fn values_into(&self, out: &mut [i64]) -> Result<()> {
        let run = self.running.as_ref().ok_or(PapiError::NotRun)?;
        run.plan.apply(&self.scratch.counts, out)
    }

    /// `PAPI_read` into a caller-owned buffer: current values (the set keeps
    /// running).  `out.len()` must equal the set's event count.
    ///
    /// This is the allocation-free form of [`Papi::read`] — on a started,
    /// non-multiplexed set the steady-state call performs **zero heap
    /// allocations** (asserted by papi-bench's counting-allocator test).
    ///
    /// The dominant configuration (direct mode, no observability, no
    /// attach, full-width counters) takes a dedicated fast path: the
    /// session fields are destructured once into disjoint borrows, so the
    /// cached plan, assignment and scratch are each derived exactly once
    /// per call — one batch kernel crossing, then the vectorized
    /// `ReadPlan::apply`. This is what closed the boxed-vs-static gap:
    /// the boxed-substrate path previously re-derived the `running` record
    /// (and with it the plan pointer) three times per read, which the
    /// optimizer could not fold across virtual-dispatch boundaries.
    /// Transient-fault retries still compose — the retry loop wraps only
    /// the substrate crossing, never the plan application.
    pub fn read_into(&mut self, id: EventSetId, out: &mut [i64]) -> Result<()> {
        if self.obs.is_none() {
            let Papi {
                sub,
                running,
                scratch,
                retry_budget,
                ..
            } = self;
            if let Some(run) = running.as_mut() {
                if run.set == id && run.attached.is_none() && run.widen.is_none() {
                    if let RunMode::Direct { assign } = &run.mode {
                        retry_transient(&None, 0, *retry_budget, "read", || {
                            scratch.counts.clear();
                            sub.read_batch(assign, &mut scratch.counts)
                        })?;
                        return run.plan.apply(&scratch.counts, out);
                    }
                }
            }
        }
        match &self.running {
            Some(r) if r.set == id => {}
            _ => return Err(PapiError::NotRun),
        }
        let begin_cycles = self.sub.real_cycles();
        self.read_native_counts_into()?;
        self.values_into(out)?;
        if let Some(obs) = &self.obs {
            let now = self.sub.real_cycles();
            let cost_cycles = now.saturating_sub(begin_cycles);
            obs.inc(ObsCounter::Reads);
            obs.observe_cycles(ObsCounter::CyclesInRead, cost_cycles);
            obs.record(now, || ObsEvent::Read {
                set: id,
                cost_cycles,
            });
        }
        Ok(())
    }

    /// `PAPI_read`: current values (the set keeps running).  Allocates only
    /// the returned vector; use [`Papi::read_into`] to avoid even that.
    pub fn read(&mut self, id: EventSetId) -> Result<Vec<i64>> {
        let n = match &self.running {
            Some(r) if r.set == id => r.plan.n_events(),
            _ => return Err(PapiError::NotRun),
        };
        let mut out = vec![0i64; n];
        self.read_into(id, &mut out)?;
        Ok(out)
    }

    /// `PAPI_accum`: add current values into `values` and reset the
    /// counters.  Allocation-free in steady state (delegates to
    /// [`Papi::read_into`] through a per-session staging buffer).
    pub fn accum(&mut self, id: EventSetId, values: &mut [i64]) -> Result<()> {
        let n = match &self.running {
            Some(r) if r.set == id => r.plan.n_events(),
            _ => return Err(PapiError::NotRun),
        };
        if values.len() != n {
            return Err(PapiError::Inval("accum buffer length mismatch"));
        }
        // Stage the read in the session scratch (taken to appease the
        // borrow checker; putting it back preserves its capacity).
        let mut staged = std::mem::take(&mut self.scratch.values);
        staged.resize(n, 0);
        let read_r = self.read_into(id, &mut staged);
        if let Ok(()) = read_r {
            for (acc, x) in values.iter_mut().zip(staged.iter()) {
                *acc += x;
            }
        }
        self.scratch.values = staged;
        read_r?;
        let r = self.reset(id);
        if r.is_ok() {
            if let Some(obs) = &self.obs {
                obs.inc(ObsCounter::Accums);
                obs.record(self.sub.real_cycles(), || ObsEvent::Accum { set: id });
            }
        }
        r
    }

    /// `PAPI_reset`: zero the running counters (and multiplex accumulators).
    pub fn reset(&mut self, id: EventSetId) -> Result<()> {
        let now = self.sub.real_cycles();
        match &mut self.running {
            Some(r) if r.set == id => {
                if let RunMode::Mpx(m) = &mut r.mode {
                    m.raw.iter_mut().for_each(|r| *r = 0);
                    m.active_cycles.iter_mut().for_each(|a| *a = 0);
                    m.switched_at = now;
                }
            }
            _ => return Err(PapiError::NotRun),
        }
        let budget = self.retry_budget;
        let r = retry_transient(&self.obs, now, budget, "reset", || self.sub.reset());
        if r.is_ok() {
            // The hardware registers were rebased: re-read the widening
            // baseline and zero the accumulated counts.
            if let Some(run) = self.running.as_mut() {
                if let Some(w) = run.widen.as_mut() {
                    w.reset_acc();
                    retry_transient(&self.obs, now, budget, "read", || {
                        w.rebaseline(&mut self.sub)
                    })?;
                }
            }
            if let Some(obs) = &self.obs {
                obs.inc(ObsCounter::Resets);
                obs.record(self.sub.real_cycles(), || ObsEvent::Reset { set: id });
            }
        }
        r
    }

    /// `PAPI_stop`: stop counting and return the final values.
    pub fn stop(&mut self, id: EventSetId) -> Result<Vec<i64>> {
        match &self.running {
            Some(r) if r.set == id => {}
            _ => return Err(PapiError::NotRun),
        }
        let begin_cycles = self.sub.real_cycles();
        self.read_native_counts_into()?;
        let n = self
            .running
            .as_ref()
            .map(|r| r.plan.n_events())
            .unwrap_or(0);
        let mut values = vec![0i64; n];
        self.values_into(&mut values)?;
        // Disarm machinery.  Stop is off the hot path, so taking the route
        // table out of the dying Running is free (it is discarded below).
        let (routes, was_mpx) = {
            let run = self.running.as_mut().ok_or(PapiError::NotRun)?;
            (
                std::mem::take(&mut run.routes),
                matches!(run.mode, RunMode::Mpx(_)),
            )
        };
        for (ctr, _, _) in routes {
            self.sub.set_overflow(ctr, None)?;
        }
        if was_mpx {
            self.sub.set_timer(None);
        }
        let budget = self.retry_budget;
        retry_transient(&self.obs, begin_cycles, budget, "stop", || self.sub.stop())?;
        self.running = None;
        self.set_mut(id)?.state = SetState::Stopped;
        if let Some(obs) = &self.obs {
            let now = self.sub.real_cycles();
            obs.inc(ObsCounter::Stops);
            obs.observe_cycles(
                ObsCounter::CyclesInStartStop,
                now.saturating_sub(begin_cycles),
            );
            obs.record(now, || ObsEvent::Stop { set: id });
        }
        Ok(values)
    }

    // --- the application run loop -------------------------------------------

    /// Let the monitored application execute until it halts or hits an
    /// instrumentation probe, servicing overflow interrupts (user handlers
    /// and profil histograms), multiplex rotation and sample-buffer drains
    /// along the way.
    pub fn next_event(&mut self) -> Result<AppExit> {
        self.next_event_until(None)
    }

    /// Like [`Papi::next_event`] but stops after `budget` cycles if nothing
    /// else happened first, returning [`AppExit::Paused`]. The perfometer
    /// tool samples metrics on this boundary.
    pub fn run_for(&mut self, budget: u64) -> Result<AppExit> {
        let deadline = self.sub.real_cycles().saturating_add(budget);
        self.next_event_until(Some(deadline))
    }

    fn next_event_until(&mut self, deadline: Option<u64>) -> Result<AppExit> {
        loop {
            let budget = match deadline {
                Some(d) => {
                    let now = self.sub.real_cycles();
                    if now >= d {
                        return Ok(AppExit::Paused);
                    }
                    Some(d - now)
                }
                None => None,
            };
            match self.sub.run(budget) {
                RunExit::Halted => {
                    if self.sampling_cfg.is_some() {
                        let tail = self.sub.drain_samples();
                        self.sampling_buf.extend(tail);
                    }
                    return Ok(AppExit::Halted);
                }
                RunExit::Probe { id, thread, pc } => {
                    return Ok(AppExit::Probe { id, thread, pc });
                }
                RunExit::Overflow {
                    counter,
                    thread,
                    pc,
                } => {
                    self.dispatch_overflow(counter, thread, pc);
                }
                RunExit::Timer => {
                    self.rotate_mpx()?;
                }
                RunExit::SampleBufferFull => {
                    let recs = self.sub.drain_samples();
                    self.sampling_buf.extend(recs);
                }
                RunExit::CycleLimit => return Ok(AppExit::Paused),
                RunExit::Deadlock => {
                    return Err(PapiError::Substrate(
                        "application deadlocked on message receive".into(),
                    ))
                }
            }
        }
    }

    /// Run the application to completion, ignoring probes.
    pub fn run_app(&mut self) -> Result<()> {
        loop {
            if let AppExit::Halted = self.next_event()? {
                return Ok(());
            }
        }
    }

    fn dispatch_overflow(&mut self, counter: usize, thread: ThreadId, pc: u64) {
        let Some(run) = &self.running else { return };
        let set = run.set;
        let hits: Vec<(u32, OvfRoute)> = run
            .routes
            .iter()
            .filter(|(c, _, _)| *c == counter)
            .map(|(_, code, r)| (*code, *r))
            .collect();
        if let Some(obs) = &self.obs {
            obs.inc(ObsCounter::OverflowInterrupts);
        }
        let mut profil_hits = 0u64;
        for (code, route) in hits {
            match route {
                OvfRoute::Profil(p) => {
                    if let Some(prof) = self.profils.get_mut(p) {
                        prof.hit(pc);
                        profil_hits += 1;
                    }
                }
                OvfRoute::Handler(h) => {
                    if let Some(obs) = &self.obs {
                        obs.inc(ObsCounter::OverflowHandlerDispatches);
                        obs.record(self.sub.real_cycles(), || ObsEvent::OverflowFired {
                            counter,
                            code,
                            pc,
                            to_handler: true,
                        });
                    }
                    let info = OverflowInfo {
                        set,
                        code,
                        pc,
                        thread,
                    };
                    if let Some(cb) = self.handlers.get_mut(h) {
                        cb(info);
                    }
                }
            }
        }
        if profil_hits > 0 {
            if let Some(obs) = &self.obs {
                obs.add(ObsCounter::ProfilHits, profil_hits);
                obs.record(self.sub.real_cycles(), || ObsEvent::ProfilHitBatch {
                    hits: profil_hits,
                    pc,
                });
            }
        }
    }

    /// Multiplex rotation on a timer tick: fold the live partition's counts
    /// into the accumulators and program the next partition.
    ///
    /// Like the read path, this borrows the cached plan and the session
    /// scratch buffers in place: a steady-state rotation clones nothing and
    /// allocates nothing.
    fn rotate_mpx(&mut self) -> Result<()> {
        let begin_cycles = self.sub.real_cycles();
        let now = begin_cycles;
        let budget = self.retry_budget;
        let Some(run) = self.running.as_mut() else {
            return Ok(());
        };
        // Disjoint borrows of the Running record so the plan, mode and
        // scratch can be used simultaneously with substrate calls.
        let Running {
            set,
            plan,
            mode,
            widen,
            ..
        } = run;
        let set = *set;
        let RunMode::Mpx(m) = mode else {
            return Ok(());
        };
        let from_partition = m.current;
        let switched_at = m.switched_at;
        retry_transient(&self.obs, now, budget, "read", || {
            self.scratch.live.clear();
            self.sub
                .read_batch(&m.partitions[m.current].counters, &mut self.scratch.live)
        })?;
        if let Some(w) = widen.as_mut() {
            for (slot, &ctr) in m.partitions[m.current].counters.iter().enumerate() {
                self.scratch.live[slot] = w.delta(ctr, self.scratch.live[slot]);
            }
            if let Some(obs) = &self.obs {
                obs.add(ObsCounter::FaultWraps, w.take_wraps());
            }
        }
        // Fold and advance.
        m.flush(now, &self.scratch.live);
        m.rotate();
        let to_partition = m.current;
        let domain = self.sets[set].as_ref().unwrap().domain;
        // Program the next partition through the prog scratch (the
        // allocation-free unrolling of `program_partition`).
        let part = &m.partitions[m.current];
        self.scratch.prog.clear();
        self.scratch.prog.resize(self.sub.num_counters(), None);
        for (slot, &nidx) in part.natives.iter().enumerate() {
            self.scratch.prog[part.counters[slot]] = Some((plan.natives[nidx], domain));
        }
        self.sub.program(&self.scratch.prog)?;
        // Programming rebased the registers; re-read the widening baseline.
        if let Some(w) = widen.as_mut() {
            retry_transient(&self.obs, now, budget, "read", || {
                w.rebaseline(&mut self.sub)
            })?;
        }
        // Counting restarts now; don't charge programming time to the slice.
        m.switched_at = self.sub.real_cycles();
        if let Some(obs) = &self.obs {
            let end_cycles = self.sub.real_cycles();
            let cost_cycles = end_cycles.saturating_sub(begin_cycles);
            obs.inc(ObsCounter::MpxRotations);
            obs.inc(ObsCounter::MpxFlushes);
            obs.inc(ObsCounter::MpxProgramOps);
            obs.add(ObsCounter::CounterReads, self.scratch.live.len() as u64);
            obs.observe_cycles(ObsCounter::CyclesInMpxRotate, cost_cycles);
            obs.record(now, || ObsEvent::MpxFlush {
                partition: from_partition,
                live_cycles: now.saturating_sub(switched_at),
            });
            obs.record(end_cycles, || ObsEvent::MpxRotate {
                from_partition,
                to_partition,
                cost_cycles,
            });
        }
        Ok(())
    }
}
