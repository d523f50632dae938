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
use crate::eventset::{EventSetId, OverflowReg, OvfRoute, SetState};
use crate::multiplex::{partition_events_with, MpxState, DEFAULT_MPX_PERIOD_CYCLES};
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
/// Built by a set's first `start()` as part of its [`Compiled`] form, so the
/// steady-state read path walks cache-friendly slices and never clones or
/// rebuilds per call (the paper's §4: the cost of counting must
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
    /// slices with no tuple destructuring in the inner loop. The caller
    /// has checked `out.len()` against [`ReadPlan::n_events`].
    pub(crate) fn apply(&self, counts: &[u64], out: &mut [i64]) {
        debug_assert_eq!(out.len(), self.n_events());
        if self.identity {
            // counts.len() == n by construction of identity plans.
            for (slot, &c) in out.iter_mut().zip(counts.iter()) {
                *slot = c as i64;
            }
            return;
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
    }
}

/// An EventSet's compiled form: everything `start` derives from the set's
/// definition — the read plan, the counter assignment or multiplex
/// partitions, the overflow routes and the widening state.
///
/// A set's first `start` builds it and the session owns it while the set
/// runs; `stop` hands it back to the set. A later `start` of the unchanged
/// set reprograms the hardware from it and resets its runtime fields (the
/// multiplex slices and accumulators, the widened counts), so a restart
/// resolves, solves and allocates nothing. Every stopped-state edit
/// discards it (`Papi::edit_set`), and the next `start` compiles afresh.
pub(crate) struct Compiled {
    set: EventSetId,
    /// Thread the set is attached to (PAPI_attach).
    attached: Option<ThreadId>,
    /// The domain every counter is programmed in.
    domain: Domain,
    /// Cached read route: natives + derived-event term table.
    plan: ReadPlan,
    mode: RunMode,
    /// Overflow routes, armed on every start: `(physical counter,
    /// registration)`.
    routes: Vec<(usize, OverflowReg)>,
    /// Wraparound-widening state, engaged when the substrate's counters are
    /// narrower than 64 bits ([`Substrate::counter_width`]); `None` on
    /// full-width substrates, where raw readings are used verbatim.
    widen: Option<WidenState>,
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
/// All buffers are sized once, when the set compiles; the steady-state
/// widening path and a restart allocate nothing.
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

    /// Zero the accumulated counts (the baseline is re-read separately).
    pub(crate) fn reset_acc(&mut self) {
        self.acc.iter_mut().for_each(|a| *a = 0);
    }

    /// Return to the state of a fresh compile for a new run: no widened
    /// counts, no wraps (the baseline is re-read separately).
    fn restart(&mut self) {
        self.reset_acc();
        self.wraps = 0;
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

/// Re-read every counter's raw value as the new widening baseline, under
/// the retry budget, after anything that rebases the hardware registers
/// (counting starts, a reset, reprogramming). A no-op on full-width
/// substrates.
fn rebaseline<S: Substrate>(
    sub: &mut S,
    obs: &Option<papi_obs::ObsHandle>,
    now: u64,
    budget: u32,
    widen: &mut Option<WidenState>,
) -> Result<()> {
    let Some(w) = widen else { return Ok(()) };
    retry_transient(obs, now, budget, "read", || {
        w.tmp.clear();
        sub.read_batch(&w.all, &mut w.tmp)?;
        w.last.copy_from_slice(&w.tmp);
        Ok(())
    })
}

/// Read the live multiplex partition into `live` under the retry budget,
/// widen each slot to its delta since the last baseline, and drain the
/// wrap count: the flush half of both a multiplexed read and a rotation.
fn read_live<S: Substrate>(
    sub: &mut S,
    obs: &Option<papi_obs::ObsHandle>,
    now: u64,
    budget: u32,
    m: &MpxState,
    widen: &mut Option<WidenState>,
    live: &mut Vec<u64>,
) -> Result<()> {
    let counters = &m.partitions[m.current].counters;
    retry_transient(obs, now, budget, "read", || {
        live.clear();
        sub.read_batch(counters, live)
    })?;
    if let Some(w) = widen {
        for (v, &ctr) in live.iter_mut().zip(counters) {
            *v = w.delta(ctr, *v);
        }
        if let Some(obs) = obs {
            obs.add(ObsCounter::FaultWraps, w.take_wraps());
        }
    }
    Ok(())
}

/// Program `codes[i]` onto physical counter `counters[i]` in `domain`,
/// every other counter free, through the reusable `image`: the one
/// programming routine of direct starts and multiplex partitions.
fn program_counters<S: Substrate>(
    sub: &mut S,
    image: &mut Vec<Option<(u32, Domain)>>,
    counters: &[usize],
    codes: impl Iterator<Item = u32>,
    domain: Domain,
) -> Result<()> {
    image.clear();
    image.resize(sub.num_counters(), None);
    for (&ctr, code) in counters.iter().zip(codes) {
        image[ctr] = Some((code, domain));
    }
    sub.program(image)
}

/// Disarm what `Papi::arm` armed: the overflow routes and the rotation
/// timer.
fn disarm<S: Substrate>(sub: &mut S, run: &Compiled) -> Result<()> {
    for &(ctr, _) in &run.routes {
        sub.set_overflow(ctr, None)?;
    }
    if matches!(run.mode, RunMode::Mpx(_)) {
        sub.set_timer(None);
    }
    Ok(())
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
    /// Hardware programming image (direct starts and partition switches).
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
        let s = self.edit_set(id)?;
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
    /// the rest. No group special-casing here. Only a compile calls it, so
    /// it also counts the start as one that built its compiled form
    /// (`alloc.memo_misses`).
    fn allocate(&mut self, natives: &[u32]) -> Option<Vec<usize>> {
        let mut stats = alloc::AllocStats::default();
        let assign = alloc::allocate_with(
            &self.alloc_model,
            natives,
            self.sub.native_events(),
            &mut stats,
        );
        if let Some(obs) = &self.obs {
            obs.inc(ObsCounter::AllocMemoMisses);
            obs.inc(ObsCounter::AllocAttempts);
            obs.inc(if assign.is_some() {
                ObsCounter::AllocSuccesses
            } else {
                ObsCounter::AllocFailures
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

    /// `PAPI_start`: compile the set (or reuse the form its last start
    /// compiled, when the set is unchanged), program and start the
    /// counters.
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
        let mut run = match self.set_mut(id)?.compiled.take() {
            Some(run) => {
                if let Some(obs) = &self.obs {
                    obs.inc(ObsCounter::AllocMemoHits);
                }
                run
            }
            None => self.compile(id)?,
        };
        if let Err(e) = self.arm(&mut run) {
            self.set_mut(id)?.compiled = Some(run);
            return Err(e);
        }
        self.running = Some(run);
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
            if let Err(e) = rebaseline(&mut self.sub, &self.obs, now, budget, &mut run.widen) {
                let _ = self.sub.stop();
                self.rollback_failed_start(id)?;
                return Err(e);
            }
        }
        Ok(())
    }

    /// Compile set `id`: resolve its events, solve the counter allocation
    /// (falling back to multiplex partitions when the set allows it) and
    /// route its overflow registrations. Touches no hardware.
    fn compile(&mut self, id: EventSetId) -> Result<Compiled> {
        let plan = self.resolve_set(id)?;
        let s = self.set_ref(id)?;
        // `attach` and `set_multiplex` each refuse a set the other marked.
        let (domain, multiplex, mpx_period, attached) =
            (s.domain, s.multiplex, s.mpx_period, s.attached);
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
                let period = mpx_period.unwrap_or(DEFAULT_MPX_PERIOD_CYCLES);
                // The slice clock is anchored when the set is armed.
                RunMode::Mpx(MpxState::new(parts, plan.natives.len(), period, 0))
            }
            None => return Err(PapiError::Cnflct),
        };
        // Overflow registrations arm on the counter of their event's first
        // native term. Registration refuses multiplexed sets, so only a
        // direct assignment has any.
        let mut routes = Vec::new();
        if let RunMode::Direct { assign } = &mode {
            let s = self.set_ref(id)?;
            for reg in &s.overflow {
                let ev = s
                    .events
                    .iter()
                    .position(|&e| e == reg.code)
                    .ok_or(PapiError::NoEvnt(reg.code))?;
                routes.push((assign[plan.first_native(ev) as usize], *reg));
            }
        }
        let width = self.sub.counter_width();
        let widen = (width < 64).then(|| WidenState::new(width, self.sub.num_counters()));
        Ok(Compiled {
            set: id,
            attached,
            domain,
            plan,
            mode,
            routes,
            widen,
        })
    }

    /// Program the hardware from a compiled form and reset its runtime
    /// fields, ready to count from zero: the direct assignment and its
    /// overflow routes, or partition 0 and the rotation timer. The same
    /// kernel crossings whether the form is fresh or reused.
    fn arm(&mut self, run: &mut Compiled) -> Result<()> {
        let Compiled {
            domain,
            plan,
            mode,
            routes,
            widen,
            ..
        } = run;
        match mode {
            RunMode::Direct { assign } => {
                program_counters(
                    &mut self.sub,
                    &mut self.scratch.prog,
                    assign,
                    plan.natives.iter().copied(),
                    *domain,
                )?;
                for &(ctr, reg) in routes.iter() {
                    self.sub.set_overflow(ctr, Some(reg.threshold))?;
                }
            }
            RunMode::Mpx(m) => {
                m.current = 0;
                m.raw.iter_mut().for_each(|r| *r = 0);
                m.active_cycles.iter_mut().for_each(|a| *a = 0);
                let part = &m.partitions[0];
                program_counters(
                    &mut self.sub,
                    &mut self.scratch.prog,
                    &part.counters,
                    part.natives.iter().map(|&n| plan.natives[n]),
                    *domain,
                )?;
                self.sub.set_timer(Some(m.period));
                // Anchor the slice clock after the programming costs.
                m.switched_at = self.sub.real_cycles();
            }
        }
        if let Some(w) = widen {
            w.restart();
        }
        Ok(())
    }

    /// Undo the side effects of a partially performed `start`; the set
    /// keeps its compiled form.
    fn rollback_failed_start(&mut self, id: EventSetId) -> Result<()> {
        let run = self.running.take();
        if let Some(run) = &run {
            let _ = disarm(&mut self.sub, run);
        }
        let s = self.set_mut(id)?;
        s.state = SetState::Stopped;
        s.compiled = run;
        Ok(())
    }

    /// The running set's event count, or `NotRun` when `id` is not the
    /// running set.
    fn running_events(&self, id: EventSetId) -> Result<usize> {
        match &self.running {
            Some(r) if r.set == id => Ok(r.plan.n_events()),
            _ => Err(PapiError::NotRun),
        }
    }

    /// The one read path of `read_into`, `read`, `accum` and `stop`.
    ///
    /// Checks `NotRun`, then the buffer length, before any substrate work
    /// (SPEC §8's order), so a refused call has no side effect. Then it
    /// reads the running set's native counts over disjoint borrows of the
    /// session — direct, attached, widened or multiplexed, with or without
    /// obs — and folds them through the cached [`ReadPlan`] into `out`.
    /// The plan, assignment and scratch buffers are borrowed in place, so
    /// a steady-state call allocates nothing.
    ///
    /// The virtual clock is read only when something uses it: an attached
    /// obs context (retry journal, read cost) or a multiplexed set (slice
    /// accounting). Returns that reading, or 0 when it was not taken.
    ///
    /// Always inlined, so an unobserved direct read pays no call frame
    /// beyond `read_into`'s: with two callers and a large multiplex arm,
    /// the optimizer otherwise keeps it a call of its own.
    #[inline(always)]
    fn read_core(&mut self, id: EventSetId, out: &mut [i64]) -> Result<u64> {
        let Papi {
            sub,
            running,
            scratch,
            retry_budget,
            obs,
            ..
        } = self;
        let (obs, budget) = (&*obs, *retry_budget);
        let run = match running {
            Some(run) if run.set == id => run,
            _ => return Err(PapiError::NotRun),
        };
        if out.len() != run.plan.n_events() {
            return Err(PapiError::Inval("value buffer length mismatch"));
        }
        let Compiled {
            attached,
            plan,
            mode,
            widen,
            ..
        } = run;
        let now = if obs.is_some() || matches!(mode, RunMode::Mpx(_)) {
            sub.real_cycles()
        } else {
            0
        };
        match mode {
            RunMode::Direct { assign } => {
                if let Some(obs) = obs {
                    obs.add(ObsCounter::CounterReads, assign.len() as u64);
                }
                let counts = &mut scratch.counts;
                match *attached {
                    Some(t) => {
                        counts.clear();
                        for &ctr in assign.iter() {
                            let v = retry_transient(obs, now, budget, "read", || {
                                sub.read_attached(t, ctr)
                            })?;
                            counts.push(v);
                        }
                    }
                    // One kernel crossing for the whole counter state. The
                    // buffer is cleared inside the closure so a retried
                    // crossing never leaves partial values behind.
                    None => {
                        retry_transient(obs, now, budget, "read", || {
                            counts.clear();
                            sub.read_batch(assign, counts)
                        })?;
                        if let Some(w) = widen {
                            for (c, &ctr) in counts.iter_mut().zip(assign.iter()) {
                                *c = w.widen(ctr, *c);
                            }
                            if let Some(obs) = obs {
                                obs.add(ObsCounter::FaultWraps, w.take_wraps());
                            }
                        }
                    }
                }
            }
            RunMode::Mpx(m) => {
                // Flush the live partition, then leave estimates in scratch.
                read_live(sub, obs, now, budget, m, widen, &mut scratch.live)?;
                // Avoid double counting on the next flush.
                retry_transient(obs, now, budget, "reset", || sub.reset())?;
                rebaseline(sub, obs, now, budget, widen)?;
                if let Some(obs) = obs {
                    obs.add(ObsCounter::CounterReads, scratch.live.len() as u64);
                    obs.inc(ObsCounter::MpxFlushes);
                    let partition = m.current;
                    let live_cycles = now.saturating_sub(m.switched_at);
                    obs.record(now, || ObsEvent::MpxFlush {
                        partition,
                        live_cycles,
                    });
                }
                m.flush(now, &scratch.live);
                m.estimates_into(&mut scratch.counts);
            }
        }
        plan.apply(&scratch.counts, out);
        Ok(now)
    }

    /// `PAPI_read` into a caller-owned buffer: current values (the set keeps
    /// running).  `out.len()` must equal the set's event count.
    ///
    /// This is the allocation-free form of [`Papi::read`]: a steady-state
    /// call performs **zero heap allocations** (asserted by papi-bench's
    /// counting-allocator test). Every mode, observed or not, runs the one
    /// read core; transient-fault retries wrap only the substrate
    /// crossing, never the plan application.
    pub fn read_into(&mut self, id: EventSetId, out: &mut [i64]) -> Result<()> {
        let begin_cycles = self.read_core(id, out)?;
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
        let mut out = vec![0i64; self.running_events(id)?];
        self.read_into(id, &mut out)?;
        Ok(out)
    }

    /// `PAPI_accum`: add current values into `values` and reset the
    /// counters.  Allocation-free in steady state (delegates to
    /// [`Papi::read_into`] through a per-session staging buffer).
    pub fn accum(&mut self, id: EventSetId, values: &mut [i64]) -> Result<()> {
        let n = self.running_events(id)?;
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
        let run = match &mut self.running {
            Some(r) if r.set == id => r,
            _ => return Err(PapiError::NotRun),
        };
        if let RunMode::Mpx(m) = &mut run.mode {
            m.raw.iter_mut().for_each(|r| *r = 0);
            m.active_cycles.iter_mut().for_each(|a| *a = 0);
            m.switched_at = now;
        }
        let budget = self.retry_budget;
        let r = retry_transient(&self.obs, now, budget, "reset", || self.sub.reset());
        if r.is_ok() {
            // The hardware registers were rebased: zero the accumulated
            // counts and re-read the widening baseline.
            if let Some(w) = &mut run.widen {
                w.reset_acc();
            }
            rebaseline(&mut self.sub, &self.obs, now, budget, &mut run.widen)?;
            if let Some(obs) = &self.obs {
                obs.inc(ObsCounter::Resets);
                obs.record(self.sub.real_cycles(), || ObsEvent::Reset { set: id });
            }
        }
        r
    }

    /// `PAPI_stop`: stop counting and return the final values. The set
    /// keeps its compiled form for its next start; the returned vector is
    /// the only allocation.
    pub fn stop(&mut self, id: EventSetId) -> Result<Vec<i64>> {
        let mut values = vec![0i64; self.running_events(id)?];
        let begin_cycles = self.read_core(id, &mut values)?;
        if let Some(run) = &self.running {
            disarm(&mut self.sub, run)?;
        }
        let budget = self.retry_budget;
        retry_transient(&self.obs, begin_cycles, budget, "stop", || self.sub.stop())?;
        // Hand the compiled form back to the set for its next start.
        let run = self.running.take();
        let s = self.set_mut(id)?;
        s.state = SetState::Stopped;
        s.compiled = run;
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

    /// Deliver an overflow interrupt on `counter` to every route armed on
    /// it. The routes are borrowed in place, beside the handler and profil
    /// tables, so a delivery allocates nothing.
    fn dispatch_overflow(&mut self, counter: usize, thread: ThreadId, pc: u64) {
        let Papi {
            sub,
            running,
            obs,
            handlers,
            profils,
            ..
        } = self;
        let Some(run) = running else { return };
        if let Some(obs) = obs {
            obs.inc(ObsCounter::OverflowInterrupts);
        }
        let mut profil_hits = 0u64;
        for &(_, reg) in run.routes.iter().filter(|(c, _)| *c == counter) {
            let code = reg.code;
            match reg.route {
                OvfRoute::Profil(p) => {
                    if let Some(prof) = profils.get_mut(p) {
                        prof.hit(pc);
                        profil_hits += 1;
                    }
                }
                OvfRoute::Handler(h) => {
                    if let Some(obs) = obs {
                        obs.inc(ObsCounter::OverflowHandlerDispatches);
                        obs.record(sub.real_cycles(), || ObsEvent::OverflowFired {
                            counter,
                            code,
                            pc,
                            to_handler: true,
                        });
                    }
                    let info = OverflowInfo {
                        set: run.set,
                        code,
                        pc,
                        thread,
                    };
                    if let Some(cb) = handlers.get_mut(h) {
                        cb(info);
                    }
                }
            }
        }
        if profil_hits > 0 {
            if let Some(obs) = obs {
                obs.add(ObsCounter::ProfilHits, profil_hits);
                obs.record(sub.real_cycles(), || ObsEvent::ProfilHitBatch {
                    hits: profil_hits,
                    pc,
                });
            }
        }
    }

    /// Multiplex rotation on a timer tick: fold the live partition's counts
    /// into the accumulators and program the next partition.
    ///
    /// Like the read path, this borrows the compiled plan and the session
    /// scratch buffers in place, and the simulator programs the next
    /// partition from borrowed event descriptors: a steady-state rotation
    /// clones nothing and allocates nothing (papi-bench's counting-allocator
    /// test asserts it).
    fn rotate_mpx(&mut self) -> Result<()> {
        let now = self.sub.real_cycles();
        let budget = self.retry_budget;
        let Some(run) = self.running.as_mut() else {
            return Ok(());
        };
        // Disjoint borrows of the compiled form so the plan, mode and
        // scratch can be used simultaneously with substrate calls.
        let Compiled {
            domain,
            plan,
            mode,
            widen,
            ..
        } = run;
        let RunMode::Mpx(m) = mode else {
            return Ok(());
        };
        let from_partition = m.current;
        let switched_at = m.switched_at;
        read_live(
            &mut self.sub,
            &self.obs,
            now,
            budget,
            m,
            widen,
            &mut self.scratch.live,
        )?;
        // Fold and advance.
        m.flush(now, &self.scratch.live);
        m.rotate();
        let to_partition = m.current;
        let part = &m.partitions[m.current];
        program_counters(
            &mut self.sub,
            &mut self.scratch.prog,
            &part.counters,
            part.natives.iter().map(|&n| plan.natives[n]),
            *domain,
        )?;
        rebaseline(&mut self.sub, &self.obs, now, budget, widen)?;
        // Counting restarts now; don't charge programming time to the slice.
        m.switched_at = self.sub.real_cycles();
        if let Some(obs) = &self.obs {
            let end_cycles = self.sub.real_cycles();
            let cost_cycles = end_cycles.saturating_sub(now);
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
