//! Session lifecycle: library initialization, hardware discovery, timers,
//! precise sampling, and the self-instrumentation attachment points.
//!
//! The [`Papi`] struct lives here; its start/stop/read machinery is in
//! [`crate::dispatch`] and its event/EventSet bookkeeping in
//! [`crate::events`].

use crate::alloc::AllocModel;
use crate::dispatch::{Compiled, OvfHandler, ReadScratch};
use crate::error::Result;
use crate::eventset::EventSetData;
use crate::highlevel;
use crate::preset::PresetTable;
use crate::profile::{Profil, ProfilConfig};
use crate::registry::SubstrateRegistry;
use crate::sampling;
use crate::substrate::{BoxSubstrate, HwInfo, SimSubstrate, Substrate};
use crate::PapiError;
use simcpu::{Granularity, SampleConfig, SampleRecord, ThreadId};

/// The library handle: one per monitored machine, like `PAPI_library_init`.
///
/// Generic over the substrate for static dispatch (`Papi<SimSubstrate>` is
/// the default); sessions built through [`Papi::init_named`] hold a
/// [`BoxSubstrate`] selected from the [`SubstrateRegistry`] at runtime.
pub struct Papi<S: Substrate = SimSubstrate> {
    // The first five fields are the complete working set of every read
    // (dispatch.rs's read core destructures them into disjoint borrows).
    // Declaration order does not fix their offsets: the struct is not
    // `repr(C)`, so rustc lays the fields out as it sees fit.
    pub(crate) sub: S,
    /// The running set's compiled form (see `dispatch.rs`).
    pub(crate) running: Option<Compiled>,
    /// Reusable hot-path buffers (native counts, multiplex estimates,
    /// staged values, programming table): the zero-allocation read path.
    pub(crate) scratch: ReadScratch,
    /// How many times a transient ([`PapiError::SubstrateTransient`])
    /// substrate failure is retried before surfacing to the caller.
    pub(crate) retry_budget: u32,
    /// Self-instrumentation sink. `None` (the default) disables the layer:
    /// every hook is a cheap `Option` check and no state is kept.
    pub(crate) obs: Option<papi_obs::ObsHandle>,
    pub(crate) presets: PresetTable,
    pub(crate) sets: Vec<Option<EventSetData>>,
    pub(crate) handlers: Vec<OvfHandler>,
    pub(crate) profils: Vec<Profil>,
    pub(crate) sampling_cfg: Option<SampleConfig>,
    pub(crate) sampling_buf: Vec<SampleRecord>,
    pub(crate) hl: Option<highlevel::HlState>,
    /// The substrate's allocation-translation model, materialized once at
    /// init so start/partition paths never rebuild it per call.
    pub(crate) alloc_model: AllocModel,
}

/// Default bound on transient-error retries per substrate operation.
pub const DEFAULT_TRANSIENT_RETRY_BUDGET: u32 = 4;

impl<S: Substrate> std::fmt::Debug for Papi<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Papi")
            .field("sets", &self.sets.iter().filter(|s| s.is_some()).count())
            .field("running", &self.running.is_some())
            .finish_non_exhaustive()
    }
}

impl Papi<BoxSubstrate> {
    /// Initialize the library on a substrate selected by registry name
    /// (e.g. `"sim:x86"`, `"sim-power3"`, `"perfctr"` once registered),
    /// with the default deterministic seed.
    ///
    /// The dynamic-dispatch twin of [`Papi::init`]: the session holds a
    /// [`BoxSubstrate`], so one binary can serve any registered backend.
    pub fn init_named(name: &str) -> Result<Papi<BoxSubstrate>> {
        Papi::init_named_seeded(name, 42)
    }

    /// [`Papi::init_named`] with an explicit machine seed.
    pub fn init_named_seeded(name: &str, seed: u64) -> Result<Papi<BoxSubstrate>> {
        Papi::init_from_registry(&SubstrateRegistry::with_builtin(), name, seed)
    }

    /// [`Papi::init_named`] against a caller-supplied registry (one that
    /// other crates have added their backends to).
    pub fn init_from_registry(
        reg: &SubstrateRegistry,
        name: &str,
        seed: u64,
    ) -> Result<Papi<BoxSubstrate>> {
        Papi::init(reg.create(name, seed)?)
    }
}

impl<S: Substrate> Papi<S> {
    /// Initialize the library on a substrate: builds the preset table by
    /// mapping every standard event onto this platform's native events,
    /// using the substrate's allocation model for feasibility checks.
    pub fn init(sub: S) -> Result<Self> {
        let alloc_model = sub.alloc_model();
        let presets = PresetTable::build_with(sub.native_events(), &alloc_model);
        Ok(Papi {
            sub,
            presets,
            sets: Vec::new(),
            running: None,
            handlers: Vec::new(),
            profils: Vec::new(),
            sampling_cfg: None,
            sampling_buf: Vec::new(),
            hl: None,
            obs: None,
            alloc_model,
            scratch: ReadScratch::default(),
            retry_budget: DEFAULT_TRANSIENT_RETRY_BUDGET,
        })
    }

    /// Bound the transient-error retry loop: a substrate operation that
    /// keeps failing with [`PapiError::SubstrateTransient`] is reissued at
    /// most `budget` times before the error surfaces to the caller
    /// (`PAPI_EMISC`). Zero disables retrying entirely.
    pub fn set_transient_retry_budget(&mut self, budget: u32) {
        self.retry_budget = budget;
    }

    /// The configured transient-error retry budget.
    pub fn transient_retry_budget(&self) -> u32 {
        self.retry_budget
    }

    /// Attach a self-instrumentation context: from here on, API traffic,
    /// multiplex rotations, overflow dispatches and allocator effort are
    /// accounted into `obs`'s registry (and journal, when enabled).
    ///
    /// The instrumentation performs no costed substrate operations, so
    /// attaching it never perturbs virtual-time measurements.
    pub fn attach_obs(&mut self, obs: papi_obs::ObsHandle) {
        self.obs = Some(obs);
    }

    /// Detach and return the self-instrumentation context, if any.
    pub fn detach_obs(&mut self) -> Option<papi_obs::ObsHandle> {
        self.obs.take()
    }

    /// The attached self-instrumentation context, if any.
    pub fn obs(&self) -> Option<&papi_obs::ObsHandle> {
        self.obs.as_ref()
    }

    /// The substrate (read-only).
    pub fn substrate(&self) -> &S {
        &self.sub
    }

    /// The substrate (e.g. to load programs on a [`SimSubstrate`]).
    pub fn substrate_mut(&mut self) -> &mut S {
        &mut self.sub
    }

    /// `PAPI_get_hardware_info`.
    pub fn hw_info(&self) -> HwInfo {
        self.sub.hw_info()
    }

    /// `PAPI_num_counters`.
    pub fn num_counters(&self) -> usize {
        self.sub.num_counters()
    }

    /// The preset table built for this platform.
    pub fn preset_table(&self) -> &PresetTable {
        &self.presets
    }

    /// `PAPI_set_granularity` (machine-wide or per-thread counting).
    pub fn set_granularity(&mut self, g: Granularity) {
        self.sub.set_granularity(g);
    }

    // --- precise sampling ---------------------------------------------------

    /// Enable hardware precise sampling (ProfileMe/EAR). Samples accumulate
    /// while the application runs under [`Papi::run_app`]/[`Papi::next_event`];
    /// collect them with [`Papi::take_samples`] or [`Papi::stop_sampling`].
    ///
    /// Sampling hardware observes retirement only while the PMU is running,
    /// i.e. while an EventSet is started.
    pub fn start_sampling(&mut self, cfg: SampleConfig) -> Result<()> {
        self.sub.configure_sampling(Some(cfg))?;
        self.sampling_cfg = Some(cfg);
        self.sampling_buf.clear();
        Ok(())
    }

    /// Disable sampling and return every sample collected since
    /// [`Papi::start_sampling`].
    pub fn stop_sampling(&mut self) -> Result<Vec<SampleRecord>> {
        if self.sampling_cfg.is_none() {
            return Err(PapiError::NotRun);
        }
        let tail = self.sub.drain_samples();
        self.sampling_buf.extend(tail);
        self.sub.configure_sampling(None)?;
        self.sampling_cfg = None;
        Ok(std::mem::take(&mut self.sampling_buf))
    }

    /// Drain the samples collected so far (sampling stays enabled).
    pub fn take_samples(&mut self) -> Vec<SampleRecord> {
        let tail = self.sub.drain_samples();
        self.sampling_buf.extend(tail);
        std::mem::take(&mut self.sampling_buf)
    }

    /// The configured sampling period, if sampling is active.
    pub fn sampling_period(&self) -> Option<u64> {
        self.sampling_cfg.map(|c| c.period)
    }

    /// Pull hardware-buffered samples into the session buffer without
    /// consuming them.
    fn sync_samples(&mut self) {
        let tail = self.sub.drain_samples();
        self.sampling_buf.extend(tail);
    }

    /// PAPI-3 "hardware assisted profiling": build a profiling histogram for
    /// `kind` from the precise samples collected so far (the samples stay in
    /// the session). Attribution is exact — no skid.
    pub fn sampled_histogram(
        &mut self,
        kind: simcpu::EventKind,
        cfg: ProfilConfig,
    ) -> Result<Profil> {
        if self.sampling_cfg.is_none() {
            return Err(PapiError::NotRun);
        }
        self.sync_samples();
        Ok(sampling::profile_from_samples(
            &self.sampling_buf,
            kind,
            cfg,
        ))
    }

    /// PAPI-3 "option for estimating counts from samples": aggregate-count
    /// estimates for `kinds` from the samples collected so far.
    pub fn estimate_counts_from_samples(
        &mut self,
        kinds: &[simcpu::EventKind],
    ) -> Result<Vec<u64>> {
        let Some(cfg) = self.sampling_cfg else {
            return Err(PapiError::NotRun);
        };
        self.sync_samples();
        Ok(sampling::estimate_counts(
            &self.sampling_buf,
            cfg.period,
            kinds,
        ))
    }

    // --- timers (the "most popular feature") --------------------------------

    /// `PAPI_get_real_cyc`.
    pub fn get_real_cyc(&self) -> u64 {
        self.sub.real_cycles()
    }

    /// `PAPI_get_real_usec`.
    pub fn get_real_usec(&self) -> u64 {
        self.sub.real_ns() / 1000
    }

    /// Wall-clock nanoseconds (finer than the C API offered).
    pub fn get_real_ns(&self) -> u64 {
        self.sub.real_ns()
    }

    /// `PAPI_get_virt_usec`: user-mode time of a thread.
    pub fn get_virt_usec(&self, thread: ThreadId) -> Result<u64> {
        Ok(self.sub.virt_ns(thread)? / 1000)
    }

    /// Virtual nanoseconds.
    pub fn get_virt_ns(&self, thread: ThreadId) -> Result<u64> {
        self.sub.virt_ns(thread)
    }

    /// `PAPI_get_mem_info`-style memory utilization (PAPI-3 extension).
    pub fn get_mem_info(&self, thread: ThreadId) -> Result<simcpu::MemInfo> {
        self.sub.mem_info(thread)
    }
}
