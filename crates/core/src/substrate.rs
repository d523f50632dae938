//! The substrate boundary — the machine-dependent layer of Figure 1.
//!
//! Everything above this trait is portable; implementing [`Substrate`] for a
//! new platform is all that is needed to port the library, exactly as the
//! paper describes ("the machine-dependent part of the implementation,
//! called the substrate, is all that needs to be rewritten"). The crate
//! ships [`SimSubstrate`], which drives a [`simcpu::Machine`]; a
//! `perf_event`-based substrate for real Linux hosts would implement the
//! same trait.

use crate::alloc::AllocModel;
use crate::error::Result;
use simcpu::platform::GroupDef;
use simcpu::{
    Domain, Machine, MemInfo, NativeEventDesc, PlatformSpec, Program, RunExit, SampleConfig,
    SampleRecord, ThreadId,
};

/// Static description of the hardware, returned by [`Substrate::hw_info`]
/// (the equivalent of `PAPI_get_hardware_info`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HwInfo {
    pub vendor: String,
    pub model: String,
    pub mhz: u64,
    pub num_counters: usize,
    pub precise_sampling: bool,
    pub group_based: bool,
}

/// The machine-dependent layer.
///
/// All mutating operations are *costed*: on a real machine they cross into
/// the kernel; on the simulated substrate they consume simulated cycles and
/// perturb the caches, which is what makes overhead measurable.
pub trait Substrate {
    /// Hardware description.
    fn hw_info(&self) -> HwInfo;

    /// Number of physical counters.
    fn num_counters(&self) -> usize;

    /// The native events this platform exposes.
    fn native_events(&self) -> &[NativeEventDesc];

    /// Counter groups, non-empty on group-allocated platforms (POWER style).
    fn groups(&self) -> &[GroupDef];

    /// Width, in bits, of the counter values this substrate's `read_batch`
    /// returns.  64 (the default) means values never wrap in practice and
    /// the portable layer reads them verbatim.  Anything narrower — the
    /// paper's platforms ranged from 32-bit MIPS/UltraSPARC counters to
    /// 40-bit Pentium MSRs — makes the portable layer run its wraparound
    /// widening: raw readings are treated as values modulo `2^width` and
    /// deltas are accumulated into full 64-bit counts, so API-visible
    /// values never go backwards across a hardware wrap.
    fn counter_width(&self) -> u32 {
        64
    }

    /// The hardware-dependent half of the PAPI-3 allocation split: how this
    /// platform's counter constraints translate into instances for the
    /// hardware-independent solver. The default derives a mask- or
    /// group-based model from `num_counters`/`groups`; substrates with a
    /// different constraint language override this.
    fn alloc_model(&self) -> AllocModel {
        AllocModel::for_platform(self.num_counters(), self.groups())
    }

    /// Load a program onto the monitored "application" carrier, for
    /// substrates that own one (the simulated machines do; a real
    /// `perf_event` substrate monitors an existing process and would keep
    /// the default).
    fn load_program(&mut self, _program: Program) -> Result<()> {
        Err(crate::error::PapiError::NoSupp(
            "substrate cannot load programs",
        ))
    }

    /// Program the full counter configuration: `assign[i]` is the native
    /// event code (and domain) for counter `i`, or `None` to clear it.
    fn program(&mut self, assign: &[Option<(u32, Domain)>]) -> Result<()>;

    /// Start the counters.
    fn start(&mut self) -> Result<()>;

    /// Stop the counters.
    fn stop(&mut self) -> Result<()>;

    /// Zero the counters.
    fn reset(&mut self) -> Result<()>;

    /// Read the counters `ctrs`, appending their values to `out` in `ctrs`
    /// order: the only way the portable layer reads a counter.
    ///
    /// Real counter interfaces return the full counter state per kernel
    /// crossing (one ioctl/syscall), so the portable layer's `read` of an
    /// n-event set should cost one crossing, not n.  A substrate whose
    /// native interface reads one counter per call issues one call per
    /// entry of `ctrs`.
    fn read_batch(&mut self, ctrs: &[usize], out: &mut Vec<u64>) -> Result<()>;

    /// Arm (`Some(threshold)`) or disarm (`None`) overflow interrupts.
    fn set_overflow(&mut self, idx: usize, threshold: Option<u64>) -> Result<()>;

    /// Configure precise sampling, if the hardware has it.
    fn configure_sampling(&mut self, cfg: Option<SampleConfig>) -> Result<()>;

    /// Drain buffered precise samples.
    fn drain_samples(&mut self) -> Vec<SampleRecord>;

    /// Set (or clear) the programmable timer, period in cycles.
    fn set_timer(&mut self, period_cycles: Option<u64>);

    /// Counting granularity: machine-wide or virtualized per thread.
    fn set_granularity(&mut self, g: simcpu::Granularity);

    /// Let the monitored application execute until the next event requiring
    /// software attention.
    fn run(&mut self, budget_cycles: Option<u64>) -> RunExit;

    /// Cycle clock (for `PAPI_get_real_cyc`).
    fn real_cycles(&self) -> u64;

    /// Wall-clock nanoseconds (for `PAPI_get_real_usec`).
    fn real_ns(&self) -> u64;

    /// Virtual (user-mode) nanoseconds of a thread (for
    /// `PAPI_get_virt_usec`).
    fn virt_ns(&self, thread: ThreadId) -> Result<u64>;

    /// Memory-utilization info (the PAPI-3 extension).
    fn mem_info(&self, thread: ThreadId) -> Result<MemInfo>;

    /// Read a counter as attributed to a specific thread (requires
    /// per-thread counter virtualization — `PAPI_attach` support).
    /// Substrates without the capability keep the default.
    fn read_attached(&mut self, _thread: ThreadId, _idx: usize) -> Result<u64> {
        Err(crate::error::PapiError::NoSupp(
            "substrate cannot read per-thread counters",
        ))
    }
}

/// A substrate selected at runtime (e.g. through
/// [`crate::registry::SubstrateRegistry`]). `Send` so a global session (the
/// C API) can move across threads.
pub type BoxSubstrate = Box<dyn Substrate + Send>;

/// Boxed substrates are substrates: every call delegates to the inner
/// implementation (including the methods with defaults, so a box never
/// masks an override).
impl<T: Substrate + ?Sized> Substrate for Box<T> {
    fn hw_info(&self) -> HwInfo {
        (**self).hw_info()
    }
    fn num_counters(&self) -> usize {
        (**self).num_counters()
    }
    fn native_events(&self) -> &[NativeEventDesc] {
        (**self).native_events()
    }
    fn groups(&self) -> &[GroupDef] {
        (**self).groups()
    }
    fn counter_width(&self) -> u32 {
        (**self).counter_width()
    }
    fn alloc_model(&self) -> crate::alloc::AllocModel {
        (**self).alloc_model()
    }
    fn load_program(&mut self, program: Program) -> Result<()> {
        (**self).load_program(program)
    }
    fn program(&mut self, assign: &[Option<(u32, Domain)>]) -> Result<()> {
        (**self).program(assign)
    }
    fn start(&mut self) -> Result<()> {
        (**self).start()
    }
    fn stop(&mut self) -> Result<()> {
        (**self).stop()
    }
    fn reset(&mut self) -> Result<()> {
        (**self).reset()
    }
    fn read_batch(&mut self, ctrs: &[usize], out: &mut Vec<u64>) -> Result<()> {
        (**self).read_batch(ctrs, out)
    }
    fn set_overflow(&mut self, idx: usize, threshold: Option<u64>) -> Result<()> {
        (**self).set_overflow(idx, threshold)
    }
    fn configure_sampling(&mut self, cfg: Option<SampleConfig>) -> Result<()> {
        (**self).configure_sampling(cfg)
    }
    fn drain_samples(&mut self) -> Vec<SampleRecord> {
        (**self).drain_samples()
    }
    fn set_timer(&mut self, period_cycles: Option<u64>) {
        (**self).set_timer(period_cycles)
    }
    fn set_granularity(&mut self, g: simcpu::Granularity) {
        (**self).set_granularity(g)
    }
    fn run(&mut self, budget_cycles: Option<u64>) -> RunExit {
        (**self).run(budget_cycles)
    }
    fn real_cycles(&self) -> u64 {
        (**self).real_cycles()
    }
    fn real_ns(&self) -> u64 {
        (**self).real_ns()
    }
    fn virt_ns(&self, thread: ThreadId) -> Result<u64> {
        (**self).virt_ns(thread)
    }
    fn mem_info(&self, thread: ThreadId) -> Result<MemInfo> {
        (**self).mem_info(thread)
    }
    fn read_attached(&mut self, thread: ThreadId, idx: usize) -> Result<u64> {
        (**self).read_attached(thread, idx)
    }
}

/// The reference substrate: a simulated machine.
pub struct SimSubstrate {
    machine: Machine,
}

impl SimSubstrate {
    /// Wrap a machine (programs should already be loaded, or load them later
    /// through [`SimSubstrate::machine_mut`]).
    pub fn new(machine: Machine) -> Self {
        SimSubstrate { machine }
    }

    /// Build a machine for `spec` with a deterministic seed.
    pub fn for_platform(spec: PlatformSpec, seed: u64) -> Self {
        SimSubstrate {
            machine: Machine::new(spec, seed),
        }
    }

    /// The underlying machine (read-only).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The underlying machine (e.g. to load programs or enable ground-truth
    /// recording).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The platform spec.
    pub fn spec(&self) -> &PlatformSpec {
        self.machine.spec()
    }
}

impl Substrate for SimSubstrate {
    fn hw_info(&self) -> HwInfo {
        let s = self.machine.spec();
        HwInfo {
            vendor: s.vendor.to_string(),
            model: s.model.to_string(),
            mhz: s.clock_mhz,
            num_counters: s.num_counters,
            precise_sampling: s.precise_sampling,
            group_based: s.group_based(),
        }
    }

    fn num_counters(&self) -> usize {
        self.machine.spec().num_counters
    }

    fn native_events(&self) -> &[NativeEventDesc] {
        &self.machine.spec().events
    }

    fn groups(&self) -> &[GroupDef] {
        &self.machine.spec().groups
    }

    fn counter_width(&self) -> u32 {
        self.machine.spec().counter_bits
    }

    fn load_program(&mut self, program: Program) -> Result<()> {
        self.machine.load(program);
        Ok(())
    }

    fn program(&mut self, assign: &[Option<(u32, Domain)>]) -> Result<()> {
        self.machine.costed_program(assign)?;
        Ok(())
    }

    fn start(&mut self) -> Result<()> {
        self.machine.costed_start();
        Ok(())
    }

    fn stop(&mut self) -> Result<()> {
        self.machine.costed_stop();
        Ok(())
    }

    fn reset(&mut self) -> Result<()> {
        self.machine.costed_reset();
        Ok(())
    }

    fn read_batch(&mut self, ctrs: &[usize], out: &mut Vec<u64>) -> Result<()> {
        self.machine.costed_read_batch(ctrs, out)?;
        Ok(())
    }

    fn set_overflow(&mut self, idx: usize, threshold: Option<u64>) -> Result<()> {
        self.machine.costed_set_overflow(idx, threshold)?;
        Ok(())
    }

    fn configure_sampling(&mut self, cfg: Option<SampleConfig>) -> Result<()> {
        self.machine.costed_configure_sampling(cfg)?;
        Ok(())
    }

    fn drain_samples(&mut self) -> Vec<SampleRecord> {
        self.machine.costed_drain_samples()
    }

    fn set_timer(&mut self, period_cycles: Option<u64>) {
        self.machine.set_timer(period_cycles);
    }

    fn set_granularity(&mut self, g: simcpu::Granularity) {
        self.machine.set_granularity(g);
    }

    fn run(&mut self, budget_cycles: Option<u64>) -> RunExit {
        self.machine.run(budget_cycles)
    }

    fn real_cycles(&self) -> u64 {
        self.machine.cycles()
    }

    fn real_ns(&self) -> u64 {
        self.machine.real_ns()
    }

    fn virt_ns(&self, thread: ThreadId) -> Result<u64> {
        Ok(self.machine.virt_ns(thread)?)
    }

    fn mem_info(&self, thread: ThreadId) -> Result<MemInfo> {
        Ok(self.machine.mem_info(thread)?)
    }

    fn read_attached(&mut self, thread: ThreadId, idx: usize) -> Result<u64> {
        Ok(self.machine.costed_read_thread(thread, idx)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcpu::platform::{sim_alpha, sim_power3, sim_x86};

    #[test]
    fn hw_info_reflects_platform() {
        let s = SimSubstrate::for_platform(sim_x86(), 1);
        let hi = s.hw_info();
        assert_eq!(hi.num_counters, 4);
        assert!(!hi.precise_sampling);
        assert!(!hi.group_based);
        let s = SimSubstrate::for_platform(sim_power3(), 1);
        assert!(s.hw_info().group_based);
        let s = SimSubstrate::for_platform(sim_alpha(), 1);
        assert!(s.hw_info().precise_sampling);
    }

    #[test]
    fn read_costs_cycles() {
        let mut s = SimSubstrate::for_platform(sim_x86(), 1);
        let c0 = s.real_cycles();
        s.read_batch(&[0], &mut Vec::new()).unwrap();
        assert_eq!(s.real_cycles() - c0, s.spec().costs.read_cycles);
    }

    #[test]
    fn sampling_rejected_without_hardware() {
        let mut s = SimSubstrate::for_platform(sim_x86(), 1);
        assert!(s.configure_sampling(Some(SampleConfig::default())).is_err());
    }

    #[test]
    fn program_unknown_code_fails() {
        let mut s = SimSubstrate::for_platform(sim_x86(), 1);
        let r = s.program(&[Some((0x4fff_ffff, Domain::USER))]);
        assert!(r.is_err());
    }
}
