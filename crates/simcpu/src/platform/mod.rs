//! Platform definitions: the simulated stand-ins for the machines the paper
//! ran on.
//!
//! Each [`PlatformSpec`] bundles a pipeline/memory timing model, a *native
//! event* list with counter constraints (or POWER-style groups), and a cost
//! model for the native counter interface — register reads on `sim-t3e`
//! (Cray T3E), a kernel-patch syscall on `sim-x86` (Linux/x86), a vendor
//! library on `sim-power3` (AIX pmtoolkit), a daemon-mediated interface plus
//! ProfileMe sampling on `sim-alpha` (Tru64 DCPI/DADD), and EAR-capable
//! perfmon on `sim-ia64` (Itanium). `sim-generic` is an unconstrained
//! teaching platform.
//!
//! The differences between these specs are what make the portable layer
//! above them (the `papi-core` crate) non-trivial, exactly as in the paper.

use crate::cache::CacheCfg;
use crate::pmu::NativeEventDesc;

pub mod model;

/// Execution model of the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineKind {
    /// Retires in program order; interrupts are (almost) precise.
    InOrder,
    /// Out-of-order with the given reorder window; overflow interrupts skid.
    OutOfOrder { window: u32 },
}

/// Pipeline timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineCfg {
    pub kind: PipelineKind,
    /// Cycles lost on a branch misprediction.
    pub mispredict_penalty: u32,
    /// Extra cycles (beyond 1) of an FP divide.
    pub div_latency: u32,
    /// Percent of memory-stall cycles hidden by out-of-order overlap.
    pub overlap_pct: u32,
    /// Overflow-interrupt skid, in retired instructions: the PC delivered to
    /// the handler is `skid` instructions *past* the event-causing one,
    /// drawn uniformly from `[skid_min, skid_max]` per interrupt.
    pub skid_min: u32,
    pub skid_max: u32,
}

/// Memory hierarchy parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemCfg {
    pub l1d: CacheCfg,
    pub l1i: CacheCfg,
    pub l2: CacheCfg,
    pub dtlb_entries: usize,
    pub itlb_entries: usize,
    /// Extra cycles for an L1 miss that hits L2.
    pub l2_lat: u32,
    /// Extra cycles for an L2 miss (memory access).
    pub mem_lat: u32,
    /// Extra cycles for a TLB miss (page-table walk).
    pub tlb_walk: u32,
    /// Next-line hardware prefetch into L1D on a data miss.
    pub prefetch_next_line: bool,
    /// Flush the TLBs on every context switch (no ASIDs).
    pub tlb_flush_on_switch: bool,
}

/// Cycle costs of the *native counter interface* on this platform — the
/// source of all measurement overhead in the reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Reading one counter.
    pub read_cycles: u64,
    /// Starting or stopping the counters.
    pub start_stop_cycles: u64,
    /// Reprogramming the counter configuration (multiplex switch).
    pub program_cycles: u64,
    /// Delivering an overflow interrupt to a user handler.
    pub interrupt_cycles: u64,
    /// Draining one precise-sample record from the hardware buffer.
    pub sample_drain_per_rec: u64,
    /// Fielding a programmable timer tick.
    pub timer_cycles: u64,
    /// A thread context switch (scheduler).
    pub ctx_switch_cycles: u64,
    /// L1D lines evicted by each kernel crossing (cache pollution).
    pub pollute_lines: u32,
}

/// POWER-style counter group: programming group `id` places `events[i]` on
/// physical counter `i`. On group platforms an event selection is valid only
/// if it fits inside a single group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupDef {
    pub id: u32,
    pub name: &'static str,
    /// Native event codes, in counter order.
    pub events: Vec<u32>,
}

/// Everything the machine and the portable layer need to know about a
/// platform.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformSpec {
    pub name: &'static str,
    pub vendor: &'static str,
    pub model: &'static str,
    pub clock_mhz: u64,
    pub num_counters: usize,
    /// Width, in bits, of the values the counter interface hands back.
    /// The paper-era hardware registers were narrow (32-bit MIPS R10000 and
    /// UltraSPARC counters, 40-bit Pentium MSRs, 47-bit Itanium PMDs); the
    /// kernel interfaces these specs model virtualize them to full 64-bit
    /// software counts, so the built-in platforms all report 64 and never
    /// wrap.  Narrow the width (see [`PlatformSpec::with_counter_bits`]) to
    /// model raw-register access: the PMU then wraps counts modulo
    /// `2^counter_bits` and the portable layer above must widen.
    pub counter_bits: u32,
    pub pipeline: PipelineCfg,
    pub mem: MemCfg,
    pub events: Vec<NativeEventDesc>,
    /// Non-empty on group-allocated platforms.
    pub groups: Vec<GroupDef>,
    pub costs: CostModel,
    /// ProfileMe / EAR-style precise sampling hardware present.
    pub precise_sampling: bool,
    /// Scheduler time slice.
    pub quantum_cycles: u64,
}

impl PlatformSpec {
    /// Look up a native event by code.
    pub fn event_by_code(&self, code: u32) -> Option<&NativeEventDesc> {
        self.events.iter().find(|e| e.code == code)
    }

    /// Look up a native event by vendor mnemonic.
    pub fn event_by_name(&self, name: &str) -> Option<&NativeEventDesc> {
        self.events.iter().find(|e| e.name == name)
    }

    /// True if counter allocation on this platform is group-based.
    pub fn group_based(&self) -> bool {
        !self.groups.is_empty()
    }

    /// Nanoseconds for a cycle count at this platform's clock.
    pub fn cycles_to_ns(&self, cycles: u64) -> u64 {
        cycles * 1000 / self.clock_mhz
    }

    /// Return a copy of the spec with the counter register width narrowed
    /// to `bits` (1..=64).  Used by fault-injection and conformance tests to
    /// model raw hardware registers (32-bit R10000/UltraSPARC, 40-bit
    /// Pentium, 47-bit Itanium) whose counts wrap and must be widened by
    /// the portable layer.
    pub fn with_counter_bits(mut self, bits: u32) -> Self {
        assert!((1..=64).contains(&bits), "counter width out of range");
        self.counter_bits = bits;
        self
    }
}

/// Native-event code space mirrors PAPI's `PAPI_NATIVE_MASK`.
pub const NATIVE_MASK: u32 = 0x4000_0000;

pub mod files;

use std::sync::OnceLock;

/// The eight built-in platforms, parsed once from the embedded
/// `platforms/*.toml` model files (see [`files::BUILTIN`]) and cached for
/// the life of the process. Accessors clone out of this cache, so parsing
/// cost is paid exactly once, at first load — never on the hot path.
fn builtin_specs() -> &'static [PlatformSpec] {
    static CACHE: OnceLock<Vec<PlatformSpec>> = OnceLock::new();
    CACHE.get_or_init(|| {
        files::BUILTIN
            .iter()
            .map(|(name, src)| {
                model::parse_platform(src).unwrap_or_else(|e| {
                    panic!("embedded platform file platforms/{name}.toml is invalid: {e}")
                })
            })
            .collect()
    })
}

fn builtin(name: &str) -> PlatformSpec {
    builtin_specs()
        .iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("built-in platform '{name}' missing from embedded files"))
        .clone()
}

/// Linux/x86 stand-in: 4 counters, asymmetric constraints, kernel-patch
/// syscall costs. Loads `platforms/sim-x86.toml`.
pub fn sim_x86() -> PlatformSpec {
    builtin("sim-x86")
}

/// Alpha EV67 stand-in: 2 counters, daemon-mediated reads, ProfileMe-style
/// precise sampling. Loads `platforms/sim-alpha.toml`.
pub fn sim_alpha() -> PlatformSpec {
    builtin("sim-alpha")
}

/// POWER3 stand-in: 8 counters programmed in vendor-defined groups. Loads
/// `platforms/sim-power3.toml`.
pub fn sim_power3() -> PlatformSpec {
    builtin("sim-power3")
}

/// Itanium stand-in: in-order, precise EAR-capable sampling. Loads
/// `platforms/sim-ia64.toml`.
pub fn sim_ia64() -> PlatformSpec {
    builtin("sim-ia64")
}

/// Cray T3E stand-in: bare register reads, 3 counters. Loads
/// `platforms/sim-t3e.toml`.
pub fn sim_t3e() -> PlatformSpec {
    builtin("sim-t3e")
}

/// Unconstrained teaching platform. Loads `platforms/sim-generic.toml`.
pub fn sim_generic() -> PlatformSpec {
    builtin("sim-generic")
}

/// UltraSPARC stand-in: 2 counters, per-pipe FP events folding FMA. Loads
/// `platforms/sim-ultra.toml`.
pub fn sim_ultra() -> PlatformSpec {
    builtin("sim-ultra")
}

/// MIPS R12k stand-in: 2 strictly partitioned counters. Loads
/// `platforms/sim-mips.toml`.
pub fn sim_mips() -> PlatformSpec {
    builtin("sim-mips")
}

/// Every built-in platform, in a stable order.
pub fn all_platforms() -> Vec<PlatformSpec> {
    builtin_specs().to_vec()
}

/// Look a built-in platform up by name: case-insensitive, and accepts both
/// the canonical dashed form (`sim-x86`) and the registry's colon form
/// (`sim:x86`). Richer resolution (aliases, `file:` paths, fault prefixes)
/// lives in `papi_core::SubstrateRegistry`, which routes through here.
pub fn platform_by_name(name: &str) -> Option<PlatformSpec> {
    let want = name.to_ascii_lowercase().replace(':', "-");
    builtin_specs()
        .iter()
        .find(|p| p.name.eq_ignore_ascii_case(&want))
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmu::EventKind;

    #[test]
    fn eight_platforms_unique_names() {
        let ps = all_platforms();
        assert_eq!(ps.len(), 8);
        let mut names: Vec<_> = ps.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn mips_counters_strictly_partitioned() {
        let p = sim_mips();
        for e in &p.events {
            assert!(
                e.counter_mask == 0b01 || e.counter_mask == 0b10,
                "{}: R10k events live on exactly one counter",
                e.name
            );
        }
        // The joint TLB event counts both miss kinds.
        let tlb = p.event_by_name("tlb_misses").unwrap();
        assert_eq!(tlb.kinds.len(), 2);
    }

    #[test]
    fn ultra_fp_pipes_fold_fma() {
        let p = sim_ultra();
        let fa = p.event_by_name("FA_pipe").unwrap();
        let fm = p.event_by_name("FM_pipe").unwrap();
        assert!(fa.kinds.contains(&(EventKind::FpFma, 1)));
        assert!(fm.kinds.contains(&(EventKind::FpFma, 1)));
    }

    #[test]
    fn lookup_by_name() {
        assert!(platform_by_name("sim-x86").is_some());
        assert!(platform_by_name("sim-power3").is_some());
        assert!(platform_by_name("vax").is_none());
        // Every built-in resolves in its dashed, colon and upper-case
        // spellings.
        for name in [
            "sim-x86",
            "sim-alpha",
            "sim-power3",
            "sim-ia64",
            "sim-t3e",
            "sim-ultra",
            "sim-mips",
            "sim-generic",
        ] {
            for query in [
                name.to_string(),
                name.replacen('-', ":", 1),
                name.to_uppercase(),
            ] {
                let found =
                    platform_by_name(&query).unwrap_or_else(|| panic!("{query}: lookup failed"));
                assert_eq!(found.name, name);
            }
        }
    }

    #[test]
    fn event_codes_unique_within_platform() {
        for p in all_platforms() {
            let mut codes: Vec<u32> = p.events.iter().map(|e| e.code).collect();
            let n = codes.len();
            codes.sort_unstable();
            codes.dedup();
            assert_eq!(codes.len(), n, "{}: duplicate event codes", p.name);
            let mut names: Vec<&str> = p.events.iter().map(|e| e.name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), n, "{}: duplicate event names", p.name);
        }
    }

    #[test]
    fn event_codes_have_native_bit() {
        for p in all_platforms() {
            for e in &p.events {
                assert_ne!(e.code & NATIVE_MASK, 0, "{}:{}", p.name, e.name);
            }
        }
    }

    #[test]
    fn counter_masks_valid() {
        for p in all_platforms() {
            let full = (1u32 << p.num_counters) - 1;
            for e in &p.events {
                assert_ne!(e.counter_mask, 0, "{}:{} unplaceable", p.name, e.name);
                assert_eq!(
                    e.counter_mask & !full,
                    0,
                    "{}:{} mask beyond counters",
                    p.name,
                    e.name
                );
                assert!(!e.kinds.is_empty(), "{}:{} counts nothing", p.name, e.name);
            }
        }
    }

    #[test]
    fn groups_fit_counters_and_reference_known_events() {
        for p in all_platforms() {
            for g in &p.groups {
                assert!(
                    g.events.len() <= p.num_counters,
                    "{}: group {} too large",
                    p.name,
                    g.name
                );
                for code in &g.events {
                    assert!(
                        p.event_by_code(*code).is_some(),
                        "{}: group {} references unknown code",
                        p.name,
                        g.name
                    );
                }
            }
        }
    }

    #[test]
    fn every_platform_counts_cycles_and_instructions() {
        for p in all_platforms() {
            let has = |k: EventKind| {
                p.events
                    .iter()
                    .any(|e| e.kinds.iter().any(|(kk, _)| *kk == k))
            };
            assert!(has(EventKind::Cycles), "{}", p.name);
            assert!(has(EventKind::Instructions), "{}", p.name);
        }
    }

    #[test]
    fn power3_fp_event_includes_converts() {
        let p = sim_power3();
        let fpu = p.event_by_name("PM_FPU_CMPL").unwrap();
        assert!(
            fpu.kinds.iter().any(|(k, _)| *k == EventKind::FpCvt),
            "the POWER3 rounding-instruction quirk must be modelled"
        );
    }

    #[test]
    fn alpha_and_ia64_have_precise_sampling() {
        assert!(sim_alpha().precise_sampling);
        assert!(sim_ia64().precise_sampling);
        assert!(!sim_x86().precise_sampling);
        assert!(!sim_t3e().precise_sampling);
    }

    #[test]
    fn t3e_reads_are_cheap_alpha_reads_are_expensive() {
        assert!(sim_t3e().costs.read_cycles < 50);
        assert!(sim_alpha().costs.read_cycles > 1000);
    }

    #[test]
    fn in_order_platforms_have_tiny_skid() {
        for p in all_platforms() {
            if matches!(p.pipeline.kind, PipelineKind::InOrder) {
                assert!(p.pipeline.skid_max <= 2, "{}", p.name);
            } else {
                assert!(p.pipeline.skid_max >= 8, "{}", p.name);
            }
            assert!(p.pipeline.skid_min <= p.pipeline.skid_max, "{}", p.name);
        }
    }

    #[test]
    fn cycles_to_ns() {
        let p = sim_x86(); // 1000 MHz -> 1 cycle = 1 ns
        assert_eq!(p.cycles_to_ns(1234), 1234);
        let a = sim_alpha(); // 833 MHz -> 833 cycles = exactly 1000 ns
        assert_eq!(a.cycles_to_ns(833), 1000);
    }

    #[test]
    fn group_masks_derived_from_positions() {
        let p = sim_power3();
        // PM_CYC is position 0 in every group.
        let cyc = p.event_by_name("PM_CYC").unwrap();
        assert_eq!(cyc.counter_mask, 0b1);
        // PM_INST_CMPL is position 1 in every group.
        let inst = p.event_by_name("PM_INST_CMPL").unwrap();
        assert_eq!(inst.counter_mask, 0b10);
    }
}
