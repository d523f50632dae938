//! Derived metrics: event-based ratios.
//!
//! §3: "Correlations between profiles based on different events, as well as
//! event-based ratios, provide derived information that helps to quickly
//! identify and diagnose performance problems." This module defines the
//! standard ratios, plans which presets a requested set of ratios needs
//! (availability-aware, per platform), and computes them from measured
//! counts or from a [`Profile`](crate::profile_data::Profile) column pair.

use papi_core::{Papi, PapiError, Preset, Result, Substrate};
use papi_tools::start_or_multiplex;
use std::collections::BTreeSet;

/// A named event ratio `scale * num / den`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DerivedMetric {
    pub name: &'static str,
    pub descr: &'static str,
    pub num: Preset,
    pub den: Preset,
    pub scale: f64,
}

/// Instructions per cycle.
pub const IPC: DerivedMetric = DerivedMetric {
    name: "IPC",
    descr: "instructions per cycle",
    num: Preset::TotIns,
    den: Preset::TotCyc,
    scale: 1.0,
};

/// L1 data misses per load.
pub const L1D_MISS_RATE: DerivedMetric = DerivedMetric {
    name: "L1D_MISS_RATE",
    descr: "L1 data misses per load",
    num: Preset::L1Dcm,
    den: Preset::LdIns,
    scale: 1.0,
};

/// L1 data misses per kilo-instruction (MPKI).
pub const L1D_MPKI: DerivedMetric = DerivedMetric {
    name: "L1D_MPKI",
    descr: "L1 data misses per 1000 instructions",
    num: Preset::L1Dcm,
    den: Preset::TotIns,
    scale: 1000.0,
};

/// Branch misprediction rate.
pub const BR_MISS_RATE: DerivedMetric = DerivedMetric {
    name: "BR_MISS_RATE",
    descr: "mispredictions per conditional branch",
    num: Preset::BrMsp,
    den: Preset::BrIns,
    scale: 1.0,
};

/// FLOPs per cycle.
pub const FLOPS_PER_CYCLE: DerivedMetric = DerivedMetric {
    name: "FLOPS_PER_CYCLE",
    descr: "floating point operations per cycle",
    num: Preset::FpOps,
    den: Preset::TotCyc,
    scale: 1.0,
};

/// Stall fraction.
pub const STALL_FRACTION: DerivedMetric = DerivedMetric {
    name: "STALL_FRACTION",
    descr: "fraction of cycles stalled",
    num: Preset::ResStl,
    den: Preset::TotCyc,
    scale: 1.0,
};

/// The standard derived-metric catalogue.
pub const ALL_DERIVED: &[DerivedMetric] = &[
    IPC,
    L1D_MISS_RATE,
    L1D_MPKI,
    BR_MISS_RATE,
    FLOPS_PER_CYCLE,
    STALL_FRACTION,
];

impl DerivedMetric {
    /// Compute from a numerator and denominator count.
    pub fn compute(&self, num: i64, den: i64) -> f64 {
        if den == 0 {
            0.0
        } else {
            self.scale * num as f64 / den as f64
        }
    }
}

// --- self-metrics over the papi-obs registry --------------------------------

/// Run context needed to normalize registry counters into rates and ratios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelfMetricContext {
    /// Total virtual cycles the run spanned.
    pub total_cycles: u64,
    /// Platform clock, MHz (cycles per microsecond).
    pub clock_mhz: u64,
}

/// A derived metric computed from the library's own [`papi_obs::Snapshot`]
/// rather than from hardware counters — meta-observability over the
/// measurement infrastructure itself.  (No `PartialEq`: the compute member
/// is a function pointer, and pointer identity is not a meaningful notion
/// of metric equality — compare `name`s instead.)
#[derive(Debug, Clone, Copy)]
pub struct SelfMetric {
    pub name: &'static str,
    pub descr: &'static str,
    compute: fn(&papi_obs::Snapshot, &SelfMetricContext) -> f64,
}

impl SelfMetric {
    /// Compute the metric from a registry snapshot and run context.
    pub fn compute(&self, snap: &papi_obs::Snapshot, ctx: &SelfMetricContext) -> f64 {
        (self.compute)(snap, ctx)
    }
}

/// Multiplex partition rotations per millisecond of run time.  With the
/// default 100k-cycle switching period this sits near
/// `clock_mhz * 1000 / period` for any run long enough to amortize startup.
pub const MPX_ROTATIONS_PER_MS: SelfMetric = SelfMetric {
    name: "MPX_ROTATIONS_PER_MS",
    descr: "multiplex partition rotations per millisecond",
    compute: |snap, ctx| {
        let rotations = snap.get("mpx", "rotations").unwrap_or(0);
        let ms = ctx.total_cycles as f64 / (ctx.clock_mhz as f64 * 1000.0);
        if ms <= 0.0 {
            0.0
        } else {
            rotations as f64 / ms
        }
    },
};

/// Fraction of all run cycles the library charged to itself (read spans,
/// start/stop spans, multiplex rotation spans) — the paper's §4 overhead
/// question answered from the inside.
pub const OVERHEAD_CYCLES_RATIO: SelfMetric = SelfMetric {
    name: "OVERHEAD_CYCLES_RATIO",
    descr: "fraction of run cycles spent inside the library",
    compute: |snap, ctx| {
        let own = snap.get("cycles", "in_read").unwrap_or(0)
            + snap.get("cycles", "in_start_stop").unwrap_or(0)
            + snap.get("cycles", "in_mpx_rotate").unwrap_or(0);
        if ctx.total_cycles == 0 {
            0.0
        } else {
            own as f64 / ctx.total_cycles as f64
        }
    },
};

/// The self-metric catalogue.
pub const ALL_SELF: &[SelfMetric] = &[MPX_ROTATIONS_PER_MS, OVERHEAD_CYCLES_RATIO];

/// The unique presets a set of derived metrics needs, in a stable order.
pub fn required_presets(metrics: &[DerivedMetric]) -> Vec<Preset> {
    let mut set = BTreeSet::new();
    for m in metrics {
        set.insert(m.num);
        set.insert(m.den);
    }
    set.into_iter().collect()
}

/// The subset of `metrics` whose presets this platform can count.
pub fn supported<S: Substrate>(papi: &Papi<S>, metrics: &[DerivedMetric]) -> Vec<DerivedMetric> {
    metrics
        .iter()
        .copied()
        .filter(|m| papi.query_event(m.num.code()) && papi.query_event(m.den.code()))
        .collect()
}

/// Measure the requested derived metrics over a full application run:
/// plans the preset set, counts (multiplexing on conflict), runs the app
/// to completion and returns `(metric, value)` pairs.
pub fn measure<S: Substrate>(
    papi: &mut Papi<S>,
    metrics: &[DerivedMetric],
) -> Result<Vec<(DerivedMetric, f64)>> {
    let usable = supported(papi, metrics);
    if usable.is_empty() {
        return Err(PapiError::NoEvnt(0));
    }
    let presets = required_presets(&usable);
    let codes: Vec<u32> = presets.iter().map(|p| p.code()).collect();
    let set = papi.create_eventset();
    papi.add_events(set, &codes)?;
    start_or_multiplex(papi, set)?;
    papi.run_app()?;
    let counts = papi.stop(set)?;
    let _ = papi.destroy_eventset(set);
    let value_of = |p: Preset| -> i64 {
        let i = presets.iter().position(|&x| x == p).unwrap();
        counts[i]
    };
    Ok(usable
        .into_iter()
        .map(|m| {
            let v = m.compute(value_of(m.num), value_of(m.den));
            (m, v)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use papi_core::SimSubstrate;
    use papi_workloads::{matmul, pointer_chase};
    use simcpu::platform::{sim_generic, sim_t3e};
    use simcpu::Machine;

    fn papi_on(spec: simcpu::PlatformSpec, prog: simcpu::Program) -> Papi<SimSubstrate> {
        let mut m = Machine::new(spec, 6);
        m.load(prog);
        Papi::init(SimSubstrate::new(m)).unwrap()
    }

    #[test]
    fn required_presets_deduplicated() {
        let r = required_presets(&[IPC, STALL_FRACTION, FLOPS_PER_CYCLE]);
        // TOT_CYC shared by all three
        assert_eq!(r.iter().filter(|&&p| p == Preset::TotCyc).count(), 1);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn compute_handles_zero_denominator() {
        assert_eq!(IPC.compute(100, 0), 0.0);
        assert!((L1D_MPKI.compute(5, 1000) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn supported_filters_by_platform() {
        let p = papi_on(sim_t3e(), matmul(8).program);
        let s = supported(&p, ALL_DERIVED);
        // t3e has no TLB/L2/stall events but does have branches and FP ops.
        assert!(s.iter().any(|m| m.name == "IPC"));
        assert!(s.iter().any(|m| m.name == "FLOPS_PER_CYCLE"));
        assert!(!s.iter().any(|m| m.name == "STALL_FRACTION"));
    }

    #[test]
    fn measure_matmul_metrics_sane() {
        let mut p = papi_on(sim_generic(), matmul(24).program);
        let vals = measure(&mut p, ALL_DERIVED).unwrap();
        let get = |n: &str| {
            vals.iter()
                .find(|(m, _)| m.name == n)
                .map(|&(_, v)| v)
                .unwrap()
        };
        let ipc = get("IPC");
        assert!(ipc > 0.0 && ipc <= 1.0, "ipc {ipc}");
        let fpc = get("FLOPS_PER_CYCLE");
        assert!(fpc > 0.0 && fpc < 2.0);
        let br = get("BR_MISS_RATE");
        assert!(br < 0.05, "matmul branches are predictable: {br}");
    }

    #[test]
    fn self_metric_mpx_rotation_rate_matches_period() {
        use papi_core::substrate::Substrate as _;
        // sim-x86 at 1000 MHz with the default 100k-cycle period rotates
        // every 100 us => ~10 rotations per millisecond.
        let spec = simcpu::platform::sim_x86();
        let clock_mhz = spec.clock_mhz as u64;
        let mut p = papi_on(spec, papi_workloads::dense_fp(300_000, 4, 1).program);
        let obs = papi_obs::Obs::new();
        p.attach_obs(obs.clone());
        let set = p.create_eventset();
        for ev in [
            Preset::FdvIns,
            Preset::FmaIns,
            Preset::FpOps,
            Preset::TotIns,
        ] {
            p.add_event(set, ev.code()).unwrap();
        }
        p.set_multiplex(set).unwrap();
        p.start(set).unwrap();
        p.run_app().unwrap();
        p.stop(set).unwrap();
        let ctx = SelfMetricContext {
            total_cycles: p.substrate().real_cycles(),
            clock_mhz,
        };
        let rate = MPX_ROTATIONS_PER_MS.compute(&obs.snapshot(), &ctx);
        assert!(
            (6.0..=14.0).contains(&rate),
            "expected ~10 rotations/ms, got {rate:.2}"
        );
    }

    #[test]
    fn self_metric_overhead_ratio_matches_external_measurement() {
        use papi_core::substrate::Substrate as _;
        use papi_core::AppExit;
        // Baseline: the same program uninstrumented.
        let prog = matmul(24).program;
        let baseline = {
            let mut m = Machine::new(sim_generic(), 6);
            m.load(prog.clone());
            m.run_to_halt();
            m.cycles()
        };
        // Instrumented: periodic reads generate measurable overhead.
        let mut p = papi_on(sim_generic(), prog);
        let obs = papi_obs::Obs::new();
        p.attach_obs(obs.clone());
        let set = p.create_eventset();
        p.add_event(set, Preset::TotCyc.code()).unwrap();
        p.start(set).unwrap();
        while !matches!(p.run_for(10_000).unwrap(), AppExit::Halted) {
            let _ = p.read(set).unwrap();
        }
        p.stop(set).unwrap();
        let total = p.substrate().real_cycles();
        let ctx = SelfMetricContext {
            total_cycles: total,
            clock_mhz: 1000,
        };
        let ratio = OVERHEAD_CYCLES_RATIO.compute(&obs.snapshot(), &ctx);
        assert!(ratio > 0.0 && ratio < 0.5, "ratio {ratio}");
        // The self-accounted overhead must explain the externally observed
        // cycle inflation over the uninstrumented baseline.
        let external = (total - baseline) as f64 / total as f64;
        let dev = (ratio - external).abs() / external;
        assert!(
            dev < 0.10,
            "self-accounted {ratio:.4} vs external {external:.4} (dev {dev:.2})"
        );
    }

    #[test]
    fn chase_shows_memory_bound_signature() {
        let mut p = papi_on(sim_generic(), pointer_chase(4 << 20, 100_000).program);
        let vals = measure(&mut p, &[IPC, L1D_MISS_RATE, STALL_FRACTION]).unwrap();
        let get = |n: &str| {
            vals.iter()
                .find(|(m, _)| m.name == n)
                .map(|&(_, v)| v)
                .unwrap()
        };
        assert!(get("L1D_MISS_RATE") > 0.9);
        assert!(get("STALL_FRACTION") > 0.5);
        assert!(get("IPC") < 0.3);
    }
}
