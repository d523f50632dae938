//! # papi-model — counter-parameterized performance prediction
//!
//! §5 of the paper: "we plan to collaborate with performance modeling
//! projects such as that described in \[12\] in using PAPI to collect data
//! for parameterizing predictive performance models." Reference \[12\] is the
//! Snavely et al. convolution framework: a *machine signature* (unit costs
//! measured by micro-benchmarks) convolved with an *application signature*
//! (operation counts) predicts execution time.
//!
//! This crate implements that first-order convolution, with both signature
//! halves collected **through the portable counter interface**:
//!
//! * [`probe_machine`] runs micro-kernels (FP-dense, L1-resident stream,
//!   L2-resident stream, memory-bound pointer chase, predictable and
//!   unpredictable branch kernels) and derives per-operation cycle costs
//!   from `PAPI_TOT_CYC` and the operation counters;
//! * [`measure_app`] counts an application's operation mix (instructions,
//!   FP, loads/stores, cache misses, branches, mispredictions) — one
//!   deterministic counting run per preset, through the validator's direct
//!   mode (`papi_tools::validate::measure_direct`), as the calibrate
//!   utility counts;
//! * [`predict_cycles`] convolves the two;
//! * [`validate`] scores predictions against actual simulated cycles.
//!
//! Missing events degrade gracefully: a platform that cannot count L2
//! misses contributes no L2 term — and correspondingly worse predictions,
//! which is itself a finding about counter coverage.

use papi_core::{BoxSubstrate, Preset, SimSubstrate, SubstrateRegistry};
use papi_tools::validate::measure_direct;
use papi_workloads::Workload;
use simcpu::PlatformSpec;

/// Per-operation cycle costs measured on one platform.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSignature {
    pub platform: String,
    /// Cycles per plain (integer/other) instruction.
    pub cost_other: f64,
    /// Cycles per FP instruction (issue + fetch share).
    pub cost_fp: f64,
    /// Cycles per load that hits L1.
    pub cost_load_hit: f64,
    /// *Additional* cycles per L1 data miss (L2 hit).
    pub cost_l1_miss: f64,
    /// *Additional* cycles per L2 miss (memory access).
    pub cost_l2_miss: f64,
    /// *Additional* cycles per data-TLB miss (page-table walk).
    pub cost_tlb: f64,
    /// *Additional* cycles per mispredicted branch.
    pub cost_mispredict: f64,
}

papi_obs::json_struct!(MachineSignature {
    platform,
    cost_other,
    cost_fp,
    cost_load_hit,
    cost_l1_miss,
    cost_l2_miss,
    cost_tlb,
    cost_mispredict,
});

/// An application's operation mix, as counted by the portable interface.
/// `None` = the platform could not count that event.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AppSignature {
    pub workload: String,
    pub tot_ins: Option<i64>,
    pub fp_ins: Option<i64>,
    pub loads: Option<i64>,
    pub stores: Option<i64>,
    pub l1_dcm: Option<i64>,
    pub l2_tcm: Option<i64>,
    pub tlb_dm: Option<i64>,
    pub br_ins: Option<i64>,
    pub br_msp: Option<i64>,
    /// Actual total cycles of the counting run (ground truth for
    /// validation; not used by the prediction).
    pub actual_cycles: i64,
}

/// A registry holding `spec` alone, under its own name, for the
/// validator's direct mode to open sessions on.
fn registry_of(spec: &PlatformSpec) -> SubstrateRegistry {
    let mut reg = SubstrateRegistry::new();
    let model = spec.clone();
    reg.register(
        spec.name,
        spec.model,
        Box::new(move |seed| {
            Ok(Box::new(SimSubstrate::for_platform(model.clone(), seed)) as BoxSubstrate)
        }),
    );
    reg
}

/// Count the application signature on `spec` (one deterministic run per
/// preset, so no multiplexing estimates pollute the model input).
pub fn measure_app(spec: &PlatformSpec, w: &Workload, seed: u64) -> AppSignature {
    let reg = registry_of(spec);
    let count = |preset| measure_direct(&reg, spec.name, w, preset, seed);
    AppSignature {
        workload: w.name.to_string(),
        tot_ins: count(Preset::TotIns),
        fp_ins: count(Preset::FpIns),
        loads: count(Preset::LdIns),
        stores: count(Preset::SrIns),
        l1_dcm: count(Preset::L1Dcm),
        l2_tcm: count(Preset::L2Tcm),
        tlb_dm: count(Preset::TlbDm),
        br_ins: count(Preset::BrIns),
        br_msp: count(Preset::BrMsp),
        actual_cycles: count(Preset::TotCyc).unwrap_or(0),
    }
}

/// Cycles and a chosen event count for one probe kernel.
fn probe(spec: &PlatformSpec, w: &Workload, seed: u64) -> (f64, AppSignature) {
    let sig = measure_app(spec, w, seed);
    (sig.actual_cycles as f64, sig)
}

/// Measure a platform's machine signature with PAPI micro-benchmarks.
pub fn probe_machine(spec: &PlatformSpec, seed: u64) -> MachineSignature {
    // 1. Plain-instruction cost: a predictable branchy integer kernel.
    let (cyc, sig) = probe(spec, &papi_workloads::branchy(40_000, 0), seed);
    let cost_other = cyc / sig.tot_ins.unwrap_or(1).max(1) as f64;

    // 2. FP cost from the dense kernel (subtract the loop-branch share).
    let (cyc, sig) = probe(spec, &papi_workloads::dense_fp(40_000, 4, 2), seed);
    let ins = sig.tot_ins.unwrap_or(0) as f64;
    let fp = sig.fp_ins.unwrap_or(0) as f64;
    let cost_fp = if fp > 0.0 {
        (cyc - (ins - fp) * cost_other) / fp
    } else {
        cost_other
    };

    // 3. L1-hit load cost: a stream that fits L1 comfortably. Many passes,
    // so the cold-miss transient is amortized away.
    let (cyc, sig) = probe(spec, &papi_workloads::stream_copy(4 * 1024, 600), seed);
    let ins = sig.tot_ins.unwrap_or(0) as f64;
    let mem_ops = (sig.loads.unwrap_or(0) + sig.stores.unwrap_or(0)) as f64;
    let cost_load_hit = if mem_ops > 0.0 {
        ((cyc - (ins - mem_ops) * cost_other) / mem_ops).max(cost_other)
    } else {
        cost_other
    };

    // 4. Additional L1-miss cost: an L2-resident stream (again long enough
    // that the cold pass is noise).
    let (cyc, sig) = probe(spec, &papi_workloads::stream_copy(64 * 1024, 60), seed);
    let mem_ops = (sig.loads.unwrap_or(0) + sig.stores.unwrap_or(0)) as f64;
    let ins = sig.tot_ins.unwrap_or(0) as f64;
    let misses = sig.l1_dcm.unwrap_or(0) as f64;
    let cost_l1_miss = if misses > 0.0 {
        ((cyc - (ins - mem_ops) * cost_other - mem_ops * cost_load_hit) / misses).max(0.0)
    } else {
        0.0
    };

    // 5. Additional L2-miss cost: an L2-busting *sequential* stream, so
    // the TLB stays quiet and the residual is pure memory latency. On
    // platforms that cannot count L2 misses the term is 0 — the model
    // degrades, which the validation surfaces as error.
    let (cyc, sig) = probe(spec, &papi_workloads::stream_copy(2 << 20, 6), seed);
    let mem_ops = (sig.loads.unwrap_or(0) + sig.stores.unwrap_or(0)) as f64;
    let ins = sig.tot_ins.unwrap_or(0) as f64;
    let l1m = sig.l1_dcm.unwrap_or(0) as f64;
    let cost_l2_miss = match sig.l2_tcm {
        Some(l2m) if l2m > 0 => {
            ((cyc - (ins - mem_ops) * cost_other - mem_ops * cost_load_hit - l1m * cost_l1_miss)
                / l2m as f64)
                .max(0.0)
        }
        _ => 0.0,
    };

    // 5b. TLB-walk cost: the pointer chase misses the DTLB on essentially
    // every access; the residual beyond the cache terms is the walk.
    let (cyc, sig) = probe(spec, &papi_workloads::pointer_chase(8 << 20, 60_000), seed);
    let ins = sig.tot_ins.unwrap_or(0) as f64;
    let loads = sig.loads.unwrap_or(0) as f64;
    let l1m = sig.l1_dcm.unwrap_or(0) as f64;
    let l2m = sig.l2_tcm.unwrap_or(0) as f64;
    let cost_tlb = match sig.tlb_dm {
        Some(t) if t > 0 => ((cyc
            - (ins - loads) * cost_other
            - loads * cost_load_hit
            - l1m * cost_l1_miss
            - l2m * cost_l2_miss)
            / t as f64)
            .max(0.0),
        _ => 0.0,
    };

    // 6. Misprediction cost: unpredictable vs predictable branches.
    let (cyc_bad, sig_bad) = probe(spec, &papi_workloads::branchy(40_000, 128), seed);
    let (cyc_good, _) = probe(spec, &papi_workloads::branchy(40_000, 0), seed);
    let extra_msp = sig_bad.br_msp.unwrap_or(0) as f64;
    // The taken path also executes one extra instruction per taken branch;
    // remove that from the delta before attributing to mispredicts.
    let taken = 40_000.0 * 0.5;
    let cost_mispredict = if extra_msp > 1.0 {
        ((cyc_bad - cyc_good - taken * cost_other) / extra_msp).max(0.0)
    } else {
        0.0
    };

    MachineSignature {
        platform: spec.name.to_string(),
        cost_other,
        cost_fp,
        cost_load_hit,
        cost_l1_miss,
        cost_l2_miss,
        cost_tlb,
        cost_mispredict,
    }
}

/// Convolve a machine signature with an application signature: predicted
/// total cycles.
pub fn predict_cycles(m: &MachineSignature, a: &AppSignature) -> f64 {
    let ins = a.tot_ins.unwrap_or(0) as f64;
    let fp = a.fp_ins.unwrap_or(0) as f64;
    let loads = a.loads.unwrap_or(0) as f64;
    let stores = a.stores.unwrap_or(0) as f64;
    let mem = loads + stores;
    let other = (ins - fp - mem).max(0.0);
    other * m.cost_other
        + fp * m.cost_fp
        + mem * m.cost_load_hit
        + a.l1_dcm.unwrap_or(0) as f64 * m.cost_l1_miss
        + a.l2_tcm.unwrap_or(0) as f64 * m.cost_l2_miss
        + a.tlb_dm.unwrap_or(0) as f64 * m.cost_tlb
        + a.br_msp.unwrap_or(0) as f64 * m.cost_mispredict
}

/// One validation row.
#[derive(Debug, Clone, PartialEq)]
pub struct Validation {
    pub platform: String,
    pub workload: String,
    pub predicted: f64,
    pub actual: f64,
    /// Signed relative error.
    pub rel_error: f64,
    /// Number of signature events the platform could not count.
    pub missing_events: usize,
}

/// Validate the model: predict every workload on every platform and compare
/// with the actual simulated cycles.
pub fn validate(specs: &[PlatformSpec], workloads: &[Workload], seed: u64) -> Vec<Validation> {
    let mut rows = Vec::new();
    for spec in specs {
        let machine = probe_machine(spec, seed);
        for w in workloads {
            let app = measure_app(spec, w, seed.wrapping_add(1));
            let predicted = predict_cycles(&machine, &app);
            let actual = app.actual_cycles as f64;
            let missing = [
                app.tot_ins,
                app.fp_ins,
                app.loads,
                app.stores,
                app.l1_dcm,
                app.l2_tcm,
                app.tlb_dm,
                app.br_ins,
                app.br_msp,
            ]
            .iter()
            .filter(|o| o.is_none())
            .count();
            rows.push(Validation {
                platform: spec.name.to_string(),
                workload: w.name.to_string(),
                predicted,
                actual,
                rel_error: if actual > 0.0 {
                    (predicted - actual) / actual
                } else {
                    0.0
                },
                missing_events: missing,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcpu::platform::{sim_generic, sim_ia64, sim_t3e, sim_x86};

    #[test]
    fn machine_signature_is_sane() {
        let sig = probe_machine(&sim_generic(), 3);
        assert!(sig.cost_other >= 1.0 && sig.cost_other < 3.0, "{sig:?}");
        assert!(sig.cost_fp >= 1.0 && sig.cost_fp < 4.0, "{sig:?}");
        assert!(sig.cost_load_hit >= sig.cost_other, "{sig:?}");
        // The memory hierarchy must be visible in the costs.
        assert!(sig.cost_l1_miss > 1.0, "{sig:?}");
        assert!(sig.cost_l2_miss > sig.cost_l1_miss, "{sig:?}");
        assert!(sig.cost_tlb > 1.0, "{sig:?}");
        assert!(sig.cost_mispredict > 1.0, "{sig:?}");
    }

    #[test]
    fn t3e_register_costs_differ_from_generic() {
        // Signatures are per-platform: the in-order T3E shows the full L1
        // miss penalty (no overlap), the OoO generic hides most of it; and
        // with no L2 events the T3E model simply has no L2 term.
        let t3e = probe_machine(&sim_t3e(), 3);
        let gen = probe_machine(&sim_generic(), 3);
        assert!(
            t3e.cost_l1_miss > gen.cost_l1_miss,
            "t3e {t3e:?} vs gen {gen:?}"
        );
        assert_eq!(t3e.cost_l2_miss, 0.0, "no L2 events -> no L2 term");
        assert!(gen.cost_l2_miss > 0.0);
    }

    #[test]
    fn prediction_accurate_on_fp_kernel() {
        let spec = sim_generic();
        let m = probe_machine(&spec, 5);
        let app = measure_app(&spec, &papi_workloads::dense_fp(30_000, 3, 1), 6);
        let pred = predict_cycles(&m, &app);
        let err = (pred - app.actual_cycles as f64).abs() / app.actual_cycles as f64;
        assert!(
            err < 0.10,
            "err {err}: pred {pred} vs {}",
            app.actual_cycles
        );
    }

    #[test]
    fn prediction_accurate_on_memory_kernel() {
        let spec = sim_ia64();
        let m = probe_machine(&spec, 5);
        let app = measure_app(&spec, &papi_workloads::pointer_chase(4 << 20, 50_000), 6);
        let pred = predict_cycles(&m, &app);
        let err = (pred - app.actual_cycles as f64).abs() / app.actual_cycles as f64;
        assert!(err < 0.15, "err {err}");
    }

    #[test]
    fn validation_matrix_mostly_tight() {
        let specs = vec![sim_x86(), sim_ia64(), sim_generic()];
        let workloads = vec![
            papi_workloads::matmul(24),
            papi_workloads::stream_copy(1 << 18, 2),
            papi_workloads::cg_like(128, 8, 2),
        ];
        let rows = validate(&specs, &workloads, 9);
        assert_eq!(rows.len(), 9);
        let within = rows.iter().filter(|r| r.rel_error.abs() < 0.25).count();
        assert!(
            within * 10 >= rows.len() * 7,
            "only {within}/{} within 25%: {rows:#?}",
            rows.len()
        );
    }

    #[test]
    fn missing_events_reported() {
        // sim-t3e cannot count L1_DCM? It can (DCACHE_MISS) but not L2/TLB.
        let app = measure_app(&sim_t3e(), &papi_workloads::matmul(12), 2);
        assert!(app.l2_tcm.is_none(), "t3e has no L2 events");
        assert!(app.tot_ins.is_some());
    }

    #[test]
    fn signatures_serialize() {
        let sig = probe_machine(&sim_t3e(), 1);
        let j = papi_obs::json::ToJson::to_json(&sig).to_compact();
        let back: MachineSignature = papi_obs::json::from_str(&j).unwrap();
        assert_eq!(back.platform, sig.platform);
        for (a, b) in [
            (back.cost_other, sig.cost_other),
            (back.cost_fp, sig.cost_fp),
            (back.cost_load_hit, sig.cost_load_hit),
            (back.cost_l1_miss, sig.cost_l1_miss),
            (back.cost_l2_miss, sig.cost_l2_miss),
            (back.cost_mispredict, sig.cost_mispredict),
        ] {
            assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "{a} vs {b}");
        }
    }
}
