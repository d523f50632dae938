//! Accuracy integration tests: the §4 claims, end to end.

use papi_suite::papi::{sampling, Papi, Preset, ProfilConfig, SimSubstrate};
use papi_suite::tools::{
    default_platforms, full_registry, run_calibration, CalRow, Dynaprof, ProbeMetric,
};
use papi_suite::workloads::{dense_fp, tight_calls};
use simcpu::platform::{sim_alpha, sim_generic, sim_ia64, sim_x86};
use simcpu::{EventKind, Machine, Program, SampleConfig};

/// The E4 sweep at seed 9: every built-in platform through
/// `papi_calibrate`'s entry point.
fn calibrate_builtins() -> Vec<CalRow> {
    let reg = std::sync::Arc::new(full_registry());
    run_calibration(&reg, &default_platforms(&reg), 9).expect("built-in platforms calibrate")
}

#[test]
fn multiplex_error_shrinks_with_runtime() {
    // §2: estimates converge only with sufficient runtime.
    let err_at = |iters: u32| -> f64 {
        let mut m = Machine::new(sim_x86(), 33);
        let mut b = simcpu::ProgramBuilder::new();
        b.func("main", |f| {
            f.loop_(iters, |f| {
                f.ffma(3);
                f.fdiv(1);
                f.load(simcpu::AddrGen::Stride {
                    base: 0x10_0000,
                    stride: 64,
                    len: 1 << 16,
                });
            });
        });
        m.load(b.build("main"));
        let mut papi = Papi::init(SimSubstrate::new(m)).unwrap();
        let set = papi.create_eventset();
        for p in [Preset::FmaIns, Preset::FpOps, Preset::FdvIns, Preset::LdIns] {
            papi.add_event(set, p.code()).unwrap();
        }
        papi.set_multiplex(set).unwrap();
        papi.start(set).unwrap();
        papi.run_app().unwrap();
        let v = papi.stop(set).unwrap();
        let it = iters as i64;
        let errs = [
            (v[0] - 3 * it).abs() as f64 / (3 * it) as f64, // FMA
            (v[2] - it).abs() as f64 / it as f64,           // FDV
            (v[3] - it).abs() as f64 / it as f64,           // LD
        ];
        errs.into_iter().fold(0.0, f64::max)
    };
    let short = err_at(5_000);
    let long = err_at(1_000_000);
    assert!(long < 0.05, "long-run multiplex error {long}");
    assert!(
        short > 2.0 * long,
        "short {short} should be much worse than long {long}"
    );
}

#[test]
fn sampling_estimates_with_lower_overhead_than_reads() {
    // §4: "aggregate event counts can be estimated from sampling data with
    // lower overhead than direct counting" — compare wall cycles of a run
    // with frequent direct reads vs a sampled run on the DCPI-like
    // substrate.
    let build = || {
        let mut m = Machine::new(sim_alpha(), 55);
        m.load(dense_fp(50_000, 4, 0).program);
        Papi::init(SimSubstrate::new(m)).unwrap()
    };

    // Direct: read the counter 500 times during the run.
    let mut direct = build();
    let set = direct.create_eventset();
    direct.add_event(set, Preset::TotIns.code()).unwrap();
    direct.start(set).unwrap();
    for _ in 0..500 {
        let _ = direct.read(set).unwrap();
    }
    direct.run_app().unwrap();
    let _ = direct.stop(set).unwrap();
    let direct_cycles = direct.get_real_cyc();

    // Sampled: no reads; estimate from ProfileMe samples.
    let mut sampled = build();
    let set = sampled.create_eventset();
    sampled.add_event(set, Preset::TotCyc.code()).unwrap();
    sampled
        .start_sampling(SampleConfig {
            period: 512,
            jitter: 64,
            buffer_capacity: 512,
        })
        .unwrap();
    sampled.start(set).unwrap();
    sampled.run_app().unwrap();
    sampled.stop(set).unwrap();
    let samples = sampled.stop_sampling().unwrap();
    let sampled_cycles = sampled.get_real_cyc();

    let est = sampling::estimate_count(&samples, 512, EventKind::FpFma);
    let err = (est as f64 - 200_000.0).abs() / 200_000.0;
    assert!(err < 0.1, "sampled estimate off by {err}");
    assert!(
        sampled_cycles < direct_cycles,
        "sampling ({sampled_cycles}) should cost less than 500 reads ({direct_cycles})"
    );
}

#[test]
fn attribution_precise_sampling_beats_skidded_pc() {
    // §4: overflow-PC profiles mis-attribute on OoO; EAR/ProfileMe samples
    // attribute exactly. Compare both against ground truth for the same
    // FMA-at-known-PCs workload.
    let prog = dense_fp(200_000, 2, 2).program;
    // Ground truth: the two FMA instructions are at indices 0 and 1.
    let fma_pcs: Vec<u64> = vec![Program::pc_of(0), Program::pc_of(1)];

    // --- skidded overflow-PC profile on the big-window OoO alpha ---
    let mut m = Machine::new(sim_alpha(), 77);
    m.load(prog.clone());
    let mut papi = Papi::init(SimSubstrate::new(m)).unwrap();
    let set = papi.create_eventset();
    let fp = papi.event_name_to_code("retinst_fp").unwrap();
    papi.add_event(set, fp).unwrap();
    let pid = papi
        .profil(
            set,
            fp,
            ProfilConfig {
                start: simcpu::TEXT_BASE,
                end: Program::pc_of(64),
                bucket_bytes: 4,
                threshold: 400,
            },
        )
        .unwrap();
    papi.start(set).unwrap();
    papi.run_app().unwrap();
    papi.stop(set).unwrap();
    let prof = papi.profil_histogram(pid).unwrap();
    let on_target: u64 = fma_pcs
        .iter()
        .map(|&pc| prof.buckets()[((pc - simcpu::TEXT_BASE) / 4) as usize])
        .sum();
    let total = prof.total_samples();
    let skid_accuracy = on_target as f64 / total as f64;

    // --- precise ProfileMe profile on the same machine ---
    let mut m = Machine::new(sim_alpha(), 77);
    m.load(prog);
    let mut papi = Papi::init(SimSubstrate::new(m)).unwrap();
    let set = papi.create_eventset();
    papi.add_event(set, Preset::TotCyc.code()).unwrap();
    papi.start_sampling(SampleConfig {
        period: 400,
        jitter: 50,
        buffer_capacity: 512,
    })
    .unwrap();
    papi.start(set).unwrap();
    papi.run_app().unwrap();
    papi.stop(set).unwrap();
    let samples = papi.stop_sampling().unwrap();
    let fp_samples: Vec<_> = samples.iter().filter(|s| s.has(EventKind::FpFma)).collect();
    let exact_on_target = fp_samples
        .iter()
        .filter(|s| fma_pcs.contains(&s.pc))
        .count() as f64
        / fp_samples.len().max(1) as f64;

    assert!(
        skid_accuracy < 0.7,
        "OoO skid should smear attribution, got {skid_accuracy}"
    );
    assert!(
        (exact_on_target - 1.0).abs() < f64::EPSILON,
        "precise samples must attribute exactly, got {exact_on_target}"
    );
}

#[test]
fn in_order_pc_attribution_is_tight() {
    // On the in-order Itanium-like platform the same overflow-PC profile is
    // nearly exact (skid 0..2 instructions).
    let prog = dense_fp(100_000, 2, 2).program;
    let mut m = Machine::new(sim_ia64(), 13);
    m.load(prog);
    let mut papi = Papi::init(SimSubstrate::new(m)).unwrap();
    let set = papi.create_eventset();
    papi.add_event(set, Preset::FmaIns.code()).unwrap();
    let pid = papi
        .profil(
            set,
            Preset::FmaIns.code(),
            ProfilConfig {
                start: simcpu::TEXT_BASE,
                end: Program::pc_of(64),
                bucket_bytes: 4,
                threshold: 500,
            },
        )
        .unwrap();
    papi.start(set).unwrap();
    papi.run_app().unwrap();
    papi.stop(set).unwrap();
    let prof = papi.profil_histogram(pid).unwrap();
    // With skid <= 2 every sample lands within 3 instructions of an FMA
    // (indices 0..=3 cover FMA+skid inside the 5-inst loop).
    let near: u64 = prof.buckets()[..5.min(prof.buckets().len())].iter().sum();
    let frac = near as f64 / prof.total_samples() as f64;
    assert!(
        frac > 0.95,
        "in-order attribution should stay in the loop, got {frac}"
    );
}

#[test]
fn data_ears_separate_code_and_data_attribution() {
    // §4: EARs identify instruction *and data* addresses. A pointer chase
    // has ONE hot load instruction but misses spread over thousands of data
    // pages — code-centric and data-centric profiles must show exactly that.
    use papi_suite::papi::sampling::data_profile_from_samples;
    let mut b = simcpu::ProgramBuilder::new();
    b.func("main", |f| {
        f.loop_(150_000, |f| {
            f.load(simcpu::AddrGen::Chase {
                base: 0x100_0000,
                len: 8 << 20,
            });
        });
    });
    let mut m = Machine::new(sim_ia64(), 21);
    m.load(b.build("main"));
    let mut papi = Papi::init(SimSubstrate::new(m)).unwrap();
    let set = papi.create_eventset();
    papi.add_event(set, Preset::TotCyc.code()).unwrap();
    papi.start_sampling(SampleConfig {
        period: 300,
        jitter: 30,
        buffer_capacity: 512,
    })
    .unwrap();
    papi.start(set).unwrap();
    papi.run_app().unwrap();
    papi.stop(set).unwrap();
    let samples = papi.stop_sampling().unwrap();
    // Code-centric: all miss samples name the single load instruction.
    let miss_pcs: std::collections::HashSet<u64> = samples
        .iter()
        .filter(|s| s.has(EventKind::L1DMiss))
        .map(|s| s.pc)
        .collect();
    assert_eq!(
        miss_pcs.len(),
        1,
        "one hot load instruction, got {miss_pcs:?}"
    );
    // Data-centric: the same samples cover many distinct 4 KiB pages.
    let dp = data_profile_from_samples(&samples, EventKind::L1DMiss, 4096);
    assert!(
        dp.len() > 100,
        "chase should touch many pages, got {}",
        dp.len()
    );
    // All data addresses are inside the chase region.
    for &(page, _) in &dp {
        assert!(
            (0x100_0000..0x100_0000 + (8 << 20)).contains(&page),
            "{page:#x}"
        );
    }
}

#[test]
fn instrumentation_overhead_direct_vs_sampling_shape() {
    // E3 shape at integration level: per-call direct reads on sim-x86 cost
    // tens of percent; buffered sampling on sim-alpha costs a few percent.
    // The run must be long enough to amortize one-time setup costs, as the
    // paper's measurements were.
    let w = tight_calls(200_000, 4);

    // Baseline cycles (uninstrumented) per platform.
    let baseline = |spec: simcpu::PlatformSpec| {
        let mut m = Machine::new(spec, 2);
        m.load(w.program.clone());
        m.run_to_halt();
        m.cycles()
    };

    // Direct-counting instrumentation on x86 (probe reads each entry/exit).
    let x86_base = baseline(sim_x86());
    let mut dp = Dynaprof::load(w.program.clone());
    let iprog = dp.instrument(&["leaf"]).unwrap();
    let mut m = Machine::new(sim_x86(), 2);
    m.load(iprog);
    let mut papi = Papi::init(SimSubstrate::new(m)).unwrap();
    dp.run(&mut papi, ProbeMetric::Papi(Preset::TotIns.code()))
        .unwrap();
    let x86_overhead = (papi.get_real_cyc() as f64 - x86_base as f64) / x86_base as f64;

    // Sampling-based observation on alpha: no per-call reads at all.
    let alpha_base = baseline(sim_alpha());
    let mut m = Machine::new(sim_alpha(), 2);
    m.load(w.program.clone());
    let mut papi = Papi::init(SimSubstrate::new(m)).unwrap();
    let set = papi.create_eventset();
    papi.add_event(set, Preset::TotCyc.code()).unwrap();
    papi.start_sampling(SampleConfig {
        period: 2048,
        jitter: 256,
        buffer_capacity: 512,
    })
    .unwrap();
    papi.start(set).unwrap();
    papi.run_app().unwrap();
    papi.stop(set).unwrap();
    let _ = papi.stop_sampling().unwrap();
    let alpha_overhead = (papi.get_real_cyc() as f64 - alpha_base as f64) / alpha_base as f64;

    assert!(
        x86_overhead > 0.15,
        "direct counting should be heavy: {x86_overhead}"
    );
    assert!(
        alpha_overhead < 0.05,
        "sampling should be light: {alpha_overhead}"
    );
}

#[test]
fn measurement_perturbs_the_cache() {
    // The act of measuring perturbs the measured program: mid-run reads
    // pollute the cache and increase the workload's own misses.
    let misses_with_reads = |n_reads: u32| -> i64 {
        let mut b = simcpu::ProgramBuilder::new();
        // A working set that just fits L1: pollution causes extra misses.
        b.func("main", |f| {
            f.loop_(40_000, |f| {
                f.load(simcpu::AddrGen::Stride {
                    base: 0x10_0000,
                    stride: 64,
                    len: 14 * 1024,
                });
            });
        });
        let mut m = Machine::new(sim_generic(), 4);
        m.load(b.build("main"));
        let mut papi = Papi::init(SimSubstrate::new(m)).unwrap();
        let set = papi.create_eventset();
        papi.add_event(set, Preset::L1Dcm.code()).unwrap();
        papi.start(set).unwrap();
        // Interleave reads with execution (as a naive per-interval monitor
        // would): each read crosses the kernel and pollutes L1.
        let mut reads_left = n_reads;
        loop {
            match papi.run_for(10_000).unwrap() {
                papi_suite::papi::AppExit::Halted => break,
                _ => {
                    if reads_left > 0 {
                        let _ = papi.read(set).unwrap();
                        reads_left -= 1;
                    }
                }
            }
        }
        papi.stop(set).unwrap()[0]
    };
    let quiet = misses_with_reads(0);
    let noisy = misses_with_reads(400);
    assert!(
        noisy > quiet,
        "cache pollution must be visible: {noisy} vs {quiet}"
    );
}

#[test]
fn calibration_stays_inside_the_recorded_experiment_envelope() {
    // Regression lock on E4 (EXPERIMENTS.md): the calibration sweep's
    // aggregate accuracy must never drift from what was recorded there —
    // 235 measurements, all 210 exact mappings analytically exact ("event
    // counts converge to the expected value"), 25 inexact-flagged supersets
    // that never undercount and of which exactly 8 differ, worst-case
    // overcount the POWER3 convert/rounding anecdote (+33.3 %).
    let rows = calibrate_builtins();
    assert_eq!(rows.len(), 235, "calibration sweep changed shape");

    let (exact, inexact): (Vec<_>, Vec<_>) = rows.iter().partition(|r| !r.inexact_mapping);
    assert_eq!(exact.len(), 210);
    assert_eq!(inexact.len(), 25);
    for r in &exact {
        assert!(
            r.pass(),
            "{}/{}/{}: exact mapping drifted: measured {} expected {}",
            r.platform,
            r.workload,
            r.preset.name(),
            r.measured,
            r.expected
        );
    }
    let differing = inexact.iter().filter(|r| !r.pass()).count();
    assert_eq!(differing, 8, "inexact-mapping mismatch count drifted");
    for r in &inexact {
        // Superset mappings overcount, never undercount, and by at most
        // 2× (T3E counts FMA as two FP instructions; the one zero-expected
        // row — ultra FMA on convert_mix — is excluded from the ratio).
        assert!(
            r.measured >= r.expected,
            "{}/{}/{}: superset mapping undercounted",
            r.platform,
            r.workload,
            r.preset.name()
        );
        if r.expected > 0 {
            let e = r.rel_error();
            assert!(
                e <= 1.0001,
                "{}/{}/{}: inexact mapping outside the recorded envelope: {:.4}",
                r.platform,
                r.workload,
                r.preset.name(),
                e
            );
        }
    }

    // The reproduced paper anecdote: POWER3 counts convert/rounding
    // instructions as FP instructions (15 000 expected, 20 000 measured).
    let anecdote = rows
        .iter()
        .find(|r| {
            r.platform.contains("power3")
                && r.workload == "convert_mix"
                && r.preset == Preset::FpIns
        })
        .expect("the POWER3 convert_mix FpIns row disappeared");
    assert_eq!(anecdote.expected, 15_000);
    assert_eq!(anecdote.measured, 20_000);
}

/// `papi_calibrate` and `papi_validate` score through the one shared
/// grading module, proven over the whole recorded E4 envelope: every one
/// of the 235 rows passes `CalRow::pass` exactly when `grading::grade`
/// says `exact` (and `grade_with_floor` at zero floor — the validator's
/// direct-mode call — agrees), and each of the 8 recorded discrepancies
/// grades `deviates` carrying the ratio `1 + rel_error`. If either tool
/// ever grew its own comparison arithmetic again, some row here would
/// disagree.
#[test]
fn calibrate_scoring_is_the_shared_grading_module() {
    use papi_suite::workloads::grading::{self, Grade};

    let rows = calibrate_builtins();
    assert_eq!(rows.len(), 235, "calibration sweep changed shape");

    let mut deviating = 0;
    for r in &rows {
        let g = grading::grade(r.expected, r.measured, 0.0);
        let coord = format!("{}/{}/{}", r.platform, r.workload, r.preset.name());
        assert_eq!(
            r.grade().label(),
            g.label(),
            "{coord}: CalRow::grade drifted"
        );
        assert_eq!(
            r.pass(),
            g == Grade::Exact,
            "{coord}: pass() and grade() disagree"
        );
        let v = grading::grade_with_floor(r.expected, r.measured, 0.0, 0.0);
        assert_eq!(
            g.label(),
            v.label(),
            "{coord}: validator's grading entry point disagrees"
        );
        if let Grade::Deviates { ratio } = g {
            deviating += 1;
            if r.expected > 0 {
                assert!(
                    (ratio - (1.0 + r.rel_error())).abs() < 1e-9,
                    "{coord}: deviates ratio {ratio} inconsistent with rel_error"
                );
            }
        }
    }
    assert_eq!(deviating, 8, "discrepancy count drifted from the E4 record");
}
