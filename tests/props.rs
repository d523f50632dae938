//! Property-based tests over the core invariants, using seeded random
//! programs and random allocation instances.
//!
//! Explicit seeded-case loops over `simcpu::rng::SmallRng`. Each test fixes
//! its own seed, so failures reproduce deterministically; on failure the
//! assert message carries the case's inputs.

use papi_suite::papi::alloc::{
    allocate_in_group, allocate_with, greedy_first_fit, max_cardinality_assign, max_weight_assign,
    optimal_assign, AllocStats, GroupModel, MaskModel,
};
use papi_suite::papi::{AppExit, Papi, Preset, PresetTable, SimSubstrate};
use papi_suite::workloads::{random_program, RandomCfg};
use simcpu::platform::GroupDef;
use simcpu::rng::SmallRng;
use simcpu::{all_platforms, EventKind, Machine, NativeEventDesc, RunExit};

fn rand_masks(rng: &mut SmallRng, len_range: std::ops::Range<usize>, mask_max: u32) -> Vec<u32> {
    let len = rng.gen_range(len_range);
    (0..len).map(|_| rng.gen_range(1..mask_max)).collect()
}

/// Counter values never depend on *which* counter an event landed on, and
/// equal the machine's ground truth.
#[test]
fn counts_match_ground_truth_on_random_programs() {
    let mut rng = SmallRng::seed_from_u64(0x1001);
    for _case in 0..48 {
        let seed = rng.gen_range(0u64..5000);
        let prog = random_program(seed, RandomCfg::default());
        // Ground truth run.
        let mut m = Machine::new(simcpu::platform::sim_generic(), seed);
        m.enable_truth();
        m.load(prog.clone());
        m.run_to_halt();
        let truth_fp = m.truth().unwrap().total(EventKind::FpAdd);
        let truth_ld = m.truth().unwrap().total(EventKind::Loads);
        let truth_ins = m.truth().unwrap().total(EventKind::Instructions);

        // Measured through the portable interface.
        let mut m = Machine::new(simcpu::platform::sim_generic(), seed);
        m.load(prog);
        let mut papi = Papi::init(SimSubstrate::new(m)).unwrap();
        let set = papi.create_eventset();
        let fad = papi.event_name_to_code("GEN_FP_INS").unwrap();
        papi.add_event(set, fad).unwrap();
        papi.add_event(set, Preset::LdIns.code()).unwrap();
        papi.add_event(set, Preset::TotIns.code()).unwrap();
        papi.start(set).unwrap();
        papi.run_app().unwrap();
        let v = papi.stop(set).unwrap();
        assert!(v[0] as u64 >= truth_fp, "seed {seed}"); // FP_INS includes mul/fma/div too
        assert_eq!(v[1] as u64, truth_ld, "seed {seed}");
        assert_eq!(v[2] as u64, truth_ins, "seed {seed}");
    }
}

/// The optimal matcher succeeds at least as often as greedy first-fit, and
/// its assignments are always valid (mask-respecting, injective).
#[test]
fn optimal_dominates_greedy() {
    let mut rng = SmallRng::seed_from_u64(0x1002);
    for _case in 0..64 {
        let masks = rand_masks(&mut rng, 1..6, 63);
        let n = 6;
        let opt = optimal_assign(&masks, n);
        let greedy = greedy_first_fit(&masks, n);
        if greedy.is_some() {
            assert!(
                opt.is_some(),
                "greedy found a matching the optimal missed: {masks:?}"
            );
        }
        if let Some(a) = &opt {
            let mut seen = std::collections::HashSet::new();
            for (ev, &c) in a.iter().enumerate() {
                assert!(masks[ev] & (1 << c) != 0, "mask violated: {masks:?}");
                assert!(seen.insert(c), "counter double-booked: {masks:?}");
            }
        }
    }
}

/// Maximum-cardinality matching size is monotone: relaxing a mask (adding
/// allowed counters) never shrinks the matching.
#[test]
fn cardinality_monotone_under_relaxation() {
    let mut rng = SmallRng::seed_from_u64(0x1003);
    for _case in 0..64 {
        let masks = rand_masks(&mut rng, 1..6, 15);
        let extra = rng.gen_range(1u32..15);
        let which = rng.gen_range(0usize..6);
        let n = 4;
        let before = max_cardinality_assign(&masks, n)
            .iter()
            .filter(|o| o.is_some())
            .count();
        let mut relaxed = masks.clone();
        let i = which % relaxed.len();
        relaxed[i] |= extra;
        let after = max_cardinality_assign(&relaxed, n)
            .iter()
            .filter(|o| o.is_some())
            .count();
        assert!(after >= before, "{masks:?} relaxed[{i}] |= {extra:#b}");
    }
}

/// Weighted matching never selects a lighter set than the unweighted
/// matching could force: total matched weight >= weight of any single
/// heaviest matchable event.
#[test]
fn weighted_matching_matches_heaviest_possible() {
    let mut rng = SmallRng::seed_from_u64(0x1004);
    for _case in 0..64 {
        let masks = rand_masks(&mut rng, 1..6, 15);
        let weights: Vec<u64> = (0..6).map(|_| rng.gen_range(1u64..1000)).collect();
        let n = 4;
        let w = &weights[..masks.len()];
        let assign = max_weight_assign(&masks, w, n);
        let matched_weight: u64 = assign
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_some())
            .map(|(i, _)| w[i])
            .sum();
        // Every single event alone is matchable (mask nonzero), so the
        // result must weigh at least as much as the heaviest event.
        let heaviest = w.iter().copied().max().unwrap();
        assert!(matched_weight >= heaviest, "{masks:?} {w:?}");
    }
}

/// PAPI-3 split equivalence, mask scheme: feeding random mask sets through
/// the substrate-side [`MaskModel`] translation and the abstract solver
/// produces exactly the assignment of the pre-split direct
/// `optimal_assign` call (same success/failure, same counters).
#[test]
fn mask_model_allocation_equivalent_to_presplit_solver() {
    let mut rng = SmallRng::seed_from_u64(0x1005);
    for _case in 0..96 {
        let num_counters = rng.gen_range(2usize..7);
        let masks = rand_masks(&mut rng, 1..7, 1u32 << num_counters);
        let natives: Vec<NativeEventDesc> = masks
            .iter()
            .enumerate()
            .map(|(i, &m)| NativeEventDesc {
                code: 0x4000_0000 | i as u32,
                name: "PROP_EV",
                descr: "prop",
                kinds: vec![(EventKind::Cycles, 1)],
                counter_mask: m,
                group: None,
            })
            .collect();
        let codes: Vec<u32> = natives.iter().map(|e| e.code).collect();
        let model = MaskModel { num_counters };
        let mut stats = AllocStats::default();
        let split = allocate_with(&model, &codes, &natives, &mut stats);
        let direct = optimal_assign(&masks, num_counters);
        assert_eq!(
            split, direct,
            "masks {masks:?} on {num_counters} counters diverged"
        );
        if split.is_some() {
            assert!(stats.augment_steps > 0, "solver effort not recorded");
        }
    }
}

/// PAPI-3 split equivalence, group scheme: for random POWER-style group
/// configurations, the substrate-side [`GroupModel`] translation plus the
/// abstract solver reproduces the deleted-from-core `allocate_in_group`
/// reference implementation exactly — including first-group-wins ordering.
#[test]
fn group_model_allocation_equivalent_to_reference() {
    let mut rng = SmallRng::seed_from_u64(0x1006);
    for _case in 0..96 {
        let pool: Vec<u32> = (0..10).map(|i| 0x4000_0100 | i as u32).collect();
        let n_groups = rng.gen_range(1usize..5);
        let groups: Vec<GroupDef> = (0..n_groups)
            .map(|gi| {
                let size = rng.gen_range(1usize..7);
                let mut events: Vec<u32> = Vec::new();
                while events.len() < size {
                    let c = pool[rng.gen_range(0..pool.len())];
                    if !events.contains(&c) {
                        events.push(c);
                    }
                }
                GroupDef {
                    id: gi as u32,
                    name: "PG",
                    events,
                }
            })
            .collect();
        // Request 1..4 distinct codes from the pool.
        let want = rng.gen_range(1usize..4);
        let mut codes: Vec<u32> = Vec::new();
        while codes.len() < want {
            let c = pool[rng.gen_range(0..pool.len())];
            if !codes.contains(&c) {
                codes.push(c);
            }
        }
        let model = GroupModel {
            groups: groups.clone(),
        };
        let mut stats = AllocStats::default();
        let split = allocate_with(&model, &codes, &[], &mut stats);
        let reference = allocate_in_group(&codes, &groups).map(|(_, assign)| assign);
        assert_eq!(
            split,
            reference,
            "codes {codes:?} over groups {:?} diverged",
            groups.iter().map(|g| &g.events).collect::<Vec<_>>()
        );
        if split.is_some() {
            assert!(stats.augment_steps > 0, "solver effort not recorded");
        }
    }
}

/// The allocator's search-effort counters reach the papi-obs registry for
/// both constraint schemes — masks (x86) and groups (POWER3), the latter
/// now served by the substrate-side translation rather than a core special
/// case.
#[test]
fn alloc_stats_flow_into_obs_registry() {
    use papi_suite::obs::{Counter, Obs};
    for plat in [simcpu::platform::sim_x86(), simcpu::platform::sim_power3()] {
        let name = plat.name;
        let mut m = Machine::new(plat, 2);
        m.load(papi_suite::workloads::dense_fp(100, 1, 0).program);
        let mut papi = Papi::init(SimSubstrate::new(m)).unwrap();
        let obs = Obs::new();
        papi.attach_obs(obs.clone());
        let set = papi.create_eventset();
        papi.add_event(set, Preset::TotCyc.code()).unwrap();
        papi.start(set).unwrap();
        papi.stop(set).unwrap();
        assert!(obs.get(Counter::AllocAttempts) > 0, "{name}");
        assert_eq!(
            obs.get(Counter::AllocAttempts),
            obs.get(Counter::AllocSuccesses),
            "{name}: the single-event request must allocate"
        );
        assert!(
            obs.get(Counter::AllocAugmentSteps) > 0,
            "{name}: solver effort must flow through the translation layer"
        );
    }
}

/// Profil bucket totals always equal the number of overflow interrupts
/// delivered in range plus the outside count.
#[test]
fn profil_conserves_samples() {
    let mut rng = SmallRng::seed_from_u64(0x1007);
    for _case in 0..16 {
        let threshold = rng.gen_range(200u64..5000);
        let prog = papi_suite::workloads::dense_fp(20_000, 3, 1).program;
        let mut m = Machine::new(simcpu::platform::sim_generic(), 1);
        m.load(prog);
        let mut papi = Papi::init(SimSubstrate::new(m)).unwrap();
        let set = papi.create_eventset();
        papi.add_event(set, Preset::TotIns.code()).unwrap();
        let pid = papi
            .profil(
                set,
                Preset::TotIns.code(),
                papi_suite::papi::ProfilConfig {
                    start: simcpu::TEXT_BASE,
                    end: simcpu::Program::pc_of(16),
                    bucket_bytes: 4,
                    threshold,
                },
            )
            .unwrap();
        papi.start(set).unwrap();
        papi.run_app().unwrap();
        let total_ins = papi.stop(set).unwrap()[0] as u64;
        let prof = papi.profil_histogram(pid).unwrap();
        let expected_samples = total_ins / threshold;
        // Skid at halt may drop at most a couple of pending interrupts.
        assert!(prof.total_samples() <= expected_samples, "t={threshold}");
        assert!(
            prof.total_samples() + 2 >= expected_samples,
            "t={threshold}: {} samples vs {} crossings",
            prof.total_samples(),
            expected_samples
        );
    }
}

/// Inserting probes never changes what the monitored program itself does:
/// retired-instruction and FP counts are identical with and without
/// instrumentation (probes trap, they do not retire).
#[test]
fn instrumentation_is_transparent_to_the_workload() {
    let mut rng = SmallRng::seed_from_u64(0x1008);
    for _case in 0..24 {
        let seed = rng.gen_range(0u64..2000);
        let prog = random_program(
            seed,
            RandomCfg {
                funcs: 3,
                ..Default::default()
            },
        );
        let count = |p: simcpu::Program| {
            let mut m = Machine::new(simcpu::platform::sim_generic(), seed);
            m.enable_truth();
            m.load(p);
            m.run_to_halt();
            let t = m.truth().unwrap();
            (
                t.total(EventKind::Instructions),
                t.total(EventKind::FpAdd),
                t.total(EventKind::Loads),
            )
        };
        // Probe every function entry.
        let points: Vec<(usize, u32)> = prog
            .symbols
            .iter()
            .enumerate()
            .map(|(i, s)| (s.start, i as u32))
            .collect();
        let instrumented = prog.instrument(&points);
        // Drive the instrumented version manually, skipping probe exits.
        let base = count(prog);
        let mut m = Machine::new(simcpu::platform::sim_generic(), seed);
        m.enable_truth();
        m.load(instrumented);
        loop {
            if m.run(None) == simcpu::RunExit::Halted {
                break;
            }
        }
        let t = m.truth().unwrap();
        let inst = (
            t.total(EventKind::Instructions),
            t.total(EventKind::FpAdd),
            t.total(EventKind::Loads),
        );
        assert_eq!(base, inst, "seed {seed}");
    }
}

/// Random EventSet API call sequences never panic and never corrupt the
/// one-running-set invariant.
#[test]
fn eventset_api_fuzz() {
    let mut rng = SmallRng::seed_from_u64(0x1009);
    for _case in 0..32 {
        let seed = rng.gen_range(0u64..500);
        let n_ops = rng.gen_range(1usize..40);
        let ops: Vec<u8> = (0..n_ops).map(|_| rng.gen_range(0u8..8)).collect();
        let mut m = Machine::new(simcpu::platform::sim_x86(), seed);
        m.load(papi_suite::workloads::dense_fp(100, 1, 1).program);
        let mut papi = Papi::init(SimSubstrate::new(m)).unwrap();
        let mut sets: Vec<usize> = Vec::new();
        let mut running: Option<usize> = None;
        let all_presets = [
            Preset::TotCyc,
            Preset::TotIns,
            Preset::FpOps,
            Preset::L1Dcm,
            Preset::FdvIns,
        ];
        let mut k = 0usize;
        for op in ops {
            k += 1;
            match op {
                0 => sets.push(papi.create_eventset()),
                1 => {
                    if let Some(&s) = sets.get(k % sets.len().max(1)) {
                        let _ = papi.add_event(s, all_presets[k % all_presets.len()].code());
                    }
                }
                2 => {
                    if let Some(&s) = sets.get(k % sets.len().max(1)) {
                        if let Ok(()) = papi.start(s) {
                            assert!(running.is_none(), "two sets running");
                            running = Some(s);
                        }
                    }
                }
                3 => {
                    if let Some(s) = running {
                        assert!(papi.read(s).is_ok());
                    }
                }
                4 => {
                    if let Some(s) = running.take() {
                        assert!(papi.stop(s).is_ok());
                    }
                }
                5 => {
                    if let Some(&s) = sets.get(k % sets.len().max(1)) {
                        let _ = papi.set_multiplex(s);
                    }
                }
                6 => {
                    if let Some(s) = running {
                        assert!(papi.reset(s).is_ok());
                    }
                }
                _ => {
                    if let Some(&s) = sets.get(k % sets.len().max(1)) {
                        if Some(s) != running {
                            let _ = papi.destroy_eventset(s);
                            sets.retain(|&x| x != s);
                        }
                    }
                }
            }
        }
        // Cleanup still works.
        if let Some(s) = running {
            assert!(papi.stop(s).is_ok());
        }
    }
}

#[test]
fn every_available_preset_actually_counts() {
    // "Available" must mean startable: for every platform, every preset the
    // table maps can run alone and return a non-negative value.
    for plat in all_platforms() {
        let name = plat.name;
        let table = PresetTable::build(&plat.events, plat.num_counters, &plat.groups);
        for p in table.available_presets() {
            let mut m = Machine::new(plat.clone(), 3);
            m.load(papi_suite::workloads::dense_fp(200, 2, 1).program);
            let mut papi = Papi::init(SimSubstrate::new(m)).unwrap();
            let set = papi.create_eventset();
            papi.add_event(set, p.code())
                .unwrap_or_else(|e| panic!("{name}/{}: {e}", p.name()));
            papi.start(set)
                .unwrap_or_else(|e| panic!("{name}/{}: {e}", p.name()));
            papi.run_app().unwrap();
            let v = papi.stop(set).unwrap();
            assert!(v[0] >= 0, "{name}/{}: negative count {}", p.name(), v[0]);
        }
    }
}

/// Multiplex partitioning always yields valid, complete, disjoint
/// partitions whose assignments respect the masks.
#[test]
fn multiplex_partitions_are_valid() {
    use papi_suite::papi::multiplex::partition_events;
    let mut rng = SmallRng::seed_from_u64(0x100A);
    for _case in 0..64 {
        let masks = rand_masks(&mut rng, 1..10, 15);
        let descs: Vec<NativeEventDesc> = masks
            .iter()
            .enumerate()
            .map(|(i, &m)| NativeEventDesc {
                code: 0x4000_0000 | i as u32,
                name: "PROP_EV",
                descr: "prop",
                kinds: vec![(EventKind::Cycles, 1)],
                counter_mask: m,
                group: None,
            })
            .collect();
        let refs: Vec<&NativeEventDesc> = descs.iter().collect();
        let parts = partition_events(&refs, 4, &[]).expect("every event fits alone");
        // Every native appears exactly once across partitions.
        let mut seen = vec![false; masks.len()];
        for p in &parts {
            assert_eq!(p.natives.len(), p.counters.len());
            let mut used = std::collections::HashSet::new();
            for (&n, &c) in p.natives.iter().zip(&p.counters) {
                assert!(!seen[n], "native {n} in two partitions: {masks:?}");
                seen[n] = true;
                assert!(masks[n] & (1 << c) != 0, "mask violated: {masks:?}");
                assert!(used.insert(c), "counter double-booked: {masks:?}");
            }
        }
        assert!(seen.into_iter().all(|s| s));
        assert!(parts.len() <= masks.len());
    }
}

/// Cache invariants on random access streams: misses never exceed
/// accesses, and — the LRU stack (inclusion) property — a larger
/// *fully-associative* LRU cache never misses more than a smaller one on
/// the same stream. (Set-associative geometries with different set
/// mappings are deliberately NOT compared: conflict patterns make them
/// incomparable, which a failed earlier version of this property
/// demonstrated empirically.)
#[test]
fn lru_inclusion_property() {
    use simcpu::cache::{Cache, CacheCfg};
    let mut rng = SmallRng::seed_from_u64(0x100B);
    for _case in 0..32 {
        let n_addrs = rng.gen_range(1usize..400);
        let addrs: Vec<u64> = (0..n_addrs)
            .map(|_| rng.gen_range(0u64..(1 << 16)))
            .collect();
        let mut misses = Vec::new();
        for size in [1024u32, 2048, 4096] {
            // fully associative: one set
            let mut c = Cache::new(CacheCfg {
                size,
                line: 64,
                assoc: size / 64,
            });
            for &a in &addrs {
                c.access(a);
            }
            assert!(c.misses() <= c.accesses());
            misses.push(c.misses());
        }
        assert!(misses[1] <= misses[0], "{misses:?}");
        assert!(misses[2] <= misses[1], "{misses:?}");
    }
}

/// TLB: a working set that fits never misses after the cold pass.
#[test]
fn tlb_capacity_property() {
    use simcpu::tlb::{Tlb, PAGE_SIZE};
    let mut rng = SmallRng::seed_from_u64(0x100C);
    for _case in 0..32 {
        let pages = rng.gen_range(1usize..32);
        let passes = rng.gen_range(2usize..5);
        let mut t = Tlb::new(32);
        for _ in 0..passes {
            for p in 0..pages {
                t.access(p as u64 * PAGE_SIZE);
            }
        }
        assert_eq!(t.misses(), pages as u64, "only cold misses");
    }
}

/// AddrGen never generates outside its region.
#[test]
fn addrgen_stays_in_bounds() {
    let mut rng = SmallRng::seed_from_u64(0x100D);
    for _case in 0..32 {
        let base = rng.gen_range(0u64..(1 << 30));
        let len_pow = rng.gen_range(7u32..22);
        let steps = rng.gen_range(1usize..300);
        let len = 1u64 << len_pow;
        for gen in [
            simcpu::AddrGen::Stride {
                base,
                stride: 8,
                len,
            },
            simcpu::AddrGen::Rand { base, len },
            simcpu::AddrGen::Chase { base, len },
        ] {
            let mut cursor = 0u64;
            for _ in 0..steps {
                let a = gen.next(&mut cursor, rng.gen());
                assert!(a >= base && a < base + len, "{gen:?} produced {a:#x}");
            }
        }
    }
}

#[test]
fn preset_tables_are_deterministic_and_consistent() {
    // Building the table twice gives identical mappings; every mapping
    // references only events of its own platform.
    for plat in all_platforms() {
        let t1 = PresetTable::build(&plat.events, plat.num_counters, &plat.groups);
        let t2 = PresetTable::build(&plat.events, plat.num_counters, &plat.groups);
        for &p in Preset::ALL {
            assert_eq!(t1.mapping(p.code()), t2.mapping(p.code()), "{}", plat.name);
            if let Some(m) = t1.mapping(p.code()) {
                for &(code, coeff) in &m.terms {
                    assert!(
                        plat.event_by_code(code).is_some(),
                        "{}: foreign code",
                        plat.name
                    );
                    assert!(coeff != 0);
                }
            }
        }
    }
}

/// The binary trace decoder never panics on arbitrary input bytes.
#[test]
fn trace_decode_never_panics() {
    let mut rng = SmallRng::seed_from_u64(0x100E);
    for _case in 0..128 {
        let n = rng.gen_range(0usize..600);
        let bytes: Vec<u8> = (0..n).map(|_| rng.gen()).collect();
        let _ = papi_suite::toolkit::traceformat::decode(&bytes);
    }
}

/// Encode/decode roundtrips arbitrary well-formed timelines.
#[test]
fn trace_roundtrip_arbitrary() {
    use papi_suite::tools::tracer::{IntervalRecord, Timeline};
    let mut rng = SmallRng::seed_from_u64(0x100F);
    for _case in 0..64 {
        let k = rng.gen_range(0usize..5);
        let names: Vec<String> = (0..k)
            .map(|_| {
                let len = rng.gen_range(1usize..13);
                (0..len)
                    .map(|_| {
                        let c = rng.gen_range(0u8..27);
                        if c == 26 {
                            '_'
                        } else {
                            (b'A' + c) as char
                        }
                    })
                    .collect()
            })
            .collect();
        let n_rows = rng.gen_range(0usize..20);
        let tl = Timeline {
            events: names,
            intervals: (0..n_rows)
                .map(|i| {
                    let raw = rng.gen_range(0usize..5);
                    let mut deltas: Vec<i64> = (0..raw).map(|_| rng.gen()).collect();
                    deltas.resize(k, 0);
                    IntervalRecord {
                        t_start_us: i as f64,
                        t_end_us: i as f64 + 1.0,
                        deltas,
                    }
                })
                .collect(),
        };
        let back = papi_suite::toolkit::traceformat::decode(
            &papi_suite::toolkit::traceformat::encode(&tl),
        )
        .unwrap();
        assert_eq!(back, tl);
    }
}

/// The whole stack is deterministic: same seed, same counts, same time.
/// Build a session on `spec` with a seeded random program and a random
/// 1–4 event set drawn from `candidates` (events the platform rejects are
/// skipped). Returns `None` when the drawn set cannot start (e.g. counter
/// conflicts without multiplexing) — callers skip those cases. The
/// program keeps its calls and random branches, and its loops run up to
/// 20M times, so it outlives the few 1k–50k-cycle slices a replay offers.
fn random_started_session(
    spec: simcpu::PlatformSpec,
    prog_seed: u64,
    rng: &mut SmallRng,
    mpx: bool,
) -> Option<(Papi<SimSubstrate>, usize, usize)> {
    const CANDIDATES: [Preset; 6] = [
        Preset::TotCyc,
        Preset::TotIns,
        Preset::LdIns,
        Preset::SrIns,
        Preset::L1Dcm,
        Preset::BrIns,
    ];
    let mut m = Machine::new(spec, prog_seed);
    m.load(random_program(
        prog_seed,
        RandomCfg {
            funcs: 2,
            max_loop: 20_000_000,
            ..Default::default()
        },
    ));
    let mut papi = Papi::init(SimSubstrate::new(m)).unwrap();
    let set = papi.create_eventset();
    let want = rng.gen_range(1usize..=4);
    let mut added = 0usize;
    for _ in 0..8 {
        let ev = CANDIDATES[rng.gen_range(0..CANDIDATES.len())];
        if papi.add_event(set, ev.code()).is_ok() {
            added += 1;
            if added == want {
                break;
            }
        }
    }
    if added == 0 {
        papi.add_event(set, Preset::TotCyc.code()).ok()?;
        added = 1;
    }
    if mpx {
        papi.set_multiplex(set).ok()?;
    }
    papi.start(set).ok()?;
    Some((papi, set, added))
}

/// `read_into` is the same observable operation as `read`: over random
/// programs, event sets, platforms (mask- and group-allocated) and
/// multiplex on/off, two identical sessions sampled through the two entry
/// points report identical values at every step.
#[test]
fn read_into_equals_read_under_replay() {
    let mut rng = SmallRng::seed_from_u64(0x1011);
    for case in 0..36 {
        let spec = match case % 3 {
            0 => simcpu::platform::sim_x86(),
            1 => simcpu::platform::sim_generic(),
            _ => simcpu::platform::sim_power3(),
        };
        let mpx = rng.gen_bool(0.5);
        let prog_seed = rng.gen_range(0u64..2000);
        let set_seed: u64 = rng.gen();
        let mk = |spec: simcpu::PlatformSpec| {
            let mut set_rng = SmallRng::seed_from_u64(set_seed);
            random_started_session(spec, prog_seed, &mut set_rng, mpx)
        };
        let (Some((mut a, set_a, n)), Some((mut b, set_b, _))) = (mk(spec.clone()), mk(spec))
        else {
            continue;
        };
        let steps = rng.gen_range(2usize..6);
        let mut buf = vec![0i64; n];
        for step in 0..steps {
            let budget = rng.gen_range(1_000u64..50_000);
            for p in [&mut a, &mut b] {
                let exit = p.run_for(budget).unwrap();
                assert_eq!(exit, AppExit::Paused, "case {case} step {step}: halted");
            }
            let via_read = a.read(set_a).unwrap();
            b.read_into(set_b, &mut buf).unwrap();
            assert_eq!(
                via_read, buf,
                "case {case} step {step} (mpx={mpx}, prog_seed={prog_seed})"
            );
        }
    }
}

/// `accum` is exactly "read_into + add + reset": an identical session
/// replaying that manual sequence accumulates the same totals at every
/// step, because the two perform the same costed substrate operations.
#[test]
fn accum_equals_read_into_plus_reset_under_replay() {
    let mut rng = SmallRng::seed_from_u64(0x1012);
    for case in 0..36 {
        let spec = match case % 3 {
            0 => simcpu::platform::sim_x86(),
            1 => simcpu::platform::sim_generic(),
            _ => simcpu::platform::sim_power3(),
        };
        let mpx = rng.gen_bool(0.5);
        let prog_seed = rng.gen_range(0u64..2000);
        let set_seed: u64 = rng.gen();
        let mk = |spec: simcpu::PlatformSpec| {
            let mut set_rng = SmallRng::seed_from_u64(set_seed);
            random_started_session(spec, prog_seed, &mut set_rng, mpx)
        };
        let (Some((mut a, set_a, n)), Some((mut b, set_b, _))) = (mk(spec.clone()), mk(spec))
        else {
            continue;
        };
        let steps = rng.gen_range(2usize..6);
        let mut acc = vec![0i64; n];
        let mut manual = vec![0i64; n];
        let mut delta = vec![0i64; n];
        for step in 0..steps {
            let budget = rng.gen_range(1_000u64..50_000);
            for p in [&mut a, &mut b] {
                let exit = p.run_for(budget).unwrap();
                assert_eq!(exit, AppExit::Paused, "case {case} step {step}: halted");
            }
            a.accum(set_a, &mut acc).unwrap();
            b.read_into(set_b, &mut delta).unwrap();
            for (m, d) in manual.iter_mut().zip(&delta) {
                *m += d;
            }
            b.reset(set_b).unwrap();
            assert_eq!(
                acc, manual,
                "case {case} step {step} (mpx={mpx}, prog_seed={prog_seed})"
            );
        }
    }
}

/// A restarted set counts exactly like a freshly compiled one. Over random
/// sequences of start, stop, read, accum, application time and
/// stopped-state edits (`add_event`, `remove_event`, `set_domain`,
/// `set_multiplex`, `overflow`), one session restarts its set while its
/// twin destroys and rebuilds the set from the same definition before
/// every start, which forces a compile. Every result, value, overflow
/// delivery and the virtual clock agree bit for bit, on mask- and
/// group-allocated platforms, with multiplexing on and off.
#[test]
fn restarting_a_set_counts_like_compiling_it_afresh() {
    use papi_suite::papi::OvfHandler;
    use simcpu::Domain;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    const POOL: [Preset; 7] = [
        Preset::TotCyc,
        Preset::TotIns,
        Preset::LdIns,
        Preset::SrIns,
        Preset::L1Dcm,
        Preset::BrIns,
        Preset::FpIns,
    ];
    const DOMAINS: [Domain; 3] = [Domain::USER, Domain::KERNEL, Domain::ALL];
    /// The definition both sessions' sets hold.
    #[derive(Default)]
    struct Def {
        events: Vec<u32>,
        domain: Option<Domain>,
        multiplex: bool,
        overflow: Vec<(u32, u64)>,
    }
    let counter = |fired: &Arc<AtomicU64>| -> OvfHandler {
        let fired = fired.clone();
        Box::new(move |_| {
            fired.fetch_add(1, Ordering::Relaxed);
        })
    };
    // A new set holding `def`: the twin's way to force a compile.
    let build = |p: &mut Papi<SimSubstrate>, def: &Def, fired: &Arc<AtomicU64>| {
        let set = p.create_eventset();
        for &e in &def.events {
            p.add_event(set, e).unwrap();
        }
        if let Some(d) = def.domain {
            p.set_domain(set, d).unwrap();
        }
        if def.multiplex {
            p.set_multiplex(set).unwrap();
        }
        for &(code, threshold) in &def.overflow {
            p.overflow(set, code, threshold, counter(fired)).unwrap();
        }
        set
    };
    let mut rng = SmallRng::seed_from_u64(0x1013);
    for case in 0..36 {
        let spec = match case % 3 {
            0 => simcpu::platform::sim_x86(),
            1 => simcpu::platform::sim_generic(),
            _ => simcpu::platform::sim_power3(),
        };
        let mpx = case % 6 >= 3;
        let machine_seed = rng.gen_range(0u64..2000);
        // A matrix multiply (loads, stores, FP, branches, misses) that
        // outlives the sequence.
        let open = || {
            let mut m = Machine::new(spec.clone(), machine_seed);
            m.load(papi_suite::workloads::matmul(64).program);
            Papi::init(SimSubstrate::new(m)).unwrap()
        };
        let (mut a, mut b) = (open(), open());
        let (fired_a, fired_b) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let mut def = Def {
            events: vec![Preset::TotCyc.code()],
            multiplex: mpx,
            ..Def::default()
        };
        let set_a = build(&mut a, &def, &fired_a);
        let mut set_b = build(&mut b, &def, &fired_b);
        let mut running = false;
        for step in 0..60 {
            let ctx = format!("case {case} step {step} (mpx={mpx}, machine_seed={machine_seed})");
            // Half the picks name an event already in the set.
            let pick = match def.events.len() {
                n if n > 0 && rng.gen_bool(0.5) => def.events[rng.gen_range(0..n)],
                _ => POOL[rng.gen_range(0..POOL.len())].code(),
            };
            match rng.gen_range(0u32..20) {
                0..=2 => {
                    if !running {
                        b.destroy_eventset(set_b).unwrap();
                        set_b = build(&mut b, &def, &fired_b);
                    }
                    let r = a.start(set_a);
                    assert_eq!(r, b.start(set_b), "{ctx}: start");
                    running |= r.is_ok();
                }
                3..=5 => {
                    let r = a.stop(set_a);
                    assert_eq!(r, b.stop(set_b), "{ctx}: stop");
                    running &= r.is_err();
                }
                6 => assert_eq!(a.read(set_a), b.read(set_b), "{ctx}: read"),
                7 | 8 => {
                    let n = def.events.len();
                    let (mut va, mut vb) = (vec![0i64; n], vec![0i64; n]);
                    let r = a.accum(set_a, &mut va);
                    assert_eq!(r, b.accum(set_b, &mut vb), "{ctx}: accum");
                    assert_eq!(va, vb, "{ctx}: accum");
                }
                9..=13 => {
                    let budget = rng.gen_range(1_000u64..30_000);
                    assert_eq!(a.run_for(budget), b.run_for(budget), "{ctx}: run_for");
                }
                14 | 15 => {
                    let r = a.add_event(set_a, pick);
                    assert_eq!(r, b.add_event(set_b, pick), "{ctx}: add_event");
                    if r.is_ok() {
                        def.events.push(pick);
                    }
                }
                16 => {
                    let r = a.remove_event(set_a, pick);
                    assert_eq!(r, b.remove_event(set_b, pick), "{ctx}: remove_event");
                    if r.is_ok() {
                        def.events.retain(|&e| e != pick);
                        def.overflow.retain(|&(e, _)| e != pick);
                    }
                }
                17 => {
                    if mpx && rng.gen_bool(0.5) {
                        let r = a.set_multiplex(set_a);
                        assert_eq!(r, b.set_multiplex(set_b), "{ctx}: set_multiplex");
                        def.multiplex |= r.is_ok();
                    } else {
                        let d = DOMAINS[rng.gen_range(0..DOMAINS.len())];
                        let r = a.set_domain(set_a, d);
                        assert_eq!(r, b.set_domain(set_b, d), "{ctx}: set_domain");
                        if r.is_ok() {
                            def.domain = Some(d);
                        }
                    }
                }
                _ => {
                    let threshold = rng.gen_range(500u64..5_000);
                    let r = a.overflow(set_a, pick, threshold, counter(&fired_a));
                    let rb = b.overflow(set_b, pick, threshold, counter(&fired_b));
                    assert_eq!(r, rb, "{ctx}: overflow");
                    if r.is_ok() {
                        def.overflow.push((pick, threshold));
                    }
                }
            }
            assert_eq!(a.get_real_cyc(), b.get_real_cyc(), "{ctx}: virtual clock");
            assert_eq!(
                fired_a.load(Ordering::Relaxed),
                fired_b.load(Ordering::Relaxed),
                "{ctx}: overflow deliveries"
            );
        }
    }
}

#[test]
fn end_to_end_determinism() {
    let mut rng = SmallRng::seed_from_u64(0x1010);
    for _case in 0..12 {
        let seed = rng.gen_range(0u64..1000);
        let run = || {
            let prog = random_program(
                seed,
                RandomCfg {
                    funcs: 3,
                    ..Default::default()
                },
            );
            let mut m = Machine::new(simcpu::platform::sim_x86(), seed);
            m.load(prog);
            let mut papi = Papi::init(SimSubstrate::new(m)).unwrap();
            let set = papi.create_eventset();
            papi.add_event(set, Preset::TotCyc.code()).unwrap();
            papi.add_event(set, Preset::L1Dcm.code()).unwrap();
            papi.start(set).unwrap();
            papi.run_app().unwrap();
            (papi.stop(set).unwrap(), papi.get_real_cyc())
        };
        assert_eq!(run(), run(), "seed {seed}");
    }
}

// --- oracle (Expected) and grading properties ------------------------------

const ORACLE_KINDS: &[EventKind] = &[
    EventKind::FpAdd,
    EventKind::FpFma,
    EventKind::IntOps,
    EventKind::Loads,
    EventKind::Stores,
    EventKind::Branches,
    EventKind::Instructions,
    EventKind::L1DMiss,
];

/// `check` answers exactly for the kinds the oracle `covers`, and for no
/// others — a random mix of exact and approximate entries never makes the
/// two disagree.
#[test]
fn expected_check_answers_iff_covered() {
    let mut rng = SmallRng::seed_from_u64(0x2001);
    for _case in 0..64 {
        let mut e = papi_suite::workloads::Expected::default();
        let picks = rng.gen_range(0..ORACLE_KINDS.len());
        for _ in 0..picks {
            let kind = ORACLE_KINDS[rng.gen_range(0..ORACLE_KINDS.len())];
            let want = rng.gen_range(0u64..10_000);
            if rng.gen_bool(0.5) {
                e = e.exact(kind, want);
            } else {
                e = e.approx(kind, want, rng.gen_range(0.0..0.5));
            }
        }
        for &kind in ORACLE_KINDS {
            let measured = rng.gen_range(0u64..10_000);
            assert_eq!(
                e.check(kind, measured).is_some(),
                e.covers(kind),
                "kind {kind:?}"
            );
        }
    }
}

/// An exact entry always shadows an approximate one for the same kind: no
/// matter how generous the approx tolerance, only the exact value passes.
#[test]
fn expected_exact_shadows_approx() {
    let mut rng = SmallRng::seed_from_u64(0x2002);
    for _case in 0..64 {
        let want = rng.gen_range(10u64..100_000);
        let tol = rng.gen_range(0.5..4.0);
        let e = papi_suite::workloads::Expected::default()
            .exact(EventKind::Loads, want)
            .approx(EventKind::Loads, want, tol);
        // A miss kept strictly inside the approx band: only exact's shadow
        // can reject it.
        let off = want + rng.gen_range(1u64..=(tol * want as f64).floor() as u64);
        assert_eq!(e.check(EventKind::Loads, want), Some(true));
        assert_eq!(
            e.check(EventKind::Loads, off),
            Some(false),
            "want {want} off {off}"
        );
    }
}

/// The approximate tolerance band is inclusive and symmetric, and a zero
/// expectation grants the absolute budget `tol` instead of collapsing to
/// exact-match (the degenerate case `papi_validate` exists to keep honest).
#[test]
fn expected_approx_band_inclusive_symmetric() {
    let mut rng = SmallRng::seed_from_u64(0x2003);
    for _case in 0..96 {
        let want = if rng.gen_bool(0.2) {
            0
        } else {
            rng.gen_range(1u64..50_000)
        };
        let tol = rng.gen_range(0.0..0.6);
        let e = papi_suite::workloads::Expected::default().approx(EventKind::L1DMiss, want, tol);
        let band = papi_suite::workloads::grading::tolerance_band(want, tol);
        let inside = band.floor() as u64;
        assert_eq!(
            e.check(EventKind::L1DMiss, want + inside),
            Some(true),
            "want {want} tol {tol} band {band}"
        );
        if want >= inside {
            assert_eq!(e.check(EventKind::L1DMiss, want - inside), Some(true));
        }
        let outside = band.floor() as u64 + 1;
        assert_eq!(
            e.check(EventKind::L1DMiss, want + outside),
            Some(false),
            "want {want} tol {tol} band {band}"
        );
    }
}

/// `Expected::check` on an approximate entry and `grading::grade` are the
/// same predicate: check passes exactly when the grade ranks within-or-
/// better. The two modules must not drift — `papi_calibrate` scores with
/// one, `papi_validate` with the other.
#[test]
fn expected_check_agrees_with_grading() {
    let mut rng = SmallRng::seed_from_u64(0x2004);
    for _case in 0..128 {
        let want = rng.gen_range(0u64..20_000);
        let tol = rng.gen_range(0.0..0.5);
        let measured = rng.gen_range(0u64..25_000);
        let e = papi_suite::workloads::Expected::default().approx(EventKind::FpFma, want, tol);
        let passed = e.check(EventKind::FpFma, measured).unwrap();
        let g = papi_suite::workloads::grading::grade(want as i64, measured as i64, tol);
        assert_eq!(
            passed,
            g.rank() <= 1,
            "want {want} measured {measured} tol {tol}: check {passed} vs grade {g}"
        );
    }
}

/// Widening the absolute floor never worsens a grade, and a floor below
/// the relative band never changes it.
#[test]
fn grade_floor_is_monotone() {
    let mut rng = SmallRng::seed_from_u64(0x2005);
    for _case in 0..128 {
        let want = rng.gen_range(0i64..20_000);
        let tol = rng.gen_range(0.0..0.3);
        let measured = rng.gen_range(0i64..25_000);
        let lo = rng.gen_range(0.0..500.0);
        let hi = lo + rng.gen_range(0.0..2_000.0);
        let g_lo = papi_suite::workloads::grading::grade_with_floor(want, measured, tol, lo);
        let g_hi = papi_suite::workloads::grading::grade_with_floor(want, measured, tol, hi);
        assert!(
            g_hi.rank() <= g_lo.rank(),
            "want {want} measured {measured} tol {tol} floors {lo}/{hi}: {g_lo} -> {g_hi}"
        );
    }
}

/// Pennycook's PP is monotone in any single cell's efficiency: raising
/// one efficiency (all others held fixed) never lowers the score — at
/// the flat level and through the two-level fold the benchmark matrix
/// uses (harmonic over configs per substrate, then harmonic over
/// substrates). An unsupported cell (eff <= 0) zeroes the whole score.
#[test]
fn pp_is_monotone_in_single_cell_efficiency() {
    use papi_bench::matrix::harmonic_pp;

    let mut rng = SmallRng::seed_from_u64(0x2006);
    for case in 0..256 {
        let n = rng.gen_range(1..8usize);
        let mut effs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.01..1.0f64)).collect();
        let before = harmonic_pp(&effs);
        let i = rng.gen_range(0..n);
        let bumped = (effs[i] + rng.gen_range(0.0..1.0f64)).min(1.0);
        assert!(bumped >= effs[i]);
        effs[i] = bumped;
        let after = harmonic_pp(&effs);
        assert!(
            after >= before - 1e-12,
            "case {case}: raising eff[{i}] dropped PP {before} -> {after} ({effs:?})"
        );

        // Two-level fold: substrate scores are themselves harmonic means
        // of per-config efficiencies; bumping one config cell must not
        // lower the final PP either.
        let subs = rng.gen_range(1..5usize);
        let cfgs = rng.gen_range(1..5usize);
        let mut matrix: Vec<Vec<f64>> = (0..subs)
            .map(|_| (0..cfgs).map(|_| rng.gen_range(0.01..1.0f64)).collect())
            .collect();
        let fold = |m: &[Vec<f64>]| {
            let per_sub: Vec<f64> = m.iter().map(|c| harmonic_pp(c)).collect();
            harmonic_pp(&per_sub)
        };
        let before = fold(&matrix);
        let (s, c) = (rng.gen_range(0..subs), rng.gen_range(0..cfgs));
        matrix[s][c] = (matrix[s][c] + rng.gen_range(0.0..1.0f64)).min(1.0);
        let after = fold(&matrix);
        assert!(
            after >= before - 1e-12,
            "case {case}: raising cell [{s}][{c}] dropped PP {before} -> {after}"
        );

        // Killing any one cell (unsupported => eff 0) zeroes its
        // substrate score and with it the whole PP.
        matrix[s][c] = 0.0;
        assert_eq!(
            fold(&matrix),
            0.0,
            "case {case}: unsupported cell must zero PP"
        );
    }
}

/// Robustness corpus for the one JSON reader: seeded mutations of real
/// documents (truncations, byte flips, line splices), pathological nesting,
/// huge numbers and bad `\u` escapes.  The reader must return a value or a
/// positioned error — never panic, never recurse past its depth bound —
/// and typed reads of the mutants must fail cleanly too.
#[test]
fn json_reader_survives_mutation_corpus() {
    use papi_suite::obs::json::{self, MAX_DEPTH};
    use papi_suite::tools::perfometer::TracePoint;
    use papi_suite::tools::tracer::Timeline;
    use simcpu::Program;

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(root.join("results/validation_matrix.json")).unwrap();
    let head = golden.lines().take(6).collect::<Vec<_>>().join("\n");
    let head = head.trim_end_matches(',').to_string() + "\n]}";
    let program = papi_suite::workloads::tight_calls(10, 3).program;
    let corpus = [
        head,
        json::ToJson::to_json(&program).to_pretty(),
        r#"[{"t_us": 1.5, "delta": -3, "rate_per_s": 2e9, "metric": "PAPI_FP_OPS",
            "self_counters": [["eventset.reads", 7]]}]"#
            .to_string(),
        r#"{"events": ["A\u00e9\ud83d\ude00"], "intervals": [{"t_start_us": 0, "t_end_us": 1e-3, "deltas": [0]}]}"#
            .to_string(),
        // A dense program, so mutations often land on targets and bounds.
        r#"{"insts": [{"Load": {"Stride": {"base": 4096, "stride": 64, "len": 8192}}},
            {"Br": {"pat": {"Loop": {"count": 5}}, "target": 0}}, {"Call": {"target": 4}}, "Halt", "Ret"],
            "symbols": [], "entry": 0}"#
            .to_string(),
    ];

    let check = |doc: &str, label: &str| {
        let got = std::panic::catch_unwind(|| {
            let parsed = json::parse(doc);
            // A program that decodes must also run: give it a bounded
            // number of cycles on the simulator.
            if let Ok(program) = json::from_str::<Program>(doc) {
                let mut m = Machine::new(simcpu::platform::sim_generic(), 1);
                m.load(program);
                const BUDGET: u64 = 20_000;
                while m.cycles() < BUDGET {
                    if let RunExit::Halted | RunExit::Deadlock = m.run(Some(BUDGET - m.cycles())) {
                        break;
                    }
                }
            }
            let _ = json::from_str::<Vec<TracePoint>>(doc);
            let _ = json::from_str::<Timeline>(doc);
            parsed
        });
        let Ok(parsed) = got else {
            panic!("reader panicked on {label}");
        };
        if let Err(e) = parsed {
            let (line, col) =
                e.at.unwrap_or_else(|| panic!("syntax error without position ({label}): {e}"));
            assert!(line >= 1 && col >= 1, "{label}: {e}");
            assert!(
                line <= doc.lines().count().max(1) + 1,
                "{label}: line out of range: {e}"
            );
        }
    };

    // Every document in the corpus parses as written.
    for doc in &corpus {
        json::parse(doc).unwrap();
    }

    let mut rng = SmallRng::seed_from_u64(0x0015_0A4C_0DEC_0001);
    for (d, doc) in corpus.iter().enumerate() {
        let bytes = doc.as_bytes();
        for round in 0..300u32 {
            let op = rng.gen_range(0..4u8);
            let mut m = bytes.to_vec();
            match op {
                // Torn write.
                0 => m.truncate(rng.gen_range(0..=m.len())),
                // Flip one byte to anything, including invalid UTF-8.
                1 => {
                    let i = rng.gen_range(0..m.len());
                    m[i] = rng.gen::<u8>();
                }
                // Overwrite one byte with a structural character.
                2 => {
                    let i = rng.gen_range(0..m.len());
                    m[i] = *b"{}[],:\"\\-.e0".get(rng.gen_range(0..12usize)).unwrap();
                }
                // Splice a random slice of the document into itself.
                _ => {
                    let a = rng.gen_range(0..m.len());
                    let b = rng.gen_range(a..=m.len());
                    let at = rng.gen_range(0..=m.len());
                    let piece = m[a..b].to_vec();
                    m.splice(at..at, piece);
                }
            }
            let text = String::from_utf8_lossy(&m);
            check(&text, &format!("doc {d} op {op} round {round}"));
        }
    }

    // Pathological inputs.
    let deep = "[".repeat(100_000);
    let err = json::parse(&deep).unwrap_err();
    assert_eq!(err.at, Some((1, MAX_DEPTH + 1)), "{err}");
    let just_deep_enough = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
    json::parse(&just_deep_enough).unwrap();
    check(&"{\"a\":".repeat(100_000), "deep objects");
    let huge_int = "9".repeat(5_000);
    let v = json::parse(&huge_int).unwrap();
    assert_eq!(v.as_u64(), None);
    assert_eq!(v.as_f64(), Some(f64::INFINITY));
    for doc in [
        "1e999999999",
        "-0.0000000000000000000000001e-999999",
        "[1e, 2]",
        "01",
        "-",
        "1.",
        "\"\\u\"",
        "\"\\u12\"",
        "\"\\uZZZZ\"",
        "\"\\ud800\"",
        "\"\\udc00\"",
        "\"\\ud800\\u0041\"",
        "\"\\x41\"",
        "\"tab\there\"",
        "\"unterminated",
        "[1, 2,]",
        "{\"a\" 1}",
        "{,}",
        "nul",
        "truefalse",
        "",
        "   ",
        "\u{feff}{}",
        // Programs that decode but could not run: refused at decode.
        r#"{"insts": ["Halt"], "symbols": [], "entry": 7}"#,
        r#"{"insts": [{"Jmp": {"target": 99}}], "symbols": [], "entry": 0}"#,
        r#"{"insts": ["Int"], "symbols": [], "entry": 0}"#,
        r#"{"insts": [], "symbols": [], "entry": 0}"#,
        r#"{"insts": [{"Store": {"Chase": {"base": 18446744073709551000, "len": 4096}}}, "Ret"],
            "symbols": [], "entry": 0}"#,
    ] {
        check(doc, doc);
    }
    assert_eq!(
        json::parse("\"\\ud83d\\ude00\"").unwrap().as_str(),
        Some("\u{1F600}")
    );
}

/// Robustness corpus for the one TOML-subset reader, through both of its
/// interpreters: seeded mutations (torn writes, deleted, corrupted and
/// duplicated lines, garbage lines) of the nine platform files and of
/// `benches/matrix.toml`.  Every mutant must parse or fail with a named
/// check at an in-range line, never panic; each corpus keeps its own seed,
/// so a failure reproduces from the printed (file, op, round).  Hostile
/// values — deep nesting and stacked signs — are `syntax` in both formats.
#[test]
fn toml_readers_survive_mutation_corpus() {
    use papi_bench::matrix::MatrixConfig;
    use papi_suite::obs::toml::TomlError;

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |path: &str| std::fs::read_to_string(root.join(path)).unwrap();
    type Reader = fn(&str) -> Result<(), TomlError>;
    // A platform spec that parses must also build a machine.
    let platform: Reader =
        |src| simcpu::parse_platform(src).map(|spec| drop(Machine::new(spec, 1)));
    let matrix: Reader = |src| MatrixConfig::parse(src).map(drop);

    let check = |label: &str, src: &str, parse: Reader| {
        let Ok(result) = std::panic::catch_unwind(|| parse(src)) else {
            panic!("reader panicked on mutated input ({label})");
        };
        if let Err(e) = result {
            let named = !e.check.is_empty() && e.check.chars().all(|c| c.is_ascii_graphic());
            assert!(named, "unnamed check for {label}: {e:?}");
            let lines = src.lines().count();
            assert!(
                e.line <= lines + 1,
                "line {} out of range ({lines} lines) for {label}",
                e.line
            );
            let shown = format!("{e}");
            assert!(
                shown.contains(&format!("[{}]", e.check)),
                "display lost the check name for {label}: {shown}"
            );
        }
    };

    // The eight embedded builtins plus the data-only sim-rv64 file.
    let mut platforms: Vec<(&str, String)> = simcpu::platform::files::BUILTIN
        .iter()
        .map(|&(name, text)| (name, text.to_string()))
        .collect();
    platforms.push(("sim-rv64", read("platforms/sim-rv64.toml")));
    let mut rng = SmallRng::seed_from_u64(0x00D1_CE5E_ED00_7001);
    for (name, text) in &platforms {
        platform(text).unwrap();
        for round in 0..60u32 {
            let op = rng.gen_range(0..5u8);
            let mutated = mutate(text, op, &mut rng);
            check(&format!("{name} op={op} round={round}"), &mutated, platform);
        }
    }

    let shipped = read("benches/matrix.toml");
    matrix(&shipped).expect("shipped matrix.toml parses");
    let mut rng = SmallRng::seed_from_u64(0x00AB_5EED_BE9C_4001);
    for round in 0..300u32 {
        let op = rng.gen_range(0..5u8);
        let mutated = mutate(&shipped, op, &mut rng);
        check(&format!("matrix op={op} round={round}"), &mutated, matrix);
    }

    // Hostile values, each on a known line of each format.
    let deep = format!("{}1", "[".repeat(100_000));
    for value in [deep.as_str(), "--1000", "-0x-3E8", "0x-3E8"] {
        for (src, key, parse) in [
            (&platforms[0].1, "clock_mhz = 1000", platform),
            (&shipped, "seed = 42", matrix),
        ] {
            let line = 1 + src.lines().position(|l| l == key).unwrap();
            let (name, _) = key.split_once(" = ").unwrap();
            let hostile = src.replacen(key, &format!("{name} = {value}"), 1);
            let e = parse(&hostile).unwrap_err();
            assert_eq!(
                (e.check, e.line),
                ("syntax", line),
                "{name} = {value:.20}: {e}"
            );
        }
    }

    fn mutate(text: &str, op: u8, rng: &mut SmallRng) -> String {
        let lines: Vec<&str> = text.lines().collect();
        match op {
            // Truncate at an arbitrary char boundary (torn write).
            0 => {
                let cut = rng.gen_range(0..=text.len());
                let cut = (cut..=text.len())
                    .find(|&i| text.is_char_boundary(i))
                    .unwrap();
                text[..cut].to_string()
            }
            // Delete one line.
            1 => {
                let victim = rng.gen_range(0..lines.len());
                lines
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != victim)
                    .map(|(_, l)| *l)
                    .collect::<Vec<_>>()
                    .join("\n")
            }
            // Corrupt one character.
            2 => {
                let mut bytes = text.as_bytes().to_vec();
                let i = rng.gen_range(0..bytes.len());
                bytes[i] = rng.gen_range(b' '..=b'~');
                String::from_utf8_lossy(&bytes).into_owned()
            }
            // Duplicate one line (duplicate keys, sections, events).
            3 => {
                let victim = rng.gen_range(0..lines.len());
                let mut out: Vec<&str> = Vec::with_capacity(lines.len() + 1);
                for (i, l) in lines.iter().enumerate() {
                    out.push(l);
                    if i == victim {
                        out.push(l);
                    }
                }
                out.join("\n")
            }
            // Insert a garbage line at a random spot.
            _ => {
                let garbage: String = (0..rng.gen_range(1..40usize))
                    .map(|_| rng.gen_range(b' '..=b'~') as char)
                    .collect();
                let at = rng.gen_range(0..=lines.len());
                let mut out: Vec<&str> = lines.clone();
                out.insert(at, &garbage);
                out.join("\n")
            }
        }
    }
}
