//! The zero-allocation hot-path guarantee, asserted with the counting
//! global allocator that `papi_bench` installs for every binary that links
//! it (including this test).
//!
//! Steady state = the EventSet is started and the session's scratch buffers
//! have been through at least one call (they reach capacity immediately).
//! From then on `read_into` and `accum` must not touch the heap at all, on
//! both the statically dispatched and the registry-boxed session, with or
//! without a papi-obs context attached (journal off — journaling buys
//! records with allocations by design). The same holds for a multiplex
//! rotation and an overflow delivery, and for `start` of an unchanged set,
//! which reuses the set's compiled form; `stop` allocates only the vector
//! it returns.

use papi_bench::{papi_named, papi_on};
use papi_core::{AppExit, Papi, Preset, ProfilConfig, SimSubstrate, Substrate};
use papi_obs::alloc_track::count_in;
use papi_obs::Counter;
use papi_workloads::{dense_fp, pingpong, strided_stream};
use simcpu::platform::sim_x86;
use simcpu::{Machine, Program};

const EVENTS: [Preset; 4] = [Preset::TotCyc, Preset::TotIns, Preset::LdIns, Preset::SrIns];

/// LdIns, SrIns and L1 cache misses compete for counters 2-3 on sim-x86:
/// a multiplexed set of the three needs two partitions.
const MPX_EVENTS: [Preset; 3] = [Preset::LdIns, Preset::SrIns, Preset::L1Dcm];

/// Cycles of application between two restarts or two counted slices.
const SLICE: u64 = 100_000;

/// A program that outlives every counted window here (tens of millions of
/// cycles), so each `run_for` slice ends `Paused`, never `Halted`.
fn long_program() -> Program {
    dense_fp(10_000_000, 4, 2).program
}

fn started_4ev<S: Substrate>(papi: &mut Papi<S>) -> usize {
    let set = papi.create_eventset();
    for ev in EVENTS {
        papi.add_event(set, ev.code()).unwrap();
    }
    papi.start(set).unwrap();
    set
}

fn assert_steady_state_alloc_free<S: Substrate>(papi: &mut Papi<S>, label: &str) {
    let set = started_4ev(papi);
    let mut out = [0i64; 4];
    let mut acc = [0i64; 4];
    // Warm-up: first calls may grow the scratch buffers to capacity.
    for _ in 0..10 {
        papi.read_into(set, &mut out).unwrap();
        papi.accum(set, &mut acc).unwrap();
    }

    let ((), read_allocs) = count_in(|| {
        for _ in 0..100 {
            papi.read_into(set, &mut out).unwrap();
        }
    });
    assert_eq!(
        read_allocs, 0,
        "{label}: read_into allocated in steady state"
    );

    let ((), accum_allocs) = count_in(|| {
        for _ in 0..100 {
            papi.accum(set, &mut acc).unwrap();
        }
    });
    assert_eq!(accum_allocs, 0, "{label}: accum allocated in steady state");

    std::hint::black_box((out[0], acc[0]));
    papi.stop(set).unwrap();
    papi.destroy_eventset(set).unwrap();
}

#[test]
fn read_into_and_accum_are_allocation_free_static() {
    let mut papi = papi_on(sim_x86(), dense_fp(10, 1, 0).program, 1);
    assert_steady_state_alloc_free(&mut papi, "static");
}

#[test]
fn read_into_and_accum_are_allocation_free_boxed() {
    let mut papi = papi_named("sim:x86", dense_fp(10, 1, 0).program, 1);
    assert_steady_state_alloc_free(&mut papi, "boxed");
}

#[test]
fn read_into_stays_allocation_free_with_obs_attached() {
    // Counter updates are relaxed atomic adds; with the journal disabled the
    // record closures never run, so the instrumented path is heap-silent too.
    let mut papi = papi_on(sim_x86(), dense_fp(10, 1, 0).program, 1);
    let obs = papi_obs::Obs::new();
    papi.attach_obs(obs.clone());
    assert_steady_state_alloc_free(&mut papi, "static+obs");
    assert!(obs.get(papi_obs::Counter::Reads) > 0);
}

#[test]
fn simulated_execution_is_allocation_free_in_steady_state() {
    // Every `run_for` slice retires thousands of simulated instructions;
    // once caches, TLBs, the page set and the message channels are warm,
    // none of them may touch the heap: not a compute loop, not an
    // L1-resident stream (2 x 2 KiB), not two threads blocking and waking
    // each other through channels.
    let cases = [
        ("dense_fp", vec![dense_fp(1_000_000, 4, 2).program]),
        (
            "strided_stream",
            vec![strided_stream(2048, 8, 100_000).program],
        ),
        ("pingpong", pingpong(1_000_000, 3).programs),
    ];
    for (label, programs) in cases {
        let mut m = Machine::new(sim_x86(), 1);
        for p in programs {
            m.load(p);
        }
        let mut papi = Papi::init(SimSubstrate::new(m)).unwrap();
        started_4ev(&mut papi);
        for _ in 0..20 {
            assert_eq!(papi.run_for(50_000).unwrap(), AppExit::Paused, "{label}");
        }
        let ((), allocs) = count_in(|| {
            for _ in 0..20 {
                papi.run_for(50_000).unwrap();
            }
        });
        assert_eq!(allocs, 0, "{label}: run_for allocated in steady state");
    }
}

#[test]
fn read_into_and_accum_are_allocation_free_per_registered_thread() {
    // The PR 3 guarantee must hold *per thread*: each registered thread
    // owns its own session (plan, scratch), and the counting allocator's
    // bookkeeping is thread-local, so the assertion runs independently on
    // every spawned thread.
    use papi_core::{SubstrateRegistry, ThreadedPapi};
    use std::sync::Arc;

    let reg = Arc::new(SubstrateRegistry::with_builtin());
    let program = dense_fp(10, 1, 0).program;
    let pool = Arc::new(ThreadedPapi::new(1, move |seed| {
        let mut papi = papi_core::Papi::init_from_registry(&reg, "sim:x86", seed)?;
        papi.substrate_mut().load_program(program.clone())?;
        Ok(papi)
    }));
    let mut joins = Vec::new();
    for t in 0..4 {
        let pool = pool.clone();
        joins.push(std::thread::spawn(move || {
            let token = pool.register_thread().unwrap();
            token.with(|papi| assert_steady_state_alloc_free(papi, &format!("thread-{t}")));
            // And through the tagged-id token API itself: the tag check is
            // arithmetic, the session cell is one uncontended sequence-stamp
            // compare-exchange, the publish is atomic stores — no heap.
            let set = token.create_eventset();
            for ev in EVENTS {
                token.add_event(set, ev.code()).unwrap();
            }
            token.start(set).unwrap();
            let mut out = [0i64; 4];
            for _ in 0..10 {
                token.read_into(set, &mut out).unwrap();
            }
            let ((), allocs) = count_in(|| {
                for _ in 0..100 {
                    token.read_into(set, &mut out).unwrap();
                }
            });
            assert_eq!(allocs, 0, "thread-{t}: token read_into allocated");
            std::hint::black_box(out[0]);
            token.stop(set).unwrap();
            token.destroy_eventset(set).unwrap();
            pool.unregister_thread(token).unwrap();
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
}

#[test]
fn observer_snapshots_are_allocation_free_on_both_sides() {
    // The lock-free observer path: the owner's read_into publishes into the
    // seqlock area (atomic stores, no heap), and a cross-thread
    // snapshot_counts copies it out into a stack CountSnapshot — neither
    // side may allocate, and the observer must never block on (or slow
    // down) the owner.
    use papi_core::{SubstrateRegistry, ThreadedPapi};
    use std::sync::Arc;

    let reg = Arc::new(SubstrateRegistry::with_builtin());
    let program = dense_fp(10, 1, 0).program;
    let pool = Arc::new(ThreadedPapi::new(1, move |seed| {
        let mut papi = papi_core::Papi::init_from_registry(&reg, "sim:x86", seed)?;
        papi.substrate_mut().load_program(program.clone())?;
        Ok(papi)
    }));
    let (id_tx, id_rx) = std::sync::mpsc::channel();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let owner = {
        let pool = pool.clone();
        std::thread::spawn(move || {
            let token = pool.register_thread().unwrap();
            let set = token.create_eventset();
            for ev in EVENTS {
                token.add_event(set, ev.code()).unwrap();
            }
            token.start(set).unwrap();
            let mut out = [0i64; 4];
            for _ in 0..10 {
                token.read_into(set, &mut out).unwrap();
            }
            id_tx.send(set).unwrap();
            // Keep publishing while the observer thread measures.
            let ((), allocs) = count_in(|| {
                while done_rx.try_recv().is_err() {
                    token.read_into(set, &mut out).unwrap();
                }
            });
            assert_eq!(allocs, 0, "owner publish path allocated");
            std::hint::black_box(out[0]);
            token.stop(set).unwrap();
            token.destroy_eventset(set).unwrap();
            pool.unregister_thread(token).unwrap();
        })
    };
    let set = id_rx.recv().unwrap();
    // Warm: first snapshot may race the very first publish.
    let mut got = 0u64;
    while pool.snapshot_counts(set).is_err() {
        std::thread::yield_now();
    }
    let ((), allocs) = count_in(|| {
        for _ in 0..100 {
            if let Ok(s) = pool.snapshot_counts(set) {
                std::hint::black_box(s.values[0]);
                got += 1;
            }
        }
    });
    assert_eq!(allocs, 0, "observer snapshot path allocated");
    assert!(got > 0, "observer never saw a published snapshot");
    done_tx.send(()).unwrap();
    owner.join().unwrap();
}

#[test]
fn rotate_and_mpx_read_are_allocation_free_in_steady_state() {
    // Multiplexed sets share the guarantee once the partitions have cycled:
    // rotation programs through the prog scratch, the simulator borrows the
    // event descriptors it programs, and the flush goes through the live
    // scratch.
    let mut papi = papi_on(sim_x86(), long_program(), 1);
    let obs = papi_obs::Obs::new();
    papi.attach_obs(obs.clone());
    let set = papi.create_eventset();
    for ev in MPX_EVENTS {
        papi.add_event(set, ev.code()).unwrap();
    }
    papi.set_multiplex(set).unwrap();
    papi.start(set).unwrap();
    let mut out = [0i64; 3];
    // Let the timer rotate through both partitions a few times, then warm
    // the read path.
    for _ in 0..6 {
        assert_eq!(papi.run_for(2 * SLICE).unwrap(), AppExit::Paused);
        papi.read_into(set, &mut out).unwrap();
    }
    let rotations = obs.get(Counter::MpxRotations);
    let (exits, allocs) = count_in(|| {
        let mut exits = [AppExit::Paused; 20];
        for exit in &mut exits {
            *exit = papi.run_for(2 * SLICE).unwrap();
            papi.read_into(set, &mut out).unwrap();
        }
        exits
    });
    assert!(
        exits.iter().all(|&e| e == AppExit::Paused),
        "the program halted inside the window: {exits:?}"
    );
    let rotated = obs.get(Counter::MpxRotations) - rotations;
    assert!(rotated >= 10, "only {rotated} rotations in the window");
    assert_eq!(
        allocs, 0,
        "multiplexed rotate+read allocated in steady state ({rotated} rotations)"
    );
    std::hint::black_box(out[0]);
}

/// One step of the restart protocol, applied to whatever session flavour
/// the caller holds.
enum Ctl {
    Run,
    Stop,
    Start,
}

/// Restart an unchanged, started set 20 times after a warm-up, with
/// application time between restarts: every `start` reuses the set's
/// compiled form and allocates nothing, and every `stop` allocates once,
/// the vector it returns.
fn assert_restarts_allocate_only_stops_vector(label: &str, mut ctl: impl FnMut(Ctl)) {
    for _ in 0..3 {
        ctl(Ctl::Run);
        ctl(Ctl::Stop);
        ctl(Ctl::Start);
    }
    let (mut stop_allocs, mut start_allocs) = (0, 0);
    for _ in 0..20 {
        ctl(Ctl::Run);
        stop_allocs += count_in(|| ctl(Ctl::Stop)).1;
        start_allocs += count_in(|| ctl(Ctl::Start)).1;
    }
    assert_eq!(
        start_allocs, 0,
        "{label}: start of an unchanged set allocated"
    );
    assert_eq!(
        stop_allocs, 20,
        "{label}: stop allocated more than its returned vector"
    );
}

/// The restart check on a session, for a direct set of `direct` and a
/// multiplexed set of the platform's available `mpx_events`, which must
/// rotate between restarts.
fn assert_session_restarts_allocate_only_stops_vector<S: Substrate>(
    mut open: impl FnMut() -> Papi<S>,
    label: &str,
    direct: &[Preset],
    mpx_events: &[Preset],
) {
    for (events, multiplex) in [(direct, false), (mpx_events, true)] {
        let mut papi = open();
        let obs = papi_obs::Obs::new();
        papi.attach_obs(obs.clone());
        let set = papi.create_eventset();
        if multiplex {
            papi.set_multiplex(set).unwrap();
        }
        for ev in events {
            // Multiplexed sets take what the platform offers.
            let r = papi.add_event(set, ev.code());
            assert!(multiplex || r.is_ok(), "{label}: {ev:?}: {r:?}");
        }
        papi.start(set).unwrap();
        let label = format!("{label} multiplex={multiplex}");
        assert_restarts_allocate_only_stops_vector(&label, |c| match c {
            Ctl::Run => assert_eq!(papi.run_for(SLICE).unwrap(), AppExit::Paused),
            Ctl::Stop => {
                std::hint::black_box(papi.stop(set).unwrap());
            }
            Ctl::Start => papi.start(set).unwrap(),
        });
        let rotations = obs.get(Counter::MpxRotations);
        assert_eq!(multiplex, rotations > 0, "{label}: {rotations} rotations");
    }
}

#[test]
fn restarting_an_unchanged_set_allocates_only_stops_vector_static() {
    assert_session_restarts_allocate_only_stops_vector(
        || papi_on(sim_x86(), long_program(), 1),
        "static",
        &EVENTS,
        &MPX_EVENTS,
    );
}

#[test]
fn restarting_an_unchanged_set_allocates_only_stops_vector_token() {
    use papi_core::{SubstrateRegistry, ThreadedPapi};
    use std::sync::Arc;

    let reg = Arc::new(SubstrateRegistry::with_builtin());
    let pool = Arc::new(ThreadedPapi::new(1, move |seed| {
        let mut papi = Papi::init_from_registry(&reg, "sim:x86", seed)?;
        papi.substrate_mut().load_program(long_program())?;
        Ok(papi)
    }));
    let token = pool.register_thread().unwrap();
    for (events, multiplex) in [(&EVENTS[..], false), (&MPX_EVENTS[..], true)] {
        let set = token.create_eventset();
        if multiplex {
            token.set_multiplex(set).unwrap();
        }
        for ev in events {
            token.add_event(set, ev.code()).unwrap();
        }
        token.start(set).unwrap();
        let label = format!("token multiplex={multiplex}");
        assert_restarts_allocate_only_stops_vector(&label, |c| match c {
            Ctl::Run => assert_eq!(token.run_for(SLICE).unwrap(), AppExit::Paused),
            Ctl::Stop => {
                std::hint::black_box(token.stop(set).unwrap());
            }
            Ctl::Start => token.start(set).unwrap(),
        });
        token.stop(set).unwrap();
        token.destroy_eventset(set).unwrap();
    }
    pool.unregister_thread(token).unwrap();
}

/// Presets a multiplexed set draws from on every platform: more natives
/// than any shipped platform has counters, so the set is partitioned.
const MANY_EVENTS: [Preset; 12] = [
    Preset::TotCyc,
    Preset::TotIns,
    Preset::LdIns,
    Preset::SrIns,
    Preset::BrIns,
    Preset::FmaIns,
    Preset::FpIns,
    Preset::L1Dcm,
    Preset::L1Icm,
    Preset::L2Tcm,
    Preset::TlbDm,
    Preset::BrMsp,
];

#[test]
fn restarts_and_rotations_are_allocation_free_on_every_simulated_substrate() {
    // Boxed sessions on every built-in simulated platform and a data-file
    // platform, bare and behind a decorator whose 32-bit counters engage
    // the widening state (which the compiled form keeps and a restart only
    // rewinds): a restart allocates only stop's vector, and a multiplexed
    // set rotates without allocating.
    let reg = papi_tools::full_registry();
    let rv64 = concat!(
        "file:",
        env!("CARGO_MANIFEST_DIR"),
        "/../../platforms/sim-rv64.toml"
    );
    let mut names: Vec<String> = reg
        .names()
        .into_iter()
        .filter(|n| n.starts_with("sim:"))
        .map(str::to_string)
        .collect();
    names.push(rv64.to_string());
    assert!(names.len() >= 9, "{names:?}");
    for name in names
        .iter()
        .flat_map(|n| [n.clone(), format!("fault[bits=32]:{n}")])
    {
        assert_session_restarts_allocate_only_stops_vector(
            || papi_named(&name, long_program(), 1),
            &name,
            &[Preset::TotCyc],
            &MANY_EVENTS,
        );
        // A set of every available preset from the pool, multiplexed.
        let mut papi = papi_named(&name, long_program(), 1);
        let obs = papi_obs::Obs::new();
        papi.attach_obs(obs.clone());
        let set = papi.create_eventset();
        papi.set_multiplex(set).unwrap();
        let n = MANY_EVENTS
            .iter()
            .filter(|ev| papi.add_event(set, ev.code()).is_ok())
            .count();
        papi.start(set).unwrap();
        let mut out = vec![0i64; n];
        for _ in 0..4 {
            assert_eq!(papi.run_for(SLICE).unwrap(), AppExit::Paused);
            papi.read_into(set, &mut out).unwrap();
        }
        let rotations = obs.get(Counter::MpxRotations);
        let ((), allocs) = count_in(|| {
            for _ in 0..10 {
                assert_eq!(papi.run_for(SLICE).unwrap(), AppExit::Paused);
                papi.read_into(set, &mut out).unwrap();
            }
        });
        let rotated = obs.get(Counter::MpxRotations) - rotations;
        assert!(rotated >= 5, "{name}: only {rotated} rotations");
        assert_eq!(allocs, 0, "{name}: {rotated} rotations allocated");
    }
}

#[test]
fn overflow_delivery_is_allocation_free_in_steady_state() {
    // A handler route and a profil route: each interrupt walks the armed
    // routes in place, calls the handler and bumps a histogram bucket.
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let program = long_program();
    let text_end = simcpu::TEXT_BASE + 4 * program.insts.len() as u64;
    let mut papi = papi_on(sim_x86(), program, 1);
    let obs = papi_obs::Obs::new();
    papi.attach_obs(obs.clone());
    let set = papi.create_eventset();
    for ev in [Preset::TotCyc, Preset::TotIns] {
        papi.add_event(set, ev.code()).unwrap();
    }
    let fired = Arc::new(AtomicU64::new(0));
    let seen = fired.clone();
    papi.overflow(
        set,
        Preset::TotCyc.code(),
        20_000,
        Box::new(move |_| {
            seen.fetch_add(1, Ordering::Relaxed);
        }),
    )
    .unwrap();
    let pid = papi
        .profil(
            set,
            Preset::TotIns.code(),
            ProfilConfig {
                start: simcpu::TEXT_BASE,
                end: text_end,
                bucket_bytes: 4,
                threshold: 10_000,
            },
        )
        .unwrap();
    papi.start(set).unwrap();
    for _ in 0..5 {
        assert_eq!(papi.run_for(SLICE).unwrap(), AppExit::Paused);
    }
    let (interrupts, handled, profiled) = (
        obs.get(Counter::OverflowInterrupts),
        fired.load(Ordering::Relaxed),
        papi.profil_histogram(pid).unwrap().total_samples(),
    );
    let ((), allocs) = count_in(|| {
        for _ in 0..20 {
            assert_eq!(papi.run_for(SLICE).unwrap(), AppExit::Paused);
        }
    });
    let interrupts = obs.get(Counter::OverflowInterrupts) - interrupts;
    let handled = fired.load(Ordering::Relaxed) - handled;
    let profiled = papi.profil_histogram(pid).unwrap().total_samples() - profiled;
    assert!(interrupts >= 100, "only {interrupts} interrupts");
    assert!(
        handled > 0 && profiled > 0,
        "handler {handled}, profil {profiled}"
    );
    assert_eq!(allocs, 0, "{interrupts} overflow deliveries allocated");
    papi.stop(set).unwrap();
}

#[test]
fn read_into_and_accum_are_allocation_free_through_quiet_fault_decorator() {
    // The fault-injection decorator with an empty plan (no failures,
    // full-width counters) must be a zero-cost pass-through on the hot
    // path: no widening state engages, the retry loop is a plain success
    // path, and no heap allocation appears.
    let mut papi = papi_named("fault:sim:x86", dense_fp(10, 1, 0).program, 1);
    assert_steady_state_alloc_free(&mut papi, "fault(quiet):sim:x86");
}

#[test]
fn aggd_frame_ingest_is_allocation_free_in_steady_state() {
    // The aggregation daemon's decode+apply path shares the guarantee: once
    // a source's anti-replay state and the tenant's series rings exist,
    // ingesting a pre-encoded snapshot or histogram frame must not touch
    // the heap (decode borrows, rings are fixed, stats are plain adds).
    use papi_aggd::{AggdConfig, Aggregator, ConnCtx, FrameBuf};

    let agg = Aggregator::new(AggdConfig::default());
    let mut ctx = ConnCtx::new();
    let mut fb = FrameBuf::new();
    let bind = fb.bind_tenant(0, "zero-alloc").to_vec();
    agg.ingest(&mut ctx, &bind[4..]).unwrap();
    for sid in 0..4u16 {
        let reg = fb.reg_series(0, sid, &format!("s{sid}")).to_vec();
        agg.ingest(&mut ctx, &reg[4..]).unwrap();
    }
    let frames: Vec<Vec<u8>> = (0..200u64)
        .map(|seq| {
            if seq % 8 == 7 {
                fb.hist(0, 0, 1, seq, seq * 300, &[(3, 2), (40, 1)])
                    .to_vec()
            } else {
                let deltas = [(0u16, 3u64), (1, 5), ((seq % 4) as u16, 7)];
                fb.snapshot(0, 1, seq, seq * 300, &deltas).to_vec()
            }
        })
        .collect();
    // Warm-up creates the source's anti-replay entry.
    for msg in frames.iter().take(50) {
        agg.ingest(&mut ctx, &msg[4..]).unwrap();
    }
    let ((), allocs) = count_in(|| {
        for msg in frames.iter().skip(50) {
            agg.ingest(&mut ctx, &msg[4..]).unwrap();
        }
    });
    assert_eq!(allocs, 0, "aggd ingest allocated in steady state");
    // The frames were applied, not silently shed.
    let sum = agg.query_sum("zero-alloc", "s0").expect("series");
    assert!(sum.lifetime > 0);
}

#[test]
fn aggd_client_send_and_flush_are_allocation_free_in_steady_state() {
    // The client side of the wire: frames are copied into the connection's
    // write buffer and a FLUSH writes it out and reads the ack into a
    // reused response buffer. The daemon's threads allocate on their own
    // counters; this thread's must not move.
    use papi_aggd::{AggdClient, AggdConfig, AggdServer, Aggregator, FrameBuf};

    let server = AggdServer::bind("127.0.0.1:0", Aggregator::new(AggdConfig::default())).unwrap();
    let mut c = AggdClient::connect(server.local_addr()).unwrap();
    c.bind_tenant(0, "zero-alloc").unwrap();
    c.reg_series(0, 0, "s0").unwrap();
    let mut fb = FrameBuf::new();
    let frames: Vec<Vec<u8>> = (0..128u64)
        .map(|seq| fb.snapshot(0, 1, seq, seq * 300, &[(0, 3)]).to_vec())
        .collect();
    for msg in &frames[..64] {
        c.send_raw(msg).unwrap();
    }
    c.flush().unwrap();
    let ((), allocs) = count_in(|| {
        for msg in &frames[64..] {
            c.send_raw(msg).unwrap();
        }
        c.flush().unwrap();
    });
    assert_eq!(allocs, 0, "aggd client send_raw + flush allocated");
    let sum = c.query_series("zero-alloc", "s0").unwrap().expect("series");
    assert_eq!(sum.lifetime, 3 * 128);
    server.shutdown();
}

#[test]
fn read_into_and_accum_stay_allocation_free_while_widening_wrapped_counters() {
    // Narrow (32-bit) wrapped counters engage the widening layer. Its
    // baseline/accumulator buffers are sized at start, so steady-state
    // reads stay allocation-free even while every read is masked, delta'd
    // and widened.
    let mut papi = papi_named("fault[bits=32]:sim:x86", dense_fp(10, 1, 0).program, 1);
    assert_steady_state_alloc_free(&mut papi, "fault(32-bit):sim:x86");
}
