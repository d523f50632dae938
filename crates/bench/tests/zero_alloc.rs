//! The zero-allocation hot-path guarantee, asserted with the counting
//! global allocator that `papi_bench` installs for every binary that links
//! it (including this test).
//!
//! Steady state = the EventSet is started and the session's scratch buffers
//! have been through at least one call (they reach capacity immediately).
//! From then on `read_into` and `accum` must not touch the heap at all, on
//! both the statically dispatched and the registry-boxed session, with or
//! without a papi-obs context attached (journal off — journaling buys
//! records with allocations by design).

use papi_bench::{papi_named, papi_on};
use papi_core::{AppExit, Papi, Preset, SimSubstrate, Substrate};
use papi_obs::alloc_track::count_in;
use papi_workloads::{dense_fp, pingpong, strided_stream};
use simcpu::platform::sim_x86;
use simcpu::Machine;

const EVENTS: [Preset; 4] = [Preset::TotCyc, Preset::TotIns, Preset::LdIns, Preset::SrIns];

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
    // rotation programs through the prog scratch and flushes through the
    // live scratch.
    let mut papi = papi_on(sim_x86(), dense_fp(400, 1, 0).program, 1);
    let set = papi.create_eventset();
    // LdIns, SrIns and L1 cache misses compete for counters 2-3 on sim-x86:
    // forces two partitions.
    for ev in [Preset::LdIns, Preset::SrIns, Preset::L1Dcm] {
        papi.add_event(set, ev.code()).unwrap();
    }
    papi.set_multiplex(set).unwrap();
    papi.start(set).unwrap();
    let mut out = [0i64; 3];
    // Let the timer rotate through both partitions a few times, then warm
    // the read path.
    for _ in 0..6 {
        papi.run_for(200_000).unwrap();
        papi.read_into(set, &mut out).unwrap();
    }
    let ((), allocs) = count_in(|| {
        for _ in 0..20 {
            papi.run_for(200_000).unwrap();
            papi.read_into(set, &mut out).unwrap();
        }
    });
    assert_eq!(
        allocs, 0,
        "multiplexed rotate+read allocated in steady state"
    );
    std::hint::black_box(out[0]);
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
