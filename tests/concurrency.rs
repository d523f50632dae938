//! Concurrency stress suite for the per-thread session table.
//!
//! Röhl et al.'s event-validation lesson is that concurrent counting is
//! where silent miscounts hide, so these tests don't just check "nothing
//! panicked": every thread's counts are checked for *exact* equality
//! against a single-threaded replay of the same seeded workload
//! (deterministic `SmallRng` drive loops, like tests/props.rs — failures
//! reproduce from the seed in the assert message).

use papi_suite::papi::testutil::MockSubstrate;
use papi_suite::papi::threads::{PapiThread, TaggedSetId, ThreadedPapi};
use papi_suite::papi::{CountSnapshot, Papi, PapiError, Preset, SimSubstrate, Substrate};
use papi_suite::workloads::{random_program, RandomCfg};
use simcpu::rng::SmallRng;
use simcpu::{platform, Machine};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A pool whose registered threads each get a private generic machine
/// running the seed-determined random program.
fn sim_pool() -> Arc<ThreadedPapi<SimSubstrate>> {
    Arc::new(ThreadedPapi::new(0, |seed| {
        let mut m = Machine::new(platform::sim_generic(), seed);
        m.load(random_program(seed, RandomCfg::default()));
        Papi::init(SimSubstrate::new(m))
    }))
}

/// The seeded per-thread workload: interleaved run/read_into/accum/reset
/// traffic on one EventSet, returning the total counts it observed. Fully
/// deterministic in (`seed`, the session's machine) — the replay oracle.
fn drive<S: Substrate + Send>(token: &PapiThread<S>, seed: u64) -> Vec<i64> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xD1CE);
    let set = token.create_eventset();
    token
        .add_events(set, &[Preset::TotIns.code(), Preset::LdIns.code()])
        .unwrap();
    token.start(set).unwrap();
    let mut totals = vec![0i64; 2];
    let mut out = [0i64; 2];
    for _ in 0..25 {
        token.run_for(rng.gen_range(1_000..20_000)).unwrap();
        token.read_into(set, &mut out).unwrap();
        if rng.gen_bool(0.4) {
            // accum reads-and-resets: fold the epoch into the totals.
            let mut acc = [0i64; 2];
            token.accum(set, &mut acc).unwrap();
            for (t, a) in totals.iter_mut().zip(acc) {
                *t += a;
            }
        }
    }
    let tail = token.stop(set).unwrap();
    for (t, v) in totals.iter_mut().zip(tail) {
        *t += v;
    }
    token.destroy_eventset(set).unwrap();
    totals
}

#[test]
fn per_thread_totals_match_single_threaded_replay() {
    let mut rng = SmallRng::seed_from_u64(0x2001);
    let seeds: Vec<u64> = (0..4).map(|_| rng.gen_range(0u64..5000)).collect();

    // Concurrent run: 4 registered threads drive their workloads at once.
    let pool = sim_pool();
    let mut joins = Vec::new();
    for &seed in &seeds {
        let pool = pool.clone();
        joins.push(std::thread::spawn(move || {
            let token = pool.register_thread_seeded(seed).unwrap();
            let totals = drive(&token, seed);
            pool.unregister_thread(token).unwrap();
            totals
        }));
    }
    let concurrent: Vec<Vec<i64>> = joins.into_iter().map(|j| j.join().unwrap()).collect();
    assert_eq!(pool.registered_threads(), 0);

    // Replay: same seeds, same factory, one thread, one session at a time.
    let replay_pool = sim_pool();
    for (i, &seed) in seeds.iter().enumerate() {
        let token = replay_pool.register_thread_seeded(seed).unwrap();
        let totals = drive(&token, seed);
        replay_pool.unregister_thread(token).unwrap();
        assert!(totals.iter().any(|&t| t > 0), "seed {seed} counted nothing");
        assert_eq!(
            totals, concurrent[i],
            "seed {seed}: concurrent counts diverged from single-threaded replay"
        );
    }
}

#[test]
fn stress_register_count_unregister_cycles() {
    // 8 threads x 5 register/count/unregister cycles each, hammering the
    // session table from all sides while sessions come and go.
    let pool = sim_pool();
    let mut joins = Vec::new();
    for t in 0..8u64 {
        let pool = pool.clone();
        joins.push(std::thread::spawn(move || {
            for round in 0..5u64 {
                let seed = t * 100 + round;
                let token = pool.register_thread_seeded(seed).unwrap();
                let totals = drive(&token, seed);
                assert!(totals[0] >= 0, "seed {seed}");
                pool.unregister_thread(token).unwrap();
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    assert_eq!(pool.registered_threads(), 0);
}

#[test]
fn another_threads_eventset_id_is_rejected_not_panicking() {
    let pool = sim_pool();
    let (send_id, recv_id) = std::sync::mpsc::channel::<TaggedSetId>();
    let (send_done, recv_done) = std::sync::mpsc::channel::<()>();

    let owner = {
        let pool = pool.clone();
        std::thread::spawn(move || {
            let token = pool.register_thread_seeded(1).unwrap();
            let set = token.create_eventset();
            token.add_event(set, Preset::TotIns.code()).unwrap();
            token.start(set).unwrap();
            send_id.send(set).unwrap();
            // Keep the session alive until the other thread has poked it.
            recv_done.recv().unwrap();
            token.stop(set).unwrap();
            token.destroy_eventset(set).unwrap();
            pool.unregister_thread(token).unwrap();
        })
    };

    let intruder = {
        let pool = pool.clone();
        std::thread::spawn(move || {
            let token = pool.register_thread_seeded(2).unwrap();
            let foreign = recv_id.recv().unwrap();
            // Every token entry point refuses the foreign id with the
            // PAPI_EINVAL-style error, and the intruder's own session is
            // untouched by the attempts.
            let mut out = [0i64; 1];
            assert!(matches!(
                token.read_into(foreign, &mut out),
                Err(PapiError::Inval(_))
            ));
            assert!(matches!(token.start(foreign), Err(PapiError::Inval(_))));
            assert!(matches!(token.stop(foreign), Err(PapiError::Inval(_))));
            assert!(matches!(
                token.destroy_eventset(foreign),
                Err(PapiError::Inval(_))
            ));
            let own = token.create_eventset();
            token.add_event(own, Preset::TotCyc.code()).unwrap();
            token.start(own).unwrap();
            token.read_into(own, &mut out).unwrap();
            token.stop(own).unwrap();
            token.destroy_eventset(own).unwrap();
            send_done.send(()).unwrap();
            pool.unregister_thread(token).unwrap();
        })
    };

    owner.join().unwrap();
    intruder.join().unwrap();
    assert_eq!(pool.registered_threads(), 0);
}

#[test]
fn double_register_and_live_set_unregister_are_rejected() {
    let pool = sim_pool();
    let token = pool.register_thread_seeded(3).unwrap();
    // Same OS thread, second registration: conflict.
    assert!(matches!(
        pool.register_thread_seeded(4),
        Err(PapiError::Cnflct)
    ));
    // Unregister with a live EventSet: rejected, token handed back.
    let set = token.create_eventset();
    token.add_event(set, Preset::TotIns.code()).unwrap();
    let (token, err) = pool.unregister_thread(token).unwrap_err();
    assert!(matches!(err, PapiError::Inval(_)));
    token.destroy_eventset(set).unwrap();
    pool.unregister_thread(token).unwrap();
    // Clean again: registration works anew.
    let token = pool.register_thread_seeded(5).unwrap();
    pool.unregister_thread(token).unwrap();
}

#[test]
fn shared_obs_stays_consistent_under_concurrent_sessions() {
    let pool = {
        let mut p = ThreadedPapi::new(0, |seed| {
            let mut m = Machine::new(platform::sim_generic(), seed);
            m.load(random_program(seed, RandomCfg::default()));
            Papi::init(SimSubstrate::new(m))
        });
        let obs = papi_suite::obs::Obs::new();
        obs.enable_journal(1 << 14);
        p.attach_obs(obs);
        Arc::new(p)
    };
    let mut joins = Vec::new();
    for t in 0..4u64 {
        let pool = pool.clone();
        joins.push(std::thread::spawn(move || {
            let token = pool.register_thread_seeded(t).unwrap();
            drive(&token, t);
            pool.unregister_thread(token).unwrap();
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let obs = pool.obs().unwrap();
    use papi_suite::obs::Counter;
    assert_eq!(obs.get(Counter::ThreadsRegistered), 4);
    assert_eq!(obs.get(Counter::ThreadsUnregistered), 4);
    // Each drive() makes 25 explicit read_into calls (accum stages more
    // reads internally, so >= is the exact lower bound).
    assert!(obs.get(Counter::Reads) >= 4 * 25);
    assert_eq!(obs.get(Counter::Starts), 4);
    assert_eq!(obs.get(Counter::Stops), 4);
    // Journal sequence numbers are unique across all concurrent writers,
    // and the generous capacity means nothing was dropped.
    assert_eq!(obs.journal_dropped(), 0);
    let recs = obs.journal_records();
    let mut seqs: Vec<u64> = recs.iter().map(|r| r.seq).collect();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), recs.len(), "duplicate journal seq numbers");
    let registered = recs
        .iter()
        .filter(|r| r.event.kind() == "obs.thread_registered")
        .count();
    assert_eq!(registered, 4);
}

#[test]
fn tagged_ids_expose_their_slot_and_stay_in_range() {
    let pool = sim_pool();
    let token = pool.register_thread_seeded(9).unwrap();
    let set = token.create_eventset();
    // The table is dense: the only registered thread holds slot 0.
    assert_eq!(set.slot(), 0);
    assert_eq!(set.slot(), token.slot());
    // The cross-thread lookup routes by the tag alone.
    let n = pool
        .with_session_of(set, |papi| papi.num_events(set.local()).unwrap())
        .unwrap();
    assert_eq!(n, 0);
    token.destroy_eventset(set).unwrap();
    pool.unregister_thread(token).unwrap();
}

#[test]
fn churn_keeps_slots_dense_under_concurrent_snapshots() {
    // 4 threads x 250 register/read/unregister cycles while an observer
    // polls every slot: cells are reused in place, so no slot ever
    // reaches the peak number of threads registered at once.
    const CHURNERS: usize = 4;
    let pool = Arc::new(ThreadedPapi::new(0, |_| Papi::init(MockSubstrate::new())));
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let observer = s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                for slot in 0..=CHURNERS {
                    // Every occupant number, so the slot's current one too.
                    for occupant in 0..=u8::MAX {
                        // Any answer is fine; a published one is whole.
                        let id = TaggedSetId::new(slot, occupant, 0);
                        if let Ok(snap) = pool.snapshot_counts(id) {
                            assert_eq!(snap.len, 1, "half-published snapshot");
                        }
                    }
                }
            }
        });
        let churn = || {
            for _ in 0..250 {
                let token = pool.register_thread().unwrap();
                let slot = token.slot();
                assert!(slot < CHURNERS, "slot {slot} past the peak");
                let set = token.create_eventset();
                token.add_event(set, Preset::TotIns.code()).unwrap();
                token.start(set).unwrap();
                token.read_into(set, &mut [0i64; 1]).unwrap();
                token.stop(set).unwrap();
                token.destroy_eventset(set).unwrap();
                pool.unregister_thread(token).unwrap();
            }
        };
        let churners: Vec<_> = (0..CHURNERS).map(|_| s.spawn(churn)).collect();
        // Stop the observer before reporting a churner's panic.
        let churned: Vec<_> = churners.into_iter().map(|c| c.join()).collect();
        done.store(true, Ordering::Relaxed);
        observer.join().unwrap();
        churned.into_iter().for_each(|r| r.unwrap());
    });
    assert_eq!(pool.registered_threads(), 0);
}

/// Seeded-interleaving torture for the lock-free read path: one writer
/// thread drives its session through start/read/reset/stop churn (every
/// reprogramming op opens a new published generation) while reader threads
/// hammer the wait-free `snapshot_counts` observer API and assert the
/// seqlock invariants on every copy they obtain:
///
/// * the snapshot length always matches the set (never a half-published
///   area),
/// * generations never go backwards (only the owner bumps them),
/// * within one generation, every event's value is monotone non-decreasing
///   — a torn copy mixing pre-reset (large) and post-reset (small) values,
///   or values from two different publishes, would break this ordering in
///   one direction or the other.
///
/// The writer also asserts its own `read_into` results are monotone within
/// an epoch, so both ends of the seqlock are checked. The writer keeps
/// churning until the readers have demonstrably observed enough snapshots
/// (single-core hosts may schedule the readers rarely), bounded by a round
/// cap so a broken observer path fails instead of hanging.
fn seqlock_torture(substrate: &'static str) {
    let pool = Arc::new(ThreadedPapi::new(0, move |seed| {
        let reg = papi_suite::tools::full_registry();
        let mut p = Papi::init_from_registry(&reg, substrate, seed)?;
        p.substrate_mut()
            .load_program(random_program(seed, RandomCfg::default()))?;
        Ok(p)
    }));
    let done = Arc::new(AtomicBool::new(false));
    let seen = Arc::new(AtomicU64::new(0));
    let ready = Arc::new(AtomicU64::new(0));
    let (id_tx, id_rx) = std::sync::mpsc::channel::<TaggedSetId>();

    let writer = {
        let pool = pool.clone();
        let seen = seen.clone();
        let ready = ready.clone();
        std::thread::spawn(move || {
            let token = pool.register_thread_seeded(7).unwrap();
            let set = token.create_eventset();
            token
                .add_events(set, &[Preset::TotIns.code(), Preset::TotCyc.code()])
                .unwrap();
            id_tx.send(set).unwrap();
            // Don't start churning until both readers are polling — on a
            // single-core host the writer could otherwise finish every
            // round inside its first timeslice.
            while ready.load(Ordering::Relaxed) < 2 {
                std::thread::yield_now();
            }
            let mut rounds = 0u64;
            while rounds < 20 || (seen.load(Ordering::Relaxed) < 50 && rounds < 20_000) {
                rounds += 1;
                token.start(set).unwrap();
                let mut prev = [i64::MIN; 2];
                for step in 0..5u64 {
                    token.run_for(2_000).unwrap();
                    let mut out = [0i64; 2];
                    token.read_into(set, &mut out).unwrap();
                    assert!(
                        out.iter().zip(prev.iter()).all(|(o, p)| o >= p),
                        "substrate {substrate}: owner read went backwards within an epoch \
                         ({out:?} after {prev:?})"
                    );
                    prev = out;
                    // Yield while the publication area holds fresh values,
                    // so observers on a single-core host poll non-empty
                    // windows, then occasionally open a new generation.
                    std::thread::yield_now();
                    if (rounds + step).is_multiple_of(3) {
                        token.reset(set).unwrap();
                        prev = [i64::MIN; 2];
                    }
                }
                token.stop(set).unwrap();
            }
            token.destroy_eventset(set).unwrap();
            pool.unregister_thread(token).unwrap();
        })
    };

    let set = id_rx.recv().unwrap();
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let pool = pool.clone();
            let done = done.clone();
            let seen = seen.clone();
            let ready = ready.clone();
            std::thread::spawn(move || {
                ready.fetch_add(1, Ordering::Relaxed);
                let mut last: Option<CountSnapshot> = None;
                while !done.load(Ordering::Relaxed) {
                    // Errors are legitimate states (stopped, reset-not-yet
                    // republished, unregistered at the end); invariants
                    // apply to every successful snapshot.
                    if let Ok(s) = pool.snapshot_counts(set) {
                        assert_eq!(s.len, 2, "substrate {substrate}: half-published snapshot");
                        assert!(
                            s.values[..2].iter().all(|&v| v >= 0),
                            "substrate {substrate}: negative count in snapshot (torn read)"
                        );
                        if let Some(l) = &last {
                            assert!(
                                s.generation >= l.generation,
                                "substrate {substrate}: generation went backwards"
                            );
                            if s.generation == l.generation {
                                for i in 0..2 {
                                    assert!(
                                        s.values[i] >= l.values[i],
                                        "substrate {substrate}: event {i} regressed \
                                         {} -> {} within generation {} \
                                         (torn or mixed-generation snapshot)",
                                        l.values[i],
                                        s.values[i],
                                        s.generation
                                    );
                                }
                            }
                        }
                        last = Some(s);
                        seen.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();

    writer.join().unwrap();
    done.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }
    assert!(
        seen.load(Ordering::Relaxed) > 0,
        "substrate {substrate}: observers never obtained a snapshot"
    );
    assert_eq!(pool.registered_threads(), 0);
}

#[test]
fn seqlock_torture_clean_substrate() {
    seqlock_torture("sim:x86");
}

#[test]
fn seqlock_torture_chaos_faults() {
    // Transient failure bursts + delayed interrupts: the retry loop runs
    // inside the owner's exclusive phase, so injected read failures must
    // never surface as torn or regressing observer snapshots.
    seqlock_torture("fault[chaos]:sim:x86");
}

#[test]
fn seqlock_torture_narrow_counters() {
    // 32-bit wrapped counters: the widening layer rebuilds full-width
    // monotone values before publication, so observers must see monotone
    // counts even while the raw registers wrap.
    seqlock_torture("fault[bits=32]:sim:x86");
}

#[test]
fn fault_decorated_sessions_count_identically_under_concurrency() {
    // Smoke for the fault-injection decorator under concurrency: each
    // registered thread gets a `fault[chaos]:` wrapped private substrate
    // (seeded narrow wrapped counters, transient failure bursts, delayed
    // deliveries). The retry and widening machinery is per-session state,
    // so concurrent faulted sessions must produce exactly the counts of a
    // clean single-threaded replay.
    let seeds = [3u64, 101, 2048, 77];
    let pool = Arc::new(ThreadedPapi::new(0, |seed| {
        let reg = papi_suite::tools::full_registry();
        let mut p = Papi::init_from_registry(&reg, "fault[chaos]:sim:generic", seed)?;
        p.substrate_mut()
            .load_program(random_program(seed, RandomCfg::default()))?;
        Ok(p)
    }));
    let mut joins = Vec::new();
    for &seed in &seeds {
        let pool = pool.clone();
        joins.push(std::thread::spawn(move || {
            let token = pool.register_thread_seeded(seed).unwrap();
            let totals = drive(&token, seed);
            pool.unregister_thread(token).unwrap();
            totals
        }));
    }
    let faulted: Vec<Vec<i64>> = joins.into_iter().map(|j| j.join().unwrap()).collect();

    // Clean replay oracle: same seeds, fault-free substrates, one thread.
    let clean_pool = sim_pool();
    for (i, &seed) in seeds.iter().enumerate() {
        let token = clean_pool.register_thread_seeded(seed).unwrap();
        let totals = drive(&token, seed);
        clean_pool.unregister_thread(token).unwrap();
        assert!(totals.iter().any(|&t| t > 0), "seed {seed} counted nothing");
        assert_eq!(
            totals, faulted[i],
            "seed {seed}: the fault decorator leaked into concurrent counts"
        );
    }
}
