//! `papi_cost` — measure the cost of the basic PAPI operations on a
//! platform (the PAPI distribution's `papi_cost` utility; §4's overhead
//! numbers start from exactly these micro-costs).
//!
//! ```text
//! papi_cost [--platform NAME]        # one platform (static dispatch)
//! papi_cost --platform-file PATH     # a platform loaded from a model file
//! papi_cost --substrate NAME         # any registry backend (sim:x86, perfctr, ...)
//! papi_cost --all                    # table across every platform
//! papi_cost --self-check [NAME]      # cross-check vs papi-obs self-accounting
//! ```
//!
//! `--self-check` runs the same micro-cost loops with a papi-obs context
//! attached and compares the externally measured per-call cycles against the
//! cycles the library charged itself via span accounting.  The two must
//! agree: a divergence means the self-accounting spans do not cover (or
//! over-cover) the real hot paths.

use papi_core::{Papi, Preset, SimSubstrate, Substrate};
use papi_obs::thread_cpu_ns;
use simcpu::{all_platforms, Machine, PlatformSpec};

// Count host heap traffic so `--self-check` can report allocations per
// steady-state read alongside the cycle cross-check.
#[global_allocator]
static ALLOC: papi_obs::alloc_track::CountingAlloc = papi_obs::alloc_track::CountingAlloc;

struct Costs {
    read: f64,
    start_stop: f64,
    reset: f64,
    timer: f64,
}

fn measure(spec: PlatformSpec) -> Costs {
    let mut m = Machine::new(spec, 1);
    m.load(papi_workloads::dense_fp(10, 1, 0).program);
    let mut papi = Papi::init(SimSubstrate::new(m)).unwrap();
    measure_session(&mut papi)
}

// The cost loops themselves are substrate-generic: the same code measures
// a statically dispatched simulated session and a boxed registry-created
// one (`--substrate NAME`).
fn measure_session<S: Substrate>(papi: &mut Papi<S>) -> Costs {
    let set = papi.create_eventset();
    papi.add_event(set, Preset::TotCyc.code()).unwrap();

    let n = 200u64;

    papi.start(set).unwrap();
    let c0 = papi.get_real_cyc();
    for _ in 0..n {
        let _ = papi.read(set).unwrap();
    }
    let read = (papi.get_real_cyc() - c0) as f64 / n as f64;
    papi.stop(set).unwrap();

    let c0 = papi.get_real_cyc();
    for _ in 0..n {
        papi.start(set).unwrap();
        papi.stop(set).unwrap();
    }
    let start_stop = (papi.get_real_cyc() - c0) as f64 / n as f64;

    papi.start(set).unwrap();
    let c0 = papi.get_real_cyc();
    for _ in 0..n {
        papi.reset(set).unwrap();
    }
    let reset = (papi.get_real_cyc() - c0) as f64 / n as f64;
    papi.stop(set).unwrap();

    let c0 = papi.get_real_cyc();
    for _ in 0..n {
        let _ = papi.get_real_usec();
    }
    let timer = (papi.get_real_cyc() - c0) as f64 / n as f64;

    Costs {
        read,
        start_stop,
        reset,
        timer,
    }
}

fn row(spec: PlatformSpec) {
    let name = spec.name;
    let mhz = spec.clock_mhz;
    let c = measure(spec);
    print_row(name, mhz, &c);
}

fn row_named(name: &str) {
    let reg = papi_tools::full_registry();
    let mut papi = match Papi::init_from_registry(&reg, name, 1) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("papi_cost: {e}");
            std::process::exit(2);
        }
    };
    papi.substrate_mut()
        .load_program(papi_workloads::dense_fp(10, 1, 0).program)
        .unwrap();
    let mhz = papi.hw_info().mhz;
    let c = measure_session(&mut papi);
    print_row(name, mhz, &c);
}

fn print_row(name: &str, mhz: u64, c: &Costs) {
    println!(
        "{:<12} {:>12.0} {:>14.0} {:>12.0} {:>12.0} {:>12.2}",
        name,
        c.read,
        c.start_stop,
        c.reset,
        c.timer,
        c.read * 1000.0 / mhz as f64
    );
}

/// Re-run the read and start+stop loops with papi-obs attached; report the
/// externally measured averages next to the registry's self-accounted ones.
fn self_check(spec: PlatformSpec) -> bool {
    let name = spec.name;
    let mut m = Machine::new(spec, 1);
    m.load(papi_workloads::dense_fp(10, 1, 0).program);
    let mut papi = Papi::init(SimSubstrate::new(m)).unwrap();
    let obs = papi_obs::Obs::new();
    papi.attach_obs(obs.clone());
    let set = papi.create_eventset();
    papi.add_event(set, Preset::TotCyc.code()).unwrap();

    let n = 200u64;

    papi.start(set).unwrap();
    let c0 = papi.get_real_cyc();
    for _ in 0..n {
        let _ = papi.read(set).unwrap();
    }
    let read_measured = (papi.get_real_cyc() - c0) as f64 / n as f64;
    papi.stop(set).unwrap();

    use papi_obs::Counter as C;
    let read_accounted = obs.get(C::CyclesInRead) as f64 / obs.get(C::Reads) as f64;

    let c0 = papi.get_real_cyc();
    for _ in 0..n {
        papi.start(set).unwrap();
        papi.stop(set).unwrap();
    }
    let ss_measured = (papi.get_real_cyc() - c0) as f64 / n as f64;
    // Subtract the priming start/stop pair that preceded the timed loop.
    let pairs = obs.get(C::Starts) - 1;
    let prime = obs.get(C::CyclesInStartStop) as f64 * 1.0 / obs.get(C::Starts) as f64;
    let ss_accounted = (obs.get(C::CyclesInStartStop) as f64 - prime) / pairs as f64;

    // Allocation probe: steady-state reads through the zero-allocation
    // `read_into` path, after a short warm-up that grows the scratch
    // buffers to capacity.
    papi.start(set).unwrap();
    let mut out = [0i64; 1];
    for _ in 0..16 {
        papi.read_into(set, &mut out).unwrap();
    }
    let ((), allocs) = papi_obs::alloc_track::count_in(|| {
        for _ in 0..n {
            papi.read_into(set, &mut out).unwrap();
        }
    });
    papi.stop(set).unwrap();
    let allocs_per_read = allocs as f64 / n as f64;

    // Allocator-memo effectiveness over the repeated start/stop loop: the
    // first solve is the only miss, every re-start replays the cached
    // assignment.
    let memo_hits = obs.get(C::AllocMemoHits);
    let memo_misses = obs.get(C::AllocMemoMisses);
    let memo_rate = memo_hits as f64 / (memo_hits + memo_misses).max(1) as f64 * 100.0;

    let pct = |a: f64, b: f64| (a - b).abs() / b.max(1.0) * 100.0;
    let read_dev = pct(read_accounted, read_measured);
    let ss_dev = pct(ss_accounted, ss_measured);
    println!(
        "{:<12} {:>12.1} {:>12.1} {:>7.2}% {:>14.1} {:>14.1} {:>7.2}% {:>9.2} {:>8.1}%",
        name,
        read_measured,
        read_accounted,
        read_dev,
        ss_measured,
        ss_accounted,
        ss_dev,
        allocs_per_read,
        memo_rate
    );
    // Loop bookkeeping outside the spans is uncosted in the simulator, so
    // agreement should be essentially exact; 5% leaves margin for the
    // amortized priming correction.  The steady-state read path must not
    // touch the heap at all.
    read_dev < 5.0 && ss_dev < 5.0 && allocs == 0
}

/// Micro-cost row for the aggregation daemon's ingest path: decode + apply
/// throughput on pre-encoded snapshot frames, steady-state allocations per
/// frame (must be zero), and resident bytes per tenant.
fn self_check_aggd() -> bool {
    let ingest = papi_aggd::ingest_bench("cost", 10_000);
    println!(
        "{:<12} {:>14.0} {:>14} {:>12.2}",
        "aggd ingest",
        1e9 / ingest.ns_per_frame,
        ingest.bytes_per_tenant,
        ingest.allocs_per_frame
    );
    ingest.allocs_per_frame == 0.0
}

/// Contention row: per-thread CPU cost of the token `read_into` path at 1
/// vs 4 registered threads, and the 4t/1t scaling ratio. The lock-free
/// read-path guarantee is that the ratio stays within 1.5x — each thread
/// burns the same CPU per read no matter how many peers are counting.
/// CPU time (not wall-clock) is compared, so a single-core host's
/// time-slicing does not read as contention.
fn self_check_contention() -> bool {
    use papi_core::{SubstrateRegistry, ThreadedPapi};
    use std::sync::Arc;

    fn cpu_ns_per_op(threads: usize, iters: u64) -> (f64, bool) {
        let reg = Arc::new(SubstrateRegistry::with_builtin());
        let program = papi_workloads::dense_fp(10, 1, 0).program;
        let pool = Arc::new(ThreadedPapi::new(1, move |seed| {
            let mut p = Papi::init_from_registry(&reg, "sim:x86", seed)?;
            p.substrate_mut().load_program(program.clone())?;
            Ok(p)
        }));
        let mut joins = Vec::new();
        for t in 0..threads {
            let pool = pool.clone();
            joins.push(std::thread::spawn(move || {
                let token = pool.register_thread_seeded(t as u64 + 1).unwrap();
                let set = token.create_eventset();
                token.add_event(set, Preset::TotCyc.code()).unwrap();
                token.start(set).unwrap();
                let mut out = [0i64; 1];
                for _ in 0..16 {
                    token.read_into(set, &mut out).unwrap();
                }
                let cpu0 = thread_cpu_ns();
                let t0 = std::time::Instant::now();
                for _ in 0..iters {
                    token.read_into(set, &mut out).unwrap();
                }
                let wall = t0.elapsed().as_nanos() as u64;
                let cpu = match (cpu0, thread_cpu_ns()) {
                    (Some(a), Some(b)) => Some(b.saturating_sub(a)),
                    _ => None,
                };
                std::hint::black_box(out[0]);
                token.stop(set).unwrap();
                token.destroy_eventset(set).unwrap();
                pool.unregister_thread(token).unwrap();
                (cpu, wall)
            }));
        }
        let samples: Vec<(Option<u64>, u64)> =
            joins.into_iter().map(|j| j.join().unwrap()).collect();
        let cpu_clock = samples.iter().all(|(c, _)| c.is_some());
        let total: u64 = samples
            .iter()
            .map(|&(c, w)| if cpu_clock { c.unwrap() } else { w })
            .sum();
        (total as f64 / (iters * threads as u64) as f64, cpu_clock)
    }

    let iters = 50_000u64;
    let (one, clock1) = cpu_ns_per_op(1, iters);
    let (four, clock4) = cpu_ns_per_op(4, iters);
    let ratio = four / one;
    let cpu_clock = clock1 && clock4;
    println!(
        "{:<12} {:>14.1} {:>14.1} {:>9.2}x {:>10}",
        "contention",
        one,
        four,
        ratio,
        if cpu_clock { "cpu" } else { "wall" }
    );
    // Without a per-thread CPU clock the wall-clock ratio conflates
    // time-slicing with contention, so only the CPU-time figure gates.
    !cpu_clock || ratio <= 1.5
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(|s| s.as_str()) == Some("--self-check") {
        println!(
            "{:<12} {:>12} {:>12} {:>8} {:>14} {:>14} {:>8} {:>9} {:>9}",
            "platform",
            "read meas",
            "read acct",
            "dev",
            "ss meas",
            "ss acct",
            "dev",
            "allocs/rd",
            "memo hit"
        );
        let specs: Vec<PlatformSpec> = match args.get(1) {
            Some(name) => match papi_tools::resolve_platform(name) {
                Ok(p) => vec![p],
                Err(e) => {
                    eprintln!("papi_cost: {e}");
                    std::process::exit(2);
                }
            },
            None => all_platforms(),
        };
        let mut ok = true;
        for p in specs {
            ok &= self_check(p);
        }
        println!(
            "\n{:<12} {:>14} {:>14} {:>12}",
            "", "frames/sec", "bytes/tenant", "allocs/frame"
        );
        ok &= self_check_aggd();
        println!(
            "\n{:<12} {:>14} {:>14} {:>10} {:>10}",
            "", "1t ns/op", "4t ns/op", "scaling", "clock"
        );
        ok &= self_check_contention();
        if !ok {
            eprintln!("papi_cost: self-accounting diverges from measured costs");
            std::process::exit(1);
        }
        println!("\nself-accounted cycles agree with measured micro-costs;");
        println!("steady-state reads and aggd frame ingest are allocation-free;");
        println!("4-thread reads stay within 1.5x of single-thread CPU cost");
        return;
    }
    println!(
        "{:<12} {:>12} {:>14} {:>12} {:>12} {:>12}",
        "platform", "read cyc", "start+stop cyc", "reset cyc", "timer cyc", "read ns"
    );
    match args.first().map(|s| s.as_str()) {
        Some("--all") | None => {
            for p in all_platforms() {
                row(p);
            }
        }
        Some("--platform") => {
            let name = args.get(1).map(|s| s.as_str()).unwrap_or("");
            match papi_tools::resolve_platform(name) {
                Ok(p) => row(p),
                Err(e) => {
                    eprintln!("papi_cost: {e}");
                    std::process::exit(2);
                }
            }
        }
        Some("--platform-file") => {
            let path = args.get(1).map(|s| s.as_str()).unwrap_or("");
            match papi_tools::resolve_platform(&format!("file:{path}")) {
                Ok(p) => row(p),
                Err(e) => {
                    eprintln!("papi_cost: {e}");
                    std::process::exit(2);
                }
            }
        }
        Some("--substrate") => {
            let name = args.get(1).map(|s| s.as_str()).unwrap_or("");
            row_named(name);
        }
        _ => {
            eprintln!(
                "usage: papi_cost [--platform NAME | --platform-file PATH | --substrate NAME | --all]"
            );
            std::process::exit(2);
        }
    }
    println!("\n(timer reads are vsyscall-class: no kernel crossing — \"the lowest overhead");
    println!(" … timers available on a given platform\", §3)");
}
