//! Cell execution: barrier-synchronized, seeded, warmup/measure phased.
//!
//! Every cell, one thread or many, runs one protocol (SPEC.md §14): its
//! workers register seeded sessions in one `ThreadedPapi` table and time
//! one op loop, the protocol the retired bespoke harnesses ran:
//!
//! * **Seeds** — thread `t` of a cell gets `seed + t · seed_stride`
//!   (stride 0 makes every worker's machine — and fault schedule —
//!   bit-identical, which is what the barrier-spread test exploits).
//! * **Warmup** — each thread performs `warmup` unmeasured ops, filling
//!   scratch buffers, plan caches and branch predictors, *before* the
//!   start barrier; measurement begins only when every thread has arrived.
//! * **Measure** — `reps` repetitions of `iters` ops.  Wall ns/op reports
//!   the minimum repetition (noise only ever inflates a rep); allocations
//!   are summed over all reps (the zero-allocation guarantee must hold in
//!   every one); virtual cycles and CPU time span the whole measured
//!   phase, so `vcyc_per_op` is exact and host-independent.
//! * **Self-observation** — a fresh [`papi_obs`] context is attached per
//!   cell; the report carries the cell's own API-read, multiplex-rotation
//!   and fault-retry counter deltas.
//!
//! A cell whose setup the substrate refuses (registry miss, allocation
//! failure, mode rejection) is **unsupported**: it still joins the
//! barrier protocol (no deadlock), reports zeroed measurements, and
//! contributes zero to the performance-portability score.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use papi_core::{Papi, PapiThread, Substrate, SubstrateRegistry, TaggedSetId, ThreadedPapi};
use papi_obs::alloc_track::count_in;
use papi_obs::{thread_cpu_ns, Counter, Obs, ObsHandle};
use papi_workloads::dense_fp;
use simcpu::platform::sim_x86;

use super::config::{dispatch_of, CellSpec, Dispatch, Op, CELL_EVENTS, MPX_PERIOD};

/// Run-wide knobs that are not part of any cell's identity.
#[derive(Clone)]
pub struct RunOptions {
    /// Matrix-level self-observation (`matrix.*` counters); per-cell obs
    /// contexts are created internally regardless.
    pub obs: Option<ObsHandle>,
    /// Per-thread seed spacing (`seed + t · stride`).  The default 1 gives
    /// every worker an independent machine; 0 makes them identical.
    pub seed_stride: u64,
    /// Print one line per cell as it completes.
    pub progress: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            obs: None,
            seed_stride: 1,
            progress: false,
        }
    }
}

/// One cell's measured outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    pub spec: CellSpec,
    /// False when the substrate refused the cell's setup; all
    /// measurements are zero and the cell scores 0 efficiency.
    pub supported: bool,
    /// Virtual cycles per op over the cell's makespan (slowest thread) —
    /// deterministic for a given config and seed, the regression-gate
    /// metric.
    pub vcyc_per_op: f64,
    /// Best-of-reps wall nanoseconds per op, averaged across threads.
    pub ns_per_op: f64,
    /// Per-thread CPU nanoseconds per op (schedstat); wall fallback when
    /// the host offers no per-thread CPU clock.
    pub cpu_ns_per_op: f64,
    /// Whether `cpu_ns_per_op` is a true CPU-time figure.
    pub cpu_clock: bool,
    /// Heap allocations per op, summed over threads and reps.
    pub allocs_per_op: f64,
    /// Max spread of the threads' post-barrier start timestamps, in
    /// virtual cycles (0 for single-thread cells).
    pub barrier_spread_vcyc: u64,
    /// Aggregate ops per million virtual cycles of makespan (the scaling
    /// metric: grows with thread count iff nothing serializes threads).
    pub virt_throughput: f64,
    /// Cell-local obs delta: API-level read + accum calls.
    pub obs_reads: u64,
    /// Cell-local obs delta: multiplex partition rotations.
    pub obs_mpx_rotations: u64,
    /// Cell-local obs delta: transient faults absorbed by retry.
    pub obs_fault_retries: u64,
}

impl CellResult {
    fn unsupported(spec: &CellSpec) -> CellResult {
        CellResult {
            spec: spec.clone(),
            supported: false,
            vcyc_per_op: 0.0,
            ns_per_op: 0.0,
            cpu_ns_per_op: 0.0,
            cpu_clock: false,
            allocs_per_op: 0.0,
            barrier_spread_vcyc: 0,
            virt_throughput: 0.0,
            obs_reads: 0,
            obs_mpx_rotations: 0,
            obs_fault_retries: 0,
        }
    }
}

/// One thread's measured contribution to a cell.
struct ThreadSample {
    /// Virtual clock right after the start barrier released.
    start_vcyc: u64,
    /// Virtual cycles spent across all measured reps.
    virt_cycles: u64,
    /// Minimum wall nanoseconds across reps (one rep = `iters` ops).
    best_rep_wall_ns: f64,
    /// CPU nanoseconds across all measured reps, when the host has a
    /// per-thread CPU clock.
    cpu_ns: Option<u64>,
    /// Heap allocations across all measured reps.
    allocs: u64,
}

/// Run every cell in order.  Never panics on substrate refusal — refused
/// cells come back `supported: false`.
pub fn run_matrix(specs: &[CellSpec], opts: &RunOptions) -> Vec<CellResult> {
    let reg = Arc::new(papi_tools::full_registry());
    specs
        .iter()
        .map(|spec| {
            let r = run_cell_with(spec, opts, &reg);
            if let Some(obs) = &opts.obs {
                obs.inc(if r.supported {
                    Counter::MatrixCellsRun
                } else {
                    Counter::MatrixCellsUnsupported
                });
                obs.add(Counter::MatrixThreadsLaunched, spec.threads as u64);
            }
            if opts.progress {
                if r.supported {
                    println!(
                        "  {:<56} {:>10.2} vcyc/op {:>9.1} ns/op {:>7.2} allocs/op",
                        r.spec.coord(),
                        r.vcyc_per_op,
                        r.ns_per_op,
                        r.allocs_per_op
                    );
                } else {
                    println!("  {:<56} unsupported", r.spec.coord());
                }
            }
            r
        })
        .collect()
}

/// Run one cell against a prebuilt registry.
pub fn run_cell(spec: &CellSpec, opts: &RunOptions) -> CellResult {
    run_cell_with(spec, opts, &Arc::new(papi_tools::full_registry()))
}

fn run_cell_with(spec: &CellSpec, opts: &RunOptions, reg: &Arc<SubstrateRegistry>) -> CellResult {
    let program = dense_fp(10, 1, 0).program;
    match dispatch_of(&spec.substrate) {
        Dispatch::Static => run_cell_generic(spec, opts, move |seed| {
            let mut m = simcpu::Machine::new(sim_x86(), seed);
            m.load(program.clone());
            Papi::init(papi_core::SimSubstrate::new(m))
        }),
        Dispatch::Registry(name) => {
            let reg = reg.clone();
            let name = name.to_string();
            run_cell_generic(spec, opts, move |seed| {
                let mut papi = Papi::init_from_registry(&reg, &name, seed)?;
                papi.substrate_mut().load_program(program.clone())?;
                Ok(papi)
            })
        }
    }
}

/// Run the cell's workers over one `ThreadedPapi` table (each with its own
/// seeded machine and fault schedule) and fold their samples; one worker
/// whose setup failed makes the cell unsupported.
fn run_cell_generic<S, F>(spec: &CellSpec, opts: &RunOptions, factory: F) -> CellResult
where
    S: Substrate + Send + 'static,
    F: Fn(u64) -> papi_core::Result<Papi<S>> + Send + Sync + 'static,
{
    let cell_obs = Obs::new();
    let mut pool = ThreadedPapi::new(spec.seed, factory);
    pool.attach_obs(cell_obs.clone());
    let pool = Arc::new(pool);
    let barrier = Barrier::new(spec.threads);
    let samples: Option<Vec<ThreadSample>> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..spec.threads)
            .map(|t| {
                let seed = spec.seed + t as u64 * opts.seed_stride;
                let (pool, barrier) = (&pool, &barrier);
                scope.spawn(move || worker(pool, barrier, spec, seed))
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("matrix worker panicked"))
            .collect()
    });
    match samples {
        Some(samples) => aggregate(spec, &cell_obs, &samples),
        None => CellResult::unsupported(spec),
    }
}

fn aggregate(spec: &CellSpec, cell_obs: &ObsHandle, samples: &[ThreadSample]) -> CellResult {
    let threads = samples.len() as u64;
    let ops_per_thread = spec.iters * spec.reps as u64;
    let total_ops = ops_per_thread * threads;
    let makespan = samples.iter().map(|s| s.virt_cycles).max().unwrap_or(0);
    let wall_sum: f64 = samples.iter().map(|s| s.best_rep_wall_ns).sum();
    let cpu_clock = samples.iter().all(|s| s.cpu_ns.is_some());
    let allocs: u64 = samples.iter().map(|s| s.allocs).sum();
    let start_min = samples.iter().map(|s| s.start_vcyc).min().unwrap_or(0);
    let start_max = samples.iter().map(|s| s.start_vcyc).max().unwrap_or(0);
    let ns_per_op = wall_sum / (threads * spec.iters) as f64;
    let cpu_ns_per_op = if cpu_clock {
        let cpu: u64 = samples.iter().filter_map(|s| s.cpu_ns).sum();
        cpu as f64 / total_ops as f64
    } else {
        ns_per_op
    };
    CellResult {
        spec: spec.clone(),
        supported: true,
        vcyc_per_op: makespan as f64 / ops_per_thread as f64,
        ns_per_op,
        cpu_ns_per_op,
        cpu_clock,
        allocs_per_op: allocs as f64 / total_ops as f64,
        barrier_spread_vcyc: start_max - start_min,
        virt_throughput: if makespan == 0 {
            0.0
        } else {
            total_ops as f64 / makespan as f64 * 1e6
        },
        obs_reads: cell_obs.get(Counter::Reads) + cell_obs.get(Counter::Accums),
        obs_mpx_rotations: cell_obs.get(Counter::MpxRotations),
        obs_fault_retries: cell_obs.get(Counter::FaultRetries),
    }
}

/// One worker thread.  Setup failures do not bail before the barrier —
/// every thread always arrives, so no sibling deadlocks; the failure
/// surfaces as `None` (cell unsupported).
fn worker<S: Substrate + Send>(
    pool: &Arc<ThreadedPapi<S>>,
    barrier: &Barrier,
    spec: &CellSpec,
    seed: u64,
) -> Option<ThreadSample> {
    let setup = setup_worker(pool, spec, seed);
    barrier.wait();
    let (token, set) = setup?;
    let mut out = [0i64; CELL_EVENTS.len()];
    let start_vcyc = token.with(|p| p.get_real_cyc());
    let cpu0 = thread_cpu_ns();
    let mut best = f64::MAX;
    let mut allocs = 0u64;
    for _ in 0..spec.reps {
        let t0 = Instant::now();
        let (ok, a) = burst(&token, set, spec, &mut out, spec.iters);
        if !ok {
            return None;
        }
        best = best.min(t0.elapsed().as_nanos() as f64);
        allocs += a;
    }
    let cpu_ns = match (cpu0, thread_cpu_ns()) {
        (Some(a), Some(b)) => Some(b.saturating_sub(a)),
        _ => None,
    };
    let virt_cycles = token.with(|p| p.get_real_cyc()) - start_vcyc;
    std::hint::black_box(out[0]);
    Some(ThreadSample {
        start_vcyc,
        virt_cycles,
        best_rep_wall_ns: best,
        cpu_ns,
        allocs,
    })
}

type WorkerSetup<S> = (PapiThread<S>, TaggedSetId);

/// Pre-barrier phase: register, build + start the set, warm up.
fn setup_worker<S: Substrate + Send>(
    pool: &Arc<ThreadedPapi<S>>,
    spec: &CellSpec,
    seed: u64,
) -> Option<WorkerSetup<S>> {
    let token = pool.register_thread_seeded(seed).ok()?;
    let set = token.create_eventset();
    if spec.mpx {
        token.set_multiplex(set).ok()?;
        token
            .with(|p| p.set_multiplex_period(set.local(), MPX_PERIOD))
            .ok()?;
    }
    for ev in &CELL_EVENTS[..spec.events] {
        token.add_event(set, ev.code()).ok()?;
    }
    token.start(set).ok()?;
    let mut out = [0i64; CELL_EVENTS.len()];
    let (ok, _) = burst(&token, set, spec, &mut out, spec.warmup);
    ok.then_some((token, set))
}

/// `iters` ops of the cell's op, with the op match hoisted out of the
/// per-iter loop and heap traffic counted: whether every op succeeded,
/// and the allocations made.
fn burst<S: Substrate + Send>(
    token: &PapiThread<S>,
    set: TaggedSetId,
    spec: &CellSpec,
    out: &mut [i64],
    iters: u64,
) -> (bool, u64) {
    let out = &mut out[..spec.events];
    count_in(|| match spec.op {
        Op::ReadInto => (0..iters).all(|_| token.read_into(set, out).is_ok()),
        Op::Read => {
            let mut sink = 0i64;
            let ok = (0..iters).all(|_| match token.read(set) {
                Ok(v) => {
                    sink = sink.wrapping_add(v[0]);
                    true
                }
                Err(_) => false,
            });
            std::hint::black_box(sink);
            ok
        }
        Op::Accum => (0..iters).all(|_| token.accum(set, out).is_ok()),
        Op::Restart => (0..iters).all(|_| token.stop(set).is_ok() && token.start(set).is_ok()),
    })
}
