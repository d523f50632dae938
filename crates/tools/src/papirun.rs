//! papirun: "execute a program and easily collect basic timing and hardware
//! counter data" — the utility §5 of the paper announces as under
//! development.
//!
//! Give it a platform, a workload and a list of event names; it sets up the
//! EventSet (falling back to multiplexing when the events conflict), runs
//! the program and reports counts plus the portable timers.  With
//! [`RunOptions::self_stats`] the library's own internal activity (papi-obs
//! registry) is captured alongside and appended to the report.

use papi_core::{Papi, PapiError, Result, SimSubstrate, Substrate};
use papi_workloads::Workload;
use simcpu::{Machine, PlatformSpec};
use std::fmt::Write as _;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Knobs for [`papirun_with`].
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Machine seed.
    pub seed: u64,
    /// Attach a papi-obs context and capture an internal-stats snapshot.
    pub self_stats: bool,
    /// Install a (counting) overflow handler: `(event name, threshold)`.
    /// Implies the run cannot fall back to multiplexing.
    pub overflow: Option<(String, u64)>,
    /// Stream live internal-stats snapshots to a papi-aggd daemon at this
    /// address while the app runs (implies capturing obs state).  The
    /// session registers under tenant [`RunOptions::push_tenant`] with a
    /// source id of its own, so repeated runs against one daemon never
    /// replay each other's ids.
    pub push_aggd: Option<String>,
    /// Tenant name for `--push-aggd` (empty means `"papirun"`).
    pub push_tenant: String,
}

/// The collected run data.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub platform: String,
    pub workload: String,
    pub rows: Vec<(String, i64)>,
    pub real_us: u64,
    pub virt_us: u64,
    /// True when the events did not fit the counters and multiplexing was
    /// used (values are estimates).
    pub multiplexed: bool,
    /// Internal-stats snapshot, present when requested via
    /// [`RunOptions::self_stats`].
    pub self_stats: Option<papi_obs::Snapshot>,
}

impl RunReport {
    pub fn render(&self) -> String {
        let mut out = String::new();
        writeln!(out, "papirun: {} on {}", self.workload, self.platform).unwrap();
        for (name, v) in &self.rows {
            writeln!(
                out,
                "  {:<16} {:>16}{}",
                name,
                v,
                if self.multiplexed {
                    "  (estimated)"
                } else {
                    ""
                }
            )
            .unwrap();
        }
        writeln!(out, "  {:<16} {:>16}", "real time us", self.real_us).unwrap();
        writeln!(out, "  {:<16} {:>16}", "virtual time us", self.virt_us).unwrap();
        if let Some(snap) = &self.self_stats {
            writeln!(out, "internal counters (papi-obs):").unwrap();
            out.push_str(&snap.render(false));
        }
        out
    }
}

/// Run `workload` on `spec`, counting `event_names` (preset or native).
pub fn papirun(
    spec: &PlatformSpec,
    workload: &Workload,
    event_names: &[&str],
    seed: u64,
) -> Result<RunReport> {
    papirun_with(
        spec,
        workload,
        event_names,
        &RunOptions {
            seed,
            ..RunOptions::default()
        },
    )
}

/// [`papirun`] with explicit [`RunOptions`] (static dispatch over the
/// direct simulated substrate).
pub fn papirun_with(
    spec: &PlatformSpec,
    workload: &Workload,
    event_names: &[&str],
    opts: &RunOptions,
) -> Result<RunReport> {
    let mut machine = Machine::new(spec.clone(), opts.seed);
    machine.load(workload.program.clone());
    let mut papi = Papi::init(SimSubstrate::new(machine))?;
    run_loaded(
        &mut papi,
        spec.name.to_string(),
        workload,
        event_names,
        opts,
    )
}

/// [`papirun`] against a substrate selected by registry name (`sim:x86`,
/// `perfctr`, ...): the session holds a boxed substrate, so the same run
/// loop executes over whichever backend the name resolves to.
pub fn papirun_named(
    substrate: &str,
    workload: &Workload,
    event_names: &[&str],
    opts: &RunOptions,
) -> Result<RunReport> {
    papirun_in(
        &crate::full_registry(),
        substrate,
        workload,
        event_names,
        opts,
    )
}

/// [`papirun_named`] against a caller-supplied registry — the path
/// `papirun --platform-file` takes after registering the loaded model.
pub fn papirun_in(
    reg: &papi_core::SubstrateRegistry,
    substrate: &str,
    workload: &Workload,
    event_names: &[&str],
    opts: &RunOptions,
) -> Result<RunReport> {
    let mut papi = Papi::init_from_registry(reg, substrate, opts.seed)?;
    papi.substrate_mut()
        .load_program(workload.program.clone())?;
    run_loaded(
        &mut papi,
        substrate.to_string(),
        workload,
        event_names,
        opts,
    )
}

/// The substrate-generic run loop shared by the static and by-name paths:
/// the program is already loaded, the session already open.
fn run_loaded<S: Substrate>(
    papi: &mut Papi<S>,
    platform: String,
    workload: &Workload,
    event_names: &[&str],
    opts: &RunOptions,
) -> Result<RunReport> {
    let obs = if opts.self_stats || opts.push_aggd.is_some() {
        let obs = papi_obs::Obs::new();
        papi.attach_obs(obs.clone());
        Some(obs)
    } else {
        None
    };
    let codes: Vec<u32> = event_names
        .iter()
        .map(|n| papi.event_name_to_code(n))
        .collect::<Result<_>>()?;
    let set = papi.create_eventset();
    papi.add_events(set, &codes)?;
    if let Some((ov_name, threshold)) = &opts.overflow {
        let code = papi.event_name_to_code(ov_name)?;
        papi.overflow(set, code, *threshold, Box::new(|_| {}))?;
    }
    let multiplexed = crate::start_or_multiplex(papi, set)?;
    let values = if let Some(addr) = &opts.push_aggd {
        // Stream incremental internal-stats snapshots while the app runs:
        // chunked execution, one push per pause, gapless close at the end.
        let tenant = if opts.push_tenant.is_empty() {
            "papirun"
        } else {
            &opts.push_tenant
        };
        let io_err = |e: std::io::Error| PapiError::Substrate(format!("push-aggd: {e}"));
        let source = push_source_id(opts.seed);
        let mut pusher =
            papi_aggd::SnapshotPusher::connect(addr.as_str(), tenant, source).map_err(io_err)?;
        let live = obs.as_ref().expect("push-aggd implies obs");
        loop {
            let exit = papi.run_for(50_000)?;
            let now = papi.substrate().real_cycles();
            pusher.push(live, now).map_err(io_err)?;
            if let papi_core::AppExit::Halted = exit {
                break;
            }
        }
        let values = papi.stop(set)?;
        let now = papi.substrate().real_cycles();
        pusher.push(live, now).map_err(io_err)?;
        pusher.finish(true).map_err(io_err)?;
        values
    } else {
        papi.run_app()?;
        papi.stop(set)?
    };
    Ok(RunReport {
        platform,
        workload: workload.name.to_string(),
        rows: event_names
            .iter()
            .map(|n| n.to_string())
            .zip(values)
            .collect(),
        real_us: papi.get_real_usec(),
        virt_us: papi.get_virt_usec(0)?,
        multiplexed,
        self_stats: if opts.self_stats {
            obs.map(|o| o.snapshot())
        } else {
            None
        },
    })
}

/// The aggd source id of one `--push-aggd` run: a hash of the seed, the
/// process id and the number of runs this process started before it.  A
/// daemon drops every frame of a source id it has already seen closed, so
/// runs with the same seed, in one process or in several, need ids of
/// their own.
fn push_source_id(seed: u64) -> u64 {
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let mut h = DefaultHasher::new();
    (seed, std::process::id(), run).hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use papi_workloads::{dense_fp, matmul};
    use simcpu::platform::{sim_generic, sim_x86};

    #[test]
    fn basic_run_counts_and_times() {
        let rep = papirun(
            &sim_generic(),
            &matmul(10),
            &["PAPI_FP_OPS", "PAPI_LD_INS"],
            1,
        )
        .unwrap();
        assert!(!rep.multiplexed);
        assert_eq!(rep.rows[0], ("PAPI_FP_OPS".to_string(), 2000));
        assert_eq!(rep.rows[1], ("PAPI_LD_INS".to_string(), 2000));
        assert!(rep.real_us >= rep.virt_us);
        assert!(rep.render().contains("PAPI_FP_OPS"));
        // Without --self-stats there is no internal section.
        assert!(rep.self_stats.is_none());
        assert!(!rep.render().contains("internal counters"));
    }

    #[test]
    fn falls_back_to_multiplex_on_conflict() {
        let rep = papirun(
            &sim_x86(),
            &dense_fp(200_000, 2, 1),
            &[
                "PAPI_FP_OPS",
                "PAPI_FMA_INS",
                "PAPI_FDV_INS",
                "PAPI_TOT_INS",
            ],
            1,
        )
        .unwrap();
        assert!(rep.multiplexed);
        // FDV is truly zero; FMA estimate within 15%.
        let fdv = rep
            .rows
            .iter()
            .find(|(n, _)| n == "PAPI_FDV_INS")
            .unwrap()
            .1;
        assert_eq!(fdv, 0);
        let fma = rep
            .rows
            .iter()
            .find(|(n, _)| n == "PAPI_FMA_INS")
            .unwrap()
            .1;
        let err = (fma - 400_000).abs() as f64 / 400_000.0;
        assert!(err < 0.15, "fma {fma}");
    }

    #[test]
    fn unknown_event_errors() {
        assert!(papirun(&sim_generic(), &dense_fp(10, 1, 1), &["PAPI_NOPE"], 1).is_err());
    }

    #[test]
    fn native_events_accepted() {
        let rep = papirun(
            &sim_x86(),
            &dense_fp(100, 1, 1),
            &["FAD_INS", "INST_RETIRED"],
            1,
        )
        .unwrap();
        assert_eq!(rep.rows[0].1, 100);
    }

    #[test]
    fn self_stats_on_multiplexed_run() {
        let rep = papirun_with(
            &sim_x86(),
            &dense_fp(200_000, 2, 1),
            &[
                "PAPI_FP_OPS",
                "PAPI_FMA_INS",
                "PAPI_FDV_INS",
                "PAPI_TOT_INS",
            ],
            &RunOptions {
                seed: 1,
                self_stats: true,
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert!(rep.multiplexed);
        let snap = rep.self_stats.as_ref().unwrap();
        assert!(snap.get("mpx", "rotations").unwrap() > 0);
        assert!(snap.get("eventset", "counter_reads").unwrap() > 0);
        assert_eq!(snap.get("eventset", "starts"), Some(1));
        assert_eq!(snap.get("eventset", "stops"), Some(1));
        // The rendered report carries the same figures.
        let text = rep.render();
        assert!(text.contains("internal counters (papi-obs):"));
        assert!(text.contains("rotations"));
        // And the JSON snapshot exposes them to scripts.
        let json = snap.to_json();
        assert!(json.contains("\"mpx.rotations\":"));
        assert!(!json.contains("\"mpx.rotations\": 0"));
    }

    #[test]
    fn push_aggd_streams_session_stats_to_a_daemon() {
        use papi_aggd::{AggdClient, AggdConfig, AggdServer, Aggregator};
        let server =
            AggdServer::bind("127.0.0.1:0", Aggregator::new(AggdConfig::default())).unwrap();
        let rep = papirun_with(
            &sim_x86(),
            &dense_fp(200_000, 2, 1),
            &[
                "PAPI_FP_OPS",
                "PAPI_FMA_INS",
                "PAPI_FDV_INS",
                "PAPI_TOT_INS",
            ],
            &RunOptions {
                seed: 9,
                push_aggd: Some(server.local_addr().to_string()),
                push_tenant: "push-test".to_string(),
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert!(rep.multiplexed);
        // --push-aggd alone does not add the report section...
        assert!(rep.self_stats.is_none());
        // ...but the daemon saw the session: the multiplexed run rotated,
        // and the gapless close certified the stream complete.
        let mut c = AggdClient::connect(server.local_addr()).unwrap();
        let rotations = c
            .query_series("push-test", "mpx.rotations")
            .unwrap()
            .expect("mpx.rotations series");
        assert!(rotations.lifetime > 0);
        let stats = c.stats().unwrap();
        assert_eq!(stats.sources_closed, 1);
        assert_eq!(stats.sources_incomplete, 0);
        server.shutdown();
    }

    #[test]
    fn repeated_push_aggd_runs_each_land() {
        use papi_aggd::{AggdClient, AggdConfig, AggdServer, Aggregator};
        let server =
            AggdServer::bind("127.0.0.1:0", Aggregator::new(AggdConfig::default())).unwrap();
        let opts = RunOptions {
            seed: 9,
            push_aggd: Some(server.local_addr().to_string()),
            ..RunOptions::default()
        };
        let mut c = AggdClient::connect(server.local_addr()).unwrap();
        let mut lifetimes = Vec::new();
        for _ in 0..2 {
            papirun_with(&sim_x86(), &matmul(10), &["PAPI_TOT_INS"], &opts).unwrap();
            let sum = c.query_series("papirun", "eventset.counter_reads").unwrap();
            lifetimes.push(sum.expect("eventset.counter_reads series").lifetime);
        }
        assert!(lifetimes[0] > 0);
        assert_eq!(lifetimes[1], 2 * lifetimes[0], "the second run lands too");
        let stats = c.stats().unwrap();
        assert_eq!(stats.sources_closed, 2);
        assert_eq!(stats.dup_dropped, 0);
        server.shutdown();
    }

    #[test]
    fn named_substrate_runs_match_static_runs() {
        // The by-name (boxed) path reports the same counts as the static
        // path on the same platform/seed — and reaches perfctr too.
        let w = matmul(10);
        let names = ["PAPI_FP_OPS", "PAPI_LD_INS"];
        let opts = RunOptions {
            seed: 1,
            ..RunOptions::default()
        };
        let stat = papirun_with(&sim_x86(), &w, &names, &opts).unwrap();
        let dynam = papirun_named("sim:x86", &w, &names, &opts).unwrap();
        assert_eq!(stat.rows, dynam.rows);
        assert_eq!(dynam.platform, "sim:x86");
        let via_patch = papirun_named("perfctr", &w, &names, &opts).unwrap();
        assert_eq!(via_patch.rows, stat.rows);
    }

    #[test]
    fn named_substrate_unknown_name_errors() {
        let opts = RunOptions::default();
        assert!(papirun_named("sim:vax", &matmul(4), &["PAPI_TOT_INS"], &opts).is_err());
    }

    #[test]
    fn self_stats_with_overflow_handler() {
        let rep = papirun_with(
            &sim_generic(),
            &dense_fp(50_000, 2, 0),
            &["PAPI_FMA_INS"],
            &RunOptions {
                seed: 1,
                self_stats: true,
                overflow: Some(("PAPI_FMA_INS".to_string(), 5_000)),
                ..RunOptions::default()
            },
        )
        .unwrap();
        let snap = rep.self_stats.as_ref().unwrap();
        assert!(
            snap.get("overflow", "handler_dispatches").unwrap() > 0,
            "no overflow dispatches recorded"
        );
        assert_eq!(
            snap.get("overflow", "interrupts"),
            snap.get("overflow", "handler_dispatches")
        );
    }
}
