//! TAU-style automatic function profiling with multiple hardware metrics.
//!
//! §3 describes the two configurations of TAU's PAPI integration, both
//! implemented here:
//!
//! * **multiple-counters build** ([`profile_functions`]): several metrics
//!   are counted in one EventSet during a single instrumented run (falling
//!   back to explicit multiplexing when the platform cannot co-schedule
//!   them), producing one multi-metric [`Profile`];
//! * **single-counter build** ([`profile_functions_per_run`]): "the user
//!   selects the metric on which to base the profiling at runtime" — one
//!   full run per metric. Because the simulation is deterministic, the
//!   per-run profiles align exactly and are merged into one comparable
//!   [`Profile`], which is what TAU users do across repeated runs.
//!
//! Every profile carries an implicit `TIME_NS` wallclock column, so
//! time-vs-counter correlations (§3's motivating use) come for free.

use crate::profile_data::{Profile, RegionRow};
use papi_core::{AppExit, Papi, PapiError, Result, SimSubstrate};
use papi_tools::{start_or_multiplex, Dynaprof};
use simcpu::{Machine, PlatformSpec, Program, ThreadId};
use std::collections::HashMap;

/// The implicit wallclock metric appended to every profile.
pub const TIME_METRIC: &str = "TIME_NS";

struct Frame {
    fid: usize,
    entry: Vec<i64>,
    entry_ns: u64,
    child: Vec<i64>,
    child_ns: u64,
}

/// Profile `functions` of `program` on `spec`, counting all `metrics` in
/// one instrumented run. Returns one row per function with per-metric
/// inclusive/exclusive totals plus the `TIME_NS` column.
pub fn profile_functions(
    spec: PlatformSpec,
    seed: u64,
    program: &Program,
    functions: &[&str],
    metrics: &[u32],
) -> Result<Profile> {
    if metrics.is_empty() {
        return Err(PapiError::Inval("no metrics requested"));
    }
    let mut dp = Dynaprof::load(program.clone());
    let instrumented = dp.instrument(functions)?;
    let mut machine = Machine::new(spec, seed);
    machine.load(instrumented);
    let mut papi = Papi::init(SimSubstrate::new(machine))?;

    let metric_names: Vec<String> = metrics
        .iter()
        .map(|&c| papi.event_code_to_name(c))
        .collect::<Result<_>>()?;

    let set = papi.create_eventset();
    papi.add_events(set, metrics)?;
    start_or_multiplex(&mut papi, set)?;

    let k = metrics.len();
    let mut rows: Vec<RegionRow> = functions
        .iter()
        .map(|f| RegionRow {
            name: f.to_string(),
            calls: 0,
            incl: vec![0; k + 1],
            excl: vec![0; k + 1],
        })
        .collect();
    let mut stacks: HashMap<ThreadId, Vec<Frame>> = HashMap::new();

    loop {
        match papi.next_event()? {
            AppExit::Halted => break,
            AppExit::Paused => unreachable!("no budget in use"),
            AppExit::Probe { id, thread, .. } => {
                let fid = (id / 2) as usize;
                if fid >= rows.len() {
                    continue;
                }
                let is_entry = id % 2 == 0;
                let values = papi.read(set)?;
                let now = papi.get_real_ns();
                let stack = stacks.entry(thread).or_default();
                if is_entry {
                    stack.push(Frame {
                        fid,
                        entry: values,
                        entry_ns: now,
                        child: vec![0; k],
                        child_ns: 0,
                    });
                } else {
                    while let Some(fr) = stack.pop() {
                        if fr.fid != fid {
                            continue;
                        }
                        let row = &mut rows[fid];
                        row.calls += 1;
                        let incl_ns = now - fr.entry_ns;
                        for (m, &v) in values.iter().enumerate().take(k) {
                            let incl = v - fr.entry[m];
                            row.incl[m] += incl;
                            row.excl[m] += incl - fr.child[m];
                        }
                        row.incl[k] += incl_ns as i64;
                        row.excl[k] += (incl_ns - fr.child_ns.min(incl_ns)) as i64;
                        if let Some(parent) = stack.last_mut() {
                            for (m, &v) in values.iter().enumerate().take(k) {
                                parent.child[m] += v - fr.entry[m];
                            }
                            parent.child_ns += incl_ns;
                        }
                        break;
                    }
                }
            }
        }
    }
    papi.stop(set)?;

    let mut names = metric_names;
    names.push(TIME_METRIC.to_string());
    Ok(Profile {
        metrics: names,
        rows,
    })
}

/// The single-counter configuration: one deterministic run per metric,
/// merged into one multi-metric profile (each run also re-measures the
/// `TIME_NS` column; the merged profile keeps the first run's).
pub fn profile_functions_per_run(
    spec: PlatformSpec,
    seed: u64,
    program: &Program,
    functions: &[&str],
    metrics: &[u32],
) -> Result<Profile> {
    if metrics.is_empty() {
        return Err(PapiError::Inval("no metrics requested"));
    }
    let mut merged: Option<Profile> = None;
    for &m in metrics {
        let p = profile_functions(spec.clone(), seed, program, functions, &[m])?;
        match &mut merged {
            None => merged = Some(p),
            Some(acc) => {
                // Insert the new metric column before TIME_NS.
                let t = acc.metrics.len() - 1;
                acc.metrics.insert(t, p.metrics[0].clone());
                for (row, new) in acc.rows.iter_mut().zip(&p.rows) {
                    debug_assert_eq!(row.name, new.name);
                    debug_assert_eq!(
                        row.calls, new.calls,
                        "deterministic runs must agree on call counts"
                    );
                    row.incl.insert(t, new.incl[0]);
                    row.excl.insert(t, new.excl[0]);
                }
            }
        }
    }
    Ok(merged.expect("at least one metric"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use papi_core::Preset;
    use papi_workloads::phased;
    use simcpu::platform::{sim_generic, sim_x86};

    #[test]
    fn single_run_multi_metric_profile() {
        let w = phased(2, 5_000);
        let prof = profile_functions(
            sim_generic(),
            3,
            &w.program,
            &["fp_phase", "mem_phase", "branch_phase", "main"],
            &[
                Preset::TotCyc.code(),
                Preset::FpOps.code(),
                Preset::L1Dcm.code(),
            ],
        )
        .unwrap();
        assert_eq!(
            prof.metrics,
            vec!["PAPI_TOT_CYC", "PAPI_FP_OPS", "PAPI_L1_DCM", "TIME_NS"]
        );
        // FP phase owns (almost) all FLOPs; mem phase owns the misses.
        let fp = prof.row("fp_phase").unwrap();
        let mem = prof.row("mem_phase").unwrap();
        let ops_i = prof.metric_index("PAPI_FP_OPS").unwrap();
        let dcm_i = prof.metric_index("PAPI_L1_DCM").unwrap();
        assert_eq!(fp.excl[ops_i], 2 * 5_000 * 4 * 2);
        assert_eq!(mem.excl[ops_i], 0);
        assert!(mem.excl[dcm_i] > 50 * fp.excl[dcm_i].max(1));
        // main's exclusive FLOPs are ~0; its inclusive covers everything.
        let main = prof.row("main").unwrap();
        assert_eq!(main.excl[ops_i], 0);
        assert_eq!(main.incl[ops_i], fp.incl[ops_i]);
        // TIME column is populated and exclusive <= inclusive.
        let t = prof.metric_index(TIME_METRIC).unwrap();
        assert!(main.incl[t] > 0 && main.excl[t] <= main.incl[t]);
    }

    #[test]
    fn per_run_merge_matches_single_run_counts() {
        let w = phased(2, 3_000);
        let funcs = ["fp_phase", "mem_phase"];
        let metrics = [Preset::FpOps.code(), Preset::LdIns.code()];
        let single = profile_functions(sim_generic(), 9, &w.program, &funcs, &metrics).unwrap();
        let multi =
            profile_functions_per_run(sim_generic(), 9, &w.program, &funcs, &metrics).unwrap();
        assert_eq!(single.metrics, multi.metrics);
        for (a, b) in single.rows.iter().zip(&multi.rows) {
            assert_eq!(a.calls, b.calls);
            // Event counts agree exactly between the two configurations
            // (time differs slightly since per-run reads are cheaper).
            let ops = single.metric_index("PAPI_FP_OPS").unwrap();
            assert_eq!(a.excl[ops], b.excl[ops], "{}", a.name);
        }
    }

    #[test]
    fn conflicting_metrics_fall_back_to_multiplex() {
        let w = papi_workloads::dense_fp(300_000, 3, 1);
        let prof = profile_functions(
            sim_x86(),
            5,
            &w.program,
            &["dense_fp"],
            &[
                Preset::FpOps.code(),
                Preset::FmaIns.code(),
                Preset::FdvIns.code(),
                Preset::TotIns.code(),
            ],
        )
        .unwrap();
        let row = prof.row("dense_fp").unwrap();
        let fma = prof.metric_index("PAPI_FMA_INS").unwrap();
        let err = (row.incl[fma] - 900_000).abs() as f64 / 900_000.0;
        assert!(err < 0.2, "multiplexed profile estimate off by {err}");
    }

    #[test]
    fn time_correlates_with_the_dominant_metric() {
        // §3's use case: compare profiles to find what explains time.
        let w = phased(3, 8_000);
        let prof = profile_functions(
            sim_generic(),
            7,
            &w.program,
            &["fp_phase", "mem_phase", "branch_phase"],
            &[Preset::L1Dcm.code(), Preset::FpOps.code()],
        )
        .unwrap();
        // Misses explain time across these regions far better than FLOPs.
        let r_miss = prof.metric_correlation(TIME_METRIC, "PAPI_L1_DCM").unwrap();
        let r_ops = prof.metric_correlation(TIME_METRIC, "PAPI_FP_OPS").unwrap();
        assert!(r_miss > 0.9, "miss-time correlation {r_miss}");
        assert!(
            r_miss > r_ops,
            "misses must explain time better: {r_miss} vs {r_ops}"
        );
    }

    #[test]
    fn no_metrics_rejected() {
        let w = phased(1, 100);
        assert!(profile_functions(sim_generic(), 1, &w.program, &["main"], &[]).is_err());
    }
}
