//! Seeded multi-tenant workload generator and exact reconciliation.
//!
//! The correctness claim of an aggregation daemon is not "numbers come
//! out" — it is *conservation*: the sum the daemon serves for every
//! (tenant, series) equals the sum of the unique frames the generators
//! produced, no matter how many threads pushed concurrently, how many
//! frames were duplicated or reordered on the way in, and whether the
//! monitored sessions themselves ran under fault injection.
//!
//! [`run_workload`] drives N writer threads over real sockets; every
//! thread records locally what it *actually pushed*, and the merged
//! record is the ground truth [`reconcile`] checks the daemon against.
//! In chaos mode the frames come from real `fault[chaos]:` PAPI sessions
//! (counter deltas measured by `read`), so retried operations and
//! gave-up sessions flow through the same accounting: a gave-up session
//! closes its source `complete=false` and must show up in
//! `aggd.sources_incomplete` — reported, never silently missing.

use crate::server::AggdClient;
use crate::{AggdConfig, Aggregator, ConnCtx, FrameBuf};
use papi_core::{Papi, Preset, SubstrateRegistry};
use papi_obs::alloc_track::count_in;
use papi_obs::LogHistogram;
use simcpu::rng::SmallRng;
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::time::Instant;

/// Workload shape.
#[derive(Debug, Clone)]
pub struct WorkloadCfg {
    /// Distinct tenants.
    pub tenants: usize,
    /// Source sessions (spread round-robin over tenants).
    pub sessions: usize,
    /// Writer OS threads (each with its own connection).
    pub threads: usize,
    /// Snapshot frames per session.
    pub frames_per_session: usize,
    /// Series per tenant.
    pub series_per_tenant: usize,
    /// Master seed; every session derives its own deterministic stream.
    pub seed: u64,
    /// Probability a frame is re-sent verbatim (retry simulation).
    pub dup_prob: f64,
    /// Shuffle frames within small batches before sending (stays inside
    /// the 64-frame anti-replay window).
    pub reorder: bool,
    /// Drive real `fault[chaos]:` PAPI sessions instead of synthetic
    /// streams.
    pub chaos: bool,
}

impl Default for WorkloadCfg {
    fn default() -> Self {
        WorkloadCfg {
            tenants: 8,
            sessions: 64,
            threads: 4,
            frames_per_session: 32,
            series_per_tenant: 4,
            seed: 42,
            dup_prob: 0.10,
            reorder: true,
            chaos: false,
        }
    }
}

/// What the generators actually pushed (the reconciliation ground truth).
#[derive(Debug, Default)]
pub struct WorkloadReport {
    /// Expected lifetime total per (tenant, series) — unique frames only.
    pub expected: HashMap<(String, String), u64>,
    /// Expected histogram sample count per (tenant, series).
    pub expected_hist: HashMap<(String, String), u64>,
    /// Unique frames sent (dups excluded).
    pub unique_frames: u64,
    /// Duplicate frames injected.
    pub dups_injected: u64,
    /// Sessions that completed their stream.
    pub completed_sessions: u64,
    /// Sessions that gave up (chaos mode) and closed incomplete.
    pub incomplete_sessions: u64,
}

impl WorkloadReport {
    fn merge(&mut self, other: WorkloadReport) {
        for (k, v) in other.expected {
            *self.expected.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.expected_hist {
            *self.expected_hist.entry(k).or_insert(0) += v;
        }
        self.unique_frames += other.unique_frames;
        self.dups_injected += other.dups_injected;
        self.completed_sessions += other.completed_sessions;
        self.incomplete_sessions += other.incomplete_sessions;
    }
}

fn tenant_name(i: usize) -> String {
    format!("tenant-{i}")
}

fn series_name(i: usize) -> String {
    format!("series-{i}")
}

/// One synthetic session: emit `frames` snapshot frames plus one final
/// histogram frame, injecting duplicates and bounded reordering.
#[allow(clippy::too_many_arguments)]
fn run_synthetic_session(
    client: &mut AggdClient,
    report: &mut WorkloadReport,
    cfg: &WorkloadCfg,
    session: usize,
) -> io::Result<()> {
    let tenant_idx = session % cfg.tenants;
    let tid = tenant_idx as u16;
    let tenant = tenant_name(tenant_idx);
    let source = session as u64;
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (0x9E37 + session as u64 * 0x1_0001));

    // Pre-encode the whole stream so reordering/duplication act on
    // exactly the bytes that would have been retried on a real wire.
    let mut frames: Vec<Vec<u8>> = Vec::with_capacity(cfg.frames_per_session + 1);
    let mut cycles = rng.gen_range(0u64..5_000);
    for seq in 0..cfg.frames_per_session as u64 {
        cycles += rng.gen_range(200u64..5_000);
        let n = rng.gen_range(1usize..=cfg.series_per_tenant.min(3));
        let mut deltas: Vec<(u16, u64)> = Vec::with_capacity(n);
        for _ in 0..n {
            let sid = rng.gen_range(0..cfg.series_per_tenant) as u16;
            let v = rng.gen_range(1u64..1_000);
            deltas.push((sid, v));
        }
        for &(sid, v) in &deltas {
            *report
                .expected
                .entry((tenant.clone(), series_name(sid as usize)))
                .or_insert(0) += v;
        }
        frames.push(client.encode_snapshot(tid, source, seq, cycles, &deltas));
    }
    // Final histogram frame for series 0: a known latency distribution.
    let hist = LogHistogram::new();
    let samples = rng.gen_range(4u64..40);
    for _ in 0..samples {
        hist.record(rng.gen_range(1u64..50_000));
    }
    let pairs = hist.snapshot().nonzero_buckets();
    {
        let mut fb = crate::proto::FrameBuf::new();
        let msg = fb.hist(
            tid,
            0,
            source,
            cfg.frames_per_session as u64,
            cycles,
            &pairs,
        );
        frames.push(msg.to_vec());
    }
    *report
        .expected_hist
        .entry((tenant.clone(), series_name(0)))
        .or_insert(0) += samples;
    report.unique_frames += frames.len() as u64;

    // Bounded reordering: shuffle inside batches well under the 64-frame
    // anti-replay window.
    let mut order: Vec<usize> = (0..frames.len()).collect();
    if cfg.reorder {
        for chunk in order.chunks_mut(16) {
            for i in (1..chunk.len()).rev() {
                let j = rng.gen_range(0..=i);
                chunk.swap(i, j);
            }
        }
    }
    for &idx in &order {
        client.send_raw(&frames[idx])?;
        if rng.gen_bool(cfg.dup_prob) {
            client.send_raw(&frames[idx])?;
            report.dups_injected += 1;
        }
    }
    client.close_source(tid, source, frames.len() as u64, true)?;
    report.completed_sessions += 1;
    Ok(())
}

/// One chaos session: a real PAPI session on a `fault[chaos]:` substrate;
/// every successful `read` becomes a frame, a gave-up session closes its
/// source incomplete.
fn run_chaos_session(
    client: &mut AggdClient,
    report: &mut WorkloadReport,
    cfg: &WorkloadCfg,
    session: usize,
) -> io::Result<()> {
    let tenant_idx = session % cfg.tenants;
    let tid = tenant_idx as u16;
    let tenant = tenant_name(tenant_idx);
    let source = session as u64;
    let seed = cfg.seed ^ (session as u64).wrapping_mul(0x9E37_79B9);

    let reg = SubstrateRegistry::with_builtin();
    // The chaos schedule derives from the init seed, so each session gets
    // its own deterministic fault pattern.
    let spec = "fault[chaos]:sim:x86";
    let events = [Preset::TotCyc, Preset::TotIns];
    let read_hist = LogHistogram::new();
    let mut seq = 0u64;
    let pushed = |client: &mut AggdClient,
                  report: &mut WorkloadReport,
                  seq: &mut u64,
                  cycles: u64,
                  deltas: &[(u16, u64)]|
     -> io::Result<()> {
        client.snapshot(tid, source, *seq, cycles, deltas)?;
        *seq += 1;
        report.unique_frames += 1;
        for &(sid, v) in deltas {
            *report
                .expected
                .entry((tenant.clone(), series_name(sid as usize)))
                .or_insert(0) += v;
        }
        Ok(())
    };

    let complete = (|| -> Result<(), papi_core::PapiError> {
        let mut papi = Papi::init_from_registry(&reg, spec, seed)?;
        papi.substrate_mut()
            .load_program(papi_workloads::dense_fp(2_000, 2, 1).program)?;
        // A third of the fleet runs with no transient-retry budget, so the
        // chaos plan's scheduled failures surface and those sessions give
        // up — exercising the explicit-incompleteness accounting.
        if session.is_multiple_of(3) {
            papi.set_transient_retry_budget(0);
        }
        let set = papi.create_eventset();
        for e in events {
            papi.add_event(set, e.code())?;
        }
        papi.start(set)?;
        let mut prev = vec![0i64; events.len()];
        let mut out = vec![0i64; events.len()];
        for _ in 0..cfg.frames_per_session {
            let exit = papi.run_for(2_000)?;
            let t0 = papi.substrate().real_cycles();
            papi.read_into(set, &mut out)?;
            let t1 = papi.substrate().real_cycles();
            read_hist.record(t1.saturating_sub(t0).max(1));
            let cycles = t1;
            let mut deltas: Vec<(u16, u64)> = Vec::with_capacity(events.len());
            for (i, (&cur, &was)) in out.iter().zip(prev.iter()).enumerate() {
                let d = cur.saturating_sub(was).max(0) as u64;
                if d > 0 {
                    deltas.push((i as u16, d));
                }
            }
            prev.copy_from_slice(&out);
            if !deltas.is_empty() {
                pushed(client, report, &mut seq, cycles, &deltas)
                    .map_err(|e| papi_core::PapiError::Substrate(e.to_string()))?;
            }
            if matches!(exit, papi_core::AppExit::Halted) {
                break;
            }
        }
        papi.stop(set)?;
        Ok(())
    })();

    // The read-latency distribution travels regardless of how the
    // session ended.
    let pairs = read_hist.snapshot().nonzero_buckets();
    if !pairs.is_empty() {
        let count = read_hist.count();
        client.hist(tid, 0, source, seq, 0, &pairs)?;
        seq += 1;
        report.unique_frames += 1;
        *report
            .expected_hist
            .entry((tenant.clone(), series_name(0)))
            .or_insert(0) += count;
    }
    match complete {
        Ok(()) => {
            client.close_source(tid, source, seq, true)?;
            report.completed_sessions += 1;
        }
        Err(_) => {
            // Gave up under fault injection: everything pushed so far
            // still reconciles; the stream is explicitly incomplete.
            client.close_source(tid, source, seq, false)?;
            report.incomplete_sessions += 1;
        }
    }
    Ok(())
}

/// Run the workload against a daemon at `addr`.  Deterministic for a
/// given `cfg` regardless of thread interleaving (per-session streams are
/// independent and counter deltas commute).
pub fn run_workload(addr: SocketAddr, cfg: &WorkloadCfg) -> io::Result<WorkloadReport> {
    let mut merged = WorkloadReport::default();
    let reports: Vec<io::Result<WorkloadReport>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for thread in 0..cfg.threads.max(1) {
            let cfg = cfg.clone();
            handles.push(scope.spawn(move || -> io::Result<WorkloadReport> {
                let mut report = WorkloadReport::default();
                let mut client = AggdClient::connect(addr)?;
                // Bind every tenant and series once per connection.
                for t in 0..cfg.tenants {
                    client.bind_tenant(t as u16, &tenant_name(t))?;
                    for s in 0..cfg.series_per_tenant {
                        client.reg_series(t as u16, s as u16, &series_name(s))?;
                    }
                }
                let mut session = thread;
                while session < cfg.sessions {
                    if cfg.chaos {
                        run_chaos_session(&mut client, &mut report, &cfg, session)?;
                    } else {
                        run_synthetic_session(&mut client, &mut report, &cfg, session)?;
                    }
                    session += cfg.threads.max(1);
                }
                client.flush()?;
                Ok(report)
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in reports {
        merged.merge(r?);
    }
    Ok(merged)
}

/// The in-process ingest hot path (decode + anti-replay + ring apply),
/// measured by [`ingest_bench`].
#[derive(Debug, Clone, Copy)]
pub struct IngestBench {
    /// Wall nanoseconds per frame.
    pub ns_per_frame: f64,
    /// Heap allocations per frame; the steady state makes none.
    pub allocs_per_frame: f64,
    /// Approximate resident bytes of the one tenant afterwards.
    pub bytes_per_tenant: u64,
}

/// Time the in-process ingest path on one tenant with four series:
/// `frames` pre-encoded snapshot frames with distinct sequence numbers
/// (none is a duplicate), the first 64 applied unmeasured as a warm-up,
/// the rest timed under the counting allocator, which counts only in a
/// binary that installs it.
pub fn ingest_bench(tenant: &str, frames: u64) -> IngestBench {
    let agg = Aggregator::new(AggdConfig::default());
    let mut ctx = ConnCtx::new();
    let mut fb = FrameBuf::new();
    let mut ingest = |msg: &[u8]| {
        agg.ingest(&mut ctx, &msg[4..])
            .expect("a frame FrameBuf encoded decodes");
    };
    ingest(fb.bind_tenant(0, tenant));
    for sid in 0..4u16 {
        ingest(fb.reg_series(0, sid, &format!("s{sid}")));
    }
    let ring: Vec<Vec<u8>> = (0..frames)
        .map(|seq| {
            let deltas = [(0u16, 3u64), (1, 5), ((seq % 4) as u16, 7)];
            fb.snapshot(0, 1, seq, seq * 257, &deltas).to_vec()
        })
        .collect();
    let (warm, timed) = ring.split_at(ring.len().min(64));
    warm.iter().for_each(|msg| ingest(msg));
    let t0 = Instant::now();
    let ((), allocs) = count_in(|| timed.iter().for_each(|msg| ingest(msg)));
    let n = timed.len().max(1) as f64;
    IngestBench {
        ns_per_frame: t0.elapsed().as_nanos() as f64 / n,
        allocs_per_frame: allocs as f64 / n,
        bytes_per_tenant: agg.stats().bytes_per_tenant,
    }
}

/// Outcome of checking the daemon against the generator's ground truth.
#[derive(Debug, Default)]
pub struct ReconcileReport {
    /// (tenant, series) pairs checked.
    pub checked: usize,
    /// Human-readable mismatch descriptions (empty = exact).
    pub mismatches: Vec<String>,
    /// Daemon accounting at reconcile time.
    pub stats: crate::AggdStats,
}

impl ReconcileReport {
    /// True when every total matched and every frame is accounted for.
    pub fn exact(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Compare the daemon's served totals against what the workload pushed.
pub fn reconcile(client: &mut AggdClient, report: &WorkloadReport) -> io::Result<ReconcileReport> {
    let mut rec = ReconcileReport::default();
    let mut keys: Vec<&(String, String)> = report.expected.keys().collect();
    keys.sort();
    for key in keys {
        let (tenant, series) = key;
        let want = report.expected[key];
        rec.checked += 1;
        match client.query_series(tenant, series)? {
            None => rec.mismatches.push(format!(
                "{tenant}/{series}: missing from daemon, want {want}"
            )),
            Some(sum) => {
                if sum.lifetime != want {
                    rec.mismatches.push(format!(
                        "{tenant}/{series}: daemon lifetime {} != pushed {want}",
                        sum.lifetime
                    ));
                }
            }
        }
    }
    let mut hkeys: Vec<&(String, String)> = report.expected_hist.keys().collect();
    hkeys.sort();
    for key in hkeys {
        let (tenant, series) = key;
        let want = report.expected_hist[key];
        rec.checked += 1;
        match client.query_quantiles(tenant, series)? {
            None => rec.mismatches.push(format!(
                "{tenant}/{series}: histogram missing, want {want} samples"
            )),
            Some(q) => {
                if q.count != want {
                    rec.mismatches.push(format!(
                        "{tenant}/{series}: histogram count {} != pushed {want}",
                        q.count
                    ));
                }
            }
        }
    }
    rec.stats = client.stats()?;
    // Zero silent drops: every frame in is applied or counted dropped.
    if !rec.stats.accounted() {
        rec.mismatches.push(format!(
            "accounting identity broken: frames_in {} != applied {} + dup {} + dropped {} \
             + unknown tenant {}",
            rec.stats.frames_in,
            rec.stats.applied(),
            rec.stats.dup_dropped,
            rec.stats.dropped_frames,
            rec.stats.unknown_tenant
        ));
    }
    if rec.stats.frames_in != report.unique_frames + report.dups_injected {
        rec.mismatches.push(format!(
            "frames_in {} != sent {} (unique {} + dups {})",
            rec.stats.frames_in,
            report.unique_frames + report.dups_injected,
            report.unique_frames,
            report.dups_injected
        ));
    }
    if rec.stats.dup_dropped != report.dups_injected {
        rec.mismatches.push(format!(
            "dup_dropped {} != dups injected {}",
            rec.stats.dup_dropped, report.dups_injected
        ));
    }
    let closed = report.completed_sessions + report.incomplete_sessions;
    if rec.stats.sources_closed + rec.stats.sources_incomplete != closed {
        rec.mismatches.push(format!(
            "closed sources {}+{} != sessions {closed}",
            rec.stats.sources_closed, rec.stats.sources_incomplete
        ));
    }
    if rec.stats.sources_incomplete < report.incomplete_sessions {
        rec.mismatches.push(format!(
            "incomplete sources {} < gave-up sessions {}",
            rec.stats.sources_incomplete, report.incomplete_sessions
        ));
    }
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::{AggdConfig, Aggregator};
    use crate::server::AggdServer;

    #[test]
    fn small_synthetic_workload_reconciles_exactly() {
        let server =
            AggdServer::bind("127.0.0.1:0", Aggregator::new(AggdConfig::default())).unwrap();
        let cfg = WorkloadCfg {
            tenants: 3,
            sessions: 12,
            threads: 3,
            frames_per_session: 20,
            ..WorkloadCfg::default()
        };
        let report = run_workload(server.local_addr(), &cfg).unwrap();
        assert!(report.dups_injected > 0, "workload should inject dups");
        let mut c = AggdClient::connect(server.local_addr()).unwrap();
        let rec = reconcile(&mut c, &report).unwrap();
        assert!(rec.exact(), "mismatches: {:#?}", rec.mismatches);
        assert!(rec.stats.out_of_order > 0, "reordering should be visible");
        server.shutdown();
    }

    #[test]
    fn chaos_workload_reconciles_or_reports_incompleteness() {
        let server =
            AggdServer::bind("127.0.0.1:0", Aggregator::new(AggdConfig::default())).unwrap();
        let cfg = WorkloadCfg {
            tenants: 2,
            sessions: 6,
            threads: 2,
            frames_per_session: 8,
            chaos: true,
            dup_prob: 0.0,
            ..WorkloadCfg::default()
        };
        let report = run_workload(server.local_addr(), &cfg).unwrap();
        assert!(report.unique_frames > 0);
        let mut c = AggdClient::connect(server.local_addr()).unwrap();
        let rec = reconcile(&mut c, &report).unwrap();
        assert!(rec.exact(), "mismatches: {:#?}", rec.mismatches);
        assert_eq!(
            report.completed_sessions + report.incomplete_sessions,
            6,
            "every session accounted"
        );
        server.shutdown();
    }
}
