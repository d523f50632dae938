//! E-aggd: multi-tenant aggregation — exact reconciliation and ingest
//! throughput.
//!
//! The aggregation daemon's claim is conservation under concurrency: with N
//! writer threads streaming frames for hundreds of (tenant, series) pairs —
//! duplicated, reordered, and (in chaos mode) generated by sessions running
//! under fault injection — the totals the daemon serves must equal the sum
//! of the unique frames the generators pushed, and every dropped frame must
//! be visible in the daemon's own `aggd.*` accounting.  This harness drives
//! that end to end over real sockets, then measures the in-process ingest
//! hot path (decode + anti-replay + ring apply).
//!
//! ```text
//! exp_aggd [--iters N] [--sessions N] [--threads N]
//! ```
//!
//! `--iters 1` is the CI smoke mode: a smaller fleet, but every assertion
//! (exact reconciliation, zero silent drops, chaos incompleteness
//! accounting, allocation-free ingest) still runs.  At full scale the
//! workload is >= 1000 sessions across >= 8 threads.

use papi_aggd::{
    ingest_bench, reconcile, run_workload, AggdClient, AggdConfig, AggdServer, Aggregator,
    WorkloadCfg,
};
use papi_bench::banner;
use std::time::Instant;

fn run_and_reconcile(label: &str, cfg: &WorkloadCfg) -> (f64, u64) {
    let server = AggdServer::bind("127.0.0.1:0", Aggregator::new(AggdConfig::default())).unwrap();
    let t0 = Instant::now();
    let report = run_workload(server.local_addr(), cfg).expect("workload");
    let secs = t0.elapsed().as_secs_f64();
    let sent = report.unique_frames + report.dups_injected;
    let wire_fps = sent as f64 / secs.max(1e-9);

    let mut c = AggdClient::connect(server.local_addr()).unwrap();
    let rec = reconcile(&mut c, &report).expect("reconcile");
    assert!(
        rec.exact(),
        "{label}: reconciliation mismatches: {:#?}",
        rec.mismatches
    );
    println!(
        "{label}: {} sessions ({} complete, {} gave up), {} unique frames (+{} dups), \
         {} series checked — exact",
        cfg.sessions,
        report.completed_sessions,
        report.incomplete_sessions,
        report.unique_frames,
        report.dups_injected,
        rec.checked,
    );
    println!(
        "  accounting: frames_in={} applied={} dup_dropped={} out_of_order={} dropped={}",
        rec.stats.frames_in,
        rec.stats.applied(),
        rec.stats.dup_dropped,
        rec.stats.out_of_order,
        rec.stats.dropped_frames,
    );
    if cfg.chaos {
        assert!(
            rec.stats.sources_incomplete == report.incomplete_sessions,
            "{label}: gave-up sessions must be reported incomplete"
        );
    }
    server.shutdown();
    (wire_fps, sent)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iters = 50u64;
    let mut sessions = 1000usize;
    let mut threads = 8usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let v = it.next().and_then(|v| v.parse::<u64>().ok());
        match (a.as_str(), v) {
            ("--iters", Some(v)) => iters = v.max(1),
            ("--sessions", Some(v)) => sessions = (v as usize).max(1),
            ("--threads", Some(v)) => threads = (v as usize).max(1),
            _ => {
                eprintln!("usage: exp_aggd [--iters N] [--sessions N] [--threads N]");
                std::process::exit(2);
            }
        }
    }
    let smoke = iters <= 1;
    banner(
        "E-aggd",
        "multi-tenant aggregation reconciles exactly under duplication, \
         reordering, concurrency and fault injection",
    );

    let synth = WorkloadCfg {
        tenants: 16,
        sessions: if smoke { 120 } else { sessions },
        threads,
        frames_per_session: 24,
        series_per_tenant: 6,
        ..WorkloadCfg::default()
    };
    let (wire_fps, sent) = run_and_reconcile("synthetic", &synth);

    let chaos = WorkloadCfg {
        tenants: 8,
        sessions: if smoke { 24 } else { 200 },
        threads,
        frames_per_session: 8,
        dup_prob: 0.05,
        chaos: true,
        ..WorkloadCfg::default()
    };
    run_and_reconcile("chaos", &chaos);

    let ingest = ingest_bench("bench", if smoke { 2_000 } else { 200_000 });
    assert_eq!(
        ingest.allocs_per_frame, 0.0,
        "steady-state frame ingest allocated"
    );
    println!(
        "\ningest hot path: {:.0} ns/frame ({:.2}M frames/sec), {:.2} allocs/frame",
        ingest.ns_per_frame,
        1e3 / ingest.ns_per_frame,
        ingest.allocs_per_frame
    );
    println!(
        "wire path     : {:.0} frames/sec over {} frames ({} threads, loopback TCP)",
        wire_fps, sent, synth.threads
    );

    println!("\nE-aggd: PASS");
}
