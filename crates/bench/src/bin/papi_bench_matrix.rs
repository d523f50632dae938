//! `papi_bench_matrix` — run the declarative benchmark matrix, score it,
//! and gate against a committed baseline.
//!
//! ```text
//! papi_bench_matrix --config benches/matrix.toml
//!     [--baseline results/bench_matrix.json]   diff + exit 1 on regression
//!     [--out PATH] [--txt PATH]                write the JSON / text report
//!     [--smoke]                                tiny iters, assertions only
//!     [--json]                                 print the JSON document
//! ```
//!
//! Reports are written only where `--out` and `--txt` point; re-record the
//! golden with `--out results/bench_matrix.json --txt
//! results/papi_bench_matrix.txt`.
//!
//! Exit codes: 0 clean · 1 regression or failed invariant · 2 usage,
//! config or baseline error (a baseline that is not a report golden is
//! refused with its line before any cell runs).  Regressions are compared
//! on **virtual cycles per op** (deterministic for a given config + seed),
//! so the CI gate does not flake with host load; each line names the cell
//! and the baseline line number, `papi_validate` style.
//!
//! Two invariants from the retired bespoke harnesses are asserted on
//! every run, including `--smoke`:
//!
//! * zero-allocation steady state — `read_into`/`accum` cells must
//!   perform 0 heap allocations per op on every thread;
//! * virtual scaling — within a bench, whenever 1-thread and 4-thread
//!   cells exist for the same (substrate, events, mpx), aggregate
//!   virtual throughput must scale >= 3x.

use papi_bench::matrix::{
    diff_against_baseline, read_baseline, render_matrix_json, render_report, run_matrix,
    score_matrix, CellResult, MatrixConfig, RunOptions,
};
use papi_obs::{Counter, Obs};
use std::path::{Path, PathBuf};
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: papi_bench_matrix --config PATH [--baseline PATH] [--out PATH] [--txt PATH]\n\
         \x20                        [--smoke] [--json]"
    );
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config_path: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut out_path: Option<PathBuf> = None;
    let mut txt_path: Option<PathBuf> = None;
    let mut smoke = false;
    let mut json = false;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut next = |what: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("{a} wants {what}");
                usage()
            })
        };
        match a.as_str() {
            "--config" => config_path = Some(PathBuf::from(next("a path"))),
            "--baseline" => baseline_path = Some(PathBuf::from(next("a path"))),
            "--out" => out_path = Some(PathBuf::from(next("a path"))),
            "--txt" => txt_path = Some(PathBuf::from(next("a path"))),
            "--smoke" => smoke = true,
            "--json" => json = true,
            _ => usage(),
        }
    }
    let Some(config_path) = config_path else {
        usage()
    };

    let text = match std::fs::read_to_string(&config_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("papi_bench_matrix: {}: {e}", config_path.display());
            exit(2);
        }
    };
    let cfg = match MatrixConfig::parse(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("papi_bench_matrix: {}: {e}", config_path.display());
            exit(2);
        }
    };
    let mut specs = cfg.expand();
    if smoke {
        // Every cell still runs end to end (all assertions fire), but the
        // measured phase is token-sized.
        for s in &mut specs {
            s.warmup = s.warmup.min(8);
            s.iters = s.iters.min(32);
            s.reps = 1;
        }
    }

    // Read the baseline *before* any report writing can clobber it, and
    // refuse a bad one before any cell runs.
    let baseline = baseline_path.map(|p| {
        let rows = std::fs::read_to_string(&p)
            .map_err(|e| e.to_string())
            .and_then(|text| read_baseline(&text).map_err(|e| e.to_string()));
        match rows {
            Ok(rows) => (p, rows),
            Err(e) => {
                eprintln!("papi_bench_matrix: {}: {e}", p.display());
                exit(2);
            }
        }
    });

    papi_bench::banner(
        "E-matrix",
        "config-driven benchmark matrix with performance-portability scoring",
    );
    println!("config : {}", config_path.display());
    println!(
        "cells  : {} ({} benches){}\n",
        specs.len(),
        cfg.benches.len(),
        if smoke { "  [smoke]" } else { "" }
    );

    let obs = Obs::new();
    let opts = RunOptions {
        obs: Some(obs.clone()),
        seed_stride: 1,
        progress: !json,
    };
    let results = run_matrix(&specs, &opts);
    let scores = score_matrix(&results);

    let mut failed = false;
    failed |= !assert_zero_alloc(&results);
    failed |= !assert_scaling(&results);

    let doc = render_matrix_json(&results, &scores);
    let report = render_report(&results, &scores);
    if json {
        print!("{doc}");
    } else {
        println!();
        print!("{report}");
        println!(
            "\nself-obs: {} cells run, {} unsupported, {} worker threads",
            obs.get(Counter::MatrixCellsRun),
            obs.get(Counter::MatrixCellsUnsupported),
            obs.get(Counter::MatrixThreadsLaunched)
        );
    }

    for (path, body) in [(out_path, &doc), (txt_path, &report)] {
        if let Some(path) = path {
            write_report(&path, body);
        }
    }

    if let Some((path, rows)) = baseline {
        let diff = diff_against_baseline(&results, &rows);
        for r in &diff.worse {
            eprintln!("MATRIX REGRESSION: {r}");
        }
        for i in &diff.better {
            println!("improved: {}: {}", i.cell, i.detail);
        }
        for a in &diff.added {
            println!("new cell (not in baseline): {a}");
        }
        if diff.clean() {
            println!(
                "baseline {} : clean ({} cells compared)",
                path.display(),
                results.len() - diff.added.len()
            );
        } else {
            eprintln!(
                "baseline {} : {} regression(s)",
                path.display(),
                diff.worse.len()
            );
            failed = true;
        }
    }

    exit(if failed { 1 } else { 0 });
}

fn write_report(path: &Path, body: &str) {
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("papi_bench_matrix: write {}: {e}", path.display());
        exit(2);
    }
    println!("wrote {}", path.display());
}

/// The zero-allocation steady-state guarantee, asserted matrix-wide.
fn assert_zero_alloc(results: &[CellResult]) -> bool {
    let mut ok = true;
    for r in results {
        if r.supported && r.spec.op.zero_alloc() && r.allocs_per_op != 0.0 {
            eprintln!(
                "ZERO-ALLOC VIOLATION: {} allocated {:.2}/op",
                r.spec.coord(),
                r.allocs_per_op
            );
            ok = false;
        }
    }
    ok
}

/// Virtual-throughput scaling: 4t >= 3x 1t for every (bench, substrate,
/// events, mpx) pair that has both cells, mirroring the retired
/// exp_contention acceptance.
fn assert_scaling(results: &[CellResult]) -> bool {
    let mut ok = true;
    for one in results {
        if !(one.supported && one.spec.threads == 1 && one.virt_throughput > 0.0) {
            continue;
        }
        let four = results.iter().find(|r| {
            r.supported
                && r.spec.threads == 4
                && r.spec.bench == one.spec.bench
                && r.spec.substrate == one.spec.substrate
                && r.spec.events == one.spec.events
                && r.spec.mpx == one.spec.mpx
        });
        let Some(four) = four else { continue };
        let scaling = four.virt_throughput / one.virt_throughput;
        if scaling < 3.0 {
            eprintln!(
                "SCALING VIOLATION: {} 4t/1t virtual throughput only {scaling:.2}x (floor 3x)",
                four.spec.coord()
            );
            ok = false;
        }
    }
    ok
}
