//! `papi_validate` — grade every (substrate, mode, workload, preset) cell
//! of the event-validation matrix against closed-form oracles.
//!
//! ```text
//! papi_validate [--json] [--baseline PATH] [--substrate NAME]...
//!               [--platform-file PATH]... [--platform-dir DIR] [--seed N]
//! ```
//!
//! With no `--substrate` flags the matrix covers every registered backend
//! (built-in simulated platforms, perfctr, any `--platform-dir`/`--platform-file`
//! data-file models) plus one fault-decorated substrate per fault family.
//! The mpx mode's switching period and grading band and the thread mode's
//! worker count are constants of `papi_tools::validate`.
//!
//! `--json` prints the line-per-cell matrix document instead of the text
//! report. `--baseline PATH` additionally diffs the fresh matrix against a
//! golden matrix file: any cell whose grade got worse (or vanished) is
//! printed with its baseline line number and the tool exits 1 — the CI
//! accuracy-regression gate. A file that cannot be a golden (it does not
//! parse, has no cell rows, a damaged or keyless cell line, or a repeated
//! cell) is refused with its line before any cell runs, exit 2.

use papi_tools::validate::{
    default_substrates, diff_against_baseline, read_baseline, render_matrix, render_matrix_json,
    run_matrix, ValidateConfig,
};
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: papi_validate [--json] [--baseline PATH] [--substrate NAME]... \
         [--platform-file PATH]... [--platform-dir DIR] [--seed N]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut reg = papi_tools::full_registry();
    let mut json = false;
    let mut baseline: Option<String> = None;
    let mut substrates: Vec<String> = Vec::new();
    let mut seed = 7u64;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut next = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--json" => json = true,
            "--baseline" => baseline = Some(next()),
            "--substrate" => substrates.push(next()),
            "--platform-file" => {
                let path = next();
                if let Err(e) = reg.register_platform_file(std::path::Path::new(&path)) {
                    eprintln!("papi_validate: {e}");
                    std::process::exit(2);
                }
            }
            "--platform-dir" => {
                let dir = next();
                if let Err(e) = reg.register_platform_dir(std::path::Path::new(&dir)) {
                    eprintln!("papi_validate: {e}");
                    std::process::exit(2);
                }
            }
            "--seed" => seed = next().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }

    for name in &substrates {
        if !reg.contains(name) {
            eprintln!("papi_validate: unknown substrate '{name}'");
            std::process::exit(2);
        }
    }
    if substrates.is_empty() {
        substrates = default_substrates(&reg);
    }

    let cfg = ValidateConfig { substrates, seed };

    // Refuse a bad baseline before running any cell.
    let baseline = baseline.map(|path| {
        let rows = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| read_baseline(&text).map_err(|e| e.to_string()));
        match rows {
            Ok(rows) => (path, rows),
            Err(e) => {
                eprintln!("papi_validate: baseline {path}: {e}");
                std::process::exit(2);
            }
        }
    });

    let reg = Arc::new(reg);
    let cells = run_matrix(&reg, &cfg);

    if json {
        print!("{}", render_matrix_json(&cells));
    } else {
        print!("{}", render_matrix(&cells));
    }

    if let Some((path, rows)) = baseline {
        let diff = diff_against_baseline(&cells, &rows);
        for imp in &diff.better {
            eprintln!("papi_validate: improved: {imp}");
        }
        if !diff.added.is_empty() {
            eprintln!(
                "papi_validate: {} cells not in baseline (refresh {path} to lock them)",
                diff.added.len()
            );
        }
        if !diff.clean() {
            for r in &diff.worse {
                eprintln!("papi_validate: GRADE REGRESSION: {r}");
            }
            eprintln!(
                "papi_validate: {} grade regression(s) vs {path}",
                diff.worse.len()
            );
            std::process::exit(1);
        }
        eprintln!("papi_validate: no grade regressions vs {path}");
    }
}
