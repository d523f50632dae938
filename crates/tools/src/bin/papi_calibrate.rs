//! `papi_calibrate` — run the calibration suite and print expected vs
//! measured counts (the utility behind the paper's §4 accuracy runs):
//! `papi_validate`'s direct mode over the calibration suite.
//!
//! ```text
//! papi_calibrate [--platform NAME]... [--platform-file PATH]... [--seed N]
//! ```
//!
//! Names resolve through the substrate registry, as `papi_validate`'s
//! `--substrate` does; `--platform-file` registers the file first. With no
//! platform flag the eight built-in simulated platforms are calibrated.

use papi_tools::calibrate::{default_platforms, render_report, run_calibration};
use std::sync::Arc;

fn usage() -> ! {
    eprintln!("usage: papi_calibrate [--platform NAME]... [--platform-file PATH]... [--seed N]");
    std::process::exit(2);
}

fn fail(e: papi_core::PapiError) -> ! {
    eprintln!("papi_calibrate: {e}");
    std::process::exit(2);
}

fn main() {
    let mut reg = papi_tools::full_registry();
    let mut names = Vec::new();
    let mut seed = 7u64;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut next = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--platform" => names.push(next()),
            "--platform-file" => {
                let path = next();
                names.push(
                    reg.register_platform_file(std::path::Path::new(&path))
                        .unwrap_or_else(|e| fail(e)),
                );
            }
            "--seed" => seed = next().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    if names.is_empty() {
        names = default_platforms(&reg);
    }
    let rows = run_calibration(&Arc::new(reg), &names, seed).unwrap_or_else(|e| fail(e));
    print!("{}", render_report(&rows));
    let bad = rows
        .iter()
        .filter(|r| !r.pass() && !r.inexact_mapping)
        .count();
    if bad > 0 {
        eprintln!("papi_calibrate: {bad} UNFLAGGED mismatches — substrate bug");
        std::process::exit(1);
    }
}
