//! E4 (§4): the calibrate utility — measured counts converge to analytic
//! expectations, and platform event-semantics differences surface as
//! flagged discrepancies (the POWER3 rounding-instruction anecdote).

use papi_bench::banner;
use papi_tools::{default_platforms, render_report, run_calibration};
use std::sync::Arc;

fn main() {
    banner("E4 / §4", "calibration: expected vs measured per platform");

    let reg = Arc::new(papi_tools::full_registry());
    let platforms = default_platforms(&reg);
    let rows = run_calibration(&reg, &platforms, 7).expect("built-in platforms calibrate");
    println!("\n{}", render_report(&rows));

    let total = rows.len();
    let exact_rows = rows.iter().filter(|r| !r.inexact_mapping).count();
    let exact_pass = rows
        .iter()
        .filter(|r| !r.inexact_mapping && r.pass())
        .count();
    let flagged = rows.iter().filter(|r| r.inexact_mapping).count();
    let flagged_mismatch = rows
        .iter()
        .filter(|r| r.inexact_mapping && !r.pass())
        .count();
    let unflagged_mismatch = rows
        .iter()
        .filter(|r| !r.inexact_mapping && !r.pass())
        .count();

    println!(
        "summary: {total} measurements across {} platforms",
        platforms.len()
    );
    println!("  exact mappings     : {exact_pass}/{exact_rows} match the analytic count exactly");
    println!("  inexact mappings   : {flagged} (library-flagged), {flagged_mismatch} of which differ from the analytic count");
    println!("  unflagged mismatch : {unflagged_mismatch}  <- must be zero");
    assert_eq!(
        exact_pass, exact_rows,
        "every exact mapping must calibrate exactly"
    );
    assert_eq!(unflagged_mismatch, 0);
    assert!(
        flagged_mismatch > 0,
        "the POWER3-style quirk must be visible somewhere"
    );

    // Reproduce the specific anecdote: FP instruction counts on sim-power3
    // exceed expectation by exactly the number of convert/rounding
    // instructions.
    let quirk: Vec<_> = rows
        .iter()
        .filter(|r| {
            r.platform == "sim-power3"
                && r.workload == "convert_mix"
                && r.preset.name() == "PAPI_FP_INS"
        })
        .collect();
    if let Some(r) = quirk.first() {
        println!(
            "\nPOWER3 anecdote: convert_mix FP_INS expected {} measured {} — the extra {} are rounding/convert instructions",
            r.expected,
            r.measured,
            r.measured - r.expected
        );
        assert!(r.measured > r.expected);
    }
}
