//! # papi-tools — end-user tools built on the portable counter library
//!
//! The paper describes two tools developed within the PAPI project and one
//! planned utility; all three are reproduced here, plus the calibration
//! utility its §4 leans on:
//!
//! * [`dynaprof`] — dynamic instrumentation: list a program's structure,
//!   patch entry/exit probes into selected functions, collect per-function
//!   PAPI and wallclock profiles per thread.
//! * [`perfometer`] — real-time monitoring: a runtime trace of a selected
//!   metric (switchable mid-run), with an ASCII display and a saveable
//!   trace file for off-line analysis (Figure 2).
//! * [`papirun`] — run a program and collect basic timing + counter data,
//!   falling back to explicit multiplexing when events conflict.
//! * [`calibrate`] — compare measured counts against analytic expectations,
//!   surfacing per-platform event-semantics differences.
//! * [`validate`] — the ground-truth validation harness: grade every
//!   (substrate, mode, workload, preset) cell against closed-form oracles
//!   and diff the matrix against a golden baseline.
//! * [`tracer`] — interval event timelines for Vampir/TAU-style trace
//!   correlation (§3), with JSON export and timeline merging.

pub mod avail;
pub mod calibrate;
pub mod dynaprof;
pub mod papirun;
pub mod perfometer;
pub mod tracer;
pub mod validate;

pub use avail::{render_avail, render_avail_matrix};
pub use calibrate::{
    calibrate_all, calibrate_all_parallel, calibrate_workload, render_report, CalRow,
};
pub use dynaprof::{Dynaprof, DynaprofReport, FuncProfile, ProbeMetric};
pub use papirun::papirun as run_papirun;
pub use papirun::{papirun_in, papirun_named, papirun_with, RunOptions, RunReport};
pub use perfometer::{Perfometer, TracePoint};
pub use tracer::{IntervalRecord, Timeline, Tracer};
pub use validate::{
    default_substrates, diff_against_baseline, read_baseline, render_matrix, render_matrix_json,
    run_matrix, Cell, Mode, ValidateConfig, VALIDATION_PRESETS,
};

use papi_core::SubstrateRegistry;
use simcpu::PlatformSpec;

/// Every backend the tools know how to open: the built-in simulated
/// platforms (`sim:x86` ... `sim:generic`) plus the perfctr kernel-patch
/// emulation. This is the registry behind every `--substrate NAME` flag.
pub fn full_registry() -> SubstrateRegistry {
    let mut reg = SubstrateRegistry::with_builtin();
    perfctr_emu::register_substrates(&mut reg);
    reg
}

/// Resolve a `--platform` argument to its [`PlatformSpec`] through the
/// registry — the single name-resolution path for every tool. Accepts
/// canonical names, aliases, either colon or dash spelling, any case,
/// `file:<path>` platform-file loads, and fault-prefixed names (the prefix
/// is stripped; it decorates substrates, not models).
pub fn resolve_platform(name: &str) -> papi_core::Result<PlatformSpec> {
    full_registry().platform_spec(name)
}

/// The table `papirun --list-substrates` prints: one row per registered
/// backend with its counter count, group count, sampling support and
/// definition provenance (builtin-data / data-file / code).
pub fn render_substrate_list(reg: &SubstrateRegistry) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(
        out,
        "{:<16} {:>8} {:>7} {:>9} {:>13}  description",
        "name", "counters", "groups", "sampling", "provenance"
    )
    .unwrap();
    for info in reg.list() {
        writeln!(
            out,
            "{:<16} {:>8} {:>7} {:>9} {:>13}  {}",
            info.name,
            info.counters,
            info.groups,
            if info.sampling { "yes" } else { "no" },
            info.provenance.label(),
            info.description,
        )
        .unwrap();
        for alias in &info.aliases {
            writeln!(out, "  (alias {alias})").unwrap();
        }
    }
    out
}
