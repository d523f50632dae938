//! Scored-matrix reports: line-per-cell JSON, line-addressed baseline
//! diffing, and the text render — the same document discipline as
//! `papi_validate`'s accuracy matrix, through the same baseline engine in
//! [`papi_obs::json`] (one cell per line is what makes a baseline
//! regression *nameable by line number* in CI output).

use papi_obs::json::{self, BaselineError, BaselineRow, Diff, Layout, ToJson, Value, Verdict};

use super::pp::BenchScore;
use super::runner::CellResult;

/// Schema tag written into the report header line.
pub const REPORT_SCHEMA: u32 = 1;

/// Line layout of the report golden: `{"schema": 1, "matrix": [`, one
/// cell per line, `], "scores": [`, one score per line, `]}`.
pub const REPORT_LAYOUT: Layout = Layout { spaced_outer: true };

/// The columns of a cell that do not depend on the host: support, sizes,
/// vcyc/op, allocs/op, start spread and the obs deltas.  A config and
/// seed reproduce them exactly, so the baseline gate compares them as
/// rendered.
const DETERMINISTIC_COLUMNS: [&str; 9] = [
    "supported",
    "iters",
    "reps",
    "vcyc_per_op",
    "allocs_per_op",
    "spread_vcyc",
    "reads",
    "mpx_rotations",
    "fault_retries",
];

/// One cell's report row.
fn cell_row(c: &CellResult) -> Value {
    Value::object([
        ("bench", c.spec.bench.to_json()),
        ("substrate", c.spec.substrate.to_json()),
        ("threads", c.spec.threads.to_json()),
        ("events", c.spec.events.to_json()),
        ("mpx", if c.spec.mpx { "mpx" } else { "dir" }.to_json()),
        ("supported", c.supported.to_json()),
        ("iters", c.spec.iters.to_json()),
        ("reps", c.spec.reps.to_json()),
        ("vcyc_per_op", Value::fixed(c.vcyc_per_op, 4)),
        ("ns_per_op", Value::fixed(c.ns_per_op, 1)),
        ("cpu_ns_per_op", Value::fixed(c.cpu_ns_per_op, 1)),
        ("cpu_clock", c.cpu_clock.to_json()),
        ("allocs_per_op", Value::fixed(c.allocs_per_op, 2)),
        ("spread_vcyc", c.barrier_spread_vcyc.to_json()),
        ("reads", c.obs_reads.to_json()),
        ("mpx_rotations", c.obs_mpx_rotations.to_json()),
        ("fault_retries", c.obs_fault_retries.to_json()),
    ])
}

/// Serialize cells + scores as line-per-cell JSON.  Line 1 is the
/// header, so the first cell sits on line 2 — the line numbers baseline
/// diffs report.
pub fn render_matrix_json(cells: &[CellResult], scores: &[BenchScore]) -> String {
    let cells = cells.iter().map(cell_row).collect();
    let scores = scores
        .iter()
        .map(|s| {
            let subs = s
                .substrates
                .iter()
                .map(|e| {
                    Value::object([
                        ("substrate", e.substrate.to_json()),
                        ("eff", Value::fixed(e.eff, 4)),
                    ])
                })
                .collect();
            Value::object([
                ("bench", s.bench.to_json()),
                ("pp", Value::fixed(s.pp, 4)),
                ("substrates", Value::Arr(subs)),
            ])
        })
        .collect();
    Value::object([
        ("schema", REPORT_SCHEMA.to_json()),
        ("matrix", Value::Arr(cells)),
        ("scores", Value::Arr(scores)),
    ])
    .render(&REPORT_LAYOUT)
}

/// Read a report golden as a baseline: one row per cell, keyed by its
/// coordinate (`bench/substrate/Nt/Mev/{dir|mpx}`, as
/// [`super::config::CellSpec::coord`] writes it) and carrying its support
/// and vcyc/op.
pub fn read_baseline(text: &str) -> Result<Vec<BaselineRow>, BaselineError> {
    json::read_baseline(text, |row| {
        let text = |k| row.get(k).and_then(Value::as_str);
        let int = |k| row.get(k).and_then(Value::as_u64);
        row.get("supported")?.as_bool()?;
        row.get("vcyc_per_op")?.as_f64()?;
        Some(format!(
            "{}/{}/{}t/{}ev/{}",
            text("bench")?,
            text("substrate")?,
            int("threads")?,
            int("events")?,
            text("mpx")?
        ))
    })
}

/// Diff `current` against baseline rows.  A cell regresses when any of
/// its nine deterministic columns differs from its baseline row as
/// rendered, or when it vanished; the finding names each differing
/// column.  Host timings are not compared, so the gate is not flaky.
pub fn diff_against_baseline(current: &[CellResult], baseline: &[BaselineRow]) -> Diff {
    json::diff_baseline(
        baseline,
        current,
        |c| c.spec.coord(),
        |_| "missing from current run".to_string(),
        |row, c| {
            let now = cell_row(c);
            let shown = |v: Option<&Value>| v.map_or("-".to_string(), Value::to_compact);
            let changed: Vec<String> = DETERMINISTIC_COLUMNS
                .iter()
                .filter(|&&k| row.get(k) != now.get(k))
                .map(|&k| format!("{k} {} -> {}", shown(row.get(k)), shown(now.get(k))))
                .collect();
            if changed.is_empty() {
                Verdict::Same
            } else {
                Verdict::Worse(changed.join(", "))
            }
        },
    )
}

/// Human-readable matrix render: one line per cell plus the PP table —
/// the `papi_validate` report format applied to performance.
pub fn render_report(cells: &[CellResult], scores: &[BenchScore]) -> String {
    let n_sub = {
        let mut subs: Vec<&str> = cells.iter().map(|c| c.spec.substrate.as_str()).collect();
        subs.sort_unstable();
        subs.dedup();
        subs.len()
    };
    let unsupported = cells.iter().filter(|c| !c.supported).count();
    let mut out = format!(
        "benchmark matrix: {} cells / {} benches / {} substrates ({} unsupported)\n",
        cells.len(),
        scores.len(),
        n_sub,
        unsupported
    );
    out.push_str(&format!(
        "{:<56} {:>12} {:>10} {:>11} {:>10} {:>8} {:>8} {:>8}\n",
        "cell", "vcyc/op", "ns/op", "cpu-ns/op", "allocs/op", "spread", "mpx-rot", "retries"
    ));
    for c in cells {
        if c.supported {
            out.push_str(&format!(
                "{:<56} {:>12.4} {:>10.1} {:>11.1} {:>10.2} {:>8} {:>8} {:>8}\n",
                c.spec.coord(),
                c.vcyc_per_op,
                c.ns_per_op,
                c.cpu_ns_per_op,
                c.allocs_per_op,
                c.barrier_spread_vcyc,
                c.obs_mpx_rotations,
                c.obs_fault_retries
            ));
        } else {
            out.push_str(&format!("{:<56} unsupported\n", c.spec.coord()));
        }
    }
    out.push_str("\nperformance portability (Pennycook harmonic mean over substrates):\n");
    for s in scores {
        let effs: Vec<String> = s
            .substrates
            .iter()
            .map(|e| format!("{}={:.3}", e.substrate, e.eff))
            .collect();
        out.push_str(&format!(
            "  {:<24} PP {:.3}   {}\n",
            s.bench,
            s.pp,
            effs.join("  ")
        ));
    }
    out
}
