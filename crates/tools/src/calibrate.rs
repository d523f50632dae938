//! The `calibrate` utility: run micro-benchmarks with analytically known
//! event counts and compare measured values against the expectation.
//!
//! §4: "test programs may need to be written to determine exactly what
//! events are being counted … in the form of micro-benchmarks for which the
//! expected counts are known." Calibration is where platform semantics
//! differences surface — e.g. the POWER3-style FP-instruction event that
//! also counts converts, which this tool reports as a discrepancy together
//! with the library's own `inexact` mapping flag.
//!
//! Calibration is a view over the validator's direct mode
//! ([`crate::validate`]): [`run_calibration`] counts each preset through
//! the same routine and takes each row's grade from its cell, so the two
//! tools cannot count or score the same measurement differently.

use crate::validate::{run_mode, Mode};
use papi_core::{Preset, PresetTable, Provenance, SubstrateRegistry};
use papi_workloads::grading::{self, Grade};
use papi_workloads::{calibration_suite, Workload};
use std::fmt::Write as _;
use std::sync::Arc;

/// One calibration measurement.
#[derive(Debug, Clone)]
pub struct CalRow {
    pub platform: &'static str,
    pub workload: &'static str,
    pub preset: Preset,
    pub expected: i64,
    pub measured: i64,
    /// The library flagged the mapping as semantically inexact.
    pub inexact_mapping: bool,
    /// The direct cell's grade (tolerance 0, floor 0).
    grade: Grade,
}

impl CalRow {
    /// Relative error of the measurement (the shared grading arithmetic —
    /// see `papi_workloads::grading`).
    pub fn rel_error(&self) -> f64 {
        grading::rel_error(self.expected, self.measured)
    }

    /// The row's accuracy grade at zero tolerance: the grade of the
    /// validator's direct cell the row was read from.
    pub fn grade(&self) -> Grade {
        self.grade
    }

    /// A measurement "passes" calibration when it matches exactly.
    pub fn pass(&self) -> bool {
        self.grade() == Grade::Exact
    }
}

/// The presets the calibrate utility exercises.
pub const CALIBRATION_PRESETS: &[Preset] = &[
    Preset::FpOps,
    Preset::FpIns,
    Preset::FmaIns,
    Preset::LdIns,
    Preset::SrIns,
    Preset::BrIns,
    Preset::TotIns,
];

/// Expected value of `preset` on `workload` from its analytic oracle, or
/// `None` when the oracle does not cover every signal in the formula.
pub fn expected_preset_value(w: &Workload, preset: Preset) -> Option<i64> {
    let mut total: i64 = 0;
    for &(kind, coeff) in preset.formula() {
        if !w.expected.covers(kind) {
            return None;
        }
        total += coeff * w.expected.get_exact(kind)? as i64;
    }
    Some(total)
}

/// The platforms calibrated by default: the registry's built-in simulated
/// platforms, in registration ([`simcpu::all_platforms`]) order.
pub fn default_platforms(reg: &SubstrateRegistry) -> Vec<String> {
    reg.names()
        .into_iter()
        .filter(|name| matches!(reg.provenance(name), Ok(Provenance::BuiltinData)))
        .map(str::to_string)
        .collect()
}

/// Calibrate the substrates `reg` registers as `names`: the validator's
/// direct mode over [`calibration_suite`] × [`CALIBRATION_PRESETS`], one
/// row per supported cell, in `names` order. A row's platform is its
/// substrate's platform-model name (`sim-x86`); a name with no platform
/// model (unknown, or a code backend such as perfctr) is an error.
pub fn run_calibration(
    reg: &Arc<SubstrateRegistry>,
    names: &[String],
    seed: u64,
) -> papi_core::Result<Vec<CalRow>> {
    let suite = calibration_suite();
    let mut rows = Vec::new();
    for name in names {
        let spec = reg.platform_spec(name)?;
        let table = PresetTable::build(&spec.events, spec.num_counters, &spec.groups);
        for cell in run_mode(reg, name, Mode::Direct, &suite, CALIBRATION_PRESETS, seed) {
            let Some(measured) = cell.measured else {
                continue; // preset unavailable on this platform
            };
            rows.push(CalRow {
                platform: spec.name,
                workload: cell.workload,
                preset: cell.preset,
                expected: cell.expected,
                measured,
                inexact_mapping: table.mapping(cell.preset.code()).is_some_and(|m| m.inexact),
                grade: cell.grade,
            });
        }
    }
    Ok(rows)
}

/// Render calibration rows as the table the utility prints.
pub fn render_report(rows: &[CalRow]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "{:<12} {:<14} {:<14} {:>14} {:>14} {:>9}  notes",
        "platform", "workload", "preset", "expected", "measured", "err%"
    )
    .unwrap();
    for r in rows {
        let note = if r.pass() {
            "ok"
        } else if r.inexact_mapping {
            "MISMATCH (mapping flagged inexact)"
        } else {
            "MISMATCH"
        };
        writeln!(
            out,
            "{:<12} {:<14} {:<14} {:>14} {:>14} {:>8.2}%  {}",
            r.platform,
            r.workload,
            r.preset.name(),
            r.expected,
            r.measured,
            r.rel_error() * 100.0,
            note
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calibrate_one(name: &str) -> Vec<CalRow> {
        let reg = Arc::new(crate::full_registry());
        run_calibration(&reg, &[name.to_string()], 1).unwrap()
    }

    #[test]
    fn generic_platform_calibrates_exactly() {
        let rows = calibrate_one("sim:generic");
        assert!(rows.len() >= 25);
        for r in &rows {
            assert_eq!(r.platform, "sim-generic");
            assert!(
                r.pass(),
                "{}/{:?} measured {} expected {}",
                r.workload,
                r.preset,
                r.measured,
                r.expected
            );
        }
        let rep = render_report(&rows);
        assert!(rep.contains("PAPI_FP_OPS"));
        assert!(rep.contains("ok"));
    }

    #[test]
    fn matmul_calibrates_on_x86() {
        let rows = calibrate_one("sim:x86");
        let row = |preset| {
            rows.iter()
                .find(|r| r.workload == "matmul" && r.preset == preset)
                .unwrap()
        };
        assert_eq!(row(Preset::FpOps).measured, 2 * 24 * 24 * 24);
        assert!(row(Preset::FpOps).pass());
        assert!(row(Preset::LdIns).pass());
    }

    #[test]
    fn power3_quirk_detected_as_flagged_mismatch() {
        let rows = calibrate_one("sim:power3");
        let fp = rows
            .iter()
            .find(|r| r.workload == "convert_mix" && r.preset == Preset::FpIns)
            .expect("FP_INS row");
        assert!(
            !fp.pass(),
            "the convert quirk must surface as a discrepancy"
        );
        assert!(
            fp.inexact_mapping,
            "and the library must have flagged the mapping"
        );
        assert_eq!(fp.measured - fp.expected, 5000); // exactly the converts
    }

    #[test]
    fn default_platforms_are_the_builtin_simulators() {
        let reg = crate::full_registry();
        let names = default_platforms(&reg);
        let specs: Vec<&str> = names
            .iter()
            .map(|n| reg.platform_spec(n).unwrap().name)
            .collect();
        let builtin: Vec<&str> = simcpu::all_platforms().iter().map(|s| s.name).collect();
        assert_eq!(specs, builtin);
        // A code backend has no platform model to name its rows by.
        let reg = Arc::new(reg);
        assert!(run_calibration(&reg, &["perfctr".to_string()], 1).is_err());
    }

    #[test]
    fn expected_preset_value_skips_uncovered() {
        let w = papi_workloads::pointer_chase(1 << 16, 100);
        // chase oracle has no FP coverage
        assert_eq!(expected_preset_value(&w, Preset::FpOps), None);
        assert_eq!(expected_preset_value(&w, Preset::LdIns), Some(100));
    }
}
