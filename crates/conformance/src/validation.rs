//! Validation-matrix conformance: the `papi_validate` accuracy matrix
//! re-expressed as named, line-numbered checks.
//!
//! The differential matrix in [`crate::run_matrix`] proves the portable
//! layer behaves *identically* under faults; this module proves it counts
//! *correctly*: every (substrate, mode, workload, preset) cell is graded
//! against a closed-form oracle (SPEC.md §13) and compared with the golden
//! baseline committed at `results/validation_matrix.json`. A finding names
//! its check, carries full cell coordinates, and — for baseline
//! regressions — the 1-based line of the golden file that recorded the
//! grade being defended.
//!
//! The suite grades a trimmed substrate list ([`validation_substrates`]):
//! the full matrix is the CI gate of `papi_validate --baseline`; here the
//! point is that grade regressions are *conformance failures* with the
//! same named-check reporting discipline as the fault matrix, caught
//! in-tree by `cargo test`.

use papi_core::SubstrateRegistry;
use papi_obs::json::{BaselineRow, Value};
use papi_tools::validate::{
    diff_against_baseline, read_baseline, run_matrix, Cell, Mode, ValidateConfig,
    VALIDATION_PRESETS,
};
use papi_workloads::Grade;
use std::sync::Arc;

/// One named validation check (the grading counterpart of [`crate::Check`]).
pub struct ValidationCheck {
    /// Stable name, reported on every finding.
    pub name: &'static str,
    /// SPEC.md clause the check enforces.
    pub spec: &'static str,
}

/// The validation check table. Names are stable: baselines, CI logs and
/// the self-test all key on them.
pub const VALIDATION_CHECKS: &[ValidationCheck] = &[
    ValidationCheck {
        name: "grade-direct-exact",
        spec: "SPEC §13: on the reference platform every direct-mode cell grades exact",
    },
    ValidationCheck {
        name: "grade-mpx-within-band",
        spec: "SPEC §13: reference-platform multiplexed estimates stay within the tolerance band",
    },
    ValidationCheck {
        name: "grade-matrix-coverage",
        spec: "SPEC §13: every graded substrate yields a cell for every (mode, workload, preset)",
    },
    ValidationCheck {
        name: "grade-regression-vs-baseline",
        spec: "SPEC §13: no cell's grade may rank worse than the golden baseline records",
    },
    ValidationCheck {
        name: "grade-baseline-coverage",
        spec: "SPEC §13: the golden baseline spans all modes and presets, a data-file platform and a fault-decorated substrate",
    },
];

/// The substrate the exactness and multiplex-band checks pin: the clean
/// reference model with no quirks and enough counters for every preset.
pub const REFERENCE_SUBSTRATE: &str = "sim:generic";

/// One grading conformance failure.
#[derive(Debug, Clone)]
pub struct GradeDivergence {
    /// Name from [`VALIDATION_CHECKS`].
    pub check: &'static str,
    /// Full cell coordinates `substrate/mode/workload/preset`, or a
    /// coarser locus for coverage findings.
    pub cell: String,
    /// 1-based line in the golden baseline file, for findings that defend
    /// a recorded grade.
    pub baseline_line: Option<usize>,
    pub detail: String,
}

impl std::fmt::Display for GradeDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "check '{}' cell {}", self.check, self.cell)?;
        if let Some(line) = self.baseline_line {
            write!(f, " (baseline line {line})")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// The trimmed substrate list the conformance suite grades: the reference
/// platform, a constrained 2-counter platform, the quirk platform, the
/// data-file model and one fault-decorated substrate — one representative
/// per accuracy regime, so the suite stays fast while still exercising
/// every grading path (exact, within, deviates, unsupported).
pub fn validation_substrates() -> Vec<String> {
    vec![
        REFERENCE_SUBSTRATE.to_string(),
        "sim:x86".to_string(),
        "sim:power3".to_string(),
        "file:sim-rv64".to_string(),
        "fault[chaos]:sim:x86".to_string(),
    ]
}

/// Run every validation check over `cfg.substrates` and return the
/// findings. `baseline_text` is the golden matrix JSON (normally the
/// committed `results/validation_matrix.json`); only baseline cells whose
/// substrate is in the run set are defended, and retained cells keep their
/// original line numbers.
pub fn run_validation_checks(
    reg: &Arc<SubstrateRegistry>,
    cfg: &ValidateConfig,
    baseline_text: &str,
) -> Vec<GradeDivergence> {
    let mut divs = Vec::new();

    for name in &cfg.substrates {
        if !reg.contains(name) {
            divs.push(GradeDivergence {
                check: "grade-matrix-coverage",
                cell: name.clone(),
                baseline_line: None,
                detail: "substrate not registered (platform file missing?)".to_string(),
            });
        }
    }

    let cells = run_matrix(reg, cfg);
    let suite_len = papi_workloads::validation_suite().len();
    let per_substrate = Mode::ALL.len() * suite_len * VALIDATION_PRESETS.len();

    for name in &cfg.substrates {
        let n = cells.iter().filter(|c| &c.substrate == name).count();
        if n != per_substrate {
            divs.push(GradeDivergence {
                check: "grade-matrix-coverage",
                cell: name.clone(),
                baseline_line: None,
                detail: format!("{n} cells graded, expected {per_substrate}"),
            });
        }
    }

    if cfg.substrates.iter().any(|s| s == REFERENCE_SUBSTRATE) {
        for c in cells.iter().filter(|c| c.substrate == REFERENCE_SUBSTRATE) {
            match c.mode {
                Mode::Direct | Mode::Thread => {
                    if c.grade != Grade::Exact {
                        divs.push(reference_finding("grade-direct-exact", c));
                    }
                }
                Mode::Mpx => {
                    if c.grade.rank() > 1 {
                        divs.push(reference_finding("grade-mpx-within-band", c));
                    }
                }
            }
        }
    }

    let (mut baseline, coverage) = read_golden(baseline_text);
    baseline.retain(|b| cfg.substrates.iter().any(|s| s == field(b, "substrate")));
    for f in diff_against_baseline(&cells, &baseline).worse {
        divs.push(GradeDivergence {
            check: "grade-regression-vs-baseline",
            cell: f.cell,
            baseline_line: Some(f.line),
            detail: f.detail,
        });
    }

    divs.extend(coverage);
    divs
}

fn reference_finding(check: &'static str, c: &Cell) -> GradeDivergence {
    GradeDivergence {
        check,
        cell: c.coord(),
        baseline_line: None,
        detail: format!(
            "expected {} measured {:?} ({}); derivation: {}",
            c.expected, c.measured, c.grade, c.derivation
        ),
    }
}

/// Read the golden and run the `grade-baseline-coverage` check on it: a
/// regenerated golden file that silently dropped the data-file platform,
/// the fault-decorated substrate, a mode or a preset would hollow out the
/// regression gate without failing it — so the baseline's own span is a
/// conformance condition.  A golden the baseline engine refuses is one
/// finding and defends no cell.
fn read_golden(text: &str) -> (Vec<BaselineRow>, Vec<GradeDivergence>) {
    let finding = |baseline_line, detail| GradeDivergence {
        check: "grade-baseline-coverage",
        cell: "(baseline)".to_string(),
        baseline_line,
        detail,
    };
    let baseline = match read_baseline(text) {
        Ok(rows) => rows,
        Err(e) => return (Vec::new(), vec![finding(Some(e.line), e.msg)]),
    };
    let mut divs = Vec::new();
    if !baseline
        .iter()
        .any(|b| field(b, "substrate").starts_with("file:"))
    {
        divs.push(finding(
            None,
            "no data-file platform (file:*) in the golden matrix".to_string(),
        ));
    }
    if !baseline
        .iter()
        .any(|b| field(b, "substrate").starts_with("fault["))
    {
        divs.push(finding(
            None,
            "no fault-decorated substrate (fault[*]) in the golden matrix".to_string(),
        ));
    }
    for mode in Mode::ALL {
        if !baseline.iter().any(|b| field(b, "mode") == mode.label()) {
            divs.push(finding(None, format!("mode '{}' absent", mode.label())));
        }
    }
    for &preset in VALIDATION_PRESETS {
        if !baseline.iter().any(|b| field(b, "preset") == preset.name()) {
            divs.push(finding(None, format!("preset {} absent", preset.name())));
        }
    }
    (baseline, divs)
}

/// A key field of a validation baseline row (the engine refuses rows
/// without one).
fn field<'a>(row: &'a BaselineRow, key: &str) -> &'a str {
    row.value
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_table_names_are_unique_and_spec_tagged() {
        let mut names: Vec<_> = VALIDATION_CHECKS.iter().map(|c| c.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), VALIDATION_CHECKS.len());
        for c in VALIDATION_CHECKS {
            assert!(c.spec.contains("SPEC"), "{} lacks a spec tag", c.name);
        }
    }

    #[test]
    fn baseline_coverage_flags_a_hollowed_out_golden_file() {
        // A baseline with only one clean-substrate direct cell is missing
        // the data-file platform, the fault substrate, two modes and
        // eleven presets.
        let text = r#"{"matrix":[
{"substrate":"sim:generic","mode":"direct","workload":"inst_mix","preset":"PAPI_TOT_INS","grade":"exact"}
]}
"#;
        let (_, divs) = read_golden(text);
        assert!(divs.iter().all(|d| d.check == "grade-baseline-coverage"));
        assert_eq!(divs.len(), 2 + 2 + (VALIDATION_PRESETS.len() - 1));
        let (_, empty) = read_golden("");
        assert_eq!(empty.len(), 1);
    }
}
