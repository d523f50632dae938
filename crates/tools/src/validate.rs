//! The `papi_validate` harness: ground-truth event validation with a
//! graded accuracy matrix.
//!
//! Where [`crate::calibrate`] answers "does this preset count exactly what
//! the formula says" for a handful of workloads, validation sweeps the full
//! cross product
//!
//! > substrate (every registered backend, including data-file platforms
//! > and `fault[*]` decorators) × counting mode (direct / multiplexed /
//! > threaded) × validation workload × preset
//!
//! and grades every cell with the shared [`grading`] vocabulary: **exact**,
//! **within(ε)**, **deviates(ratio)** or **unsupported**. Each workload
//! comes from [`papi_workloads::validation_suite`], so every cell's
//! expectation is a closed-form function of the kernel's seeding
//! parameters, with the derivation recorded as the cell's provenance
//! (Röhl et al.'s validation methodology, PAPERS.md).
//!
//! The matrix serializes to a line-per-cell JSON document
//! ([`render_matrix_json`]) that is checked into `results/` as a golden
//! baseline: [`read_baseline`] reads it through the one baseline engine in
//! [`papi_obs::json`], and [`diff_against_baseline`] reports every cell
//! whose grade got *worse* (by [`Grade::rank`]) with the baseline line
//! number — an accuracy regression is a named, line-numbered CI failure,
//! not a silent drift.
//!
//! Modes:
//!
//! * **direct** — one preset per session ([`measure_direct`]), hardware
//!   counting, tolerance 0: a conforming substrate must be bit-exact.
//!   `papi_calibrate` ([`crate::calibrate`]) is this mode over the
//!   calibration suite, and papi-model's probes count through it too.
//! * **mpx** — all presets in one software-multiplexed set switching every
//!   [`DEFAULT_MPX_PERIOD`] cycles; counts are scheduling estimates, graded
//!   against [`DEFAULT_MPX_TOLERANCE`] above a [`DEFAULT_MPX_FLOOR`]
//!   (estimation error is expected; *bias* beyond the band is not).
//! * **thread** — the direct mode's per-preset count inside two registered
//!   [`ThreadedPapi`] threads, tolerance 0: thread-private counting must
//!   agree with the single-threaded truth exactly.

use crate::calibrate::expected_preset_value;
use papi_core::{BoxSubstrate, Papi, Preset, Substrate, SubstrateRegistry, ThreadedPapi};
use papi_obs::json::{self, BaselineError, BaselineRow, Diff, Layout, ToJson, Value, Verdict};
use papi_workloads::grading::{self, Grade};
use papi_workloads::{validation_suite, Workload};
use std::cmp::Ordering;
use std::fmt::Write as _;
use std::sync::Arc;

/// The presets the validator grades: every instruction-class preset whose
/// formula is fully covered by the validation suite's exact oracles.
/// Cache/TLB/cycle presets are hardware-structure estimates and belong to
/// calibration tolerances, not ground-truth validation.
pub const VALIDATION_PRESETS: &[Preset] = &[
    Preset::TotIns,
    Preset::IntIns,
    Preset::FpIns,
    Preset::FpOps,
    Preset::FmaIns,
    Preset::FdvIns,
    Preset::LdIns,
    Preset::SrIns,
    Preset::LstIns,
    Preset::BrIns,
    Preset::BrTkn,
    Preset::BrNtk,
];

/// Relative tolerance of the mpx mode's grading band.
pub const DEFAULT_MPX_TOLERANCE: f64 = 0.25;

/// Multiplex switching period (cycles) of the mpx mode: much shorter than
/// the library default (100k cycles) so every validation workload
/// (~17k-50k instructions) still yields several slices per partition of
/// the 12-preset rotated set, but long enough that each slice accumulates
/// a statistically useful count. A period sweep over the full matrix puts
/// the deviating-cell minimum at 5k cycles: below ~4k the 2-counter
/// platforms leave partitions with sub-slice coverage (estimates swing
/// 0x-3x of truth), above ~8k short workloads stop covering every
/// partition before halt.
pub const DEFAULT_MPX_PERIOD: u64 = 5_000;

/// Absolute error floor (counts) of the mpx mode's grading band — see
/// [`grading::grade_with_floor`]. Sized to the per-slice count a
/// validation workload accumulates within one switching period.
pub const DEFAULT_MPX_FLOOR: f64 = 512.0;

/// Registered worker threads of the thread mode.
const THREAD_WORKERS: usize = 2;

/// How a cell was measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One preset per session, hardware counting.
    Direct,
    /// All presets in one software-multiplexed set.
    Mpx,
    /// Per-preset sessions inside registered threads.
    Thread,
}

impl Mode {
    pub const ALL: &'static [Mode] = &[Mode::Direct, Mode::Mpx, Mode::Thread];

    /// Stable label used in the JSON matrix.
    pub fn label(&self) -> &'static str {
        match self {
            Mode::Direct => "direct",
            Mode::Mpx => "mpx",
            Mode::Thread => "thread",
        }
    }

    /// The grading band of this mode: `(relative tolerance, absolute
    /// floor)`. Direct and threaded counting must be bit-exact; multiplexed
    /// estimates get the mpx band.
    fn band(&self) -> (f64, f64) {
        match self {
            Mode::Mpx => (DEFAULT_MPX_TOLERANCE, DEFAULT_MPX_FLOOR),
            _ => (0.0, 0.0),
        }
    }
}

/// One graded cell of the accuracy matrix.
#[derive(Debug, Clone)]
pub struct Cell {
    pub substrate: String,
    pub mode: Mode,
    pub workload: &'static str,
    pub preset: Preset,
    /// Analytic expectation from the workload oracle.
    pub expected: i64,
    /// Measured value; `None` when the cell is unsupported.
    pub measured: Option<i64>,
    pub grade: Grade,
    /// Closed-form provenance: the preset formula expanded into the
    /// kernel-parameter derivations of its terms.
    pub derivation: String,
}

impl Cell {
    /// `substrate/mode/workload/preset` — the coordinate every report and
    /// regression message uses.
    pub fn coord(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            self.substrate,
            self.mode.label(),
            self.workload,
            self.preset.name()
        )
    }
}

/// Validator configuration.
#[derive(Debug, Clone)]
pub struct ValidateConfig {
    /// Substrate names to grade (resolved through the registry; may be
    /// fault-decorated or `file:` names).
    pub substrates: Vec<String>,
    pub seed: u64,
}

impl ValidateConfig {
    pub fn new(substrates: Vec<String>) -> ValidateConfig {
        ValidateConfig {
            substrates,
            seed: 7,
        }
    }
}

/// The default substrate list: every canonical registered backend plus one
/// fault schedule of each family (pass-through glitching and structured
/// read/start/stop faults), so the matrix always grades at least one
/// decorated substrate.
pub fn default_substrates(reg: &SubstrateRegistry) -> Vec<String> {
    let mut names: Vec<String> = reg.names().iter().map(|s| s.to_string()).collect();
    names.push("fault[chaos]:sim:x86".to_string());
    names.push("fault[read=3,start=2,stop=2,burst=2]:sim:generic".to_string());
    names
}

/// Expand `preset`'s formula into the workload's recorded derivations:
/// `FpAdd+FpMul+FpFma+FpDiv` becomes e.g.
/// `iters*fadds + iters*fmuls + iters*fmas + 0`.
fn preset_derivation(w: &Workload, preset: Preset) -> String {
    let mut out = String::new();
    for (i, &(kind, coeff)) in preset.formula().iter().enumerate() {
        let term = w.expected.derivation(kind).unwrap_or("oracle");
        if i > 0 {
            out.push_str(if coeff < 0 { " - " } else { " + " });
        } else if coeff < 0 {
            out.push('-');
        }
        let mag = coeff.abs();
        if mag != 1 {
            let _ = write!(out, "{mag}*");
        }
        let _ = write!(out, "({term})");
    }
    out
}

/// Count `preset` over one run of `w` in a fresh event set of `papi`: the
/// one known-answer count behind every direct and threaded cell. `None` =
/// unsupported (the event or the counting run was refused).
fn count(papi: &mut Papi<BoxSubstrate>, w: &Workload, preset: Preset) -> Option<i64> {
    if !papi.query_event(preset.code()) {
        return None;
    }
    let set = papi.create_eventset();
    let counted = (|| {
        papi.add_event(set, preset.code()).ok()?;
        // Load only once the measurement is definitely proceeding: every
        // `load_program` spawns a fresh simulated thread, so an early-exit
        // path that loaded eagerly would leave a pending execution behind.
        papi.substrate_mut().load_program(w.program.clone()).ok()?;
        papi.start(set).ok()?;
        papi.run_app().ok()?;
        papi.stop(set).ok().map(|v| v[0])
    })();
    // A thread's session counts its next preset in a set of its own.
    let _ = papi.destroy_eventset(set);
    counted
}

/// Count `preset` over one run of `w` in a session of its own on the
/// substrate `reg` registers as `name`, seeded `seed`: one direct-mode
/// cell. `None` = unsupported (the substrate, the event or the counting
/// run was refused).
pub fn measure_direct(
    reg: &SubstrateRegistry,
    name: &str,
    w: &Workload,
    preset: Preset,
    seed: u64,
) -> Option<i64> {
    let mut papi = Papi::init_from_registry(reg, name, seed).ok()?;
    count(&mut papi, w, preset)
}

/// Count `presets` together in one multiplexed set: one value per preset,
/// in order, `None` where the substrate rejects the preset and everywhere
/// when the run fails.
fn measure_mpx(
    reg: &SubstrateRegistry,
    name: &str,
    w: &Workload,
    presets: &[Preset],
    seed: u64,
) -> Vec<Option<i64>> {
    let mut out = vec![None; presets.len()];
    let Ok(mut papi) = Papi::init_from_registry(reg, name, seed) else {
        return out;
    };
    let set = papi.create_eventset();
    if papi.set_multiplex(set).is_err()
        || papi.set_multiplex_period(set, DEFAULT_MPX_PERIOD).is_err()
    {
        return out;
    }
    // `stop` values follow the set's event order, i.e. the order of the
    // adds that succeeded.
    let mut added = Vec::new();
    for (i, &preset) in presets.iter().enumerate() {
        if papi.query_event(preset.code()) && papi.add_event(set, preset.code()).is_ok() {
            added.push(i);
        }
    }
    if added.is_empty()
        || papi
            .substrate_mut()
            .load_program(w.program.clone())
            .is_err()
        || papi.start(set).is_err()
        || papi.run_app().is_err()
    {
        return out;
    }
    if let Ok(values) = papi.stop(set) {
        for (&i, v) in added.iter().zip(values) {
            out[i] = Some(v);
        }
    }
    out
}

/// Count `presets` inside registered threads, one value per preset in
/// order: presets are split round-robin over the [`THREAD_WORKERS`] workers,
/// each owning a thread-private session (seeded `seed + worker`, so fault
/// schedules stay deterministic regardless of interleaving) in which it
/// counts its presets one run each, as the direct mode does.
fn measure_threaded(
    reg: &Arc<SubstrateRegistry>,
    name: &str,
    w: &Workload,
    presets: &[Preset],
    seed: u64,
) -> Vec<Option<i64>> {
    let name_owned = name.to_string();
    let table = {
        let reg = Arc::clone(reg);
        Arc::new(ThreadedPapi::new(seed, move |s| {
            Papi::init_from_registry(&reg, &name_owned, s)
        }))
    };
    let mut out = vec![None; presets.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREAD_WORKERS)
            .map(|worker| {
                let table = &table;
                scope.spawn(move || {
                    let Ok(token) = table.register_thread_seeded(seed + worker as u64) else {
                        return Vec::new();
                    };
                    (worker..presets.len())
                        .step_by(THREAD_WORKERS)
                        .map(|i| (i, token.with(|papi| count(papi, w, presets[i]))))
                        .collect()
                })
            })
            .collect();
        for h in handles {
            for (i, counted) in h.join().expect("validation worker") {
                out[i] = counted;
            }
        }
    });
    out
}

/// One (substrate, mode) block of the matrix over `suite` × `presets`: a
/// cell for every preset whose formula the workload's oracle covers,
/// graded under the mode's band, workload-major. `papi_calibrate` is the
/// direct block over the calibration suite.
pub(crate) fn run_mode(
    reg: &Arc<SubstrateRegistry>,
    name: &str,
    mode: Mode,
    suite: &[Workload],
    presets: &[Preset],
    seed: u64,
) -> Vec<Cell> {
    let (tol, floor) = mode.band();
    let mut cells = Vec::new();
    for w in suite {
        let (covered, expected): (Vec<Preset>, Vec<i64>) = presets
            .iter()
            .filter_map(|&p| Some((p, expected_preset_value(w, p)?)))
            .unzip();
        let measured = match mode {
            Mode::Direct => covered
                .iter()
                .map(|&p| measure_direct(reg, name, w, p, seed))
                .collect(),
            Mode::Mpx => measure_mpx(reg, name, w, &covered, seed),
            Mode::Thread => measure_threaded(reg, name, w, &covered, seed),
        };
        for ((preset, expected), measured) in covered.into_iter().zip(expected).zip(measured) {
            let grade = match measured {
                Some(v) => grading::grade_with_floor(expected, v, tol, floor),
                None => Grade::Unsupported,
            };
            cells.push(Cell {
                substrate: name.to_string(),
                mode,
                workload: w.name,
                preset,
                expected,
                measured,
                grade,
                derivation: preset_derivation(w, preset),
            });
        }
    }
    cells
}

/// Run the full accuracy matrix for `cfg` against `reg`.
///
/// Every (substrate, mode, workload, preset) combination yields exactly
/// one [`Cell`], in deterministic order (substrate-major, then mode,
/// workload, preset), so two runs with the same configuration produce
/// byte-identical matrices.
pub fn run_matrix(reg: &Arc<SubstrateRegistry>, cfg: &ValidateConfig) -> Vec<Cell> {
    let suite = validation_suite();
    let mut cells = Vec::new();
    for name in &cfg.substrates {
        for &mode in Mode::ALL {
            let block = run_mode(reg, name, mode, &suite, VALIDATION_PRESETS, cfg.seed);
            cells.extend(block);
        }
    }
    cells
}

/// Line layout of the validation-matrix golden: `{"matrix":[`, one cell
/// object per line, `]}`.
pub const MATRIX_LAYOUT: Layout = Layout {
    spaced_outer: false,
};

/// Serialize the matrix as line-per-cell JSON (one cell per line is what
/// makes baseline diffs line-addressable).
pub fn render_matrix_json(cells: &[Cell]) -> String {
    let rows = cells
        .iter()
        .map(|c| {
            Value::object([
                ("substrate", c.substrate.to_json()),
                ("mode", c.mode.label().to_json()),
                ("workload", c.workload.to_json()),
                ("preset", c.preset.name().to_json()),
                ("expected", c.expected.to_json()),
                ("measured", c.measured.to_json()),
                ("grade", c.grade.label().to_json()),
                ("detail", c.grade.to_string().to_json()),
                ("derivation", c.derivation.to_json()),
            ])
        })
        .collect();
    Value::object([("matrix", Value::Arr(rows))]).render(&MATRIX_LAYOUT)
}

/// Read a validation-matrix golden as a baseline: one row per cell, keyed
/// by `substrate/mode/workload/preset` and carrying its grade.
pub fn read_baseline(text: &str) -> Result<Vec<BaselineRow>, BaselineError> {
    json::read_baseline(text, |row| {
        let field = |k| row.get(k).and_then(Value::as_str);
        field("grade")?;
        Some(format!(
            "{}/{}/{}/{}",
            field("substrate")?,
            field("mode")?,
            field("workload")?,
            field("preset")?
        ))
    })
}

/// The grade label a baseline row records.
fn grade_of(row: &Value) -> &str {
    row.get("grade").and_then(Value::as_str).unwrap_or_default()
}

/// Severity rank of a recorded grade label (see [`Grade::rank`]).
fn label_rank(label: &str) -> u8 {
    match label {
        "exact" => 0,
        "within" => 1,
        "deviates" => 2,
        _ => 3,
    }
}

/// Compare `current` against baseline rows: a cell is worse when its grade
/// rank got worse ([`Grade::rank`]) or it vanished, better when its rank
/// improved.  Grades merely *moving within* a rank (a different `within`
/// error) are not findings — accuracy class is the contract, not the exact
/// estimate.  Callers grading a *subset* of the golden matrix (the
/// conformance suite runs a trimmed substrate list) filter the rows first;
/// the rows keep their lines, so findings still point into the golden file.
pub fn diff_against_baseline(current: &[Cell], baseline: &[BaselineRow]) -> Diff {
    json::diff_baseline(
        baseline,
        current,
        Cell::coord,
        |row| format!("{} -> missing", grade_of(row)),
        |row, c| {
            let (was, now) = (grade_of(row), c.grade.label());
            match c.grade.rank().cmp(&label_rank(was)) {
                Ordering::Greater => Verdict::Worse(format!("{was} -> {now}")),
                Ordering::Less => Verdict::Better(format!("{was} -> {now}")),
                Ordering::Equal => Verdict::Same,
            }
        },
    )
}

/// Per-(substrate, mode) grade tallies plus a listing of every cell that
/// deviates or is unsupported — the text report of `papi_validate`.
pub fn render_matrix(cells: &[Cell]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "papi_validate accuracy matrix: {} cells", cells.len());
    let _ = writeln!(
        out,
        "{:<44} {:>7} {:>7} {:>9} {:>12}",
        "substrate/mode", "exact", "within", "deviates", "unsupported"
    );
    let mut groups: Vec<(String, [usize; 4])> = Vec::new();
    for c in cells {
        let key = format!("{}/{}", c.substrate, c.mode.label());
        let idx = c.grade.rank() as usize;
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, counts)) => counts[idx] += 1,
            None => {
                let mut counts = [0usize; 4];
                counts[idx] += 1;
                groups.push((key, counts));
            }
        }
    }
    for (key, n) in &groups {
        let _ = writeln!(
            out,
            "{:<44} {:>7} {:>7} {:>9} {:>12}",
            key, n[0], n[1], n[2], n[3]
        );
    }
    let worst: Vec<&Cell> = cells.iter().filter(|c| c.grade.rank() >= 2).collect();
    if !worst.is_empty() {
        let _ = writeln!(out, "\ncells deviating or unsupported:");
        for c in worst {
            let measured = c
                .measured
                .map(|v| v.to_string())
                .unwrap_or_else(|| "-".to_string());
            let _ = writeln!(
                out,
                "  {:<60} expected {:>12} measured {:>12}  {}  [{}]",
                c.coord(),
                c.expected,
                measured,
                c.grade,
                c.derivation
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Matrices are deterministic, so tests share one run per substrate.
    fn one_substrate_matrix(name: &str) -> Vec<Cell> {
        use std::collections::HashMap;
        use std::sync::Mutex;
        static CACHE: Mutex<Option<HashMap<String, Vec<Cell>>>> = Mutex::new(None);
        let mut guard = CACHE.lock().unwrap();
        let cache = guard.get_or_insert_with(HashMap::new);
        cache
            .entry(name.to_string())
            .or_insert_with(|| {
                let reg = Arc::new(crate::full_registry());
                run_matrix(&reg, &ValidateConfig::new(vec![name.to_string()]))
            })
            .clone()
    }

    #[test]
    fn generic_direct_cells_are_all_exact() {
        let cells = one_substrate_matrix("sim:generic");
        let suite_len = validation_suite().len();
        assert_eq!(cells.len(), 3 * suite_len * VALIDATION_PRESETS.len());
        for c in cells.iter().filter(|c| c.mode == Mode::Direct) {
            assert_eq!(
                c.grade,
                Grade::Exact,
                "{}: expected {} measured {:?}",
                c.coord(),
                c.expected,
                c.measured
            );
        }
    }

    #[test]
    fn thread_mode_agrees_with_direct_on_clean_substrates() {
        let cells = one_substrate_matrix("sim:x86");
        for c in cells.iter().filter(|c| c.mode == Mode::Thread) {
            let direct = cells
                .iter()
                .find(|d| {
                    d.mode == Mode::Direct && d.workload == c.workload && d.preset == c.preset
                })
                .unwrap();
            assert_eq!(
                c.measured,
                direct.measured,
                "{}: thread/direct disagree",
                c.coord()
            );
        }
    }

    #[test]
    fn mpx_mode_stays_within_tolerance_on_generic() {
        let cells = one_substrate_matrix("sim:generic");
        for c in cells.iter().filter(|c| c.mode == Mode::Mpx) {
            assert!(
                c.grade.rank() <= 1,
                "{}: mpx estimate out of band: expected {} measured {:?} ({})",
                c.coord(),
                c.expected,
                c.measured,
                c.grade
            );
        }
    }

    #[test]
    fn quirk_platform_deviates_where_calibrate_says_so() {
        // POWER3's FP_INS counts converts: the convert_mix workload must
        // grade `deviates` on the direct cell, quantifying the quirk.
        let cells = one_substrate_matrix("sim:power3");
        let c = cells
            .iter()
            .find(|c| {
                c.mode == Mode::Direct && c.workload == "convert_mix" && c.preset == Preset::FpIns
            })
            .unwrap();
        match c.grade {
            Grade::Deviates { ratio } => assert!(ratio > 1.0, "overcount, got {ratio}"),
            ref g => panic!("expected deviates, got {g}"),
        }
    }

    #[test]
    fn derivations_expand_the_preset_formula() {
        let suite = validation_suite();
        let w = suite.iter().find(|w| w.name == "inst_mix").unwrap();
        let d = preset_derivation(w, Preset::FpIns);
        assert!(d.contains("iters*fadds"), "{d}");
        let d = preset_derivation(w, Preset::BrNtk);
        assert!(d.contains(" - "), "BrNtk subtracts: {d}");
    }

    #[test]
    fn json_round_trips_and_is_line_per_cell() {
        let cells = one_substrate_matrix("sim:generic");
        let json = render_matrix_json(&cells);
        let parsed = read_baseline(&json).unwrap();
        assert_eq!(parsed.len(), cells.len());
        for (p, c) in parsed.iter().zip(&cells) {
            assert_eq!(p.cell, c.coord());
            assert_eq!(grade_of(&p.value), c.grade.label());
        }
        // Line-addressable: first cell on line 2 (after the opening line).
        assert_eq!(parsed[0].line, 2);
    }

    #[test]
    fn baseline_diff_flags_regressions_with_line_numbers() {
        let cells = one_substrate_matrix("sim:generic");
        let baseline = read_baseline(&render_matrix_json(&cells)).unwrap();
        let clean = diff_against_baseline(&cells, &baseline);
        assert!(clean.clean());
        assert!(clean.better.is_empty());
        assert!(clean.added.is_empty());

        // Worsen one cell: exact -> deviates must be flagged with the
        // baseline's line number for that cell.
        let mut worse = cells.clone();
        worse[5].grade = Grade::Deviates { ratio: 2.0 };
        let diff = diff_against_baseline(&worse, &baseline);
        assert_eq!(diff.worse.len(), 1);
        let r = &diff.worse[0];
        assert_eq!(r.cell, cells[5].coord());
        assert_eq!(r.line, 2 + 5);
        assert_eq!(r.detail, "exact -> deviates");

        // A vanished cell is also a regression.
        let missing: Vec<Cell> = cells[1..].to_vec();
        let diff = diff_against_baseline(&missing, &baseline);
        assert_eq!(diff.worse.len(), 1);
        assert_eq!(diff.worse[0].detail, "exact -> missing");

        // An improved cell is reported but not a regression.
        let mut base_worse = cells.clone();
        base_worse[3].grade = Grade::Within { err: 0.01 };
        let baseline2 = read_baseline(&render_matrix_json(&base_worse)).unwrap();
        let diff = diff_against_baseline(&cells, &baseline2);
        assert!(diff.clean());
        assert_eq!(diff.better.len(), 1);
    }

    /// The `papi_validate --baseline` gate on doctored copies of the
    /// committed golden: a file that is not a golden and a row that lost
    /// its closing brace are refused, naming their line; a row doctored to
    /// claim `exact` is a regression at its own line.
    #[test]
    fn gate_refuses_damaged_baselines_and_names_doctored_lines() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let read = |rel: &str| std::fs::read_to_string(root.join(rel)).unwrap();
        let refusal = |text: &str| read_baseline(text).unwrap_err().to_string();
        assert!(
            refusal(&read("README.md")).starts_with("line 1: not a JSON document (1:1: "),
            "{}",
            refusal(&read("README.md"))
        );

        let golden = read("results/validation_matrix.json");
        let line = golden.lines().nth(327).unwrap();
        assert!(line.starts_with("{\"substrate\":\"sim:alpha\",\"mode\":\"direct\""));
        let exact = line.replace("\"grade\":\"deviates\"", "\"grade\":\"exact\"");
        let unclosed = format!("{},", exact.strip_suffix("},").unwrap());
        assert_eq!(
            refusal(&golden.replacen(line, &unclosed, 1)),
            "line 328: not exactly one cell object"
        );

        let mut rows = read_baseline(&golden.replacen(line, &exact, 1)).unwrap();
        rows.retain(|r| r.cell.starts_with("sim:alpha/"));
        let diff = diff_against_baseline(&one_substrate_matrix("sim:alpha"), &rows);
        let findings: Vec<String> = diff.worse.iter().map(ToString::to_string).collect();
        assert_eq!(
            findings,
            ["sim:alpha/direct/convert_mix/PAPI_FP_INS: exact -> deviates (baseline line 328)"]
        );
        assert!(diff.better.is_empty() && diff.added.is_empty());
    }

    #[test]
    fn fault_decorated_substrate_yields_graded_cells() {
        let cells = one_substrate_matrix("fault[read=3,start=2,stop=2,burst=2]:sim:generic");
        assert!(!cells.is_empty());
        // Every cell got a grade; the schedule must leave at least one
        // cell non-exact (the faults have to bite somewhere).
        assert!(cells.iter().any(|c| c.grade.rank() > 0));
    }

    #[test]
    fn render_matrix_tallies_and_lists_worst_cells() {
        let cells = one_substrate_matrix("sim:power3");
        let text = render_matrix(&cells);
        assert!(text.contains("sim:power3/direct"));
        assert!(text.contains("deviating or unsupported"));
        assert!(text.contains("convert_mix/PAPI_FP_INS"));
    }
}
