//! Matrix-runner correctness: seeded determinism, baseline regression
//! naming, barrier-start synchrony, and the report round trips the
//! regression gate depends on.  The config reader's mutation corpus lives
//! with the platform files' in the workspace `tests/props.rs`.
//!
//! Everything here runs tiny cell sizes — the properties under test
//! (determinism, line addressing, spread) are exact, so
//! they hold at 64 iters as firmly as at a million.

use papi_bench::matrix::{
    diff_against_baseline, read_baseline, render_matrix_json, run_cell, run_matrix, score_matrix,
    CellResult, CellSpec, MatrixConfig, Op, RunOptions,
};
use papi_obs::json::{BaselineRow, ToJson, Value};
use papi_obs::{Counter, Obs};

/// A small but representative config: two benches, two substrates, a
/// fault schedule, single- and multi-thread cells, direct and mpx modes.
const SMALL_CONFIG: &str = r#"
schema = 1

[matrix]
seed = 7
warmup = 16
iters = 64
reps = 2

[axes]
substrates = ["sim:x86", "sim:generic"]
threads = [1, 4]
events = [1, 4]
mpx = [false, true]
faults = ["none"]

[[bench]]
name = "read_into"
op = "read_into"
faults = ["none", "chaos"]

[[bench]]
name = "accum"
op = "accum"
threads = [1]
mpx = [false]
"#;

fn small_results() -> Vec<CellResult> {
    let cfg = MatrixConfig::parse(SMALL_CONFIG).expect("small config parses");
    run_matrix(&cfg.expand(), &RunOptions::default())
}

fn one_spec(substrate: &str, threads: usize, seed: u64) -> CellSpec {
    CellSpec {
        bench: "spread".to_string(),
        op: Op::ReadInto,
        substrate: substrate.to_string(),
        threads,
        events: 4,
        mpx: false,
        seed,
        warmup: 16,
        iters: 64,
        reps: 1,
    }
}

/// Same config + seed => the same cell set with bit-identical
/// deterministic fields (virtual cycles, allocations, spread, support,
/// fault retries). Only host timings may differ between runs.
#[test]
fn seeded_runs_are_deterministic() {
    let a = small_results();
    let b = small_results();
    assert_eq!(a.len(), b.len());
    assert!(!a.is_empty());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.spec, y.spec);
        assert_eq!(x.supported, y.supported, "{}", x.spec.coord());
        assert_eq!(x.vcyc_per_op, y.vcyc_per_op, "{}", x.spec.coord());
        assert_eq!(x.allocs_per_op, y.allocs_per_op, "{}", x.spec.coord());
        assert_eq!(
            x.barrier_spread_vcyc,
            y.barrier_spread_vcyc,
            "{}",
            x.spec.coord()
        );
        assert_eq!(x.virt_throughput, y.virt_throughput, "{}", x.spec.coord());
        assert_eq!(x.obs_reads, y.obs_reads, "{}", x.spec.coord());
        assert_eq!(
            x.obs_fault_retries,
            y.obs_fault_retries,
            "{}",
            x.spec.coord()
        );
    }
    // And the PP scores, which derive only from deterministic fields.
    let (sa, sb) = (score_matrix(&a), score_matrix(&b));
    assert_eq!(sa.len(), sb.len());
    for (x, y) in sa.iter().zip(&sb) {
        assert_eq!(x.bench, y.bench);
        assert_eq!(x.pp, y.pp);
    }
}

/// Doctor field `key` of a baseline row in place.
fn set(row: &mut BaselineRow, key: &str, v: Value) {
    let Value::Obj(members) = &mut row.value else {
        panic!("row is not an object")
    };
    members.iter_mut().find(|(k, _)| k == key).expect(key).1 = v;
}

fn vcyc_of(row: &BaselineRow) -> f64 {
    row.value
        .get("vcyc_per_op")
        .and_then(Value::as_f64)
        .unwrap()
}

/// Planted regression: doctor one baseline cell to one read more than the
/// run counts and the diff must fail naming exactly that cell, the column
/// *and* the line the cell occupies in the baseline document.
#[test]
fn planted_regression_names_cell_and_baseline_line() {
    let results = small_results();
    let doc = render_matrix_json(&results, &score_matrix(&results));
    let mut baseline = read_baseline(&doc).expect("the report reads back as a baseline");
    assert_eq!(
        baseline.len(),
        results.len(),
        "every cell parses back out of the report"
    );
    // Header on line 1, so cell i sits on line i + 2.
    for (i, b) in baseline.iter().enumerate() {
        assert_eq!(b.line, i + 2, "cell line addressing");
    }

    // Self-diff is clean: nothing regressed against our own report.
    let self_diff = diff_against_baseline(&results, &baseline);
    assert!(
        self_diff.clean(),
        "self-diff regressed: {:?}",
        self_diff.worse
    );
    assert!(self_diff.added.is_empty());

    // Plant: pretend the 5th cell used to count one read more.
    let victim = 4.min(baseline.len() - 1);
    let reads = baseline[victim].value.get("reads").and_then(Value::as_u64);
    let reads = reads.expect("reads column");
    set(&mut baseline[victim], "reads", (reads + 1).to_json());
    let coord = baseline[victim].cell.clone();
    let line = baseline[victim].line;

    let diff = diff_against_baseline(&results, &baseline);
    assert_eq!(diff.worse.len(), 1, "exactly the planted cell fails");
    let r = &diff.worse[0];
    assert_eq!(r.cell, coord);
    assert_eq!(r.line, line);
    assert_eq!(r.detail, format!("reads {} -> {reads}", reads + 1));
    let shown = format!("{r}");
    assert!(shown.contains(&coord), "display names the cell: {shown}");
    assert!(
        shown.contains(&format!("baseline line {line}")),
        "display names the baseline line: {shown}"
    );
}

/// A baseline cell the current run no longer produces is a regression
/// (coverage shrank); a current cell the baseline lacks is only reported
/// as added.
#[test]
fn missing_and_added_cells_are_classified() {
    let results = small_results();
    let doc = render_matrix_json(&results, &score_matrix(&results));
    let baseline = read_baseline(&doc).unwrap();

    let truncated: Vec<CellResult> = results[1..].to_vec();
    let diff = diff_against_baseline(&truncated, &baseline);
    assert_eq!(diff.worse.len(), 1);
    assert_eq!(diff.worse[0].cell, results[0].spec.coord());
    assert_eq!(diff.worse[0].line, 2);
    assert!(diff.worse[0].detail.contains("missing"));

    let shrunk_baseline = &baseline[1..];
    let diff = diff_against_baseline(&results, shrunk_baseline);
    assert!(diff.clean());
    assert_eq!(diff.added, vec![results[0].spec.coord()]);
}

/// A cell whose support changed is a finding either way: the golden pins
/// support like every other deterministic column.
#[test]
fn support_transitions_are_findings_either_way() {
    let results = small_results();
    let doc = render_matrix_json(&results, &score_matrix(&results));

    let mut dead = results.clone();
    dead[0] = CellResult {
        supported: false,
        vcyc_per_op: 0.0,
        ..dead[0].clone()
    };
    let diff = diff_against_baseline(&dead, &read_baseline(&doc).unwrap());
    assert_eq!(diff.worse.len(), 1);
    let detail = &diff.worse[0].detail;
    assert!(detail.starts_with("supported true -> false, "), "{detail}");

    let mut baseline = read_baseline(&doc).unwrap();
    set(&mut baseline[0], "supported", Value::Bool(false));
    let diff = diff_against_baseline(&results, &baseline);
    assert_eq!(diff.worse.len(), 1);
    assert_eq!(diff.worse[0].detail, "supported false -> true");
    assert!(diff.better.is_empty());
}

/// The `papi_bench_matrix --baseline` gate on doctored copies of the
/// committed golden: a file that is not a golden and a row that lost its
/// closing brace are refused, naming their line; a row doctored to a
/// cheaper vcyc/op is a regression at its own line.
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

    let golden = read("results/bench_matrix.json");
    let line = golden.lines().nth(5).unwrap();
    let cheap = line.replace("\"vcyc_per_op\":800.0000", "\"vcyc_per_op\":100.0000");
    assert_ne!(cheap, line);
    let unclosed = format!("{},", cheap.strip_suffix("},").unwrap());
    assert_eq!(
        refusal(&golden.replacen(line, &unclosed, 1)),
        "line 6: not exactly one cell object"
    );

    // Run the doctored cell alone, at its shipped size, and defend only
    // its row.
    let coord = "read_into/sim:x86/4t/1ev/dir";
    let mut rows = read_baseline(&golden.replacen(line, &cheap, 1)).unwrap();
    rows.retain(|r| r.cell == coord);
    let cfg = MatrixConfig::parse(&read("benches/matrix.toml")).unwrap();
    let spec = cfg
        .expand()
        .into_iter()
        .find(|s| s.coord() == coord)
        .unwrap();
    let diff = diff_against_baseline(&run_matrix(&[spec], &RunOptions::default()), &rows);
    let findings: Vec<String> = diff.worse.iter().map(ToString::to_string).collect();
    assert_eq!(
        findings,
        ["read_into/sim:x86/4t/1ev/dir: vcyc_per_op 100.0000 -> 800.0000 (baseline line 6)"]
    );
}

/// `benches/matrix.toml` as shipped reproduces `results/bench_matrix.json`
/// in every column that does not depend on the host (the baseline gate's
/// comparison) and in the PP scores rows.  These are what the library does
/// per op, so they are pinned exactly.  A mismatch names the cell, the
/// column and its golden line.
#[test]
fn shipped_matrix_reproduces_the_golden_deterministic_columns() {
    // `file:platforms/...` substrates resolve against the working
    // directory, so run from the repository root as the CLI does (no
    // other test here reads a relative path).
    std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).unwrap();
    let read = |rel: &str| std::fs::read_to_string(rel).unwrap();
    let cfg = MatrixConfig::parse(&read("benches/matrix.toml")).unwrap();
    let results = run_matrix(&cfg.expand(), &RunOptions::default());
    let doc = render_matrix_json(&results, &score_matrix(&results));
    let golden = read("results/bench_matrix.json");

    let diff = diff_against_baseline(&results, &read_baseline(&golden).unwrap());
    assert!(
        diff.added.is_empty(),
        "cells not in the golden: {:?}",
        diff.added
    );
    let mut mismatches: Vec<String> = diff.worse.iter().map(ToString::to_string).collect();
    let scores = |text: &str| -> Vec<(usize, String)> {
        (1..)
            .zip(text.lines().map(str::to_string))
            .skip_while(|(_, l)| !l.starts_with("], \"scores\""))
            .collect()
    };
    let (want, got) = (scores(&golden), scores(&doc));
    assert_eq!(want.len(), got.len(), "scores rows");
    for ((line, w), (_, g)) in want.iter().zip(&got) {
        if w != g {
            mismatches.push(format!("scores (golden line {line}): {w} -> {g}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} mismatch(es) against results/bench_matrix.json:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

/// Barrier-start synchrony: with seed stride 0 every worker runs a
/// bit-identical machine, so the post-barrier start timestamps must agree
/// to within one measurement quantum (one op's virtual cost) — on 2, 4
/// and 8 threads, clean and under chaos fault injection.
#[test]
fn barrier_start_spread_below_one_quantum() {
    let opts = RunOptions {
        obs: None,
        seed_stride: 0,
        progress: false,
    };
    for substrate in ["sim:x86", "fault[chaos]:sim:x86"] {
        for threads in [2usize, 4, 8] {
            let r = run_cell(&one_spec(substrate, threads, 7), &opts);
            assert!(r.supported, "{substrate}/{threads}t refused");
            let quantum = r.vcyc_per_op;
            assert!(quantum > 0.0);
            assert!(
                (r.barrier_spread_vcyc as f64) < quantum,
                "{substrate}/{threads}t: start spread {} vcyc >= one op quantum {quantum}",
                r.barrier_spread_vcyc
            );
        }
    }
}

/// The matrix runner's own observability: cells run / unsupported /
/// threads launched flow into the attached obs context.
#[test]
fn matrix_obs_counters_flow() {
    let obs = Obs::new();
    let opts = RunOptions {
        obs: Some(obs.clone()),
        seed_stride: 1,
        progress: false,
    };
    let specs = vec![
        one_spec("sim:x86", 1, 7),
        one_spec("sim:x86", 4, 7),
        one_spec("no-such-substrate", 2, 7),
    ];
    let results = run_matrix(&specs, &opts);
    assert!(results[0].supported && results[1].supported);
    assert!(
        !results[2].supported,
        "registry miss must be unsupported, not a panic"
    );
    assert_eq!(obs.get(Counter::MatrixCellsRun), 2);
    assert_eq!(obs.get(Counter::MatrixCellsUnsupported), 1);
    assert_eq!(obs.get(Counter::MatrixThreadsLaunched), 1 + 4 + 2);
}

/// The matrix report round-trips: every rendered cell parses back with
/// the coordinate and virtual cost it was rendered from.
#[test]
fn matrix_report_round_trips() {
    let results = small_results();
    let doc = render_matrix_json(&results, &score_matrix(&results));
    let parsed = read_baseline(&doc).unwrap();
    assert_eq!(parsed.len(), results.len());
    for (p, r) in parsed.iter().zip(&results) {
        assert_eq!(p.cell, r.spec.coord());
        assert_eq!(
            p.value.get("supported").and_then(Value::as_bool),
            Some(r.supported)
        );
        // vcyc is rendered at 4 decimals; parse must recover that value.
        assert!((vcyc_of(p) - r.vcyc_per_op).abs() < 1e-4);
    }
}

/// Run the `papi_bench_matrix` binary on `config`, written to a file under
/// the target's scratch directory, with `args` after `--config FILE`.
fn run_binary(name: &str, config: &str, args: &[&str]) -> std::process::Output {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.toml"));
    std::fs::write(&path, config).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_papi_bench_matrix"))
        .arg("--config")
        .arg(&path)
        .args(args)
        .output()
        .unwrap();
    std::fs::remove_file(&path).unwrap();
    out
}

/// A substrate the registry cannot open is a config error (exit 2, naming
/// it), refused before any cell runs — not a column of unsupported cells.
#[test]
fn unopenable_substrate_is_refused_before_any_cell_runs() {
    let config = SMALL_CONFIG.replace(
        r#"substrates = ["sim:x86", "sim:generic"]"#,
        r#"substrates = ["sim:x86", "file:no/such/platform.toml"]"#,
    );
    assert_ne!(config, SMALL_CONFIG);
    let out = run_binary("unopenable_substrate", &config, &["--smoke"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("substrate `file:no/such/platform.toml`"),
        "{stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "cells ran: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// `--smoke` shrinks the sizes a golden records, so asking it to gate
/// against one is a usage error (exit 2) before any cell runs.
#[test]
fn smoke_refuses_a_baseline() {
    let out = run_binary(
        "smoke_baseline",
        SMALL_CONFIG,
        &["--smoke", "--baseline", "results/bench_matrix.json"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("usage: papi_bench_matrix"), "{stderr}");
    assert!(out.stdout.is_empty());
}

/// Under `--json`, stdout is the report document and nothing else.
#[test]
fn json_stdout_is_the_document_alone() {
    let out = run_binary("json_stdout", SMALL_CONFIG, &["--smoke", "--json"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let text = String::from_utf8(out.stdout).unwrap();
    let doc = papi_obs::json::parse(&text).expect("stdout is one JSON document");
    let cells = MatrixConfig::parse(SMALL_CONFIG).unwrap().expand().len();
    match doc.get("matrix") {
        Some(Value::Arr(rows)) => assert_eq!(rows.len(), cells),
        other => panic!("no matrix array: {other:?}"),
    }
    assert!(stderr.contains("E-matrix"), "{stderr}");
}
