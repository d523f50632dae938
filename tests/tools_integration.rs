//! End-to-end tool scenarios spanning papi-tools, papi-core, workloads and
//! the simulator.

use papi_suite::papi::{Papi, Preset, SimSubstrate};
use papi_suite::tools::papirun::{papirun, papirun_with, RunOptions};
use papi_suite::tools::tracer::{Timeline, Tracer};
use papi_suite::tools::{
    default_platforms, full_registry, render_report, run_calibration, Dynaprof, Perfometer,
    ProbeMetric,
};
use papi_suite::workloads::{dense_fp, matmul, phased, tight_calls};
use simcpu::platform::{sim_generic, sim_power3, sim_t3e, sim_x86};
use simcpu::Machine;

#[test]
fn calibrate_all_platforms_report() {
    let reg = std::sync::Arc::new(full_registry());
    let rows = run_calibration(&reg, &default_platforms(&reg), 7).unwrap();
    assert!(
        rows.len() > 60,
        "expected a dense calibration matrix, got {}",
        rows.len()
    );
    // Every platform contributed.
    let plats: std::collections::HashSet<&str> = rows.iter().map(|r| r.platform).collect();
    assert_eq!(plats.len(), 8);
    // The rendered report contains both verdicts.
    let rep = render_report(&rows);
    assert!(rep.contains("ok"));
    assert!(rep.contains("MISMATCH (mapping flagged inexact)"));
    // And no *unflagged* mismatches anywhere.
    assert!(rows.iter().all(|r| r.pass() || r.inexact_mapping));
}

#[test]
fn papirun_matrix_on_three_platforms() {
    for spec in [sim_x86(), sim_t3e(), sim_power3()] {
        let name = spec.name;
        let rep = papirun(&spec, &matmul(12), &["PAPI_TOT_CYC", "PAPI_TOT_INS"], 4)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let ins = rep.rows[1].1;
        assert_eq!(ins as u64, 4 * 12u64.pow(3) + 2 * 144 + 12 + 2, "{name}");
        assert!(rep.real_us > 0);
    }
}

#[test]
fn dynaprof_then_perfometer_same_session_style() {
    // Instrument, profile per function, then monitor the same binary live —
    // the dynaprof+perfometer combination the paper describes ("a running
    // application can be attached to and monitored in real-time").
    let w = phased(2, 8_000);
    let mut dp = Dynaprof::load(w.program.clone());
    let prog = dp.instrument(&["fp_phase", "mem_phase"]).unwrap();

    let mut m = Machine::new(sim_generic(), 6);
    m.load(prog);
    let mut papi = Papi::init(SimSubstrate::new(m)).unwrap();
    let rep = dp
        .run(&mut papi, ProbeMetric::Papi(Preset::TotCyc.code()))
        .unwrap();
    let mem = rep.funcs.iter().find(|f| f.name == "mem_phase").unwrap();
    let fp = rep.funcs.iter().find(|f| f.name == "fp_phase").unwrap();
    assert!(mem.incl_value > fp.incl_value);

    // Fresh machine, same binary, live trace.
    let mut m = Machine::new(sim_generic(), 6);
    m.load(w.program);
    let mut papi = Papi::init(SimSubstrate::new(m)).unwrap();
    let mut pm = Perfometer::new(50_000);
    pm.monitor(&mut papi, Preset::FpOps.code()).unwrap();
    assert!(pm.trace().len() > 5);
}

#[test]
fn probe_overhead_scales_with_call_granularity() {
    // The finer the instrumentation granularity, the higher the overhead —
    // the reason tool developers moved to statistical sampling (§4).
    let overhead = |calls: u32, body: usize| -> f64 {
        let w = tight_calls(calls, body);
        let mut base = Machine::new(sim_x86(), 8);
        base.load(w.program.clone());
        base.run_to_halt();
        let base_cycles = base.cycles();
        let mut dp = Dynaprof::load(w.program);
        let prog = dp.instrument(&["leaf"]).unwrap();
        let mut m = Machine::new(sim_x86(), 8);
        m.load(prog);
        let mut papi = Papi::init(SimSubstrate::new(m)).unwrap();
        dp.run(&mut papi, ProbeMetric::Papi(Preset::TotIns.code()))
            .unwrap();
        (papi.get_real_cyc() as f64 - base_cycles as f64) / base_cycles as f64
    };
    // Same total FMA work, different function sizes: a tiny leaf means a
    // counter-read syscall per handful of cycles — crushing overhead.
    let fine = overhead(20_000, 2);
    let coarse = overhead(100, 8_000);
    assert!(fine > 5.0 * coarse, "fine {fine} vs coarse {coarse}");
    assert!(
        coarse < 0.3,
        "coarse-grain instrumentation should be modest: {coarse}"
    );
}

#[test]
fn perfometer_json_roundtrip_with_and_without_self_counters() {
    // With an obs context attached: every slice carries self_counters, and
    // the full trace (including those deltas) survives the save/load cycle
    // the paper's "saved for off-line analysis" path implies.
    let mut m = Machine::new(sim_generic(), 9);
    m.load(phased(2, 4_000).program);
    let mut papi = Papi::init(SimSubstrate::new(m)).unwrap();
    let obs = papi_suite::obs::Obs::new();
    papi.attach_obs(obs.clone());
    let mut pm = Perfometer::new(25_000).with_obs(obs);
    pm.monitor(&mut papi, Preset::FpOps.code()).unwrap();
    assert!(pm.trace().len() > 3);
    assert!(pm.trace().iter().all(|p| p.self_counters.is_some()));
    let loaded = Perfometer::load_json(&pm.save_json()).unwrap();
    assert_eq!(loaded, pm.trace());

    // Without obs the field is None, and that also roundtrips.
    let mut m = Machine::new(sim_generic(), 9);
    m.load(phased(2, 4_000).program);
    let mut papi = Papi::init(SimSubstrate::new(m)).unwrap();
    let mut pm = Perfometer::new(25_000);
    pm.monitor(&mut papi, Preset::FpOps.code()).unwrap();
    let loaded = Perfometer::load_json(&pm.save_json()).unwrap();
    assert_eq!(loaded, pm.trace());
    assert!(loaded.iter().all(|p| p.self_counters.is_none()));

    // Traces saved before the self_counters field existed still load.
    let legacy = r#"[{"t_us": 10.0, "delta": 5, "rate_per_s": 500000.0,
                     "metric": "PAPI_FP_OPS"}]"#;
    let loaded = Perfometer::load_json(legacy).unwrap();
    assert_eq!(loaded.len(), 1);
    assert!(loaded[0].self_counters.is_none());
}

#[test]
fn tracer_timeline_json_roundtrip_and_obs_merge() {
    let mut m = Machine::new(sim_x86(), 3);
    m.load(dense_fp(60_000, 4, 0).program);
    let mut papi = Papi::init(SimSubstrate::new(m)).unwrap();
    let obs = papi_suite::obs::Obs::new();
    obs.enable_journal(2_048);
    papi.attach_obs(obs.clone());
    let tl = Tracer::new(10_000)
        .trace(&mut papi, &[Preset::FpOps.code(), Preset::TotIns.code()])
        .unwrap();

    // The obs journal converts onto the same grid and merges column-wise
    // with the application timeline (the §3 Vampir-correlation shape).
    let span_us = tl.intervals.last().unwrap().t_end_us;
    let n = tl.intervals.len();
    let obs_tl = papi_suite::toolkit::journal_to_timeline(
        &obs.journal_records(),
        1000, // sim-x86 runs at 1000 MHz
        span_us / n as f64,
        Some(span_us),
    );
    let merged = tl.merge(&obs_tl).expect("same interval grid");
    assert_eq!(merged.intervals.len(), n);
    let reads_col = merged.events.iter().position(|e| e == "obs.read").unwrap();
    let total_reads: i64 = merged.intervals.iter().map(|iv| iv.deltas[reads_col]).sum();
    assert_eq!(total_reads as u64, obs.get(papi_suite::obs::Counter::Reads));

    // JSON export/import reproduces both timelines exactly.
    assert_eq!(Timeline::from_json(&tl.to_json()).unwrap(), tl);
    assert_eq!(Timeline::from_json(&merged.to_json()).unwrap(), merged);
}

#[test]
fn papirun_list_substrates_prints_full_registry() {
    // What `papirun --list-substrates` prints: every simulated platform by
    // its registry name, plus the perfctr backend, with the per-substrate
    // counter/group/sampling columns.
    let reg = papi_suite::tools::full_registry();
    let listing = papi_suite::tools::render_substrate_list(&reg);
    for name in [
        "sim:x86",
        "sim:alpha",
        "sim:power3",
        "sim:ia64",
        "sim:t3e",
        "sim:ultra",
        "sim:mips",
        "sim:generic",
        "perfctr",
    ] {
        assert!(listing.contains(name), "missing {name} in:\n{listing}");
        assert!(reg.contains(name), "registry cannot create {name}");
    }
    // Legacy platform spellings survive as aliases.
    assert!(listing.contains("(alias sim-power3)"));
    // Column spot-checks: POWER3 is the group-based 8-counter machine,
    // alpha is the sampling one.
    let power3 = listing
        .lines()
        .find(|l| l.starts_with("sim:power3"))
        .unwrap();
    assert!(power3.contains(" 8 "), "{power3}");
    let alpha = listing
        .lines()
        .find(|l| l.starts_with("sim:alpha"))
        .unwrap();
    assert!(alpha.contains("yes"), "{alpha}");
    assert!(listing.lines().next().unwrap().contains("sampling"));
}

#[test]
fn papirun_by_substrate_name_end_to_end() {
    // `papirun --substrate NAME` path: same counts through the registry's
    // boxed session as through the static platform path, on every backend
    // that wraps the x86 platform.
    use papi_suite::tools::papirun::papirun_named;
    let w = matmul(12);
    let names = ["PAPI_TOT_CYC", "PAPI_TOT_INS"];
    let opts = RunOptions {
        seed: 4,
        ..RunOptions::default()
    };
    let direct = papirun_with(&sim_x86(), &w, &names, &opts).unwrap();
    for sub in ["sim:x86", "sim-x86", "perfctr"] {
        let rep = papirun_named(sub, &w, &names, &opts).unwrap();
        assert_eq!(rep.rows[1], direct.rows[1], "{sub}");
        assert_eq!(rep.platform, sub);
    }
}

#[test]
fn papirun_self_stats_multiplexed_snapshot() {
    // Five events on two counters forces multiplexing; --self-stats must
    // surface nonzero reads and rotation counts, both in the rendered report
    // and in the JSON snapshot export.
    let rep = papirun_with(
        &sim_x86(),
        &dense_fp(150_000, 4, 1),
        &[
            "PAPI_FP_OPS",
            "PAPI_TOT_INS",
            "PAPI_LD_INS",
            "PAPI_SR_INS",
            "PAPI_BR_INS",
        ],
        &RunOptions {
            seed: 5,
            self_stats: true,
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert!(rep.multiplexed);
    let snap = rep.self_stats.as_ref().expect("self-stats requested");
    assert!(snap.get("mpx", "rotations").unwrap() > 0);
    assert!(snap.get("eventset", "counter_reads").unwrap() > 0);
    assert_eq!(snap.get("eventset", "starts"), Some(1));
    assert!(rep.render().contains("internal counters (papi-obs):"));
    let json = snap.to_json();
    let rotations = snap.get("mpx", "rotations").unwrap();
    assert!(json.contains(&format!("\"mpx.rotations\": {rotations}")));
}

fn rv64_file() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("platforms/sim-rv64.toml")
}

#[test]
fn papi_avail_reports_provenance_for_builtin_and_file_platforms() {
    use papi_suite::tools::render_avail;
    let mut reg = papi_suite::tools::full_registry();
    // Builtin: data embedded in the crate, so provenance is builtin-data.
    let report = render_avail(&reg, "sim:generic").unwrap();
    assert!(report.contains("Provenance: builtin-data"), "{report}");
    assert!(report.contains("PAPI_TOT_CYC"), "{report}");
    assert!(report.contains("Native events:"), "{report}");
    // The name path is registry-resolved: alias, any case, either spelling.
    for alias in ["SIM:GENERIC", "sim-generic", "Sim-Generic"] {
        assert_eq!(render_avail(&reg, alias).unwrap(), report, "{alias}");
    }
    // A runtime-loaded model file reports data-file provenance, and its
    // aggregate FP event makes PAPI_FP_OPS a direct mapping.
    let canonical = reg.register_platform_file(&rv64_file()).unwrap();
    assert_eq!(canonical, "file:sim-rv64");
    let report = render_avail(&reg, &canonical).unwrap();
    assert!(report.contains("Provenance: data-file"), "{report}");
    assert!(report.contains("HPM_FP_FLOPS"), "{report}");
    let fp_ops = report
        .lines()
        .find(|l| l.starts_with("PAPI_FP_OPS"))
        .unwrap();
    assert!(fp_ops.contains("HPM_FP_FLOPS"), "{fp_ops}");
    // The bare name aliases to the same report.
    assert_eq!(render_avail(&reg, "sim-rv64").unwrap(), report);
}

#[test]
fn papi_avail_matrix_spans_builtin_and_file_platforms() {
    use papi_suite::tools::render_avail_matrix;
    let mut reg = papi_suite::tools::full_registry();
    reg.register_platform_file(&rv64_file()).unwrap();
    let matrix = render_avail_matrix(&reg);
    let header = matrix.lines().next().unwrap();
    for col in ["x86", "power3", "generic", "rv64"] {
        assert!(header.contains(col), "missing {col} in: {header}");
    }
    // Every preset appears as a row, cells drawn from the D/+/i/. alphabet.
    let rows: Vec<&str> = matrix.lines().skip(1).collect();
    assert_eq!(rows.len(), papi_suite::papi::Preset::ALL.len());
    assert!(rows.iter().any(|r| r.starts_with("PAPI_FP_OPS")));
}

#[test]
fn papirun_platform_file_end_to_end() {
    // The CLI's --platform-file path, via the same lib call the binary
    // makes: load the data-only rv64 model, run matmul, and get exact
    // counts from presets mapped purely out of the file's event table.
    use papi_suite::tools::papirun_in;
    let mut reg = papi_suite::tools::full_registry();
    let canonical = reg.register_platform_file(&rv64_file()).unwrap();
    let names = ["PAPI_TOT_CYC", "PAPI_TOT_INS", "PAPI_FP_OPS"];
    let opts = RunOptions {
        seed: 4,
        ..RunOptions::default()
    };
    let rep = papirun_in(&reg, &canonical, &matmul(12), &names, &opts).unwrap();
    // matmul(12): n^3 FMAs, two flops each.
    assert_eq!(rep.rows[2].1, 2 * 12i64.pow(3), "{:?}", rep.rows);
    assert!(rep.rows[0].1 > 0 && rep.rows[1].1 > 0);
    // Fault decoration composes over file platforms: same counts.
    let faulted = papirun_in(
        &reg,
        &format!("fault[bits=32]:{canonical}"),
        &matmul(12),
        &names,
        &opts,
    )
    .unwrap();
    assert_eq!(faulted.rows[2], rep.rows[2]);
    // And the listing carries the provenance column for it.
    let listing = papi_suite::tools::render_substrate_list(&reg);
    let row = listing
        .lines()
        .find(|l| l.starts_with("file:sim-rv64"))
        .unwrap();
    assert!(row.contains("data-file"), "{row}");
}

#[test]
fn papirun_through_the_fault_decorator_matches_clean_counts() {
    // `papirun --substrate fault[...]:NAME`: the registry wraps any backend
    // in the fault-injection decorator; wrapped 32-bit counters, transient
    // failure bursts and delayed deliveries must not change the reported
    // instruction counts.
    use papi_suite::tools::papirun::papirun_named;
    let w = matmul(12);
    let names = ["PAPI_TOT_CYC", "PAPI_TOT_INS"];
    let opts = RunOptions {
        seed: 4,
        ..RunOptions::default()
    };
    let direct = papirun_with(&sim_x86(), &w, &names, &opts).unwrap();
    for sub in [
        "fault:sim:x86",
        "fault[bits=32,preload=4294966000]:sim:x86",
        "fault[chaos]:sim:x86",
        "fault[chaos]:perfctr",
    ] {
        let rep = papirun_named(sub, &w, &names, &opts).unwrap();
        assert_eq!(rep.rows[1], direct.rows[1], "{sub}");
    }
}

#[test]
fn papi_validate_end_to_end_with_platform_file_and_faults() {
    // The `papi_validate` pipeline as the binary drives it: register the
    // data-only rv64 model, grade it plus a fault-decorated substrate
    // across all three modes, round-trip the line-per-cell JSON, and prove
    // a doctored baseline turns into line-numbered grade regressions.
    use papi_suite::tools::validate::{
        diff_against_baseline, read_baseline, render_matrix, render_matrix_json, run_matrix,
        ValidateConfig, VALIDATION_PRESETS,
    };
    use std::sync::Arc;

    let mut reg = papi_suite::tools::full_registry();
    reg.register_platform_file(&rv64_file()).unwrap();
    let reg = Arc::new(reg);

    let subs = vec![
        "file:sim-rv64".to_string(),
        "fault[chaos]:sim:x86".to_string(),
    ];
    let cfg = ValidateConfig::new(subs.clone());
    let cells = run_matrix(&reg, &cfg);

    // Every (substrate, mode, workload, preset) combination is graded.
    let suite_len = papi_suite::workloads::validation_suite().len();
    assert_eq!(
        cells.len(),
        subs.len() * 3 * suite_len * VALIDATION_PRESETS.len()
    );
    // The data-file model has full event coverage: direct cells all exact.
    assert!(cells
        .iter()
        .filter(|c| c.substrate == "file:sim-rv64" && c.mode.label() == "direct")
        .all(|c| c.grade.label() == "exact"));

    // JSON round-trip: one line per cell, parsed back loss-free.
    let json = render_matrix_json(&cells);
    let parsed = read_baseline(&json).unwrap();
    assert_eq!(parsed.len(), cells.len());
    for (p, c) in parsed.iter().zip(&cells) {
        assert_eq!(p.cell, c.coord());
        assert_eq!(
            p.value.get("grade").unwrap().as_str(),
            Some(c.grade.label())
        );
    }

    // Self-diff is clean; a baseline doctored to claim every multiplexed
    // `within` cell was `exact` yields regressions whose baseline line
    // numbers point at the doctored cells.
    assert!(diff_against_baseline(&cells, &parsed).clean());
    let doctored = json.replace("\"grade\":\"within\"", "\"grade\":\"exact\"");
    let diff = diff_against_baseline(&cells, &read_baseline(&doctored).unwrap());
    assert!(!diff.clean(), "no within cells to doctor?");
    for r in &diff.worse {
        assert_eq!(r.detail, "exact -> within");
        let line = doctored.lines().nth(r.line - 1).unwrap();
        let preset = r.cell.rsplit('/').next().unwrap();
        assert!(
            line.contains(preset),
            "baseline line {} does not record cell {}",
            r.line,
            r.cell
        );
    }

    // The text report tallies every graded substrate/mode pair.
    let report = render_matrix(&cells);
    for sub in &subs {
        for mode in ["direct", "mpx", "thread"] {
            assert!(
                report.contains(&format!("{sub}/{mode}")),
                "report missing {sub}/{mode}"
            );
        }
    }
}

/// The two line-per-row goldens go through the one JSON codec loss-free:
/// parse followed by render in the writer's layout reproduces each file
/// byte for byte (numbers keep their source text, rows their lines).
#[test]
fn goldens_survive_parse_and_render() {
    use papi_suite::obs::json::{self, Layout};
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let goldens: [(&str, Layout); 2] = [
        (
            "results/bench_matrix.json",
            papi_bench::matrix::report::REPORT_LAYOUT,
        ),
        (
            "results/validation_matrix.json",
            papi_suite::tools::validate::MATRIX_LAYOUT,
        ),
    ];
    for (rel, layout) in goldens {
        let text = std::fs::read_to_string(root.join(rel)).unwrap();
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{rel}: {e}"));
        assert!(
            doc.render(&layout) == text,
            "{rel} changed under parse and render"
        );
    }
}
