//! `papirun --workload-file`: a program file written by hand in the JSON
//! shape `simcpu::Program` reads (externally tagged instructions) runs and
//! counts exactly like the built-in workload it spells out.

use std::process::Command;

/// `dense_fp(200_000, 4, 2)` — papirun's built-in `dense_fp` — spelled out
/// instruction by instruction.
const DENSE_FP: &str = r#"{
  "insts": [
    "FFma", "FFma", "FFma", "FFma", "FAdd", "FAdd",
    {"Br": {"pat": {"Loop": {"count": 200000}}, "target": 0}},
    "Ret",
    {"Call": {"target": 0}},
    "Halt"
  ],
  "symbols": [
    {"name": "dense_fp", "start": 0, "end": 8},
    {"name": "_start", "start": 8, "end": 10}
  ],
  "entry": 8
}
"#;

const EVENTS: [&str; 5] = [
    "PAPI_TOT_INS",
    "PAPI_FP_OPS",
    "PAPI_FMA_INS",
    "PAPI_BR_INS",
    "PAPI_TOT_CYC",
];

/// papirun's counter lines for `args` (the header names the workload, so it
/// is left out).
fn counts(args: &[&str]) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_papirun"))
        .args(args)
        .args(EVENTS)
        .output()
        .expect("papirun runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "papirun {args:?} failed: {}{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        .filter(|l| EVENTS.iter().any(|e| l.trim_start().starts_with(e)))
        .map(str::to_string)
        .collect()
}

#[test]
fn hand_written_program_counts_like_the_builtin() {
    let path = std::env::temp_dir().join(format!("papirun_dense_fp_{}.json", std::process::id()));
    std::fs::write(&path, DENSE_FP).unwrap();
    let from_file = counts(&["--workload-file", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    let builtin = counts(&["--workload", "dense_fp"]);
    assert_eq!(from_file.len(), EVENTS.len(), "{from_file:?}");
    assert_eq!(from_file, builtin);
}

#[test]
fn malformed_program_file_is_refused_with_a_position() {
    let path = std::env::temp_dir().join(format!("papirun_bad_{}.json", std::process::id()));
    std::fs::write(&path, "{\"insts\": [\"FFma\",\n  \"Bogus\"}").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_papirun"))
        .args(["--workload-file", path.to_str().unwrap(), "PAPI_TOT_INS"])
        .output()
        .expect("papirun runs");
    let _ = std::fs::remove_file(&path);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("2:10"), "no line:col in: {stderr}");
}

/// Programs that decode as JSON but that the machine could not run are
/// refused at load, naming the offending instruction, instead of crashing
/// the simulator mid-run.
#[test]
fn unrunnable_program_files_are_refused_naming_the_instruction() {
    let cases = [
        (
            r#"{"insts": ["Halt"], "symbols": [], "entry": 7}"#,
            "entry 7 is past the end",
        ),
        (
            r#"{"insts": ["Int", {"Br": {"pat": "Always", "target": 99}}], "symbols": [], "entry": 0}"#,
            "insts[1]: target 99 is past the end",
        ),
        (
            r#"{"insts": ["Int", "FFma"], "symbols": [], "entry": 0}"#,
            "insts[1]: FFma can fall through",
        ),
        (
            r#"{"insts": [], "symbols": [], "entry": 0}"#,
            "program has no instructions",
        ),
        (
            r#"{"insts": [{"Load": {"Stride": {"base": 18446744073709551000, "stride": 8, "len": 1024}}}, "Halt"],
                "symbols": [], "entry": 0}"#,
            "insts[0]: address arithmetic",
        ),
    ];
    for (i, (program, want)) in cases.into_iter().enumerate() {
        let path = std::env::temp_dir().join(format!(
            "papirun_unrunnable_{}_{i}.json",
            std::process::id()
        ));
        std::fs::write(&path, program).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_papirun"))
            .args(["--workload-file", path.to_str().unwrap(), "PAPI_TOT_INS"])
            .output()
            .expect("papirun runs");
        let _ = std::fs::remove_file(&path);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "case {i}: {stderr}");
        assert!(
            stderr.contains("is not a valid program"),
            "case {i}: {stderr}"
        );
        assert!(stderr.contains(want), "case {i}: want {want:?} in {stderr}");
        assert!(!stderr.contains("panicked"), "case {i}: {stderr}");
    }
}
