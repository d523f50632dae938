//! `papi_calibrate` through its binary: a platform file calibrates through
//! the registry exactly as recorded in `results/papi_calibrate.txt`, and a
//! malformed flag value is a usage error, not a silent default.

use std::path::Path;
use std::process::{Command, Output};

fn papi_calibrate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_papi_calibrate"))
        .args(args)
        .output()
        .expect("papi_calibrate runs")
}

#[test]
fn platform_file_reproduces_the_recorded_report() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let file = root.join("platforms/sim-rv64.toml");
    let out = papi_calibrate(&["--platform-file", file.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let recorded = std::fs::read_to_string(root.join("results/papi_calibrate.txt")).unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stdout), recorded);
}

#[test]
fn malformed_seed_is_a_usage_error() {
    for args in [&["--seed", "x"][..], &["--seed"], &["--platform"]] {
        let out = papi_calibrate(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("usage: papi_calibrate"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran a calibration");
    }
}
