//! The built `world_report` binary at smoke scale.

use std::process::Command;

/// `world_report --scale smoke --threads 1` prints the world and
/// epidemic diagnostics, no flow audit, and exits 0.
#[test]
fn smoke_world_report_prints_the_world_and_the_epidemic() {
    let out = Command::new(env!("CARGO_BIN_EXE_world_report"))
        .args(["--scale", "smoke", "--threads", "1"])
        .output()
        .expect("run world_report");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("== world diagnostics (scale 0.002, seed 20061001) =="),
        "{stdout}"
    );
    assert!(stdout.contains("== epidemic diagnostics =="), "{stdout}");
    assert!(
        stdout.contains("expected control-week coverage: "),
        "{stdout}"
    );
    assert!(!stdout.contains("audit"), "{stdout}");
}
