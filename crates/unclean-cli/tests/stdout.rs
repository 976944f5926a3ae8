//! The built `unclean` binary against a stdout whose reader has gone.

use std::process::{Command, Stdio};

/// `unclean … | head` once `head` has exited: the binary stops writing
/// and exits 0, with no panic and no backtrace.
#[test]
fn a_closed_stdout_ends_the_output_with_exit_zero() {
    let dir = std::env::temp_dir().join(format!("unclean-cli-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let report = dir.join("report.txt");
    let lines: String = (0..2_000)
        .map(|i| format!("9.{}.{}.1\n", i / 250, i % 250))
        .collect();
    std::fs::write(&report, lines).expect("write report");

    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_unclean"))
        .arg("inspect")
        .arg(&report)
        .stdin(Stdio::null())
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run unclean");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
