//! The built `unclean` binary against a stdout whose reader has gone.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

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

/// A free loopback TCP port, picked before the daemon binds it.
fn free_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("free port")
        .port()
}

/// One HTTP/1.0 request to `127.0.0.1:port`: the status and the body, or
/// `None` when nothing answered.
fn request(port: u16, method: &str, path: &str) -> Option<(u16, String)> {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(("127.0.0.1", port)).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    stream
        .write_all(format!("{method} {path} HTTP/1.0\r\nContent-Length: 0\r\n\r\n").as_bytes())
        .ok()?;
    let mut text = String::new();
    stream.read_to_string(&mut text).ok()?;
    let status = text.split(' ').nth(1)?.parse().ok()?;
    let body = text.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    Some((status, body.to_string()))
}

/// The write end of a pipe whose reader is gone.
fn closed_pipe() -> std::io::PipeWriter {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    writer
}

/// A daemon started from the built binary; killed on drop, so a failed
/// assertion leaves no process behind.
struct Daemon {
    child: Child,
    stderr: PathBuf,
}

impl Daemon {
    fn start(dir: &Path, args: &[&str], stdout: impl Into<Stdio>) -> Daemon {
        let stderr = dir.join("stderr.log");
        let child = Command::new(env!("CARGO_BIN_EXE_unclean"))
            .args(args)
            .stdin(Stdio::null())
            .stdout(stdout)
            .stderr(std::fs::File::create(&stderr).expect("stderr log"))
            .spawn()
            .expect("start unclean");
        Daemon { child, stderr }
    }

    fn stderr(&self) -> String {
        std::fs::read_to_string(&self.stderr).unwrap_or_default()
    }

    /// Poll `/healthz` until it answers `ok`, failing if the daemon exits
    /// first or stays silent for 30 s.
    fn wait_healthy(&mut self, port: u16) {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = self.child.try_wait().expect("poll daemon") {
                panic!(
                    "daemon exited ({status}) before /healthz answered:\n{}",
                    self.stderr()
                );
            }
            if let Some((200, body)) = request(port, "GET", "/healthz") {
                if body.starts_with("ok") {
                    return;
                }
            }
            assert!(
                Instant::now() < deadline,
                "no /healthz answer within 30 s:\n{}",
                self.stderr()
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// `POST /quit`, then wait up to 30 s for the daemon to exit 0.
    fn quit(&mut self, port: u16) {
        assert!(request(port, "POST", "/quit").is_some(), "/quit unanswered");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = self.child.try_wait().expect("poll daemon") {
                assert_eq!(status.code(), Some(0), "{}", self.stderr());
                return;
            }
            assert!(
                Instant::now() < deadline,
                "daemon still running 30 s after /quit:\n{}",
                self.stderr()
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("unclean-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

/// `unclean serve … | true`: the banner finds no reader, and the daemon
/// serves anyway, then quits with exit 0.
#[test]
fn serve_outlives_a_closed_stdout() {
    let dir = scratch_dir("serve-stdout");
    let blocklist = dir.join("bl.txt");
    std::fs::write(&blocklist, "203.0.113.0/24 # score=1.0\n").expect("write blocklist");
    let port = free_port();
    let addr = format!("127.0.0.1:{port}");
    let mut daemon = Daemon::start(
        &dir,
        &[
            "serve",
            "--blocklist",
            blocklist.to_str().expect("utf-8"),
            "--addr",
            &addr,
        ],
        closed_pipe(),
    );
    daemon.wait_healthy(port);
    daemon.quit(port);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `unclean ingest` on a fresh spool, its control port on `port` and its
/// stdout on `stdout`.
fn start_ingest(dir: &Path, port: u16, stdout: impl Into<Stdio>) -> Daemon {
    let spool = dir.join("spool");
    let out = spool.join("bl.txt");
    let control = format!("127.0.0.1:{port}");
    Daemon::start(
        dir,
        &[
            "ingest",
            "--spool",
            spool.to_str().expect("utf-8"),
            "--out",
            out.to_str().expect("utf-8"),
            "--bind",
            "127.0.0.1:0",
            "--control",
            &control,
        ],
        stdout,
    )
}

/// `unclean ingest … | true`: neither the control banner nor an
/// attempt's banner takes the daemon down or restarts an attempt, and it
/// drains and exits 0 on `/quit`.
#[test]
fn ingest_outlives_a_closed_stdout() {
    let dir = scratch_dir("ingest-stdout");
    let port = free_port();
    let mut daemon = start_ingest(&dir, port, closed_pipe());
    daemon.wait_healthy(port);
    let (_, metrics) = request(port, "GET", "/metrics").expect("/metrics answers");
    let restarts = metrics
        .lines()
        .find_map(|l| l.strip_prefix("unclean_ingest_ingest_restarts "))
        .unwrap_or("0");
    assert_eq!(restarts, "0", "{}", daemon.stderr());
    daemon.quit(port);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `unclean ingest > FILE`: the drain summary is stdout's last line and
/// ends in a newline, so whatever is written next starts a line of its
/// own.
#[test]
fn ingest_drain_summary_ends_its_line() {
    let dir = scratch_dir("ingest-summary");
    let stdout = dir.join("stdout.txt");
    let port = free_port();
    let mut daemon = start_ingest(
        &dir,
        port,
        std::fs::File::create(&stdout).expect("stdout file"),
    );
    daemon.wait_healthy(port);
    daemon.quit(port);
    let text = std::fs::read_to_string(&stdout).expect("read stdout");
    let last = text.lines().last().unwrap_or_default();
    assert!(last.starts_with("drained cleanly: "), "{text:?}");
    assert!(text.ends_with("(attempt 1)\n"), "{text:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Run the built binary on `args`: its exit code, stdout and stderr.
fn unclean(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_unclean"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("run unclean");
    let text = |bytes: Vec<u8>| String::from_utf8_lossy(&bytes).into_owned();
    (out.status.code(), text(out.stdout), text(out.stderr))
}

/// A command that parses and then fails exits 1 with its error alone; a
/// command line that does not parse exits 2 with the usage text.
#[test]
fn runtime_failures_exit_1_and_usage_errors_exit_2() {
    let (code, _, stderr) = unclean(&["inspect", "/nonexistent/unclean/report.txt"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(!stderr.contains("USAGE:"), "{stderr}");

    let (code, _, stderr) = unclean(&["inspect", "x", "--bogus"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag --bogus"), "{stderr}");
    assert!(stderr.contains("USAGE:"), "{stderr}");
}

/// `forecast synth` refuses, before generating anything, more days than
/// fit within the V5 uptime horizon of its boot anchor; 49 days fit, and
/// `forecast fit` sees every one of them.
#[test]
fn forecast_synth_stops_at_the_v5_horizon() {
    let dir = scratch_dir("synth-horizon");
    let archive = dir.join("spool.flows");
    let archive = archive.to_str().expect("utf-8");
    let synth = |days: &str| {
        unclean(&[
            "forecast", "synth", "--out", archive, "--scale", "0.002", "--seed", "11", "--days",
            days,
        ])
    };
    let (code, _, stderr) = synth("50");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("horizon"), "{stderr}");
    assert!(stderr.contains("at most 49"), "{stderr}");
    assert!(!stderr.contains("USAGE:"), "{stderr}");
    assert!(!Path::new(archive).exists(), "nothing is written");

    let (code, _, stderr) = synth("49");
    assert_eq!(code, Some(0), "{stderr}");
    let forecast = dir.join("forecast.txt");
    let forecast = forecast.to_str().expect("utf-8");
    let (code, stdout, stderr) =
        unclean(&["forecast", "fit", "--archive", archive, "--out", forecast]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains(" over 49 day(s) "), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}
