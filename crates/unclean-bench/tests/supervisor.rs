//! Integration tests for the crash-safe experiment supervisor: fault
//! isolation (a panicking experiment doesn't take the run down), atomic
//! result persistence (no observable `.tmp` leftovers, no torn JSON), the
//! manifest, and `--resume` re-running only what failed or rotted on disk.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::process::Output;
use unclean_bench::runner::{
    atomic_write, can_skip, Fingerprint, Manifest, OutputFile, RunRecord, RunStatus,
};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("unclean-supervisor").join(name);
    // Start from scratch: stale results would make resume assertions lie.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

/// No `.tmp` spill file may ever be observable after a run completes.
fn assert_no_tmp_leftovers(dir: &Path) {
    for entry in std::fs::read_dir(dir).expect("read dir") {
        let path = entry.expect("entry").path();
        assert!(
            path.extension().map(|e| e != "tmp").unwrap_or(true),
            "leftover spill file: {}",
            path.display()
        );
    }
}

// ---------------------------------------------------------------------------
// Manifest + resume units (pure, no scenario generation)
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn manifest_serialization_round_trips(
        seed in any::<u64>(),
        scale in 0.0001f64..1.0,
        trials in 1u64..10_000,
        attempts in 0u64..5,
        duration in 0.0f64..100_000.0,
        status_sel in 0u8..3,
        n_outputs in 0usize..4,
        hash_seed in any::<u64>(),
    ) {
        let status = match status_sel {
            0 => RunStatus::Ok,
            1 => RunStatus::Failed,
            _ => RunStatus::Resumed,
        };
        let outputs: Vec<OutputFile> = (0..n_outputs)
            .map(|i| OutputFile {
                file: format!("exp{i}.json"),
                hash: format!("{:016x}", hash_seed.wrapping_add(i as u64)),
            })
            .collect();
        let error = if status == RunStatus::Failed {
            // Panic payloads arrive with newlines and quotes; they must
            // survive the JSON round trip byte-for-byte.
            Some("assertion failed:\n  \"support\" was 0.93 < 0.95".to_string())
        } else {
            None
        };
        let manifest = Manifest {
            fingerprint: Fingerprint {
                crate_version: "0.1.0".into(),
                scale,
                seed,
                trials,
            },
            runs: vec![RunRecord {
                id: format!("exp-{}", seed % 10),
                status,
                attempts,
                duration_secs: duration,
                error,
                outputs,
                telemetry: None,
                peak_rss_kb: seed.is_multiple_of(2).then(|| (seed % (1 << 20)) + 1024),
            }],
        };
        let text = serde_json::to_string_pretty(&manifest).expect("serialize");
        let back: Manifest = serde_json::from_str(&text).expect("parse back");
        prop_assert_eq!(back, manifest);
    }
}

#[test]
fn simulated_crash_truncated_tmp_is_invisible_to_readers() {
    // A crash mid-spill leaves a truncated .tmp; the final file must be
    // untouched and the next atomic write must clobber the wreckage.
    let dir = tmp_dir("crash-tmp");
    let path = dir.join("fig4.json");
    atomic_write(&path, b"{\"complete\": true}").expect("first write");
    // Crash: half a JSON document in the spill file.
    std::fs::write(dir.join("fig4.json.tmp"), "{\"complete\": fal").expect("simulate crash");
    // The durable file is still the last complete write.
    let text = std::fs::read_to_string(&path).expect("read");
    serde_json::from_str::<serde_json::Value>(&text).expect("final file parses");
    // Recovery: the next write replaces both.
    atomic_write(&path, b"{\"complete\": 2}").expect("recovery write");
    assert_no_tmp_leftovers(&dir);
    assert_eq!(
        std::fs::read_to_string(&path).expect("read"),
        "{\"complete\": 2}"
    );
}

#[test]
fn resume_rejects_corrupt_final_json() {
    // A result file truncated *after* a successful run (disk rot, hand
    // editing) must fail hash verification and force a re-run.
    let dir = tmp_dir("corrupt-final");
    let path = dir.join("table2.json");
    let hash = atomic_write(&path, b"{\"rows\": [1, 2, 3]}").expect("write");
    let fingerprint = Fingerprint {
        crate_version: env!("CARGO_PKG_VERSION").to_string(),
        scale: 0.02,
        seed: 1,
        trials: 10,
    };
    let manifest = Manifest {
        fingerprint: fingerprint.clone(),
        runs: vec![RunRecord {
            id: "table2".into(),
            status: RunStatus::Ok,
            attempts: 1,
            duration_secs: 1.0,
            error: None,
            outputs: vec![OutputFile {
                file: "table2.json".into(),
                hash,
            }],
            telemetry: None,
            peak_rss_kb: None,
        }],
    };
    assert!(
        can_skip(&manifest, &fingerprint, "table2", &dir),
        "intact file skips"
    );
    let full = std::fs::read(&path).expect("read");
    std::fs::write(&path, &full[..full.len() / 2]).expect("truncate in place");
    assert!(
        !can_skip(&manifest, &fingerprint, "table2", &dir),
        "torn file re-runs"
    );
    std::fs::remove_file(&path).expect("remove");
    assert!(
        !can_skip(&manifest, &fingerprint, "table2", &dir),
        "missing file re-runs"
    );
}

#[test]
fn manifest_with_the_retired_archive_telemetry_still_resumes() {
    // Manifests once ended in a run-level `telemetry` object (an archive
    // round trip's loss accounting). Such a manifest must still load, and
    // its verified experiment still be skipped.
    let dir = tmp_dir("retired-telemetry");
    let hash = atomic_write(&dir.join("table1.json"), b"{\"rows\": []}").expect("write");
    let text = format!(
        r#"{{
  "fingerprint": {{
    "crate_version": "{version}",
    "scale": 0.02,
    "seed": 7,
    "trials": 10
  }},
  "runs": [
    {{
      "attempts": 1,
      "duration_secs": 0.5,
      "error": null,
      "id": "table1",
      "outputs": [
        {{
          "file": "table1.json",
          "hash": "{hash}"
        }}
      ],
      "peak_rss_kb": 41324,
      "status": "Ok",
      "telemetry": null
    }}
  ],
  "telemetry": {{
    "datagrams": 1102,
    "duplicates": 0,
    "flows": 33049,
    "lost_flows": 0,
    "recovered_flows": 0,
    "reordered": 0,
    "sequence_gaps": 0
  }}
}}
"#,
        version = env!("CARGO_PKG_VERSION"),
    );
    std::fs::write(dir.join("manifest.json"), text).expect("write manifest");
    let manifest = Manifest::load(&dir).expect("the old manifest loads");
    let fingerprint = Fingerprint {
        crate_version: env!("CARGO_PKG_VERSION").to_string(),
        scale: 0.02,
        seed: 7,
        trials: 10,
    };
    assert_eq!(manifest.fingerprint, fingerprint);
    assert_eq!(
        manifest.record("table1").and_then(|r| r.peak_rss_kb),
        Some(41324)
    );
    assert!(can_skip(&manifest, &fingerprint, "table1", &dir));
}

// ---------------------------------------------------------------------------
// End-to-end: the run_all binary under an injected panic
// ---------------------------------------------------------------------------

fn run_all(out_dir: &Path, extra: &[&str]) -> Output {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_run_all"));
    cmd.args(["--scale", "0.001", "--trials", "20", "--out"])
        .arg(out_dir)
        .args(["--only", "table1,selftest", "--self-test-panic"])
        .args(extra);
    cmd.output().expect("spawn run_all")
}

fn load_manifest(dir: &Path) -> Manifest {
    Manifest::load(dir).expect("manifest present and well-formed")
}

/// On Linux every `Ok` record carries the process's peak RSS so far: the
/// field CI's scale job gates memory growth on.
fn assert_ok_records_carry_peak_rss(manifest: &Manifest) {
    if cfg!(target_os = "linux") {
        for record in manifest.runs.iter().filter(|r| r.status == RunStatus::Ok) {
            assert!(
                record.peak_rss_kb.is_some_and(|kb| kb > 0),
                "{}: peak_rss_kb {:?}",
                record.id,
                record.peak_rss_kb
            );
        }
    }
}

#[test]
fn panic_isolation_partial_results_and_resume() {
    let dir = tmp_dir("e2e");

    // Pass 1: the injected experiment panics (no retries). The run must
    // finish, persist table1, record the failure, and exit 3.
    let out = run_all(&dir, &[]);
    assert_eq!(out.status.code(), Some(3), "partial run exits 3");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("injected panic"),
        "failure summary names the panic: {stderr}"
    );
    assert_no_tmp_leftovers(&dir);

    let table1_text = std::fs::read_to_string(dir.join("table1.json")).expect("table1 persisted");
    serde_json::from_str::<serde_json::Value>(&table1_text).expect("table1 is valid JSON");
    let all: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(dir.join("all.json")).expect("all.json"))
            .expect("all.json is valid JSON");
    assert!(
        all.get("table1").is_some(),
        "partial all.json keeps the successes"
    );
    assert!(
        all.get("selftest").is_none(),
        "failed experiment absent from all.json"
    );

    let manifest = load_manifest(&dir);
    assert_ok_records_carry_peak_rss(&manifest);
    let table1 = manifest.record("table1").expect("table1 recorded");
    assert_eq!(table1.status, RunStatus::Ok);
    assert!(!table1.outputs.is_empty());
    let selftest = manifest.record("selftest").expect("selftest recorded");
    assert_eq!(selftest.status, RunStatus::Failed);
    assert_eq!(selftest.attempts, 1);
    assert!(
        selftest
            .error
            .as_deref()
            .unwrap_or("")
            .contains("injected panic"),
        "manifest records the panic message: {:?}",
        selftest.error
    );

    // Pass 2: --resume with a retry budget. table1 must be skipped
    // (outputs verify), selftest re-run and succeed on its retry.
    let out = run_all(&dir, &["--resume", "--retries", "1"]);
    assert_eq!(out.status.code(), Some(0), "resume completes the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("table1: resumed"),
        "table1 skipped: {stderr}"
    );
    assert!(
        stderr.contains("selftest: retry 1/1"),
        "selftest retried: {stderr}"
    );

    let manifest = load_manifest(&dir);
    assert_ok_records_carry_peak_rss(&manifest);
    assert_eq!(
        manifest.record("table1").expect("table1").status,
        RunStatus::Resumed
    );
    let selftest = manifest.record("selftest").expect("selftest");
    assert_eq!(selftest.status, RunStatus::Ok);
    assert_eq!(
        selftest.attempts, 2,
        "panicked once, succeeded on the retry"
    );
    let all: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(dir.join("all.json")).expect("all.json"))
            .expect("valid");
    assert!(
        all.get("table1").is_some(),
        "resumed results rebuilt into all.json"
    );
    assert!(all.get("selftest").is_some());

    // Telemetry satellite files: metrics.prom must be valid Prometheus
    // text, telemetry.json must parse back into a Snapshot, and a clean
    // synthetic run must report zero quarantined lines.
    let prom_text = std::fs::read_to_string(dir.join("metrics.prom")).expect("metrics.prom");
    let exposition = unclean_telemetry::prom::parse(&prom_text).expect("metrics.prom parses");
    assert_eq!(
        exposition.counter_u64("unclean_ingest_quarantined_lines"),
        Some(0),
        "clean run quarantines nothing"
    );
    let tel_text = std::fs::read_to_string(dir.join("telemetry.json")).expect("telemetry.json");
    let run_snap: unclean_telemetry::Snapshot =
        serde_json::from_str(&tel_text).expect("telemetry.json is a Snapshot");
    assert!(
        run_snap.counters.get("detect.flows_ingested").copied() > Some(0),
        "run-level snapshot carries the pipeline ingest counter"
    );

    // Every successful manifest record carries a telemetry object with at
    // least the supervised "run" stage duration and the shared pipeline
    // ingest counters.
    let selftest_tel = selftest
        .telemetry
        .as_ref()
        .expect("successful record carries telemetry");
    assert!(
        selftest_tel.spans.contains_key("run"),
        "record telemetry has the run-stage span"
    );
    assert!(
        selftest_tel.counters.get("detect.flows_ingested").copied() > Some(0),
        "record telemetry includes the shared pipeline context"
    );

    // Pass 3: corrupt table1.json on disk; --resume must re-run ONLY
    // table1 (hash mismatch) and skip selftest (now verified Ok).
    std::fs::write(dir.join("table1.json"), "{ torn").expect("corrupt");
    let out = run_all(&dir, &["--resume", "--retries", "1"]);
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("===== table1"),
        "corrupt result re-runs: {stderr}"
    );
    assert!(
        stderr.contains("selftest: resumed"),
        "intact result skips: {stderr}"
    );
    let repaired = std::fs::read_to_string(dir.join("table1.json")).expect("rewritten");
    serde_json::from_str::<serde_json::Value>(&repaired).expect("repaired JSON parses");
    assert_no_tmp_leftovers(&dir);
}

#[test]
fn usage_errors_exit_2() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["--scale", "not-a-float"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--scale"));

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["--frobnicate"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["--only", "no-such-experiment", "--no-out"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
}
