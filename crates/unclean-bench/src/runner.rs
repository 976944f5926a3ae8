//! The resilient experiment supervisor.
//!
//! `run_all` used to be a straight-line loop: one panicking experiment (or
//! a `kill -9` mid-write) lost the whole evening's results and left
//! truncated JSON behind. This module makes the harness crash-safe:
//!
//! * every experiment runs on its own thread behind `catch_unwind`, with a
//!   configurable deadline and retry budget — a panic or hang is recorded
//!   and the remaining experiments still run;
//! * every result file is written atomically (`NAME.json.tmp` → fsync →
//!   rename), so a crash at any instant leaves either the old file or the
//!   new one, never a torn one;
//! * a `results/manifest.json` records per-experiment status, attempts,
//!   duration, error text and the content hash of every output file;
//! * `--resume` fingerprints the run (scale, seed, trials, crate version)
//!   against the manifest and re-runs only experiments whose recorded
//!   outputs are missing, corrupt, or from a failed attempt;
//! * experiments run concurrently on `--threads` workers, which take
//!   the next pending one in registry order, each in its own
//!   [`ExperimentSlot`] so one experiment's retries and telemetry never
//!   bleed into another's. Scheduling never affects results: every
//!   experiment derives its randomness from its own seed, and outputs,
//!   `all.json` and the manifest are emitted in registry order whatever
//!   order the workers finished in.
//!
//! Retries perturb only the *experiment-local* seed (via
//! [`ExperimentSlot::experiment_seed`]); the scenario seed — and hence
//! the generated world every experiment shares — is never changed.

use crate::{BenchOpts, ExperimentContext, ExperimentSlot};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};
use unclean_telemetry::{prom, Snapshot};

/// Everything that can go wrong in the harness outside an experiment's own
/// assertions: bad usage, result I/O, serialization.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// Bad command-line usage (exit code 2).
    Usage(String),
    /// Filesystem failure while persisting or reading results.
    Io {
        /// The path involved.
        path: String,
        /// The underlying error, rendered.
        message: String,
    },
    /// A result value failed to serialize.
    Serialize(String),
    /// The experiment panicked (payload rendered).
    Panicked(String),
    /// The experiment exceeded its deadline.
    DeadlineExceeded {
        /// The configured deadline, in seconds.
        secs: u64,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Usage(msg) => write!(f, "usage error: {msg}"),
            RunError::Io { path, message } => write!(f, "I/O error on {path}: {message}"),
            RunError::Serialize(msg) => write!(f, "serialization error: {msg}"),
            RunError::Panicked(msg) => write!(f, "panicked: {msg}"),
            RunError::DeadlineExceeded { secs } => write!(f, "deadline of {secs}s exceeded"),
        }
    }
}

impl std::error::Error for RunError {}

impl RunError {
    /// Wrap an `io::Error` with the path it struck.
    pub fn io(path: &Path, e: std::io::Error) -> RunError {
        RunError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        }
    }
}

/// Exit code when every experiment succeeded.
pub const EXIT_OK: u8 = 0;
/// Exit code for command-line usage errors.
pub const EXIT_USAGE: u8 = 2;
/// Exit code when the run completed but some experiments failed.
pub const EXIT_PARTIAL: u8 = 3;

// ---------------------------------------------------------------------------
// Atomic persistence
// ---------------------------------------------------------------------------

/// FNV-1a over a byte stream; the manifest stores it as 16 hex digits.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hash a file's contents the way the manifest records them.
pub fn hash_file(path: &Path) -> Result<String, RunError> {
    let bytes = std::fs::read(path).map_err(|e| RunError::io(path, e))?;
    Ok(format!("{:016x}", fnv1a(&bytes)))
}

/// Write `bytes` to `path` atomically (spill to `path + ".tmp"`, fsync,
/// rename, fsync the directory; see [`unclean_core::publish_atomic`]),
/// creating missing parent directories. A crash at any point leaves
/// either the old file or the new one — never a truncated hybrid.
/// Returns the content hash in manifest form.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<String, RunError> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| RunError::io(dir, e))?;
        }
    }
    unclean_core::publish_atomic(path, |f| std::io::Write::write_all(f, bytes))
        .map_err(|e| RunError::io(path, e))?;
    Ok(format!("{:016x}", fnv1a(bytes)))
}

/// Serialize `value` pretty-printed and write it atomically.
pub fn atomic_write_json<T: Serialize + ?Sized>(
    path: &Path,
    value: &T,
) -> Result<String, RunError> {
    let text =
        serde_json::to_string_pretty(value).map_err(|e| RunError::Serialize(e.to_string()))?;
    let mut bytes = text.into_bytes();
    bytes.push(b'\n');
    atomic_write(path, &bytes)
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// One output file an experiment produced, with its content hash.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutputFile {
    /// File name inside the results directory.
    pub file: String,
    /// FNV-1a content hash (16 hex digits).
    pub hash: String,
}

/// How an experiment's supervised run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunStatus {
    /// Completed and all outputs persisted.
    Ok,
    /// Every attempt failed; `error` holds the last failure.
    Failed,
    /// Skipped under `--resume`: prior outputs verified intact on disk.
    Resumed,
}

/// Per-experiment record in the manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Experiment id (registry key and `results/<id>.json` stem).
    pub id: String,
    /// Final status.
    pub status: RunStatus,
    /// Attempts consumed (0 when resumed).
    pub attempts: u64,
    /// Wall-clock seconds across all attempts.
    pub duration_secs: f64,
    /// Last error, rendered, when `status` is `Failed`.
    pub error: Option<String>,
    /// Output files with content hashes (resume verifies these).
    pub outputs: Vec<OutputFile>,
    /// Telemetry for the successful attempt: the shared
    /// generation/pipeline context merged with this experiment's own
    /// spans and counters. `None` when telemetry is off or the
    /// experiment failed.
    pub telemetry: Option<Snapshot>,
    /// Process peak RSS (`VmHWM`, kB) sampled when this experiment
    /// finished. The high-water mark is process-wide and monotonic, so
    /// this is "peak so far", not the experiment's own footprint; the
    /// maximum across records is the run's true peak. `None` off Linux
    /// or in manifests written before this field existed.
    pub peak_rss_kb: Option<u64>,
}

/// The run fingerprint: results are only comparable/resumable when every
/// field matches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fingerprint {
    /// Harness crate version.
    pub crate_version: String,
    /// Scenario scale.
    pub scale: f64,
    /// Master scenario seed.
    pub seed: u64,
    /// Control-ensemble trials.
    pub trials: u64,
}

impl Fingerprint {
    /// The fingerprint of the current process's options.
    pub fn of(opts: &BenchOpts) -> Fingerprint {
        Fingerprint {
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
            scale: opts.scale,
            seed: opts.seed,
            trials: opts.trials as u64,
        }
    }
}

/// `results/manifest.json`: the supervisor's full account of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Fingerprint of the run that produced these results.
    pub fingerprint: Fingerprint,
    /// Per-experiment records, in registry order.
    pub runs: Vec<RunRecord>,
}

impl Manifest {
    /// Load a manifest, or `None` when absent/corrupt (a corrupt manifest
    /// just means nothing can be resumed — never an abort).
    pub fn load(dir: &Path) -> Option<Manifest> {
        let text = std::fs::read_to_string(dir.join("manifest.json")).ok()?;
        serde_json::from_str(&text).ok()
    }

    /// Persist atomically as `manifest.json` in `dir`.
    pub fn store(&self, dir: &Path) -> Result<(), RunError> {
        atomic_write_json(&dir.join("manifest.json"), self)?;
        Ok(())
    }

    /// The record for `id`, if present.
    pub fn record(&self, id: &str) -> Option<&RunRecord> {
        self.runs.iter().find(|r| r.id == id)
    }
}

/// Can `id` be skipped under `--resume`? Yes only when the previous run
/// succeeded and every recorded output still exists with a matching
/// content hash — a truncated or hand-edited file forces a re-run.
pub fn can_skip(manifest: &Manifest, fingerprint: &Fingerprint, id: &str, dir: &Path) -> bool {
    if manifest.fingerprint != *fingerprint {
        return false;
    }
    let Some(record) = manifest.record(id) else {
        return false;
    };
    if record.status == RunStatus::Failed || record.outputs.is_empty() {
        return false;
    }
    record.outputs.iter().all(|out| {
        hash_file(&dir.join(&out.file))
            .map(|h| h == out.hash)
            .unwrap_or(false)
    })
}

// ---------------------------------------------------------------------------
// Supervision
// ---------------------------------------------------------------------------

/// Knobs for the supervisor, parsed from `run_all`'s extra flags.
#[derive(Debug, Clone, Default)]
pub struct RunnerConfig {
    /// Skip experiments whose on-disk results verify against the manifest.
    pub resume: bool,
    /// Extra attempts after the first failure (each perturbs the
    /// experiment-local seed).
    pub retries: u64,
    /// Per-experiment wall-clock deadline.
    pub deadline: Option<Duration>,
    /// Restrict to these experiment ids (registry order preserved).
    pub only: Option<Vec<String>>,
    /// Append a deliberately panicking experiment (integration-test hook:
    /// it panics on attempt 0 and succeeds on any retry).
    pub self_test_panic: bool,
}

impl RunnerConfig {
    /// Parse the supervisor flags out of `extra` (the args `BenchOpts`
    /// didn't recognize): `--resume`, `--retries N`, `--deadline SECS`,
    /// `--only id1,id2`, `--self-test-panic`.
    pub fn parse(extra: &[String]) -> Result<RunnerConfig, RunError> {
        let mut cfg = RunnerConfig::default();
        let mut i = 0;
        while i < extra.len() {
            let value = |i: usize| -> Result<&String, RunError> {
                extra
                    .get(i + 1)
                    .ok_or_else(|| RunError::Usage(format!("missing value for {}", extra[i])))
            };
            match extra[i].as_str() {
                "--resume" => {
                    cfg.resume = true;
                    i += 1;
                }
                "--retries" => {
                    cfg.retries = value(i)?
                        .parse()
                        .map_err(|_| RunError::Usage("--retries takes an integer".into()))?;
                    i += 2;
                }
                "--deadline" => {
                    let secs: u64 = value(i)?
                        .parse()
                        .map_err(|_| RunError::Usage("--deadline takes whole seconds".into()))?;
                    cfg.deadline = Some(Duration::from_secs(secs));
                    i += 2;
                }
                "--only" => {
                    cfg.only = Some(value(i)?.split(',').map(|s| s.trim().to_string()).collect());
                    i += 2;
                }
                "--self-test-panic" => {
                    cfg.self_test_panic = true;
                    i += 1;
                }
                other => {
                    return Err(RunError::Usage(format!(
                        "unknown argument {other}; try --help"
                    )))
                }
            }
        }
        Ok(cfg)
    }
}

/// The integration-test experiment `--self-test-panic` appends: panics on
/// attempt 0, succeeds on any retry — exercising fault isolation, retry
/// seed perturbation, and resume in one knob.
pub fn self_test_experiment(ctx: &ExperimentSlot) -> Result<Value, RunError> {
    if ctx.attempt.load(Ordering::SeqCst) == 0 {
        panic!("injected panic (--self-test-panic, attempt 0)");
    }
    let result = serde_json::json!({
        "experiment": "selftest",
        "attempt": ctx.attempt.load(Ordering::SeqCst),
        "experiment_seed": ctx.experiment_seed(),
    });
    ctx.write_result("selftest", &result)?;
    Ok(result)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one attempt on its own thread; a panic is caught, a deadline
/// overrun abandons the worker (it is detached, never joined).
fn supervise_attempt(
    slot: &Arc<ExperimentSlot>,
    id: &str,
    runner: crate::experiments::Runner,
    deadline: Option<Duration>,
) -> Result<Value, RunError> {
    let (tx, rx) = mpsc::channel();
    let worker_slot = Arc::clone(slot);
    let spawned = std::thread::Builder::new()
        .name(format!("exp-{id}"))
        .spawn(move || {
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| runner(&worker_slot)));
            let _ = tx.send(outcome);
        });
    let handle = match spawned {
        Ok(h) => h,
        Err(e) => return Err(RunError::Panicked(format!("spawn failed: {e}"))),
    };
    let received = match deadline {
        Some(limit) => rx.recv_timeout(limit),
        None => rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected),
    };
    match received {
        Ok(outcome) => {
            let _ = handle.join();
            match outcome {
                Ok(result) => result,
                Err(payload) => Err(RunError::Panicked(panic_message(payload))),
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => Err(RunError::DeadlineExceeded {
            secs: deadline.map(|d| d.as_secs()).unwrap_or(0),
        }),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            Err(RunError::Panicked("worker thread vanished".into()))
        }
    }
}

/// Supervise one experiment through its retry budget. Returns the record,
/// the result value when it succeeded, and the experiment-local telemetry
/// snapshot (unmerged — `run_all` prefixes and rolls it into the
/// run-level export without double-counting the shared context).
pub fn run_one(
    slot: &Arc<ExperimentSlot>,
    id: &str,
    runner: crate::experiments::Runner,
    cfg: &RunnerConfig,
) -> (RunRecord, Option<Value>, Option<Snapshot>) {
    let t0 = Instant::now();
    let mut last_error = String::new();
    for attempt in 0..=cfg.retries {
        slot.begin_attempt(attempt);
        if attempt > 0 {
            eprintln!(
                "[bench] {id}: retry {attempt}/{} (experiment seed {:#x})",
                cfg.retries,
                slot.experiment_seed()
            );
        }
        let outcome = {
            // The "run" span brackets the whole supervised attempt, so
            // every manifest record carries at least one stage duration.
            let _run_span = slot.attempt_registry().span("run");
            supervise_attempt(slot, id, runner, cfg.deadline)
        };
        match outcome {
            Ok(value) => {
                let mut outputs = slot.take_written();
                // Experiments that only wrote satellite files (or none)
                // still get a canonical `results/<id>.json` so resume has
                // something to verify and `all.json` can be rebuilt.
                if !outputs.iter().any(|o| o.file == format!("{id}.json")) {
                    match slot.write_result(id, &value) {
                        Ok(()) => outputs.extend(slot.take_written()),
                        Err(e) => {
                            last_error = e.to_string();
                            continue;
                        }
                    }
                }
                let local = if slot.registry.enabled() {
                    Some(slot.take_attempt_snapshot())
                } else {
                    None
                };
                let telemetry = local.as_ref().map(|local| {
                    let mut merged = slot.shared_context.clone();
                    merged.merge(local);
                    merged
                });
                return (
                    RunRecord {
                        id: id.to_string(),
                        status: RunStatus::Ok,
                        attempts: attempt + 1,
                        duration_secs: t0.elapsed().as_secs_f64(),
                        error: None,
                        outputs,
                        telemetry,
                        peak_rss_kb: crate::peak_rss_kb(),
                    },
                    Some(value),
                    local,
                );
            }
            Err(e) => {
                last_error = e.to_string();
                let _ = slot.take_written();
                eprintln!("[bench] {id}: attempt {} failed: {last_error}", attempt + 1);
            }
        }
    }
    (
        RunRecord {
            id: id.to_string(),
            status: RunStatus::Failed,
            attempts: cfg.retries + 1,
            duration_secs: t0.elapsed().as_secs_f64(),
            error: Some(last_error),
            outputs: Vec::new(),
            telemetry: None,
            peak_rss_kb: crate::peak_rss_kb(),
        },
        None,
        None,
    )
}

/// The registry `run_all` supervises: the full experiment registry plus
/// the `--self-test-panic` injection when enabled.
fn supervised_registry(cfg: &RunnerConfig) -> Vec<crate::experiments::Experiment> {
    let mut registry = crate::experiments::all();
    if cfg.self_test_panic {
        registry.push((
            "selftest",
            "injected panic (self test)",
            self_test_experiment,
        ));
    }
    registry
}

/// Validate the supervisor config against the registry — called *before*
/// the expensive scenario generation so `--only typo` fails in
/// milliseconds, not minutes.
pub fn validate_config(cfg: &RunnerConfig) -> Result<(), RunError> {
    if let Some(only) = &cfg.only {
        let registry = supervised_registry(cfg);
        for id in only {
            if !registry.iter().any(|(rid, _, _)| rid == id) {
                return Err(RunError::Usage(format!(
                    "--only names unknown experiment {id:?}"
                )));
            }
        }
    }
    Ok(())
}

/// One finished experiment, parked until the ordered emission pass.
type Outcome = (RunRecord, Option<Value>, Option<Snapshot>);

/// Run the non-resumed experiments over `ctx.threads` workers, filling
/// `outcomes` (one slot per registry entry). Each worker takes the next
/// pending experiment off one atomic counter, so experiments start
/// lowest index first — with one worker, the serial registry order.
/// Failures never stop the schedule: the other experiments still run.
fn run_scheduled(
    ctx: &Arc<ExperimentContext>,
    registry: &[crate::experiments::Experiment],
    pending: &[usize],
    cfg: &RunnerConfig,
    outcomes: &[Mutex<Option<Outcome>>],
) {
    let next = AtomicUsize::new(0);
    let workers = ctx.threads.min(pending.len()).max(1);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                while let Some(&i) = pending.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let (id, description, runner) = registry[i];
                    eprintln!("\n[bench] ===== {id}: {description} =====");
                    let t0 = Instant::now();
                    let slot = Arc::new(ExperimentSlot::new(Arc::clone(ctx)));
                    let outcome = run_one(&slot, id, runner, cfg);
                    eprintln!("[bench] {id} finished in {:.1?}", t0.elapsed());
                    *outcomes[i].lock().expect("outcome slot") = Some(outcome);
                }
            });
        }
    });
}

/// The full supervised run: every registry experiment (filtered by
/// `--only`), resume-aware, failure-isolated, scheduled over
/// `--threads` workers. Writes per-experiment results, the combined
/// `all.json` (partial on failures) and `manifest.json`; prints a failure
/// summary; returns the process exit code (0 all ok, 3 partial).
pub fn run_all(ctx: Arc<ExperimentContext>, cfg: &RunnerConfig) -> ExitCode {
    if let Err(e) = validate_config(cfg) {
        eprintln!("{e}");
        return ExitCode::from(EXIT_USAGE);
    }
    let mut registry = supervised_registry(cfg);
    if let Some(only) = &cfg.only {
        registry.retain(|(id, _, _)| only.iter().any(|o| o == id));
    }

    let fingerprint = Fingerprint::of(&ctx.opts);
    let out_dir = ctx.opts.out_dir.clone();
    let previous = match (&out_dir, cfg.resume) {
        (Some(dir), true) => Manifest::load(dir),
        _ => None,
    };
    if cfg.resume && previous.is_none() {
        eprintln!("[bench] --resume: no usable manifest; running everything");
    }

    // Resume pre-pass (serial): park verified prior results in their
    // outcome slots, collect everything else for the scheduler.
    let outcomes: Vec<Mutex<Option<Outcome>>> = registry.iter().map(|_| Mutex::new(None)).collect();
    let mut pending = Vec::new();
    for (i, (id, _, _)) in registry.iter().enumerate() {
        let resumed = match (&out_dir, &previous) {
            (Some(dir), Some(manifest)) if can_skip(manifest, &fingerprint, id, dir) => {
                let prior = manifest.record(id).expect("can_skip checked presence");
                eprintln!("[bench] {id}: resumed (outputs verified, skipping)");
                let value = std::fs::read_to_string(dir.join(format!("{id}.json")))
                    .ok()
                    .and_then(|text| serde_json::from_str::<Value>(&text).ok());
                let record = RunRecord {
                    status: RunStatus::Resumed,
                    attempts: 0,
                    duration_secs: 0.0,
                    ..prior.clone()
                };
                Some((record, value, None))
            }
            _ => None,
        };
        match resumed {
            Some(outcome) => *outcomes[i].lock().expect("outcome slot") = Some(outcome),
            None => pending.push(i),
        }
    }

    run_scheduled(&ctx, &registry, &pending, cfg, &outcomes);

    // Ordered emission: drain the outcome slots in registry order so
    // records, all.json and telemetry are identical at any thread count.
    let mut records = Vec::new();
    let mut combined = serde_json::Map::new();
    let mut locals: Vec<(String, Snapshot)> = Vec::new();
    for ((id, _, _), slot) in registry.iter().zip(&outcomes) {
        let (record, value, local) = slot
            .lock()
            .expect("outcome slot")
            .take()
            .expect("every scheduled experiment leaves an outcome");
        if let Some(value) = value {
            combined.insert(id.to_string(), value);
        }
        if let Some(local) = local {
            locals.push((id.to_string(), local));
        }
        records.push(record);
    }

    let failed: Vec<RunRecord> = records
        .iter()
        .filter(|r| r.status == RunStatus::Failed)
        .cloned()
        .collect();

    // The combined file is written even when partial: the successes are
    // the evening's salvage, not collateral damage.
    if let Some(dir) = &out_dir {
        let path = dir.join("all.json");
        match atomic_write_json(&path, &Value::Object(combined)) {
            Ok(_) => eprintln!("[bench] wrote {}", path.display()),
            Err(e) => eprintln!("[bench] failed to write all.json: {e}"),
        }
    }
    let manifest = Manifest {
        fingerprint,
        runs: records,
    };
    if let Some(dir) = &out_dir {
        match manifest.store(dir) {
            Ok(()) => eprintln!("[bench] wrote {}", dir.join("manifest.json").display()),
            Err(e) => eprintln!("[bench] failed to write manifest: {e}"),
        }
    }

    // Run-level telemetry exports: the run registry (generation, pipeline,
    // declared counters) plus every experiment's local
    // snapshot prefixed by its id — one merged Snapshot as JSON and the
    // same data rendered as Prometheus text.
    if ctx.registry.enabled() {
        let mut run_snap = ctx.registry.snapshot();
        for (id, local) in &locals {
            run_snap.merge(&local.prefixed(id));
        }
        if let Some(dir) = &out_dir {
            match atomic_write_json(&dir.join("telemetry.json"), &run_snap) {
                Ok(_) => eprintln!("[bench] wrote {}", dir.join("telemetry.json").display()),
                Err(e) => eprintln!("[bench] failed to write telemetry.json: {e}"),
            }
            let text = prom::render(&run_snap, "unclean");
            match atomic_write(&dir.join("metrics.prom"), text.as_bytes()) {
                Ok(_) => eprintln!("[bench] wrote {}", dir.join("metrics.prom").display()),
                Err(e) => eprintln!("[bench] failed to write metrics.prom: {e}"),
            }
        }
    }

    if failed.is_empty() {
        eprintln!("\n[bench] all experiments complete");
        ExitCode::from(EXIT_OK)
    } else {
        eprintln!("\n[bench] {} experiment(s) FAILED:", failed.len());
        for r in &failed {
            eprintln!(
                "[bench]   {}: {} (after {} attempt(s))",
                r.id,
                r.error.as_deref().unwrap_or("unknown error"),
                r.attempts
            );
        }
        eprintln!("[bench] completed experiments were persisted; rerun with --resume to retry only the failures");
        ExitCode::from(EXIT_PARTIAL)
    }
}

/// Shared `main` for the single-experiment binaries: parse options (usage
/// errors exit 2), generate the context, run the one experiment (failures
/// exit 1).
pub fn single_main(id: &str) -> ExitCode {
    let opts = match BenchOpts::from_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let ctx = Arc::new(ExperimentContext::generate(opts));
    let slot = ExperimentSlot::new(ctx);
    let runner = crate::experiments::all()
        .into_iter()
        .find(|(rid, _, _)| *rid == id)
        .map(|(_, _, runner)| runner)
        .unwrap_or_else(|| panic!("unknown experiment id {id}"));
    match runner(&slot) {
        Ok(_) => ExitCode::from(EXIT_OK),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("unclean-runner-unit").join(name);
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir
    }

    #[test]
    fn fnv1a_known_vector() {
        // FNV-1a 64-bit test vector: empty input is the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }

    #[test]
    fn atomic_write_leaves_no_tmp_and_replaces_content() {
        let dir = tmp_dir("atomic");
        let path = dir.join("x.json");
        std::fs::write(&path, "old").expect("seed old content");
        let hash = atomic_write(&path, b"{\"new\":1}").expect("atomic write");
        assert_eq!(std::fs::read_to_string(&path).expect("read"), "{\"new\":1}");
        assert_eq!(hash, hash_file(&path).expect("hash"));
        assert!(!dir.join("x.json.tmp").exists(), "tmp must be renamed away");
    }

    #[test]
    fn atomic_write_overwrites_stale_tmp() {
        // A crash between spill and rename leaves a stale .tmp behind; the
        // next write must clobber it and still land atomically.
        let dir = tmp_dir("stale-tmp");
        let path = dir.join("y.json");
        std::fs::write(dir.join("y.json.tmp"), "torn garba").expect("stale tmp");
        atomic_write(&path, b"fresh").expect("atomic write");
        assert_eq!(std::fs::read_to_string(&path).expect("read"), "fresh");
        assert!(!dir.join("y.json.tmp").exists());
    }

    #[test]
    fn runner_config_parses_all_flags() {
        let args: Vec<String> = [
            "--resume",
            "--retries",
            "2",
            "--deadline",
            "30",
            "--only",
            "table1,fig2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let cfg = RunnerConfig::parse(&args).expect("parses");
        assert!(cfg.resume);
        assert_eq!(cfg.retries, 2);
        assert_eq!(cfg.deadline, Some(Duration::from_secs(30)));
        assert_eq!(
            cfg.only.as_deref(),
            Some(&["table1".to_string(), "fig2".into()][..])
        );
    }

    #[test]
    fn runner_config_rejects_unknown_and_missing() {
        assert!(matches!(
            RunnerConfig::parse(&["--frobnicate".to_string()]),
            Err(RunError::Usage(_))
        ));
        assert!(matches!(
            RunnerConfig::parse(&["--retries".to_string()]),
            Err(RunError::Usage(_))
        ));
        assert!(matches!(
            RunnerConfig::parse(&["--retries".to_string(), "many".to_string()]),
            Err(RunError::Usage(_))
        ));
    }

    #[test]
    fn manifest_round_trips_and_resume_verifies_hashes() {
        let dir = tmp_dir("manifest");
        let path = dir.join("table1.json");
        let hash = atomic_write(&path, b"{\"rows\": []}").expect("write");
        let fp = Fingerprint {
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
            scale: 0.02,
            seed: 7,
            trials: 10,
        };
        let manifest = Manifest {
            fingerprint: fp.clone(),
            runs: vec![RunRecord {
                id: "table1".into(),
                status: RunStatus::Ok,
                attempts: 1,
                duration_secs: 0.5,
                error: None,
                outputs: vec![OutputFile {
                    file: "table1.json".into(),
                    hash,
                }],
                telemetry: None,
                peak_rss_kb: None,
            }],
        };
        manifest.store(&dir).expect("store");
        let back = Manifest::load(&dir).expect("load");
        assert_eq!(back, manifest);
        assert!(can_skip(&back, &fp, "table1", &dir));
        // Unknown id, mismatched fingerprint, corrupt file: all force re-run.
        assert!(!can_skip(&back, &fp, "fig1", &dir));
        let other = Fingerprint {
            seed: 8,
            ..fp.clone()
        };
        assert!(!can_skip(&back, &other, "table1", &dir));
        std::fs::write(&path, "{\"rows\": [1]}").expect("corrupt");
        assert!(!can_skip(&back, &fp, "table1", &dir));
    }

    #[test]
    fn corrupt_manifest_is_ignored_not_fatal() {
        let dir = tmp_dir("corrupt-manifest");
        std::fs::write(dir.join("manifest.json"), "{ torn").expect("write");
        assert!(Manifest::load(&dir).is_none());
    }
}
