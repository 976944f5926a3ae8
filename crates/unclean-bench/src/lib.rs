//! # unclean-bench
//!
//! The experiment harness: one module (and one binary) per table and
//! figure in the paper's evaluation, plus Criterion performance benches.
//!
//! Every experiment consumes an [`ExperimentContext`] — a generated
//! scenario plus its report inventory — prints the same rows/series the
//! paper reports, and returns a JSON value that `run_all` collects into
//! `results/*.json` for EXPERIMENTS.md.
//!
//! | module | reproduces |
//! |---|---|
//! | [`experiments::table1`] | Table 1 — report inventory |
//! | [`experiments::fig1`] | Figure 1 — scanning vs botnet report timeline |
//! | [`experiments::fig2`] | Figure 2 — naive vs empirical density estimates |
//! | [`experiments::fig3`] | Figure 3 — comparative density of the four classes |
//! | [`experiments::fig4`] | Figure 4 — bot-test predictive capacity |
//! | [`experiments::fig5`] | Figure 5 — phishing self-prediction |
//! | [`experiments::table2`] | Table 2 — candidate partition |
//! | [`experiments::table3`] | Table 3 — blocking sweep TP/FP/pop/unknown |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod runner;

pub use runner::RunError;
pub use unclean_telemetry::TelemetryLevel;

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use unclean_detect::{build_reports_with, PipelineConfig, ReportSet};
use unclean_netmodel::{Scenario, ScenarioConfig};
use unclean_telemetry::{Registry, Snapshot};

/// The scale factor `--scale smoke` aliases to: small enough for CI,
/// large enough that every report class is non-degenerate.
pub const SMOKE_SCALE: f64 = 0.002;

/// Process peak RSS in kB — the `VmHWM` high-water mark from
/// `/proc/self/status`. Monotonic for the life of the process; `None`
/// off Linux or when procfs is unreadable.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Options every experiment binary accepts.
#[derive(Debug, Clone)]
pub struct BenchOpts {
    /// Scenario scale relative to the paper's sizes.
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Control-ensemble trials (the paper uses 1000).
    pub trials: usize,
    /// Directory for JSON results (`None` = print only).
    pub out_dir: Option<std::path::PathBuf>,
    /// Telemetry verbosity (`--telemetry=off|summary|full`).
    pub telemetry: TelemetryLevel,
    /// Worker threads for every parallel stage — the detector sweeps, the
    /// trial ensembles, and the experiment scheduler (0 = one per core,
    /// 1 = fully serial). Results are identical at any thread count.
    pub threads: usize,
}

impl Default for BenchOpts {
    fn default() -> BenchOpts {
        BenchOpts {
            scale: 0.02,
            seed: 20061001,
            trials: 1000,
            out_dir: Some("results".into()),
            telemetry: TelemetryLevel::Summary,
            threads: 0,
        }
    }
}

impl BenchOpts {
    /// Parse the shared flags (`--scale`, `--seed`, `--trials`, `--out`,
    /// `--no-out`, `--telemetry`) out of `args`, returning the options
    /// plus any unrecognized arguments for the caller to interpret (the
    /// `run_all` supervisor layers its own flags on top). `--help` still
    /// exits 0.
    pub fn parse_known(args: &[String]) -> Result<(BenchOpts, Vec<String>), RunError> {
        let mut opts = BenchOpts::default();
        if let Ok(v) = std::env::var("UNCLEAN_THREADS") {
            opts.threads = v
                .parse()
                .map_err(|_| RunError::Usage("UNCLEAN_THREADS takes an integer".into()))?;
        }
        let mut extra = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let value = |i: usize| -> Result<&String, RunError> {
                args.get(i + 1)
                    .ok_or_else(|| RunError::Usage(format!("missing value for {}", args[i])))
            };
            match args[i].as_str() {
                "--scale" => {
                    let v = value(i)?;
                    opts.scale = if v == "smoke" {
                        SMOKE_SCALE
                    } else {
                        v.parse().map_err(|_| {
                            RunError::Usage("--scale takes a float or `smoke`".into())
                        })?
                    };
                    i += 2;
                }
                "--telemetry" => {
                    opts.telemetry = value(i)?.parse().map_err(RunError::Usage)?;
                    i += 2;
                }
                flag if flag.starts_with("--telemetry=") => {
                    let v = &flag["--telemetry=".len()..];
                    opts.telemetry = v.parse().map_err(RunError::Usage)?;
                    i += 1;
                }
                "--seed" => {
                    opts.seed = value(i)?
                        .parse()
                        .map_err(|_| RunError::Usage("--seed takes an integer".into()))?;
                    i += 2;
                }
                "--threads" => {
                    opts.threads = value(i)?
                        .parse()
                        .map_err(|_| RunError::Usage("--threads takes an integer".into()))?;
                    i += 2;
                }
                "--trials" => {
                    opts.trials = value(i)?
                        .parse()
                        .map_err(|_| RunError::Usage("--trials takes an integer".into()))?;
                    i += 2;
                }
                "--out" => {
                    opts.out_dir = Some(value(i)?.into());
                    i += 2;
                }
                "--no-out" => {
                    opts.out_dir = None;
                    i += 1;
                }
                "--help" | "-h" => {
                    eprintln!(
                        "usage: [--scale 0.02|smoke] [--seed N] [--trials 1000] [--out results] [--no-out]\n\
                         \x20      [--telemetry off|summary|full] [--threads N]\n\
                         --threads 0 (or the UNCLEAN_THREADS env var) means one worker per core;\n\
                         results are identical at any thread count.\n\
                         run_all also takes: [--resume] [--retries N] [--deadline SECS] [--only id1,id2]"
                    );
                    std::process::exit(0);
                }
                other => {
                    extra.push(other.to_string());
                    i += 1;
                }
            }
        }
        Ok((opts, extra))
    }

    /// The scenario these options generate: `--scale` and `--seed`, built
    /// over `--threads` workers.
    pub fn scenario_config(&self) -> ScenarioConfig {
        let mut config = ScenarioConfig::at_scale(self.scale, self.seed);
        config.threads = self.threads;
        config
    }

    /// Parse process arguments; any argument `parse_known` doesn't
    /// recognize is a usage error (exit code 2 at the binary boundary).
    pub fn from_args() -> Result<BenchOpts, RunError> {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let (opts, extra) = BenchOpts::parse_known(&args)?;
        if let Some(unknown) = extra.first() {
            return Err(RunError::Usage(format!(
                "unknown argument {unknown}; try --help"
            )));
        }
        Ok(opts)
    }
}

/// A generated scenario plus the report inventory: what every experiment
/// consumes. Shared read-only between concurrently scheduled experiments;
/// per-attempt mutable state lives in each experiment's
/// [`ExperimentSlot`].
pub struct ExperimentContext {
    /// The options used.
    pub opts: BenchOpts,
    /// Resolved worker-thread count (≥ 1): `opts.threads` with 0 replaced
    /// by the available core count. Governs the detector sweeps, the
    /// trial ensembles, and the experiment scheduler alike.
    pub threads: usize,
    /// The scenario.
    pub scenario: Scenario,
    /// The Table 1 / Table 2 report inventory.
    pub reports: ReportSet,
    /// Run-level telemetry registry: scenario generation and the detector
    /// pipeline record here.
    pub registry: Registry,
    /// Snapshot of [`ExperimentContext::registry`] taken right after
    /// generation — the shared context each experiment's telemetry is
    /// merged with in the manifest.
    pub shared_context: Snapshot,
}

impl ExperimentContext {
    /// Generate a context (this runs the full pipeline; seconds to minutes
    /// depending on scale).
    pub fn generate(opts: BenchOpts) -> ExperimentContext {
        let threads = crossbeam::executor::resolve_threads(opts.threads);
        eprintln!(
            "[bench] generating scenario: scale {} seed {} threads {} …",
            opts.scale, opts.seed, threads
        );
        let registry = Registry::new(opts.telemetry);
        // Declare the quarantine counter up front so a clean run exports
        // an explicit zero rather than omitting the series.
        registry.counter("ingest.quarantined_lines");
        registry.gauge("bench.scale").set(opts.scale);
        registry.gauge("bench.trials").set(opts.trials as f64);
        let t0 = std::time::Instant::now();
        let scenario = Scenario::generate_recorded(opts.scenario_config(), &registry);
        eprintln!(
            "[bench] world: {} hosts / {} blocks ({:.1?}); running detectors …",
            scenario.world.population.total_hosts(),
            scenario.world.population.block_count(),
            t0.elapsed()
        );
        let reports = build_reports_with(&scenario, &self::pipeline_config(threads), &registry);
        eprintln!("[bench] pipeline complete ({:.1?})", t0.elapsed());
        let shared_context = registry.snapshot();
        ExperimentContext {
            opts,
            threads,
            scenario,
            reports,
            registry,
            shared_context,
        }
    }

    /// The paper pipeline configuration at this context's thread count.
    pub fn pipeline_config(&self) -> PipelineConfig {
        self::pipeline_config(self.threads)
    }
}

fn pipeline_config(threads: usize) -> PipelineConfig {
    let mut cfg = PipelineConfig::paper();
    cfg.threads = threads;
    cfg
}

/// Per-experiment mutable state: the current supervised attempt, its
/// telemetry registry, and the output files it has written. Each
/// concurrently scheduled experiment gets its own slot wrapping the
/// shared [`ExperimentContext`] (which it derefs to), so one experiment's
/// retries never perturb another's seed or telemetry.
pub struct ExperimentSlot {
    ctx: Arc<ExperimentContext>,
    /// Current supervised attempt (0 on the first try; retries bump it so
    /// [`ExperimentSlot::experiment_seed`] is perturbed).
    pub attempt: AtomicU64,
    /// Per-attempt registry, reset by [`ExperimentSlot::begin_attempt`]
    /// so a retried experiment doesn't double-count its aborted tries.
    attempt_registry: Mutex<Registry>,
    /// Output files written during the current attempt, with content
    /// hashes — drained into the manifest by the runner.
    written: Mutex<Vec<runner::OutputFile>>,
}

impl std::ops::Deref for ExperimentSlot {
    type Target = ExperimentContext;

    fn deref(&self) -> &ExperimentContext {
        &self.ctx
    }
}

impl ExperimentSlot {
    /// A fresh slot over the shared context.
    pub fn new(ctx: Arc<ExperimentContext>) -> ExperimentSlot {
        ExperimentSlot {
            attempt: AtomicU64::new(0),
            attempt_registry: Mutex::new(Registry::new(ctx.opts.telemetry)),
            written: Mutex::new(Vec::new()),
            ctx,
        }
    }

    /// Reset per-attempt state (the runner calls this before each try).
    pub fn begin_attempt(&self, attempt: u64) {
        self.attempt.store(attempt, Ordering::SeqCst);
        self.written.lock().expect("written lock").clear();
        *self.attempt_registry.lock().expect("registry lock") = Registry::new(self.opts.telemetry);
    }

    /// The registry experiments should record into: a cheap clone of the
    /// current attempt's registry (fresh per supervised attempt).
    pub fn attempt_registry(&self) -> Registry {
        self.attempt_registry.lock().expect("registry lock").clone()
    }

    /// Snapshot the current attempt's telemetry (the runner attaches this
    /// to the experiment's manifest record).
    pub fn take_attempt_snapshot(&self) -> Snapshot {
        self.attempt_registry
            .lock()
            .expect("registry lock")
            .snapshot()
    }

    /// The seed experiments should derive their local [`unclean_stats::SeedTree`]
    /// from. Equal to the scenario seed on the first attempt; retries
    /// perturb it (splitmix64 over seed ⊕ attempt) so a statistically
    /// unlucky draw isn't replayed verbatim — the *scenario* seed, and
    /// hence the shared generated world, is never changed.
    pub fn experiment_seed(&self) -> u64 {
        let attempt = self.attempt.load(Ordering::SeqCst);
        if attempt == 0 {
            return self.opts.seed;
        }
        let mut z = self
            .opts
            .seed
            .wrapping_add(attempt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Drain the output files recorded since `begin_attempt`.
    pub fn take_written(&self) -> Vec<runner::OutputFile> {
        std::mem::take(&mut *self.written.lock().expect("written lock"))
    }

    /// Persist one experiment's JSON result atomically (`NAME.json.tmp` →
    /// fsync → rename; no-op when `--no-out`), recording the file and its
    /// content hash for the run manifest.
    pub fn write_result<T: Serialize>(&self, name: &str, value: &T) -> Result<(), RunError> {
        let Some(dir) = &self.opts.out_dir else {
            return Ok(());
        };
        let file = format!("{name}.json");
        let path = dir.join(&file);
        let hash = runner::atomic_write_json(&path, value)?;
        self.written
            .lock()
            .expect("written lock")
            .push(runner::OutputFile { file, hash });
        eprintln!("[bench] wrote {}", path.display());
        Ok(())
    }
}

/// Fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}"))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Horizontal rule matching a table's widths.
pub fn rule(widths: &[usize]) -> String {
    widths
        .iter()
        .map(|w| "-".repeat(*w))
        .collect::<Vec<_>>()
        .join("--")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_opts() {
        let o = BenchOpts::default();
        assert!(o.scale > 0.0);
        assert_eq!(o.trials, 1000);
        assert!(o.out_dir.is_some());
    }

    #[test]
    fn scenario_config_carries_scale_seed_and_threads() {
        let args: Vec<String> = ["--scale", "smoke", "--seed", "9", "--threads", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (opts, extra) = BenchOpts::parse_known(&args).expect("parses");
        assert!(extra.is_empty());
        let config = opts.scenario_config();
        assert_eq!(config.scale, SMOKE_SCALE);
        assert_eq!(config.seed, 9);
        assert_eq!(config.threads, 3);
    }

    #[test]
    fn table_helpers() {
        assert_eq!(row(&["7".into()], &[3]), "  7");
        assert_eq!(rule(&[3, 2]).len(), 7);
    }
}
