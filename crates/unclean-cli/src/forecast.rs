//! The `unclean forecast` subcommands: train the per-/16 attack-rate
//! forecaster from a v2 indexed flow archive, score it against the
//! persistence baseline, publish the artifact the serving daemon hot
//! reloads, and run remediation what-ifs.
//!
//! `fit` records [`TraceKind::ForecastFit`] / [`TraceKind::ForecastPublish`]
//! events and `forecast.*` counters into a full registry; `--telemetry`
//! exports the snapshot so CI can run
//! `unclean metrics --assert-zero forecast.fit.errors,forecast.publish.errors`
//! over it.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crossbeam::executor::Executor;
use unclean_core::publish_atomic;
use unclean_forecast::{
    evaluate, DailySeries, ForecastArtifact, ForecastConfig, ForecastModel, SimulateConfig,
};
use unclean_telemetry::{Registry, TraceEvent, TraceKind};

fn unix_ms_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Shared model tunables for `fit` and `eval`.
#[derive(Debug, Clone)]
pub struct ModelOpts {
    pub horizon: u32,
    pub level_half_life: f64,
    pub trend_half_life: f64,
    pub neighbor_weight: f64,
    pub threads: usize,
}

impl ModelOpts {
    fn config(&self) -> ForecastConfig {
        ForecastConfig {
            horizon_days: self.horizon.clamp(1, 365),
            level_half_life: self.level_half_life,
            trend_half_life: self.trend_half_life,
            neighbor_weight: self.neighbor_weight,
            ..ForecastConfig::default()
        }
    }
}

/// `unclean forecast fit --archive <spool.flows> --out <forecast.txt>`.
#[derive(Debug, Clone)]
pub struct FitOpts {
    pub archive: PathBuf,
    pub out: PathBuf,
    pub model: ModelOpts,
    pub generation: u64,
    pub name: String,
    pub telemetry: Option<PathBuf>,
}

/// Read a v2 indexed archive into the per-/16 daily report series.
fn load_series(archive: &Path) -> Result<DailySeries, String> {
    let data =
        std::fs::read(archive).map_err(|e| format!("cannot read {}: {e}", archive.display()))?;
    DailySeries::from_archive(&data, None)
        .map(|(series, _)| series)
        .map_err(|e| format!("{}: {e}", archive.display()))
}

/// Fit the forecaster on an archive and atomically publish the artifact.
pub fn fit(opts: &FitOpts) -> Result<String, String> {
    let registry = Registry::full();
    let ring = registry.install_trace(4096);
    let fits = registry.counter("forecast.fit.count");
    let fit_errors = registry.counter("forecast.fit.errors");
    let publishes = registry.counter("forecast.publish.count");
    let publish_errors = registry.counter("forecast.publish.errors");

    let t_fit = Instant::now();
    let series = load_series(&opts.archive).inspect_err(|_| fit_errors.inc())?;
    let config = opts.model.config();
    let pool = Executor::new(opts.model.threads);
    let model = ForecastModel::fit(&series, &config, &pool);
    fits.inc();
    if let Some(ring) = &ring {
        ring.record(
            TraceEvent::now(TraceKind::ForecastFit)
                .generation(opts.generation)
                .dur_ns(elapsed_ns(t_fit))
                .field("networks", series.networks().len() as u64)
                .field("days", series.days() as u64)
                .field("archive", opts.archive.display().to_string()),
        );
    }

    let t_publish = Instant::now();
    let mut artifact = ForecastArtifact::from_model(&model, &opts.name);
    artifact.generation = Some(opts.generation);
    artifact.published_unix_ms = Some(unix_ms_now());
    let text = artifact.render();
    publish_atomic(&opts.out, |f| f.write_all(text.as_bytes())).map_err(|e| {
        publish_errors.inc();
        format!("cannot publish: {e}")
    })?;
    publishes.inc();
    if let Some(ring) = &ring {
        ring.record(
            TraceEvent::now(TraceKind::ForecastPublish)
                .generation(opts.generation)
                .dur_ns(elapsed_ns(t_publish))
                .field("bytes", text.len() as u64)
                .field("out", opts.out.display().to_string()),
        );
    }
    if let Some(path) = &opts.telemetry {
        let json = serde_json::to_string(&registry.snapshot())
            .map_err(|e| format!("telemetry serialize: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "fit {} networks over {} day(s) from {}",
        series.networks().len(),
        series.days(),
        opts.archive.display()
    );
    let top = {
        let mut ranked: Vec<_> = model.forecasts.iter().collect();
        ranked.sort_by(|a, b| {
            b.rate_at(config.horizon_days)
                .partial_cmp(&a.rate_at(config.horizon_days))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        ranked
    };
    let _ = writeln!(
        out,
        "{:<16} {:>10} {:>10} {:>12}",
        "network", "level", "trend", "half-life(d)"
    );
    for f in top.iter().take(8) {
        let _ = writeln!(
            out,
            "{:<16} {:>10.2} {:>10.3} {:>12.1}",
            format!("{}.{}.0.0/16", f.network >> 8, f.network & 0xFF),
            f.level,
            f.trend,
            f.score_half_life
        );
    }
    let _ = writeln!(
        out,
        "published generation {} ({} bytes, horizon {} days) to {}",
        opts.generation,
        text.len(),
        config.horizon_days,
        opts.out.display()
    );
    Ok(out)
}

/// `unclean forecast eval --archive <spool.flows> [--train-days N]`:
/// held-out scoring against the persistence baseline. `train_days == 0`
/// auto-splits at `days - horizon`.
pub fn eval(
    archive: &Path,
    train_days: usize,
    model: &ModelOpts,
    assert_beats_persistence: bool,
) -> Result<String, String> {
    let series = load_series(archive)?;
    let config = model.config();
    let train = if train_days == 0 {
        series.days().saturating_sub(config.horizon_days as usize)
    } else {
        train_days
    };
    let pool = Executor::new(model.threads);
    let report = evaluate(&series, train, &config, &pool)
        .map_err(|e| format!("{}: {e}", archive.display()))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "held-out eval: {} networks, {} train day(s), horizon {} day(s)",
        report.networks, report.train_days, report.horizon_days
    );
    let _ = writeln!(out, "{:<14} {:>12} {:>12}", "", "model", "persistence");
    let _ = writeln!(
        out,
        "{:<14} {:>12.4} {:>12.4}",
        "brier", report.model_brier, report.persistence_brier
    );
    let _ = writeln!(
        out,
        "{:<14} {:>12.4} {:>12.4}",
        "rate MAE", report.model_mae, report.persistence_mae
    );
    let _ = writeln!(
        out,
        "brier skill vs persistence: {:+.1}% ({})",
        report.brier_skill() * 100.0,
        if report.beats_persistence() {
            "model wins"
        } else {
            "persistence wins"
        }
    );
    if assert_beats_persistence && !report.beats_persistence() {
        return Err(format!(
            "--assert-beats-persistence failed: model brier {} >= persistence {}",
            report.model_brier, report.persistence_brier
        ));
    }
    Ok(out)
}

/// `unclean forecast simulate`: the remediation what-if.
pub fn simulate(config: &SimulateConfig) -> Result<String, String> {
    let report = unclean_forecast::simulate::run(config);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "remediation what-if: {} day(s) at scale {}, campaign on day {} \
         ({} worst /16s, compliance {})",
        config.days, config.scale, config.remediate_day, config.targets, config.compliance
    );
    let o = &report.outcome;
    let _ = writeln!(
        out,
        "campaign: {} notified, {} complied; {} infections cleaned, \
         {} averted, {} shortened; mean hygiene {:.3} -> {:.3}",
        o.notified,
        o.complied,
        o.cleaned,
        o.averted,
        o.shortened,
        o.mean_hygiene_before(),
        o.mean_hygiene_after()
    );
    let _ = writeln!(
        out,
        "{:>10} {:>16} {:>16} {:>14} {:>14}",
        "day", "baseline blocks", "treated blocks", "baseline fp", "treated fp"
    );
    for p in &report.periods {
        let _ = writeln!(
            out,
            "{:>10} {:>16} {:>16} {:>14.1} {:>14.1}",
            p.start_day, p.baseline_blocks, p.treated_blocks, p.baseline_fp_cost, p.treated_fp_cost
        );
    }
    let _ = writeln!(
        out,
        "final-period blocklist decay: {:.3}  fp-cost decay: {:.3}",
        report.blocklist_decay, report.fp_cost_decay
    );
    match report.score_half_life_days {
        Some(d) => {
            let _ = writeln!(out, "targeted networks' score half-life: {d} day(s)");
        }
        None => {
            let _ = writeln!(
                out,
                "targeted networks' scores never halved within the span"
            );
        }
    }
    Ok(out)
}

/// `unclean forecast synth --out <spool.flows>`: write a small synthetic
/// v2 indexed archive (hostile border flows by default) so `fit`/`eval`
/// and the CI smoke job have a self-contained input.
#[derive(Debug, Clone)]
pub struct SynthOpts {
    pub out: PathBuf,
    pub scale: f64,
    pub seed: u64,
    pub days: u32,
    pub benign: bool,
}

pub fn synth(opts: &SynthOpts) -> Result<String, String> {
    use unclean_flowgen::record::{EPOCH_UNIX_SECS, V5_HORIZON_SECS};
    use unclean_flowgen::{FlowGenerator, GeneratorConfig, IndexedArchiveWriter};
    use unclean_netmodel::{Scenario, ScenarioConfig, ScenarioDates};

    // The archive's V5 records carry each flow's start as 32-bit uptime
    // milliseconds since the boot anchor: only whole days that end within
    // that horizon round-trip.
    let boot = EPOCH_UNIX_SECS;
    let start = ScenarioDates::paper().full_span.start;
    let horizon_end = i64::from(boot) - i64::from(EPOCH_UNIX_SECS) + V5_HORIZON_SECS + 1;
    let max_days = horizon_end.div_euclid(86_400) - i64::from(start.0);
    if i64::from(opts.days) > max_days {
        return Err(format!(
            "--days {} passes the V5 uptime horizon: at most {max_days} whole days from {start} \
             start within 2^32 ms of the exporter boot anchor",
            opts.days
        ));
    }
    let scenario = Scenario::generate(ScenarioConfig::at_scale(opts.scale, opts.seed));
    let model = scenario.activity();
    let generator = FlowGenerator::new(
        &scenario.observed,
        GeneratorConfig::default(),
        scenario.seeds.child("flowgen"),
    );
    let mut writer = IndexedArchiveWriter::new(Vec::new(), boot);
    let mut flows = 0u64;
    let mut write_error = None;
    for i in 0..opts.days.max(1) {
        let day = unclean_core::Day(start.0 + i as i32);
        generator.flows_on(&model, day, opts.benign, |flow| {
            flows += 1;
            if write_error.is_none() {
                if let Err(e) = writer.push(&flow) {
                    write_error = Some(e.to_string());
                }
            }
        });
    }
    if let Some(e) = write_error {
        return Err(format!("archive write: {e}"));
    }
    let (bytes, index) = writer
        .finish()
        .map_err(|e| format!("archive finish: {e}"))?;
    publish_atomic(&opts.out, |f| f.write_all(&bytes)).map_err(|e| format!("cannot write {e}"))?;
    Ok(format!(
        "synthesized {} flows across {} day segment(s) ({} bytes) to {}\n",
        flows,
        index.segments.len(),
        bytes.len(),
        opts.out.display()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("unclean-cli-forecast").join(name);
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir
    }

    fn model_opts() -> ModelOpts {
        ModelOpts {
            horizon: 7,
            level_half_life: 7.0,
            trend_half_life: 14.0,
            neighbor_weight: 0.15,
            threads: 1,
        }
    }

    #[test]
    fn synth_fit_eval_round_trip() {
        let dir = tmp_dir("round-trip");
        let spool = dir.join("spool.flows");
        let out = synth(&SynthOpts {
            out: spool.clone(),
            scale: 0.002,
            seed: 11,
            days: 40,
            benign: false,
        })
        .expect("synth");
        assert!(out.contains("day segment(s)"), "{out}");

        let artifact_path = dir.join("forecast.txt");
        let telemetry_path = dir.join("telemetry.json");
        let out = fit(&FitOpts {
            archive: spool.clone(),
            out: artifact_path.clone(),
            model: model_opts(),
            generation: 5,
            name: "test-forecast".to_string(),
            telemetry: Some(telemetry_path.clone()),
        })
        .expect("fit");
        assert!(out.contains("published generation 5"), "{out}");

        // The artifact parses back, carries the generation stamp, and the
        // telemetry export counts one clean fit + publish.
        let text = std::fs::read_to_string(&artifact_path).expect("artifact");
        let artifact = ForecastArtifact::parse(&text).expect("parses");
        assert_eq!(artifact.generation, Some(5));
        assert!(!artifact.entries.is_empty());
        let snap: unclean_telemetry::Snapshot =
            serde_json::from_str(&std::fs::read_to_string(&telemetry_path).expect("telemetry"))
                .expect("snapshot json");
        assert_eq!(snap.counters.get("forecast.fit.count"), Some(&1));
        assert_eq!(snap.counters.get("forecast.publish.count"), Some(&1));
        assert_eq!(snap.counters.get("forecast.fit.errors"), Some(&0));

        let out = eval(&spool, 0, &model_opts(), false).expect("eval");
        assert!(out.contains("brier skill vs persistence"), "{out}");

        // A missing archive is an error on both paths, and counted.
        let missing = dir.join("absent.flows");
        assert!(eval(&missing, 0, &model_opts(), false).is_err());
        assert!(fit(&FitOpts {
            archive: missing,
            out: artifact_path,
            model: model_opts(),
            generation: 6,
            name: "x".to_string(),
            telemetry: None,
        })
        .is_err());
    }

    #[test]
    fn simulate_smoke_prints_decay() {
        let out = simulate(&SimulateConfig {
            scale: 0.01,
            days: 120,
            remediate_day: 60,
            compliance: 1.0,
            threads: 1,
            ..SimulateConfig::default()
        })
        .expect("simulate");
        assert!(out.contains("blocklist decay"), "{out}");
        assert!(out.contains("complied"), "{out}");
    }
}
