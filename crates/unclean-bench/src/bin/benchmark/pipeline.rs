//! `pipeline`: the offline job, `run_all --scale 0.01 --trials 1000
//! --threads 2`, as a child process per world. One world's cost depends
//! on its seed (world size differs by tens of percent between seeds), so
//! a run regenerates [`WORLDS`] worlds from seeds derived from `--seed`
//! and reports medians over them. Most of the time goes to scenario
//! generation, the detector sweep and the trial ensembles; serve and the
//! trie are idle. Its length is set by that work, not by `--seconds`.
//!
//! Every world's written JSON is checked for the paper's shapes (DESIGN.md
//! §5, as `tests/{spatial,temporal,blocking}.rs` assert them at one seed).
//! Across seeds some shapes fail in a few small worlds (Eq. 3 for one class
//! in about one world in twenty at this scale), so thresholds are relaxed
//! to what held in 40 worlds and a shape passes when it holds in a
//! majority of the run's worlds; a broken pipeline fails it in all of
//! them. The checked-in `results/` are not compared against: they differ
//! from a fresh run at the canonical scale.
//!
//! The traced run replays the first world in-process, one layer and one
//! experiment at a time, with its peak memory reset before each stage.

use crate::stats::{median, percentile, sorted};
use crate::sys;
use crate::trace::Tracer;
use crate::{Ctx, Outcome};
use serde_json::Value;
use std::io::BufRead;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;
use unclean_bench::{experiments, BenchOpts, ExperimentContext, ExperimentSlot, TelemetryLevel};
use unclean_detect::{build_reports_with, PipelineConfig};
use unclean_flowgen::FlowGenerator;
use unclean_netmodel::{Scenario, ScenarioConfig};
use unclean_stats::SeedTree;
use unclean_telemetry::Registry;

/// Scenario scale (the canonical results' scale).
const SCALE: f64 = 0.01;
/// Control-ensemble trials (the paper's).
const TRIALS: usize = 1_000;
/// Worker threads, one per core of the reference box.
const THREADS: usize = 2;
/// Worlds per run.
const WORLDS: u64 = 5;

/// World `w`'s seed: `seed` itself first, then derived ones.
fn world_seed(seed: u64, w: u64) -> u64 {
    match w {
        0 => seed,
        _ => SeedTree::new(seed).child_idx(w).raw() >> 1,
    }
}

/// What one `run_all` child did.
struct World {
    wall_s: f64,
    /// Seconds from spawn until each experiment's result was written.
    result_s: Vec<f64>,
    cpu_s: f64,
    peak_rss_mb: f64,
    scenario_s: f64,
    failed_experiments: u64,
}

fn read_json(dir: &Path, name: &str) -> Result<Value, String> {
    let path = dir.join(name);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{} is not JSON: {e}", path.display()))
}

fn field<'a>(v: &'a Value, path: &[&str]) -> Result<&'a Value, String> {
    path.iter()
        .try_fold(v, |v, key| v.get(key))
        .ok_or_else(|| format!("missing {}", path.join(".")))
}

fn num(v: &Value, path: &[&str]) -> Result<f64, String> {
    field(v, path)?
        .as_f64()
        .ok_or_else(|| format!("{} is not a number", path.join(".")))
}

fn flag(v: &Value, path: &[&str]) -> Result<bool, String> {
    field(v, path)?
        .as_bool()
        .ok_or_else(|| format!("{} is not a boolean", path.join(".")))
}

fn list<'a>(v: &'a Value, path: &[&str]) -> Result<&'a Vec<Value>, String> {
    field(v, path)?
        .as_array()
        .ok_or_else(|| format!("{} is not a list", path.join(".")))
}

fn require(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Run one world through `run_all` into `dir`.
fn run_world(ctx: &Ctx, seed: u64, dir: &Path) -> Result<World, String> {
    let cpu0 = sys::waited_children_cpu_secs().unwrap_or(0.0);
    let t0 = Instant::now();
    let mut child = Command::new(&ctx.bins.run_all)
        .args([
            "--scale",
            &SCALE.to_string(),
            "--trials",
            &TRIALS.to_string(),
        ])
        .args([
            "--threads",
            &THREADS.to_string(),
            "--seed",
            &seed.to_string(),
        ])
        .arg("--out")
        .arg(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start run_all: {e}"))?;
    let stderr = child.stderr.take().expect("stderr is piped");
    let (result_s, tail) = std::thread::scope(|s| {
        s.spawn(|| {
            let mut times = Vec::new();
            let mut tail = Vec::new();
            for line in std::io::BufReader::new(stderr)
                .lines()
                .map_while(Result::ok)
            {
                if line.contains(" finished in ") {
                    times.push(t0.elapsed().as_secs_f64());
                }
                tail.push(line);
            }
            (times, tail)
        })
        .join()
        .expect("stderr reader")
    });
    let status = child.wait().map_err(|e| format!("run_all: {e}"))?;
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = sys::waited_children_cpu_secs().unwrap_or(0.0) - cpu0;
    if !status.success() && status.code() != Some(3) {
        let tail = tail[tail.len().saturating_sub(20)..].join("\n");
        return Err(format!("run_all --seed {seed} failed ({status}):\n{tail}"));
    }
    let manifest = read_json(dir, "manifest.json")?;
    let runs = list(&manifest, &["runs"])?;
    let failed_experiments = runs
        .iter()
        .filter(|r| r.get("status").and_then(Value::as_str) != Some("Ok"))
        .count() as u64;
    let peak_kb = runs
        .iter()
        .filter_map(|r| r.get("peak_rss_kb").and_then(Value::as_f64))
        .fold(0.0, f64::max);
    let telemetry = read_json(dir, "telemetry.json")?;
    Ok(World {
        wall_s,
        result_s,
        cpu_s,
        peak_rss_mb: peak_kb / 1024.0,
        scenario_s: num(&telemetry, &["spans", "scenario", "total_secs"])?,
        failed_experiments,
    })
}

/// The paper's shapes on one world's written results, by check name.
fn shape_checks(dir: &Path) -> Vec<(&'static str, Result<(), String>)> {
    let fig2 = || -> Result<(), String> {
        let v = read_json(dir, "fig2.json")?;
        let naive = num(&v, &["naive_over_empirical_at_24"])?;
        let empirical = num(&v, &["empirical_over_bot_at_24"])?;
        require(naive > 1.0 && empirical > 1.0, || {
            format!("want naive > empirical > bot blocks at /24: ratios {naive}, {empirical}")
        })
    };
    let fig3 = || -> Result<(), String> {
        let v = read_json(dir, "fig3.json")?;
        for panel in list(&v, &["panels"])? {
            let tag = field(panel, &["tag"])?.as_str().unwrap_or("?");
            require(flag(panel, &["holds"])?, || {
                format!("Eq. 3 fails for {tag}")
            })?;
        }
        Ok(())
    };
    let fig4 = || -> Result<(), String> {
        let v = read_json(dir, "fig4.json")?;
        for panel in list(&v, &["panels"])? {
            let name = field(panel, &["name"])?.as_str().unwrap_or("?");
            let holds = flag(panel, &["holds"])?;
            require(holds == (name != "phishing"), || {
                format!("bot-test predicts {name}: {holds}")
            })?;
            if name == "bots" {
                let band = list(panel, &["predictive_band"])?;
                let edge = |i: usize| band.get(i).and_then(Value::as_f64).unwrap_or(f64::NAN);
                require(edge(0) <= 24.0 && 24.0 <= edge(1), || {
                    format!("/24 outside the bot band {band:?}")
                })?;
            }
        }
        Ok(())
    };
    let fig5 = || -> Result<(), String> {
        let v = read_json(dir, "fig5.json")?;
        require(flag(&v, &["holds"])?, || {
            "phish-test does not predict".into()
        })
    };
    let table2 = || -> Result<(), String> {
        let v = read_json(dir, "table2.json")?;
        let [candidate, hostile, unknown, innocent] =
            ["candidate", "hostile", "unknown", "innocent"].map(|k| num(&v, &[k]));
        let (candidate, hostile, unknown, innocent) = (candidate?, hostile?, unknown?, innocent?);
        require(hostile + unknown + innocent == candidate, || {
            format!("partition {hostile}+{unknown}+{innocent} != {candidate}")
        })?;
        require(hostile > 2.0 * innocent && unknown > innocent, || {
            format!("want hostile {hostile} >> innocent {innocent} < unknown {unknown}")
        })
    };
    let table3 = || -> Result<(), String> {
        let v = read_json(dir, "table3.json")?;
        let p24 = num(&v, &["precision_at_24"])?;
        let p24u = num(&v, &["precision_at_24_unknown_hostile"])?;
        require(p24 > 0.70 && p24u > 0.80, || {
            format!("precision at /24 {p24} (unknowns hostile: {p24u})")
        })?;
        let rows = list(&v, &["rows"])?;
        let row = |n: f64, key: &str| -> Result<f64, String> {
            let r = rows
                .iter()
                .find(|r| r.get("n").and_then(Value::as_f64) == Some(n))
                .ok_or_else(|| format!("no row n={n}"))?;
            num(r, &[key])
        };
        for n in 24..32 {
            for key in ["pop", "tp", "unknown"] {
                let (a, b) = (row(f64::from(n), key)?, row(f64::from(n + 1), key)?);
                require(a >= b, || format!("{key} grows from n={n} to {}", n + 1))?;
            }
        }
        let (fp24, fp28) = (row(24.0, "fp")?.max(1.0), row(28.0, "fp")?);
        require(fp28 * 4.0 <= fp24, || {
            format!("fp {fp24} at /24 vs {fp28} at /28")
        })?;
        let p26 = row(26.0, "precision")?;
        require(p26 >= 0.9 * p24, || {
            format!("precision {p24} at /24 falls to {p26}")
        })?;
        let auc = num(&v, &["auc"])?;
        require(auc > 0.40, || format!("AUC {auc}"))
    };
    vec![
        ("fig2_naive_over_empirical", fig2()),
        ("fig3_eq3_all_classes", fig3()),
        ("fig4_bot_test_predicts", fig4()),
        ("fig5_phish_test_predicts", fig5()),
        ("table2_partition", table2()),
        ("table3_blocking", table3()),
    ]
}

/// Run the pipeline workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut worlds = Vec::new();
    let mut shapes: Vec<(&'static str, Vec<String>)> = Vec::new();
    for w in 0..WORLDS {
        let seed = world_seed(ctx.seed, w);
        let dir = ctx.work.join(format!("world{w}"));
        let world = run_world(ctx, seed, &dir)?;
        for (i, (name, result)) in shape_checks(&dir).into_iter().enumerate() {
            if shapes.len() <= i {
                shapes.push((name, Vec::new()));
            }
            if let Err(e) = result {
                shapes[i].1.push(format!("seed {seed}: {e}"));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        worlds.push(world);
    }
    for (name, failures) in shapes {
        let held = WORLDS as usize - failures.len();
        out.check(
            name,
            match 2 * held > WORLDS as usize {
                true => Ok(format!("holds in {held} of {WORLDS} worlds {failures:?}")),
                false => Err(failures.join("; ")),
            },
        );
    }
    let results: u64 = worlds.iter().map(|w| w.result_s.len() as u64).sum();
    let each = |f: &dyn Fn(&World) -> f64| worlds.iter().map(f).collect::<Vec<f64>>();
    let median_of = |f: &dyn Fn(&World) -> f64| median(&each(f)).unwrap_or(f64::NAN);
    let result_at =
        |w: &World, p: f64| 1e3 * percentile(&sorted(w.result_s.clone()), p).unwrap_or(f64::NAN);
    out.e2e.insert("setup_s", median_of(&|w| w.scenario_s));
    out.e2e.insert(
        "throughput_per_s",
        median_of(&|w| w.result_s.len() as f64 / w.wall_s),
    );
    out.e2e
        .insert("latency_p50_ms", median_of(&|w| result_at(w, 50.0)));
    out.e2e
        .insert("latency_p75_ms", median_of(&|w| result_at(w, 75.0)));
    out.e2e.insert(
        "cpu_us_per_item",
        median_of(&|w| 1e6 * w.cpu_s / w.result_s.len().max(1) as f64),
    );
    out.e2e.insert("peak_rss_mb", median_of(&|w| w.peak_rss_mb));
    out.attempted = WORLDS * experiments::all().len() as u64;
    out.failed = worlds.iter().map(|w| w.failed_experiments).sum();
    out.check(
        "experiments_ok",
        match out.failed {
            0 => Ok(format!("{results} results from {WORLDS} worlds")),
            n => Err(format!("{n} experiments did not finish Ok")),
        },
    );
    out.notes.push(format!(
        "world wall times {:?} s (median {:.3} s)",
        each(&|w| (w.wall_s * 1e3).round() / 1e3),
        median_of(&|w| w.wall_s)
    ));
    if let Some(tracer) = ctx.tracer {
        let traced_s = sys::stdout_to_stderr(|| traced_world(ctx, tracer, &mut out))?;
        out.notes.push(format!(
            "traced in-process world {} took {traced_s:.3} s vs {:.3} s untraced under run_all; \
             the difference includes the experiments' lost overlap (run one at a time here)",
            ctx.seed, worlds[0].wall_s
        ));
    }
    Ok(out)
}

/// Time one stage in a span with its own peak memory; returns the value,
/// seconds, peak MB and RSS delta MB.
fn stage<T>(
    tracer: &Tracer,
    name: &str,
    layer: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64, f64, f64) {
    sys::reset_peak_rss();
    let before = sys::self_rss_kb().unwrap_or(0) as f64;
    let (value, took) = tracer.span(name, layer, None, |_| f());
    let peak = unclean_bench::peak_rss_kb().unwrap_or(0) as f64 / 1024.0;
    let delta = (sys::self_rss_kb().unwrap_or(0) as f64 - before) / 1024.0;
    (value, took.as_secs_f64(), peak, delta)
}

/// The first world in-process: generation, flow expansion alone, the
/// detector pipeline, then each experiment on its own. Returns the
/// traced wall time.
fn traced_world(ctx: &Ctx, tracer: &Tracer, out: &mut Outcome) -> Result<f64, String> {
    let registry = Registry::new(TelemetryLevel::Summary);
    let mut config = ScenarioConfig::at_scale(SCALE, ctx.seed);
    config.threads = THREADS;
    let (scenario, generate_s, generate_peak, generate_delta) =
        stage(tracer, "generate", "netmodel", || {
            Scenario::generate_recorded(config, &registry)
        });
    out.layer("netmodel.generate_s", generate_s);
    out.layer("netmodel.peak_rss_mb", generate_peak);
    out.rss_delta("netmodel.generate", generate_delta);

    let mut cfg = PipelineConfig::paper();
    cfg.threads = THREADS;
    let ((flows, _), expand_s, _, _) = stage(tracer, "expand", "flowgen", || {
        let generator = FlowGenerator::new(
            &scenario.observed,
            cfg.generator.clone(),
            scenario.seeds.child("flowgen"),
        );
        let model = scenario.activity();
        let days: Vec<_> = scenario.dates.unclean_window.days().collect();
        let counts = crossbeam::executor::Executor::new(THREADS).run_indexed(days.len(), |i| {
            let mut n = 0u64;
            generator.flows_on(&model, days[i], cfg.detect_over_benign, |_| n += 1);
            n
        });
        (counts.iter().sum::<u64>(), ())
    });
    out.layer("flowgen.expand_s", expand_s);
    out.layer("flowgen.flows", flows as f64);

    let (reports, build_s, build_peak, build_delta) =
        stage(tracer, "build_reports", "detect", || {
            build_reports_with(&scenario, &cfg, &registry)
        });
    out.layer("detect.build_reports_s", build_s);
    out.layer("detect.build_reports_peak_rss_mb", build_peak);
    out.layer("detect.sweep_self_s", build_s - expand_s);
    out.rss_delta("detect.build_reports", build_delta);

    let dir = ctx.work.join("traced");
    let shared_context = registry.snapshot();
    let context = Arc::new(ExperimentContext {
        opts: BenchOpts {
            scale: SCALE,
            seed: ctx.seed,
            trials: TRIALS,
            out_dir: Some(dir.clone()),
            telemetry: TelemetryLevel::Summary,
            threads: THREADS,
        },
        threads: THREADS,
        scenario,
        reports,
        registry,
        shared_context,
    });
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut total = generate_s + build_s;
    for (id, _, run) in experiments::all() {
        let slot = ExperimentSlot::new(Arc::clone(&context));
        slot.begin_attempt(0);
        let (result, secs, peak, delta) = stage(tracer, id, "experiment", || run(&slot));
        if let Err(e) = result {
            out.check(&format!("traced_{id}"), Err::<&str, _>(e));
        }
        total += secs;
        out.layer(format!("experiment.{id}_s"), secs);
        out.layer(format!("experiment.{id}_peak_rss_mb"), peak);
        out.rss_delta(&format!("experiment.{id}"), delta);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_seeds_start_at_the_run_seed_and_differ() {
        assert_eq!(world_seed(20061001, 0), 20061001);
        let seeds: std::collections::HashSet<u64> =
            (0..WORLDS).map(|w| world_seed(20061001, w)).collect();
        assert_eq!(seeds.len(), WORLDS as usize);
        assert_eq!(world_seed(7, 2), world_seed(7, 2));
    }
}
