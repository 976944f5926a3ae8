//! `benchmark` — the one benchmark for the three pipelines users run: the
//! offline `run_all` job, the serving daemon, and the live
//! ingest → rescore → publish → reload loop. See README.md beside this
//! file for the workloads, the metrics and how to read the trace.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out DIR]
//! benchmark compare <parent-dirs…> -- <change-dirs…>
//! ```
//!
//! Run from the repository root (where `BENCHMARK.json` is). Without
//! `--workload` every workload runs in turn. Each prints its metrics as
//! `workload metric value unit` lines and its `check.*` lines, then one
//! JSON line `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics, or with `--trace 1` the per-layer ones from a traced
//! run. Results are merged into `<out>/results.json` (default
//! `<target-dir>/benchmark`); a traced run also writes `trace.json`
//! (Chrome/Perfetto) and `layers.json` there. Exit code: 0 when every
//! check passes, 1 when one fails, 2 on a usage or set-up error (no
//! result printed).

mod compare;
mod http;
mod live;
mod pipeline;
mod serve;
mod spec;
mod stats;
mod sys;
mod trace;

use serde_json::{json, Map, Value};
use spec::Spec;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use sys::{Bins, Placement};
use trace::Tracer;

/// Everything a workload run needs.
pub struct Ctx<'a> {
    /// The release binaries under test.
    pub bins: &'a Bins,
    /// Working directory, removed after the workload.
    pub work: PathBuf,
    /// Input seed.
    pub seed: u64,
    /// Seconds the run measures.
    pub seconds: f64,
    /// CPU placement of daemons and load.
    pub place: Placement,
    /// Span recorder; `Some` for a traced run.
    pub tracer: Option<&'a Tracer>,
}

/// What a workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (reported by traced runs).
    pub layers: BTreeMap<String, f64>,
    /// Resident-set change per traced stage, MB.
    pub rss_delta_mb: BTreeMap<String, f64>,
    /// Correctness checks: name, passed, detail.
    pub checks: Vec<(String, bool, String)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Context lines for stderr.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a check from its result.
    pub fn check<T: Display, E: Display>(&mut self, name: &str, result: Result<T, E>) {
        let (ok, detail) = match result {
            Ok(detail) => (true, detail.to_string()),
            Err(detail) => (false, detail.to_string()),
        };
        self.checks.push((name.to_string(), ok, detail));
    }

    /// Record a per-layer metric.
    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.insert(name.into(), value);
    }

    /// Record a traced stage's resident-set change.
    pub fn rss_delta(&mut self, stage: &str, mb: f64) {
        self.rss_delta_mb.insert(stage.to_string(), mb);
    }
}

/// Parsed command line of a run.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 20061001,
        seconds: None,
        trace: false,
        out: None,
    };
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| {
            argv.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "--workload" => args.workload = Some(value(i)?.clone()),
            "--seed" => args.seed = value(i)?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                let s: f64 = value(i)?.parse().map_err(|_| "--seconds takes a number")?;
                if !s.is_finite() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(s);
            }
            "--out" => args.out = Some(PathBuf::from(value(i)?)),
            "--trace" => {
                args.trace = true;
                match argv.get(i + 1).map(String::as_str) {
                    Some("1") => {}
                    Some("0") => args.trace = false,
                    _ => {
                        i += 1;
                        continue;
                    }
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let root = match std::env::current_dir() {
        Ok(dir) => dir,
        Err(e) => return fail(format!("no working directory: {e}")),
    };
    let spec = match Spec::load(&root) {
        Ok(spec) => spec,
        Err(e) => return fail(e),
    };
    if argv.first().map(String::as_str) == Some("compare") {
        let rest = &argv[1..];
        let split = rest.iter().position(|a| a == "--").unwrap_or(rest.len());
        let change = rest.get(split + 1..).unwrap_or_default();
        return match compare::run(&spec, &rest[..split], change) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => fail(e),
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => return fail(e),
    };
    match run(&root, &spec, &args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => fail(e),
    }
}

fn fail(message: String) -> ExitCode {
    eprintln!("benchmark: {message}");
    ExitCode::from(2)
}

/// Run the selected workloads; returns whether every check passed.
fn run(root: &Path, spec: &Spec, args: &Args) -> Result<bool, String> {
    let workloads = match &args.workload {
        Some(w) if spec.workloads.contains(w) => vec![w.clone()],
        Some(w) => {
            return Err(format!(
                "unknown workload {w:?}; BENCHMARK.json has {:?}",
                spec.workloads
            ))
        }
        None => spec.workloads.clone(),
    };
    let seconds = args.seconds.unwrap_or(spec.run_seconds as f64);
    let bins = sys::build_binaries(root)?;
    let place = Placement::detect();
    let commit = sys::git_commit(root);
    let out_dir = args.out.clone().unwrap_or_else(|| {
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| root.join("target"), |d| root.join(d));
        target.join("benchmark")
    });
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let tracer = args.trace.then(Tracer::new);
    let mut all_ok = true;
    for workload in &workloads {
        let work = out_dir.join(format!("work-{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        let ctx = Ctx {
            bins: &bins,
            work: work.clone(),
            seed: args.seed,
            seconds,
            place,
            tracer: tracer.as_ref(),
        };
        eprintln!(
            "[benchmark] {workload}: seed {} for {seconds} s on {} cores (daemons on cpu {:?}, load on cpu {:?}){}",
            args.seed,
            place.cores,
            place.daemon_cpu,
            place.load_cpu,
            if args.trace { ", traced" } else { "" }
        );
        let first_span = tracer.as_ref().map_or(0, Tracer::next_id);
        let outcome = match workload.as_str() {
            "pipeline" => pipeline::run(&ctx),
            "serve_point" => serve::run(&ctx, &serve::POINT),
            "serve_batch" => serve::run(&ctx, &serve::BATCH),
            "live" => live::run(&ctx),
            other => Err(format!(
                "BENCHMARK.json names {other:?}, which this binary does not run"
            )),
        };
        let _ = std::fs::remove_dir_all(&work);
        let outcome = outcome?;
        let report = Report {
            spec,
            workload,
            seed: args.seed,
            seconds,
            commit: &commit,
            cores: place.cores,
        };
        all_ok &= report.emit(&outcome, tracer.as_ref().map(|t| (t, first_span)), &out_dir)?;
    }
    Ok(all_ok)
}

/// Printing and persisting one workload's outcome.
struct Report<'a> {
    spec: &'a Spec,
    workload: &'a str,
    seed: u64,
    seconds: f64,
    commit: &'a str,
    cores: usize,
}

impl Report<'_> {
    /// Print lines and the final JSON, update the files in `out_dir`;
    /// returns whether every check passed.
    fn emit(
        &self,
        o: &Outcome,
        traced: Option<(&Tracer, u64)>,
        out_dir: &Path,
    ) -> Result<bool, String> {
        let w = self.workload;
        for m in &self.spec.end_to_end {
            if !o.e2e.contains_key(m.name.as_str()) {
                return Err(format!("{w} did not measure {}", m.name));
            }
        }
        let mut checks = o.checks.clone();
        let non_finite: Vec<&str> = o
            .e2e
            .iter()
            .filter(|(_, v)| !v.is_finite())
            .map(|(k, _)| *k)
            .collect();
        checks.push((
            "metrics_finite".into(),
            non_finite.is_empty(),
            format!("non-finite: {non_finite:?}"),
        ));
        for note in &o.notes {
            eprintln!("[benchmark] {w}: {note}");
        }
        for m in &self.spec.end_to_end {
            println!("{w} {} {} {}", m.name, o.e2e[m.name.as_str()], m.unit);
        }
        let layer_value = |name: &str| o.layers.get(name).copied().unwrap_or(0.0);
        if traced.is_some() {
            for m in &self.spec.per_layer {
                println!("{w} {} {} {}", m.name, layer_value(&m.name), m.unit);
            }
        }
        let correct = checks.iter().all(|(_, ok, _)| *ok);
        for (name, ok, detail) in &checks {
            println!("check.{w}.{name} {}", if *ok { "pass" } else { "fail" });
            if !ok {
                eprintln!("[benchmark] {w}: check {name} failed: {detail}");
            }
        }

        // A non-finite value (a percentile of no samples) is stored as
        // null, never as a number a comparison could count as a result;
        // `metrics_finite` has already failed the run.
        let number = |v: f64| if v.is_finite() { json!(v) } else { Value::Null };
        let e2e: Map = self
            .spec
            .end_to_end
            .iter()
            .map(|m| {
                let v = number(o.e2e[m.name.as_str()]);
                (m.name.clone(), json!({"value": v, "unit": m.unit.as_str()}))
            })
            .collect();
        let layers: Map = self
            .spec
            .per_layer
            .iter()
            .map(|m| {
                let v = number(layer_value(&m.name));
                (m.name.clone(), json!({"value": v, "unit": m.unit.as_str()}))
            })
            .collect();
        let entry = json!({
            "seed": self.seed,
            "seconds": self.seconds,
            "correct": correct,
            "attempted": o.attempted,
            "failed": o.failed,
            "metrics": Value::Object(e2e.clone()),
            "checks": Value::Object(checks.iter().map(|(n, ok, _)| (n.clone(), Value::Bool(*ok))).collect()),
        });

        let results_path = out_dir.join("results.json");
        let mut results = read_object(&results_path);
        let section = if traced.is_some() { "traced" } else { "runs" };
        let previous = results
            .get("runs")
            .and_then(|r| r.get(w))
            .filter(|r| {
                r.get("seed").and_then(Value::as_u64) == Some(self.seed)
                    && r.get("seconds").and_then(Value::as_f64) == Some(self.seconds)
            })
            .cloned();
        let mut runs = results
            .get(section)
            .and_then(Value::as_object)
            .cloned()
            .unwrap_or_default();
        runs.insert(w.to_string(), entry);
        results.insert(section.into(), Value::Object(runs));
        results.insert("commit".into(), json!(self.commit));
        results.insert("cores".into(), json!(self.cores));
        write_json(&results_path, &Value::Object(results))?;

        if let Some((tracer, first_span)) = traced {
            let mut overhead = Map::new();
            match &previous {
                Some(untraced) => {
                    for m in &self.spec.end_to_end {
                        let before = untraced
                            .get("metrics")
                            .and_then(|x| x.get(&m.name))
                            .and_then(|x| x.get("value"))
                            .and_then(Value::as_f64);
                        if let Some(before) = before {
                            let diff = o.e2e[m.name.as_str()] - before;
                            println!("{w} overhead.{} {diff} {}", m.name, m.unit);
                            overhead.insert(m.name.clone(), json!(number(diff)));
                        }
                    }
                }
                None => eprintln!(
                    "[benchmark] {w}: no untraced result for seed {} in {}; run it first to see the tracing overhead",
                    self.seed,
                    results_path.display()
                ),
            }
            let layers_path = out_dir.join("layers.json");
            let mut all = read_object(&layers_path);
            let self_s: Map = tracer
                .self_times(first_span)
                .into_iter()
                .map(|(k, v)| (k, json!(v)))
                .collect();
            let rss: Map = o
                .rss_delta_mb
                .iter()
                .map(|(k, v)| (k.clone(), json!(*v)))
                .collect();
            all.insert(
                w.to_string(),
                json!({
                    "seed": self.seed,
                    "seconds": self.seconds,
                    "commit": self.commit,
                    "cores": self.cores,
                    "metrics": Value::Object(layers.clone()),
                    "traced_end_to_end": Value::Object(e2e.clone()),
                    "overhead": Value::Object(overhead),
                    "self_s": Value::Object(self_s),
                    "rss_delta_mb": Value::Object(rss),
                }),
            );
            write_json(&layers_path, &Value::Object(all))?;
            write_json(
                &out_dir.join("trace.json"),
                &tracer.chrome_json("benchmark"),
            )?;
        }

        let metrics = if traced.is_some() { layers } else { e2e };
        let line = json!({
            "correct": correct,
            "attempted": o.attempted,
            "failed": o.failed,
            "metrics": Value::Object(metrics),
        });
        println!(
            "{}",
            serde_json::to_string(&line).map_err(|e| e.to_string())?
        );
        Ok(correct)
    }
}

fn read_object(path: &Path) -> Map {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::from_str::<Value>(&text).ok())
        .and_then(|v| v.as_object().cloned())
        .unwrap_or_default()
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn trace_flag_takes_an_optional_zero_or_one() {
        assert!(args(&["--trace"]).expect("bare").trace);
        assert!(args(&["--trace", "1", "--seed", "3"]).expect("one").trace);
        let off = args(&["--trace", "0", "--seed", "3"]).expect("zero");
        assert!(!off.trace);
        assert_eq!(off.seed, 3);
        let bare = args(&["--trace", "--workload", "live"]).expect("bare then more");
        assert!(bare.trace);
        assert_eq!(bare.workload.as_deref(), Some("live"));
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }
}
