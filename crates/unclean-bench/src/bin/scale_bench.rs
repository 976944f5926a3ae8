//! `scale_bench` — wall-clock and peak-RSS per scale step of the paper
//! pipeline (scenario generation + detector sweeps).
//!
//! ```text
//! scale_bench [--scales 0.02,0.1,0.25,0.5] [--json BENCH_scale.json] \
//!             [--max-rss-ratio X] [--threads 0] [--seed N]
//! scale_bench --scale 0.1 ...          # single step, same machinery
//! ```
//!
//! Peak RSS is `VmHWM` from `/proc/self/status`, which is process-wide
//! and monotonic — a second scale measured in the same process would
//! inherit the first one's high-water mark. So the parent re-executes
//! itself (`--one-scale`) once per step and each child reports its own
//! honest `{wall_secs, peak_rss_kb}` row on stdout; the parent collects
//! the rows into a `BENCH_pipeline.json`-style report.
//!
//! `--max-rss-ratio X` is the out-of-core acceptance gate: with at least
//! two steps, the run fails when
//! `peak_rss(last) / peak_rss(first) > X`. Memory should grow at most
//! linearly with scale (constant overhead makes the observed ratio
//! sublinear), so a ratio past the scale ratio means some stage is
//! re-materializing the whole window and the out-of-core sweep regressed.

use std::process::{Command, ExitCode};
use std::time::Instant;
use unclean_bench::runner::{atomic_write_json, EXIT_USAGE};
use unclean_bench::{peak_rss_kb, BenchOpts, ExperimentContext};

/// Gregorian date (UTC) from a unix timestamp — civil-from-days, so the
/// binary needs no calendar dependency.
fn utc_date(unix_secs: u64) -> String {
    let days = (unix_secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// Child mode: run one scale in this process and print its row as one
/// JSON line on stdout (stderr keeps the human progress log).
fn run_one_scale(opts: BenchOpts) -> ExitCode {
    let t0 = Instant::now();
    let ctx = ExperimentContext::generate(opts);
    let wall_secs = t0.elapsed().as_secs_f64();
    let row = serde_json::json!({
        "scale": ctx.opts.scale,
        "seed": ctx.opts.seed,
        "threads": ctx.threads,
        "wall_secs": (wall_secs * 100.0).round() / 100.0,
        "peak_rss_kb": peak_rss_kb(),
        "hosts": ctx.scenario.world.population.total_hosts(),
        "blocks": ctx.scenario.world.population.block_count(),
        "scan_report": ctx.reports.scan.len(),
        "spam_report": ctx.reports.spam.len(),
        "unclean_report": ctx.reports.unclean.len(),
    });
    println!("{}", serde_json::to_string(&row).expect("row serializes"));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, extra) = match BenchOpts::parse_known(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let mut scales: Vec<f64> = vec![opts.scale];
    let mut explicit_scales = false;
    let mut json_out: Option<String> = None;
    let mut max_rss_ratio: Option<f64> = None;
    let mut commit = String::from("dev");
    let mut note = String::new();
    let mut one_scale = false;
    let mut i = 0;
    while i < extra.len() {
        let value = |i: usize| -> Option<&String> { extra.get(i + 1) };
        match extra[i].as_str() {
            "--one-scale" => {
                one_scale = true;
                i += 1;
            }
            "--scales" => match value(i) {
                Some(v) => {
                    let parsed: Result<Vec<f64>, _> =
                        v.split(',').map(|s| s.trim().parse::<f64>()).collect();
                    match parsed {
                        Ok(list) if !list.is_empty() => {
                            scales = list;
                            explicit_scales = true;
                        }
                        _ => {
                            eprintln!("error: --scales takes a comma-separated float list");
                            return ExitCode::from(EXIT_USAGE);
                        }
                    }
                    i += 2;
                }
                None => {
                    eprintln!("error: missing value for --scales");
                    return ExitCode::from(EXIT_USAGE);
                }
            },
            "--json" => match value(i) {
                Some(v) => {
                    json_out = Some(v.clone());
                    i += 2;
                }
                None => {
                    eprintln!("error: missing value for --json");
                    return ExitCode::from(EXIT_USAGE);
                }
            },
            "--max-rss-ratio" => match value(i).and_then(|v| v.parse().ok()) {
                Some(v) => {
                    max_rss_ratio = Some(v);
                    i += 2;
                }
                None => {
                    eprintln!("error: --max-rss-ratio takes a float");
                    return ExitCode::from(EXIT_USAGE);
                }
            },
            "--commit" => match value(i) {
                Some(v) => {
                    commit = v.clone();
                    i += 2;
                }
                None => {
                    eprintln!("error: missing value for --commit");
                    return ExitCode::from(EXIT_USAGE);
                }
            },
            "--note" => match value(i) {
                Some(v) => {
                    note = v.clone();
                    i += 2;
                }
                None => {
                    eprintln!("error: missing value for --note");
                    return ExitCode::from(EXIT_USAGE);
                }
            },
            other => {
                eprintln!("error: unknown argument {other}; try --help");
                return ExitCode::from(EXIT_USAGE);
            }
        }
    }

    if one_scale {
        return run_one_scale(opts);
    }

    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot re-exec for per-scale RSS isolation: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut rows: Vec<serde_json::Value> = Vec::new();
    for &scale in &scales {
        eprintln!("[scale_bench] scale {scale}: spawning isolated child …");
        let out = Command::new(&exe)
            .arg("--one-scale")
            .arg("--scale")
            .arg(scale.to_string())
            .arg("--seed")
            .arg(opts.seed.to_string())
            .arg("--threads")
            .arg(opts.threads.to_string())
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: scale {scale}: failed to spawn child: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        if !out.status.success() {
            eprintln!("error: scale {scale}: child exited with {}", out.status);
            return ExitCode::FAILURE;
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().unwrap_or_default();
        match serde_json::from_str::<serde_json::Value>(line) {
            Ok(row) => {
                eprintln!(
                    "[scale_bench] scale {scale}: wall {}s, peak RSS {} kB",
                    row.get("wall_secs").and_then(|v| v.as_f64()).unwrap_or(0.0),
                    row.get("peak_rss_kb")
                        .and_then(|v| v.as_f64())
                        .unwrap_or(0.0)
                );
                rows.push(row);
            }
            Err(e) => {
                eprintln!("error: scale {scale}: unparsable child row {line:?}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let rss_of = |row: &serde_json::Value| -> Option<f64> {
        row.get("peak_rss_kb").and_then(|v| v.as_f64())
    };
    println!(
        "pipeline scale trajectory — seed {}, {cores} core(s)",
        opts.seed
    );
    println!(
        "  {:>8} {:>12} {:>14}",
        "scale", "wall (s)", "peak RSS (kB)"
    );
    let cell = |row: &serde_json::Value, key: &str| -> String {
        row.get(key)
            .and_then(|v| v.as_f64())
            .map(|v| v.to_string())
            .unwrap_or_else(|| "-".into())
    };
    for row in &rows {
        println!(
            "  {:>8} {:>12} {:>14}",
            cell(row, "scale"),
            cell(row, "wall_secs"),
            cell(row, "peak_rss_kb"),
        );
    }

    if let Some(path) = &json_out {
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let report = serde_json::json!({
            "benchmark": format!(
                "scale_bench --scales {} (paper pipeline: scenario generation + detector sweeps per scale step)",
                scales.iter().map(|s| s.to_string()).collect::<Vec<_>>().join(",")
            ),
            "methodology": "Each scale step runs in a freshly exec'd child process so its peak_rss_kb (VmHWM from /proc/self/status, process-wide and monotonic) is that step's own high-water mark rather than an inherited one. wall_secs covers ExperimentContext::generate — world generation and both detector sweeps, which generate each day's flows straight into their detector shards — i.e. the shared pipeline every experiment binary pays before its own analysis. The out-of-core acceptance gate is peak_rss(last)/peak_rss(first) <= max-rss-ratio: memory must grow at most linearly with scale (sublinearly in practice, thanks to constant overhead), so a superlinear ratio means a stage is re-materializing the whole unclean window in memory.",
            "entries": [{
                "date": utc_date(now),
                "commit": commit,
                "cores": cores,
                "threads": opts.threads,
                "seed": opts.seed,
                "rows": rows,
                "note": note,
            }],
        });
        match atomic_write_json(std::path::Path::new(path), &report) {
            Ok(_) => eprintln!("[scale_bench] wrote {path}"),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(ratio_cap) = max_rss_ratio {
        if !explicit_scales && scales.len() < 2 {
            eprintln!("error: --max-rss-ratio needs at least two --scales steps");
            return ExitCode::from(EXIT_USAGE);
        }
        match (
            rows.first().and_then(&rss_of),
            rows.last().and_then(&rss_of),
        ) {
            (Some(base), Some(last)) if base > 0.0 => {
                let ratio = last / base;
                let scale_ratio = scales.last().unwrap_or(&1.0) / scales.first().unwrap_or(&1.0);
                if ratio > ratio_cap {
                    eprintln!(
                        "error: peak-RSS ratio {ratio:.2}x over a {scale_ratio:.1}x scale step exceeds the {ratio_cap:.2}x gate"
                    );
                    return ExitCode::FAILURE;
                }
                println!(
                    "  gate:     RSS ratio {ratio:.2}x over {scale_ratio:.1}x scale <= {ratio_cap:.2}x OK"
                );
            }
            _ => {
                eprintln!("error: --max-rss-ratio: peak_rss_kb unavailable (non-Linux?)");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
