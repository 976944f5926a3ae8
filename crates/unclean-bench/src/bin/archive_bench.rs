//! `archive_bench` — time archive replay: v1 serial vs v2 serial vs v2
//! parallel, over one spool of the scenario's full unclean-window border
//! traffic.
//!
//! ```text
//! archive_bench --scale 0.02 [--threads 0] [--repeat 3] \
//!               [--json BENCH_archive.json] [--min-speedup 1.5]
//! ```
//!
//! The same flow stream is spooled twice — once through the v1 framed
//! writer and once through the v2 indexed segment writer — then each
//! replay path is timed `--repeat` times (best-of wall clock, flows
//! counted through the zero-copy cursor so the measurement is the decode
//! path, not collection). Before timing, all three paths are checked to
//! deliver the identical `Vec<Flow>`; the emitted entry records that
//! check as `deterministic`.
//!
//! `--json PATH` writes a report whose schema mirrors
//! `BENCH_pipeline.json`; the CI `archive` job uploads one as a build
//! artifact. `--min-speedup X` exits nonzero when v2-parallel fails to
//! beat v1-serial by that factor — the multi-core acceptance gate
//! (meaningless on one core, where parallel replay measures executor
//! overhead).

use crossbeam::executor::{resolve_threads, Executor};
use std::process::ExitCode;
use std::time::Instant;
use unclean_bench::runner::{atomic_write_json, EXIT_USAGE};
use unclean_bench::BenchOpts;
use unclean_flowgen::record::EPOCH_UNIX_SECS;
use unclean_flowgen::{
    ArchiveReader, ArchiveWriter, FlowGenerator, GeneratorConfig, IndexedArchive,
    IndexedArchiveWriter,
};
use unclean_netmodel::{Scenario, ScenarioConfig};

/// Gregorian date (UTC) from a unix timestamp, for the report entry —
/// civil-from-days, so the binary needs no clock/calendar dependency.
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, extra) = match BenchOpts::parse_known(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let mut json_out: Option<String> = None;
    let mut min_speedup: Option<f64> = None;
    let mut repeat: usize = 3;
    let mut commit = String::from("dev");
    let mut note = String::new();
    let mut i = 0;
    while i < extra.len() {
        let value = |i: usize| -> Option<&String> { extra.get(i + 1) };
        match extra[i].as_str() {
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
            "--min-speedup" => match value(i).and_then(|v| v.parse().ok()) {
                Some(v) => {
                    min_speedup = Some(v);
                    i += 2;
                }
                None => {
                    eprintln!("error: --min-speedup takes a float");
                    return ExitCode::from(EXIT_USAGE);
                }
            },
            "--repeat" => match value(i).and_then(|v| v.parse().ok()) {
                Some(v) => {
                    repeat = std::cmp::max(1usize, v);
                    i += 2;
                }
                None => {
                    eprintln!("error: --repeat takes an integer");
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

    let threads = resolve_threads(opts.threads);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!(
        "[archive_bench] scale {} seed {} threads {} repeat {}",
        opts.scale, opts.seed, threads, repeat
    );

    // Spool the full unclean window of border traffic (hostile + benign)
    // through both writers — the same byte-for-byte flow stream.
    let scenario = Scenario::generate(ScenarioConfig::at_scale(opts.scale, opts.seed));
    let model = scenario.activity();
    let generator = FlowGenerator::new(
        &scenario.observed,
        GeneratorConfig::default(),
        scenario.seeds.child("archive-bench"),
    );
    let window = scenario.dates.unclean_window;
    let boot = (i64::from(EPOCH_UNIX_SECS) + i64::from(window.start.0) * 86_400).max(0) as u32;
    let mut v1 = ArchiveWriter::new(Vec::new(), boot);
    let mut v2 = IndexedArchiveWriter::new(Vec::new(), boot);
    let mut spooled: u64 = 0;
    for day in window.days() {
        generator.flows_on(&model, day, true, |flow| {
            spooled += 1;
            v1.push(&flow).expect("in-memory v1 spool");
            v2.push(&flow).expect("in-memory v2 spool");
        });
    }
    let (v1_bytes, _) = v1.finish().expect("in-memory v1 spool");
    let (v2_bytes, index) = v2.finish().expect("in-memory v2 spool");
    let archive = IndexedArchive::open(&v2_bytes).expect("fresh spool indexes");
    eprintln!(
        "[archive_bench] spooled {spooled} flows over {} day(s): v1 {} bytes, v2 {} bytes ({} segments)",
        window.len_days(),
        v1_bytes.len(),
        v2_bytes.len(),
        index.segments.len()
    );

    // Correctness before speed: all three replay paths must deliver the
    // identical flow stream.
    let v1_flows = ArchiveReader::new(v1_bytes.as_slice(), boot)
        .read_all()
        .expect("v1 replay");
    let (v2_flows, v2_telemetry) = archive.read_day_range(None).expect("v2 sequential replay");
    let parallel_flows: Vec<_> = archive
        .replay_with(&Executor::new(threads), None, false, |_, cursor| {
            let mut flows = Vec::new();
            cursor.for_each_flow(|f| flows.push(*f))?;
            Ok(flows)
        })
        .expect("v2 parallel replay")
        .outputs
        .into_iter()
        .flat_map(|o| o.output.expect("strict replay delivers"))
        .collect();
    let deterministic = v1_flows == v2_flows && v2_flows == parallel_flows;
    if !deterministic {
        eprintln!(
            "error: replay paths disagree (v1 {} / v2 serial {} / v2 parallel {} flows)",
            v1_flows.len(),
            v2_flows.len(),
            parallel_flows.len()
        );
        return ExitCode::FAILURE;
    }
    drop((v1_flows, v2_flows, parallel_flows));

    // Timed region counts flows through the zero-copy cursor — decode
    // cost, not collection cost. Best-of-`repeat` wall clock.
    let time_best = |f: &dyn Fn() -> u64| -> (f64, u64) {
        let mut best = f64::INFINITY;
        let mut flows = 0;
        for _ in 0..repeat {
            let t0 = Instant::now();
            flows = f();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        (best, flows)
    };
    let (v1_secs, v1_count) = time_best(&|| {
        let mut reader = ArchiveReader::new(v1_bytes.as_slice(), boot);
        let mut n = 0u64;
        while let Some(batch) = reader.next_datagram().expect("v1 replay") {
            n += batch.len() as u64;
        }
        n
    });
    let serial_pool = Executor::new(1);
    let (v2_serial_secs, v2_serial_count) = time_best(&|| {
        archive
            .replay_with(&serial_pool, None, false, |_, cursor| {
                let mut n = 0u64;
                cursor.for_each_flow(|_| n += 1)?;
                Ok(n)
            })
            .expect("v2 serial replay")
            .outputs
            .iter()
            .map(|o| o.output.expect("strict replay delivers"))
            .sum()
    });
    let parallel_pool = Executor::new(threads);
    let (v2_parallel_secs, v2_parallel_count) = time_best(&|| {
        archive
            .replay_with(&parallel_pool, None, false, |_, cursor| {
                let mut n = 0u64;
                cursor.for_each_flow(|_| n += 1)?;
                Ok(n)
            })
            .expect("v2 parallel replay")
            .outputs
            .iter()
            .map(|o| o.output.expect("strict replay delivers"))
            .sum()
    });
    assert_eq!(v1_count, spooled);
    assert_eq!(v2_serial_count, spooled);
    assert_eq!(v2_parallel_count, spooled);

    let speedup = v1_secs / v2_parallel_secs;
    let compression = v2_bytes.len() as f64 / v1_bytes.len() as f64;
    println!(
        "archive replay — {spooled} flows, {} segments",
        index.segments.len()
    );
    println!(
        "  spool size:   v1 {} bytes, v2 {} bytes ({:.1}% of v1)",
        v1_bytes.len(),
        v2_bytes.len(),
        compression * 100.0
    );
    println!("  v1 serial:    {v1_secs:.4}s");
    println!(
        "  v2 serial:    {v2_serial_secs:.4}s ({:.2}x vs v1)",
        v1_secs / v2_serial_secs
    );
    println!("  v2 parallel:  {v2_parallel_secs:.4}s at {threads} thread(s) ({speedup:.2}x vs v1 serial)");
    println!("  deterministic: {deterministic} (all three paths byte-identical)");

    if let Some(path) = &json_out {
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let report = serde_json::json!({
            "benchmark": format!(
                "archive_bench --scale {} (one unclean-window border spool; v1 serial vs v2 serial vs v2 parallel replay)",
                opts.scale
            ),
            "methodology": "The identical flow stream is spooled through the v1 framed writer and the v2 indexed segment writer, then each replay path is timed best-of-repeat with flows counted through the zero-copy cursor. 'deterministic' records that all three paths delivered the identical Vec<Flow> before timing. The acceptance target for v2 parallel replay is speedup >= 1.5x over v1 serial on a machine with >= 2 cores; single-core entries record determinism and overhead instead, and the CI archive job uploads a fresh entry measured on the hosted runner.",
            "entries": [{
                "date": utc_date(now),
                "commit": commit,
                "cores": cores,
                "flows": spooled,
                "segments": index.segments.len(),
                "v1_bytes": v1_bytes.len(),
                "v2_bytes": v2_bytes.len(),
                "v2_compression_ratio": (compression * 1000.0).round() / 1000.0,
                "v1_serial_wall_secs": (v1_secs * 10_000.0).round() / 10_000.0,
                "v2_serial_wall_secs": (v2_serial_secs * 10_000.0).round() / 10_000.0,
                "parallel_threads": threads,
                "v2_parallel_wall_secs": (v2_parallel_secs * 10_000.0).round() / 10_000.0,
                "speedup": (speedup * 100.0).round() / 100.0,
                "lost_flows": v2_telemetry.lost_flows,
                "deterministic": deterministic,
                "note": note,
            }],
        });
        match atomic_write_json(std::path::Path::new(path), &report) {
            Ok(_) => eprintln!("[archive_bench] wrote {path}"),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(floor) = min_speedup {
        if speedup < floor {
            eprintln!("error: v2 parallel speedup {speedup:.2}x < required {floor:.2}x");
            return ExitCode::FAILURE;
        }
        println!("  gate:         >= {floor:.2}x OK");
    }
    ExitCode::SUCCESS
}
