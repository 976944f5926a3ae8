//! `unclean` — run the uncleanliness analyses of Collins et al. (IMC 2007)
//! on your own IP report files.
//!
//! ```text
//! unclean demo --out demo-reports --scale 0.002
//! unclean inspect demo-reports/bot.txt
//! unclean spatial  --report demo-reports/bot.txt --control demo-reports/control.txt
//! unclean temporal --past demo-reports/bot-test.txt --present demo-reports/spam.txt \
//!                  --control demo-reports/control.txt
//! unclean blocklist --report demo-reports/bot-test.txt --format cisco --aggregate
//! unclean score --report bot=demo-reports/bot.txt --report spam=demo-reports/spam.txt
//! ```
//!
//! Report files are one IPv4 address per line; `#` comments and blank
//! lines are ignored.

mod commands;
mod forecast;
mod ingest;
mod io;

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use unclean_serve::ServeConfig;

const USAGE: &str = "\
unclean — uncleanliness analyses over IP report files (Collins et al., IMC 2007)

USAGE:
  unclean inspect <file> [--lenient] [--max-bad N] [--verbose]
  unclean archive index <file> [--out PATH]
  unclean spatial   --report <file> --control <file> [--trials N] [--seed N]
  unclean temporal  --past <file> --present <file> --control <file> [--trials N] [--seed N]
  unclean blocklist --report <file> [--prefix 24] [--format plain|cisco|iptables] [--aggregate]
  unclean blocklist freeze <scored-list> --out <snapshot>
  unclean snapshot  inspect <snapshot>
  unclean score     --report <class>=<file> ... [--prefix 16]
  unclean demo      [--out DIR] [--scale 0.002] [--seed 42]
  unclean metrics   <telemetry.json|metrics.prom> [--assert-zero name1,name2]
  unclean metrics   --diff <a.prom> <b.prom> [--interval-secs S]
  unclean serve     --blocklist <file|snapshot> [--forecast <file>] [--addr 127.0.0.1:7053]
                    [--threads 4] [--max-conns 1024] [--read-timeout-ms 5000]
                    [--watch] [--stale-after-secs N] [--degraded-after-secs N]
                    [--trace-sample N] [--trace-events 4096] [--history-ms 2000]
                    [--max-requests-per-conn 100000]
  unclean forecast  synth --out <spool.flows> [--scale 0.002] [--seed 42]
                    [--days 49] [--benign]
  unclean forecast  fit --archive <spool.flows> [--out forecast.txt]
                    [--horizon 7] [--level-half-life 7] [--trend-half-life 14]
                    [--neighbor-weight 0.15] [--threads 0] [--generation 1]
                    [--name NAME] [--telemetry telemetry.json]
  unclean forecast  eval --archive <spool.flows> [--train-days 0=auto]
                    [--horizon 7] [--threads 0] [--assert-beats-persistence]
  unclean forecast  simulate [--scale 0.02] [--seed 42] [--days 280]
                    [--remediate-day 140] [--compliance 0.8] [--hygiene-lift 0.7]
                    [--targets 24] [--period-days 28] [--threads 0]
  unclean ingest    --spool <dir> --out <file> [--bind 127.0.0.1:9995]
                    [--control 127.0.0.1:7055] [--rescore-ms 2000] [--prefix 24]
                    [--min-score 0] [--threads 0] [--retries 3] [--backoff-ms 200]
                    [--deadline-secs N] [--stale-after-secs 15]
                    [--degraded-after-secs 60] [--trace-events 4096]
                    [--history-ms 2000] [--fail-attempts 0]
  unclean replay    --to <host:port> [--archive <file> | --synth 20000]
                    [--faults none|adverse] [--seed 42] [--pace-ms 0]
  unclean trace     export <addr|events.json> [--out FILE]
  unclean top       <addr> [--interval-ms 2000] [--iterations 0] [--no-clear]

Every subcommand refuses a --flag it does not take (exit 2, with this
usage); a command that runs and fails exits 1.

'serve' and 'ingest' both record causally-linked trace events onto a
bounded ring: 'unclean trace export 127.0.0.1:7053 --out t.json' saves a
chrome://tracing / Perfetto trace; 'unclean top' tails a daemon's
/metrics/history flight recorder as a terminal dashboard. --trace-sample N
head-samples 1-in-N serve requests with per-stage timings (0 = off).

'blocklist freeze' writes a scored list as an mmap-able frozen-trie
snapshot; 'serve --blocklist' auto-detects snapshot files by magic and
maps them in O(1) instead of parsing. 'snapshot inspect' prints a
snapshot's header, geometry, provenance and CRC verification. The serve
daemon speaks HTTP/1.1 keep-alive (and pipelining) plus a binary batch
protocol on POST /batch-bin for bulk verdicts.

Report files: one IPv4 address per line; '#' comments and blanks ignored.
Malformed lines abort the load; 'inspect --lenient' quarantines them
instead (reported with line numbers), failing only past --max-bad (default
100).

'inspect' also recognizes v2 flow archives and prints a per-day replay
summary instead; --lenient quarantines damaged segments, --verbose adds the
peak replay buffer size. 'archive index' prints a v2 archive's footer
index, or upgrades a legacy v1 archive to v2 (the only command that reads
v1).";

/// A command line that does not parse exits 2 with the usage text; a
/// parsed command that fails exits 1 with its error alone.
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match command(&args) {
        Ok(command) => command,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command() {
        Ok(output) => match io::print(&output) {
            Ok(()) => ExitCode::SUCCESS,
            // The reader has gone (`unclean … | head`): nothing is lost.
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: cannot write to stdout: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A parsed subcommand, ready to run.
type Command<'a> = Box<dyn FnOnce() -> Result<String, String> + 'a>;

/// Parse `argv` into the subcommand to run, refusing any `--flag` the
/// subcommand does not read.
fn command(argv: &[String]) -> Result<Command<'_>, String> {
    let (name, rest) = argv.split_first().ok_or("missing subcommand")?;
    let args = Args::new(rest);
    let command = parse(name, &args)?;
    args.check(name)?;
    Ok(command)
}

/// Parse subcommand `name`'s arguments. Every flag goes through `args`,
/// which remembers what was read.
fn parse<'a>(name: &str, args: &Args<'a>) -> Result<Command<'a>, String> {
    Ok(match name {
        "inspect" => {
            let path = PathBuf::from(args.positional(0, "report file")?);
            let mode = if args.has("--lenient") {
                io::ParseMode::Lenient {
                    max_bad: args.num("--max-bad", 100usize)?,
                }
            } else {
                if args.value("--max-bad").is_some() {
                    return Err("--max-bad only applies with --lenient".into());
                }
                io::ParseMode::Strict
            };
            let verbose = args.has("--verbose");
            Box::new(move || commands::inspect(&path, mode, verbose))
        }
        "archive" => match args.positional(0, "archive action (index)")? {
            "index" => {
                let path = PathBuf::from(args.positional(1, "archive file")?);
                let out = args.value("--out").map(PathBuf::from);
                Box::new(move || commands::archive_index(&path, out.as_deref()))
            }
            other => return Err(format!("unknown archive action {other:?} (want: index)")),
        },
        "spatial" => {
            let (report, control) = (args.path("--report")?, args.path("--control")?);
            let (trials, seed) = (args.num("--trials", 200)?, args.num("--seed", 42)?);
            Box::new(move || commands::spatial(&report, &control, trials, seed))
        }
        "temporal" => {
            let (past, present) = (args.path("--past")?, args.path("--present")?);
            let control = args.path("--control")?;
            let (trials, seed) = (args.num("--trials", 200)?, args.num("--seed", 42)?);
            Box::new(move || commands::temporal(&past, &present, &control, trials, seed))
        }
        "blocklist" if args.rest.first().map(String::as_str) == Some("freeze") => {
            let list = PathBuf::from(args.positional(1, "scored blocklist file")?);
            let out = args.path("--out")?;
            Box::new(move || commands::blocklist_freeze(&list, &out))
        }
        "blocklist" => {
            let report = args.path("--report")?;
            let prefix = args.num("--prefix", 24u8)?;
            let format = args.str("--format", "plain");
            let aggregate = args.has("--aggregate");
            Box::new(move || commands::blocklist(&report, prefix, &format, aggregate))
        }
        "snapshot" => match args.positional(0, "snapshot action (inspect)")? {
            "inspect" => {
                let path = PathBuf::from(args.positional(1, "snapshot file")?);
                Box::new(move || commands::snapshot_inspect(&path))
            }
            other => return Err(format!("unknown snapshot action {other:?} (want: inspect)")),
        },
        "score" => {
            let mut inputs = Vec::new();
            for value in args.all("--report") {
                let (class, path) = value
                    .split_once('=')
                    .ok_or_else(|| format!("--report wants class=path, got {value:?}"))?;
                inputs.push((class.to_string(), PathBuf::from(path)));
            }
            let prefix = args.num("--prefix", 16u8)?;
            Box::new(move || commands::score(&inputs, prefix))
        }
        "demo" => {
            let out = PathBuf::from(args.str("--out", "demo-reports"));
            let (scale, seed) = (args.num("--scale", 0.002f64)?, args.num("--seed", 42u64)?);
            Box::new(move || commands::demo(&out, scale, seed))
        }
        "metrics" => {
            if let Some(i) = args.position("--diff") {
                let usage = "--diff wants two .prom files: --diff a.prom b.prom";
                let a = args.rest.get(i + 1).ok_or(usage)?;
                let b = args.rest.get(i + 2);
                let b = b.filter(|v| !v.starts_with("--")).ok_or(usage)?;
                let interval = args.opt_num("--interval-secs")?;
                return Ok(Box::new(move || {
                    commands::metrics_diff(Path::new(a), Path::new(b), interval)
                }));
            }
            let path = PathBuf::from(args.positional(0, "telemetry file")?);
            let assert_zero: Vec<String> = args
                .value("--assert-zero")
                .map(|v| v.split(',').map(|s| s.trim().to_string()).collect())
                .unwrap_or_default();
            Box::new(move || commands::metrics(&path, &assert_zero))
        }
        "serve" => {
            let config = serve_config(args)?;
            Box::new(move || commands::serve(config))
        }
        "forecast" => match args.positional(0, "forecast action (synth|fit|eval|simulate)")? {
            "synth" => {
                let opts = forecast::SynthOpts {
                    out: args.path("--out")?,
                    scale: args.num("--scale", 0.002f64)?,
                    seed: args.num("--seed", 42u64)?,
                    days: args.num("--days", 49u32)?,
                    benign: args.has("--benign"),
                };
                Box::new(move || forecast::synth(&opts))
            }
            "fit" => {
                let opts = forecast::FitOpts {
                    archive: args.path("--archive")?,
                    out: PathBuf::from(args.str("--out", "forecast.txt")),
                    model: forecast_model_opts(args)?,
                    generation: args.num("--generation", 1u64)?,
                    name: args.str("--name", "unclean-forecast"),
                    telemetry: args.value("--telemetry").map(PathBuf::from),
                };
                Box::new(move || forecast::fit(&opts))
            }
            "eval" => {
                let archive = args.path("--archive")?;
                let train_days = args.num("--train-days", 0usize)?;
                let model = forecast_model_opts(args)?;
                let assert_beats = args.has("--assert-beats-persistence");
                Box::new(move || forecast::eval(&archive, train_days, &model, assert_beats))
            }
            "simulate" => {
                let config = unclean_forecast::SimulateConfig {
                    scale: args.num("--scale", 0.02f64)?,
                    seed: args.num("--seed", 42u64)?,
                    days: args.num("--days", 280u32)?,
                    remediate_day: args.num("--remediate-day", 140i32)?,
                    compliance: args.num("--compliance", 0.8f64)?,
                    hygiene_lift: args.num("--hygiene-lift", 0.7f64)?,
                    targets: args.num("--targets", 24usize)?,
                    period_days: args.num("--period-days", 28u32)?,
                    threads: args.num("--threads", 0usize)?,
                    ..unclean_forecast::SimulateConfig::default()
                };
                Box::new(move || forecast::simulate(&config))
            }
            other => {
                return Err(format!(
                    "unknown forecast action {other:?} (want: synth|fit|eval|simulate)"
                ))
            }
        },
        "trace" => match args.positional(0, "trace action (export)")? {
            "export" => {
                let target = args.positional(1, "daemon address or events.json file")?;
                let out = args.value("--out").map(PathBuf::from);
                Box::new(move || commands::trace_export(target, out.as_deref()))
            }
            other => return Err(format!("unknown trace action {other:?} (want: export)")),
        },
        "top" => {
            let addr = args.positional(0, "daemon address")?;
            let interval_ms = args.num("--interval-ms", 2000u64)?;
            let iterations = args.num("--iterations", 0u64)?;
            let no_clear = args.has("--no-clear");
            Box::new(move || commands::top(addr, interval_ms, iterations, no_clear))
        }
        "ingest" => {
            let opts = ingest_opts(args)?;
            Box::new(move || ingest::ingest(&opts))
        }
        "replay" => {
            let opts = ingest::ReplayOpts {
                to: args
                    .value("--to")
                    .ok_or("missing required --to <host:port>")?
                    .to_string(),
                archive: args.value("--archive").map(PathBuf::from),
                synth: args.num("--synth", 20_000u64)?,
                faults: match args.str("--faults", "none").as_str() {
                    "none" => unclean_flowgen::FaultConfig::default(),
                    "adverse" => unclean_flowgen::FaultConfig::adverse(),
                    other => return Err(format!("--faults wants none|adverse, got {other:?}")),
                },
                seed: args.num("--seed", 42u64)?,
                pace_ms: args.num("--pace-ms", 0u64)?,
            };
            Box::new(move || ingest::replay(&opts))
        }
        "--help" | "-h" | "help" => Box::new(|| Ok(format!("{USAGE}\n"))),
        other => return Err(format!("unknown subcommand {other:?}")),
    })
}

/// `unclean serve`'s flags, each parsed onto [`ServeConfig::new`]'s own
/// default; only the listening address defaults differently, to the
/// daemon's well-known port.
fn serve_config(args: &Args) -> Result<ServeConfig, String> {
    let mut config = ServeConfig::new(args.path("--blocklist")?);
    config.forecast = args.value("--forecast").map(PathBuf::from);
    config.watch = args.has("--watch").then_some(unclean_serve::WATCH_POLL);
    let core = &mut config.core;
    core.addr = args.str("--addr", "127.0.0.1:7053");
    core.threads = args.num("--threads", core.threads)?.max(1);
    core.max_conns = args.num("--max-conns", core.max_conns)?.max(1);
    let read_timeout_ms = core.read_timeout.as_millis() as u64;
    let read_timeout_ms = args.num("--read-timeout-ms", read_timeout_ms)?;
    core.read_timeout = Duration::from_millis(read_timeout_ms.max(1));
    if let Some(secs) = args.opt_num("--stale-after-secs")? {
        core.stale_after = Some(Duration::from_secs(secs));
    }
    if let Some(secs) = args.opt_num("--degraded-after-secs")? {
        core.degraded_after = Some(Duration::from_secs(secs));
    }
    core.trace_sample = args.num("--trace-sample", core.trace_sample)?;
    core.trace_events = args.num("--trace-events", core.trace_events)?;
    if let Some(ms) = args.opt_num("--history-ms")? {
        core.history_interval = (ms > 0).then(|| Duration::from_millis(ms));
    }
    let max_requests = args.num("--max-requests-per-conn", core.max_requests_per_conn)?;
    core.max_requests_per_conn = max_requests.max(1);
    Ok(config)
}

/// `unclean ingest`'s flags, each parsed onto [`ingest::IngestOpts`]'s
/// own default.
fn ingest_opts(args: &Args) -> Result<ingest::IngestOpts, String> {
    let d = ingest::IngestOpts::default();
    Ok(ingest::IngestOpts {
        spool_dir: args.path("--spool")?,
        out: args.path("--out")?,
        bind: args.str("--bind", &d.bind),
        control: args.str("--control", &d.control),
        rescore_ms: args.num("--rescore-ms", d.rescore_ms)?,
        prefix_len: args.num("--prefix", d.prefix_len)?,
        min_score: args.num("--min-score", d.min_score)?,
        threads: args.num("--threads", d.threads)?,
        retries: args.num("--retries", d.retries)?,
        backoff_ms: args.num("--backoff-ms", d.backoff_ms)?,
        deadline_secs: args.opt_num("--deadline-secs")?.or(d.deadline_secs),
        stale_after_secs: args.num("--stale-after-secs", d.stale_after_secs)?,
        degraded_after_secs: args.num("--degraded-after-secs", d.degraded_after_secs)?,
        fail_attempts: args.num("--fail-attempts", d.fail_attempts)?,
        trace_events: args.num("--trace-events", d.trace_events)?,
        history_ms: args.num("--history-ms", d.history_ms)?,
    })
}

/// The forecaster tunables `forecast fit` and `forecast eval` share.
fn forecast_model_opts(args: &Args) -> Result<forecast::ModelOpts, String> {
    Ok(forecast::ModelOpts {
        horizon: args.num("--horizon", 7u32)?,
        level_half_life: args.num("--level-half-life", 7.0f64)?,
        trend_half_life: args.num("--trend-half-life", 14.0f64)?,
        neighbor_weight: args.num("--neighbor-weight", 0.15f64)?,
        threads: args.num("--threads", 0usize)?,
    })
}

/// A subcommand's arguments. Every flag lookup is remembered, so that
/// [`Args::check`] can refuse a `--flag` the subcommand never asked for.
struct Args<'a> {
    rest: &'a [String],
    read: RefCell<Vec<&'static str>>,
}

impl<'a> Args<'a> {
    fn new(rest: &'a [String]) -> Args<'a> {
        Args {
            rest,
            read: RefCell::new(Vec::new()),
        }
    }

    /// Refuse the first `--flag` that no lookup asked for.
    fn check(&self, name: &str) -> Result<(), String> {
        let read = self.read.borrow();
        let unread = |a: &&String| a.starts_with("--") && !read.iter().any(|r| r == a);
        match self.rest.iter().find(unread) {
            Some(flag) => Err(format!("unknown flag {flag} for '{name}'")),
            None => Ok(()),
        }
    }

    fn positional(&self, idx: usize, what: &str) -> Result<&'a str, String> {
        self.rest
            .get(idx)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing {what}"))
    }

    /// Where `flag` first appears, if it does.
    fn position(&self, flag: &'static str) -> Option<usize> {
        self.read.borrow_mut().push(flag);
        self.rest.iter().position(|a| a == flag)
    }

    fn value(&self, flag: &'static str) -> Option<&'a str> {
        let i = self.position(flag)?;
        self.rest.get(i + 1).map(|s| s.as_str())
    }

    /// Every value `flag` is given, in order.
    fn all(&self, flag: &'static str) -> Vec<&'a str> {
        self.read.borrow_mut().push(flag);
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.rest.len() {
            if self.rest[i] == flag {
                if let Some(v) = self.rest.get(i + 1) {
                    out.push(v.as_str());
                    i += 2;
                    continue;
                }
            }
            i += 1;
        }
        out
    }

    fn path(&self, flag: &'static str) -> Result<PathBuf, String> {
        self.value(flag)
            .map(PathBuf::from)
            .ok_or_else(|| format!("missing required {flag} <file>"))
    }

    fn str(&self, flag: &'static str, default: &str) -> String {
        self.value(flag).unwrap_or(default).to_string()
    }

    fn num<T: std::str::FromStr>(&self, flag: &'static str, default: T) -> Result<T, String> {
        Ok(self.opt_num(flag)?.unwrap_or(default))
    }

    fn opt_num<T: std::str::FromStr>(&self, flag: &'static str) -> Result<Option<T>, String> {
        match self.value(flag) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{flag} got unparseable value {v:?}")),
        }
    }

    fn has(&self, flag: &'static str) -> bool {
        self.position(flag).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// Parse and run a full argument vector; returns the output text.
    fn run(argv: &[String]) -> Result<String, String> {
        command(argv)?()
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&argv("help")).expect("ok");
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(run(&argv("frobnicate")).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn missing_required_flag_errors() {
        let err = run(&argv("spatial --report x.txt")).expect_err("no control");
        assert!(err.contains("--control"), "{err}");
    }

    #[test]
    fn bad_number_errors() {
        let err =
            run(&argv("spatial --report a --control b --trials lots")).expect_err("bad trials");
        assert!(err.contains("--trials"), "{err}");
    }

    /// Today's `unclean serve --blocklist x` settings, field by field.
    fn serve_defaults() -> ServeConfig {
        ServeConfig {
            source: PathBuf::from("x"),
            forecast: None,
            watch: None,
            core: unclean_serve::CoreConfig {
                addr: "127.0.0.1:7053".to_string(),
                threads: 4,
                max_conns: 1024,
                read_timeout: Duration::from_millis(5_000),
                stale_after: None,
                degraded_after: None,
                trace_sample: 0,
                trace_events: 4096,
                history_interval: Some(Duration::from_millis(2_000)),
                max_requests_per_conn: 100_000,
            },
        }
    }

    /// Today's `unclean ingest --spool d --out f` settings, field by field.
    fn ingest_defaults() -> ingest::IngestOpts {
        ingest::IngestOpts {
            spool_dir: PathBuf::from("d"),
            out: PathBuf::from("f"),
            bind: "127.0.0.1:9995".to_string(),
            control: "127.0.0.1:7055".to_string(),
            rescore_ms: 2_000,
            prefix_len: 24,
            min_score: 0.0,
            threads: 0,
            retries: 3,
            backoff_ms: 200,
            deadline_secs: None,
            stale_after_secs: 15,
            degraded_after_secs: 60,
            fail_attempts: 0,
            trace_events: 4096,
            history_ms: 2_000,
        }
    }

    /// The argument vectors the benchmark and the CI jobs run `serve` and
    /// `ingest` with parse to today's settings, every field checked, and
    /// pass the unknown-flag check.
    #[test]
    fn serve_and_ingest_flags_parse_onto_todays_defaults() {
        let serve = |line: &str| {
            let argv = argv(line);
            let args = Args::new(&argv);
            let config = serve_config(&args).expect("serve flags parse");
            args.check("serve").expect("no unknown serve flag");
            format!("{config:?}")
        };
        let ingest = |line: &str| {
            let argv = argv(line);
            let args = Args::new(&argv);
            let opts = ingest_opts(&args).expect("ingest flags parse");
            args.check("ingest").expect("no unknown ingest flag");
            format!("{opts:?}")
        };
        let want_serve = |edit: &dyn Fn(&mut ServeConfig)| {
            let mut config = serve_defaults();
            edit(&mut config);
            format!("{config:?}")
        };
        let want_ingest = |edit: &dyn Fn(&mut ingest::IngestOpts)| {
            let mut opts = ingest_defaults();
            edit(&mut opts);
            format!("{opts:?}")
        };

        assert_eq!(serve("--blocklist x"), want_serve(&|_| {}));
        assert_eq!(ingest("--spool d --out f"), want_ingest(&|_| {}));
        // The benchmark's daemons: `serve_point` and `serve_batch`, then
        // `live`.
        assert_eq!(
            serve(
                "--blocklist x --addr 127.0.0.1:0 --threads 1 \
                 --max-requests-per-conn 1000000000"
            ),
            want_serve(&|c| {
                c.core.addr = "127.0.0.1:0".to_string();
                c.core.threads = 1;
                c.core.max_requests_per_conn = 1_000_000_000;
            })
        );
        assert_eq!(
            serve(
                "--blocklist x --watch --addr 127.0.0.1:0 --threads 1 \
                 --max-requests-per-conn 1000000000"
            ),
            want_serve(&|c| {
                c.watch = Some(unclean_serve::WATCH_POLL);
                c.core.addr = "127.0.0.1:0".to_string();
                c.core.threads = 1;
                c.core.max_requests_per_conn = 1_000_000_000;
            })
        );
        assert_eq!(
            ingest("--spool d --out f --bind 127.0.0.1:0 --control 127.0.0.1:0"),
            want_ingest(&|o| {
                o.bind = "127.0.0.1:0".to_string();
                o.control = "127.0.0.1:0".to_string();
            })
        );
        // CI `serve`: the mapped-snapshot daemon.
        assert_eq!(
            serve("--blocklist x --addr 127.0.0.1:7054 --threads 2"),
            want_serve(&|c| {
                c.core.addr = "127.0.0.1:7054".to_string();
                c.core.threads = 2;
            })
        );
        // CI `ingest`: the daemon and the watching server.
        assert_eq!(
            ingest(
                "--spool d --out f --bind 127.0.0.1:9995 --control 127.0.0.1:7055 \
                 --rescore-ms 1000 --stale-after-secs 15 --degraded-after-secs 60"
            ),
            want_ingest(&|o| o.rescore_ms = 1_000)
        );
        assert_eq!(
            serve(
                "--blocklist x --addr 127.0.0.1:7053 --threads 4 --watch \
                 --stale-after-secs 15 --degraded-after-secs 60"
            ),
            want_serve(&|c| {
                c.watch = Some(unclean_serve::WATCH_POLL);
                c.core.stale_after = Some(Duration::from_secs(15));
                c.core.degraded_after = Some(Duration::from_secs(60));
            })
        );
        // CI `trace`.
        assert_eq!(
            ingest(
                "--spool d --out f --bind 127.0.0.1:9995 --control 127.0.0.1:7055 \
                 --rescore-ms 500 --trace-events 8192 --history-ms 500"
            ),
            want_ingest(&|o| {
                o.rescore_ms = 500;
                o.trace_events = 8192;
                o.history_ms = 500;
            })
        );
        assert_eq!(
            serve(
                "--blocklist x --addr 127.0.0.1:7053 --threads 4 --trace-sample 1 \
                 --history-ms 500"
            ),
            want_serve(&|c| {
                c.core.trace_sample = 1;
                c.core.history_interval = Some(Duration::from_millis(500));
            })
        );
        // CI `forecast`.
        assert_eq!(
            serve(
                "--blocklist x --forecast forecast.txt --addr 127.0.0.1:7053 --threads 4 --watch"
            ),
            want_serve(&|c| {
                c.forecast = Some(PathBuf::from("forecast.txt"));
                c.watch = Some(unclean_serve::WATCH_POLL);
            })
        );
        // User input is clamped: no zero shards, connections, timeout or
        // request budget; a zero history interval switches the recorder off.
        assert_eq!(
            serve(
                "--blocklist x --threads 0 --max-conns 0 --read-timeout-ms 0 \
                 --max-requests-per-conn 0 --history-ms 0"
            ),
            want_serve(&|c| {
                c.core.threads = 1;
                c.core.max_conns = 1;
                c.core.read_timeout = Duration::from_millis(1);
                c.core.max_requests_per_conn = 1;
                c.core.history_interval = None;
            })
        );
    }

    /// A flag the subcommand does not read is refused by name, before
    /// anything runs: removed flags, typos, and flags of another
    /// subcommand or action alike.
    #[test]
    fn unknown_flags_are_refused_by_name() {
        for (line, flag) in [
            ("ingest --spool d --out f --shed newest", "--shed"),
            (
                "ingest --spool d --out f --ring-capacity 4",
                "--ring-capacity",
            ),
            ("serve --blocklist x --bogus", "--bogus"),
            ("serve --blocklist x --stale-after 15", "--stale-after"),
            ("blocklist --report f --bogus", "--bogus"),
            ("blocklist freeze f --out g --prefix 16", "--prefix"),
            (
                "metrics --diff a.prom b.prom --assert-zero x",
                "--assert-zero",
            ),
            ("forecast fit --archive a --scale 0.1", "--scale"),
            (
                "replay --to 127.0.0.1:9 --boot-unix-secs 0",
                "--boot-unix-secs",
            ),
        ] {
            let err = command(&argv(line))
                .err()
                .unwrap_or_else(|| panic!("{line}"));
            assert!(
                err.contains(&format!("unknown flag {flag} ")),
                "{line}: {err}"
            );
        }
        // Every flag the ingest parser reads is accepted, USAGE's and
        // `--fail-attempts` alike.
        let line = "ingest --spool d --out f --bind b --control c --rescore-ms 1 --prefix 24 \
                    --min-score 0 --threads 1 --retries 0 --backoff-ms 1 --deadline-secs 1 \
                    --stale-after-secs 1 --degraded-after-secs 1 --fail-attempts 1 \
                    --trace-events 1 --history-ms 1";
        assert!(command(&argv(line)).is_ok(), "{line}");
    }

    #[test]
    fn inspect_lenient_flags_parse_and_bind() {
        let dir = std::env::temp_dir().join("unclean-cli-lenient");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("mixed.txt");
        std::fs::write(&path, "9.1.1.1\ngarbage\n9.1.1.2\n").expect("write");
        let p = path.to_string_lossy().to_string();
        // Strict (default) aborts.
        let err = run(&argv(&format!("inspect {p}"))).expect_err("strict aborts");
        assert!(err.contains("line 2"), "{err}");
        // Lenient quarantines and succeeds.
        let out = run(&argv(&format!("inspect {p} --lenient"))).expect("lenient ok");
        assert!(out.contains("quarantined 1"), "{out}");
        // Budget of zero fails past the first bad line.
        let err =
            run(&argv(&format!("inspect {p} --lenient --max-bad 0"))).expect_err("budget binds");
        assert!(err.contains("--max-bad"), "{err}");
        // --max-bad without --lenient is a usage error.
        let err = run(&argv(&format!("inspect {p} --max-bad 5"))).expect_err("usage");
        assert!(err.contains("--lenient"), "{err}");
        // Unparseable budget is a usage error.
        let err = run(&argv(&format!("inspect {p} --lenient --max-bad lots"))).expect_err("usage");
        assert!(err.contains("--max-bad"), "{err}");
    }

    #[test]
    fn inspect_and_index_flow_archives() {
        use unclean_flowgen::{Flow, IndexedArchiveWriter};
        let dir = std::env::temp_dir().join("unclean-cli-archive");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let boot = unclean_flowgen::record::EPOCH_UNIX_SECS;
        let flow = |day: i64, i: u32| Flow {
            src: unclean_core::Ip(0x0901_0000 + i),
            dst: unclean_core::Ip(0x1e00_0001),
            src_port: 1024,
            dst_port: 80,
            proto: 6,
            packets: 3,
            octets: 200,
            flags: 0x12,
            start_secs: day * 86_400 + i64::from(i),
            duration_secs: 1,
        };

        // v2: per-day rows, totals, and --verbose peak buffer.
        let mut w2 = IndexedArchiveWriter::new(Vec::new(), boot);
        for day in 0..3i64 {
            for i in 0..40u32 {
                w2.push(&flow(day, i)).expect("push");
            }
        }
        let (v2_bytes, _) = w2.finish().expect("finish");
        let v2_path = dir.join("spool.flows");
        std::fs::write(&v2_path, &v2_bytes).expect("write");
        let p2 = v2_path.to_string_lossy().to_string();
        let out = run(&argv(&format!("inspect {p2}"))).expect("v2 inspect");
        assert!(out.contains("v2 indexed flow archive"), "{out}");
        assert!(out.contains("total: 120 flows"), "{out}");
        let out = run(&argv(&format!("inspect {p2} --verbose"))).expect("verbose");
        assert!(out.contains("peak segment buffer"), "{out}");
        let out = run(&argv(&format!("archive index {p2}"))).expect("v2 index");
        assert!(out.contains("across 3 segment(s)"), "{out}");

        // A corrupt middle segment aborts strict inspect but is
        // quarantined under --lenient.
        let mut damaged = v2_bytes.clone();
        let seg1 = {
            let archive = unclean_flowgen::IndexedArchive::open(&v2_bytes).expect("v2");
            archive.segments()[1]
        };
        damaged[seg1.offset as usize] ^= 0xff;
        let bad_path = dir.join("damaged.flows");
        std::fs::write(&bad_path, &damaged).expect("write");
        let pb = bad_path.to_string_lossy().to_string();
        let err = run(&argv(&format!("inspect {pb}"))).expect_err("strict aborts");
        assert!(err.contains("segment 1"), "{err}");
        let out = run(&argv(&format!("inspect {pb} --lenient"))).expect("lenient ok");
        assert!(out.contains("quarantined 1 segment(s)"), "{out}");
        assert!(out.contains("total: 80 flows"), "{out}");

        // v1 (the checked-in golden archive): inspect refuses it and names
        // the upgrader; `archive index` upgrades it and the upgrade
        // inspects as v2 with the same flow count.
        let p1 = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/data/golden_v1.flows"
        );
        let err = run(&argv(&format!("inspect {p1}"))).expect_err("v1 refused");
        assert!(err.contains("unclean archive index"), "{err}");
        let up_path = dir.join("legacy.v2");
        let up = up_path.to_string_lossy().to_string();
        let out = run(&argv(&format!("archive index {p1} --out {up}"))).expect("upgrade");
        assert!(out.contains("upgraded"), "{out}");
        let out = run(&argv(&format!("inspect {up}"))).expect("upgraded inspect");
        assert!(out.contains("v2 indexed flow archive"), "{out}");
        assert!(out.contains("total: 201 flows"), "{out}");
    }

    #[test]
    fn blocklist_freeze_and_snapshot_inspect_round_trip() {
        let dir = std::env::temp_dir().join("unclean-cli-freeze");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let list = dir.join("scored.txt");
        std::fs::write(
            &list,
            "9.1.0.0/16 # score=2.5\n203.0.113.0/24 # score=1.0\n",
        )
        .expect("write");
        let snap = dir.join("scored.snap");
        let (l, s) = (
            list.to_string_lossy().to_string(),
            snap.to_string_lossy().to_string(),
        );
        let out = run(&argv(&format!("blocklist freeze {l} --out {s}"))).expect("freeze");
        assert!(out.contains("froze 2 entries"), "{out}");
        let out = run(&argv(&format!("snapshot inspect {s}"))).expect("inspect");
        assert!(out.contains("OK"), "{out}");
        assert!(out.contains("2 x 16 B"), "{out}");
        // A flipped byte in the node section fails CRC verification.
        let mut bytes = std::fs::read(&snap).expect("read");
        bytes[4096] ^= 0xff;
        std::fs::write(&snap, &bytes).expect("rewrite");
        let err = run(&argv(&format!("snapshot inspect {s}"))).expect_err("corrupt");
        assert!(err.contains("MISMATCH"), "{err}");
        // A non-snapshot file is refused outright.
        let err = run(&argv(&format!("snapshot inspect {l}"))).expect_err("not a snapshot");
        assert!(err.contains("magic"), "{err}");
    }

    #[test]
    fn end_to_end_demo_then_analyses() {
        let dir = std::env::temp_dir().join("unclean-cli-e2e");
        let dir_s = dir.to_string_lossy().to_string();
        let out =
            run(&argv(&format!("demo --out {dir_s} --scale 0.001 --seed 9"))).expect("demo runs");
        assert!(out.contains("control.txt"));

        let out = run(&argv(&format!("inspect {dir_s}/bot.txt"))).expect("inspect runs");
        assert!(out.contains("addresses"));

        let out = run(&argv(&format!(
            "spatial --report {dir_s}/bot.txt --control {dir_s}/control.txt --trials 30"
        )))
        .expect("spatial runs");
        assert!(out.contains("Eq. 3"));
        assert!(out.contains("HOLDS"), "{out}");

        let out = run(&argv(&format!(
            "temporal --past {dir_s}/bot-test.txt --present {dir_s}/spam.txt \
             --control {dir_s}/control.txt --trials 30"
        )))
        .expect("temporal runs");
        assert!(out.contains("Eq. 5"));

        let out = run(&argv(&format!(
            "blocklist --report {dir_s}/bot-test.txt --format iptables"
        )))
        .expect("blocklist runs");
        assert!(out.contains("iptables -A INPUT"));

        let out = run(&argv(&format!(
            "score --report bot={dir_s}/bot.txt --report spam={dir_s}/spam.txt"
        )))
        .expect("score runs");
        assert!(out.contains("networks scored"));
    }
}
