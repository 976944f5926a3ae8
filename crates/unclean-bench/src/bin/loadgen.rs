//! `loadgen` — hammer an `unclean serve` daemon and report sustained
//! lookups/sec plus latency percentiles.
//!
//! Two modes:
//!
//! * `loadgen --addr 127.0.0.1:7053` targets an already-running daemon.
//! * `loadgen --blocklist list.txt` self-hosts a daemon in-process on an
//!   ephemeral port, drives it, and shuts it down — the one-command
//!   smoke benchmark CI runs.
//!
//! ```text
//! loadgen --blocklist list.txt --clients 4 --duration-secs 5 \
//!         --batch 100 --binary --min-throughput 100000
//! ```
//!
//! Each client thread holds one persistent HTTP/1.1 keep-alive
//! connection and issues `POST /batch` requests of `--batch` IPs
//! (`--batch 1` switches to `GET /lookup` point queries; `--binary`
//! switches to the `POST /batch-bin` fixed-width framing).
//! `--no-keepalive` restores the HTTP/1.0 connect-per-request baseline.
//! Throughput is counted in *lookups* (IPs answered), latency per
//! *request*. With `--min-throughput N`, exits nonzero when the
//! sustained rate falls short — the CI acceptance gate.
//!
//! By default clients run closed-loop (next request as soon as the
//! previous answer lands). `--rate N` switches to an open-loop
//! schedule: requests are due at fixed intervals summing to N req/s
//! across all clients, and latency is measured from the *scheduled*
//! send time, so queueing delay from a saturated server shows up
//! instead of being silently absorbed (coordinated omission).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use unclean_stats::quantile::quantile_sorted;

struct Args {
    addr: Option<String>,
    blocklist: Option<String>,
    forecast: Option<String>,
    clients: usize,
    duration: Duration,
    batch: usize,
    endpoint: String,
    forecast_share: f64,
    binary: bool,
    no_keepalive: bool,
    rate: f64,
    reconnect_every: u64,
    min_throughput: Option<f64>,
    max_p999_micros: Option<f64>,
    healthz_poll: bool,
    max_staleness_secs: Option<u64>,
    json: Option<String>,
    trace_sample: u64,
}

const USAGE: &str = "\
loadgen — load-generate against an unclean-serve daemon

USAGE:
  loadgen (--addr HOST:PORT | --blocklist FILE) [--forecast FILE]
          [--clients 4] [--duration-secs 5] [--batch 100]
          [--binary] [--no-keepalive] [--rate N] [--reconnect-every N]
          [--endpoint /lookup|/forecast] [--forecast-share 0.5]
          [--min-throughput N] [--max-p999-micros N]
          [--healthz-poll] [--max-staleness-secs N]
          [--json PATH] [--trace-sample N]

Clients hold persistent HTTP/1.1 keep-alive connections by default.
--batch 1 uses GET /lookup point queries; larger batches use POST /batch.
--binary switches batches to the POST /batch-bin fixed-width framing
(u32-BE count + count x u32-BE addresses each way).
--no-keepalive restores the HTTP/1.0 connect-per-request baseline.
--rate N runs open-loop at N requests/sec total (split across clients),
measuring latency from each request's scheduled start so a saturated
server shows queueing delay instead of hiding it.
--reconnect-every N drops and redials each connection after N requests
(connection-churn stress; 0 = never).
--endpoint /forecast mixes GET /forecast?ip= point queries into the
stream: each request is a forecast query with probability
--forecast-share (default 0.5), otherwise the usual lookup/batch
request. --forecast FILE boots the self-hosted daemon with a forecast
artifact (needs --blocklist); without it /forecast answers 404 and the
mix fails fast.
--min-throughput N exits nonzero below N lookups/sec (the CI gate).
--max-p999-micros N exits nonzero when p999 request latency exceeds N
microseconds (the CI tail-latency gate).
--healthz-poll samples GET /healthz during the run and reports the peak
generation age; with --max-staleness-secs N it exits nonzero when any
sample exceeds N seconds or reports degraded (the freshness gate).
--json PATH writes a machine-readable report (the BENCH_serve.json rows).
--trace-sample N head-samples 1-in-N requests for stage tracing on the
self-hosted daemon (needs --blocklist; 0 = tracing off) — the knob the
tracing-overhead experiment sweeps.";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(|s| s.as_str())
    };
    let num = |flag: &str, default: f64| -> Result<f64, String> {
        match value(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag} got unparseable value {v:?}")),
        }
    };
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        return Err(String::new());
    }
    let args = Args {
        addr: value("--addr").map(String::from),
        blocklist: value("--blocklist").map(String::from),
        forecast: value("--forecast").map(String::from),
        clients: num("--clients", 4.0)?.max(1.0) as usize,
        duration: Duration::from_secs_f64(num("--duration-secs", 5.0)?.max(0.1)),
        batch: num("--batch", 100.0)?.max(1.0) as usize,
        endpoint: value("--endpoint").unwrap_or("/lookup").to_string(),
        forecast_share: num("--forecast-share", 0.5)?.clamp(0.0, 1.0),
        binary: argv.iter().any(|a| a == "--binary"),
        no_keepalive: argv.iter().any(|a| a == "--no-keepalive"),
        rate: num("--rate", 0.0)?.max(0.0),
        reconnect_every: num("--reconnect-every", 0.0)?.max(0.0) as u64,
        min_throughput: value("--min-throughput")
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--min-throughput got unparseable value {v:?}"))
            })
            .transpose()?,
        max_p999_micros: value("--max-p999-micros")
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--max-p999-micros got unparseable value {v:?}"))
            })
            .transpose()?,
        healthz_poll: argv.iter().any(|a| a == "--healthz-poll"),
        max_staleness_secs: value("--max-staleness-secs")
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--max-staleness-secs got unparseable value {v:?}"))
            })
            .transpose()?,
        json: value("--json").map(String::from),
        trace_sample: num("--trace-sample", 0.0)?.max(0.0) as u64,
    };
    if args.max_staleness_secs.is_some() && !args.healthz_poll {
        return Err("--max-staleness-secs needs --healthz-poll".into());
    }
    if args.trace_sample > 0 && args.blocklist.is_none() {
        return Err(
            "--trace-sample needs --blocklist (it configures the self-hosted daemon)".into(),
        );
    }
    if args.forecast.is_some() && args.blocklist.is_none() {
        return Err("--forecast needs --blocklist (it configures the self-hosted daemon)".into());
    }
    if args.endpoint != "/lookup" && args.endpoint != "/forecast" {
        return Err(format!(
            "--endpoint must be /lookup or /forecast, got {:?}",
            args.endpoint
        ));
    }
    if args.binary && args.endpoint == "/forecast" {
        return Err(
            "--binary drives /batch-bin only; it cannot mix with --endpoint /forecast".into(),
        );
    }
    if args.addr.is_none() && args.blocklist.is_none() {
        return Err("need --addr HOST:PORT or --blocklist FILE".into());
    }
    Ok(args)
}

/// Find the end of the response head (`\r\n\r\n`).
fn head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Parse a response head into (status, content-length, close-hinted).
/// Header names are matched case-insensitively — the server echoes
/// whatever framing it likes.
fn parse_head(head: &str) -> Result<(u16, usize, bool), String> {
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line: {status_line:?}"))?;
    let mut content_length = 0usize;
    let mut close = false;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .parse()
                    .map_err(|_| format!("bad content-length {value:?}"))?;
            } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close")
            {
                close = true;
            }
        }
    }
    Ok((status, content_length, close))
}

/// A load-generating HTTP client: one persistent keep-alive connection
/// reused across requests (redialed on demand), or connect-per-request
/// when `keepalive` is off. Responses are framed by `Content-Length`,
/// so pipelined reuse never depends on EOF.
struct HttpClient {
    addr: String,
    stream: Option<TcpStream>,
    keepalive: bool,
    /// Drop and redial after this many requests on one connection
    /// (0 = never).
    reconnect_every: u64,
    served_on_conn: u64,
    connects: u64,
    buf: Vec<u8>,
}

impl HttpClient {
    fn new(addr: &str, keepalive: bool, reconnect_every: u64) -> Self {
        HttpClient {
            addr: addr.to_string(),
            stream: None,
            keepalive,
            reconnect_every,
            served_on_conn: 0,
            connects: 0,
            buf: Vec::with_capacity(16 * 1024),
        }
    }

    /// Send one request and return the response body. A reused
    /// connection may have been closed server-side (idle sweep,
    /// per-connection request cap) — retry exactly once on a fresh
    /// dial before reporting failure.
    fn request(&mut self, req: &[u8]) -> Result<Vec<u8>, String> {
        let reused = self.stream.is_some();
        match self.try_request(req) {
            Err(_) if reused => {
                self.stream = None;
                self.try_request(req)
            }
            other => other,
        }
    }

    fn try_request(&mut self, req: &[u8]) -> Result<Vec<u8>, String> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr)
                .map_err(|e| format!("connect {}: {e}", self.addr))?;
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .map_err(|e| e.to_string())?;
            let _ = stream.set_nodelay(true);
            self.stream = Some(stream);
            self.connects += 1;
            self.served_on_conn = 0;
        }
        let stream = self.stream.as_mut().expect("just connected");
        stream.write_all(req).map_err(|e| format!("write: {e}"))?;

        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head_len = loop {
            if let Some(pos) = head_end(&self.buf) {
                break pos;
            }
            let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err(format!("torn response: {} head bytes", self.buf.len()));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_len]).into_owned();
        let (status, content_length, close_hinted) = parse_head(&head)?;
        let total = head_len + 4 + content_length;
        while self.buf.len() < total {
            let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err(format!(
                    "torn response body: {} of {} bytes",
                    self.buf.len() - head_len - 4,
                    content_length
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        if status != 200 {
            return Err(format!(
                "non-200 response: {}",
                head.lines().next().unwrap_or("")
            ));
        }
        self.served_on_conn += 1;
        let churn = self.reconnect_every > 0 && self.served_on_conn >= self.reconnect_every;
        if !self.keepalive || close_hinted || churn {
            self.stream = None;
        }
        Ok(self.buf[head_len + 4..total].to_vec())
    }
}

/// Deterministic per-thread IP stream (xorshift); spans the whole v4
/// space so batches mix hits and misses.
struct IpStream(u32);

impl IpStream {
    fn next_ip(&mut self) -> u32 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        self.0 = x;
        x
    }
}

/// What the staleness poller saw across the run.
#[derive(Default)]
struct HealthzTally {
    samples: u64,
    max_age_secs: u64,
    /// Worst status observed, ranked ok < stale < degraded.
    worst: String,
    degraded_samples: u64,
    error: Option<String>,
}

/// One throwaway HTTP/1.0 exchange (used for /quit and /healthz, where
/// connection reuse buys nothing); returns the body. Any status code is
/// accepted — degraded healthz answers 503 by design.
fn oneshot(addr: &str, request: &[u8]) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    stream.write_all(request).map_err(|e| e.to_string())?;
    let mut text = String::new();
    stream
        .read_to_string(&mut text)
        .map_err(|e| e.to_string())?;
    text.split_once("\r\n\r\n")
        .map(|(_, body)| body.trim().to_string())
        .ok_or_else(|| format!("torn response: {text:?}"))
}

/// Sample `/healthz` every 500ms until told to stop, tracking the peak
/// `age_secs` and the worst status word.
fn healthz_loop(addr: &str, stop: &AtomicBool) -> HealthzTally {
    let mut tally = HealthzTally {
        worst: "ok".to_string(),
        ..HealthzTally::default()
    };
    let rank = |s: &str| match s {
        "ok" => 0,
        "stale" => 1,
        _ => 2,
    };
    loop {
        match oneshot(addr, b"GET /healthz HTTP/1.0\r\n\r\n") {
            Ok(body) => {
                // Body shape: "{status} generation=G age_secs=A".
                let status = body.split_whitespace().next().unwrap_or("").to_string();
                let age = body
                    .split_whitespace()
                    .find_map(|w| w.strip_prefix("age_secs="))
                    .and_then(|v| v.parse::<u64>().ok());
                match age {
                    Some(age) => {
                        tally.samples += 1;
                        tally.max_age_secs = tally.max_age_secs.max(age);
                        if status == "degraded" {
                            tally.degraded_samples += 1;
                        }
                        if rank(&status) > rank(&tally.worst) {
                            tally.worst = status;
                        }
                    }
                    None => {
                        tally.error = Some(format!("healthz body lacks age_secs: {body:?}"));
                        break;
                    }
                }
            }
            Err(e) => {
                tally.error = Some(e);
                break;
            }
        }
        // Sleep in short slices so shutdown is prompt.
        for _ in 0..25 {
            if stop.load(Ordering::Relaxed) {
                return tally;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        if stop.load(Ordering::Relaxed) {
            return tally;
        }
    }
    tally
}

struct ClientTally {
    lookups: u64,
    requests: u64,
    forecast_requests: u64,
    connects: u64,
    latencies_micros: Vec<f64>,
    error: Option<String>,
}

/// Per-client workload knobs, shared by every client thread.
#[derive(Clone, Copy)]
struct Workload {
    batch: usize,
    forecast_share: f64,
    binary: bool,
    keepalive: bool,
    reconnect_every: u64,
    /// Open-loop schedule: requests/sec for THIS client (0 = closed
    /// loop, fire as fast as answers come back).
    rate_per_client: f64,
}

/// Dotted-quad an IP for the text endpoints.
fn quad(ip: u32) -> String {
    format!(
        "{}.{}.{}.{}",
        ip >> 24,
        (ip >> 16) & 255,
        (ip >> 8) & 255,
        ip & 255
    )
}

/// Build the next request. Returns (bytes, ips answered, is-forecast).
fn build_request(w: &Workload, ips: &mut IpStream) -> (Vec<u8>, u64, bool) {
    let version = if w.keepalive { "HTTP/1.1" } else { "HTTP/1.0" };
    // Deterministic per-request coin flip for the /forecast mix,
    // drawn from the same xorshift stream as the addresses.
    let forecast_turn =
        w.forecast_share > 0.0 && (ips.next_ip() as f64) < w.forecast_share * u32::MAX as f64;
    if forecast_turn {
        let ip = ips.next_ip();
        return (
            format!("GET /forecast?ip={} {version}\r\n\r\n", quad(ip)).into_bytes(),
            1,
            true,
        );
    }
    if w.binary {
        let mut body = Vec::with_capacity(4 + 4 * w.batch);
        body.extend_from_slice(&(w.batch as u32).to_be_bytes());
        for _ in 0..w.batch {
            body.extend_from_slice(&ips.next_ip().to_be_bytes());
        }
        let mut req = format!(
            "POST /batch-bin {version}\r\nContent-Type: application/octet-stream\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        req.extend_from_slice(&body);
        return (req, w.batch as u64, false);
    }
    if w.batch <= 1 {
        let ip = ips.next_ip();
        return (
            format!("GET /lookup?ip={} {version}\r\n\r\n", quad(ip)).into_bytes(),
            1,
            false,
        );
    }
    let mut body = String::with_capacity(w.batch * 16);
    for _ in 0..w.batch {
        body.push_str(&quad(ips.next_ip()));
        body.push('\n');
    }
    (
        format!(
            "POST /batch {version}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes(),
        w.batch as u64,
        false,
    )
}

/// Sanity-check a /batch-bin response frame: generation + count + one
/// verdict byte per address.
fn check_binary_response(body: &[u8], batch: usize) -> Result<(), String> {
    if body.len() < 8 {
        return Err(format!(
            "batch-bin response too short: {} bytes",
            body.len()
        ));
    }
    let count = u32::from_be_bytes([body[4], body[5], body[6], body[7]]) as usize;
    if count != batch || body.len() != 8 + count {
        return Err(format!(
            "batch-bin frame mismatch: sent {batch}, response claims {count} in {} bytes",
            body.len()
        ));
    }
    Ok(())
}

fn client_loop(addr: &str, w: Workload, seed: u32, stop: &AtomicBool) -> ClientTally {
    let mut ips = IpStream(seed | 1);
    let mut client = HttpClient::new(addr, w.keepalive, w.reconnect_every);
    let mut tally = ClientTally {
        lookups: 0,
        requests: 0,
        forecast_requests: 0,
        connects: 0,
        latencies_micros: Vec::new(),
        error: None,
    };
    let interval =
        (w.rate_per_client > 0.0).then(|| Duration::from_secs_f64(1.0 / w.rate_per_client));
    let mut next_due = Instant::now();
    'run: while !stop.load(Ordering::Relaxed) {
        // Open loop: wait for the scheduled slot (in short slices so
        // shutdown is prompt), then time from the SCHEDULED start so
        // server backlog shows up as latency. Closed loop: now is the
        // schedule.
        let scheduled = match interval {
            Some(dt) => {
                loop {
                    let now = Instant::now();
                    if now >= next_due {
                        break;
                    }
                    std::thread::sleep((next_due - now).min(Duration::from_millis(20)));
                    if stop.load(Ordering::Relaxed) {
                        break 'run;
                    }
                }
                let s = next_due;
                next_due += dt;
                s
            }
            None => Instant::now(),
        };
        let (request, ips_in_request, forecast_turn) = build_request(&w, &mut ips);
        match client.request(&request) {
            Ok(body) => {
                if w.binary && !forecast_turn {
                    if let Err(e) = check_binary_response(&body, w.batch) {
                        tally.error = Some(e);
                        break;
                    }
                }
                tally
                    .latencies_micros
                    .push(scheduled.elapsed().as_micros() as f64);
                tally.requests += 1;
                tally.lookups += ips_in_request;
                if forecast_turn {
                    tally.forecast_requests += 1;
                }
            }
            Err(e) => {
                tally.error = Some(e);
                break;
            }
        }
    }
    tally.connects = client.connects;
    tally
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) if msg.is_empty() => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // Self-host when asked: an in-process daemon on an ephemeral port.
    let hosted = match &args.blocklist {
        Some(list) => {
            let mut config = unclean_serve::ServeConfig::new(list);
            config.core.threads = args.clients.max(4);
            config.core.trace_sample = args.trace_sample;
            config.forecast = args.forecast.as_ref().map(std::path::PathBuf::from);
            match unclean_serve::Server::start(config, unclean_telemetry::Registry::full()) {
                Ok(server) => Some(server),
                Err(e) => {
                    eprintln!("error: cannot self-host from {list}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        None => None,
    };
    let addr = match (&hosted, &args.addr) {
        (Some(server), _) => server.local_addr().to_string(),
        (None, Some(addr)) => addr.clone(),
        (None, None) => unreachable!("parse_args enforces one of the two"),
    };

    let forecast_share = if args.endpoint == "/forecast" {
        args.forecast_share
    } else {
        0.0
    };
    let workload = Workload {
        batch: args.batch,
        forecast_share,
        binary: args.binary,
        keepalive: !args.no_keepalive,
        reconnect_every: args.reconnect_every,
        rate_per_client: args.rate / args.clients as f64,
    };
    println!(
        "loadgen: {} client(s) x {}s against http://{addr} ({} ips/request, {}{}{}{})",
        args.clients,
        args.duration.as_secs_f64(),
        args.batch,
        if workload.keepalive {
            "keep-alive"
        } else {
            "connect-per-request"
        },
        if args.binary {
            ", /batch-bin binary"
        } else {
            ""
        },
        if args.rate > 0.0 {
            format!(", open-loop {} req/s", args.rate)
        } else {
            String::new()
        },
        if forecast_share > 0.0 {
            format!(", {:.0}% /forecast mix", forecast_share * 100.0)
        } else {
            String::new()
        }
    );

    let stop = Arc::new(AtomicBool::new(false));
    let t0 = Instant::now();
    let clients: Vec<_> = (0..args.clients)
        .map(|i| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || client_loop(&addr, workload, 0x9e37 + i as u32, &stop))
        })
        .collect();
    let poller = args.healthz_poll.then(|| {
        let addr = addr.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || healthz_loop(&addr, &stop))
    });
    std::thread::sleep(args.duration);
    stop.store(true, Ordering::Relaxed);
    let tallies: Vec<ClientTally> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();
    let health = poller.map(|p| p.join().expect("healthz poller"));
    let elapsed = t0.elapsed().as_secs_f64();

    if let Some(server) = hosted {
        let registry = server.registry().clone();
        // Graceful stop of the self-hosted daemon.
        let _ = oneshot(&addr, b"POST /quit HTTP/1.0\r\nContent-Length: 0\r\n\r\n");
        server.wait();
        let dropped = registry.counter_value("conns.dropped");
        if dropped > 0 {
            eprintln!("warning: daemon dropped {dropped} connection(s) under load");
        }
    }

    for tally in &tallies {
        if let Some(e) = &tally.error {
            eprintln!("error: client failed mid-run: {e}");
            return ExitCode::FAILURE;
        }
    }

    let lookups: u64 = tallies.iter().map(|t| t.lookups).sum();
    let requests: u64 = tallies.iter().map(|t| t.requests).sum();
    let forecast_requests: u64 = tallies.iter().map(|t| t.forecast_requests).sum();
    let connects: u64 = tallies.iter().map(|t| t.connects).sum();
    let reconnects = connects.saturating_sub(args.clients as u64);
    let mut latencies: Vec<f64> = tallies
        .iter()
        .flat_map(|t| t.latencies_micros.iter().copied())
        .collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let throughput = lookups as f64 / elapsed;

    println!("  lookups:    {lookups} ({requests} requests) in {elapsed:.2}s");
    if forecast_requests > 0 {
        println!(
            "  mix:        {forecast_requests} /forecast requests ({:.1}% of requests)",
            100.0 * forecast_requests as f64 / requests.max(1) as f64
        );
    }
    println!("  throughput: {throughput:.0} lookups/sec");
    println!("  conns:      {connects} connect(s), {reconnects} reconnect(s)");
    if latencies.is_empty() {
        println!("  latency:    no completed requests");
    } else {
        println!(
            "  latency:    p50 {:.0}us  p90 {:.0}us  p99 {:.0}us  p999 {:.0}us  max {:.0}us (per request)",
            quantile_sorted(&latencies, 0.50),
            quantile_sorted(&latencies, 0.90),
            quantile_sorted(&latencies, 0.99),
            quantile_sorted(&latencies, 0.999),
            latencies.last().copied().unwrap_or(0.0),
        );
    }

    if let Some(health) = &health {
        if let Some(e) = &health.error {
            eprintln!("error: healthz poller failed mid-run: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "  staleness:  {} healthz sample(s), peak age {}s, worst status {} \
             ({} degraded)",
            health.samples, health.max_age_secs, health.worst, health.degraded_samples
        );
    }

    let q = |p: f64| -> f64 {
        if latencies.is_empty() {
            0.0
        } else {
            quantile_sorted(&latencies, p)
        }
    };

    if let Some(path) = &args.json {
        let report = serde_json::json!({
            "benchmark": "serve-loadgen",
            "addr": addr.as_str(),
            "self_hosted": args.blocklist.is_some(),
            "clients": args.clients,
            "batch": args.batch,
            "endpoint": args.endpoint.as_str(),
            "keepalive": !args.no_keepalive,
            "binary": args.binary,
            "rate_target_rps": args.rate,
            "reconnect_every": args.reconnect_every,
            "forecast_share": forecast_share,
            "forecast_requests": forecast_requests,
            "trace_sample": args.trace_sample,
            "duration_secs": args.duration.as_secs_f64(),
            "elapsed_secs": elapsed,
            "lookups": lookups,
            "requests": requests,
            "connects": connects,
            "reconnects": reconnects,
            "throughput_lookups_per_sec": throughput,
            "latency_micros": {
                "p50": q(0.50),
                "p90": q(0.90),
                "p99": q(0.99),
                "p999": q(0.999),
                "max": latencies.last().copied().unwrap_or(0.0),
            },
        });
        let body = serde_json::to_string(&report).unwrap_or_default();
        if let Err(e) = std::fs::write(path, format!("{body}\n")) {
            eprintln!("error: cannot write --json {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("  json:       wrote {path}");
    }

    if let Some(floor) = args.min_throughput {
        if throughput < floor {
            eprintln!("error: throughput {throughput:.0} < required {floor:.0} lookups/sec");
            return ExitCode::FAILURE;
        }
        println!("  gate:       >= {floor:.0} lookups/sec OK");
    }
    if let Some(bound) = args.max_p999_micros {
        if latencies.is_empty() {
            eprintln!("error: p999 gate got zero completed requests");
            return ExitCode::FAILURE;
        }
        let p999 = q(0.999);
        if p999 > bound {
            eprintln!("error: p999 latency {p999:.0}us > bound {bound:.0}us");
            return ExitCode::FAILURE;
        }
        println!("  gate:       p999 <= {bound:.0}us OK");
    }
    if let Some(bound) = args.max_staleness_secs {
        let health = health.as_ref().expect("parse_args ties the flags together");
        if health.samples == 0 {
            eprintln!("error: staleness gate got zero healthz samples");
            return ExitCode::FAILURE;
        }
        if health.max_age_secs > bound || health.degraded_samples > 0 {
            eprintln!(
                "error: staleness gate: peak generation age {}s (bound {}s), {} degraded sample(s)",
                health.max_age_secs, bound, health.degraded_samples
            );
            return ExitCode::FAILURE;
        }
        println!("  gate:       generation age <= {bound}s OK");
    }
    ExitCode::SUCCESS
}
