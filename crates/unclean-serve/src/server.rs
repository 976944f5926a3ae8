//! The HTTP daemon core, and the blocklist daemon that runs on it.
//!
//! The core is N shard threads, each owning a listening socket
//! (SO_REUSEPORT on Linux — see [`crate::poll`]), a private epoll/poll
//! event loop and the nonblocking keep-alive connections it accepted,
//! plus one housekeeping thread. [`Server::run`] starts it for any
//! [`Daemon`]: `unclean serve` runs the [`Blocklist`] on it, and `unclean
//! ingest` runs its control port on it with one shard.
//!
//! There is no async runtime: the workspace is offline/vendored and a
//! frozen-trie lookup is sub-microsecond, so the hot path is parse →
//! lookup → serialize on the shard's own thread, with no cross-thread
//! handoff. Requests parse incrementally off per-connection input
//! buffers ([`crate::http::parse_request`]), so HTTP/1.1 keep-alive and
//! pipelining cost nothing extra; responses accumulate in per-connection
//! output buffers flushed as the socket allows. A client that stalls
//! mid-request holds only its own buffer, never a shard. Backpressure is
//! explicit at both ends: a shard past its connection share answers
//! `503` immediately (counted on `conns.dropped`) instead of queueing
//! unboundedly, and a connection whose output buffer passes the high
//! water mark stops being read until it drains.
//!
//! Endpoints (HTTP/1.0 close-per-request and HTTP/1.1 keep-alive both
//! honored). Every daemon gets the operator endpoints from the core:
//!
//! | endpoint | answer |
//! |---|---|
//! | `GET /healthz` | `ok\|stale\|degraded generation=G age_secs=A` |
//! | `GET /metrics` | Prometheus text exposition (`unclean_serve_*`, `unclean_ingest_*`) |
//! | `GET /metrics/history` | JSON: the flight recorder's samples (404 when disabled) |
//! | `GET /trace` | Chrome trace JSON; `?format=events` for the raw ring events |
//! | `POST /quit` | the daemon's own stop: the blocklist daemon answers `shutting down`, drains in-flight requests and exits; ingest answers `draining` |
//!
//! The blocklist daemon adds:
//!
//! | endpoint | answer |
//! |---|---|
//! | `GET /lookup?ip=a.b.c.d` | JSON: blocked?, matched CIDR, prefix length, score, generation |
//! | `POST /batch` | newline-delimited IPs in, one text verdict per line out |
//! | `POST /batch-bin` | length-prefixed binary IPs in, one verdict byte each out (see below) |
//! | `GET /forecast?net=a.b.0.0/16&horizon=N` | JSON: predicted rate, CI, score half-life (404 unless `--forecast` artifact configured) |
//! | `GET /snapshot` | JSON: generation, block count, build time, source |
//! | `POST /reload` | rebuild the snapshot now; JSON: new generation |
//!
//! **The binary batch protocol.** `POST /batch-bin` is the bulk path
//! for consumers that need millions of verdicts per second and do not
//! want to pay text formatting: the body is a `u32` big-endian count
//! followed by that many `u32` big-endian IPv4 addresses; the response
//! body is a `u32` BE serving generation, a `u32` BE count, then one
//! verdict byte per address (`0` = clean, else matched prefix length
//! plus one). With `?detail=1` the response appends one `u32` BE
//! matched CIDR base per address (`0` for clean) so clients can
//! reconstruct the full match without a text round-trip.
//! [`decode_batch_bin`] checks the frame with arithmetic that cannot
//! overflow before anything is allocated for it. Both batch endpoints
//! answer through [`FrozenTrie::lookup_batch`], [`LANES`] addresses at a
//! time from a stack buffer, so a request holds nothing beyond its body
//! and its response; the lockstep walks overlap their cache misses on
//! lists far larger than cache. `/lookup` takes the one-walk
//! [`FrozenTrie::lookup`]. The answers are the same either way.
//!
//! **Degraded-mode serving.** A live deployment is fed by the ingest
//! daemon's rescore loop; if that loop stalls, the trie keeps answering
//! from the last good generation — availability is never sacrificed to
//! freshness. What changes is *honesty about staleness*: the
//! housekeeping thread refreshes the daemon's generation age gauge
//! (`generation_age_secs` here, `rescore.age_secs` in ingest) every
//! 500 ms, and `/healthz` reports `stale` (200 — a warning) past
//! `stale_after` and `degraded` (503 — take me out of rotation) past
//! `degraded_after`, while `/lookup` and `/batch` answer normally
//! throughout. With no thresholds configured the health is always `ok`.

use crate::http::{respond, write_response, Request, Version};
use crate::snapshot::{build_snapshot, Artifact, GenerationStore, ServeError, Snapshot};
use serde::Serialize;
use std::fmt::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use unclean_core::frozen::{FrozenTrie, LANES};
use unclean_core::prelude::Ip;
use unclean_forecast::ForecastArtifact;
use unclean_telemetry::{
    chrome_trace_json, prom, Counter, Gauge, Histogram, MetricsHistory, Registry, TraceEvent,
    TraceKind, TraceRing,
};

#[cfg(unix)]
use crate::http::{parse_request, HttpError, Parse};
use crate::poll;
#[cfg(unix)]
use std::collections::HashMap;
#[cfg(unix)]
use std::io::{Read as _, Write as _};
#[cfg(unix)]
use std::os::unix::io::AsRawFd;

/// Compile-time build identity for `{namespace}_build_info` (the CI
/// build exports `UNCLEAN_GIT_SHA`; local builds say "unreleased").
const GIT_SHA: &str = match option_env!("UNCLEAN_GIT_SHA") {
    Some(sha) => sha,
    None => "unreleased",
};

fn unix_ms_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

/// Time since `unix_ms`. Wall clocks can step backwards; a future-dated
/// build reads as age zero rather than underflowing.
fn age_since(unix_ms: u64) -> Duration {
    Duration::from_millis(unix_ms_now().saturating_sub(unix_ms))
}

/// The HTTP core's settings, whichever daemon it runs.
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Shard threads; each owns a listening socket and an event loop.
    pub threads: usize,
    /// Total concurrent-connection budget, split evenly across shards;
    /// connections beyond a shard's share get `503`.
    pub max_conns: usize,
    /// Per-connection idle timeout (keep-alive connections quiet for
    /// longer are closed; also the blocking-path socket read timeout).
    pub read_timeout: Duration,
    /// Generation age past which `/healthz` answers `stale` (still 200).
    /// `None` disables staleness tracking in the health answer.
    pub stale_after: Option<Duration>,
    /// Generation age past which `/healthz` answers `degraded` with 503
    /// (the daemon keeps answering from the last good generation).
    pub degraded_after: Option<Duration>,
    /// Head-sample one request in N for stage tracing (`0` disables
    /// request sampling entirely; unsampled requests pay one branch).
    pub trace_sample: u64,
    /// Trace-event ring capacity (`0`: no ring — `/trace` serves span
    /// aggregates only and reloads go unrecorded).
    pub trace_events: usize,
    /// Flight-recorder sampling cadence for `/metrics/history` (`None`
    /// disables the recorder and the endpoint answers 404).
    pub history_interval: Option<Duration>,
    /// Close a keep-alive connection after this many requests, so churn
    /// (and its metrics) cannot be starved by immortal connections.
    pub max_requests_per_conn: u64,
}

impl CoreConfig {
    /// Defaults on `addr`: 4 shards, 1024 connections, 5 s idle timeout,
    /// no health thresholds; tracing ring installed (4096 events) but
    /// request sampling off; flight recorder every 2 s.
    pub fn new(addr: impl Into<String>) -> CoreConfig {
        CoreConfig {
            addr: addr.into(),
            threads: 4,
            max_conns: 1024,
            read_timeout: Duration::from_secs(5),
            stale_after: None,
            degraded_after: None,
            trace_sample: 0,
            trace_events: 4096,
            history_interval: Some(Duration::from_secs(2)),
            max_requests_per_conn: 100_000,
        }
    }
}

/// The blocklist daemon's configuration (the CLI's `unclean serve` flags
/// map onto this).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The blocklist file to serve: plain or scored text, or a frozen
    /// snapshot written by `unclean blocklist freeze` (detected by
    /// magic), which is memory-mapped for O(1) start.
    pub source: PathBuf,
    /// An optional forecast artifact (written by `unclean forecast
    /// fit`); enables `GET /forecast`, hot-reloaded through the same
    /// watch/reload paths as the blocklist.
    pub forecast: Option<PathBuf>,
    /// Poll interval for source-file changes (`None`: no watcher; reloads
    /// only via `POST /reload`). `unclean serve --watch` sets
    /// [`WATCH_POLL`].
    pub watch: Option<Duration>,
    /// Listener, health, tracing and flight-recorder settings.
    pub core: CoreConfig,
}

impl ServeConfig {
    /// Defaults: an ephemeral localhost port and [`CoreConfig::new`]'s
    /// settings; no watcher.
    pub fn new(source: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            source: source.into(),
            forecast: None,
            watch: None,
            core: CoreConfig::new("127.0.0.1:0"),
        }
    }
}

/// How often `unclean serve --watch` checks its files for a new
/// generation: one `stat` per file per poll. Well under `unclean
/// ingest`'s publish cadence (2 s by default), so a republish is served
/// within about this long of landing, whatever the phase between the
/// publisher's timer and this one.
pub const WATCH_POLL: Duration = Duration::from_millis(100);

/// How many flight-recorder samples `/metrics/history` retains (at the
/// default 2 s cadence: ten minutes of rate history).
const HISTORY_SAMPLES: usize = 300;

/// How often the housekeeping thread refreshes the generation age gauge.
const AGE_REFRESH: Duration = Duration::from_millis(500);

/// The longest a background thread sleeps before checking the shutdown
/// flag again.
const SLEEP_SLICE: Duration = Duration::from_millis(50);

/// The shard event loop's poll timeout: also the worst-case delay for a
/// shard to observe the shutdown flag without being woken.
#[cfg(unix)]
const POLL_TIMEOUT_MS: i32 = 100;

/// Event-loop token reserved for the shard's listener.
#[cfg(unix)]
const TOKEN_LISTENER: u64 = 0;

/// Stop reading a connection whose unflushed output passes this mark;
/// reads resume when the socket drains.
#[cfg(unix)]
const OUT_HIGH_WATER: usize = 1 << 20;

/// The three health states `/healthz` can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Health {
    /// Generation fresh (or staleness tracking disabled).
    Ok,
    /// Generation older than `stale_after`; still serving, still 200.
    Stale,
    /// Generation older than `degraded_after`; serving continues but
    /// `/healthz` answers 503 so balancers rotate the instance out.
    Degraded,
}

impl Health {
    /// Classify a generation age against the configured thresholds.
    pub fn of(age: Duration, stale: Option<Duration>, degraded: Option<Duration>) -> Health {
        if degraded.is_some_and(|d| age >= d) {
            Health::Degraded
        } else if stale.is_some_and(|s| age >= s) {
            Health::Stale
        } else {
            Health::Ok
        }
    }

    /// The `/healthz` status word.
    pub fn as_str(self) -> &'static str {
        match self {
            Health::Ok => "ok",
            Health::Stale => "stale",
            Health::Degraded => "degraded",
        }
    }
}

/// What one daemon adds to the HTTP core: its routes beyond the operator
/// endpoints, its `POST /quit`, and the generation whose age `/healthz`
/// reports. The core answers `/healthz`, `/metrics`, `/metrics/history`
/// and `/trace` the same way for every implementor.
pub trait Daemon: Send + Sync + 'static {
    /// The process name in `/trace`; with `-` as `_`, the `/metrics`
    /// namespace (`unclean-serve` exports `unclean_serve_*`).
    const NAME: &'static str;

    /// The generation being answered from and its age. Also refreshes
    /// the daemon's age gauge, which the housekeeping thread does every
    /// 500 ms so the gauge moves with no scrape.
    fn freshness(&self) -> (u64, Duration);

    /// Answer a request the core has no route for; `None` is a 404.
    /// `trace` is `Some` on head-sampled requests, for the lookup stage.
    fn route(&self, request: &Request, trace: Option<&mut StageTrace>) -> Option<Response>;

    /// Act on `POST /quit`: returns the answer body and whether the core
    /// shuts down once that answer is written.
    fn quit(&self) -> (&'static str, bool);
}

/// The core's instrument handles — resolved once, recorded lock-free on
/// the hot path. All series are declared at startup so a clean run
/// exports explicit zeros (the CI gate asserts `conns.dropped == 0`).
struct Metrics {
    requests: Counter,
    healthz: Counter,
    metrics_req: Counter,
    trace_req: Counter,
    history_req: Counter,
    quit: Counter,
    not_found: Counter,
    accepted: Counter,
    dropped: Counter,
    read_errors: Counter,
    sampled: Counter,
    latency_micros: Histogram,
    stage_parse_ns: Histogram,
    stage_lookup_ns: Histogram,
    stage_write_ns: Histogram,
}

impl Metrics {
    fn new(registry: &Registry) -> Metrics {
        Metrics {
            requests: registry.counter("requests"),
            healthz: registry.counter("requests.healthz"),
            metrics_req: registry.counter("requests.metrics"),
            trace_req: registry.counter("requests.trace"),
            history_req: registry.counter("requests.history"),
            quit: registry.counter("requests.quit"),
            not_found: registry.counter("responses.not_found"),
            accepted: registry.counter("conns.accepted"),
            dropped: registry.counter("conns.dropped"),
            read_errors: registry.counter("conns.read_errors"),
            sampled: registry.counter("trace.sampled_requests"),
            latency_micros: registry.histogram("request_micros"),
            stage_parse_ns: registry.histogram("stage_ns.parse"),
            stage_lookup_ns: registry.histogram("stage_ns.lookup"),
            stage_write_ns: registry.histogram("stage_ns.write"),
        }
    }
}

struct Shared<D> {
    daemon: D,
    registry: Registry,
    metrics: Metrics,
    shutdown: AtomicBool,
    addr: SocketAddr,
    config: CoreConfig,
    // Tracing: the ring Arc is cached here so sampled requests never pay
    // the registry's trace-slot mutex.
    trace: Option<Arc<TraceRing>>,
    sample_counter: AtomicU64,
    history: Option<MetricsHistory>,
    start_unix_secs: f64,
}

impl<D: Daemon> Shared<D> {
    /// Classify the daemon's generation age against the thresholds.
    fn health(&self) -> (Health, u64, Duration) {
        let (generation, age) = self.daemon.freshness();
        (
            Health::of(age, self.config.stale_after, self.config.degraded_after),
            generation,
            age,
        )
    }

    fn initiate_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Shards notice the flag within one poll timeout; a throwaway
        // connection wakes at least one immediately (with SO_REUSEPORT
        // the kernel picks which).
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
    }
}

/// A running daemon: the HTTP core's threads around one [`Daemon`].
/// Dropping the handle does **not** stop it — call [`Server::shutdown`]
/// (or send `POST /quit` and [`Server::wait`]).
pub struct Server<D = Blocklist> {
    shared: Arc<Shared<D>>,
    threads: Vec<JoinHandle<()>>,
}

impl<D: Daemon> Server<D> {
    /// Run the HTTP core for `daemon`: install the trace ring, bind the
    /// shard listeners, and spawn the shard event loops and the
    /// housekeeping thread.
    pub fn run(daemon: D, config: CoreConfig, registry: Registry) -> Result<Server<D>, ServeError> {
        let trace = match config.trace_events {
            0 => None,
            events => registry.install_trace(events),
        };
        let (listeners, addr) = poll::shard_listeners(&config.addr, config.threads)?;
        let conn_limit = (config.max_conns.max(1) / listeners.len()).max(1);
        let shared = Arc::new(Shared {
            daemon,
            metrics: Metrics::new(&registry),
            registry,
            shutdown: AtomicBool::new(false),
            addr,
            trace,
            sample_counter: AtomicU64::new(0),
            history: config
                .history_interval
                .map(|_| MetricsHistory::new(HISTORY_SAMPLES)),
            start_unix_secs: unix_ms_now() as f64 / 1000.0,
            config,
        });
        let mut server = Server {
            shared,
            threads: Vec::new(),
        };
        for (i, listener) in listeners.into_iter().enumerate() {
            server.spawn(&format!("shard-{i}"), move |shared| {
                shard_loop(shared, listener, conn_limit)
            })?;
        }
        server.spawn("housekeeping", housekeeping_loop)?;
        Ok(server)
    }

    /// Run `body` on a named thread of the daemon; [`Server::wait`]
    /// joins it.
    fn spawn(
        &mut self,
        name: &str,
        body: impl FnOnce(&Shared<D>) + Send + 'static,
    ) -> Result<(), ServeError> {
        let shared = Arc::clone(&self.shared);
        let thread = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || body(&shared))?;
        self.threads.push(thread);
        Ok(())
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The telemetry registry the daemon records into.
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// The daemon the core answers for.
    pub fn daemon(&self) -> &D {
        &self.shared.daemon
    }

    /// Initiate graceful shutdown and wait: stop accepting, flush
    /// buffered responses, join every thread.
    pub fn shutdown(self) {
        self.shared.initiate_shutdown();
        self.wait();
    }

    /// Wait for the daemon to stop (e.g. a client sent `POST /quit`).
    /// In-flight requests finish before this returns.
    pub fn wait(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Per-request stage timings collected only on head-sampled requests.
/// The unsampled hot path never constructs one — it pays a single
/// `trace_sample > 0` branch plus one relaxed counter increment.
pub struct StageTrace {
    parse_ns: u64,
    lookup_ns: u64,
    write_ns: u64,
    generation: u64,
    source_generation: Option<u64>,
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// One routed response, serialized by the core into the connection's
/// output buffer.
pub struct Response {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    body: Vec<u8>,
    /// Shut the core down once this answer is written.
    quit: bool,
}

impl Response {
    /// A `text/plain` answer.
    pub(crate) fn text(status: u16, reason: &'static str, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            reason,
            content_type: "text/plain",
            body: body.into(),
            quit: false,
        }
    }

    /// A `200 OK` answer of `content_type`.
    pub fn ok_with(content_type: &'static str, body: Vec<u8>) -> Response {
        Response {
            status: 200,
            reason: "OK",
            content_type,
            body,
            quit: false,
        }
    }

    /// A `200 OK` JSON answer (500 if `value` does not serialize).
    pub(crate) fn json<T: Serialize>(value: &T) -> Response {
        match serde_json::to_string(value) {
            Ok(body) => Response::ok_with("application/json", body.into_bytes()),
            Err(e) => Response::text(500, "Internal Server Error", format!("serialize: {e}\n")),
        }
    }
}

/// Route one parsed request and serialize its response into `out`;
/// returns whether the connection stays open for the next request.
/// This is the whole per-request hot path: metrics, optional stage
/// sampling, routing, serialization, latency accounting.
fn dispatch<D: Daemon>(
    shared: &Shared<D>,
    request: &Request,
    parse_ns: u64,
    out: &mut Vec<u8>,
) -> bool {
    shared.metrics.requests.inc();
    let t0 = Instant::now();
    // Head-sampling: 1 request in N, decided on a relaxed shared
    // counter, whatever the request turns out to ask for.
    let every = shared.config.trace_sample;
    let mut stages = (every > 0
        && shared
            .sample_counter
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(every))
    .then_some(StageTrace {
        parse_ns,
        lookup_ns: 0,
        write_ns: 0,
        generation: 0,
        source_generation: None,
    });
    let response = route(shared, request, stages.as_mut());
    let keep_alive = request.keep_alive && !response.quit;
    let t_write = stages.is_some().then(Instant::now);
    write_response(
        out,
        request.version,
        response.status,
        response.reason,
        response.content_type,
        keep_alive,
        &response.body,
    );
    if let (Some(stages), Some(t_write)) = (&mut stages, t_write) {
        stages.write_ns = elapsed_ns(t_write);
        record_sampled_request(shared, request, stages, parse_ns + elapsed_ns(t0));
    }
    shared
        .metrics
        .latency_micros
        .record((parse_ns + elapsed_ns(t0)) / 1000);
    if response.quit {
        shared.initiate_shutdown();
    }
    keep_alive
}

/// Book a sampled request into the per-stage histograms and the trace
/// ring (a [`TraceKind::Lookup`] event whose generation ids chain the
/// request back to the ingest lineage).
fn record_sampled_request<D>(
    shared: &Shared<D>,
    request: &Request,
    stages: &StageTrace,
    total_ns: u64,
) {
    shared.metrics.sampled.inc();
    shared.metrics.stage_parse_ns.record(stages.parse_ns);
    shared.metrics.stage_lookup_ns.record(stages.lookup_ns);
    shared.metrics.stage_write_ns.record(stages.write_ns);
    let Some(ring) = &shared.trace else { return };
    let mut event = TraceEvent::now(TraceKind::Lookup)
        .dur_ns(total_ns)
        .field("path", &request.path)
        .field("parse_ns", stages.parse_ns)
        .field("lookup_ns", stages.lookup_ns)
        .field("write_ns", stages.write_ns);
    if stages.generation > 0 {
        event = event.generation(stages.generation);
    }
    if let Some(source_generation) = stages.source_generation {
        event = event.source_generation(source_generation);
    }
    ring.record(event);
}

#[derive(Serialize)]
struct TraceAnswer {
    events: Vec<TraceEvent>,
}

#[derive(Serialize)]
struct HistoryAnswer {
    interval_secs: f64,
    samples: Vec<unclean_telemetry::HistorySample>,
}

/// The core's routes: the operator endpoints every daemon answers the
/// same way, then the daemon's own, then 404.
fn route<D: Daemon>(
    shared: &Shared<D>,
    request: &Request,
    trace: Option<&mut StageTrace>,
) -> Response {
    let metrics = &shared.metrics;
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            metrics.healthz.inc();
            let (health, generation, age) = shared.health();
            let body = format!(
                "{} generation={generation} age_secs={}\n",
                health.as_str(),
                age.as_secs()
            );
            let (code, reason) = match health {
                Health::Ok | Health::Stale => (200, "OK"),
                Health::Degraded => (503, "Service Unavailable"),
            };
            Response::text(code, reason, body)
        }
        ("GET", "/metrics") => {
            metrics.metrics_req.inc();
            // The age gauge in the exposition agrees with `/healthz`.
            shared.health();
            let mut text = prom::render(&shared.registry.snapshot(), D::NAME);
            text.push_str(&prom::build_info(
                D::NAME,
                env!("CARGO_PKG_VERSION"),
                GIT_SHA,
                shared.start_unix_secs,
            ));
            Response::ok_with("text/plain; version=0.0.4", text.into_bytes())
        }
        ("GET", "/metrics/history") => {
            metrics.history_req.inc();
            match &shared.history {
                Some(history) => Response::json(&HistoryAnswer {
                    interval_secs: shared
                        .config
                        .history_interval
                        .unwrap_or_default()
                        .as_secs_f64(),
                    samples: history.samples(),
                }),
                None => Response::text(404, "Not Found", "flight recorder disabled\n"),
            }
        }
        ("GET", "/trace") => {
            metrics.trace_req.inc();
            let events = shared
                .trace
                .as_ref()
                .map(|ring| ring.events())
                .unwrap_or_default();
            if request.query_param("format") == Some("events") {
                // Machine-readable raw events (the e2e lineage walkers
                // deserialize these directly).
                Response::json(&TraceAnswer { events })
            } else {
                let body = chrome_trace_json(&shared.registry.snapshot(), &events, D::NAME);
                Response::ok_with("application/json", body.into_bytes())
            }
        }
        ("POST", "/quit") => {
            metrics.quit.inc();
            let (body, shut_down) = shared.daemon.quit();
            Response {
                quit: shut_down,
                ..Response::text(200, "OK", body)
            }
        }
        _ => shared.daemon.route(request, trace).unwrap_or_else(|| {
            metrics.not_found.inc();
            Response::text(
                404,
                "Not Found",
                format!("no such endpoint: {} {}\n", request.method, request.path),
            )
        }),
    }
}

/// The housekeeping thread: refresh the daemon's age gauge every
/// [`AGE_REFRESH`] and fold a registry snapshot into the flight recorder
/// on its interval, so both move with no request in flight. Each sample
/// carries an age refreshed just before it.
fn housekeeping_loop<D: Daemon>(shared: &Shared<D>) {
    let (mut next_refresh, mut next_sample) = (Instant::now(), Instant::now());
    while !shared.shutdown.load(Ordering::SeqCst) {
        let now = Instant::now();
        let sample = shared.history.as_ref().filter(|_| now >= next_sample);
        if now >= next_refresh || sample.is_some() {
            shared.daemon.freshness();
            next_refresh = now + AGE_REFRESH;
        }
        if let Some(history) = sample {
            history.observe(unix_ms_now(), &shared.registry.snapshot());
            next_sample = now + shared.config.history_interval.unwrap_or_default();
        }
        let wake = match shared.history {
            Some(_) => next_refresh.min(next_sample),
            None => next_refresh,
        };
        std::thread::sleep(
            wake.saturating_duration_since(Instant::now())
                .min(SLEEP_SLICE),
        );
    }
}

// ---------------------------------------------------------------------------
// The blocklist daemon
// ---------------------------------------------------------------------------

/// The blocklist daemon's request counters; each served file keeps its
/// own reload and generation series.
struct BlocklistMetrics {
    lookup: Counter,
    batch: Counter,
    batch_ips: Counter,
    batch_bin: Counter,
    batch_bin_ips: Counter,
    snapshot_req: Counter,
    reload_req: Counter,
    blocked: Counter,
    clean: Counter,
    bad_request: Counter,
    not_found: Counter,
    forecast_req: Counter,
    forecast_hits: Counter,
    forecast_misses: Counter,
    forecast_bad_request: Counter,
}

impl BlocklistMetrics {
    fn new(registry: &Registry) -> BlocklistMetrics {
        BlocklistMetrics {
            lookup: registry.counter("requests.lookup"),
            batch: registry.counter("requests.batch"),
            batch_ips: registry.counter("batch.ips"),
            batch_bin: registry.counter("requests.batch_bin"),
            batch_bin_ips: registry.counter("batch_bin.ips"),
            snapshot_req: registry.counter("requests.snapshot"),
            reload_req: registry.counter("requests.reload"),
            blocked: registry.counter("answers.blocked"),
            clean: registry.counter("answers.clean"),
            bad_request: registry.counter("responses.bad_request"),
            not_found: registry.counter("responses.not_found"),
            forecast_req: registry.counter("requests.forecast"),
            forecast_hits: registry.counter("forecast.hits"),
            forecast_misses: registry.counter("forecast.misses"),
            forecast_bad_request: registry.counter("forecast.bad_request"),
        }
    }
}

/// The names one served file reports under: its five series, and the
/// `artifact` tag its reload events carry, if any.
struct ServedNames {
    reloads: &'static str,
    reload_errors: &'static str,
    generation: &'static str,
    entries: &'static str,
    age_secs: &'static str,
    tag: Option<&'static str>,
}

const LIST_NAMES: ServedNames = ServedNames {
    reloads: "reload.count",
    reload_errors: "reload.errors",
    generation: "snapshot.generation",
    entries: "snapshot.entries",
    age_secs: "generation_age_secs",
    tag: None,
};

const FORECAST_NAMES: ServedNames = ServedNames {
    reloads: "forecast.reload.count",
    reload_errors: "forecast.reload.errors",
    generation: "forecast.generation",
    entries: "forecast.entries",
    age_secs: "forecast_generation_age_secs",
    tag: Some("forecast"),
};

/// One file the daemon serves: its generation store, its source, the
/// lock that keeps its rebuilds in order, and its series.
struct Served<A> {
    store: GenerationStore<A>,
    source: PathBuf,
    rebuild_lock: Mutex<()>,
    registry: Registry,
    tag: Option<&'static str>,
    reloads: Counter,
    reload_errors: Counter,
    generation: Gauge,
    entries: Gauge,
    age_secs: Gauge,
}

impl<A: Artifact> Served<A> {
    /// Build generation 1 of `source`. Its reload event is left to
    /// [`Server::start`], once the trace ring is installed.
    fn boot(source: &Path, names: &ServedNames, registry: &Registry) -> Result<Self, ServeError> {
        let boot = build_snapshot::<A>(source, 1, registry)?;
        let served = Served {
            source: source.to_path_buf(),
            rebuild_lock: Mutex::new(()),
            registry: registry.clone(),
            tag: names.tag,
            reloads: registry.counter(names.reloads),
            reload_errors: registry.counter(names.reload_errors),
            generation: registry.gauge(names.generation),
            entries: registry.gauge(names.entries),
            age_secs: registry.gauge(names.age_secs),
            store: GenerationStore::new(boot),
        };
        served.show(&served.store.load());
        Ok(served)
    }

    /// Set the generation and entry gauges to `snapshot`'s.
    fn show(&self, snapshot: &Snapshot<A>) {
        self.generation.set(snapshot.generation as f64);
        self.entries.set(snapshot.artifact.entries() as f64);
    }

    /// Rebuild from the source file and install. Serialized so concurrent
    /// `/reload`s and the watcher cannot install out of order; the build
    /// itself runs here, off every *other* shard's serving path.
    fn rebuild(&self) -> Result<Arc<Snapshot<A>>, ServeError> {
        let _guard = self.rebuild_lock.lock().expect("rebuild lock");
        let generation = self.store.claim_generation();
        match build_snapshot(&self.source, generation, &self.registry) {
            Ok(snapshot) => {
                self.reloads.inc();
                self.show(&snapshot);
                self.trace_reload(&snapshot);
                self.store.install(snapshot);
                Ok(self.store.load())
            }
            Err(e) => {
                self.reload_errors.inc();
                Err(e)
            }
        }
    }

    /// Record a [`TraceKind::Reload`] event carrying the serving
    /// generation and — when the file was stamped by its producer (`unclean
    /// ingest`, `unclean forecast fit`) — the upstream generation that
    /// links this reload into the producer's lineage. The forecast's
    /// events are tagged `artifact=forecast`, so lineage walks can tell
    /// the two reload streams apart.
    fn trace_reload(&self, snapshot: &Snapshot<A>) {
        let mut event = TraceEvent::now(TraceKind::Reload)
            .generation(snapshot.generation)
            .dur_ns(snapshot.build_micros.saturating_mul(1000));
        if let Some(tag) = self.tag {
            event = event.field("artifact", tag);
        }
        event = event
            .field("entries", snapshot.artifact.entries())
            .field("source", &snapshot.source);
        if let Some(source_generation) = snapshot.source_generation {
            event = event.source_generation(source_generation);
        }
        self.registry.trace_event(event);
    }

    /// The served generation and its age; refreshes the age gauge.
    fn freshness(&self) -> (u64, Duration) {
        let snapshot = self.store.load();
        let age = age_since(snapshot.built_unix_ms);
        self.age_secs.set(age.as_secs_f64());
        (snapshot.generation, age)
    }
}

/// The blocklist daemon: answers `/lookup`, `/batch`, `/batch-bin`,
/// `/snapshot` and `/reload` from the current generation of its list,
/// `/forecast` from its forecast's, and shuts down on `POST /quit`.
pub struct Blocklist {
    list: Served<FrozenTrie>,
    forecast: Option<Served<ForecastArtifact>>,
    metrics: BlocklistMetrics,
}

impl Server {
    /// Build the boot snapshots, run the core for them, and spawn the
    /// source-file watchers when configured. A bad forecast artifact
    /// fails the start: a daemon started with `--forecast` should not
    /// come up silently forecast-less.
    pub fn start(config: ServeConfig, registry: Registry) -> Result<Server, ServeError> {
        let blocklist = Blocklist {
            list: Served::boot(&config.source, &LIST_NAMES, &registry)?,
            forecast: config
                .forecast
                .as_deref()
                .map(|source| Served::boot(source, &FORECAST_NAMES, &registry))
                .transpose()?,
            metrics: BlocklistMetrics::new(&registry),
        };
        let mut server = Server::run(blocklist, config.core, registry)?;
        // The boot build is generation 1's "reload": record it so a
        // lookup served before any watcher/reload fires still has a
        // reload event to chain through.
        let blocklist = server.daemon();
        blocklist.list.trace_reload(&blocklist.list.store.load());
        if let Some(forecast) = &blocklist.forecast {
            forecast.trace_reload(&forecast.store.load());
        }
        if let Some(interval) = config.watch {
            server.watch("serve-watch", interval, config.source, |b| {
                let _ = b.list.rebuild();
            })?;
            if let Some(forecast) = config.forecast {
                server.watch("serve-watch-forecast", interval, forecast, |b| {
                    let _ = b.forecast.as_ref().map(Served::rebuild);
                })?;
            }
        }
        Ok(server)
    }

    /// Poll `source` for changes every `interval` on a thread of its own,
    /// calling `rebuild` on each — one watcher per file, so a slow
    /// forecast refit can never delay a blocklist reload.
    fn watch(
        &mut self,
        name: &str,
        interval: Duration,
        source: PathBuf,
        rebuild: fn(&Blocklist),
    ) -> Result<(), ServeError> {
        // Fingerprint the source *before* returning, so an edit made the
        // instant the server is up is still seen as a change.
        let baseline = std::fs::metadata(&source).ok().map(|m| fingerprint(&m));
        self.spawn(name, move |shared| {
            watcher_loop(shared, interval, baseline, &source, rebuild)
        })
    }

    /// The currently served generation number.
    pub fn generation(&self) -> u64 {
        self.daemon().list.store.load().generation
    }
}

#[derive(Serialize)]
struct LookupAnswer {
    ip: String,
    blocked: bool,
    cidr: Option<String>,
    n: Option<u8>,
    score: Option<f64>,
    generation: u64,
}

#[derive(Serialize)]
struct SnapshotAnswer {
    generation: u64,
    entries: usize,
    source: String,
    build_micros: u64,
    built_unix_ms: u64,
    memory_bytes: usize,
    source_generation: Option<u64>,
    source_published_unix_ms: Option<u64>,
    forecast_generation: Option<u64>,
    forecast_entries: Option<usize>,
    forecast_source: Option<String>,
    forecast_source_generation: Option<u64>,
}

#[derive(Serialize)]
struct ReloadAnswer {
    generation: u64,
    entries: usize,
    forecast_generation: Option<u64>,
    forecast_entries: Option<usize>,
}

#[derive(Serialize)]
struct ForecastAnswer {
    net: String,
    known: bool,
    horizon_days: u32,
    predicted_rate: f64,
    ci_low: f64,
    ci_high: f64,
    score_half_life: f64,
    generation: u64,
    source_generation: Option<u64>,
}

/// Check a `POST /batch-bin` request body — a `u32` big-endian count,
/// then that many `u32` big-endian addresses — and return its address
/// bytes, four per address, or the `400` text that explains why the
/// frame is malformed. The length check cannot overflow, so a count that
/// no body can hold is refused; only the error text is ever allocated.
pub fn decode_batch_bin(body: &[u8]) -> Result<&[u8], String> {
    let Some((prefix, addresses)) = body.split_first_chunk::<4>() else {
        return Err("binary batch body shorter than its count prefix\n".to_string());
    };
    let count = u32::from_be_bytes(*prefix);
    let wants = usize::try_from(count)
        .ok()
        .and_then(|n| n.checked_mul(4))
        .and_then(|n| n.checked_add(4));
    if wants != Some(body.len()) {
        return Err(format!(
            "binary batch length mismatch: count={count} wants {} body bytes, got {}\n",
            4 + 4 * u64::from(count),
            body.len()
        ));
    }
    Ok(addresses)
}

/// Answer at most [`LANES`] `/batch` lines, in line order, with one
/// [`FrozenTrie::lookup_batch`] call: `{ip} blocked {cidr} {len}
/// {score}`, `{ip} clean`, or `{line} error` for a line that is no
/// address. Counts the verdicts on `answers.blocked`/`answers.clean`.
fn answer_batch_lines(
    trie: &FrozenTrie,
    lines: &[(&str, Option<Ip>)],
    out: &mut String,
    metrics: &BlocklistMetrics,
) {
    let mut ips = [Ip(0); LANES];
    let mut n = 0;
    for (slot, ip) in ips.iter_mut().zip(lines.iter().filter_map(|&(_, ip)| ip)) {
        *slot = ip;
        n += 1;
    }
    let mut answers = [None; LANES];
    trie.lookup_batch(&ips[..n], &mut answers[..n]);
    let mut answers = answers[..n].iter();
    let (mut blocked, mut clean) = (0, 0);
    for &(line, ip) in lines {
        let Some(ip) = ip else {
            let _ = writeln!(out, "{line} error");
            continue;
        };
        match answers.next().copied().flatten() {
            Some(m) => {
                blocked += 1;
                let _ = writeln!(out, "{ip} blocked {} {} {}", m.cidr, m.cidr.len(), m.score);
            }
            None => {
                clean += 1;
                let _ = writeln!(out, "{ip} clean");
            }
        }
    }
    metrics.blocked.add(blocked);
    metrics.clean.add(clean);
}

impl Daemon for Blocklist {
    const NAME: &'static str = "unclean-serve";

    fn freshness(&self) -> (u64, Duration) {
        if let Some(forecast) = &self.forecast {
            forecast.freshness();
        }
        self.list.freshness()
    }

    fn route(&self, request: &Request, trace: Option<&mut StageTrace>) -> Option<Response> {
        let metrics = &self.metrics;
        Some(match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/lookup") => {
                metrics.lookup.inc();
                let Some(raw_ip) = request.query_param("ip") else {
                    metrics.bad_request.inc();
                    return Some(Response::text(
                        400,
                        "Bad Request",
                        "missing ip= query parameter\n",
                    ));
                };
                let Ok(ip) = raw_ip.parse::<Ip>() else {
                    metrics.bad_request.inc();
                    return Some(Response::text(
                        400,
                        "Bad Request",
                        format!("unparseable ip {raw_ip:?}\n"),
                    ));
                };
                let t_lookup = trace.as_ref().map(|_| Instant::now());
                let snapshot = self.list.store.load();
                let answer = match snapshot.artifact.lookup(ip) {
                    Some(m) => {
                        metrics.blocked.inc();
                        LookupAnswer {
                            ip: ip.to_string(),
                            blocked: true,
                            cidr: Some(m.cidr.to_string()),
                            n: Some(m.cidr.len()),
                            score: Some(m.score),
                            generation: snapshot.generation,
                        }
                    }
                    None => {
                        metrics.clean.inc();
                        LookupAnswer {
                            ip: ip.to_string(),
                            blocked: false,
                            cidr: None,
                            n: None,
                            score: None,
                            generation: snapshot.generation,
                        }
                    }
                };
                if let (Some(stages), Some(t_lookup)) = (trace, t_lookup) {
                    stages.lookup_ns = elapsed_ns(t_lookup);
                    stages.generation = snapshot.generation;
                    stages.source_generation = snapshot.source_generation;
                }
                Response::json(&answer)
            }
            ("GET", "/forecast") => {
                metrics.forecast_req.inc();
                let Some(forecast) = &self.forecast else {
                    metrics.not_found.inc();
                    return Some(Response::text(
                        404,
                        "Not Found",
                        "no forecast artifact configured (start with --forecast)\n",
                    ));
                };
                // `net=` takes a /16 CIDR or a bare address; `ip=` is an
                // alias so loadgen can reuse its lookup address stream.
                let raw_net = request
                    .query_param("net")
                    .or_else(|| request.query_param("ip"));
                let Some(raw_net) = raw_net else {
                    metrics.forecast_bad_request.inc();
                    metrics.bad_request.inc();
                    return Some(Response::text(
                        400,
                        "Bad Request",
                        "missing net= (a.b.0.0/16 or bare address) query parameter\n",
                    ));
                };
                let prefix16 = if raw_net.contains('/') {
                    match raw_net.parse::<unclean_core::Cidr>() {
                        Ok(cidr) if cidr.len() == 16 => Some(cidr.base().raw() >> 16),
                        _ => None,
                    }
                } else {
                    raw_net.parse::<Ip>().ok().map(|ip| ip.raw() >> 16)
                };
                let Some(prefix16) = prefix16 else {
                    metrics.forecast_bad_request.inc();
                    metrics.bad_request.inc();
                    return Some(Response::text(
                        400,
                        "Bad Request",
                        format!("net {raw_net:?} is not a /16 or an address\n"),
                    ));
                };
                let snapshot = forecast.store.load();
                let horizon = match request.query_param("horizon") {
                    None => snapshot.artifact.horizon_days,
                    Some(h) => match h.parse::<u32>() {
                        Ok(h) if (1..=365).contains(&h) => h,
                        _ => {
                            metrics.forecast_bad_request.inc();
                            metrics.bad_request.inc();
                            return Some(Response::text(
                                400,
                                "Bad Request",
                                format!("horizon {h:?} is not in 1..=365\n"),
                            ));
                        }
                    },
                };
                let net = format!("{}.{}.0.0/16", prefix16 >> 8, prefix16 & 0xFF);
                let answer = match snapshot.artifact.lookup(prefix16) {
                    Some(e) => {
                        metrics.forecast_hits.inc();
                        let (ci_low, ci_high) = e.ci_at(horizon, snapshot.artifact.ci_z);
                        ForecastAnswer {
                            net,
                            known: true,
                            horizon_days: horizon,
                            predicted_rate: e.rate_at(horizon),
                            ci_low,
                            ci_high,
                            score_half_life: e.score_half_life,
                            generation: snapshot.generation,
                            source_generation: snapshot.source_generation,
                        }
                    }
                    None => {
                        metrics.forecast_misses.inc();
                        ForecastAnswer {
                            net,
                            known: false,
                            horizon_days: horizon,
                            predicted_rate: 0.0,
                            ci_low: 0.0,
                            ci_high: 0.0,
                            score_half_life: 0.0,
                            generation: snapshot.generation,
                            source_generation: snapshot.source_generation,
                        }
                    }
                };
                Response::json(&answer)
            }
            ("POST", "/batch") => {
                metrics.batch.inc();
                let body = String::from_utf8_lossy(&request.body);
                let t_lookup = trace.as_ref().map(|_| Instant::now());
                let snapshot = self.list.store.load();
                let mut out = String::new();
                // Lines wait in a stack buffer and are answered each time it
                // fills, so the answers stream out in line order.
                let mut pending = [("", None); LANES];
                let (mut waiting, mut lines) = (0, 0u64);
                for line in body.lines() {
                    let line = line.trim();
                    if line.is_empty() || line.starts_with('#') {
                        continue;
                    }
                    lines += 1;
                    pending[waiting] = (line, line.parse().ok());
                    waiting += 1;
                    if waiting == LANES {
                        answer_batch_lines(&snapshot.artifact, &pending, &mut out, metrics);
                        waiting = 0;
                    }
                }
                answer_batch_lines(&snapshot.artifact, &pending[..waiting], &mut out, metrics);
                metrics.batch_ips.add(lines);
                if let (Some(stages), Some(t_lookup)) = (trace, t_lookup) {
                    stages.lookup_ns = elapsed_ns(t_lookup);
                    stages.generation = snapshot.generation;
                    stages.source_generation = snapshot.source_generation;
                }
                Response::text(200, "OK", out.into_bytes())
            }
            ("POST", "/batch-bin") => {
                metrics.batch_bin.inc();
                let addresses = match decode_batch_bin(&request.body) {
                    Ok(addresses) => addresses,
                    Err(reason) => {
                        metrics.bad_request.inc();
                        return Some(Response::text(400, "Bad Request", reason));
                    }
                };
                let count = addresses.len() / 4;
                let detail = request.query_param("detail") == Some("1");
                let t_lookup = trace.as_ref().map(|_| Instant::now());
                let snapshot = self.list.store.load();
                let mut out = vec![0; 8 + count + if detail { 4 * count } else { 0 }];
                let generation = snapshot.generation.min(u32::MAX as u64) as u32;
                out[..4].copy_from_slice(&generation.to_be_bytes());
                out[4..8].copy_from_slice(&(count as u32).to_be_bytes());
                let (verdicts, bases) = out[8..].split_at_mut(count);
                // Answer LANES addresses at a time from the stack, writing
                // each group's verdicts (and bases) straight into the reply.
                let (mut ips, mut answers) = ([Ip(0); LANES], [None; LANES]);
                let mut blocked = 0u64;
                for (group, first) in addresses.chunks(4 * LANES).zip((0..).step_by(LANES)) {
                    let n = group.len() / 4;
                    for (ip, raw) in ips.iter_mut().zip(group.chunks_exact(4)) {
                        *ip = Ip(u32::from_be_bytes([raw[0], raw[1], raw[2], raw[3]]));
                    }
                    snapshot.artifact.lookup_batch(&ips[..n], &mut answers[..n]);
                    for (i, answer) in (first..).zip(&answers[..n]) {
                        verdicts[i] = answer.map_or(0, |m| m.cidr.len() + 1);
                        if detail {
                            let base = answer.map_or(0, |m| m.cidr.base().raw());
                            bases[4 * i..4 * i + 4].copy_from_slice(&base.to_be_bytes());
                        }
                        blocked += u64::from(answer.is_some());
                    }
                }
                metrics.batch_bin_ips.add(count as u64);
                metrics.blocked.add(blocked);
                metrics.clean.add(count as u64 - blocked);
                if let (Some(stages), Some(t_lookup)) = (trace, t_lookup) {
                    stages.lookup_ns = elapsed_ns(t_lookup);
                    stages.generation = snapshot.generation;
                    stages.source_generation = snapshot.source_generation;
                }
                Response::ok_with("application/octet-stream", out)
            }
            ("GET", "/snapshot") => {
                metrics.snapshot_req.inc();
                let snapshot = self.list.store.load();
                let forecast = self.forecast.as_ref().map(|f| f.store.load());
                Response::json(&SnapshotAnswer {
                    generation: snapshot.generation,
                    entries: snapshot.artifact.len(),
                    source: snapshot.source.clone(),
                    build_micros: snapshot.build_micros,
                    built_unix_ms: snapshot.built_unix_ms,
                    memory_bytes: snapshot.artifact.memory_bytes(),
                    source_generation: snapshot.source_generation,
                    source_published_unix_ms: snapshot.source_published_unix_ms,
                    forecast_generation: forecast.as_ref().map(|f| f.generation),
                    forecast_entries: forecast.as_ref().map(|f| f.artifact.entries.len()),
                    forecast_source: forecast.as_ref().map(|f| f.source.clone()),
                    forecast_source_generation: forecast.as_ref().and_then(|f| f.source_generation),
                })
            }
            ("POST", "/reload") => {
                metrics.reload_req.inc();
                match self.list.rebuild() {
                    Ok(snapshot) => {
                        // The forecast rebuild rides along; a failure keeps
                        // serving the old forecast generation (counted on
                        // forecast.reload.errors) and reports null here.
                        let forecast = self.forecast.as_ref().and_then(|f| f.rebuild().ok());
                        Response::json(&ReloadAnswer {
                            generation: snapshot.generation,
                            entries: snapshot.artifact.len(),
                            forecast_generation: forecast.as_ref().map(|f| f.generation),
                            forecast_entries: forecast.as_ref().map(|f| f.artifact.entries.len()),
                        })
                    }
                    Err(e) => Response::text(
                        500,
                        "Internal Server Error",
                        format!("reload failed: {e}\n"),
                    ),
                }
            }
            _ => return None,
        })
    }

    fn quit(&self) -> (&'static str, bool) {
        ("shutting down\n", true)
    }
}

/// One nonblocking keep-alive connection owned by a shard event loop.
#[cfg(unix)]
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet parsed into requests.
    in_buf: Vec<u8>,
    /// Serialized responses not yet accepted by the socket.
    out: Vec<u8>,
    /// How much of `out` has been written already.
    out_pos: usize,
    /// Requests answered on this connection.
    served: u64,
    last_active: Instant,
    /// Stop parsing; close once `out` drains (HTTP/1.0, `Connection:
    /// close`, per-conn request cap, parse error, or shutdown).
    close_after_flush: bool,
    /// Peer sent EOF (or the socket errored); no more reads.
    peer_closed: bool,
    /// Registered (read, write) interest, to skip no-op `modify` calls.
    interest: (bool, bool),
}

#[cfg(unix)]
impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            in_buf: Vec::new(),
            out: Vec::with_capacity(1024),
            out_pos: 0,
            served: 0,
            last_active: Instant::now(),
            close_after_flush: false,
            peer_closed: false,
            interest: (true, false),
        }
    }

    fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Drain the socket's receive buffer into `in_buf` (level-triggered
    /// readiness: read until `WouldBlock` or EOF).
    fn read_some<D>(&mut self, shared: &Shared<D>) {
        let mut chunk = [0u8; 16 << 10];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    self.in_buf.extend_from_slice(&chunk[..n]);
                    self.last_active = Instant::now();
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    shared.metrics.read_errors.inc();
                    self.peer_closed = true;
                    self.close_after_flush = true;
                    break;
                }
            }
        }
    }

    /// Parse and dispatch every complete request buffered so far,
    /// stopping at the output high-water mark. Returns whether anything
    /// was dispatched (callers loop process→flush until quiescent, so a
    /// drained socket can unblock further pipelined parsing).
    fn process<D: Daemon>(&mut self, shared: &Shared<D>) -> bool {
        let mut consumed = 0usize;
        let mut progressed = false;
        while !self.close_after_flush && self.pending_out() < OUT_HIGH_WATER {
            let t0 = Instant::now();
            match parse_request(&self.in_buf[consumed..]) {
                Ok(Parse::Complete(request, used)) => {
                    consumed += used;
                    let parse_ns = elapsed_ns(t0);
                    let keep_alive = dispatch(shared, &request, parse_ns, &mut self.out);
                    self.served += 1;
                    self.last_active = Instant::now();
                    progressed = true;
                    if !keep_alive || self.served >= shared.config.max_requests_per_conn {
                        self.close_after_flush = true;
                    }
                }
                Ok(Parse::Partial) => {
                    if self.peer_closed && self.in_buf.len() > consumed {
                        // EOF mid-request: the blocking reader called this
                        // a read error; keep the accounting. (EOF on an
                        // *empty* buffer is just a clean close.)
                        shared.metrics.read_errors.inc();
                        self.close_after_flush = true;
                    }
                    break;
                }
                Err(e) => {
                    // Byte boundaries are lost; answer and close. 505
                    // only for a well-formed line naming a version we
                    // genuinely do not speak.
                    shared.metrics.read_errors.inc();
                    let (status, reason) = match &e {
                        HttpError::UnsupportedVersion(_) => (505, "HTTP Version Not Supported"),
                        _ => (400, "Bad Request"),
                    };
                    write_response(
                        &mut self.out,
                        Version::Http10,
                        status,
                        reason,
                        "text/plain",
                        false,
                        format!("bad request: {e}\n").as_bytes(),
                    );
                    self.close_after_flush = true;
                    progressed = true;
                    break;
                }
            }
        }
        if consumed > 0 {
            self.in_buf.drain(..consumed);
        }
        progressed
    }

    /// Push buffered output at the socket until it blocks or drains.
    fn flush(&mut self) {
        while self.pending_out() > 0 {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    self.peer_closed = true;
                    self.out_pos = self.out.len();
                    break;
                }
                Ok(n) => {
                    self.out_pos += n;
                    self.last_active = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.peer_closed = true;
                    self.out_pos = self.out.len();
                    break;
                }
            }
        }
        if self.pending_out() == 0 && !self.out.is_empty() {
            self.out.clear();
            self.out_pos = 0;
        }
    }

    /// Loop process→flush until quiescent: flushing can free output
    /// space that unblocks parsing of further pipelined requests.
    fn drive<D: Daemon>(&mut self, shared: &Shared<D>) {
        loop {
            let progressed = self.process(shared);
            self.flush();
            if !progressed {
                break;
            }
        }
    }

    /// Whether the event loop should retire this connection.
    fn finished(&self) -> bool {
        (self.close_after_flush || self.peer_closed) && self.pending_out() == 0
    }

    /// The (read, write) interest matching the current buffer state.
    fn wanted_interest(&self) -> (bool, bool) {
        (
            !self.close_after_flush && !self.peer_closed && self.pending_out() < OUT_HIGH_WATER,
            self.pending_out() > 0,
        )
    }
}

/// One shard: a nonblocking listener plus every connection it accepted,
/// multiplexed on a private [`poll::Poller`].
#[cfg(unix)]
fn shard_loop<D: Daemon>(shared: &Shared<D>, listener: TcpListener, conn_limit: usize) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let Ok(mut poller) = poll::Poller::new() else {
        return;
    };
    if poller
        .register(listener.as_raw_fd(), TOKEN_LISTENER, true, false)
        .is_err()
    {
        return;
    }
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = TOKEN_LISTENER + 1;
    let mut events = Vec::new();
    let mut last_sweep = Instant::now();
    while !shared.shutdown.load(Ordering::SeqCst) {
        if poller.wait(&mut events, POLL_TIMEOUT_MS).is_err() {
            break;
        }
        for &event in &events {
            if event.token == TOKEN_LISTENER {
                accept_new(
                    shared,
                    &listener,
                    &mut poller,
                    &mut conns,
                    &mut next_token,
                    conn_limit,
                );
                continue;
            }
            let Some(conn) = conns.get_mut(&event.token) else {
                continue;
            };
            if event.readable {
                conn.read_some(shared);
            }
            conn.drive(shared);
            if conn.finished() {
                let fd = conn.stream.as_raw_fd();
                let _ = poller.deregister(fd);
                conns.remove(&event.token);
            } else {
                let wanted = conn.wanted_interest();
                if wanted != conn.interest {
                    conn.interest = wanted;
                    let fd = conn.stream.as_raw_fd();
                    let _ = poller.modify(fd, event.token, wanted.0, wanted.1);
                }
            }
        }
        // Idle sweep: retire keep-alive connections quiet past the
        // configured timeout.
        if last_sweep.elapsed() >= Duration::from_millis(500) {
            last_sweep = Instant::now();
            let now = Instant::now();
            let idle: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| now.duration_since(c.last_active) > shared.config.read_timeout)
                .map(|(t, _)| *t)
                .collect();
            for token in idle {
                if let Some(conn) = conns.remove(&token) {
                    let _ = poller.deregister(conn.stream.as_raw_fd());
                }
            }
        }
    }
    // Graceful exit: deliver whatever is already serialized (notably the
    // `POST /quit` ack) with a short blocking flush, then drop.
    for (_, mut conn) in conns {
        let _ = poller.deregister(conn.stream.as_raw_fd());
        if conn.pending_out() > 0 {
            let _ = conn.stream.set_nonblocking(false);
            let _ = conn
                .stream
                .set_write_timeout(Some(Duration::from_millis(250)));
            let _ = conn.stream.write_all(&conn.out[conn.out_pos..]);
        }
    }
}

/// Accept everything pending on the shard's listener. Beyond the
/// shard's connection share, answer `503` immediately (explicit
/// backpressure, counted on `conns.dropped`) instead of queueing.
#[cfg(unix)]
fn accept_new<D>(
    shared: &Shared<D>,
    listener: &TcpListener,
    poller: &mut poll::Poller,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    conn_limit: usize,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.metrics.accepted.inc();
                if conns.len() >= conn_limit {
                    shared.metrics.dropped.inc();
                    let mut stream = stream;
                    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
                    let _ = respond(
                        &mut stream,
                        503,
                        "Service Unavailable",
                        "text/plain",
                        b"overloaded\n",
                    );
                    continue;
                }
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let token = *next_token;
                *next_token += 1;
                if poller
                    .register(stream.as_raw_fd(), token, true, false)
                    .is_err()
                {
                    continue;
                }
                conns.insert(token, Conn::new(stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Non-unix fallback: a blocking accept loop per shard, one connection
/// served at a time (keep-alive still honored on that connection).
#[cfg(not(unix))]
fn shard_loop<D: Daemon>(shared: &Shared<D>, listener: TcpListener, _conn_limit: usize) {
    let _ = listener.set_nonblocking(true);
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                shared.metrics.accepted.inc();
                let _ = stream.set_nonblocking(false);
                serve_conn_blocking(shared, &mut stream);
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

#[cfg(not(unix))]
fn serve_conn_blocking<D: Daemon>(shared: &Shared<D>, stream: &mut TcpStream) {
    use std::io::Write as _;
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.read_timeout));
    let mut served = 0u64;
    loop {
        let t0 = Instant::now();
        match crate::http::read_request(stream) {
            Ok(request) => {
                let mut out = Vec::with_capacity(256);
                let keep_alive = dispatch(shared, &request, elapsed_ns(t0), &mut out);
                if stream.write_all(&out).is_err() {
                    break;
                }
                served += 1;
                if !keep_alive || served >= shared.config.max_requests_per_conn {
                    break;
                }
            }
            Err(e) => {
                // EOF before any bytes of a follow-up request is a clean
                // keep-alive close, not an error.
                if e.kind() != std::io::ErrorKind::UnexpectedEof {
                    shared.metrics.read_errors.inc();
                }
                break;
            }
        }
    }
}

/// A change fingerprint for the watched source file. The inode matters:
/// atomic publishers (tmp + fsync + rename) produce a fresh inode per
/// generation, which catches a republish that lands with an unchanged
/// length inside the filesystem's mtime granularity.
fn fingerprint(meta: &std::fs::Metadata) -> (Option<std::time::SystemTime>, u64, u64) {
    #[cfg(unix)]
    let ino = std::os::unix::fs::MetadataExt::ino(meta);
    #[cfg(not(unix))]
    let ino = 0u64;
    (meta.modified().ok(), meta.len(), ino)
}

/// Poll `source` for fingerprint changes and invoke `rebuild` on each.
fn watcher_loop(
    shared: &Shared<Blocklist>,
    interval: Duration,
    baseline: Option<(Option<std::time::SystemTime>, u64, u64)>,
    source: &std::path::Path,
    rebuild: fn(&Blocklist),
) {
    let mut last = baseline;
    while !shared.shutdown.load(Ordering::SeqCst) {
        // Sleep in short slices so shutdown joins promptly even with a
        // long poll interval.
        let mut slept = Duration::ZERO;
        while slept < interval && !shared.shutdown.load(Ordering::SeqCst) {
            let slice = (interval - slept).min(SLEEP_SLICE);
            std::thread::sleep(slice);
            slept += slice;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let current = std::fs::metadata(source).ok().map(|m| fingerprint(&m));
        if current.is_some() && current != last {
            // A failed build keeps serving the old generation (the error
            // is counted on the file's reload errors); either way this
            // fingerprint has been dealt with.
            rebuild(&shared.daemon);
            last = current;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_sane() {
        let config = ServeConfig::new("/tmp/list.txt");
        assert_eq!(config.core.addr, "127.0.0.1:0");
        assert!(config.core.threads >= 1);
        assert!(config.core.max_conns >= 1);
        assert!(config.core.max_requests_per_conn >= 1);
        assert!(config.watch.is_none());
        assert_eq!(config.source, PathBuf::from("/tmp/list.txt"));
    }

    #[test]
    fn health_classification_thresholds() {
        let s = Duration::from_secs;
        // No thresholds: always ok, whatever the age.
        assert_eq!(Health::of(s(1_000_000), None, None), Health::Ok);
        // Stale only.
        assert_eq!(Health::of(s(5), Some(s(10)), None), Health::Ok);
        assert_eq!(Health::of(s(10), Some(s(10)), None), Health::Stale);
        // Both: degraded wins past its threshold.
        assert_eq!(Health::of(s(15), Some(s(10)), Some(s(30))), Health::Stale);
        assert_eq!(
            Health::of(s(30), Some(s(10)), Some(s(30))),
            Health::Degraded
        );
        // Degraded without stale still works.
        assert_eq!(Health::of(s(31), None, Some(s(30))), Health::Degraded);
        assert_eq!(Health::Ok.as_str(), "ok");
        assert_eq!(Health::Stale.as_str(), "stale");
        assert_eq!(Health::Degraded.as_str(), "degraded");
    }

    /// A `/batch-bin` body: `count`, then `addresses` addresses.
    fn frame(count: u32, addresses: u32) -> Vec<u8> {
        let mut body = count.to_be_bytes().to_vec();
        for i in 0..addresses {
            body.extend_from_slice(&(0x0901_0000 + i).to_be_bytes());
        }
        body
    }

    #[test]
    fn decode_batch_bin_checks_the_frame_length() {
        let body = frame(3, 3);
        assert_eq!(decode_batch_bin(&body), Ok(&body[4..]));
        assert_eq!(decode_batch_bin(&frame(0, 0)), Ok(&[][..]));
        assert_eq!(
            decode_batch_bin(&[0, 0, 0]),
            Err("binary batch body shorter than its count prefix\n".to_string())
        );
        assert_eq!(
            decode_batch_bin(&frame(2, 3)),
            Err("binary batch length mismatch: count=2 wants 12 body bytes, got 16\n".to_string())
        );
        // One address, but a count whose unchecked length `4 + count * 4`
        // wraps to the body's 8 bytes on a 32-bit usize.
        assert_eq!(
            decode_batch_bin(&frame(0x4000_0001, 1)),
            Err(
                "binary batch length mismatch: count=1073741825 wants 4294967304 body bytes, \
                 got 8\n"
                    .to_string()
            )
        );
        assert!(decode_batch_bin(&frame(u32::MAX, 1)).is_err());
    }

    /// On a 32-bit target the wrapping case above is real: the unchecked
    /// length equals the body's, and only the checked one refuses it.
    #[cfg(target_pointer_width = "32")]
    #[test]
    fn decode_batch_bin_refuses_a_count_that_wraps_usize() {
        let count = 0x4000_0001usize;
        assert_eq!(4usize.wrapping_add(count.wrapping_mul(4)), 8);
        assert!(decode_batch_bin(&frame(0x4000_0001, 1)).is_err());
    }

    #[test]
    fn start_fails_cleanly_on_missing_source() {
        let config = ServeConfig::new("/nonexistent/unclean/blocklist.txt");
        match Server::start(config, Registry::off()) {
            Err(ServeError::Source(msg)) => assert!(msg.contains("nonexistent"), "{msg}"),
            other => panic!("expected Source error, got {other:?}"),
        }
    }

    #[test]
    fn start_fails_cleanly_on_a_port_another_daemon_serves() {
        let dir = std::env::temp_dir().join(format!("unclean-serve-taken-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let list = dir.join("list.txt");
        std::fs::write(&list, "10.0.0.0/8\n").expect("write");
        let first = Server::start(ServeConfig::new(&list), Registry::off()).expect("start");
        let mut config = ServeConfig::new(&list);
        config.core.addr = first.local_addr().to_string();
        match Server::start(config, Registry::off()) {
            Err(ServeError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::AddrInUse),
            other => panic!("expected an AddrInUse error, got {other:?}"),
        }
        first.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    impl std::fmt::Debug for Server {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Server")
                .field("addr", &self.shared.addr)
                .finish()
        }
    }
}
