//! The daemon: N shard threads, each owning a listening socket
//! (SO_REUSEPORT on Linux — see [`crate::poll`]), a private epoll/poll
//! event loop, and the nonblocking keep-alive connections it accepted.
//! Lookups are answered from the current [`SnapshotStore`] generation.
//!
//! There is no async runtime: the workspace is offline/vendored and a
//! frozen-trie lookup is sub-microsecond, so the hot path is parse →
//! lookup → serialize on the shard's own thread, with no cross-thread
//! handoff. Requests parse incrementally off per-connection input
//! buffers ([`crate::http::parse_request`]), so HTTP/1.1 keep-alive and
//! pipelining cost nothing extra; responses accumulate in per-connection
//! output buffers flushed as the socket allows. Backpressure is
//! explicit at both ends: a shard past its connection share answers
//! `503` immediately (counted on `conns.dropped`) instead of queueing
//! unboundedly, and a connection whose output buffer passes the high
//! water mark stops being read until it drains.
//!
//! Endpoints (HTTP/1.0 close-per-request and HTTP/1.1 keep-alive both
//! honored):
//!
//! | endpoint | answer |
//! |---|---|
//! | `GET /lookup?ip=a.b.c.d` | JSON: blocked?, matched CIDR, prefix length, score, generation |
//! | `POST /batch` | newline-delimited IPs in, one text verdict per line out |
//! | `POST /batch-bin` | length-prefixed binary IPs in, one verdict byte each out (see below) |
//! | `GET /forecast?net=a.b.0.0/16&horizon=N` | JSON: predicted rate, CI, score half-life (404 unless `--forecast` artifact configured) |
//! | `GET /healthz` | `ok\|stale\|degraded generation=G age_secs=A` |
//! | `GET /snapshot` | JSON: generation, block count, build time, source |
//! | `GET /metrics` | Prometheus text exposition (`unclean_serve_*`) |
//! | `POST /reload` | rebuild the snapshot now; JSON: new generation |
//! | `POST /quit` | graceful shutdown: drain in-flight requests, then exit |
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
//! freshness. What changes is *honesty about staleness*: a watchdog
//! thread tracks the serving generation's age as the
//! `generation_age_secs` gauge, and `/healthz` reports `stale`
//! (200 — a warning) past `stale_after` and `degraded` (503 — take me
//! out of rotation) past `degraded_after`, while `/lookup` and `/batch`
//! answer normally throughout. With no thresholds configured the
//! daemon's health is always `ok`, as before.

use crate::http::{respond, write_response, Request, Version};
use crate::snapshot::{
    build_forecast_snapshot, build_snapshot, ForecastSnapshot, ForecastStore, ServeError,
    ServingSnapshot, SnapshotStore,
};
use serde::Serialize;
use std::fmt::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use unclean_core::frozen::{FrozenTrie, LANES};
use unclean_core::prelude::Ip;
use unclean_telemetry::{
    chrome_trace_json, prom, Counter, Gauge, Histogram, MetricsHistory, Registry, TraceEvent,
    TraceKind, TraceRing,
};

#[cfg(unix)]
use crate::http::{parse_request, HttpError, Parse};
#[cfg(unix)]
use crate::poll;
#[cfg(unix)]
use std::collections::HashMap;
#[cfg(unix)]
use std::io::{Read as _, Write as _};
#[cfg(unix)]
use std::os::unix::io::AsRawFd;

/// Non-unix fallback for [`poll::shard_listeners`]: clones of one
/// blocking listener (the blocking per-shard accept loop uses them).
#[cfg(not(unix))]
mod poll {
    use std::io;
    use std::net::{SocketAddr, TcpListener};

    pub fn shard_listeners(
        addr: &str,
        shards: usize,
    ) -> io::Result<(Vec<TcpListener>, SocketAddr)> {
        let first = TcpListener::bind(addr)?;
        let resolved = first.local_addr()?;
        let mut listeners = vec![first];
        for _ in 1..shards.max(1) {
            listeners.push(listeners[0].try_clone()?);
        }
        Ok((listeners, resolved))
    }
}

/// Compile-time build identity for `unclean_serve_build_info` (the CI
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

/// Daemon configuration (the CLI's `unclean serve` flags map onto this).
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
    /// Poll interval for source-file changes (`None`: no watcher; reloads
    /// only via `POST /reload`).
    pub watch: Option<Duration>,
    /// Generation age past which `/healthz` answers `stale` (still 200).
    /// `None` disables staleness tracking in the health answer.
    pub stale_after: Option<Duration>,
    /// Generation age past which `/healthz` answers `degraded` with 503
    /// (lookups keep working from the last good generation).
    pub degraded_after: Option<Duration>,
    /// Head-sample one request in N for stage tracing (`0` disables
    /// request sampling entirely; unsampled requests pay one branch).
    pub trace_sample: u64,
    /// Trace-event ring capacity (`0`: no ring — `/trace` serves span
    /// aggregates only and reloads go unrecorded).
    pub trace_events: usize,
    /// Flight-recorder scrape cadence for `/metrics/history` (`None`
    /// disables the scraper thread and the endpoint answers 404).
    pub history_interval: Option<Duration>,
    /// Close a keep-alive connection after this many requests, so churn
    /// (and its metrics) cannot be starved by immortal connections.
    pub max_requests_per_conn: u64,
}

impl ServeConfig {
    /// Defaults: ephemeral localhost port, 4 shards, 1024 connections,
    /// 5 s idle timeout, no watcher; tracing ring installed (4096
    /// events) but request sampling off; flight recorder every 2 s.
    pub fn new(source: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            source: source.into(),
            forecast: None,
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            max_conns: 1024,
            read_timeout: Duration::from_secs(5),
            watch: None,
            stale_after: None,
            degraded_after: None,
            trace_sample: 0,
            trace_events: 4096,
            history_interval: Some(Duration::from_secs(2)),
            max_requests_per_conn: 100_000,
        }
    }
}

/// How many flight-recorder samples `/metrics/history` retains (at the
/// default 2 s cadence: ten minutes of rate history).
const HISTORY_SAMPLES: usize = 300;

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
pub enum Health {
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

/// Cached instrument handles — resolved once, recorded lock-free on the
/// hot path. All series are declared at startup so a clean run exports
/// explicit zeros (the CI gate asserts `conns.dropped == 0`).
#[derive(Clone)]
struct Metrics {
    requests: Counter,
    lookup: Counter,
    batch: Counter,
    batch_ips: Counter,
    batch_bin: Counter,
    batch_bin_ips: Counter,
    healthz: Counter,
    snapshot_req: Counter,
    metrics_req: Counter,
    reload_req: Counter,
    quit: Counter,
    blocked: Counter,
    clean: Counter,
    bad_request: Counter,
    not_found: Counter,
    accepted: Counter,
    dropped: Counter,
    read_errors: Counter,
    reloads: Counter,
    reload_errors: Counter,
    trace_req: Counter,
    history_req: Counter,
    sampled: Counter,
    forecast_req: Counter,
    forecast_hits: Counter,
    forecast_misses: Counter,
    forecast_bad_request: Counter,
    forecast_reloads: Counter,
    forecast_reload_errors: Counter,
    latency_micros: Histogram,
    stage_parse_ns: Histogram,
    stage_lookup_ns: Histogram,
    stage_write_ns: Histogram,
    generation: Gauge,
    entries: Gauge,
    generation_age_secs: Gauge,
    forecast_generation: Gauge,
    forecast_entries: Gauge,
    forecast_generation_age_secs: Gauge,
}

impl Metrics {
    fn new(registry: &Registry) -> Metrics {
        Metrics {
            requests: registry.counter("requests"),
            lookup: registry.counter("requests.lookup"),
            batch: registry.counter("requests.batch"),
            batch_ips: registry.counter("batch.ips"),
            batch_bin: registry.counter("requests.batch_bin"),
            batch_bin_ips: registry.counter("batch_bin.ips"),
            healthz: registry.counter("requests.healthz"),
            snapshot_req: registry.counter("requests.snapshot"),
            metrics_req: registry.counter("requests.metrics"),
            reload_req: registry.counter("requests.reload"),
            quit: registry.counter("requests.quit"),
            blocked: registry.counter("answers.blocked"),
            clean: registry.counter("answers.clean"),
            bad_request: registry.counter("responses.bad_request"),
            not_found: registry.counter("responses.not_found"),
            accepted: registry.counter("conns.accepted"),
            dropped: registry.counter("conns.dropped"),
            read_errors: registry.counter("conns.read_errors"),
            reloads: registry.counter("reload.count"),
            reload_errors: registry.counter("reload.errors"),
            trace_req: registry.counter("requests.trace"),
            history_req: registry.counter("requests.history"),
            sampled: registry.counter("trace.sampled_requests"),
            forecast_req: registry.counter("requests.forecast"),
            forecast_hits: registry.counter("forecast.hits"),
            forecast_misses: registry.counter("forecast.misses"),
            forecast_bad_request: registry.counter("forecast.bad_request"),
            forecast_reloads: registry.counter("forecast.reload.count"),
            forecast_reload_errors: registry.counter("forecast.reload.errors"),
            latency_micros: registry.histogram("request_micros"),
            stage_parse_ns: registry.histogram("stage_ns.parse"),
            stage_lookup_ns: registry.histogram("stage_ns.lookup"),
            stage_write_ns: registry.histogram("stage_ns.write"),
            generation: registry.gauge("snapshot.generation"),
            entries: registry.gauge("snapshot.entries"),
            generation_age_secs: registry.gauge("generation_age_secs"),
            forecast_generation: registry.gauge("forecast.generation"),
            forecast_entries: registry.gauge("forecast.entries"),
            forecast_generation_age_secs: registry.gauge("forecast_generation_age_secs"),
        }
    }
}

/// Forecast serving state, present only when `--forecast` points at an
/// artifact. The blocklist trio (store, watched source, rebuild lock) is
/// mirrored here so the forecast hot-reloads through exactly the same
/// generation discipline without perturbing blocklist serving.
struct ForecastShared {
    store: ForecastStore,
    source: PathBuf,
    rebuild_lock: Mutex<()>,
}

struct Shared {
    store: SnapshotStore,
    forecast: Option<ForecastShared>,
    registry: Registry,
    metrics: Metrics,
    shutdown: AtomicBool,
    source: PathBuf,
    addr: SocketAddr,
    read_timeout: Duration,
    rebuild_lock: Mutex<()>,
    stale_after: Option<Duration>,
    degraded_after: Option<Duration>,
    // Tracing: the ring Arc is cached here so sampled requests never pay
    // the registry's trace-slot mutex.
    trace: Option<Arc<TraceRing>>,
    sample_every: u64,
    sample_counter: AtomicU64,
    history: Option<Arc<MetricsHistory>>,
    history_interval: Duration,
    start_unix_secs: f64,
    max_requests_per_conn: u64,
}

impl Shared {
    /// The serving generation's age. Wall clocks can step backwards;
    /// a future-dated build reads as age zero rather than underflowing.
    fn generation_age(&self) -> Duration {
        let built_ms = self.store.load().built_unix_ms;
        let now_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
            .unwrap_or(0);
        Duration::from_millis(now_ms.saturating_sub(built_ms))
    }

    /// Refresh the age gauge and classify against the thresholds.
    fn observe_health(&self) -> (Health, Duration) {
        let age = self.generation_age();
        self.metrics.generation_age_secs.set(age.as_secs_f64());
        if let Some(forecast) = &self.forecast {
            let built_ms = forecast.store.load().built_unix_ms;
            let forecast_age = Duration::from_millis(unix_ms_now().saturating_sub(built_ms));
            self.metrics
                .forecast_generation_age_secs
                .set(forecast_age.as_secs_f64());
        }
        (Health::of(age, self.stale_after, self.degraded_after), age)
    }
}

impl Shared {
    /// Rebuild from the source file and install. Serialized so concurrent
    /// `/reload`s and the watcher cannot install out of order; the build
    /// itself runs here, off every *other* shard's serving path.
    fn rebuild(&self) -> Result<Arc<ServingSnapshot>, ServeError> {
        let _guard = self.rebuild_lock.lock().expect("rebuild lock");
        let generation = self.store.claim_generation();
        match build_snapshot(&self.source, generation, &self.registry) {
            Ok(snapshot) => {
                self.metrics.reloads.inc();
                self.metrics.generation.set(snapshot.generation as f64);
                self.metrics.entries.set(snapshot.trie.len() as f64);
                self.record_reload_event(&snapshot);
                self.store.install(snapshot);
                Ok(self.store.load())
            }
            Err(e) => {
                self.metrics.reload_errors.inc();
                Err(e)
            }
        }
    }

    /// Record a [`TraceKind::Reload`] event carrying the serving
    /// generation and — when the source was published by `unclean
    /// ingest` — the upstream generation that links this reload into the
    /// producer's lineage.
    fn record_reload_event(&self, snapshot: &ServingSnapshot) {
        let Some(ring) = &self.trace else { return };
        let mut event = TraceEvent::now(TraceKind::Reload)
            .generation(snapshot.generation)
            .dur_ns(snapshot.build_micros.saturating_mul(1000))
            .field("entries", snapshot.trie.len())
            .field("source", &snapshot.source);
        if let Some(source_generation) = snapshot.source_generation {
            event = event.source_generation(source_generation);
        }
        ring.record(event);
    }

    /// Rebuild the forecast snapshot from its artifact and install, the
    /// forecast twin of [`Shared::rebuild`]. Returns `Ok(None)` when no
    /// forecast artifact is configured.
    fn rebuild_forecast(&self) -> Result<Option<Arc<ForecastSnapshot>>, ServeError> {
        let Some(forecast) = &self.forecast else {
            return Ok(None);
        };
        let _guard = forecast.rebuild_lock.lock().expect("forecast rebuild lock");
        let generation = forecast.store.claim_generation();
        match build_forecast_snapshot(&forecast.source, generation, &self.registry) {
            Ok(snapshot) => {
                self.metrics.forecast_reloads.inc();
                self.metrics
                    .forecast_generation
                    .set(snapshot.generation as f64);
                self.metrics
                    .forecast_entries
                    .set(snapshot.artifact.entries.len() as f64);
                self.record_forecast_reload_event(&snapshot);
                forecast.store.install(snapshot);
                Ok(Some(forecast.store.load()))
            }
            Err(e) => {
                self.metrics.forecast_reload_errors.inc();
                Err(e)
            }
        }
    }

    /// Record a [`TraceKind::Reload`] event for a forecast generation,
    /// tagged `artifact=forecast` so lineage walks can tell the two
    /// reload streams apart.
    fn record_forecast_reload_event(&self, snapshot: &ForecastSnapshot) {
        let Some(ring) = &self.trace else { return };
        let mut event = TraceEvent::now(TraceKind::Reload)
            .generation(snapshot.generation)
            .field("artifact", "forecast")
            .field("entries", snapshot.artifact.entries.len() as u64)
            .field("source", &snapshot.source);
        if let Some(source_generation) = snapshot.source_generation {
            event = event.source_generation(source_generation);
        }
        ring.record(event);
    }

    fn initiate_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Shards notice the flag within one poll timeout; a throwaway
        // connection wakes at least one immediately (with SO_REUSEPORT
        // the kernel picks which).
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
    }
}

/// A running daemon. Dropping the handle does **not** stop it — call
/// [`Server::shutdown`] (or send `POST /quit` and [`Server::wait`]).
pub struct Server {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Build the boot snapshot, bind the shard listeners, and spawn the
    /// shard event loops and (optionally) the source-file watcher.
    pub fn start(config: ServeConfig, registry: Registry) -> Result<Server, ServeError> {
        let metrics = Metrics::new(&registry);
        let trace = if config.trace_events > 0 {
            registry.install_trace(config.trace_events)
        } else {
            None
        };
        let history = config
            .history_interval
            .map(|_| Arc::new(MetricsHistory::new(HISTORY_SAMPLES)));
        let boot = build_snapshot(&config.source, 1, &registry)?;
        metrics.generation.set(boot.generation as f64);
        metrics.entries.set(boot.trie.len() as f64);
        // Fail fast on a bad forecast artifact: a daemon started with
        // `--forecast` should not come up silently forecast-less.
        let forecast = match &config.forecast {
            Some(source) => {
                let boot_forecast = build_forecast_snapshot(source, 1, &registry)?;
                metrics.forecast_generation.set(1.0);
                metrics
                    .forecast_entries
                    .set(boot_forecast.artifact.entries.len() as f64);
                Some(ForecastShared {
                    store: ForecastStore::new(boot_forecast),
                    source: source.clone(),
                    rebuild_lock: Mutex::new(()),
                })
            }
            None => None,
        };
        let shards = config.threads.max(1);
        let (listeners, addr) = poll::shard_listeners(&config.addr, shards)?;
        let conn_limit = (config.max_conns.max(1) / listeners.len()).max(1);
        let shared = Arc::new(Shared {
            store: SnapshotStore::new(boot),
            forecast,
            registry,
            metrics,
            shutdown: AtomicBool::new(false),
            source: config.source.clone(),
            addr,
            read_timeout: config.read_timeout,
            rebuild_lock: Mutex::new(()),
            stale_after: config.stale_after,
            degraded_after: config.degraded_after,
            trace,
            sample_every: config.trace_sample,
            sample_counter: AtomicU64::new(0),
            history,
            history_interval: config.history_interval.unwrap_or(Duration::from_secs(2)),
            start_unix_secs: unix_ms_now() as f64 / 1000.0,
            max_requests_per_conn: config.max_requests_per_conn.max(1),
        });
        // The boot build is generation 1's "reload": record it so a
        // lookup served before any watcher/reload fires still has a
        // reload event to chain through.
        shared.record_reload_event(&shared.store.load());
        if let Some(forecast) = &shared.forecast {
            shared.record_forecast_reload_event(&forecast.store.load());
        }

        let mut threads = Vec::with_capacity(listeners.len() + 3);
        for (i, listener) in listeners.into_iter().enumerate() {
            let shared_n = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-shard-{i}"))
                    .spawn(move || shard_loop(&shared_n, listener, conn_limit))
                    .map_err(ServeError::Io)?,
            );
        }
        {
            // The staleness watchdog: keeps `generation_age_secs` fresh in
            // `/metrics` even when nobody polls `/healthz`.
            let shared_h = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-health".to_string())
                    .spawn(move || watchdog_loop(&shared_h))
                    .map_err(ServeError::Io)?,
            );
        }
        if shared.history.is_some() {
            // The flight recorder: periodic snapshot deltas for
            // `/metrics/history` and `unclean top`.
            let shared_f = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-history".to_string())
                    .spawn(move || history_loop(&shared_f))
                    .map_err(ServeError::Io)?,
            );
        }
        if let Some(interval) = config.watch {
            let shared_w = Arc::clone(&shared);
            // Fingerprint the source *before* returning, so an edit made
            // the instant the server is up is still seen as a change.
            let baseline = std::fs::metadata(&config.source)
                .ok()
                .map(|m| fingerprint(&m));
            let source = config.source.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("serve-watch".to_string())
                    .spawn(move || {
                        watcher_loop(&shared_w, interval, baseline, &source, |s| {
                            let _ = s.rebuild();
                        })
                    })
                    .map_err(ServeError::Io)?,
            );
            if let Some(forecast_source) = config.forecast.clone() {
                let shared_fw = Arc::clone(&shared);
                let baseline = std::fs::metadata(&forecast_source)
                    .ok()
                    .map(|m| fingerprint(&m));
                threads.push(
                    std::thread::Builder::new()
                        .name("serve-watch-forecast".to_string())
                        .spawn(move || {
                            watcher_loop(&shared_fw, interval, baseline, &forecast_source, |s| {
                                let _ = s.rebuild_forecast();
                            })
                        })
                        .map_err(ServeError::Io)?,
                );
            }
        }
        Ok(Server { shared, threads })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The telemetry registry the daemon records into.
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// The currently served generation number.
    pub fn generation(&self) -> u64 {
        self.shared.store.load().generation
    }

    /// The currently served forecast generation, when a forecast artifact
    /// is configured.
    pub fn forecast_generation(&self) -> Option<u64> {
        self.shared
            .forecast
            .as_ref()
            .map(|f| f.store.load().generation)
    }

    /// Force a rebuild from the source file; returns the new generation.
    pub fn reload(&self) -> Result<u64, ServeError> {
        self.shared.rebuild().map(|s| s.generation)
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
/// `sample_every > 0` branch plus one relaxed counter increment.
struct StageTrace {
    parse_ns: u64,
    lookup_ns: u64,
    write_ns: u64,
    generation: u64,
    source_generation: Option<u64>,
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// One routed response, produced by [`route`] and serialized by
/// [`dispatch`] into the connection's output buffer.
struct Response {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    body: Vec<u8>,
    /// `POST /quit` sets this: serialize the ack, then shut down.
    quit: bool,
}

impl Response {
    fn text(status: u16, reason: &'static str, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            reason,
            content_type: "text/plain",
            body: body.into(),
            quit: false,
        }
    }

    fn ok_with(content_type: &'static str, body: Vec<u8>) -> Response {
        Response {
            status: 200,
            reason: "OK",
            content_type,
            body,
            quit: false,
        }
    }

    fn json<T: Serialize>(value: &T) -> Response {
        match serde_json::to_string(value) {
            Ok(body) => Response::ok_with("application/json", body.into_bytes()),
            Err(e) => Response::text(500, "Internal Server Error", format!("serialize: {e}\n")),
        }
    }
}

/// What [`dispatch`] tells the connection driver.
struct DispatchOutcome {
    /// Keep the connection open for the next request.
    keep_alive: bool,
    /// The request was `POST /quit`; shutdown has been initiated.
    quit: bool,
}

/// Route one parsed request and serialize its response into `out`.
/// This is the whole per-request hot path: metrics, optional stage
/// sampling, routing, serialization, latency accounting.
fn dispatch(
    shared: &Shared,
    request: &Request,
    parse_ns: u64,
    out: &mut Vec<u8>,
) -> DispatchOutcome {
    shared.metrics.requests.inc();
    let t0 = Instant::now();
    // Head-sampling: 1 request in N, decided on a relaxed shared
    // counter, whatever the request turns out to ask for.
    let sampled = shared.sample_every > 0
        && shared
            .sample_counter
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(shared.sample_every);
    let (response, keep_alive);
    if sampled {
        let mut stages = StageTrace {
            parse_ns,
            lookup_ns: 0,
            write_ns: 0,
            generation: 0,
            source_generation: None,
        };
        let r = route(shared, request, Some(&mut stages));
        keep_alive = request.keep_alive && !r.quit;
        let t_write = Instant::now();
        write_response(
            out,
            request.version,
            r.status,
            r.reason,
            r.content_type,
            keep_alive,
            &r.body,
        );
        stages.write_ns = elapsed_ns(t_write);
        record_sampled_request(shared, request, &stages, parse_ns + elapsed_ns(t0));
        response = r;
    } else {
        let r = route(shared, request, None);
        keep_alive = request.keep_alive && !r.quit;
        write_response(
            out,
            request.version,
            r.status,
            r.reason,
            r.content_type,
            keep_alive,
            &r.body,
        );
        response = r;
    }
    shared
        .metrics
        .latency_micros
        .record((parse_ns + elapsed_ns(t0)) / 1000);
    if response.quit {
        shared.initiate_shutdown();
    }
    DispatchOutcome {
        keep_alive,
        quit: response.quit,
    }
}

/// Book a sampled request into the per-stage histograms and the trace
/// ring (a [`TraceKind::Lookup`] event whose generation ids chain the
/// request back to the ingest lineage).
fn record_sampled_request(shared: &Shared, request: &Request, stages: &StageTrace, total_ns: u64) {
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

#[derive(Serialize)]
struct TraceAnswer {
    events: Vec<TraceEvent>,
}

#[derive(Serialize)]
struct HistoryAnswer {
    interval_secs: f64,
    samples: Vec<unclean_telemetry::HistorySample>,
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
    metrics: &Metrics,
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

fn route(shared: &Shared, request: &Request, trace: Option<&mut StageTrace>) -> Response {
    let metrics = &shared.metrics;
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            metrics.healthz.inc();
            let (health, age) = shared.observe_health();
            let generation = shared.store.load().generation;
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
        ("GET", "/lookup") => {
            metrics.lookup.inc();
            let Some(raw_ip) = request.query_param("ip") else {
                metrics.bad_request.inc();
                return Response::text(400, "Bad Request", "missing ip= query parameter\n");
            };
            let Ok(ip) = raw_ip.parse::<Ip>() else {
                metrics.bad_request.inc();
                return Response::text(400, "Bad Request", format!("unparseable ip {raw_ip:?}\n"));
            };
            let t_lookup = trace.as_ref().map(|_| Instant::now());
            let snapshot = shared.store.load();
            let answer = match snapshot.trie.lookup(ip) {
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
            let Some(forecast) = &shared.forecast else {
                metrics.not_found.inc();
                return Response::text(
                    404,
                    "Not Found",
                    "no forecast artifact configured (start with --forecast)\n",
                );
            };
            // `net=` takes a /16 CIDR or a bare address; `ip=` is an
            // alias so loadgen can reuse its lookup address stream.
            let raw_net = request
                .query_param("net")
                .or_else(|| request.query_param("ip"));
            let Some(raw_net) = raw_net else {
                metrics.forecast_bad_request.inc();
                metrics.bad_request.inc();
                return Response::text(
                    400,
                    "Bad Request",
                    "missing net= (a.b.0.0/16 or bare address) query parameter\n",
                );
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
                return Response::text(
                    400,
                    "Bad Request",
                    format!("net {raw_net:?} is not a /16 or an address\n"),
                );
            };
            let snapshot = forecast.store.load();
            let horizon = match request.query_param("horizon") {
                None => snapshot.artifact.horizon_days,
                Some(h) => match h.parse::<u32>() {
                    Ok(h) if (1..=365).contains(&h) => h,
                    _ => {
                        metrics.forecast_bad_request.inc();
                        metrics.bad_request.inc();
                        return Response::text(
                            400,
                            "Bad Request",
                            format!("horizon {h:?} is not in 1..=365\n"),
                        );
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
            let snapshot = shared.store.load();
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
                    answer_batch_lines(&snapshot.trie, &pending, &mut out, metrics);
                    waiting = 0;
                }
            }
            answer_batch_lines(&snapshot.trie, &pending[..waiting], &mut out, metrics);
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
                    return Response::text(400, "Bad Request", reason);
                }
            };
            let count = addresses.len() / 4;
            let detail = request.query_param("detail") == Some("1");
            let t_lookup = trace.as_ref().map(|_| Instant::now());
            let snapshot = shared.store.load();
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
                snapshot.trie.lookup_batch(&ips[..n], &mut answers[..n]);
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
            let snapshot = shared.store.load();
            let forecast = shared.forecast.as_ref().map(|f| f.store.load());
            Response::json(&SnapshotAnswer {
                generation: snapshot.generation,
                entries: snapshot.trie.len(),
                source: snapshot.source.clone(),
                build_micros: snapshot.build_micros,
                built_unix_ms: snapshot.built_unix_ms,
                memory_bytes: snapshot.trie.memory_bytes(),
                source_generation: snapshot.source_generation,
                source_published_unix_ms: snapshot.source_published_unix_ms,
                forecast_generation: forecast.as_ref().map(|f| f.generation),
                forecast_entries: forecast.as_ref().map(|f| f.artifact.entries.len()),
                forecast_source: forecast.as_ref().map(|f| f.source.clone()),
                forecast_source_generation: forecast.as_ref().and_then(|f| f.source_generation),
            })
        }
        ("GET", "/metrics") => {
            metrics.metrics_req.inc();
            let mut text = prom::render(&shared.registry.snapshot(), "unclean_serve");
            text.push_str(&prom::build_info(
                "unclean_serve",
                env!("CARGO_PKG_VERSION"),
                GIT_SHA,
                shared.start_unix_secs,
            ));
            Response {
                status: 200,
                reason: "OK",
                content_type: "text/plain; version=0.0.4",
                body: text.into_bytes(),
                quit: false,
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
                let body = chrome_trace_json(&shared.registry.snapshot(), &events, "unclean-serve");
                Response::ok_with("application/json", body.into_bytes())
            }
        }
        ("GET", "/metrics/history") => {
            metrics.history_req.inc();
            match &shared.history {
                Some(history) => Response::json(&HistoryAnswer {
                    interval_secs: shared.history_interval.as_secs_f64(),
                    samples: history.samples(),
                }),
                None => Response::text(404, "Not Found", "flight recorder disabled\n"),
            }
        }
        ("POST", "/reload") => {
            metrics.reload_req.inc();
            match shared.rebuild() {
                Ok(snapshot) => {
                    // The forecast rebuild rides along; a failure keeps
                    // serving the old forecast generation (counted on
                    // forecast.reload.errors) and reports null here.
                    let forecast = shared.rebuild_forecast().ok().flatten();
                    Response::json(&ReloadAnswer {
                        generation: snapshot.generation,
                        entries: snapshot.trie.len(),
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
        ("POST", "/quit") => {
            metrics.quit.inc();
            let mut response = Response::text(200, "OK", "shutting down\n");
            response.quit = true;
            response
        }
        _ => {
            metrics.not_found.inc();
            Response::text(
                404,
                "Not Found",
                format!("no such endpoint: {} {}\n", request.method, request.path),
            )
        }
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
    fn read_some(&mut self, shared: &Shared) {
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
    fn process(&mut self, shared: &Shared) -> bool {
        let mut consumed = 0usize;
        let mut progressed = false;
        while !self.close_after_flush && self.pending_out() < OUT_HIGH_WATER {
            let t0 = Instant::now();
            match parse_request(&self.in_buf[consumed..]) {
                Ok(Parse::Complete(request, used)) => {
                    consumed += used;
                    let parse_ns = elapsed_ns(t0);
                    let outcome = dispatch(shared, &request, parse_ns, &mut self.out);
                    self.served += 1;
                    self.last_active = Instant::now();
                    progressed = true;
                    if !outcome.keep_alive
                        || outcome.quit
                        || self.served >= shared.max_requests_per_conn
                    {
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
    fn drive(&mut self, shared: &Shared) {
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
fn shard_loop(shared: &Shared, listener: TcpListener, conn_limit: usize) {
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
                .filter(|(_, c)| now.duration_since(c.last_active) > shared.read_timeout)
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
fn accept_new(
    shared: &Shared,
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
fn shard_loop(shared: &Shared, listener: TcpListener, _conn_limit: usize) {
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
fn serve_conn_blocking(shared: &Shared, stream: &mut TcpStream) {
    use std::io::Write as _;
    let _ = stream.set_read_timeout(Some(shared.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.read_timeout));
    let mut served = 0u64;
    loop {
        let t0 = Instant::now();
        match crate::http::read_request(stream) {
            Ok(request) => {
                let mut out = Vec::with_capacity(256);
                let outcome = dispatch(shared, &request, elapsed_ns(t0), &mut out);
                if stream.write_all(&out).is_err() {
                    break;
                }
                served += 1;
                if !outcome.keep_alive || outcome.quit || served >= shared.max_requests_per_conn {
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

/// The flight-recorder scraper: fold a registry snapshot into the
/// history ring on the configured cadence (sleeping in short slices so
/// shutdown joins promptly).
fn history_loop(shared: &Shared) {
    let Some(history) = &shared.history else {
        return;
    };
    history.observe(unix_ms_now(), &shared.registry.snapshot());
    while !shared.shutdown.load(Ordering::SeqCst) {
        let mut slept = Duration::ZERO;
        while slept < shared.history_interval && !shared.shutdown.load(Ordering::SeqCst) {
            let slice = (shared.history_interval - slept).min(Duration::from_millis(50));
            std::thread::sleep(slice);
            slept += slice;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        history.observe(unix_ms_now(), &shared.registry.snapshot());
    }
}

/// Refresh the generation-age gauge twice a second until shutdown.
fn watchdog_loop(shared: &Shared) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        let _ = shared.observe_health();
        std::thread::sleep(Duration::from_millis(500));
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
/// One instance runs per watched file — the blocklist, and the forecast
/// artifact when configured — so a slow forecast refit can never delay a
/// blocklist reload.
fn watcher_loop(
    shared: &Shared,
    interval: Duration,
    baseline: Option<(Option<std::time::SystemTime>, u64, u64)>,
    source: &std::path::Path,
    rebuild: impl Fn(&Shared),
) {
    let mut last = baseline;
    while !shared.shutdown.load(Ordering::SeqCst) {
        // Sleep in short slices so shutdown joins promptly even with a
        // long poll interval.
        let mut slept = Duration::ZERO;
        while slept < interval && !shared.shutdown.load(Ordering::SeqCst) {
            let slice = (interval - slept).min(Duration::from_millis(50));
            std::thread::sleep(slice);
            slept += slice;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let current = std::fs::metadata(source).ok().map(|m| fingerprint(&m));
        if current.is_some() && current != last {
            // A failed build keeps serving the old generation (the error
            // is counted on reload.errors); either way this fingerprint
            // has been dealt with.
            rebuild(shared);
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
        assert_eq!(config.addr, "127.0.0.1:0");
        assert!(config.threads >= 1);
        assert!(config.max_conns >= 1);
        assert!(config.max_requests_per_conn >= 1);
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

    impl std::fmt::Debug for Server {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Server")
                .field("addr", &self.shared.addr)
                .finish()
        }
    }
}
