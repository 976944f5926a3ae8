//! `unclean ingest` — the supervised live-ingest daemon — and `unclean
//! replay`, its wire-side counterpart.
//!
//! The streaming loop the paper's operational claim needs:
//!
//! ```text
//! exporter ──UDP──▶ socket ─▶ bounded ring ─▶ WAL spool ─▶ rescore ─▶ blocklist file
//!                    (V5 decode,  (counted     (fsync'd     (windowed    (atomic rename;
//!                     seq track)   shed)        segments)    detectors)   serve --watch reloads)
//! ```
//!
//! The daemon runs under a supervisor: a crashed or erroring attempt is
//! restarted with exponential backoff (bounded by `--retries` and an
//! optional `--deadline-secs`), and every restart reopens the WAL spool —
//! crash recovery quarantines any torn tail and resumes from the last
//! sealed sequence, so no flow is ever double-counted. SIGTERM, SIGINT,
//! or `POST /quit` on the control port drain the ring, seal the open
//! segment, publish a final generation, and write a final checkpoint
//! before exiting.
//!
//! The control port runs on `unclean-serve`'s HTTP core (one event-loop
//! shard), so a stalled client cannot stall it. It answers `/healthz`
//! (`ok|stale|degraded` by the age of the last published generation —
//! 503 once degraded, while ingest keeps spooling), `/metrics`
//! (Prometheus text), `/metrics/history` (the flight recorder),
//! `/trace` (the trace ring), `/checkpoint` (the WAL position as JSON),
//! and `POST /quit` (answers `draining`; the port stays up until the
//! drain is done).
//!
//! `unclean replay` streams flows at a collector over UDP through the
//! seeded fault model (drops, bursts, truncation, record corruption,
//! duplicated datagrams) and prints exact wire accounting, so a chaos run
//! can assert the collector's `ingested + shed + lost + duplicates` books
//! every flow it sent.

use crossbeam::executor::Executor;
use std::fmt::Write as _;
use std::io::Write as _;
use std::net::UdpSocket;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use unclean_core::blocklist::render_scored_with_meta;
use unclean_core::{publish_atomic, Ip};
use unclean_detect::{LiveScanConfig, LiveWindow};
use unclean_flowgen::record::{proto, tcp_flags, EPOCH_UNIX_SECS};
use unclean_flowgen::{
    encode_datagram, ArchiveTelemetry, BatchStatus, FaultConfig, Flow, IndexedArchive,
    RingTelemetry, ShedPolicy, UdpFlowSource, UdpSourceConfig, V5Header, WalSpool, V5_HEADER_LEN,
    V5_MAX_RECORDS, V5_RECORD_LEN,
};
use unclean_netmodel::randutil::{decides, index_hash};
use unclean_serve::http::Request;
use unclean_serve::{CoreConfig, Daemon, Response, Server, StageTrace};
use unclean_stats::SeedTree;
use unclean_telemetry::{Counter, Gauge, Registry, TraceEvent, TraceKind};

/// Set by the SIGTERM/SIGINT handler; the ingest loop polls it and turns
/// the signal into the same graceful drain as `POST /quit`.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Route SIGTERM/SIGINT to the shutdown flag so the daemon drains and
/// seals instead of dying mid-segment.
fn install_signal_handlers() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

/// Everything `unclean ingest` needs, parsed once in `main`.
#[derive(Debug, Clone)]
pub struct IngestOpts {
    /// Directory holding the WAL spool (`segments.dat` + `index.wal`).
    pub spool_dir: PathBuf,
    /// Where each rescored blocklist generation is atomically published.
    pub out: PathBuf,
    /// UDP bind address for the V5 export stream.
    pub bind: String,
    /// TCP bind address for the control endpoints.
    pub control: String,
    /// How often the sealed window is rescored and republished.
    pub rescore_ms: u64,
    /// Bounded ring capacity, in flows.
    pub ring_capacity: usize,
    /// What the ring sheds when full.
    pub shed: ShedPolicy,
    /// Network granularity of the published blocklist.
    pub prefix_len: u8,
    /// Networks scoring below this are not published.
    pub min_score: f64,
    /// Rescore worker threads (0 = all cores).
    pub threads: usize,
    /// Restarts the supervisor allows before giving up.
    pub retries: u32,
    /// First restart backoff; doubles per consecutive failure.
    pub backoff_ms: u64,
    /// Give up restarting once the daemon has been up this long in total.
    pub deadline_secs: Option<u64>,
    /// Generation age past which `/healthz` answers `stale`.
    pub stale_after_secs: u64,
    /// Generation age past which `/healthz` answers `degraded` (503).
    pub degraded_after_secs: u64,
    /// Exporter boot anchor for V5 timestamp decode.
    pub boot_unix_secs: u32,
    /// Fault hook: the first N attempts fail right after recovery, to
    /// exercise the supervisor (0 = disabled).
    pub fail_attempts: u32,
    /// Trace-ring capacity in events (0 disables tracing entirely).
    pub trace_events: usize,
    /// Flight-recorder sampling interval in ms (0 disables `/metrics/history`).
    pub history_ms: u64,
}

impl Default for IngestOpts {
    fn default() -> IngestOpts {
        IngestOpts {
            spool_dir: PathBuf::from("spool"),
            out: PathBuf::from("blocklist.txt"),
            bind: "127.0.0.1:9995".to_string(),
            control: "127.0.0.1:7055".to_string(),
            rescore_ms: 2_000,
            ring_capacity: 65_536,
            shed: ShedPolicy::DropOldest,
            prefix_len: 24,
            min_score: 0.0,
            threads: 0,
            retries: 3,
            backoff_ms: 200,
            deadline_secs: None,
            stale_after_secs: 15,
            degraded_after_secs: 60,
            boot_unix_secs: EPOCH_UNIX_SECS,
            fail_attempts: 0,
            trace_events: 4096,
            history_ms: 2_000,
        }
    }
}

fn now_unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// What the control port answers from, shared with the ingest loop: the
/// drain latch, the last published generation, and mirrors of the WAL
/// checkpoint.
struct Control {
    registry: Registry,
    quit: AtomicBool,
    generation: AtomicU64,
    /// Unix ms of the last published generation; 0 = none yet (age is
    /// then measured from daemon start).
    last_publish_ms: AtomicU64,
    started_ms: u64,
    age_secs: Gauge,
    sealed_segments: AtomicU64,
    sealed_flows: AtomicU64,
    unsealed_flows: AtomicU64,
    end_seq: AtomicU64,
}

impl Control {
    fn new(registry: Registry) -> Control {
        Control {
            age_secs: registry.gauge("rescore.age_secs"),
            registry,
            quit: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            last_publish_ms: AtomicU64::new(0),
            started_ms: now_unix_ms(),
            sealed_segments: AtomicU64::new(0),
            sealed_flows: AtomicU64::new(0),
            unsealed_flows: AtomicU64::new(0),
            end_seq: AtomicU64::new(0),
        }
    }

    fn stopping(&self) -> bool {
        self.quit.load(Ordering::SeqCst) || SHUTDOWN.load(Ordering::SeqCst)
    }

    fn record_checkpoint(&self, cp: &unclean_flowgen::WalCheckpoint) {
        self.sealed_segments
            .store(cp.sealed_segments as u64, Ordering::Relaxed);
        self.sealed_flows.store(cp.sealed_flows, Ordering::Relaxed);
        self.unsealed_flows
            .store(cp.unsealed_flows, Ordering::Relaxed);
        self.end_seq.store(u64::from(cp.end_seq), Ordering::Relaxed);
    }
}

/// The control port adds `/checkpoint`, reports the last published
/// generation's age on `rescore.age_secs`, and answers `POST /quit` by
/// latching the drain; `ingest` shuts the port down once drained.
impl Daemon for Control {
    const NAME: &'static str = "unclean-ingest";

    fn freshness(&self) -> (u64, Duration) {
        let anchor = match self.last_publish_ms.load(Ordering::Relaxed) {
            0 => self.started_ms,
            ms => ms,
        };
        let age = Duration::from_millis(now_unix_ms().saturating_sub(anchor));
        self.age_secs.set(age.as_secs_f64());
        (self.generation.load(Ordering::Relaxed), age)
    }

    fn route(&self, request: &Request, _: Option<&mut StageTrace>) -> Option<Response> {
        (request.method == "GET" && request.path == "/checkpoint").then(|| {
            let body = format!(
                "{{\"generation\":{},\"sealed_segments\":{},\"sealed_flows\":{},\
                 \"unsealed_flows\":{},\"end_seq\":{}}}\n",
                self.generation.load(Ordering::Relaxed),
                self.sealed_segments.load(Ordering::Relaxed),
                self.sealed_flows.load(Ordering::Relaxed),
                self.unsealed_flows.load(Ordering::Relaxed),
                self.end_seq.load(Ordering::Relaxed),
            );
            Response::ok_with("application/json", body.into_bytes())
        })
    }

    fn quit(&self) -> (&'static str, bool) {
        self.quit.store(true, Ordering::SeqCst);
        ("draining\n", false)
    }
}

/// Registry counter handles resolved once per attempt (the hot loop must
/// not take the registry lock per batch).
struct IngestCounters {
    flows: Counter,
    datagrams: Counter,
    lost_flows: Counter,
    recovered_flows: Counter,
    sequence_gaps: Counter,
    reordered: Counter,
    duplicates: Counter,
    decode_errors: Counter,
    shed_oldest: Counter,
    shed_newest: Counter,
    spooled: Counter,
}

impl IngestCounters {
    fn new(registry: &Registry) -> IngestCounters {
        IngestCounters {
            flows: registry.counter("ingest.flows"),
            datagrams: registry.counter("ingest.datagrams"),
            lost_flows: registry.counter("ingest.lost_flows"),
            recovered_flows: registry.counter("ingest.recovered_flows"),
            sequence_gaps: registry.counter("ingest.sequence_gaps"),
            reordered: registry.counter("ingest.reordered"),
            duplicates: registry.counter("ingest.duplicates"),
            decode_errors: registry.counter("ingest.decode_errors"),
            shed_oldest: registry.counter("ingest.shed_oldest"),
            shed_newest: registry.counter("ingest.shed_newest"),
            spooled: registry.counter("ingest.spooled"),
        }
    }
}

/// Publishes the monotone source/ring totals into registry counters as
/// deltas, so the counters survive attempt restarts without resetting.
#[derive(Default)]
struct TelemetrySync {
    tele: ArchiveTelemetry,
    ring: RingTelemetry,
    decode_errors: u64,
    spooled: u64,
}

impl TelemetrySync {
    fn publish(
        &mut self,
        source: &UdpFlowSource,
        spool: &WalSpool,
        spooled: u64,
        counters: &IngestCounters,
        shared: &Control,
    ) {
        let tele = source.telemetry();
        let ring = source.ring_telemetry();
        let decode_errors = source.decode_errors();
        counters.flows.add(tele.flows - self.tele.flows);
        counters.datagrams.add(tele.datagrams - self.tele.datagrams);
        counters
            .lost_flows
            .add(tele.lost_flows - self.tele.lost_flows);
        counters
            .recovered_flows
            .add(tele.recovered_flows - self.tele.recovered_flows);
        counters
            .sequence_gaps
            .add(tele.sequence_gaps - self.tele.sequence_gaps);
        counters.reordered.add(tele.reordered - self.tele.reordered);
        counters
            .duplicates
            .add(tele.duplicates - self.tele.duplicates);
        counters
            .decode_errors
            .add(decode_errors - self.decode_errors);
        counters
            .shed_oldest
            .add(ring.shed_oldest - self.ring.shed_oldest);
        counters
            .shed_newest
            .add(ring.shed_newest - self.ring.shed_newest);
        counters.spooled.add(spooled - self.spooled);
        self.tele = tele;
        self.ring = ring;
        self.decode_errors = decode_errors;
        self.spooled = spooled;
        shared.record_checkpoint(&spool.checkpoint());
    }
}

/// Seals the spool, feeds the segments sealed since the last publish to
/// the attempt's window, and atomically publishes the rescored blocklist
/// file `serve --watch` is holding. An attempt's first publish replays
/// the whole recovered spool; later ones cost only the new flows plus
/// scoring. Skips the work when no new flow has been sealed since the
/// last publish — a stalled exporter then shows up as growing generation
/// age, exactly what the staleness watchdogs key on.
struct Publisher {
    out: PathBuf,
    window: LiveWindow,
    last_sealed_flows: Option<u64>,
}

impl Publisher {
    fn publish(
        &mut self,
        spool: &mut WalSpool,
        shared: &Control,
        force: bool,
    ) -> Result<bool, String> {
        let fail = |e: String| -> String {
            shared.registry.counter("rescore.errors").inc();
            e
        };
        spool
            .seal()
            .map_err(|e| fail(format!("seal before rescore: {e}")))?;
        let checkpoint = spool.checkpoint();
        if !force && self.last_sealed_flows == Some(checkpoint.sealed_flows) {
            return Ok(false);
        }
        let t0 = Instant::now();
        let scan = self
            .window
            .rescore(&spool.segments(), &shared.registry)
            .map_err(|e| fail(format!("rescore: {e}")))?;
        // Stamp the generation *into* the published file before bumping
        // the shared counter: the header a `serve --watch` reload parses
        // must name exactly the generation this process reports, or the
        // cross-process lineage chain breaks at the boundary.
        let generation = shared.generation.load(Ordering::SeqCst) + 1;
        let published_ms = now_unix_ms();
        let text = render_scored_with_meta(
            &scan.blocklist,
            "unclean-ingest",
            &[
                ("generation", generation.to_string()),
                ("published_unix_ms", published_ms.to_string()),
            ],
        );
        // A watcher never observes a half-written blocklist.
        publish_atomic(&self.out, |f| f.write_all(text.as_bytes()))
            .map_err(|e| fail(format!("cannot publish: {e}")))?;
        self.last_sealed_flows = Some(checkpoint.sealed_flows);
        shared.generation.store(generation, Ordering::SeqCst);
        shared.last_publish_ms.store(published_ms, Ordering::SeqCst);
        shared.registry.trace_event(
            TraceEvent::now(TraceKind::Publish)
                .dur_ns(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64)
                .generation(generation)
                .seq_range(0, u64::from(checkpoint.end_seq))
                .field("networks", scan.blocklist.len())
                .field("sealed_flows", checkpoint.sealed_flows)
                .field("out", self.out.display()),
        );
        shared.registry.counter("rescore.count").inc();
        shared
            .registry
            .gauge("rescore.generation")
            .set(generation as f64);
        shared
            .registry
            .gauge("rescore.networks")
            .set(scan.blocklist.len() as f64);
        shared.record_checkpoint(&checkpoint);
        Ok(true)
    }
}

/// `unclean ingest`: run the supervised live-ingest daemon until SIGTERM,
/// SIGINT, or `POST /quit`. Blocks for the daemon's whole lifetime; bound
/// addresses are printed to stdout immediately so scripts can scrape
/// them, and the returned string is the post-drain summary.
pub fn ingest(opts: &IngestOpts) -> Result<String, String> {
    install_signal_handlers();
    let registry = Registry::full();
    let core = CoreConfig {
        threads: 1,
        stale_after: Some(Duration::from_secs(opts.stale_after_secs)),
        degraded_after: Some(Duration::from_secs(opts.degraded_after_secs)),
        trace_events: opts.trace_events,
        history_interval: (opts.history_ms > 0).then(|| Duration::from_millis(opts.history_ms)),
        ..CoreConfig::new(&opts.control)
    };
    let control = Server::run(Control::new(registry.clone()), core, registry.clone())
        .map_err(|e| format!("cannot bind control {}: {e}", opts.control))?;
    let shared = control.daemon();
    println!(
        "unclean-ingest control on http://{} (spool: {}, blocklist out: {})",
        control.local_addr(),
        opts.spool_dir.display(),
        opts.out.display()
    );
    println!("endpoints: /healthz /metrics /metrics/history /trace /checkpoint /quit");
    let _ = std::io::stdout().flush();

    let started = Instant::now();
    let deadline = opts.deadline_secs.map(Duration::from_secs);
    let mut attempt: u32 = 0;
    let mut consecutive_failures: u32 = 0;
    let outcome = loop {
        attempt += 1;
        registry.counter("ingest.attempts").inc();
        let attempt_started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| run_attempt(opts, shared, attempt)));
        let error = match result {
            Ok(Ok(summary)) => break Ok(format!("{summary} (attempt {attempt})")),
            Ok(Err(e)) => e,
            Err(panic) => format!("panicked: {}", panic_message(&panic)),
        };
        // A long healthy run earns back the retry budget: only
        // *consecutive* quick failures count against --retries.
        if attempt_started.elapsed() >= Duration::from_secs(30) {
            consecutive_failures = 0;
        }
        consecutive_failures += 1;
        registry.counter("ingest.restarts").inc();
        if shared.stopping() {
            break Err(format!("shutdown requested after failure: {error}"));
        }
        if consecutive_failures > opts.retries {
            break Err(format!(
                "giving up after {attempt} attempt(s) ({} consecutive failure(s)): {error}",
                consecutive_failures
            ));
        }
        if let Some(limit) = deadline {
            if started.elapsed() >= limit {
                break Err(format!(
                    "deadline of {}s exceeded after {attempt} attempt(s): {error}",
                    limit.as_secs()
                ));
            }
        }
        let backoff = Duration::from_millis(
            opts.backoff_ms
                .saturating_mul(1u64 << (consecutive_failures - 1).min(6))
                .min(10_000),
        );
        eprintln!(
            "ingest attempt {attempt} failed: {error}; restarting in {}ms",
            backoff.as_millis()
        );
        let wake = Instant::now() + backoff;
        while Instant::now() < wake && !shared.stopping() {
            std::thread::sleep(Duration::from_millis(20));
        }
        if shared.stopping() {
            break Err(format!("shutdown requested during backoff: {error}"));
        }
    };
    control.shutdown();
    outcome
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// One supervised attempt: bind the socket, recover the spool, then pump
/// ring → WAL with periodic rescore until shutdown, ending in a graceful
/// drain (stop socket → drain ring to exhaustion → seal → final publish).
fn run_attempt(opts: &IngestOpts, shared: &Control, attempt: u32) -> Result<String, String> {
    let mut source = UdpFlowSource::bind(UdpSourceConfig {
        bind: opts.bind.clone(),
        boot_unix_secs: opts.boot_unix_secs,
        ring_capacity: opts.ring_capacity,
        shed: opts.shed,
        ..UdpSourceConfig::default()
    })
    .map_err(|e| format!("udp bind {}: {e}", opts.bind))?;
    println!("unclean-ingest listening on udp://{}", source.local_addr());
    let _ = std::io::stdout().flush();

    std::fs::create_dir_all(&opts.spool_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.spool_dir.display()))?;
    let (mut spool, recovered) = if opts
        .spool_dir
        .join(unclean_flowgen::spool::INDEX_FILE)
        .exists()
    {
        let (spool, report) = WalSpool::open(&opts.spool_dir)
            .map_err(|e| format!("cannot recover spool {}: {e}", opts.spool_dir.display()))?;
        (spool, Some(report))
    } else {
        (
            WalSpool::create(&opts.spool_dir, opts.boot_unix_secs)
                .map_err(|e| format!("cannot create spool {}: {e}", opts.spool_dir.display()))?,
            None,
        )
    };
    spool.attach_telemetry(&shared.registry);
    if let Some(report) = &recovered {
        shared.registry.counter("ingest.recoveries").inc();
        shared
            .registry
            .counter("ingest.torn_tail_bytes")
            .add(report.torn_tail_bytes);
        println!(
            "recovered spool: {} sealed segment(s), {} flow(s), resuming at seq {}{}",
            report.sealed_segments,
            report.sealed_flows,
            report.resumed_end_seq,
            if report.torn_tail_bytes > 0 {
                format!(" ({} torn byte(s) quarantined)", report.torn_tail_bytes)
            } else {
                String::new()
            }
        );
        let _ = std::io::stdout().flush();
    }
    if attempt <= opts.fail_attempts {
        return Err(format!(
            "injected failure ({attempt} of {})",
            opts.fail_attempts
        ));
    }

    let counters = IngestCounters::new(&shared.registry);
    let mut sync = TelemetrySync::default();
    let mut publisher = Publisher {
        out: opts.out.clone(),
        window: LiveWindow::new(LiveScanConfig {
            prefix_len: opts.prefix_len,
            min_score: opts.min_score,
            threads: opts.threads,
            ..LiveScanConfig::default()
        }),
        last_sealed_flows: None,
    };
    // First publish is unconditional so `serve` always has a file to
    // load, even before the first flow arrives.
    publisher.publish(
        &mut spool,
        shared,
        shared.generation.load(Ordering::SeqCst) == 0,
    )?;

    let rescore_every = Duration::from_millis(opts.rescore_ms.max(1));
    let mut last_rescore = Instant::now();
    let mut spooled: u64 = sync.spooled;
    let mut batch: Vec<Flow> = Vec::new();
    // Resolve the trace ring once; the hot loop must not take the
    // registry lock per batch.
    let trace = shared.registry.trace();
    while !shared.stopping() {
        batch.clear();
        match source.next_batch(&mut batch) {
            BatchStatus::Delivered(_) => {
                let first_seq = spool.next_seq();
                for flow in &batch {
                    spool.push(flow).map_err(|e| format!("spool: {e}"))?;
                }
                spooled += batch.len() as u64;
                if let Some(ring) = &trace {
                    ring.record(
                        TraceEvent::now(TraceKind::IngestBatch)
                            .seq_range(u64::from(first_seq), u64::from(spool.next_seq()))
                            .field("flows", batch.len())
                            .field("spooled_total", spooled),
                    );
                }
            }
            BatchStatus::Idle => {}
            BatchStatus::Exhausted => break,
        }
        sync.publish(&source, &spool, spooled, &counters, shared);
        if last_rescore.elapsed() >= rescore_every {
            publisher.publish(&mut spool, shared, false)?;
            last_rescore = Instant::now();
        }
    }

    // Graceful drain: stop the socket (the ring closes once empty), then
    // pop until Exhausted — a queued flow is never stranded.
    source.stop();
    loop {
        batch.clear();
        match source.next_batch(&mut batch) {
            BatchStatus::Delivered(_) => {
                for flow in &batch {
                    spool.push(flow).map_err(|e| format!("spool: {e}"))?;
                }
                spooled += batch.len() as u64;
            }
            BatchStatus::Idle => {}
            BatchStatus::Exhausted => break,
        }
    }
    publisher.publish(&mut spool, shared, false)?;
    sync.publish(&source, &spool, spooled, &counters, shared);

    let checkpoint = spool.checkpoint();
    let tele = source.telemetry();
    let ring = source.ring_telemetry();
    Ok(format!(
        "drained cleanly: {} flow(s) spooled into {} sealed segment(s) (end seq {}), \
         {} generation(s) published; lost {} (recovered {}), shed {}, duplicates {}",
        checkpoint.sealed_flows,
        checkpoint.sealed_segments,
        checkpoint.end_seq,
        shared.generation.load(Ordering::SeqCst),
        tele.lost_flows,
        tele.recovered_flows,
        ring.shed(),
        tele.duplicates,
    ))
}

// ---------------------------------------------------------------------------
// unclean replay — the wire side
// ---------------------------------------------------------------------------

/// Everything `unclean replay` needs.
#[derive(Debug, Clone)]
pub struct ReplayOpts {
    /// Collector address the datagrams are sent to.
    pub to: String,
    /// Replay this v2 flow archive instead of synthesizing.
    pub archive: Option<PathBuf>,
    /// Flows to synthesize when no archive is given.
    pub synth: u64,
    /// Wire fault model applied to every datagram but the last.
    pub faults: FaultConfig,
    /// Seed for the fault decision stream.
    pub seed: u64,
    /// Sleep between datagrams (keeps loopback buffers honest).
    pub pace_ms: u64,
    /// Exporter boot anchor stamped into every header.
    pub boot_unix_secs: u32,
}

impl Default for ReplayOpts {
    fn default() -> ReplayOpts {
        ReplayOpts {
            to: String::new(),
            archive: None,
            synth: 20_000,
            faults: FaultConfig::default(),
            seed: 42,
            pace_ms: 0,
            boot_unix_secs: EPOCH_UNIX_SECS,
        }
    }
}

/// Exact wire accounting: what the fault model did to the stream, and
/// therefore what a correct collector must report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Unique flows the exporter generated (the sequence space).
    pub generated: u64,
    /// Flows that reached the wire intact (including garbled-but-framed
    /// corruption) — the collector must admit exactly these.
    pub delivered: u64,
    /// Intact datagrams sent (excluding duplicates).
    pub datagrams: u64,
    /// Flows in independently dropped datagrams.
    pub dropped: u64,
    /// Flows in burst-dropped datagrams.
    pub burst_dropped: u64,
    /// Truncated datagrams sent (they fail decode at the collector).
    pub truncated_datagrams: u64,
    /// Flows lost to truncation.
    pub truncated_flows: u64,
    /// Datagrams with one record byte flipped (still framed, so their
    /// flows are delivered — garbled, not lost).
    pub corrupted_datagrams: u64,
    /// Whole datagrams sent twice.
    pub duplicated_datagrams: u64,
    /// Flows in those duplicated datagrams.
    pub duplicated_flows: u64,
}

impl ReplayStats {
    /// Flows the collector must book as lost (net of recovery).
    pub fn lost(&self) -> u64 {
        self.dropped + self.burst_dropped + self.truncated_flows
    }
}

/// Deterministic scan-shaped traffic: `count` TCP SYN probes from four
/// sources in 9.1.0.0/24, each sweeping globally distinct destinations
/// inside one hour — enough hourly fan-out that the live rescore flags
/// the /24 once a thousand or so flows have landed.
pub fn synth_flows(count: u64) -> Vec<Flow> {
    (0..count)
        .map(|i| Flow {
            src: Ip(0x0901_0001 + (i % 4) as u32),
            dst: Ip(0x1e00_0001u32.wrapping_add(i as u32)),
            src_port: 40_000 + (i % 1_024) as u16,
            dst_port: 445,
            proto: proto::TCP,
            packets: 1,
            octets: 40,
            flags: tcp_flags::SYN,
            start_secs: (i % 3_000) as i64,
            duration_secs: 0,
        })
        .collect()
}

/// `unclean replay`: stream flows at a collector over UDP through the
/// seeded wire fault model. The first and last datagrams are always sent
/// intact — the first anchors the collector's sequence tracker, the last
/// books every interior gap — so the printed accounting is exact.
/// Returns the stats plus the human-readable summary.
pub fn replay_with_stats(opts: &ReplayOpts) -> Result<(ReplayStats, String), String> {
    // A damaged archive segment is skipped, not fatal; `quarantined`
    // names each one in the summary, so a short replay says why.
    let mut quarantined = String::new();
    let flows: Vec<Flow> = match &opts.archive {
        Some(path) => {
            let bytes =
                std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let replay = IndexedArchive::open(&bytes)
                .and_then(|archive| {
                    archive.replay_with(&Executor::new(1), None, true, |_, cursor| {
                        let mut flows = Vec::new();
                        cursor.for_each_flow(|f| flows.push(*f))?;
                        Ok(flows)
                    })
                })
                .map_err(|e| format!("{}: {e}", path.display()))?;
            if !replay.quarantined.is_empty() {
                let _ = writeln!(
                    quarantined,
                    "quarantined {} damaged segment(s) of {}, not replayed:",
                    replay.quarantined.len(),
                    path.display()
                );
                for q in &replay.quarantined {
                    let _ = writeln!(
                        quarantined,
                        "  segment {} ({}): {}",
                        q.segment, q.day, q.detail
                    );
                }
            }
            replay
                .outputs
                .into_iter()
                .filter_map(|o| o.output)
                .flatten()
                .collect()
        }
        None => synth_flows(opts.synth),
    };
    if flows.is_empty() {
        let why = format!("nothing to replay (empty archive or --synth 0)\n{quarantined}");
        return Err(why.trim_end().to_string());
    }
    let target: std::net::SocketAddr = opts
        .to
        .parse()
        .map_err(|_| format!("--to wants host:port, got {:?}", opts.to))?;
    let socket = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("sender socket: {e}"))?;
    let send = |wire: &[u8]| -> Result<(), String> {
        socket
            .send_to(wire, target)
            .map(|_| ())
            .map_err(|e| format!("send to {target}: {e}"))
    };

    let seeds = SeedTree::new(opts.seed).child("replay-wire");
    let cfg = &opts.faults;
    let mut stats = ReplayStats::default();
    let chunks: Vec<&[Flow]> = flows.chunks(V5_MAX_RECORDS).collect();
    let last = chunks.len() - 1;
    let mut seq: u32 = 0;
    let mut burst_remaining: u32 = 0;
    for (i, chunk) in chunks.iter().enumerate() {
        let first_seq = seq;
        seq = seq.wrapping_add(chunk.len() as u32);
        stats.generated += chunk.len() as u64;
        let nonce = (i as u32).wrapping_add(1);
        let len = chunk.len() as u64;
        let final_datagram = i == last;
        // The first and last datagrams are fault-exempt loss-wise: the
        // first anchors the collector's sequence tracker (a gap before
        // any admitted datagram is invisible), and the last books every
        // interior gap. Everything between faces the full fault model.
        let anchored = i == 0 || final_datagram;
        if !anchored {
            if burst_remaining > 0 {
                burst_remaining -= 1;
                stats.burst_dropped += len;
                continue;
            }
            if decides(&seeds, nonce, 0, "replay-burst", cfg.burst_chance) {
                burst_remaining = cfg.burst_len.saturating_sub(1);
                stats.burst_dropped += len;
                continue;
            }
            if decides(&seeds, nonce, 0, "replay-drop", cfg.drop_chance) {
                stats.dropped += len;
                continue;
            }
        }
        let records: Vec<_> = chunk.iter().map(|f| f.to_v5(opts.boot_unix_secs)).collect();
        let header = V5Header {
            count: records.len() as u16,
            sys_uptime_ms: 0,
            unix_secs: opts.boot_unix_secs,
            unix_nsecs: 0,
            flow_sequence: first_seq,
            engine_type: 0,
            engine_id: 0,
            sampling_interval: 0,
        };
        let mut wire = encode_datagram(&header, &records);
        if !anchored {
            if decides(&seeds, nonce, 0, "replay-trunc", cfg.truncate_chance) {
                // Cut mid-way through the last record: the collector's
                // decode fails and the whole datagram books as a gap.
                wire.truncate(
                    V5_HEADER_LEN + (chunk.len() - 1) * V5_RECORD_LEN + V5_RECORD_LEN / 2,
                );
                stats.truncated_datagrams += 1;
                stats.truncated_flows += len;
                send(&wire)?;
                pace(opts.pace_ms);
                continue;
            }
            if decides(&seeds, nonce, 0, "replay-corrupt", cfg.corrupt_chance) {
                // Flip one *record* byte, never a header byte: the flow
                // garbles but the sequence accounting stays exact.
                let idx = V5_HEADER_LEN
                    + index_hash(&seeds, nonce, 0, "replay-byte", chunk.len() * V5_RECORD_LEN);
                let bit = index_hash(&seeds, nonce, 0, "replay-bit", 8);
                wire[idx] ^= 1 << bit;
                stats.corrupted_datagrams += 1;
            }
        }
        send(&wire)?;
        stats.delivered += len;
        stats.datagrams += 1;
        if !final_datagram && decides(&seeds, nonce, 0, "replay-dup", cfg.dup_datagram_chance) {
            send(&wire)?;
            stats.duplicated_datagrams += 1;
            stats.duplicated_flows += len;
        }
        pace(opts.pace_ms);
    }

    let summary = format!(
        "replayed {} flow(s) to {target} in {} datagram(s)\n\
         delivered {} flow(s); lost on the wire {} (drop {}, burst {}, truncated {} in {} datagram(s))\n\
         corrupted {} datagram(s) in place; duplicated {} datagram(s) ({} flow(s))\n\
         expected collector accounting: ingested+shed={} lost={} duplicates={} \
         (= {} generated)\n{quarantined}",
        stats.generated,
        stats.datagrams,
        stats.delivered,
        stats.lost(),
        stats.dropped,
        stats.burst_dropped,
        stats.truncated_flows,
        stats.truncated_datagrams,
        stats.corrupted_datagrams,
        stats.duplicated_datagrams,
        stats.duplicated_flows,
        stats.delivered,
        stats.lost(),
        stats.duplicated_flows,
        stats.generated,
    );
    Ok((stats, summary))
}

fn pace(ms: u64) {
    if ms > 0 {
        std::thread::sleep(Duration::from_millis(ms));
    }
}

/// CLI wrapper for [`replay_with_stats`].
pub fn replay(opts: &ReplayOpts) -> Result<String, String> {
    replay_with_stats(opts).map(|(_, summary)| summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;
    use std::net::{TcpListener, TcpStream};
    use std::path::Path;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("unclean-cli-ingest").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir
    }

    /// Reserve a free TCP port and release it (for daemons that print
    /// their bound address to stdout, which a test cannot capture).
    fn free_tcp_addr() -> String {
        let probe = TcpListener::bind("127.0.0.1:0").expect("probe");
        format!("127.0.0.1:{}", probe.local_addr().expect("addr").port())
    }

    fn free_udp_addr() -> String {
        let probe = UdpSocket::bind("127.0.0.1:0").expect("probe");
        format!("127.0.0.1:{}", probe.local_addr().expect("addr").port())
    }

    /// One blocking HTTP exchange against `addr`, retrying the connect
    /// until the daemon is up.
    fn http(addr: &str, request: &str) -> String {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match TcpStream::connect(addr) {
                Ok(mut stream) => {
                    stream.write_all(request.as_bytes()).expect("write");
                    let mut text = String::new();
                    stream.read_to_string(&mut text).expect("read");
                    return text;
                }
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => panic!("control endpoint never came up: {e}"),
            }
        }
    }

    fn body_of(response: &str) -> &str {
        response
            .split_once("\r\n\r\n")
            .map(|(_, body)| body)
            .unwrap_or("")
    }

    fn test_opts(dir: &Path) -> IngestOpts {
        IngestOpts {
            spool_dir: dir.join("spool"),
            out: dir.join("blocklist.txt"),
            bind: free_udp_addr(),
            control: free_tcp_addr(),
            rescore_ms: 100,
            retries: 0,
            backoff_ms: 10,
            stale_after_secs: 3_600,
            degraded_after_secs: 7_200,
            threads: 1,
            ..IngestOpts::default()
        }
    }

    #[test]
    fn ingest_streams_rescores_and_drains_cleanly() {
        let dir = tmp_dir("stream");
        let opts = test_opts(&dir);
        let (bind, control) = (opts.bind.clone(), opts.control.clone());
        let daemon = {
            let opts = opts.clone();
            std::thread::spawn(move || ingest(&opts))
        };
        // The daemon publishes generation 1 (an empty blocklist) at boot.
        let health = http(&control, "GET /healthz HTTP/1.0\r\n\r\n");
        assert!(health.starts_with("HTTP/1.0 200"), "{health}");

        // Stream clean scan traffic at it; a later generation must carry
        // the scanner's /24.
        let (stats, _) = replay_with_stats(&ReplayOpts {
            to: bind,
            synth: 2_000,
            pace_ms: 1,
            ..ReplayOpts::default()
        })
        .expect("replay");
        assert_eq!(stats.generated, 2_000);
        assert_eq!(stats.lost(), 0, "default faults drop nothing");

        let deadline = Instant::now() + Duration::from_secs(15);
        let blocklist = loop {
            let text = std::fs::read_to_string(&opts.out).unwrap_or_default();
            if text.contains("9.1.0.0/24") {
                break text;
            }
            assert!(
                Instant::now() < deadline,
                "blocklist never picked up the scanner: {text:?}"
            );
            std::thread::sleep(Duration::from_millis(50));
        };
        assert!(blocklist.contains("score="), "{blocklist}");

        let metrics = http(&control, "GET /metrics HTTP/1.0\r\n\r\n");
        assert!(metrics.contains("unclean_ingest_ingest_flows"), "{metrics}");
        let checkpoint = http(&control, "GET /checkpoint HTTP/1.0\r\n\r\n");
        assert!(checkpoint.contains("\"end_seq\""), "{checkpoint}");

        let quit = http(&control, "POST /quit HTTP/1.0\r\nContent-Length: 0\r\n\r\n");
        assert_eq!(body_of(&quit), "draining\n");
        let summary = daemon.join().expect("join").expect("ingest ok");
        assert!(summary.contains("drained cleanly"), "{summary}");
        assert!(summary.contains("2000 flow(s) spooled"), "{summary}");
        assert!(summary.contains("shed 0, duplicates 0"), "{summary}");

        // Drain-zero-loss, proven durably: reopening the WAL finds every
        // streamed flow sealed.
        let (_, report) = WalSpool::open(&opts.spool_dir).expect("reopen");
        assert_eq!(report.sealed_flows, 2_000);
        assert_eq!(report.torn_tail_bytes, 0);
    }

    /// Send `flows` to `to` as V5 datagrams numbered on from `*seq`.
    fn send_v5(to: &str, flows: &[Flow], seq: &mut u32) {
        let socket = UdpSocket::bind("127.0.0.1:0").expect("sender");
        for chunk in flows.chunks(V5_MAX_RECORDS) {
            let records: Vec<_> = chunk.iter().map(|f| f.to_v5(EPOCH_UNIX_SECS)).collect();
            let header = V5Header {
                count: records.len() as u16,
                unix_secs: EPOCH_UNIX_SECS,
                flow_sequence: *seq,
                ..V5Header::default()
            };
            *seq = seq.wrapping_add(chunk.len() as u32);
            socket
                .send_to(&encode_datagram(&header, &records), to)
                .expect("send");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Poll `/checkpoint` until the daemon has published past generation
    /// `after` with `sealed` flows sealed; returns that generation.
    fn published(control: &str, after: u64, sealed: u64) -> u64 {
        let deadline = Instant::now() + Duration::from_secs(15);
        loop {
            let response = http(control, "GET /checkpoint HTTP/1.0\r\n\r\n");
            let checkpoint: serde_json::Value =
                serde_json::from_str(body_of(&response)).expect("checkpoint JSON");
            let field = |key: &str| checkpoint.get(key).and_then(|v| v.as_u64());
            if let (Some(generation), Some(s)) = (field("generation"), field("sealed_flows")) {
                if generation > after && s == sealed {
                    return generation;
                }
            }
            assert!(
                Instant::now() < deadline,
                "no publish past generation {after} with {sealed} sealed flows: {response}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// A Prometheus sample's value; an absent series reads 0.
    fn sample(metrics: &str, name: &str) -> u64 {
        metrics
            .lines()
            .filter_map(|line| line.split_once(' '))
            .find(|(key, _)| *key == name)
            .map_or(0, |(_, v)| v.trim().parse().expect("integer sample"))
    }

    /// Each publish feeds the attempt's window only the segments sealed
    /// since the previous one, so over several publishes the archive
    /// counters book every sealed flow exactly once.
    #[test]
    fn each_sealed_flow_is_decoded_once_per_attempt() {
        let dir = tmp_dir("decode-once");
        let opts = test_opts(&dir);
        let (bind, control) = (opts.bind.clone(), opts.control.clone());
        let daemon = {
            let opts = opts.clone();
            std::thread::spawn(move || ingest(&opts))
        };
        let flows = synth_flows(1_500);
        let (mut seq, mut generation) = (0u32, published(&control, 0, 0));
        for (k, burst) in flows.chunks(500).enumerate() {
            send_v5(&bind, burst, &mut seq);
            generation = published(&control, generation, 500 * (k as u64 + 1));
        }
        assert!(generation >= 4, "{generation}");
        let metrics = http(&control, "GET /metrics HTTP/1.0\r\n\r\n");
        assert_eq!(sample(&metrics, "unclean_ingest_archive_flows"), 1_500);
        assert_eq!(sample(&metrics, "unclean_ingest_ingest_flows"), 1_500);

        let quit = http(&control, "POST /quit HTTP/1.0\r\nContent-Length: 0\r\n\r\n");
        assert_eq!(body_of(&quit), "draining\n");
        daemon.join().expect("join").expect("ingest ok");
    }

    /// A flow dated two days before the spool's first one: the next
    /// publish scores both days, and the daemon neither restarts nor goes
    /// unhealthy.
    #[test]
    fn a_flow_before_the_spools_first_day_publishes() {
        let dir = tmp_dir("earlier-day");
        let opts = test_opts(&dir);
        let (bind, control) = (opts.bind.clone(), opts.control.clone());
        let daemon = {
            let opts = opts.clone();
            std::thread::spawn(move || ingest(&opts))
        };
        let mut seq = 0u32;
        let mut generation = published(&control, 0, 0);
        // `first` = 172,800,000 ms after the boot anchor, then 1,000 ms.
        for (start_secs, sealed) in [(2 * 86_400, 1), (1, 2)] {
            let flow = Flow {
                start_secs,
                ..synth_flows(1)[0]
            };
            send_v5(&bind, &[flow], &mut seq);
            generation = published(&control, generation, sealed);
        }
        let metrics = http(&control, "GET /metrics HTTP/1.0\r\n\r\n");
        assert_eq!(sample(&metrics, "unclean_ingest_ingest_restarts"), 0);
        let health = http(&control, "GET /healthz HTTP/1.0\r\n\r\n");
        assert!(body_of(&health).starts_with("ok "), "{health}");

        let quit = http(&control, "POST /quit HTTP/1.0\r\nContent-Length: 0\r\n\r\n");
        assert_eq!(body_of(&quit), "draining\n");
        let summary = daemon.join().expect("join").expect("ingest ok");
        assert!(summary.contains("(attempt 1)"), "{summary}");
    }

    /// Fetch `/trace?format=events` from a daemon and deserialize.
    fn fetch_events(addr: &str) -> Vec<unclean_telemetry::TraceEvent> {
        let response = http(addr, "GET /trace?format=events HTTP/1.0\r\n\r\n");
        let value: serde_json::Value =
            serde_json::from_str(body_of(&response)).expect("trace JSON");
        let events = value.get("events").expect("events key");
        serde_json::from_str(&serde_json::to_string(events).expect("reserialize"))
            .expect("events deserialize")
    }

    /// The tentpole acceptance test: one sampled `/lookup` on the serving
    /// daemon walks back — by generation id across the process boundary,
    /// then by WAL sequence range inside the producer — through reload →
    /// publish → rescore → WAL seal → ingest batch.
    #[test]
    fn lookup_traces_back_to_ingest_batch_by_generation() {
        let dir = tmp_dir("lineage");
        let opts = test_opts(&dir);
        let (bind, control) = (opts.bind.clone(), opts.control.clone());
        let daemon = {
            let opts = opts.clone();
            std::thread::spawn(move || ingest(&opts))
        };
        let health = http(&control, "GET /healthz HTTP/1.0\r\n\r\n");
        assert!(health.starts_with("HTTP/1.0 200"), "{health}");

        replay_with_stats(&ReplayOpts {
            to: bind,
            synth: 2_000,
            pace_ms: 1,
            ..ReplayOpts::default()
        })
        .expect("replay");

        // Wait for a post-flow generation: a blocklist that names the
        // scanner's /24 *and* carries lineage metadata in its header.
        let deadline = Instant::now() + Duration::from_secs(15);
        loop {
            let text = std::fs::read_to_string(&opts.out).unwrap_or_default();
            let meta = unclean_core::blocklist::parse_header_meta(&text).unwrap_or_default();
            if text.contains("9.1.0.0/24") && meta.contains_key("generation") {
                assert!(meta.contains_key("published_unix_ms"), "{text:?}");
                break;
            }
            assert!(
                Instant::now() < deadline,
                "published list never carried lineage metadata: {text:?}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }

        // Serve the published file with every request sampled.
        let mut config = unclean_serve::ServeConfig::new(&opts.out);
        config.core.threads = 2;
        config.core.trace_sample = 1;
        let server = unclean_serve::Server::start(config, Registry::full()).expect("serve starts");
        let serve_addr = server.local_addr().to_string();
        let lookup = http(&serve_addr, "GET /lookup?ip=9.1.0.5 HTTP/1.0\r\n\r\n");
        assert!(lookup.starts_with("HTTP/1.0 200"), "{lookup}");
        assert!(body_of(&lookup).contains("\"blocked\":true"), "{lookup}");

        // The sampled Lookup event lands just after the response bytes;
        // poll the ring until it shows with its source generation.
        use unclean_telemetry::TraceKind;
        let deadline = Instant::now() + Duration::from_secs(5);
        let (lookup_event, source_generation) = loop {
            let events = fetch_events(&serve_addr);
            if let Some(event) = events
                .iter()
                .find(|e| e.kind == TraceKind::Lookup && e.source_generation.is_some())
            {
                break (event.clone(), event.source_generation.expect("source gen"));
            }
            assert!(Instant::now() < deadline, "no sampled lookup: {events:?}");
            std::thread::sleep(Duration::from_millis(20));
        };

        // Link 1 (serve): the lookup answered from a reload (here: the
        // boot snapshot) of the same serving generation, which names the
        // producer generation it was built from.
        let serve_events = fetch_events(&serve_addr);
        let reload = serve_events
            .iter()
            .find(|e| e.kind == TraceKind::Reload && e.generation == lookup_event.generation)
            .expect("reload event for the serving generation");
        assert_eq!(reload.source_generation, Some(source_generation));

        // Link 2 (across processes, by generation id): the producer's
        // Publish event for exactly that generation.
        let ingest_events = fetch_events(&control);
        let publish = ingest_events
            .iter()
            .find(|e| e.kind == TraceKind::Publish && e.generation == Some(source_generation))
            .expect("publish event for the source generation");
        let end_seq = publish.end_seq.expect("publish end_seq");
        assert!(end_seq > 0, "{publish:?}");

        // Link 3: a rescore ran to produce it.
        assert!(
            ingest_events.iter().any(|e| e.kind == TraceKind::Rescore),
            "no rescore event: {ingest_events:?}"
        );

        // Link 4 (by WAL sequence range): a sealed segment covering the
        // published window, and an ingest batch inside that segment.
        let seal = ingest_events
            .iter()
            .find(|e| e.kind == TraceKind::WalSeal && e.end_seq == Some(end_seq))
            .expect("wal seal event sealing the published window");
        assert!(seal.first_seq.is_some(), "{seal:?}");
        // The published window is the whole sealed image, [0, end_seq).
        let batch = ingest_events
            .iter()
            .find(|e| {
                e.kind == TraceKind::IngestBatch && e.end_seq.is_some_and(|l| 0 < l && l <= end_seq)
            })
            .expect("ingest batch inside the published window");
        assert!(batch.seq < seal.seq, "batch recorded before its seal");

        // The ops tooling reads the same daemons: `unclean trace export`
        // saves a chrome trace, `unclean top` renders the flight recorder.
        let exported = dir.join("trace.json");
        let out = crate::commands::trace_export(&control, Some(&exported)).expect("export");
        assert!(out.contains("exported chrome trace"), "{out}");
        let chrome = std::fs::read_to_string(&exported).expect("read export");
        assert!(chrome.contains("\"traceEvents\""), "{chrome:?}");
        let dashboard = crate::commands::top(&control, 100, 1, true).expect("top");
        assert!(dashboard.contains("unclean top"), "{dashboard}");

        // Drain both daemons.
        let quit = http(&control, "POST /quit HTTP/1.0\r\nContent-Length: 0\r\n\r\n");
        assert_eq!(body_of(&quit), "draining\n");
        daemon.join().expect("join").expect("ingest ok");
        let serve_registry = server.registry().clone();
        let _ = http(
            &serve_addr,
            "POST /quit HTTP/1.0\r\nContent-Length: 0\r\n\r\n",
        );
        server.wait();

        // The bounded ring never dropped an event in this run.
        assert_eq!(
            serve_registry.counter_value("trace.events_dropped"),
            0,
            "serve ring dropped events"
        );
    }

    /// One client connects and sends nothing; another sends a request a
    /// byte every 200 ms. Neither holds the control port: `/healthz`
    /// answers within a second, and one HTTP/1.1 connection gets answers
    /// to two pipelined requests.
    #[test]
    fn stalled_clients_cannot_stall_the_control_port() {
        let dir = tmp_dir("stall");
        let opts = test_opts(&dir);
        let control = opts.control.clone();
        let daemon = {
            let opts = opts.clone();
            std::thread::spawn(move || ingest(&opts))
        };
        let health = http(&control, "GET /healthz HTTP/1.0\r\n\r\n");
        assert!(health.starts_with("HTTP/1.0 200"), "{health}");

        // Both connect before the probes below, so a server that serves
        // connections in accept order meets the stalled ones first.
        let _idle = TcpStream::connect(&control).expect("idle client");
        let mut slow = TcpStream::connect(&control).expect("slow client");
        let (stop, stopped) = std::sync::mpsc::channel::<()>();
        let trickle = std::thread::spawn(move || {
            for byte in b"GET /healthz HTTP/1.0\r\n\r\n" {
                let timeout = std::sync::mpsc::RecvTimeoutError::Timeout;
                if slow.write_all(&[*byte]).is_err()
                    || stopped.recv_timeout(Duration::from_millis(200)) != Err(timeout)
                {
                    break;
                }
            }
        });

        let exchange = |request: &[u8]| {
            let t0 = Instant::now();
            let mut stream = TcpStream::connect(&control).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(1)))
                .expect("read timeout");
            stream.write_all(request).expect("write");
            let mut text = String::new();
            let read = stream.read_to_string(&mut text);
            assert!(read.is_ok(), "no answer within 1 s: {read:?} {text:?}");
            assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
            text
        };
        let health = exchange(b"GET /healthz HTTP/1.0\r\n\r\n");
        assert!(health.starts_with("HTTP/1.0 200 OK"), "{health}");
        let both = exchange(
            b"GET /healthz HTTP/1.1\r\n\r\nGET /checkpoint HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(both.matches("HTTP/1.1 200 OK").count(), 2, "{both}");
        assert!(both.contains("\"end_seq\""), "{both}");
        drop(stop);
        trickle.join().expect("trickling client");

        let quit = http(&control, "POST /quit HTTP/1.0\r\nContent-Length: 0\r\n\r\n");
        assert_eq!(body_of(&quit), "draining\n");
        daemon.join().expect("join").expect("ingest ok");
    }

    /// With no request in between, the flight recorder's samples carry a
    /// `rescore.age_secs` that grows from sample to sample.
    #[test]
    fn rescore_age_advances_across_history_samples() {
        let dir = tmp_dir("history");
        let opts = IngestOpts {
            history_ms: 100,
            ..test_opts(&dir)
        };
        let control = opts.control.clone();
        let daemon = {
            let opts = opts.clone();
            std::thread::spawn(move || ingest(&opts))
        };
        // Generation 1 publishes at boot; no flow follows, so its age
        // only grows. Wait for it without touching the control port.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !opts.out.exists() {
            assert!(Instant::now() < deadline, "no boot publish");
            std::thread::sleep(Duration::from_millis(20));
        }
        std::thread::sleep(Duration::from_millis(1_000));

        let history = http(&control, "GET /metrics/history HTTP/1.0\r\n\r\n");
        let value: serde_json::Value = serde_json::from_str(body_of(&history)).expect("JSON");
        let samples: Vec<unclean_telemetry::HistorySample> =
            serde_json::from_value(value.get("samples").expect("samples"))
                .expect("samples deserialize");
        let ages: Vec<f64> = samples
            .iter()
            .filter_map(|sample| sample.gauges.get("rescore.age_secs").copied())
            .collect();
        let last = &ages[ages.len().saturating_sub(4)..];
        assert_eq!(last.len(), 4, "too few samples carry the age: {history}");
        assert!(last.windows(2).all(|w| w[0] < w[1]), "{ages:?}");
        assert!(last[3] >= 0.3, "{ages:?}");

        let quit = http(&control, "POST /quit HTTP/1.0\r\nContent-Length: 0\r\n\r\n");
        assert_eq!(body_of(&quit), "draining\n");
        daemon.join().expect("join").expect("ingest ok");
    }

    #[test]
    fn supervisor_restarts_with_backoff_until_healthy() {
        let dir = tmp_dir("supervisor");
        let opts = IngestOpts {
            fail_attempts: 2,
            retries: 3,
            ..test_opts(&dir)
        };
        let control = opts.control.clone();
        let daemon = {
            let opts = opts.clone();
            std::thread::spawn(move || ingest(&opts))
        };
        // Wait for the third (healthy) attempt to be underway before
        // asking it to drain — quitting mid-failure is a different path.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let metrics = http(&control, "GET /metrics HTTP/1.0\r\n\r\n");
            if metrics.contains("unclean_ingest_ingest_attempts 3") {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "third attempt never started: {metrics}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        let health = http(&control, "GET /healthz HTTP/1.0\r\n\r\n");
        assert!(health.starts_with("HTTP/1.0 200"), "{health}");
        let quit = http(&control, "POST /quit HTTP/1.0\r\nContent-Length: 0\r\n\r\n");
        assert_eq!(body_of(&quit), "draining\n");
        let summary = daemon.join().expect("join").expect("ingest ok");
        assert!(summary.contains("(attempt 3)"), "{summary}");
    }

    #[test]
    fn supervisor_gives_up_past_retry_budget() {
        let dir = tmp_dir("give-up");
        let opts = IngestOpts {
            fail_attempts: 10,
            retries: 1,
            ..test_opts(&dir)
        };
        let err = ingest(&opts).expect_err("must give up");
        assert!(err.contains("giving up after 2 attempt(s)"), "{err}");
        assert!(err.contains("injected failure"), "{err}");
    }

    #[test]
    fn replay_accounting_is_exact_under_adverse_faults() {
        let mut source = UdpFlowSource::bind(UdpSourceConfig {
            poll_timeout: Duration::from_millis(10),
            ..UdpSourceConfig::default()
        })
        .expect("bind");
        let (stats, summary) = replay_with_stats(&ReplayOpts {
            to: source.local_addr().to_string(),
            synth: 3_000,
            faults: FaultConfig::adverse(),
            seed: 11,
            pace_ms: 1,
            ..ReplayOpts::default()
        })
        .expect("replay");
        assert!(stats.lost() > 0, "adverse faults must drop something");
        assert!(stats.duplicated_datagrams > 0, "{summary}");
        assert!(stats.corrupted_datagrams > 0, "{summary}");

        // Wait until every sent datagram is decoded or booked.
        let want_datagrams = stats.datagrams + stats.duplicated_datagrams;
        let deadline = Instant::now() + Duration::from_secs(10);
        while (source.telemetry().datagrams < want_datagrams
            || source.decode_errors() < stats.truncated_datagrams)
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        source.stop();
        let mut drained = Vec::new();
        while source.next_batch(&mut drained) != BatchStatus::Exhausted {}

        // The robustness contract: ingested + shed + lost + duplicates
        // books every flow the exporter generated (plus duplication).
        let t = source.telemetry();
        assert_eq!(t.flows, stats.delivered, "{summary}");
        assert_eq!(t.duplicates, stats.duplicated_flows, "{summary}");
        assert_eq!(t.lost_flows - t.recovered_flows, stats.lost(), "{summary}");
        assert_eq!(
            t.flows + (t.lost_flows - t.recovered_flows),
            stats.generated
        );
        assert_eq!(source.decode_errors(), stats.truncated_datagrams);
        assert_eq!(
            drained.len() as u64 + source.ring_telemetry().shed(),
            t.flows
        );
    }

    /// `replay --archive` sends every flow of a v2 archive; a damaged
    /// segment is skipped and named in the summary.
    #[test]
    fn replay_of_an_archive_names_its_quarantined_segments() {
        let receiver = UdpSocket::bind("127.0.0.1:0").expect("receiver");
        receiver
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let to = receiver.local_addr().expect("addr").to_string();
        let received = |datagrams: u64| -> u64 {
            let mut buf = [0u8; 2048];
            let mut flows = 0;
            for _ in 0..datagrams {
                let len = receiver.recv(&mut buf).expect("a replayed datagram");
                let (_, records) = unclean_flowgen::decode_datagram(&buf[..len]).expect("V5");
                flows += records.len() as u64;
            }
            flows
        };
        let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/golden_v2.flows");
        let replay_from = |archive: PathBuf| {
            replay_with_stats(&ReplayOpts {
                to: to.clone(),
                archive: Some(archive),
                ..ReplayOpts::default()
            })
            .expect("replay")
        };

        let (stats, summary) = replay_from(golden.clone());
        assert_eq!(stats.generated, 201, "{summary}");
        assert_eq!(received(stats.datagrams), 201);
        assert!(!summary.contains("quarantined"), "{summary}");

        let mut bytes = std::fs::read(&golden).expect("golden v2");
        let seg = IndexedArchive::open(&bytes).expect("v2").segments()[1];
        bytes[(seg.offset + seg.len / 2) as usize] ^= 0xff;
        let damaged = tmp_dir("replay-archive").join("damaged.flows");
        std::fs::write(&damaged, &bytes).expect("write");
        let (stats, summary) = replay_from(damaged);
        assert_eq!(stats.generated, 201 - seg.flows, "{summary}");
        assert_eq!(received(stats.datagrams), 201 - seg.flows);
        assert!(
            summary.contains("quarantined 1 damaged segment(s)"),
            "{summary}"
        );
        assert!(summary.contains("segment 1 ("), "{summary}");
    }

    #[test]
    fn replay_rejects_empty_and_bad_target() {
        let err = replay(&ReplayOpts {
            to: "127.0.0.1:9".into(),
            synth: 0,
            ..ReplayOpts::default()
        })
        .expect_err("empty");
        assert!(err.contains("nothing to replay"), "{err}");
        let err = replay(&ReplayOpts {
            to: "not-an-addr".into(),
            synth: 10,
            ..ReplayOpts::default()
        })
        .expect_err("bad addr");
        assert!(err.contains("host:port"), "{err}");
    }

    #[test]
    fn synth_flows_trip_the_fanout_detector() {
        let flows = synth_flows(1_200);
        assert_eq!(flows.len(), 1_200);
        // Four sources, each with 300 globally distinct destinations in
        // hour zero — comfortably past the 64-distinct-dst threshold.
        let distinct: std::collections::BTreeSet<u32> = flows.iter().map(|f| f.dst.0).collect();
        assert_eq!(distinct.len(), 1_200);
        assert!(flows.iter().all(|f| f.start_secs < 3_600));
    }
}
