//! `live`: `unclean ingest` (default `--rescore-ms`) plus `unclean serve
//! --watch` on its published list, both pinned to the daemon CPU. The load
//! thread sends NetFlow V5 over UDP in an open loop — flows pre-generated
//! from the seed with the scenario's own `FlowGenerator` — and every 0.2 s
//! injects a marker scanner: a fresh /24 in 198.18.0.0/15 (the
//! benchmarking range) sending 100 SYN-only flows to distinct destinations
//! within one simulated hour, above the detector's 64-per-hour fan-out
//! threshold. It then polls serve every 10 ms until each marker is
//! blocked. This is the only workload that writes (WAL appends and
//! fsync'd seals) and reloads serve while it answers; every rescore
//! re-reads the whole sealed spool, so its cost grows with the spool.

use crate::http::{batch_bin_request, batch_bin_verdicts, Conn};
use crate::stats::{median, percentile, sorted, tail_percentile};
use crate::sys::{self, pin_current_thread, Daemon};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};
use std::collections::HashSet;
use std::net::UdpSocket;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};
use unclean_core::blocklist::{parse_scored, render_scored_with_meta};
use unclean_core::frozen::FrozenTrie;
use unclean_core::Ip;
use unclean_detect::{rescore_window, LiveScanConfig};
use unclean_flowgen::record::{proto, tcp_flags, EPOCH_UNIX_SECS};
use unclean_flowgen::{
    decode_datagram, encode_datagram, Flow, FlowGenerator, GeneratorConfig, V5Header, WalSpool,
    V5_MAX_RECORDS,
};
use unclean_netmodel::{Scenario, ScenarioConfig};
use unclean_telemetry::Registry;

/// Background flows sent per second. Ingest rescores in its receive loop,
/// so its 65,536-flow ring must cover the longest rescore plus any fsync
/// stall: at 80,000 flows/s, runs on a busy host shed and lost flows (and
/// once a whole marker); at half that none did.
const RATE: f64 = 40_000.0;
/// A marker scanner is injected this often.
const MARKER_EVERY_S: f64 = 0.2;
/// Flows per marker: distinct destinations within one hour, above the
/// 64-per-hour fan-out threshold.
const MARKER_FLOWS: u32 = 100;
/// Serve is asked about every unblocked marker this often.
const POLL_EVERY: Duration = Duration::from_millis(10);
/// After the last send, markers must be blocked within this.
const SETTLE: Duration = Duration::from_secs(20);
/// The ingest daemon's default rescore period; the in-process WAL pass
/// seals on the same cadence.
const RESCORE_PERIOD_S: f64 = 2.0;
/// Fewest unclean-window flows a scenario yields per unit of scale (the
/// leanest seeds seen give 3.5e8): the pre-generation scale is sized from
/// it so the window always holds the flows a run sends.
const FLOWS_PER_UNIT_SCALE: f64 = 3.0e8;
/// 198.18.0.0/15, as a /24 prefix: markers are drawn from here.
const MARKER_PREFIX24: u32 = 0xC6_1200;
/// Times the daemons are started (both up and answering); the median is
/// `setup_s`. Two daemon starts and the first publish's fsyncs take about
/// 4 ms and vary by tens of percent with the host's disk load, so it takes
/// many samples.
const SETUP_REPEATS: usize = 25;
/// Verdict byte of a blocked /24 in a `/batch-bin` answer.
const BLOCKED_24: u8 = 25;

/// What one run sends: background flows in generator order (a whole
/// number of datagrams) and the marker sources.
pub struct Plan {
    flows: Vec<Flow>,
    markers: Vec<u32>,
}

/// One scheduled send.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Item {
    /// Background datagram `k`: flows `30k .. 30k + 30`.
    Background(usize),
    /// Marker `m`, timed within the hour of background flow `anchor`.
    Marker(usize, usize),
}

impl Plan {
    /// Flows the run sends, markers included.
    pub fn flows_sent(&self) -> u64 {
        (self.flows.len() + self.markers.len() * MARKER_FLOWS as usize) as u64
    }

    /// Every send with its due time in seconds from the start, in order.
    fn schedule(&self) -> Vec<(f64, Item)> {
        let per = V5_MAX_RECORDS;
        let n_bg = self.flows.len() / per;
        let step = per as f64 / RATE;
        let mut items = Vec::with_capacity(n_bg + self.markers.len());
        let mut m = 0;
        for k in 0..n_bg {
            let due = k as f64 * step;
            while m < self.markers.len() && (m + 1) as f64 * MARKER_EVERY_S < due {
                let anchor = (k * per).saturating_sub(1);
                items.push(((m + 1) as f64 * MARKER_EVERY_S, Item::Marker(m, anchor)));
                m += 1;
            }
            items.push((due, Item::Background(k)));
        }
        let last = self.flows.len().saturating_sub(1);
        for m in m..self.markers.len() {
            items.push(((m + 1) as f64 * MARKER_EVERY_S, Item::Marker(m, last)));
        }
        items
    }

    /// Marker `m`'s flows: SYN-only probes to distinct destinations, all
    /// in the day and hour of `anchor` (so the WAL opens no extra day
    /// segment and the detector sees them in one hourly window).
    fn marker_flows(&self, m: usize, anchor: usize) -> Vec<Flow> {
        let hour = self.flows[anchor].start_secs.div_euclid(3600) * 3600;
        (0..MARKER_FLOWS)
            .map(|j| Flow {
                src: Ip(self.markers[m]),
                dst: Ip(0x1e00_0000 | ((m as u32) << 8) | j),
                src_port: 40_000 + j as u16,
                dst_port: 445,
                proto: proto::TCP,
                packets: 1,
                octets: 40,
                flags: tcp_flags::SYN,
                start_secs: hour + i64::from(j) * 30,
                duration_secs: 0,
            })
            .collect()
    }

    /// Call `f` with every datagram of `item` (flow sequence numbers run on
    /// from `*seq`) and the flows it carries.
    fn datagrams(&self, item: Item, seq: &mut u32, mut f: impl FnMut(&[u8], &[Flow])) {
        let marker;
        let flows: &[Flow] = match item {
            Item::Background(k) => &self.flows[k * V5_MAX_RECORDS..(k + 1) * V5_MAX_RECORDS],
            Item::Marker(m, anchor) => {
                marker = self.marker_flows(m, anchor);
                &marker
            }
        };
        for chunk in flows.chunks(V5_MAX_RECORDS) {
            let records: Vec<_> = chunk.iter().map(|f| f.to_v5(EPOCH_UNIX_SECS)).collect();
            let header = V5Header {
                count: records.len() as u16,
                sys_uptime_ms: 0,
                unix_secs: EPOCH_UNIX_SECS,
                unix_nsecs: 0,
                flow_sequence: *seq,
                engine_type: 0,
                engine_id: 0,
                sampling_interval: 0,
            };
            f(&encode_datagram(&header, &records), chunk);
            *seq = seq.wrapping_add(chunk.len() as u32);
        }
    }
}

/// Layer timings of the pre-generation (the scenario's own layers).
struct Pregen {
    generate_s: f64,
    generate_peak_mb: f64,
    expand_s: f64,
    generated: u64,
}

/// Generate the run's background flows from `seed`: the unclean window's
/// border traffic, benign included, day by day until `needed` flows, then
/// shifted so the window starts on day 1 (inside the ~49.7-day V5 uptime
/// horizon of an exporter booted at the epoch, like the ingest default).
fn pregenerate(
    seed: u64,
    needed: usize,
    tracer: Option<&Tracer>,
) -> Result<(Vec<Flow>, Pregen), String> {
    let scale = (needed as f64 / FLOWS_PER_UNIT_SCALE).clamp(0.001, 1.0);
    sys::reset_peak_rss();
    let t0 = Instant::now();
    let scenario =
        Scenario::generate_recorded(ScenarioConfig::at_scale(scale, seed), &Registry::off());
    let generate_s = t0.elapsed().as_secs_f64();
    let generate_peak_mb = unclean_bench::peak_rss_kb().unwrap_or(0) as f64 / 1024.0;
    if let Some(tracer) = tracer {
        tracer.record("generate", "netmodel", None, None, t0, t0 + t0.elapsed());
    }
    let t1 = Instant::now();
    let generator = FlowGenerator::new(
        &scenario.observed,
        GeneratorConfig::default(),
        scenario.seeds.child("flowgen"),
    );
    let model = scenario.activity();
    let window = scenario.dates.unclean_window;
    let mut flows = Vec::with_capacity(needed);
    let mut generated = 0u64;
    for day in window.days() {
        if flows.len() >= needed {
            break;
        }
        generator.flows_on(&model, day, true, |f| {
            generated += 1;
            flows.push(f);
        });
    }
    let expand_s = t1.elapsed().as_secs_f64();
    if let Some(tracer) = tracer {
        tracer.record("expand", "flowgen", None, None, t1, t1 + t1.elapsed());
    }
    if flows.len() < needed {
        return Err(format!(
            "scale {scale} yielded {} window flows, fewer than the {needed} a run sends",
            flows.len()
        ));
    }
    flows.truncate(needed);
    let shift = i64::from(window.start.0 - 1) * 86_400;
    for f in &mut flows {
        f.start_secs -= shift;
    }
    Ok((
        flows,
        Pregen {
            generate_s,
            generate_peak_mb,
            expand_s,
            generated,
        },
    ))
}

/// `count` marker sources: one address in each of the first /24s of
/// 198.18.0.0/15 that no background flow comes from.
fn pick_markers(flows: &[Flow], count: usize) -> Result<Vec<u32>, String> {
    let used: HashSet<u32> = flows.iter().map(|f| f.src.raw() >> 8).collect();
    let markers: Vec<u32> = (MARKER_PREFIX24..MARKER_PREFIX24 + 512)
        .filter(|p| !used.contains(p))
        .take(count)
        .map(|p| (p << 8) | 7)
        .collect();
    if markers.len() < count {
        return Err(format!("only {} free marker /24s", markers.len()));
    }
    Ok(markers)
}

/// The two daemons of one run.
struct Daemons {
    ingest: Daemon,
    control: String,
    udp: String,
    serve: Daemon,
    serve_addr: String,
}

impl Daemons {
    /// Start ingest on a fresh spool, wait for its first (empty) publish,
    /// start serve watching it, and wait until serve answers `probe`
    /// correctly (clean).
    fn start(ctx: &Ctx, dir: &Path, probe: u32) -> Result<Daemons, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let list = dir.join("blocklist.txt");
        let mut ingest = Daemon::spawn(
            "unclean ingest",
            Command::new(&ctx.bins.unclean)
                .arg("ingest")
                .arg("--spool")
                .arg(dir.join("spool"))
                .arg("--out")
                .arg(&list)
                .args(["--bind", "127.0.0.1:0", "--control", "127.0.0.1:0"]),
            dir.join("ingest.log"),
            ctx.place.daemon_cpu,
        )?;
        let control = ingest.wait_for_word_after("control on http://", Duration::from_secs(30))?;
        let udp = ingest.wait_for_word_after("listening on udp://", Duration::from_secs(30))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        while !list.exists() {
            if Instant::now() > deadline {
                return Err("ingest never published its first list".into());
            }
            std::thread::sleep(sys::POLL);
        }
        let mut serve = Daemon::spawn(
            "unclean serve",
            Command::new(&ctx.bins.unclean)
                .arg("serve")
                .arg("--blocklist")
                .arg(&list)
                .args(["--watch", "--addr", "127.0.0.1:0", "--threads", "1"])
                .args(["--max-requests-per-conn", "1000000000"]),
            dir.join("serve.log"),
            ctx.place.daemon_cpu,
        )?;
        let serve_addr =
            serve.wait_for_word_after("listening on http://", Duration::from_secs(30))?;
        let (code, body) = Conn::connect(&serve_addr)?.exchange(&batch_bin_request(&[probe]))?;
        if code != 200 || batch_bin_verdicts(&body)? != [0] {
            return Err(format!("serve's first answer was wrong: {code} {body:?}"));
        }
        Ok(Daemons {
            ingest,
            control,
            udp,
            serve,
            serve_addr,
        })
    }

    fn cpu_secs(&self) -> f64 {
        self.ingest.cpu_secs() + self.serve.cpu_secs()
    }

    /// Quit serve, then drain ingest (seal, final rescore and publish).
    fn stop(self) -> Result<(), String> {
        crate::http::one_shot(&self.serve_addr, "POST", "/quit")?;
        let served = self.serve.wait_exit(Duration::from_secs(10));
        crate::http::one_shot(&self.control, "POST", "/quit")?;
        self.ingest.wait_exit(Duration::from_secs(60))?;
        served
    }
}

/// A sample's value in Prometheus text (`name value` lines).
fn prom_value(text: &str, name: &str) -> f64 {
    text.lines()
        .filter_map(|line| line.split_once(' '))
        .find(|(key, _)| *key == name)
        .and_then(|(_, v)| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Ingest's own books, from `/metrics`.
#[derive(Debug, Default)]
struct Books {
    admitted: f64,
    spooled: f64,
    shed: f64,
    lost: f64,
    duplicates: f64,
    decode_errors: f64,
    rescores: f64,
    /// Flows the rescores read back from the sealed spool, all rescores.
    rescored_flows: f64,
    /// Wall seconds spent inside `rescore_window`, all rescores.
    rescore_secs: f64,
}

impl Books {
    fn read(control: &str) -> Result<Books, String> {
        let (_, text) = crate::http::one_shot(control, "GET", "/metrics")?;
        let v = |name: &str| prom_value(&text, &format!("unclean_ingest_{name}"));
        Ok(Books {
            admitted: v("ingest_flows"),
            spooled: v("ingest_spooled"),
            shed: v("ingest_shed_oldest") + v("ingest_shed_newest"),
            lost: v("ingest_lost_flows") - v("ingest_recovered_flows"),
            duplicates: v("ingest_duplicates"),
            decode_errors: v("ingest_decode_errors"),
            rescores: v("rescore_count"),
            rescored_flows: v("archive_flows"),
            rescore_secs: v("stage_duration_seconds{stage=\"live/rescore\"}"),
        })
    }
}

/// What the load thread measured.
struct Drive {
    late_ns: Vec<f64>,
    /// Time to block per marker, seconds (`None`: never blocked).
    blocked_s: Vec<Option<f64>>,
    wrong_verdicts: u64,
    bad_status: u64,
    send_secs: f64,
    cpu_secs: f64,
    ingest_cpu_secs: f64,
}

/// Send the plan on its schedule while polling serve for the markers.
fn drive(plan: &Plan, d: &Daemons) -> Result<Drive, String> {
    let socket = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("udp socket: {e}"))?;
    socket
        .connect(&d.udp)
        .map_err(|e| format!("udp connect {}: {e}", d.udp))?;
    let mut conn = Conn::connect(&d.serve_addr)?;
    conn.set_nonblocking(true)?;
    let items = plan.schedule();
    let mut out = Drive {
        late_ns: Vec::with_capacity(items.len()),
        blocked_s: vec![None; plan.markers.len()],
        wrong_verdicts: 0,
        bad_status: 0,
        send_secs: 0.0,
        cpu_secs: 0.0,
        ingest_cpu_secs: 0.0,
    };
    let (cpu0, ingest_cpu0) = (d.cpu_secs(), d.ingest.cpu_secs());
    let t0 = Instant::now() + Duration::from_millis(5);
    let due = |s: f64| t0 + Duration::from_secs_f64(s);
    let marker_due = |m: usize| due((m + 1) as f64 * MARKER_EVERY_S);
    let (mut next, mut seq) = (0usize, 0u32);
    let mut pending: Vec<usize> = Vec::new();
    let mut inflight: Option<Vec<usize>> = None;
    let mut request: Vec<u8> = Vec::new();
    let mut next_poll = t0;
    let mut send_end = None;
    let mut send_error = None;
    loop {
        let now = Instant::now();
        while next < items.len() && due(items[next].0) <= now {
            let (at, item) = items[next];
            plan.datagrams(item, &mut seq, |wire, _| {
                if let Err(e) = socket.send(wire) {
                    send_error.get_or_insert(e);
                }
            });
            out.late_ns.push((now - due(at)).as_nanos() as f64);
            if let Item::Marker(m, _) = item {
                pending.push(m);
            }
            next += 1;
        }
        if let Some(e) = send_error.take() {
            return Err(format!("udp send: {e}"));
        }
        if next == items.len() && send_end.is_none() {
            send_end = Some(now);
            out.send_secs = (now - t0).as_secs_f64();
        }
        if inflight.is_none() && !pending.is_empty() && now >= next_poll {
            let ips: Vec<u32> = pending.iter().map(|&m| plan.markers[m]).collect();
            request = batch_bin_request(&ips);
            inflight = Some(pending.clone());
            next_poll = now + POLL_EVERY;
        }
        if !request.is_empty() {
            conn.send_some(&mut request)?;
        }
        if let Some(asked) = &inflight {
            if let Some((code, body)) = conn.recv()? {
                let at = Instant::now();
                if code == 200 {
                    for (&m, &v) in asked.iter().zip(batch_bin_verdicts(body)?) {
                        if v != 0 {
                            out.blocked_s[m] = Some((at - marker_due(m)).as_secs_f64());
                            out.wrong_verdicts += u64::from(v != BLOCKED_24);
                        }
                    }
                } else {
                    out.bad_status += 1;
                }
                pending.retain(|&m| out.blocked_s[m].is_none());
                inflight = None;
            }
        }
        match send_end {
            Some(_) if pending.is_empty() && inflight.is_none() => break,
            Some(end) if now > end + SETTLE => break,
            _ => {}
        }
        std::hint::spin_loop();
    }
    out.cpu_secs = d.cpu_secs() - cpu0;
    out.ingest_cpu_secs = d.ingest.cpu_secs() - ingest_cpu0;
    Ok(out)
}

/// Run the live workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let per = V5_MAX_RECORDS;
    let needed = ((RATE * ctx.seconds) as usize / per) * per;
    let (flows, pregen) = pregenerate(ctx.seed, needed, ctx.tracer)?;
    let n_markers = (ctx.seconds / MARKER_EVERY_S).round() as usize;
    let markers = pick_markers(&flows, n_markers)?;
    let plan = Plan { flows, markers };
    let sent = plan.flows_sent() as f64;

    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut daemons = None;
    for r in 0..SETUP_REPEATS {
        // Only the pair that runs the workload has to drain; an earlier
        // pair is killed (dropping a `Daemon` kills and reaps it).
        drop(daemons.take());
        let t0 = Instant::now();
        daemons = Some(Daemons::start(
            ctx,
            &ctx.work.join(format!("run{r}")),
            plan.markers[0],
        )?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let d = daemons.expect("at least one set-up");

    let run = std::thread::scope(|s| {
        s.spawn(|| {
            pin_current_thread(ctx.place.load_cpu);
            drive(&plan, &d)
        })
        .join()
        .map_err(|_| "load thread panicked".to_string())?
    })?;

    // Ingest's books close once the last datagram is decoded and the ring
    // has drained into the WAL.
    let deadline = Instant::now() + Duration::from_secs(10);
    let books = loop {
        let b = Books::read(&d.control)?;
        let closed = b.admitted + b.lost >= sent && b.spooled + b.shed >= b.admitted;
        if closed || Instant::now() > deadline {
            break b;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let peak_rss_mb = (d.ingest.peak_rss_kb() + d.serve.peak_rss_kb()) as f64 / 1024.0;
    out.check(
        "drain",
        d.stop().map(|()| "both daemons drained after /quit"),
    );

    let ttb = sorted(run.blocked_s.iter().flatten().map(|s| s * 1e3).collect());
    let unblocked = run.blocked_s.iter().filter(|b| b.is_none()).count() as u64;
    let late = sorted(run.late_ns);
    // Set-up is what the daemons do before they serve: both started until
    // serve answers correctly. Generating the flows the exporters send is
    // the benchmark's own input and is reported as the netmodel and
    // flowgen layer metrics instead.
    out.e2e
        .insert("setup_s", median(&setups).unwrap_or(f64::NAN));
    // The send rate is fixed by the plan, so throughput is what ingest
    // controls: flows its rescores read per second spent rescoring.
    out.e2e.insert(
        "throughput_per_s",
        books.rescored_flows / books.rescore_secs,
    );
    out.e2e
        .insert("latency_p50_ms", percentile(&ttb, 50.0).unwrap_or(f64::NAN));
    out.e2e
        .insert("latency_p75_ms", percentile(&ttb, 75.0).unwrap_or(f64::NAN));
    out.e2e.insert("cpu_us_per_item", run.cpu_secs * 1e6 / sent);
    out.e2e.insert("peak_rss_mb", peak_rss_mb);
    out.notes.push(format!(
        "{} flows sent ({} markers) over {:.2} s; time to block over {} markers",
        sent,
        plan.markers.len(),
        run.send_secs,
        ttb.len()
    ));
    if let Some(tail) = tail_percentile(ttb.len()) {
        out.notes.push(format!(
            "time to block p{tail} = {:.1} ms",
            percentile(&ttb, tail).unwrap_or(f64::NAN)
        ));
    }
    out.attempted = sent as u64;
    out.failed = (books.shed + books.lost + books.decode_errors) as u64
        + unblocked
        + run.wrong_verdicts
        + run.bad_status;
    out.check(
        "markers_blocked",
        if unblocked == 0 && run.wrong_verdicts == 0 && run.bad_status == 0 {
            Ok(format!(
                "all {} markers blocked as /24s",
                plan.markers.len()
            ))
        } else {
            Err(format!(
                "{unblocked} markers never blocked, {} wrong verdicts, {} bad answers",
                run.wrong_verdicts, run.bad_status
            ))
        },
    );
    let booked = books.spooled + books.shed + books.lost + books.duplicates;
    out.check(
        "accounting",
        if booked == sent && books.duplicates == 0.0 {
            Ok(format!(
                "spooled {} + shed {} + lost {} + duplicates 0 == sent {sent}",
                books.spooled, books.shed, books.lost
            ))
        } else {
            Err(format!(
                "ingest booked {booked:?} of {sent} sent: {books:?}"
            ))
        },
    );
    let interval_ns = 1e9 * V5_MAX_RECORDS as f64 / RATE;
    let late_p90 = percentile(&late, 90.0).unwrap_or(f64::NAN);
    out.check(
        "sched_late",
        if late_p90 <= 0.1 * interval_ns {
            Ok(format!("p90 lateness {late_p90:.0} ns"))
        } else {
            Err(format!(
                "p90 lateness {late_p90:.0} ns exceeds 10% of the {interval_ns:.0} ns interval"
            ))
        },
    );

    out.layer("netmodel.generate_s", pregen.generate_s);
    out.layer("netmodel.peak_rss_mb", pregen.generate_peak_mb);
    out.layer("flowgen.expand_s", pregen.expand_s);
    out.layer("flowgen.flows", pregen.generated as f64);
    out.layer("ingest.rescores", books.rescores);
    out.layer("ingest.shed_flows", books.shed);
    out.layer("ingest.lost_flows", books.lost);
    out.layer("ingest.decode_errors", books.decode_errors);
    out.layer("ingest.cpu_us_per_flow", run.ingest_cpu_secs * 1e6 / sent);
    out.layer(
        "bench.sched_late_p50_us",
        percentile(&late, 50.0).unwrap_or(0.0) / 1e3,
    );
    out.layer("bench.sched_late_p90_us", late_p90 / 1e3);
    if let Some(tracer) = ctx.tracer {
        let layers = std::thread::scope(|s| {
            s.spawn(|| {
                pin_current_thread(ctx.place.load_cpu);
                layer_pass(ctx, tracer, &plan)
            })
            .join()
            .map_err(|_| "layer pass panicked".to_string())?
        })?;
        for (name, value) in layers {
            out.layer(name, value);
        }
    }
    Ok(out)
}

/// Rescore checkpoints, as shares of the final spool.
const RESCORE_AT: [(f64, &str); 4] = [
    (0.25, "detect.rescore_s.p025"),
    (0.50, "detect.rescore_s.p050"),
    (0.75, "detect.rescore_s.p075"),
    (1.00, "detect.rescore_s.p100"),
];

/// In-process timings of the layers a flow crosses on its way to a
/// verdict, over exactly the datagrams and flows the run sent.
fn layer_pass(ctx: &Ctx, tracer: &Tracer, plan: &Plan) -> Result<Vec<(&'static str, f64)>, String> {
    let items = plan.schedule();
    let total = plan.flows_sent();
    let mut out = Vec::new();

    // V5 decode, in batches so the clock is read per batch, not per call.
    let (decode, _) = tracer.span("v5_decode", "flowgen", None, |_| {
        let mut wire: Vec<Vec<u8>> = Vec::with_capacity(2_048);
        let (mut seq, mut busy) = (0u32, Duration::ZERO);
        for batch in items.chunks(2_048) {
            wire.clear();
            for &(_, item) in batch {
                plan.datagrams(item, &mut seq, |w, _| wire.push(w.to_vec()));
            }
            let t = Instant::now();
            for w in &wire {
                std::hint::black_box(decode_datagram(std::hint::black_box(w)).is_ok());
            }
            busy += t.elapsed();
        }
        busy
    });
    out.push((
        "flowgen.v5_decode_ns_per_flow",
        decode.as_nanos() as f64 / total as f64,
    ));

    // WAL append, sealing on ingest's rescore cadence and at day changes
    // (explicitly, so the fsyncs land in the seal timings, not the
    // appends), with rescores of the sealed image at fixed shares.
    let dir = ctx.work.join("wal");
    let mut spool =
        WalSpool::create(&dir, EPOCH_UNIX_SECS).map_err(|e| format!("create spool: {e}"))?;
    let tick = (RATE * RESCORE_PERIOD_S) as u64;
    let cfg = LiveScanConfig {
        threads: 1,
        ..LiveScanConfig::default()
    };
    let (mut pushed, mut next_tick, mut next_rescore) = (0u64, tick, 0usize);
    let (mut append, mut seal_secs, mut image_ms) = (Duration::ZERO, Vec::new(), 0.0);
    let mut day = None;
    let mut blocklist = Vec::new();
    let mut seq = 0u32;
    let timed_seal = |spool: &mut WalSpool, seal_secs: &mut Vec<f64>| -> Result<(), String> {
        let (sealed, took) = tracer.span("wal_seal", "flowgen", None, |_| spool.seal());
        sealed.map_err(|e| format!("seal: {e}"))?;
        seal_secs.push(took.as_secs_f64());
        Ok(())
    };
    for &(_, item) in &items {
        let mut flows: Vec<Flow> = Vec::with_capacity(MARKER_FLOWS as usize);
        plan.datagrams(item, &mut seq, |_, chunk| flows.extend_from_slice(chunk));
        if day.is_some() && day != Some(flows[0].day()) {
            timed_seal(&mut spool, &mut seal_secs)?;
        }
        day = Some(flows[0].day());
        let t = Instant::now();
        for f in &flows {
            spool.push(f).map_err(|e| format!("push: {e}"))?;
        }
        append += t.elapsed();
        pushed += flows.len() as u64;
        if pushed >= next_tick {
            timed_seal(&mut spool, &mut seal_secs)?;
            next_tick += tick;
        }
        while next_rescore < RESCORE_AT.len()
            && pushed as f64 >= RESCORE_AT[next_rescore].0 * total as f64
        {
            timed_seal(&mut spool, &mut seal_secs)?;
            let (image, took) =
                tracer.span("sealed_image", "flowgen", None, |_| spool.sealed_image());
            let image = image.map_err(|e| format!("sealed image: {e}"))?;
            image_ms = took.as_secs_f64() * 1e3;
            let (scan, took) = tracer.span("rescore_window", "detect", None, |_| {
                rescore_window(&image, None, &cfg, &Registry::off())
            });
            let scan = scan.map_err(|e| format!("rescore: {e}"))?;
            out.push((RESCORE_AT[next_rescore].1, took.as_secs_f64()));
            if next_rescore + 1 == RESCORE_AT.len() {
                out.push((
                    "detect.rescore_flows_per_s",
                    scan.flows as f64 / took.as_secs_f64(),
                ));
                blocklist = scan.blocklist;
            }
            next_rescore += 1;
        }
    }
    out.push((
        "flowgen.wal_append_ns_per_flow",
        append.as_nanos() as f64 / total as f64,
    ));
    out.push((
        "flowgen.wal_seal_ms",
        1e3 * seal_secs.iter().sum::<f64>() / seal_secs.len().max(1) as f64,
    ));
    out.push(("flowgen.sealed_image_ms", image_ms));

    // Publish and reload: render the final list, then parse and build the
    // serving trie from it as serve's reload does.
    let meta = [
        ("generation", "1".to_string()),
        ("published_unix_ms", "0".to_string()),
    ];
    let (text, render) = tracer.span("render", "core", None, |_| {
        render_scored_with_meta(&blocklist, "unclean-ingest", &meta)
    });
    let (trie, reload) = tracer.span("reload_build", "core", None, |_| {
        parse_scored(&text).map(FrozenTrie::from_scored)
    });
    let trie = trie.map_err(|e| format!("reparse published list: {e}"))?;
    if plan.markers.iter().any(|&m| !trie.contains(Ip(m))) {
        return Err("the in-process rescore missed a marker".into());
    }
    out.push(("core.render_ms", render.as_secs_f64() * 1e3));
    out.push(("core.reload_build_ms", reload.as_secs_f64() * 1e3));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn background(n: usize) -> Vec<Flow> {
        (0..n)
            .map(|i| Flow {
                src: Ip(0x0a00_0000 + i as u32),
                dst: Ip(0x1400_0001),
                src_port: 50_000,
                dst_port: 80,
                proto: proto::TCP,
                packets: 5,
                octets: 2_000,
                flags: tcp_flags::SYN | tcp_flags::ACK,
                start_secs: 86_400 + 7 * i as i64,
                duration_secs: 3,
            })
            .collect()
    }

    #[test]
    fn datagrams_round_trip_through_decode_with_contiguous_sequences() {
        let flows = background(30 * 200);
        let markers = pick_markers(&flows, 3).expect("free /24s");
        let plan = Plan { flows, markers };
        let items = plan.schedule();
        assert!(items.windows(2).all(|w| w[0].0 <= w[1].0), "due-time order");
        let mut seq = 0u32;
        let (mut expect_seq, mut decoded) = (0u32, Vec::new());
        for &(_, item) in &items {
            plan.datagrams(item, &mut seq, |wire, chunk| {
                let (header, records) = decode_datagram(wire).expect("decodes");
                assert_eq!(header.flow_sequence, expect_seq);
                expect_seq += records.len() as u32;
                let back: Vec<Flow> = records
                    .iter()
                    .map(|r| Flow::from_v5(r, EPOCH_UNIX_SECS))
                    .collect();
                assert_eq!(back, chunk);
                decoded.extend(back);
            });
        }
        assert_eq!(decoded.len() as u64, plan.flows_sent());
        assert_eq!(seq, expect_seq);
    }

    #[test]
    fn markers_trip_the_fanout_detector_within_one_hour_of_their_anchor() {
        let flows = background(30 * 20);
        let markers = pick_markers(&flows, 1).expect("free /24s");
        assert_eq!(markers[0] >> 17, 0xC612 >> 1, "inside 198.18.0.0/15");
        let plan = Plan { flows, markers };
        let anchor = 100;
        let probe = plan.marker_flows(0, anchor);
        let dsts: HashSet<u32> = probe.iter().map(|f| f.dst.raw()).collect();
        assert_eq!(dsts.len(), MARKER_FLOWS as usize);
        let hour = plan.flows[anchor].start_secs.div_euclid(3600);
        assert!(probe.iter().all(|f| f.start_secs.div_euclid(3600) == hour));
        assert!(probe.iter().all(|f| !f.payload_bearing()));
        let mut detector = unclean_detect::HourlyFanoutDetector::new(Default::default());
        probe.iter().for_each(|f| detector.observe(f));
        assert!(detector.is_detected(Ip(plan.markers[0])));
    }

    #[test]
    fn prom_values_are_read_by_full_series_name() {
        let text = "# TYPE x counter\nx_flows 12\n\
                    x_stage_duration_seconds{stage=\"live/rescore\"} 0.25\n";
        assert_eq!(prom_value(text, "x_flows"), 12.0);
        let series = "x_stage_duration_seconds{stage=\"live/rescore\"}";
        assert_eq!(prom_value(text, series), 0.25);
        assert_eq!(prom_value(text, "x_missing"), 0.0);
    }

    #[test]
    fn schedule_spaces_markers_between_background_datagrams() {
        let plan = Plan {
            flows: background(30 * 8_000),
            markers: (0..4).map(|m| 0xC612_0007 + (m << 8)).collect(),
        };
        let items = plan.schedule();
        let markers: Vec<f64> = items
            .iter()
            .filter(|(_, item)| matches!(item, Item::Marker(..)))
            .map(|(due, _)| *due)
            .collect();
        assert_eq!(markers, vec![0.2, 0.4, 0.6000000000000001, 0.8]);
        assert_eq!(items.len(), 8_000 + 4);
    }
}
