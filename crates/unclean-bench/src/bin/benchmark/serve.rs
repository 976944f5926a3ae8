//! `serve_point` and `serve_batch`: a frozen blocklist served by
//! `unclean serve --threads 1` (pinned to the daemon CPU), driven from one
//! keep-alive connection on the load CPU. Phase A is a closed loop for half
//! the run (throughput); phase B an open loop at a fixed rate for the other
//! half (latency, timed from each request's due time).
//!
//! `serve_point` is a small list (4,096 /24s, a 200 KB snapshot that fits
//! in L2) queried with `GET /lookup`: HTTP parsing and the socket round
//! trip dominate and the trie walk is a few percent. `serve_batch` is a
//! million entries (a 48 MB snapshot, far beyond L2) queried 100
//! addresses per `POST /batch-bin`: trie walks miss the cache and the wire
//! cost is amortised. A trie change should move `serve_batch` and not
//! `serve_point`; a wire change the reverse.

use crate::http::{batch_bin_request, batch_bin_verdicts, lookup_request, lookup_verdict, Conn};
use crate::stats::{median, percentile, sorted, tail_percentile};
use crate::sys::{keep_busy, pin_current_thread, spawn_pinned, Daemon};
use crate::{Ctx, Outcome};
use rand::Rng;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};
use unclean_core::frozen::FrozenTrie;
use unclean_core::snap::SnapshotMeta;
use unclean_core::{Cidr, Ip};
use unclean_serve::http::{parse_request, Parse};
use unclean_stats::SeedTree;

/// One serving workload's parameters.
pub struct Params {
    /// Listed /24 networks.
    pub nets24: usize,
    /// Listed /32 hosts.
    pub hosts32: usize,
    /// Distinct query addresses, cycled through.
    pub pool: usize,
    /// Addresses per request: 1 is `GET /lookup`, more is `/batch-bin`.
    pub batch: usize,
    /// Phase B's open-loop request rate, per second.
    pub rate: f64,
    /// Times set-up (freeze, start, first correct answer) is repeated; its
    /// median is `setup_s`. A few milliseconds of process starts vary by
    /// tens of percent, so short set-ups take more samples.
    pub setup_repeats: usize,
}

/// `serve_point`.
pub const POINT: Params = Params {
    nets24: 4_096,
    hosts32: 0,
    pool: 65_536,
    batch: 1,
    rate: 20_000.0,
    setup_repeats: 15,
};

/// `serve_batch`.
pub const BATCH: Params = Params {
    nets24: 200_000,
    hosts32: 800_000,
    pool: 1 << 20,
    batch: 100,
    rate: 5_000.0,
    setup_repeats: 5,
};

/// One request in this many is checked against the reference (and
/// traced) while timing.
const SAMPLE_EVERY: usize = 64;

/// Each phase is cut into this many windows and a metric is the median
/// of its per-window values, so a burst of load from outside the
/// benchmark moves one window, not the result.
const WINDOWS: usize = 10;

/// Verdict byte of a listed /32 (prefix length + 1, as `/batch-bin`).
const HOST: u8 = 33;
/// Verdict byte of a listed /24.
const NET: u8 = 25;

/// The listed networks, kept apart from any trie: the independent
/// reference every served verdict is checked against.
pub struct Reference {
    nets24: Vec<u32>,
    hosts32: Vec<u32>,
}

/// A routable-looking unicast address (first octet 1–223, not 127).
fn unicast(rng: &mut impl Rng) -> u32 {
    loop {
        let ip: u32 = rng.gen_range(1 << 24..224 << 24);
        if ip >> 24 != 127 {
            return ip;
        }
    }
}

impl Reference {
    /// `nets24` distinct /24s and `hosts32` distinct /32s from `rng`.
    pub fn generate<R: Rng>(rng: &mut R, nets24: usize, hosts32: usize) -> Reference {
        let distinct = |rng: &mut R, n: usize, draw: fn(&mut R) -> u32| {
            let mut set = std::collections::HashSet::with_capacity(n);
            while set.len() < n {
                set.insert(draw(rng));
            }
            let mut sorted: Vec<u32> = set.into_iter().collect();
            sorted.sort_unstable();
            sorted
        };
        Reference {
            nets24: distinct(rng, nets24, |rng| unicast(rng) >> 8),
            hosts32: distinct(rng, hosts32, unicast),
        }
    }

    /// The longest listed match for `ip` as a verdict byte (0 = clean).
    pub fn verdict(&self, ip: u32) -> u8 {
        if self.hosts32.binary_search(&ip).is_ok() {
            HOST
        } else if self.nets24.binary_search(&(ip >> 8)).is_ok() {
            NET
        } else {
            0
        }
    }

    /// Every entry with its score.
    pub fn entries(&self) -> Vec<(Cidr, f64)> {
        let nets = self.nets24.iter().map(|&p| (p << 8, 24));
        let hosts = self.hosts32.iter().map(|&h| (h, 32));
        nets.chain(hosts)
            .map(|(base, len)| (Cidr::of(Ip(base), len), score(base)))
            .collect()
    }

    /// The list as `unclean blocklist freeze` reads it.
    pub fn render(&self) -> String {
        unclean_core::blocklist::render_scored(&self.entries(), "benchmark")
    }

    /// `n` query addresses: half inside listed networks, half uniform.
    pub fn queries(&self, rng: &mut impl Rng, n: usize) -> Vec<u32> {
        let listed = self.nets24.len() + self.hosts32.len();
        (0..n)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    return unicast(rng);
                }
                let i = rng.gen_range(0..listed);
                match self.nets24.get(i) {
                    Some(&p) => (p << 8) | rng.gen_range(0..256u32),
                    None => self.hosts32[i - self.nets24.len()],
                }
            })
            .collect()
    }
}

/// A deterministic score in (0, 1] per entry.
fn score(base: u32) -> f64 {
    f64::from(base.wrapping_mul(2_654_435_761) % 1_000 + 1) / 1_000.0
}

/// What the load thread measured.
#[derive(Default)]
struct Load {
    verify_mismatches: usize,
    closed_requests: u64,
    /// Phase A lookups per second, one per window.
    closed_rates: Vec<f64>,
    closed_bytes: u64,
    open_requests: u64,
    /// Phase B latencies in request order.
    latency_ns: Vec<f64>,
    late_ns: Vec<f64>,
    bad_status: u64,
    sampled_mismatches: u64,
    round_trip_ns: Vec<f64>,
}

/// One served request's verdicts, checked against `expected`.
fn verdicts_match(batch: usize, body: &[u8], expected: &[u8]) -> bool {
    if batch == 1 {
        lookup_verdict(body).ok() == expected.first().copied()
    } else {
        batch_bin_verdicts(body).ok() == Some(expected)
    }
}

/// Run one serving workload.
pub fn run(ctx: &Ctx, p: &Params) -> Result<Outcome, String> {
    let mut rng = SeedTree::new(ctx.seed).stream("serve");
    let reference = Reference::generate(&mut rng, p.nets24, p.hosts32);
    let pool = reference.queries(&mut rng, p.pool);
    let expected: Vec<u8> = pool.iter().map(|&ip| reference.verdict(ip)).collect();
    let requests: Vec<Vec<u8>> = pool
        .chunks(p.batch)
        .map(|ips| match p.batch {
            1 => lookup_request(ips[0]),
            _ => batch_bin_request(ips),
        })
        .collect();
    let list = ctx.work.join("list.txt");
    std::fs::write(&list, reference.render()).map_err(|e| format!("write list: {e}"))?;
    let snapshot = ctx.work.join("list.snap");

    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut served: Option<(Daemon, String)> = None;
    for _ in 0..p.setup_repeats {
        // Only the daemon that serves the timed phases has to drain; an
        // earlier one is killed (dropping a `Daemon` kills and reaps it),
        // which is quicker than waiting out a graceful drain.
        drop(served.take());
        let t0 = Instant::now();
        let status = spawn_pinned(
            Command::new(&ctx.bins.unclean)
                .args(["blocklist", "freeze"])
                .arg(&list)
                .arg("--out")
                .arg(&snapshot)
                .stdout(std::process::Stdio::null()),
            ctx.place.daemon_cpu,
        )
        .and_then(|mut child| child.wait())
        .map_err(|e| format!("freeze: {e}"))?;
        if !status.success() {
            return Err(format!("unclean blocklist freeze failed ({status})"));
        }
        let (daemon, addr) = start(ctx, &snapshot)?;
        let mut conn = Conn::connect(&addr)?;
        let (code, body) = conn.exchange(&requests[0])?;
        if code != 200 || !verdicts_match(p.batch, &body, &expected[..p.batch]) {
            return Err(format!("first answer was wrong: {code} {body:?}"));
        }
        setups.push(t0.elapsed().as_secs_f64());
        served = Some((daemon, addr));
    }
    let (daemon, addr) = served.expect("at least one set-up");

    let half = Duration::from_secs_f64(ctx.seconds / 2.0);
    let cpu0 = daemon.cpu_secs();
    // Neither CPU may halt while timing: a halted vCPU's wake-up costs a
    // host round trip whose length varies with the host's load, which was
    // the largest source of run-to-run noise. The load thread polls its
    // socket; an idle-priority spinner keeps the daemon CPU awake.
    let load = keep_busy(ctx.place.daemon_cpu, || {
        std::thread::scope(|s| {
            s.spawn(|| {
                pin_current_thread(ctx.place.load_cpu);
                drive(ctx, p, &addr, &requests, &expected, half)
            })
            .join()
            .map_err(|_| "load thread panicked".to_string())?
        })
    })?;
    let cpu = daemon.cpu_secs() - cpu0;
    let peak_rss_mb = daemon.peak_rss_kb() as f64 / 1024.0;
    out.check("drain", stop(daemon, &addr).map(|()| "exited after /quit"));

    let lookups = (load.closed_requests + load.open_requests) * p.batch as u64;
    let windowed = |q: f64| {
        let per_window: Vec<f64> = load
            .latency_ns
            .chunks(load.latency_ns.len().div_ceil(WINDOWS).max(1))
            .filter_map(|w| percentile(&sorted(w.to_vec()), q))
            .collect();
        median(&per_window)
    };
    let (p50, p75) = (windowed(50.0), windowed(75.0));
    let latency = sorted(load.latency_ns);
    let late = sorted(load.late_ns);
    let interval_ns = 1e9 / p.rate;
    let ms = |ns: Option<f64>| ns.unwrap_or(f64::NAN) / 1e6;
    out.e2e
        .insert("setup_s", median(&setups).unwrap_or(f64::NAN));
    out.e2e.insert(
        "throughput_per_s",
        median(&load.closed_rates).unwrap_or(f64::NAN),
    );
    out.e2e.insert("latency_p50_ms", ms(p50));
    out.e2e.insert("latency_p75_ms", ms(p75));
    out.e2e
        .insert("cpu_us_per_item", cpu * 1e6 / lookups as f64);
    out.e2e.insert("peak_rss_mb", peak_rss_mb);
    if let Some(tail) = tail_percentile(latency.len()) {
        out.notes.push(format!(
            "open-loop latency p{tail} = {:.4} ms over {} requests at {} req/s",
            ms(percentile(&latency, tail)),
            latency.len(),
            p.rate
        ));
    }
    out.attempted = load.closed_requests + load.open_requests;
    out.failed = load.bad_status + load.sampled_mismatches;
    out.check(
        "verify",
        match load.verify_mismatches {
            0 => Ok(format!("{} addresses match the reference", pool.len())),
            n => Err(format!(
                "{n} of {} addresses differ from the reference",
                pool.len()
            )),
        },
    );
    out.check(
        "sampled",
        match out.failed {
            0 => Ok("every timed answer was 200 and every sampled verdict matched".to_string()),
            n => Err(format!("{n} timed answers failed or mismatched")),
        },
    );
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

    let rt = sorted(load.round_trip_ns);
    out.layer("serve.latency_p99_us", ms(percentile(&latency, 99.0)) * 1e3);
    out.layer(
        "serve.bytes_per_lookup",
        load.closed_bytes as f64 / (load.closed_requests * p.batch as u64) as f64,
    );
    out.layer(
        "bench.sched_late_p50_us",
        percentile(&late, 50.0).unwrap_or(0.0) / 1e3,
    );
    out.layer("bench.sched_late_p90_us", late_p90 / 1e3);
    out.layer(
        "serve.round_trip_us_p50",
        percentile(&rt, 50.0).unwrap_or(0.0) / 1e3,
    );
    if let Some(tracer) = ctx.tracer {
        let layers = std::thread::scope(|s| {
            s.spawn(|| {
                pin_current_thread(ctx.place.load_cpu);
                layer_pass(ctx, tracer, &reference, &pool, &requests, &snapshot)
            })
            .join()
            .map_err(|_| "layer pass panicked".to_string())?
        })?;
        let trie_ns = layers.trie_ns_per_lookup;
        out.layer("core.freeze_s", layers.freeze_s);
        out.layer("core.snapshot_open_us", layers.open_us);
        out.layer("core.trie_ns_per_lookup", trie_ns);
        out.layer("serve.parse_ns_per_request", layers.parse_ns_per_request);
        if let Some(rt50) = percentile(&rt, 50.0) {
            out.layer(
                "serve.outside_trie_share",
                1.0 - trie_ns * p.batch as f64 / rt50,
            );
        }
        out.check(
            "trie_matches_reference",
            match layers.trie_mismatches {
                0 => Ok("in-process lookups agree with the reference"),
                n => Err(format!("{n} in-process lookups differ from the reference")),
            },
        );
    }
    Ok(out)
}

/// Start `unclean serve` on the snapshot; returns it with its address.
fn start(ctx: &Ctx, snapshot: &Path) -> Result<(Daemon, String), String> {
    let mut daemon = Daemon::spawn(
        "unclean serve",
        Command::new(&ctx.bins.unclean)
            .arg("serve")
            .arg("--blocklist")
            .arg(snapshot)
            .args(["--addr", "127.0.0.1:0", "--threads", "1"])
            // One connection carries the whole run; the default
            // per-connection cap would close it mid-phase.
            .args(["--max-requests-per-conn", "1000000000"]),
        ctx.work.join("serve.log"),
        ctx.place.daemon_cpu,
    )?;
    let addr = daemon.wait_for_word_after("listening on http://", Duration::from_secs(30))?;
    Ok((daemon, addr))
}

fn stop(daemon: Daemon, addr: &str) -> Result<(), String> {
    crate::http::one_shot(addr, "POST", "/quit")?;
    daemon.wait_exit(Duration::from_secs(10))
}

/// The load thread: verification pass, then phase A, then phase B.
fn drive(
    ctx: &Ctx,
    p: &Params,
    addr: &str,
    requests: &[Vec<u8>],
    expected: &[u8],
    half: Duration,
) -> Result<Load, String> {
    let mut load = Load::default();
    let mut conn = Conn::connect(addr)?;
    let want = |k: usize| &expected[k * p.batch..((k + 1) * p.batch).min(expected.len())];

    // Verification: every pool address, before anything is timed.
    for (k, request) in requests.iter().enumerate() {
        let (code, body) = conn.exchange(request)?;
        if code != 200 || !verdicts_match(p.batch, &body, want(k)) {
            load.verify_mismatches += 1;
        }
    }

    // Phase A: closed loop, its rate taken per window.
    let bytes_in0 = conn.bytes_in;
    let t0 = Instant::now();
    let window = half / WINDOWS as u32;
    let (mut window_start, mut window_requests) = (t0, 0u64);
    let mut i = 0usize;
    conn.set_nonblocking(true)?;
    loop {
        let k = i % requests.len();
        let start = Instant::now();
        conn.send(&requests[k])?;
        let (code, body) = loop {
            if let Some(answer) = conn.recv()? {
                break answer;
            }
            std::hint::spin_loop();
        };
        load.bad_status += u64::from(code != 200);
        if i.is_multiple_of(SAMPLE_EVERY) {
            load.sampled_mismatches += u64::from(!verdicts_match(p.batch, body, want(k)));
            let end = Instant::now();
            load.round_trip_ns.push((end - start).as_nanos() as f64);
            if let Some(tracer) = ctx.tracer {
                tracer.record("round_trip", "serve", None, Some(i as u64), start, end);
            }
        }
        load.closed_bytes += requests[k].len() as u64;
        i += 1;
        window_requests += 1;
        let now = Instant::now();
        if now - window_start >= window {
            let lookups = (window_requests * p.batch as u64) as f64;
            load.closed_rates
                .push(lookups / (now - window_start).as_secs_f64());
            (window_start, window_requests) = (now, 0);
            if now - t0 >= half {
                break;
            }
        }
    }
    load.closed_requests = i as u64;
    load.closed_bytes += conn.bytes_in - bytes_in0;

    // Phase B: open loop at `rate`; requests pipeline on one connection.
    let n = (p.rate * half.as_secs_f64()) as usize;
    let mut open = OpenLoop::new(Instant::now() + Duration::from_millis(1), p.rate, n);
    let give_up = open.due(n) + Duration::from_secs(10);
    let mut pending: Vec<u8> = Vec::new();
    while !open.done() {
        let now = Instant::now();
        for i in open.release(now) {
            pending.extend_from_slice(&requests[i % requests.len()]);
        }
        if !pending.is_empty() {
            conn.send_some(&mut pending)?;
        }
        while let Some((code, body)) = conn.recv()? {
            let i = open.answered(Instant::now());
            load.bad_status += u64::from(code != 200);
            if i.is_multiple_of(SAMPLE_EVERY) {
                let k = i % requests.len();
                load.sampled_mismatches += u64::from(!verdicts_match(p.batch, body, want(k)));
            }
        }
        if now > give_up {
            return Err(format!(
                "open loop: only {} of {n} answers arrived",
                open.received
            ));
        }
        std::hint::spin_loop();
    }
    load.open_requests = n as u64;
    load.latency_ns = open.latency_ns;
    load.late_ns = open.late_ns;
    Ok(load)
}

/// An open-loop schedule of `n` requests, request `i` due `i` intervals
/// after the start. An answer's latency runs from its request's due time,
/// not from when it was sent, so a stall is charged to every request queued
/// behind it; how late the generator itself sent is recorded apart.
struct OpenLoop {
    t0: Instant,
    step_ns: f64,
    n: usize,
    sent: usize,
    received: usize,
    latency_ns: Vec<f64>,
    late_ns: Vec<f64>,
}

impl OpenLoop {
    fn new(t0: Instant, rate: f64, n: usize) -> OpenLoop {
        OpenLoop {
            t0,
            step_ns: 1e9 / rate,
            n,
            sent: 0,
            received: 0,
            latency_ns: Vec::with_capacity(n),
            late_ns: Vec::with_capacity(n),
        }
    }

    fn due(&self, i: usize) -> Instant {
        self.t0 + Duration::from_nanos((i as f64 * self.step_ns) as u64)
    }

    /// The requests due by `now` and not yet released, recording how late
    /// each one goes out.
    fn release(&mut self, now: Instant) -> std::ops::Range<usize> {
        let first = self.sent;
        while self.sent < self.n && self.due(self.sent) <= now {
            self.late_ns
                .push((now - self.due(self.sent)).as_nanos() as f64);
            self.sent += 1;
        }
        first..self.sent
    }

    /// The oldest unanswered request was answered at `at` (answers come
    /// back in order on one connection); returns its index.
    fn answered(&mut self, at: Instant) -> usize {
        let i = self.received;
        self.latency_ns
            .push(at.saturating_duration_since(self.due(i)).as_nanos() as f64);
        self.received += 1;
        i
    }

    fn done(&self) -> bool {
        self.received >= self.n
    }
}

/// In-process timings of the layers a served request crosses.
struct Layers {
    freeze_s: f64,
    open_us: f64,
    trie_ns_per_lookup: f64,
    trie_mismatches: usize,
    parse_ns_per_request: f64,
}

/// Repeat `f` (one pass over the workload's items) until `min` has
/// elapsed; returns passes made and total time.
fn repeat(min: Duration, mut f: impl FnMut()) -> (u64, Duration) {
    let t0 = Instant::now();
    let mut passes = 0;
    while passes == 0 || t0.elapsed() < min {
        f();
        passes += 1;
    }
    (passes, t0.elapsed())
}

fn layer_pass(
    ctx: &Ctx,
    tracer: &crate::trace::Tracer,
    reference: &Reference,
    pool: &[u32],
    requests: &[Vec<u8>],
    served: &Path,
) -> Result<Layers, String> {
    let entries = reference.entries();
    let frozen = ctx.work.join("layer.snap");
    let (written, freeze) = tracer.span("freeze", "core", None, |_| {
        FrozenTrie::from_scored(entries).freeze_to_file(
            &frozen,
            SnapshotMeta {
                built_unix_ms: 0,
                source_generation: None,
            },
        )
    });
    written.map_err(|e| format!("freeze_to_file: {e}"))?;

    let mut opens = Vec::new();
    for _ in 0..21 {
        let ((), took) = tracer.span("open_mmap", "core", None, |_| {
            std::hint::black_box(FrozenTrie::open_mmap(served).map(|t| t.len()).ok());
        });
        opens.push(took.as_secs_f64() * 1e6);
    }
    let trie = FrozenTrie::open_mmap(served).map_err(|e| format!("open_mmap: {e}"))?;
    let trie_mismatches = pool
        .iter()
        .filter(|&&ip| {
            let got = trie.lookup(Ip(ip)).map_or(0, |m| m.cidr.len() + 1);
            got != reference.verdict(ip)
        })
        .count();
    let ((passes, took), _) = tracer.span("trie_lookups", "core", None, |_| {
        repeat(Duration::from_millis(300), || {
            for &ip in pool {
                std::hint::black_box(trie.lookup(Ip(std::hint::black_box(ip))));
            }
        })
    });
    let trie_ns_per_lookup = took.as_nanos() as f64 / (passes as f64 * pool.len() as f64);

    let ((parse_passes, parse_took), _) = tracer.span("parse_request", "serve", None, |_| {
        repeat(Duration::from_millis(300), || {
            for request in requests {
                let parsed = parse_request(std::hint::black_box(request));
                assert!(
                    matches!(parsed, Ok(Parse::Complete(..))),
                    "benchmark requests parse"
                );
            }
        })
    });
    Ok(Layers {
        freeze_s: freeze.as_secs_f64(),
        open_us: median(&opens).unwrap_or(f64::NAN),
        trie_ns_per_lookup,
        trie_mismatches,
        parse_ns_per_request: parse_took.as_nanos() as f64
            / (parse_passes as f64 * requests.len() as f64),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_times_answers_from_their_due_time_and_counts_lateness() {
        let t0 = Instant::now();
        let us = |x: u64| t0 + Duration::from_micros(x);
        let mut open = OpenLoop::new(t0, 1_000.0, 4); // one request per ms
        assert_eq!(open.release(t0), 0..1);
        // The generator stalls until 2.5 ms: requests 1 and 2 go out late.
        assert_eq!(open.release(us(2_500)), 1..3);
        assert_eq!(open.late_ns, vec![0.0, 1.5e6, 0.5e6]);
        // Both answered at 3 ms: request 1 was sent at 2.5 ms, but its
        // latency counts from 1 ms, so the stall shows.
        assert_eq!(open.answered(us(3_000)), 0);
        assert_eq!(open.answered(us(3_000)), 1);
        assert_eq!(open.latency_ns, vec![3e6, 2e6]);
        assert_eq!(open.release(us(9_000)), 3..4, "no more than n requests");
        assert_eq!(open.release(us(9_500)), 4..4);
        assert_eq!(open.answered(us(9_000)), 2);
        assert!(!open.done());
        assert_eq!(open.answered(us(9_000)), 3);
        assert!(open.done());
        assert_eq!(open.latency_ns, vec![3e6, 2e6, 7e6, 6e6]);
        assert_eq!(open.late_ns.len(), 4);
    }

    #[test]
    fn reference_prefers_the_longest_listed_match() {
        let reference = Reference {
            nets24: vec![0x0009_0102],
            hosts32: vec![0x0901_0203, 0x0a00_0001],
        };
        assert_eq!(reference.verdict(0x0901_0203), HOST);
        assert_eq!(reference.verdict(0x0901_0204), NET);
        assert_eq!(reference.verdict(0x0a00_0001), HOST);
        assert_eq!(reference.verdict(0x0901_0304), 0);
    }

    #[test]
    fn reference_agrees_with_the_frozen_trie_and_queries_hit_both_sides() {
        let mut rng = SeedTree::new(7).stream("serve");
        let reference = Reference::generate(&mut rng, 500, 2_000);
        let trie = FrozenTrie::from_scored(reference.entries());
        let pool = reference.queries(&mut rng, 4_000);
        let mut blocked = 0;
        for &ip in &pool {
            let want = reference.verdict(ip);
            blocked += usize::from(want != 0);
            let got = trie.lookup(Ip(ip)).map_or(0, |m| m.cidr.len() + 1);
            assert_eq!(got, want, "{}", Ip(ip));
        }
        assert!(
            (1_800..=2_300).contains(&blocked),
            "{blocked} of 4000 blocked"
        );
        let text = reference.render();
        let parsed = unclean_core::blocklist::parse_scored(&text).expect("parses");
        assert_eq!(parsed.len(), 2_500);
    }
}
