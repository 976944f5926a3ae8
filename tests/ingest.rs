//! The streaming ingest loop, end to end at the library level: V5
//! datagrams over a real UDP socket → bounded ring → durable WAL spool →
//! window rescore → scored blocklist file → `unclean-serve` hot reload.
//! No daemon restarts anywhere — the serving generation advances because
//! the rescore loop published a fresh file, which is the paper's
//! operational claim wired all the way through.
//!
//! The incremental window's contract is pinned here too: at every
//! publish of a random live schedule, a window fed only the segments
//! sealed since its last publish scores what a from-scratch rescore of
//! the whole sealed spool scores.

use proptest::collection::vec;
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{TcpStream, UdpSocket};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use unclean_core::blocklist::render_scored;
use unclean_core::{publish_atomic, Ip};
use unclean_detect::{rescore_window, LiveScanConfig, LiveWindow};
use unclean_flowgen::record::{proto, tcp_flags, EPOCH_UNIX_SECS};
use unclean_flowgen::spool::{INDEX_FILE, SEGMENTS_FILE};
use unclean_flowgen::{
    encode_datagram, BatchStatus, Flow, UdpFlowSource, UdpSourceConfig, V5Header, WalSpool,
    V5_MAX_RECORDS,
};
use unclean_serve::{ServeConfig, Server};
use unclean_telemetry::Registry;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("unclean-ingest-e2e").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

/// Scan-shaped traffic: four sources in 9.1.0.0/24 sweeping globally
/// distinct destinations inside hour zero — far past the 64-distinct-dst
/// hourly fan-out threshold.
fn scan_flows(count: u64) -> Vec<Flow> {
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

/// Send `flows` at `to` as well-formed V5 datagrams with contiguous
/// sequence numbers.
fn send_flows(to: std::net::SocketAddr, flows: &[Flow]) {
    let socket = UdpSocket::bind("127.0.0.1:0").expect("sender");
    let mut seq = 0u32;
    for chunk in flows.chunks(V5_MAX_RECORDS) {
        let records: Vec<_> = chunk.iter().map(|f| f.to_v5(EPOCH_UNIX_SECS)).collect();
        let header = V5Header {
            count: records.len() as u16,
            sys_uptime_ms: 0,
            unix_secs: EPOCH_UNIX_SECS,
            unix_nsecs: 0,
            flow_sequence: seq,
            engine_type: 0,
            engine_id: 0,
            sampling_interval: 0,
        };
        seq = seq.wrapping_add(chunk.len() as u32);
        socket
            .send_to(&encode_datagram(&header, &records), to)
            .expect("send");
        // Keep loopback socket buffers honest.
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One blocking HTTP/1.0 exchange; retries the connect until the daemon
/// answers. Returns the raw response.
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
            Err(e) => panic!("daemon never came up at {addr}: {e}"),
        }
    }
}

fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body)
        .unwrap_or("")
}

#[test]
fn udp_to_wal_to_rescore_to_served_generation() {
    let dir = tmp_dir("streaming-loop");
    const SENT: u64 = 1_500;

    // --- Socket → ring: real UDP datagrams into the flow source. ---
    let mut source = UdpFlowSource::bind(UdpSourceConfig {
        poll_timeout: Duration::from_millis(10),
        ..UdpSourceConfig::default()
    })
    .expect("bind");
    send_flows(source.local_addr(), &scan_flows(SENT));

    // --- Ring → WAL: spool every admitted flow, then seal. ---
    let mut spool = WalSpool::create(&dir.join("spool"), EPOCH_UNIX_SECS).expect("spool");
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut batch = Vec::new();
    let mut spooled = 0u64;
    while spooled < SENT {
        assert!(Instant::now() < deadline, "spooled only {spooled}/{SENT}");
        batch.clear();
        if let BatchStatus::Delivered(_) = source.next_batch(&mut batch) {
            for flow in &batch {
                spool.push(flow).expect("push");
            }
            spooled += batch.len() as u64;
        }
    }
    source.stop();
    let telemetry = source.telemetry();
    assert_eq!(telemetry.flows, SENT, "clean stream loses nothing");
    assert_eq!(telemetry.lost_flows, 0);
    let sealed = spool.seal().expect("seal");
    assert!(sealed.is_some(), "a sealed segment materializes");
    assert_eq!(spool.checkpoint().sealed_flows, SENT);

    // --- WAL → rescore: the sealed image replays through the detectors
    // and the scanner's /24 comes out scored. ---
    let image = spool.sealed_image().expect("image");
    let registry = Registry::full();
    let scan = rescore_window(&image, None, &LiveScanConfig::default(), &registry).expect("scan");
    assert_eq!(scan.flows, SENT);
    assert!(
        scan.blocklist
            .iter()
            .any(|(cidr, _)| cidr.to_string() == "9.1.0.0/24"),
        "scanner network missing from {:?}",
        scan.blocklist
    );

    // --- Rescore → reload: serve boots on a decoy list, then picks up
    // the published generation without restarting. ---
    let out = dir.join("blocklist.txt");
    std::fs::write(&out, "203.0.113.0/24 # score=1.0\n").expect("seed list");
    let mut config = ServeConfig::new(&out);
    config.core.addr = "127.0.0.1:0".to_string();
    config.core.threads = 2;
    config.watch = Some(Duration::from_millis(50));
    config.core.stale_after = Some(Duration::from_secs(3_600));
    config.core.degraded_after = Some(Duration::from_secs(7_200));
    let server = Server::start(config, Registry::full()).expect("serve");
    let addr = server.local_addr().to_string();

    let lookup = http(&addr, "GET /lookup?ip=9.1.0.7 HTTP/1.0\r\n\r\n");
    assert!(
        body_of(&lookup).contains("\"blocked\":false"),
        "decoy generation must not block the scanner yet: {lookup}"
    );

    // Atomic publish, exactly as the ingest daemon does it.
    let text = render_scored(&scan.blocklist, "unclean-ingest");
    publish_atomic(&out, |f| f.write_all(text.as_bytes())).expect("publish");

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let health = http(&addr, "GET /healthz HTTP/1.0\r\n\r\n");
        if body_of(&health).contains("generation=2") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "watcher never reloaded: {health}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let lookup = http(&addr, "GET /lookup?ip=9.1.0.7 HTTP/1.0\r\n\r\n");
    assert!(
        body_of(&lookup).contains("\"blocked\":true"),
        "reloaded generation must block the scanner: {lookup}"
    );
    assert!(body_of(&lookup).contains("9.1.0.0/24"), "{lookup}");

    // The staleness watchdog exports the generation age.
    let metrics = http(&addr, "GET /metrics HTTP/1.0\r\n\r\n");
    assert!(
        metrics.contains("unclean_serve_generation_age_secs"),
        "{metrics}"
    );

    let quit = http(&addr, "POST /quit HTTP/1.0\r\nContent-Length: 0\r\n\r\n");
    assert!(quit.starts_with("HTTP/1.0 200"), "{quit}");
    server.wait();
}

#[test]
fn recovered_spool_resumes_the_served_window() {
    // A crash between rescores must not change what the next generation
    // serves: reopening the WAL yields the identical sealed image, so the
    // rescore after a restart scores the identical blocklist.
    let dir = tmp_dir("recovery-window");
    let flows = scan_flows(1_200);
    let spool_dir = dir.join("spool");
    let mut spool = WalSpool::create(&spool_dir, EPOCH_UNIX_SECS).expect("spool");
    for flow in &flows {
        spool.push(flow).expect("push");
    }
    spool.seal().expect("seal");
    let image_before = spool.sealed_image().expect("image");
    drop(spool);

    let (spool, report) = WalSpool::open(&spool_dir).expect("recover");
    assert_eq!(report.sealed_flows, 1_200);
    assert_eq!(report.torn_tail_bytes, 0);
    let image_after = spool.sealed_image().expect("image");
    assert_eq!(image_before, image_after, "recovery is byte-exact");

    let registry = Registry::full();
    let before =
        rescore_window(&image_before, None, &LiveScanConfig::default(), &registry).expect("scan");
    let after =
        rescore_window(&image_after, None, &LiveScanConfig::default(), &registry).expect("scan");
    assert_eq!(
        render_scored(&before.blocklist, "x"),
        render_scored(&after.blocklist, "x")
    );
}

/// A random live schedule's traffic: scan bursts, SMTP bursts and benign
/// payload flows from a small pool of sources, on days that continue the
/// last burst's, move one on, or jump anywhere in 0..6 (before the
/// spool's first day included). One burst stays under the detectors'
/// thresholds (64 destinations an hour, 8 deliveries a day), so most
/// detections need bursts that a seal or a publish may fall between.
struct Traffic {
    day: u32,
    next_dst: u32,
}

impl Traffic {
    fn burst(&mut self, word: u32) -> Vec<Flow> {
        self.day = match (word >> 3) % 4 {
            0 | 1 => self.day,
            2 => (self.day + 1).min(5),
            _ => (word >> 5) % 6,
        };
        let hour = i64::from((word >> 8) % 2);
        let src = Ip(0x0901_0001 + (((word >> 13) % 3) << 8));
        let n = 1 + (word >> 16) % if word % 3 == 1 { 5 } else { 48 };
        let base = i64::from(self.day) * 86_400 + hour * 3_600;
        (0..n)
            .map(|i| {
                self.next_dst += 1;
                let flow = Flow {
                    src,
                    dst: Ip(0x1e00_0000 + self.next_dst),
                    src_port: 40_000,
                    dst_port: 445,
                    proto: proto::TCP,
                    packets: 1,
                    octets: 40,
                    flags: tcp_flags::SYN,
                    start_secs: base + i64::from(i % 3_600),
                    duration_secs: 0,
                };
                match word % 3 {
                    // A scan probe: SYN-only, a fresh destination.
                    0 => flow,
                    // A mail delivery.
                    1 => Flow {
                        dst_port: 25,
                        packets: 10,
                        octets: 4_000,
                        flags: tcp_flags::SYN | tcp_flags::ACK,
                        ..flow
                    },
                    // Benign web traffic from a source of its own.
                    _ => Flow {
                        src: Ip(0x0a00_0000 + self.next_dst),
                        dst_port: 80,
                        packets: 8,
                        octets: 6_000,
                        flags: tcp_flags::SYN | tcp_flags::ACK,
                        ..flow
                    },
                }
            })
            .collect()
    }
}

/// Cut `cut` bytes off the end of `path`, keeping at least `keep`.
fn tear(path: &std::path::Path, keep: u64, cut: u64) {
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .expect("open for tearing");
    let len = file.metadata().expect("metadata").len();
    file.set_len(len.saturating_sub(cut).max(keep.min(len)))
        .expect("tear");
}

proptest! {
    /// The live window's contract. Random schedules of pushes, seals,
    /// publishes and restarts — a clean restart, unsealed frames left in
    /// `segments.dat`, a `segments.dat` cut inside its last sealed
    /// segment, and an `index.wal` cut inside its last record — each
    /// restart starting a fresh window, as `unclean ingest` starts one
    /// per attempt. At every publish the window's scan equals a
    /// from-scratch `rescore_window` of the sealed image in every field,
    /// renders byte-identical text, and the attempt's `archive.flows`
    /// counts each sealed flow once.
    #[test]
    fn incremental_window_equals_a_full_rescore_at_every_publish(
        ops in vec(any::<u32>(), 4..40),
        threads in 1usize..3,
    ) {
        let dir = tmp_dir("window-contract");
        let cfg = LiveScanConfig {
            threads,
            ..LiveScanConfig::default()
        };
        let mut spool = WalSpool::create(&dir, EPOCH_UNIX_SECS).expect("spool");
        let mut window = LiveWindow::new(cfg.clone());
        let mut registry = Registry::full();
        let mut traffic = Traffic { day: 3, next_dst: 0 };
        for (k, &word) in ops.iter().enumerate() {
            let last = k + 1 == ops.len();
            match (word >> 28) % 8 {
                0..=3 => {
                    for flow in traffic.burst(word) {
                        spool.push(&flow).expect("push");
                    }
                }
                4 => {
                    spool.seal().expect("seal");
                }
                5 => {
                    let torn = word % 4;
                    if torn == 1 {
                        for flow in traffic.burst(word.rotate_left(7)) {
                            spool.push(&flow).expect("push");
                        }
                        spool.flush_datagram().expect("flush");
                    } else {
                        spool.seal().expect("seal");
                    }
                    let sealed = spool.sealed_segments().to_vec();
                    drop(spool);
                    // 1..=8 bytes: inside the last sealed segment, or
                    // inside the last index record (16 bytes or more).
                    let cut = 1 + u64::from(word >> 8) % 8;
                    if let (2, Some(s)) = (torn, sealed.last()) {
                        tear(&dir.join(SEGMENTS_FILE), s.offset, cut);
                    }
                    if torn == 3 && !sealed.is_empty() {
                        tear(&dir.join(INDEX_FILE), 0, cut);
                    }
                    let (reopened, report) = WalSpool::open(&dir).expect("recover");
                    prop_assert!(
                        torn == 0
                            || sealed.is_empty()
                            || report.torn_tail_bytes + report.torn_index_bytes > 0
                    );
                    spool = reopened;
                    window = LiveWindow::new(cfg.clone());
                    registry = Registry::full();
                }
                _ => {}
            }
            if (word >> 28) % 8 >= 6 || last {
                spool.seal().expect("seal");
                let live = window
                    .rescore(&spool.segments(), &registry)
                    .expect("incremental rescore");
                let image = spool.sealed_image().expect("image");
                let full = rescore_window(&image, None, &cfg, &Registry::off())
                    .expect("full rescore");
                prop_assert_eq!(&live, &full);
                prop_assert_eq!(
                    render_scored(&live.blocklist, "unclean-ingest"),
                    render_scored(&full.blocklist, "unclean-ingest")
                );
                prop_assert_eq!(
                    registry.counter_value("archive.flows"),
                    spool.checkpoint().sealed_flows
                );
            }
        }
    }
}
