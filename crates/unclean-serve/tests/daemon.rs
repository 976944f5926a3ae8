//! End-to-end daemon tests: boot on an ephemeral port, speak real HTTP
//! over real sockets, hot-reload under load, shut down gracefully.

use serde_json::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use unclean_serve::{ServeConfig, Server};
use unclean_telemetry::{prom, Registry};

/// A scratch blocklist file unique to the calling test.
fn scratch_list(tag: &str, text: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("unclean-serve-daemon");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(format!("{tag}-{:?}.txt", std::thread::current().id()));
    std::fs::write(&path, text).expect("write blocklist");
    path
}

/// Issue one HTTP/1.0 request, return `(status, body)`.
fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let head = format!(
        "{method} {path} HTTP/1.0\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body).expect("write body");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {text:?}"));
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    request(addr, "GET", path, b"")
}

/// Like [`request`] but returns the raw body bytes — the binary batch
/// endpoint answers frames that are not UTF-8.
fn request_raw(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let head = format!(
        "{method} {path} HTTP/1.0\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body).expect("write body");
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("read response");
    let head_end = bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .unwrap_or_else(|| panic!("torn response: {} bytes", bytes.len()));
    let status: u16 = std::str::from_utf8(&bytes[..head_end])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, bytes[head_end + 4..].to_vec())
}

/// One persistent HTTP/1.1 keep-alive connection with responses framed
/// by `Content-Length` — supports writing a pipelined burst and then
/// draining the answers in order.
struct KeepAliveConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl KeepAliveConn {
    fn connect(addr: SocketAddr) -> KeepAliveConn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        KeepAliveConn {
            stream,
            buf: Vec::new(),
        }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("write request");
    }

    /// Read exactly one framed response off the connection.
    fn read_response(&mut self) -> (u16, Vec<u8>) {
        let mut chunk = [0u8; 8192];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let n = self.stream.read(&mut chunk).expect("read head");
            assert!(n > 0, "connection closed mid-response");
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).expect("ascii head");
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let content_length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .expect("content-length header");
        let total = head_end + 4 + content_length;
        while self.buf.len() < total {
            let n = self.stream.read(&mut chunk).expect("read body");
            assert!(n > 0, "connection closed mid-body");
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        (status, body)
    }
}

fn post(addr: SocketAddr, path: &str, body: &[u8]) -> (u16, String) {
    request(addr, "POST", path, body)
}

fn get_json(addr: SocketAddr, path: &str) -> Value {
    let (status, body) = get(addr, path);
    assert_eq!(status, 200, "GET {path}: {body}");
    serde_json::from_str(&body).unwrap_or_else(|e| panic!("bad json from {path}: {e} {body:?}"))
}

#[test]
fn endpoints_answer_over_real_sockets() {
    let list = scratch_list("endpoints", "9.1.0.0/16 # score=2.5\n203.0.113.0/24\n");
    let server = Server::start(ServeConfig::new(&list), Registry::full()).expect("start");
    let addr = server.local_addr();

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(
        body.starts_with("ok generation=1 age_secs="),
        "healthz body: {body:?}"
    );

    let hit = get_json(addr, "/lookup?ip=9.1.44.44");
    assert_eq!(hit.get("blocked").and_then(Value::as_bool), Some(true));
    assert_eq!(hit.get("cidr").and_then(Value::as_str), Some("9.1.0.0/16"));
    assert_eq!(hit.get("n").and_then(Value::as_u64), Some(16));
    assert_eq!(hit.get("score").and_then(Value::as_f64), Some(2.5));
    assert_eq!(hit.get("generation").and_then(Value::as_u64), Some(1));

    let miss = get_json(addr, "/lookup?ip=8.8.8.8");
    assert_eq!(miss.get("blocked").and_then(Value::as_bool), Some(false));

    let (status, body) = post(
        addr,
        "/batch",
        b"9.1.1.7\n8.8.8.8\nnot-an-ip\n\n# comment\n",
    );
    assert_eq!(status, 200);
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), 3, "{body:?}");
    assert_eq!(lines[0], "9.1.1.7 blocked 9.1.0.0/16 16 2.5");
    assert_eq!(lines[1], "8.8.8.8 clean");
    assert_eq!(lines[2], "not-an-ip error");

    let snap = get_json(addr, "/snapshot");
    assert_eq!(snap.get("generation").and_then(Value::as_u64), Some(1));
    assert_eq!(snap.get("entries").and_then(Value::as_u64), Some(2));
    assert!(
        snap.get("memory_bytes")
            .and_then(Value::as_u64)
            .unwrap_or(0)
            > 0
    );

    // Client errors are answered, not dropped.
    assert_eq!(get(addr, "/lookup").0, 400, "missing ip=");
    assert_eq!(get(addr, "/lookup?ip=512.0.0.1").0, 400, "bad ip");
    assert_eq!(get(addr, "/no-such").0, 404);

    // /metrics is valid Prometheus exposition and a clean run shows
    // explicit zeros on the drop counters.
    let (status, text) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let exposition = prom::parse(&text).expect("prometheus parse");
    assert_eq!(
        exposition.counter_u64("unclean_serve_conns_dropped"),
        Some(0)
    );
    assert_eq!(
        exposition.counter_u64("unclean_serve_reload_errors"),
        Some(0)
    );
    assert!(
        exposition
            .counter_u64("unclean_serve_requests_lookup")
            .unwrap_or(0)
            >= 4
    );

    let (status, body) = post(addr, "/quit", b"");
    assert_eq!((status, body.as_str()), (200, "shutting down\n"));
    server.wait(); // joins cleanly: accept loop exited, workers drained
}

#[test]
fn post_reload_advances_generation_and_changes_answers() {
    let list = scratch_list("reload", "9.1.0.0/16 # score=2.5\n");
    let server = Server::start(ServeConfig::new(&list), Registry::full()).expect("start");
    let addr = server.local_addr();

    let before = get_json(addr, "/lookup?ip=9.1.44.44");
    assert_eq!(before.get("blocked").and_then(Value::as_bool), Some(true));

    // Swap the blocklist contents entirely: the old block disappears, a
    // new one appears.
    std::fs::write(&list, "198.51.100.0/24 # score=9.0\n").expect("rewrite");
    let reloaded = {
        let (status, body) = post(addr, "/reload", b"");
        assert_eq!(status, 200, "{body}");
        serde_json::from_str::<Value>(&body).expect("reload json")
    };
    assert_eq!(reloaded.get("generation").and_then(Value::as_u64), Some(2));
    assert_eq!(reloaded.get("entries").and_then(Value::as_u64), Some(1));

    let after = get_json(addr, "/lookup?ip=9.1.44.44");
    assert_eq!(after.get("blocked").and_then(Value::as_bool), Some(false));
    assert_eq!(after.get("generation").and_then(Value::as_u64), Some(2));
    let new_block = get_json(addr, "/lookup?ip=198.51.100.7");
    assert_eq!(
        new_block.get("blocked").and_then(Value::as_bool),
        Some(true)
    );
    assert_eq!(new_block.get("score").and_then(Value::as_f64), Some(9.0));

    // A reload that fails to parse keeps serving the old generation.
    std::fs::write(&list, "complete garbage\n").expect("rewrite");
    let (status, _) = post(addr, "/reload", b"");
    assert_eq!(status, 500);
    let still = get_json(addr, "/lookup?ip=198.51.100.7");
    assert_eq!(still.get("blocked").and_then(Value::as_bool), Some(true));
    assert_eq!(still.get("generation").and_then(Value::as_u64), Some(2));
    assert_eq!(server.registry().counter_value("reload.errors"), 1);

    server.shutdown();
}

#[test]
fn watcher_hot_reloads_on_file_change() {
    let list = scratch_list("watch", "9.1.0.0/16\n");
    let mut config = ServeConfig::new(&list);
    config.watch = Some(Duration::from_millis(25));
    let server = Server::start(config, Registry::full()).expect("start");
    let addr = server.local_addr();
    assert_eq!(server.generation(), 1);

    // Rewrite with different contents *and* length so the (mtime, len)
    // fingerprint changes even on coarse-mtime filesystems.
    std::fs::write(&list, "10.0.0.0/8 # score=1.0\n172.16.0.0/12\n").expect("rewrite");

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = get_json(addr, "/snapshot");
        if snap.get("generation").and_then(Value::as_u64) >= Some(2) {
            assert_eq!(snap.get("entries").and_then(Value::as_u64), Some(2));
            break;
        }
        assert!(Instant::now() < deadline, "watcher never picked up change");
        std::thread::sleep(Duration::from_millis(20));
    }

    let hit = get_json(addr, "/lookup?ip=10.9.9.9");
    assert_eq!(hit.get("blocked").and_then(Value::as_bool), Some(true));
    let gone = get_json(addr, "/lookup?ip=9.1.44.44");
    assert_eq!(gone.get("blocked").and_then(Value::as_bool), Some(false));

    server.shutdown();
}

/// Degraded-mode serving: with staleness thresholds set, `/healthz`
/// walks ok → stale (200) → degraded (503) as the generation ages, the
/// trie answers lookups throughout, and a reload snaps health back to ok.
#[test]
fn healthz_degrades_with_generation_age_and_recovers_on_reload() {
    let list = scratch_list("stale", "9.1.0.0/16 # score=2.5\n");
    let mut config = ServeConfig::new(&list);
    config.stale_after = Some(Duration::from_millis(400));
    config.degraded_after = Some(Duration::from_millis(1_200));
    let server = Server::start(config, Registry::full()).expect("start");
    let addr = server.local_addr();

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    assert!(body.starts_with("ok "), "fresh boot: {body:?}");

    let wait_for = |prefix: &str, want_status: u16| {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let (status, body) = get(addr, "/healthz");
            if body.starts_with(prefix) {
                assert_eq!(status, want_status, "{body}");
                break;
            }
            assert!(
                Instant::now() < deadline,
                "never reached {prefix:?}: {body:?}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    };
    wait_for("stale ", 200);
    wait_for("degraded ", 503);

    // Degraded ≠ down: lookups still answer from the last generation.
    let hit = get_json(addr, "/lookup?ip=9.1.44.44");
    assert_eq!(hit.get("blocked").and_then(Value::as_bool), Some(true));

    // The age gauge is exported and past the degraded threshold.
    let (status, text) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let exposition = prom::parse(&text).expect("prometheus parse");
    let age: f64 = exposition
        .find("unclean_serve_generation_age_secs")
        .and_then(|s| s.raw_value.parse().ok())
        .expect("age gauge exported");
    assert!(age >= 1.2, "age gauge {age} tracks staleness");

    // A fresh generation restores health immediately.
    std::fs::write(&list, "9.1.0.0/16 # score=3.0\n10.0.0.0/8\n").expect("rewrite");
    let (status, _) = post(addr, "/reload", b"");
    assert_eq!(status, 200);
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    assert!(body.starts_with("ok generation=2 "), "recovered: {body:?}");

    server.shutdown();
}

/// The batch endpoints answer through the batched trie walk. Over 100
/// addresses — six full 16-walk lane groups and a 4-walk tail — against
/// nested blocks (/8 ⊃ /16 ⊃ /24 ⊃ /32), `/batch-bin`, `/batch-bin?detail=1`
/// and `/batch` must each give every address's `GET /lookup` verdict, in
/// order, and the blocked and clean counters must add up to the
/// addresses looked up.
#[test]
fn batch_bin_agrees_with_text_batch() {
    let list = scratch_list(
        "batchbin",
        "9.1.0.0/16 # score=2.5\n203.0.113.0/24\n10.0.0.0/8 # score=0.5\n\
         10.1.0.0/16 # score=1.5\n10.1.2.0/24 # score=2.25\n10.1.2.3/32 # score=4.0\n",
    );
    let server = Server::start(ServeConfig::new(&list), Registry::full()).expect("start");
    let addr = server.local_addr();

    // Five hand-checked addresses, then 95 spread over every level of
    // the nest and the space around it.
    let mut ips: Vec<u32> = vec![
        (9 << 24) | (1 << 16) | (44 << 8) | 44, // 9.1.44.44  → /16 hit
        (8 << 24) | (8 << 16) | (8 << 8) | 8,   // 8.8.8.8    → clean
        (203 << 24) | (113 << 8) | 1,           // 203.0.113.1 → /24 hit
        (9 << 24) | (2 << 16),                  // 9.2.0.0    → clean (outside /16)
        u32::MAX,                               // 255.255.255.255 → clean
    ];
    let mut x = 0x2545_f491u32;
    while ips.len() < 100 {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        ips.push(match ips.len() % 5 {
            0 => 0x0a01_0203,                   // the /32
            1 => 0x0a01_0200 | (x & 0xff),      // inside the /24
            2 => 0x0a01_0000 | (x & 0xffff),    // inside the /16
            3 => 0x0a00_0000 | (x & 0xff_ffff), // inside the /8
            _ => x,                             // anywhere
        });
    }
    let dotted = |ip: u32| {
        format!(
            "{}.{}.{}.{}",
            ip >> 24,
            (ip >> 16) & 255,
            (ip >> 8) & 255,
            ip & 255
        )
    };

    // The point answers every batch must reproduce: verdict byte, matched
    // base and `/batch` line per address.
    let mut verdicts = Vec::new();
    let mut bases = Vec::new();
    let mut lines = Vec::new();
    for &ip in &ips {
        let answer = get_json(addr, &format!("/lookup?ip={}", dotted(ip)));
        if answer.get("blocked").and_then(Value::as_bool) == Some(true) {
            let cidr = answer.get("cidr").and_then(Value::as_str).expect("cidr");
            let n = answer.get("n").and_then(Value::as_u64).expect("n");
            let score = answer.get("score").and_then(Value::as_f64).expect("score");
            let base: std::net::Ipv4Addr = cidr
                .split('/')
                .next()
                .and_then(|b| b.parse().ok())
                .expect("base");
            verdicts.push(n as u8 + 1);
            bases.push(u32::from(base));
            lines.push(format!("{} blocked {cidr} {n} {score}", dotted(ip)));
        } else {
            verdicts.push(0);
            bases.push(0);
            lines.push(format!("{} clean", dotted(ip)));
        }
    }
    assert_eq!(verdicts[..5], [17, 0, 25, 0, 0]);
    assert_eq!(
        bases[..5],
        [(9 << 24) | (1 << 16), 0, (203 << 24) | (113 << 8), 0, 0]
    );
    for level in [33, 25, 17, 9] {
        assert!(
            verdicts.contains(&level),
            "some address matches /{}",
            level - 1
        );
    }

    // Binary answers over /batch-bin: u32-BE count, then addresses; the
    // response is gen + count + one verdict byte each (0 = clean, else
    // matched prefix length + 1).
    let mut frame = Vec::new();
    frame.extend_from_slice(&(ips.len() as u32).to_be_bytes());
    for &ip in &ips {
        frame.extend_from_slice(&ip.to_be_bytes());
    }
    let (status, body) = request_raw(addr, "POST", "/batch-bin", &frame);
    assert_eq!(status, 200);
    assert_eq!(body.len(), 8 + ips.len());
    let generation = u32::from_be_bytes([body[0], body[1], body[2], body[3]]);
    let count = u32::from_be_bytes([body[4], body[5], body[6], body[7]]);
    assert_eq!((generation, count), (1, ips.len() as u32));
    assert_eq!(body[8..], verdicts[..], "/batch-bin vs /lookup");

    // ?detail=1 appends the matched CIDR base per address (0 if clean).
    let (status, body) = request_raw(addr, "POST", "/batch-bin?detail=1", &frame);
    assert_eq!(status, 200);
    assert_eq!(body.len(), 8 + ips.len() + 4 * ips.len());
    assert_eq!(body[8..8 + ips.len()], verdicts[..]);
    let detail: Vec<u32> = body[8 + ips.len()..]
        .chunks_exact(4)
        .map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    assert_eq!(detail, bases, "/batch-bin?detail=1 vs /lookup");

    // Text answers over /batch, with comments, blank lines and
    // unparseable lines between the addresses.
    let mut text_body = String::new();
    let mut expected = Vec::new();
    for (i, (&ip, line)) in ips.iter().zip(&lines).enumerate() {
        match i % 7 {
            0 => text_body.push_str("# a comment\n"),
            3 => text_body.push_str("\n   \n"),
            5 => {
                text_body.push_str("not-an-ip\n");
                expected.push("not-an-ip error".to_string());
            }
            _ => {}
        }
        text_body.push_str(&format!("  {}\t\n", dotted(ip)));
        expected.push(line.clone());
    }
    let (status, text_answers) = post(addr, "/batch", text_body.as_bytes());
    assert_eq!(status, 200);
    assert_eq!(
        text_answers.lines().collect::<Vec<_>>(),
        expected,
        "/batch vs /lookup"
    );

    // A torn frame (count promises more addresses than the body holds)
    // is a client error, not a crash.
    let (status, _) = request_raw(addr, "POST", "/batch-bin", &8u32.to_be_bytes());
    assert_eq!(status, 400);

    // Every address looked up was answered exactly once: 100 point
    // lookups, two binary batches and one text batch.
    let (status, text) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let exposition = prom::parse(&text).expect("prometheus parse");
    let answered = ["blocked", "clean"]
        .map(|verdict| {
            exposition
                .counter_u64(&format!("unclean_serve_answers_{verdict}"))
                .expect("answer counter exported")
        })
        .iter()
        .sum::<u64>();
    assert_eq!(answered, 4 * ips.len() as u64);

    server.shutdown();
}

/// Keep-alive clients pipelining bursts of requests down one connection
/// while the snapshot hot-reloads underneath them: every response is
/// complete, generations never move backwards on any connection (text
/// and binary responses both carry the generation), and nothing is
/// dropped or mis-framed across the run.
#[test]
fn keepalive_pipelined_clients_survive_hot_reload() {
    let texts = [
        "9.1.0.0/16 # score=1.0\n203.0.113.0/24\n",
        "9.1.0.0/16 # score=2.0\n198.51.100.0/24 # score=3.5\n",
    ];
    let list = scratch_list("ka-reload", texts[0]);
    let mut config = ServeConfig::new(&list);
    config.threads = 2;
    config.max_conns = 64;
    let server = Server::start(config, Registry::full()).expect("start");
    let addr = server.local_addr();

    // One binary /batch-bin frame asking about a single always-blocked
    // address, reused by every burst.
    let mut bin_frame = Vec::new();
    bin_frame.extend_from_slice(&1u32.to_be_bytes());
    bin_frame.extend_from_slice(&(((9u32) << 24) | (1 << 16) | (44 << 8) | 44).to_be_bytes());
    let bin_request = {
        let mut req = format!(
            "POST /batch-bin HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            bin_frame.len()
        )
        .into_bytes();
        req.extend_from_slice(&bin_frame);
        req
    };

    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..3)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let bin_request = bin_request.clone();
            std::thread::spawn(move || {
                let mut conn = KeepAliveConn::connect(addr);
                let mut answered = 0u64;
                let mut last_generation = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Pipeline a burst: 7 text lookups + 1 binary batch,
                    // written back-to-back before reading any answer.
                    let mut burst = Vec::new();
                    for _ in 0..7 {
                        burst.extend_from_slice(b"GET /lookup?ip=9.1.44.44 HTTP/1.1\r\n\r\n");
                    }
                    burst.extend_from_slice(&bin_request);
                    conn.send(&burst);
                    for i in 0..8 {
                        let (status, body) = conn.read_response();
                        assert_eq!(status, 200, "response #{i} in burst");
                        let generation = if i < 7 {
                            let json: Value = serde_json::from_slice(&body).expect("lookup json");
                            assert_eq!(json.get("blocked").and_then(Value::as_bool), Some(true));
                            json.get("generation")
                                .and_then(Value::as_u64)
                                .expect("generation")
                        } else {
                            assert_eq!(body.len(), 9, "binary frame: gen+count+verdict");
                            assert_ne!(body[8], 0, "binary verdict must be blocked");
                            u64::from(u32::from_be_bytes([body[0], body[1], body[2], body[3]]))
                        };
                        assert!(
                            generation >= last_generation,
                            "generation went backwards on a live connection"
                        );
                        last_generation = generation;
                        answered += 1;
                    }
                }
                answered
            })
        })
        .collect();

    // Ten full hot reloads while the pipelined clients run.
    for round in 0..10 {
        std::fs::write(&list, texts[(round + 1) % 2]).expect("rewrite");
        let (status, _) = post(addr, "/reload", b"");
        assert_eq!(status, 200);
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::Relaxed);
    let answered: u64 = clients.into_iter().map(|c| c.join().expect("client")).sum();
    assert!(answered >= 24, "clients made no progress: {answered}");

    assert_eq!(server.generation(), 11);
    let registry = server.registry().clone();
    server.shutdown();
    assert_eq!(registry.counter_value("conns.dropped"), 0);
    assert_eq!(registry.counter_value("conns.read_errors"), 0);
    assert_eq!(registry.counter_value("reload.errors"), 0);
    assert_eq!(registry.counter_value("reload.count"), 10);
}

/// The tentpole's zero-loss claim: clients hammering `/lookup` while the
/// snapshot is rebuilt repeatedly see only complete 200 responses, each
/// from a well-defined generation, and generations never move backwards
/// from any single client's point of view.
#[test]
fn hot_reload_under_load_loses_no_requests() {
    let texts = [
        "9.1.0.0/16 # score=1.0\n203.0.113.0/24\n",
        "9.1.0.0/16 # score=2.0\n198.51.100.0/24 # score=3.5\n",
    ];
    let list = scratch_list("underload", texts[0]);
    let mut config = ServeConfig::new(&list);
    config.threads = 4;
    config.max_conns = 512;
    let server = Server::start(config, Registry::full()).expect("start");
    let addr = server.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut answered = 0u64;
                let mut last_generation = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let body = get_json(addr, "/lookup?ip=9.1.44.44");
                    assert_eq!(body.get("blocked").and_then(Value::as_bool), Some(true));
                    let generation = body
                        .get("generation")
                        .and_then(Value::as_u64)
                        .expect("generation");
                    assert!(generation >= last_generation, "generation went backwards");
                    last_generation = generation;
                    answered += 1;
                }
                answered
            })
        })
        .collect();

    // Ten full hot reloads while the clients run.
    for round in 0..10 {
        std::fs::write(&list, texts[(round + 1) % 2]).expect("rewrite");
        let (status, _) = post(addr, "/reload", b"");
        assert_eq!(status, 200);
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::Relaxed);
    let answered: u64 = clients.into_iter().map(|c| c.join().expect("client")).sum();
    assert!(answered > 0, "clients made no progress");

    assert_eq!(server.generation(), 11);
    let registry = server.registry().clone();
    server.shutdown();
    // Nothing was dropped or errored across the whole run.
    assert_eq!(registry.counter_value("conns.dropped"), 0);
    assert_eq!(registry.counter_value("conns.read_errors"), 0);
    assert_eq!(registry.counter_value("reload.errors"), 0);
    assert_eq!(registry.counter_value("reload.count"), 10);
}
