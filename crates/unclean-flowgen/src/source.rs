//! The live V5 collector: [`UdpFlowSource`] binds a socket, decodes
//! export datagrams with the [`crate::record`] codec, runs the shared
//! [`SequenceTracker`] loss/reorder/duplicate accounting (the
//! [`ArchiveTelemetry`] an archive replay reports too), and feeds a
//! bounded [`FlowRing`] whose shed policy is explicit and *counted* —
//! backpressure never turns into silent loss. `unclean ingest` pulls
//! batches off the ring into its WAL spool.

use crate::archive::ArchiveTelemetry;
use crate::record::decode_datagram;
use crate::seq::SequenceTracker;
use crate::session::Flow;
use std::collections::VecDeque;
use std::io;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// What one [`UdpFlowSource::next_batch`] (or [`FlowRing::pop_batch`])
/// call produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchStatus {
    /// This many flows were appended to the caller's buffer.
    Delivered(usize),
    /// Nothing available right now; the source is still live — poll again.
    Idle,
    /// The source is drained: stopped, and its ring is empty. No more
    /// flows will come.
    Exhausted,
}

// ---------------------------------------------------------------------------
// The bounded ring
// ---------------------------------------------------------------------------

/// What to do when the ring is full and another flow arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Evict the oldest queued flow to admit the new one (favor
    /// freshness — the rescore window wants recent flows).
    DropOldest,
    /// Refuse the new flow (favor what's already queued).
    DropNewest,
}

impl std::str::FromStr for ShedPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<ShedPolicy, String> {
        match s {
            "oldest" | "drop-oldest" => Ok(ShedPolicy::DropOldest),
            "newest" | "drop-newest" => Ok(ShedPolicy::DropNewest),
            other => Err(format!("unknown shed policy '{other}' (oldest|newest)")),
        }
    }
}

/// The ring's accounting: every shed is counted — backpressure is
/// visible, never silent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingTelemetry {
    /// Flows accepted into the ring.
    pub pushed: u64,
    /// Flows handed to the consumer.
    pub popped: u64,
    /// Queued flows evicted by [`ShedPolicy::DropOldest`].
    pub shed_oldest: u64,
    /// Arriving flows refused by [`ShedPolicy::DropNewest`].
    pub shed_newest: u64,
    /// Deepest the queue ever got.
    pub high_water: u64,
}

impl RingTelemetry {
    /// Total flows shed, either policy.
    pub fn shed(&self) -> u64 {
        self.shed_oldest + self.shed_newest
    }
}

#[derive(Debug)]
struct RingInner {
    queue: VecDeque<Flow>,
    telemetry: RingTelemetry,
    closed: bool,
}

/// A bounded flow queue between the socket reader and the spooler, with
/// an explicit, counted shed policy.
#[derive(Debug)]
pub struct FlowRing {
    inner: Mutex<RingInner>,
    readable: Condvar,
    capacity: usize,
    policy: ShedPolicy,
}

impl FlowRing {
    /// A ring holding at most `capacity` flows, shedding per `policy`.
    pub fn new(capacity: usize, policy: ShedPolicy) -> FlowRing {
        assert!(capacity > 0, "ring capacity must be positive");
        FlowRing {
            inner: Mutex::new(RingInner {
                queue: VecDeque::with_capacity(capacity.min(65_536)),
                telemetry: RingTelemetry::default(),
                closed: false,
            }),
            readable: Condvar::new(),
            capacity,
            policy,
        }
    }

    /// Push `flows`, shedding per policy when full. Returns how many were
    /// shed (already counted in the telemetry).
    pub fn push_batch(&self, flows: &[Flow]) -> u64 {
        let mut inner = self.inner.lock().expect("flow ring");
        if inner.closed {
            // A closed ring sheds everything: the consumer is gone.
            inner.telemetry.shed_newest += flows.len() as u64;
            return flows.len() as u64;
        }
        let mut shed = 0u64;
        for f in flows {
            if inner.queue.len() == self.capacity {
                match self.policy {
                    ShedPolicy::DropOldest => {
                        inner.queue.pop_front();
                        inner.telemetry.shed_oldest += 1;
                        shed += 1;
                    }
                    ShedPolicy::DropNewest => {
                        inner.telemetry.shed_newest += 1;
                        shed += 1;
                        continue;
                    }
                }
            }
            inner.queue.push_back(*f);
            inner.telemetry.pushed += 1;
        }
        let depth = inner.queue.len() as u64;
        inner.telemetry.high_water = inner.telemetry.high_water.max(depth);
        drop(inner);
        self.readable.notify_one();
        shed
    }

    /// Pop up to `max` flows into `out`, waiting up to `timeout` for the
    /// first. Returns `Delivered`/`Idle`, or `Exhausted` once the ring is
    /// closed *and* empty — a close never strands queued flows.
    pub fn pop_batch(&self, out: &mut Vec<Flow>, max: usize, timeout: Duration) -> BatchStatus {
        let mut inner = self.inner.lock().expect("flow ring");
        if inner.queue.is_empty() {
            if inner.closed {
                return BatchStatus::Exhausted;
            }
            let (guard, _) = self
                .readable
                .wait_timeout(inner, timeout)
                .expect("flow ring");
            inner = guard;
        }
        if inner.queue.is_empty() {
            return if inner.closed {
                BatchStatus::Exhausted
            } else {
                BatchStatus::Idle
            };
        }
        let n = inner.queue.len().min(max);
        out.extend(inner.queue.drain(..n));
        inner.telemetry.popped += n as u64;
        BatchStatus::Delivered(n)
    }

    /// Close the ring: no more pushes are admitted; queued flows remain
    /// poppable until drained.
    pub fn close(&self) {
        self.inner.lock().expect("flow ring").closed = true;
        self.readable.notify_all();
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("flow ring").queue.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ring's shed/depth accounting.
    pub fn telemetry(&self) -> RingTelemetry {
        self.inner.lock().expect("flow ring").telemetry
    }
}

// ---------------------------------------------------------------------------
// Live UDP ingest
// ---------------------------------------------------------------------------

/// Configuration for a [`UdpFlowSource`].
#[derive(Debug, Clone)]
pub struct UdpSourceConfig {
    /// Address to bind, e.g. `127.0.0.1:9995` (port 0 for ephemeral).
    pub bind: String,
    /// Exporter boot anchor used to decode flow timestamps.
    pub boot_unix_secs: u32,
    /// Ring capacity in flows.
    pub ring_capacity: usize,
    /// What to shed when the ring is full.
    pub shed: ShedPolicy,
    /// Socket read timeout — the reader thread's shutdown poll interval.
    pub read_timeout: Duration,
    /// How long [`UdpFlowSource::next_batch`] waits before reporting `Idle`.
    pub poll_timeout: Duration,
    /// Most flows delivered per `next_batch` call.
    pub max_batch: usize,
}

impl Default for UdpSourceConfig {
    fn default() -> UdpSourceConfig {
        UdpSourceConfig {
            bind: "127.0.0.1:0".to_string(),
            boot_unix_secs: crate::record::EPOCH_UNIX_SECS,
            ring_capacity: 65_536,
            shed: ShedPolicy::DropOldest,
            read_timeout: Duration::from_millis(50),
            poll_timeout: Duration::from_millis(50),
            max_batch: 4_096,
        }
    }
}

/// Shared state between the socket reader thread and the consumer.
#[derive(Debug)]
struct UdpShared {
    ring: FlowRing,
    telemetry: Mutex<ArchiveTelemetry>,
    decode_errors: AtomicU64,
    stop: AtomicBool,
}

/// A live V5 collector: binds a UDP socket, decodes datagrams with the
/// archive codec, runs the shared [`SequenceTracker`]
/// loss/reorder/duplicate accounting, and feeds the bounded ring.
#[derive(Debug)]
pub struct UdpFlowSource {
    shared: Arc<UdpShared>,
    local_addr: std::net::SocketAddr,
    reader: Option<std::thread::JoinHandle<()>>,
    poll_timeout: Duration,
    max_batch: usize,
}

impl UdpFlowSource {
    /// Bind the socket and start the reader thread.
    pub fn bind(config: UdpSourceConfig) -> io::Result<UdpFlowSource> {
        let socket = UdpSocket::bind(&config.bind)?;
        socket.set_read_timeout(Some(config.read_timeout))?;
        let local_addr = socket.local_addr()?;
        let shared = Arc::new(UdpShared {
            ring: FlowRing::new(config.ring_capacity, config.shed),
            telemetry: Mutex::new(ArchiveTelemetry::default()),
            decode_errors: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let reader = {
            let shared = Arc::clone(&shared);
            let boot = config.boot_unix_secs;
            std::thread::Builder::new()
                .name("udp-flow-source".to_string())
                .spawn(move || reader_loop(&socket, &shared, boot))?
        };
        Ok(UdpFlowSource {
            shared,
            local_addr,
            reader: Some(reader),
            poll_timeout: config.poll_timeout,
            max_batch: config.max_batch,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Datagrams that failed to decode (truncated or corrupt on the
    /// wire). Their flows surface later as sequence-gap loss.
    pub fn decode_errors(&self) -> u64 {
        self.shared.decode_errors.load(Ordering::Relaxed)
    }

    /// The ring's shed/depth accounting.
    pub fn ring_telemetry(&self) -> RingTelemetry {
        self.shared.ring.telemetry()
    }

    /// Wire-level accounting so far: loss, gaps, reorders and duplicates,
    /// booked the way an archive replay books them.
    pub fn telemetry(&self) -> ArchiveTelemetry {
        *self.shared.telemetry.lock().expect("udp telemetry")
    }

    /// Append up to one batch of queued flows to `out`, waiting at most
    /// the poll timeout for the first. `Idle` means "nothing yet, still
    /// live"; `Exhausted` means stopped and drained.
    pub fn next_batch(&mut self, out: &mut Vec<Flow>) -> BatchStatus {
        self.shared
            .ring
            .pop_batch(out, self.max_batch, self.poll_timeout)
    }

    /// Stop receiving: the socket reader exits and the ring closes, but
    /// queued flows stay poppable — [`UdpFlowSource::next_batch`] keeps
    /// delivering until it reports `Exhausted`, so a drain loses nothing.
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.reader.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for UdpFlowSource {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The socket reader: one datagram per `recv`, decoded, sequence-checked,
/// admitted flows pushed to the ring. Exits when `stop` is set, then
/// closes the ring so the consumer can drain what's queued.
fn reader_loop(socket: &UdpSocket, shared: &UdpShared, boot_unix_secs: u32) {
    let mut tracker = SequenceTracker::new(None);
    let mut buf = [0u8; 65_535];
    let mut batch: Vec<Flow> = Vec::with_capacity(crate::record::V5_MAX_RECORDS);
    while !shared.stop.load(Ordering::SeqCst) {
        let len = match socket.recv_from(&mut buf) {
            Ok((len, _)) => len,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        let (header, records) = match decode_datagram(&buf[..len]) {
            Ok(decoded) => decoded,
            Err(_) => {
                shared.decode_errors.fetch_add(1, Ordering::Relaxed);
                continue;
            }
        };
        let obs = tracker.observe(header.flow_sequence, records.len() as u32);
        batch.clear();
        batch.extend(
            records
                .iter()
                .enumerate()
                .filter(|(k, _)| obs.admit.admits(*k as u32))
                .map(|(_, r)| Flow::from_v5(r, boot_unix_secs)),
        );
        {
            let mut t = shared.telemetry.lock().expect("udp telemetry");
            t.apply(&obs);
            t.datagrams += 1;
            t.flows += batch.len() as u64;
        }
        shared.ring.push_batch(&batch);
    }
    shared.ring.close();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{encode_datagram, proto, tcp_flags, EPOCH_UNIX_SECS};
    use crate::session::Flow;
    use unclean_core::Ip;

    fn boot() -> u32 {
        EPOCH_UNIX_SECS
    }

    fn flow(day: u32, i: u32) -> Flow {
        Flow {
            src: Ip(0x0901_0000 + i),
            dst: Ip(0x1e00_0001),
            src_port: 40_000,
            dst_port: 445,
            proto: proto::TCP,
            packets: 1,
            octets: 40,
            flags: tcp_flags::SYN,
            start_secs: i64::from(day) * 86_400 + i64::from(i),
            duration_secs: 0,
        }
    }

    #[test]
    fn ring_sheds_oldest_with_counts() {
        let ring = FlowRing::new(4, ShedPolicy::DropOldest);
        let flows: Vec<Flow> = (0..6).map(|i| flow(0, i)).collect();
        let shed = ring.push_batch(&flows);
        assert_eq!(shed, 2);
        let mut out = Vec::new();
        ring.pop_batch(&mut out, 100, Duration::from_millis(1));
        // The oldest two were evicted; the newest four survive.
        assert_eq!(out, &flows[2..]);
        let t = ring.telemetry();
        assert_eq!(t.shed_oldest, 2);
        assert_eq!(t.shed_newest, 0);
        assert_eq!(t.pushed, 6);
        assert_eq!(t.popped, 4);
        assert_eq!(t.high_water, 4);
    }

    #[test]
    fn ring_sheds_newest_with_counts() {
        let ring = FlowRing::new(4, ShedPolicy::DropNewest);
        let flows: Vec<Flow> = (0..6).map(|i| flow(0, i)).collect();
        assert_eq!(ring.push_batch(&flows), 2);
        let mut out = Vec::new();
        ring.pop_batch(&mut out, 100, Duration::from_millis(1));
        // The arriving overflow was refused; the oldest four survive.
        assert_eq!(out, &flows[..4]);
        let t = ring.telemetry();
        assert_eq!(t.shed_newest, 2);
        assert_eq!(t.shed_oldest, 0);
    }

    #[test]
    fn closed_ring_drains_then_exhausts() {
        let ring = FlowRing::new(16, ShedPolicy::DropOldest);
        let flows: Vec<Flow> = (0..5).map(|i| flow(0, i)).collect();
        ring.push_batch(&flows);
        ring.close();
        // Pushes after close are refused (and counted).
        assert_eq!(ring.push_batch(&flows[..2]), 2);
        let mut out = Vec::new();
        assert_eq!(
            ring.pop_batch(&mut out, 3, Duration::from_millis(1)),
            BatchStatus::Delivered(3)
        );
        assert_eq!(
            ring.pop_batch(&mut out, 100, Duration::from_millis(1)),
            BatchStatus::Delivered(2)
        );
        assert_eq!(
            ring.pop_batch(&mut out, 100, Duration::from_millis(1)),
            BatchStatus::Exhausted
        );
        assert_eq!(out, flows);
    }

    /// Send `datagrams` (each a (first_seq, flows) pair) to `addr` from an
    /// ephemeral socket.
    fn send_datagrams(addr: std::net::SocketAddr, datagrams: &[(u32, Vec<Flow>)]) {
        let sock = UdpSocket::bind("127.0.0.1:0").expect("sender socket");
        for (seq, flows) in datagrams {
            let records: Vec<_> = flows.iter().map(|f| f.to_v5(boot())).collect();
            let header = crate::record::V5Header {
                count: records.len() as u16,
                sys_uptime_ms: 0,
                unix_secs: boot(),
                unix_nsecs: 0,
                flow_sequence: *seq,
                engine_type: 0,
                engine_id: 0,
                sampling_interval: 0,
            };
            let wire = encode_datagram(&header, &records);
            sock.send_to(&wire, addr).expect("send");
        }
    }

    /// Pump `next_batch` until `want` flows arrived or ~2s elapsed.
    fn pump(source: &mut UdpFlowSource, want: usize) -> Vec<Flow> {
        let mut out = Vec::new();
        for _ in 0..200 {
            source.next_batch(&mut out);
            if out.len() >= want {
                break;
            }
        }
        out
    }

    #[test]
    fn udp_source_delivers_and_accounts_duplicates() {
        let mut src = UdpFlowSource::bind(UdpSourceConfig {
            poll_timeout: Duration::from_millis(10),
            ..UdpSourceConfig::default()
        })
        .expect("bind");
        let addr = src.local_addr();
        let d0: Vec<Flow> = (0..30).map(|i| flow(0, i)).collect();
        let d1: Vec<Flow> = (30..60).map(|i| flow(0, i)).collect();
        // Send 0, 1, then 1 again (a duplicated export datagram).
        send_datagrams(addr, &[(0, d0.clone()), (30, d1.clone()), (30, d1.clone())]);
        let got = pump(&mut src, 60);
        assert_eq!(got.len(), 60, "duplicate withheld, originals delivered");
        assert_eq!(&got[..30], &d0[..]);
        assert_eq!(&got[30..], &d1[..]);
        // Allow the third datagram to be processed before reading counts.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while src.telemetry().datagrams < 3 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let t = src.telemetry();
        assert_eq!(t.datagrams, 3);
        assert_eq!(t.flows, 60);
        assert_eq!(t.duplicates, 30);
        assert_eq!(t.lost_flows, 0);
        src.stop();
    }

    #[test]
    fn udp_source_books_gaps_and_drains_on_stop() {
        let mut src = UdpFlowSource::bind(UdpSourceConfig {
            poll_timeout: Duration::from_millis(10),
            ..UdpSourceConfig::default()
        })
        .expect("bind");
        let addr = src.local_addr();
        let d0: Vec<Flow> = (0..30).map(|i| flow(0, i)).collect();
        let d2: Vec<Flow> = (60..90).map(|i| flow(0, i)).collect();
        // Datagram 1 (seq 30..60) never arrives: a gap.
        send_datagrams(addr, &[(0, d0.clone()), (60, d2.clone())]);
        // Wait for both datagrams to be ingested, then stop *without*
        // draining first: the queued flows must survive the stop.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while src.telemetry().datagrams < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        src.stop();
        let mut out = Vec::new();
        while src.next_batch(&mut out) != BatchStatus::Exhausted {}
        assert_eq!(out.len(), 60, "stop + drain loses zero queued flows");
        let t = src.telemetry();
        assert_eq!(t.lost_flows, 30);
        assert_eq!(t.sequence_gaps, 1);
        assert_eq!(src.ring_telemetry().shed(), 0);
    }

    #[test]
    fn undecodable_datagrams_are_counted_not_fatal() {
        let mut src = UdpFlowSource::bind(UdpSourceConfig {
            poll_timeout: Duration::from_millis(10),
            ..UdpSourceConfig::default()
        })
        .expect("bind");
        let addr = src.local_addr();
        let sock = UdpSocket::bind("127.0.0.1:0").expect("sender");
        sock.send_to(b"garbage", addr).expect("send");
        let d0: Vec<Flow> = (0..30).map(|i| flow(0, i)).collect();
        send_datagrams(addr, &[(0, d0.clone())]);
        let got = pump(&mut src, 30);
        assert_eq!(got, d0, "the good datagram still lands");
        assert_eq!(src.decode_errors(), 1);
        src.stop();
    }
}
