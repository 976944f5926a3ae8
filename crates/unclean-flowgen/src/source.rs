//! The live V5 collector `unclean ingest` runs. [`UdpFlowSource`] binds a
//! socket and starts one reader thread, which decodes each export
//! datagram with the [`crate::record`] codec, runs the shared
//! [`SequenceTracker`] loss/reorder/duplicate accounting, and queues the
//! admitted flows on a bounded ring of 65,536 flows that evicts its
//! oldest flow for each one past capacity.
//!
//! The collector keeps one set of books, the registry's `ingest.*`
//! counters: the reader adds to them as each datagram lands, and the ring
//! adds each eviction to `ingest.shed_oldest`, so backpressure never
//! turns into silent loss. `unclean ingest` pulls batches off the ring
//! into its WAL spool.

use crate::record::{decode_datagram, EPOCH_UNIX_SECS, V5_MAX_RECORDS};
use crate::seq::{SeqObservation, SequenceTracker};
use crate::session::Flow;
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use unclean_telemetry::{Counter, Registry};

/// Flows the ring holds before each new one evicts the oldest.
const RING_CAPACITY: usize = 65_536;
/// Socket read timeout: how often the reader thread checks for a stop.
const READ_TIMEOUT: Duration = Duration::from_millis(50);
/// How long [`UdpFlowSource::next_batch`] waits for a flow before it
/// reports `Idle`.
const POLL_TIMEOUT: Duration = Duration::from_millis(50);
/// Most flows one [`UdpFlowSource::next_batch`] call delivers.
const MAX_BATCH: usize = 4_096;

/// What one [`UdpFlowSource::next_batch`] call produced.
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

#[derive(Debug)]
struct RingInner {
    queue: VecDeque<Flow>,
    closed: bool,
}

/// The bounded flow queue between the reader thread (its only producer,
/// which closes it on exit) and the consumer.
#[derive(Debug)]
struct FlowRing {
    inner: Mutex<RingInner>,
    readable: Condvar,
    capacity: usize,
    shed_oldest: Counter,
}

impl FlowRing {
    /// A ring holding at most `capacity` flows; each eviction is added to
    /// `shed_oldest`.
    fn new(capacity: usize, shed_oldest: Counter) -> FlowRing {
        FlowRing {
            inner: Mutex::new(RingInner {
                queue: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            readable: Condvar::new(),
            capacity,
            shed_oldest,
        }
    }

    /// Queue `flows`, evicting the oldest queued flow for each one past
    /// capacity.
    fn push_batch(&self, flows: &[Flow]) {
        let mut inner = self.inner.lock().expect("flow ring");
        let mut shed = 0u64;
        for f in flows {
            if inner.queue.len() == self.capacity {
                inner.queue.pop_front();
                shed += 1;
            }
            inner.queue.push_back(*f);
        }
        drop(inner);
        if shed > 0 {
            self.shed_oldest.add(shed);
        }
        self.readable.notify_one();
    }

    /// Pop up to `max` flows into `out`, waiting up to `timeout` for the
    /// first. Returns `Delivered`/`Idle`, or `Exhausted` once the ring is
    /// closed *and* empty — a close never strands queued flows.
    fn pop_batch(&self, out: &mut Vec<Flow>, max: usize, timeout: Duration) -> BatchStatus {
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
        BatchStatus::Delivered(n)
    }

    /// Close the ring: queued flows stay poppable until drained.
    fn close(&self) {
        self.inner.lock().expect("flow ring").closed = true;
        self.readable.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Live UDP ingest
// ---------------------------------------------------------------------------

/// The collector's books: the registry's `ingest.*` counters the reader
/// thread adds to as each datagram lands.
struct Books {
    datagrams: Counter,
    flows: Counter,
    decode_errors: Counter,
    lost_flows: Counter,
    sequence_gaps: Counter,
    reordered: Counter,
    duplicates: Counter,
    recovered_flows: Counter,
}

impl Books {
    fn new(registry: &Registry) -> Books {
        let counter = |name: &str| registry.counter(&format!("ingest.{name}"));
        Books {
            datagrams: counter("datagrams"),
            flows: counter("flows"),
            decode_errors: counter("decode_errors"),
            lost_flows: counter("lost_flows"),
            sequence_gaps: counter("sequence_gaps"),
            reordered: counter("reordered"),
            duplicates: counter("duplicates"),
            recovered_flows: counter("recovered_flows"),
        }
    }

    /// Book one decoded datagram: its sequence observation and the flows
    /// it admitted.
    fn book(&self, obs: &SeqObservation, admitted: usize) {
        self.datagrams.inc();
        self.flows.add(admitted as u64);
        for (counter, n) in [
            (&self.lost_flows, obs.lost_flows),
            (&self.sequence_gaps, obs.sequence_gaps),
            (&self.reordered, obs.reordered),
            (&self.duplicates, obs.duplicates),
            (&self.recovered_flows, obs.recovered_flows),
        ] {
            if n > 0 {
                counter.add(n);
            }
        }
    }
}

/// Shared between the socket reader thread and the consumer.
#[derive(Debug)]
struct UdpShared {
    ring: FlowRing,
    stop: AtomicBool,
}

/// A live V5 collector: binds a UDP socket, decodes datagrams with the
/// archive codec, runs the shared [`SequenceTracker`]
/// loss/reorder/duplicate accounting, books each datagram onto the
/// registry's `ingest.*` counters, and feeds the bounded ring.
#[derive(Debug)]
pub struct UdpFlowSource {
    shared: Arc<UdpShared>,
    local_addr: SocketAddr,
    reader: Option<JoinHandle<()>>,
}

impl UdpFlowSource {
    /// Bind `addr` (port 0 for an ephemeral port) and start the reader
    /// thread, which books every datagram onto `registry`'s `ingest.*`
    /// counters: `datagrams`, `flows` (admitted), `decode_errors`,
    /// `lost_flows`, `sequence_gaps`, `reordered`, `duplicates`,
    /// `recovered_flows` and `shed_oldest`.
    pub fn bind(addr: &str, registry: &Registry) -> io::Result<UdpFlowSource> {
        let socket = UdpSocket::bind(addr)?;
        socket.set_read_timeout(Some(READ_TIMEOUT))?;
        let local_addr = socket.local_addr()?;
        let shared = Arc::new(UdpShared {
            ring: FlowRing::new(RING_CAPACITY, registry.counter("ingest.shed_oldest")),
            stop: AtomicBool::new(false),
        });
        let books = Books::new(registry);
        let reader = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("udp-flow-source".to_string())
                .spawn(move || reader_loop(&socket, &shared, &books))?
        };
        Ok(UdpFlowSource {
            shared,
            local_addr,
            reader: Some(reader),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Append up to one batch of queued flows to `out`, waiting briefly
    /// for the first. `Idle` means "nothing yet, still live"; `Exhausted`
    /// means stopped and drained.
    pub fn next_batch(&mut self, out: &mut Vec<Flow>) -> BatchStatus {
        self.shared.ring.pop_batch(out, MAX_BATCH, POLL_TIMEOUT)
    }

    /// Stop receiving: the socket reader exits and the ring closes, but
    /// queued flows stay poppable — [`UdpFlowSource::next_batch`] keeps
    /// delivering until it reports `Exhausted`, so a drain loses nothing.
    /// Calling it again does nothing.
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
/// booked, and its admitted flows queued. Exits when `stop` is set, then
/// closes the ring so the consumer can drain what's queued.
fn reader_loop(socket: &UdpSocket, shared: &UdpShared, books: &Books) {
    let mut tracker = SequenceTracker::new(None);
    let mut buf = [0u8; 65_535];
    let mut batch: Vec<Flow> = Vec::with_capacity(V5_MAX_RECORDS);
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
        let Ok((header, records)) = decode_datagram(&buf[..len]) else {
            books.decode_errors.inc();
            continue;
        };
        let obs = tracker.observe(header.flow_sequence, records.len() as u32);
        batch.clear();
        batch.extend(
            records
                .iter()
                .enumerate()
                .filter(|(k, _)| obs.admit.admits(*k as u32))
                .map(|(_, r)| Flow::from_v5(r, EPOCH_UNIX_SECS)),
        );
        books.book(&obs, batch.len());
        if !batch.is_empty() {
            shared.ring.push_batch(&batch);
        }
    }
    shared.ring.close();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{encode_datagram, proto, tcp_flags};
    use std::time::Instant;
    use unclean_core::Ip;

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

    /// The value of the collector's `ingest.{name}` counter.
    fn books(registry: &Registry, name: &str) -> u64 {
        registry.counter_value(&format!("ingest.{name}"))
    }

    /// Wait up to 2 s for the reader to have booked `datagrams` datagrams.
    fn await_datagrams(registry: &Registry, datagrams: u64) {
        let deadline = Instant::now() + Duration::from_secs(2);
        while books(registry, "datagrams") < datagrams && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn ring_sheds_oldest_with_counts() {
        let shed = Counter::standalone();
        let ring = FlowRing::new(4, shed.clone());
        let flows: Vec<Flow> = (0..6).map(|i| flow(0, i)).collect();
        ring.push_batch(&flows);
        let mut out = Vec::new();
        ring.pop_batch(&mut out, 100, Duration::from_millis(1));
        // The oldest two were evicted; the newest four survive.
        assert_eq!(out, &flows[2..]);
        assert_eq!(shed.get(), 2);
    }

    #[test]
    fn closed_ring_drains_then_exhausts() {
        let ring = FlowRing::new(16, Counter::standalone());
        let flows: Vec<Flow> = (0..5).map(|i| flow(0, i)).collect();
        ring.push_batch(&flows);
        ring.close();
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
    fn send_datagrams(addr: SocketAddr, datagrams: &[(u32, Vec<Flow>)]) {
        let sock = UdpSocket::bind("127.0.0.1:0").expect("sender socket");
        for (seq, flows) in datagrams {
            let records: Vec<_> = flows.iter().map(|f| f.to_v5(EPOCH_UNIX_SECS)).collect();
            let header = crate::record::V5Header {
                count: records.len() as u16,
                sys_uptime_ms: 0,
                unix_secs: EPOCH_UNIX_SECS,
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

    /// Pump `next_batch` until `want` flows arrived or ~10 s elapsed.
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
        let registry = Registry::full();
        let mut src = UdpFlowSource::bind("127.0.0.1:0", &registry).expect("bind");
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
        await_datagrams(&registry, 3);
        assert_eq!(books(&registry, "datagrams"), 3);
        assert_eq!(books(&registry, "flows"), 60);
        assert_eq!(books(&registry, "duplicates"), 30);
        assert_eq!(books(&registry, "lost_flows"), 0);
        src.stop();
    }

    #[test]
    fn udp_source_books_gaps_and_drains_on_stop() {
        let registry = Registry::full();
        let mut src = UdpFlowSource::bind("127.0.0.1:0", &registry).expect("bind");
        let addr = src.local_addr();
        let d0: Vec<Flow> = (0..30).map(|i| flow(0, i)).collect();
        let d2: Vec<Flow> = (60..90).map(|i| flow(0, i)).collect();
        // Datagram 1 (seq 30..60) never arrives: a gap.
        send_datagrams(addr, &[(0, d0.clone()), (60, d2.clone())]);
        // Wait for both datagrams to be ingested, then stop *without*
        // draining first: the queued flows must survive the stop.
        await_datagrams(&registry, 2);
        src.stop();
        let mut out = Vec::new();
        while src.next_batch(&mut out) != BatchStatus::Exhausted {}
        assert_eq!(out.len(), 60, "stop + drain loses zero queued flows");
        assert_eq!(books(&registry, "lost_flows"), 30);
        assert_eq!(books(&registry, "sequence_gaps"), 1);
        assert_eq!(books(&registry, "shed_oldest"), 0);
    }

    #[test]
    fn undecodable_datagrams_are_counted_not_fatal() {
        let registry = Registry::full();
        let mut src = UdpFlowSource::bind("127.0.0.1:0", &registry).expect("bind");
        let addr = src.local_addr();
        let sock = UdpSocket::bind("127.0.0.1:0").expect("sender");
        sock.send_to(b"garbage", addr).expect("send");
        let d0: Vec<Flow> = (0..30).map(|i| flow(0, i)).collect();
        send_datagrams(addr, &[(0, d0.clone())]);
        let got = pump(&mut src, 30);
        assert_eq!(got, d0, "the good datagram still lands");
        assert_eq!(books(&registry, "decode_errors"), 1);
        src.stop();
    }
}
