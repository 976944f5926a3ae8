//! The v1 flow archive reader, and the loss accounting both archive
//! formats share.
//!
//! A v1 archive is a flat run of V5 export datagrams (up to 30 records
//! each, with monotone sequence numbers), each framed by a 2-byte
//! big-endian length. [`ArchiveReader`] replays one, detecting sequence
//! gaps (lost export datagrams) the way a real collector does.
//!
//! Everything reads v2 ([`crate::indexed`]) at run time, and nothing
//! writes v1 any more. v1 is read only by [`crate::indexed::upgrade_v1`]
//! (`unclean archive index`); `tests/data/golden_v1.flows` pins the
//! format. The loss accounting, [`ArchiveTelemetry`], is shared by both
//! formats.

use crate::record::{decode_datagram, DecodeError};
use crate::seq::{SeqObservation, SequenceTracker};
use crate::session::Flow;
use serde::{Deserialize, Serialize};
use std::io::{self, Read};
use unclean_telemetry::Registry;

/// What an [`ArchiveReader`] observed: the loss accounting a collector
/// must surface rather than swallow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArchiveTelemetry {
    /// Datagrams decoded.
    pub datagrams: u64,
    /// Flow records delivered.
    pub flows: u64,
    /// Flows missing according to forward sequence-number gaps.
    pub lost_flows: u64,
    /// Forward gap events (distinct runs of loss, not flows).
    pub sequence_gaps: u64,
    /// Datagrams whose sequence number went *backwards* but still carried
    /// new data (late arrivals repaying a booked gap) — counted
    /// separately, never as loss.
    pub reordered: u64,
    /// Flows re-delivered by duplicated datagrams, detected by
    /// `first_seq`/`end_seq` overlap with already-ingested sequence space
    /// and *withheld* — counted here exactly once, never double-ingested.
    #[serde(default)]
    pub duplicates: u64,
    /// Flows that arrived late and repaid a run previously booked in
    /// `lost_flows`; net loss is `lost_flows - recovered_flows`.
    #[serde(default)]
    pub recovered_flows: u64,
}

impl ArchiveTelemetry {
    /// Fold another reader's accounting into this one — how a walk's
    /// per-segment cursors sum to one sequential pass's totals.
    pub fn accumulate(&mut self, other: &ArchiveTelemetry) {
        self.datagrams += other.datagrams;
        self.flows += other.flows;
        self.lost_flows += other.lost_flows;
        self.sequence_gaps += other.sequence_gaps;
        self.reordered += other.reordered;
        self.duplicates += other.duplicates;
        self.recovered_flows += other.recovered_flows;
    }

    /// Apply one datagram's [`SeqObservation`] deltas (`flows` excluded —
    /// the caller adds the admitted count once it knows it).
    pub(crate) fn apply(&mut self, obs: &SeqObservation) {
        self.lost_flows += obs.lost_flows;
        self.sequence_gaps += obs.sequence_gaps;
        self.reordered += obs.reordered;
        self.duplicates += obs.duplicates;
        self.recovered_flows += obs.recovered_flows;
    }

    /// Add this accounting onto `registry`'s `archive.*` counters, so
    /// v1 and v2 replays feed the manifest audit and Prometheus export
    /// identically.
    pub fn record(&self, registry: &Registry) {
        for (name, value) in [
            ("archive.datagrams", self.datagrams),
            ("archive.flows", self.flows),
            ("archive.lost_flows", self.lost_flows),
            ("archive.sequence_gaps", self.sequence_gaps),
            ("archive.reordered", self.reordered),
            ("archive.duplicates", self.duplicates),
            ("archive.recovered_flows", self.recovered_flows),
        ] {
            registry.counter(name).add(value);
        }
    }
}

/// Replays a framed archive, reporting flows and sequence gaps.
#[derive(Debug)]
pub struct ArchiveReader<R: Read> {
    input: R,
    /// The current frame, reused from frame to frame.
    frame: Vec<u8>,
    boot_unix_secs: u32,
    tracker: SequenceTracker,
    telemetry: ArchiveTelemetry,
}

/// Errors while reading an archive.
#[derive(Debug)]
pub enum ArchiveError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A framed datagram failed to decode.
    Decode(DecodeError),
}

impl std::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchiveError::Io(e) => write!(f, "archive I/O error: {e}"),
            ArchiveError::Decode(e) => write!(f, "archive decode error: {e}"),
        }
    }
}

impl std::error::Error for ArchiveError {}

impl<R: Read> ArchiveReader<R> {
    /// A reader over a framed archive written with the same boot anchor.
    pub fn new(input: R, boot_unix_secs: u32) -> ArchiveReader<R> {
        ArchiveReader {
            input,
            frame: Vec::new(),
            boot_unix_secs,
            tracker: SequenceTracker::new(None),
            telemetry: ArchiveTelemetry::default(),
        }
    }

    /// Loss and delivery accounting so far.
    pub fn telemetry(&self) -> ArchiveTelemetry {
        self.telemetry
    }

    /// Read the next datagram's admitted flows; `Ok(None)` at clean
    /// end-of-archive. A fully duplicated datagram yields an *empty*
    /// batch: it is consumed and counted, but no flow is re-delivered.
    pub fn next_datagram(&mut self) -> Result<Option<Vec<Flow>>, ArchiveError> {
        let mut len_buf = [0u8; 2];
        match self.input.read_exact(&mut len_buf) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(ArchiveError::Io(e)),
        }
        let len = u16::from_be_bytes(len_buf) as usize;
        // The buffer grows as the frame's bytes arrive, so a length past
        // the end of the input costs the bytes that are there, not the
        // claim.
        self.frame.clear();
        (&mut self.input)
            .take(len as u64)
            .read_to_end(&mut self.frame)
            .map_err(ArchiveError::Io)?;
        if self.frame.len() < len {
            return Err(ArchiveError::Io(io::ErrorKind::UnexpectedEof.into()));
        }
        let (header, records) = decode_datagram(&self.frame).map_err(ArchiveError::Decode)?;
        // A forward jump is loss; a *backward* jump is a late reordered
        // arrival (repaying a booked gap — delivered) or a duplicated
        // datagram (overlapping already-ingested sequence space —
        // withheld). The tracker splits the u32 circle at its midpoint,
        // the way RTP and NetFlow collectors disambiguate, and keeps the
        // outstanding-gap book that tells the two apart.
        let obs = self
            .tracker
            .observe(header.flow_sequence, records.len() as u32);
        self.telemetry.apply(&obs);
        self.telemetry.datagrams += 1;
        let flows: Vec<Flow> = records
            .iter()
            .enumerate()
            .filter(|(k, _)| obs.admit.admits(*k as u32))
            .map(|(_, r)| Flow::from_v5(r, self.boot_unix_secs))
            .collect();
        self.telemetry.flows += flows.len() as u64;
        Ok(Some(flows))
    }

    /// Drain the whole archive into a vector.
    pub fn read_all(&mut self) -> Result<Vec<Flow>, ArchiveError> {
        let mut out = Vec::new();
        while let Some(batch) = self.next_datagram()? {
            out.extend(batch);
        }
        Ok(out)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::record::{
        encode_datagram, proto, tcp_flags, V5Header, V5Record, EPOCH_UNIX_SECS, V5_HEADER_LEN,
        V5_MAX_RECORDS, V5_RECORD_LEN,
    };
    use unclean_core::Ip;

    /// `flows` as v1 bytes: runs of 30 as u16-framed V5 datagrams with
    /// contiguous sequence numbers.
    pub(crate) fn frame_v1(flows: &[Flow], boot: u32) -> Vec<u8> {
        let mut out = Vec::new();
        for (k, chunk) in flows.chunks(V5_MAX_RECORDS).enumerate() {
            let records: Vec<V5Record> = chunk.iter().map(|f| f.to_v5(boot)).collect();
            let header = V5Header {
                count: records.len() as u16,
                unix_secs: boot,
                flow_sequence: (k * V5_MAX_RECORDS) as u32,
                ..V5Header::default()
            };
            let wire = encode_datagram(&header, &records);
            out.extend((wire.len() as u16).to_be_bytes().into_iter().chain(wire));
        }
        out
    }

    fn boot() -> u32 {
        EPOCH_UNIX_SECS + 86_400 * 270
    }

    fn flow(i: u32) -> Flow {
        Flow {
            src: Ip(0x0901_0000 + i),
            dst: Ip(0x1e00_0001),
            src_port: (1024 + i % 60_000) as u16,
            dst_port: 80,
            proto: proto::TCP,
            packets: 3 + i % 5,
            octets: 200 + i,
            flags: tcp_flags::SYN | tcp_flags::ACK,
            start_secs: 86_400 * 273 + i as i64,
            duration_secs: i % 30,
        }
    }

    fn write_archive(n: u32) -> Vec<u8> {
        frame_v1(&(0..n).map(flow).collect::<Vec<_>>(), boot())
    }

    #[test]
    fn round_trip_exact() {
        let bytes = write_archive(95); // 3 full datagrams + 5 leftover
        let mut r = ArchiveReader::new(bytes.as_slice(), boot());
        let flows = r.read_all().expect("well-formed");
        assert_eq!(flows.len(), 95);
        for (i, f) in flows.iter().enumerate() {
            assert_eq!(*f, flow(i as u32));
        }
        let t = r.telemetry();
        assert_eq!(t.lost_flows, 0);
        assert_eq!(t.sequence_gaps, 0);
        assert_eq!(t.reordered, 0);
        assert_eq!(t.datagrams, 4, "3 full + 1 partial");
        assert_eq!(t.flows, 95);
    }

    #[test]
    fn datagram_packing() {
        // The checked-in v1 fixture: 201 flows packed 30 to a datagram
        // (6 full + 1 of 21), each framed by its big-endian u16 length.
        let golden = include_bytes!("../../../tests/data/golden_v1.flows");
        let first_len = u16::from_be_bytes([golden[0], golden[1]]) as usize;
        assert_eq!(first_len, V5_HEADER_LEN + 30 * V5_RECORD_LEN);
        assert_eq!(golden.len(), 7 * (2 + V5_HEADER_LEN) + 201 * V5_RECORD_LEN);
        let mut r = ArchiveReader::new(&golden[..], EPOCH_UNIX_SECS);
        assert_eq!(r.read_all().expect("well-formed").len(), 201);
        assert_eq!(r.telemetry().datagrams, 7);
    }

    #[test]
    fn empty_archive() {
        let mut r = ArchiveReader::new(&[][..], boot());
        assert!(r.read_all().expect("ok").is_empty());
        assert_eq!(r.telemetry(), ArchiveTelemetry::default());
    }

    #[test]
    fn sequence_gap_detection() {
        // Write two archives and splice out the middle datagram.
        let bytes = write_archive(90); // 3 datagrams of 30
        let dg_len = 2 + V5_HEADER_LEN + 30 * V5_RECORD_LEN;
        let mut spliced = Vec::new();
        spliced.extend_from_slice(&bytes[..dg_len]); // datagram 1
        spliced.extend_from_slice(&bytes[2 * dg_len..]); // datagram 3
        let mut r = ArchiveReader::new(spliced.as_slice(), boot());
        let flows = r.read_all().expect("well-formed");
        assert_eq!(flows.len(), 60);
        let t = r.telemetry();
        assert_eq!(t.lost_flows, 30, "the missing datagram's flows are counted");
        assert_eq!(t.sequence_gaps, 1, "one contiguous loss event");
        assert_eq!(t.reordered, 0);
    }

    #[test]
    fn reordered_datagram_is_not_booked_as_loss() {
        // Swap datagrams 2 and 3: a collector seeing 1,3,2 must report the
        // reorder — NOT ~4 billion "lost" flows from a wrapped subtraction.
        let bytes = write_archive(90); // 3 datagrams of 30
        let dg_len = 2 + V5_HEADER_LEN + 30 * V5_RECORD_LEN;
        let mut swapped = Vec::new();
        swapped.extend_from_slice(&bytes[..dg_len]); // datagram 1
        swapped.extend_from_slice(&bytes[2 * dg_len..]); // datagram 3
        swapped.extend_from_slice(&bytes[dg_len..2 * dg_len]); // datagram 2
        let mut r = ArchiveReader::new(swapped.as_slice(), boot());
        let flows = r.read_all().expect("well-formed");
        assert_eq!(flows.len(), 90, "every flow still delivered");
        let t = r.telemetry();
        assert_eq!(t.reordered, 1, "the late datagram is flagged");
        // The jump 1→3 looks like one gap; the late arrival repays it
        // (recovered) rather than adding wrapped loss on top.
        assert_eq!(t.sequence_gaps, 1);
        assert_eq!(t.lost_flows, 30);
        assert_eq!(t.recovered_flows, 30, "the gap was repaid in full");
        assert_eq!(t.duplicates, 0, "a reorder is not a duplicate");
        assert!(t.lost_flows < 100, "no wrapped u32 catastrophe");
    }

    #[test]
    fn duplicated_datagram_is_withheld_and_counted_once() {
        // Deliver 1,2,2,3: the re-sent datagram 2 overlaps sequence space
        // already ingested and must not double-deliver its flows.
        let bytes = write_archive(90); // 3 datagrams of 30
        let dg_len = 2 + V5_HEADER_LEN + 30 * V5_RECORD_LEN;
        let mut duped = Vec::new();
        duped.extend_from_slice(&bytes[..2 * dg_len]); // datagrams 1, 2
        duped.extend_from_slice(&bytes[dg_len..2 * dg_len]); // datagram 2 again
        duped.extend_from_slice(&bytes[2 * dg_len..]); // datagram 3
        let mut r = ArchiveReader::new(duped.as_slice(), boot());
        let flows = r.read_all().expect("well-formed");
        assert_eq!(flows.len(), 90, "each flow ingested exactly once");
        for (i, f) in flows.iter().enumerate() {
            assert_eq!(*f, flow(i as u32));
        }
        let t = r.telemetry();
        assert_eq!(t.duplicates, 30, "the re-sent datagram's flows, once");
        assert_eq!(t.reordered, 0, "a duplicate is not a reorder");
        assert_eq!(t.lost_flows, 0);
        assert_eq!(t.flows, 90, "flows counts deliveries, not arrivals");
        assert_eq!(t.datagrams, 4, "the duplicate frame was still read");
    }

    #[test]
    fn truncated_archive_errors() {
        let mut bytes = write_archive(30);
        bytes.truncate(bytes.len() - 7);
        let mut r = ArchiveReader::new(bytes.as_slice(), boot());
        assert!(matches!(r.read_all(), Err(ArchiveError::Io(_))));
    }

    #[test]
    fn corrupt_frame_errors() {
        let mut bytes = write_archive(30);
        bytes[3] = 99; // version byte inside the first datagram
        let mut r = ArchiveReader::new(bytes.as_slice(), boot());
        match r.read_all() {
            Err(ArchiveError::Decode(DecodeError::BadVersion(_))) => {}
            other => panic!("expected decode error, got {other:?}"),
        }
    }

    #[test]
    fn registry_and_struct_report_the_same_numbers() {
        use unclean_telemetry::TelemetryLevel;
        // Splice out the middle datagram so loss counters are nonzero.
        let bytes = write_archive(90);
        let dg_len = 2 + V5_HEADER_LEN + 30 * V5_RECORD_LEN;
        let mut spliced = Vec::new();
        spliced.extend_from_slice(&bytes[..dg_len]);
        spliced.extend_from_slice(&bytes[2 * dg_len..]);
        let mut r = ArchiveReader::new(spliced.as_slice(), boot());
        r.read_all().expect("well-formed");
        let t = r.telemetry();
        let registry = Registry::new(TelemetryLevel::Summary);
        t.record(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["archive.datagrams"], t.datagrams);
        assert_eq!(snap.counters["archive.flows"], t.flows);
        assert_eq!(snap.counters["archive.lost_flows"], t.lost_flows);
        assert_eq!(snap.counters["archive.sequence_gaps"], t.sequence_gaps);
        assert_eq!(snap.counters["archive.reordered"], t.reordered);
        assert_eq!(snap.counters["archive.duplicates"], t.duplicates);
        assert_eq!(snap.counters["archive.recovered_flows"], t.recovered_flows);
        assert_eq!(t.lost_flows, 30);
        assert_eq!(t.sequence_gaps, 1);
    }

    #[test]
    fn error_display() {
        let e = ArchiveError::Decode(DecodeError::BadCount(0));
        assert!(e.to_string().contains("decode"));
        let e = ArchiveError::Io(io::Error::other("x"));
        assert!(e.to_string().contains("I/O"));
    }
}
