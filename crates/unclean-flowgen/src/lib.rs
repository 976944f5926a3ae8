//! # unclean-flowgen
//!
//! The NetFlow substrate for the uncleanliness reproduction.
//!
//! The paper's §6 analysis runs over Cisco NetFlow V5 logs of a large edge
//! network. This crate supplies the equivalent synthetic pipeline:
//!
//! * [`record`] — the actual NetFlow V5 wire format (24-byte header +
//!   48-byte records, big-endian), encodable and decodable;
//! * [`session`] — the in-pipeline [`session::Flow`] type with the
//!   paper's payload-bearing test (TCP, ≥36 estimated payload bytes,
//!   ≥1 ACK — including the TCP-options pitfall the paper documents);
//! * [`generator`] — deterministic expansion of netmodel activity events
//!   into border flows (benign sessions, SYN sweeps, slow scans,
//!   ephemeral probes, SMTP bursts);
//! * [`collector`] — streaming per-source aggregation: candidate evidence
//!   for the §6 partition;
//! * [`faults`] — the one seeded export fault model: [`FaultInjector`]
//!   decides burst, drop, truncation, corruption or delivery, and
//!   duplication, per flow (proving the analyses degrade gracefully
//!   under real telemetry loss) or per datagram (`unclean replay`'s
//!   wire);
//! * [`indexed`] — archive format v2, the one run-time format: the
//!   segment encoder (per-day CRC'd segments of varint delta-compressed
//!   datagrams), the [`SegmentInfo`] entry codec, the footer index,
//!   zero-copy segment cursors, and the one segment walk
//!   ([`SegmentSource::walk`]), strict or quarantining damaged segments;
//! * [`spool`] — the durable WAL spooler: the same segment encoder, with
//!   one `index.wal` record (a footer entry plus a length and a CRC) per
//!   sealed segment instead of a footer; [`WalSegments`], the
//!   file-backed [`SegmentSource`], reads its sealed segments in place
//!   from `segments.dat`, and an archive file opened by path;
//! * [`archive`] — the reader of the legacy v1 format (u16-framed V5
//!   datagrams), used only by [`indexed::upgrade_v1`], and the
//!   [`ArchiveTelemetry`] loss accounting both formats share;
//! * [`source`] — the live UDP collector: one reader thread books each
//!   datagram onto the registry's `ingest.*` counters and queues its flows
//!   on a fixed drop-oldest ring.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
pub mod collector;
pub mod faults;
pub mod generator;
pub mod indexed;
pub mod record;
pub mod seq;
pub mod session;
pub mod source;
pub mod spool;

pub use archive::{ArchiveError, ArchiveReader, ArchiveTelemetry};
pub use collector::{CandidateCollector, SrcEvidence};
pub use faults::{Fault, FaultConfig, FaultInjector, FaultStats};
pub use generator::{FlowGenerator, GeneratorConfig};
pub use indexed::{
    ArchiveIndex, FlowView, IndexedArchive, IndexedArchiveWriter, IndexedError, QuarantinedSegment,
    SegmentCursor, SegmentInfo, SegmentSource, Walk,
};
pub use record::{
    decode_datagram, encode_datagram, DecodeError, V5Header, V5Record, V5_HEADER_LEN,
    V5_MAX_RECORDS, V5_RECORD_LEN,
};
pub use seq::{Admit, SeqObservation, SequenceTracker};
pub use session::Flow;
pub use source::{BatchStatus, UdpFlowSource};
pub use spool::{RecoveryReport, SpoolError, WalCheckpoint, WalSegments, WalSpool};
