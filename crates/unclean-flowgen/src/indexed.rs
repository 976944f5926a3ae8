//! Archive format v2: per-day indexed segments with zero-copy replay.
//!
//! The v1 spool (`archive`) is a flat run of u16-framed V5 datagrams: the
//! only way to answer "what happened on day 17" is to decode everything
//! before it, one `Vec<V5Record>` per datagram. The §6 replay — two weeks
//! of border flow at >20M-address scale — is the largest serial cost left
//! in the pipeline, so v2 restructures the spool into independently
//! checked, seekable day segments:
//!
//! ```text
//! v1:  [u16 len][V5 datagram] [u16 len][V5 datagram] ...                 EOF
//!
//! v2:  ├── segment (day d0) ──┤├── segment (day d1) ──┤
//!      [uv len][v2 datagram]...[uv len][v2 datagram]...[footer][trailer] EOF
//!       footer  = boot, count, per-segment entry {day, offset, len,
//!                 datagrams, flows, first_seq, end_seq, crc32}
//!       trailer = [footer_len u32-le][version 2][magic "UNCLARC"]
//! ```
//!
//! * **One encoder, two index containers.** Every v2 segment — here and in
//!   the WAL spooler ([`crate::spool`]) — is written by one crate-private
//!   segment encoder. [`IndexedArchiveWriter`] is that encoder plus the
//!   footer at `finish`; the WAL is that encoder plus one `index.wal`
//!   record per sealed segment. Both containers carry the same
//!   [`SegmentInfo`] encoding (a WAL record adds a length and a CRC).
//! * **Segments** break on day boundaries, so a consumer seeks straight to
//!   the days it needs, and the live rescore's day sweep hands whole-day
//!   runs of segments to its workers.
//! * **v2 datagrams** are varint delta-encoded ([`encode_datagram_v2`]):
//!   IPs and timestamps of consecutive records compress to their deltas,
//!   and the varint frame removes the v1 u16 ceiling.
//! * **One segment walk.** [`ArchiveIndex::select`] yields the
//!   `(segment, entry_sequence)` pairs of a scan, and
//!   [`SegmentSource::walk`] reads each one through one reused buffer,
//!   opens a CRC-checked [`SegmentCursor`] over it
//!   ([`SegmentSource::segment_cursor`]), hands the cursor to the caller
//!   and sums the telemetry of every good segment. There are two sources:
//!   [`IndexedArchive`] lends the segments of an image in place, and
//!   [`crate::WalSegments`] reads them from a file — a WAL spool's
//!   `segments.dat`, or an archive file opened by path. The live rescore,
//!   `unclean replay --archive`, `unclean forecast` and `unclean
//!   inspect` all read segments this way.
//! * **Decoding is zero-copy**: [`SegmentCursor`] walks a borrowed
//!   segment buffer and [`FlowView`] yields `Flow`s straight off the
//!   wire — no `Vec<V5Record>` per datagram, no per-flow allocation.
//! * **Per-segment CRCs** make corruption local: a lenient walk
//!   quarantines a bad segment and every other segment still lands,
//!   where a corrupt v1 frame poisons the rest of the spool.
//! * v1 is read only by [`upgrade_v1`] (`unclean archive index`); every
//!   v2 reader refuses a file without the trailer with
//!   [`IndexedError::NotIndexed`].

use crate::archive::{ArchiveError, ArchiveReader, ArchiveTelemetry};
use crate::record::{
    decode_header_v2, encode_datagram_v2, get_uvarint, put_uvarint, unzigzag32, zigzag32,
    DecodeError, V2RecordCursor, V5Header, V5Record, EPOCH_UNIX_SECS, V5_HORIZON_SECS,
    V5_MAX_RECORDS,
};
use crate::seq::{Admit, SequenceTracker};
use crate::session::Flow;
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Seek, SeekFrom, Write};
use unclean_core::snap::{crc32, Crc32};
use unclean_core::{DateRange, Day};

/// Trailing magic identifying an indexed archive.
pub const ARCHIVE_MAGIC: &[u8; 7] = b"UNCLARC";
/// Archive format version this module writes.
pub const ARCHIVE_VERSION: u8 = 2;
/// Fixed trailer size: footer length (4) + version (1) + magic (7).
pub const TRAILER_LEN: usize = 12;

/// One index entry: where a day's run of datagrams lives and what it
/// should contain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentInfo {
    /// Day every flow in the segment started on.
    pub day: Day,
    /// Byte offset of the segment's first frame.
    pub offset: u64,
    /// Segment length in bytes.
    pub len: u64,
    /// Datagrams in the segment.
    pub datagrams: u64,
    /// Flow records in the segment.
    pub flows: u64,
    /// Flow sequence number of the segment's first datagram.
    pub first_seq: u32,
    /// Sequence number immediately after the segment's last record — the
    /// next segment's expected entry sequence, so per-segment readers
    /// reproduce the sequential gap accounting exactly.
    pub end_seq: u32,
    /// CRC-32 of the segment bytes.
    pub crc: u32,
}

impl SegmentInfo {
    /// Fewest bytes an encoded entry takes: seven one-byte varints and the
    /// 4-byte CRC. Bounds how many entries a claimed count can be.
    const MIN_ENCODED_LEN: usize = 11;

    /// Append the entry's encoding — footer entries and `index.wal`
    /// records alike: seven varints, then the segment CRC.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_uvarint(out, zigzag32(self.day.0));
        put_uvarint(out, self.offset);
        put_uvarint(out, self.len);
        put_uvarint(out, self.datagrams);
        put_uvarint(out, self.flows);
        put_uvarint(out, u64::from(self.first_seq));
        put_uvarint(out, u64::from(self.end_seq));
        out.extend_from_slice(&self.crc.to_le_bytes());
    }

    /// Decode one entry at `*pos`, advancing past it.
    pub(crate) fn decode(bytes: &[u8], pos: &mut usize) -> Result<SegmentInfo, DecodeError> {
        Ok(SegmentInfo {
            day: Day(unzigzag32(get_uvarint(bytes, pos)?)?),
            offset: get_uvarint(bytes, pos)?,
            len: get_uvarint(bytes, pos)?,
            datagrams: get_uvarint(bytes, pos)?,
            flows: get_uvarint(bytes, pos)?,
            first_seq: get_u32(bytes, pos)?,
            end_seq: get_u32(bytes, pos)?,
            crc: get_u32_le(bytes, pos)?,
        })
    }
}

/// A varint that must fit 32 bits.
fn get_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, DecodeError> {
    u32::try_from(get_uvarint(bytes, pos)?).map_err(|_| DecodeError::BadVarint)
}

/// A little-endian u32 at `*pos` (CRCs), advancing past it.
pub(crate) fn get_u32_le(bytes: &[u8], pos: &mut usize) -> Result<u32, DecodeError> {
    let b = bytes
        .get(*pos..pos.saturating_add(4))
        .ok_or(DecodeError::Truncated {
            needed: pos.saturating_add(4),
            got: bytes.len(),
        })?;
    *pos += 4;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// Errors from the indexed archive layer.
#[derive(Debug)]
pub enum IndexedError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A frame or footer field failed to decode.
    Decode(DecodeError),
    /// Structural damage (bad offsets, overrunning frames, short footer).
    Corrupt(String),
    /// A segment's bytes do not match the indexed checksum.
    CrcMismatch {
        /// Segment index in the footer.
        segment: usize,
        /// Checksum the footer recorded.
        expected: u32,
        /// Checksum of the bytes actually present.
        actual: u32,
    },
    /// The trailer magic matched but the version is unknown.
    UnsupportedVersion(u8),
    /// No v2 trailer: a v1 archive (upgrade it with [`upgrade_v1`]) or
    /// not an archive at all.
    NotIndexed,
}

impl std::fmt::Display for IndexedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexedError::Io(e) => write!(f, "indexed archive I/O error: {e}"),
            IndexedError::Decode(e) => write!(f, "indexed archive decode error: {e}"),
            IndexedError::Corrupt(detail) => write!(f, "corrupt indexed archive: {detail}"),
            IndexedError::CrcMismatch {
                segment,
                expected,
                actual,
            } => write!(
                f,
                "segment {segment} CRC mismatch: footer says {expected:#010x}, bytes hash to {actual:#010x}"
            ),
            IndexedError::UnsupportedVersion(v) => {
                write!(f, "unsupported indexed archive version {v}")
            }
            IndexedError::NotIndexed => write!(
                f,
                "not a v2 indexed flow archive (upgrade a v1 archive with `unclean archive index`)"
            ),
        }
    }
}

impl std::error::Error for IndexedError {}

impl From<io::Error> for IndexedError {
    fn from(e: io::Error) -> IndexedError {
        IndexedError::Io(e)
    }
}

impl From<DecodeError> for IndexedError {
    fn from(e: DecodeError) -> IndexedError {
        IndexedError::Decode(e)
    }
}

/// The parsed footer of a v2 archive.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArchiveIndex {
    /// Exporter boot anchor all segments were encoded against.
    pub boot_unix_secs: u32,
    /// Per-segment entries in file (= day) order.
    pub segments: Vec<SegmentInfo>,
}

impl ArchiveIndex {
    /// Parse the footer out of a complete archive image.
    pub fn parse(data: &[u8]) -> Result<ArchiveIndex, IndexedError> {
        read_index(&mut io::Cursor::new(data))
    }

    /// Total flows recorded across all segments.
    pub fn total_flows(&self) -> u64 {
        self.segments.iter().map(|s| s.flows).sum()
    }

    /// Total datagrams recorded across all segments.
    pub fn total_datagrams(&self) -> u64 {
        self.segments.iter().map(|s| s.datagrams).sum()
    }

    /// The largest segment length — the buffer high-water mark a
    /// one-segment-at-a-time reader needs.
    pub fn max_segment_len(&self) -> u64 {
        self.segments.iter().map(|s| s.len).max().unwrap_or(0)
    }

    /// The segments whose day falls in `range` (all when `None`), in file
    /// order, each with its entry sequence: the previous segment's
    /// `end_seq` when that segment is part of the same scan, `None` when
    /// the scan starts here — so a mid-archive scan never books the
    /// skipped prefix as loss, and a contiguous one reproduces the
    /// sequential gap accounting exactly.
    pub fn select(&self, range: Option<DateRange>) -> Vec<(usize, Option<u32>)> {
        let mut prev: Option<&SegmentInfo> = None;
        let mut selected = Vec::new();
        for (i, s) in self.segments.iter().enumerate() {
            let wanted = range.is_none_or(|r| r.contains(s.day));
            if wanted {
                selected.push((i, prev.map(|p| p.end_seq)));
            }
            prev = wanted.then_some(s);
        }
        selected
    }

    /// Append this index's footer and trailer: behind a segment data
    /// region that the entries tile exactly from 0, the result is a
    /// complete v2 archive.
    pub(crate) fn encode_tail(&self, out: &mut Vec<u8>) {
        let start = out.len();
        put_uvarint(out, u64::from(self.boot_unix_secs));
        put_uvarint(out, self.segments.len() as u64);
        for s in &self.segments {
            s.encode(out);
        }
        let footer_len = (out.len() - start) as u32;
        out.extend_from_slice(&footer_len.to_le_bytes());
        out.push(ARCHIVE_VERSION);
        out.extend_from_slice(ARCHIVE_MAGIC);
    }
}

/// Read the index of a seekable v2 archive: check the trailer's magic and
/// version, then parse the footer it points at.
pub(crate) fn read_index<R: Read + Seek>(inner: &mut R) -> Result<ArchiveIndex, IndexedError> {
    let len = inner.seek(SeekFrom::End(0))?;
    let trailer_at = len
        .checked_sub(TRAILER_LEN as u64)
        .ok_or(IndexedError::NotIndexed)?;
    inner.seek(SeekFrom::Start(trailer_at))?;
    let mut trailer = [0u8; TRAILER_LEN];
    inner.read_exact(&mut trailer)?;
    if &trailer[5..] != ARCHIVE_MAGIC {
        return Err(IndexedError::NotIndexed);
    }
    if trailer[4] != ARCHIVE_VERSION {
        return Err(IndexedError::UnsupportedVersion(trailer[4]));
    }
    let footer_len = u64::from(u32::from_le_bytes([
        trailer[0], trailer[1], trailer[2], trailer[3],
    ]));
    let data_end = trailer_at.checked_sub(footer_len).ok_or_else(|| {
        IndexedError::Corrupt(format!(
            "footer of {footer_len} bytes larger than the {len}-byte file"
        ))
    })?;
    inner.seek(SeekFrom::Start(data_end))?;
    let mut footer = vec![0u8; footer_len as usize];
    inner.read_exact(&mut footer)?;
    parse_footer(&footer, data_end)
}

/// Parse footer bytes; `data_end` is where segment data stops (= the
/// footer's file offset), used to validate that the index tiles the data
/// region exactly.
fn parse_footer(footer: &[u8], data_end: u64) -> Result<ArchiveIndex, IndexedError> {
    let mut pos = 0;
    let boot_unix_secs = get_u32(footer, &mut pos)?;
    let count = get_uvarint(footer, &mut pos)?;
    let room = footer.len() - pos;
    if count > (room / SegmentInfo::MIN_ENCODED_LEN) as u64 {
        // A count the footer cannot hold is garbage, not a huge
        // allocation request.
        return Err(IndexedError::Corrupt(format!(
            "footer claims {count} segments in {room} bytes of entries"
        )));
    }
    let mut segments = Vec::with_capacity(count as usize);
    let mut expected_offset = 0u64;
    for i in 0..count {
        let s = SegmentInfo::decode(footer, &mut pos)?;
        if s.offset != expected_offset {
            return Err(IndexedError::Corrupt(format!(
                "segment {i} starts at {}, expected {expected_offset}",
                s.offset
            )));
        }
        expected_offset = s.offset.checked_add(s.len).ok_or_else(|| {
            IndexedError::Corrupt(format!("segment {i} length overflows the file"))
        })?;
        if expected_offset > data_end {
            return Err(IndexedError::Corrupt(format!(
                "segment {i} runs to {expected_offset}, past the footer at {data_end}"
            )));
        }
        segments.push(s);
    }
    if pos != footer.len() {
        return Err(IndexedError::Corrupt(format!(
            "{} trailing footer bytes",
            footer.len() - pos
        )));
    }
    if expected_offset != data_end {
        return Err(IndexedError::Corrupt(format!(
            "segments cover {expected_offset} bytes but data runs to {data_end}"
        )));
    }
    Ok(ArchiveIndex {
        boot_unix_secs,
        segments,
    })
}

/// In-progress state of the segment being written.
#[derive(Debug)]
struct OpenSegment {
    day: Day,
    start: u64,
    datagrams: u64,
    flows: u64,
    first_seq: u32,
    crc: Crc32,
}

/// The one v2 segment encoder, behind both [`IndexedArchiveWriter`] and
/// the WAL spooler: packs flows into varint-framed datagrams of up to 30
/// records and tracks the open segment's index entry. Sequence, offset
/// and CRC advance only once `out` has accepted a whole frame, so a
/// failed write leaves the records queued and the entry describing only
/// bytes that landed.
#[derive(Debug)]
pub(crate) struct SegmentEncoder<W> {
    out: W,
    boot_unix_secs: u32,
    pending: Vec<V5Record>,
    sequence: u32,
    offset: u64,
    body: Vec<u8>,
    frame: Vec<u8>,
    open: Option<OpenSegment>,
}

impl<W: Write> SegmentEncoder<W> {
    /// An encoder appending to `out`, whose next byte lands at `offset`,
    /// numbering flows from `sequence`.
    pub(crate) fn new(out: W, boot_unix_secs: u32, sequence: u32, offset: u64) -> Self {
        SegmentEncoder {
            out,
            boot_unix_secs,
            pending: Vec::with_capacity(V5_MAX_RECORDS),
            sequence,
            offset,
            body: Vec::new(),
            frame: Vec::new(),
            open: None,
        }
    }

    /// Refuse a flow the V5 encoding would carry to another day: one that
    /// starts before the boot anchor (its uptime clamps to 0) or past
    /// [`V5_HORIZON_SECS`] after it (its uptime wraps). Callers check
    /// before anything else, so a refused flow changes nothing.
    pub(crate) fn check_horizon(&self, flow: &Flow) -> io::Result<()> {
        let since_boot = flow
            .start_secs
            .saturating_add(i64::from(EPOCH_UNIX_SECS) - i64::from(self.boot_unix_secs));
        if (0..=V5_HORIZON_SECS).contains(&since_boot) {
            return Ok(());
        }
        Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "a flow on {} starts {since_boot} s from the exporter boot anchor, outside \
                 the V5 uptime horizon (0..={V5_HORIZON_SECS} s)",
                flow.day()
            ),
        ))
    }

    /// Whether `flow` starts on another day than the open segment: the
    /// caller closes the segment before pushing it.
    pub(crate) fn ends_segment(&self, flow: &Flow) -> bool {
        self.open.as_ref().is_some_and(|s| s.day != flow.day())
    }

    /// Queue one flow, opening a segment on its day if none is open; a
    /// 30th queued record flushes a datagram.
    pub(crate) fn push(&mut self, flow: &Flow) -> io::Result<()> {
        if self.open.is_none() {
            self.open = Some(OpenSegment {
                day: flow.day(),
                start: self.offset,
                datagrams: 0,
                flows: 0,
                first_seq: self.sequence,
                crc: Crc32::new(),
            });
        }
        self.pending.push(flow.to_v5(self.boot_unix_secs));
        if self.pending.len() == V5_MAX_RECORDS {
            self.flush_datagram()?;
        }
        Ok(())
    }

    /// Write the queued records as one frame of the open segment.
    pub(crate) fn flush_datagram(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let header = V5Header {
            count: self.pending.len() as u16,
            sys_uptime_ms: 0,
            unix_secs: self.boot_unix_secs,
            unix_nsecs: 0,
            flow_sequence: self.sequence,
            engine_type: 0,
            engine_id: 0,
            sampling_interval: 0,
        };
        self.body.clear();
        encode_datagram_v2(&header, &self.pending, &mut self.body);
        self.frame.clear();
        put_uvarint(&mut self.frame, self.body.len() as u64);
        self.frame.extend_from_slice(&self.body);
        self.out.write_all(&self.frame)?;
        let open = self
            .open
            .as_mut()
            .expect("pending records imply an open segment");
        open.crc.update(&self.frame);
        open.datagrams += 1;
        open.flows += self.pending.len() as u64;
        self.offset += self.frame.len() as u64;
        self.sequence = self.sequence.wrapping_add(self.pending.len() as u32);
        self.pending.clear();
        Ok(())
    }

    /// Flush, then close the open segment and return its entry (`None`
    /// when no segment holds flows).
    pub(crate) fn close(&mut self) -> io::Result<Option<SegmentInfo>> {
        self.flush_datagram()?;
        Ok(self
            .open
            .take()
            .filter(|o| o.flows > 0)
            .map(|o| SegmentInfo {
                day: o.day,
                offset: o.start,
                len: self.offset - o.start,
                datagrams: o.datagrams,
                flows: o.flows,
                first_seq: o.first_seq,
                end_seq: self.sequence,
                crc: o.crc.finish(),
            }))
    }

    /// The sequence number the next pushed flow will carry.
    pub(crate) fn next_seq(&self) -> u32 {
        self.sequence.wrapping_add(self.pending.len() as u32)
    }

    /// Flows pushed since the last close.
    pub(crate) fn open_flows(&self) -> u64 {
        self.open.as_ref().map_or(0, |o| o.flows) + self.pending.len() as u64
    }

    /// The exporter boot anchor flows are encoded against.
    pub(crate) fn boot_unix_secs(&self) -> u32 {
        self.boot_unix_secs
    }

    /// The sink.
    pub(crate) fn get_mut(&mut self) -> &mut W {
        &mut self.out
    }
}

/// Writes flows into a v2 indexed archive: the segment encoder, plus the
/// footer index and trailer at [`IndexedArchiveWriter::finish`].
#[derive(Debug)]
pub struct IndexedArchiveWriter<W: Write> {
    enc: SegmentEncoder<W>,
    segments: Vec<SegmentInfo>,
}

impl<W: Write> IndexedArchiveWriter<W> {
    /// A writer exporting against the given boot anchor (the V5 uptime
    /// fields set the lossless round-trip horizon: [`Self::push`] refuses
    /// a flow that starts before it or more than [`V5_HORIZON_SECS`]
    /// after it).
    pub fn new(out: W, boot_unix_secs: u32) -> IndexedArchiveWriter<W> {
        IndexedArchiveWriter {
            enc: SegmentEncoder::new(out, boot_unix_secs, 0, 0),
            segments: Vec::new(),
        }
    }

    /// Queue one flow. A day change closes the current segment; 30 queued
    /// records flush a datagram. A flow past the V5 uptime horizon is
    /// refused (`InvalidInput`, naming its day) and leaves the writer as
    /// it was.
    pub fn push(&mut self, flow: &Flow) -> io::Result<()> {
        self.enc.check_horizon(flow)?;
        if self.enc.ends_segment(flow) {
            self.segments.extend(self.enc.close()?);
        }
        self.enc.push(flow)
    }

    /// Finish: close the last segment, write footer + trailer, and return
    /// the inner writer with the index that was persisted.
    pub fn finish(mut self) -> io::Result<(W, ArchiveIndex)> {
        self.segments.extend(self.enc.close()?);
        let index = ArchiveIndex {
            boot_unix_secs: self.enc.boot_unix_secs(),
            segments: self.segments,
        };
        let mut tail = Vec::new();
        index.encode_tail(&mut tail);
        let mut out = self.enc.out;
        out.write_all(&tail)?;
        out.flush()?;
        Ok((out, index))
    }
}

/// Zero-copy iterator over the flows of one decoded datagram. Borrows the
/// segment buffer; every [`Flow`] comes straight off the delta-decoded
/// wire with no intermediate `Vec<V5Record>`.
#[derive(Debug)]
pub struct FlowView<'a> {
    header: V5Header,
    records: V2RecordCursor<'a>,
    boot_unix_secs: u32,
    admit: Admit,
    next_index: u32,
}

impl FlowView<'_> {
    /// The datagram's export header.
    pub fn header(&self) -> &V5Header {
        &self.header
    }

    /// Decode the next *admitted* flow; `Ok(None)` when the datagram is
    /// drained. Records withheld as duplicates are decoded past, never
    /// yielded.
    #[inline]
    pub fn try_next(&mut self) -> Result<Option<Flow>, IndexedError> {
        while let Some(r) = self.records.next_record()? {
            let k = self.next_index;
            self.next_index += 1;
            if self.admit.admits(k) {
                return Ok(Some(Flow::from_v5(&r, self.boot_unix_secs)));
            }
        }
        Ok(None)
    }
}

impl Iterator for FlowView<'_> {
    type Item = Result<Flow, IndexedError>;

    fn next(&mut self) -> Option<Result<Flow, IndexedError>> {
        self.try_next().transpose()
    }
}

/// Streaming decoder over one segment's bytes, with the same
/// sequence-gap/reorder accounting as the v1 [`ArchiveReader`] — kept in
/// a plain [`ArchiveTelemetry`] so per-segment cursors sum without shared
/// counters. Opened, CRC-checked, by [`SegmentSource::segment_cursor`].
#[derive(Debug)]
pub struct SegmentCursor<'a> {
    data: &'a [u8],
    pos: usize,
    boot_unix_secs: u32,
    tracker: SequenceTracker,
    telemetry: ArchiveTelemetry,
}

impl<'a> SegmentCursor<'a> {
    /// Loss and delivery accounting so far.
    pub fn telemetry(&self) -> ArchiveTelemetry {
        self.telemetry
    }

    /// Decode the next datagram's frame; `Ok(None)` at the segment end.
    pub fn next_datagram(&mut self) -> Result<Option<FlowView<'a>>, IndexedError> {
        if self.pos == self.data.len() {
            return Ok(None);
        }
        let frame_len = get_uvarint(self.data, &mut self.pos)? as usize;
        let end = self
            .pos
            .checked_add(frame_len)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| {
                IndexedError::Corrupt(format!("frame of {frame_len} bytes overruns the segment"))
            })?;
        let body = &self.data[self.pos..end];
        self.pos = end;
        let mut bpos = 0;
        let header = decode_header_v2(body, &mut bpos)?;
        // Same circle-splitting gap/reorder/duplicate disambiguation as
        // the v1 reader: forward jumps are loss, backward jumps are
        // classified against the outstanding-gap book — late arrivals
        // deliver (recovered), re-deliveries are withheld (duplicates).
        let obs = self
            .tracker
            .observe(header.flow_sequence, u32::from(header.count));
        self.telemetry.apply(&obs);
        self.telemetry.datagrams += 1;
        self.telemetry.flows += u64::from(obs.admit.admitted(u32::from(header.count)));
        Ok(Some(FlowView {
            header,
            records: V2RecordCursor::new(body, bpos, header.count),
            boot_unix_secs: self.boot_unix_secs,
            admit: obs.admit,
            next_index: 0,
        }))
    }

    /// Drain the segment, feeding every flow to `sink`.
    pub fn for_each_flow(&mut self, mut sink: impl FnMut(&Flow)) -> Result<(), IndexedError> {
        while let Some(mut view) = self.next_datagram()? {
            while let Some(flow) = view.try_next()? {
                sink(&flow);
            }
        }
        Ok(())
    }
}

/// Where a segment walk finds its bytes: an archive image lends each
/// segment in place ([`IndexedArchive`]); a file reads one into the
/// caller's buffer ([`crate::WalSegments`]). `Sync`, so the day sweep's
/// workers share one source, each walking its runs through its own
/// buffer.
pub trait SegmentSource: Sync {
    /// The index of the segments this source holds.
    fn index(&self) -> &ArchiveIndex;

    /// Segment `i`'s bytes: borrowed in place, or read into `buf`.
    fn segment<'a>(&'a self, i: usize, buf: &'a mut Vec<u8>) -> io::Result<&'a [u8]>;

    /// A cursor over segment `i` entering at `entry_sequence` (a pair
    /// from [`ArchiveIndex::select`]), after checking the segment's bytes
    /// against its entry's CRC.
    fn segment_cursor<'a>(
        &'a self,
        i: usize,
        entry_sequence: Option<u32>,
        buf: &'a mut Vec<u8>,
    ) -> Result<SegmentCursor<'a>, IndexedError> {
        let index = self.index();
        let data = self.segment(i, buf)?;
        let expected = index.segments[i].crc;
        let actual = crc32(data);
        if actual != expected {
            return Err(IndexedError::CrcMismatch {
                segment: i,
                expected,
                actual,
            });
        }
        Ok(SegmentCursor {
            data,
            pos: 0,
            boot_unix_secs: index.boot_unix_secs,
            tracker: SequenceTracker::new(entry_sequence),
            telemetry: ArchiveTelemetry::default(),
        })
    }

    /// The one segment walk: open a cursor over each `selected` segment
    /// in turn, reading through `buf`, and hand it to `visit` with the
    /// segment's index; `visit` drains it. Sums the telemetry of every
    /// segment that walks cleanly. A segment that fails its read, its CRC
    /// or `visit` is the walk's error, or with `lenient` is quarantined
    /// while the walk goes on.
    fn walk(
        &self,
        selected: &[(usize, Option<u32>)],
        lenient: bool,
        buf: &mut Vec<u8>,
        mut visit: impl FnMut(usize, &mut SegmentCursor<'_>) -> Result<(), IndexedError>,
    ) -> Result<Walk, IndexedError> {
        let mut walk = Walk::default();
        for &(i, entry) in selected {
            let walked = self.segment_cursor(i, entry, buf).and_then(|mut cursor| {
                visit(i, &mut cursor)?;
                Ok(cursor.telemetry())
            });
            walk.peak_buffer_bytes = walk.peak_buffer_bytes.max(buf.len());
            match walked {
                Ok(telemetry) => walk.telemetry.accumulate(&telemetry),
                Err(e) if lenient => walk.quarantined.push(QuarantinedSegment {
                    segment: i,
                    day: self.index().segments[i].day,
                    detail: e.to_string(),
                }),
                Err(e) => return Err(e),
            }
        }
        Ok(walk)
    }
}

/// A borrowed source walks as its referent does.
impl<S: SegmentSource> SegmentSource for &S {
    fn index(&self) -> &ArchiveIndex {
        (**self).index()
    }

    fn segment<'a>(&'a self, i: usize, buf: &'a mut Vec<u8>) -> io::Result<&'a [u8]> {
        (**self).segment(i, buf)
    }
}

impl SegmentSource for IndexedArchive<'_> {
    fn index(&self) -> &ArchiveIndex {
        &self.index
    }

    fn segment<'a>(&'a self, i: usize, _: &'a mut Vec<u8>) -> io::Result<&'a [u8]> {
        Ok(self.segment_bytes(i))
    }
}

/// What a [`SegmentSource::walk`] delivered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Walk {
    /// Loss and delivery accounting summed over the segments that walked
    /// cleanly — what one sequential pass over them records.
    pub telemetry: ArchiveTelemetry,
    /// Segments a lenient walk skipped, in walk order.
    pub quarantined: Vec<QuarantinedSegment>,
    /// The walk buffer's high-water mark: the longest segment read into
    /// it (a source that lends its segments in place reads none).
    pub peak_buffer_bytes: usize,
}

/// A segment a lenient walk skipped instead of failing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantinedSegment {
    /// Segment index in the footer.
    pub segment: usize,
    /// The day the segment covered.
    pub day: Day,
    /// Why it was skipped.
    pub detail: String,
}

/// A v2 archive opened over a byte slice: the footer index plus seekable,
/// independently decodable segments.
#[derive(Debug, Clone)]
pub struct IndexedArchive<'a> {
    data: &'a [u8],
    index: ArchiveIndex,
}

impl<'a> IndexedArchive<'a> {
    /// Open a complete archive image; [`IndexedError::NotIndexed`] when
    /// it has no v2 trailer.
    pub fn open(data: &'a [u8]) -> Result<IndexedArchive<'a>, IndexedError> {
        Ok(IndexedArchive {
            data,
            index: ArchiveIndex::parse(data)?,
        })
    }

    /// The exporter boot anchor recorded in the footer.
    pub fn boot_unix_secs(&self) -> u32 {
        self.index.boot_unix_secs
    }

    /// The parsed footer.
    pub fn index(&self) -> &ArchiveIndex {
        &self.index
    }

    /// Footer entries in file (= day) order.
    pub fn segments(&self) -> &[SegmentInfo] {
        &self.index.segments
    }

    /// The raw bytes of segment `i`.
    pub fn segment_bytes(&self, i: usize) -> &'a [u8] {
        let s = &self.index.segments[i];
        &self.data[s.offset as usize..(s.offset + s.len) as usize]
    }
}

/// Whether bytes look like a v1 framed archive: a plausible u16 frame
/// whose payload leads with the V5 version word. A prefix of at least
/// [`V1_SNIFF_LEN`] bytes answers the same as the whole file.
pub fn looks_like_v1(data: &[u8]) -> bool {
    if data.len() < 4 {
        return false;
    }
    let frame = u16::from_be_bytes([data[0], data[1]]) as usize;
    frame >= crate::record::V5_HEADER_LEN && 2 + frame <= data.len() && data[2] == 0 && data[3] == 5
}

/// The longest prefix [`looks_like_v1`] reads: a u16 length and the
/// largest frame it can announce.
pub const V1_SNIFF_LEN: usize = 2 + u16::MAX as usize;

/// Re-encode a v1 archive as v2 (the `unclean archive index` upgrade).
/// Returns the v2 bytes, the index, and the v1 read's loss accounting —
/// sequence gaps in the source survive as gaps in the re-export.
pub fn upgrade_v1(
    data: &[u8],
    boot_unix_secs: u32,
) -> Result<(Vec<u8>, ArchiveIndex, ArchiveTelemetry), ArchiveError> {
    let mut reader = ArchiveReader::new(data, boot_unix_secs);
    let mut writer = IndexedArchiveWriter::new(Vec::new(), boot_unix_secs);
    while let Some(batch) = reader.next_datagram()? {
        for flow in &batch {
            writer.push(flow).map_err(ArchiveError::Io)?;
        }
    }
    let (bytes, index) = writer.finish().map_err(ArchiveError::Io)?;
    Ok((bytes, index, reader.telemetry()))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::archive::tests::frame_v1;
    use crate::record::{proto, tcp_flags, EPOCH_UNIX_SECS};
    use unclean_core::Ip;

    fn boot() -> u32 {
        EPOCH_UNIX_SECS + 86_400 * 270
    }

    fn flow(day: i32, i: u32) -> Flow {
        Flow {
            src: Ip(0x0901_0000 + i),
            dst: Ip(0x1e00_0001),
            src_port: (1024 + i % 60_000) as u16,
            dst_port: 80,
            proto: proto::TCP,
            packets: 3 + i % 5,
            octets: 200 + i,
            flags: tcp_flags::SYN | tcp_flags::ACK,
            start_secs: i64::from(day) * 86_400 + i64::from(i % 86_000),
            duration_secs: i % 30,
        }
    }

    /// Every flow of the segments of `range`, walked strictly, and the
    /// walk's summary.
    pub(crate) fn walk_flows(
        source: &impl SegmentSource,
        range: Option<DateRange>,
    ) -> (Vec<Flow>, Walk) {
        let mut flows = Vec::new();
        let selected = source.index().select(range);
        let walk = source
            .walk(&selected, false, &mut Vec::new(), |_, cursor| {
                cursor.for_each_flow(|f| flows.push(*f))
            })
            .expect("clean");
        (flows, walk)
    }

    /// 3 days × `per_day` flows, days 273..=275.
    fn write_archive(per_day: u32) -> (Vec<u8>, ArchiveIndex, Vec<Flow>) {
        let mut w = IndexedArchiveWriter::new(Vec::new(), boot());
        let mut all = Vec::new();
        for day in 273..276 {
            for i in 0..per_day {
                let f = flow(day, i);
                w.push(&f).expect("in-memory write");
                all.push(f);
            }
        }
        let (bytes, index) = w.finish().expect("finish");
        (bytes, index, all)
    }

    #[test]
    fn index_round_trip() {
        let (bytes, index, all) = write_archive(95);
        assert_eq!(index.segments.len(), 3, "one segment per day");
        assert_eq!(index.total_flows(), all.len() as u64);
        assert_eq!(index.total_datagrams(), 3 * 4, "95 flows = 4 datagrams/day");
        let parsed = ArchiveIndex::parse(&bytes).expect("well-formed");
        assert_eq!(parsed, index);
        let days: Vec<i32> = index.segments.iter().map(|s| s.day.0).collect();
        assert_eq!(days, vec![273, 274, 275]);
        // Sequence continuity across segments.
        assert_eq!(index.segments[0].first_seq, 0);
        assert_eq!(index.segments[0].end_seq, 95);
        assert_eq!(index.segments[1].first_seq, 95);
    }

    /// A flow V5's uptime clock cannot carry is refused, naming its day,
    /// and leaves the writer exactly as it was; the horizon's last second
    /// is written and read back intact.
    #[test]
    fn flows_past_the_v5_horizon_are_refused() {
        let boot_secs = i64::from(boot() - EPOCH_UNIX_SECS);
        let at = |secs: i64| Flow {
            start_secs: boot_secs + secs,
            ..flow(0, 7)
        };
        let mut plain = IndexedArchiveWriter::new(Vec::new(), boot());
        let mut refusing = IndexedArchiveWriter::new(Vec::new(), boot());
        for w in [&mut plain, &mut refusing] {
            w.push(&at(10)).expect("inside the horizon");
        }
        for secs in [-1, 4_294_968] {
            let err = refusing.push(&at(secs)).expect_err("outside the horizon");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            let day = at(secs).day().to_string();
            assert!(err.to_string().contains(&day), "{err} names {day}");
        }
        for w in [&mut plain, &mut refusing] {
            w.push(&at(4_294_967)).expect("the horizon's last second");
        }
        let (bytes, _) = refusing.finish().expect("finish");
        assert_eq!(bytes, plain.finish().expect("finish").0);
        let archive = IndexedArchive::open(&bytes).expect("v2");
        assert_eq!(walk_flows(&archive, None).0, [at(10), at(4_294_967)]);
    }

    #[test]
    fn sequential_read_matches_original() {
        let (bytes, _, all) = write_archive(95);
        let archive = IndexedArchive::open(&bytes).expect("v2");
        let (flows, walk) = walk_flows(&archive, None);
        assert_eq!(flows, all);
        assert_eq!(walk.telemetry.flows, all.len() as u64);
        assert_eq!(walk.telemetry.lost_flows, 0);
        assert_eq!(walk.telemetry.sequence_gaps, 0);
        assert_eq!(walk.telemetry.reordered, 0);
        assert!(walk.quarantined.is_empty());
        assert_eq!(walk.peak_buffer_bytes, 0, "an image lends its segments");
    }

    #[test]
    fn day_range_seeks_only_the_asked_days() {
        let (bytes, _, all) = write_archive(50);
        let archive = IndexedArchive::open(&bytes).expect("v2");
        let range = DateRange::new(Day(274), Day(274));
        let (flows, Walk { telemetry, .. }) = walk_flows(&archive, Some(range));
        let expected: Vec<Flow> = all
            .iter()
            .filter(|f| f.day() == Day(274))
            .copied()
            .collect();
        assert_eq!(flows, expected);
        assert_eq!(telemetry.flows, 50);
        // A mid-archive scan must not book the skipped prefix as loss.
        assert_eq!(telemetry.lost_flows, 0);
        assert_eq!(telemetry.sequence_gaps, 0);
    }

    #[test]
    fn corrupt_segment_quarantines_only_itself() {
        let (mut bytes, index, _) = write_archive(95);
        // Flip a byte in the middle segment's data.
        let mid = &index.segments[1];
        bytes[(mid.offset + mid.len / 2) as usize] ^= 0xff;
        let archive = IndexedArchive::open(&bytes).expect("v2");
        let selected = index.select(None);
        let mut visited = Vec::new();
        let mut walk = |lenient: bool| {
            visited.clear();
            archive.walk(&selected, lenient, &mut Vec::new(), |i, cursor| {
                visited.push(i);
                cursor.for_each_flow(|_| {})
            })
        };
        // A strict walk stops at the CRC mismatch…
        assert!(matches!(
            walk(false),
            Err(IndexedError::CrcMismatch { segment: 1, .. })
        ));
        // …a lenient one quarantines day 274 and delivers the other two.
        let lenient = walk(true).expect("lenient");
        assert_eq!(lenient.quarantined.len(), 1);
        assert_eq!(lenient.quarantined[0].segment, 1);
        assert_eq!(lenient.quarantined[0].day, Day(274));
        assert!(lenient.quarantined[0].detail.contains("CRC mismatch"));
        assert_eq!(lenient.telemetry.flows, 2 * 95);
        assert_eq!(visited, vec![0, 2]);
    }

    #[test]
    fn v1_bytes_are_not_indexed() {
        let flows: Vec<Flow> = (0..40).map(|i| flow(273, i)).collect();
        let bytes = frame_v1(&flows, boot());
        assert!(looks_like_v1(&bytes));
        assert!(looks_like_v1(&bytes[..bytes.len().min(V1_SNIFF_LEN)]));
        assert!(matches!(
            ArchiveIndex::parse(&bytes),
            Err(IndexedError::NotIndexed)
        ));
        assert!(matches!(
            IndexedArchive::open(&bytes),
            Err(IndexedError::NotIndexed)
        ));
        let (v2, _, _) = write_archive(10);
        assert!(!looks_like_v1(&v2));
    }

    #[test]
    fn select_enters_at_the_previous_selected_segment() {
        let (_, index, _) = write_archive(40);
        let ends: Vec<u32> = index.segments.iter().map(|s| s.end_seq).collect();
        assert_eq!(
            index.select(None),
            vec![(0, None), (1, Some(ends[0])), (2, Some(ends[1]))]
        );
        // A scan starting mid-archive enters fresh, then runs contiguous.
        let tail = DateRange::new(Day(274), Day(275));
        assert_eq!(
            index.select(Some(tail)),
            vec![(1, None), (2, Some(ends[1]))]
        );
        assert!(index.select(Some(DateRange::single(Day(9)))).is_empty());
    }

    #[test]
    fn empty_archive_is_v2_with_no_segments() {
        let (bytes, index) = IndexedArchiveWriter::new(Vec::new(), boot())
            .finish()
            .expect("ok");
        assert!(index.segments.is_empty());
        let archive = IndexedArchive::open(&bytes).expect("v2");
        let (flows, walk) = walk_flows(&archive, None);
        assert!(flows.is_empty());
        assert_eq!(walk, Walk::default());
    }

    #[test]
    fn unsupported_version_errors_rather_than_misreads() {
        let (mut bytes, _, _) = write_archive(10);
        let version_at = bytes.len() - TRAILER_LEN + 4;
        bytes[version_at] = 3;
        assert!(matches!(
            ArchiveIndex::parse(&bytes),
            Err(IndexedError::UnsupportedVersion(3))
        ));
    }

    #[test]
    fn damaged_footer_is_corrupt_not_v1() {
        let (bytes, index, _) = write_archive(10);
        // Rebuild the archive with a footer whose first segment claims to
        // start one byte in: the index no longer tiles the data region.
        let data_end: u64 = index.segments.iter().map(|s| s.len).sum();
        let mut bad_index = index.clone();
        bad_index.segments[0].offset += 1;
        let mut bad = bytes[..data_end as usize].to_vec();
        bad_index.encode_tail(&mut bad);
        assert!(matches!(
            ArchiveIndex::parse(&bad),
            Err(IndexedError::Corrupt(_))
        ));
    }

    #[test]
    fn footer_count_is_bounded_by_the_footer_length() {
        let (bytes, index, _) = write_archive(10);
        let data_end: u64 = index.segments.iter().map(|s| s.len).sum();
        // Re-encode the footer claiming one entry more than its bytes can
        // hold: rejected before any per-entry allocation.
        let mut footer = Vec::new();
        put_uvarint(&mut footer, u64::from(index.boot_unix_secs));
        put_uvarint(&mut footer, data_end);
        for s in &index.segments {
            s.encode(&mut footer);
        }
        let mut bad = bytes[..data_end as usize].to_vec();
        bad.extend_from_slice(&footer);
        bad.extend_from_slice(&(footer.len() as u32).to_le_bytes());
        bad.push(ARCHIVE_VERSION);
        bad.extend_from_slice(ARCHIVE_MAGIC);
        match ArchiveIndex::parse(&bad) {
            Err(IndexedError::Corrupt(detail)) => assert!(detail.contains("claims"), "{detail}"),
            other => panic!("expected a corrupt count, got {other:?}"),
        }
    }

    #[test]
    fn segment_info_codec_round_trips() {
        let (_, index, _) = write_archive(33);
        for s in &index.segments {
            let mut bytes = Vec::new();
            s.encode(&mut bytes);
            let mut pos = 0;
            assert_eq!(SegmentInfo::decode(&bytes, &mut pos).expect("decodes"), *s);
            assert_eq!(pos, bytes.len());
            assert!(bytes.len() >= SegmentInfo::MIN_ENCODED_LEN);
            let mut pos = 0;
            assert!(SegmentInfo::decode(&bytes[..bytes.len() - 1], &mut pos).is_err());
        }
    }

    #[test]
    fn upgrade_v1_preserves_flows_and_builds_segments() {
        let all: Vec<Flow> = (273..275)
            .flat_map(|day| (0..35).map(move |i| flow(day, i)))
            .collect();
        let v1 = frame_v1(&all, boot());
        let (v2, index, telemetry) = upgrade_v1(&v1, boot()).expect("upgrade");
        assert_eq!(telemetry.flows, 70);
        assert_eq!(index.segments.len(), 2);
        let archive = IndexedArchive::open(&v2).expect("v2");
        assert_eq!(walk_flows(&archive, None).0, all);
    }

    #[test]
    fn v2_spool_is_smaller_than_v1() {
        let (v2, _, all) = write_archive(500);
        let v1 = frame_v1(&all, boot());
        assert!(
            (v2.len() as f64) < 0.6 * v1.len() as f64,
            "delta compression: v2 {} bytes vs v1 {}",
            v2.len(),
            v1.len()
        );
    }

    #[test]
    fn error_display() {
        assert!(IndexedError::UnsupportedVersion(7)
            .to_string()
            .contains('7'));
        assert!(IndexedError::Corrupt("x".into()).to_string().contains('x'));
        assert!(IndexedError::CrcMismatch {
            segment: 2,
            expected: 1,
            actual: 3
        }
        .to_string()
        .contains("segment 2"));
        assert!(IndexedError::Decode(DecodeError::BadVarint)
            .to_string()
            .contains("varint"));
        assert!(IndexedError::NotIndexed
            .to_string()
            .contains("unclean archive index"));
        assert!(IndexedError::Io(io::Error::other("y"))
            .to_string()
            .contains("I/O"));
    }
}
