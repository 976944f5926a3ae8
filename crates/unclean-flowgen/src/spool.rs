//! The durable WAL spooler: live flows sealed into v2 indexed segments.
//!
//! A live collector cannot use [`crate::IndexedArchiveWriter`] directly:
//! that format's index lives in a footer written at `finish()`, so a
//! crash mid-day loses the *whole* spool's index. [`WalSpool`] splits the
//! archive into its two durability domains, one file each:
//!
//! ```text
//! spool-dir/
//!   segments.dat   append-only v2 segment data (varint-framed datagrams)
//!   index.wal      "UNCLWAL1" header, then one record per *sealed*
//!                  segment — appended only after segments.dat is fsynced
//!     record = [uv len][footer entry][crc32 of the entry]
//! ```
//!
//! The segments come from the same encoder as the indexed writer's, and
//! a record is a footer entry ([`SegmentInfo`]'s one encoding) behind a
//! length and a CRC: `segments.dat` plus the records' entries is an
//! indexed archive without its footer.
//!
//! The seal protocol is the WAL invariant: data fsync *then* index append
//! *then* index fsync. An index record therefore proves its segment is
//! durable. Recovery ([`WalSpool::open`]) replays `index.wal`, stops at
//! the first record that is torn or whose segment bytes fail their CRC,
//! quarantines everything past the sealed prefix into `torn_tail.bin`,
//! and resumes writing from the last sealed `end_seq` — a flow is never
//! double-counted and a torn tail is never silently dropped.
//!
//! The sealed segments are read in place: [`WalSpool::segments`] is a
//! [`SegmentSource`] whose every read is one positioned read of
//! `segments.dat` into the caller's reused buffer, checked against the
//! segment's CRC by [`ArchiveIndex::cursor`]. The live rescore reads only
//! the segments sealed since its last publish this way, and
//! [`WalSpool::checkpoint`] answers from running totals, so neither costs
//! more as the spool grows. [`WalSpool::sealed_image`] re-assembles the
//! whole sealed prefix plus a synthesized footer into a byte-exact v2
//! archive image, for readers that want one ([`crate::IndexedArchive`]).

use crate::indexed::{get_u32_le, ArchiveIndex, SegmentEncoder, SegmentInfo, SegmentSource};
use crate::record::{get_uvarint, put_uvarint};
use crate::session::Flow;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use unclean_core::snap::crc32;
use unclean_telemetry::{Registry, TraceEvent, TraceKind};

/// Magic leading `index.wal`.
const WAL_MAGIC: &[u8; 8] = b"UNCLWAL1";

/// Data file name inside the spool directory.
pub const SEGMENTS_FILE: &str = "segments.dat";
/// Index WAL file name inside the spool directory.
pub const INDEX_FILE: &str = "index.wal";
/// Where a recovery quarantines torn tail bytes.
pub const TORN_TAIL_FILE: &str = "torn_tail.bin";

/// Errors surfaced by the spooler.
#[derive(Debug)]
pub enum SpoolError {
    /// Filesystem failure (including injected write faults / disk full).
    Io(io::Error),
    /// The WAL's own framing is unusable (bad magic/header).
    Corrupt(String),
}

impl std::fmt::Display for SpoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpoolError::Io(e) => write!(f, "spool I/O error: {e}"),
            SpoolError::Corrupt(msg) => write!(f, "spool corrupt: {msg}"),
        }
    }
}

impl std::error::Error for SpoolError {}

impl From<io::Error> for SpoolError {
    fn from(e: io::Error) -> SpoolError {
        SpoolError::Io(e)
    }
}

/// A durable position in the spool: everything up to here survives a
/// crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalCheckpoint {
    /// Sealed segments on disk.
    pub sealed_segments: usize,
    /// Sealed data bytes in `segments.dat`.
    pub sealed_bytes: u64,
    /// The sequence number the next sealed flow will carry.
    pub end_seq: u32,
    /// Flows inside sealed segments.
    pub sealed_flows: u64,
    /// Flows pushed but not yet sealed (lost if we crash now).
    pub unsealed_flows: u64,
}

impl WalCheckpoint {
    /// Count one more sealed segment.
    fn add_sealed(&mut self, info: &SegmentInfo) {
        self.sealed_segments += 1;
        self.sealed_bytes = info.offset + info.len;
        self.end_seq = info.end_seq;
        self.sealed_flows += info.flows;
    }
}

/// What [`WalSpool::open`] found and did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Intact sealed segments recovered.
    pub sealed_segments: usize,
    /// Flows inside them.
    pub sealed_flows: u64,
    /// The sequence number writing resumes from.
    pub resumed_end_seq: u32,
    /// Data bytes past the sealed prefix, moved to `torn_tail.bin`.
    pub torn_tail_bytes: u64,
    /// Trailing `index.wal` bytes discarded (a torn index append, or
    /// records whose segment bytes failed their CRC).
    pub torn_index_bytes: u64,
}

/// Injectable fault hook: called before every data-file write with the
/// cumulative bytes already written and the size about to be written;
/// returning an error aborts the write — a crash or a full disk,
/// on demand, at byte granularity.
pub type WriteFault = Box<dyn FnMut(u64, usize) -> io::Result<()> + Send>;

/// `segments.dat` as the segment encoder's sink, behind the fault hook.
struct DataFile {
    file: File,
    written: u64,
    fault: Option<WriteFault>,
}

impl Write for DataFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if let Some(fault) = self.fault.as_mut() {
            fault(self.written, buf.len())?;
        }
        let n = self.file.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

/// The WAL-style durable spooler: the v2 segment encoder over
/// `segments.dat`, sealing each segment into `index.wal`.
pub struct WalSpool {
    dir: PathBuf,
    enc: SegmentEncoder<DataFile>,
    /// A read-only handle on `segments.dat` for the sealed segments.
    reader: File,
    index_file: File,
    /// The sealed segments, in seal order.
    index: ArchiveIndex,
    /// Running totals over `index` (`unsealed_flows` stays 0).
    sealed: WalCheckpoint,
    telemetry: Registry,
}

impl std::fmt::Debug for WalSpool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalSpool")
            .field("dir", &self.dir)
            .field("sealed_segments", &self.sealed.sealed_segments)
            .field("sealed_bytes", &self.sealed.sealed_bytes)
            .field("next_seq", &self.next_seq())
            .finish_non_exhaustive()
    }
}

/// The sealed segments of a [`WalSpool`] as a [`SegmentSource`]: each
/// read is one positioned read of `segments.dat`.
#[derive(Debug, Clone, Copy)]
pub struct WalSegments<'a> {
    index: &'a ArchiveIndex,
    data: &'a File,
}

impl SegmentSource for WalSegments<'_> {
    fn index(&self) -> &ArchiveIndex {
        self.index
    }

    fn segment<'a>(&'a self, i: usize, buf: &'a mut Vec<u8>) -> io::Result<&'a [u8]> {
        let info = &self.index.segments[i];
        buf.resize(info.len as usize, 0);
        read_at(self.data, buf, info.offset)?;
        Ok(buf)
    }
}

/// Fill `buf` from `file` at `offset`: one positioned read on Unix; a seek
/// and a read elsewhere (the reader is its own handle, so this never
/// moves the append position).
fn read_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    #[cfg(unix)]
    {
        std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
    }
    #[cfg(not(unix))]
    {
        let mut file = file;
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(buf)
    }
}

impl WalSpool {
    /// Create a fresh spool in `dir` (created if missing; existing spool
    /// files are truncated).
    pub fn create(dir: &Path, boot_unix_secs: u32) -> Result<WalSpool, SpoolError> {
        std::fs::create_dir_all(dir)?;
        let data = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(dir.join(SEGMENTS_FILE))?;
        let mut index = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(dir.join(INDEX_FILE))?;
        let mut header = Vec::with_capacity(16);
        header.extend_from_slice(WAL_MAGIC);
        put_uvarint(&mut header, u64::from(boot_unix_secs));
        index.write_all(&header)?;
        index.sync_all()?;
        WalSpool::resume(dir, data, index, boot_unix_secs, Vec::new())
    }

    /// A spool appending to `data` after the `sealed` segments.
    fn resume(
        dir: &Path,
        data: File,
        index_file: File,
        boot_unix_secs: u32,
        sealed: Vec<SegmentInfo>,
    ) -> Result<WalSpool, SpoolError> {
        let mut totals = WalCheckpoint::default();
        for info in &sealed {
            totals.add_sealed(info);
        }
        let reader = File::open(dir.join(SEGMENTS_FILE))?;
        let data = DataFile {
            file: data,
            written: 0,
            fault: None,
        };
        Ok(WalSpool {
            dir: dir.to_path_buf(),
            enc: SegmentEncoder::new(data, boot_unix_secs, totals.end_seq, totals.sealed_bytes),
            reader,
            index_file,
            index: ArchiveIndex {
                boot_unix_secs,
                segments: sealed,
            },
            sealed: totals,
            telemetry: Registry::off(),
        })
    }

    /// Reopen an existing spool, recovering the sealed prefix: index
    /// records are replayed until one is torn or its segment bytes fail
    /// their CRC; everything past the sealed prefix is quarantined into
    /// `torn_tail.bin` and both files are truncated back to durable
    /// state. Writing resumes from the last sealed `end_seq`.
    pub fn open(dir: &Path) -> Result<(WalSpool, RecoveryReport), SpoolError> {
        let index_path = dir.join(INDEX_FILE);
        let data_path = dir.join(SEGMENTS_FILE);
        let index_bytes = std::fs::read(&index_path)?;
        if index_bytes.len() < WAL_MAGIC.len() || &index_bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
            return Err(SpoolError::Corrupt(format!(
                "{} lacks the WAL magic",
                index_path.display()
            )));
        }
        let mut pos = WAL_MAGIC.len();
        let boot_unix_secs = u32::try_from(
            get_uvarint(&index_bytes, &mut pos)
                .map_err(|e| SpoolError::Corrupt(format!("WAL header: {e}")))?,
        )
        .map_err(|_| SpoolError::Corrupt("WAL boot anchor overflows u32".to_string()))?;

        let mut data = OpenOptions::new().read(true).write(true).open(&data_path)?;
        let data_len = data.metadata()?.len();

        // Replay index records until one is torn, inconsistent, or its
        // segment bytes are not durably intact.
        let mut sealed: Vec<SegmentInfo> = Vec::new();
        let mut expected_offset = 0u64;
        let mut valid_index_end = pos;
        let mut segment_buf = Vec::new();
        while let Some(info) = parse_index_record(&index_bytes, &mut pos) {
            if info.offset != expected_offset {
                break;
            }
            let end = info.offset.saturating_add(info.len);
            if end > data_len {
                break;
            }
            // CRC the segment's bytes straight off disk.
            segment_buf.resize(info.len as usize, 0);
            data.seek(SeekFrom::Start(info.offset))?;
            if data.read_exact(&mut segment_buf).is_err() {
                break;
            }
            if crc32(&segment_buf) != info.crc {
                break;
            }
            if let Some(prev) = sealed.last() {
                if info.first_seq != prev.end_seq {
                    break;
                }
            }
            expected_offset = end;
            valid_index_end = pos;
            sealed.push(info);
        }

        // Quarantine whatever data lies past the sealed prefix, then
        // truncate both files back to the durable state.
        let sealed_bytes = expected_offset;
        let torn_tail_bytes = data_len.saturating_sub(sealed_bytes);
        if torn_tail_bytes > 0 {
            let mut tail = vec![0u8; torn_tail_bytes as usize];
            data.seek(SeekFrom::Start(sealed_bytes))?;
            data.read_exact(&mut tail)?;
            std::fs::write(dir.join(TORN_TAIL_FILE), &tail)?;
        }
        data.set_len(sealed_bytes)?;
        data.sync_all()?;
        let torn_index_bytes = (index_bytes.len() - valid_index_end) as u64;
        let mut index = OpenOptions::new().write(true).open(&index_path)?;
        index.set_len(valid_index_end as u64)?;
        index.sync_all()?;
        index.seek(SeekFrom::End(0))?;
        data.seek(SeekFrom::End(0))?;

        let spool = WalSpool::resume(dir, data, index, boot_unix_secs, sealed)?;
        let report = RecoveryReport {
            sealed_segments: spool.sealed.sealed_segments,
            sealed_flows: spool.sealed.sealed_flows,
            resumed_end_seq: spool.sealed.end_seq,
            torn_tail_bytes,
            torn_index_bytes,
        };
        Ok((spool, report))
    }

    /// Install a fault hook on the data path (see [`WriteFault`]) — the
    /// injectable spool writer the crash-recovery tests drive.
    pub fn set_write_fault(&mut self, fault: WriteFault) {
        self.enc.get_mut().fault = Some(fault);
    }

    /// Attach a telemetry registry: every durable seal from here on
    /// emits a [`TraceKind::WalSeal`] event (carrying the segment's flow
    /// sequence range) onto the registry's trace ring, if one is
    /// installed — the WAL link in the flow→blocklist lineage chain.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.telemetry = registry.clone();
    }

    /// The sequence number the next pushed flow will eventually carry
    /// (pending, unflushed flows included). Bracketing a push batch with
    /// two calls yields the batch's exclusive-end WAL sequence range —
    /// the causal id an ingest-batch trace event carries.
    pub fn next_seq(&self) -> u32 {
        self.enc.next_seq()
    }

    /// The exporter boot anchor flows are encoded against.
    pub fn boot_unix_secs(&self) -> u32 {
        self.enc.boot_unix_secs()
    }

    /// The spool directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sealed-segment index entries, in seal order.
    pub fn sealed_segments(&self) -> &[SegmentInfo] {
        &self.index.segments
    }

    /// The sealed segments as a [`SegmentSource`], read in place from
    /// `segments.dat`.
    pub fn segments(&self) -> WalSegments<'_> {
        WalSegments {
            index: &self.index,
            data: &self.reader,
        }
    }

    /// Where the spool stands; O(1), from running totals.
    pub fn checkpoint(&self) -> WalCheckpoint {
        WalCheckpoint {
            unsealed_flows: self.enc.open_flows(),
            ..self.sealed
        }
    }

    /// Queue one flow. A day change seals the current segment durably;
    /// 30 queued records flush a datagram to the data file.
    pub fn push(&mut self, flow: &Flow) -> Result<(), SpoolError> {
        if self.enc.ends_segment(flow) {
            self.seal()?;
        }
        Ok(self.enc.push(flow)?)
    }

    /// Flush any partial datagram into the open segment (data file only —
    /// not yet durable; see [`WalSpool::seal`]). A failed write may leave
    /// a torn frame behind; that segment can never seal, and recovery
    /// quarantines it.
    pub fn flush_datagram(&mut self) -> Result<(), SpoolError> {
        Ok(self.enc.flush_datagram()?)
    }

    /// Seal the open segment durably: flush the partial datagram, fsync
    /// the data file, append the segment's index record, fsync the index.
    /// Returns the sealed entry (`None` when there was nothing to seal).
    pub fn seal(&mut self) -> Result<Option<SegmentInfo>, SpoolError> {
        let Some(info) = self.enc.close()? else {
            return Ok(None);
        };
        // WAL invariant: the data must be durable before the index record
        // that vouches for it exists.
        self.enc.get_mut().file.sync_all()?;
        let mut record = Vec::with_capacity(64);
        encode_index_record(&info, &mut record);
        self.index_file.write_all(&record)?;
        self.index_file.sync_all()?;
        self.sealed.add_sealed(&info);
        self.index.segments.push(info);
        self.telemetry.trace_event(
            TraceEvent::now(TraceKind::WalSeal)
                .seq_range(u64::from(info.first_seq), u64::from(info.end_seq))
                .field("day", info.day)
                .field("flows", info.flows)
                .field("datagrams", info.datagrams)
                .field("bytes", info.len),
        );
        Ok(Some(info))
    }

    /// Assemble the sealed prefix into a complete, self-contained v2
    /// archive image (data + synthesized footer + trailer) — byte-exact
    /// what `IndexedArchiveWriter` would have produced for the same
    /// flows, ready for [`crate::IndexedArchive::open`].
    pub fn sealed_image(&self) -> Result<Vec<u8>, SpoolError> {
        let mut data = vec![0u8; self.sealed.sealed_bytes as usize];
        read_at(&self.reader, &mut data, 0)?;
        self.index.encode_tail(&mut data);
        Ok(data)
    }
}

/// Append one sealed-segment record: the entry's footer encoding and a
/// CRC over it, behind a varint length so a torn append is detectable.
fn encode_index_record(info: &SegmentInfo, out: &mut Vec<u8>) {
    let mut body = Vec::with_capacity(48);
    info.encode(&mut body);
    body.extend_from_slice(&crc32(&body).to_le_bytes());
    put_uvarint(out, body.len() as u64);
    out.extend_from_slice(&body);
}

/// Parse one index record at `*pos`; `None` when the bytes are exhausted,
/// torn, or fail the record CRC (recovery stops there).
fn parse_index_record(bytes: &[u8], pos: &mut usize) -> Option<SegmentInfo> {
    let mut p = *pos;
    let len = usize::try_from(get_uvarint(bytes, &mut p).ok()?).ok()?;
    let body = bytes.get(p..p.checked_add(len)?)?;
    let mut crc_at = len.checked_sub(4)?;
    let fields = &body[..crc_at];
    if crc32(fields) != get_u32_le(body, &mut crc_at).ok()? {
        return None;
    }
    let mut fp = 0;
    let info = SegmentInfo::decode(fields, &mut fp).ok()?;
    if fp != fields.len() {
        return None;
    }
    *pos = p + len;
    Some(info)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::indexed::{IndexedArchive, IndexedArchiveWriter};
    use crate::record::{proto, tcp_flags, EPOCH_UNIX_SECS};
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

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("unclean-wal-spool")
            .join(format!("{name}-{:?}", std::thread::current().id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn sealed_image_is_byte_identical_to_indexed_writer() {
        let dir = tmp_dir("image");
        let mut spool = WalSpool::create(&dir, boot()).expect("create");
        let mut reference = IndexedArchiveWriter::new(Vec::new(), boot());
        for day in 0..3 {
            for i in 0..77u32 {
                let f = flow(day, i);
                spool.push(&f).expect("push");
                reference.push(&f).expect("push");
            }
        }
        spool.seal().expect("seal");
        let (expected, _) = reference.finish().expect("finish");
        let image = spool.sealed_image().expect("image");
        assert_eq!(image, expected, "WAL assembles the exact v2 image");
        let archive = IndexedArchive::open(&image).expect("v2");
        assert_eq!(archive.index().total_flows(), 231);
    }

    #[test]
    fn reopen_resumes_from_sealed_state() {
        let dir = tmp_dir("resume");
        let mut spool = WalSpool::create(&dir, boot()).expect("create");
        for i in 0..100u32 {
            spool.push(&flow(0, i)).expect("push");
        }
        spool.seal().expect("seal");
        let cp = spool.checkpoint();
        assert_eq!(cp.sealed_flows, 100);
        assert_eq!(cp.end_seq, 100);
        drop(spool);

        let (mut spool, report) = WalSpool::open(&dir).expect("reopen");
        assert_eq!(report.sealed_segments, 1);
        assert_eq!(report.sealed_flows, 100);
        assert_eq!(report.resumed_end_seq, 100);
        assert_eq!(report.torn_tail_bytes, 0);
        // Resumed writes continue the sequence space with no overlap.
        for i in 0..50u32 {
            spool.push(&flow(1, i)).expect("push");
        }
        spool.seal().expect("seal");
        let segs = spool.sealed_segments();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[1].first_seq, 100);
        assert_eq!(segs[1].end_seq, 150);
        let image = spool.sealed_image().expect("image");
        let archive = IndexedArchive::open(&image).expect("v2");
        let (flows, t) = archive.read_day_range(None).expect("read");
        assert_eq!(flows.len(), 150);
        assert_eq!(t.lost_flows, 0);
        assert_eq!(t.duplicates, 0);
    }

    #[test]
    fn torn_tail_is_quarantined_and_sealed_prefix_survives() {
        let dir = tmp_dir("torn");
        let mut spool = WalSpool::create(&dir, boot()).expect("create");
        for i in 0..60u32 {
            spool.push(&flow(0, i)).expect("push");
        }
        spool.seal().expect("seal");
        let sealed_image = spool.sealed_image().expect("image");
        // More flows spooled but never sealed — then "crash".
        for i in 0..45u32 {
            spool.push(&flow(1, i)).expect("push");
        }
        spool.flush_datagram().expect("flush");
        drop(spool);

        let (spool, report) = WalSpool::open(&dir).expect("recover");
        assert_eq!(report.sealed_segments, 1);
        assert_eq!(report.sealed_flows, 60);
        assert_eq!(report.resumed_end_seq, 60);
        assert!(report.torn_tail_bytes > 0, "unsealed day-1 bytes");
        let tail = std::fs::read(dir.join(TORN_TAIL_FILE)).expect("quarantine file");
        assert_eq!(tail.len() as u64, report.torn_tail_bytes);
        // The recovered archive equals the uninterrupted sealed prefix,
        // byte for byte.
        assert_eq!(spool.sealed_image().expect("image"), sealed_image);
    }

    #[test]
    fn torn_index_append_is_discarded() {
        let dir = tmp_dir("torn-index");
        let mut spool = WalSpool::create(&dir, boot()).expect("create");
        for i in 0..30u32 {
            spool.push(&flow(0, i)).expect("push");
        }
        spool.seal().expect("seal");
        drop(spool);
        // Append half an index record: a crash mid-append.
        let mut index = OpenOptions::new()
            .append(true)
            .open(dir.join(INDEX_FILE))
            .expect("open index");
        index.write_all(&[17, 1, 2, 3]).expect("torn append");
        drop(index);
        let (_, report) = WalSpool::open(&dir).expect("recover");
        assert_eq!(report.sealed_segments, 1);
        assert_eq!(report.torn_index_bytes, 4);
    }

    #[test]
    fn write_fault_surfaces_and_recovery_matches_uninterrupted_run() {
        let dir = tmp_dir("fault");
        // Uninterrupted reference: the first 90 flows, sealed.
        let ref_dir = tmp_dir("fault-ref");
        let mut reference = WalSpool::create(&ref_dir, boot()).expect("create");
        for i in 0..90u32 {
            reference.push(&flow(0, i)).expect("push");
        }
        reference.seal().expect("seal");
        let reference_image = reference.sealed_image().expect("image");

        let mut spool = WalSpool::create(&dir, boot()).expect("create");
        for i in 0..90u32 {
            spool.push(&flow(0, i)).expect("push");
        }
        spool.seal().expect("seal");
        let sealed_so_far = spool.checkpoint().sealed_bytes;
        // Fail after ~64 more data bytes: mid-segment, like a yanked disk.
        spool.set_write_fault(Box::new(move |written, _| {
            if written >= sealed_so_far + 64 {
                Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"))
            } else {
                Ok(())
            }
        }));
        let mut failed = false;
        for i in 0..600u32 {
            if spool.push(&flow(0, 90 + i)).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "the injected fault fired");
        // Sealing now must fail too (flushing the pending datagram hits
        // the same full disk) — the error path is loud, not silent.
        assert!(matches!(spool.seal(), Err(SpoolError::Io(_))));
        drop(spool);

        let (spool, report) = WalSpool::open(&dir).expect("recover");
        assert_eq!(report.sealed_segments, 1);
        assert_eq!(report.sealed_flows, 90);
        assert!(report.torn_tail_bytes > 0, "the torn mid-segment bytes");
        assert_eq!(
            spool.sealed_image().expect("image"),
            reference_image,
            "recovered flow set == sealed prefix of an uninterrupted run"
        );
    }

    #[test]
    fn recovery_rejects_flipped_data_bytes() {
        let dir = tmp_dir("bitrot");
        let mut spool = WalSpool::create(&dir, boot()).expect("create");
        for day in 0..2 {
            for i in 0..40u32 {
                spool.push(&flow(day, i)).expect("push");
            }
        }
        spool.seal().expect("seal");
        drop(spool);
        // Flip a byte inside the *second* sealed segment.
        let data_path = dir.join(SEGMENTS_FILE);
        let mut bytes = std::fs::read(&data_path).expect("read");
        let seg2_mid = bytes.len() - 10;
        bytes[seg2_mid] ^= 0x40;
        std::fs::write(&data_path, &bytes).expect("write");
        let (_, report) = WalSpool::open(&dir).expect("recover");
        assert_eq!(
            report.sealed_segments, 1,
            "the damaged segment and everything after it is quarantined"
        );
        assert!(report.torn_tail_bytes > 0);
        assert!(report.torn_index_bytes > 0, "its index record too");
    }

    /// The checkpoint's running totals equal sums over the sealed entries
    /// after seals, a reopen and a torn-tail recovery.
    #[test]
    fn checkpoint_totals_equal_the_sums_over_sealed_segments() {
        fn sums(spool: &WalSpool) -> WalCheckpoint {
            let segments = spool.sealed_segments();
            WalCheckpoint {
                sealed_segments: segments.len(),
                sealed_bytes: segments.iter().map(|s| s.len).sum(),
                end_seq: segments.last().map_or(0, |s| s.end_seq),
                sealed_flows: segments.iter().map(|s| s.flows).sum(),
                unsealed_flows: spool.enc.open_flows(),
            }
        }
        let dir = tmp_dir("totals");
        let mut spool = WalSpool::create(&dir, boot()).expect("create");
        for day in 0..3 {
            for i in 0..40 + 17 * day {
                spool.push(&flow(day, i)).expect("push");
            }
            spool.seal().expect("seal");
            assert_eq!(spool.checkpoint(), sums(&spool));
        }
        drop(spool);
        let (mut spool, _) = WalSpool::open(&dir).expect("reopen");
        assert_eq!(spool.checkpoint(), sums(&spool));
        assert_eq!(spool.checkpoint().sealed_flows, 40 + 57 + 74);
        for i in 0..45 {
            spool.push(&flow(3, i)).expect("push");
        }
        spool.flush_datagram().expect("flush");
        assert_eq!(spool.checkpoint().unsealed_flows, 45);
        assert_eq!(spool.checkpoint(), sums(&spool));
        drop(spool);
        let (spool, report) = WalSpool::open(&dir).expect("recover");
        assert!(report.torn_tail_bytes > 0);
        assert_eq!(spool.checkpoint(), sums(&spool));
        assert_eq!(spool.checkpoint().sealed_flows, report.sealed_flows);
    }

    /// Each sealed segment read in place equals its bytes in the
    /// assembled image.
    #[test]
    fn segments_read_in_place_match_the_sealed_image() {
        let dir = tmp_dir("in-place");
        let mut spool = WalSpool::create(&dir, boot()).expect("create");
        for day in 0..3 {
            for i in 0..70u32 {
                spool.push(&flow(day, i)).expect("push");
            }
        }
        spool.seal().expect("seal");
        let image = spool.sealed_image().expect("image");
        let archive = IndexedArchive::open(&image).expect("v2");
        let segments = spool.segments();
        assert_eq!(segments.index(), archive.index());
        let mut buf = Vec::new();
        for i in 0..segments.index().segments.len() {
            let bytes = segments.segment(i, &mut buf).expect("read");
            assert_eq!(bytes, archive.segment_bytes(i));
        }
    }

    #[test]
    fn empty_spool_recovers_empty() {
        let dir = tmp_dir("empty");
        let spool = WalSpool::create(&dir, boot()).expect("create");
        drop(spool);
        let (spool, report) = WalSpool::open(&dir).expect("recover");
        assert_eq!(report, RecoveryReport::default());
        assert_eq!(spool.checkpoint(), WalCheckpoint::default());
    }
}
