//! The mmap-able on-disk [`FrozenTrie`](crate::frozen::FrozenTrie)
//! snapshot format.
//!
//! A serving daemon that reloads every few seconds and a fleet of N
//! border processes sharing one box both want the same two properties
//! from a blocklist artifact: *O(1) cold start* (no parse, no
//! allocation proportional to the list) and *one page-cache copy*
//! shared between processes. So a frozen trie has exactly one storage,
//! this byte image — two arrays of 16-byte records behind a
//! self-describing header — whether it was built in memory or mapped
//! from a file:
//!
//! ```text
//! offset 0        header page (4096 bytes, zero-padded)
//!   [ 0.. 8)      magic "UNCLSNP1"
//!   [ 8..12)      version        u32 = 1   (also an endianness check)
//!   [12..16)      reserved       u32 = 0
//!   [16..24)      node_count     u64
//!   [24..32)      entry_count    u64
//!   [32..40)      nodes_off      u64 (page-aligned)
//!   [40..48)      entries_off    u64 (page-aligned)
//!   [48..56)      built_unix_ms  u64
//!   [56..64)      source_generation u64 (u64::MAX = none)
//!   [64..68)      nodes_crc      u32 (CRC-32 of the node section)
//!   [68..72)      entries_crc    u32 (CRC-32 of the entry section)
//!   [72..76)      header_crc     u32 (CRC-32 of bytes [0..72))
//! nodes_off       node_count   x 16-byte FrozenNode records (breadth-first)
//! entries_off     entry_count  x 16-byte entry records {base, plen, score},
//!                 sorted by (base, plen)
//! ```
//!
//! A trie built in memory holds the image in an aligned heap buffer,
//! laid out exactly as above. [`open`] maps a file and borrows both
//! sections straight from the mapping: the only work before the first
//! lookup is the header parse and bounds checks — the kernel pages node
//! records in on demand, and N processes mapping the same snapshot share
//! one physical copy. Section CRCs are *not* verified on the O(1) path
//! (that would read the whole file); [`open_verified`] and `unclean
//! snapshot inspect` check them, and the lookup walk is bounds-checked
//! and depth-bounded so even a corrupt unverified snapshot can only
//! answer wrong, never crash or loop.
//!
//! Publication is atomic: [`Image::write`] writes the image verbatim
//! (only the header is re-rendered, for its provenance) to a `.tmp`
//! sibling, fsyncs, and renames into place, so a watcher that triggers on
//! the destination path can never map a torn file. Numbers are
//! little-endian (the header `version` doubles as the check: a
//! big-endian reader sees 0x01000000 and rejects the snapshot).

// The one module in this crate allowed to use `unsafe`: the mmap FFI,
// the record/byte reinterpretations and the prefetch hint, each with its
// soundness argument at the use site. The rest of the crate stays
// deny(unsafe).
#![allow(unsafe_code)]

use std::io::{Read, Write};
use std::path::Path;

/// First bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"UNCLSNP1";
/// Current format version.
pub const VERSION: u32 = 1;
/// Sections start on page boundaries so mapped slices are maximally
/// aligned and each section starts on its own page.
pub const PAGE: u64 = 4096;
/// Bytes of header actually used (the rest of page 0 is zero).
pub const HEADER_BYTES: usize = 76;

/// Size of one node / one entry record on disk.
pub const RECORD_BYTES: usize = 16;

/// Marker for the two fixed-size record types stored in snapshot
/// sections. Implementors (crate-internal only) promise: `repr(C)`,
/// exactly [`RECORD_BYTES`] bytes, no padding, and every bit pattern is
/// a valid value — which is what makes the byte/record
/// reinterpretations below sound in both directions.
pub(crate) trait Record: Copy {}

/// View records as raw bytes (for writing a snapshot).
pub(crate) fn record_bytes<T: Record>(records: &[T]) -> &[u8] {
    debug_assert_eq!(std::mem::size_of::<T>(), RECORD_BYTES);
    // SAFETY: T is a pad-free repr(C) record (Record contract), so every
    // byte of the slice is initialized; the view covers exactly the
    // slice's memory and borrows it immutably.
    unsafe {
        std::slice::from_raw_parts(
            records.as_ptr() as *const u8,
            std::mem::size_of_val(records),
        )
    }
}

/// View a snapshot section as records (for reading a mapping in place).
/// The byte length must be a record multiple and the pointer aligned for
/// `T` — both guaranteed by the header validation in [`open`] plus the
/// page-aligned (or `u64`-aligned fallback) buffer.
pub(crate) fn cast_records<T: Record>(bytes: &[u8]) -> &[T] {
    debug_assert_eq!(std::mem::size_of::<T>(), RECORD_BYTES);
    assert_eq!(
        bytes.len() % RECORD_BYTES,
        0,
        "section not a record multiple"
    );
    assert_eq!(
        bytes.as_ptr() as usize % std::mem::align_of::<T>(),
        0,
        "section not aligned for record type"
    );
    // SAFETY: length and alignment checked above; T accepts any bit
    // pattern (Record contract); the records borrow the byte slice
    // immutably for the same lifetime.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const T, bytes.len() / RECORD_BYTES) }
}

/// Ask the CPU to start loading the cache line that holds `record`, so a
/// walk that reads it a few steps later finds it in cache. A hint only:
/// it changes no value any load returns, and it does nothing on targets
/// other than x86_64.
#[inline(always)]
pub(crate) fn prefetch<T>(record: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` (SSE, part of the x86_64 baseline) only
    // hints the cache hierarchy: it never faults and writes nothing, and
    // the pointer comes from a live reference.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((record as *const T).cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = record;
}

/// Errors from snapshot reading and writing.
#[derive(Debug)]
pub enum SnapError {
    /// Not a snapshot: bad magic.
    BadMagic,
    /// Unsupported version word (or wrong endianness).
    BadVersion(u32),
    /// The header is self-inconsistent (CRC mismatch over the header
    /// bytes).
    HeaderCrc {
        /// The CRC stored in the header.
        stored: u32,
        /// The CRC computed over the header bytes.
        computed: u32,
    },
    /// A section CRC failed under [`open_verified`].
    SectionCrc {
        /// `"nodes"` or `"entries"`.
        section: &'static str,
        /// The CRC stored in the header.
        stored: u32,
        /// The CRC computed over the section bytes.
        computed: u32,
    },
    /// Sections point outside the file (truncated or corrupt header).
    Truncated {
        /// Bytes the header claims the file holds.
        need: u64,
        /// Bytes actually present.
        have: u64,
    },
    /// Structural nonsense (zero nodes, misaligned offsets, ...).
    Malformed(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::BadMagic => write!(f, "not a frozen-trie snapshot (bad magic)"),
            SnapError::BadVersion(v) => {
                write!(f, "unsupported snapshot version {v:#x} (want {VERSION})")
            }
            SnapError::HeaderCrc { stored, computed } => write!(
                f,
                "snapshot header CRC mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            SnapError::SectionCrc {
                section,
                stored,
                computed,
            } => write!(
                f,
                "snapshot {section} section CRC mismatch \
                 (stored {stored:#010x}, computed {computed:#010x})"
            ),
            SnapError::Truncated { need, have } => {
                write!(f, "snapshot truncated: needs {need} bytes, file has {have}")
            }
            SnapError::Malformed(msg) => write!(f, "malformed snapshot: {msg}"),
            SnapError::Io(e) => write!(f, "snapshot io: {e}"),
        }
    }
}

impl std::error::Error for SnapError {}

impl From<std::io::Error> for SnapError {
    fn from(e: std::io::Error) -> SnapError {
        SnapError::Io(e)
    }
}

/// Byte-at-a-time lookup table for the reflected IEEE polynomial.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Incremental CRC-32 (IEEE 802.3 polynomial, the zlib/`cksum -o 3`
/// one): the checksum of snapshots here and of the flow archive, spool
/// and WAL in `unclean-flowgen`.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    /// A fresh accumulator.
    pub fn new() -> Crc32 {
        Crc32(0xFFFF_FFFF)
    }

    /// Feed bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.0;
        for &b in bytes {
            c = CRC_TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    /// Finalize to the checksum value.
    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

/// CRC-32 of a whole buffer.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// Provenance carried inside the snapshot header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Unix milliseconds at which the snapshot was frozen.
    pub built_unix_ms: u64,
    /// The producing pipeline's generation stamp, if any.
    pub source_generation: Option<u64>,
}

/// Everything `snapshot inspect` prints: the parsed header plus the
/// outcome of the full-section CRC verification.
#[derive(Debug, Clone)]
pub struct SnapshotInfo {
    /// Format version from the header.
    pub version: u32,
    /// Number of 16-byte trie nodes.
    pub node_count: u64,
    /// Number of 16-byte scored entries.
    pub entry_count: u64,
    /// Byte offset of the node section.
    pub nodes_off: u64,
    /// Byte offset of the entry section.
    pub entries_off: u64,
    /// Total file length in bytes.
    pub file_len: u64,
    /// Header-carried provenance.
    pub meta: SnapshotMeta,
    /// Stored CRC of the node section.
    pub nodes_crc: u32,
    /// Stored CRC of the entry section.
    pub entries_crc: u32,
    /// Stored CRC of the header bytes.
    pub header_crc: u32,
    /// Whether both section CRCs verified against the stored values.
    pub crc_ok: bool,
}

/// The parsed fixed-size header.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Header {
    pub node_count: u64,
    pub entry_count: u64,
    pub nodes_off: u64,
    pub entries_off: u64,
    pub built_unix_ms: u64,
    pub source_generation: u64,
    pub nodes_crc: u32,
    pub entries_crc: u32,
    pub header_crc: u32,
}

impl Header {
    /// The header's on-disk bytes; records their CRC in `header_crc`.
    fn render(&mut self) -> [u8; HEADER_BYTES] {
        let mut out = [0u8; HEADER_BYTES];
        out[0..8].copy_from_slice(&MAGIC);
        out[8..12].copy_from_slice(&VERSION.to_le_bytes());
        // [12..16) reserved, zero.
        out[16..24].copy_from_slice(&self.node_count.to_le_bytes());
        out[24..32].copy_from_slice(&self.entry_count.to_le_bytes());
        out[32..40].copy_from_slice(&self.nodes_off.to_le_bytes());
        out[40..48].copy_from_slice(&self.entries_off.to_le_bytes());
        out[48..56].copy_from_slice(&self.built_unix_ms.to_le_bytes());
        out[56..64].copy_from_slice(&self.source_generation.to_le_bytes());
        out[64..68].copy_from_slice(&self.nodes_crc.to_le_bytes());
        out[68..72].copy_from_slice(&self.entries_crc.to_le_bytes());
        self.header_crc = crc32(&out[0..72]);
        out[72..76].copy_from_slice(&self.header_crc.to_le_bytes());
        out
    }

    pub(crate) fn parse(bytes: &[u8]) -> Result<Header, SnapError> {
        // Magic first: a short non-snapshot file is "not a snapshot",
        // not "a truncated one".
        if bytes.len() < 8 || bytes[0..8] != MAGIC {
            return Err(SnapError::BadMagic);
        }
        if bytes.len() < HEADER_BYTES {
            return Err(SnapError::Truncated {
                need: HEADER_BYTES as u64,
                have: bytes.len() as u64,
            });
        }
        let u32_at = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4"));
        let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8"));
        let version = u32_at(8);
        if version != VERSION {
            return Err(SnapError::BadVersion(version));
        }
        let header = Header {
            node_count: u64_at(16),
            entry_count: u64_at(24),
            nodes_off: u64_at(32),
            entries_off: u64_at(40),
            built_unix_ms: u64_at(48),
            source_generation: u64_at(56),
            nodes_crc: u32_at(64),
            entries_crc: u32_at(68),
            header_crc: u32_at(72),
        };
        let computed = crc32(&bytes[0..72]);
        if computed != header.header_crc {
            return Err(SnapError::HeaderCrc {
                stored: header.header_crc,
                computed,
            });
        }
        Ok(header)
    }

    pub(crate) fn meta(&self) -> SnapshotMeta {
        SnapshotMeta {
            built_unix_ms: self.built_unix_ms,
            source_generation: (self.source_generation != u64::MAX)
                .then_some(self.source_generation),
        }
    }
}

const fn align_up(v: u64, to: u64) -> u64 {
    v.div_ceil(to) * to
}

// ---------------------------------------------------------------------
// Memory mapping
// ---------------------------------------------------------------------

/// The buffer an image lives in.
///
/// For a snapshot file on unix this is a real `mmap(PROT_READ,
/// MAP_SHARED)` — the FFI declarations bind the libc the process is
/// already linked against, no crate needed — so every process serving
/// the same snapshot shares one page-cache copy and nothing is read until
/// a lookup touches it. An image built in memory, or a file elsewhere
/// (or one the map fails on), lives in an 8-byte aligned heap buffer:
/// same bytes, same lifetime discipline, just not shared or lazy.
#[derive(Debug)]
pub(crate) enum MapBuf {
    #[cfg(unix)]
    Mapped(Mmap),
    Heap(AlignedBuf),
}

impl MapBuf {
    pub(crate) fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            MapBuf::Mapped(m) => m.bytes(),
            MapBuf::Heap(b) => b.bytes(),
        }
    }

    /// Whether this is a true shared mapping (false: heap fallback).
    pub(crate) fn is_mmap(&self) -> bool {
        match self {
            #[cfg(unix)]
            MapBuf::Mapped(_) => true,
            MapBuf::Heap(_) => false,
        }
    }
}

/// A heap buffer whose storage is `u64`-aligned, so 16-byte records can
/// be reinterpreted at section offsets exactly like a page-aligned map.
#[derive(Debug)]
pub(crate) struct AlignedBuf {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBuf {
    fn zeroed(len: usize) -> AlignedBuf {
        AlignedBuf {
            words: vec![0u64; len.div_ceil(8)],
            len,
        }
    }

    fn read_from(f: &mut std::fs::File, len: usize) -> std::io::Result<AlignedBuf> {
        let mut buf = AlignedBuf::zeroed(len);
        f.read_exact(buf.bytes_mut())?;
        Ok(buf)
    }

    fn bytes(&self) -> &[u8] {
        // SAFETY: u64 -> u8 reinterpretation of an owned, initialized
        // buffer; `len` never exceeds its `8 * words.len()` bytes.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr() as *const u8, self.len) }
    }

    fn bytes_mut(&mut self) -> &mut [u8] {
        // SAFETY: as in `bytes`, borrowed mutably through `&mut self`.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr() as *mut u8, self.len) }
    }
}

#[cfg(unix)]
mod mm {
    //! Minimal `mmap`/`munmap` FFI — the process already links libc.
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_SHARED: c_int = 1;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// An owned `mmap(2)` region, unmapped on drop.
#[cfg(unix)]
pub(crate) struct Mmap {
    ptr: *mut std::os::raw::c_void,
    len: usize,
}

#[cfg(unix)]
impl std::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mmap").field("len", &self.len).finish()
    }
}

// SAFETY: the mapping is immutable (PROT_READ) for its whole lifetime;
// sharing &[u8] views across threads is sound.
#[cfg(unix)]
unsafe impl Send for Mmap {}
#[cfg(unix)]
unsafe impl Sync for Mmap {}

#[cfg(unix)]
impl Mmap {
    fn map(f: &std::fs::File, len: usize) -> Option<Mmap> {
        use std::os::unix::io::AsRawFd;
        if len == 0 {
            return None;
        }
        // SAFETY: len > 0, fd is a valid open file; a MAP_FAILED return
        // is checked below.
        let ptr = unsafe {
            mm::mmap(
                std::ptr::null_mut(),
                len,
                mm::PROT_READ,
                mm::MAP_SHARED,
                f.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return None;
        }
        Some(Mmap { ptr, len })
    }

    fn bytes(&self) -> &[u8] {
        // SAFETY: the region [ptr, ptr+len) stays mapped until drop.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
    }
}

#[cfg(unix)]
impl Drop for Mmap {
    fn drop(&mut self) {
        // SAFETY: ptr/len are exactly what mmap returned.
        unsafe {
            mm::munmap(self.ptr, self.len);
        }
    }
}

/// A validated snapshot image: the buffer plus its parsed header. The
/// section accessors borrow the records in place.
#[derive(Debug)]
pub(crate) struct Image {
    buf: MapBuf,
    header: Header,
}

impl Image {
    /// Lay record sections out in a fresh heap image, at the offsets a
    /// snapshot file holds them, with no provenance (built at 0, no
    /// generation) until [`Image::write`] stamps some.
    pub(crate) fn build(node_bytes: &[u8], entry_bytes: &[u8]) -> Image {
        debug_assert_eq!(node_bytes.len() % RECORD_BYTES, 0);
        debug_assert_eq!(entry_bytes.len() % RECORD_BYTES, 0);
        let nodes_off = PAGE;
        let entries_off = align_up(nodes_off + node_bytes.len() as u64, PAGE);
        let mut header = Header {
            node_count: (node_bytes.len() / RECORD_BYTES) as u64,
            entry_count: (entry_bytes.len() / RECORD_BYTES) as u64,
            nodes_off,
            entries_off,
            built_unix_ms: 0,
            source_generation: u64::MAX,
            nodes_crc: crc32(node_bytes),
            entries_crc: crc32(entry_bytes),
            header_crc: 0, // set by render()
        };
        let mut buf = AlignedBuf::zeroed(entries_off as usize + entry_bytes.len());
        let bytes = buf.bytes_mut();
        bytes[..HEADER_BYTES].copy_from_slice(&header.render());
        bytes[nodes_off as usize..][..node_bytes.len()].copy_from_slice(node_bytes);
        bytes[entries_off as usize..][..entry_bytes.len()].copy_from_slice(entry_bytes);
        Image {
            buf: MapBuf::Heap(buf),
            header,
        }
    }

    /// Write the image to `path` verbatim, its header re-rendered to
    /// carry `meta`, atomically (see [`crate::publish_atomic`]).
    pub(crate) fn write(&self, path: &Path, meta: SnapshotMeta) -> Result<(), SnapError> {
        let mut header = Header {
            built_unix_ms: meta.built_unix_ms,
            source_generation: meta.source_generation.unwrap_or(u64::MAX),
            ..self.header
        };
        crate::publish_atomic(path, |f| {
            f.write_all(&header.render())?;
            f.write_all(&self.buf.bytes()[HEADER_BYTES..])
        })?;
        Ok(())
    }

    pub(crate) fn meta(&self) -> SnapshotMeta {
        self.header.meta()
    }

    /// The image's length in bytes (a snapshot file's length).
    pub(crate) fn len(&self) -> usize {
        self.buf.bytes().len()
    }

    pub(crate) fn is_mmap(&self) -> bool {
        self.buf.is_mmap()
    }

    pub(crate) fn node_bytes(&self) -> &[u8] {
        let off = self.header.nodes_off as usize;
        let len = self.header.node_count as usize * RECORD_BYTES;
        &self.buf.bytes()[off..off + len]
    }

    pub(crate) fn entry_bytes(&self) -> &[u8] {
        let off = self.header.entries_off as usize;
        let len = self.header.entry_count as usize * RECORD_BYTES;
        &self.buf.bytes()[off..off + len]
    }
}

/// Map `path` and validate the header: magic, version, header CRC, and
/// that both sections lie inside the file at aligned offsets. O(1) in
/// the snapshot size — section CRCs are NOT checked (see
/// [`open_verified`]).
pub(crate) fn open(path: &Path) -> Result<Image, SnapError> {
    let mut f = std::fs::File::open(path)?;
    let file_len = f.metadata()?.len();
    let buf = {
        #[cfg(unix)]
        {
            match Mmap::map(&f, file_len as usize) {
                Some(m) => MapBuf::Mapped(m),
                None => MapBuf::Heap(AlignedBuf::read_from(&mut f, file_len as usize)?),
            }
        }
        #[cfg(not(unix))]
        {
            MapBuf::Heap(AlignedBuf::read_from(&mut f, file_len as usize)?)
        }
    };
    let header = Header::parse(buf.bytes())?;
    let section_end = |off: u64, count: u64| -> Result<u64, SnapError> {
        let len = count
            .checked_mul(RECORD_BYTES as u64)
            .ok_or_else(|| SnapError::Malformed("section length overflows".into()))?;
        off.checked_add(len)
            .ok_or_else(|| SnapError::Malformed("section end overflows".into()))
    };
    let nodes_end = section_end(header.nodes_off, header.node_count)?;
    let entries_end = section_end(header.entries_off, header.entry_count)?;
    let need = nodes_end.max(entries_end);
    if need > file_len {
        return Err(SnapError::Truncated {
            need,
            have: file_len,
        });
    }
    if header.nodes_off % 8 != 0 || header.entries_off % 8 != 0 {
        return Err(SnapError::Malformed(
            "section offsets not 8-byte aligned".into(),
        ));
    }
    if header.nodes_off < HEADER_BYTES as u64 || nodes_end > header.entries_off {
        return Err(SnapError::Malformed(
            "sections overlap the header or each other".into(),
        ));
    }
    if header.node_count == 0 {
        return Err(SnapError::Malformed("zero nodes (no root)".into()));
    }
    Ok(Image { buf, header })
}

/// [`open`], plus full CRC verification of both sections — O(file size),
/// for tools and tests rather than the serving cold-start path.
pub(crate) fn open_verified(path: &Path) -> Result<Image, SnapError> {
    let snap = open(path)?;
    for (section, bytes, stored) in [
        ("nodes", snap.node_bytes(), snap.header.nodes_crc),
        ("entries", snap.entry_bytes(), snap.header.entries_crc),
    ] {
        let computed = crc32(bytes);
        if computed != stored {
            return Err(SnapError::SectionCrc {
                section,
                stored,
                computed,
            });
        }
    }
    Ok(snap)
}

/// Parse and fully verify a snapshot for `unclean snapshot inspect`.
pub fn inspect(path: &Path) -> Result<SnapshotInfo, SnapError> {
    let snap = open(path)?;
    let crc_ok = crc32(snap.node_bytes()) == snap.header.nodes_crc
        && crc32(snap.entry_bytes()) == snap.header.entries_crc;
    Ok(SnapshotInfo {
        version: VERSION,
        node_count: snap.header.node_count,
        entry_count: snap.header.entry_count,
        nodes_off: snap.header.nodes_off,
        entries_off: snap.header.entries_off,
        file_len: snap.len() as u64,
        meta: snap.meta(),
        nodes_crc: snap.header.nodes_crc,
        entries_crc: snap.header.entries_crc,
        header_crc: snap.header.header_crc,
        crc_ok,
    })
}

/// Sniff whether `path` looks like a snapshot (starts with the magic)
/// without reading the rest — how `unclean serve` decides between text
/// blocklist and binary snapshot sources.
pub fn is_snapshot(path: &Path) -> bool {
    let mut head = [0u8; 8];
    std::fs::File::open(path)
        .and_then(|mut f| f.read_exact(&mut head))
        .map(|_| head == MAGIC)
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_streaming_equals_one_shot() {
        let bytes: Vec<u8> = (0..1000u32).map(|i| (i * 37 % 251) as u8).collect();
        for split in [0, 1, 7, 500, 999, 1000] {
            let mut c = Crc32::new();
            c.update(&bytes[..split]);
            c.update(&bytes[split..]);
            assert_eq!(c.finish(), crc32(&bytes), "split at {split}");
        }
    }

    #[test]
    fn header_roundtrip_and_crc() {
        let mut h = Header {
            node_count: 3,
            entry_count: 2,
            nodes_off: PAGE,
            entries_off: PAGE * 2,
            built_unix_ms: 1_754_700_000_123,
            source_generation: 41,
            nodes_crc: 0xDEAD_BEEF,
            entries_crc: 0xFEED_FACE,
            header_crc: 0,
        };
        let bytes = h.render();
        let parsed = Header::parse(&bytes).expect("parse");
        assert_eq!(parsed.node_count, 3);
        assert_eq!(parsed.entry_count, 2);
        assert_eq!(parsed.meta().source_generation, Some(41));

        // Flip one meta byte: the header CRC must catch it.
        let mut bad = bytes;
        bad[50] ^= 0x01;
        assert!(matches!(
            Header::parse(&bad),
            Err(SnapError::HeaderCrc { .. })
        ));

        // Wrong magic is a different, clearer error.
        let mut not_snap = bytes;
        not_snap[0] = b'X';
        assert!(matches!(Header::parse(&not_snap), Err(SnapError::BadMagic)));
    }

    #[test]
    fn align_up_is_page_math() {
        assert_eq!(align_up(0, PAGE), 0);
        assert_eq!(align_up(1, PAGE), PAGE);
        assert_eq!(align_up(PAGE, PAGE), PAGE);
        assert_eq!(align_up(PAGE + 1, PAGE), 2 * PAGE);
    }
}
