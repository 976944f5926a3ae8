//! Cisco NetFlow V5 wire format.
//!
//! §6.1: "The traffic data used in this analysis consists of CISCO NetFlow
//! V5 records. NetFlow records are a representation of approximate sessions
//! consisting of a log of all identically addressed packets within a
//! limited time. Flow records are a compact representation of traffic, but
//! do not contain payload."
//!
//! This module implements the actual V5 export datagram layout — a 24-byte
//! header followed by up to 30 48-byte flow records — so that synthetic
//! traffic can round-trip through the same representation an operational
//! collector would store.

use serde::{Deserialize, Serialize};

/// NetFlow V5 protocol version constant.
pub const V5_VERSION: u16 = 5;
/// Size of the export header in bytes.
pub const V5_HEADER_LEN: usize = 24;
/// Size of one flow record in bytes.
pub const V5_RECORD_LEN: usize = 48;
/// Maximum records per datagram, per the Cisco specification.
pub const V5_MAX_RECORDS: usize = 30;

/// Unix timestamp of the scenario epoch, 2006-01-01T00:00:00Z.
pub const EPOCH_UNIX_SECS: u32 = 1_136_073_600;

/// The last whole second after its exporter's boot at which a flow can
/// start: a record's `first` is 32-bit milliseconds of uptime, which
/// wraps 2³² ms (~49.7 days) after boot.
pub const V5_HORIZON_SECS: i64 = (1 << 32) / 1000;

/// TCP flag bits as they appear in the `tcp_flags` record field.
pub mod tcp_flags {
    /// FIN.
    pub const FIN: u8 = 0x01;
    /// SYN.
    pub const SYN: u8 = 0x02;
    /// RST.
    pub const RST: u8 = 0x04;
    /// PSH.
    pub const PSH: u8 = 0x08;
    /// ACK.
    pub const ACK: u8 = 0x10;
    /// URG.
    pub const URG: u8 = 0x20;
}

/// IP protocol numbers used by the generator.
pub mod proto {
    /// TCP.
    pub const TCP: u8 = 6;
    /// UDP.
    pub const UDP: u8 = 17;
    /// ICMP.
    pub const ICMP: u8 = 1;
}

/// The V5 export header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct V5Header {
    /// Record count in this datagram (1–30).
    pub count: u16,
    /// Milliseconds since the exporting device booted.
    pub sys_uptime_ms: u32,
    /// Export time, Unix seconds.
    pub unix_secs: u32,
    /// Export time, residual nanoseconds.
    pub unix_nsecs: u32,
    /// Total flows seen by the exporter (sequence number).
    pub flow_sequence: u32,
    /// Exporter engine type.
    pub engine_type: u8,
    /// Exporter engine slot.
    pub engine_id: u8,
    /// Sampling mode and interval.
    pub sampling_interval: u16,
}

/// One V5 flow record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct V5Record {
    /// Source IPv4 address.
    pub srcaddr: u32,
    /// Destination IPv4 address.
    pub dstaddr: u32,
    /// Next-hop router address.
    pub nexthop: u32,
    /// SNMP input interface index.
    pub input: u16,
    /// SNMP output interface index.
    pub output: u16,
    /// Packets in the flow.
    pub d_pkts: u32,
    /// Total layer-3 octets in the flow.
    pub d_octets: u32,
    /// SysUptime at flow start (ms).
    pub first: u32,
    /// SysUptime at flow end (ms).
    pub last: u32,
    /// Source port.
    pub srcport: u16,
    /// Destination port.
    pub dstport: u16,
    /// Cumulative OR of TCP flags.
    pub tcp_flags: u8,
    /// IP protocol.
    pub prot: u8,
    /// Type of service.
    pub tos: u8,
    /// Source AS number.
    pub src_as: u16,
    /// Destination AS number.
    pub dst_as: u16,
    /// Source prefix mask bits.
    pub src_mask: u8,
    /// Destination prefix mask bits.
    pub dst_mask: u8,
}

/// Errors from decoding a V5 datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input shorter than a header.
    Truncated {
        /// Bytes required.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// Version field was not 5.
    BadVersion(u16),
    /// Record count outside 1..=30 or inconsistent with the payload size.
    BadCount(u16),
    /// A varint ran past 10 bytes or overflowed 64 bits (v2 framing).
    BadVarint,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { needed, got } => {
                write!(f, "truncated datagram: need {needed} bytes, have {got}")
            }
            DecodeError::BadVersion(v) => write!(f, "not a NetFlow V5 datagram (version {v})"),
            DecodeError::BadCount(c) => write!(f, "invalid record count {c}"),
            DecodeError::BadVarint => write!(f, "malformed varint"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encode a header + records into one export datagram.
///
/// Panics if `records` is empty or exceeds [`V5_MAX_RECORDS`], or if
/// `header.count` disagrees with `records.len()`.
pub fn encode_datagram(header: &V5Header, records: &[V5Record]) -> Vec<u8> {
    assert!(
        !records.is_empty() && records.len() <= V5_MAX_RECORDS,
        "V5 datagrams carry 1..=30 records, got {}",
        records.len()
    );
    assert_eq!(
        header.count as usize,
        records.len(),
        "header count mismatch"
    );
    let mut buf = Vec::with_capacity(V5_HEADER_LEN + records.len() * V5_RECORD_LEN);
    buf.extend_from_slice(&V5_VERSION.to_be_bytes());
    buf.extend_from_slice(&header.count.to_be_bytes());
    buf.extend_from_slice(&header.sys_uptime_ms.to_be_bytes());
    buf.extend_from_slice(&header.unix_secs.to_be_bytes());
    buf.extend_from_slice(&header.unix_nsecs.to_be_bytes());
    buf.extend_from_slice(&header.flow_sequence.to_be_bytes());
    buf.extend_from_slice(&[header.engine_type, header.engine_id]);
    buf.extend_from_slice(&header.sampling_interval.to_be_bytes());
    for r in records {
        buf.extend_from_slice(&r.srcaddr.to_be_bytes());
        buf.extend_from_slice(&r.dstaddr.to_be_bytes());
        buf.extend_from_slice(&r.nexthop.to_be_bytes());
        buf.extend_from_slice(&r.input.to_be_bytes());
        buf.extend_from_slice(&r.output.to_be_bytes());
        buf.extend_from_slice(&r.d_pkts.to_be_bytes());
        buf.extend_from_slice(&r.d_octets.to_be_bytes());
        buf.extend_from_slice(&r.first.to_be_bytes());
        buf.extend_from_slice(&r.last.to_be_bytes());
        buf.extend_from_slice(&r.srcport.to_be_bytes());
        buf.extend_from_slice(&r.dstport.to_be_bytes());
        // pad1, then the flags, protocol and type of service.
        buf.extend_from_slice(&[0, r.tcp_flags, r.prot, r.tos]);
        buf.extend_from_slice(&r.src_as.to_be_bytes());
        buf.extend_from_slice(&r.dst_as.to_be_bytes());
        // The masks, then pad2.
        buf.extend_from_slice(&[r.src_mask, r.dst_mask, 0, 0]);
    }
    buf
}

/// The big-endian u16 at `at`; the caller has checked the length.
fn be16(data: &[u8], at: usize) -> u16 {
    u16::from_be_bytes([data[at], data[at + 1]])
}

/// The big-endian u32 at `at`; the caller has checked the length.
fn be32(data: &[u8], at: usize) -> u32 {
    u32::from_be_bytes([data[at], data[at + 1], data[at + 2], data[at + 3]])
}

/// Decode one export datagram. Bytes past the last record are ignored.
pub fn decode_datagram(data: &[u8]) -> Result<(V5Header, Vec<V5Record>), DecodeError> {
    if data.len() < V5_HEADER_LEN {
        return Err(DecodeError::Truncated {
            needed: V5_HEADER_LEN,
            got: data.len(),
        });
    }
    let version = be16(data, 0);
    if version != V5_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let count = be16(data, 2);
    if count == 0 || count as usize > V5_MAX_RECORDS {
        return Err(DecodeError::BadCount(count));
    }
    let header = V5Header {
        count,
        sys_uptime_ms: be32(data, 4),
        unix_secs: be32(data, 8),
        unix_nsecs: be32(data, 12),
        flow_sequence: be32(data, 16),
        engine_type: data[20],
        engine_id: data[21],
        sampling_interval: be16(data, 22),
    };
    let needed = V5_HEADER_LEN + count as usize * V5_RECORD_LEN;
    if data.len() < needed {
        return Err(DecodeError::Truncated {
            needed,
            got: data.len(),
        });
    }
    let records = data[V5_HEADER_LEN..needed]
        .chunks_exact(V5_RECORD_LEN)
        .map(|r| V5Record {
            srcaddr: be32(r, 0),
            dstaddr: be32(r, 4),
            nexthop: be32(r, 8),
            input: be16(r, 12),
            output: be16(r, 14),
            d_pkts: be32(r, 16),
            d_octets: be32(r, 20),
            first: be32(r, 24),
            last: be32(r, 28),
            srcport: be16(r, 32),
            dstport: be16(r, 34),
            // r[36] is pad1.
            tcp_flags: r[37],
            prot: r[38],
            tos: r[39],
            src_as: be16(r, 40),
            dst_as: be16(r, 42),
            src_mask: r[44],
            dst_mask: r[45],
            // r[46..48] is pad2.
        })
        .collect();
    Ok((header, records))
}

/// Append `v` as an LEB128 varint (7 bits per byte, high bit = continue).
#[inline]
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Why a read of outside bytes failed. One byte, so the readers below
/// return in registers; the position the read stopped at completes it
/// into a [`DecodeError`] on the failure path only.
#[derive(Debug, Clone, Copy)]
enum Fail {
    /// The input ended at the position.
    Truncated,
    /// A varint ran past 10 bytes or overflowed 64 bits, or its value
    /// does not fit the field.
    BadVarint,
}

impl Fail {
    /// The error of a read of `data` that stopped at `pos`.
    #[cold]
    fn at(self, data: &[u8], pos: usize) -> DecodeError {
        match self {
            Fail::Truncated => DecodeError::Truncated {
                needed: pos + 1,
                got: data.len(),
            },
            Fail::BadVarint => DecodeError::BadVarint,
        }
    }
}

/// Read an LEB128 varint at `*pos`. `*pos` ends past the last byte read,
/// on failure too.
#[inline(always)]
fn read_varint(data: &[u8], pos: &mut usize) -> Result<u64, Fail> {
    let mut v = 0u64;
    for shift in (0..63).step_by(7) {
        let byte = read_u8(data, pos)?;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    // The tenth byte holds bit 63 alone, so it is 0 or 1 and ends the
    // varint.
    match read_u8(data, pos)? {
        last @ (0 | 1) => Ok(v | u64::from(last) << 63),
        _ => Err(Fail::BadVarint),
    }
}

/// Read a varint that must fit a u16.
#[inline(always)]
fn read_u16(data: &[u8], pos: &mut usize) -> Result<u16, Fail> {
    u16::try_from(read_varint(data, pos)?).map_err(|_| Fail::BadVarint)
}

/// Read a [`delta32`] and apply it to `prev`.
#[inline(always)]
fn read_delta32(prev: u32, data: &[u8], pos: &mut usize) -> Result<u32, Fail> {
    let v = u32::try_from(read_varint(data, pos)?).map_err(|_| Fail::BadVarint)?;
    Ok(prev.wrapping_add(unzigzag(v) as u32))
}

/// Read one raw byte.
#[inline(always)]
fn read_u8(data: &[u8], pos: &mut usize) -> Result<u8, Fail> {
    let byte = *data.get(*pos).ok_or(Fail::Truncated)?;
    *pos += 1;
    Ok(byte)
}

/// Read an LEB128 varint from `data` at `*pos`, advancing `*pos`.
#[inline]
pub fn get_uvarint(data: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    read_varint(data, pos).map_err(|fail| fail.at(data, *pos))
}

/// Zigzag-map a signed 32-bit delta so small magnitudes of either sign
/// varint-encode short.
#[inline]
pub fn zigzag32(v: i32) -> u64 {
    (((v << 1) ^ (v >> 31)) as u32) as u64
}

/// Inverse of [`zigzag32`]; errors if the value does not fit 32 bits.
#[inline]
pub fn unzigzag32(v: u64) -> Result<i32, DecodeError> {
    let v = u32::try_from(v).map_err(|_| DecodeError::BadVarint)?;
    Ok(unzigzag(v))
}

/// Inverse of [`zigzag32`] on a value already known to fit 32 bits.
#[inline(always)]
fn unzigzag(v: u32) -> i32 {
    ((v >> 1) as i32) ^ -((v & 1) as i32)
}

/// Delta of `cur` against `prev` on the u32 circle, zigzagged so the
/// common close-together case stays short and the wrap case stays exact.
#[inline]
fn delta32(cur: u32, prev: u32) -> u64 {
    zigzag32(cur.wrapping_sub(prev) as i32)
}

/// Encode a header + records as a **v2 compressed datagram body** (no
/// frame length — the segment writer prepends a varint frame).
///
/// Every u32 field is a zigzag varint delta against the previous record
/// (the first record deltas against an all-zero record), which is where
/// the compression comes from: consecutive records in a datagram share
/// address prefixes and near-identical timestamps. `last` is carried as a
/// delta against the record's own `first` (the flow duration). u16 fields
/// are plain varints and u8 fields raw bytes.
///
/// Panics under the same preconditions as [`encode_datagram`].
pub fn encode_datagram_v2(header: &V5Header, records: &[V5Record], out: &mut Vec<u8>) {
    assert!(
        !records.is_empty() && records.len() <= V5_MAX_RECORDS,
        "V5 datagrams carry 1..=30 records, got {}",
        records.len()
    );
    assert_eq!(
        header.count as usize,
        records.len(),
        "header count mismatch"
    );
    put_uvarint(out, u64::from(header.count));
    put_uvarint(out, u64::from(header.sys_uptime_ms));
    put_uvarint(out, u64::from(header.unix_secs));
    put_uvarint(out, u64::from(header.unix_nsecs));
    put_uvarint(out, u64::from(header.flow_sequence));
    out.push(header.engine_type);
    out.push(header.engine_id);
    put_uvarint(out, u64::from(header.sampling_interval));
    let mut prev = V5Record::default();
    for r in records {
        put_uvarint(out, delta32(r.srcaddr, prev.srcaddr));
        put_uvarint(out, delta32(r.dstaddr, prev.dstaddr));
        put_uvarint(out, delta32(r.nexthop, prev.nexthop));
        put_uvarint(out, u64::from(r.input));
        put_uvarint(out, u64::from(r.output));
        put_uvarint(out, delta32(r.d_pkts, prev.d_pkts));
        put_uvarint(out, delta32(r.d_octets, prev.d_octets));
        put_uvarint(out, delta32(r.first, prev.first));
        put_uvarint(out, delta32(r.last, r.first));
        put_uvarint(out, u64::from(r.srcport));
        put_uvarint(out, u64::from(r.dstport));
        out.push(r.tcp_flags);
        out.push(r.prot);
        out.push(r.tos);
        put_uvarint(out, u64::from(r.src_as));
        put_uvarint(out, u64::from(r.dst_as));
        out.push(r.src_mask);
        out.push(r.dst_mask);
        prev = *r;
    }
}

/// Decode the v2 datagram header at `*pos`, leaving `*pos` on the first
/// record. Use a [`V2RecordCursor`] over the same slice to walk records.
pub fn decode_header_v2(data: &[u8], pos: &mut usize) -> Result<V5Header, DecodeError> {
    let count_raw = get_uvarint(data, pos)?;
    let count = u16::try_from(count_raw).map_err(|_| DecodeError::BadCount(u16::MAX))?;
    if count == 0 || count as usize > V5_MAX_RECORDS {
        return Err(DecodeError::BadCount(count));
    }
    let read_u32 = |data: &[u8], pos: &mut usize| -> Result<u32, DecodeError> {
        u32::try_from(get_uvarint(data, pos)?).map_err(|_| DecodeError::BadVarint)
    };
    let sys_uptime_ms = read_u32(data, pos)?;
    let unix_secs = read_u32(data, pos)?;
    let unix_nsecs = read_u32(data, pos)?;
    let flow_sequence = read_u32(data, pos)?;
    let (engine_type, engine_id) = match (data.get(*pos), data.get(*pos + 1)) {
        (Some(&t), Some(&i)) => (t, i),
        _ => {
            return Err(DecodeError::Truncated {
                needed: *pos + 2,
                got: data.len(),
            })
        }
    };
    *pos += 2;
    let sampling_interval =
        u16::try_from(get_uvarint(data, pos)?).map_err(|_| DecodeError::BadVarint)?;
    Ok(V5Header {
        count,
        sys_uptime_ms,
        unix_secs,
        unix_nsecs,
        flow_sequence,
        engine_type,
        engine_id,
        sampling_interval,
    })
}

/// Zero-allocation walk over the delta-encoded records of one v2
/// datagram. Borrows the datagram bytes; each [`V5Record`] is produced by
/// value (it is `Copy`), so draining a datagram allocates nothing.
#[derive(Debug)]
pub struct V2RecordCursor<'a> {
    data: &'a [u8],
    pos: usize,
    remaining: u16,
    prev: V5Record,
}

impl<'a> V2RecordCursor<'a> {
    /// A cursor starting at `pos` (just past the header) with `count`
    /// records ahead.
    pub fn new(data: &'a [u8], pos: usize, count: u16) -> V2RecordCursor<'a> {
        V2RecordCursor {
            data,
            pos,
            remaining: count,
            prev: V5Record::default(),
        }
    }

    /// Position in the underlying slice after the records consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Records not yet decoded.
    pub fn remaining(&self) -> u16 {
        self.remaining
    }

    /// Decode the next record; `Ok(None)` once `count` records were read.
    /// A failed record leaves the cursor where the failing read stopped.
    pub fn next_record(&mut self) -> Result<Option<V5Record>, DecodeError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let mut pos = self.pos;
        let decoded = decode_record(self.data, &mut pos, &self.prev);
        self.pos = pos;
        let record = decoded.map_err(|fail| fail.at(self.data, pos))?;
        self.prev = record;
        self.remaining -= 1;
        Ok(Some(record))
    }
}

/// The v2 record layout, the inverse of [`encode_datagram_v2`]'s loop:
/// one record at `*pos`, delta-decoded against `prev`.
#[inline(always)]
fn decode_record(data: &[u8], pos: &mut usize, prev: &V5Record) -> Result<V5Record, Fail> {
    let srcaddr = read_delta32(prev.srcaddr, data, pos)?;
    let dstaddr = read_delta32(prev.dstaddr, data, pos)?;
    let nexthop = read_delta32(prev.nexthop, data, pos)?;
    let input = read_u16(data, pos)?;
    let output = read_u16(data, pos)?;
    let d_pkts = read_delta32(prev.d_pkts, data, pos)?;
    let d_octets = read_delta32(prev.d_octets, data, pos)?;
    let first = read_delta32(prev.first, data, pos)?;
    let last = read_delta32(first, data, pos)?;
    let srcport = read_u16(data, pos)?;
    let dstport = read_u16(data, pos)?;
    let tcp_flags = read_u8(data, pos)?;
    let prot = read_u8(data, pos)?;
    let tos = read_u8(data, pos)?;
    let src_as = read_u16(data, pos)?;
    let dst_as = read_u16(data, pos)?;
    let src_mask = read_u8(data, pos)?;
    let dst_mask = read_u8(data, pos)?;
    Ok(V5Record {
        srcaddr,
        dstaddr,
        nexthop,
        input,
        output,
        d_pkts,
        d_octets,
        first,
        last,
        srcport,
        dstport,
        tcp_flags,
        prot,
        tos,
        src_as,
        dst_as,
        src_mask,
        dst_mask,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(i: u32) -> V5Record {
        V5Record {
            srcaddr: 0x0a00_0001 + i,
            dstaddr: 0x1e00_0001,
            nexthop: 0x1e00_00fe,
            input: 1,
            output: 2,
            d_pkts: 3 + i,
            d_octets: 180 + i,
            first: 1000,
            last: 2000,
            srcport: (1024 + i) as u16,
            dstport: 80,
            tcp_flags: tcp_flags::SYN | tcp_flags::ACK,
            prot: proto::TCP,
            tos: 0,
            src_as: 65000,
            dst_as: 64999,
            src_mask: 24,
            dst_mask: 16,
        }
    }

    fn header(n: u16) -> V5Header {
        V5Header {
            count: n,
            sys_uptime_ms: 123_456,
            unix_secs: EPOCH_UNIX_SECS,
            unix_nsecs: 42,
            flow_sequence: 7,
            engine_type: 0,
            engine_id: 1,
            sampling_interval: 0,
        }
    }

    #[test]
    fn round_trip_single() {
        let recs = vec![record(0)];
        let bytes = encode_datagram(&header(1), &recs);
        assert_eq!(bytes.len(), V5_HEADER_LEN + V5_RECORD_LEN);
        let (h, r) = decode_datagram(&bytes).expect("valid");
        assert_eq!(h, header(1));
        assert_eq!(r, recs);
    }

    #[test]
    fn round_trip_full_datagram() {
        let recs: Vec<V5Record> = (0..30).map(record).collect();
        let bytes = encode_datagram(&header(30), &recs);
        assert_eq!(bytes.len(), V5_HEADER_LEN + 30 * V5_RECORD_LEN);
        let (h, r) = decode_datagram(&bytes).expect("valid");
        assert_eq!(h.count, 30);
        assert_eq!(r, recs);
    }

    #[test]
    fn wire_layout_is_big_endian_and_versioned() {
        let bytes = encode_datagram(&header(1), &[record(0)]);
        assert_eq!(&bytes[0..2], &[0, 5], "version 5, network order");
        assert_eq!(&bytes[2..4], &[0, 1], "count 1");
        // srcaddr at offset 24.
        assert_eq!(&bytes[24..28], &[0x0a, 0, 0, 1]);
        // dstport at offset 24 + 34 = 58.
        assert_eq!(&bytes[58..60], &[0, 80]);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(matches!(
            decode_datagram(&[]),
            Err(DecodeError::Truncated { .. })
        ));
        assert!(matches!(
            decode_datagram(&[0u8; V5_HEADER_LEN - 1]),
            Err(DecodeError::Truncated { .. })
        ));
        // Wrong version.
        let mut bytes = encode_datagram(&header(1), &[record(0)]);
        bytes[1] = 9;
        assert_eq!(decode_datagram(&bytes), Err(DecodeError::BadVersion(9)));
        // Count beyond payload.
        let mut bytes = encode_datagram(&header(1), &[record(0)]);
        bytes[3] = 5;
        assert!(matches!(
            decode_datagram(&bytes),
            Err(DecodeError::Truncated { .. })
        ));
        // Zero count.
        let mut bytes = encode_datagram(&header(1), &[record(0)]);
        bytes[3] = 0;
        assert_eq!(decode_datagram(&bytes), Err(DecodeError::BadCount(0)));
    }

    #[test]
    #[should_panic(expected = "1..=30 records")]
    fn encode_rejects_oversized() {
        let recs: Vec<V5Record> = (0..31).map(record).collect();
        let _ = encode_datagram(&header(31), &recs);
    }

    #[test]
    #[should_panic(expected = "count mismatch")]
    fn encode_rejects_count_mismatch() {
        let _ = encode_datagram(&header(2), &[record(0)]);
    }

    #[test]
    fn error_messages() {
        assert!(DecodeError::BadVersion(9).to_string().contains("version 9"));
        assert!(DecodeError::BadCount(0).to_string().contains('0'));
        assert!(DecodeError::Truncated { needed: 24, got: 3 }
            .to_string()
            .contains("24"));
        assert!(DecodeError::BadVarint.to_string().contains("varint"));
    }

    #[test]
    fn uvarint_round_trip() {
        let mut buf = Vec::new();
        let values = [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &values {
            put_uvarint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_uvarint(&buf, &mut pos).expect("valid"), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn uvarint_rejects_overlong_and_truncated() {
        // 10 continuation bytes with a high final byte overflow 64 bits.
        let overlong = [0xffu8; 11];
        let mut pos = 0;
        assert_eq!(
            get_uvarint(&overlong, &mut pos),
            Err(DecodeError::BadVarint)
        );
        // A dangling continuation bit truncates.
        let mut pos = 0;
        assert!(matches!(
            get_uvarint(&[0x80], &mut pos),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i32, 1, -1, 63, -64, i32::MAX, i32::MIN] {
            assert_eq!(unzigzag32(zigzag32(v)).expect("fits"), v);
        }
        assert_eq!(zigzag32(0), 0);
        assert_eq!(zigzag32(-1), 1, "small magnitudes encode short");
        assert!(unzigzag32(u64::from(u32::MAX) + 1).is_err());
    }

    fn decode_v2(body: &[u8]) -> (V5Header, Vec<V5Record>) {
        let mut pos = 0;
        let header = decode_header_v2(body, &mut pos).expect("header");
        let mut cursor = V2RecordCursor::new(body, pos, header.count);
        let mut records = Vec::new();
        while let Some(r) = cursor.next_record().expect("record") {
            records.push(r);
        }
        assert_eq!(cursor.pos(), body.len(), "cursor consumed the body");
        (header, records)
    }

    #[test]
    fn v2_round_trip_typical() {
        let recs: Vec<V5Record> = (0..30).map(record).collect();
        let mut body = Vec::new();
        encode_datagram_v2(&header(30), &recs, &mut body);
        let (h, r) = decode_v2(&body);
        assert_eq!(h, header(30));
        assert_eq!(r, recs);
        // Consecutive near-identical records delta-compress well below the
        // fixed 48-byte wire records.
        assert!(
            body.len() < V5_HEADER_LEN + 30 * V5_RECORD_LEN * 2 / 3,
            "compressed body {} bytes",
            body.len()
        );
    }

    /// The satellite regression: a 30-record datagram at worst-case field
    /// widths. Every u32 delta alternates across the full circle (5-byte
    /// varints everywhere), so this body is *larger* than the fixed v1
    /// encoding — the exact shape whose frame length a u16 prefix cannot
    /// be trusted to carry as fields grow. v2's varint frames and this
    /// round trip are the guard.
    #[test]
    fn v2_round_trip_worst_case_widths() {
        // Alternating 0 ↔ 2^31 maximizes every zigzag delta magnitude
        // (|delta| = 2^31 → 5-byte varints), unlike 0 ↔ u32::MAX whose
        // wrapping delta is ±1.
        const HALF: u32 = 1 << 31;
        let recs: Vec<V5Record> = (0..30)
            .map(|i| {
                let hi = i % 2 == 0;
                V5Record {
                    srcaddr: if hi { HALF } else { 0 },
                    dstaddr: if hi { 0 } else { HALF },
                    nexthop: if hi { HALF } else { 0 },
                    input: u16::MAX,
                    output: u16::MAX,
                    d_pkts: if hi { HALF } else { 0 },
                    d_octets: if hi { 0 } else { HALF },
                    first: if hi { HALF } else { 0 },
                    last: if hi { 0 } else { HALF },
                    srcport: u16::MAX,
                    dstport: u16::MAX,
                    tcp_flags: 0xff,
                    prot: 0xff,
                    tos: 0xff,
                    src_as: u16::MAX,
                    dst_as: u16::MAX,
                    src_mask: 32,
                    dst_mask: 32,
                }
            })
            .collect();
        let h = V5Header {
            count: 30,
            sys_uptime_ms: u32::MAX,
            unix_secs: u32::MAX,
            unix_nsecs: u32::MAX,
            flow_sequence: u32::MAX,
            engine_type: u8::MAX,
            engine_id: u8::MAX,
            sampling_interval: u16::MAX,
        };
        let mut body = Vec::new();
        encode_datagram_v2(&h, &recs, &mut body);
        assert!(
            body.len() > V5_HEADER_LEN + 30 * V5_RECORD_LEN,
            "worst case ({} bytes) exceeds the fixed v1 datagram",
            body.len()
        );
        let (dh, dr) = decode_v2(&body);
        assert_eq!(dh, h);
        assert_eq!(dr, recs);
    }

    #[test]
    fn v2_decode_rejects_garbage() {
        let mut body = Vec::new();
        encode_datagram_v2(&header(2), &[record(0), record(1)], &mut body);
        // Truncate mid-record.
        let cut = &body[..body.len() - 4];
        let mut pos = 0;
        let h = decode_header_v2(cut, &mut pos).expect("header intact");
        let mut cursor = V2RecordCursor::new(cut, pos, h.count);
        assert!(cursor.next_record().expect("first record fits").is_some());
        assert!(matches!(
            cursor.next_record(),
            Err(DecodeError::Truncated { .. })
        ));
        // Zero count.
        let mut pos = 0;
        assert_eq!(
            decode_header_v2(&[0u8], &mut pos),
            Err(DecodeError::BadCount(0))
        );
        // Count over 30.
        let mut pos = 0;
        assert_eq!(
            decode_header_v2(&[31u8], &mut pos),
            Err(DecodeError::BadCount(31))
        );
    }

    /// The checked v2 decoder as it read before its records went through
    /// the lean readers: the reference the lean path must agree with on
    /// every input, result and cursor position alike.
    mod reference {
        use super::super::{DecodeError, V5Header, V5Record, V5_MAX_RECORDS};

        pub fn get_uvarint(data: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
            if let Some(&byte) = data.get(*pos) {
                if byte & 0x80 == 0 {
                    *pos += 1;
                    return Ok(u64::from(byte));
                }
            }
            let mut v = 0u64;
            let mut shift = 0u32;
            loop {
                let Some(&byte) = data.get(*pos) else {
                    return Err(DecodeError::Truncated {
                        needed: *pos + 1,
                        got: data.len(),
                    });
                };
                *pos += 1;
                if shift == 63 && byte > 1 {
                    return Err(DecodeError::BadVarint);
                }
                v |= u64::from(byte & 0x7f) << shift;
                if byte & 0x80 == 0 {
                    return Ok(v);
                }
                shift += 7;
                if shift > 63 {
                    return Err(DecodeError::BadVarint);
                }
            }
        }

        fn apply_delta32(prev: u32, encoded: u64) -> Result<u32, DecodeError> {
            let v = u32::try_from(encoded).map_err(|_| DecodeError::BadVarint)?;
            let delta = ((v >> 1) as i32) ^ -((v & 1) as i32);
            Ok(prev.wrapping_add(delta as u32))
        }

        pub fn decode_header_v2(data: &[u8], pos: &mut usize) -> Result<V5Header, DecodeError> {
            let count_raw = get_uvarint(data, pos)?;
            let count = u16::try_from(count_raw).map_err(|_| DecodeError::BadCount(u16::MAX))?;
            if count == 0 || count as usize > V5_MAX_RECORDS {
                return Err(DecodeError::BadCount(count));
            }
            let read_u32 = |data: &[u8], pos: &mut usize| -> Result<u32, DecodeError> {
                u32::try_from(get_uvarint(data, pos)?).map_err(|_| DecodeError::BadVarint)
            };
            let sys_uptime_ms = read_u32(data, pos)?;
            let unix_secs = read_u32(data, pos)?;
            let unix_nsecs = read_u32(data, pos)?;
            let flow_sequence = read_u32(data, pos)?;
            let (engine_type, engine_id) = match (data.get(*pos), data.get(*pos + 1)) {
                (Some(&t), Some(&i)) => (t, i),
                _ => {
                    return Err(DecodeError::Truncated {
                        needed: *pos + 2,
                        got: data.len(),
                    })
                }
            };
            *pos += 2;
            let sampling_interval =
                u16::try_from(get_uvarint(data, pos)?).map_err(|_| DecodeError::BadVarint)?;
            Ok(V5Header {
                count,
                sys_uptime_ms,
                unix_secs,
                unix_nsecs,
                flow_sequence,
                engine_type,
                engine_id,
                sampling_interval,
            })
        }

        pub struct Cursor<'a> {
            pub data: &'a [u8],
            pub pos: usize,
            pub remaining: u16,
            pub prev: V5Record,
        }

        impl Cursor<'_> {
            pub fn next_record(&mut self) -> Result<Option<V5Record>, DecodeError> {
                if self.remaining == 0 {
                    return Ok(None);
                }
                let data = self.data;
                let pos = &mut self.pos;
                let u8_at = |data: &[u8], pos: &mut usize| -> Result<u8, DecodeError> {
                    let Some(&b) = data.get(*pos) else {
                        return Err(DecodeError::Truncated {
                            needed: *pos + 1,
                            got: data.len(),
                        });
                    };
                    *pos += 1;
                    Ok(b)
                };
                let u16_var = |data: &[u8], pos: &mut usize| -> Result<u16, DecodeError> {
                    u16::try_from(get_uvarint(data, pos)?).map_err(|_| DecodeError::BadVarint)
                };
                let srcaddr = apply_delta32(self.prev.srcaddr, get_uvarint(data, pos)?)?;
                let dstaddr = apply_delta32(self.prev.dstaddr, get_uvarint(data, pos)?)?;
                let nexthop = apply_delta32(self.prev.nexthop, get_uvarint(data, pos)?)?;
                let input = u16_var(data, pos)?;
                let output = u16_var(data, pos)?;
                let d_pkts = apply_delta32(self.prev.d_pkts, get_uvarint(data, pos)?)?;
                let d_octets = apply_delta32(self.prev.d_octets, get_uvarint(data, pos)?)?;
                let first = apply_delta32(self.prev.first, get_uvarint(data, pos)?)?;
                let last = apply_delta32(first, get_uvarint(data, pos)?)?;
                let srcport = u16_var(data, pos)?;
                let dstport = u16_var(data, pos)?;
                let tcp_flags = u8_at(data, pos)?;
                let prot = u8_at(data, pos)?;
                let tos = u8_at(data, pos)?;
                let src_as = u16_var(data, pos)?;
                let dst_as = u16_var(data, pos)?;
                let src_mask = u8_at(data, pos)?;
                let dst_mask = u8_at(data, pos)?;
                let record = V5Record {
                    srcaddr,
                    dstaddr,
                    nexthop,
                    input,
                    output,
                    d_pkts,
                    d_octets,
                    first,
                    last,
                    srcport,
                    dstport,
                    tcp_flags,
                    prot,
                    tos,
                    src_as,
                    dst_as,
                    src_mask,
                    dst_mask,
                };
                self.prev = record;
                self.remaining -= 1;
                Ok(Some(record))
            }
        }
    }

    /// Decode `body` with both decoders, from the header or, when
    /// `start` is given, from a cursor at that position and count; assert
    /// every step returns the same answer and leaves the same position.
    fn assert_decoders_agree(body: &[u8], start: Option<(usize, u16)>, what: &str) {
        let (pos, count) = match start {
            Some(start) => start,
            None => {
                let (mut lean, mut checked) = (0, 0);
                let header = decode_header_v2(body, &mut lean);
                assert_eq!(
                    header,
                    reference::decode_header_v2(body, &mut checked),
                    "{what}: header"
                );
                assert_eq!(lean, checked, "{what}: position after the header");
                match header {
                    Ok(h) => (lean, h.count),
                    Err(_) => return,
                }
            }
        };
        let mut lean = V2RecordCursor::new(body, pos, count);
        let mut checked = reference::Cursor {
            data: body,
            pos,
            remaining: count,
            prev: V5Record::default(),
        };
        // Past the count, and on after a failure: a failed step must
        // leave both cursors in the same state too.
        for step in 0..usize::from(count) + 2 {
            let answer = lean.next_record();
            assert_eq!(answer, checked.next_record(), "{what}: record {step}");
            assert_eq!(
                lean.pos(),
                checked.pos,
                "{what}: position after record {step}"
            );
            assert_eq!(lean.remaining(), checked.remaining, "{what}: remaining");
        }
    }

    /// What a varint field must fit.
    #[derive(Debug, Clone, Copy)]
    enum Width {
        Count,
        U16,
        U32,
    }

    /// The varint fields of a well-formed v2 body: (start, end, width).
    fn varint_fields(body: &[u8]) -> Vec<(usize, usize, Width)> {
        use Width::*;
        let mut fields = Vec::new();
        let mut pos = 0;
        let varint = |pos: &mut usize, width, fields: &mut Vec<_>| {
            let at = *pos;
            reference::get_uvarint(body, pos).expect("well-formed body");
            fields.push((at, *pos, width));
        };
        for width in [Count, U32, U32, U32, U32] {
            varint(&mut pos, width, &mut fields);
        }
        pos += 2;
        varint(&mut pos, U16, &mut fields);
        while pos < body.len() {
            for width in [U32, U32, U32, U16, U16, U32, U32, U32, U32, U16, U16] {
                varint(&mut pos, width, &mut fields);
            }
            pos += 3;
            for width in [U16, U16] {
                varint(&mut pos, width, &mut fields);
            }
            pos += 2;
        }
        fields
    }

    /// `v` as a varint of exactly `len` bytes (`len` at least its
    /// canonical length, at most 10): zero groups padded with
    /// continuation bits, as a permissive encoder might write it.
    fn padded_varint(v: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| {
                let group = v.checked_shr(7 * i as u32).unwrap_or(0) as u8 & 0x7f;
                group | if i + 1 < len { 0x80 } else { 0 }
            })
            .collect()
    }

    fn canonical_len(v: u64) -> usize {
        let mut out = Vec::new();
        put_uvarint(&mut out, v);
        out.len()
    }

    /// A value of random bit width: small, mid-sized and huge alike.
    fn wide(rng: &mut impl rand::Rng, bits: u32) -> u64 {
        let shift = rng.gen_range(0..=bits);
        rng.gen::<u64>().checked_shr(64 - bits + shift).unwrap_or(0)
    }

    fn random_datagram(rng: &mut impl rand::Rng) -> Vec<u8> {
        let n = rng.gen_range(1..=V5_MAX_RECORDS);
        let records: Vec<V5Record> = (0..n)
            .map(|_| V5Record {
                srcaddr: wide(rng, 32) as u32,
                dstaddr: wide(rng, 32) as u32,
                nexthop: wide(rng, 32) as u32,
                input: wide(rng, 16) as u16,
                output: wide(rng, 16) as u16,
                d_pkts: wide(rng, 32) as u32,
                d_octets: wide(rng, 32) as u32,
                first: wide(rng, 32) as u32,
                last: wide(rng, 32) as u32,
                srcport: wide(rng, 16) as u16,
                dstport: wide(rng, 16) as u16,
                tcp_flags: rng.gen(),
                prot: rng.gen(),
                tos: rng.gen(),
                src_as: wide(rng, 16) as u16,
                dst_as: wide(rng, 16) as u16,
                src_mask: rng.gen(),
                dst_mask: rng.gen(),
            })
            .collect();
        let header = V5Header {
            count: n as u16,
            sys_uptime_ms: wide(rng, 32) as u32,
            unix_secs: wide(rng, 32) as u32,
            unix_nsecs: wide(rng, 32) as u32,
            flow_sequence: wide(rng, 32) as u32,
            engine_type: rng.gen(),
            engine_id: rng.gen(),
            sampling_interval: wide(rng, 16) as u16,
        };
        let mut body = Vec::new();
        encode_datagram_v2(&header, &records, &mut body);
        body
    }

    /// One mutation of a well-formed body: flipped bytes, a varint
    /// re-spliced to 6–10 bytes (same value, or one past its field), a
    /// value one past its field at canonical length, a tenth varint byte
    /// over 1, or a varint whose last byte keeps its continuation bit
    /// where the body ends.
    fn mutate(body: &[u8], rng: &mut impl rand::Rng) -> (Vec<u8>, &'static str) {
        let mut bytes = body.to_vec();
        let fields = varint_fields(body);
        let (start, end, width) = fields[rng.gen_range(0..fields.len())];
        let (limit, over) = match width {
            Width::Count => (
                V5_MAX_RECORDS as u64,
                rng.gen_range(31..=u64::from(u16::MAX) + 1),
            ),
            Width::U16 => (u64::from(u16::MAX), u64::from(u16::MAX) + 1 + wide(rng, 48)),
            Width::U32 => (u64::from(u32::MAX), u64::from(u32::MAX) + 1 + wide(rng, 32)),
        };
        match rng.gen_range(0..5) {
            0 => {
                for _ in 0..rng.gen_range(1..=4) {
                    let at = rng.gen_range(0..bytes.len());
                    bytes[at] ^= rng.gen_range(1..=255u8);
                }
                (bytes, "flipped")
            }
            1 => {
                let mut pos = start;
                let value = reference::get_uvarint(body, &mut pos).expect("well-formed");
                let value = if rng.gen_bool(0.5) {
                    value
                } else {
                    over.max(limit + 1)
                };
                let len = rng.gen_range(canonical_len(value).max(6)..=10);
                bytes.splice(start..end, padded_varint(value, len));
                (bytes, "spliced 6-10 bytes")
            }
            2 => {
                let mut encoded = Vec::new();
                put_uvarint(&mut encoded, over);
                bytes.splice(start..end, encoded);
                (bytes, "overflowed its field")
            }
            3 => {
                let mut overlong = padded_varint(0, 10);
                overlong[9] = rng.gen_range(2..=0x7fu8) | if rng.gen_bool(0.5) { 0x80 } else { 0 };
                bytes.splice(start..end, overlong);
                (bytes, "tenth byte over 1")
            }
            _ => {
                bytes.truncate(end);
                bytes[end - 1] |= 0x80;
                (bytes, "dangling continuation")
            }
        }
    }

    proptest::proptest! {
        /// The lean record decoder agrees with the checked reference —
        /// same `Ok(Some(_))`, `Ok(None)` or `Err(e)` at every step, same
        /// position after it — on random datagrams, every truncation of
        /// one, mutated copies and random bytes.
        #[test]
        fn v2_decoder_matches_the_checked_reference(seed in proptest::prelude::any::<u64>()) {
            use rand::{Rng, RngCore, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let body = random_datagram(&mut rng);
            assert_decoders_agree(&body, None, &format!("seed {seed}: well-formed"));
            for cut in 0..body.len() {
                assert_decoders_agree(&body[..cut], None, &format!("seed {seed}: cut at {cut}"));
            }
            for _ in 0..16 {
                let (bytes, how) = mutate(&body, &mut rng);
                assert_decoders_agree(&bytes, None, &format!("seed {seed}: {how}"));
            }
            for _ in 0..4 {
                let mut bytes = vec![0u8; rng.gen_range(0..256)];
                rng.fill_bytes(&mut bytes);
                assert_decoders_agree(&bytes, None, &format!("seed {seed}: random"));
                let start = (rng.gen_range(0..=bytes.len() + 2), rng.gen_range(0..=31));
                assert_decoders_agree(&bytes, Some(start), &format!("seed {seed}: random {start:?}"));
            }
        }
    }
}
