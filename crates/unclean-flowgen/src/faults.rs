//! Fault injection for flow export.
//!
//! Operational NetFlow is lossy: exporters sample and drop under load, UDP
//! export datagrams vanish or arrive corrupted, and collectors deduplicate
//! imperfectly. Analyses built on flow data must degrade gracefully, so —
//! in the tradition of network-stack test harnesses — [`FaultInjector`]
//! decides, seeded, what happens to each unit of export traffic:
//!
//! * **burst loss** — a correlated run of consecutive losses, the signature
//!   of a collector buffer overrun or a routing flap (real telemetry loss
//!   clusters; independent drops alone understate the damage);
//! * **drop** — the unit never reaches the collector;
//! * **truncation** — the export datagram is cut short mid-record, so the
//!   unit's partial encoding never decodes and it is lost (counted
//!   separately from drops: an operator diagnoses the two differently);
//! * **corrupt** — one bit of the unit's record bytes flips; the records
//!   still frame, and decode as whatever the bytes now say;
//! * **duplicate** — a delivered unit arrives twice (a retransmitted
//!   export).
//!
//! A unit is one flow in [`FaultInjector::apply`], which the integration
//! suite drives the detectors through, and one whole datagram in `unclean
//! replay`, which sends the outcome at a live collector.

use crate::record::{decode_datagram, encode_datagram, V5Header, EPOCH_UNIX_SECS, V5_HEADER_LEN};
use crate::session::Flow;
use unclean_netmodel::randutil::{decides, index_hash};
use unclean_stats::SeedTree;

/// Fault probabilities (each evaluated independently per unit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability a unit is dropped entirely.
    pub drop_chance: f64,
    /// Probability a delivered unit is delivered twice.
    pub duplicate_chance: f64,
    /// Probability one bit of the unit's record bytes flips.
    pub corrupt_chance: f64,
    /// Probability a loss burst *starts* at a given unit (when one isn't
    /// already running); the burst then swallows [`FaultConfig::burst_len`]
    /// consecutive units.
    pub burst_chance: f64,
    /// Units consumed by one loss burst.
    pub burst_len: u32,
    /// Probability the unit's export datagram is truncated mid-record,
    /// losing the unit.
    pub truncate_chance: f64,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            drop_chance: 0.0,
            duplicate_chance: 0.0,
            corrupt_chance: 0.0,
            burst_chance: 0.0,
            burst_len: 8,
            truncate_chance: 0.0,
        }
    }
}

impl FaultConfig {
    /// The smoltcp examples' "good starting value" — 15% drop and corrupt —
    /// plus correlated bursts and datagram truncation on top, the faults a
    /// congested collector actually sees.
    pub fn adverse() -> FaultConfig {
        FaultConfig {
            drop_chance: 0.15,
            duplicate_chance: 0.05,
            corrupt_chance: 0.15,
            burst_chance: 0.005,
            burst_len: 8,
            truncate_chance: 0.05,
        }
    }
}

/// Statistics of what the injector did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Units seen.
    pub seen: u64,
    /// Units dropped (independent drops).
    pub dropped: u64,
    /// Units delivered twice.
    pub duplicated: u64,
    /// Units corrupted.
    pub corrupted: u64,
    /// Units swallowed by correlated loss bursts.
    pub burst_dropped: u64,
    /// Units lost to datagram truncation.
    pub truncated: u64,
}

/// What the fault model does to one unit, checked in this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Swallowed by a correlated loss burst.
    Burst,
    /// Dropped independently.
    Drop,
    /// Cut short mid-record: the unit never decodes.
    Truncate,
    /// Delivered with one bit flipped ([`FaultInjector::flip_bit`]).
    Corrupt,
    /// Delivered as sent.
    Intact,
}

/// A seeded fault injector over units of export traffic.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    config: FaultConfig,
    seeds: SeedTree,
    stats: FaultStats,
    counter: u32,
    burst_remaining: u32,
}

impl FaultInjector {
    /// Build an injector; identical (config, seed) sequences produce
    /// identical fault patterns.
    pub fn new(config: FaultConfig, seeds: SeedTree) -> FaultInjector {
        for p in [
            config.drop_chance,
            config.duplicate_chance,
            config.corrupt_chance,
            config.burst_chance,
            config.truncate_chance,
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "fault probability {p} out of range"
            );
        }
        assert!(
            config.burst_chance == 0.0 || config.burst_len > 0,
            "burst_len must be positive when bursts are enabled"
        );
        FaultInjector {
            config,
            seeds,
            stats: FaultStats::default(),
            counter: 0,
            burst_remaining: 0,
        }
    }

    /// What the injector has done so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Decide the fault for the next unit and book it: the fault, and
    /// whether a delivered unit is delivered twice. A running burst
    /// swallows everything until it ends — correlated loss, checked
    /// before any independent fault.
    pub fn next_fault(&mut self) -> (Fault, bool) {
        self.counter = self.counter.wrapping_add(1);
        self.stats.seen += 1;
        let n = self.counter;
        let decide = |label, p| decides(&self.seeds, n, 0, label, p);
        let fault = if self.burst_remaining > 0 {
            self.burst_remaining -= 1;
            Fault::Burst
        } else if decide("fault-burst", self.config.burst_chance) {
            self.burst_remaining = self.config.burst_len.saturating_sub(1);
            Fault::Burst
        } else if decide("fault-drop", self.config.drop_chance) {
            Fault::Drop
        } else if decide("fault-trunc", self.config.truncate_chance) {
            Fault::Truncate
        } else if decide("fault-corrupt", self.config.corrupt_chance) {
            Fault::Corrupt
        } else {
            Fault::Intact
        };
        let twice = matches!(fault, Fault::Corrupt | Fault::Intact)
            && decide("fault-dup", self.config.duplicate_chance);
        match fault {
            Fault::Burst => self.stats.burst_dropped += 1,
            Fault::Drop => self.stats.dropped += 1,
            Fault::Truncate => self.stats.truncated += 1,
            Fault::Corrupt => self.stats.corrupted += 1,
            Fault::Intact => {}
        }
        self.stats.duplicated += u64::from(twice);
        (fault, twice)
    }

    /// Flip one seeded bit of `bytes`, the record bytes of the unit just
    /// decided [`Fault::Corrupt`].
    pub fn flip_bit(&self, bytes: &mut [u8]) {
        let byte = index_hash(&self.seeds, self.counter, 1, "fault-byte", bytes.len());
        let bit = index_hash(&self.seeds, self.counter, 2, "fault-bit", 8);
        bytes[byte] ^= 1 << bit;
    }

    /// Pass one flow through the fault model, delivering the survivors to
    /// `sink` (zero, one, or two times). A corrupted flow is delivered as
    /// its V5 encoding decodes once a bit of its record has flipped.
    pub fn apply(&mut self, flow: &Flow, mut sink: impl FnMut(Flow)) {
        let (fault, twice) = self.next_fault();
        let delivered = match fault {
            Fault::Burst | Fault::Drop | Fault::Truncate => return,
            Fault::Corrupt => self.corrupt(flow),
            Fault::Intact => *flow,
        };
        sink(delivered);
        if twice {
            sink(delivered);
        }
    }

    /// Flip one bit of the flow's V5 wire encoding and decode it back.
    fn corrupt(&self, flow: &Flow) -> Flow {
        // Anchor the exporter clock near the flow so the encoding round-trips.
        let boot = (EPOCH_UNIX_SECS as i64 + flow.start_secs - 1000).max(0) as u32;
        // View the record as its wire bytes via a single-record datagram.
        let header = V5Header {
            count: 1,
            sys_uptime_ms: 0,
            unix_secs: boot,
            unix_nsecs: 0,
            flow_sequence: 0,
            engine_type: 0,
            engine_id: 0,
            sampling_interval: 0,
        };
        let mut wire = encode_datagram(&header, &[flow.to_v5(boot)]);
        self.flip_bit(&mut wire[V5_HEADER_LEN..]);
        match decode_datagram(&wire) {
            Ok((_, records)) => Flow::from_v5(&records[0], boot),
            // Corruption that breaks framing loses the record: deliver the
            // original with zeroed counters (an exporter would emit garbage;
            // this keeps the stream total stable for the tests).
            Err(_) => Flow {
                packets: 0,
                octets: 0,
                ..*flow
            },
        }
    }
}

/// Zero the last `tail` bytes of `segment` inside a v2 archive image —
/// what a crash-truncated final write leaves once the spool is padded
/// back to its indexed length. The footer and trailer survive, so an
/// indexed replay sees a CRC mismatch localized to this one segment
/// instead of a poisoned stream.
pub fn truncate_segment_tail(bytes: &mut [u8], segment: &crate::indexed::SegmentInfo, tail: usize) {
    let end = (segment.offset + segment.len) as usize;
    let start = end - tail.min(segment.len as usize);
    for b in &mut bytes[start..end] {
        *b = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{proto, tcp_flags};
    use unclean_core::Ip;

    fn flow(i: u32) -> Flow {
        Flow {
            src: Ip(0x0901_0000 + i),
            dst: Ip(0x1e00_0001),
            src_port: 40_000,
            dst_port: 445,
            proto: proto::TCP,
            packets: 1,
            octets: 40,
            flags: tcp_flags::SYN,
            start_secs: 86_400 * 273 + i as i64,
            duration_secs: 0,
        }
    }

    fn run(config: FaultConfig, n: u32) -> (FaultStats, Vec<Flow>) {
        let mut inj = FaultInjector::new(config, SeedTree::new(7));
        let mut out = Vec::new();
        for i in 0..n {
            inj.apply(&flow(i), |f| out.push(f));
        }
        (inj.stats(), out)
    }

    #[test]
    fn no_faults_is_identity() {
        let (stats, out) = run(FaultConfig::default(), 500);
        assert_eq!(stats.seen, 500);
        assert_eq!(
            stats.dropped
                + stats.duplicated
                + stats.corrupted
                + stats.burst_dropped
                + stats.truncated,
            0
        );
        assert_eq!(out.len(), 500);
        assert_eq!(out[7], flow(7));
    }

    #[test]
    fn drop_rate_tracks_config() {
        let cfg = FaultConfig {
            drop_chance: 0.2,
            ..FaultConfig::default()
        };
        let (stats, out) = run(cfg, 10_000);
        let rate = stats.dropped as f64 / stats.seen as f64;
        assert!((rate - 0.2).abs() < 0.02, "drop rate {rate}");
        assert_eq!(out.len() as u64, stats.seen - stats.dropped);
    }

    #[test]
    fn duplicates_deliver_twice() {
        let cfg = FaultConfig {
            duplicate_chance: 0.3,
            ..FaultConfig::default()
        };
        let (stats, out) = run(cfg, 5_000);
        assert_eq!(out.len() as u64, stats.seen + stats.duplicated);
        let rate = stats.duplicated as f64 / stats.seen as f64;
        assert!((rate - 0.3).abs() < 0.03, "dup rate {rate}");
    }

    #[test]
    fn corruption_changes_flows_but_keeps_count() {
        let cfg = FaultConfig {
            corrupt_chance: 1.0,
            ..FaultConfig::default()
        };
        let (stats, out) = run(cfg, 1_000);
        assert_eq!(stats.corrupted, 1_000);
        assert_eq!(out.len(), 1_000);
        // Byte flips in fields the Flow view carries change it; flips in
        // nexthop/AS/mask/padding bytes (~1/3 of the record) do not. All
        // still decode.
        let changed = out.iter().zip(0..).filter(|(f, i)| **f != flow(*i)).count();
        assert!(
            (500..1000).contains(&changed),
            "corruption visible in {changed}/1000"
        );
    }

    #[test]
    fn deterministic_fault_pattern() {
        let cfg = FaultConfig::adverse();
        let (s1, o1) = run(cfg, 2_000);
        let (s2, o2) = run(cfg, 2_000);
        assert_eq!(s1, s2);
        assert_eq!(o1, o2);
    }

    /// FNV-1a over every field of every flow, in order.
    fn digest(flows: &[Flow]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for f in flows {
            for field in [
                u64::from(f.src.0),
                u64::from(f.dst.0),
                u64::from(f.src_port),
                u64::from(f.dst_port),
                u64::from(f.proto),
                u64::from(f.packets),
                u64::from(f.octets),
                u64::from(f.flags),
                f.start_secs as u64,
                u64::from(f.duration_secs),
            ] {
                for byte in field.to_le_bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        hash
    }

    /// The adverse pattern over 2,000 flows, pinned: what each flow meets
    /// and what reaches the sink may not drift.
    #[test]
    fn adverse_pattern_is_pinned() {
        let (stats, out) = run(FaultConfig::adverse(), 2_000);
        let booked = (
            stats.seen,
            stats.burst_dropped,
            stats.dropped,
            stats.truncated,
            stats.corrupted,
            stats.duplicated,
        );
        assert_eq!(booked, (2_000, 72, 303, 75, 249, 67));
        assert_eq!(out.len(), 1_617);
        assert_eq!(digest(&out), 0x6562_21b2_48a0_e1be);
    }

    #[test]
    fn burst_loss_arrives_in_runs() {
        let cfg = FaultConfig {
            burst_chance: 0.01,
            burst_len: 8,
            ..FaultConfig::default()
        };
        let (stats, out) = run(cfg, 20_000);
        assert_eq!(stats.dropped, 0, "only burst loss configured");
        // Expected burst loss ≈ burst_chance * burst_len per eligible flow.
        let rate = stats.burst_dropped as f64 / stats.seen as f64;
        assert!((0.04..0.12).contains(&rate), "burst loss rate {rate}");
        assert_eq!(out.len() as u64, stats.seen - stats.burst_dropped);
        // Correlation: the loss indices must contain full runs of burst_len.
        let delivered: std::collections::HashSet<u32> =
            out.iter().map(|f| f.src.0 - 0x0901_0000).collect();
        let mut longest = 0u32;
        let mut current = 0u32;
        for i in 0..20_000u32 {
            if delivered.contains(&i) {
                current = 0;
            } else {
                current += 1;
                longest = longest.max(current);
            }
        }
        assert!(
            longest >= 8,
            "longest loss run {longest} shows correlated loss"
        );
    }

    #[test]
    fn truncation_loses_flows_and_counts_them_separately() {
        let cfg = FaultConfig {
            truncate_chance: 0.2,
            ..FaultConfig::default()
        };
        let (stats, out) = run(cfg, 10_000);
        let rate = stats.truncated as f64 / stats.seen as f64;
        assert!((rate - 0.2).abs() < 0.02, "truncation rate {rate}");
        assert_eq!(stats.dropped, 0, "truncation is not booked as drop");
        assert_eq!(out.len() as u64, stats.seen - stats.truncated);
    }

    #[test]
    fn adverse_preset_is_lossy_but_not_fatal() {
        let (stats, out) = run(FaultConfig::adverse(), 10_000);
        assert!(stats.dropped > 1_000 && stats.dropped < 2_000);
        assert!(stats.burst_dropped > 0, "adverse now includes burst loss");
        assert!(stats.truncated > 0, "adverse now includes truncation");
        assert!(!out.is_empty());
        // Deliveries = seen - all losses + duplicated-of-survivors.
        assert_eq!(
            out.len() as u64,
            stats.seen - stats.dropped - stats.burst_dropped - stats.truncated + stats.duplicated
        );
    }

    #[test]
    fn archive_fault_helpers_damage_exactly_one_segment() {
        use crate::indexed::{IndexedArchive, IndexedArchiveWriter, SegmentSource};
        let mut w = IndexedArchiveWriter::new(Vec::new(), EPOCH_UNIX_SECS);
        for day in 0..3 {
            for i in 0..50u32 {
                let f = Flow {
                    start_secs: i64::from(day) * 86_400 + i64::from(i),
                    ..flow(i)
                };
                w.push(&f).expect("write");
            }
        }
        let (bytes, index) = w.finish().expect("finish");
        // Truncation helper: only the last segment's CRC breaks.
        let mut truncated = bytes.clone();
        truncate_segment_tail(&mut truncated, &index.segments[2], 16);
        let archive = IndexedArchive::open(&truncated).expect("trailer intact");
        let mut buf = Vec::new();
        assert!(archive.segment_cursor(0, None, &mut buf).is_ok());
        assert!(archive.segment_cursor(1, None, &mut buf).is_ok());
        assert!(archive.segment_cursor(2, None, &mut buf).is_err());
    }

    #[test]
    #[should_panic(expected = "burst_len must be positive")]
    fn zero_length_bursts_rejected() {
        let cfg = FaultConfig {
            burst_chance: 0.1,
            burst_len: 0,
            ..FaultConfig::default()
        };
        let _ = FaultInjector::new(cfg, SeedTree::new(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_probability_rejected() {
        let cfg = FaultConfig {
            drop_chance: 1.5,
            ..FaultConfig::default()
        };
        let _ = FaultInjector::new(cfg, SeedTree::new(1));
    }
}
