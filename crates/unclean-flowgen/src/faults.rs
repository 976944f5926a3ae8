//! Fault injection for the flow pipeline.
//!
//! Operational NetFlow is lossy: exporters sample and drop under load, UDP
//! export datagrams vanish or arrive corrupted, and collectors deduplicate
//! imperfectly. Analyses built on flow data must degrade gracefully, so —
//! in the tradition of network-stack test harnesses — this module wraps a
//! flow stream with configurable, seeded faults:
//!
//! * **drop** — the flow never reaches the collector;
//! * **duplicate** — the flow is delivered twice (retransmitted export);
//! * **corrupt** — one byte of the flow's wire encoding flips; the flow is
//!   re-decoded and delivered as whatever the bytes now say (fields-level
//!   corruption, exactly what a bit-flipped datagram produces);
//! * **burst loss** — a correlated run of consecutive drops, the signature
//!   of a collector buffer overrun or a routing flap (real telemetry loss
//!   clusters; independent drops alone understate the damage);
//! * **truncation** — the export datagram is cut short mid-record, so the
//!   flow's partial encoding never decodes and the flow is lost (counted
//!   separately from drops: an operator diagnoses the two differently).
//!
//! The integration suite drives the detectors through this wrapper to show
//! the paper's pipeline conclusions survive realistic telemetry loss.

use crate::record::EPOCH_UNIX_SECS;
use crate::session::Flow;
use serde::{Deserialize, Serialize};
use unclean_netmodel::randutil::{decides, index_hash};
use unclean_stats::SeedTree;
use unclean_telemetry::{Counter, Registry};

/// Fault probabilities (each evaluated independently per flow).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability a flow is dropped entirely.
    pub drop_chance: f64,
    /// Probability a flow is delivered twice.
    pub duplicate_chance: f64,
    /// Probability one byte of the flow's V5 encoding flips.
    pub corrupt_chance: f64,
    /// Probability a loss burst *starts* at a given flow (when one isn't
    /// already running); the burst then swallows [`FaultConfig::burst_len`]
    /// consecutive flows.
    pub burst_chance: f64,
    /// Flows consumed by one loss burst.
    pub burst_len: u32,
    /// Probability the flow's export datagram is truncated mid-record,
    /// losing the flow.
    pub truncate_chance: f64,
    /// Probability a whole *encoded export datagram* is delivered twice
    /// on the wire ([`FaultInjector::apply_datagram`]) — a retransmitted
    /// UDP export, the fault a collector must detect by
    /// `first_seq`/`end_seq` overlap rather than double-ingest.
    #[serde(default)]
    pub dup_datagram_chance: f64,
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
            dup_datagram_chance: 0.0,
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
            dup_datagram_chance: 0.05,
        }
    }
}

/// Statistics of what the injector did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Flows seen.
    pub seen: u64,
    /// Flows dropped (independent drops).
    pub dropped: u64,
    /// Flows duplicated.
    pub duplicated: u64,
    /// Flows corrupted.
    pub corrupted: u64,
    /// Flows swallowed by correlated loss bursts.
    pub burst_dropped: u64,
    /// Flows lost to datagram truncation.
    pub truncated: u64,
    /// Whole export datagrams delivered twice by
    /// [`FaultInjector::apply_datagram`].
    #[serde(default)]
    pub duplicated_datagrams: u64,
}

/// Registry counters mirroring [`FaultStats`], all disabled by default.
#[derive(Debug, Clone, Default)]
struct FaultCounters {
    seen: Counter,
    dropped: Counter,
    duplicated: Counter,
    corrupted: Counter,
    burst_dropped: Counter,
    truncated: Counter,
    duplicated_datagrams: Counter,
}

/// A seeded fault injector over flows.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    config: FaultConfig,
    seeds: SeedTree,
    stats: FaultStats,
    counters: FaultCounters,
    counter: u32,
    datagram_counter: u32,
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
            config.dup_datagram_chance,
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
            counters: FaultCounters::default(),
            counter: 0,
            datagram_counter: 0,
            burst_remaining: 0,
        }
    }

    /// Mirror the injector's accounting onto `registry` as the
    /// `faults.seen` / `faults.dropped` / `faults.duplicated` /
    /// `faults.corrupted` / `faults.burst_dropped` / `faults.truncated`
    /// counters (incremented alongside [`FaultInjector::stats`]).
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.counters = FaultCounters {
            seen: registry.counter("faults.seen"),
            dropped: registry.counter("faults.dropped"),
            duplicated: registry.counter("faults.duplicated"),
            corrupted: registry.counter("faults.corrupted"),
            burst_dropped: registry.counter("faults.burst_dropped"),
            truncated: registry.counter("faults.truncated"),
            duplicated_datagrams: registry.counter("faults.duplicated_datagrams"),
        };
    }

    /// What the injector has done so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Pass one flow through the fault model, delivering the survivors to
    /// `sink` (zero, one, or two times).
    pub fn apply(&mut self, flow: &Flow, mut sink: impl FnMut(Flow)) {
        self.counter = self.counter.wrapping_add(1);
        let n = self.counter;
        self.stats.seen += 1;
        self.counters.seen.inc();
        // A running burst swallows everything until it ends — correlated
        // loss, checked before any independent fault.
        if self.burst_remaining > 0 {
            self.burst_remaining -= 1;
            self.stats.burst_dropped += 1;
            self.counters.burst_dropped.inc();
            return;
        }
        if decides(&self.seeds, n, 0, "fault-burst", self.config.burst_chance) {
            self.burst_remaining = self.config.burst_len.saturating_sub(1);
            self.stats.burst_dropped += 1;
            self.counters.burst_dropped.inc();
            return;
        }
        if decides(&self.seeds, n, 0, "fault-drop", self.config.drop_chance) {
            self.stats.dropped += 1;
            self.counters.dropped.inc();
            return;
        }
        if decides(
            &self.seeds,
            n,
            0,
            "fault-trunc",
            self.config.truncate_chance,
        ) {
            // The record sits past the cut in a truncated datagram: its
            // partial bytes never decode, so the flow is simply lost.
            self.stats.truncated += 1;
            self.counters.truncated.inc();
            return;
        }
        let delivered = if decides(
            &self.seeds,
            n,
            0,
            "fault-corrupt",
            self.config.corrupt_chance,
        ) {
            self.stats.corrupted += 1;
            self.counters.corrupted.inc();
            corrupt_one_byte(flow, &self.seeds, n)
        } else {
            *flow
        };
        sink(delivered);
        if decides(&self.seeds, n, 0, "fault-dup", self.config.duplicate_chance) {
            self.stats.duplicated += 1;
            self.counters.duplicated.inc();
            sink(delivered);
        }
    }

    /// Pass one *encoded export datagram* through the datagram-level fault
    /// model: with [`FaultConfig::dup_datagram_chance`] the whole wire
    /// image is delivered twice — the retransmitted-export fault whose
    /// `first_seq`/`end_seq` overlap a collector's sequence accounting
    /// must catch (and withhold) instead of double-ingesting. Uses its
    /// own nonce stream, so interleaving it with [`FaultInjector::apply`]
    /// never perturbs the flow-level fault pattern.
    pub fn apply_datagram(&mut self, wire: &[u8], mut sink: impl FnMut(&[u8])) {
        self.datagram_counter = self.datagram_counter.wrapping_add(1);
        let n = self.datagram_counter;
        sink(wire);
        if decides(
            &self.seeds,
            n,
            1,
            "fault-dup-datagram",
            self.config.dup_datagram_chance,
        ) {
            self.stats.duplicated_datagrams += 1;
            self.counters.duplicated_datagrams.inc();
            sink(wire);
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

/// Flip one seeded byte inside `segment` (bit rot, a bad sector): the
/// archive-level analogue of [`FaultConfig::corrupt_chance`], pointed at
/// the spool instead of the export stream.
pub fn corrupt_segment_byte(
    bytes: &mut [u8],
    segment: &crate::indexed::SegmentInfo,
    seeds: &SeedTree,
    nonce: u32,
) {
    let idx = segment.offset as usize
        + index_hash(seeds, nonce, 3, "fault-seg-byte", segment.len as usize);
    let bit = index_hash(seeds, nonce, 4, "fault-seg-bit", 8);
    bytes[idx] ^= 1 << bit;
}

/// Flip one byte of the flow's V5 wire encoding and decode it back.
fn corrupt_one_byte(flow: &Flow, seeds: &SeedTree, nonce: u32) -> Flow {
    // Anchor the exporter clock near the flow so the encoding round-trips.
    let boot = (EPOCH_UNIX_SECS as i64 + flow.start_secs - 1000).max(0) as u32;
    let mut rec = flow.to_v5(boot);
    // View the record as its wire bytes via a single-record datagram.
    let header = crate::record::V5Header {
        count: 1,
        sys_uptime_ms: 0,
        unix_secs: boot,
        unix_nsecs: 0,
        flow_sequence: 0,
        engine_type: 0,
        engine_id: 0,
        sampling_interval: 0,
    };
    let mut wire = crate::record::encode_datagram(&header, &[rec]);
    let body = crate::record::V5_HEADER_LEN;
    let idx = body + index_hash(seeds, nonce, 1, "fault-byte", crate::record::V5_RECORD_LEN);
    let bit = index_hash(seeds, nonce, 2, "fault-bit", 8);
    wire[idx] ^= 1 << bit;
    match crate::record::decode_datagram(&wire) {
        Ok((_, records)) => {
            rec = records[0];
            Flow::from_v5(&rec, boot)
        }
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
    fn registry_counters_mirror_stats() {
        let registry = Registry::full();
        let mut inj = FaultInjector::new(FaultConfig::adverse(), SeedTree::new(7));
        inj.attach_telemetry(&registry);
        let mut delivered = 0u64;
        for i in 0..2_000 {
            inj.apply(&flow(i), |_| delivered += 1);
        }
        let stats = inj.stats();
        let snap = registry.snapshot();
        assert_eq!(snap.counters["faults.seen"], stats.seen);
        assert_eq!(snap.counters["faults.dropped"], stats.dropped);
        assert_eq!(snap.counters["faults.duplicated"], stats.duplicated);
        assert_eq!(snap.counters["faults.corrupted"], stats.corrupted);
        assert_eq!(snap.counters["faults.burst_dropped"], stats.burst_dropped);
        assert_eq!(snap.counters["faults.truncated"], stats.truncated);
        assert!(stats.dropped > 0, "adverse preset actually drops");
    }

    #[test]
    fn datagram_duplication_delivers_whole_datagrams_twice() {
        let cfg = FaultConfig {
            dup_datagram_chance: 0.25,
            ..FaultConfig::default()
        };
        let mut inj = FaultInjector::new(cfg, SeedTree::new(7));
        let mut delivered = 0u64;
        let wire = [0u8; 72];
        for _ in 0..8_000 {
            inj.apply_datagram(&wire, |w| {
                assert_eq!(w, wire);
                delivered += 1;
            });
        }
        let stats = inj.stats();
        assert_eq!(delivered, 8_000 + stats.duplicated_datagrams);
        let rate = stats.duplicated_datagrams as f64 / 8_000.0;
        assert!((rate - 0.25).abs() < 0.03, "dup-datagram rate {rate}");
        // The datagram lane must not consume the flow lane's nonces: the
        // flow-level pattern with and without interleaved datagram faults
        // is identical.
        let mut plain = FaultInjector::new(FaultConfig::adverse(), SeedTree::new(3));
        let mut mixed = FaultInjector::new(FaultConfig::adverse(), SeedTree::new(3));
        let (mut out_plain, mut out_mixed) = (Vec::new(), Vec::new());
        for i in 0..2_000 {
            plain.apply(&flow(i), |f| out_plain.push(f));
            mixed.apply_datagram(&wire, |_| {});
            mixed.apply(&flow(i), |f| out_mixed.push(f));
        }
        assert_eq!(out_plain, out_mixed);
    }

    #[test]
    fn archive_fault_helpers_damage_exactly_one_segment() {
        use crate::indexed::{IndexedArchive, IndexedArchiveWriter, SegmentSource};
        use unclean_core::snap::crc32;
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
        // Corruption helper: deterministic, and only the target segment.
        let mut bitrot = bytes.clone();
        corrupt_segment_byte(&mut bitrot, &index.segments[1], &SeedTree::new(9), 1);
        let mut bitrot2 = bytes.clone();
        corrupt_segment_byte(&mut bitrot2, &index.segments[1], &SeedTree::new(9), 1);
        assert_eq!(bitrot, bitrot2, "seeded damage is reproducible");
        assert_ne!(bitrot, bytes);
        let s0 = &index.segments[0];
        let s1 = &index.segments[1];
        assert_eq!(
            crc32(&bitrot[s0.offset as usize..(s0.offset + s0.len) as usize]),
            s0.crc
        );
        assert_ne!(
            crc32(&bitrot[s1.offset as usize..(s1.offset + s1.len) as usize]),
            s1.crc
        );
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
