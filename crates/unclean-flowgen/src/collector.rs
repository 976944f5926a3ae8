//! Flow collection and per-source aggregation.
//!
//! Border traffic at realistic scale is far too voluminous to retain, so —
//! exactly like an operational SiLK/NetFlow pipeline — flows stream through
//! an aggregator: [`CandidateCollector`] watches the /24s of an old bot
//! report and accumulates the per-source evidence §6.1 needs (any TCP
//! record? any payload-bearing record?) to build the candidate partition.

use crate::session::Flow;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use unclean_core::{BlockSet, Candidate, Ip};
use unclean_telemetry::{Counter, Registry};

/// Per-source evidence accumulated over an observation window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SrcEvidence {
    /// Total flows seen.
    pub flows: u32,
    /// TCP flows seen (§6.1 requires at least one to be a candidate).
    pub tcp_flows: u32,
    /// Payload-bearing flows (§6.1's 36-byte + ACK test).
    pub payload_flows: u32,
    /// Ephemeral-to-ephemeral flows (suspicion signal).
    pub probe_flows: u32,
    /// First day seen (Day.0).
    pub first_day: i32,
    /// Last day seen (Day.0).
    pub last_day: i32,
}

impl SrcEvidence {
    /// Fold another window's evidence for the same source into this one.
    /// Order-insensitive (counts sum, day bounds min/max), so sharded
    /// collectors merge to exactly what one sequential pass would hold.
    pub fn merge(&mut self, other: &SrcEvidence) {
        if other.flows == 0 {
            return;
        }
        if self.flows == 0 {
            *self = *other;
            return;
        }
        self.first_day = self.first_day.min(other.first_day);
        self.last_day = self.last_day.max(other.last_day);
        self.flows += other.flows;
        self.tcp_flows += other.tcp_flows;
        self.payload_flows += other.payload_flows;
        self.probe_flows += other.probe_flows;
    }

    fn observe(&mut self, flow: &Flow) {
        let day = flow.day().0;
        if self.flows == 0 {
            self.first_day = day;
            self.last_day = day;
        } else {
            self.first_day = self.first_day.min(day);
            self.last_day = self.last_day.max(day);
        }
        self.flows += 1;
        if flow.proto == crate::record::proto::TCP {
            self.tcp_flows += 1;
        }
        if flow.payload_bearing() {
            self.payload_flows += 1;
        }
        if flow.ephemeral_to_ephemeral() && !flow.payload_bearing() {
            self.probe_flows += 1;
        }
    }
}

/// Streams flows and keeps evidence only for sources inside a block set
/// (the candidate /24s).
#[derive(Debug, Clone)]
pub struct CandidateCollector {
    blocks: BlockSet,
    evidence: HashMap<u32, SrcEvidence>,
    observed: u64,
    matched: u64,
    flows_observed: Counter,
    flows_matched: Counter,
}

impl CandidateCollector {
    /// Watch the given blocks (typically `C_24(R_bot-test)`).
    pub fn new(blocks: BlockSet) -> CandidateCollector {
        CandidateCollector {
            blocks,
            evidence: HashMap::new(),
            observed: 0,
            matched: 0,
            flows_observed: Counter::disabled(),
            flows_matched: Counter::disabled(),
        }
    }

    /// Record ingest counts onto `registry`: `collector.flows_observed`
    /// (every flow fed in) and `collector.flows_matched` (flows whose
    /// source fell inside the watched blocks).
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.flows_observed = registry.counter("collector.flows_observed");
        self.flows_matched = registry.counter("collector.flows_matched");
    }

    /// The watched block set.
    pub fn blocks(&self) -> &BlockSet {
        &self.blocks
    }

    /// Feed one flow.
    pub fn observe(&mut self, flow: &Flow) {
        self.observed += 1;
        self.flows_observed.inc();
        if self.blocks.contains(flow.src) {
            self.matched += 1;
            self.flows_matched.inc();
            self.evidence
                .entry(flow.src.raw())
                .or_default()
                .observe(flow);
        }
    }

    /// Flows fed in so far (counted regardless of telemetry level).
    pub fn flows_observed(&self) -> u64 {
        self.observed
    }

    /// Flows whose source fell inside the watched blocks.
    pub fn flows_matched(&self) -> u64 {
        self.matched
    }

    /// Fold a shard's collection into this one. Evidence merging is
    /// order-insensitive, so parallel per-day collectors folded in
    /// any order equal one sequential pass; ingest counts (and any
    /// attached registry counters) sum as well.
    pub fn merge(&mut self, other: &CandidateCollector) {
        self.observed += other.observed;
        self.matched += other.matched;
        self.flows_observed.add(other.observed);
        self.flows_matched.add(other.matched);
        for (&addr, ev) in &other.evidence {
            self.evidence.entry(addr).or_default().merge(ev);
        }
    }

    /// Number of distinct sources seen so far.
    pub fn len(&self) -> usize {
        self.evidence.len()
    }

    /// Whether nothing matched yet.
    pub fn is_empty(&self) -> bool {
        self.evidence.is_empty()
    }

    /// Evidence for one source.
    pub fn evidence_for(&self, ip: Ip) -> Option<&SrcEvidence> {
        self.evidence.get(&ip.raw())
    }

    /// Build the §6.1 candidate list: sources with at least one TCP record,
    /// tagged with whether they ever exchanged payload. Sorted by address
    /// for determinism.
    pub fn candidates(&self) -> Vec<Candidate> {
        let mut out: Vec<Candidate> = self
            .evidence
            .iter()
            .filter(|(_, ev)| ev.tcp_flows > 0)
            .map(|(&addr, ev)| Candidate {
                ip: Ip(addr),
                payload_bearing: ev.payload_flows > 0,
            })
            .collect();
        out.sort_by_key(|c| c.ip);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{proto, tcp_flags};
    use unclean_core::IpSet;

    fn flow(src: &str, payload: bool, day: i32) -> Flow {
        Flow {
            src: src.parse().expect("ok"),
            dst: "30.0.0.1".parse().expect("ok"),
            src_port: 40_000,
            dst_port: if payload { 80 } else { 445 },
            proto: proto::TCP,
            packets: 5,
            octets: if payload { 5 * 40 + 500 } else { 5 * 40 },
            flags: if payload {
                tcp_flags::SYN | tcp_flags::ACK | tcp_flags::PSH
            } else {
                tcp_flags::SYN
            },
            start_secs: day as i64 * 86_400 + 100,
            duration_secs: 1,
        }
    }

    fn watch(addrs: &[&str]) -> BlockSet {
        BlockSet::of(
            &IpSet::from_ips(addrs.iter().map(|s| s.parse::<Ip>().expect("ok"))),
            24,
        )
    }

    #[test]
    fn collector_filters_by_block() {
        let mut c = CandidateCollector::new(watch(&["9.1.1.5"]));
        c.observe(&flow("9.1.1.200", true, 273)); // inside
        c.observe(&flow("9.1.2.200", true, 273)); // outside
        assert_eq!(c.len(), 1);
        assert!(c.evidence_for("9.1.1.200".parse().expect("ok")).is_some());
        assert!(c.evidence_for("9.1.2.200".parse().expect("ok")).is_none());
    }

    #[test]
    fn evidence_accumulates() {
        let mut c = CandidateCollector::new(watch(&["9.1.1.5"]));
        let ip = "9.1.1.7";
        c.observe(&flow(ip, false, 273));
        c.observe(&flow(ip, false, 275));
        c.observe(&flow(ip, true, 274));
        let ev = c.evidence_for(ip.parse().expect("ok")).expect("seen");
        assert_eq!(ev.flows, 3);
        assert_eq!(ev.tcp_flows, 3);
        assert_eq!(ev.payload_flows, 1);
        assert_eq!(ev.first_day, 273);
        assert_eq!(ev.last_day, 275);
    }

    #[test]
    fn candidates_partition_inputs() {
        let mut c = CandidateCollector::new(watch(&["9.1.1.5"]));
        c.observe(&flow("9.1.1.10", true, 273));
        c.observe(&flow("9.1.1.20", false, 273));
        let cands = c.candidates();
        assert_eq!(cands.len(), 2);
        assert_eq!(cands[0].ip.to_string(), "9.1.1.10");
        assert!(cands[0].payload_bearing);
        assert!(!cands[1].payload_bearing);
    }

    #[test]
    fn non_tcp_sources_are_not_candidates() {
        let mut c = CandidateCollector::new(watch(&["9.1.1.5"]));
        let mut f = flow("9.1.1.30", false, 273);
        f.proto = proto::UDP;
        c.observe(&f);
        assert_eq!(c.len(), 1, "evidence retained");
        assert!(
            c.candidates().is_empty(),
            "but no TCP record → not a candidate"
        );
    }

    #[test]
    fn probe_flows_counted() {
        let mut c = CandidateCollector::new(watch(&["9.1.1.5"]));
        let mut f = flow("9.1.1.40", false, 273);
        f.dst_port = 44_123;
        c.observe(&f);
        let ev = c
            .evidence_for("9.1.1.40".parse().expect("ok"))
            .expect("seen");
        assert_eq!(ev.probe_flows, 1);
    }

    #[test]
    fn merged_shards_equal_sequential_collection() {
        let watch_set = watch(&["9.1.1.5", "9.1.2.5"]);
        let flows: Vec<Flow> = (0..40)
            .map(|i| {
                flow(
                    if i % 2 == 0 { "9.1.1.7" } else { "9.1.2.9" },
                    i % 3 == 0,
                    273 + (i % 5),
                )
            })
            .collect();
        let mut sequential = CandidateCollector::new(watch_set.clone());
        for f in &flows {
            sequential.observe(f);
        }
        // Shard by thirds, observe independently, merge in order.
        let mut merged = CandidateCollector::new(watch_set.clone());
        for chunk in flows.chunks(13) {
            let mut shard = CandidateCollector::new(watch_set.clone());
            for f in chunk {
                shard.observe(f);
            }
            merged.merge(&shard);
        }
        assert_eq!(merged.candidates(), sequential.candidates());
        assert_eq!(merged.flows_observed(), sequential.flows_observed());
        assert_eq!(merged.flows_matched(), sequential.flows_matched());
        for ip in ["9.1.1.7", "9.1.2.9"] {
            let ip: Ip = ip.parse().expect("ok");
            assert_eq!(merged.evidence_for(ip), sequential.evidence_for(ip));
        }
    }

    #[test]
    fn merge_feeds_attached_counters() {
        let registry = Registry::full();
        let mut master = CandidateCollector::new(watch(&["9.1.1.5"]));
        master.attach_telemetry(&registry);
        let mut shard = CandidateCollector::new(watch(&["9.1.1.5"]));
        shard.observe(&flow("9.1.1.200", true, 273)); // inside
        shard.observe(&flow("9.1.2.200", true, 273)); // outside
        master.merge(&shard);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["collector.flows_observed"], 2);
        assert_eq!(snap.counters["collector.flows_matched"], 1);
        assert_eq!(master.flows_observed(), 2);
        assert_eq!(master.flows_matched(), 1);
    }

    #[test]
    fn telemetry_counts_ingest_and_drops() {
        let registry = Registry::full();
        let mut c = CandidateCollector::new(watch(&["9.1.1.5"]));
        c.attach_telemetry(&registry);
        c.observe(&flow("9.1.1.200", true, 273)); // inside
        c.observe(&flow("9.1.2.200", true, 273)); // outside
        let snap = registry.snapshot();
        assert_eq!(snap.counters["collector.flows_observed"], 2);
        assert_eq!(snap.counters["collector.flows_matched"], 1);
    }
}
