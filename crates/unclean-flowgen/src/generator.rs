//! Activity-event → flow expansion.
//!
//! Each [`ActivityEvent`] from the netmodel becomes the NetFlow-visible
//! traffic it implies at the observed network's border:
//!
//! * benign sessions → payload-bearing TCP to the observed servers;
//! * fast scans → SYN-only probe trains across many targets within one
//!   hour (some padded with TCP options — the 36-byte pitfall);
//! * slow scans → the same probes, spread thinly across the day;
//! * probes → ephemeral-to-ephemeral connection attempts;
//! * spam bursts → payload-bearing SMTP to the mail servers;
//! * C&C check-ins → nothing (that traffic never crosses the observed
//!   border; the bot monitor sees it out-of-band).
//!
//! Expansion is deterministic: every field derives from stable hashes of
//! (source, day, nonce), so regenerating any day yields identical flows.

use crate::record::{proto, tcp_flags};
use crate::session::Flow;
use serde::{Deserialize, Serialize};
use unclean_core::{Day, Ip};
use unclean_netmodel::observed::ObservedNetwork;
use unclean_netmodel::randutil::{index_hash, uniform_hash};
use unclean_netmodel::{ActivityEvent, ActivityKind, ActivityModel};
use unclean_stats::SeedTree;
use unclean_telemetry::{Counter, Registry};

/// Generator tunables.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// How many distinct public servers the observed network runs.
    pub server_count: u32,
    /// How many of those are mail exchangers (targets of spam).
    pub mail_server_count: u32,
    /// Service ports benign clients hit, sampled uniformly.
    pub benign_ports: Vec<u16>,
    /// Ports scanned by sweeps, one per sweep.
    pub scan_ports: Vec<u16>,
}

impl Default for GeneratorConfig {
    fn default() -> GeneratorConfig {
        GeneratorConfig {
            server_count: 48,
            mail_server_count: 6,
            benign_ports: vec![80, 80, 80, 443, 443, 25, 110, 143, 22, 53],
            scan_ports: vec![135, 139, 445, 1025, 1433, 2967, 4899, 5900],
        }
    }
}

/// The flow generator.
#[derive(Debug, Clone)]
pub struct FlowGenerator<'a> {
    observed: &'a ObservedNetwork,
    config: GeneratorConfig,
    seeds: SeedTree,
    events_counter: Counter,
    flows_counter: Counter,
    truncated_counter: Counter,
}

impl<'a> FlowGenerator<'a> {
    /// A generator over the given observed network.
    pub fn new(observed: &'a ObservedNetwork, config: GeneratorConfig, seeds: SeedTree) -> Self {
        assert!(config.server_count > 0, "need at least one server");
        assert!(
            config.mail_server_count > 0 && config.mail_server_count <= config.server_count,
            "mail servers are a subset of servers"
        );
        assert!(!config.benign_ports.is_empty() && !config.scan_ports.is_empty());
        FlowGenerator {
            observed,
            config,
            seeds,
            events_counter: Counter::disabled(),
            flows_counter: Counter::disabled(),
            truncated_counter: Counter::disabled(),
        }
    }

    /// Record expansion counts onto `registry`:
    /// `flowgen.events_expanded` (activity events fed in),
    /// `flowgen.flows_generated` (border flows emitted), and
    /// `flowgen.flows_truncated` (spam messages past the per-burst
    /// expansion cap, i.e. deliberately not turned into flows).
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.events_counter = registry.counter("flowgen.events_expanded");
        self.flows_counter = registry.counter("flowgen.flows_generated");
        self.truncated_counter = registry.counter("flowgen.flows_truncated");
    }

    /// Address of public server `idx`.
    pub fn server_addr(&self, idx: u32) -> Ip {
        let base = self.observed.blocks()[0].first().raw();
        Ip(base + 10 + idx % self.config.server_count)
    }

    /// Address of mail server `idx`.
    pub fn mail_addr(&self, idx: u32) -> Ip {
        self.server_addr(idx % self.config.mail_server_count)
    }

    /// Expand one event into flows.
    pub fn expand(&self, event: &ActivityEvent, mut sink: impl FnMut(Flow)) {
        self.events_counter.inc();
        let mut emitted = 0u64;
        let mut sink = |f: Flow| {
            emitted += 1;
            sink(f)
        };
        let src = event.src;
        let e = src.raw();
        let d = event.day.0;
        let day_base = event.day.0 as i64 * 86_400;
        match event.kind {
            ActivityKind::Benign { sessions } => {
                for k in 0..sessions as u32 {
                    let u =
                        |label: &str| uniform_hash(&self.seeds, e ^ k.rotate_left(13), d, label);
                    let server = index_hash(
                        &self.seeds,
                        e ^ k,
                        d,
                        "b-server",
                        self.config.server_count as usize,
                    );
                    let port = self.config.benign_ports[index_hash(
                        &self.seeds,
                        e ^ k,
                        d,
                        "b-port",
                        self.config.benign_ports.len(),
                    )];
                    let packets = 8 + (u("b-pkts") * 52.0) as u32;
                    let payload = 200 + (u("b-bytes") * 19_800.0) as u32;
                    sink(Flow {
                        src,
                        dst: self.server_addr(server as u32),
                        src_port: ephemeral(u("b-sport")),
                        dst_port: port,
                        proto: proto::TCP,
                        packets,
                        octets: packets * 40 + payload,
                        flags: tcp_flags::SYN | tcp_flags::ACK | tcp_flags::PSH | tcp_flags::FIN,
                        start_secs: day_base + (u("b-time") * 86_000.0) as i64,
                        duration_secs: 1 + (u("b-dur") * 300.0) as u32,
                    });
                }
            }
            ActivityKind::Scan { targets } => {
                // One sweep: a single port, targets spread across one hour.
                let port = self.config.scan_ports
                    [index_hash(&self.seeds, e, d, "s-port", self.config.scan_ports.len())];
                let hour_base =
                    day_base + (uniform_hash(&self.seeds, e, d, "s-hour") * 23.0) as i64 * 3600;
                for t in 0..targets as u32 {
                    let u = |label: &str| uniform_hash(&self.seeds, e ^ t.rotate_left(7), d, label);
                    let packets = 1 + (u("s-pkts") * 2.0) as u32;
                    // Some stacks add 12 bytes of options per SYN.
                    let per_packet = if u("s-opts") < 0.5 { 52 } else { 40 };
                    sink(Flow {
                        src,
                        dst: self.observed.target_addr(&self.seeds, e, d, t),
                        src_port: ephemeral(u("s-sport")),
                        dst_port: port,
                        proto: proto::TCP,
                        packets,
                        octets: packets * per_packet,
                        flags: tcp_flags::SYN,
                        start_secs: hour_base + (u("s-time") * 3_500.0) as i64,
                        duration_secs: 0,
                    });
                }
            }
            ActivityKind::SlowScan { targets } => {
                for t in 0..targets as u32 {
                    let u = |label: &str| uniform_hash(&self.seeds, e ^ t.rotate_left(7), d, label);
                    let port = self.config.scan_ports[index_hash(
                        &self.seeds,
                        e ^ t,
                        d,
                        "ss-port",
                        self.config.scan_ports.len(),
                    )];
                    let per_packet = if u("ss-opts") < 0.5 { 52 } else { 40 };
                    sink(Flow {
                        src,
                        dst: self
                            .observed
                            .target_addr(&self.seeds, e, d, 0x8000_0000 | t),
                        src_port: ephemeral(u("ss-sport")),
                        dst_port: port,
                        proto: proto::TCP,
                        packets: 1,
                        octets: per_packet,
                        flags: tcp_flags::SYN,
                        start_secs: day_base + (u("ss-time") * 86_000.0) as i64,
                        duration_secs: 0,
                    });
                }
            }
            ActivityKind::Probe => {
                let n = 1 + index_hash(&self.seeds, e, d, "p-count", 2) as u32;
                for t in 0..n {
                    let u = |label: &str| uniform_hash(&self.seeds, e ^ t.rotate_left(9), d, label);
                    let packets = 1 + (u("p-pkts") * 2.0) as u32;
                    sink(Flow {
                        src,
                        dst: self
                            .observed
                            .target_addr(&self.seeds, e, d, 0x4000_0000 | t),
                        src_port: ephemeral(u("p-sport")),
                        dst_port: ephemeral(u("p-dport")),
                        proto: proto::TCP,
                        packets,
                        octets: packets * 40,
                        flags: tcp_flags::SYN,
                        start_secs: day_base + (u("p-time") * 86_000.0) as i64,
                        duration_secs: 0,
                    });
                }
            }
            ActivityKind::Spam { messages } => {
                // A message ≈ one SMTP delivery flow; cap the expansion so a
                // burst never floods the pipeline.
                let flows = (messages as u32).min(60);
                self.truncated_counter
                    .add(u64::from(messages as u32) - u64::from(flows));
                for t in 0..flows {
                    let u =
                        |label: &str| uniform_hash(&self.seeds, e ^ t.rotate_left(11), d, label);
                    let mx = index_hash(
                        &self.seeds,
                        e ^ t,
                        d,
                        "m-server",
                        self.config.mail_server_count as usize,
                    );
                    let packets = 10 + (u("m-pkts") * 20.0) as u32;
                    let payload = 2_000 + (u("m-bytes") * 6_000.0) as u32;
                    sink(Flow {
                        src,
                        dst: self.mail_addr(mx as u32),
                        src_port: ephemeral(u("m-sport")),
                        dst_port: 25,
                        proto: proto::TCP,
                        packets,
                        octets: packets * 40 + payload,
                        flags: tcp_flags::SYN | tcp_flags::ACK | tcp_flags::PSH | tcp_flags::FIN,
                        start_secs: day_base + (u("m-time") * 86_000.0) as i64,
                        duration_secs: 2 + (u("m-dur") * 60.0) as u32,
                    });
                }
            }
            ActivityKind::C2Checkin { .. } => {
                // C&C rendezvous does not transit the observed border.
            }
        }
        self.flows_counter.add(emitted);
    }

    /// Generate all border flows for one day: hostile activity plus
    /// (optionally) benign clients.
    pub fn flows_on(
        &self,
        model: &ActivityModel<'_>,
        day: Day,
        include_benign: bool,
        mut sink: impl FnMut(Flow),
    ) {
        model.hostile_events_on(day, |e| self.expand(&e, &mut sink));
        if include_benign {
            model.benign_events_on(day, |e| self.expand(&e, &mut sink));
        }
    }
}

/// An ephemeral source port derived from a uniform draw.
fn ephemeral(u: f64) -> u16 {
    1024 + (u * (65_535.0 - 1024.0)) as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen_fixture() -> (ObservedNetwork, GeneratorConfig) {
        (ObservedNetwork::paper_default(), GeneratorConfig::default())
    }

    fn event(kind: ActivityKind) -> ActivityEvent {
        ActivityEvent {
            day: Day(273),
            src: "9.1.2.3".parse().expect("ok"),
            kind,
        }
    }

    fn expand_all(kind: ActivityKind) -> Vec<Flow> {
        let (net, cfg) = gen_fixture();
        let generator = FlowGenerator::new(&net, cfg, SeedTree::new(1));
        let mut flows = Vec::new();
        generator.expand(&event(kind), |f| flows.push(f));
        flows
    }

    #[test]
    fn benign_flows_are_payload_bearing_service_traffic() {
        let flows = expand_all(ActivityKind::Benign { sessions: 4 });
        assert_eq!(flows.len(), 4);
        let (net, cfg) = gen_fixture();
        for f in &flows {
            assert!(f.payload_bearing(), "benign exchanges payload");
            assert!(net.contains(f.dst), "targets the observed network");
            assert!(cfg.benign_ports.contains(&f.dst_port));
            assert!(f.src_port >= 1024);
            assert_eq!(f.day(), Day(273));
        }
    }

    #[test]
    fn scan_flows_are_syn_only_within_one_hour() {
        let flows = expand_all(ActivityKind::Scan { targets: 150 });
        assert_eq!(flows.len(), 150);
        let hours: std::collections::HashSet<u32> = flows.iter().map(Flow::hour).collect();
        assert!(hours.len() <= 2, "sweep is hour-scale: {hours:?}");
        let ports: std::collections::HashSet<u16> = flows.iter().map(|f| f.dst_port).collect();
        assert_eq!(ports.len(), 1, "one port per sweep");
        let dsts: std::collections::HashSet<u32> = flows.iter().map(|f| f.dst.raw()).collect();
        assert!(dsts.len() > 140, "targets are distinct: {}", dsts.len());
        for f in &flows {
            assert!(!f.payload_bearing(), "SYN scans never bear payload");
            assert_eq!(f.flags, tcp_flags::SYN);
        }
        // The 36-byte option pitfall appears in roughly half the flows.
        let padded = flows.iter().filter(|f| f.payload_estimate() > 0).count();
        assert!(
            padded > 30 && padded < 120,
            "option padding present: {padded}"
        );
    }

    #[test]
    fn slow_scan_spreads_over_the_day() {
        let flows = expand_all(ActivityKind::SlowScan { targets: 20 });
        assert_eq!(flows.len(), 20);
        let hours: std::collections::HashSet<u32> = flows.iter().map(Flow::hour).collect();
        assert!(hours.len() >= 5, "slow scan spans the day: {hours:?}");
        assert!(flows.iter().all(|f| !f.payload_bearing()));
    }

    #[test]
    fn probes_are_ephemeral_to_ephemeral() {
        let flows = expand_all(ActivityKind::Probe);
        assert!(!flows.is_empty() && flows.len() <= 2);
        for f in &flows {
            assert!(f.ephemeral_to_ephemeral());
            assert!(!f.payload_bearing());
        }
    }

    #[test]
    fn spam_targets_mail_servers_with_payload() {
        let flows = expand_all(ActivityKind::Spam { messages: 30 });
        assert_eq!(flows.len(), 30);
        for f in &flows {
            assert_eq!(f.dst_port, 25);
            assert!(f.payload_bearing(), "SMTP carries payload");
        }
        let mxes: std::collections::HashSet<u32> = flows.iter().map(|f| f.dst.raw()).collect();
        assert!(mxes.len() <= 6, "bounded MX set");
    }

    #[test]
    fn spam_expansion_is_capped() {
        let flows = expand_all(ActivityKind::Spam { messages: 500 });
        assert_eq!(flows.len(), 60);
    }

    #[test]
    fn c2_produces_no_border_flows() {
        assert!(expand_all(ActivityKind::C2Checkin { channel: 3 }).is_empty());
    }

    #[test]
    fn expansion_is_deterministic() {
        let a = expand_all(ActivityKind::Scan { targets: 40 });
        let b = expand_all(ActivityKind::Scan { targets: 40 });
        assert_eq!(a, b);
    }

    #[test]
    fn server_addresses_are_inside_and_stable() {
        let (net, cfg) = gen_fixture();
        let generator = FlowGenerator::new(&net, cfg, SeedTree::new(2));
        for i in 0..100 {
            assert!(net.contains(generator.server_addr(i)));
            assert!(net.contains(generator.mail_addr(i)));
        }
        assert_eq!(generator.server_addr(3), generator.server_addr(3 + 48));
    }

    #[test]
    fn telemetry_counts_events_flows_and_truncation() {
        let (net, cfg) = gen_fixture();
        let registry = Registry::full();
        let mut generator = FlowGenerator::new(&net, cfg, SeedTree::new(1));
        generator.attach_telemetry(&registry);
        let mut n = 0usize;
        generator.expand(&event(ActivityKind::Scan { targets: 40 }), |_| n += 1);
        generator.expand(&event(ActivityKind::Spam { messages: 500 }), |_| n += 1);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["flowgen.events_expanded"], 2);
        assert_eq!(snap.counters["flowgen.flows_generated"], n as u64);
        assert_eq!(snap.counters["flowgen.flows_generated"], 40 + 60);
        assert_eq!(
            snap.counters["flowgen.flows_truncated"], 440,
            "spam messages past the 60-flow cap"
        );
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let net = ObservedNetwork::paper_default();
        let cfg = GeneratorConfig {
            server_count: 0,
            ..GeneratorConfig::default()
        };
        let _ = FlowGenerator::new(&net, cfg, SeedTree::new(1));
    }
}
