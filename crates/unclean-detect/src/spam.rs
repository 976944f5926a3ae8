//! Behavioral spam detection.
//!
//! The paper's spam report comes from "a behavioral spam detection
//! technique" (under review at the time, so unspecified). We implement the
//! natural flow-level behavioural detector: a source is a spammer once its
//! SMTP delivery volume toward the observed network within a single day
//! exceeds what any legitimate mail relay of its size would send — high
//! daily message counts to the MX hosts. Benign clients send a handful of
//! messages; bots deliver bursts of dozens.

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use unclean_core::{Ip, IpSet};
use unclean_flowgen::Flow;

/// Configuration for the SMTP-volume detector.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpamConfig {
    /// Payload-bearing deliveries to port 25 within one day that trigger
    /// detection.
    pub daily_message_threshold: u32,
}

impl Default for SpamConfig {
    fn default() -> SpamConfig {
        SpamConfig {
            daily_message_threshold: 8,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct SpamState {
    day: i32,
    messages: u32,
}

/// Streaming SMTP-burst detector.
#[derive(Debug, Clone)]
pub struct SpamDetector {
    config: SpamConfig,
    state: HashMap<u32, SpamState>,
    detected: HashSet<u32>,
}

impl SpamDetector {
    /// A detector with the given configuration.
    pub fn new(config: SpamConfig) -> SpamDetector {
        assert!(config.daily_message_threshold > 0);
        SpamDetector {
            config,
            state: HashMap::new(),
            detected: HashSet::new(),
        }
    }

    /// Feed one flow.
    pub fn observe(&mut self, flow: &Flow) {
        // Only payload-bearing SMTP counts as a delivery. Tested before
        // the keyed hash probe, which other traffic then never pays for.
        if flow.dst_port != 25 || !flow.payload_bearing() {
            return;
        }
        if self.detected.contains(&flow.src.raw()) {
            return;
        }
        let day = flow.day().0;
        let st = self.state.entry(flow.src.raw()).or_default();
        if st.day != day {
            st.day = day;
            st.messages = 0;
        }
        st.messages += 1;
        if st.messages >= self.config.daily_message_threshold {
            self.detected.insert(flow.src.raw());
            self.state.remove(&flow.src.raw());
        }
    }

    /// Drop per-day tracking state (between days); detections are kept.
    pub fn flush_window_state(&mut self) {
        self.state.clear();
    }

    /// Fold another detector's detections into this one. Used to combine
    /// per-day shards of the pipeline: message counts are scoped to a
    /// single day, so a shard that has completed its window
    /// (`flush_window_state`) carries no cross-shard day state and the
    /// union of per-shard detections equals the sequential sweep.
    pub fn merge(&mut self, other: SpamDetector) {
        debug_assert!(
            other.state.is_empty(),
            "merge requires flushed window state"
        );
        for src in other.detected {
            self.detected.insert(src);
            self.state.remove(&src);
        }
    }

    /// Sources flagged as spammers.
    pub fn detected(&self) -> IpSet {
        IpSet::from_raw(self.detected.iter().copied().collect())
    }

    /// Whether a source has been flagged.
    pub fn is_detected(&self, ip: Ip) -> bool {
        self.detected.contains(&ip.raw())
    }

    /// Number of flagged sources.
    pub fn detected_count(&self) -> usize {
        self.detected.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unclean_flowgen::record::{proto, tcp_flags};

    fn smtp(src: &str, day: i32, nonce: i64) -> Flow {
        Flow {
            src: src.parse().expect("ok"),
            dst: "30.0.0.10".parse().expect("ok"),
            src_port: 40_000,
            dst_port: 25,
            proto: proto::TCP,
            packets: 15,
            octets: 15 * 40 + 4_000,
            flags: tcp_flags::SYN | tcp_flags::ACK | tcp_flags::PSH | tcp_flags::FIN,
            start_secs: day as i64 * 86_400 + nonce * 60,
            duration_secs: 5,
        }
    }

    #[test]
    fn burst_triggers_detection() {
        let mut d = SpamDetector::new(SpamConfig::default());
        for i in 0..8 {
            d.observe(&smtp("9.3.3.3", 273, i));
        }
        assert!(d.is_detected("9.3.3.3".parse().expect("ok")));
        assert_eq!(d.detected_count(), 1);
    }

    #[test]
    fn light_mail_is_ignored() {
        let mut d = SpamDetector::new(SpamConfig::default());
        // Three messages a day for five days: never crosses the daily bar.
        for day in 273..278 {
            for i in 0..3 {
                d.observe(&smtp("9.3.3.4", day, i));
            }
        }
        assert_eq!(d.detected_count(), 0);
    }

    #[test]
    fn daily_counter_resets() {
        let mut d = SpamDetector::new(SpamConfig {
            daily_message_threshold: 10,
        });
        for i in 0..9 {
            d.observe(&smtp("9.3.3.5", 273, i));
        }
        for i in 0..9 {
            d.observe(&smtp("9.3.3.5", 274, i));
        }
        assert!(
            !d.is_detected("9.3.3.5".parse().expect("ok")),
            "9+9 across days ≠ 10 in one day"
        );
    }

    #[test]
    fn non_smtp_traffic_is_ignored() {
        let mut d = SpamDetector::new(SpamConfig {
            daily_message_threshold: 2,
        });
        let mut f = smtp("9.3.3.6", 273, 0);
        f.dst_port = 80;
        for _ in 0..10 {
            d.observe(&f);
        }
        assert_eq!(d.detected_count(), 0);
    }

    #[test]
    fn syn_only_smtp_probes_are_not_deliveries() {
        // Port-25 scanning must not register as spamming.
        let mut d = SpamDetector::new(SpamConfig {
            daily_message_threshold: 2,
        });
        let f = Flow {
            packets: 1,
            octets: 40,
            flags: tcp_flags::SYN,
            ..smtp("9.3.3.7", 273, 0)
        };
        for _ in 0..10 {
            d.observe(&f);
        }
        assert_eq!(d.detected_count(), 0);
    }

    #[test]
    fn flush_keeps_detections() {
        let mut d = SpamDetector::new(SpamConfig::default());
        for i in 0..8 {
            d.observe(&smtp("9.3.3.8", 273, i));
        }
        d.flush_window_state();
        assert!(d.is_detected("9.3.3.8".parse().expect("ok")));
        assert_eq!(d.detected().len(), 1);
    }
}
