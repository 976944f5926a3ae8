//! Behavioral scan detection.
//!
//! Two detectors, mirroring the literature the paper draws on:
//!
//! * [`HourlyFanoutDetector`] — the deployed detector of Gates et al.
//!   (paper refs \[6, 7\]): flags a source once it contacts enough distinct
//!   destinations *within one hour* without exchanging payload. The paper
//!   notes its blind spot explicitly (§6.2): "the scan detection mechanism
//!   is calibrated to identify scans that take place over an hour, while
//!   scans observed in this dataset would often contact less than 30
//!   addresses per day" — the threshold here is chosen to preserve exactly
//!   that blind spot.
//! * [`TrwDetector`] — Threshold Random Walk sequential hypothesis testing
//!   (Jung et al., paper ref \[11\]), as a baseline/ablation: walks a
//!   likelihood ratio on connection outcomes (payload-bearing = success,
//!   SYN-only = failure) and flags when the ratio crosses the detection
//!   threshold.

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use unclean_core::{Ip, IpSet};
use unclean_flowgen::Flow;

/// Configuration for the hourly fan-out detector.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FanoutConfig {
    /// Distinct no-payload destinations within one hour that trigger
    /// detection. Benign clients touch a handful of servers; fast sweeps
    /// touch hundreds; slow scanners stay below 30 per *day* and are
    /// missed — by design.
    pub hourly_threshold: usize,
}

impl Default for FanoutConfig {
    fn default() -> FanoutConfig {
        FanoutConfig {
            hourly_threshold: 64,
        }
    }
}

#[derive(Debug, Clone, Default)]
struct FanoutState {
    hour: i64,
    dsts: HashSet<u32>,
}

/// The hourly fan-out scan detector. Feed flows in any order within a day;
/// state is per (source, hour).
#[derive(Debug, Clone)]
pub struct HourlyFanoutDetector {
    config: FanoutConfig,
    state: HashMap<u32, FanoutState>,
    detected: HashSet<u32>,
}

impl HourlyFanoutDetector {
    /// A detector with the given configuration.
    pub fn new(config: FanoutConfig) -> HourlyFanoutDetector {
        assert!(config.hourly_threshold > 0);
        HourlyFanoutDetector {
            config,
            state: HashMap::new(),
            detected: HashSet::new(),
        }
    }

    /// Feed one flow.
    pub fn observe(&mut self, flow: &Flow) {
        // Payload-bearing traffic is not scanning. Tested before the
        // keyed hash probe, which most flows (those bearing payload)
        // then never pay for.
        if flow.payload_bearing() {
            return;
        }
        if self.detected.contains(&flow.src.raw()) {
            return;
        }
        let abs_hour = flow.start_secs.div_euclid(3600);
        let st = self.state.entry(flow.src.raw()).or_default();
        if st.hour != abs_hour {
            st.hour = abs_hour;
            st.dsts.clear();
        }
        st.dsts.insert(flow.dst.raw());
        if st.dsts.len() >= self.config.hourly_threshold {
            self.detected.insert(flow.src.raw());
            self.state.remove(&flow.src.raw());
        }
    }

    /// Drop per-hour tracking state (call between days to bound memory);
    /// detections are kept.
    pub fn flush_window_state(&mut self) {
        self.state.clear();
    }

    /// Fold another detector's detections into this one. Used to combine
    /// per-day shards of the pipeline: because detection state is scoped
    /// to a single hour and every shard covers whole days, a shard that
    /// has completed its window (`flush_window_state`) carries no
    /// cross-shard hour state, so the union of per-shard detections
    /// equals the sequential sweep.
    pub fn merge(&mut self, other: HourlyFanoutDetector) {
        debug_assert!(
            other.state.is_empty(),
            "merge requires flushed window state"
        );
        for src in other.detected {
            self.detected.insert(src);
            self.state.remove(&src);
        }
    }

    /// Sources flagged as scanners so far.
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

/// Configuration for the TRW detector.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrwConfig {
    /// P(connection succeeds | benign host).
    pub theta0: f64,
    /// P(connection succeeds | scanner).
    pub theta1: f64,
    /// Upper likelihood threshold η₁ (flag as scanner when crossed).
    pub eta1: f64,
    /// Lower likelihood threshold η₀ (declare benign when crossed).
    pub eta0: f64,
}

impl Default for TrwConfig {
    fn default() -> TrwConfig {
        // The parameters of Jung et al. (2004): θ₀ = 0.8, θ₁ = 0.2, with
        // thresholds from α = 0.01, β = 0.99-style odds.
        TrwConfig {
            theta0: 0.8,
            theta1: 0.2,
            eta1: 100.0,
            eta0: 0.01,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum TrwState {
    Walking(f64),
    Scanner,
    Benign,
}

/// Threshold Random Walk scan detection over flow outcomes.
#[derive(Debug, Clone)]
pub struct TrwDetector {
    config: TrwConfig,
    state: HashMap<u32, TrwState>,
}

impl TrwDetector {
    /// A detector with the given configuration.
    pub fn new(config: TrwConfig) -> TrwDetector {
        assert!(
            config.theta1 < config.theta0,
            "scanners succeed less than benign hosts"
        );
        assert!(config.eta0 < 1.0 && 1.0 < config.eta1);
        TrwDetector {
            config,
            state: HashMap::new(),
        }
    }

    /// Feed one flow; success = payload-bearing, failure = anything else.
    pub fn observe(&mut self, flow: &Flow) {
        let entry = self
            .state
            .entry(flow.src.raw())
            .or_insert(TrwState::Walking(1.0));
        let TrwState::Walking(lambda) = entry else {
            return;
        };
        let c = &self.config;
        let ratio = if flow.payload_bearing() {
            c.theta1 / c.theta0
        } else {
            (1.0 - c.theta1) / (1.0 - c.theta0)
        };
        let next = *lambda * ratio;
        *entry = if next >= c.eta1 {
            TrwState::Scanner
        } else if next <= c.eta0 {
            TrwState::Benign
        } else {
            TrwState::Walking(next)
        };
    }

    /// Sources currently flagged as scanners.
    pub fn detected(&self) -> IpSet {
        IpSet::from_raw(
            self.state
                .iter()
                .filter(|(_, s)| matches!(s, TrwState::Scanner))
                .map(|(&a, _)| a)
                .collect(),
        )
    }

    /// Sources adjudicated benign (walk hit the lower threshold).
    pub fn cleared_count(&self) -> usize {
        self.state
            .values()
            .filter(|s| matches!(s, TrwState::Benign))
            .count()
    }

    /// Whether a source has been flagged.
    pub fn is_detected(&self, ip: Ip) -> bool {
        matches!(self.state.get(&ip.raw()), Some(TrwState::Scanner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unclean_flowgen::record::{proto, tcp_flags};

    fn probe(src: &str, dst_low: u32, hour: i64) -> Flow {
        Flow {
            src: src.parse().expect("ok"),
            dst: Ip(0x1e00_0000 + dst_low),
            src_port: 40_000,
            dst_port: 445,
            proto: proto::TCP,
            packets: 1,
            octets: 40,
            flags: tcp_flags::SYN,
            start_secs: hour * 3600 + (dst_low as i64 % 3000),
            duration_secs: 0,
        }
    }

    fn benign_flow(src: &str, dst_low: u32, hour: i64) -> Flow {
        Flow {
            dst_port: 80,
            packets: 10,
            octets: 10 * 40 + 1000,
            flags: tcp_flags::SYN | tcp_flags::ACK | tcp_flags::PSH,
            ..probe(src, dst_low, hour)
        }
    }

    #[test]
    fn fanout_detects_fast_sweeps() {
        let mut d = HourlyFanoutDetector::new(FanoutConfig::default());
        for i in 0..100 {
            d.observe(&probe("9.1.1.1", i, 10));
        }
        assert!(d.is_detected("9.1.1.1".parse().expect("ok")));
        assert_eq!(d.detected_count(), 1);
        assert_eq!(d.detected().len(), 1);
    }

    #[test]
    fn fanout_misses_slow_scans() {
        // 25 distinct targets spread across 24 hours — under threshold in
        // every hour. The paper's §6.2 blind spot.
        let mut d = HourlyFanoutDetector::new(FanoutConfig::default());
        for i in 0..25 {
            d.observe(&probe("9.1.1.2", i, 10 + i as i64));
        }
        assert!(!d.is_detected("9.1.1.2".parse().expect("ok")));
    }

    #[test]
    fn fanout_ignores_benign_fanout() {
        // Even a chatty benign client (many payload flows) is never flagged.
        let mut d = HourlyFanoutDetector::new(FanoutConfig::default());
        for i in 0..200 {
            d.observe(&benign_flow("9.1.1.3", i, 10));
        }
        assert_eq!(d.detected_count(), 0);
    }

    #[test]
    fn fanout_hour_window_resets() {
        let mut d = HourlyFanoutDetector::new(FanoutConfig {
            hourly_threshold: 50,
        });
        // 40 targets in hour 10, 40 different ones in hour 11: no single
        // hour crosses 50.
        for i in 0..40 {
            d.observe(&probe("9.1.1.4", i, 10));
        }
        for i in 40..80 {
            d.observe(&probe("9.1.1.4", i, 11));
        }
        assert!(!d.is_detected("9.1.1.4".parse().expect("ok")));
    }

    #[test]
    fn fanout_repeat_dsts_do_not_count_twice() {
        let mut d = HourlyFanoutDetector::new(FanoutConfig {
            hourly_threshold: 10,
        });
        for _ in 0..100 {
            d.observe(&probe("9.1.1.5", 1, 10));
        }
        assert!(!d.is_detected("9.1.1.5".parse().expect("ok")));
    }

    #[test]
    fn fanout_flush_keeps_detections() {
        let mut d = HourlyFanoutDetector::new(FanoutConfig {
            hourly_threshold: 10,
        });
        for i in 0..20 {
            d.observe(&probe("9.1.1.6", i, 10));
        }
        d.flush_window_state();
        assert!(d.is_detected("9.1.1.6".parse().expect("ok")));
    }

    #[test]
    fn trw_flags_scanners_quickly() {
        let mut d = TrwDetector::new(TrwConfig::default());
        for i in 0..10 {
            d.observe(&probe("9.2.2.2", i, 5));
        }
        assert!(d.is_detected("9.2.2.2".parse().expect("ok")));
    }

    #[test]
    fn trw_clears_benign_hosts() {
        let mut d = TrwDetector::new(TrwConfig::default());
        for i in 0..10 {
            d.observe(&benign_flow("9.2.2.3", i, 5));
        }
        assert!(!d.is_detected("9.2.2.3".parse().expect("ok")));
        assert_eq!(d.cleared_count(), 1);
    }

    #[test]
    fn trw_mixed_traffic_walks_both_ways() {
        let mut d = TrwDetector::new(TrwConfig::default());
        let src = "9.2.2.4";
        // Alternating success/failure: the walk drifts with the failure
        // bias ((1-θ1)/(1-θ0) = 4 vs θ1/θ0 = 1/4 — exactly balanced), so
        // the host is neither flagged nor cleared after few events.
        for i in 0..6 {
            d.observe(&probe(src, i, 5));
            d.observe(&benign_flow(src, i, 5));
        }
        assert!(!d.is_detected(src.parse().expect("ok")));
        assert_eq!(d.cleared_count(), 0);
    }

    #[test]
    fn trw_detected_is_terminal() {
        let mut d = TrwDetector::new(TrwConfig::default());
        let src = "9.2.2.5";
        for i in 0..10 {
            d.observe(&probe(src, i, 5));
        }
        assert!(d.is_detected(src.parse().expect("ok")));
        // Later successes do not un-flag.
        for i in 0..50 {
            d.observe(&benign_flow(src, i, 6));
        }
        assert!(d.is_detected(src.parse().expect("ok")));
    }

    #[test]
    #[should_panic(expected = "succeed less")]
    fn trw_rejects_inverted_thetas() {
        let _ = TrwDetector::new(TrwConfig {
            theta0: 0.2,
            theta1: 0.8,
            ..TrwConfig::default()
        });
    }
}
