//! Window-scoped rescoring over a live archive — the ingest daemon's
//! analysis half.
//!
//! The offline pipeline ([`crate::build_reports`]) starts from a
//! generated scenario; a live collector starts from *bytes*: the WAL
//! spooler's sealed prefix, assembled into a v2 indexed archive image.
//! [`rescore_window`] replays a day window of such an image through the
//! behavioural detectors, scores the implicated networks with the §7
//! multidimensional scorer, and returns deploy-ready scored blocklist
//! entries — the payload the rescore loop hands to `unclean-serve`.
//!
//! A WAL archive can hold *several* segments for the same day (the
//! spooler seals on every checkpoint, not just at day boundaries). The
//! detectors carry hourly-window state, so splitting one day across
//! workers would split fan-out windows and lose detections. The rescore
//! therefore feeds the shared day sweep **whole days, not segments**: one
//! day's feed walks all of that day's segments in file order.

use crate::scan::FanoutConfig;
use crate::spam::SpamConfig;
use crate::sweep::{day_sweep, DayShard, DetectorPair};
use crossbeam::executor::Executor;
use serde::{Deserialize, Serialize};
use unclean_core::{
    Cidr, DateRange, Day, NetworkScore, Provenance, Report, ReportClass, ScoreWeights,
    UncleanlinessScorer,
};
use unclean_flowgen::{ArchiveIndex, ArchiveTelemetry, IndexedArchive, IndexedError};
use unclean_telemetry::{Registry, TraceEvent, TraceKind};

/// Settings for a live window rescore.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LiveScanConfig {
    /// Scan-detector settings.
    pub fanout: FanoutConfig,
    /// Spam-detector settings.
    pub spam: SpamConfig,
    /// Network granularity for scoring and the emitted blocklist.
    pub prefix_len: u8,
    /// Class weights for the combined score.
    pub weights: ScoreWeights,
    /// Drop networks scoring below this from the emitted blocklist.
    pub min_score: f64,
    /// Worker threads for the day-sharded sweep (0 = one per core).
    /// A pure throughput knob — results are thread-count invariant.
    #[serde(skip)]
    pub threads: usize,
}

impl Default for LiveScanConfig {
    fn default() -> LiveScanConfig {
        LiveScanConfig {
            fanout: FanoutConfig::default(),
            spam: SpamConfig::default(),
            prefix_len: 24,
            weights: ScoreWeights::default(),
            min_score: 0.0,
            threads: 0,
        }
    }
}

/// The outcome of one window rescore.
#[derive(Debug, Clone)]
pub struct WindowScan {
    /// The day span actually covered (None for an empty window).
    pub window: Option<DateRange>,
    /// Flows replayed.
    pub flows: u64,
    /// Replay loss/duplication accounting summed over the window.
    pub telemetry: ArchiveTelemetry,
    /// Detector-observed scanners in the window.
    pub scan: Report,
    /// Detector-observed spammers in the window.
    pub spam: Report,
    /// Every implicated network, ranked most-unclean first.
    pub scores: Vec<NetworkScore>,
    /// `(network, score)` entries at or above the configured floor —
    /// ready for `render_scored` and the serving trie.
    pub blocklist: Vec<(Cidr, f64)>,
}

/// One day's worth of work for a rescore worker: the day plus its
/// `(segment, entry_sequence)` pairs from [`ArchiveIndex::select`].
type DayGroup = (Day, Vec<(usize, Option<u32>)>);

/// One rescore chunk's state: its detectors plus the replay accounting
/// of the segments it walked.
struct RescoreShard {
    detectors: DetectorPair,
    telemetry: ArchiveTelemetry,
}

impl DayShard for RescoreShard {
    fn flush_window_state(&mut self) {
        self.detectors.flush_window_state();
    }
}

/// Selected segments grouped into runs of equal day.
fn day_groups(index: &ArchiveIndex, range: Option<DateRange>) -> Vec<DayGroup> {
    let mut groups: Vec<DayGroup> = Vec::new();
    for (i, entry) in index.select(range) {
        let day = index.segments[i].day;
        match groups.last_mut() {
            Some((d, run)) if *d == day => run.push((i, entry)),
            _ => groups.push((day, vec![(i, entry)])),
        }
    }
    groups
}

/// Replay the days of `range` (the whole archive when `None`) through
/// the scan and spam detectors, score every implicated network, and
/// assemble the scored blocklist. Runs under a `live/rescore` span;
/// replay accounting lands on the `archive.*` counters and detections on
/// `detect.scan.hits` / `detect.spam.hits`.
pub fn rescore_window(
    data: &[u8],
    range: Option<DateRange>,
    cfg: &LiveScanConfig,
    registry: &Registry,
) -> Result<WindowScan, IndexedError> {
    let t0 = std::time::Instant::now();
    let mut span = registry.span("live/rescore");
    if data.is_empty() {
        // A spool with nothing sealed yet: an empty, well-formed scan.
        return Ok(empty_scan(cfg));
    }
    let archive = IndexedArchive::open(data)?;
    let groups = day_groups(archive.index(), range);
    span.field("days", groups.len() as u64);
    let pool = Executor::new(cfg.threads);
    span.field("threads", pool.threads() as u64);
    let new_shard = || RescoreShard {
        detectors: DetectorPair::new(&cfg.fanout, &cfg.spam),
        telemetry: ArchiveTelemetry::default(),
    };
    let shards = day_sweep(&pool, &groups, new_shard, |(_, segments), shard| {
        for &(i, entry) in segments {
            let mut cursor = archive.cursor(i, entry)?;
            cursor.for_each_flow(|f| shard.detectors.observe(f))?;
            shard.telemetry.accumulate(&cursor.telemetry());
        }
        Ok::<(), IndexedError>(())
    })?;

    let mut detectors = DetectorPair::new(&cfg.fanout, &cfg.spam);
    let mut telemetry = ArchiveTelemetry::default();
    for shard in shards {
        detectors.merge(shard.detectors);
        telemetry.accumulate(&shard.telemetry);
    }
    let flows = detectors.flows;
    telemetry.record(registry);
    registry
        .counter("detect.scan.hits")
        .add(detectors.scan.detected_count() as u64);
    registry
        .counter("detect.spam.hits")
        .add(detectors.spam.detected_count() as u64);

    let window = match (groups.first(), groups.last()) {
        (Some((first, _)), Some((last, _))) => Some(DateRange::new(*first, *last)),
        _ => None,
    };
    let report_range = window.unwrap_or(DateRange::single(Day(0)));
    let scan = Report::new(
        "live-scan",
        ReportClass::Scanning,
        Provenance::Observed,
        report_range,
        detectors.scan.detected(),
    );
    let spam = Report::new(
        "live-spam",
        ReportClass::Spamming,
        Provenance::Observed,
        report_range,
        detectors.spam.detected(),
    );
    let scorer = UncleanlinessScorer {
        prefix_len: cfg.prefix_len,
        weights: cfg.weights,
    };
    let scores = scorer.score(&[&scan, &spam]);
    let blocklist: Vec<(Cidr, f64)> = scores
        .iter()
        .filter(|ns| ns.score >= cfg.min_score)
        .map(|ns| (ns.network, ns.score))
        .collect();
    span.field("flows", flows);
    span.field("networks", blocklist.len() as u64);
    registry.trace_event(
        TraceEvent::now(TraceKind::Rescore)
            .dur_ns(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64)
            .field("days", groups.len())
            .field("flows", flows)
            .field("networks", blocklist.len()),
    );
    Ok(WindowScan {
        window,
        flows,
        telemetry,
        scan,
        spam,
        scores,
        blocklist,
    })
}

fn empty_scan(_cfg: &LiveScanConfig) -> WindowScan {
    let range = DateRange::single(Day(0));
    WindowScan {
        window: None,
        flows: 0,
        telemetry: ArchiveTelemetry::default(),
        scan: Report::new(
            "live-scan",
            ReportClass::Scanning,
            Provenance::Observed,
            range,
            unclean_core::IpSet::empty(),
        ),
        spam: Report::new(
            "live-spam",
            ReportClass::Spamming,
            Provenance::Observed,
            range,
            unclean_core::IpSet::empty(),
        ),
        scores: Vec::new(),
        blocklist: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unclean_core::Ip;
    use unclean_flowgen::record::{proto, tcp_flags, EPOCH_UNIX_SECS};
    use unclean_flowgen::{Flow, WalSpool};

    /// A hostile SYN sweep from one source: enough distinct destinations
    /// inside one hour to trip the fan-out detector.
    fn sweep(spool: &mut WalSpool, src: u32, day: u32, dst_base: u32, n: u32) {
        for i in 0..n {
            spool
                .push(&Flow {
                    src: Ip(src),
                    dst: Ip(0x1e00_0000 + dst_base + i),
                    src_port: 40_000,
                    dst_port: 445,
                    proto: proto::TCP,
                    packets: 1,
                    octets: 40,
                    flags: tcp_flags::SYN,
                    start_secs: i64::from(day) * 86_400 + i64::from(i % 3_600),
                    duration_secs: 0,
                })
                .expect("push");
        }
    }

    fn spool_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("unclean-live-scan")
            .join(format!("{name}-{:?}", std::thread::current().id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Two days, several seals per day — the WAL shape the offline
    /// replay never produces.
    fn two_day_image(name: &str) -> Vec<u8> {
        let dir = spool_dir(name);
        let mut spool = WalSpool::create(&dir, EPOCH_UNIX_SECS).expect("create");
        for day in 0..2u32 {
            // Split one source's sweep across two sealed segments — 40
            // distinct destinations each, both below the 64-fan-out
            // threshold alone: only a day-scoped scan reassembles the
            // hourly window that crosses the seal.
            sweep(&mut spool, 0x0901_0001, day, 0, 40);
            spool.seal().expect("seal");
            sweep(&mut spool, 0x0901_0001, day, 40, 40);
            sweep(&mut spool, 0x0905_0001 + day, day, 0, 90);
            spool.seal().expect("seal");
        }
        assert!(spool.sealed_segments().len() >= 4, "multi-segment days");
        spool.sealed_image().expect("image")
    }

    #[test]
    fn rescore_detects_and_scores_networks() {
        let image = two_day_image("detects");
        let cfg = LiveScanConfig::default();
        let scan = rescore_window(&image, None, &cfg, &Registry::off()).expect("rescore");
        assert_eq!(scan.window, Some(DateRange::new(Day(0), Day(1))));
        assert_eq!(scan.flows, 2 * (40 + 40 + 90));
        assert_eq!(scan.telemetry.lost_flows, 0);
        assert!(!scan.scan.is_empty(), "sweeps detected");
        assert!(!scan.blocklist.is_empty());
        // 9.1.0.0/24 hosts the split sweep; it must still be implicated.
        let networks: Vec<String> = scan.blocklist.iter().map(|(c, _)| c.to_string()).collect();
        assert!(networks.contains(&"9.1.0.0/24".to_string()), "{networks:?}");
        for (_, score) in &scan.blocklist {
            assert!(*score > 0.0);
        }
    }

    #[test]
    fn rescore_is_thread_count_invariant() {
        let image = two_day_image("threads");
        let at = |threads: usize| {
            let cfg = LiveScanConfig {
                threads,
                ..LiveScanConfig::default()
            };
            rescore_window(&image, None, &cfg, &Registry::off()).expect("rescore")
        };
        let a = at(1);
        let b = at(8);
        assert_eq!(a.scan, b.scan);
        assert_eq!(a.spam, b.spam);
        assert_eq!(a.scores, b.scores);
        assert_eq!(a.blocklist, b.blocklist);
        assert_eq!(a.telemetry, b.telemetry);
    }

    #[test]
    fn day_range_scopes_the_window() {
        let image = two_day_image("window");
        let cfg = LiveScanConfig::default();
        let day0 = rescore_window(
            &image,
            Some(DateRange::single(Day(0))),
            &cfg,
            &Registry::off(),
        )
        .expect("rescore");
        assert_eq!(day0.window, Some(DateRange::single(Day(0))));
        assert_eq!(day0.flows, 40 + 40 + 90);
        let all = rescore_window(&image, None, &cfg, &Registry::off()).expect("rescore");
        assert!(all.flows > day0.flows);
    }

    #[test]
    fn empty_input_is_an_empty_scan() {
        let cfg = LiveScanConfig::default();
        let scan = rescore_window(&[], None, &cfg, &Registry::off()).expect("empty");
        assert_eq!(scan.window, None);
        assert_eq!(scan.flows, 0);
        assert!(scan.blocklist.is_empty());
    }

    #[test]
    fn min_score_floor_trims_the_blocklist() {
        let image = two_day_image("floor");
        let base = rescore_window(&image, None, &LiveScanConfig::default(), &Registry::off())
            .expect("rescore");
        let strict_cfg = LiveScanConfig {
            min_score: f64::MAX,
            ..LiveScanConfig::default()
        };
        let strict = rescore_window(&image, None, &strict_cfg, &Registry::off()).expect("rescore");
        assert!(!base.blocklist.is_empty());
        assert!(strict.blocklist.is_empty(), "floor trims everything");
        assert_eq!(strict.scores, base.scores, "scores themselves unchanged");
    }
}
