//! Window-scoped rescoring over a live archive — the ingest daemon's
//! analysis half.
//!
//! The offline pipeline ([`crate::build_reports`]) starts from a
//! generated scenario; a live collector starts from *bytes*: the sealed
//! segments of the WAL spool. A [`LiveWindow`] replays segments through
//! the behavioural detectors, scores the implicated networks with the §7
//! multidimensional scorer, and returns deploy-ready scored blocklist
//! entries — the payload the rescore loop hands to `unclean-serve`.
//!
//! The window keeps its detector state from one rescore to the next: the
//! detections of every day fed so far, plus the window state of the last
//! day fed. [`LiveWindow::rescore`] feeds only the segments sealed since
//! the previous call, so a publish costs the new flows plus scoring, not
//! the spool's age. [`rescore_window`] is a fresh window fed every
//! selected segment of an archive image.
//!
//! A WAL spool holds *several* segments for the same day (the spooler
//! seals on every publish, not just at day boundaries). The detectors
//! carry hourly- and daily-window state, so the window flushes it only
//! where the day changes between consecutive segments: one day's run of
//! segments is one detector window, however many publishes it spans.
//! Whole-day runs that one rescore brings in behind the open day (a
//! restart's catch-up) go through the shared day sweep, so `threads` still
//! parallelises them. The published lists are the union of every run's
//! detections, and a detected source is skipped by both detectors, so
//! carrying detections from run to run changes nothing: a window fed
//! publish by publish scores exactly what a from-scratch replay of the
//! same segments does.

use crate::scan::FanoutConfig;
use crate::spam::SpamConfig;
use crate::sweep::{day_sweep, DayShard, DetectorPair};
use crossbeam::executor::Executor;
use serde::{Deserialize, Serialize};
use unclean_core::{
    Cidr, DateRange, Day, IpSet, NetworkScore, Provenance, Report, ReportClass, ScoreWeights,
    UncleanlinessScorer,
};
use unclean_flowgen::{ArchiveTelemetry, IndexedArchive, IndexedError, SegmentSource};
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
    /// Worker threads for the day-sharded catch-up (0 = one per core).
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
#[derive(Debug, Clone, PartialEq)]
pub struct WindowScan {
    /// The earliest through the latest day of the segments fed (None for
    /// an empty window).
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

/// Segments to replay, in file order, as the `(segment, entry_sequence)`
/// pairs of [`unclean_flowgen::ArchiveIndex::select`].
type Selection = [(usize, Option<u32>)];

/// One catch-up chunk's state: its detectors, the replay accounting of
/// the segments it walked, and its read buffer.
struct RescoreShard {
    detectors: DetectorPair,
    telemetry: ArchiveTelemetry,
    buf: Vec<u8>,
}

impl DayShard for RescoreShard {
    fn flush_window_state(&mut self) {
        self.detectors.flush_window_state();
    }
}

/// A live window's detector state, kept across rescores so each one
/// replays only what was sealed since the last (see the module docs).
pub struct LiveWindow {
    cfg: LiveScanConfig,
    /// The detections of every day fed, plus the open day's window state.
    detectors: DetectorPair,
    /// Replay accounting of every segment fed.
    telemetry: ArchiveTelemetry,
    /// The day of the last segment fed: the one whose window state is open.
    open_day: Option<Day>,
    /// The earliest through the latest day fed.
    days: Option<DateRange>,
    /// How many of the source's segments [`LiveWindow::rescore`] has fed.
    fed: usize,
    /// An earlier rescore failed part-way, leaving the state half-fed.
    failed: bool,
    /// Segment read buffer, reused from segment to segment.
    buf: Vec<u8>,
}

impl LiveWindow {
    /// A window that has been fed nothing.
    pub fn new(cfg: LiveScanConfig) -> LiveWindow {
        LiveWindow {
            detectors: DetectorPair::new(&cfg.fanout, &cfg.spam),
            cfg,
            telemetry: ArchiveTelemetry::default(),
            open_day: None,
            days: None,
            fed: 0,
            failed: false,
            buf: Vec::new(),
        }
    }

    /// Feed the segments `source` holds past those fed by earlier calls,
    /// then score the window: one publish. `source` must only have grown
    /// by appended segments since the last call, as a WAL spool does
    /// between seals. Runs under a `live/rescore` span; the new segments'
    /// replay accounting lands on the `archive.*` counters and new
    /// detections on `detect.scan.hits` / `detect.spam.hits`. A window
    /// whose rescore failed refuses further ones: start a fresh window.
    pub fn rescore(
        &mut self,
        source: &impl SegmentSource,
        registry: &Registry,
    ) -> Result<WindowScan, IndexedError> {
        let segments = &source.index().segments;
        if segments.len() < self.fed {
            return Err(IndexedError::Corrupt(format!(
                "the source holds {} segments, fewer than the {} already fed",
                segments.len(),
                self.fed
            )));
        }
        // Entry sequences as `select(None)` gives them.
        let new: Vec<(usize, Option<u32>)> = (self.fed..segments.len())
            .map(|i| (i, i.checked_sub(1).map(|p| segments[p].end_seq)))
            .collect();
        let scan = self.rescore_selected(source, &new, registry)?;
        self.fed = segments.len();
        Ok(scan)
    }

    /// Feed `selected`, record the accounting, and score.
    fn rescore_selected(
        &mut self,
        source: &impl SegmentSource,
        selected: &Selection,
        registry: &Registry,
    ) -> Result<WindowScan, IndexedError> {
        if self.failed {
            return Err(IndexedError::Corrupt(
                "an earlier rescore of this window failed part-way".to_string(),
            ));
        }
        let t0 = std::time::Instant::now();
        let mut span = registry.span("live/rescore");
        let hits = (
            self.detectors.scan.detected_count(),
            self.detectors.spam.detected_count(),
        );
        self.failed = true;
        let (days, telemetry) = self.feed(source, selected)?;
        self.failed = false;
        telemetry.record(registry);
        registry
            .counter("detect.scan.hits")
            .add((self.detectors.scan.detected_count() - hits.0) as u64);
        registry
            .counter("detect.spam.hits")
            .add((self.detectors.spam.detected_count() - hits.1) as u64);

        let scan = self.score();
        span.field("days", days);
        span.field("flows", telemetry.flows);
        span.field("networks", scan.blocklist.len());
        registry.trace_event(
            TraceEvent::now(TraceKind::Rescore)
                .dur_ns(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64)
                .field("days", days)
                .field("flows", telemetry.flows)
                .field("networks", scan.blocklist.len()),
        );
        Ok(scan)
    }

    /// Replay `selected` on top of the window's state: a first run on the
    /// open day continues its window state; any later run starts a fresh
    /// one, the whole-day runs before the last through the day sweep.
    /// Each run is one strict walk. Returns the number of day runs fed
    /// and their replay accounting.
    fn feed(
        &mut self,
        source: &impl SegmentSource,
        selected: &Selection,
    ) -> Result<(usize, ArchiveTelemetry), IndexedError> {
        let segments = &source.index().segments;
        let day = |run: &Selection| segments[run[0].0].day;
        let runs: Vec<&Selection> = selected
            .chunk_by(|a, b| segments[a.0].day == segments[b.0].day)
            .collect();
        let mut telemetry = ArchiveTelemetry::default();
        let mut rest = runs.as_slice();
        if let Some((first, later)) = rest.split_first() {
            if Some(day(first)) == self.open_day {
                let walk = source.walk(first, false, &mut self.buf, |_, cursor| {
                    cursor.for_each_flow(|f| self.detectors.observe(f))
                })?;
                telemetry.accumulate(&walk.telemetry);
                rest = later;
            }
        }
        if let Some((last, closed)) = rest.split_last() {
            self.detectors.flush_window_state();
            if !closed.is_empty() {
                let cfg = &self.cfg;
                let new_shard = || RescoreShard {
                    detectors: DetectorPair::new(&cfg.fanout, &cfg.spam),
                    telemetry: ArchiveTelemetry::default(),
                    buf: Vec::new(),
                };
                let shards = day_sweep(
                    &Executor::new(cfg.threads),
                    closed,
                    new_shard,
                    |run, shard| {
                        source
                            .walk(run, false, &mut shard.buf, |_, cursor| {
                                cursor.for_each_flow(|f| shard.detectors.observe(f))
                            })
                            .map(|walk| shard.telemetry.accumulate(&walk.telemetry))
                    },
                )?;
                for shard in shards {
                    self.detectors.merge(shard.detectors);
                    telemetry.accumulate(&shard.telemetry);
                }
            }
            let walk = source.walk(last, false, &mut self.buf, |_, cursor| {
                cursor.for_each_flow(|f| self.detectors.observe(f))
            })?;
            telemetry.accumulate(&walk.telemetry);
            self.open_day = Some(day(last));
        }
        for run in &runs {
            let d = day(run);
            self.days = Some(match self.days {
                None => DateRange::single(d),
                Some(r) => DateRange::new(r.start.min(d), r.end.max(d)),
            });
        }
        self.telemetry.accumulate(&telemetry);
        Ok((runs.len(), telemetry))
    }

    /// Score the window as fed so far.
    fn score(&self) -> WindowScan {
        let range = self.days.unwrap_or(DateRange::single(Day(0)));
        let report = |name: &str, class: ReportClass, detected: IpSet| {
            Report::new(name, class, Provenance::Observed, range, detected)
        };
        let scan = report(
            "live-scan",
            ReportClass::Scanning,
            self.detectors.scan.detected(),
        );
        let spam = report(
            "live-spam",
            ReportClass::Spamming,
            self.detectors.spam.detected(),
        );
        let scorer = UncleanlinessScorer {
            prefix_len: self.cfg.prefix_len,
            weights: self.cfg.weights,
        };
        let scores = scorer.score(&[&scan, &spam]);
        let blocklist = scores
            .iter()
            .filter(|ns| ns.score >= self.cfg.min_score)
            .map(|ns| (ns.network, ns.score))
            .collect();
        WindowScan {
            window: self.days,
            flows: self.detectors.flows,
            telemetry: self.telemetry,
            scan,
            spam,
            scores,
            blocklist,
        }
    }
}

/// Replay the days of `range` (the whole archive when `None`) of an
/// archive image through a fresh [`LiveWindow`] and score it.
pub fn rescore_window(
    data: &[u8],
    range: Option<DateRange>,
    cfg: &LiveScanConfig,
    registry: &Registry,
) -> Result<WindowScan, IndexedError> {
    let mut window = LiveWindow::new(cfg.clone());
    if data.is_empty() {
        // A spool with nothing sealed yet: an empty, well-formed scan.
        return Ok(window.score());
    }
    let archive = IndexedArchive::open(data)?;
    window.rescore_selected(&archive, &archive.index().select(range), registry)
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

    /// Publish after every seal: the window carries one source's hourly
    /// fan-out across a seal (and across a publish) and ends up where a
    /// from-scratch rescore of the same spool does, at every publish.
    #[test]
    fn publish_by_publish_equals_a_full_rescore() {
        let dir = spool_dir("incremental");
        let mut spool = WalSpool::create(&dir, EPOCH_UNIX_SECS).expect("create");
        let cfg = LiveScanConfig::default();
        let mut window = LiveWindow::new(cfg.clone());
        let mut publish = |spool: &mut WalSpool| {
            spool.seal().expect("seal");
            let live = window
                .rescore(&spool.segments(), &Registry::off())
                .expect("rescore");
            let image = spool.sealed_image().expect("image");
            let full = rescore_window(&image, None, &cfg, &Registry::off()).expect("rescore");
            assert_eq!(live, full);
            live
        };
        for day in 0..2u32 {
            sweep(&mut spool, 0x0901_0001, day, 0, 40);
            let half = publish(&mut spool);
            // 40 of the 64 destinations: not yet a scanner on day 0.
            let flagged = half
                .blocklist
                .iter()
                .any(|(c, _)| c.to_string() == "9.1.0.0/24");
            assert_eq!(flagged, day > 0);
            sweep(&mut spool, 0x0901_0001, day, 40, 40);
            sweep(&mut spool, 0x0905_0001 + day, day, 0, 90);
            let whole = publish(&mut spool);
            assert!(whole
                .blocklist
                .iter()
                .any(|(c, _)| c.to_string() == "9.1.0.0/24"));
        }
        // Nothing new sealed: the same scan again.
        assert_eq!(publish(&mut spool).flows, 2 * (40 + 40 + 90));
    }

    /// A segment dated before the spool's first day: the window runs from
    /// the earliest to the latest day fed, and the rescore of every
    /// publish agrees with a from-scratch one.
    #[test]
    fn a_day_before_the_first_widens_the_window() {
        let dir = spool_dir("earlier-day");
        let mut spool = WalSpool::create(&dir, EPOCH_UNIX_SECS).expect("create");
        let cfg = LiveScanConfig::default();
        let mut window = LiveWindow::new(cfg.clone());
        for day in [2u32, 0] {
            sweep(&mut spool, 0x0901_0001 + (day << 8), day, 0, 90);
            spool.seal().expect("seal");
            let image = spool.sealed_image().expect("image");
            let full = rescore_window(&image, None, &cfg, &Registry::off()).expect("rescore");
            let live = window
                .rescore(&spool.segments(), &Registry::off())
                .expect("rescore");
            assert_eq!(live, full);
        }
        let scan = window
            .rescore(&spool.segments(), &Registry::off())
            .expect("rescore");
        assert_eq!(scan.window, Some(DateRange::new(Day(0), Day(2))));
        assert_eq!(scan.flows, 2 * 90);
        assert_eq!(scan.blocklist.len(), 2, "{:?}", scan.blocklist);
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
