//! # unclean-detect
//!
//! Report generators for the uncleanliness reproduction: the detectors and
//! monitors whose outputs are the paper's Table 1 reports.
//!
//! * [`scan`] — behavioural scan detection: the deployed hourly fan-out
//!   detector (with the paper's documented slow-scan blind spot) plus a
//!   TRW sequential-hypothesis-testing baseline;
//! * [`spam`] — behavioural SMTP-burst detection;
//! * [`botmonitor`] — partial-visibility C&C channel monitoring (the
//!   "provided" bot report) and single-channel roster snapshots (the
//!   bot-test report);
//! * [`phishlist`] — the provided phishing list;
//! * [`builder`] — the full pipeline: scenario → flows → detectors →
//!   the paper's report inventory, candidate collection, and Figure 1's
//!   daily scanner series;
//! * [`live`] — the ingest daemon's analysis half: a rescore window
//!   that keeps its detector state across publishes, fed only the WAL
//!   segments sealed since the last one, scored into a blocklist.
//!
//! The offline detector and candidate passes and the live rescore share
//! one day-sharded sweep (`sweep::day_sweep`): whole-day chunks on the
//! executor, merged in day order, bit-identical at any thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod botmonitor;
pub mod builder;
pub mod live;
pub mod phishlist;
pub mod scan;
pub mod spam;
mod sweep;

pub use botmonitor::{BotMonitor, MonitorConfig, MonitorSweep};
pub use builder::{
    build_candidates, build_candidates_with, build_reports, build_reports_with, daily_scanners,
    daily_scanners_with, PipelineConfig, ReportSet,
};
pub use live::{rescore_window, LiveScanConfig, LiveWindow, WindowScan};
pub use phishlist::phish_report;
pub use scan::{FanoutConfig, HourlyFanoutDetector, TrwConfig, TrwDetector};
pub use spam::{SpamConfig, SpamDetector};
