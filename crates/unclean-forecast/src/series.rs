//! Per-/16 daily report-count series.
//!
//! The forecaster's unit of observation is the paper's: how many
//! *reported* addresses a network contributed on a day. Two builders
//! exist. [`DailySeries::from_archive`] counts distinct source addresses
//! per (network, day) out of the v2 indexed flow archive — the
//! production path, fed by whatever the collector recorded.
//! [`DailySeries::from_infections`] builds the same series from a
//! synthetic infection history with a per-(host, day) reporting
//! probability decided by stable hashing — the evaluation path, where
//! ground truth (planted hygiene) is known and determinism is exact.

use std::collections::BTreeSet;

use unclean_core::{DateRange, Day};
use unclean_flowgen::{ArchiveTelemetry, IndexedArchive, IndexedError, SegmentSource};
use unclean_netmodel::randutil::uniform_hash;
use unclean_netmodel::Infection;
use unclean_stats::SeedTree;

/// Errors building a series.
#[derive(Debug)]
pub enum SeriesError {
    /// The archive failed to open or verify (including a v1 archive, not
    /// yet upgraded with `unclean archive index`).
    Archive(IndexedError),
    /// The archive (or requested range) contains no flows.
    Empty,
}

impl std::fmt::Display for SeriesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SeriesError::Archive(e) => write!(f, "archive error: {e}"),
            SeriesError::Empty => write!(f, "no flows in the selected day range"),
        }
    }
}

impl std::error::Error for SeriesError {}

impl From<IndexedError> for SeriesError {
    fn from(e: IndexedError) -> SeriesError {
        SeriesError::Archive(e)
    }
}

/// Daily report counts per /16 network over a contiguous span.
#[derive(Debug, Clone, PartialEq)]
pub struct DailySeries {
    span: DateRange,
    /// Sorted /16 prefixes (address >> 16) with at least one report.
    networks: Vec<u32>,
    /// `networks.len() × span.len_days()` counts, row-major per network.
    counts: Vec<f64>,
}

impl DailySeries {
    fn from_pairs(pairs: BTreeSet<(u32, i32, u32)>, span: DateRange) -> DailySeries {
        // pairs hold (net, day, addr) triples: distinct reported
        // addresses per (network, day).
        let mut networks: Vec<u32> = pairs.iter().map(|&(net, _, _)| net).collect();
        networks.dedup();
        let days = span.len_days() as usize;
        let mut counts = vec![0.0; networks.len() * days];
        for &(net, day, _) in &pairs {
            let row = networks.binary_search(&net).expect("net registered");
            let col = (day - span.start.0) as usize;
            counts[row * days + col] += 1.0;
        }
        DailySeries {
            span,
            networks,
            counts,
        }
    }

    /// Build from a v2 indexed archive: distinct source addresses per
    /// (/16, day), over `range` (the archive's whole span when `None`),
    /// streamed out of one strict segment walk.
    pub fn from_archive(
        data: &[u8],
        range: Option<DateRange>,
    ) -> Result<(DailySeries, ArchiveTelemetry), SeriesError> {
        let archive = IndexedArchive::open(data)?;
        let mut pairs = BTreeSet::new();
        let mut lo = i32::MAX;
        let mut hi = i32::MIN;
        let walk = archive.walk(
            &archive.index().select(range),
            false,
            &mut Vec::new(),
            |_, cursor| {
                cursor.for_each_flow(|f| {
                    let day = f.day().0;
                    lo = lo.min(day);
                    hi = hi.max(day);
                    pairs.insert((f.src.raw() >> 16, day, f.src.raw()));
                })
            },
        )?;
        if pairs.is_empty() {
            return Err(SeriesError::Empty);
        }
        let span = match range {
            Some(r) => r,
            None => DateRange::new(Day(lo), Day(hi)),
        };
        Ok((DailySeries::from_pairs(pairs, span), walk.telemetry))
    }

    /// Build from an infection history: an infected host is *reported*
    /// on a given day with probability `report_prob`, decided by a
    /// stable per-(host, day) hash under `seeds` — so the series is
    /// deterministic and independent of infection order.
    pub fn from_infections(
        infections: &[Infection],
        span: DateRange,
        report_prob: f64,
        seeds: &SeedTree,
    ) -> DailySeries {
        let seeds = seeds.child("report-series");
        let mut pairs = BTreeSet::new();
        for inf in infections {
            let lo = inf.start.max(span.start.0);
            let hi = inf.end.min(span.end.0);
            for day in lo..=hi {
                if uniform_hash(&seeds, inf.addr, day, "report") < report_prob {
                    pairs.insert((inf.addr >> 16, day, inf.addr));
                }
            }
        }
        DailySeries::from_pairs(pairs, span)
    }

    /// The covered span.
    pub fn span(&self) -> DateRange {
        self.span
    }

    /// Number of days covered.
    pub fn days(&self) -> usize {
        self.span.len_days() as usize
    }

    /// The /16 prefixes with reports, sorted, aligned with row indices.
    pub fn networks(&self) -> &[u32] {
        &self.networks
    }

    /// One network's counts, day by day.
    pub fn row(&self, net_idx: usize) -> &[f64] {
        let days = self.days();
        &self.counts[net_idx * days..(net_idx + 1) * days]
    }

    /// Count for network `net_idx` on day-offset `day_idx`.
    pub fn count(&self, net_idx: usize, day_idx: usize) -> f64 {
        self.row(net_idx)[day_idx]
    }

    /// Total reports across all networks on day-offset `day_idx`.
    pub fn day_total(&self, day_idx: usize) -> f64 {
        (0..self.networks.len())
            .map(|i| self.count(i, day_idx))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inf(addr: u32, start: i32, end: i32) -> Infection {
        Infection {
            addr,
            start,
            end,
            recruited: false,
            channel: 0,
        }
    }

    #[test]
    fn counts_distinct_hosts_per_network_day() {
        let span = DateRange::new(Day(0), Day(9));
        let infections = vec![
            inf(0x09010105, 0, 9),
            inf(0x09010206, 0, 4),
            inf(0x0A000001, 3, 3),
        ];
        // report_prob = 1: every infected host-day is a report.
        let s = DailySeries::from_infections(&infections, span, 1.0, &SeedTree::new(1));
        assert_eq!(s.networks(), &[0x0901, 0x0A00]);
        assert_eq!(s.count(0, 0), 2.0);
        assert_eq!(s.count(0, 5), 1.0);
        assert_eq!(s.count(1, 3), 1.0);
        assert_eq!(s.count(1, 4), 0.0);
        assert_eq!(s.day_total(0), 2.0);
    }

    #[test]
    fn thinning_is_deterministic_and_roughly_calibrated() {
        let span = DateRange::new(Day(0), Day(99));
        let infections: Vec<Infection> = (0..200).map(|i| inf(0x09010000 + i, 0, 99)).collect();
        let a = DailySeries::from_infections(&infections, span, 0.35, &SeedTree::new(7));
        let b = DailySeries::from_infections(&infections, span, 0.35, &SeedTree::new(7));
        assert_eq!(a, b);
        let mean: f64 = (0..a.days()).map(|d| a.day_total(d)).sum::<f64>() / a.days() as f64;
        assert!(
            (mean - 70.0).abs() < 10.0,
            "mean daily reports {mean} ≈ 200·0.35"
        );
        // Different seeds draw different reports.
        let c = DailySeries::from_infections(&infections, span, 0.35, &SeedTree::new(8));
        assert_ne!(a, c);
    }

    #[test]
    fn spans_clip_infection_intervals() {
        let span = DateRange::new(Day(10), Day(19));
        let infections = vec![inf(0x09010105, 0, 100)];
        let s = DailySeries::from_infections(&infections, span, 1.0, &SeedTree::new(1));
        assert_eq!(s.days(), 10);
        assert!((0..10).all(|d| s.count(0, d) == 1.0));
    }
}
