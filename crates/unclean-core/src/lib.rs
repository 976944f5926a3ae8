//! # unclean-core
//!
//! A from-scratch reproduction of the measurement machinery in
//! *Using Uncleanliness to Predict Future Botnet Addresses*
//! (M. P. Collins et al., IMC 2007).
//!
//! The paper defines **uncleanliness** — a per-*network* quality measuring
//! the propensity of the hosts inside it to be compromised — and tests two
//! hypotheses over sets of IP addresses ("reports") gathered from botnet,
//! phishing, scanning and spamming observations:
//!
//! * **Spatial uncleanliness** (§4, [`density`]): compromised hosts
//!   cluster — an unclean report occupies fewer equal-sized CIDR blocks
//!   than a random control sample of the same size, at every prefix length
//!   in `[16, 32]`.
//! * **Temporal uncleanliness** (§5, [`predict`]): unclean networks stay
//!   unclean — a months-old report of unclean addresses intersects the
//!   block sets of *current* unclean reports more than random samples do,
//!   in at least 95% of 1000 control draws.
//!
//! and evaluates a practical consequence:
//!
//! * **Predictive blocking** (§6, [`blocking`]): blocking the /24s of a
//!   five-month-old botnet report mostly blocks addresses that turn out to
//!   be hostile, with very few payload-exchanging innocents.
//!
//! ## Layout
//!
//! | module | contents |
//! |---|---|
//! | [`ip`] | `u32`-backed IPv4 addresses; reserved-range taxonomy |
//! | [`cidr`] | CIDR blocks; the masking function `C_n(i)` |
//! | [`clusters`] | heterogeneous network-aware clustering (the §4.1 alternative) |
//! | [`ipset`] | sorted-vector address sets; set algebra; random subsets |
//! | [`blocks`] | `C_n(S)` block sets; one-pass all-prefix block counting; minimal CIDR aggregation |
//! | [`frozen`] | the longest-prefix-match trie every scored block list is served from |
//! | [`snap`] | the trie's byte image (heap-built or mmapped snapshot file); CRC-32 |
//! | [`time`] | calendar days and report periods |
//! | [`report`] | tagged/classed/dated reports and their filtering |
//! | [`overlap`] | cross-indicator overlap matrices (address and /24 level) |
//! | [`sampling`] | naive and empirical control-population estimators |
//! | [`score`] | multidimensional uncleanliness scoring (the paper's §7 future work) |
//! | [`density`] | the spatial uncleanliness analysis |
//! | [`predict`] | the temporal uncleanliness analysis |
//! | [`blocking`] | the §6 candidate partition and blocking table |
//! | [`blocklist`] | router-ready block-list rendering (plain / Cisco ACL / iptables) |
//! | [`publish`] | atomic file publication (tmp, fsync, rename, directory fsync) |
//!
//! ## Quick start
//!
//! ```
//! use unclean_core::prelude::*;
//! use unclean_stats::SeedTree;
//!
//! // A control population (in reality: 47M addresses seen crossing an
//! // edge network) and an "unclean" report whose addresses cluster.
//! let control = IpSet::from_raw((0..100_000u32).map(|i| (i % 20_000) << 8 | (i / 20_000)).collect());
//! let bots = Report::new(
//!     "bot",
//!     ReportClass::Bots,
//!     Provenance::Provided,
//!     DateRange::new(Day::EPOCH, Day::EPOCH + 13),
//!     IpSet::from_raw((0..500u32).map(|i| (i % 5) << 8 | (i / 5)).collect()),
//! );
//!
//! // Spatial uncleanliness: is the bot report denser than random samples?
//! let analysis = DensityAnalysis::with_config(DensityConfig {
//!     trials: 50,
//!     ..DensityConfig::default()
//! });
//! let result = analysis.run(&bots, &control, &[], &SeedTree::new(42));
//! assert!(result.hypothesis_holds());
//! ```

// Unsafe is banned everywhere except [`snap`], the single audited
// module holding the snapshot mmap FFI and its record/byte casts (it
// opts back in with a module-level `allow`).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod blocking;
pub mod blocklist;
pub mod blocks;
pub mod cidr;
pub mod clusters;
pub mod density;
pub mod error;
pub mod frozen;
pub mod ip;
pub mod ipset;
pub mod overlap;
pub mod predict;
pub mod publish;
pub mod report;
pub mod sampling;
pub mod score;
pub mod snap;
pub mod time;

/// Convenience re-exports of the types almost every consumer needs.
pub mod prelude {
    pub use crate::blocking::{
        collect_candidates, BlockingAnalysis, BlockingRow, BlockingTable, Candidate, Partition,
    };
    pub use crate::blocklist::{
        parse_plain, parse_scored, render as render_blocklist, render_scored, BlocklistFormat,
    };
    pub use crate::blocks::{shared_block_counts, BlockCounts, BlockSet};
    pub use crate::cidr::Cidr;
    pub use crate::clusters::{ClusterConfig, NetworkClusters};
    pub use crate::density::{
        density_curve, DensityAnalysis, DensityConfig, DensityResult, PrefixRange,
    };
    pub use crate::error::Error;
    pub use crate::frozen::{FrozenTrie, LpmMatch};
    pub use crate::ip::{Ip, ReservedClass};
    pub use crate::ipset::IpSet;
    pub use crate::overlap::{OverlapCell, OverlapMatrix};
    pub use crate::predict::{prediction_curve, TemporalAnalysis, TemporalConfig, TemporalResult};
    pub use crate::report::{union_reports, Provenance, Report, ReportClass};
    pub use crate::sampling::{empirical_sample, naive_sample, Estimator};
    pub use crate::score::{NetworkScore, ScoreWeights, UncleanlinessScorer};
    pub use crate::snap::{SnapError, SnapshotInfo, SnapshotMeta};
    pub use crate::time::{DateRange, Day};
}

pub use prelude::*;
pub use publish::publish_atomic;
