//! # unclean-forecast
//!
//! Longitudinal forecasting on top of the uncleanliness reproduction.
//!
//! The paper stops at one horizon: last month's unclean /24s predict next
//! month's botnet blocks. This crate pushes past it, in the direction the
//! related work points (per-network attack rates are spatiotemporally
//! predictable; coordinated remediation is measurable):
//!
//! * [`series`] — per-/16 daily report-count series, built from the v2
//!   indexed flow archive or directly from a synthetic infection history;
//! * [`model`] — a Holt-style level+trend smoother per network with a
//!   spatial neighbor term over adjacent /16s, fit deterministically
//!   across threads via the work-stealing executor;
//! * [`eval`] — Brier/MAE scoring on a held-out horizon against a
//!   persistence baseline;
//! * [`artifact`] — the generation-stamped, atomically published forecast
//!   file the serving daemon hot-reloads;
//! * [`simulate`] — remediation what-if runs: replay the same seeded
//!   epidemic with and without a notify-and-cleanup campaign and measure
//!   blocklist decay, false-positive cost, and score half-life.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod eval;
pub mod model;
pub mod series;
pub mod simulate;

pub use artifact::{ArtifactError, ForecastArtifact};
pub use eval::{evaluate, EvalError, EvalReport};
pub use model::{ForecastConfig, ForecastModel, NetworkForecast};
pub use series::{DailySeries, SeriesError};
pub use simulate::{PeriodRow, SimulateConfig, SimulateReport};
