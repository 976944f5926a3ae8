//! The published forecast artifact.
//!
//! Same contract as the blocklist the serving daemon already consumes: a
//! plain text file, comment header carrying `generation=` lineage (the
//! format [`unclean_core::blocklist::parse_header_meta`] validates), one
//! entry per line, written with tmp+fsync+rename so readers only ever
//! see a complete generation. Entries store the fitted state (`level`,
//! `trend`, `sigma`), not a single pre-computed rate, so the serving
//! endpoint can answer any `horizon=N` without a refit. Floats render in
//! Rust's shortest round-trip form: render → parse → render is
//! byte-identical.

use unclean_core::Cidr;

use crate::model::{score_half_life, NetworkForecast};

/// Errors reading an artifact.
#[derive(Debug)]
pub enum ArtifactError {
    /// The comment header failed validation (e.g. non-numeric
    /// `generation=`).
    Header(unclean_core::Error),
    /// An entry line failed to parse.
    Entry {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Header(e) => write!(f, "forecast header: {e}"),
            ArtifactError::Entry { line, message } => {
                write!(f, "forecast line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for ArtifactError {}

/// A parsed (or about-to-be-rendered) forecast artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct ForecastArtifact {
    /// Label on the header line.
    pub name: String,
    /// Generation stamp, when published by a generation-aware writer.
    pub generation: Option<u64>,
    /// Publish wall-clock time (Unix milliseconds), when stamped.
    pub published_unix_ms: Option<u64>,
    /// Default horizon the model was fit for.
    pub horizon_days: u32,
    /// z-score for served confidence intervals.
    pub ci_z: f64,
    /// Per-network state, sorted by `network`.
    pub entries: Vec<NetworkForecast>,
}

impl ForecastArtifact {
    /// Wrap a fitted model for publication.
    pub fn from_model(model: &crate::model::ForecastModel, name: &str) -> ForecastArtifact {
        ForecastArtifact {
            name: name.to_string(),
            generation: None,
            published_unix_ms: None,
            horizon_days: model.config.horizon_days,
            ci_z: model.config.ci_z,
            entries: model.forecasts.clone(),
        }
    }

    /// The entry for a /16 prefix (address >> 16), if the model saw it.
    pub fn lookup(&self, prefix16: u32) -> Option<&NetworkForecast> {
        self.entries
            .binary_search_by_key(&prefix16, |e| e.network)
            .ok()
            .map(|i| &self.entries[i])
    }

    /// Render the artifact text.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# forecast: {} ({} networks, horizon {} days)",
            self.name,
            self.entries.len(),
            self.horizon_days
        );
        out.push('#');
        if let Some(generation) = self.generation {
            let _ = write!(out, " generation={generation}");
        }
        if let Some(ms) = self.published_unix_ms {
            let _ = write!(out, " published_unix_ms={ms}");
        }
        let _ = write!(
            out,
            " horizon_days={} ci_z={}",
            self.horizon_days, self.ci_z
        );
        out.push('\n');
        for e in &self.entries {
            let _ = writeln!(
                out,
                "{}.{}.0.0/16 level={} trend={} sigma={} rate={}",
                e.network >> 8,
                e.network & 0xFF,
                e.level,
                e.trend,
                e.sigma,
                e.rate_at(self.horizon_days)
            );
        }
        out
    }

    /// Parse rendered text back. The header is validated with the same
    /// `parse_header_meta` the blocklist path uses; entry `rate=` tokens
    /// are derived values and ignored (recomputed from the state).
    pub fn parse(text: &str) -> Result<ForecastArtifact, ArtifactError> {
        let meta =
            unclean_core::blocklist::parse_header_meta(text).map_err(ArtifactError::Header)?;
        let name = text
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("# forecast: "))
            .and_then(|l| l.rsplit_once(" ("))
            .map(|(name, _)| name.to_string())
            .unwrap_or_else(|| "unnamed".to_string());
        let generation = meta.get("generation").and_then(|g| g.parse().ok());
        let published_unix_ms = meta.get("published_unix_ms").and_then(|t| t.parse().ok());
        let horizon_days = meta
            .get("horizon_days")
            .and_then(|h| h.parse().ok())
            .unwrap_or(7);
        let ci_z = meta
            .get("ci_z")
            .and_then(|z| z.parse().ok())
            .unwrap_or(1.96);

        let mut entries = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let entry = |message: String| ArtifactError::Entry {
                line: lineno + 1,
                message,
            };
            let mut tokens = line.split_whitespace();
            let cidr: Cidr = tokens
                .next()
                .expect("non-empty line has a token")
                .parse()
                .map_err(|e| entry(format!("bad network: {e}")))?;
            if cidr.len() != 16 {
                return Err(entry(format!("expected a /16, got /{}", cidr.len())));
            }
            let mut level = None;
            let mut trend = None;
            let mut sigma = None;
            for token in tokens {
                let Some((key, value)) = token.split_once('=') else {
                    return Err(entry(format!("malformed token {token:?}")));
                };
                let slot = match key {
                    "level" => &mut level,
                    "trend" => &mut trend,
                    "sigma" => &mut sigma,
                    _ => continue, // rate= and future keys: derived/ignored
                };
                *slot = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| entry(format!("non-numeric {key}={value:?}")))?,
                );
            }
            let (Some(level), Some(trend), Some(sigma)) = (level, trend, sigma) else {
                return Err(entry("missing level=/trend=/sigma=".to_string()));
            };
            entries.push(NetworkForecast {
                network: cidr.base().raw() >> 16,
                level,
                trend,
                sigma,
                score_half_life: score_half_life(level, trend),
            });
        }
        entries.sort_by_key(|e| e.network);
        Ok(ForecastArtifact {
            name,
            generation,
            published_unix_ms,
            horizon_days,
            ci_z,
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::HALF_LIFE_CAP_DAYS;
    use proptest::prelude::*;

    fn artifact() -> ForecastArtifact {
        ForecastArtifact {
            name: "unclean-forecast".to_string(),
            generation: Some(3),
            published_unix_ms: Some(1754700000123),
            horizon_days: 7,
            ci_z: 1.96,
            entries: vec![
                NetworkForecast {
                    network: 0x0901,
                    level: 12.5,
                    trend: -0.25,
                    sigma: 1.75,
                    score_half_life: 25.0,
                },
                NetworkForecast {
                    network: 0x0B02,
                    level: 0.5,
                    trend: 0.0,
                    sigma: 0.25,
                    score_half_life: HALF_LIFE_CAP_DAYS,
                },
            ],
        }
    }

    #[test]
    fn render_parse_round_trips() {
        let a = artifact();
        let text = a.render();
        assert!(text.starts_with("# forecast: unclean-forecast (2 networks"));
        assert!(text.contains("generation=3"));
        assert!(text.contains("9.1.0.0/16 level=12.5 trend=-0.25 sigma=1.75"));
        let parsed = ForecastArtifact::parse(&text).expect("round trip");
        assert_eq!(parsed, a);
        assert_eq!(parsed.lookup(0x0901).expect("present").level, 12.5);
        assert!(parsed.lookup(0x0902).is_none());
    }

    #[test]
    fn corrupt_header_and_entries_are_typed_errors() {
        let bad_gen = "# forecast: x (0 networks, horizon 7 days)\n# generation=oops\n";
        assert!(matches!(
            ForecastArtifact::parse(bad_gen),
            Err(ArtifactError::Header(
                unclean_core::Error::MalformedHeaderMeta { .. }
            ))
        ));
        let bad_len = "# ok\n9.1.1.0/24 level=1 trend=0 sigma=0\n";
        assert!(matches!(
            ForecastArtifact::parse(bad_len),
            Err(ArtifactError::Entry { line: 2, .. })
        ));
        let missing = "9.1.0.0/16 level=1 trend=0\n";
        assert!(ForecastArtifact::parse(missing).is_err());
        let non_numeric = "9.1.0.0/16 level=abc trend=0 sigma=0\n";
        assert!(ForecastArtifact::parse(non_numeric).is_err());
    }

    proptest! {
        #[test]
        fn render_parse_round_trips_any_state(
            nets in proptest::collection::vec(0u32..=0xFFFF, 1..24),
            levels in proptest::collection::vec(0.0f64..1e6, 24usize),
            trends in proptest::collection::vec(-1e3f64..1e3, 24usize),
            sigmas in proptest::collection::vec(0.0f64..1e3, 24usize),
            generation in 0u64..1_000_000_000,
            horizon in 1u32..365,
        ) {
            let mut nets = nets;
            nets.sort_unstable();
            nets.dedup();
            let entries: Vec<NetworkForecast> = nets
                .iter()
                .enumerate()
                .map(|(i, &network)| NetworkForecast {
                    network,
                    level: levels[i],
                    trend: trends[i],
                    sigma: sigmas[i],
                    score_half_life: score_half_life(levels[i], trends[i]),
                })
                .collect();
            let a = ForecastArtifact {
                name: "prop".to_string(),
                // Exercise both the stamped and unstamped header forms.
                generation: (generation % 2 == 0).then_some(generation),
                published_unix_ms: Some(1754700000123),
                horizon_days: horizon,
                ci_z: 1.96,
                entries,
            };
            let text = a.render();
            let parsed = ForecastArtifact::parse(&text).expect("parses");
            prop_assert_eq!(&parsed, &a);
            // Render → parse → render is byte-identical.
            prop_assert_eq!(parsed.render(), text);
        }
    }
}
