//! Generation-numbered frozen-trie snapshots and the store that swaps
//! them atomically.
//!
//! A [`ServingSnapshot`] is immutable: the frozen trie plus its build
//! provenance. A [`GenerationStore`] hands out `Arc` clones to request
//! handlers; installing a new generation swaps the `Arc` under a lock
//! held for nanoseconds, so in-flight requests keep answering from the
//! generation they loaded — a hot reload under load loses nothing.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use unclean_core::frozen::FrozenTrie;
use unclean_telemetry::Registry;

/// One immutable generation of the serving state.
#[derive(Debug)]
pub struct ServingSnapshot {
    /// Monotone generation number (1 for the boot snapshot).
    pub generation: u64,
    /// The frozen longest-prefix-match trie requests are answered from.
    pub trie: FrozenTrie,
    /// The source file the snapshot was built from.
    pub source: String,
    /// Wall-clock time spent parsing + building + freezing, microseconds.
    pub build_micros: u64,
    /// Unix milliseconds at which the build finished.
    pub built_unix_ms: u64,
    /// The producer's generation number, parsed from the blocklist
    /// header's `generation=G` metadata (written by `unclean ingest`).
    /// This is the causal id that ties a served lookup back across the
    /// process boundary to the publish / rescore / WAL-segment events
    /// that produced its verdict. `None` for lists without metadata.
    pub source_generation: Option<u64>,
    /// The producer's publish timestamp (`published_unix_ms=T` header
    /// metadata), if present.
    pub source_published_unix_ms: Option<u64>,
}

/// Errors surfaced by snapshot building and daemon startup.
#[derive(Debug)]
pub enum ServeError {
    /// The blocklist source could not be read or parsed.
    Source(String),
    /// A socket operation failed.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Source(msg) => write!(f, "blocklist source: {msg}"),
            ServeError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

/// Build one snapshot from a scored (or plain) blocklist file — or,
/// when the file leads with the frozen-snapshot magic (`unclean
/// blocklist freeze`), memory-map it: O(1) regardless of entry count,
/// no parse, and co-located daemons share one page-cache copy. Runs off
/// the serving path; the old generation keeps serving while this parses
/// and freezes. Records a `build` span with `generation`/`entries`
/// fields on `registry`.
pub fn build_snapshot(
    source: &Path,
    generation: u64,
    registry: &Registry,
) -> Result<ServingSnapshot, ServeError> {
    let mut span = registry.span("build");
    span.field("generation", generation);
    let t0 = Instant::now();
    let (trie, source_generation, source_published_unix_ms) =
        if unclean_core::snap::is_snapshot(source) {
            let trie = FrozenTrie::open_mmap(source)
                .map_err(|e| ServeError::Source(format!("cannot map {}: {e}", source.display())))?;
            span.field("mmap", 1u64);
            let meta = trie.snapshot_meta();
            (
                trie,
                meta.and_then(|m| m.source_generation),
                meta.map(|m| m.built_unix_ms),
            )
        } else {
            let text = std::fs::read_to_string(source).map_err(|e| {
                ServeError::Source(format!("cannot read {}: {e}", source.display()))
            })?;
            let scored = unclean_core::blocklist::parse_scored(&text).map_err(|e| {
                ServeError::Source(format!("cannot parse {}: {e}", source.display()))
            })?;
            let meta = unclean_core::blocklist::parse_header_meta(&text).map_err(|e| {
                ServeError::Source(format!("corrupt header in {}: {e}", source.display()))
            })?;
            (
                FrozenTrie::from_scored(scored),
                meta.get("generation").and_then(|g| g.parse().ok()),
                meta.get("published_unix_ms").and_then(|t| t.parse().ok()),
            )
        };
    span.field("entries", trie.len());
    if let Some(source_generation) = source_generation {
        span.field("source_generation", source_generation);
    }
    Ok(ServingSnapshot {
        generation,
        trie,
        source: source.display().to_string(),
        build_micros: t0.elapsed().as_micros().min(u64::MAX as u128) as u64,
        built_unix_ms: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
            .unwrap_or(0),
        source_generation,
        source_published_unix_ms,
    })
}

/// One immutable generation of the forecast serving state: a parsed
/// [`unclean_forecast::ForecastArtifact`] plus build provenance, the
/// same shape [`ServingSnapshot`] gives the blocklist, held in a
/// [`ForecastStore`].
#[derive(Debug)]
pub struct ForecastSnapshot {
    /// Monotone generation number (1 for the boot snapshot).
    pub generation: u64,
    /// The parsed forecast artifact requests are answered from.
    pub artifact: unclean_forecast::ForecastArtifact,
    /// The source file the snapshot was built from.
    pub source: String,
    /// Unix milliseconds at which the build finished.
    pub built_unix_ms: u64,
    /// The publisher's generation stamp from the artifact header.
    pub source_generation: Option<u64>,
    /// The publisher's timestamp from the artifact header.
    pub source_published_unix_ms: Option<u64>,
}

/// Build one forecast snapshot from a published artifact. Runs off the
/// serving path, like [`build_snapshot`]; records a `forecast_build`
/// span with `generation`/`entries` fields on `registry`.
pub fn build_forecast_snapshot(
    source: &Path,
    generation: u64,
    registry: &Registry,
) -> Result<ForecastSnapshot, ServeError> {
    let mut span = registry.span("forecast_build");
    span.field("generation", generation);
    let text = std::fs::read_to_string(source)
        .map_err(|e| ServeError::Source(format!("cannot read {}: {e}", source.display())))?;
    let artifact = unclean_forecast::ForecastArtifact::parse(&text)
        .map_err(|e| ServeError::Source(format!("cannot parse {}: {e}", source.display())))?;
    span.field("entries", artifact.entries.len() as u64);
    Ok(ForecastSnapshot {
        generation,
        source: source.display().to_string(),
        built_unix_ms: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
            .unwrap_or(0),
        source_generation: artifact.generation,
        source_published_unix_ms: artifact.published_unix_ms,
        artifact,
    })
}

/// A generation of serving state a [`GenerationStore`] can hold.
pub trait Generation {
    /// The monotone generation number.
    fn generation(&self) -> u64;
}

impl Generation for ServingSnapshot {
    fn generation(&self) -> u64 {
        self.generation
    }
}

impl Generation for ForecastSnapshot {
    fn generation(&self) -> u64 {
        self.generation
    }
}

/// Holds the current generation; hands out `Arc` clones and swaps in new
/// generations atomically, forward only.
#[derive(Debug)]
pub struct GenerationStore<T> {
    current: Mutex<Arc<T>>,
    next_generation: AtomicU64,
}

/// The blocklist snapshot store.
pub type SnapshotStore = GenerationStore<ServingSnapshot>;
/// The forecast snapshot store.
pub type ForecastStore = GenerationStore<ForecastSnapshot>;

impl<T: Generation> GenerationStore<T> {
    /// A store serving `boot` as generation `boot.generation()`.
    pub fn new(boot: T) -> GenerationStore<T> {
        let next = boot.generation() + 1;
        GenerationStore {
            current: Mutex::new(Arc::new(boot)),
            next_generation: AtomicU64::new(next),
        }
    }

    /// The current generation, shared. Callers keep answering from their
    /// clone even if a newer generation is installed mid-request.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.current.lock().expect("generation store"))
    }

    /// Claim the next generation number (for a build about to start).
    pub fn claim_generation(&self) -> u64 {
        self.next_generation.fetch_add(1, Ordering::SeqCst)
    }

    /// Install a newly built generation. Refuses to go backwards: if a
    /// newer generation was installed while this one built, it is dropped
    /// and `false` is returned.
    pub fn install(&self, snapshot: T) -> bool {
        let mut current = self.current.lock().expect("generation store");
        if snapshot.generation() <= current.generation() {
            return false;
        }
        *current = Arc::new(snapshot);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unclean_core::prelude::Ip;

    fn snapshot(generation: u64, text: &str) -> ServingSnapshot {
        let dir = std::env::temp_dir().join("unclean-serve-snapshot");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join(format!(
            "list-{generation}-{:?}.txt",
            std::thread::current().id()
        ));
        std::fs::write(&path, text).expect("write");
        build_snapshot(&path, generation, &Registry::full()).expect("build")
    }

    #[test]
    fn build_parses_scores_and_records_provenance() {
        let snap = snapshot(1, "9.1.0.0/16 # score=2.5\n203.0.113.0/24\n");
        assert_eq!(snap.generation, 1);
        assert_eq!(snap.trie.len(), 2);
        let m = snap.trie.lookup("9.1.44.44".parse::<Ip>().expect("ip"));
        assert_eq!(m.expect("blocked").score, 2.5);
        assert!(snap.built_unix_ms > 0);
        assert!(snap.source.contains("list-1"));
    }

    #[test]
    fn build_errors_on_missing_or_garbage_source() {
        let registry = Registry::off();
        let missing = Path::new("/nonexistent/unclean/blocklist.txt");
        assert!(matches!(
            build_snapshot(missing, 1, &registry),
            Err(ServeError::Source(_))
        ));
        let dir = std::env::temp_dir().join("unclean-serve-snapshot");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let bad = dir.join("garbage.txt");
        std::fs::write(&bad, "not-a-cidr\n").expect("write");
        let err = build_snapshot(&bad, 1, &registry).expect_err("garbage");
        assert!(err.to_string().contains("garbage.txt"), "{err}");
    }

    #[test]
    fn build_reads_source_generation_from_header_meta() {
        let entries = vec![("9.1.0.0/16".parse().expect("cidr"), 2.5)];
        let text = unclean_core::blocklist::render_scored_with_meta(
            &entries,
            "unclean-ingest",
            &[
                ("generation", "41".to_string()),
                ("published_unix_ms", "1754700000123".to_string()),
            ],
        );
        let snap = snapshot(1, &text);
        assert_eq!(snap.source_generation, Some(41));
        assert_eq!(snap.source_published_unix_ms, Some(1754700000123));
        // A list without metadata builds with no source generation.
        let bare = snapshot(2, "9.1.0.0/16 # score=2.5\n");
        assert_eq!(bare.source_generation, None);
    }

    #[test]
    fn build_maps_frozen_snapshot_sources() {
        let dir = std::env::temp_dir().join("unclean-serve-snapshot");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join(format!("frozen-{:?}.snap", std::thread::current().id()));
        let text = "9.1.0.0/16 # score=2.5\n203.0.113.0/24 # score=1.0\n";
        let scored = unclean_core::blocklist::parse_scored(text).expect("parse");
        let trie = unclean_core::frozen::FrozenTrie::from_scored(scored);
        trie.freeze_to_file(
            &path,
            unclean_core::snap::SnapshotMeta {
                built_unix_ms: 123,
                source_generation: Some(41),
            },
        )
        .expect("freeze");

        let snap = build_snapshot(&path, 7, &Registry::full()).expect("build");
        assert!(snap.trie.is_mapped(), "snapshot sources are mmapped");
        assert_eq!(snap.generation, 7);
        assert_eq!(snap.trie.len(), 2);
        assert_eq!(snap.source_generation, Some(41));
        assert_eq!(snap.source_published_unix_ms, Some(123));
        let m = snap
            .trie
            .lookup("9.1.44.44".parse::<Ip>().expect("ip"))
            .expect("blocked");
        assert_eq!(m.score, 2.5);
    }

    #[test]
    fn store_swaps_forward_only() {
        let store = SnapshotStore::new(snapshot(1, "9.1.0.0/16\n"));
        let held = store.load();
        assert_eq!(held.generation, 1);

        let gen2 = store.claim_generation();
        let gen3 = store.claim_generation();
        assert_eq!((gen2, gen3), (2, 3));

        // Generation 3 finishes building first; 2 must then be refused.
        assert!(store.install(snapshot(gen3, "10.0.0.0/8\n")));
        assert!(!store.install(snapshot(gen2, "11.0.0.0/8\n")), "stale");
        assert_eq!(store.load().generation, 3);

        // The earlier load still answers from its own generation.
        assert_eq!(held.generation, 1);
        assert!(held.trie.contains("9.1.0.0".parse::<Ip>().expect("ip")));
    }
}
