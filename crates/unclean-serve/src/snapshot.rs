//! Generation-numbered snapshots of the files `unclean serve` answers
//! from, and the store that swaps them atomically.
//!
//! A served file is an [`Artifact`]: the blocklist's [`FrozenTrie`] or
//! the [`ForecastArtifact`]. A [`Snapshot`] is immutable: one artifact
//! plus its build provenance. A [`GenerationStore`] hands out `Arc`
//! clones to request handlers; installing a new generation swaps the
//! `Arc` under a lock held for nanoseconds, so in-flight requests keep
//! answering from the generation they loaded — a hot reload under load
//! loses nothing.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use unclean_core::frozen::FrozenTrie;
use unclean_forecast::ForecastArtifact;
use unclean_telemetry::{Registry, Span};

/// A file the daemon serves and hot-reloads.
pub trait Artifact: Sized {
    /// The span each build records.
    const SPAN: &'static str;

    /// Read `source`, noting any detail on `span`. Returns the artifact,
    /// the publisher's generation stamp and its publish time (Unix ms),
    /// when the file carries them.
    fn load(source: &Path, span: &mut Span)
        -> Result<(Self, Option<u64>, Option<u64>), ServeError>;

    /// Entries served.
    fn entries(&self) -> usize;
}

/// The blocklist: a scored (or plain) text list, parsed and frozen — or,
/// when the file leads with the frozen-snapshot magic (`unclean blocklist
/// freeze`), memory-mapped: O(1) regardless of entry count, no parse, and
/// co-located daemons share one page-cache copy. Generation and publish
/// time come from the list's `generation=`/`published_unix_ms=` header
/// metadata (written by `unclean ingest`) or the snapshot's meta.
impl Artifact for FrozenTrie {
    const SPAN: &'static str = "build";

    fn load(
        source: &Path,
        span: &mut Span,
    ) -> Result<(Self, Option<u64>, Option<u64>), ServeError> {
        if unclean_core::snap::is_snapshot(source) {
            let trie = FrozenTrie::open_mmap(source)
                .map_err(|e| ServeError::Source(format!("cannot map {}: {e}", source.display())))?;
            span.field("mmap", 1u64);
            let meta = trie.snapshot_meta();
            let (generation, published) = (
                meta.and_then(|m| m.source_generation),
                meta.map(|m| m.built_unix_ms),
            );
            return Ok((trie, generation, published));
        }
        let text = read(source)?;
        let scored = unclean_core::blocklist::parse_scored(&text)
            .map_err(|e| ServeError::Source(format!("cannot parse {}: {e}", source.display())))?;
        let meta = unclean_core::blocklist::parse_header_meta(&text).map_err(|e| {
            ServeError::Source(format!("corrupt header in {}: {e}", source.display()))
        })?;
        Ok((
            FrozenTrie::from_scored(scored),
            meta.get("generation").and_then(|g| g.parse().ok()),
            meta.get("published_unix_ms").and_then(|t| t.parse().ok()),
        ))
    }

    fn entries(&self) -> usize {
        self.len()
    }
}

/// The forecast artifact `unclean forecast fit` publishes.
impl Artifact for ForecastArtifact {
    const SPAN: &'static str = "forecast_build";

    fn load(source: &Path, _: &mut Span) -> Result<(Self, Option<u64>, Option<u64>), ServeError> {
        let artifact = ForecastArtifact::parse(&read(source)?)
            .map_err(|e| ServeError::Source(format!("cannot parse {}: {e}", source.display())))?;
        let (generation, published) = (artifact.generation, artifact.published_unix_ms);
        Ok((artifact, generation, published))
    }

    fn entries(&self) -> usize {
        self.entries.len()
    }
}

fn read(source: &Path) -> Result<String, ServeError> {
    std::fs::read_to_string(source)
        .map_err(|e| ServeError::Source(format!("cannot read {}: {e}", source.display())))
}

/// One immutable generation of a served file.
#[derive(Debug)]
pub struct Snapshot<A> {
    /// Monotone generation number (1 for the boot snapshot).
    pub generation: u64,
    /// What requests are answered from.
    pub artifact: A,
    /// The source file the snapshot was built from.
    pub source: String,
    /// Wall-clock time spent reading and building, microseconds.
    pub build_micros: u64,
    /// Unix milliseconds at which the build finished.
    pub built_unix_ms: u64,
    /// The producer's generation number, from the file's own stamp. This
    /// is the causal id that ties a served answer back across the
    /// process boundary to the publish / rescore / WAL-segment events
    /// that produced it. `None` for files without one.
    pub source_generation: Option<u64>,
    /// The producer's publish timestamp, if stamped.
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

/// Build one snapshot of `source`. Runs off the serving path; the old
/// generation keeps serving while this reads. Records an
/// [`Artifact::SPAN`] span with `generation`/`entries` fields (and
/// `source_generation`, when stamped) on `registry`.
pub fn build_snapshot<A: Artifact>(
    source: &Path,
    generation: u64,
    registry: &Registry,
) -> Result<Snapshot<A>, ServeError> {
    let mut span = registry.span(A::SPAN);
    span.field("generation", generation);
    let t0 = Instant::now();
    let (artifact, source_generation, source_published_unix_ms) = A::load(source, &mut span)?;
    span.field("entries", artifact.entries());
    if let Some(source_generation) = source_generation {
        span.field("source_generation", source_generation);
    }
    Ok(Snapshot {
        generation,
        artifact,
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

/// Holds the current generation; hands out `Arc` clones and swaps in new
/// generations atomically, forward only.
#[derive(Debug)]
pub struct GenerationStore<A> {
    current: Mutex<Arc<Snapshot<A>>>,
    next_generation: AtomicU64,
}

impl<A> GenerationStore<A> {
    /// A store serving `boot` as generation `boot.generation`.
    pub fn new(boot: Snapshot<A>) -> GenerationStore<A> {
        let next = boot.generation + 1;
        GenerationStore {
            current: Mutex::new(Arc::new(boot)),
            next_generation: AtomicU64::new(next),
        }
    }

    /// The current generation, shared. Callers keep answering from their
    /// clone even if a newer generation is installed mid-request.
    pub fn load(&self) -> Arc<Snapshot<A>> {
        Arc::clone(&self.current.lock().expect("generation store"))
    }

    /// Claim the next generation number (for a build about to start).
    pub fn claim_generation(&self) -> u64 {
        self.next_generation.fetch_add(1, Ordering::SeqCst)
    }

    /// Install a newly built generation. Refuses to go backwards: if a
    /// newer generation was installed while this one built, it is dropped
    /// and `false` is returned.
    pub fn install(&self, snapshot: Snapshot<A>) -> bool {
        let mut current = self.current.lock().expect("generation store");
        if snapshot.generation <= current.generation {
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

    fn snapshot(generation: u64, text: &str) -> Snapshot<FrozenTrie> {
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
        assert_eq!(snap.artifact.len(), 2);
        let m = snap.artifact.lookup("9.1.44.44".parse::<Ip>().expect("ip"));
        assert_eq!(m.expect("blocked").score, 2.5);
        assert!(snap.built_unix_ms > 0);
        assert!(snap.source.contains("list-1"));
    }

    #[test]
    fn build_errors_on_missing_or_garbage_source() {
        let registry = Registry::off();
        let missing = Path::new("/nonexistent/unclean/blocklist.txt");
        assert!(matches!(
            build_snapshot::<FrozenTrie>(missing, 1, &registry),
            Err(ServeError::Source(_))
        ));
        let dir = std::env::temp_dir().join("unclean-serve-snapshot");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let bad = dir.join("garbage.txt");
        std::fs::write(&bad, "not-a-cidr\n").expect("write");
        let err = build_snapshot::<FrozenTrie>(&bad, 1, &registry).expect_err("garbage");
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
        let trie = FrozenTrie::from_scored(scored);
        trie.freeze_to_file(
            &path,
            unclean_core::snap::SnapshotMeta {
                built_unix_ms: 123,
                source_generation: Some(41),
            },
        )
        .expect("freeze");

        let snap: Snapshot<FrozenTrie> =
            build_snapshot(&path, 7, &Registry::full()).expect("build");
        assert!(snap.artifact.is_mapped(), "snapshot sources are mmapped");
        assert_eq!(snap.generation, 7);
        assert_eq!(snap.artifact.len(), 2);
        assert_eq!(snap.source_generation, Some(41));
        assert_eq!(snap.source_published_unix_ms, Some(123));
        let m = snap
            .artifact
            .lookup("9.1.44.44".parse::<Ip>().expect("ip"))
            .expect("blocked");
        assert_eq!(m.score, 2.5);
    }

    #[test]
    fn store_swaps_forward_only() {
        let store = GenerationStore::new(snapshot(1, "9.1.0.0/16\n"));
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
        assert!(held.artifact.contains("9.1.0.0".parse::<Ip>().expect("ip")));
    }
}
