//! Cross-crate tests for the v2 indexed segment archive: round-trip
//! properties through both segment sources (an image and a file), the
//! checked-in golden v1 archive, v2 archive and WAL spool (the byte-level
//! format contract), per-segment fault quarantine, and equivalence of the
//! day-sharded candidate scan with direct collection.

use proptest::collection::vec;
use proptest::prelude::*;
use unclean_core::{BlockSet, Ip};
use unclean_detect::{build_candidates_with, PipelineConfig};
use unclean_flowgen::indexed::{looks_like_v1, upgrade_v1};
use unclean_flowgen::record::EPOCH_UNIX_SECS;
use unclean_flowgen::spool::{INDEX_FILE, SEGMENTS_FILE};
use unclean_flowgen::{
    faults, ArchiveReader, CandidateCollector, Flow, FlowGenerator, IndexedArchive,
    IndexedArchiveWriter, IndexedError, RecoveryReport, SegmentSource, WalSegments, WalSpool, Walk,
};
use unclean_integration::fixture;
use unclean_telemetry::Registry;

const BOOT: u32 = EPOCH_UNIX_SECS;

/// Expand one random seed into a fully-populated flow (splitmix64 per
/// field) — the vendored proptest shim has no tuple strategies, so the
/// per-flow variety comes from this deterministic expansion instead.
fn flow_from_seed(seed: u64) -> Flow {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let day = (next() % 5) as i64;
    let sec = (next() % 86_000) as i64;
    Flow {
        src: Ip(next() as u32),
        dst: Ip(next() as u32),
        src_port: next() as u16,
        dst_port: next() as u16,
        proto: next() as u8,
        packets: 1 + (next() % 1_000) as u32,
        octets: 1 + (next() % 100_000) as u32,
        flags: next() as u8,
        start_secs: day * 86_400 + sec,
        duration_secs: (next() % 600) as u32,
    }
}

fn spool_v2(flows: &[Flow]) -> Vec<u8> {
    let mut writer = IndexedArchiveWriter::new(Vec::new(), BOOT);
    for f in flows {
        writer.push(f).expect("in-memory spool");
    }
    writer.finish().expect("in-memory spool").0
}

/// Walk every segment of `source`, strictly or leniently: the flows
/// delivered and the walk's summary, or a strict walk's error.
fn walk_flows(
    source: &impl SegmentSource,
    lenient: bool,
) -> Result<(Vec<Flow>, Walk), IndexedError> {
    let mut flows = Vec::new();
    let selected = source.index().select(None);
    let walk = source.walk(&selected, lenient, &mut Vec::new(), |_, cursor| {
        cursor.for_each_flow(|f| flows.push(*f))
    })?;
    Ok((flows, walk))
}

proptest! {
    /// Random day-ordered flows written as an archive image and as a file
    /// of the same bytes: walking either yields the original flows with
    /// equal telemetry. Once one byte flips inside a random segment, both
    /// strict walks fail on that segment, and both lenient walks
    /// quarantine it with the same detail and deliver the same flows: the
    /// other segments'.
    #[test]
    fn v2_round_trip_agrees_from_image_and_file(
        seeds in vec(any::<u64>(), 1..400),
        flip in any::<u64>(),
    ) {
        let mut flows: Vec<Flow> = seeds.iter().map(|&s| flow_from_seed(s)).collect();
        // The writer's contract is day-ordered input (one segment per
        // day); intra-day order is preserved as-is.
        flows.sort_by_key(|f| f.day().0);
        let mut bytes = spool_v2(&flows);
        let path = std::env::temp_dir()
            .join(format!("unclean-archive-sources-{}.flows", std::process::id()));
        std::fs::write(&path, &bytes).expect("write archive file");
        let image = IndexedArchive::open(&bytes).expect("indexes");
        let file = WalSegments::open(&path).expect("indexes");
        let (from_image, image_walk) = walk_flows(&image, false).expect("clean image");
        let (from_file, file_walk) = walk_flows(&file, false).expect("clean file");
        prop_assert_eq!(&from_image, &flows);
        prop_assert_eq!(&from_file, &flows);
        prop_assert_eq!(image_walk.telemetry, file_walk.telemetry);
        prop_assert_eq!(image_walk.telemetry.flows, flows.len() as u64);
        prop_assert_eq!(image_walk.telemetry.lost_flows, 0);

        let segments = image.segments().to_vec();
        let k = (flip % segments.len() as u64) as usize;
        let damaged = segments[k];
        bytes[(damaged.offset + (flip >> 32) % damaged.len) as usize] ^= 0x5a;
        std::fs::write(&path, &bytes).expect("write archive file");
        let image = IndexedArchive::open(&bytes).expect("footer intact");
        let file = WalSegments::open(&path).expect("footer intact");
        for strict in [walk_flows(&image, false), walk_flows(&file, false)] {
            prop_assert!(
                matches!(strict, Err(IndexedError::CrcMismatch { segment, .. }) if segment == k),
                "segment {}: {:?}", k, strict.map(|(_, walk)| walk)
            );
        }
        let (image_rest, image_walk) = walk_flows(&image, true).expect("lenient image");
        let (file_rest, file_walk) = walk_flows(&file, true).expect("lenient file");
        prop_assert_eq!(image_walk.quarantined.len(), 1);
        prop_assert_eq!(image_walk.quarantined[0].segment, k);
        prop_assert_eq!(&image_walk.quarantined, &file_walk.quarantined);
        prop_assert_eq!(image_walk.telemetry, file_walk.telemetry);
        let rest: Vec<Flow> = flows.iter().filter(|f| f.day() != damaged.day).copied().collect();
        prop_assert_eq!(&image_rest, &rest);
        prop_assert_eq!(&file_rest, &rest);
        let _ = std::fs::remove_file(&path);
    }
}

fn golden_path() -> std::path::PathBuf {
    data_path("golden_v1.flows")
}

fn data_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("data")
        .join(name)
}

/// The deterministic flow set behind the golden archive: 3 days × 67
/// flows with every field exercised.
fn golden_flows() -> Vec<Flow> {
    let mut flows = Vec::new();
    for day in 0..3i64 {
        for i in 0..67u32 {
            flows.push(Flow {
                src: Ip(0x0a00_0000 ^ (i.wrapping_mul(2_654_435_761))),
                dst: Ip(0xc633_6401 + i),
                src_port: (1024 + 37 * i % 60_000) as u16,
                dst_port: if i % 3 == 0 { 80 } else { 25 },
                proto: if i % 5 == 0 { 17 } else { 6 },
                packets: 1 + i % 97,
                octets: 40 + 1500 * (i % 13),
                flags: (i % 64) as u8,
                start_secs: day * 86_400 + i64::from(i * 1_201 % 86_000),
                duration_secs: i % 300,
            });
        }
    }
    flows
}

/// v1 compat: the checked-in golden archive (the v1 format contract;
/// nothing writes v1 any more) still decodes to the same flows, still
/// sniffs as v1 (no footer), and upgrades losslessly to v2 — the
/// `unclean archive index` path, the only place v1 is still read.
#[test]
fn v1_golden_archive_reads_and_upgrades() {
    let bytes = std::fs::read(golden_path()).expect("golden archive checked in");
    let flows = ArchiveReader::new(bytes.as_slice(), BOOT)
        .read_all()
        .expect("v1 read");
    assert_eq!(flows, golden_flows());

    // No trailer ⇒ every v2 reader refuses it; it sniffs as the
    // upgrader's input.
    assert!(matches!(
        IndexedArchive::open(&bytes),
        Err(IndexedError::NotIndexed)
    ));
    assert!(looks_like_v1(&bytes));

    // Upgrade to v2: same flows, one segment per day, indexed reads work.
    let (v2, index, telemetry) = upgrade_v1(&bytes, BOOT).expect("upgrade");
    assert_eq!(telemetry.flows, flows.len() as u64);
    assert_eq!(telemetry.lost_flows, 0);
    assert_eq!(index.segments.len(), 3);
    let archive = IndexedArchive::open(&v2).expect("indexes");
    let (upgraded, _) = walk_flows(&archive, false).expect("v2 read");
    assert_eq!(upgraded, flows);
}

/// The v2 format contract: `tests/data/golden_v2.flows` was written by
/// `unclean archive index tests/data/golden_v1.flows` before the archive
/// writer and the WAL spooler shared one segment encoder. Both the v1
/// upgrade and the indexed writer over the golden flows must still
/// produce it byte for byte.
#[test]
fn golden_v2_archive_is_reproduced_byte_for_byte() {
    let golden = std::fs::read(data_path("golden_v2.flows")).expect("golden v2 checked in");
    let v1 = std::fs::read(golden_path()).expect("golden v1 checked in");
    let (upgraded, _, _) = upgrade_v1(&v1, BOOT).expect("upgrade");
    assert!(
        upgraded == golden,
        "v1 upgrade drifted from golden_v2.flows"
    );
    assert!(
        spool_v2(&golden_flows()) == golden,
        "indexed writer drifted from golden_v2.flows"
    );
    let archive = IndexedArchive::open(&golden).expect("indexes");
    assert_eq!(archive.segments().len(), 3);
    let (flows, walk) = walk_flows(&archive, false).expect("clean");
    assert_eq!(flows, golden_flows());
    assert_eq!(walk.telemetry.lost_flows, 0);
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("unclean-archive-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The WAL format contract: `tests/data/golden_spool/` holds
/// `segments.dat` and `index.wal` of a `WalSpool` fed the golden flows
/// and sealed every 50 flows (so each day spans several segments),
/// written before the spooler and the archive writer shared one segment
/// encoder and one index-entry codec.
#[test]
fn golden_spool_is_reproduced_byte_for_byte() {
    let dir = scratch_dir("golden-spool-write");
    let mut spool = WalSpool::create(&dir, BOOT).expect("create");
    for (k, f) in golden_flows().iter().enumerate() {
        spool.push(f).expect("push");
        if (k + 1) % 50 == 0 {
            spool.seal().expect("seal");
        }
    }
    spool.seal().expect("seal");
    assert_eq!(spool.sealed_segments().len(), 7);
    for name in [SEGMENTS_FILE, INDEX_FILE] {
        let golden = std::fs::read(data_path("golden_spool").join(name)).expect("checked in");
        let written = std::fs::read(dir.join(name)).expect("written");
        assert!(written == golden, "{name} drifted from the golden spool");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovery over a copy of the golden spool finds exactly its sealed
/// segments, tears nothing, and its sealed image replays the golden
/// flows.
#[test]
fn golden_spool_recovers_exactly() {
    let dir = scratch_dir("golden-spool-open");
    std::fs::create_dir_all(&dir).expect("mkdir");
    for name in [SEGMENTS_FILE, INDEX_FILE] {
        std::fs::copy(data_path("golden_spool").join(name), dir.join(name)).expect("copy");
    }
    let (spool, report) = WalSpool::open(&dir).expect("recover");
    assert_eq!(
        report,
        RecoveryReport {
            sealed_segments: 7,
            sealed_flows: 201,
            resumed_end_seq: 201,
            torn_tail_bytes: 0,
            torn_index_bytes: 0,
        }
    );
    let image = spool.sealed_image().expect("image");
    let archive = IndexedArchive::open(&image).expect("indexes");
    let (flows, walk) = walk_flows(&archive, false).expect("clean");
    assert_eq!(flows, golden_flows());
    assert_eq!(walk.telemetry.lost_flows, 0);
    assert_eq!(walk.telemetry.sequence_gaps, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A truncated final segment (the classic crash-mid-write shape, with the
/// footer still intact from the previous generation) quarantines only
/// that segment: lenient replay delivers every earlier day untouched.
#[test]
fn truncated_final_segment_quarantines_only_that_segment() {
    let flows: Vec<Flow> = golden_flows();
    let mut bytes = spool_v2(&flows);
    let index = IndexedArchive::open(&bytes)
        .expect("indexes")
        .index()
        .clone();
    assert_eq!(index.segments.len(), 3);
    let last = index.segments[2];
    faults::truncate_segment_tail(&mut bytes, &last, 16);

    let archive = IndexedArchive::open(&bytes).expect("footer intact");
    // Strict: the damage is an error naming the segment.
    match walk_flows(&archive, false) {
        Err(IndexedError::CrcMismatch { segment, .. }) => assert_eq!(segment, 2),
        other => panic!("expected CRC mismatch on segment 2, got {other:?}"),
    }
    // Lenient: days 0 and 1 are delivered in full, day 2 is quarantined.
    let (delivered, walk) = walk_flows(&archive, true).expect("lenient walk");
    assert_eq!(walk.quarantined.len(), 1);
    assert_eq!(walk.quarantined[0].segment, 2);
    assert_eq!(delivered, flows[..2 * 67].to_vec());
}

/// The day-sharded §6 candidate scan returns byte-identical candidates
/// at any thread count, and matches one serial collection over the same
/// generated traffic.
#[test]
fn candidate_scan_matches_direct_collection() {
    let fx = fixture();
    let scan_at = |threads: usize| {
        let mut cfg = PipelineConfig::paper();
        cfg.threads = threads;
        build_candidates_with(
            &fx.scenario,
            &fx.reports.bot_test,
            24,
            &cfg,
            &Registry::off(),
        )
    };
    let serial = scan_at(1);
    for threads in [2, 4, 7] {
        assert_eq!(scan_at(threads), serial, "threads={threads} diverged");
    }

    // Direct reference: feed the generator straight into one collector,
    // one day after another.
    let cfg = PipelineConfig::paper();
    let blocks = BlockSet::of(fx.reports.bot_test.addresses(), 24);
    let model = fx.scenario.activity();
    let generator = FlowGenerator::new(
        &fx.scenario.observed,
        cfg.generator.clone(),
        fx.scenario.seeds.child("flowgen"),
    );
    let mut collector = CandidateCollector::new(blocks.clone());
    for day in fx.scenario.dates.unclean_window.days() {
        model.hostile_events_on_filtered(
            day,
            |ip| blocks.contains(ip),
            |e| generator.expand(&e, |f| collector.observe(&f)),
        );
        model.benign_events_on_filtered(
            day,
            |prefix24| blocks.contains(Ip(prefix24 << 8)),
            |e| generator.expand(&e, |f| collector.observe(&f)),
        );
    }
    assert_eq!(serial, collector.candidates());
}
