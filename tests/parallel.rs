//! The parallel pipeline's determinism contract: running the full
//! supervised benchmark at any thread count must produce byte-identical
//! results. Wall-clock may differ; `results/*.json`, the manifest's
//! output hashes, and every ensemble summary inside them may not.
//!
//! A proptest companion checks the building block the contract rests on:
//! folding per-day detector shards with `merge()` equals one sequential
//! sweep over the same flows.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use unclean_bench::runner::{run_all, RunStatus, RunnerConfig};
use unclean_bench::{BenchOpts, ExperimentContext, TelemetryLevel};
use unclean_detect::{FanoutConfig, HourlyFanoutDetector, SpamConfig, SpamDetector};
use unclean_flowgen::record::{proto, tcp_flags};
use unclean_flowgen::Flow;

/// A smoke-scale supervised run into `dir` with the given worker count.
/// Returns the manifest.
fn smoke_run(threads: usize, dir: &Path) -> unclean_bench::runner::Manifest {
    let _ = std::fs::remove_dir_all(dir);
    let opts = BenchOpts {
        scale: 0.002,
        seed: 20061001,
        trials: 20,
        out_dir: Some(dir.to_path_buf()),
        telemetry: TelemetryLevel::Summary,
        threads,
    };
    let ctx = Arc::new(ExperimentContext::generate(opts));
    run_all(ctx, &RunnerConfig::default());
    unclean_bench::runner::Manifest::load(dir).expect("run leaves a manifest")
}

/// The result files whose bytes the determinism contract covers: every
/// experiment's JSON plus the combined `all.json`. The telemetry exports
/// and the manifest itself contain wall-clock durations and are excluded —
/// their *result hashes* are compared instead.
fn result_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("results dir") {
        let path = entry.expect("dir entry").path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("utf8 name")
            .to_string();
        let timed = ["manifest.json", "telemetry.json", "metrics.prom"];
        if name.ends_with(".json") && !timed.contains(&name.as_str()) {
            out.insert(name, std::fs::read(&path).expect("result file"));
        }
    }
    out
}

#[test]
fn run_all_is_byte_identical_at_any_thread_count() {
    let base = std::env::temp_dir().join("unclean-parallel-determinism");
    let serial_dir = base.join("threads-1");
    let parallel_dir = base.join("threads-8");
    let serial = smoke_run(1, &serial_dir);
    let parallel = smoke_run(8, &parallel_dir);

    // Every experiment must have actually run and succeeded in both modes.
    assert!(!serial.runs.is_empty());
    for (s, p) in serial.runs.iter().zip(&parallel.runs) {
        assert_eq!(s.id, p.id, "manifest order is registry order");
        assert_eq!(s.status, RunStatus::Ok, "{} (serial)", s.id);
        assert_eq!(p.status, RunStatus::Ok, "{} (parallel)", p.id);
        // The manifest's recorded output hashes — the resume contract —
        // must agree file-for-file.
        assert_eq!(s.outputs, p.outputs, "{} output hashes differ", s.id);
    }

    // Byte-for-byte identity of every result file (this covers the
    // ensemble five-number summaries inside fig2–fig5 and the ablations).
    let serial_files = result_files(&serial_dir);
    let parallel_files = result_files(&parallel_dir);
    assert_eq!(
        serial_files.keys().collect::<Vec<_>>(),
        parallel_files.keys().collect::<Vec<_>>(),
        "same result inventory"
    );
    for (name, bytes) in &serial_files {
        assert_eq!(
            bytes, &parallel_files[name],
            "{name} differs between --threads 1 and --threads 8"
        );
    }
}

// ---------------------------------------------------------------------------
// Sharded detector merge == sequential fold
// ---------------------------------------------------------------------------

/// A synthetic flow on `day`: a SYN probe when `payload` is false, a
/// payload-bearing delivery (to the spam port when `smtp`) otherwise.
fn flow(src: u32, dst: u32, day: i64, hour: i64, payload: bool, smtp: bool) -> Flow {
    Flow {
        src: unclean_core::Ip(src),
        dst: unclean_core::Ip(dst),
        src_port: 40_000,
        dst_port: if smtp { 25 } else { 445 },
        proto: proto::TCP,
        packets: if payload { 10 } else { 1 },
        octets: if payload { 1400 } else { 40 },
        flags: if payload {
            tcp_flags::SYN | tcp_flags::ACK | tcp_flags::PSH
        } else {
            tcp_flags::SYN
        },
        start_secs: day * 86_400 + hour * 3600,
        duration_secs: 0,
    }
}

/// One generated flow event, decoded from random bits:
/// (src index, dst, day, hour, payload, smtp). A small source pool keeps
/// the detection thresholds reachable; four day shards exercise the
/// per-day partitioning.
fn decode_event(bits: u64) -> (u32, u32, i64, i64, bool, bool) {
    let src = (bits % 12) as u32;
    let dst = ((bits >> 4) % 4096) as u32;
    let day = ((bits >> 16) % 4) as i64;
    let hour = ((bits >> 18) % 24) as i64;
    let payload = bits & (1 << 24) != 0;
    let smtp = bits & (1 << 25) != 0;
    (src, dst, day, hour, payload, smtp)
}

proptest! {
    /// Per-day sharding with `merge()` must equal the sequential
    /// day-by-day sweep, for both detectors, on arbitrary flow streams.
    #[test]
    fn sharded_detector_merge_equals_sequential_fold(
        events in proptest::collection::vec(any::<u64>(), 0..400),
        threshold in 2usize..8,
    ) {
        // Group flows by day, preserving arrival order within each day —
        // exactly how the day-sharded pipeline partitions them.
        let mut by_day: BTreeMap<i64, Vec<Flow>> = BTreeMap::new();
        for &bits in &events {
            let (s, d, day, hour, payload, smtp) = decode_event(bits);
            by_day.entry(day).or_default().push(
                flow(0x0a00_0000 + s, 0x1e00_0000 + d, day, hour, payload, smtp),
            );
        }

        let scan_cfg = FanoutConfig { hourly_threshold: threshold };
        let spam_cfg = SpamConfig { daily_message_threshold: threshold as u32 };

        // Sequential: one detector pair over the days in order, flushing
        // window state at each day boundary (the pre-sharding pipeline).
        let mut seq_scan = HourlyFanoutDetector::new(scan_cfg.clone());
        let mut seq_spam = SpamDetector::new(spam_cfg.clone());
        for flows in by_day.values() {
            for f in flows {
                seq_scan.observe(f);
                seq_spam.observe(f);
            }
            seq_scan.flush_window_state();
            seq_spam.flush_window_state();
        }

        // Sharded: a fresh detector pair per day, folded in day order.
        let mut fold_scan = HourlyFanoutDetector::new(scan_cfg.clone());
        let mut fold_spam = SpamDetector::new(spam_cfg.clone());
        for flows in by_day.values() {
            let mut shard_scan = HourlyFanoutDetector::new(scan_cfg.clone());
            let mut shard_spam = SpamDetector::new(spam_cfg.clone());
            for f in flows {
                shard_scan.observe(f);
                shard_spam.observe(f);
            }
            shard_scan.flush_window_state();
            shard_spam.flush_window_state();
            fold_scan.merge(shard_scan);
            fold_spam.merge(shard_spam);
        }

        prop_assert_eq!(fold_scan.detected(), seq_scan.detected());
        prop_assert_eq!(fold_spam.detected(), seq_spam.detected());
    }
}

// ---------------------------------------------------------------------------
// /8-sharded scenario generation is thread-count invariant
// ---------------------------------------------------------------------------

/// `Scenario::generate` fans /8-shaped shards (population cascade, per-/24
/// profiles, the epidemic) across the worker pool. Shard boundaries and
/// RNG streams depend only on the data, so the generated world must be
/// byte-identical at any thread count.
#[test]
fn sharded_scenario_generation_is_thread_count_invariant() {
    use unclean_netmodel::{Scenario, ScenarioConfig};

    let generate = |threads: usize| {
        let mut config = ScenarioConfig::at_scale(0.002, 20061001);
        config.threads = threads;
        Scenario::generate(config)
    };
    let serial = generate(1);
    let sharded = generate(8);
    assert_eq!(
        serde_json::to_string(&serial.world).expect("world serializes"),
        serde_json::to_string(&sharded.world).expect("world serializes"),
        "world diverged between --threads 1 and --threads 8"
    );
    assert_eq!(
        serde_json::to_string(&serial.infections).expect("infections serialize"),
        serde_json::to_string(&sharded.infections).expect("infections serialize"),
        "infection history diverged between --threads 1 and --threads 8"
    );
    assert_eq!(
        serde_json::to_string(&serial.phish_sites).expect("phish sites serialize"),
        serde_json::to_string(&sharded.phish_sites).expect("phish sites serialize"),
        "phish history diverged between --threads 1 and --threads 8"
    );
}

// ---------------------------------------------------------------------------
// Out-of-core sweep == in-memory sweep
// ---------------------------------------------------------------------------

/// The reference the out-of-core pipeline must match: expand each day's
/// flows into a plain `Vec` and feed one detector pair sequentially,
/// flushing window state at each day boundary.
fn in_memory_sweep(
    scenario: &unclean_netmodel::Scenario,
    cfg: &unclean_detect::PipelineConfig,
) -> (unclean_core::IpSet, unclean_core::IpSet) {
    use unclean_flowgen::FlowGenerator;

    let model = scenario.activity();
    let generator = FlowGenerator::new(
        &scenario.observed,
        cfg.generator.clone(),
        scenario.seeds.child("flowgen"),
    );
    let mut scan = HourlyFanoutDetector::new(cfg.fanout.clone());
    let mut spam = SpamDetector::new(cfg.spam.clone());
    for day in scenario.dates.unclean_window.days() {
        let mut flows: Vec<Flow> = Vec::new();
        generator.flows_on(&model, day, cfg.detect_over_benign, |f| flows.push(f));
        for f in &flows {
            scan.observe(f);
            spam.observe(f);
        }
        scan.flush_window_state();
        spam.flush_window_state();
    }
    (scan.detected(), spam.detected())
}

/// The pipeline's out-of-core sweep (each whole-day chunk generated
/// straight into its own detector pair, never holding a day's flows, and
/// the shards merged in day order) must report the identical scanner and
/// spammer sets as the in-memory reference sweep — at 1 and 8 threads, at
/// two scenario scales, over
/// property-drawn seeds. Scenario generation is too expensive for the
/// default 64-case budget, so the seed strategy is driven by hand for a
/// fixed two cases instead of through `proptest!`.
#[test]
fn out_of_core_sweep_matches_in_memory_sweep() {
    use proptest::{Strategy, TestRng};
    use unclean_detect::{build_reports_with, PipelineConfig};
    use unclean_netmodel::{Scenario, ScenarioConfig};
    use unclean_telemetry::Registry;

    let mut rng = TestRng::from_name("out_of_core_sweep_matches_in_memory_sweep");
    let seed_strategy = 1u64..1_000_000;
    for _case in 0..2 {
        let seed = Strategy::generate(&seed_strategy, &mut rng);
        for scale in [0.002, 0.005] {
            let scenario = Scenario::generate(ScenarioConfig::at_scale(scale, seed));
            let (ref_scan, ref_spam) = in_memory_sweep(&scenario, &PipelineConfig::paper());
            let observed_blocks = scenario.observed.blocks().to_vec();
            for threads in [1usize, 8] {
                let mut cfg = PipelineConfig::paper();
                cfg.threads = threads;
                let reports = build_reports_with(&scenario, &cfg, &Registry::off());
                // build_reports_with ships filtered reports; apply the
                // same §3.2 filter to the reference detector output.
                let filter = |addrs: unclean_core::IpSet, tag: &str| {
                    unclean_core::Report::new(
                        tag,
                        unclean_core::ReportClass::Scanning,
                        unclean_core::Provenance::Observed,
                        scenario.dates.unclean_window,
                        addrs,
                    )
                    .filter_for_analysis(&observed_blocks)
                };
                let scan_ref = filter(ref_scan.clone(), "scan-ref");
                let spam_ref = filter(ref_spam.clone(), "spam-ref");
                prop_assert_eq!(
                    reports.scan.addresses(),
                    scan_ref.addresses(),
                    "scan report diverged at scale {} threads {}",
                    scale,
                    threads
                );
                prop_assert_eq!(
                    reports.spam.addresses(),
                    spam_ref.addresses(),
                    "spam report diverged at scale {} threads {}",
                    scale,
                    threads
                );
            }
        }
    }
}
