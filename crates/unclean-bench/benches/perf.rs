//! Criterion performance benches for the hot paths every experiment
//! leans on: block counting, set algebra, sampling, prediction curves, the
//! NetFlow codec, flow generation, and the layers a live rescore crosses
//! (CRC, segment decode, detectors, and one incremental publish). These
//! are engineering benches (the paper-reproduction experiments live in
//! `src/bin/`).

use criterion::{
    black_box, criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput,
};
use unclean_core::blocks::block_count_naive;
use unclean_core::prelude::*;
use unclean_core::snap::crc32;
use unclean_detect::{rescore_window, LiveScanConfig, LiveWindow};
use unclean_flowgen::{
    decode_datagram, encode_datagram, record::EPOCH_UNIX_SECS, ArchiveIndex, Flow, FlowGenerator,
    GeneratorConfig, IndexedArchive, SegmentSource, V5Header, WalSpool,
};
use unclean_netmodel::{ActivityEvent, ActivityKind, ObservedNetwork, Scenario, ScenarioConfig};
use unclean_stats::SeedTree;
use unclean_telemetry::Registry;

/// A pseudo-random but clustered address set of the given size.
fn clustered_set(n: usize) -> IpSet {
    let mut raw = Vec::with_capacity(n);
    let mut x = 0x2545_f491u32;
    for i in 0..n {
        // ~8 addresses per /24, /24s clustered into /16 runs.
        x = x.wrapping_mul(0x9e37_79b9).wrapping_add(i as u32);
        let block = (x >> 12) % (n as u32 / 8 + 1);
        let host = x % 256;
        raw.push((4u32 << 24) | (block << 8) | host);
    }
    IpSet::from_raw(raw)
}

fn bench_block_counts(c: &mut Criterion) {
    let mut g = c.benchmark_group("block_counts");
    for size in [10_000usize, 100_000, 1_000_000] {
        let set = clustered_set(size);
        g.throughput(Throughput::Elements(size as u64));
        g.bench_with_input(
            BenchmarkId::new("all_prefixes_one_pass", size),
            &set,
            |b, s| b.iter(|| BlockCounts::of(black_box(s))),
        );
    }
    // The naive (hash-set) baseline at one prefix length, for contrast.
    let set = clustered_set(100_000);
    g.bench_function("naive_hashset_at_24", |b| {
        b.iter(|| block_count_naive(black_box(&set), 24))
    });
    g.finish();
}

fn bench_ipset_algebra(c: &mut Criterion) {
    let mut g = c.benchmark_group("ipset");
    let a = clustered_set(500_000);
    let b2 = clustered_set(400_000);
    g.throughput(Throughput::Elements(900_000));
    g.bench_function("union_500k_400k", |bch| b_iter_union(bch, &a, &b2));
    g.bench_function("intersect_500k_400k", |bch| {
        bch.iter(|| black_box(&a).intersect(black_box(&b2)))
    });
    g.bench_function("difference_500k_400k", |bch| {
        bch.iter(|| black_box(&a).difference(black_box(&b2)))
    });
    let mut rng = SeedTree::new(1).stream("bench");
    g.bench_function("sample_50k_of_500k", |bch| {
        bch.iter(|| black_box(&a).sample(&mut rng, 50_000).expect("k <= n"))
    });
    g.finish();
}

fn b_iter_union(bch: &mut criterion::Bencher<'_>, a: &IpSet, b: &IpSet) {
    bch.iter(|| black_box(a).union(black_box(b)))
}

fn bench_prediction(c: &mut Criterion) {
    let mut g = c.benchmark_group("prediction");
    let past = clustered_set(200);
    let present = clustered_set(200_000);
    g.bench_function("curve_16_32_200_vs_200k", |b| {
        b.iter(|| prediction_curve(black_box(&past), black_box(&present), PrefixRange::PAPER))
    });
    let bs_past = BlockSet::of(&past, 24);
    let bs_present = BlockSet::of(&present, 24);
    g.bench_function("blockset_intersect_at_24", |b| {
        b.iter(|| black_box(&bs_past).intersect_count(black_box(&bs_present)))
    });
    g.finish();
}

/// The minimal CIDR cover of a clustered address set, as `unclean
/// blocklist --aggregate` computes it.
fn bench_trie(c: &mut Criterion) {
    let mut g = c.benchmark_group("trie");
    let blocks = BlockSet::of(&clustered_set(50_000), 32);
    g.bench_function("aggregate_50k", |b| {
        b.iter(|| black_box(&blocks).aggregate())
    });
    g.finish();
}

fn bench_netflow_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("netflow_v5");
    let flows: Vec<Flow> = (0..30)
        .map(|i| Flow {
            src: Ip(0x0a00_0000 + i),
            dst: Ip(0x1e00_0001),
            src_port: 40_000,
            dst_port: 80,
            proto: 6,
            packets: 10,
            octets: 900,
            flags: 0x1b,
            start_secs: 86_400 * 273 + i as i64,
            duration_secs: 5,
        })
        .collect();
    let records: Vec<_> = flows
        .iter()
        .map(|f| f.to_v5(EPOCH_UNIX_SECS + 86_400 * 270))
        .collect();
    let header = V5Header {
        count: 30,
        sys_uptime_ms: 0,
        unix_secs: EPOCH_UNIX_SECS,
        unix_nsecs: 0,
        flow_sequence: 0,
        engine_type: 0,
        engine_id: 0,
        sampling_interval: 0,
    };
    g.throughput(Throughput::Elements(30));
    g.bench_function("encode_datagram_30", |b| {
        b.iter(|| encode_datagram(black_box(&header), black_box(&records)))
    });
    let wire = encode_datagram(&header, &records);
    g.bench_function("decode_datagram_30", |b| {
        b.iter(|| decode_datagram(black_box(&wire)).expect("valid"))
    });
    g.finish();
}

fn bench_flow_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("flowgen");
    let observed = ObservedNetwork::paper_default();
    let generator = FlowGenerator::new(&observed, GeneratorConfig::default(), SeedTree::new(7));
    let scan = ActivityEvent {
        day: Day(273),
        src: Ip(0x0901_0203),
        kind: ActivityKind::Scan { targets: 180 },
    };
    g.throughput(Throughput::Elements(180));
    g.bench_function("expand_scan_180_targets", |b| {
        b.iter(|| {
            let mut n = 0u32;
            generator.expand(black_box(&scan), |f| n = n.wrapping_add(f.packets));
            n
        })
    });
    let spam = ActivityEvent {
        day: Day(273),
        src: Ip(0x0901_0203),
        kind: ActivityKind::Spam { messages: 35 },
    };
    g.bench_function("expand_spam_35_messages", |b| {
        b.iter(|| {
            let mut n = 0u32;
            generator.expand(black_box(&spam), |f| n = n.wrapping_add(f.octets));
            n
        })
    });
    g.finish();
}

/// A Table-3-scale scored block set (a few thousand blocks, /16../28
/// mixed), like the `C_n(bot-test)` blocklists the daemon serves.
fn table3_scale_blocks() -> Vec<(Cidr, f64)> {
    let mut blocks = Vec::with_capacity(5_000);
    let mut x = 0x1234_5678u32;
    for i in 0..5_000u32 {
        x = x.wrapping_mul(0x9e37_79b9).wrapping_add(i);
        let len = 16 + (x % 13) as u8;
        blocks.push((Cidr::of(Ip(x), len), f64::from(x % 100) / 10.0));
    }
    blocks
}

/// The frozen trie on the serving hot path: longest-prefix-match lookups
/// over a Table-3-scale block set with a ~50/50 hit/miss probe mix, then
/// over a million-entry list, one walk at a time and batched.
fn bench_lpm(c: &mut Criterion) {
    let blocks = table3_scale_blocks();
    let frozen = FrozenTrie::from_scored(blocks.iter().copied());
    let probes: Vec<Ip> = {
        let mut probes = Vec::with_capacity(10_000);
        let mut x = 0xdead_beefu32;
        for (i, (cidr, _)) in blocks.iter().take(5_000).enumerate() {
            x = x.wrapping_mul(0x9e37_79b9).wrapping_add(i as u32);
            // Alternate an address inside the block and a random one.
            let host_bits = !unclean_core::cidr::mask(cidr.len());
            probes.push(Ip(cidr.first().raw() | (x & host_bits)));
            probes.push(Ip(x));
        }
        probes
    };
    let mut g = c.benchmark_group("lpm");
    g.throughput(Throughput::Elements(probes.len() as u64));
    g.bench_with_input(
        BenchmarkId::new("frozen_trie", blocks.len()),
        &probes,
        |b, probes| {
            b.iter(|| {
                let mut hits = 0usize;
                for &ip in probes.iter() {
                    hits += usize::from(frozen.lookup(black_box(ip)).is_some());
                }
                hits
            })
        },
    );
    // A list shaped like the benchmark's `serve_batch`: 200,000 /24s and
    // 800,000 /32s frozen to a 48 MB snapshot and mapped back, far beyond
    // cache, so each walk misses on most of its nodes. The point walk
    // pays those misses one after another; `lookup_batch` over 100-address
    // requests (the `/batch-bin` frame size there) overlaps them.
    let (mapped, probes) = serve_batch_shaped_trie();
    g.throughput(Throughput::Elements(probes.len() as u64));
    g.bench_with_input("frozen_trie_1m", &probes, |b, probes| {
        b.iter(|| {
            let mut hits = 0usize;
            for &ip in probes.iter() {
                hits += usize::from(mapped.lookup(black_box(ip)).is_some());
            }
            hits
        })
    });
    let mut answers = vec![None; 100];
    g.bench_with_input("frozen_trie_batch_1m", &probes, |b, probes| {
        b.iter(|| {
            let mut hits = 0usize;
            for request in probes.chunks(100) {
                let answers = &mut answers[..request.len()];
                mapped.lookup_batch(black_box(request), answers);
                hits += answers.iter().filter(|a| a.is_some()).count();
            }
            hits
        })
    });
    g.finish();
}

/// The `serve_batch`-shaped list as a mapped snapshot, plus 100,000
/// probes: half inside a listed network, half anywhere.
fn serve_batch_shaped_trie() -> (FrozenTrie, Vec<Ip>) {
    // Multiplying by an odd constant permutes the residues, so the /24
    // prefixes (mod 2^24) and the /32 hosts are each distinct.
    let nets = (1..=200_000u32).map(|i| Cidr::of(Ip(i.wrapping_mul(0x9e37_79b9) << 8), 24));
    let hosts = (1..=800_000u32).map(|i| Cidr::of(Ip(i.wrapping_mul(0x85eb_ca6b)), 32));
    let blocks: Vec<Cidr> = nets.chain(hosts).collect();
    let path = std::env::temp_dir().join(format!("unclean-perf-{}.snap", std::process::id()));
    FrozenTrie::from_scored(blocks.iter().map(|&c| (c, 1.0)))
        .freeze_to_file(
            &path,
            unclean_core::snap::SnapshotMeta {
                built_unix_ms: 0,
                source_generation: None,
            },
        )
        .expect("freeze the bench snapshot");
    let mapped = FrozenTrie::open_mmap(&path).expect("map the bench snapshot");
    // The mapping outlives the file's name.
    let _ = std::fs::remove_file(&path);
    let mut x = 0x2545_f491u32;
    let probes = (0..100_000u32)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            match i % 2 {
                0 => Ip(x),
                _ => {
                    let cidr = blocks[x as usize % blocks.len()];
                    Ip(cidr.first().raw()
                        | (x.rotate_left(16) & !unclean_core::cidr::mask(cidr.len())))
                }
            }
        })
        .collect();
    (mapped, probes)
}

/// The layers every live rescore crosses for each sealed flow: the CRC
/// each segment is checked against, the decode of one WAL segment flow by
/// flow, and a whole single-threaded rescore with the detectors and
/// scoring on top — from scratch, and as one publish of the last 80k
/// flows into a window that already holds the first 720k.
fn bench_rescore_layers(c: &mut Criterion) {
    let mut g = c.benchmark_group("archive");
    let mib: Vec<u8> = (0..1u32 << 20)
        .map(|i| (i.wrapping_mul(0x9e37_79b9) >> 13) as u8)
        .collect();
    g.throughput(Throughput::Bytes(mib.len() as u64));
    g.bench_function("crc32_1mib", |b| b.iter(|| crc32(black_box(&mib))));
    let image = live_shaped_spool(800_000);
    let archive = IndexedArchive::open(&image).expect("the spool image indexes");
    let (i, entry) = archive
        .index()
        .select(None)
        .into_iter()
        .max_by_key(|&(i, _)| archive.segments()[i].flows)
        .expect("the spool holds a segment");
    g.throughput(Throughput::Elements(archive.segments()[i].flows));
    g.bench_function("segment_for_each_flow", |b| {
        b.iter(|| {
            let mut packets = 0u64;
            let mut cursor = archive.cursor(i, entry).expect("CRC verifies");
            cursor
                .for_each_flow(|f| packets += u64::from(f.packets))
                .expect("the segment decodes");
            packets
        })
    });
    g.finish();

    let mut g = c.benchmark_group("detect");
    let cfg = LiveScanConfig {
        threads: 1,
        ..LiveScanConfig::default()
    };
    g.throughput(Throughput::Elements(archive.index().total_flows()));
    g.bench_function("rescore_window_800k", |b| {
        b.iter(|| {
            rescore_window(black_box(&image), None, &cfg, &Registry::off())
                .expect("the spool rescores")
                .flows
        })
    });
    let mut flows = 0;
    let first = archive
        .segments()
        .iter()
        .take_while(|s| {
            flows += s.flows;
            flows <= 720_000
        })
        .count();
    let prefix = Prefix {
        archive: &archive,
        index: ArchiveIndex {
            boot_unix_secs: archive.boot_unix_secs(),
            segments: archive.segments()[..first].to_vec(),
        },
    };
    assert_eq!(prefix.index.total_flows(), 720_000, "a seal at 720k");
    let warm = || {
        let mut window = LiveWindow::new(cfg.clone());
        window
            .rescore(&prefix, &Registry::off())
            .expect("the first 720k rescore");
        window
    };
    g.throughput(Throughput::Elements(
        archive.index().total_flows() - 720_000,
    ));
    g.bench_function("rescore_publish_80k_after_720k", |b| {
        b.iter_batched(
            warm,
            |mut window| {
                let scan = window
                    .rescore(black_box(&archive), &Registry::off())
                    .expect("the last 80k rescore");
                (window, scan)
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// The first segments of an archive: what a live window had been fed
/// before the archive's last seals.
struct Prefix<'a> {
    archive: &'a IndexedArchive<'a>,
    index: ArchiveIndex,
}

impl SegmentSource for Prefix<'_> {
    fn index(&self) -> &ArchiveIndex {
        &self.index
    }

    fn segment<'b>(&'b self, i: usize, buf: &'b mut Vec<u8>) -> std::io::Result<&'b [u8]> {
        self.archive.segment(i, buf)
    }
}

/// The sealed WAL image of `n` flows of the unclean window's border
/// traffic, spooled as `unclean ingest` spools the `live` benchmark
/// workload: 40k flows a second, sealed on the default 2 s rescore
/// cadence (80k-flow segments) and at each day change.
fn live_shaped_spool(n: usize) -> Vec<u8> {
    // The window yields at least 3e8 flows per unit of scale.
    let scale = (n as f64 / 3.0e8).clamp(0.001, 1.0);
    let scenario =
        Scenario::generate_recorded(ScenarioConfig::at_scale(scale, 1), &Registry::off());
    let generator = FlowGenerator::new(
        &scenario.observed,
        GeneratorConfig::default(),
        scenario.seeds.child("flowgen"),
    );
    let model = scenario.activity();
    let window = scenario.dates.unclean_window;
    let mut flows: Vec<Flow> = Vec::with_capacity(n);
    for day in window.days() {
        generator.flows_on(&model, day, true, |f| flows.push(f));
        if flows.len() >= n {
            break;
        }
    }
    flows.truncate(n);
    // Day 1 onwards: inside the V5 uptime horizon of an exporter booted
    // at the epoch, as ingest's default anchor is.
    let shift = i64::from(window.start.0 - 1) * 86_400;
    let dir = std::env::temp_dir().join(format!("unclean-perf-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut spool = WalSpool::create(&dir, EPOCH_UNIX_SECS).expect("create the bench spool");
    let mut day = None;
    for (k, mut flow) in flows.into_iter().enumerate() {
        flow.start_secs -= shift;
        if day.is_some_and(|d| d != flow.day()) || (k > 0 && k % 80_000 == 0) {
            spool.seal().expect("seal");
        }
        day = Some(flow.day());
        spool.push(&flow).expect("spool a flow");
    }
    spool.seal().expect("seal");
    let image = spool.sealed_image().expect("the sealed image");
    let _ = std::fs::remove_dir_all(&dir);
    image
}

fn bench_density_trial(c: &mut Criterion) {
    let mut g = c.benchmark_group("density");
    g.sample_size(20);
    let control = clustered_set(1_000_000);
    let mut rng = SeedTree::new(2).stream("bench-density");
    g.bench_function("one_control_trial_100k", |b| {
        b.iter(|| {
            let sample = control.sample(&mut rng, 100_000).expect("k <= n");
            density_curve(&sample, PrefixRange::PAPER)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_block_counts,
    bench_ipset_algebra,
    bench_prediction,
    bench_trie,
    bench_lpm,
    bench_netflow_codec,
    bench_flow_generation,
    bench_rescore_layers,
    bench_density_trial,
);
criterion_main!(benches);
