//! Property-based tests (proptest) over the core data structures and the
//! invariants every analysis relies on.

use proptest::collection::vec;
use proptest::prelude::*;
use unclean_core::blocks::block_count_naive;
use unclean_core::prelude::*;
use unclean_stats::{quantile_sorted, FiveNumber, SeedTree};

fn ipset_strategy() -> impl Strategy<Value = IpSet> {
    vec(any::<u32>(), 0..500).prop_map(IpSet::from_raw)
}

proptest! {
    #[test]
    fn ipset_construction_is_sorted_unique(raw in vec(any::<u32>(), 0..500)) {
        let set = IpSet::from_raw(raw.clone());
        prop_assert!(set.as_raw().windows(2).all(|w| w[0] < w[1]));
        for v in raw {
            prop_assert!(set.contains(Ip(v)));
        }
    }

    #[test]
    fn set_algebra_laws(a in ipset_strategy(), b in ipset_strategy()) {
        let union = a.union(&b);
        let inter = a.intersect(&b);
        let diff_ab = a.difference(&b);
        let diff_ba = b.difference(&a);
        // |A ∪ B| + |A ∩ B| = |A| + |B|
        prop_assert_eq!(union.len() + inter.len(), a.len() + b.len());
        // A = (A \ B) ⊎ (A ∩ B)
        prop_assert_eq!(diff_ab.len() + inter.len(), a.len());
        // Union is commutative; intersection distributes.
        prop_assert_eq!(&union, &b.union(&a));
        prop_assert_eq!(&inter, &b.intersect(&a));
        // Disjointness of the difference pieces.
        prop_assert!(diff_ab.intersect(&diff_ba).is_empty());
        // Every union member is in A or B.
        for ip in union.iter() {
            prop_assert!(a.contains(ip) || b.contains(ip));
        }
    }

    #[test]
    fn sample_is_uniformly_a_subset(raw in vec(any::<u32>(), 1..300), seed in any::<u64>()) {
        let set = IpSet::from_raw(raw);
        let k = set.len() / 2;
        let mut rng = SeedTree::new(seed).stream("prop");
        let sub = set.sample(&mut rng, k).expect("k <= n");
        prop_assert_eq!(sub.len(), k);
        for ip in sub.iter() {
            prop_assert!(set.contains(ip));
        }
    }

    #[test]
    fn block_counts_match_naive_at_all_prefixes(set in ipset_strategy()) {
        let fast = BlockCounts::of(&set);
        for n in [0u8, 1, 7, 8, 15, 16, 20, 24, 29, 32] {
            prop_assert_eq!(fast.at(n), block_count_naive(&set, n), "n = {}", n);
        }
    }

    #[test]
    fn block_counts_are_monotone(set in ipset_strategy()) {
        let counts = BlockCounts::of(&set);
        for n in 1..=32u8 {
            prop_assert!(counts.at(n) >= counts.at(n - 1));
            // Growth is at most 2× per bit.
            prop_assert!(counts.at(n) <= counts.at(n - 1) * 2);
        }
    }

    #[test]
    fn blockset_agrees_with_blockcounts(set in ipset_strategy(), n in 0u8..=32) {
        let bs = BlockSet::of(&set, n);
        prop_assert_eq!(bs.len() as u64, BlockCounts::of(&set).at(n));
        // Every member's block is contained.
        for ip in set.iter() {
            prop_assert!(bs.contains(ip));
        }
    }

    #[test]
    fn blockset_intersection_is_bounded(a in ipset_strategy(), b in ipset_strategy(), n in 0u8..=32) {
        let ba = BlockSet::of(&a, n);
        let bb = BlockSet::of(&b, n);
        let i = ba.intersect_count(&bb);
        prop_assert!(i <= ba.len() as u64);
        prop_assert!(i <= bb.len() as u64);
        // Self-intersection is identity.
        prop_assert_eq!(ba.intersect_count(&ba), ba.len() as u64);
    }

    #[test]
    fn trie_and_flat_paths_agree(
        set in ipset_strategy(),
        n in 0u8..=32,
        probes in vec(any::<u32>(), 0..64),
    ) {
        // C_n(S) three ways: the sorted block set, the naive hash count,
        // and a frozen trie served from the block set's CIDRs.
        let blocks = BlockSet::of(&set, n);
        prop_assert_eq!(blocks.len() as u64, block_count_naive(&set, n));
        let trie = FrozenTrie::from_scored(blocks.to_cidrs().into_iter().map(|c| (c, 1.0)));
        prop_assert_eq!(trie.len(), blocks.len());
        for ip in set.iter().take(50).chain(probes.into_iter().map(Ip)) {
            prop_assert_eq!(trie.contains(ip), blocks.contains(ip), "{} at /{}", ip, n);
            prop_assert_eq!(blocks.contains(ip), set.contains_block(ip, n));
        }
    }

    #[test]
    fn aggregate_is_a_minimal_exact_disjoint_cover(
        raw in vec(any::<u32>(), 1..200),
        n in 8u8..=32,
    ) {
        // Clustered addresses, so sibling blocks actually occur.
        let set = IpSet::from_raw(raw.into_iter().map(|v| v & 0xff00_ffff).collect());
        let blocks = BlockSet::of(&set, n);
        let cover = blocks.aggregate();
        let span: u64 = cover.iter().map(|c| c.size()).sum();
        prop_assert_eq!(span, blocks.address_span(), "cover size equals block span");
        for ip in set.iter().take(100) {
            prop_assert_eq!(cover.iter().filter(|c| c.contains(ip)).count(), 1);
        }
        // Exact: the cover's n-bit blocks are the block set's.
        let mut expanded = Vec::new();
        for c in &cover {
            for k in 0..(1u64 << (n - c.len())) {
                expanded.push(Ip(c.base().raw() + (k << (32 - n)) as u32));
            }
        }
        prop_assert_eq!(&BlockSet::of(&IpSet::from_ips(expanded), n), &blocks);
        // Minimal: sorted, and no two blocks are mergeable siblings.
        for w in cover.windows(2) {
            prop_assert!(w[0] < w[1]);
            prop_assert!(
                w[0].parent().is_none() || w[0].parent() != w[1].parent(),
                "{} and {} merge", w[0], w[1]
            );
        }
    }

    #[test]
    fn cidr_of_is_idempotent_and_nested(v in any::<u32>(), n in 0u8..=32) {
        let ip = Ip(v);
        let block = Cidr::of(ip, n);
        prop_assert!(block.contains(ip));
        prop_assert_eq!(Cidr::of(block.base(), n), block);
        // Parent chains nest.
        if let Some(parent) = block.parent() {
            prop_assert!(parent.contains_cidr(&block));
            prop_assert!(parent.contains(ip));
        }
    }

    #[test]
    fn cidr_display_parse_round_trip(v in any::<u32>(), n in 0u8..=32) {
        let block = Cidr::of(Ip(v), n);
        let parsed: Cidr = block.to_string().parse().expect("display is parseable");
        prop_assert_eq!(parsed, block);
    }

    #[test]
    fn ip_display_parse_round_trip(v in any::<u32>()) {
        let ip = Ip(v);
        let parsed: Ip = ip.to_string().parse().expect("display is parseable");
        prop_assert_eq!(parsed, ip);
    }

    #[test]
    fn day_round_trip(offset in -40_000i32..40_000) {
        let day = Day(offset);
        let (y, m, d) = day.ymd();
        prop_assert_eq!(Day::from_ymd(y, m, d).expect("valid"), day);
        let parsed: Day = day.to_string().parse().expect("display is parseable");
        prop_assert_eq!(parsed, day);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded(mut values in vec(-1e6f64..1e6, 1..200)) {
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mut last = f64::NEG_INFINITY;
        for i in 0..=10 {
            let q = quantile_sorted(&values, i as f64 / 10.0);
            prop_assert!(q >= last);
            prop_assert!(q >= values[0] && q <= *values.last().expect("non-empty"));
            last = q;
        }
    }

    #[test]
    fn five_number_is_ordered(values in vec(-1e6f64..1e6, 1..200)) {
        let f = FiveNumber::of(&values).expect("non-empty, finite");
        prop_assert!(f.min <= f.q1);
        prop_assert!(f.q1 <= f.median);
        prop_assert!(f.median <= f.q3);
        prop_assert!(f.q3 <= f.max);
        prop_assert!(f.mean >= f.min && f.mean <= f.max);
    }

    #[test]
    fn prediction_curve_bounded_by_past_blocks(a in ipset_strategy(), b in ipset_strategy()) {
        prop_assume!(!a.is_empty() && !b.is_empty());
        let curve = prediction_curve(&a, &b, PrefixRange::PAPER);
        let counts = BlockCounts::of(&a);
        for (i, n) in (16u8..=32).enumerate() {
            prop_assert!(curve[i] <= counts.at(n));
        }
    }

    #[test]
    fn netflow_v5_round_trip(
        src in any::<u32>(), dst in any::<u32>(),
        sport in any::<u16>(), dport in any::<u16>(),
        packets in 1u32..1000, payload in 0u32..100_000,
        // V5's 32-bit millisecond uptime wraps every ~49.7 days, so the
        // round trip is only lossless within that horizon of boot (the
        // wrap itself is covered by flowgen's unit tests).
        flags in 0u8..64, secs in 0i64..49 * 86_400,
    ) {
        use unclean_flowgen::{Flow, record::EPOCH_UNIX_SECS};
        let flow = Flow {
            src: Ip(src), dst: Ip(dst),
            src_port: sport, dst_port: dport,
            proto: 6, packets, octets: packets * 40 + payload,
            flags, start_secs: secs, duration_secs: 30,
        };
        let boot = EPOCH_UNIX_SECS;
        let back = Flow::from_v5(&flow.to_v5(boot), boot);
        prop_assert_eq!(back, flow);
    }
}

proptest! {
    #[test]
    fn v5_decoder_never_panics_on_garbage(bytes in vec(any::<u8>(), 0..2048)) {
        // Fuzz-shaped robustness: arbitrary input must yield Ok or a typed
        // error, never a panic or an over-read.
        let _ = unclean_flowgen::decode_datagram(&bytes);
    }

    #[test]
    fn v5_decoder_accepts_what_the_encoder_emits_after_count_preserving_mutation(
        n_records in 1usize..=30,
        flip_at in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        // Flip any single bit outside the version/count fields: decoding
        // must still succeed (the format has no checksum) and return the
        // same record count.
        use unclean_flowgen::{encode_datagram, decode_datagram, V5Header, V5Record};
        let records: Vec<V5Record> = (0..n_records)
            .map(|i| V5Record { srcaddr: i as u32, ..V5Record::default() })
            .collect();
        let header = V5Header {
            count: n_records as u16,
            sys_uptime_ms: 0,
            unix_secs: 0,
            unix_nsecs: 0,
            flow_sequence: 0,
            engine_type: 0,
            engine_id: 0,
            sampling_interval: 0,
        };
        let mut wire = encode_datagram(&header, &records);
        let idx = 4 + flip_at % (wire.len() - 4); // skip version+count
        wire[idx] ^= 1 << flip_bit;
        let (h, r) = decode_datagram(&wire).expect("bit flips outside framing decode");
        prop_assert_eq!(h.count as usize, n_records);
        prop_assert_eq!(r.len(), n_records);
    }

    #[test]
    fn archive_round_trip(flow_count in 0usize..200, seed in any::<u64>()) {
        use unclean_flowgen::{ArchiveReader, Flow, record::EPOCH_UNIX_SECS};
        let mut rng = SeedTree::new(seed).stream("archive-prop");
        use rand::Rng;
        let flows: Vec<Flow> = (0..flow_count)
            .map(|_| Flow {
                src: Ip(rng.gen()),
                dst: Ip(rng.gen()),
                src_port: rng.gen(),
                dst_port: rng.gen(),
                proto: 6,
                packets: rng.gen_range(1..100),
                octets: rng.gen_range(40..100_000),
                flags: rng.gen_range(0..64),
                start_secs: rng.gen_range(0..40 * 86_400),
                duration_secs: rng.gen_range(0..600),
            })
            .collect();
        let bytes = unclean_integration::frame_v1(&flows, EPOCH_UNIX_SECS);
        let mut r = ArchiveReader::new(bytes.as_slice(), EPOCH_UNIX_SECS);
        let back = r.read_all().expect("well-formed");
        prop_assert_eq!(back, flows);
        prop_assert_eq!(r.telemetry().lost_flows, 0);
    }

    #[test]
    fn fault_injector_conserves_flow_accounting(
        drop in 0.0f64..1.0, dup in 0.0f64..1.0, corrupt in 0.0f64..1.0,
        burst in 0.0f64..0.3, burst_len in 1u32..12, trunc in 0.0f64..1.0,
        n in 0u32..500, seed in any::<u64>(),
    ) {
        use unclean_flowgen::{FaultConfig, FaultInjector, Flow};
        let mut inj = FaultInjector::new(
            FaultConfig {
                drop_chance: drop,
                duplicate_chance: dup,
                corrupt_chance: corrupt,
                burst_chance: burst,
                burst_len,
                truncate_chance: trunc,
            },
            SeedTree::new(seed),
        );
        let template = Flow {
            src: Ip(1), dst: Ip(2), src_port: 1, dst_port: 2, proto: 6,
            packets: 1, octets: 40, flags: 2, start_secs: 100, duration_secs: 0,
        };
        let mut delivered = 0u64;
        for _ in 0..n {
            inj.apply(&template, |_| delivered += 1);
        }
        let s = inj.stats();
        prop_assert_eq!(s.seen, n as u64);
        let lost = s.dropped + s.burst_dropped + s.truncated;
        prop_assert_eq!(delivered, s.seen - lost + s.duplicated);
        prop_assert!(s.corrupted <= s.seen - lost);
    }
}

#[test]
fn contains_block_is_equivalent_to_blockset_contains() {
    // Deterministic sweep complementing the proptest cases: the two
    // inclusion-relation implementations agree.
    let set = IpSet::from_raw(
        (0..5_000u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect(),
    );
    for n in [8u8, 16, 20, 24, 28, 32] {
        let bs = BlockSet::of(&set, n);
        for probe in (0..2_000u32).map(|i| Ip(i.wrapping_mul(0x9e37_79b9))) {
            assert_eq!(
                set.contains_block(probe, n),
                bs.contains(probe),
                "probe {probe} at /{n}"
            );
        }
    }
}

/// `lookup_batch` over `probes` — whole, and cut into chunks on either
/// side of its 16-walk lane group — gives `lookup`'s answer for every
/// probe, in order.
fn assert_batch_matches_point(trie: &FrozenTrie, probes: &[Ip]) {
    let point: Vec<Option<LpmMatch>> = probes.iter().map(|&ip| trie.lookup(ip)).collect();
    let mut batch = vec![None; probes.len()];
    trie.lookup_batch(probes, &mut batch);
    assert_eq!(batch, point, "whole batch of {}", probes.len());
    for chunk in [1, 15, 16, 17, 100] {
        let mut batch = vec![None; probes.len()];
        for (ips, out) in probes.chunks(chunk).zip(batch.chunks_mut(chunk)) {
            trie.lookup_batch(ips, out);
        }
        assert_eq!(batch, point, "chunks of {chunk}");
    }
}

proptest! {
    #[test]
    fn frozen_trie_is_equivalent_to_linear_scan(
        raw in vec(any::<u64>(), 1..80),
        extra_probes in vec(any::<u32>(), 0..64),
    ) {
        // The daemon's frozen trie must agree with a brute-force
        // longest-prefix scan — including at and just outside block
        // boundaries, where off-by-one bit walks hide.
        let blocks: Vec<(Cidr, f64)> = raw
            .iter()
            .map(|&x| {
                // One u64 per block: high bits pick the address, the rest
                // a length in 8..=32 and a score in [0, 100).
                let ip = (x >> 32) as u32;
                let len = 8 + (x % 25) as u8;
                let score = ((x >> 8) % 1000) as f64 / 10.0;
                (Cidr::of(Ip(ip), len), score)
            })
            .collect();
        let frozen = FrozenTrie::from_scored(blocks.iter().copied());

        // Reference: scan every block, keep the longest-prefix hit. On a
        // duplicate CIDR the trie keeps the *last* score inserted, so
        // scan in insertion order with >=.
        let reference = |ip: Ip| -> Option<(Cidr, f64)> {
            let mut best: Option<(Cidr, f64)> = None;
            for &(cidr, score) in &blocks {
                if cidr.contains(ip)
                    && best.is_none_or(|(b, _)| cidr.len() >= b.len())
                {
                    best = Some((cidr, score));
                }
            }
            best
        };

        // Probe each block's boundaries and one-off neighbours, plus
        // arbitrary addresses.
        let mut probes: Vec<Ip> = Vec::new();
        for (cidr, _) in &blocks {
            let first = cidr.first().raw();
            let last = cidr.last().raw();
            for raw in [first, last, first.wrapping_sub(1), last.wrapping_add(1)] {
                probes.push(Ip(raw));
            }
        }
        probes.extend(extra_probes.iter().map(|&r| Ip(r)));

        for &ip in &probes {
            let expect = reference(ip);
            let from_frozen = frozen.lookup(ip).map(|m| (m.cidr, m.score));
            prop_assert_eq!(from_frozen, expect, "frozen trie at {}", ip);
            prop_assert_eq!(frozen.contains(ip), expect.is_some());
        }
        assert_batch_matches_point(&frozen, &probes);
    }

    #[test]
    fn mmap_snapshot_is_equivalent_to_heap_trie(
        raw in vec(any::<u64>(), 1..80),
        extra_probes in vec(any::<u32>(), 0..64),
    ) {
        // Freezing is a fixed point: a trie built in memory, written with
        // freeze_to_file, mapped back and written again with the same
        // meta gives the same bytes — and the mapped trie answers every
        // lookup (verdict, matched prefix, AND score) exactly like the
        // heap-built one, with the snapshot metadata preserved.
        use std::sync::atomic::{AtomicU64, Ordering};
        use unclean_core::snap::SnapshotMeta;
        static CASE: AtomicU64 = AtomicU64::new(0);

        let blocks: Vec<(Cidr, f64)> = raw
            .iter()
            .map(|&x| {
                let ip = (x >> 32) as u32;
                let len = 8 + (x % 25) as u8;
                let score = ((x >> 8) % 1000) as f64 / 10.0;
                (Cidr::of(Ip(ip), len), score)
            })
            .collect();
        let heap = FrozenTrie::from_scored(blocks.iter().copied());

        let path = std::env::temp_dir().join(format!(
            "unclean-prop-snap-{}-{}.snap",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let meta = SnapshotMeta { built_unix_ms: 777, source_generation: Some(9) };
        heap.freeze_to_file(&path, meta).expect("freeze_to_file");
        // Full-CRC open: the strictest read path must accept its own
        // writer's output bit-for-bit.
        let mapped = FrozenTrie::open_mmap_verified(&path).expect("open_mmap_verified");
        let first = std::fs::read(&path).expect("read snapshot");
        mapped.freeze_to_file(&path, meta).expect("refreeze");
        let second = std::fs::read(&path).expect("read refrozen snapshot");
        let _ = std::fs::remove_file(&path);
        prop_assert!(first == second, "refreezing a mapped snapshot changed its bytes");

        prop_assert!(mapped.is_mapped());
        prop_assert_eq!(mapped.len(), heap.len());
        prop_assert_eq!(mapped.snapshot_meta(), Some(meta));

        let mut probes: Vec<Ip> = Vec::new();
        for (cidr, _) in &blocks {
            let first = cidr.first().raw();
            let last = cidr.last().raw();
            for raw in [first, last, first.wrapping_sub(1), last.wrapping_add(1)] {
                probes.push(Ip(raw));
            }
        }
        probes.extend(extra_probes.iter().map(|&r| Ip(r)));

        for &ip in &probes {
            let from_heap = heap.lookup(ip).map(|m| (m.cidr, m.score));
            let from_mmap = mapped.lookup(ip).map(|m| (m.cidr, m.score));
            prop_assert_eq!(from_mmap, from_heap, "mmap vs heap at {}", ip);
            prop_assert_eq!(mapped.contains(ip), from_heap.is_some());
        }
        assert_batch_matches_point(&mapped, &probes);
    }

    #[test]
    fn corrupt_or_truncated_snapshots_are_rejected(
        raw in vec(any::<u64>(), 1..40),
        flip in any::<u32>(),
    ) {
        // Any single flipped byte or truncation must be caught: header
        // damage by the O(1) open, section damage by the verified open.
        // A flip the O(1) open lets through must still leave every
        // lookup answering (wrongly, perhaps) without a panic.
        use std::sync::atomic::{AtomicU64, Ordering};
        use unclean_core::snap::SnapshotMeta;
        static CASE: AtomicU64 = AtomicU64::new(0);

        let blocks: Vec<(Cidr, f64)> = raw
            .iter()
            .map(|&x| (Cidr::of(Ip((x >> 32) as u32), 8 + (x % 25) as u8), 1.0))
            .collect();
        let heap = FrozenTrie::from_scored(blocks.iter().copied());
        let path = std::env::temp_dir().join(format!(
            "unclean-prop-corrupt-{}-{}.snap",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let meta = SnapshotMeta { built_unix_ms: 0, source_generation: None };
        heap.freeze_to_file(&path, meta).expect("freeze_to_file");
        let pristine = std::fs::read(&path).expect("read snapshot");

        // Flip one byte anywhere integrity is promised — the header's
        // CRC-covered bytes (incl. the stored CRC itself) or the node
        // and entry sections; page-alignment padding between them is
        // explicitly don't-care. The verified open must reject it
        // (header CRC, section CRC, or geometry check — any is fine).
        let info = unclean_core::snap::inspect(&path).expect("inspect pristine");
        let covered_ranges = [
            (0usize, 76usize),
            (info.nodes_off as usize, (info.node_count * 16) as usize),
            (info.entries_off as usize, (info.entry_count * 16) as usize),
        ];
        let covered: usize = covered_ranges.iter().map(|&(_, len)| len).sum();
        let mut slot = (flip as usize) % covered;
        let mut at = 0usize;
        for &(start, len) in &covered_ranges {
            if slot < len {
                at = start + slot;
                break;
            }
            slot -= len;
        }
        let mut corrupt = pristine.clone();
        corrupt[at] ^= 0x01 | ((flip >> 8) as u8);
        std::fs::write(&path, &corrupt).expect("write corrupt");
        prop_assert!(
            FrozenTrie::open_mmap_verified(&path).is_err(),
            "flipped byte at {} accepted", at
        );
        if let Ok(unverified) = FrozenTrie::open_mmap(&path) {
            let probes: Vec<Ip> = blocks
                .iter()
                .flat_map(|(cidr, _)| {
                    let (first, last) = (cidr.first().raw(), cidr.last().raw());
                    [first, last, first.wrapping_sub(1), last.wrapping_add(1)].map(Ip)
                })
                .collect();
            assert_batch_matches_point(&unverified, &probes);
        }

        // Truncate anywhere strictly inside the file: must be rejected
        // even by the cheap open (bounds check against the header).
        let cut = (flip as usize) % pristine.len();
        std::fs::write(&path, &pristine[..cut]).expect("write truncated");
        prop_assert!(
            FrozenTrie::open_mmap(&path).is_err(),
            "truncation to {} bytes accepted", cut
        );
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn golden_snapshot_is_reproduced_byte_for_byte() {
    // `tests/data/golden.snap` pins the snapshot format: a small fixed
    // list in (base, len) order, with nested blocks, /0, /32s and a
    // duplicate CIDR whose later score wins. Rebuilding it from the same
    // list and meta must give the same bytes, and it must open verified.
    use unclean_core::snap::SnapshotMeta;
    let golden_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("data/golden.snap");
    let golden = std::fs::read(&golden_path).expect("read golden snapshot");
    let list = [
        ("0.0.0.0/0", 0.125),
        ("9.1.0.0/16", 2.5),
        ("9.1.2.0/24", 1.0),
        ("9.1.2.0/24", 4.0),
        ("9.1.3.0/24", 1.5),
        ("10.0.0.0/8", 0.5),
        ("10.5.0.0/16", 3.0),
        ("10.5.7.7/32", 9.0),
        ("128.0.0.0/1", 0.25),
        ("192.168.4.0/22", 1.0),
        ("203.0.113.0/24", 1.25),
        ("203.0.113.7/32", 9.0),
        ("255.255.255.255/32", 7.5),
    ];
    let meta = SnapshotMeta {
        built_unix_ms: 1_754_700_000_000,
        source_generation: Some(13),
    };
    let path = std::env::temp_dir().join(format!("unclean-golden-{}.snap", std::process::id()));
    FrozenTrie::from_scored(list.map(|(s, w)| (s.parse::<Cidr>().expect("cidr"), w)))
        .freeze_to_file(&path, meta)
        .expect("freeze_to_file");
    let rebuilt = std::fs::read(&path).expect("read rebuilt snapshot");
    let _ = std::fs::remove_file(&path);
    assert!(
        rebuilt == golden,
        "rebuilt snapshot differs from {}",
        golden_path.display()
    );

    let trie = FrozenTrie::open_mmap_verified(&golden_path).expect("golden opens verified");
    assert_eq!(trie.snapshot_meta(), Some(meta));
    assert_eq!(trie.len(), 12, "the duplicate collapses");
    let hit = |s: &str| {
        let m = trie.lookup(s.parse().expect("ip")).expect("covered by /0");
        (m.cidr.to_string(), m.score)
    };
    assert_eq!(hit("9.1.2.9"), ("9.1.2.0/24".into(), 4.0));
    assert_eq!(hit("10.5.7.7"), ("10.5.7.7/32".into(), 9.0));
    assert_eq!(hit("10.5.7.8"), ("10.5.0.0/16".into(), 3.0));
    assert_eq!(hit("192.168.8.0"), ("128.0.0.0/1".into(), 0.25));
    assert_eq!(hit("100.0.0.1"), ("0.0.0.0/0".into(), 0.125));
}
