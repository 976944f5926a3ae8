//! Set-valued CIDR masking (`C_n(S)`, the paper's Eq. 1) and fast block
//! counting across all prefix lengths.
//!
//! Two representations:
//!
//! * [`BlockCounts`] answers "how many distinct n-bit blocks does this set
//!   occupy?" for every n in `[0, 32]` in a *single* pass over the sorted
//!   set: for consecutive sorted addresses, the number of leading bits at
//!   which they agree tells exactly which prefix lengths see a new block.
//!   This is what the density analysis (Figure 2/3 curves over 17 prefix
//!   lengths and 1000 trials) runs on.
//! * [`BlockSet`] materializes `C_n(S)` at a fixed n as a sorted prefix
//!   vector, supporting intersection counting (the temporal analysis,
//!   Eq. 5) and conversion to concrete [`Cidr`] lists (the §6 block lists),
//!   either one per block or as the minimal covering list.

use crate::cidr::{mask, Cidr};
use crate::ip::Ip;
use crate::ipset::IpSet;
use serde::{Deserialize, Serialize};
use unclean_telemetry::Registry;

/// Distinct-block counts for every prefix length `0..=32`, computed in one
/// pass.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockCounts {
    counts: Vec<u64>,
}

impl BlockCounts {
    /// Count blocks at every prefix length for `set`.
    ///
    /// For a sorted set, the count at prefix length n is
    /// `1 + |{i : lcp(a[i-1], a[i]) < n}|` where `lcp` is the length of the
    /// common bit prefix of consecutive elements. We histogram `lcp` values
    /// once and prefix-sum.
    pub fn of(set: &IpSet) -> BlockCounts {
        let raw = set.as_raw();
        if raw.is_empty() {
            return BlockCounts {
                counts: vec![0; 33],
            };
        }
        // lcp_hist[k] = number of consecutive pairs whose first differing
        // bit is bit k from the top (i.e., common prefix of exactly k bits).
        let mut lcp_hist = [0u64; 33];
        for w in raw.windows(2) {
            let lcp = (w[0] ^ w[1]).leading_zeros() as usize;
            lcp_hist[lcp] += 1;
        }
        // counts[n] = 1 + sum of lcp_hist[k] for k < n.
        let mut counts = Vec::with_capacity(33);
        let mut acc = 1u64;
        counts.push(1); // n = 0: a single (universal) block.
        for item in lcp_hist.iter().take(32) {
            acc += item;
            counts.push(acc);
        }
        BlockCounts { counts }
    }

    /// [`BlockCounts::of`] plus telemetry: bumps
    /// `core.blocks.counts_built` and (at `Full` level) records the input
    /// set size into the `core.blocks.input_addresses` histogram.
    pub fn of_recorded(set: &IpSet, registry: &Registry) -> BlockCounts {
        registry.counter("core.blocks.counts_built").inc();
        registry
            .histogram("core.blocks.input_addresses")
            .record(set.len() as u64);
        BlockCounts::of(set)
    }

    /// `|C_n(S)|` — the number of distinct n-bit blocks occupied.
    pub fn at(&self, n: u8) -> u64 {
        assert!(n <= 32, "prefix length {n} out of range");
        self.counts[n as usize]
    }

    /// The counts for an inclusive range of prefix lengths, in order.
    pub fn over(&self, lo: u8, hi: u8) -> Vec<u64> {
        assert!(lo <= hi && hi <= 32, "bad prefix range [{lo}, {hi}]");
        self.counts[lo as usize..=hi as usize].to_vec()
    }
}

/// `C_n(S)` materialized: the sorted, deduplicated set of n-bit prefix
/// values occupied by a set of addresses.
///
/// Prefixes are stored right-aligned (shifted down by `32 - n`) so that
/// merging two `BlockSet`s of equal length is a plain sorted-u32 merge.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockSet {
    len: u8,
    prefixes: Vec<u32>,
}

impl BlockSet {
    /// Compute `C_n(set)`.
    pub fn of(set: &IpSet, n: u8) -> BlockSet {
        assert!(n <= 32, "prefix length {n} out of range");
        if n == 0 {
            return BlockSet {
                len: 0,
                prefixes: if set.is_empty() { vec![] } else { vec![0] },
            };
        }
        let shift = 32 - n as u32;
        let mut prefixes: Vec<u32> = set.as_raw().iter().map(|&v| v >> shift).collect();
        prefixes.dedup(); // input was sorted, so shifted values are sorted.
        BlockSet { len: n, prefixes }
    }

    /// [`BlockSet::of`] plus telemetry: bumps `core.blocks.sets_built`
    /// and (at `Full` level) records the resulting block count into the
    /// `core.blocks.set_size` histogram.
    pub fn of_recorded(set: &IpSet, n: u8, registry: &Registry) -> BlockSet {
        registry.counter("core.blocks.sets_built").inc();
        let blocks = BlockSet::of(set, n);
        registry
            .histogram("core.blocks.set_size")
            .record(blocks.len() as u64);
        blocks
    }

    /// The prefix length n.
    pub fn prefix_len(&self) -> u8 {
        self.len
    }

    /// `|C_n(S)|`.
    pub fn len(&self) -> usize {
        self.prefixes.len()
    }

    /// Whether no blocks are occupied.
    pub fn is_empty(&self) -> bool {
        self.prefixes.is_empty()
    }

    /// Whether `ip`'s n-bit block is in the set — the inclusion relation
    /// `i ⊏ S` (Eq. 2) at this prefix length.
    pub fn contains(&self, ip: Ip) -> bool {
        let p = if self.len == 0 {
            0
        } else {
            ip.raw() >> (32 - self.len as u32)
        };
        self.prefixes.binary_search(&p).is_ok()
    }

    /// `|C_n(A) ∩ C_n(B)|` — the intersection cardinality the temporal
    /// uncleanliness test is built on (Eq. 4/5). Panics on mismatched
    /// prefix lengths.
    pub fn intersect_count(&self, other: &BlockSet) -> u64 {
        assert_eq!(
            self.len, other.len,
            "cannot intersect block sets of different prefix lengths"
        );
        let (a, b) = (&self.prefixes, &other.prefixes);
        let (mut i, mut j, mut n) = (0, 0, 0u64);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    /// The blocks as concrete CIDR ranges (for rendering block lists).
    pub fn to_cidrs(&self) -> Vec<Cidr> {
        let shift = 32u32.saturating_sub(self.len as u32);
        self.prefixes
            .iter()
            .map(|&p| {
                let base = if self.len == 0 { 0 } else { p << shift };
                Cidr::new(Ip(base), self.len).expect("shifted prefixes are aligned")
            })
            .collect()
    }

    /// The minimal CIDR list covering exactly these blocks, in address
    /// order: sibling blocks merge into their parent, repeatedly. This is
    /// what a router block list wants. One pass with a stack suffices —
    /// the blocks arrive sorted, so each can only merge with the block on
    /// top of the stack, and each merge may cascade.
    pub fn aggregate(&self) -> Vec<Cidr> {
        let mut out: Vec<Cidr> = Vec::new();
        for mut block in self.to_cidrs() {
            while let Some(&top) = out.last() {
                match block.parent() {
                    Some(parent) if top.parent() == Some(parent) => {
                        out.pop();
                        block = parent;
                    }
                    _ => break,
                }
            }
            out.push(block);
        }
        out
    }

    /// Total addresses spanned by the blocks: `len() * 2^(32-n)`. The §6.2
    /// sparseness argument ("44,288 addresses that can be blocked") is this
    /// number.
    pub fn address_span(&self) -> u64 {
        self.prefixes.len() as u64 * (1u64 << (32 - self.len as u32))
    }

    /// All member addresses of `set` whose n-bit block is in `self` — used
    /// to gather candidate traffic "in the same /24s as R_unclean".
    pub fn members_of<'a>(&'a self, set: &'a IpSet) -> impl Iterator<Item = Ip> + 'a {
        set.iter().filter(move |&ip| self.contains(ip))
    }
}

/// Count of addresses in `set` residing in each block of `blocks`,
/// returned in block order. Linear in `|set| + |blocks|`.
pub fn per_block_population(blocks: &BlockSet, set: &IpSet) -> Vec<(Cidr, usize)> {
    blocks
        .to_cidrs()
        .into_iter()
        .map(|c| {
            let n = set.count_in(&c);
            (c, n)
        })
        .collect()
}

/// `|C_n(A) ∩ C_n(B)|` for every n in `[lo, hi]` at once — the inner loop
/// of every temporal-analysis trial (Eq. 5 over the paper's 17 prefix
/// lengths), in one sweep over the sorted /32s instead of building and
/// intersecting a [`BlockSet`] per prefix length.
///
/// For each `a` in `A` (sorted), let `d(a)` be the longest common bit
/// prefix between `a` and any element of `B` (found by binary search:
/// only the two neighbours of `a`'s insertion point can maximize it), and
/// let `s(a)` be the common prefix with `a`'s predecessor in `A` (so `a`
/// opens a new n-block of `A` exactly when `n > s(a)`). Whether an
/// n-block of `A` intersects `C_n(B)` is a property of the block — every
/// member shares the block's n-bit prefix, so one member shares an n-bit
/// prefix with `B` iff all do. The block's opener therefore decides for
/// the whole block, and the intersection count at n is the number of
/// openers with `d(a) ≥ n`:
///
/// `|C_n(A) ∩ C_n(B)| = |{a : s(a) < n ≤ d(a)}|`
///
/// which a difference array over n accumulates in O(1) per element. Total
/// cost is O(|A| log |B|) for all 17 prefix lengths together.
pub fn shared_block_counts(a: &IpSet, b: &IpSet, lo: u8, hi: u8) -> Vec<u64> {
    assert!(lo <= hi && hi <= 32, "bad prefix range [{lo}, {hi}]");
    let width = (hi - lo + 1) as usize;
    let (araw, braw) = (a.as_raw(), b.as_raw());
    if araw.is_empty() || braw.is_empty() {
        return vec![0; width];
    }
    let lcp = |x: u32, y: u32| (x ^ y).leading_zeros(); // 32 when equal
    let mut diff = vec![0i64; width + 1];
    let mut prev: Option<u32> = None;
    for &x in araw {
        let i = braw.partition_point(|&v| v < x);
        let mut d = 0u32;
        if i < braw.len() {
            d = d.max(lcp(x, braw[i]));
        }
        if i > 0 {
            d = d.max(lcp(x, braw[i - 1]));
        }
        // First n at which x opens a new block of A: every n for the first
        // element, n > lcp(prev, x) afterwards.
        let s = prev.map_or(0, |p| lcp(x, p) + 1);
        let from = s.max(lo as u32);
        let to = d.min(hi as u32);
        if from <= to {
            diff[(from - lo as u32) as usize] += 1;
            diff[(to - lo as u32 + 1) as usize] -= 1;
        }
        prev = Some(x);
    }
    let mut out = Vec::with_capacity(width);
    let mut acc = 0i64;
    for &delta in diff.iter().take(width) {
        acc += delta;
        out.push(acc as u64);
    }
    out
}

/// Naive reference implementation of block counting (hash-set based) used
/// by tests and benches to validate [`BlockCounts`].
pub fn block_count_naive(set: &IpSet, n: u8) -> u64 {
    assert!(n <= 32);
    use std::collections::HashSet;
    if set.is_empty() {
        return 0;
    }
    let m = mask(n);
    let blocks: HashSet<u32> = set.as_raw().iter().map(|&v| v & m).collect();
    blocks.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ipset(strs: &[&str]) -> IpSet {
        IpSet::from_ips(strs.iter().map(|s| s.parse::<Ip>().expect("valid ip")))
    }

    #[test]
    fn empty_set_counts() {
        let c = BlockCounts::of(&IpSet::empty());
        for n in 0..=32 {
            assert_eq!(c.at(n), 0);
        }
    }

    #[test]
    fn singleton_occupies_one_block_everywhere() {
        let c = BlockCounts::of(&ipset(&["10.1.2.3"]));
        for n in 0..=32 {
            assert_eq!(c.at(n), 1, "n = {n}");
        }
    }

    #[test]
    fn two_addresses_in_one_slash24() {
        let s = ipset(&["10.1.2.3", "10.1.2.200"]);
        let c = BlockCounts::of(&s);
        assert_eq!(c.at(24), 1);
        assert_eq!(c.at(16), 1);
        assert_eq!(c.at(32), 2);
        // They differ first at bit 24..31 region: common prefix is 24 bits of
        // "10.1.2." plus however many bits 3 and 200 share at the top: 3 =
        // 0b00000011, 200 = 0b11001000 → differ at the first host bit, so
        // counts split exactly at n = 25.
        assert_eq!(c.at(25), 2);
    }

    #[test]
    fn counts_match_naive_on_structured_set() {
        let mut raw = Vec::new();
        // Three /16s with varying /24 fill.
        for b3 in 0..4u32 {
            for b4 in (0..256u32).step_by(17) {
                raw.push((10 << 24) | (7 << 16) | (b3 << 8) | b4);
                raw.push((172 << 24) | (200 << 16) | (b3 << 8) | b4);
            }
        }
        raw.push(u32::MAX);
        raw.push(0);
        let s = IpSet::from_raw(raw);
        let c = BlockCounts::of(&s);
        for n in 0..=32 {
            assert_eq!(c.at(n), block_count_naive(&s, n), "n = {n}");
        }
    }

    #[test]
    fn counts_are_monotone_in_prefix_length() {
        let s = IpSet::from_raw(
            (0..10_000u32)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect(),
        );
        let c = BlockCounts::of(&s);
        for n in 1..=32 {
            assert!(c.at(n) >= c.at(n - 1), "monotone at {n}");
        }
        assert_eq!(c.at(32), s.len() as u64);
        assert_eq!(c.at(0), 1);
    }

    #[test]
    fn over_returns_inclusive_range() {
        let c = BlockCounts::of(&ipset(&["10.0.0.1", "11.0.0.1"]));
        let v = c.over(16, 32);
        assert_eq!(v.len(), 17);
        assert!(v.iter().all(|&x| x == 2));
        assert_eq!(c.over(0, 0), vec![1]);
    }

    #[test]
    #[should_panic(expected = "bad prefix range")]
    fn over_rejects_inverted_range() {
        let c = BlockCounts::of(&IpSet::empty());
        let _ = c.over(20, 16);
    }

    #[test]
    fn blockset_of_matches_counts() {
        let s = ipset(&["10.1.2.3", "10.1.2.200", "10.1.3.1", "99.0.0.1"]);
        let counts = BlockCounts::of(&s);
        for n in [0u8, 8, 16, 20, 24, 28, 32] {
            assert_eq!(BlockSet::of(&s, n).len() as u64, counts.at(n), "n = {n}");
        }
    }

    #[test]
    fn blockset_contains() {
        let s = ipset(&["10.1.2.3"]);
        let b24 = BlockSet::of(&s, 24);
        assert!(b24.contains("10.1.2.250".parse().expect("ip")));
        assert!(!b24.contains("10.1.3.1".parse().expect("ip")));
        let b0 = BlockSet::of(&s, 0);
        assert!(b0.contains(Ip(u32::MAX)));
        assert!(!BlockSet::of(&IpSet::empty(), 0).contains(Ip(0)));
    }

    #[test]
    fn intersect_count_basics() {
        let a = BlockSet::of(&ipset(&["10.1.2.3", "10.9.0.0", "99.0.0.1"]), 24);
        let b = BlockSet::of(&ipset(&["10.1.2.200", "50.0.0.1", "99.0.0.77"]), 24);
        assert_eq!(a.intersect_count(&b), 2); // 10.1.2/24 and 99.0.0/24
        assert_eq!(b.intersect_count(&a), 2);
        let e = BlockSet::of(&IpSet::empty(), 24);
        assert_eq!(a.intersect_count(&e), 0);
    }

    #[test]
    #[should_panic(expected = "different prefix lengths")]
    fn intersect_rejects_mismatched_lengths() {
        let a = BlockSet::of(&ipset(&["10.0.0.1"]), 24);
        let b = BlockSet::of(&ipset(&["10.0.0.1"]), 16);
        let _ = a.intersect_count(&b);
    }

    #[test]
    fn to_cidrs_round_trips() {
        let s = ipset(&["10.1.2.3", "10.1.2.200", "192.168.0.1"]);
        let cidrs = BlockSet::of(&s, 24).to_cidrs();
        let strs: Vec<String> = cidrs.iter().map(|c| c.to_string()).collect();
        assert_eq!(strs, vec!["10.1.2.0/24", "192.168.0.0/24"]);
        let zero = BlockSet::of(&s, 0).to_cidrs();
        assert_eq!(zero[0].to_string(), "0.0.0.0/0");
    }

    fn aggregated(set: &IpSet, n: u8) -> Vec<String> {
        BlockSet::of(set, n)
            .aggregate()
            .iter()
            .map(|c| c.to_string())
            .collect()
    }

    #[test]
    fn aggregate_merges_complete_blocks() {
        // A full /30 (4 addresses) collapses to one block.
        let set = ipset(&["10.0.0.0", "10.0.0.1", "10.0.0.2", "10.0.0.3"]);
        assert_eq!(aggregated(&set, 32), vec!["10.0.0.0/30"]);
    }

    #[test]
    fn aggregate_emits_singletons_as_slash32() {
        let set = ipset(&["10.0.0.0", "10.0.0.2"]);
        assert_eq!(aggregated(&set, 32), vec!["10.0.0.0/32", "10.0.0.2/32"]);
    }

    #[test]
    fn aggregate_mixed() {
        // A complete pair + a lone address.
        let set = ipset(&["10.0.0.0", "10.0.0.1", "10.0.0.5"]);
        assert_eq!(aggregated(&set, 32), vec!["10.0.0.0/31", "10.0.0.5/32"]);
    }

    #[test]
    fn aggregate_collapses_sibling_pairs() {
        // Four adjacent /24s cascade into one /22; a lone /24 stays.
        let set = ipset(&["9.1.0.1", "9.1.1.1", "9.1.2.1", "9.1.3.1", "9.9.0.1"]);
        assert_eq!(aggregated(&set, 24), vec!["9.1.0.0/22", "9.9.0.0/24"]);
        // Adjacent blocks with different parents do not merge.
        let set = ipset(&["9.1.1.1", "9.1.2.1"]);
        assert_eq!(aggregated(&set, 24), vec!["9.1.1.0/24", "9.1.2.0/24"]);
    }

    #[test]
    fn aggregate_covers_exactly_the_set() {
        // Property-style check on a deterministic pseudo-random set.
        let set = IpSet::from_raw(
            (0..200u32)
                .map(|i| i.wrapping_mul(0x9e3779b9) >> 8)
                .collect(),
        );
        let agg = BlockSet::of(&set, 32).aggregate();
        // Every member covered by exactly one block.
        for m in set.iter() {
            let covering = agg.iter().filter(|c| c.contains(m)).count();
            assert_eq!(covering, 1, "{m} covered once");
        }
        // Total span equals set size (cover is exact).
        let span: u64 = agg.iter().map(|c| c.size()).sum();
        assert_eq!(span, set.len() as u64);
    }

    #[test]
    fn empty_aggregate() {
        assert!(BlockSet::of(&IpSet::empty(), 24).aggregate().is_empty());
        assert_eq!(aggregated(&ipset(&["10.0.0.1"]), 0), vec!["0.0.0.0/0"]);
    }

    #[test]
    fn address_span() {
        let s = ipset(&["10.1.2.3", "10.1.3.4"]);
        assert_eq!(BlockSet::of(&s, 24).address_span(), 512);
        assert_eq!(BlockSet::of(&s, 32).address_span(), 2);
        assert_eq!(BlockSet::of(&s, 16).address_span(), 65536);
    }

    #[test]
    fn members_of_filters_by_block() {
        let report = ipset(&["10.1.2.3"]);
        let traffic = ipset(&["10.1.2.9", "10.1.3.9", "10.1.2.77"]);
        let blocks = BlockSet::of(&report, 24);
        let hits: Vec<String> = blocks.members_of(&traffic).map(|i| i.to_string()).collect();
        assert_eq!(hits, vec!["10.1.2.9", "10.1.2.77"]);
    }

    #[test]
    fn recorded_constructors_match_and_count() {
        let registry = Registry::full();
        let s = ipset(&["10.1.2.3", "10.1.2.200", "99.0.0.1"]);
        let counts = BlockCounts::of_recorded(&s, &registry);
        assert_eq!(counts, BlockCounts::of(&s), "telemetry changes nothing");
        let blocks = BlockSet::of_recorded(&s, 24, &registry);
        assert_eq!(blocks, BlockSet::of(&s, 24));
        let snap = registry.snapshot();
        assert_eq!(snap.counters["core.blocks.counts_built"], 1);
        assert_eq!(snap.counters["core.blocks.sets_built"], 1);
        assert_eq!(snap.histograms["core.blocks.set_size"].sum, 2);
        assert_eq!(snap.histograms["core.blocks.input_addresses"].sum, 3);
    }

    fn shared_counts_reference(a: &IpSet, b: &IpSet, lo: u8, hi: u8) -> Vec<u64> {
        (lo..=hi)
            .map(|n| BlockSet::of(a, n).intersect_count(&BlockSet::of(b, n)))
            .collect()
    }

    #[test]
    fn shared_block_counts_match_per_length_intersections() {
        let a = ipset(&[
            "10.1.2.3",
            "10.1.2.200",
            "10.9.0.0",
            "99.0.0.1",
            "99.0.0.2",
            "200.200.200.200",
        ]);
        let b = ipset(&["10.1.2.200", "10.1.3.1", "50.0.0.1", "99.0.0.77"]);
        assert_eq!(
            shared_block_counts(&a, &b, 0, 32),
            shared_counts_reference(&a, &b, 0, 32)
        );
        assert_eq!(
            shared_block_counts(&a, &b, 16, 32),
            shared_counts_reference(&a, &b, 16, 32)
        );
        assert_eq!(
            shared_block_counts(&b, &a, 16, 32),
            shared_counts_reference(&b, &a, 16, 32)
        );
    }

    #[test]
    fn shared_block_counts_on_structured_sets() {
        // Hash-scattered sample vs a clustered "present" set, the shape the
        // temporal analysis feeds in, across every sub-range bound.
        let a = IpSet::from_raw(
            (0..2_000u32)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect(),
        );
        let b = IpSet::from_raw(
            (0..500u32)
                .map(|i| (i.wrapping_mul(2_654_435_761) & 0xffff_ff00) | (i % 7))
                .collect(),
        );
        assert_eq!(
            shared_block_counts(&a, &b, 16, 32),
            shared_counts_reference(&a, &b, 16, 32)
        );
        assert_eq!(shared_block_counts(&a, &b, 24, 24)[0], {
            BlockSet::of(&a, 24).intersect_count(&BlockSet::of(&b, 24))
        });
    }

    #[test]
    fn shared_block_counts_edge_cases() {
        let a = ipset(&["10.1.2.3"]);
        assert_eq!(
            shared_block_counts(&a, &IpSet::empty(), 16, 32),
            vec![0; 17]
        );
        assert_eq!(
            shared_block_counts(&IpSet::empty(), &a, 16, 32),
            vec![0; 17]
        );
        // Identical singletons intersect at every length.
        assert_eq!(shared_block_counts(&a, &a, 0, 32), vec![1; 33]);
        // Addresses differing in the top bit share only the universal block.
        let b = ipset(&["200.1.2.3"]);
        let counts = shared_block_counts(&a, &b, 0, 8);
        assert_eq!(counts[0], 1);
        assert!(counts[1..].iter().all(|&c| c == 0));
    }

    #[test]
    #[should_panic(expected = "bad prefix range")]
    fn shared_block_counts_rejects_inverted_range() {
        let _ = shared_block_counts(&IpSet::empty(), &IpSet::empty(), 20, 16);
    }

    #[test]
    fn per_block_population_counts() {
        let report = ipset(&["10.1.2.3", "20.0.0.1"]);
        let traffic = ipset(&["10.1.2.9", "10.1.2.10", "20.0.0.200", "30.0.0.1"]);
        let blocks = BlockSet::of(&report, 24);
        let pops = per_block_population(&blocks, &traffic);
        assert_eq!(pops.len(), 2);
        assert_eq!(pops[0].1, 2);
        assert_eq!(pops[1].1, 1);
    }
}
