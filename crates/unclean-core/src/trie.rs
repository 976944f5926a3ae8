//! A binary prefix trie over IPv4 addresses.
//!
//! The analyses use the flat sorted-vector representations in
//! [`crate::blocks`] for speed, but some operations are naturally
//! tree-shaped: aggregating an address set into its *minimal* covering
//! CIDR list (for emitting router-ready block lists), walking occupied
//! blocks in prefix order, and validating the fast block counters against
//! an independent implementation. [`PrefixTrie`] provides those.

use crate::cidr::Cidr;
use crate::ip::Ip;
use crate::ipset::IpSet;
use unclean_telemetry::{Counter, Registry};

/// Index of a trie node in the node vector; `NONE` marks an absent child.
type NodeIdx = u32;
const NONE: NodeIdx = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    children: [NodeIdx; 2],
}

impl Node {
    fn leaf() -> Node {
        Node {
            children: [NONE, NONE],
        }
    }
}

/// A vector-backed binary trie keyed by address bits, most significant
/// first. Every inserted address creates a full 32-deep path.
#[derive(Debug, Clone)]
pub struct PrefixTrie {
    nodes: Vec<Node>,
    len: usize,
    inserts_counter: Counter,
    lookups_counter: Counter,
}

impl Default for PrefixTrie {
    fn default() -> Self {
        Self::new()
    }
}

impl PrefixTrie {
    /// An empty trie (just the root).
    pub fn new() -> PrefixTrie {
        PrefixTrie {
            nodes: vec![Node::leaf()],
            len: 0,
            inserts_counter: Counter::disabled(),
            lookups_counter: Counter::disabled(),
        }
    }

    /// Build from a set of addresses.
    pub fn from_set(set: &IpSet) -> PrefixTrie {
        let mut t = PrefixTrie::new();
        for ip in set.iter() {
            t.insert(ip);
        }
        t
    }

    /// Record hot-path traffic onto `registry`: `core.trie.inserts`
    /// (every [`PrefixTrie::insert`] call, new or duplicate) and
    /// `core.trie.lookups` (every containment query).
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.inserts_counter = registry.counter("core.trie.inserts");
        self.lookups_counter = registry.counter("core.trie.lookups");
    }

    /// Insert one address; returns whether it was new.
    pub fn insert(&mut self, ip: Ip) -> bool {
        self.inserts_counter.inc();
        let mut idx: usize = 0;
        let mut created = false;
        for depth in 0..32 {
            let bit = ((ip.raw() >> (31 - depth)) & 1) as usize;
            let child = self.nodes[idx].children[bit];
            idx = if child == NONE {
                let new_idx = self.nodes.len() as NodeIdx;
                self.nodes.push(Node::leaf());
                self.nodes[idx].children[bit] = new_idx;
                created = true;
                new_idx as usize
            } else {
                child as usize
            };
        }
        if created {
            self.len += 1;
        }
        created
    }

    /// Number of distinct addresses inserted.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no addresses were inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the exact address is present.
    pub fn contains(&self, ip: Ip) -> bool {
        self.lookups_counter.inc();
        self.node_at(ip, 32).is_some()
    }

    /// Whether any inserted address shares the leading `n` bits of `ip` —
    /// the inclusion relation `i ⊏ S` at prefix length `n`.
    pub fn contains_prefix(&self, ip: Ip, n: u8) -> bool {
        assert!(n <= 32, "prefix length {n} out of range");
        self.lookups_counter.inc();
        self.node_at(ip, n).is_some()
    }

    fn node_at(&self, ip: Ip, depth: u8) -> Option<usize> {
        let mut idx: usize = 0;
        if self.len == 0 {
            return None;
        }
        for d in 0..depth {
            let bit = ((ip.raw() >> (31 - d)) & 1) as usize;
            let child = self.nodes[idx].children[bit];
            if child == NONE {
                return None;
            }
            idx = child as usize;
        }
        Some(idx)
    }

    /// Number of distinct `n`-bit blocks occupied — an independent check of
    /// [`crate::blocks::BlockCounts`]. O(nodes).
    pub fn block_count(&self, n: u8) -> u64 {
        assert!(n <= 32, "prefix length {n} out of range");
        if self.len == 0 {
            return 0;
        }
        // BFS to depth n, counting nodes at that depth.
        let mut frontier = vec![0usize];
        for _ in 0..n {
            let mut next = Vec::with_capacity(frontier.len() * 2);
            for idx in frontier {
                for &c in &self.nodes[idx].children {
                    if c != NONE {
                        next.push(c as usize);
                    }
                }
            }
            frontier = next;
        }
        frontier.len() as u64
    }

    /// The minimal CIDR list covering exactly the inserted addresses: a
    /// block appears iff every address under it was inserted, and sibling
    /// pairs are merged bottom-up. This is what a router block list wants.
    pub fn aggregate(&self) -> Vec<Cidr> {
        let mut out = Vec::new();
        if self.len > 0 {
            self.aggregate_rec(0, 0, 0, &mut out);
        }
        out
    }

    /// Returns true iff the subtree at `idx` (depth `depth`, prefix `prefix`
    /// in the high bits) is *complete* — every address under it present.
    fn aggregate_rec(&self, idx: usize, depth: u8, prefix: u32, out: &mut Vec<Cidr>) -> bool {
        if depth == 32 {
            return true;
        }
        let node = &self.nodes[idx];
        let (l, r) = (node.children[0], node.children[1]);
        let mut complete = [false, false];
        let mut pending = Vec::new();
        for (bit, child) in [l, r].into_iter().enumerate() {
            if child != NONE {
                let child_prefix = prefix | ((bit as u32) << (31 - depth));
                let before = out.len();
                complete[bit] = self.aggregate_rec(child as usize, depth + 1, child_prefix, out);
                if complete[bit] {
                    // Child emitted nothing; remember it in case we need to
                    // emit it (when the sibling is absent or incomplete).
                    pending.push((child_prefix, depth + 1, before));
                }
            }
        }
        if complete[0] && complete[1] {
            // Both halves complete: this whole block is complete; let the
            // parent merge further.
            return true;
        }
        // Emit any complete children that cannot merge upward.
        for (child_prefix, child_depth, _) in pending {
            out.push(Cidr::new(Ip(child_prefix), child_depth).expect("trie prefixes are aligned"));
        }
        false
    }

    /// Freeze this address trie into a serving-ready
    /// [`crate::frozen::FrozenTrie`]: the minimal CIDR cover
    /// ([`PrefixTrie::aggregate`]) becomes the frozen block set, every
    /// block at `score`. The result answers "is this address in the set
    /// (and under which block)?" with no per-node pointers on the hot
    /// path.
    pub fn freeze(&self, score: f64) -> crate::frozen::FrozenTrie {
        crate::frozen::FrozenTrie::from_scored(self.aggregate().into_iter().map(|c| (c, score)))
    }

    /// Walk occupied `n`-bit blocks in ascending order.
    pub fn blocks(&self, n: u8) -> Vec<Cidr> {
        assert!(n <= 32, "prefix length {n} out of range");
        let mut out = Vec::new();
        if self.len == 0 {
            return out;
        }
        let mut stack = vec![(0usize, 0u8, 0u32)];
        // Depth-first, right child pushed first so pops come in order.
        while let Some((idx, depth, prefix)) = stack.pop() {
            if depth == n {
                out.push(Cidr::new(Ip(prefix), n).expect("aligned"));
                continue;
            }
            let node = &self.nodes[idx];
            if node.children[1] != NONE {
                stack.push((
                    node.children[1] as usize,
                    depth + 1,
                    prefix | (1 << (31 - depth)),
                ));
            }
            if node.children[0] != NONE {
                stack.push((node.children[0] as usize, depth + 1, prefix));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::BlockCounts;

    fn ip(s: &str) -> Ip {
        s.parse().expect("valid ip")
    }

    #[test]
    fn insert_and_contains() {
        let mut t = PrefixTrie::new();
        assert!(t.is_empty());
        assert!(t.insert(ip("10.1.2.3")));
        assert!(!t.insert(ip("10.1.2.3")), "duplicate insert reports false");
        assert!(t.insert(ip("10.1.2.4")));
        assert_eq!(t.len(), 2);
        assert!(t.contains(ip("10.1.2.3")));
        assert!(!t.contains(ip("10.1.2.5")));
    }

    #[test]
    fn contains_prefix_matches_inclusion() {
        let t = PrefixTrie::from_set(&IpSet::from_ips([ip("10.1.2.3")]));
        assert!(t.contains_prefix(ip("10.1.2.250"), 24));
        assert!(t.contains_prefix(ip("10.1.99.1"), 16));
        assert!(!t.contains_prefix(ip("10.2.0.0"), 16));
        assert!(t.contains_prefix(ip("255.255.255.255"), 0));
        assert!(!PrefixTrie::new().contains_prefix(ip("0.0.0.0"), 0));
    }

    #[test]
    fn block_count_agrees_with_fast_path() {
        let mut raw = Vec::new();
        for i in 0..500u32 {
            raw.push(i.wrapping_mul(2_654_435_761));
        }
        let set = IpSet::from_raw(raw);
        let t = PrefixTrie::from_set(&set);
        let counts = BlockCounts::of(&set);
        for n in [0u8, 1, 8, 15, 16, 20, 24, 31, 32] {
            assert_eq!(t.block_count(n), counts.at(n), "n = {n}");
        }
    }

    #[test]
    fn block_count_empty() {
        let t = PrefixTrie::new();
        for n in [0u8, 16, 32] {
            assert_eq!(t.block_count(n), 0);
        }
    }

    #[test]
    fn blocks_walk_in_order() {
        let set = IpSet::from_ips([ip("10.1.2.3"), ip("10.1.3.4"), ip("9.0.0.1")]);
        let t = PrefixTrie::from_set(&set);
        let blocks: Vec<String> = t.blocks(24).iter().map(|c| c.to_string()).collect();
        assert_eq!(blocks, vec!["9.0.0.0/24", "10.1.2.0/24", "10.1.3.0/24"]);
        assert_eq!(t.blocks(0).len(), 1);
        assert!(PrefixTrie::new().blocks(24).is_empty());
    }

    #[test]
    fn aggregate_merges_complete_blocks() {
        // A full /30 (4 addresses) collapses to one block.
        let set = IpSet::from_ips([
            ip("10.0.0.0"),
            ip("10.0.0.1"),
            ip("10.0.0.2"),
            ip("10.0.0.3"),
        ]);
        let t = PrefixTrie::from_set(&set);
        let agg: Vec<String> = t.aggregate().iter().map(|c| c.to_string()).collect();
        assert_eq!(agg, vec!["10.0.0.0/30"]);
    }

    #[test]
    fn aggregate_emits_singletons_as_slash32() {
        let set = IpSet::from_ips([ip("10.0.0.0"), ip("10.0.0.2")]);
        let t = PrefixTrie::from_set(&set);
        let agg: Vec<String> = t.aggregate().iter().map(|c| c.to_string()).collect();
        assert_eq!(agg, vec!["10.0.0.0/32", "10.0.0.2/32"]);
    }

    #[test]
    fn aggregate_mixed() {
        // A complete pair + a lone address.
        let set = IpSet::from_ips([ip("10.0.0.0"), ip("10.0.0.1"), ip("10.0.0.5")]);
        let t = PrefixTrie::from_set(&set);
        let mut agg: Vec<String> = t.aggregate().iter().map(|c| c.to_string()).collect();
        agg.sort();
        assert_eq!(agg, vec!["10.0.0.0/31", "10.0.0.5/32"]);
    }

    #[test]
    fn aggregate_covers_exactly_the_set() {
        // Property-style check on a deterministic pseudo-random set.
        let raw: Vec<u32> = (0..200u32)
            .map(|i| i.wrapping_mul(0x9e3779b9) >> 8)
            .collect();
        let set = IpSet::from_raw(raw);
        let t = PrefixTrie::from_set(&set);
        let agg = t.aggregate();
        // Every member covered by exactly one block.
        for m in set.iter() {
            let covering: Vec<&Cidr> = agg.iter().filter(|c| c.contains(m)).collect();
            assert_eq!(covering.len(), 1, "{m} covered once");
        }
        // Total span equals set size (cover is exact).
        let span: u64 = agg.iter().map(|c| c.size()).sum();
        assert_eq!(span, set.len() as u64);
    }

    #[test]
    fn empty_aggregate() {
        assert!(PrefixTrie::new().aggregate().is_empty());
    }

    #[test]
    fn freeze_serves_exactly_the_inserted_set() {
        // A full /30 plus a lone host: freeze covers exactly those five
        // addresses, via the aggregated cover.
        let set = IpSet::from_ips([
            ip("10.0.0.0"),
            ip("10.0.0.1"),
            ip("10.0.0.2"),
            ip("10.0.0.3"),
            ip("10.0.0.8"),
        ]);
        let frozen = PrefixTrie::from_set(&set).freeze(1.5);
        assert_eq!(frozen.len(), 2, "/30 cover + /32 singleton");
        for member in set.iter() {
            let m = frozen.lookup(member).expect("member covered");
            assert_eq!(m.score, 1.5);
        }
        assert!(!frozen.contains(ip("10.0.0.4")));
        assert!(!frozen.contains(ip("10.0.0.9")));
    }

    #[test]
    fn telemetry_counts_inserts_and_lookups() {
        let registry = unclean_telemetry::Registry::full();
        let mut t = PrefixTrie::new();
        t.attach_telemetry(&registry);
        t.insert(ip("10.1.2.3"));
        t.insert(ip("10.1.2.3")); // duplicate still counted as an insert
        assert!(t.contains(ip("10.1.2.3")));
        assert!(t.contains_prefix(ip("10.1.2.250"), 24));
        let snap = registry.snapshot();
        assert_eq!(snap.counters["core.trie.inserts"], 2);
        assert_eq!(snap.counters["core.trie.lookups"], 2);
    }
}
