//! Longest-prefix-match structures for *serving* block lists.
//!
//! The analyses in this crate ask set-shaped questions offline; the §6
//! consequence — "should this connection be blocked?" — is a per-packet
//! *lookup* question. This module provides the two structures the
//! `unclean-serve` daemon answers it with:
//!
//! * [`CidrTrie`] — a mutable vector-backed binary trie over CIDR
//!   blocks, each carrying an uncleanliness score. The pointer-trie
//!   sibling of [`crate::trie::PrefixTrie`], extended with terminal
//!   entries at interior depths so nested blocks resolve by longest
//!   prefix.
//! * [`FrozenTrie`] — an immutable freeze of a [`CidrTrie`]: unary
//!   entry-less chains collapsed Patricia-style and the surviving nodes
//!   renumbered breadth-first into one contiguous array (no per-node
//!   allocation), which is what the serving hot path walks. Snapshots of
//!   this type are atomically swapped on hot reload while old generations
//!   keep serving in-flight requests.
//!
//! A frozen trie's storage is two arrays of plain 16-byte records, so it
//! has two interchangeable backings: the heap `Vec`s a freeze builds, or
//! a read-only memory map of a snapshot file written by
//! [`FrozenTrie::freeze_to_file`] and opened with
//! [`FrozenTrie::open_mmap`] (format in [`crate::snap`]). The mapped
//! form starts in O(1) — no parse, no proportional allocation — and N
//! processes mapping the same file share one page-cache copy. Lookups
//! are identical over both; because a mapped snapshot is external input,
//! the walk is bounds-checked and depth-bounded so corrupt bytes can
//! only answer wrong, never crash or loop.
//!
//! Both structures answer [`lookup`](FrozenTrie::lookup) identically — a
//! property test in `tests/properties.rs` and a Criterion bench in
//! `unclean-bench` hold them to that and compare their throughput.

use crate::cidr::{mask, Cidr};
use crate::ip::Ip;
use crate::snap::{self, SnapError, SnapshotMeta};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Index of a node in a node vector; `NONE` marks an absent child or entry.
type Idx = u32;
const NONE: Idx = u32::MAX;

/// One block in a serving trie: the CIDR plus its uncleanliness score.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlockEntry {
    /// The blocked CIDR.
    pub cidr: Cidr,
    /// The block's uncleanliness score (0 when the source list carries
    /// none).
    pub score: f64,
}

/// A successful longest-prefix-match: which block matched and its score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LpmMatch {
    /// The most specific blocked CIDR containing the address.
    pub cidr: Cidr,
    /// That block's uncleanliness score.
    pub score: f64,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    children: [Idx; 2],
    entry: Idx,
}

impl Node {
    fn empty() -> Node {
        Node {
            children: [NONE, NONE],
            entry: NONE,
        }
    }
}

/// A mutable vector-backed binary trie mapping CIDR blocks to scored
/// entries, answering longest-prefix-match lookups.
#[derive(Debug, Clone, Default)]
pub struct CidrTrie {
    nodes: Vec<Node>,
    entries: Vec<BlockEntry>,
}

impl CidrTrie {
    /// An empty trie (just the root).
    pub fn new() -> CidrTrie {
        CidrTrie {
            nodes: vec![Node::empty()],
            entries: Vec::new(),
        }
    }

    /// Build from scored blocks (e.g. a parsed
    /// [`crate::blocklist::parse_scored`] list). Duplicate CIDRs keep the
    /// last score.
    pub fn from_scored(blocks: impl IntoIterator<Item = (Cidr, f64)>) -> CidrTrie {
        let mut t = CidrTrie::new();
        for (cidr, score) in blocks {
            t.insert(cidr, score);
        }
        t
    }

    /// Build from bare blocks, all at score 0.
    pub fn from_cidrs(blocks: impl IntoIterator<Item = Cidr>) -> CidrTrie {
        CidrTrie::from_scored(blocks.into_iter().map(|c| (c, 0.0)))
    }

    /// Insert (or re-score) one block; returns whether it was new.
    pub fn insert(&mut self, cidr: Cidr, score: f64) -> bool {
        let mut idx: usize = 0;
        let base = cidr.base().raw();
        for depth in 0..cidr.len() {
            let bit = ((base >> (31 - depth)) & 1) as usize;
            let child = self.nodes[idx].children[bit];
            idx = if child == NONE {
                let new_idx = self.nodes.len() as Idx;
                self.nodes.push(Node::empty());
                self.nodes[idx].children[bit] = new_idx;
                new_idx as usize
            } else {
                child as usize
            };
        }
        match self.nodes[idx].entry {
            NONE => {
                self.nodes[idx].entry = self.entries.len() as Idx;
                self.entries.push(BlockEntry { cidr, score });
                true
            }
            e => {
                self.entries[e as usize].score = score;
                false
            }
        }
    }

    /// The most specific block containing `ip`, if any.
    pub fn lookup(&self, ip: Ip) -> Option<LpmMatch> {
        let mut idx: usize = 0;
        let mut best = self.nodes[0].entry;
        for depth in 0..32 {
            let bit = ((ip.raw() >> (31 - depth)) & 1) as usize;
            let child = self.nodes[idx].children[bit];
            if child == NONE {
                break;
            }
            idx = child as usize;
            if self.nodes[idx].entry != NONE {
                best = self.nodes[idx].entry;
            }
        }
        (best != NONE).then(|| {
            let e = &self.entries[best as usize];
            LpmMatch {
                cidr: e.cidr,
                score: e.score,
            }
        })
    }

    /// Number of distinct blocks inserted.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no blocks were inserted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The inserted blocks, in insertion order.
    pub fn entries(&self) -> &[BlockEntry] {
        &self.entries
    }
}

/// One frozen trie node, exactly 16 bytes, identical in memory and on
/// disk: `repr(C)`, pad-free, and valid for any bit pattern, so a
/// snapshot section can be reinterpreted as `&[FrozenNode]` in place.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrozenNode {
    children: [Idx; 2],
    entry: Idx,
    /// The node's depth: the next branch decision tests bit `plen`.
    /// Widened to u32 to keep the record pad-free.
    plen: u32,
}

/// One frozen entry record, 16 bytes, same in-memory/on-disk contract as
/// [`FrozenNode`]. Stores the CIDR unpacked (`base`, `plen`) rather than
/// as [`Cidr`] so the layout is explicit and any bit pattern is valid.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct DiskEntry {
    base: u32,
    plen: u32,
    score: f64,
}

const _: () = assert!(std::mem::size_of::<FrozenNode>() == snap::RECORD_BYTES);
const _: () = assert!(std::mem::size_of::<DiskEntry>() == snap::RECORD_BYTES);

impl snap::Record for FrozenNode {}
impl snap::Record for DiskEntry {}

impl DiskEntry {
    fn from_block(e: &BlockEntry) -> DiskEntry {
        DiskEntry {
            base: e.cidr.base().raw(),
            plen: e.cidr.len() as u32,
            score: e.score,
        }
    }

    /// Reconstruct the public entry. `plen` is clamped and `base` masked
    /// via [`Cidr::of`] so even a corrupt mapped record yields a
    /// well-formed (if wrong) CIDR instead of a panic.
    fn to_block(self) -> BlockEntry {
        BlockEntry {
            cidr: Cidr::of(Ip(self.base), self.plen.min(32) as u8),
            score: self.score,
        }
    }

    #[inline]
    fn contains(&self, raw: u32) -> bool {
        self.plen <= 32 && raw & mask(self.plen as u8) == self.base & mask(self.plen as u8)
    }
}

/// Which storage a [`FrozenTrie`] walks: heap `Vec`s built by
/// [`FrozenTrie::freeze`], or sections borrowed from a mapped snapshot.
#[derive(Debug)]
enum Backing {
    Heap {
        nodes: Vec<FrozenNode>,
        entries: Vec<DiskEntry>,
    },
    Mapped(snap::MappedSnapshot),
}

/// An immutable, flattened, path-compressed freeze of a [`CidrTrie`].
///
/// The builder trie spends one node per bit, so with a few thousand
/// blocks scattered over the 2³² address space most of every lookup walks
/// a unary, entry-less chain. Freezing collapses those chains
/// Patricia-style — a kept node is the root, carries an entry, or
/// branches — and records only the *depth* at which each survivor sits.
/// A lookup therefore tests just the branch bits on the way down
/// (collecting candidate entries) and verifies the skipped bits once at
/// the end against the candidates' own CIDRs, deepest first. Kept nodes
/// are renumbered breadth-first into one contiguous 16-byte-node array:
/// the walk is O(branching nodes) ≈ log₂(blocks), not O(prefix bits),
/// and the whole structure is two allocations regardless of size. There
/// is no interior mutability: hot reload builds a *new* trie off the
/// serving path and swaps the `Arc` holding it.
///
/// The node and entry arrays live either on the heap (after a freeze) or
/// inside a read-only memory map of a snapshot file ([`open_mmap`]
/// (FrozenTrie::open_mmap)); lookups are oblivious to the difference.
#[derive(Debug)]
pub struct FrozenTrie {
    backing: Backing,
}

impl FrozenTrie {
    /// Freeze a pointer trie: collapse unary entry-less chains and
    /// BFS-renumber the surviving nodes into a contiguous array, copying
    /// entries in the builder's order.
    pub fn freeze(trie: &CidrTrie) -> FrozenTrie {
        // BFS over *kept* nodes. Each queue item is (old index, plen)
        // after chain-collapsing; its new index is its queue slot.
        let mut queue: Vec<(u32, u8)> = vec![(0, 0)];
        let mut nodes: Vec<FrozenNode> = Vec::new();
        let mut head = 0;
        while head < queue.len() {
            let (old_idx, plen) = queue[head];
            head += 1;
            let node = &trie.nodes[old_idx as usize];
            let mut frozen = FrozenNode {
                children: [NONE, NONE],
                entry: node.entry,
                plen: plen as u32,
            };
            for bit in 0..2usize {
                let child = node.children[bit];
                if child == NONE {
                    continue;
                }
                // Descend into the child, then skip down the unary
                // entry-less chain below it.
                let mut c_idx = child;
                let mut c_plen = plen + 1;
                loop {
                    let c = &trie.nodes[c_idx as usize];
                    if c.entry != NONE || c_plen == 32 {
                        break;
                    }
                    let only = match c.children {
                        [only, NONE] | [NONE, only] => only,
                        _ => break,
                    };
                    c_idx = only;
                    c_plen += 1;
                }
                frozen.children[bit] = queue.len() as Idx;
                queue.push((c_idx, c_plen));
            }
            nodes.push(frozen);
        }
        FrozenTrie {
            backing: Backing::Heap {
                nodes,
                entries: trie.entries.iter().map(DiskEntry::from_block).collect(),
            },
        }
    }

    /// Build directly from scored blocks (a temporary [`CidrTrie`] is the
    /// builder).
    pub fn from_scored(blocks: impl IntoIterator<Item = (Cidr, f64)>) -> FrozenTrie {
        FrozenTrie::freeze(&CidrTrie::from_scored(blocks))
    }

    #[inline]
    fn sections(&self) -> (&[FrozenNode], &[DiskEntry]) {
        match &self.backing {
            Backing::Heap { nodes, entries } => (nodes, entries),
            Backing::Mapped(m) => (
                snap::cast_records(m.node_bytes()),
                snap::cast_records(m.entry_bytes()),
            ),
        }
    }

    /// The most specific block containing `ip`, if any.
    #[inline]
    pub fn lookup(&self, ip: Ip) -> Option<LpmMatch> {
        let (nodes, entries) = self.sections();
        let raw = ip.raw();
        // Walk testing only branch bits — skipped bits are NOT verified
        // here, so entries met on the way down are candidates, not hits.
        // They are nested prefixes of one another, so verifying deepest
        // first at the end finds the longest true match.
        //
        // The indices may come from an unverified mapped snapshot, so the
        // walk is defensive: indexing is checked and the depth bound (33
        // nodes: one per prefix length) also bounds any cycle a corrupt
        // node section could encode.
        let mut candidates = [NONE; 33];
        let mut found = 0usize;
        let mut idx = 0usize;
        for _ in 0..=32 {
            let Some(node) = nodes.get(idx) else { break };
            if node.entry != NONE && found < candidates.len() {
                candidates[found] = node.entry;
                found += 1;
            }
            if node.plen >= 32 {
                break;
            }
            let child = node.children[((raw >> (31 - node.plen)) & 1) as usize];
            if child == NONE {
                break;
            }
            idx = child as usize;
        }
        while found > 0 {
            found -= 1;
            let Some(e) = entries.get(candidates[found] as usize) else {
                continue;
            };
            if e.contains(raw) {
                let b = e.to_block();
                return Some(LpmMatch {
                    cidr: b.cidr,
                    score: b.score,
                });
            }
        }
        None
    }

    /// Whether any block contains `ip`.
    #[inline]
    pub fn contains(&self, ip: Ip) -> bool {
        self.lookup(ip).is_some()
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.sections().1.len()
    }

    /// Whether the trie holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The frozen blocks, in the builder's insertion order. Materialized
    /// on demand (the storage keeps them as raw 16-byte records).
    pub fn entries(&self) -> Vec<BlockEntry> {
        self.sections().1.iter().map(|e| e.to_block()).collect()
    }

    /// Resident footprint in bytes: heap (nodes + entries) for a frozen
    /// build, the mapped file length for a snapshot (shared,
    /// demand-paged).
    pub fn memory_bytes(&self) -> usize {
        match &self.backing {
            Backing::Heap { nodes, entries } => (nodes.len() + entries.len()) * snap::RECORD_BYTES,
            Backing::Mapped(m) => m.file_len(),
        }
    }

    /// Write this trie as an mmap-able snapshot file (format in
    /// [`crate::snap`]): `.tmp` sibling, fsync, atomic rename, so a
    /// concurrent [`open_mmap`](FrozenTrie::open_mmap) never sees a torn
    /// file.
    pub fn freeze_to_file(&self, path: &Path, meta: SnapshotMeta) -> Result<(), SnapError> {
        let (nodes, entries) = self.sections();
        snap::write_snapshot(
            path,
            snap::record_bytes(nodes),
            snap::record_bytes(entries),
            meta,
        )
    }

    /// Open a snapshot by memory-mapping it — O(1) in the snapshot size:
    /// only the header is parsed and bounds-checked before the first
    /// lookup; node pages fault in on demand and are shared across
    /// processes. Section CRCs are *not* verified here (that would read
    /// the whole file) — see [`open_mmap_verified`]
    /// (FrozenTrie::open_mmap_verified); the lookup walk tolerates
    /// corrupt sections without crashing.
    pub fn open_mmap(path: &Path) -> Result<FrozenTrie, SnapError> {
        Ok(FrozenTrie {
            backing: Backing::Mapped(snap::open(path)?),
        })
    }

    /// [`open_mmap`](FrozenTrie::open_mmap) plus full section CRC
    /// verification — O(file size), for tools and tests.
    pub fn open_mmap_verified(path: &Path) -> Result<FrozenTrie, SnapError> {
        Ok(FrozenTrie {
            backing: Backing::Mapped(snap::open_verified(path)?),
        })
    }

    /// Provenance from the snapshot header, when this trie is a mapped
    /// snapshot (`None` for heap-built tries).
    pub fn snapshot_meta(&self) -> Option<SnapshotMeta> {
        match &self.backing {
            Backing::Heap { .. } => None,
            Backing::Mapped(m) => Some(m.meta()),
        }
    }

    /// Whether the storage is a true shared memory map (false for
    /// heap-built tries and for the non-unix read-into-memory fallback).
    pub fn is_mapped(&self) -> bool {
        match &self.backing {
            Backing::Heap { .. } => false,
            Backing::Mapped(m) => m.is_mmap(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cidr(s: &str) -> Cidr {
        s.parse().expect("valid cidr")
    }

    fn ip(s: &str) -> Ip {
        s.parse().expect("valid ip")
    }

    fn both(blocks: &[(&str, f64)]) -> (CidrTrie, FrozenTrie) {
        let scored: Vec<(Cidr, f64)> = blocks.iter().map(|(s, w)| (cidr(s), *w)).collect();
        let pointer = CidrTrie::from_scored(scored);
        let frozen = FrozenTrie::freeze(&pointer);
        (pointer, frozen)
    }

    #[test]
    fn lookup_hits_and_misses() {
        let (pointer, frozen) = both(&[("9.1.0.0/16", 2.5), ("203.0.113.0/24", 1.0)]);
        for t in [
            &pointer.lookup(ip("9.1.200.7")),
            &frozen.lookup(ip("9.1.200.7")),
        ] {
            let m = t.expect("inside 9.1/16");
            assert_eq!(m.cidr, cidr("9.1.0.0/16"));
            assert_eq!(m.score, 2.5);
        }
        assert!(pointer.lookup(ip("9.2.0.0")).is_none());
        assert!(frozen.lookup(ip("9.2.0.0")).is_none());
        assert!(frozen.contains(ip("203.0.113.255")));
        assert!(!frozen.contains(ip("203.0.114.0")));
    }

    #[test]
    fn longest_prefix_wins_for_nested_blocks() {
        let (pointer, frozen) = both(&[("10.0.0.0/8", 0.5), ("10.5.0.0/16", 3.0)]);
        for m in [
            pointer.lookup(ip("10.5.1.1")).expect("nested"),
            frozen.lookup(ip("10.5.1.1")).expect("nested"),
        ] {
            assert_eq!(m.cidr, cidr("10.5.0.0/16"), "most specific block wins");
            assert_eq!(m.score, 3.0);
        }
        // Outside the nested /16, the /8 still matches.
        assert_eq!(
            frozen.lookup(ip("10.6.0.0")).expect("outer").cidr,
            cidr("10.0.0.0/8")
        );
    }

    #[test]
    fn boundary_addresses() {
        let (_, frozen) = both(&[("192.168.4.0/22", 1.0)]);
        assert!(frozen.contains(ip("192.168.4.0")), "first address");
        assert!(frozen.contains(ip("192.168.7.255")), "last address");
        assert!(!frozen.contains(ip("192.168.3.255")), "one below");
        assert!(!frozen.contains(ip("192.168.8.0")), "one above");
    }

    #[test]
    fn zero_prefix_matches_everything() {
        let (_, frozen) = both(&[("0.0.0.0/0", 0.1)]);
        for probe in ["0.0.0.0", "127.0.0.1", "255.255.255.255"] {
            assert_eq!(frozen.lookup(ip(probe)).expect("universal").score, 0.1);
        }
    }

    #[test]
    fn slash32_matches_exactly_one_address() {
        let (_, frozen) = both(&[("203.0.113.7/32", 9.0)]);
        assert!(frozen.contains(ip("203.0.113.7")));
        assert!(!frozen.contains(ip("203.0.113.6")));
        assert!(!frozen.contains(ip("203.0.113.8")));
    }

    #[test]
    fn duplicate_insert_rescores() {
        let mut t = CidrTrie::new();
        assert!(t.insert(cidr("9.1.0.0/16"), 1.0));
        assert!(!t.insert(cidr("9.1.0.0/16"), 7.0), "duplicate re-scores");
        assert_eq!(t.len(), 1);
        let frozen = FrozenTrie::freeze(&t);
        assert_eq!(frozen.lookup(ip("9.1.1.1")).expect("hit").score, 7.0);
    }

    #[test]
    fn empty_tries_answer_none() {
        let pointer = CidrTrie::new();
        let frozen = FrozenTrie::freeze(&pointer);
        assert!(pointer.is_empty() && frozen.is_empty());
        assert!(pointer.lookup(ip("1.2.3.4")).is_none());
        assert!(frozen.lookup(ip("1.2.3.4")).is_none());
        assert!(frozen.memory_bytes() > 0, "root node still accounted");
    }

    #[test]
    fn freeze_preserves_entries_and_len() {
        let (pointer, frozen) = both(&[("9.1.0.0/16", 2.0), ("9.2.0.0/16", 1.0)]);
        assert_eq!(pointer.len(), frozen.len());
        assert_eq!(pointer.entries(), frozen.entries());
    }

    #[test]
    fn bfs_layout_is_contiguous_from_the_root() {
        // The two /1 children of the root must be nodes 1 and 2 after
        // freezing, whatever order the builder allocated them in.
        let mut t = CidrTrie::new();
        t.insert(cidr("128.0.0.0/1"), 1.0);
        t.insert(cidr("0.0.0.0/1"), 2.0);
        let frozen = FrozenTrie::freeze(&t);
        let (nodes, _) = frozen.sections();
        assert_eq!(nodes[0].children, [1, 2]);
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("unclean-frozen-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join("trie.snap")
    }

    fn sample_trie() -> FrozenTrie {
        FrozenTrie::from_scored([
            (cidr("10.0.0.0/8"), 0.5),
            (cidr("10.5.0.0/16"), 3.0),
            (cidr("203.0.113.0/24"), 1.25),
            (cidr("203.0.113.7/32"), 9.0),
            (cidr("0.0.0.0/2"), 0.125),
        ])
    }

    #[test]
    fn snapshot_roundtrip_preserves_lookups_and_meta() {
        let heap = sample_trie();
        let path = tmp_path("roundtrip");
        let meta = SnapshotMeta {
            built_unix_ms: 1_754_700_000_000,
            source_generation: Some(7),
        };
        heap.freeze_to_file(&path, meta).expect("freeze_to_file");

        let mapped = FrozenTrie::open_mmap_verified(&path).expect("open");
        assert_eq!(mapped.len(), heap.len());
        assert_eq!(mapped.snapshot_meta(), Some(meta));
        assert_eq!(heap.entries(), mapped.entries());
        for probe in [
            "10.5.1.1",
            "10.6.0.0",
            "203.0.113.7",
            "203.0.113.8",
            "1.2.3.4",
            "99.99.99.99",
            "255.255.255.255",
        ] {
            assert_eq!(
                heap.lookup(ip(probe)),
                mapped.lookup(ip(probe)),
                "probe {probe}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_snapshot_is_rejected() {
        let path = tmp_path("truncated");
        sample_trie()
            .freeze_to_file(
                &path,
                SnapshotMeta {
                    built_unix_ms: 1,
                    source_generation: None,
                },
            )
            .expect("freeze");
        let full = std::fs::read(&path).expect("read");
        // Cut the file mid-section: the O(1) open must already reject it
        // (bounds check), not just the verified open.
        std::fs::write(&path, &full[..full.len() - 8]).expect("truncate");
        assert!(matches!(
            FrozenTrie::open_mmap(&path),
            Err(SnapError::Truncated { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_section_fails_verified_open_but_never_panics_unverified() {
        let path = tmp_path("corrupt");
        sample_trie()
            .freeze_to_file(
                &path,
                SnapshotMeta {
                    built_unix_ms: 1,
                    source_generation: None,
                },
            )
            .expect("freeze");
        let mut bytes = std::fs::read(&path).expect("read");
        // Scribble over the node section (page 1) — child indices and
        // plens become garbage.
        for b in &mut bytes[4096..4096 + 64] {
            *b = 0xAB;
        }
        std::fs::write(&path, &bytes).expect("rewrite");

        assert!(matches!(
            FrozenTrie::open_mmap_verified(&path),
            Err(SnapError::SectionCrc {
                section: "nodes",
                ..
            })
        ));

        // The unverified open accepts it (header is intact) and lookups
        // must stay memory-safe and terminate on garbage records.
        let mapped = FrozenTrie::open_mmap(&path).expect("header still valid");
        for probe in ["0.0.0.0", "10.5.1.1", "255.255.255.255"] {
            let _ = mapped.lookup(ip(probe));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_snapshot_file_is_rejected_by_magic() {
        let path = tmp_path("notasnap");
        std::fs::write(&path, b"9.1.0.0/16 2.5\n203.0.113.0/24 1.0\n").expect("write");
        assert!(matches!(
            FrozenTrie::open_mmap(&path),
            Err(SnapError::BadMagic)
        ));
        assert!(!snap::is_snapshot(&path));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_trie_snapshot_roundtrips() {
        let heap = FrozenTrie::freeze(&CidrTrie::new());
        let path = tmp_path("empty");
        heap.freeze_to_file(
            &path,
            SnapshotMeta {
                built_unix_ms: 0,
                source_generation: None,
            },
        )
        .expect("freeze");
        assert!(snap::is_snapshot(&path));
        let mapped = FrozenTrie::open_mmap_verified(&path).expect("open");
        assert!(mapped.is_empty());
        assert!(mapped.lookup(ip("1.2.3.4")).is_none());
        std::fs::remove_file(&path).ok();
    }
}
