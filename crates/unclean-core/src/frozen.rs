//! Longest-prefix match for *serving* block lists.
//!
//! The analyses in this crate ask set-shaped questions offline; the §6
//! consequence — "should this connection be blocked?" — is a per-packet
//! *lookup* question. [`FrozenTrie`] answers it for the `unclean-serve`
//! daemon and every other caller: an immutable, path-compressed binary
//! trie over scored CIDR blocks whose one storage is the [`crate::snap`]
//! byte image — a header page, 16-byte node records numbered
//! breadth-first, and 16-byte entry records sorted by `(base, len)`.
//!
//! [`FrozenTrie::from_scored`] builds that image straight from the sorted
//! blocks into an aligned heap buffer; [`FrozenTrie::freeze_to_file`]
//! writes it verbatim and [`FrozenTrie::open_mmap`] maps it back. The
//! mapped form starts in O(1) — no parse, no proportional allocation —
//! and N processes mapping the same file share one page-cache copy.
//!
//! Every trie answers through one set of walk rules, written once as a
//! node step and a candidate check. [`FrozenTrie::lookup`] runs them one
//! walk at a time; [`FrozenTrie::lookup_batch`] runs sixteen walks in
//! lockstep, one node per walk per round, prefetching each walk's next
//! node and candidate entries, so a trie far larger than cache keeps up to
//! sixteen misses in flight instead of one. Because a mapped snapshot is
//! external input, the rules are bounds-checked and depth-bounded so
//! corrupt bytes can only answer wrong, never crash or loop.

use crate::cidr::{mask, Cidr};
use crate::ip::Ip;
use crate::snap::{self, SnapError, SnapshotMeta};
use std::path::Path;

/// Index of a node or entry record; `NONE` marks an absent child or entry.
type Idx = u32;
const NONE: Idx = u32::MAX;

/// The most nodes one walk visits: one per prefix length 0..=32. On a
/// corrupt mapped snapshot the bound also ends any cycle the node
/// section encodes.
const MAX_DEPTH: u32 = 33;

/// Walks [`FrozenTrie::lookup_batch`] advances in lockstep: about as many
/// misses as one core keeps in flight, and few enough that every walk's
/// state stays in L1. A caller that answers a stream can hand it this
/// many addresses at a time from a stack buffer and lose no overlap.
pub const LANES: usize = 16;

/// A successful longest-prefix-match: which block matched and its score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LpmMatch {
    /// The most specific blocked CIDR containing the address.
    pub cidr: Cidr,
    /// That block's uncleanliness score.
    pub score: f64,
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
    fn new(cidr: Cidr, score: f64) -> DiskEntry {
        DiskEntry {
            base: cidr.base().raw(),
            plen: cidr.len() as u32,
            score,
        }
    }

    /// The public match. `plen` is clamped and `base` masked via
    /// [`Cidr::of`] so even a corrupt mapped record yields a well-formed
    /// (if wrong) CIDR instead of a panic.
    fn to_match(self) -> LpmMatch {
        LpmMatch {
            cidr: Cidr::of(Ip(self.base), self.plen.min(32) as u8),
            score: self.score,
        }
    }

    #[inline]
    fn contains(&self, raw: u32) -> bool {
        self.plen <= 32 && raw & mask(self.plen as u8) == self.base & mask(self.plen as u8)
    }
}

/// Lay out, breadth-first, the path-compressed trie over `entries`
/// (sorted by `(base, len)`, no duplicate CIDRs). A node is kept if it is
/// the root, carries an entry, or branches; each queue item is a kept
/// node's depth and the entries of its subtree, `entries[lo..hi]`, and
/// its index is its queue slot.
fn layout(entries: &[DiskEntry]) -> Vec<FrozenNode> {
    let mut queue: Vec<(u32, usize, usize)> = vec![(0, 0, entries.len())];
    let mut nodes = Vec::new();
    let mut head = 0;
    while head < queue.len() {
        let (plen, mut lo, hi) = queue[head];
        head += 1;
        let mut node = FrozenNode {
            children: [NONE, NONE],
            entry: NONE,
            plen,
        };
        // The node's own block, if listed, sorts first in its subtree.
        if lo < hi && entries[lo].plen == plen {
            node.entry = lo as Idx;
            lo += 1;
        }
        if lo < hi {
            // Everything left is longer than `plen` (so `plen < 32`):
            // split it on bit `plen`. Each child sits where its blocks'
            // bases first diverge or its shortest block ends, whichever
            // comes first — the chain above it is unary and entry-less.
            let split = lo + entries[lo..hi].partition_point(|e| (e.base >> (31 - plen)) & 1 == 0);
            for (bit, (a, b)) in [(lo, split), (split, hi)].into_iter().enumerate() {
                if a == b {
                    continue;
                }
                let diverge = (entries[a].base ^ entries[b - 1].base).leading_zeros();
                let shortest = entries[a..b].iter().map(|e| e.plen).min().unwrap_or(32);
                node.children[bit] = queue.len() as Idx;
                queue.push((diverge.min(shortest), a, b));
            }
        }
        nodes.push(node);
    }
    nodes
}

/// One longest-prefix walk in progress. The walk rules live in its two
/// methods and nowhere else: [`Walk::step`] goes down one node,
/// [`Walk::verify`] checks a candidate entry met on the way.
#[derive(Clone, Copy)]
struct Walk {
    raw: u32,
    /// The node to visit next; out of range once the walk has ended.
    next: Idx,
    /// Nodes visited so far, at most [`MAX_DEPTH`].
    depth: u32,
    /// The last entry met on the way down, prefetched and not yet checked.
    candidate: Idx,
    /// The last checked candidate that contains the address.
    best: Idx,
}

impl Walk {
    fn new(ip: Ip) -> Walk {
        Walk {
            raw: ip.raw(),
            next: 0,
            depth: 0,
            candidate: NONE,
            best: NONE,
        }
    }

    /// Visit the next node and move to the child the address's branch bit
    /// picks. A node's entry becomes the walk's candidate, prefetched now
    /// and checked when the next candidate replaces it or the walk ends,
    /// so its load overlaps the walk. Returns the node the walk visits
    /// next, or `None` once it has ended.
    ///
    /// Only branch bits are tested — skipped bits are not, so recorded
    /// entries are candidates, not hits. The indices may come from an
    /// unverified mapped snapshot, so every access is checked and the
    /// walk stops after [`MAX_DEPTH`] nodes.
    #[inline(always)]
    fn step<'t>(
        &mut self,
        nodes: &'t [FrozenNode],
        entries: &[DiskEntry],
    ) -> Option<&'t FrozenNode> {
        let node = match nodes.get(self.next as usize) {
            Some(node) if self.depth < MAX_DEPTH => node,
            _ => return None,
        };
        self.depth += 1;
        if node.entry != NONE {
            self.verify(entries);
            self.candidate = node.entry;
            if let Some(entry) = entries.get(node.entry as usize) {
                snap::prefetch(entry);
            }
        }
        self.next = match node.plen {
            plen @ 0..=31 => node.children[((self.raw >> (31 - plen)) & 1) as usize],
            _ => NONE,
        };
        nodes.get(self.next as usize)
    }

    /// Check the pending candidate: it matches if the address lies inside
    /// it. Candidates come shallowest first and are nested prefixes of
    /// one another, so the last one that matches is the longest match.
    /// An entry index out of range (a corrupt snapshot) never matches.
    #[inline(always)]
    fn verify(&mut self, entries: &[DiskEntry]) {
        if let Some(entry) = entries.get(self.candidate as usize) {
            if entry.contains(self.raw) {
                self.best = self.candidate;
            }
        }
    }

    /// The ended walk's longest match, once its last candidate is checked.
    #[inline(always)]
    fn answer(mut self, entries: &[DiskEntry]) -> Option<LpmMatch> {
        self.verify(entries);
        entries.get(self.best as usize).map(|e| e.to_match())
    }
}

/// An immutable, path-compressed longest-prefix-match trie over scored
/// CIDR blocks.
///
/// A one-node-per-bit trie spends most of every lookup on unary,
/// entry-less chains when a few thousand blocks are scattered over the
/// 2³² address space. This layout keeps only the nodes that matter — the
/// root, nodes that carry an entry, and nodes that branch — and records
/// the *depth* at which each sits. A lookup therefore tests just the
/// branch bits on the way down and checks the skipped bits of each entry
/// it meets against that entry's own CIDR; the deepest entry that holds
/// the address wins. The walk is O(branching nodes) ≈ log₂(blocks),
/// not O(prefix bits). There is no interior mutability: hot reload builds
/// a *new* trie off the serving path and swaps the `Arc` holding it.
///
/// The image depends only on the block set: the same blocks in any input
/// order give the same bytes (order only decides which score a duplicate
/// CIDR keeps).
#[derive(Debug)]
pub struct FrozenTrie {
    image: snap::Image,
    /// Whether the image came from a snapshot file (and so carries its
    /// provenance) rather than from [`FrozenTrie::from_scored`].
    opened: bool,
}

impl FrozenTrie {
    /// Build from scored blocks (e.g. a parsed
    /// [`crate::blocklist::parse_scored`] list) in an aligned heap
    /// buffer. Duplicate CIDRs keep the last score.
    pub fn from_scored(blocks: impl IntoIterator<Item = (Cidr, f64)>) -> FrozenTrie {
        let mut entries: Vec<DiskEntry> = blocks
            .into_iter()
            .map(|(cidr, score)| DiskEntry::new(cidr, score))
            .collect();
        // A stable sort keeps duplicates in input order, so the kept
        // (first) record takes the score of the last.
        entries.sort_by_key(|e| (e.base, e.plen));
        entries.dedup_by(|later, kept| {
            let duplicate = (later.base, later.plen) == (kept.base, kept.plen);
            if duplicate {
                kept.score = later.score;
            }
            duplicate
        });
        let nodes = layout(&entries);
        FrozenTrie {
            image: snap::Image::build(snap::record_bytes(&nodes), snap::record_bytes(&entries)),
            opened: false,
        }
    }

    #[inline]
    fn sections(&self) -> (&[FrozenNode], &[DiskEntry]) {
        (
            snap::cast_records(self.image.node_bytes()),
            snap::cast_records(self.image.entry_bytes()),
        )
    }

    /// The most specific block containing `ip`, if any.
    #[inline]
    pub fn lookup(&self, ip: Ip) -> Option<LpmMatch> {
        let (nodes, entries) = self.sections();
        let mut walk = Walk::new(ip);
        while walk.step(nodes, entries).is_some() {}
        walk.answer(entries)
    }

    /// [`lookup`](FrozenTrie::lookup) for every address of `ips`, each
    /// answer written to the same position of `out`. The walks advance
    /// [`LANES`] at a time in lockstep, one node per walk per round, and
    /// each walk's next node is prefetched while the others step, so
    /// their cache misses overlap; the walk rules and the answers are
    /// `lookup`'s.
    ///
    /// # Panics
    ///
    /// If `ips` and `out` differ in length.
    pub fn lookup_batch(&self, ips: &[Ip], out: &mut [Option<LpmMatch>]) {
        assert_eq!(ips.len(), out.len(), "one answer slot per address");
        let (nodes, entries) = self.sections();
        for (ips, out) in ips.chunks(LANES).zip(out.chunks_mut(LANES)) {
            let mut walks: [Walk; LANES] =
                std::array::from_fn(|i| Walk::new(ips.get(i).copied().unwrap_or(Ip(0))));
            // The first `live` of `going` are the walks still going; one
            // that ends swaps in the last, so a round steps only those.
            let mut going: [usize; LANES] = std::array::from_fn(|i| i);
            let mut live = ips.len();
            while live > 0 {
                let mut i = 0;
                while i < live {
                    match walks[going[i]].step(nodes, entries) {
                        Some(next) => {
                            snap::prefetch(next);
                            i += 1;
                        }
                        None => {
                            live -= 1;
                            going[i] = going[live];
                        }
                    }
                }
            }
            for (walk, answer) in walks.into_iter().zip(out) {
                *answer = walk.answer(entries);
            }
        }
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

    /// Footprint in bytes: the image's length — heap for a trie built in
    /// memory, the mapped file (shared, demand-paged) for a snapshot.
    pub fn memory_bytes(&self) -> usize {
        self.image.len()
    }

    /// Write this trie as an mmap-able snapshot file (format in
    /// [`crate::snap`]): the image verbatim, its header re-rendered to
    /// carry `meta`; `.tmp` sibling, fsync, atomic rename, so a
    /// concurrent [`open_mmap`](FrozenTrie::open_mmap) never sees a torn
    /// file.
    pub fn freeze_to_file(&self, path: &Path, meta: SnapshotMeta) -> Result<(), SnapError> {
        self.image.write(path, meta)
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
            image: snap::open(path)?,
            opened: true,
        })
    }

    /// [`open_mmap`](FrozenTrie::open_mmap) plus full section CRC
    /// verification — O(file size), for tools and tests.
    pub fn open_mmap_verified(path: &Path) -> Result<FrozenTrie, SnapError> {
        Ok(FrozenTrie {
            image: snap::open_verified(path)?,
            opened: true,
        })
    }

    /// Provenance from the snapshot header, when this trie was opened
    /// from a snapshot file (`None` for tries built in memory).
    pub fn snapshot_meta(&self) -> Option<SnapshotMeta> {
        self.opened.then(|| self.image.meta())
    }

    /// Whether the storage is a true shared memory map (false for tries
    /// built in memory and for the non-unix read-into-memory fallback).
    pub fn is_mapped(&self) -> bool {
        self.image.is_mmap()
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

    fn trie(blocks: &[(&str, f64)]) -> FrozenTrie {
        FrozenTrie::from_scored(blocks.iter().map(|(s, w)| (cidr(s), *w)))
    }

    #[test]
    fn lookup_hits_and_misses() {
        let frozen = trie(&[("9.1.0.0/16", 2.5), ("203.0.113.0/24", 1.0)]);
        let m = frozen.lookup(ip("9.1.200.7")).expect("inside 9.1/16");
        assert_eq!(m.cidr, cidr("9.1.0.0/16"));
        assert_eq!(m.score, 2.5);
        assert!(frozen.lookup(ip("9.2.0.0")).is_none());
        assert!(frozen.contains(ip("203.0.113.255")));
        assert!(!frozen.contains(ip("203.0.114.0")));
    }

    #[test]
    fn longest_prefix_wins_for_nested_blocks() {
        let frozen = trie(&[("10.0.0.0/8", 0.5), ("10.5.0.0/16", 3.0)]);
        let m = frozen.lookup(ip("10.5.1.1")).expect("nested");
        assert_eq!(m.cidr, cidr("10.5.0.0/16"), "most specific block wins");
        assert_eq!(m.score, 3.0);
        // Outside the nested /16, the /8 still matches.
        assert_eq!(
            frozen.lookup(ip("10.6.0.0")).expect("outer").cidr,
            cidr("10.0.0.0/8")
        );
    }

    #[test]
    fn boundary_addresses() {
        let frozen = trie(&[("192.168.4.0/22", 1.0)]);
        assert!(frozen.contains(ip("192.168.4.0")), "first address");
        assert!(frozen.contains(ip("192.168.7.255")), "last address");
        assert!(!frozen.contains(ip("192.168.3.255")), "one below");
        assert!(!frozen.contains(ip("192.168.8.0")), "one above");
    }

    #[test]
    fn zero_prefix_matches_everything() {
        let frozen = trie(&[("0.0.0.0/0", 0.1)]);
        for probe in ["0.0.0.0", "127.0.0.1", "255.255.255.255"] {
            assert_eq!(frozen.lookup(ip(probe)).expect("universal").score, 0.1);
        }
    }

    #[test]
    fn slash32_matches_exactly_one_address() {
        let frozen = trie(&[("203.0.113.7/32", 9.0)]);
        assert!(frozen.contains(ip("203.0.113.7")));
        assert!(!frozen.contains(ip("203.0.113.6")));
        assert!(!frozen.contains(ip("203.0.113.8")));
    }

    #[test]
    fn duplicate_insert_rescores() {
        let frozen = trie(&[
            ("9.1.0.0/16", 1.0),
            ("9.2.0.0/16", 2.0),
            ("9.1.0.0/16", 7.0),
        ]);
        assert_eq!(frozen.len(), 2);
        assert_eq!(
            frozen.lookup(ip("9.1.1.1")).expect("hit").score,
            7.0,
            "the last score wins"
        );
    }

    #[test]
    fn empty_tries_answer_none() {
        let frozen = FrozenTrie::from_scored([]);
        assert!(frozen.is_empty());
        assert!(frozen.lookup(ip("1.2.3.4")).is_none());
        assert!(frozen.memory_bytes() > 0, "root node still accounted");
        assert_eq!(frozen.snapshot_meta(), None, "built in memory");
        // A batch wider than one lane group, every answer clean.
        let probes: Vec<Ip> = (0..40u32)
            .map(|i| Ip(i.wrapping_mul(0x9e37_79b9)))
            .collect();
        let mut answers = vec![
            Some(LpmMatch {
                cidr: cidr("1.0.0.0/8"),
                score: 1.0
            });
            40
        ];
        frozen.lookup_batch(&probes, &mut answers);
        assert!(answers.iter().all(Option::is_none));
        // An empty batch, on an empty trie and on a full one.
        frozen.lookup_batch(&[], &mut []);
        sample_trie().lookup_batch(&[], &mut []);
    }

    #[test]
    fn freeze_preserves_entries_and_len() {
        let frozen = trie(&[
            ("9.2.0.0/16", 1.0),
            ("9.1.0.0/24", 3.0),
            ("9.1.0.0/16", 2.0),
        ]);
        assert_eq!(frozen.len(), 3);
        let kept: Vec<(Cidr, f64)> = frozen
            .sections()
            .1
            .iter()
            .map(|e| (e.to_match().cidr, e.score))
            .collect();
        assert_eq!(
            kept,
            [
                (cidr("9.1.0.0/16"), 2.0),
                (cidr("9.1.0.0/24"), 3.0),
                (cidr("9.2.0.0/16"), 1.0)
            ],
            "entries sorted by (base, len)"
        );
    }

    #[test]
    fn image_depends_only_on_the_block_set() {
        let blocks: Vec<(Cidr, f64)> = [
            ("10.0.0.0/8", 0.5),
            ("203.0.113.7/32", 9.0),
            ("10.5.0.0/16", 3.0),
            ("0.0.0.0/2", 0.125),
            ("203.0.113.0/24", 1.25),
        ]
        .iter()
        .map(|(s, w)| (cidr(s), *w))
        .collect();
        let forward = FrozenTrie::from_scored(blocks.iter().copied());
        let reversed = FrozenTrie::from_scored(blocks.iter().rev().copied());
        assert_eq!(forward.image.node_bytes(), reversed.image.node_bytes());
        assert_eq!(forward.image.entry_bytes(), reversed.image.entry_bytes());
    }

    #[test]
    fn bfs_layout_is_contiguous_from_the_root() {
        // The two /1 children of the root must be nodes 1 and 2, whatever
        // order the blocks were given in.
        let frozen = trie(&[("128.0.0.0/1", 1.0), ("0.0.0.0/1", 2.0)]);
        let (nodes, _) = frozen.sections();
        assert_eq!(nodes[0].children, [1, 2]);
    }

    #[test]
    fn freeze_serves_exactly_the_inserted_set() {
        // A full /30 plus a lone host: the aggregated cover freezes to
        // two blocks covering exactly those five addresses.
        let set = crate::ipset::IpSet::from_ips(
            ["10.0.0.0", "10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.8"].map(ip),
        );
        let cover = crate::blocks::BlockSet::of(&set, 32).aggregate();
        let frozen = FrozenTrie::from_scored(cover.into_iter().map(|c| (c, 1.5)));
        assert_eq!(frozen.len(), 2, "/30 cover + /32 singleton");
        for member in set.iter() {
            assert_eq!(frozen.lookup(member).expect("member covered").score, 1.5);
        }
        assert!(!frozen.contains(ip("10.0.0.4")));
        assert!(!frozen.contains(ip("10.0.0.9")));
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
        let heap = FrozenTrie::from_scored([]);
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
