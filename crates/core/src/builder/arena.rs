//! Flat arena for the per-node sketch state of rank-monotone builders.
//!
//! A sketch per node costs one heap allocation per node and, worse, a
//! sorted *insert into the whole sketch* per accepted entry — an ADS
//! grows to `k·ln n` entries, so late inserts memmove kilobytes. The
//! arena exploits the structure of rank-monotone admission instead:
//!
//! * a candidate is admitted iff fewer than k existing entries precede it
//!   canonically, i.e. iff it beats the k-th canonically-smallest entry —
//!   only the **k-prefix** of the sketch ever decides admission;
//! * admitted entries land at canonical position < k (for the tieless
//!   rule too: < k entries at distance ≤ d implies < k entries canonically
//!   before the candidate);
//! * entries pushed out of the k-prefix are *never* consulted again
//!   (the prefix max only decreases), they just belong to the final ADS.
//!
//! So the arena keeps one flat `n × min(k, n)` prefix buffer (sorted per
//! node, O(1) reject, ≤ k-entry memmove per insert, zero reallocation)
//! plus a global append-only overflow log of displaced entries, written
//! straight into the store's columns when construction finishes
//! ([`PartialAdsArena::finish`]). The layout also makes the
//! read-only admission probe ([`PartialAdsArena::would_insert`]) O(1),
//! which is what the wave scheduler hammers from worker threads.
//!
//! # The admission-threshold array
//!
//! The arena additionally maintains a flat `n`-sized threshold array:
//! `kth_dist[v]` is the distance of the k-th canonically-smallest entry in
//! `v`'s partial sketch, `+∞` while the sketch holds fewer than k entries.
//! It is refreshed on every insert (`debug_assert!`-checked against the
//! prefix row each time) and backs the hot admission probes with a single
//! 8-byte load — the prefix row is only touched to break exact distance
//! ties by node id. **Threshold monotonicity** is the invariant everything
//! rests on: inserts only ever tighten `kth_dist[v]`, so a candidate that
//! fails the probe against a *stale* threshold can never pass against a
//! current one. That is what makes the probe safe to use as a relax-time
//! frontier filter (push-time pruning in the builders) and safe to read
//! concurrently from frozen state in the wave scheduler.
//!
//! Only the rank-monotone insert regimes live here (canonical and
//! tieless — everything the PrunedDijkstra-family builders need); DP's
//! distance-monotone regime and the general retraction regime both run on
//! [`crate::builder::LiveSketch`].

use adsketch_graph::NodeId;

use crate::entry::AdsEntry;
use crate::frozen::FrozenAdsSet;

const PLACEHOLDER: AdsEntry = AdsEntry {
    node: 0,
    dist: 0.0,
    rank: 0.0,
};

/// Sketches-under-construction for every node, arena-backed.
#[derive(Debug, Clone)]
pub(crate) struct PartialAdsArena {
    k: usize,
    /// Prefix row width: `min(k, n)` (a sketch never holds more distinct
    /// sources than nodes, so wider rows would be dead weight for k ≥ n).
    width: usize,
    /// `n × width` row-major buffer; row `v` holds `len[v]` entries in
    /// canonical `(dist, node)` order — the k canonically-smallest entries
    /// of `v`'s sketch so far.
    prefix: Vec<AdsEntry>,
    /// Per-node prefix lengths.
    len: Vec<u32>,
    /// Entries displaced from some prefix, in arrival order (parallel
    /// owner ids in `overflow_owner`). Unordered; grouped at finish.
    overflow: Vec<AdsEntry>,
    overflow_owner: Vec<NodeId>,
    /// Admission thresholds: `kth_dist[v]` = distance of the k-th
    /// canonically-smallest entry of `v`'s sketch, `+∞` while under-full.
    /// Monotone non-increasing over the build (see module docs).
    kth_dist: Vec<f64>,
}

impl PartialAdsArena {
    /// An arena for `n` nodes with sketch parameter `k`, all sketches
    /// empty.
    pub fn new(n: usize, k: usize) -> Self {
        let width = k.min(n);
        Self {
            k,
            width,
            prefix: vec![PLACEHOLDER; n * width],
            len: vec![0; n],
            overflow: Vec::new(),
            overflow_owner: Vec::new(),
            kth_dist: vec![f64::INFINITY; n],
        }
    }

    /// `v`'s current k-prefix, canonically sorted.
    #[inline]
    fn row(&self, v: NodeId) -> &[AdsEntry] {
        let off = v as usize * self.width;
        &self.prefix[off..off + self.len[v as usize] as usize]
    }

    /// Read-only rank-monotone admission probe: would
    /// [`Self::insert_rank_monotone`] accept `(node, dist)` into `v`'s
    /// sketch right now? O(1): one compare against the flat threshold
    /// array; the prefix row is read only to break an exact distance tie
    /// by node id. Safe to call concurrently on a shared `&self` — this is
    /// both the frozen-state prune test of the wave scheduler *and* the
    /// relax-time frontier filter of the sequential builder (threshold
    /// monotonicity makes a stale reject permanent; see module docs).
    ///
    /// (For a duplicate `(dist, node)` key this reports `true` where the
    /// insert would be a no-op; distinct sources can never produce one.)
    #[inline]
    pub fn would_insert(&self, v: NodeId, node: NodeId, dist: f64) -> bool {
        let t = self.kth_dist[v as usize];
        if dist < t {
            return true;
        }
        if dist > t {
            return false;
        }
        // dist == t: the threshold is finite, so the prefix holds exactly
        // k entries; the id tie-break against the k-th smallest key
        // decides. (Search distances are finite, so dist == t == +∞ cannot
        // happen.)
        self.prefix[v as usize * self.width + self.k - 1].node > node
    }

    /// Relax-time admission probe for the *tieless* (Appendix A) regime:
    /// a candidate at distance `dist` is admissible iff fewer than k
    /// entries sit at distance ≤ `dist`, i.e. iff `dist` lies strictly
    /// below the k-th smallest distance. Exact (no tie slack: the tieless
    /// rule has no id tie-break), O(1), and stale-safe like
    /// [`Self::would_insert`].
    #[inline]
    pub fn tieless_admits(&self, v: NodeId, dist: f64) -> bool {
        dist < self.kth_dist[v as usize]
    }

    /// PrunedDijkstra insert: sources arrive in increasing rank, so every
    /// held entry out-ranks the candidate and the inclusion test reduces to
    /// "fewer than k entries are closer". Returns `true` if inserted.
    pub fn insert_rank_monotone(&mut self, v: NodeId, node: NodeId, dist: f64, rank: f64) -> bool {
        if !self.would_insert(v, node, dist) {
            return false;
        }
        let pos = match self.row(v).binary_search_by(|e| e.cmp_key(dist, node)) {
            Ok(_) => return false, // duplicate key (cannot happen across distinct sources)
            Err(p) => p,
        };
        debug_assert!(
            self.row(v).iter().all(|e| (e.rank, e.node) < (rank, node)),
            "sources must be processed in increasing rank"
        );
        self.insert_at(v, pos, AdsEntry::new(node, dist, rank));
        true
    }

    /// Tieless (Appendix A) rank-monotone insert: blocked by entries at
    /// distance ≤ `dist`, so at most k nodes per distinct distance
    /// survive. (Entries in overflow always sit at distances beyond the
    /// prefix horizon, so the prefix alone decides here too.)
    pub fn insert_rank_monotone_tieless(
        &mut self,
        v: NodeId,
        node: NodeId,
        dist: f64,
        rank: f64,
    ) -> bool {
        if !self.tieless_admits(v, dist) {
            return false;
        }
        debug_assert!(
            self.row(v).partition_point(|e| e.dist <= dist) < self.k,
            "threshold probe must agree with the positional tieless test"
        );
        let pos = match self.row(v).binary_search_by(|e| e.cmp_key(dist, node)) {
            Ok(_) => return false,
            Err(p) => p,
        };
        debug_assert!(pos < self.k, "tieless admits only into the k-prefix");
        self.insert_at(v, pos, AdsEntry::new(node, dist, rank));
        true
    }

    /// Inserts into `v`'s prefix row at `pos`, spilling the displaced
    /// prefix maximum (if the row is full) into the overflow log.
    fn insert_at(&mut self, v: NodeId, pos: usize, e: AdsEntry) {
        let off = v as usize * self.width;
        let l = self.len[v as usize] as usize;
        // A full row below k (width = n < k) cannot receive another entry:
        // that would require more distinct sources than the graph has
        // nodes. The admission tests guarantee pos < l whenever l == width.
        debug_assert!(
            pos < l || l < self.width,
            "more distinct sources than nodes"
        );
        if l == self.width {
            self.overflow.push(self.prefix[off + l - 1]);
            self.overflow_owner.push(v);
            self.prefix
                .copy_within(off + pos..off + l - 1, off + pos + 1);
        } else {
            self.prefix.copy_within(off + pos..off + l, off + pos + 1);
            self.len[v as usize] += 1;
        }
        self.prefix[off + pos] = e;
        // Threshold maintenance: once the prefix reaches k entries, the
        // k-th smallest distance is the row maximum. It only ever
        // decreases from here (inserts land before it and push it left),
        // which is the monotonicity the relax-time filter relies on.
        if self.len[v as usize] as usize == self.k {
            self.kth_dist[v as usize] = self.prefix[off + self.k - 1].dist;
        }
        debug_assert!(
            self.threshold_consistent(v),
            "kth_dist[{v}] diverged from the prefix row"
        );
    }

    /// Consistency of `kth_dist[v]` with the prefix row — the invariant
    /// `debug_assert!`-checked on every insert.
    fn threshold_consistent(&self, v: NodeId) -> bool {
        let l = self.len[v as usize] as usize;
        let expect = if l == self.k {
            self.prefix[v as usize * self.width + self.k - 1].dist
        } else {
            f64::INFINITY
        };
        self.kth_dist[v as usize].to_bits() == expect.to_bits()
    }

    /// Current admission threshold of `v` (test diagnostics).
    #[cfg(test)]
    pub fn threshold(&self, v: NodeId) -> f64 {
        self.kth_dist[v as usize]
    }

    /// Number of nodes covered.
    #[cfg(test)]
    pub fn num_nodes(&self) -> usize {
        self.len.len()
    }

    /// `v`'s full sketch so far, canonically sorted (test diagnostics —
    /// production reads happen via the bulk finishers below).
    #[cfg(test)]
    pub fn sorted_entries_of(&self, v: NodeId) -> Vec<AdsEntry> {
        let mut out: Vec<AdsEntry> = self.row(v).to_vec();
        out.extend(
            self.overflow_owner
                .iter()
                .zip(&self.overflow)
                .filter(|(&o, _)| o == v)
                .map(|(_, e)| *e),
        );
        out.sort_unstable_by(AdsEntry::cmp_canonical);
        out
    }

    /// One canonically sorted entry vector per node (the bottom-1 passes
    /// of k-mins and k-partition, and the tieless entry lists), each
    /// entry ranked by its node's `rank_of`.
    pub fn into_per_node(self, rank_of: &[f64]) -> Vec<Vec<AdsEntry>> {
        let (offsets, nodes, dists) = self.into_columns(rank_of);
        offsets
            .windows(2)
            .map(|r| {
                (r[0] as usize..r[1] as usize)
                    .map(|i| AdsEntry::new(nodes[i], dists[i], rank_of[nodes[i] as usize]))
                    .collect()
            })
            .collect()
    }

    /// Finishes construction into the columnar store over the builder's
    /// per-node ranks.
    pub fn finish(self, rank_of: &[f64]) -> FrozenAdsSet {
        let k = self.k;
        let (offsets, nodes, dists) = self.into_columns(rank_of);
        FrozenAdsSet::from_columns(k, offsets, nodes, dists, rank_of.to_vec())
    }

    /// The CSR `offsets / nodes / dists` columns of every row; an entry's
    /// rank is its node's `rank_of`, so none is written out.
    /// Row `v` is its prefix followed by its spilled entries: each left
    /// the prefix as its maximum, and the maximum only decreases, so they
    /// arrived in descending canonical order and are written back to
    /// front. No row is sorted and no per-node vector is allocated.
    fn into_columns(self, rank_of: &[f64]) -> (Vec<u32>, Vec<NodeId>, Vec<f64>) {
        let n = self.len.len();
        // `ends[v]` becomes the end of row `v`, then (writing spilled
        // entries back to front) the next free slot below it.
        let mut ends: Vec<u32> = self.len.clone();
        for &v in &self.overflow_owner {
            ends[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut total = 0u32;
        for end in &mut ends {
            total = total
                .checked_add(*end)
                .expect("the store is limited to 2^32 − 1 entries");
            *end = total;
            offsets.push(total);
        }
        let total = total as usize;
        let mut nodes = vec![0; total];
        let mut dists = vec![0.0; total];
        let mut put = |i: usize, e: &AdsEntry| {
            debug_assert_eq!(
                e.rank.to_bits(),
                rank_of[e.node as usize].to_bits(),
                "an entry's rank is its node's rank"
            );
            nodes[i] = e.node;
            dists[i] = e.dist;
        };
        for (v, &start) in offsets[..n].iter().enumerate() {
            for (i, e) in (start as usize..).zip(self.row(v as NodeId)) {
                put(i, e);
            }
        }
        for (&v, e) in self.overflow_owner.iter().zip(&self.overflow) {
            ends[v as usize] -= 1;
            put(ends[v as usize] as usize, e);
        }
        debug_assert!(
            offsets.windows(2).all(|r| {
                let r = r[0] as usize..r[1] as usize;
                let key = |i: usize| (dists[i], nodes[i]);
                r.clone()
                    .skip(1)
                    .all(|i| crate::entry::key_cmp(key(i - 1), key(i)).is_lt())
            }),
            "finished rows must be in canonical order"
        );
        (offsets, nodes, dists)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::purify;
    use crate::tieless::TielessAds;
    use adsketch_util::rng::{Rng64, SplitMix64};

    /// One past the largest node id [`drive`] offers.
    const SOURCE_IDS: usize = 160;

    /// A random rank-monotone workload on an `n`-node arena: sources
    /// `100..SOURCE_IDS` in increasing rank, each offered to about 60% of
    /// the nodes at a small integer distance (so exact ties are frequent).
    /// Returns the per-node offers and the per-node ranks.
    fn drive(
        seed: u64,
        n: usize,
        mut insert: impl FnMut(NodeId, NodeId, f64, f64),
    ) -> (Vec<Vec<(NodeId, f64)>>, Vec<f64>) {
        let mut rng = SplitMix64::new(seed);
        let mut ranks = vec![0.0; SOURCE_IDS];
        let mut offers: Vec<Vec<(NodeId, f64)>> = vec![Vec::new(); n];
        for (src, milli) in (100..SOURCE_IDS as u32).zip(1..) {
            ranks[src as usize] = milli as f64 / 100.0;
            for v in 0..n as NodeId {
                if rng.bernoulli(0.6) {
                    let dist = rng.range_usize(6) as f64;
                    insert(v, src, dist, ranks[src as usize]);
                    offers[v as usize].push((src, dist));
                }
            }
        }
        (offers, ranks)
    }

    #[test]
    fn matches_the_purify_oracle_under_random_workload() {
        // The canonical rule over everything offered, regardless of offer
        // order (k small enough that prefix spills are frequent).
        let (n, k) = (12usize, 3usize);
        for seed in 0..5u64 {
            let mut arena = PartialAdsArena::new(n, k);
            let (offers, ranks) = drive(seed, n, |v, src, dist, rank| {
                let a = arena.would_insert(v, src, dist);
                let b = arena.insert_rank_monotone(v, src, dist, rank);
                assert_eq!(a, b, "would_insert must predict insert");
            });
            for v in 0..n as NodeId {
                let want = purify(k, &offers[v as usize], &ranks);
                assert_eq!(
                    arena.sorted_entries_of(v),
                    want.entries(),
                    "seed {seed}, node {v}"
                );
            }
        }
    }

    #[test]
    fn tieless_matches_the_appendix_a_oracle() {
        let (n, k) = (10usize, 2usize);
        for seed in 0..5u64 {
            let mut arena = PartialAdsArena::new(n, k);
            let (offers, ranks) = drive(seed + 20, n, |v, src, dist, rank| {
                arena.insert_rank_monotone_tieless(v, src, dist, rank);
            });
            for v in 0..n as NodeId {
                let mut order = offers[v as usize].clone();
                order.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                let want = TielessAds::from_order(k, &order, &ranks);
                assert_eq!(
                    arena.sorted_entries_of(v),
                    want.entries(),
                    "seed {seed}, node {v}"
                );
            }
        }
    }

    #[test]
    fn prefix_spill_keeps_all_inserted_entries() {
        // Ever-closer arrivals repeatedly displace the prefix maximum;
        // nothing inserted may be lost and the final order is canonical.
        let n = 3usize;
        let k = 2usize;
        let mut arena = PartialAdsArena::new(n, k);
        let mut expect: Vec<Vec<AdsEntry>> = vec![Vec::new(); n];
        for step in 0..20u32 {
            for v in 0..n as NodeId {
                let node = 100 + step * 3 + v;
                let dist = (40 - step as i64) as f64 + 0.1 * v as f64;
                let rank = 0.01 * (step * 3 + v) as f64;
                // Decreasing distances: every insert is admitted and
                // spills once the prefix is full.
                assert!(arena.insert_rank_monotone(v, node, dist, rank));
                expect[v as usize].push(AdsEntry::new(node, dist, rank));
            }
        }
        // Node `100 + i` carries rank `0.01 · i`, as inserted.
        let rank_of: Vec<f64> = (0..160).map(|x| 0.01 * (x - 100) as f64).collect();
        let per_node = arena.into_per_node(&rank_of);
        for v in 0..n {
            let mut e = expect[v].clone();
            e.sort_unstable_by(AdsEntry::cmp_canonical);
            assert_eq!(per_node[v], e, "node {v}");
        }
    }

    /// The finishers write each row without sorting it: the rows must
    /// equal the sorted regrouping of prefix and spill log, in both insert
    /// regimes, and the store's weights the heap reference, under
    /// workloads with frequent spills and exact ties. The arena has a row
    /// for every source id, so the sources' ranks are the store's table;
    /// only the first `n` rows are offered entries.
    #[test]
    fn finishers_write_the_sorted_rows_and_the_heap_weights() {
        for (seed, n, k) in [(0u64, 12usize, 1usize), (1, 12, 3), (2, 9, 8)] {
            for tieless in [false, true] {
                let mut arena = PartialAdsArena::new(SOURCE_IDS, k);
                let (_, ranks) = drive(seed + 70, n, |v, src, dist, rank| {
                    if tieless {
                        arena.insert_rank_monotone_tieless(v, src, dist, rank);
                    } else {
                        arena.insert_rank_monotone(v, src, dist, rank);
                    }
                });
                let at = |v| format!("seed {seed}, tieless {tieless}, node {v}");
                let sorted: Vec<Vec<AdsEntry>> = (0..SOURCE_IDS as NodeId)
                    .map(|v| arena.sorted_entries_of(v))
                    .collect();
                assert_eq!(
                    arena.clone().into_per_node(&ranks),
                    sorted,
                    "seed {seed}, tieless {tieless}"
                );
                if tieless {
                    continue;
                }
                let set = arena.finish(&ranks);
                assert_eq!(set.num_nodes(), SOURCE_IDS);
                for (v, entries) in sorted.iter().enumerate() {
                    let row = set.row(v as NodeId);
                    assert!(row.entries().eq(entries.iter().copied()), "{}", at(v));
                    let oracle = crate::reference::hip_weights(row.k, row.entries());
                    assert_eq!(row.hip(), oracle.row(), "{}", at(v));
                }
            }
        }
    }

    #[test]
    fn k_larger_than_n_never_rejects_distinct_sources() {
        // width = min(k, n): the narrow prefix must still admit up to n
        // distinct sources per node when k ≥ n.
        let n = 4usize;
        let mut arena = PartialAdsArena::new(n, 64);
        for src in 0..n as u32 {
            assert!(arena.insert_rank_monotone(0, src, (n as u32 - src) as f64, 0.1 * src as f64));
        }
        assert_eq!(arena.sorted_entries_of(0).len(), n);
    }

    #[test]
    fn threshold_tracks_kth_distance_and_only_tightens() {
        let k = 3;
        let mut arena = PartialAdsArena::new(8, k);
        assert!(arena.threshold(0).is_infinite(), "under-full ⇒ +∞");
        // Fill node 0's prefix: threshold snaps to the k-th distance.
        assert!(arena.insert_rank_monotone(0, 10, 5.0, 0.1));
        assert!(arena.insert_rank_monotone(0, 11, 3.0, 0.2));
        assert!(arena.threshold(0).is_infinite(), "still under-full");
        assert!(arena.insert_rank_monotone(0, 12, 7.0, 0.3));
        assert_eq!(arena.threshold(0), 7.0);
        // A closer insert displaces the maximum: threshold tightens.
        assert!(arena.insert_rank_monotone(0, 13, 1.0, 0.4));
        assert_eq!(arena.threshold(0), 5.0);
        // Rejected candidates leave it untouched.
        assert!(!arena.insert_rank_monotone(0, 14, 9.0, 0.5));
        assert_eq!(arena.threshold(0), 5.0);
        // Exact-tie admission is decided by node id against the k-th
        // entry (node 10 at distance 5): id 9 < 10 admits, id 15 > 10
        // does not.
        assert!(arena.would_insert(0, 9, 5.0));
        assert!(!arena.would_insert(0, 15, 5.0));
    }

    #[test]
    fn tieless_probe_predicts_tieless_insert() {
        // Drive random tieless workloads and check the O(1) probe always
        // agrees with the insert outcome.
        for seed in 0..4u64 {
            let mut rng = SplitMix64::new(seed + 50);
            let n = 10usize;
            let k = 3usize;
            let mut arena = PartialAdsArena::new(n, k);
            for (src, milli) in (0..50u32).zip(1..) {
                let rank = milli as f64 / 100.0;
                for v in 0..n as NodeId {
                    if rng.bernoulli(0.5) {
                        let dist = rng.range_usize(4) as f64;
                        let probe = arena.tieless_admits(v, dist);
                        let inserted = arena.insert_rank_monotone_tieless(v, src + 100, dist, rank);
                        assert_eq!(probe, inserted, "seed {seed}, src {src}, node {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_arena() {
        let arena = PartialAdsArena::new(3, 2);
        assert_eq!(arena.num_nodes(), 3);
        assert!(arena.sorted_entries_of(1).is_empty());
        let set = arena.finish(&[1.0; 3]);
        assert_eq!(set.num_nodes(), 3);
        assert_eq!(set.num_entries(), 0);
    }
}
