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
//! * admitted entries land at canonical position < k;
//! * entries pushed out of the k-prefix are *never* consulted again
//!   (the prefix max only decreases), they just belong to the final ADS.
//!
//! So the arena keeps each node's k-prefix, sorted by `(dist, node)`, in
//! two flat `n × min(k, n)` columns, distances and node ids: 12 B per slot,
//! zero reallocation. An insert binary-searches the row's distances and
//! reads node ids only inside a run of equal distances. Displaced entries
//! go to one append-only spill log of `(dist, node, owner)`, 16 B each.
//! The finishers ([`PartialAdsArena::finish`],
//! [`PartialAdsArena::into_per_node`]) write both straight into the
//! store's columns. No slot stores a rank: every node has one (paper,
//! Sec. 2), admission never reads it, and the arena owns the `rank_of`
//! table it is built with, reading it only in its increasing-rank
//! `debug_assert!` and handing it on when it finishes.
//!
//! # The admission-threshold array
//!
//! The arena additionally maintains a flat `n`-sized threshold array:
//! `kth_dist[v]` is the distance of the k-th canonically-smallest entry in
//! `v`'s partial sketch, `+∞` while the sketch holds fewer than k entries.
//! It is refreshed on every insert (`debug_assert!`-checked against the
//! prefix distance column each time) and backs the hot admission probe
//! with a single 8-byte load — the node column is only touched to break
//! an exact distance tie by node id. **Threshold monotonicity** is the
//! invariant everything rests on: inserts only ever tighten `kth_dist[v]`,
//! so a candidate that fails the probe against a *stale* threshold can
//! never pass against a current one. That is what makes the probe safe to
//! use as a relax-time frontier filter (push-time pruning in the builders)
//! and safe to read concurrently from frozen state in the wave scheduler.
//!
//! Only the canonical rank-monotone insert regime lives here (everything
//! the PrunedDijkstra-family builders need); DP's distance-monotone regime
//! and the general retraction regime both run on
//! [`crate::builder::LiveSketch`].

use std::cmp::Ordering;

use adsketch_graph::NodeId;

use crate::entry::AdsEntry;
use crate::frozen::FrozenAdsSet;

/// Sketches-under-construction for every node, arena-backed.
#[derive(Debug, Clone)]
pub(crate) struct PartialAdsArena {
    k: usize,
    /// Prefix row width: `min(k, n)` (a sketch never holds more distinct
    /// sources than nodes, so wider rows would be dead weight for k ≥ n).
    width: usize,
    /// `n × width` row-major columns; row `v` holds the `len[v]` canonically
    /// smallest entries of `v`'s sketch so far, in canonical order.
    pdist: Vec<f64>,
    pnode: Vec<NodeId>,
    /// Per-node prefix lengths.
    len: Vec<u32>,
    /// Entries displaced from some prefix, as `(dist, node, owner)` in
    /// arrival order. Unordered across owners; grouped at finish.
    spill: Vec<(f64, NodeId, NodeId)>,
    /// Admission thresholds: `kth_dist[v]` = distance of the k-th
    /// canonically-smallest entry of `v`'s sketch, `+∞` while under-full.
    /// Monotone non-increasing over the build (see module docs).
    kth_dist: Vec<f64>,
    /// The builder's per-node ranks: an entry's rank is its node's.
    rank_of: Vec<f64>,
}

impl PartialAdsArena {
    /// An arena with sketch parameter `k` for the `rank_of.len()` nodes
    /// ranked by `rank_of`, all sketches empty.
    pub fn new(k: usize, rank_of: Vec<f64>) -> Self {
        let n = rank_of.len();
        let width = k.min(n);
        Self {
            k,
            width,
            pdist: vec![0.0; n * width],
            pnode: vec![0; n * width],
            len: vec![0; n],
            spill: Vec::new(),
            kth_dist: vec![f64::INFINITY; n],
            rank_of,
        }
    }

    /// The first slot of `v`'s prefix row and its length.
    #[inline]
    fn span(&self, v: NodeId) -> (usize, usize) {
        (v as usize * self.width, self.len[v as usize] as usize)
    }

    /// Read-only rank-monotone admission probe: would
    /// [`Self::insert_rank_monotone`] accept `(node, dist)` into `v`'s
    /// sketch right now? O(1): one compare against the flat threshold
    /// array; the node column is read only to break an exact distance tie
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
        self.pnode[v as usize * self.width + self.k - 1] > node
    }

    /// PrunedDijkstra insert: sources arrive in increasing rank, so every
    /// held entry out-ranks the candidate and the inclusion test reduces to
    /// "fewer than k entries are closer". Returns `true` if inserted.
    pub fn insert_rank_monotone(&mut self, v: NodeId, node: NodeId, dist: f64) -> bool {
        if !self.would_insert(v, node, dist) {
            return false;
        }
        debug_assert!(
            {
                let (off, l) = self.span(v);
                let rank = self.rank_of[node as usize];
                self.pnode[off..off + l]
                    .iter()
                    .all(|&x| (self.rank_of[x as usize], x) < (rank, node))
            },
            "sources must be processed in increasing rank"
        );
        self.insert(v, node, dist)
    }

    /// Inserts the admitted `(node, dist)` into `v`'s prefix row at its
    /// canonical position, spilling the displaced prefix maximum (if the
    /// row is full) into the spill log. `false` on a duplicate key (which
    /// distinct sources cannot produce).
    fn insert(&mut self, v: NodeId, node: NodeId, dist: f64) -> bool {
        let (off, l) = self.span(v);
        let row = off..off + l;
        let mut pos = off + self.pdist[row.clone()].partition_point(|&d| d < dist);
        // Inside a run of equal distances the node id decides.
        while pos < row.end && self.pdist[pos] == dist {
            match self.pnode[pos].cmp(&node) {
                Ordering::Less => pos += 1,
                Ordering::Equal => return false,
                Ordering::Greater => break,
            }
        }
        // A full row below k (width = n < k) cannot receive another entry:
        // that would take more distinct sources than the graph has nodes.
        debug_assert!(
            pos < row.end || l < self.width,
            "more distinct sources than nodes"
        );
        debug_assert!(pos - off < self.k, "admission lands in the k-prefix");
        let end = if l == self.width {
            let last = row.end - 1;
            self.spill.push((self.pdist[last], self.pnode[last], v));
            last
        } else {
            self.len[v as usize] += 1;
            row.end
        };
        self.pdist.copy_within(pos..end, pos + 1);
        self.pnode.copy_within(pos..end, pos + 1);
        self.pdist[pos] = dist;
        self.pnode[pos] = node;
        // Threshold maintenance: once the prefix reaches k entries, the
        // k-th smallest distance is the row maximum. It only ever
        // decreases from here (inserts land before it and push it left),
        // which is the monotonicity the relax-time filter relies on.
        if self.len[v as usize] as usize == self.k {
            self.kth_dist[v as usize] = self.pdist[off + self.k - 1];
        }
        debug_assert!(
            self.threshold_consistent(v),
            "kth_dist[{v}] diverged from the prefix row"
        );
        true
    }

    /// Consistency of `kth_dist[v]` with the prefix distance column — the
    /// invariant `debug_assert!`-checked on every insert.
    fn threshold_consistent(&self, v: NodeId) -> bool {
        let (off, l) = self.span(v);
        let expect = if l == self.k {
            self.pdist[off + self.k - 1]
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

    /// `v`'s full sketch so far, canonically sorted (test diagnostics —
    /// production reads happen via the bulk finishers below).
    #[cfg(test)]
    pub fn sorted_entries_of(&self, v: NodeId) -> Vec<AdsEntry> {
        let entry = |node: NodeId, dist| AdsEntry::new(node, dist, self.rank_of[node as usize]);
        let (off, l) = self.span(v);
        let mut out: Vec<AdsEntry> = (off..off + l)
            .map(|i| entry(self.pnode[i], self.pdist[i]))
            .collect();
        out.extend(
            self.spill
                .iter()
                .filter(|s| s.2 == v)
                .map(|&(dist, node, _)| entry(node, dist)),
        );
        out.sort_unstable_by(AdsEntry::cmp_canonical);
        out
    }

    /// One canonically sorted entry vector per node (the bottom-1 passes
    /// of k-mins and k-partition), each entry ranked by its node's rank in
    /// the arena's table.
    pub fn into_per_node(self) -> Vec<Vec<AdsEntry>> {
        let (offsets, nodes, dists, rank_of) = self.into_columns();
        offsets
            .windows(2)
            .map(|r| {
                (r[0] as usize..r[1] as usize)
                    .map(|i| AdsEntry::new(nodes[i], dists[i], rank_of[nodes[i] as usize]))
                    .collect()
            })
            .collect()
    }

    /// Finishes construction into the columnar store over the arena's
    /// rank table.
    pub fn finish(self) -> FrozenAdsSet {
        let k = self.k;
        let (offsets, nodes, dists, rank_of) = self.into_columns();
        FrozenAdsSet::from_columns(k, offsets, nodes, dists, rank_of)
    }

    /// The CSR `offsets / nodes / dists` columns of every row, and the
    /// rank table. Row `v` is its prefix followed by its spilled entries:
    /// each left the prefix as its maximum, and the maximum only
    /// decreases, so they arrived in descending canonical order and are
    /// written back to front. No row is sorted and no per-node vector is
    /// allocated.
    fn into_columns(self) -> (Vec<u32>, Vec<NodeId>, Vec<f64>, Vec<f64>) {
        let n = self.len.len();
        // `ends[v]` becomes the end of row `v`, then (writing spilled
        // entries back to front) the next free slot below it.
        let mut ends: Vec<u32> = self.len.clone();
        for &(_, _, v) in &self.spill {
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
        for (v, &start) in offsets[..n].iter().enumerate() {
            let (off, l) = self.span(v as NodeId);
            let out = start as usize..start as usize + l;
            dists[out.clone()].copy_from_slice(&self.pdist[off..off + l]);
            nodes[out].copy_from_slice(&self.pnode[off..off + l]);
        }
        for &(dist, node, v) in &self.spill {
            ends[v as usize] -= 1;
            let i = ends[v as usize] as usize;
            nodes[i] = node;
            dists[i] = dist;
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
        (offsets, nodes, dists, self.rank_of)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::purify;
    use adsketch_util::rng::{Rng64, SplitMix64};

    /// One past the largest node id [`drive`] offers.
    const SOURCE_IDS: usize = 160;

    /// The rank table of [`drive`]'s sources `100..SOURCE_IDS`: increasing
    /// with the id (the other nodes are never offered).
    fn source_ranks() -> Vec<f64> {
        (0..SOURCE_IDS)
            .map(|x| x.saturating_sub(99) as f64 / 100.0)
            .collect()
    }

    /// A random rank-monotone workload on the first `n` rows of an arena
    /// over [`source_ranks`]: sources `100..SOURCE_IDS` in increasing rank,
    /// each offered to about 60% of the rows at a small integer distance
    /// (so exact ties are frequent). Returns the per-row offers.
    fn drive(
        seed: u64,
        n: usize,
        mut insert: impl FnMut(NodeId, NodeId, f64),
    ) -> Vec<Vec<(NodeId, f64)>> {
        let mut rng = SplitMix64::new(seed);
        let mut offers: Vec<Vec<(NodeId, f64)>> = vec![Vec::new(); n];
        for src in 100..SOURCE_IDS as u32 {
            for v in 0..n as NodeId {
                if rng.bernoulli(0.6) {
                    let dist = rng.range_usize(6) as f64;
                    insert(v, src, dist);
                    offers[v as usize].push((src, dist));
                }
            }
        }
        offers
    }

    #[test]
    fn matches_the_purify_oracle_under_random_workload() {
        // The canonical rule over everything offered, regardless of offer
        // order (k small enough that prefix spills are frequent).
        let (n, k) = (12usize, 3usize);
        let ranks = source_ranks();
        for seed in 0..5u64 {
            let mut arena = PartialAdsArena::new(k, ranks.clone());
            let offers = drive(seed, n, |v, src, dist| {
                let a = arena.would_insert(v, src, dist);
                let b = arena.insert_rank_monotone(v, src, dist);
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

    /// Runs of one distance longer than k, with source ids unrelated to
    /// the rank order: the insert walks the node column inside the run,
    /// and `would_insert` breaks the tie on the k-th held id. Candidates
    /// fall below the run's first held id, between held ids, and above
    /// the k-th held id; all three must occur, and the rows must equal
    /// the canonical rule's.
    #[test]
    fn tie_runs_longer_than_k_are_ordered_by_node() {
        let (n, k, sources) = (6usize, 4usize, 240usize);
        for seed in 0..4u64 {
            let mut rng = SplitMix64::new(seed + 400);
            // Ranks are a random permutation of the ids, so the sources
            // arrive (in increasing rank) in random id order.
            let mut order: Vec<NodeId> = (0..sources as NodeId).collect();
            rng.shuffle(&mut order);
            let mut ranks = vec![0.0; sources];
            for (i, &src) in order.iter().enumerate() {
                ranks[src as usize] = (i + 1) as f64 / (sources + 1) as f64;
            }
            let mut arena = PartialAdsArena::new(k, ranks.clone());
            let mut offers: Vec<Vec<(NodeId, f64)>> = vec![Vec::new(); n];
            // Ties against a full row: (below, between, above) the held ids.
            let mut seen = [0usize; 3];
            for (i, &src) in order.iter().enumerate() {
                for v in 0..n as NodeId {
                    // One distance, behind fewer than k closer entries.
                    let dist = if i % 97 == v as usize { 2.0 } else { 3.0 };
                    if arena.threshold(v) == dist {
                        let held: Vec<NodeId> = arena
                            .sorted_entries_of(v)
                            .iter()
                            .take(k)
                            .filter(|e| e.dist == dist)
                            .map(|e| e.node)
                            .collect();
                        let case = if src < held[0] {
                            0
                        } else if src < held[held.len() - 1] {
                            1
                        } else {
                            2
                        };
                        seen[case] += 1;
                    }
                    let predicted = arena.would_insert(v, src, dist);
                    let inserted = arena.insert_rank_monotone(v, src, dist);
                    assert_eq!(predicted, inserted, "seed {seed}, node {v}, src {src}");
                    offers[v as usize].push((src, dist));
                }
            }
            assert!(seen.iter().all(|&c| c > 0), "seed {seed}: cases {seen:?}");
            for v in 0..n as NodeId {
                let got = arena.sorted_entries_of(v);
                let run = got.iter().filter(|e| e.dist == 3.0).count();
                assert!(run > k, "seed {seed}, node {v}: run of {run}");
                let want = purify(k, &offers[v as usize], &ranks);
                assert_eq!(got, want.entries(), "seed {seed}, node {v}");
            }
        }
    }

    #[test]
    fn prefix_spill_keeps_all_inserted_entries() {
        // Ever-closer arrivals repeatedly displace the prefix maximum;
        // nothing inserted may be lost and the final order is canonical.
        let n = 3usize;
        let k = 2usize;
        // Node `100 + i` carries rank `0.01 · i`.
        let rank_of: Vec<f64> = (0..160).map(|x| 0.01 * (x - 100) as f64).collect();
        let mut arena = PartialAdsArena::new(k, rank_of.clone());
        let mut expect: Vec<Vec<AdsEntry>> = vec![Vec::new(); n];
        for step in 0..20u32 {
            for v in 0..n as NodeId {
                let node = 100 + step * 3 + v;
                let dist = (40 - step as i64) as f64 + 0.1 * v as f64;
                // Decreasing distances: every insert is admitted and
                // spills once the prefix is full.
                assert!(arena.insert_rank_monotone(v, node, dist));
                expect[v as usize].push(AdsEntry::new(node, dist, rank_of[node as usize]));
            }
        }
        let per_node = arena.into_per_node();
        for v in 0..n {
            let mut e = expect[v].clone();
            e.sort_unstable_by(AdsEntry::cmp_canonical);
            assert_eq!(per_node[v], e, "node {v}");
        }
    }

    /// The finishers write each row without sorting it: the rows must
    /// equal the sorted regrouping of prefix and spill log, and the
    /// store's weights the heap reference, under
    /// workloads with frequent spills and exact ties. The arena has a row
    /// for every source id, so the sources' ranks are the store's table;
    /// only the first `n` rows are offered entries.
    #[test]
    fn finishers_write_the_sorted_rows_and_the_heap_weights() {
        for (seed, n, k) in [(0u64, 12usize, 1usize), (1, 12, 3), (2, 9, 8)] {
            let mut arena = PartialAdsArena::new(k, source_ranks());
            drive(seed + 70, n, |v, src, dist| {
                arena.insert_rank_monotone(v, src, dist);
            });
            let at = |v| format!("seed {seed}, node {v}");
            let sorted: Vec<Vec<AdsEntry>> = (0..SOURCE_IDS as NodeId)
                .map(|v| arena.sorted_entries_of(v))
                .collect();
            assert_eq!(arena.clone().into_per_node(), sorted, "seed {seed}");
            let set = arena.finish();
            assert_eq!(set.num_nodes(), SOURCE_IDS);
            for (v, entries) in sorted.iter().enumerate() {
                let row = set.row(v as NodeId);
                assert!(row.entries().eq(entries.iter().copied()), "{}", at(v));
                let oracle = crate::reference::hip_weights(row.k, row.entries());
                assert_eq!(row.hip(), oracle.row(), "{}", at(v));
            }
        }
    }

    #[test]
    fn k_larger_than_n_never_rejects_distinct_sources() {
        // width = min(k, n): the narrow prefix must still admit up to n
        // distinct sources per node when k ≥ n.
        let n = 4usize;
        let mut arena = PartialAdsArena::new(64, (0..n).map(|x| 0.1 * x as f64).collect());
        for src in 0..n as u32 {
            assert!(arena.insert_rank_monotone(0, src, (n as u32 - src) as f64));
        }
        assert_eq!(arena.sorted_entries_of(0).len(), n);
    }

    #[test]
    fn threshold_tracks_kth_distance_and_only_tightens() {
        let k = 3;
        // Ranks increase with the id, as the sources 10, 11, … arrive.
        let mut arena = PartialAdsArena::new(k, (0..16).map(|x| 0.1 * x as f64).collect());
        assert!(arena.threshold(0).is_infinite(), "under-full ⇒ +∞");
        // Fill node 0's prefix: threshold snaps to the k-th distance.
        assert!(arena.insert_rank_monotone(0, 10, 5.0));
        assert!(arena.insert_rank_monotone(0, 11, 3.0));
        assert!(arena.threshold(0).is_infinite(), "still under-full");
        assert!(arena.insert_rank_monotone(0, 12, 7.0));
        assert_eq!(arena.threshold(0), 7.0);
        // A closer insert displaces the maximum: threshold tightens.
        assert!(arena.insert_rank_monotone(0, 13, 1.0));
        assert_eq!(arena.threshold(0), 5.0);
        // Rejected candidates leave it untouched.
        assert!(!arena.insert_rank_monotone(0, 14, 9.0));
        assert_eq!(arena.threshold(0), 5.0);
        // Exact-tie admission is decided by node id against the k-th
        // entry (node 10 at distance 5): id 9 < 10 admits, id 15 > 10
        // does not.
        assert!(arena.would_insert(0, 9, 5.0));
        assert!(!arena.would_insert(0, 15, 5.0));
    }

    #[test]
    fn empty_arena() {
        let arena = PartialAdsArena::new(2, vec![1.0; 3]);
        assert!(arena.sorted_entries_of(1).is_empty());
        let set = arena.finish();
        assert_eq!(set.num_nodes(), 3);
        assert_eq!(set.num_entries(), 0);
    }
}
