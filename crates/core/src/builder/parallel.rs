//! Parallel ADS construction with `std::thread::scope`.
//!
//! The flagship wave-parallel PrunedDijkstra lives in
//! [`crate::builder::pruned_dijkstra::build_parallel`]; this module holds
//! the three simpler decompositions, all rebased on the same shared
//! infrastructure (the `shard_slots` chunking helper and the per-thread
//! `SearchScratch` reuse) and all *bitwise identical* to
//! their sequential counterparts:
//!
//! * per-node: each node's ADS depends only on its own canonical order, so
//!   the brute-force builder shards nodes across threads
//!   ([`build_bottomk_per_node`]);
//! * per-permutation: a k-mins ADS set is k independent bottom-1 builds
//!   ([`build_kmins`]);
//! * per-bucket: a k-partition ADS set is k independent bucket-restricted
//!   bottom-1 builds ([`build_kpartition`]).

use adsketch_graph::{Graph, NodeId, Visit};
use adsketch_util::RankHasher;

use crate::ads_set::AdsSet;
use crate::bottomk::BottomKAds;
use crate::builder::pruned_dijkstra::run_core;
use crate::builder::shard_slots;
use crate::builder::waves::SearchScratch;
use crate::entry::AdsEntry;
use crate::error::CoreError;
use crate::kmins::{KMinsAds, KMinsRecord};
use crate::kpartition::{KPartRecord, KPartitionAds};
use crate::reference::bottomk_from_order;

/// Collects the canonical `(dist, id)`-ordered reachable set of `src` into
/// `out`, reusing the thread's search scratch. The BFS fast path already
/// visits in canonical order; Dijkstra needs the tie-order restored.
fn canonical_order_into(
    g: &Graph,
    src: NodeId,
    scratch: &mut SearchScratch,
    out: &mut Vec<(NodeId, f64)>,
) {
    out.clear();
    let needs_sort = matches!(scratch, SearchScratch::Dijkstra(_));
    scratch.visit(g, src, |v, d| {
        out.push((v, d));
        Visit::Continue
    });
    if needs_sort {
        out.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    }
}

/// Per-node parallel bottom-k construction (`threads = 0` ⇒ all cores).
/// Output equals [`crate::reference::build_bottomk`] exactly.
pub fn build_bottomk_per_node(g: &Graph, k: usize, ranks: &[f64], threads: usize) -> AdsSet {
    assert_eq!(ranks.len(), g.num_nodes());
    let mut sketches: Vec<Option<BottomKAds>> = vec![None; g.num_nodes()];
    shard_slots(
        &mut sketches,
        threads,
        || (SearchScratch::for_graph(g), Vec::new()),
        |(scratch, order), v, out| {
            canonical_order_into(g, v as NodeId, scratch, order);
            *out = Some(bottomk_from_order(k, order, ranks));
        },
    );
    AdsSet::from_sketches(
        k,
        sketches.into_iter().map(|s| s.expect("filled")).collect(),
    )
}

/// Per-permutation parallel k-mins construction; output equals
/// [`crate::builder::kmins::build`] exactly.
pub fn build_kmins(
    g: &Graph,
    k: usize,
    hasher: &RankHasher,
    threads: usize,
) -> Result<Vec<KMinsAds>, CoreError> {
    assert!(k >= 1);
    let n = g.num_nodes();
    let mut per_perm: Vec<Option<Result<Vec<Vec<AdsEntry>>, CoreError>>> = vec![None; k];
    shard_slots(
        &mut per_perm,
        threads,
        // One rank buffer per thread, refilled per permutation — not one
        // fresh Vec<f64> of length n per permutation.
        || vec![0.0f64; n],
        |ranks_buf, j, out| {
            let h = j as u32;
            for (v, r) in ranks_buf.iter_mut().enumerate() {
                *r = hasher.perm_rank(v as u64, h);
            }
            *out = Some(
                run_core(g, 1, ranks_buf, None, false).map(|(arena, _)| arena.into_per_node()),
            );
        },
    );
    let mut records: Vec<Vec<KMinsRecord>> = vec![Vec::new(); n];
    for (h, slot) in per_perm.into_iter().enumerate() {
        let per_node = slot.expect("filled")?;
        for (v, entries) in per_node.into_iter().enumerate() {
            records[v].extend(entries.into_iter().map(|e| KMinsRecord {
                node: e.node,
                dist: e.dist,
                rank: e.rank,
                perm: h as u32,
            }));
        }
    }
    Ok(records
        .into_iter()
        .map(|mut rs| {
            rs.sort_unstable_by(|a, b| {
                a.dist
                    .total_cmp(&b.dist)
                    .then(a.node.cmp(&b.node))
                    .then(a.perm.cmp(&b.perm))
            });
            KMinsAds::from_records(k, rs)
        })
        .collect())
}

/// Per-bucket parallel k-partition construction; output equals
/// [`crate::builder::kpartition::build`] exactly.
pub fn build_kpartition(
    g: &Graph,
    k: usize,
    hasher: &RankHasher,
    threads: usize,
) -> Result<Vec<KPartitionAds>, CoreError> {
    assert!(k >= 1);
    let n = g.num_nodes();
    let ranks: Vec<f64> = (0..n as u64).map(|v| hasher.rank(v)).collect();
    let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); k];
    for v in 0..n as NodeId {
        buckets[hasher.bucket(v as u64, k)].push(v);
    }
    let ranks_ref = &ranks;
    let buckets_ref = &buckets;
    let mut per_bucket: Vec<Option<Result<Vec<Vec<AdsEntry>>, CoreError>>> = vec![None; k];
    shard_slots(
        &mut per_bucket,
        threads,
        || (),
        |(), b, out| {
            if buckets_ref[b].is_empty() {
                *out = Some(Ok(vec![Vec::new(); n]));
                return;
            }
            *out = Some(
                run_core(g, 1, ranks_ref, Some(&buckets_ref[b]), false)
                    .map(|(arena, _)| arena.into_per_node()),
            );
        },
    );
    let mut records: Vec<Vec<KPartRecord>> = vec![Vec::new(); n];
    for (b, slot) in per_bucket.into_iter().enumerate() {
        let per_node = slot.expect("filled")?;
        for (v, entries) in per_node.into_iter().enumerate() {
            records[v].extend(entries.into_iter().map(|e| KPartRecord {
                node: e.node,
                dist: e.dist,
                rank: e.rank,
                bucket: b as u32,
            }));
        }
    }
    Ok(records
        .into_iter()
        .map(|mut rs| {
            rs.sort_unstable_by(|a, b| a.dist.total_cmp(&b.dist).then(a.node.cmp(&b.node)));
            KPartitionAds::from_records(k, rs)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform_ranks;
    use adsketch_graph::generators;

    #[test]
    fn per_node_matches_sequential() {
        let g = generators::gnp_directed(80, 0.05, 3);
        let ranks = uniform_ranks(80, 4);
        for threads in [1usize, 2, 0] {
            let par = build_bottomk_per_node(&g, 3, &ranks, threads);
            let seq = crate::reference::build_bottomk(&g, 3, &ranks);
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn per_node_matches_sequential_weighted() {
        // Exercises the Dijkstra branch of the shared scratch (ties must be
        // re-sorted into canonical order before sketch extraction).
        let g = generators::random_weighted_digraph(60, 4, 0.5, 2.5, 31);
        let ranks = uniform_ranks(60, 32);
        let par = build_bottomk_per_node(&g, 3, &ranks, 3);
        let seq = crate::reference::build_bottomk(&g, 3, &ranks);
        assert_eq!(par, seq);
    }

    #[test]
    fn kmins_parallel_matches_sequential() {
        let g = generators::gnp_directed(60, 0.06, 5);
        let h = RankHasher::new(6);
        let par = build_kmins(&g, 5, &h, 3).unwrap();
        let seq = crate::builder::kmins::build(&g, 5, &h).unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn kpartition_parallel_matches_sequential() {
        let g = generators::gnp_directed(60, 0.06, 7);
        let h = RankHasher::new(8);
        let par = build_kpartition(&g, 6, &h, 4).unwrap();
        let seq = crate::builder::kpartition::build(&g, 6, &h).unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn empty_graph_parallel() {
        let g = adsketch_graph::Graph::directed(0, &[]).unwrap();
        let set = build_bottomk_per_node(&g, 2, &[], 4);
        assert_eq!(set.num_nodes(), 0);
    }
}
