//! Parallel ADS construction with `std::thread::scope`.
//!
//! The flagship wave-parallel PrunedDijkstra lives in
//! [`crate::builder::pruned_dijkstra::build_parallel`]; this module holds
//! the two simpler decompositions, both built on the same `shard_slots`
//! chunking helper and both *bitwise identical* to their sequential
//! counterparts:
//!
//! * per-permutation: a k-mins ADS set is k independent bottom-1 builds
//!   ([`build_kmins`]);
//! * per-bucket: a k-partition ADS set is k independent bucket-restricted
//!   bottom-1 builds ([`build_kpartition`]).

use adsketch_graph::{Graph, NodeId};
use adsketch_util::RankHasher;

use crate::builder::pruned_dijkstra::run_core;
use crate::builder::shard_slots;
use crate::entry::AdsEntry;
use crate::error::CoreError;
use crate::kmins::{KMinsAds, KMinsRecord};
use crate::kpartition::{KPartRecord, KPartitionAds};

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
    use adsketch_graph::generators;

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
}
