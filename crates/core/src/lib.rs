//! All-distances sketches (ADS) with Historic Inverse Probability (HIP)
//! estimators — the primary contribution of Cohen, *All-Distances Sketches,
//! Revisited: HIP Estimators for Massive Graphs Analysis* (PODS 2014).
//!
//! # What an ADS is
//!
//! The ADS of a node `v` is a random sample of the nodes reachable from `v`
//! in which closer nodes are more likely to appear: node `j` is included
//! with probability inversely proportional to its *Dijkstra rank* (position
//! in `v`'s nearest-neighbor order). Equivalently, `ADS(v)` is the union of
//! coordinated MinHash sketches of every neighborhood `N_d(v)`. It has
//! expected size `k(1 + ln n − ln k)` and supports estimating, from the
//! sketch alone:
//!
//! * neighborhood cardinalities `|N_d(v)|` for *any* query distance `d`,
//! * general distance-based statistics `Q_g(v) = Σ_j g(j, d_vj)`
//!   (equation (1) of the paper),
//! * distance-decay centralities `C_{α,β}(v) = Σ_j α(d_vj) β(j)`
//!   (equation (2)) with the filter `β` chosen *after* sketching,
//! * closeness similarity between nodes, distance distributions, and more.
//!
//! # What HIP adds
//!
//! The classic ("basic") estimators extract one MinHash sketch from the ADS
//! and estimate from it, with CV ≤ `1/sqrt(k−2)`. The HIP estimator instead
//! assigns every ADS entry an *adjusted weight* — the inverse of its
//! inclusion probability conditioned on the ranks of all closer nodes —
//! which is unbiased, uses the whole sketch history, halves the variance
//! (CV ≤ `1/sqrt(2(k−1))`, within √2 of the `1/sqrt(2k)` lower bound), and
//! extends verbatim to the general statistics above.
//!
//! # Crate layout
//!
//! | module | contents |
//! |---|---|
//! | [`entry`], [`kmins`], [`kpartition`] | ADS entries and the k-mins / k-partition flavors (Section 2); the bottom-k flavor is the store's row |
//! | [`ads_set`] | the [`AdsSet`] alias of the store and its seeded build entry points |
//! | [`view`] | the [`AdsView`] trait (`k`, `num_nodes`, `row(v)`) and the borrowed [`Row`] the MinHash-extraction estimators run on |
//! | [`frozen`] | the immutable columnar store every builder returns, with versioned (de)serialization |
//! | [`engine`] | the sharded batch query engine over any view |
//! | [`builder`] | PrunedDijkstra, DP and LocalUpdates construction (Section 3), incl. (1+ε)-approximate ADS, each handing its columns to the store |
//! | [`reference`](mod@reference) | brute-force order-based builders, the oracle's `BottomKAds` and its heap HIP scan, used for validation |
//! | [`hip`] | adjusted weights and the HIP estimators, written once on the borrowed [`HipRow`] (Section 5) |
//! | [`basic`] | basic (MinHash-extraction) estimators on rows (Section 4) |
//! | [`permutation`] | the permutation cardinality estimator (Section 5.4) |
//! | [`size_est`] | the ADS-size-only estimator (Section 8) |
//! | [`centrality`] | closeness/harmonic/decay centralities over HIP rows |
//! | [`weighted`] | non-uniform node weights via exponential ranks (Section 9) |
//! | [`similarity`] | neighborhood Jaccard/union/intersection between two nodes' rows |
//! | [`tieless`] | the tie-breaking-free ADS of Appendix A |
//!
//! # Quick example
//!
//! ```
//! use adsketch_core::ads_set::AdsSet;
//! use adsketch_graph::generators;
//!
//! let g = generators::barabasi_albert(300, 3, 42);
//! let ads = AdsSet::build(&g, 16, 7); // k = 16, seed = 7
//! // Node 0's HIP row, borrowed from the store. Estimate how many nodes
//! // lie within 2 hops of node 0:
//! let est = ads.hip(0).cardinality_at(2.0);
//! let exact = adsketch_graph::exact::neighborhood_function(&g, 0).cardinality_at(2.0) as f64;
//! assert!((est - exact).abs() / exact < 0.8);
//! ```

#![deny(missing_docs)]
// All unsafe code in the workspace is fenced into `frozen::mmap` (which
// carries a module-level `allow` plus `deny(unsafe_op_in_unsafe_fn)` and
// per-call safety comments); every sibling crate is `forbid(unsafe_code)`.
#![deny(unsafe_code)]

pub mod ads_set;
pub mod basic;
pub mod builder;
pub mod centrality;
pub mod engine;
pub mod entry;
pub mod error;
pub mod frozen;
pub mod hip;
pub mod kmins;
pub mod kpartition;
pub mod permutation;
pub mod reference;
pub mod similarity;
pub mod size_est;
pub mod tieless;
pub mod view;
pub mod weighted;

pub use ads_set::AdsSet;
pub use builder::local_updates::DynamicAds;
pub use builder::{shard_slots, thread_count};
pub use engine::QueryEngine;
pub use entry::AdsEntry;
pub use error::CoreError;
pub use frozen::{
    freeze_sharded, freeze_sharded_format, FrozenAdsSet, FrozenError, LoadOptions, ShardManifest,
    ShardRecord, StoreFormat,
};
pub use hip::{HipItem, HipRow, HipWeights};
pub use view::{AdsView, Row};

/// Deterministic uniform ranks `r(v) ~ U[0,1)` for nodes `0..n`.
///
/// All builders take explicit rank arrays so the weighted variant
/// ([`weighted`]) and tests can substitute their own.
pub fn uniform_ranks(n: usize, seed: u64) -> Vec<f64> {
    let h = adsketch_util::RankHasher::new(seed);
    (0..n as u64).map(|v| h.rank(v)).collect()
}
