//! # adsketch — All-Distances Sketches with HIP estimators
//!
//! A Rust implementation of Edith Cohen's *All-Distances Sketches,
//! Revisited: HIP Estimators for Massive Graphs Analysis* (PODS 2014):
//! scalable sketches for massive graph and stream analysis, with the
//! Historic Inverse Probability estimators that halve the variance of
//! classic MinHash cardinality estimation and unlock general
//! distance-decay statistics.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`core`] (`adsketch-core`) — all-distances sketches, builders
//!   (PrunedDijkstra / DP / LocalUpdates), HIP estimators, centralities.
//! * [`graph`] (`adsketch-graph`) — the CSR graph substrate, generators,
//!   exact baselines.
//! * [`minhash`] (`adsketch-minhash`) — plain MinHash sketches and the
//!   Section-4 basic estimators.
//! * [`stream`] (`adsketch-stream`) — streaming ADS, HIP distinct
//!   counters, HyperLogLog, Morris counters.
//! * [`ingest`] (`adsketch-ingest`) — dynamic graphs: the append-only
//!   edge log, incremental ADS maintenance (bitwise equal to a
//!   from-scratch rebuild), and the generational freezer.
//! * [`serve`] (`adsketch-serve`) — sharded frozen stores and the
//!   std-only TCP query tier (server, client), answering bitwise
//!   identically to the local engine; `GenerationStore` hot-swaps frozen
//!   generations under live traffic.
//! * [`util`] (`adsketch-util`) — deterministic RNG, rank hashing,
//!   statistics.
//!
//! ## Quickstart
//!
//! ```
//! use adsketch::core::AdsSet;
//! use adsketch::core::centrality;
//! use adsketch::graph::generators;
//!
//! // A scale-free graph and one set of sketches for all of its nodes.
//! let g = generators::barabasi_albert(1_000, 4, 1);
//! let ads = AdsSet::build(&g, 16, 42);
//!
//! // Any number of queries, each O(k log n), no more graph traversals.
//! // `hip(0)` lends node 0's row of the store, zero-copy:
//! let hip = ads.hip(0);
//! let within3 = hip.cardinality_at(3.0);   // |N_3(0)| estimate
//! let hc = centrality::harmonic(hip);      // harmonic centrality estimate
//! assert!(within3 > 0.0 && hc > 0.0);
//!
//! // The set already is the columnar store (HIP weights precomputed):
//! // round-trip it through its checksummed bytes and batch across cores.
//! use adsketch::core::{FrozenAdsSet, QueryEngine};
//! let restored = FrozenAdsSet::from_bytes(&ads.to_bytes()).unwrap();
//! let harmonic_all = QueryEngine::new(&restored).harmonic_all();
//! assert_eq!(harmonic_all[0], hc); // bitwise-identical answers
//! ```

#![forbid(unsafe_code)]

pub use adsketch_core as core;
pub use adsketch_graph as graph;
pub use adsketch_ingest as ingest;
pub use adsketch_minhash as minhash;
pub use adsketch_serve as serve;
pub use adsketch_stream as stream;
pub use adsketch_util as util;
