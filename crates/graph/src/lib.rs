//! Graph substrate for the `adsketch` workspace.
//!
//! The ADS algorithms of the paper (PrunedDijkstra, DP, LocalUpdates) need a
//! compact digraph representation with fast forward/transpose traversal;
//! the experiments need graph generators and *exact* ground truth to
//! validate estimates against. This crate provides all of it:
//!
//! * [`csr`] — a compressed-sparse-row [`Graph`] (directed or undirected,
//!   optionally weighted) with O(1) neighbor slices and a transpose
//!   operation.
//! * [`bfs`] / [`dijkstra`] — single-source shortest paths with a visitor
//!   interface supporting *pruning* (the operation PrunedDijkstra is built
//!   on). Both come in scratch-reusing variants for many-source loops, and
//!   [`bfs::bfs_visit`] replays the exact pruned-Dijkstra visit sequence on
//!   unit-weight graphs ([`Graph::is_unit_weight`]) without a heap. The
//!   [`FrontierVisitor`] variants add a *relax-time* admission hook that
//!   keeps doomed candidates out of the frontier entirely.
//! * [`heap`] — the flat 4-ary min-heap over monotone-packed
//!   `(distance, node)` keys backing the Dijkstra frontier.
//! * [`generators`] — Erdős–Rényi G(n,p), Barabási–Albert,
//!   Watts–Strogatz, and structured graphs (path, star, 2-D grid), plus
//!   random edge-weight assignment.
//! * [`exact`] — exact neighborhood functions, distance distributions and
//!   closeness/harmonic centralities (the quantities the sketches estimate).
//! * [`io`] — plain-text edge-list reading/writing.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bfs;
pub mod csr;
pub mod dijkstra;
pub mod error;
pub mod exact;
pub mod generators;
pub mod heap;
pub mod io;

pub use csr::{Graph, NodeId};
pub use dijkstra::{FrontierVisitor, Visit};
pub use error::GraphError;
