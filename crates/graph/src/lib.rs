//! Graph substrate for the `adsketch` workspace.
//!
//! The ADS algorithms of the paper (PrunedDijkstra, DP, LocalUpdates) need a
//! compact digraph representation with fast forward/transpose traversal;
//! the experiments need graph generators and *exact* ground truth to
//! validate estimates against. This crate provides all of it:
//!
//! * [`csr`] — a compressed-sparse-row [`Graph`] (directed or undirected,
//!   weighted only if some arc weighs something other than 1) with O(1)
//!   neighbor slices and a transpose operation.
//! * [`Search`] — the pruned single-source search PrunedDijkstra is built
//!   on, with reusable state for many-source loops. A [`FrontierVisitor`]
//!   steers it: a *relax-time* `admit` hook keeps doomed candidates out of
//!   the frontier, and a settle-time `visit` returns a [`Visit`] verdict.
//!   It is a level-synchronous BFS when [`Graph::is_weighted`] is false
//!   and Dijkstra over a flat 4-ary heap otherwise; both settle nodes in
//!   the same canonical `(distance, id)` order.
//! * [`bfs`] / [`dijkstra`] — exact single-source distances.
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
mod heap;
pub mod io;
mod search;

pub use csr::{Graph, NodeId};
pub use error::GraphError;
pub use search::{FrontierVisitor, Search, Visit};
