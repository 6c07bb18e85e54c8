//! Sharded sketch serving: a multi-file [`ShardedStore`], a versioned
//! binary wire protocol, and a std-only concurrent TCP [`Server`] /
//! [`Client`] pair for HIP query traffic.
//!
//! After `adsketch-core`'s PR-3 read path, every sketch answers inside
//! one process over one monolithic `FrozenAdsSet` file. This crate adds
//! the network tier on top, in the shape DegreeSketch and gSketch use for
//! distributed sketch serving — partition the per-node sketch state,
//! route queries by node id — while preserving the workspace's core
//! guarantee: **every answer returned over the wire is bitwise identical
//! to the local [`adsketch_core::QueryEngine`] on the unsharded store**,
//! for every shard count and thread count.
//!
//! | module | contents |
//! |---|---|
//! | [`store`] | [`ShardedStore`]: manifest-driven multi-file store, parallel load, digest verification, [`adsketch_core::AdsView`] routing |
//! | [`proto`] | the length-prefixed wire protocol v1 (handshake, request/response frames, error frames) |
//! | [`server`] | [`Server`]: `TcpListener` + fixed thread pool (the builders' `shard_slots` helper), per-connection pipelining, graceful shutdown; generic over [`RequestStore`] |
//! | [`client`] | [`Client`]: blocking client with batched and pipelined requests |
//! | [`backend`] | [`BackendStore`]: one shard resident in one backend process, serving its manifest node range |
//! | [`generation`] | [`GenerationStore`]: hot-swappable store wrapper — a live server atomically switches to a new frozen generation mid-traffic (`GenInfo` reports which) |
//! | [`router`] | [`Router`]: stateless scatter/gather over replica sets of backends, merging answers bitwise identical to the single-process engine |
//! | `health` (internal) | per-endpoint circuit breaker (closed / cooling / open / half-open probe) shared by the router's workers and prober |
//! | `cache` (internal) | the router's sharded, size-bounded LRU answer cache ([`RouterConfig::cache_bytes`]); counters via [`CacheStatsHandle`] |
//! | [`error`] | [`ServeError`] |
//!
//! Everything runs on `std` threads and `std::net` only — the crate has
//! zero external dependencies, so it serves in fully offline
//! environments.
//!
//! # Distributed topology
//!
//! Each shard runs as a **replica set** of processes (every replica a
//! [`BackendStore`] behind the same [`Server`]), any number of stateless
//! [`Router`] processes in front: the router partitions each client
//! batch by the manifest's node-range table, scatters one leg per shard
//! — round-robin across a shard's healthy replicas,
//! with failover and a circuit breaker whose one clock is the health
//! prober's sweep — and merges in request order.
//! Failures stay typed and bounded: deadlines cap every attempt, a leg
//! makes at most two attempts per replica of its shard, and a batch
//! that needs a shard with no reachable replica
//! gets one [`proto::ERR_BACKEND`] error frame. Every batch is answered
//! whole or refused whole — never a hang, never a partial answer.
//!
//! # Quick example
//!
//! ```
//! use std::sync::Arc;
//! use adsketch_core::{freeze_sharded, AdsSet, QueryEngine};
//! use adsketch_graph::generators;
//! use adsketch_serve::{Client, Server, ShardedStore};
//!
//! // Build, then write 2 shards.
//! let g = generators::barabasi_albert(200, 3, 7);
//! let ads = AdsSet::build(&g, 8, 42);
//! let dir = std::env::temp_dir().join("adsketch_serve_doc_example");
//! freeze_sharded(&ads, 2, &dir).unwrap();
//! let store = Arc::new(ShardedStore::load(&dir).unwrap());
//!
//! // Serve on an ephemeral port; query over TCP; shut down.
//! let server = Server::bind("127.0.0.1:0", Arc::clone(&store), 2).unwrap();
//! let handle = server.handle();
//! let addr = server.local_addr().unwrap();
//! let join = std::thread::spawn(move || server.run());
//! let mut client = Client::connect(addr).unwrap();
//! let served = client.harmonic(&[0, 1, 2]).unwrap();
//!
//! // Bitwise identical to the local engine on the unsharded store.
//! let local = QueryEngine::new(&ads).harmonic_batch(&[0, 1, 2]);
//! assert_eq!(served, local);
//!
//! drop(client);
//! handle.shutdown();
//! join.join().unwrap().unwrap();
//! std::fs::remove_dir_all(&dir).ok();
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub(crate) mod cache;
pub mod client;
pub mod error;
pub mod generation;
pub(crate) mod health;
pub mod proto;
pub mod router;
pub mod server;
pub mod store;

pub use backend::BackendStore;
pub use cache::CacheStatsHandle;
pub use client::Client;
pub use error::ServeError;
pub use generation::GenerationStore;
pub use proto::{Request, Response};
pub use router::{Router, RouterConfig};
pub use server::{RequestStore, Server, ServerHandle};
pub use store::ShardedStore;
