//! Zero-downtime generation hot-swap: an `ArcSwap`-style store wrapper.
//!
//! A [`GenerationStore`] wraps any [`RequestStore`] behind a
//! `Mutex<Arc<_>>` slot (std-only — the mutex guards only a pointer
//! clone, never a query) so a running [`crate::Server`] can be pointed
//! at a freshly frozen generation **mid-traffic**: readers pin the
//! current snapshot with one `Arc` clone, [`GenerationStore::swap`]
//! publishes the next one, and the old generation is freed when its last
//! in-flight request drops its pin. No connection is dropped, no request
//! observes a half-installed store.
//!
//! # Consistency under swap
//!
//! [`GenerationStore::answer_request`] pins **once per request frame**:
//! every row read and the generation number reported for that frame come
//! from the same snapshot, so a swap landing between two pipelined
//! requests is clean (each frame is entirely old or entirely new) and a
//! swap landing *during* a frame is invisible to it. There is no
//! per-call read path: a `GenerationStore` is a [`RequestStore`] and no
//! `AdsView`, so no caller can read two generations' rows inside one
//! batch. Answers after a swap are bitwise identical to a fresh process
//! that loaded the new generation — gated end-to-end by the
//! `dynamic_e2e` suite.
//!
//! The generation number is what [`crate::proto::Request::GenInfo`]
//! reports; the router tags its answer-cache entries with it, so a swap
//! invalidates stale cached bits *by key construction* (see
//! [`crate::router`]).

use std::sync::{Arc, Mutex};

use crate::proto::{Request, Response};
use crate::server::RequestStore;

/// One published snapshot: a store plus the generation number it was
/// frozen as.
#[derive(Debug)]
struct Pinned<S> {
    store: S,
    generation: u64,
}

/// A hot-swappable [`RequestStore`]: serves one generation at a time and
/// atomically switches to the next without disturbing traffic.
///
/// Share it with a server via `Arc` and keep a clone of that `Arc` for
/// the swapper (the freezer's publish callback, typically):
///
/// ```ignore
/// let store = Arc::new(GenerationStore::new(gen1_store, 1));
/// let server = Server::bind(addr, Arc::clone(&store), workers)?;
/// // ... later, while the server runs:
/// store.swap(gen2_store, 2);
/// ```
#[derive(Debug)]
pub struct GenerationStore<S> {
    slot: Mutex<Arc<Pinned<S>>>,
}

impl<S> GenerationStore<S> {
    /// Wraps `store` as generation `generation`.
    pub fn new(store: S, generation: u64) -> Self {
        Self {
            slot: Mutex::new(Arc::new(Pinned { store, generation })),
        }
    }

    /// Atomically publishes `store` as generation `generation` and
    /// returns the previous generation number. In-flight requests keep
    /// their pinned snapshot; new requests see the new one.
    pub fn swap(&self, store: S, generation: u64) -> u64 {
        let next = Arc::new(Pinned { store, generation });
        let mut slot = self.slot.lock().expect("generation slot");
        let old = slot.generation;
        *slot = next;
        old
    }

    /// The currently published generation number.
    pub fn generation(&self) -> u64 {
        self.pin().generation
    }

    /// Pins the current snapshot: one mutex-guarded `Arc` clone.
    fn pin(&self) -> Arc<Pinned<S>> {
        Arc::clone(&self.slot.lock().expect("generation slot"))
    }
}

impl<S: RequestStore> RequestStore for GenerationStore<S> {
    fn owned_range(&self) -> std::ops::Range<u64> {
        self.pin().store.owned_range()
    }

    fn generation(&self) -> u64 {
        GenerationStore::generation(self)
    }

    /// Pins one snapshot for the whole request frame: rows and the
    /// reported generation are consistent even if a swap lands mid-batch.
    fn answer_request(&self, req: &Request) -> Response {
        let pinned = self.pin();
        match req {
            Request::GenInfo => Response::GenInfo {
                generation: pinned.generation,
            },
            _ => pinned.store.answer_request(req),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsketch_core::{AdsSet, QueryEngine};
    use adsketch_graph::{generators, NodeId};

    fn sample(seed: u64) -> AdsSet {
        let g = generators::gnp_directed(60, 0.06, seed);
        AdsSet::build(&g, 4, seed + 9)
    }

    #[test]
    fn swap_changes_answers_and_generation() {
        let (a, b) = (sample(1), sample(2));
        let store = GenerationStore::new(a.clone(), 1);
        assert_eq!(RequestStore::generation(&store), 1);
        let nodes: Vec<NodeId> = (0..60).collect();
        let req = Request::Harmonic {
            nodes: nodes.clone(),
        };
        let before = store.answer_request(&req);
        assert_eq!(
            before,
            Response::Floats(QueryEngine::new(&a).harmonic_batch(&nodes))
        );
        assert_eq!(store.swap(b.clone(), 2), 1);
        assert_eq!(RequestStore::generation(&store), 2);
        let after = store.answer_request(&req);
        assert_eq!(
            after,
            Response::Floats(QueryEngine::new(&b).harmonic_batch(&nodes))
        );
        assert_eq!(
            store.answer_request(&Request::GenInfo),
            Response::GenInfo { generation: 2 }
        );
    }

    #[test]
    fn pins_and_answers_follow_the_current_generation() {
        let (a, b) = (sample(3), sample(4));
        let store = GenerationStore::new(a.clone(), 7);
        let reachable = Request::Cardinality {
            queries: vec![(5, f64::INFINITY)],
        };
        let check = |generation: u64, want: &AdsSet| {
            let pinned = store.pin();
            assert_eq!(pinned.generation, generation);
            assert_eq!(pinned.store.k(), want.k());
            assert_eq!(pinned.store.total_entries(), want.total_entries());
            assert_eq!(
                store.answer_request(&reachable),
                Response::Floats(vec![want.hip(5).reachable_estimate()])
            );
        };
        check(7, &a);
        store.swap(b.clone(), 8);
        check(8, &b);
    }

    #[test]
    fn old_generation_survives_until_unpinned() {
        let store = GenerationStore::new(sample(5), 1);
        let pinned = store.pin();
        store.swap(sample(6), 2);
        // The pre-swap pin still reads generation-1 data.
        assert_eq!(pinned.generation, 1);
        assert!(pinned.store.num_nodes() > 0);
        assert_eq!(RequestStore::generation(&store), 2);
    }
}
