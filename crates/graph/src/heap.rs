//! Flat 4-ary min-heap over monotone-packed `(distance, node)` keys.
//!
//! The Dijkstra frontier only ever holds finite, non-negative distances
//! (guaranteed by [`crate::csr::Graph`] construction), and for such floats
//! `f64::to_bits` is order-preserving. That lets a `(dist, node)` pair pack
//! into a single 96-bit integer key — `dist_bits << 32 | node` — so every
//! heap comparison collapses to one branchless integer compare: no NaN
//! handling, no tuple compare, no `Reverse` wrapper. Tie-breaking on node
//! id comes for free from the low 32 bits, which is exactly the canonical
//! `(distance, id)` pop order the sketch builders define their output over.
//!
//! The 4-ary layout halves tree height versus the binary
//! `std::collections::BinaryHeap` and keeps all children of a node in one
//! cache line, which is what the pop-heavy lazy-deletion workload of
//! [`crate::dijkstra::dijkstra_visit_filtered_scratch`] wants.

use crate::csr::NodeId;

/// Fan-out of the implicit heap tree.
const ARITY: usize = 4;

/// Packs a finite non-negative distance and a node id into one totally
/// ordered integer key (lexicographic on `(dist, node)`).
#[inline(always)]
fn pack(dist: f64, node: NodeId) -> u128 {
    debug_assert!(
        dist >= 0.0,
        "monotone key packing requires finite non-negative distances, got {dist}"
    );
    ((dist.to_bits() as u128) << 32) | node as u128
}

/// Inverse of [`pack`].
#[inline(always)]
fn unpack(key: u128) -> (f64, NodeId) {
    (f64::from_bits((key >> 32) as u64), key as NodeId)
}

/// A flat 4-ary min-heap of `(distance, node)` pairs in canonical order:
/// [`FlatHeap::pop`] yields ascending `(distance, node id)`.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlatHeap {
    keys: Vec<u128>,
}

impl FlatHeap {
    /// Removes all entries, keeping the allocation.
    #[inline]
    pub fn clear(&mut self) {
        self.keys.clear();
    }

    /// Queues `(dist, node)`; `dist` must be finite and non-negative.
    #[inline]
    pub fn push(&mut self, dist: f64, node: NodeId) {
        let key = pack(dist, node);
        let mut i = self.keys.len();
        self.keys.push(key);
        // Sift up: shift parents down until the key's slot is found.
        while i > 0 {
            let p = (i - 1) / ARITY;
            if self.keys[p] <= key {
                break;
            }
            self.keys[i] = self.keys[p];
            i = p;
        }
        self.keys[i] = key;
    }

    /// Removes and returns the canonically smallest `(dist, node)` pair.
    #[inline]
    pub fn pop(&mut self) -> Option<(f64, NodeId)> {
        let top = *self.keys.first()?;
        let last = self.keys.pop().expect("non-empty");
        let len = self.keys.len();
        if len > 0 {
            // Sift the displaced tail key down from the root.
            let mut i = 0usize;
            loop {
                let c0 = ARITY * i + 1;
                if c0 >= len {
                    break;
                }
                let mut m = c0;
                for c in (c0 + 1)..(c0 + ARITY).min(len) {
                    if self.keys[c] < self.keys[m] {
                        m = c;
                    }
                }
                if last <= self.keys[m] {
                    break;
                }
                self.keys[i] = self.keys[m];
                i = m;
            }
            self.keys[i] = last;
        }
        Some(unpack(top))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsketch_util::rng::{Rng64, SplitMix64};

    #[test]
    fn pack_is_monotone_on_canonical_order() {
        let keys = [
            (0.0, 0),
            (0.0, 1),
            (0.5, 0),
            (1.0, 3),
            (1.0, 4),
            (1.5, 0),
            (f64::MAX, u32::MAX),
        ];
        for w in keys.windows(2) {
            assert!(
                pack(w[0].0, w[0].1) < pack(w[1].0, w[1].1),
                "{w:?} must pack in order"
            );
        }
        for &(d, v) in &keys {
            assert_eq!(unpack(pack(d, v)), (d, v), "roundtrip of ({d}, {v})");
        }
    }

    #[test]
    fn pops_in_canonical_order() {
        let mut h = FlatHeap::default();
        for (d, v) in [(3.0, 1), (1.0, 9), (2.0, 2), (1.0, 4), (0.0, 7)] {
            h.push(d, v);
        }
        let mut out = Vec::new();
        while let Some(x) = h.pop() {
            out.push(x);
        }
        assert_eq!(out, vec![(0.0, 7), (1.0, 4), (1.0, 9), (2.0, 2), (3.0, 1)]);
    }

    #[test]
    fn matches_binary_heap_under_random_workload() {
        // Interleaved pushes and pops against std's BinaryHeap on the same
        // (dist, node) reference ordering, including duplicates and ties.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        for seed in 0..8u64 {
            let mut rng = SplitMix64::new(seed);
            let mut flat = FlatHeap::default();
            let mut refh: BinaryHeap<Reverse<(u64, NodeId)>> = BinaryHeap::new();
            for _ in 0..2_000 {
                if rng.bernoulli(0.6) || refh.is_empty() {
                    let d = (rng.range_usize(16) as f64) * 0.25;
                    let v = rng.range_usize(32) as NodeId;
                    flat.push(d, v);
                    refh.push(Reverse((d.to_bits(), v)));
                } else {
                    let Reverse((db, v)) = refh.pop().unwrap();
                    assert_eq!(flat.pop(), Some((f64::from_bits(db), v)), "seed {seed}");
                }
                assert_eq!(flat.keys.len(), refh.len());
            }
            while let Some(Reverse((db, v))) = refh.pop() {
                assert_eq!(
                    flat.pop(),
                    Some((f64::from_bits(db), v)),
                    "seed {seed} drain"
                );
            }
            assert!(flat.keys.is_empty());
        }
    }

    #[test]
    fn clear_keeps_working() {
        let mut h = FlatHeap::default();
        h.push(1.0, 1);
        h.clear();
        assert!(h.keys.is_empty());
        assert_eq!(h.pop(), None);
        h.push(0.5, 2);
        assert_eq!(h.pop(), Some((0.5, 2)));
    }
}
