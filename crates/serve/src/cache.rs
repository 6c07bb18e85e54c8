//! The router's sharded, size-bounded answer cache.
//!
//! A frozen store is **immutable per generation** — a shard file never
//! changes under a running server; the dynamic tier instead hot-swaps
//! whole generations atomically ([`crate::GenerationStore`]). That makes
//! per-node float answers perfectly cacheable *within* a generation, so
//! the generation number is simply part of the key: the cache maps one
//! [`CacheKey`] — `(generation, request kind, kernel tag, parameter
//! bits, node / pair)` — to the `f64::to_bits` of the answer a backend
//! already served, so a hit replays the **exact bits** the
//! scatter/gather path would produce and the router's bitwise-identity
//! guarantee is preserved verbatim. A swap invalidates stale entries by
//! key construction — old-generation bits can never answer a
//! new-generation lookup — and the orphaned entries age out of the LRU.
//!
//! Layout: [`NUM_SHARDS`] independent LRU segments, each behind its own
//! mutex (keys are spread by a mixed FNV hash), so concurrent router
//! workers rarely contend on the same lock. Each segment is a slab-backed
//! doubly-linked LRU with a fixed entry capacity derived from
//! [`crate::RouterConfig::cache_bytes`] at [`ENTRY_BYTES`] per entry —
//! inserting past capacity evicts the segment's least-recently-used
//! entry instead of growing.
//!
//! Only single-float answer kinds are cached (harmonic, decay,
//! cardinality, Jaccard). Curve and sketch-prefix responses are
//! variable-sized and serve as building blocks for other queries; they
//! bypass the cache entirely. Only answers a backend served go in: a
//! batch that fails adds no entry, so a shard outage is never
//! remembered past its recovery.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Request-kind discriminants for cache keys. Values match the wire
/// protocol's request type bytes — stable, and meaningless outside the
/// cache (the key never travels).
const KIND_HARMONIC: u8 = 0x01;
const KIND_DECAY: u8 = 0x02;
const KIND_CARDINALITY: u8 = 0x03;
const KIND_JACCARD: u8 = 0x05;

/// Independent LRU segments (each behind its own lock).
const NUM_SHARDS: usize = 16;

/// Budgeted bytes per resident entry: key + value + slab links + hash
/// map slot, rounded up so the configured byte bound errs on the small
/// side.
pub(crate) const ENTRY_BYTES: usize = 64;

/// The identity of one cached float answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    /// The store generation the answer was served from. Frozen fleets
    /// (which never swap) report a constant `0`; dynamic fleets bump it
    /// on every hot-swap, retiring all older entries by mismatch.
    gen: u64,
    /// Request kind (`KIND_*`).
    kind: u8,
    /// Decay-kernel tag; zero for every other kind.
    tag: u8,
    /// Kernel parameter bits (decay) or query-distance bits
    /// (cardinality, Jaccard); zero for harmonic.
    params: u64,
    /// The queried node, or a Jaccard pair's first endpoint.
    a: u32,
    /// A Jaccard pair's second endpoint; zero otherwise.
    b: u32,
}

impl CacheKey {
    pub(crate) fn harmonic(gen: u64, v: u32) -> Self {
        Self {
            gen,
            kind: KIND_HARMONIC,
            tag: 0,
            params: 0,
            a: v,
            b: 0,
        }
    }

    pub(crate) fn decay(gen: u64, tag: u8, param_bits: u64, v: u32) -> Self {
        Self {
            gen,
            kind: KIND_DECAY,
            tag,
            params: param_bits,
            a: v,
            b: 0,
        }
    }

    pub(crate) fn cardinality(gen: u64, v: u32, d: f64) -> Self {
        Self {
            gen,
            kind: KIND_CARDINALITY,
            tag: 0,
            params: d.to_bits(),
            a: v,
            b: 0,
        }
    }

    /// Pairs are cached as queried — `(u, v)` and `(v, u)` are distinct
    /// keys, so a hit can only ever replay an answer the engine produced
    /// for the identical request.
    pub(crate) fn jaccard(gen: u64, d: f64, u: u32, v: u32) -> Self {
        Self {
            gen,
            kind: KIND_JACCARD,
            tag: 0,
            params: d.to_bits(),
            a: u,
            b: v,
        }
    }

    /// FNV-1a over the key's words with an avalanche finish — picks the
    /// LRU segment.
    fn mix(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in [
            self.gen,
            self.params,
            (u64::from(self.a) << 32) | u64::from(self.b),
            (u64::from(self.kind) << 8) | u64::from(self.tag),
        ] {
            h ^= w;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^ (h >> 33)
    }
}

/// FNV-1a [`std::hash::Hasher`] for the segment maps. A [`CacheKey`] is
/// 24 bytes of plain words on the router's per-request hot path —
/// SipHash's DoS hardening there costs more than the whole LRU update,
/// and the keyspace (node ids + parameter bits) is not
/// attacker-expandable beyond the store's node range.
#[derive(Debug)]
struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        // Avalanche the low bits — FNV-1a alone mixes upward only.
        self.0 ^ (self.0 >> 33)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

type FnvBuild = std::hash::BuildHasherDefault<FnvHasher>;

const NIL: u32 = u32::MAX;

/// One slab slot of an LRU segment.
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: CacheKey,
    bits: u64,
    prev: u32,
    next: u32,
}

/// A fixed-capacity slab LRU: `slots` never grows past `cap`, so the
/// segment's memory is bounded by construction.
#[derive(Debug)]
struct Lru {
    map: HashMap<CacheKey, u32, FnvBuild>,
    slots: Vec<Slot>,
    /// Most-recently-used slot (NIL when empty).
    head: u32,
    /// Least-recently-used slot (the eviction victim; NIL when empty).
    tail: u32,
    cap: usize,
}

impl Lru {
    fn new(cap: usize) -> Self {
        Self {
            map: HashMap::with_capacity_and_hasher(cap, FnvBuild::default()),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            cap,
        }
    }

    fn unlink(&mut self, i: u32) {
        let Slot { prev, next, .. } = self.slots[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, i: u32) {
        self.slots[i as usize].prev = NIL;
        self.slots[i as usize].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slots[h as usize].prev = i,
        }
        self.head = i;
    }

    fn get(&mut self, key: &CacheKey) -> Option<u64> {
        let i = *self.map.get(key)?;
        // Already most-recent: skip the pointer churn (hot keys are, by
        // definition, the common case here).
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
        Some(self.slots[i as usize].bits)
    }

    /// Actual allocated bytes of this segment: the slab array plus the
    /// index map's table (one `(key, slot)` entry and one control byte
    /// per usable bucket). Bounded by construction — the slab never
    /// grows past `cap` and the map is pre-sized to it — but measures
    /// real allocation, not the [`ENTRY_BYTES`] budgeting estimate.
    fn alloc_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
            + self.map.capacity() * (std::mem::size_of::<(CacheKey, u32)>() + 1)
    }

    fn insert(&mut self, key: CacheKey, bits: u64) {
        if let Some(&i) = self.map.get(&key) {
            self.slots[i as usize].bits = bits;
            self.unlink(i);
            self.push_front(i);
            return;
        }
        let i = if self.slots.len() < self.cap {
            self.slots.push(Slot {
                key,
                bits,
                prev: NIL,
                next: NIL,
            });
            (self.slots.len() - 1) as u32
        } else {
            // Full: evict the LRU tail and reuse its slot in place.
            let victim = self.tail;
            self.unlink(victim);
            let old = self.slots[victim as usize].key;
            self.map.remove(&old);
            self.slots[victim as usize].key = key;
            self.slots[victim as usize].bits = bits;
            victim
        };
        self.map.insert(key, i);
        self.push_front(i);
    }
}

/// The shared answer cache: segment-sharded LRUs plus hit/miss counters.
#[derive(Debug)]
pub(crate) struct AnswerCache {
    segments: Vec<Mutex<Lru>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl AnswerCache {
    /// Builds a cache bounded by `cache_bytes`, or `None` when the bound
    /// is zero (cache disabled). Capacity is distributed evenly over the
    /// segments; a tiny bound still grants each live segment one entry.
    pub(crate) fn new(cache_bytes: usize) -> Option<Arc<AnswerCache>> {
        if cache_bytes == 0 {
            return None;
        }
        let entries = (cache_bytes / ENTRY_BYTES).max(1);
        let segments = NUM_SHARDS.min(entries);
        let per_segment = entries.div_ceil(segments);
        Some(Arc::new(AnswerCache {
            segments: (0..segments)
                .map(|_| Mutex::new(Lru::new(per_segment)))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }))
    }

    fn segment(&self, key: &CacheKey) -> &Mutex<Lru> {
        &self.segments[(key.mix() as usize) % self.segments.len()]
    }

    /// Looks up one answer's bits, refreshing its recency and counting
    /// the hit or miss.
    pub(crate) fn get(&self, key: &CacheKey) -> Option<u64> {
        let got = self
            .segment(key)
            .lock()
            .expect("cache segment lock")
            .get(key);
        match got {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        got
    }

    /// Inserts (or refreshes) one answer's bits, evicting the segment's
    /// LRU entry when full.
    pub(crate) fn insert(&self, key: CacheKey, bits: u64) {
        self.segment(&key)
            .lock()
            .expect("cache segment lock")
            .insert(key, bits);
    }

    fn resident_entries(&self) -> usize {
        self.segments
            .iter()
            .map(|s| s.lock().expect("cache segment lock").map.len())
            .sum()
    }

    fn capacity_entries(&self) -> usize {
        self.segments
            .iter()
            .map(|s| s.lock().expect("cache segment lock").cap)
            .sum()
    }
}

/// A cloneable, read-only view of a router's answer-cache counters.
///
/// Take one with [`crate::Router::cache_stats`] **before**
/// [`crate::Router::run`] (which consumes the router); the handle stays
/// valid while the router serves and after it stops, so load generators
/// can report end-of-run hit rates.
#[derive(Debug, Clone)]
pub struct CacheStatsHandle {
    pub(crate) inner: Arc<AnswerCache>,
}

impl CacheStatsHandle {
    /// Lookups answered from the cache since the router was bound.
    pub fn hits(&self) -> u64 {
        self.inner.hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to the backend fleet.
    pub fn misses(&self) -> u64 {
        self.inner.misses.load(Ordering::Relaxed)
    }

    /// `hits / (hits + misses)`, or 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// Entries currently resident across all segments.
    pub fn resident_entries(&self) -> usize {
        self.inner.resident_entries()
    }

    /// The fixed entry capacity across all segments — residency can
    /// never exceed this, whatever the workload.
    pub fn capacity_entries(&self) -> usize {
        self.inner.capacity_entries()
    }

    /// Actual allocated bytes across all segments: the LRU slab arrays
    /// plus the index maps' tables. This measures what the cache really
    /// holds in memory — **not** the per-entry budgeting estimate
    /// used to derive entry capacity from
    /// [`crate::RouterConfig::cache_bytes`] — so serve-tier size
    /// accounting reflects reality. Still bounded by construction: every
    /// segment's slab and map are capped at their fixed entry capacity,
    /// so this can exceed the configured byte budget only by allocator
    /// rounding, never grow with the workload.
    pub fn resident_bytes(&self) -> usize {
        self.inner
            .segments
            .iter()
            .map(|s| s.lock().expect("cache segment lock").alloc_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_budget_disables_the_cache() {
        assert!(AnswerCache::new(0).is_none());
    }

    #[test]
    fn hits_replay_exact_bits_and_counters_track() {
        let cache = AnswerCache::new(1 << 20).expect("enabled");
        let nan = f64::from_bits(0x7ff8_0000_0000_1234);
        let key = CacheKey::cardinality(0, 7, 2.5);
        assert_eq!(cache.get(&key), None);
        cache.insert(key, nan.to_bits());
        assert_eq!(cache.get(&key), Some(nan.to_bits()));
        // A different d is a different key.
        assert_eq!(cache.get(&CacheKey::cardinality(0, 7, 3.5)), None);
        // Pair order matters: (u, v) never answers (v, u).
        cache.insert(CacheKey::jaccard(0, 1.0, 1, 2), 42);
        assert_eq!(cache.get(&CacheKey::jaccard(0, 1.0, 2, 1)), None);
        assert_eq!(cache.get(&CacheKey::jaccard(0, 1.0, 1, 2)), Some(42));
        let handle = CacheStatsHandle { inner: cache };
        assert_eq!(handle.hits(), 2);
        assert_eq!(handle.misses(), 3);
        assert!((handle.hit_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn generations_partition_the_keyspace() {
        // A hot-swap bumps the generation; old-generation bits must
        // never answer a new-generation lookup.
        let cache = AnswerCache::new(1 << 20).expect("enabled");
        cache.insert(CacheKey::harmonic(1, 9), 111);
        assert_eq!(cache.get(&CacheKey::harmonic(2, 9)), None);
        assert_eq!(cache.get(&CacheKey::harmonic(1, 9)), Some(111));
        cache.insert(CacheKey::jaccard(1, 0.5, 3, 4), 7);
        assert_eq!(cache.get(&CacheKey::jaccard(2, 0.5, 3, 4)), None);
    }

    #[test]
    fn filling_past_capacity_evicts_instead_of_growing() {
        // A deliberately tiny cache: every segment holds a handful of
        // entries.
        let cache = AnswerCache::new(64 * ENTRY_BYTES).expect("enabled");
        let cap = cache.capacity_entries();
        assert!(cap >= 64, "budget grants at least the requested entries");
        for v in 0..10_000u32 {
            cache.insert(CacheKey::harmonic(0, v), u64::from(v));
        }
        assert!(
            cache.resident_entries() <= cap,
            "resident {} exceeds capacity {}",
            cache.resident_entries(),
            cap
        );
        // The most recent insert of some segment must still be resident:
        // scan back from the end until one hits.
        assert!(
            (9_990..10_000u32).any(|v| {
                cache
                    .segment(&CacheKey::harmonic(0, v))
                    .lock()
                    .unwrap()
                    .map
                    .contains_key(&CacheKey::harmonic(0, v))
            }),
            "recent inserts survive eviction"
        );
    }

    #[test]
    fn lru_order_prefers_recently_used() {
        // One segment of capacity 2: touching an entry saves it.
        let mut lru = Lru::new(2);
        let (a, b, c) = (
            CacheKey::harmonic(0, 1),
            CacheKey::harmonic(0, 2),
            CacheKey::harmonic(0, 3),
        );
        lru.insert(a, 10);
        lru.insert(b, 20);
        assert_eq!(lru.get(&a), Some(10)); // refresh a; b becomes LRU
        lru.insert(c, 30); // evicts b
        assert_eq!(lru.get(&b), None);
        assert_eq!(lru.get(&a), Some(10));
        assert_eq!(lru.get(&c), Some(30));
    }
}
