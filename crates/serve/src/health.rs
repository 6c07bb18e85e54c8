//! Per-endpoint health tracking for the router's replica sets: a
//! lock-free circuit breaker shared by every router worker and the
//! background prober, with one clock, the router's `probe_interval`.
//!
//! Each `(shard, replica)` endpoint is in one of three tiers:
//!
//! * **Available** — circuit closed, no cooldown: workers dial and send
//!   freely.
//! * **Cooling** — circuit closed, but a failed attempt in the last
//!   interval cools the endpoint: workers prefer other replicas and fall
//!   back to it only when no replica of the shard is available (a
//!   single-replica shard is still dialed on demand).
//! * **Open** — [`OPEN_AFTER`] consecutive failed attempts opened the
//!   circuit, or the endpoint answered for a node range the manifest
//!   does not assign it (it is *fenced*). Workers never dial an open
//!   endpoint; a leg that finds every replica of its shard open fails
//!   fast with [`crate::error::ServeError::ShardUnavailable`].
//!
//! Only the prober closes a circuit. Once per interval it sends every
//! endpoint `Health`: an answer with the manifest's range closes the
//! circuit and clears the failures, an answer with another range fences
//! the endpoint, and no answer changes nothing. So a dead endpoint sees
//! at most one dial per interval once it is open, and a healed one
//! rejoins at the next sweep.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Consecutive failed attempts that open an endpoint's circuit. A leg
/// makes up to 2 × `R` attempts over its shard's `R` replicas, so a
/// single request can open a circuit.
pub(crate) const OPEN_AFTER: u32 = 3;

/// How a worker should treat an endpoint right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tier {
    /// Circuit closed, no cooldown pending: first choice.
    Available,
    /// Circuit closed but inside a post-failure cooldown: use only when
    /// no replica of the shard is `Available`.
    Cooling,
    /// Circuit open: never dialed by workers.
    Open,
}

#[derive(Default)]
struct Endpoint {
    open: AtomicBool,
    /// Consecutive failed attempts since the last success.
    fails: AtomicU32,
    /// Cooldown expiry in milliseconds since the tracker started.
    cool_until_ms: AtomicU64,
}

/// The shared health table: one [`Endpoint`] per `(shard, replica)`.
pub(crate) struct HealthTracker {
    started: Instant,
    cooldown_ms: u64,
    shards: Vec<Vec<Endpoint>>,
}

impl HealthTracker {
    /// A table of closed circuits; a failed attempt cools its endpoint
    /// for `cooldown`.
    pub(crate) fn new(replicas_per_shard: &[usize], cooldown: Duration) -> Self {
        Self {
            started: Instant::now(),
            cooldown_ms: u64::try_from(cooldown.as_millis())
                .unwrap_or(u64::MAX)
                .max(1),
            shards: replicas_per_shard
                .iter()
                .map(|&reps| (0..reps).map(|_| Endpoint::default()).collect())
                .collect(),
        }
    }

    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn ep(&self, shard: usize, rep: usize) -> &Endpoint {
        &self.shards[shard][rep]
    }

    /// How a worker should treat `(shard, rep)` right now.
    pub(crate) fn tier(&self, shard: usize, rep: usize) -> Tier {
        let ep = self.ep(shard, rep);
        if ep.open.load(Ordering::SeqCst) {
            Tier::Open
        } else if self.now_ms() < ep.cool_until_ms.load(Ordering::SeqCst) {
            Tier::Cooling
        } else {
            Tier::Available
        }
    }

    /// A worker's successful exchange: clears the failures and the
    /// cooldown. An open circuit stays open: only the prober closes it.
    pub(crate) fn record_success(&self, shard: usize, rep: usize) {
        let ep = self.ep(shard, rep);
        // Already pristine: the common case on every healthy response.
        if ep.fails.load(Ordering::Relaxed) == 0 {
            return;
        }
        ep.fails.store(0, Ordering::SeqCst);
        ep.cool_until_ms.store(0, Ordering::SeqCst);
    }

    /// A failed attempt: cools the endpoint for one interval, and the
    /// [`OPEN_AFTER`]-th consecutive one opens its circuit.
    pub(crate) fn record_failure(&self, shard: usize, rep: usize) {
        let ep = self.ep(shard, rep);
        let fails = ep.fails.fetch_add(1, Ordering::SeqCst) + 1;
        let until = self.now_ms().saturating_add(self.cooldown_ms);
        ep.cool_until_ms.store(until, Ordering::SeqCst);
        if fails >= OPEN_AFTER {
            ep.open.store(true, Ordering::SeqCst);
        }
    }

    /// Opens the circuit at once: the endpoint serves another shard.
    pub(crate) fn fence(&self, shard: usize, rep: usize) {
        self.ep(shard, rep).open.store(true, Ordering::SeqCst);
    }

    /// The prober's verdict on an endpoint that answered `Health` with
    /// its manifest range: close the circuit, clear the failures.
    pub(crate) fn close(&self, shard: usize, rep: usize) {
        let ep = self.ep(shard, rep);
        ep.fails.store(0, Ordering::SeqCst);
        ep.cool_until_ms.store(0, Ordering::SeqCst);
        ep.open.store(false, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COOLDOWN: Duration = Duration::from_millis(200);

    #[test]
    fn a_failure_cools_for_one_interval_without_doubling() {
        let t = HealthTracker::new(&[2], COOLDOWN);
        for _ in 0..OPEN_AFTER - 1 {
            t.record_failure(0, 0);
            assert_eq!(t.tier(0, 0), Tier::Cooling);
            assert_eq!(t.tier(0, 1), Tier::Available);
            // The second failure's cooldown is as long as the first's.
            let until = t.ep(0, 0).cool_until_ms.load(Ordering::SeqCst);
            let left = until.saturating_sub(t.now_ms());
            assert!(left <= COOLDOWN.as_millis() as u64, "{left} ms");
            std::thread::sleep(COOLDOWN + Duration::from_millis(20));
            assert_eq!(t.tier(0, 0), Tier::Available);
        }
        t.record_success(0, 0);
        t.record_failure(0, 0);
        assert_eq!(t.tier(0, 0), Tier::Cooling, "a success resets the count");
    }

    #[test]
    fn three_failures_open_and_only_the_prober_closes() {
        let t = HealthTracker::new(&[1, 1], COOLDOWN);
        for _ in 0..OPEN_AFTER {
            t.record_failure(1, 0);
        }
        assert_eq!(t.tier(1, 0), Tier::Open);
        assert_eq!(t.tier(0, 0), Tier::Available);
        // No timer reopens the endpoint to workers, and a stray worker
        // success does not close it.
        std::thread::sleep(COOLDOWN + Duration::from_millis(20));
        t.record_success(1, 0);
        assert_eq!(t.tier(1, 0), Tier::Open);
        t.close(1, 0);
        assert_eq!(t.tier(1, 0), Tier::Available);
        // Closing cleared the failures: one more only cools.
        t.record_failure(1, 0);
        assert_eq!(t.tier(1, 0), Tier::Cooling);
    }

    #[test]
    fn a_fence_opens_at_once() {
        let t = HealthTracker::new(&[2], COOLDOWN);
        t.fence(0, 1);
        assert_eq!(t.tier(0, 1), Tier::Open);
        assert_eq!(t.tier(0, 0), Tier::Available);
        t.close(0, 1);
        assert_eq!(t.tier(0, 1), Tier::Available);
    }
}
