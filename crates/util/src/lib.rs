//! Low-level primitives shared by the `adsketch` workspace.
//!
//! The crate owns everything that must be *deterministic and reproducible*
//! across the library:
//!
//! * [`rng`] — seedable pseudo-random number generators (SplitMix64 and
//!   Xoshiro256++) with the handful of distributions the sketches need
//!   (unit-interval, exponential, ranges, shuffles). Owning the RNG keeps
//!   every sketch, simulation, and test bit-reproducible given a seed.
//! * [`hashing`] — stateless hash-derived *ranks*: the random permutations
//!   `r(v) ~ U[0,1)` that MinHash sketches and all-distances sketches are
//!   defined over, plus bucket assignment for k-partition sketches.
//! * [`ranks`] — base-b rank discretization (Section 4.4 / 5.6 of the
//!   paper): rounded ranks `r' = b^{-⌈-log_b r⌉}` stored as small integers.
//! * [`stats`] — Welford accumulators and the error metrics the paper
//!   reports (NRMSE — which equals the CV for unbiased estimators — and
//!   MRE), plus closed-form CV/MRE reference values.
//! * [`topk`] — bounded "k smallest values" heaps used to maintain bottom-k
//!   thresholds incrementally.
//! * [`harmonic`] — harmonic numbers and the expected-ADS-size formulas of
//!   Lemma 2.2.
//! * [`args`] — the tiny `--name value` argument parser shared by the
//!   experiment binaries.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod harmonic;
pub mod hashing;
pub mod ranks;
pub mod rng;
pub mod stats;
pub mod topk;

pub use hashing::RankHasher;
pub use ranks::BaseB;
pub use rng::{Rng64, SplitMix64, Xoshiro256pp};
pub use stats::{ErrorStats, RunningStat};
pub use topk::KSmallest;
