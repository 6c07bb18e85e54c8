//! Similarity between the neighborhoods of two nodes, estimated from
//! their coordinated ADSs (one of the applications enabled by sample
//! coordination — paper, Section 1 and the follow-up COSN'13 work).
//!
//! Because all sketches share one rank assignment, extracting the
//! bottom-k MinHash sketches of `N_d(u)` and `N_d(v)` from `ADS(u)` and
//! `ADS(v)` yields *coordinated* samples, from which Jaccard similarity,
//! union and intersection cardinalities of the two neighborhoods follow —
//! for any query distance `d`, with no graph access. Each estimator takes
//! the two nodes' rows; batch evaluation lives in
//! [`crate::engine::QueryEngine::jaccard_batch`].

use adsketch_minhash::similarity as mh;

use crate::view::Row;

/// Estimated Jaccard similarity of `N_d(u)` and `N_d(v)` from the two
/// nodes' ADSs.
pub fn neighborhood_jaccard(u: Row<'_>, v: Row<'_>, d: f64) -> f64 {
    assert_eq!(u.k, v.k, "sketches must share k");
    mh::jaccard(&u.minhash_at(d), &v.minhash_at(d))
}

/// Estimated `|N_d(u) ∪ N_d(v)|`.
pub fn neighborhood_union(u: Row<'_>, v: Row<'_>, d: f64) -> f64 {
    assert_eq!(u.k, v.k, "sketches must share k");
    mh::union_cardinality(&u.minhash_at(d), &v.minhash_at(d))
}

/// Estimated `|N_d(u) ∩ N_d(v)|`.
pub fn neighborhood_intersection(u: Row<'_>, v: Row<'_>, d: f64) -> f64 {
    assert_eq!(u.k, v.k, "sketches must share k");
    mh::intersection_cardinality(&u.minhash_at(d), &v.minhash_at(d))
}

/// The *closeness similarity* profile of two nodes: Jaccard similarity of
/// their d-neighborhoods at each distance in `ds`. Nodes in similar
/// positions of the network have profiles near 1 at all scales; the
/// profile's rise distance is a scale-aware distance proxy.
pub fn closeness_profile(u: Row<'_>, v: Row<'_>, ds: &[f64]) -> Vec<(f64, f64)> {
    ds.iter()
        .map(|&d| (d, neighborhood_jaccard(u, v, d)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdsSet;
    use adsketch_graph::{generators, Graph};
    use adsketch_util::stats::RunningStat;

    #[test]
    fn identical_neighborhoods_similarity_one() {
        // Two nodes feeding the same downstream component: N_d identical
        // for d ≥ 1 shifted… simplest exact case: the same node.
        let g = generators::gnp(100, 0.05, 3);
        let ads = AdsSet::build(&g, 8, 5);
        assert_eq!(neighborhood_jaccard(ads.row(4), ads.row(4), 2.0), 1.0);
    }

    #[test]
    fn far_apart_nodes_have_low_small_scale_similarity() {
        // A long path: the 1-neighborhoods of the two endpoints are
        // disjoint.
        let g = Graph::undirected(200, &generators::path_edges(200)).unwrap();
        let ads = AdsSet::build(&g, 16, 7);
        let j = neighborhood_jaccard(ads.row(0), ads.row(199), 5.0);
        assert_eq!(j, 0.0);
    }

    #[test]
    fn adjacent_path_nodes_share_most_of_their_neighborhoods() {
        let g = Graph::undirected(200, &generators::path_edges(200)).unwrap();
        // Exact Jaccard of N_10(100) and N_10(101): |∩| = 20, |∪| = 22.
        let truth = 20.0 / 22.0;
        let mut stat = RunningStat::new();
        for seed in 0..150 {
            let ads = AdsSet::build(&g, 16, seed);
            stat.push(neighborhood_jaccard(ads.row(100), ads.row(101), 10.0));
        }
        assert!(
            (stat.mean() - truth).abs() < 0.07,
            "mean {} vs exact {truth}",
            stat.mean()
        );
    }

    #[test]
    fn union_and_intersection_track_truth() {
        let g = Graph::undirected(200, &generators::path_edges(200)).unwrap();
        let mut us = RunningStat::new();
        let mut is = RunningStat::new();
        for seed in 0..200 {
            let ads = AdsSet::build(&g, 16, seed + 500);
            us.push(neighborhood_union(ads.row(100), ads.row(104), 10.0));
            is.push(neighborhood_intersection(ads.row(100), ads.row(104), 10.0));
        }
        // N_10(100) = [90,110], N_10(104) = [94,114]: union 25, inter 17.
        assert!((us.mean() - 25.0).abs() < 2.0, "union {}", us.mean());
        assert!((is.mean() - 17.0).abs() < 2.0, "inter {}", is.mean());
    }

    #[test]
    fn profile_is_monotone_for_nested_growth() {
        // On a path, the similarity of two nearby nodes grows with scale.
        let g = Graph::undirected(300, &generators::path_edges(300)).unwrap();
        let ads = AdsSet::build(&g, 32, 9);
        let profile = closeness_profile(ads.row(150), ads.row(153), &[2.0, 10.0, 50.0, 140.0]);
        assert!(profile.first().unwrap().1 < profile.last().unwrap().1);
    }
}
