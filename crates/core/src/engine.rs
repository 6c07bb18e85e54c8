//! The batch query engine: sharded, allocation-free HIP query serving.
//!
//! Sketch queries are embarrassingly parallel — each node's estimate
//! reads only that node's row — so [`QueryEngine`] answers *batches*
//! (closeness centralities over all nodes, neighborhood cardinalities,
//! pairwise similarities) by sharding the request across threads with
//! the same chunking helper the parallel builders use. Each answer is the
//! row estimator of [`crate::hip::HipRow`] or [`crate::similarity`]
//! applied to the zero-copy [`AdsView::row`] of its node, so a batch
//! answer is bitwise the per-row answer (`adsbench` times the sweep as
//! `core.engine.harmonic_all_s`).
//!
//! The engine is generic over the view, so the same code serves one
//! [`crate::frozen::FrozenAdsSet`] — a fresh build or a loaded file, v1
//! or v2 (decoded at load into the same full-width columns) — and the
//! serving tier's sharded stores. Results are bitwise identical across
//! views, formats and thread counts.

use adsketch_graph::NodeId;

use crate::builder::shard_slots;
use crate::centrality::{self, DecayKernel};
use crate::frozen::FrozenAdsSet;
use crate::similarity;
use crate::view::AdsView;

/// A sharded batch query engine over any [`AdsView`].
///
/// `QueryEngine::new(&store)` serves from a built or loaded store; the
/// serving tier points it at its sharded stores.
#[derive(Debug, Clone, Copy)]
pub struct QueryEngine<'a, V: AdsView + Sync = FrozenAdsSet> {
    view: &'a V,
    threads: usize,
}

impl<'a, V: AdsView + Sync> QueryEngine<'a, V> {
    /// Creates an engine using all available cores.
    pub fn new(view: &'a V) -> Self {
        Self { view, threads: 0 }
    }

    /// Creates an engine with an explicit thread count (`0` ⇒ all cores).
    pub fn with_threads(view: &'a V, threads: usize) -> Self {
        Self { view, threads }
    }

    /// The view this engine serves from.
    #[inline]
    pub fn view(&self) -> &'a V {
        self.view
    }

    /// Runs `f(i)` for `i in 0..len` across the engine's threads and
    /// collects the results in order.
    fn batch_map<T, F>(&self, len: usize, f: F) -> Vec<T>
    where
        T: Send + Default + Clone,
        F: Fn(usize) -> T + Sync,
    {
        let mut out = vec![T::default(); len];
        shard_slots(&mut out, self.threads, || (), |(), i, slot| *slot = f(i));
        out
    }

    /// HIP estimate of the general statistic `Q_g(v)` for every node,
    /// indexed by node id.
    pub fn qg_all<F>(&self, g: F) -> Vec<f64>
    where
        F: Fn(NodeId, f64) -> f64 + Sync,
    {
        self.batch_map(self.view.num_nodes(), |i| {
            self.view.row(i as NodeId).hip().qg(&g)
        })
    }

    /// Distance-decay closeness centrality `C_α(v)` for every node.
    pub fn decay_all(&self, kernel: DecayKernel) -> Vec<f64> {
        self.qg_all(|_, d| kernel.eval(d))
    }

    /// Harmonic centrality estimate for every node.
    pub fn harmonic_all(&self) -> Vec<f64> {
        self.decay_all(DecayKernel::Harmonic)
    }

    /// Distance-decay centrality for an explicit batch of nodes — the
    /// same floating-point sequence as [`QueryEngine::decay_all`]
    /// restricted to `nodes`, so `decay_batch(kernel, &[v])[0]` is
    /// bitwise equal to `decay_all(kernel)[v]`. This is the form the
    /// `adsketch-serve` wire protocol serves.
    pub fn decay_batch(&self, kernel: DecayKernel, nodes: &[NodeId]) -> Vec<f64> {
        self.batch_map(nodes.len(), |i| {
            centrality::decay(self.view.row(nodes[i]).hip(), kernel)
        })
    }

    /// Harmonic centrality for an explicit batch of nodes (see
    /// [`QueryEngine::decay_batch`]).
    pub fn harmonic_batch(&self, nodes: &[NodeId]) -> Vec<f64> {
        self.decay_batch(DecayKernel::Harmonic, nodes)
    }

    /// Sum-of-distances (inverse Bavelas closeness) estimate per node.
    pub fn sum_of_distances_all(&self) -> Vec<f64> {
        self.qg_all(|_, d| d)
    }

    /// HIP reachability estimate for every node.
    pub fn reachable_all(&self) -> Vec<f64> {
        self.batch_map(self.view.num_nodes(), |i| {
            self.view.row(i as NodeId).hip().reachable_estimate()
        })
    }

    /// HIP `|N_d(v)|` estimates for a batch of `(node, distance)` queries.
    pub fn cardinality_batch(&self, queries: &[(NodeId, f64)]) -> Vec<f64> {
        self.batch_map(queries.len(), |i| {
            let (v, d) = queries[i];
            self.view.row(v).hip().cardinality_at(d)
        })
    }

    /// The estimated cumulative neighborhood function of each requested
    /// node (the per-node ANF curves).
    pub fn neighborhood_function_batch(&self, nodes: &[NodeId]) -> Vec<Vec<(f64, f64)>> {
        self.batch_map(nodes.len(), |i| {
            self.view.row(nodes[i]).hip().neighborhood_function()
        })
    }

    /// Estimated Jaccard similarity of `N_d(u)` and `N_d(v)` for a batch
    /// of node pairs at one query distance.
    pub fn jaccard_batch(&self, pairs: &[(NodeId, NodeId)], d: f64) -> Vec<f64> {
        self.batch_map(pairs.len(), |i| {
            let (u, v) = pairs[i];
            similarity::neighborhood_jaccard(self.view.row(u), self.view.row(v), d)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ads_set::AdsSet;
    use crate::hip::HipWeights;
    use crate::reference::{from_sketches, hip_weights, BottomKAds};
    use adsketch_graph::generators;

    /// Row `v` weighed by the heap reference.
    fn oracle(ads: &AdsSet, v: NodeId) -> HipWeights {
        hip_weights(ads.k(), ads.row(v).entries())
    }

    #[test]
    fn batch_matches_the_heap_reference_at_every_thread_count() {
        let g = generators::gnp_directed(150, 0.04, 5);
        let ads = AdsSet::build(&g, 4, 11);
        let per_node: Vec<u64> = (0..ads.num_nodes() as NodeId)
            .map(|v| centrality::harmonic(oracle(&ads, v).row()).to_bits())
            .collect();
        for threads in [1usize, 2, 4, 0] {
            let batch = QueryEngine::with_threads(&ads, threads).harmonic_all();
            let batch: Vec<u64> = batch.iter().map(|x| x.to_bits()).collect();
            assert_eq!(batch, per_node, "threads = {threads}");
        }
    }

    #[test]
    fn node_batches_match_all_node_sweeps_bitwise() {
        let g = generators::gnp_directed(90, 0.05, 13);
        let ads = AdsSet::build(&g, 4, 3);
        let engine = QueryEngine::with_threads(&ads, 2);
        let all = engine.harmonic_all();
        let decay_all = engine.decay_all(DecayKernel::Exponential { base: 2.0 });
        let nodes: Vec<NodeId> = (0..90u32).rev().collect();
        let batch = engine.harmonic_batch(&nodes);
        let decay_batch = engine.decay_batch(DecayKernel::Exponential { base: 2.0 }, &nodes);
        for (i, &v) in nodes.iter().enumerate() {
            assert_eq!(batch[i].to_bits(), all[v as usize].to_bits());
            assert_eq!(decay_batch[i].to_bits(), decay_all[v as usize].to_bits());
        }
    }

    #[test]
    fn cardinality_batch_matches_the_heap_reference() {
        let g = generators::gnp(100, 0.05, 9);
        let ads = AdsSet::build(&g, 8, 2);
        let engine = QueryEngine::with_threads(&ads, 2);
        // d = −1 selects no entry: the empty sum is +0.0 on both sides.
        let queries: Vec<(NodeId, f64)> = (0..100u32).map(|v| (v, (v % 6) as f64 - 1.0)).collect();
        let got = engine.cardinality_batch(&queries);
        for (&(v, d), &est) in queries.iter().zip(&got) {
            let want = oracle(&ads, v).row().cardinality_at(d);
            assert_eq!(est.to_bits(), want.to_bits(), "node {v}, d = {d}");
        }
    }

    #[test]
    fn empty_rows_answer_positive_zero_on_every_sum() {
        let ads = from_sketches(3, vec![BottomKAds::from_entries(3, Vec::new()); 4]);
        let engine = QueryEngine::with_threads(&ads, 1);
        let zero = 0.0f64.to_bits();
        let nodes: Vec<NodeId> = (0..4).collect();
        for x in engine
            .reachable_all()
            .into_iter()
            .chain(engine.harmonic_all())
            .chain(engine.qg_all(|_, d| d))
            .chain(engine.decay_batch(DecayKernel::Constant, &nodes))
            .chain(engine.cardinality_batch(&[(0, 1.0), (3, -1.0)]))
        {
            assert_eq!(x.to_bits(), zero);
        }
        assert!(engine
            .neighborhood_function_batch(&nodes)
            .iter()
            .all(Vec::is_empty));
    }

    #[test]
    fn jaccard_batch_matches_sketch_level() {
        let g = generators::gnp(80, 0.06, 4);
        let ads = AdsSet::build(&g, 8, 6);
        let engine = QueryEngine::new(&ads);
        let pairs: Vec<(NodeId, NodeId)> = (0..40u32).map(|i| (i, 79 - i)).collect();
        let got = engine.jaccard_batch(&pairs, 3.0);
        for (&(u, v), &est) in pairs.iter().zip(&got) {
            let minhash = |x: NodeId| {
                let mut mh = adsketch_minhash::BottomKSketch::new(ads.k());
                for e in ads.row(x).entries().filter(|e| e.dist <= 3.0) {
                    mh.insert_ranked(e.rank, e.node as u64);
                }
                mh
            };
            let want = adsketch_minhash::similarity::jaccard(&minhash(u), &minhash(v));
            assert_eq!(est.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn neighborhood_function_batch_matches() {
        let g = generators::gnp_directed(60, 0.07, 8);
        let ads = AdsSet::build(&g, 4, 1);
        let nodes: Vec<NodeId> = (0..60).collect();
        let got = QueryEngine::new(&ads).neighborhood_function_batch(&nodes);
        for (&v, nf) in nodes.iter().zip(&got) {
            assert_eq!(*nf, oracle(&ads, v).row().neighborhood_function());
        }
    }

    #[test]
    fn empty_batches_and_empty_view() {
        let ads = from_sketches(2, vec![]);
        let engine = QueryEngine::new(&ads);
        assert!(engine.harmonic_all().is_empty());
        assert!(engine.cardinality_batch(&[]).is_empty());
        assert!(engine.jaccard_batch(&[], 1.0).is_empty());
    }
}
