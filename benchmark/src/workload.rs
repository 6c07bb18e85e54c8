//! What a workload is: its parameters, the inputs generated from the
//! seed, the in-process oracle its answers are checked against, and the
//! request batches its traffic is made of.
//!
//! The program under test sees only these generated inputs; nothing in
//! `crates/` learns which workload is running.

use std::time::Instant;

use adsketch::core::{AdsSet, AdsView, QueryEngine, StoreFormat};
use adsketch::graph::{exact, generators, Graph, NodeId};
use adsketch::serve::Request;
use adsketch::util::rng::mix64;
use adsketch::util::{Rng64, SplitMix64};

/// Sketch parameter of every workload.
pub const K: usize = 16;
/// Nodes per request batch.
pub const BATCH: usize = 64;

/// The generated graph family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphKind {
    /// Undirected unit-weight Barabási–Albert: the BFS search core.
    Ba {
        /// Nodes.
        n: usize,
        /// Edges per arriving node.
        m: usize,
    },
    /// Directed, weights quantised in `[lo, hi)`: the heap search core,
    /// near-all-distinct distances.
    Weighted {
        /// Nodes.
        n: usize,
        /// Out-degree.
        deg: usize,
        /// Lowest weight.
        lo: f64,
        /// Highest weight.
        hi: f64,
    },
}

/// Which tiers answer the workload's queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Topology {
    /// The analyst's job: everything in process, no serve or ingest tier.
    Offline,
    /// One `Server` over a one-shard mapped `ShardedStore`.
    Direct {
        /// On-disk format of the shard.
        format: StoreFormat,
    },
    /// A `Router` over one `BackendStore` server per shard.
    Fleet {
        /// Shards (= backends).
        shards: usize,
        /// `RouterConfig::cache_bytes`.
        cache_bytes: usize,
    },
    /// Edges stream through the ingest tier while a live server answers.
    Churn {
        /// Edge tranches, each frozen into one generation.
        tranches: usize,
        /// Shards per generation.
        shards: usize,
    },
}

/// Every parameter of one workload. All fixed: nothing is derived at run
/// time from a measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Graph family and size.
    pub graph: GraphKind,
    /// The five query distances cardinality traffic draws from, and HIP
    /// accuracy is measured at.
    pub distances: [f64; 5],
    /// Nodes whose exact neighbourhood function is computed in set-up.
    pub truth_nodes: usize,
    /// Serving topology.
    pub topology: Topology,
    /// Zipf exponent of node popularity (0 = uniform).
    pub zipf_s: f64,
    /// Pins cardinality queries to `distances[i]` (the single-threshold
    /// dashboard shape an answer cache is built for).
    pub pin_distance: Option<usize>,
    /// Open-loop arrival rate in requests per second, over all
    /// connections.
    pub open_rps: f64,
    /// Build passes (fixed work: they do not scale with `--seconds`).
    pub passes: usize,
    /// Load-generating threads, one connection each.
    pub conns: usize,
    /// Share of `--seconds` spent in the closed loop.
    pub closed_share: f64,
    /// Share of `--seconds` spent in the open loop.
    pub open_share: f64,
    /// Worker threads of the client-facing server or router.
    pub workers: usize,
}

impl Params {
    /// The parameters of workload `name`; `smoke` shrinks every graph to
    /// about 2000 nodes with all gates left on.
    pub fn named(name: &str, smoke: bool) -> Option<Params> {
        let truth_nodes = if smoke { 64 } else { 256 };
        let base = Params {
            graph: GraphKind::Ba {
                n: if smoke { 2000 } else { 30_000 },
                m: 4,
            },
            distances: [1.0, 2.0, 3.0, 4.0, 5.0],
            truth_nodes,
            topology: Topology::Offline,
            zipf_s: 0.0,
            pin_distance: None,
            open_rps: 0.0,
            passes: if smoke { 2 } else { 4 },
            // Four connections against four workers on two cores: with
            // two and two, the closed loop sits for minutes at a time in
            // one of two regimes 2x apart (client and worker sharing a
            // vCPU, or every hop waking an idle one); four keep both
            // vCPUs busy and the slow regime away.
            conns: 4,
            closed_share: 0.0,
            open_share: 0.0,
            workers: 4,
        };
        Some(match name {
            "offline_unit" => Params {
                passes: if smoke { 2 } else { 5 },
                conns: 1,
                closed_share: 0.3,
                ..base
            },
            "offline_weighted" => Params {
                graph: GraphKind::Weighted {
                    n: if smoke { 2000 } else { 20_000 },
                    deg: 4,
                    lo: 1.0,
                    hi: 10.0,
                },
                distances: [8.0, 12.0, 16.0, 20.0, 24.0],
                truth_nodes: truth_nodes / 2,
                passes: if smoke { 2 } else { 5 },
                conns: 1,
                closed_share: 0.3,
                ..base
            },
            "serve_direct" => Params {
                topology: Topology::Direct {
                    format: StoreFormat::V1,
                },
                open_rps: 8000.0,
                closed_share: 0.35,
                open_share: 0.1,
                ..base
            },
            "serve_v2" => Params {
                topology: Topology::Direct {
                    format: StoreFormat::V2,
                },
                // The mapped v2 store decodes to more than the default
                // per-thread block budget, so random access thrashes it:
                // the closed loop runs ~100× slower than serve_direct and
                // the fixed open-loop rate is set accordingly.
                open_rps: if smoke { 8000.0 } else { 150.0 },
                closed_share: 0.35,
                open_share: 0.15,
                ..base
            },
            "serve_fleet" => Params {
                topology: Topology::Fleet {
                    shards: 2,
                    // 6144 entries at the cache's 64-byte budgeting unit:
                    // about 10% of the 60k (kind, node) keys.
                    cache_bytes: if smoke { 393_216 / 15 } else { 393_216 },
                },
                zipf_s: 1.1,
                pin_distance: Some(2),
                open_rps: 4000.0,
                // Eight connections and eight router workers: with two,
                // the router path flips between a regime where its
                // threads share a vCPU and one where every hop wakes an
                // idle vCPU, 2-3x apart, and nothing measured on it
                // repeats. Eight keep both vCPUs busy.
                conns: 8,
                workers: 8,
                closed_share: 0.3,
                open_share: 0.1,
                ..base
            },
            "churn" => Params {
                graph: GraphKind::Ba {
                    n: if smoke { 1000 } else { 4000 },
                    m: 4,
                },
                truth_nodes: truth_nodes * 2,
                topology: Topology::Churn {
                    tranches: 8,
                    shards: 2,
                },
                open_rps: 800.0,
                conns: 1,
                workers: 2,
                ..base
            },
            _ => return None,
        })
    }

    /// Nodes of the generated graph.
    pub fn nodes(&self) -> usize {
        match self.graph {
            GraphKind::Ba { n, .. } | GraphKind::Weighted { n, .. } => n,
        }
    }

    /// The parameters as a JSON object, for the records.
    pub fn to_json(&self, seconds: f64, trace: bool, smoke: bool) -> String {
        let graph = match self.graph {
            GraphKind::Ba { n, m } => format!("\"graph\":\"barabasi_albert\",\"n\":{n},\"m\":{m}"),
            GraphKind::Weighted { n, deg, lo, hi } => format!(
                "\"graph\":\"random_weighted_digraph\",\"n\":{n},\"deg\":{deg},\"lo\":{lo},\"hi\":{hi}"
            ),
        };
        let topology = match self.topology {
            Topology::Offline => "\"topology\":\"offline\"".to_string(),
            Topology::Direct { format } => format!(
                "\"topology\":\"direct\",\"shards\":1,\"format\":\"v{}\"",
                format.version()
            ),
            Topology::Fleet {
                shards,
                cache_bytes,
            } => format!(
                "\"topology\":\"fleet\",\"shards\":{shards},\"format\":\"v1\",\"cache_bytes\":{cache_bytes},\
                 \"backend_workers\":{}",
                self.workers + 1
            ),
            Topology::Churn { tranches, shards } => format!(
                "\"topology\":\"churn\",\"tranches\":{tranches},\"shards\":{shards},\"format\":\"v1\""
            ),
        };
        format!(
            "{{{graph},\"k\":{K},\"batch\":{BATCH},{topology},\"distances\":{:?},\"truth_nodes\":{},\
             \"zipf_s\":{},\"pin_distance\":{},\"open_rps\":{},\"workers\":{},\"connections\":{},\
             \"passes\":{},\"closed_share\":{},\"open_share\":{},\
             \"seconds\":{seconds},\"trace\":{trace},\"smoke\":{smoke}}}",
            self.distances,
            self.truth_nodes,
            self.zipf_s,
            self.pin_distance
                .map_or("null".into(), |i| self.distances[i].to_string()),
            self.open_rps,
            self.workers,
            self.conns,
            self.passes,
            self.closed_share,
            self.open_share,
        )
    }
}

/// `std::thread::available_parallelism`, 1 when unknown.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// A seed for one purpose, derived from the run's `--seed`.
pub fn sub_seed(seed: u64, purpose: &str) -> u64 {
    purpose
        .bytes()
        .fold(mix64(seed), |h, b| mix64(h ^ u64::from(b)))
}

/// Largest exact cardinality kept as a reading, as a share of the nodes.
/// Neighbourhoods that cover much of the graph are nearly the same set
/// for every node, so their HIP errors rise and fall together and their
/// mean is one draw, not an average: over 16 seeds at n = 30000 the error
/// over all readings ranges 0.13–0.22, over readings this small
/// 0.14–0.17.
pub const TRUTH_MAX_SHARE: f64 = 0.05;

/// One exact reading: `|N_d(node)|` with `d = distances[d_idx]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Truth {
    /// The node.
    pub node: NodeId,
    /// Index into [`Params::distances`].
    pub d_idx: usize,
    /// The exact cardinality.
    pub count: u64,
}

/// Everything generated from the seed before the measured phases.
#[derive(Debug)]
pub struct Inputs {
    /// The graph.
    pub graph: Graph,
    /// Its arcs as a list, in seeded shuffled order (the churn workload's
    /// edge stream).
    pub arcs: Vec<(NodeId, NodeId, f64)>,
    /// Exact cardinalities of the sampled nodes, those above `K` and at
    /// most [`TRUTH_MAX_SHARE`] of the graph.
    pub truth: Vec<Truth>,
    /// Churn only: the from-scratch oracle of every generation, i.e. of
    /// the graph made of the first `t` edge tranches.
    pub generation_oracles: Vec<Oracle>,
    /// Seed of the sketches' rank hash.
    pub rank_seed: u64,
    /// Seed of the traffic.
    pub traffic_seed: u64,
    /// Seconds in `generators::*`.
    pub gen_s: f64,
    /// Seconds in `exact::neighborhood_function`.
    pub truth_s: f64,
}

impl Inputs {
    /// Generates the inputs of `p` from `seed`.
    pub fn generate(p: &Params, seed: u64) -> Inputs {
        let graph_seed = sub_seed(seed, "graph");
        let t0 = Instant::now();
        let graph = match p.graph {
            GraphKind::Ba { n, m } => generators::barabasi_albert(n, m, graph_seed),
            GraphKind::Weighted { n, deg, lo, hi } => {
                generators::random_weighted_digraph(n, deg, lo, hi, graph_seed)
            }
        };
        let gen_s = t0.elapsed().as_secs_f64();

        let n = graph.num_nodes();
        let rank_seed = sub_seed(seed, "ranks");
        let mut arcs = Vec::new();
        let mut generation_oracles = Vec::new();
        if let Topology::Churn { tranches, .. } = p.topology {
            arcs.reserve(graph.num_arcs());
            for u in 0..n as NodeId {
                arcs.extend(graph.arcs(u).map(|(v, w)| (u, v, w)));
            }
            SplitMix64::new(sub_seed(seed, "edge-order")).shuffle(&mut arcs);
            generation_oracles = (1..=tranches)
                .map(|t| {
                    let prefix = Graph::directed_weighted(n, &arcs[..arcs.len() * t / tranches])
                        .expect("a prefix of a valid arc list is valid");
                    let frozen = AdsSet::build_parallel(&prefix, K, rank_seed, 0).freeze();
                    Oracle::new(&frozen, &p.distances)
                })
                .collect();
        }

        let t0 = Instant::now();
        let mut rng = SplitMix64::new(sub_seed(seed, "truth"));
        let mut truth = Vec::new();
        for _ in 0..p.truth_nodes {
            let node = rng.range_usize(n) as NodeId;
            let nf = exact::neighborhood_function(&graph, node);
            for (d_idx, &d) in p.distances.iter().enumerate() {
                let count = nf.cardinality_at(d);
                if count > K as u64 && count as f64 <= TRUTH_MAX_SHARE * n as f64 {
                    truth.push(Truth { node, d_idx, count });
                }
            }
        }
        let truth_s = t0.elapsed().as_secs_f64();

        Inputs {
            graph,
            arcs,
            truth,
            generation_oracles,
            rank_seed,
            traffic_seed: sub_seed(seed, "traffic"),
            gen_s,
            truth_s,
        }
    }
}

/// The answers of an in-process `QueryEngine` over the unsharded store,
/// for every node: what every served float must equal bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Oracle {
    /// `harmonic_all`.
    pub harmonic: Vec<f64>,
    /// `cardinality_batch` over all nodes, one table per query distance.
    pub card: Vec<Vec<f64>>,
}

impl Oracle {
    /// Sweeps `view` once per request kind.
    pub fn new<V: AdsView + Sync>(view: &V, distances: &[f64]) -> Oracle {
        let engine = QueryEngine::with_threads(view, 0);
        let n = view.num_nodes() as NodeId;
        Oracle {
            harmonic: engine.harmonic_all(),
            card: distances
                .iter()
                .map(|&d| {
                    let all: Vec<(NodeId, f64)> = (0..n).map(|v| (v, d)).collect();
                    engine.cardinality_batch(&all)
                })
                .collect(),
        }
    }

    /// Whether `got` answers `batch` bit for bit.
    pub fn matches(&self, batch: &Batch, got: &[f64]) -> bool {
        let table = match batch.kind {
            BatchKind::Harmonic => &self.harmonic,
            BatchKind::Cardinality(d_idx) => &self.card[d_idx],
        };
        got.len() == batch.nodes.len()
            && batch
                .nodes
                .iter()
                .zip(got)
                .all(|(&v, x)| x.to_bits() == table[v as usize].to_bits())
    }

    /// `√mean((est/true − 1)²)` of the cardinality tables against the
    /// exact readings.
    pub fn hip_nrmse(&self, truth: &[Truth]) -> f64 {
        let sum: f64 = truth
            .iter()
            .map(|t| (self.card[t.d_idx][t.node as usize] / t.count as f64 - 1.0).powi(2))
            .sum();
        (sum / truth.len().max(1) as f64).sqrt()
    }
}

/// What a batch asks about its nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchKind {
    /// Harmonic centrality.
    Harmonic,
    /// HIP cardinality at `distances[i]`.
    Cardinality(usize),
}

/// One request batch.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// The queried nodes.
    pub nodes: Vec<NodeId>,
    /// The query kind, shared by the whole batch.
    pub kind: BatchKind,
}

impl Batch {
    /// The wire request for this batch.
    pub fn request(&self, distances: &[f64]) -> Request {
        match self.kind {
            BatchKind::Harmonic => Request::Harmonic {
                nodes: self.nodes.clone(),
            },
            BatchKind::Cardinality(d_idx) => Request::Cardinality {
                queries: self.nodes.iter().map(|&v| (v, distances[d_idx])).collect(),
            },
        }
    }
}

/// Node popularity: uniform, or Zipf by node id (node 0 most popular).
#[derive(Debug, Clone, PartialEq)]
pub struct Popularity {
    n: usize,
    /// Cumulative mass of ranks `1..=n`; empty when uniform.
    cdf: Vec<f64>,
}

impl Popularity {
    /// Popularity over `n` nodes with `P(rank r) ∝ r^(-s)`; `s = 0` is
    /// uniform.
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::new();
        if s > 0.0 {
            let mut acc = 0.0;
            cdf = (1..=n)
                .map(|r| {
                    acc += (r as f64).powf(-s);
                    acc
                })
                .collect();
            for c in &mut cdf {
                *c /= acc;
            }
        }
        Self { n, cdf }
    }

    /// Draws one node.
    pub fn sample(&self, rng: &mut SplitMix64) -> NodeId {
        if self.cdf.is_empty() {
            return rng.range_usize(self.n) as NodeId;
        }
        let u = rng.unit_f64();
        self.cdf.partition_point(|&c| c <= u).min(self.n - 1) as NodeId
    }
}

/// Which nodes a stream's batches ask about.
#[derive(Debug, Clone)]
enum Order {
    /// Independent draws from a popularity.
    Popular(std::sync::Arc<Popularity>),
    /// Consecutive node ids, wrapping: a full sweep.
    Sweep { n: usize, cursor: usize },
}

/// An endless seeded stream of batches. Harmonic and cardinality batches
/// alternate; distances are uniform over the grid unless pinned. Nodes
/// either follow a popularity (serving traffic), or sweep the id space in
/// order with each node set asked both ways (the analyst's full pass).
#[derive(Debug, Clone)]
pub struct BatchGen {
    rng: SplitMix64,
    order: Order,
    pin_distance: Option<usize>,
    issued: u64,
    last_nodes: Vec<NodeId>,
}

impl BatchGen {
    /// The popularity-driven stream of connection `conn` in phase `phase`
    /// of a run.
    pub fn new(
        p: &Params,
        popularity: std::sync::Arc<Popularity>,
        traffic_seed: u64,
        phase: &str,
        conn: usize,
    ) -> Self {
        Self {
            rng: SplitMix64::new(sub_seed(traffic_seed ^ conn as u64, phase)),
            order: Order::Popular(popularity),
            pin_distance: p.pin_distance,
            issued: 0,
            last_nodes: Vec::new(),
        }
    }

    /// The sweep stream over `0..n`: every [`BATCH`] consecutive nodes
    /// are asked for harmonic centrality, then for a cardinality.
    pub fn sweep(p: &Params, traffic_seed: u64) -> Self {
        Self {
            rng: SplitMix64::new(sub_seed(traffic_seed, "sweep")),
            order: Order::Sweep {
                n: p.nodes(),
                cursor: 0,
            },
            pin_distance: p.pin_distance,
            issued: 0,
            last_nodes: Vec::new(),
        }
    }

    /// The next batch.
    pub fn next_batch(&mut self) -> Batch {
        let harmonic = self.issued.is_multiple_of(2);
        self.issued += 1;
        match &mut self.order {
            Order::Popular(popularity) => {
                self.last_nodes = (0..BATCH)
                    .map(|_| popularity.sample(&mut self.rng))
                    .collect();
            }
            Order::Sweep { n, cursor } if harmonic => {
                self.last_nodes = (0..BATCH).map(|i| ((*cursor + i) % *n) as NodeId).collect();
                *cursor = (*cursor + BATCH) % *n;
            }
            Order::Sweep { .. } => {}
        }
        Batch {
            nodes: self.last_nodes.clone(),
            kind: if harmonic {
                BatchKind::Harmonic
            } else {
                BatchKind::Cardinality(self.pin_distance.unwrap_or_else(|| self.rng.range_usize(5)))
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_mass_follows_the_power_law() {
        let (n, s) = (1000, 1.1);
        let pop = Popularity::new(n, s);
        let mut rng = SplitMix64::new(42);
        let draws = 400_000;
        let mut hits = vec![0u32; n];
        for _ in 0..draws {
            hits[pop.sample(&mut rng) as usize] += 1;
        }
        let norm: f64 = (1..=n).map(|r| (r as f64).powf(-s)).sum();
        // The head carries its exact share...
        for rank in [1usize, 2, 3, 10] {
            let want = (rank as f64).powf(-s) / norm;
            let got = f64::from(hits[rank - 1]) / draws as f64;
            assert!(
                (got / want - 1.0).abs() < 0.05,
                "rank {rank}: {got} vs {want}"
            );
        }
        // ...and so does the tail as a whole.
        let want_tail: f64 = (101..=n).map(|r| (r as f64).powf(-s)).sum::<f64>() / norm;
        let got_tail = hits[100..].iter().map(|&h| f64::from(h)).sum::<f64>() / draws as f64;
        assert!((got_tail / want_tail - 1.0).abs() < 0.02);
    }

    #[test]
    fn uniform_popularity_covers_every_node_evenly() {
        let pop = Popularity::new(50, 0.0);
        let mut rng = SplitMix64::new(1);
        let mut hits = [0u32; 50];
        for _ in 0..100_000 {
            hits[pop.sample(&mut rng) as usize] += 1;
        }
        assert!(hits.iter().all(|&h| (1700..2300).contains(&h)));
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_traffic() {
        let p = Params::named("churn", true).unwrap();
        let (a, b) = (Inputs::generate(&p, 5), Inputs::generate(&p, 5));
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.arcs, b.arcs);
        assert_eq!(a.truth, b.truth);
        assert_ne!(a.arcs, Inputs::generate(&p, 6).arcs);
        let pop = std::sync::Arc::new(Popularity::new(p.nodes(), p.zipf_s));
        let mut g1 = BatchGen::new(&p, pop.clone(), a.traffic_seed, "closed", 0);
        let mut g2 = BatchGen::new(&p, pop.clone(), b.traffic_seed, "closed", 0);
        let mut other_conn = BatchGen::new(&p, pop, a.traffic_seed, "closed", 1);
        let first = g1.next_batch();
        assert_eq!(first, g2.next_batch());
        assert_ne!(first.nodes, other_conn.next_batch().nodes);
        assert_eq!(first.kind, BatchKind::Harmonic);
        assert!(matches!(g1.next_batch().kind, BatchKind::Cardinality(_)));
    }

    #[test]
    fn the_sweep_asks_every_node_both_ways_in_order() {
        let p = Params::named("offline_unit", true).unwrap();
        let mut gen = BatchGen::sweep(&p, 3);
        let batches_per_sweep = p.nodes().div_ceil(BATCH);
        let mut harmonic_seen = vec![0u32; p.nodes()];
        for i in 0..batches_per_sweep {
            let h = gen.next_batch();
            let c = gen.next_batch();
            assert_eq!(h.kind, BatchKind::Harmonic);
            assert!(matches!(c.kind, BatchKind::Cardinality(_)));
            assert_eq!(h.nodes, c.nodes);
            assert_eq!(h.nodes[0] as usize, i * BATCH);
            for &v in &h.nodes {
                harmonic_seen[v as usize] += 1;
            }
        }
        assert!(harmonic_seen.iter().all(|&c| c >= 1));
    }

    #[test]
    fn the_oracle_accepts_exact_bits_only() {
        let oracle = Oracle {
            harmonic: vec![0.5, 1.5, 2.5],
            card: vec![vec![10.0, 20.0, 30.0]; 5],
        };
        let batch = Batch {
            nodes: vec![2, 0],
            kind: BatchKind::Cardinality(3),
        };
        assert!(oracle.matches(&batch, &[30.0, 10.0]));
        assert!(!oracle.matches(&batch, &[30.0, 10.000000000000002]));
        assert!(!oracle.matches(&batch, &[30.0]));
        let truth = [
            Truth {
                node: 0,
                d_idx: 0,
                count: 8,
            },
            Truth {
                node: 1,
                d_idx: 0,
                count: 25,
            },
        ];
        // Relative errors +0.25 and −0.2.
        let want = ((0.25f64.powi(2) + 0.2f64.powi(2)) / 2.0).sqrt();
        assert!((oracle.hip_nrmse(&truth) - want).abs() < 1e-12);
    }
}
