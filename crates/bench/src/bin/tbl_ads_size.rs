//! ADS-SIZE experiment (Lemma 2.2): measured expected sketch sizes vs the
//! closed forms `k + k(H_n − H_k)` (bottom-k), `k·E[H_B]` with
//! `B ~ Binomial(n, 1/k)` (k-partition), and `k·H_n` (k-mins) — plus the
//! storage cost of those entries in the columnar store (resident and
//! bytes on disk), extending the paper's ADS-size table with a
//! persistence column.
//!
//! The second table reports the frozen store's two on-disk formats side
//! by side — full-width v1 vs compressed v2 bytes/entry (`--full` adds
//! the n = 100 000, k = 16 benchmark cell).
//!
//! ```text
//! cargo run --release -p adsketch-bench --bin tbl_ads_size [--runs 400] [--full]
//! ```

use adsketch_bench::table::f;
use adsketch_bench::{arg_u64, Table};
use adsketch_core::{reference, AdsSet, StoreFormat};
use adsketch_graph::{generators, NodeId};
use adsketch_util::harmonic::{
    expected_bottomk_ads_size, expected_kmins_ads_size, expected_kpartition_ads_size,
};
use adsketch_util::RankHasher;

fn main() {
    let runs = arg_u64("runs", 400);
    let mut t = Table::new(vec![
        "n",
        "k",
        "botk meas",
        "botk thy",
        "kpart meas",
        "kpart thy",
        "kmins meas",
        "kmins thy",
    ]);
    for &n in &[1_000usize, 10_000] {
        let order: Vec<(NodeId, f64)> = (0..n).map(|i| (i as NodeId, i as f64)).collect();
        for &k in &[4usize, 16, 64] {
            let (mut sb, mut sp, mut sm) = (0usize, 0usize, 0usize);
            for seed in 0..runs {
                let h = RankHasher::new(seed * 7 + k as u64);
                let ranks: Vec<f64> = (0..n as u64).map(|v| h.rank(v)).collect();
                sb += reference::bottomk_from_order(k, &order, &ranks).len();
                sp += reference::kpartition_from_order(k, &order, &h).len();
                sm += reference::kmins_from_order(k, &order, &h).len();
            }
            let r = runs as f64;
            t.row(vec![
                n.to_string(),
                k.to_string(),
                f(sb as f64 / r),
                f(expected_bottomk_ads_size(n as u64, k)),
                f(sp as f64 / r),
                f(expected_kpartition_ads_size(n as u64, k)),
                f(sm as f64 / r),
                f(expected_kmins_ads_size(n as u64, k)),
            ]);
        }
    }
    println!(
        "=== ADS sizes: measured vs Lemma 2.2 ({runs} runs) ===\n{}",
        t.render()
    );

    // Storage cost of a full bottom-k ADS set (one PrunedDijkstra build
    // per cell on a Barabási–Albert graph): the store in memory and in
    // both on-disk formats — full-width v1 and the
    // compressed v2 (delta+varint columns). The n = 100 000, k = 16 cell
    // is the repo's standing benchmark configuration (`--full` only; it
    // builds a 100k-node ADS set per run).
    let full = adsketch_bench::arg_flag("full");
    let mut st = Table::new(vec![
        "n",
        "k",
        "entries/node",
        "resident B/node",
        "v1 B/entry",
        "v2 B/entry",
        "v1/v2",
    ]);
    let cells: &[(usize, &[usize])] = if full {
        &[
            (1_000, &[4, 16, 64]),
            (10_000, &[4, 16, 64]),
            (100_000, &[16]),
        ]
    } else {
        &[(1_000, &[4, 16, 64]), (10_000, &[4, 16, 64])]
    };
    for &(n, ks) in cells {
        let g = generators::barabasi_albert(n, 4, 7);
        for &k in ks {
            let ads = AdsSet::build_parallel(&g, k, 42, 0);
            let entries = ads.num_entries() as f64;
            let v1 = ads.serialized_len() as f64;
            let v2 = ads.to_bytes_format(StoreFormat::V2).len() as f64;
            st.row(vec![
                n.to_string(),
                k.to_string(),
                f(ads.mean_entries()),
                f(ads.resident_bytes() as f64 / n as f64),
                f(v1 / entries),
                f(v2 / entries),
                format!("{:.2}x", v1 / v2),
            ]);
        }
    }
    println!(
        "\n=== Store size: in memory and v1/v2 on disk (BA m=4, one build per cell) ===\n{}",
        st.render()
    );
    println!(
        "resident counts the owned columns by capacity (per node); v1 is the exact full-width\n\
         serialized length (exactly 20 B/entry for the node/dist/weight columns + 12 B/node\n\
         for the CSR offsets and the rank table + 40 B header); v2 is the compressed format\n\
         (per-row delta+varint node ids, dictionary-coded distances, a 7-byte rank\n\
         mantissa per node, no weight bytes: every load derives the 1/τ weights —\n\
         bitwise-lossless, escape columns where needed)."
    );
}
