//! Ablation: **serving-index choice** for the matching stage.
//!
//! Brute-force scanning is exact but linear in the catalog; at the paper's
//! scale (10⁹ items) the matching stage must serve from an ANN index. This
//! experiment trains SISG, indexes the L2-normalized item vectors (the
//! cosine retrieval space of the symmetric variants — the geometry both
//! index families are designed for), and compares brute force, IVF-Flat at
//! several probe counts, and HNSW on recall@K and query latency. The raw
//! inner-product space of the `-D` variants is served by IVF (whose L2
//! coarse quantizer tolerates norm spread); graph indexes need MIPS
//! reductions that degrade when norms track popularity — see
//! `sisg_ann::hnsw` docs.

use sisg_ann::{AnnIndex, HnswConfig, HnswIndex, IvfConfig, IvfIndex};
use sisg_bench::{offline_corpus, offline_sgns_config};
use sisg_core::{SisgModel, Variant};
use sisg_corpus::TokenId;
use sisg_embedding::Matrix;
use sisg_eval::ExperimentTable;

fn main() {
    let corpus = offline_corpus();
    let sgns = offline_sgns_config();
    eprintln!("training SISG-F-U...");
    let (model, _) = SisgModel::train(&corpus, Variant::SisgFU, &sgns).expect("train");

    // Index the cosine retrieval space: normalized item input vectors.
    let n_items = corpus.config.n_items as usize;
    let dim = model.store().dim();
    let mut vectors = Matrix::zeros(n_items, dim);
    for i in 0..n_items {
        vectors
            .row_mut(i)
            .copy_from_slice(model.store().input(TokenId(i as u32)));
        sisg_embedding::math::normalize(vectors.row_mut(i));
    }
    // Queries: the same normalized vectors for a sample of items (the
    // matching stage queries with the clicked item's vector).
    let queries: Vec<u32> = (0..n_items as u32).step_by(23).collect();
    let query_vectors: Vec<Vec<f32>> = queries
        .iter()
        .map(|&q| vectors.row(q as usize).to_vec())
        .collect();

    let k = 100;
    let exact: Vec<Vec<u32>> = query_vectors
        .iter()
        .map(|q| {
            sisg_embedding::retrieve_top_k(q, &vectors, (0..n_items as u32).map(TokenId), k, None)
                .into_iter()
                .map(|n| n.token.0)
                .collect()
        })
        .collect();

    let mut table = ExperimentTable::new(
        format!(
            "Ablation — serving index ({} items, {} queries, recall@{k})",
            n_items,
            queries.len()
        ),
        &["index", "recall", "us/query", "scan fraction"],
    );

    let mut eval_index = |name: String, index: &dyn AnnIndex, scan_fraction: f64| {
        let start = sisg_obs::Stopwatch::start();
        let mut hits = 0usize;
        let mut total = 0usize;
        for (q, truth) in query_vectors.iter().zip(&exact) {
            let approx = index.search(q, k);
            for t in truth {
                total += 1;
                if approx.iter().any(|h| h.id.0 == *t) {
                    hits += 1;
                }
            }
        }
        let us = start.elapsed_seconds() * 1e6 / queries.len() as f64;
        table.push_row(vec![
            name,
            format!("{:.4}", hits as f64 / total as f64),
            format!("{us:.0}"),
            format!("{scan_fraction:.3}"),
        ]);
    };

    // Brute-force control.
    struct Exact<'a>(&'a Matrix);
    impl AnnIndex for Exact<'_> {
        fn search(&self, query: &[f32], k: usize) -> Vec<sisg_ann::Hit> {
            sisg_embedding::retrieve_top_k(
                query,
                self.0,
                (0..self.0.rows() as u32).map(TokenId),
                k,
                None,
            )
            .into_iter()
            .map(|n| sisg_ann::Hit {
                id: n.token,
                score: n.score,
            })
            .collect()
        }
        fn len(&self) -> usize {
            self.0.rows()
        }
    }
    eval_index("brute force".into(), &Exact(&vectors), 1.0);

    let nlist = (n_items as f64).sqrt() as usize;
    for nprobe in [1usize, 4, 8, 16] {
        let ivf = IvfIndex::build(
            &vectors,
            IvfConfig {
                nlist,
                nprobe,
                ..Default::default()
            },
        );
        let frac = ivf.scan_fraction();
        eval_index(format!("ivf nlist={nlist} nprobe={nprobe}"), &ivf, frac);
    }

    for ef in [32usize, 64, 128] {
        let hnsw = HnswIndex::build(
            &vectors,
            HnswConfig {
                m: 16,
                ef_search: ef,
                ..Default::default()
            },
        );
        eval_index(format!("hnsw m=16 ef={ef}"), &hnsw, f64::NAN);
    }

    print!("{}", table.render());
    println!(
        "\nexpected: recall climbs toward 1.0 with nprobe/ef while scanning a \
         small corpus fraction — the trade-off that makes billion-scale \
         serving possible"
    );
    sisg_bench::finish("ablation_ann", &table);
}
