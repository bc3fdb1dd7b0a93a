//! Ablation: **serving-index beam width** for the matching stage.
//!
//! Brute-force scanning is exact but linear in the catalog; at the paper's
//! scale (10⁹ items) the matching stage must serve from an ANN index. This
//! experiment trains SISG, indexes the L2-normalized item vectors (the
//! cosine retrieval space the serve engine's cold paths search) with the
//! int8 HNSW of `crates/ann`, and sweeps `ef_search` for recall@K and
//! query latency against the exact f32 scan. The beam is
//! `max(ef_search, k)`, so the sweep starts at `k`. The serve engine's
//! quantized cold path is a full int8 scan, not this index: at 50 000
//! items the scan matched the index's request time at recall@10 1.000
//! (EXPERIMENTS.md "Negative result — QHNSW as the serving cold index").

use sisg_ann::{recall_at_k, HnswConfig, QHnswIndex};
use sisg_bench::{offline_corpus, offline_sgns_config};
use sisg_core::{SisgModel, Variant};
use sisg_corpus::TokenId;
use sisg_embedding::{Matrix, QuantMatrix};
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
    let rows = QuantMatrix::from_matrix(&vectors);
    // Queries: the same normalized vectors for a sample of items (the
    // matching stage queries with the clicked item's vector).
    let queries: Vec<u32> = (0..n_items as u32).step_by(23).collect();

    let k = 100;
    let mut table = ExperimentTable::new(
        format!(
            "Ablation — serving index ({} items, {} queries, recall@{k})",
            n_items,
            queries.len()
        ),
        &["index", "recall", "us/query", "exact us/query"],
    );
    for ef_search in [100usize, 150, 200, 400] {
        let index = QHnswIndex::build(rows.clone(), HnswConfig { ef_search });
        let report = recall_at_k(|q, k| index.search(q, k), &vectors, &queries, k);
        table.push_row(vec![
            format!("qhnsw m=16 ef={ef_search}"),
            format!("{:.4}", report.recall),
            format!("{:.0}", report.ann_seconds_per_query * 1e6),
            format!("{:.0}", report.exact_seconds_per_query * 1e6),
        ]);
    }

    print!("{}", table.render());
    println!(
        "\nexpected: recall climbs toward 1.0 with ef_search; search cost \
         grows with the beam and the exact scan's with the catalog, the \
         trade-off that makes billion-scale serving possible (at a few \
         thousand items a wide beam can cost more than the scan)"
    );
    sisg_bench::finish("ablation_ann", &table);
}
