//! Property-based tests of the ANN substrate: index invariants that must
//! hold for arbitrary sets of L2-normalized vectors.

use proptest::prelude::*;
use std::cmp::Ordering;
use taobao_sisg::ann::{HnswConfig, QHnswIndex};
use taobao_sisg::embedding::kernels::dot_q8;
use taobao_sisg::embedding::math::normalize;
use taobao_sisg::embedding::{Matrix, QuantMatrix, QuantQuery, QuantRows};

/// Up to `max_rows` rows of width `dim`, each L2-normalized — the corpus
/// shape the quantized index is built for.
fn matrix_strategy(max_rows: usize, dim: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0f32..10.0, dim..=max_rows * dim).prop_map(move |mut v| {
        let rows = v.len() / dim;
        v.truncate(rows * dim);
        for row in v.chunks_mut(dim) {
            normalize(row);
        }
        Matrix::from_data(rows, dim, v)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With a beam at least as wide as the corpus, search is the exact
    /// top-k under the index's own int8 scores, ties to the lower id. At
    /// n ≤ 32 = 2·m no layer-0 list is ever pruned, so layer 0 stays
    /// connected and the beam visits every row.
    #[test]
    fn qhnsw_full_beam_is_exact(m in matrix_strategy(32, 4), k in 1usize..8) {
        let rows = QuantMatrix::from_matrix(&m);
        let q = QuantQuery::new(m.row(0));
        let mut exact: Vec<(u32, f32)> = (0..rows.rows())
            .map(|i| (i as u32, dot_q8(rows.row(i), q.weights(), rows.scale(i) * q.scale())))
            .collect();
        exact.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(Ordering::Equal).then(a.0.cmp(&b.0)));
        exact.truncate(k);
        let idx = QHnswIndex::build(rows, HnswConfig { ef_search: 32 });
        let approx: Vec<(u32, f32)> =
            idx.search(m.row(0), k).iter().map(|h| (h.id.0, h.score)).collect();
        prop_assert_eq!(approx, exact);
    }

    /// The index returns unique ids within bounds, sorted by score.
    #[test]
    fn results_are_wellformed(m in matrix_strategy(50, 4), k in 1usize..12) {
        let query: Vec<f32> = m.row(m.rows() / 2).to_vec();
        let idx = QHnswIndex::build(QuantMatrix::from_matrix(&m), HnswConfig::default());
        let hits = idx.search(&query, k);
        prop_assert!(hits.len() <= k, "returned too many");
        let mut seen = std::collections::HashSet::new();
        for w in hits.windows(2) {
            prop_assert!(w[0].score >= w[1].score, "unsorted");
        }
        for h in &hits {
            prop_assert!((h.id.0 as usize) < m.rows(), "id out of range");
            prop_assert!(seen.insert(h.id), "duplicate id");
        }
    }

    /// HNSW search never returns fewer than min(k, n) hits — the graph is
    /// connected enough to enumerate the corpus.
    #[test]
    fn hnsw_fills_k(m in matrix_strategy(40, 3), k in 1usize..10) {
        let idx = QHnswIndex::build(QuantMatrix::from_matrix(&m), HnswConfig { ef_search: 40 });
        let hits = idx.search(m.row(0), k);
        prop_assert_eq!(hits.len(), k.min(m.rows()));
    }
}
