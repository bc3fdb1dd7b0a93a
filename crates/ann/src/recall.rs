//! Recall@K of an ANN search against exact brute force — the metric by
//! which `ef_search` is tuned before an index is allowed to serve the
//! matching stage.

use crate::Hit;
use sisg_corpus::TokenId;
use sisg_embedding::{retrieve_top_k, Matrix};
use sisg_obs::{names, registry, Stopwatch};

/// Result of one recall evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct RecallReport {
    /// Evaluated cutoff.
    pub k: usize,
    /// Number of queries.
    pub queries: usize,
    /// Mean fraction of the exact top-K retrieved by the index.
    pub recall: f64,
    /// Mean index search latency (seconds/query).
    pub ann_seconds_per_query: f64,
    /// Mean brute-force latency (seconds/query).
    pub exact_seconds_per_query: f64,
}

/// Evaluates `search(query, k)` on the given query rows of `vectors`
/// against an exact scan of the same matrix.
pub fn recall_at_k(
    search: impl Fn(&[f32], usize) -> Vec<Hit>,
    vectors: &Matrix,
    query_rows: &[u32],
    k: usize,
) -> RecallReport {
    assert!(!query_rows.is_empty(), "need at least one query");
    let n = vectors.rows() as u32;
    let mut hits = 0usize;
    let mut total = 0usize;
    let mut ann_time = 0.0f64;
    let mut exact_time = 0.0f64;
    let probes = registry().counter(names::ANN_RECALL_PROBES_TOTAL);
    let true_hits = registry().counter(names::ANN_RECALL_HITS_TOTAL);
    for &q in query_rows {
        let query = vectors.row(q as usize);
        let t = Stopwatch::start();
        let approx = search(query, k);
        ann_time += t.elapsed_seconds();
        let t = Stopwatch::start();
        let exact = retrieve_top_k(query, vectors, (0..n).map(TokenId), k, None);
        exact_time += t.elapsed_seconds();
        // One ANN probe and one exact probe per query.
        probes.add(2);
        for e in exact {
            total += 1;
            if approx.iter().any(|h| h.id == e.token) {
                hits += 1;
            }
        }
    }
    true_hits.add(hits as u64);
    RecallReport {
        k,
        queries: query_rows.len(),
        recall: if total > 0 {
            hits as f64 / total as f64
        } else {
            0.0
        },
        ann_seconds_per_query: ann_time / query_rows.len() as f64,
        exact_seconds_per_query: exact_time / query_rows.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HnswConfig, QHnswIndex};
    use sisg_embedding::QuantMatrix;

    fn normalized_matrix(n: usize, dim: usize, seed: u64) -> Matrix {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data: Vec<f32> = (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        for row in data.chunks_mut(dim) {
            sisg_embedding::math::normalize(row);
        }
        Matrix::from_data(n, dim, data)
    }

    #[test]
    fn exact_index_has_perfect_recall() {
        // The brute-force scan itself, as a control.
        let m = normalized_matrix(150, 6, 1);
        let exact = |query: &[f32], k: usize| {
            retrieve_top_k(query, &m, (0..m.rows() as u32).map(TokenId), k, None)
                .into_iter()
                .map(|n| Hit {
                    id: n.token,
                    score: n.score,
                })
                .collect()
        };
        let report = recall_at_k(exact, &m, &[0, 10, 20], 5);
        assert!((report.recall - 1.0).abs() < 1e-12);
        assert_eq!(report.queries, 3);
    }

    #[test]
    fn a_wide_beam_beats_a_narrow_one() {
        // Recall@1: a beam of 1 is a greedy walk, which stalls short of
        // the query's own row on some probes.
        let m = normalized_matrix(2_000, 64, 2);
        let queries: Vec<u32> = (0..2_000).step_by(40).collect();
        let recall = |ef_search| {
            let index = QHnswIndex::build(QuantMatrix::from_matrix(&m), HnswConfig { ef_search });
            recall_at_k(|q, k| index.search(q, k), &m, &queries, 1).recall
        };
        let (narrow, wide) = (recall(1), recall(200));
        assert!(
            wide > narrow,
            "a wider beam must beat a greedy walk: {wide} vs {narrow}"
        );
        assert!(wide > 0.95, "an ef 200 beam should recall >0.95");
    }
}
