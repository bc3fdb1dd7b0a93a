//! HNSW over int8 scale-per-row quantized vectors — the bounded-memory
//! scorer of the [`crate::hnsw`] graph core, built for the in-shard
//! cold-path indexes of `crates/serve` (DESIGN.md §11).
//!
//! The graph is [`Hnsw`] itself; this module only teaches it to score
//! [`QuantRows`] storage: nodes are scored with the quantized kernel
//! `dot_q8` (i32 accumulation, one rescale by `row_scale · query_scale`),
//! and the query is quantized once per search. Any [`QuantRows`] store
//! works, so the index can navigate an owned
//! [`sisg_embedding::QuantMatrix`] or score straight out of an encoded
//! blob (`sisg_embedding::codec::QuantBlob`) without a deserialization
//! pass.
//!
//! **No MIPS augmentation.** The f32 index augments vectors to equalize
//! norms because raw inner product is not navigable. This index instead
//! *assumes* near-uniform row norms — its intended corpus is the model's
//! L2-normalized item vectors (the rows the serving cosine scorers score,
//! which `crates/serve` normalizes one at a time before quantizing), where
//! inner product coincides with cosine and the geometry is navigable
//! as-is. Augmenting after quantization would waste a
//! coordinate's worth of precision for rows that are already unit-norm.
//!
//! Quantized scores carry a bounded perturbation (≤ half a scale per
//! element), so callers that need exact order re-rank the returned
//! candidates with the f32 kernels; `crates/serve` does exactly that.

use crate::hnsw::{Hnsw, RowStore};
use sisg_embedding::kernels::dot_q8;
use sisg_embedding::{QuantQuery, QuantRows};

pub use crate::hnsw::HnswConfig;

/// A [`QuantRows`] store as the graph's scorer.
#[derive(Debug)]
pub struct QuantStore<S>(S);

impl<S: QuantRows> RowStore for QuantStore<S> {
    fn n_rows(&self) -> usize {
        self.0.rows()
    }

    fn query_dim(&self) -> usize {
        self.0.dim()
    }

    fn query_scorer(&self, query: &[f32]) -> impl Fn(u32) -> f32 {
        let q = QuantQuery::new(query);
        move |row| {
            let i = row as usize;
            dot_q8(self.0.row(i), q.weights(), self.0.scale(i) * q.scale())
        }
    }

    fn row_scorer(&self, anchor: u32) -> impl Fn(u32) -> f32 {
        // The anchor's own quantized row is the query; its scale folds
        // into each per-row combined scale at score time.
        let a = anchor as usize;
        let (q, q_scale) = (self.0.row(a), self.0.scale(a));
        move |row| {
            let i = row as usize;
            dot_q8(self.0.row(i), q, self.0.scale(i) * q_scale)
        }
    }
}

/// The quantized index; owns its storage `S`.
pub type QHnswIndex<S> = Hnsw<QuantStore<S>>;

impl<S: QuantRows> Hnsw<QuantStore<S>> {
    /// Builds the graph by inserting the rows of `store` in id order.
    pub fn build(store: S, config: HnswConfig) -> Self {
        Self::from_store(QuantStore(store), config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnnIndex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sisg_corpus::TokenId;
    use sisg_embedding::codec::{encode_quant, QuantBlob};
    use sisg_embedding::math::normalize;
    use sisg_embedding::{retrieve_top_k, Matrix, QuantMatrix};

    /// Seeded random matrix with L2-normalized rows — the corpus shape
    /// this index is built for (see module docs).
    fn normalized_matrix(n: usize, dim: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data: Vec<f32> = (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        for row in data.chunks_mut(dim) {
            normalize(row);
        }
        Matrix::from_data(n, dim, data)
    }

    #[test]
    fn recall_at_10_beats_the_gate_on_a_seeded_corpus() {
        // The ISSUE-level gate: quantized HNSW recall@10 vs f32
        // brute-force ≥ 0.95 on a seeded corpus of normalized vectors.
        let n = 1000usize;
        let m = normalized_matrix(n, 16, 11);
        let idx = QHnswIndex::build(QuantMatrix::from_matrix(&m), HnswConfig::default());
        let mut hits = 0usize;
        let mut total = 0usize;
        for qi in (0..n).step_by(17) {
            let query = m.row(qi);
            let approx: Vec<u32> = idx.search(query, 10).iter().map(|h| h.id.0).collect();
            let exact = retrieve_top_k(query, &m, (0..n as u32).map(TokenId), 10, None);
            for e in exact {
                total += 1;
                if approx.contains(&e.token.0) {
                    hits += 1;
                }
            }
        }
        let recall = hits as f64 / total as f64;
        assert!(recall >= 0.95, "quantized recall@10 only {recall}");
    }

    #[test]
    fn owned_matrix_and_encoded_blob_score_identically() {
        // The zero-copy blob path is the same index: identical graph,
        // identical hits, bit-identical scores.
        let m = normalized_matrix(300, 8, 7);
        let qm = QuantMatrix::from_matrix(&m);
        let blob = QuantBlob::new(encode_quant(&qm)).expect("valid blob");
        let a = QHnswIndex::build(qm, HnswConfig::default());
        let b = QHnswIndex::build(blob, HnswConfig::default());
        for qi in [0usize, 13, 299] {
            let (ha, hops_a) = a.search_with_effort(m.row(qi), 5);
            let (hb, hops_b) = b.search_with_effort(m.row(qi), 5);
            assert_eq!(hops_a, hops_b);
            assert_eq!(ha.len(), hb.len());
            for (x, y) in ha.iter().zip(&hb) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.score.to_bits(), y.score.to_bits());
            }
        }
    }

    #[test]
    fn empty_and_singleton_indexes() {
        let empty = QHnswIndex::build(
            QuantMatrix::from_matrix(&Matrix::zeros(0, 4)),
            HnswConfig::default(),
        );
        assert!(empty.is_empty());
        assert!(empty.search(&[0.0; 4], 5).is_empty());
        let single = QHnswIndex::build(
            QuantMatrix::from_matrix(&normalized_matrix(1, 4, 3)),
            HnswConfig::default(),
        );
        let hits = single.search(&[0.1, 0.2, 0.3, 0.4], 5);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, TokenId(0));
    }

    #[test]
    fn link_bytes_and_effort_are_reported() {
        let m = normalized_matrix(300, 8, 4);
        let idx = QHnswIndex::build(
            QuantMatrix::from_matrix(&m),
            HnswConfig {
                m: 8,
                ..Default::default()
            },
        );
        assert!(idx.link_bytes() >= 300 * (2 * 8 + 2) * 4);
        let (hits, hops) = idx.search_with_effort(m.row(9), 5);
        assert_eq!(hits.len(), 5);
        assert!(hops >= 5, "beam search must score at least k nodes");
    }
}
