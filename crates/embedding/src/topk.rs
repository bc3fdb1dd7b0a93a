//! Bounded top-K collection and brute-force nearest-neighbour retrieval.
//!
//! The matching stage retrieves, for a query vector, the K most similar item
//! vectors. At paper scale this runs behind an ANN index; at our scale an
//! exact scan with a bounded min-heap is both faster to verify and exact,
//! which matters when comparing model variants by HR@K.

use crate::kernels;
use crate::matrix::Matrix;
use crate::quant::{QuantMatrix, QuantQuery, QuantRows};
use sisg_corpus::TokenId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A retrieval hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// The retrieved token.
    pub token: TokenId,
    /// Its similarity score (higher is better).
    pub score: f32,
}

impl Eq for Neighbor {}

impl Ord for Neighbor {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse on score so BinaryHeap (a max-heap) pops the *worst* hit;
        // ties break on token id for determinism.
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.token.0.cmp(&other.token.0))
    }
}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A bounded collector keeping the `k` highest-scoring entries.
#[derive(Debug)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<Neighbor>,
}

impl TopK {
    /// Creates a collector for the best `k` entries. `k` may come straight
    /// from a request, so nothing is allocated by it alone: the heap grows
    /// with what is pushed and never holds more than `k` entries.
    pub fn new(k: usize) -> Self {
        Self::for_candidates(k, 0)
    }

    /// A collector for the best `k` of at least `offered` candidates,
    /// allocated once for `min(k, offered)` entries — never more than the
    /// caller already holds candidates for, whatever `k` a request names.
    pub fn for_candidates(k: usize, offered: usize) -> Self {
        Self {
            k,
            heap: BinaryHeap::with_capacity(k.min(offered)),
        }
    }

    /// Offers one candidate.
    #[inline]
    pub fn push(&mut self, token: TokenId, score: f32) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(Neighbor { token, score });
        } else if let Some(worst) = self.heap.peek() {
            // Ties at the boundary resolve toward the smaller token id so the
            // result is independent of candidate order.
            if score > worst.score || (score == worst.score && token.0 < worst.token.0) {
                self.heap.pop();
                self.heap.push(Neighbor { token, score });
            }
        }
    }

    /// Current number of kept entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing has been kept.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The worst currently-kept score, if the collector is full.
    #[inline]
    pub fn threshold(&self) -> Option<f32> {
        if self.heap.len() == self.k {
            self.heap.peek().map(|n| n.score)
        } else {
            None
        }
    }

    /// Finishes, returning hits in descending score order.
    pub fn into_sorted(self) -> Vec<Neighbor> {
        let mut v = self.heap.into_vec();
        v.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.token.0.cmp(&b.token.0))
        });
        v
    }
}

/// Scores every row of `matrix` in `candidates` against `query` by inner
/// product (cosine callers pre-normalize, or pass cached inverse norms to
/// [`retrieve_top_k_scaled`]) and returns the best `k`.
/// `exclude` is filtered out (typically the query item itself).
///
/// Candidates are scored four at a time through the interleaved ordered
/// dot kernel (DESIGN.md §8): each candidate's score is the plain serial
/// dot — position in the scan cannot change a score's bits — while the
/// four independent chains keep the FP units busy.
pub fn retrieve_top_k(
    query: &[f32],
    matrix: &Matrix,
    candidates: impl Iterator<Item = TokenId>,
    k: usize,
    exclude: Option<TokenId>,
) -> Vec<Neighbor> {
    scan(query, matrix, None, candidates, k, exclude)
}

/// [`retrieve_top_k`] over the rows of `matrix` each scaled by
/// `row_scales[row]` — cosine over raw rows given their cached `1/‖v‖`,
/// with no normalized copy of the matrix. A candidate's score is
/// bit-identical to `retrieve_top_k` over rows pre-scaled in place
/// ([`kernels::dot_ordered_scaled_x4`]).
///
/// # Panics
/// Panics when a candidate indexes past `row_scales`.
pub fn retrieve_top_k_scaled(
    query: &[f32],
    matrix: &Matrix,
    row_scales: &[f32],
    candidates: impl Iterator<Item = TokenId>,
    k: usize,
    exclude: Option<TokenId>,
) -> Vec<Neighbor> {
    scan(query, matrix, Some(row_scales), candidates, k, exclude)
}

/// The int8 counterpart of [`retrieve_top_k`]: the best `k` rows of
/// `matrix` by quantized inner product with `query`, scanning every row.
/// Row `i` scores `dot as f32 · (row_scale · query_scale)` from its exact
/// i32 dot ([`kernels::dot_q8_rows_i32`], a block of rows per call) — the
/// expression [`kernels::dot_q8`] computes, so the ranking is the one the
/// per-row kernel gives. Hits are ids `0..rows` with their int8 scores.
///
/// # Panics
/// Panics when the query's length differs from the matrix's `dim`.
pub fn retrieve_top_k_q8(query: &QuantQuery, matrix: &QuantMatrix, k: usize) -> Vec<Neighbor> {
    /// Rows per kernel call: their i32 dots fit a 1 KiB stack buffer.
    const BLOCK: usize = 256;
    let (dim, n) = (matrix.dim(), matrix.rows());
    let (weights, query_scale) = (query.weights(), query.scale());
    assert_eq!(weights.len(), dim, "length mismatch");
    let mut top = TopK::for_candidates(k, n);
    // The kept worst score once `top` is full: a row scoring below it
    // cannot enter, so most rows skip the heap.
    let mut floor = f32::NEG_INFINITY;
    let mut dots = [0i32; BLOCK];
    for start in (0..n).step_by(BLOCK) {
        let end = n.min(start + BLOCK);
        let dots = &mut dots[..end - start];
        kernels::dot_q8_rows_i32(&matrix.data()[start * dim..end * dim], weights, dots);
        for ((row, &dot), &scale) in (start..).zip(&*dots).zip(&matrix.scales()[start..end]) {
            let score = dot as f32 * (scale * query_scale);
            if score >= floor {
                top.push(TokenId(row as u32), score);
                floor = top.threshold().unwrap_or(f32::NEG_INFINITY);
            }
        }
    }
    top.into_sorted()
}

/// The one scan loop behind both f32 entry points; `row_scales` is `None`
/// for plain inner product.
fn scan(
    query: &[f32],
    matrix: &Matrix,
    row_scales: Option<&[f32]>,
    candidates: impl Iterator<Item = TokenId>,
    k: usize,
    exclude: Option<TokenId>,
) -> Vec<Neighbor> {
    let mut top = TopK::for_candidates(k, candidates.size_hint().0);
    let mut batch = [TokenId(0); 4];
    let mut n = 0;
    for token in candidates {
        if exclude == Some(token) {
            continue;
        }
        batch[n] = token;
        n += 1;
        if n == 4 {
            let rows = batch.map(|t| matrix.row(t.index()));
            let scores = match row_scales {
                None => kernels::dot_ordered_x4(rows, query),
                Some(s) => kernels::dot_ordered_scaled_x4(rows, batch.map(|t| s[t.index()]), query),
            };
            for (t, s) in batch.iter().zip(scores) {
                top.push(*t, s);
            }
            n = 0;
        }
    }
    for &token in &batch[..n] {
        let row = matrix.row(token.index());
        let score = match row_scales {
            None => kernels::dot_ordered(row, query),
            Some(s) => kernels::dot_ordered_scaled(row, s[token.index()], query),
        };
        top.push(token, score);
    }
    top.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_best_k() {
        let mut t = TopK::new(2);
        for (i, s) in [(0u32, 0.1f32), (1, 0.9), (2, 0.5), (3, 0.7)] {
            t.push(TokenId(i), s);
        }
        let hits = t.into_sorted();
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].token, TokenId(1));
        assert_eq!(hits[1].token, TokenId(3));
    }

    #[test]
    fn zero_k_keeps_nothing() {
        let mut t = TopK::new(0);
        t.push(TokenId(0), 1.0);
        assert!(t.is_empty());
    }

    #[test]
    fn request_sized_k_allocates_for_the_candidates_only() {
        // `usize::MAX` used to overflow `k + 1`; `1 << 45` entries used to
        // be allocated up front (and abort the process).
        let m = Matrix::uniform_init(5, 4, 1);
        for k in [usize::MAX, 1 << 45] {
            let hits = retrieve_top_k(m.row(0), &m, (0..5).map(TokenId), k, None);
            assert_eq!(hits.len(), 5);
            let mut t = TopK::new(k);
            t.push(TokenId(0), 1.0);
            assert_eq!(t.len(), 1);
        }
    }

    #[test]
    fn q8_scan_is_the_sorted_prefix_of_every_int8_score() {
        let rows = QuantMatrix::from_matrix(&Matrix::uniform_init(1_000, 64, 17));
        let query = QuantQuery::new(Matrix::uniform_init(1, 64, 23).row(0));
        let mut all: Vec<Neighbor> = (0..rows.rows())
            .map(|i| Neighbor {
                token: TokenId(i as u32),
                score: kernels::dot_q8(rows.row(i), query.weights(), rows.scale(i) * query.scale()),
            })
            .collect();
        all.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.token.0.cmp(&b.token.0)));
        for k in [0, 1, 10, 1_000, 5_000] {
            let got = retrieve_top_k_q8(&query, &rows, k);
            let want = &all[..k.min(all.len())];
            assert_eq!(got.len(), want.len(), "k={k}");
            for (g, w) in got.iter().zip(want) {
                assert_eq!(g.token, w.token, "k={k}");
                assert_eq!(g.score.to_bits(), w.score.to_bits(), "k={k}");
            }
        }
    }

    #[test]
    fn ties_break_deterministically() {
        let mut t = TopK::new(2);
        t.push(TokenId(5), 0.5);
        t.push(TokenId(1), 0.5);
        t.push(TokenId(3), 0.5);
        let hits = t.into_sorted();
        let ids: Vec<u32> = hits.iter().map(|n| n.token.0).collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn retrieval_excludes_query() {
        let m = Matrix::from_data(3, 2, vec![1.0, 0.0, 0.9, 0.1, 0.0, 1.0]);
        let hits = retrieve_top_k(&[1.0, 0.0], &m, (0..3).map(TokenId), 2, Some(TokenId(0)));
        assert_eq!(hits[0].token, TokenId(1));
        assert!(hits.iter().all(|n| n.token != TokenId(0)));
    }

    #[test]
    fn threshold_only_when_full() {
        let mut t = TopK::new(2);
        assert_eq!(t.threshold(), None);
        t.push(TokenId(0), 0.3);
        assert_eq!(t.threshold(), None);
        t.push(TokenId(1), 0.8);
        assert_eq!(t.threshold(), Some(0.3));
    }
}
