//! int8 scale-per-row quantized embedding storage (DESIGN.md §11).
//!
//! Each row stores `dim` signed bytes plus one f32 scale: `scale =
//! max_abs / 127`, `q[d] = round(x[d] / scale)` clamped to `[-127, 127]`.
//! Dequantization is `q[d] * scale`, so per-element error is bounded by
//! `scale / 2` (round-to-nearest). Because SISG similarity is a pure dot
//! product, that bound translates directly into a bounded score
//! perturbation: `|dot(x, y) − s_x·s_y·dot_q8(qx, qy)| ≤ (s_x‖y‖₁ +
//! s_y‖x‖₁) / 2` — small enough that an f32 re-rank of the top candidates
//! recovers exact order (see `crates/ann::qhnsw`).
//!
//! [`QuantMatrix`] — owned, built by quantizing a [`Matrix`] row by row —
//! is read through the [`QuantRows`] accessor trait.
//!
//! The hot accessors are whole-row slices, never per-element calls, so
//! scoring loops stay vectorizable.

use crate::matrix::Matrix;

/// Row-oriented access to int8-quantized vectors — the interface the
/// quantized kernels and the int8 HNSW of `crates/ann` score against.
pub trait QuantRows {
    /// Number of rows.
    fn rows(&self) -> usize;
    /// Elements per row.
    fn dim(&self) -> usize;
    /// Quantized row `i` as a contiguous byte slice.
    fn row(&self, i: usize) -> &[i8];
    /// Dequantization scale of row `i`.
    fn scale(&self, i: usize) -> f32;

    /// Heap bytes per item for the quantized payload (`dim` bytes of
    /// weights + 4 bytes of scale), independent of storage shape.
    fn bytes_per_row(&self) -> usize {
        self.dim() + std::mem::size_of::<f32>()
    }
}

/// Quantizes one row into `out`, returning the scale. `out.len()` must
/// equal `row.len()`.
///
/// An all-zero row quantizes to scale `0.0` and all-zero bytes;
/// dequantization maps it back to exact zeros.
///
/// # Panics
/// Panics when the slices differ in length.
pub fn quantize_row(row: &[f32], out: &mut [i8]) -> f32 {
    assert_eq!(row.len(), out.len(), "length mismatch");
    let mut max_abs = 0.0f32;
    for &v in row {
        let a = v.abs();
        if a > max_abs {
            max_abs = a;
        }
    }
    if max_abs == 0.0 || !max_abs.is_finite() {
        out.fill(0);
        return 0.0;
    }
    let scale = max_abs / 127.0;
    let inv = 127.0 / max_abs;
    for (slot, &v) in out.iter_mut().zip(row) {
        *slot = (v * inv).round().clamp(-127.0, 127.0) as i8;
    }
    scale
}

/// An owned int8 scale-per-row quantized matrix.
#[derive(Debug, Clone)]
pub struct QuantMatrix {
    data: Box<[i8]>,
    scales: Box<[f32]>,
    rows: usize,
    dim: usize,
}

impl QuantMatrix {
    /// Quantizes every row of `m`.
    pub fn from_matrix(m: &Matrix) -> Self {
        Self::from_rows(m.rows(), m.dim(), |i| m.row(i))
    }

    /// Quantizes `rows` rows of width `dim` produced by `row_at`.
    ///
    /// # Panics
    /// Panics when any produced row's length differs from `dim`.
    pub fn from_rows<'a>(rows: usize, dim: usize, row_at: impl Fn(usize) -> &'a [f32]) -> Self {
        let mut data = vec![0i8; rows * dim].into_boxed_slice();
        let mut scales = vec![0.0f32; rows].into_boxed_slice();
        for i in 0..rows {
            scales[i] = quantize_row(row_at(i), &mut data[i * dim..(i + 1) * dim]);
        }
        Self {
            data,
            scales,
            rows,
            dim,
        }
    }

    /// Rebuilds from raw parts (the codec's owned-decode path).
    ///
    /// # Panics
    /// Panics when `data.len() != rows * dim` or `scales.len() != rows`.
    pub fn from_parts(rows: usize, dim: usize, data: Vec<i8>, scales: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * dim, "length mismatch");
        assert_eq!(scales.len(), rows, "length mismatch");
        Self {
            data: data.into_boxed_slice(),
            scales: scales.into_boxed_slice(),
            rows,
            dim,
        }
    }

    /// All quantized weights, row-major.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// Per-row scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }
}

impl QuantRows for QuantMatrix {
    fn rows(&self) -> usize {
        self.rows
    }

    fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    fn row(&self, i: usize) -> &[i8] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    #[inline]
    fn scale(&self, i: usize) -> f32 {
        self.scales[i]
    }
}

/// One quantized query vector, ready to score against a [`QuantRows`]
/// store with [`crate::kernels::dot_q8`].
#[derive(Debug, Clone)]
pub struct QuantQuery {
    q: Vec<i8>,
    scale: f32,
}

impl QuantQuery {
    /// Quantizes `query` once; reuse across every row it scores.
    pub fn new(query: &[f32]) -> Self {
        let mut q = vec![0i8; query.len()];
        let scale = quantize_row(query, &mut q);
        Self { q, scale }
    }

    /// The quantized weights.
    #[inline]
    pub fn weights(&self) -> &[i8] {
        &self.q
    }

    /// The query's dequantization scale.
    #[inline]
    pub fn scale(&self) -> f32 {
        self.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Dequantizes a row produced by [`quantize_row`] into `out`.
    fn dequantize_row(q: &[i8], scale: f32, out: &mut [f32]) {
        assert_eq!(q.len(), out.len(), "length mismatch");
        for (slot, &b) in out.iter_mut().zip(q) {
            *slot = b as f32 * scale;
        }
    }

    #[test]
    fn zero_row_roundtrips_exactly() {
        let row = [0.0f32; 9];
        let mut q = [0i8; 9];
        let scale = quantize_row(&row, &mut q);
        assert_eq!(scale, 0.0);
        let mut back = [1.0f32; 9];
        dequantize_row(&q, scale, &mut back);
        assert_eq!(back, [0.0f32; 9]);
    }

    #[test]
    fn max_abs_element_hits_127() {
        let row = [0.5f32, -2.0, 1.0];
        let mut q = [0i8; 3];
        let scale = quantize_row(&row, &mut q);
        assert_eq!(q[1], -127);
        assert!((scale - 2.0 / 127.0).abs() < 1e-9);
    }

    #[test]
    fn quant_matrix_matches_per_row_quantization() {
        let m = Matrix::uniform_init(13, 7, 5);
        let qm = QuantMatrix::from_matrix(&m);
        assert_eq!(qm.rows(), 13);
        assert_eq!(qm.dim(), 7);
        assert_eq!(qm.bytes_per_row(), 11);
        for i in 0..13 {
            let mut q = vec![0i8; 7];
            let s = quantize_row(m.row(i), &mut q);
            assert_eq!(qm.row(i), &q[..]);
            assert_eq!(qm.scale(i).to_bits(), s.to_bits());
        }
    }

    proptest! {
        // The ISSUE-level contract: per-element reconstruction error is
        // bounded by half the row scale (round-to-nearest), with a hair of
        // slack for the f32 arithmetic in the bound itself.
        #[test]
        fn roundtrip_error_is_at_most_half_scale(
            row in proptest::collection::vec(-100.0f32..100.0, 1..64)
        ) {
            let mut q = vec![0i8; row.len()];
            let scale = quantize_row(&row, &mut q);
            let mut back = vec![0.0f32; row.len()];
            dequantize_row(&q, scale, &mut back);
            let bound = scale as f64 * 0.5 * (1.0 + 1e-5);
            for (&x, &y) in row.iter().zip(&back) {
                let err = (x as f64 - y as f64).abs();
                prop_assert!(
                    err <= bound,
                    "err {err} exceeds scale/2 = {bound} (x={x}, y={y})"
                );
            }
        }

        #[test]
        fn quantized_weights_stay_in_symmetric_range(
            row in proptest::collection::vec(-1e6f32..1e6, 1..32)
        ) {
            let mut q = vec![0i8; row.len()];
            quantize_row(&row, &mut q);
            for &b in &q {
                prop_assert!((-127..=127).contains(&(b as i32)));
            }
        }
    }
}
