//! A flat row-major `f32` matrix: one contiguous `Vec<f32>`, row `i` the
//! embedding of token `i`.
//!
//! Training writes through `&mut Matrix` only: the single-threaded trainer
//! owns both matrices, and the Section III runtime (`crates/distributed`)
//! splits [`Matrix::as_mut_slice`] into disjoint row blocks its workers
//! own outright. No row is ever shared while it is written, so the type
//! holds plain `f32` values and nothing else.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sisg_corpus::TokenId;

/// A dense `rows × dim` matrix of `f32`.
#[derive(Clone)]
pub struct Matrix {
    data: Vec<f32>,
    rows: usize,
    dim: usize,
}

impl Matrix {
    /// Creates a zero matrix. `vec![0.0; n]` takes its buffer zeroed from
    /// the allocator and never writes it, so a large matrix costs no write
    /// pass, and no resident page for any row that is never written (an
    /// untrained output matrix, the rows of a served store nobody scores).
    pub fn zeros(rows: usize, dim: usize) -> Self {
        Self {
            data: vec![0.0f32; rows * dim],
            rows,
            dim,
        }
    }

    /// Creates a matrix with entries uniform in `[-0.5/dim, 0.5/dim)` — the
    /// standard word2vec input-matrix initialization.
    pub fn uniform_init(rows: usize, dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let half = 0.5 / dim as f32;
        let data: Vec<f32> = (0..rows * dim)
            .map(|_| rng.gen_range(-half..half))
            .collect();
        Self { data, rows, dim }
    }

    /// Builds a matrix from raw row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * dim`.
    pub fn from_data(rows: usize, dim: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * dim, "data length mismatch");
        Self { data, rows, dim }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Embedding dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `i` as an immutable slice.
    ///
    /// # Panics
    /// Panics when `i >= rows()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.rows, "row {i} out of bounds ({})", self.rows);
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Row `i` as a mutable slice.
    ///
    /// # Panics
    /// Panics when `i >= rows()`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert!(i < self.rows, "row {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The training scores of several rows at once:
    /// [`crate::kernels::dot_rows`] over this matrix's buffer —
    /// `out[k]` is `kernels::dot(self.row(rows[k]), v)`, bit for bit.
    ///
    /// # Panics
    /// Panics when `v.len() != dim()`, `out.len() != rows.len()`, or a row
    /// is out of bounds.
    #[inline]
    pub fn dot_rows(&self, rows: &[TokenId], v: &[f32], out: &mut [f32]) {
        assert_eq!(v.len(), self.dim, "length mismatch");
        crate::kernels::dot_rows(&self.data, rows, v, out);
    }

    /// The fused SGD steps of several rows at once:
    /// [`crate::kernels::fused_step_rows`] over this matrix's buffer —
    /// bit-identical to [`crate::kernels::fused_step`] on `rows[k]` with
    /// `gs[k]`, for `k` in order.
    ///
    /// # Panics
    /// Panics when `v.len() != dim()`, on any length mismatch, or when a
    /// row is out of bounds.
    #[inline]
    pub fn fused_step_rows(&mut self, rows: &[TokenId], gs: &[f32], v: &[f32], grad: &mut [f32]) {
        assert_eq!(v.len(), self.dim, "length mismatch");
        crate::kernels::fused_step_rows(&mut self.data, rows, gs, v, grad);
    }

    /// The full row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The full row-major buffer, mutable — it can be split into disjoint
    /// row blocks that threads own outright.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Drops every row from `rows` on, in place: no row is copied and the
    /// allocation keeps its size, so a later matrix of the original shape
    /// can reuse it once this one is freed.
    ///
    /// # Panics
    /// Panics when `rows > self.rows()`.
    pub fn truncate_rows(&mut self, rows: usize) {
        assert!(
            rows <= self.rows,
            "cannot grow {} rows to {rows}",
            self.rows
        );
        self.data.truncate(rows * self.dim);
        self.rows = rows;
    }
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Matrix")
            .field("rows", &self.rows)
            .field("dim", &self.dim)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncate_rows_keeps_the_leading_rows() {
        let mut m = Matrix::from_data(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        m.as_mut_slice()[5] = 7.0;
        m.truncate_rows(2);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        m.truncate_rows(0);
        assert!(m.as_slice().is_empty());
    }

    #[test]
    fn zeros_and_rows() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.dim(), 4);
        assert!(m.row(2).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn zeros_is_an_ordinary_zero_matrix() {
        // The buffer is taken zeroed from the allocator, never written:
        // every view must still read it as 0.0, bit for bit.
        let reference = Matrix::from_data(5, 3, vec![0.0; 15]);
        let mut m = Matrix::zeros(5, 3);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&m), bits(&reference));
        assert_eq!(bits(&m.clone()), bits(&reference));

        m.row_mut(3).copy_from_slice(&[1.0, -2.0, 3.5]);
        m.row_mut(0)[1] = 7.0;
        let copy = m.clone();
        for view in [&m, &copy] {
            assert_eq!(view.row(3), &[1.0, -2.0, 3.5]);
            assert_eq!(view.row(0), &[0.0, 7.0, 0.0]);
            assert_eq!(view.row(4), &[0.0; 3], "unwritten rows stay zero");
        }
        assert_eq!(m.as_slice().len(), 15);
    }

    #[test]
    fn zeros_with_an_empty_shape() {
        for (rows, dim) in [(0, 4), (4, 0), (0, 0)] {
            let m = Matrix::zeros(rows, dim);
            assert_eq!((m.rows(), m.dim()), (rows, dim));
            assert!(m.as_slice().is_empty());
            assert!(m.clone().as_slice().is_empty());
        }
        assert!(Matrix::zeros(4, 0).row(3).is_empty());
    }

    #[test]
    fn uniform_init_is_bounded_and_seeded() {
        let a = Matrix::uniform_init(10, 8, 1);
        let b = Matrix::uniform_init(10, 8, 1);
        let c = Matrix::uniform_init(10, 8, 2);
        assert_eq!(a.as_slice(), b.as_slice());
        assert_ne!(a.as_slice(), c.as_slice());
        let bound = 0.5 / 8.0;
        assert!(a.as_slice().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn row_mut_writes_are_visible() {
        let mut m = Matrix::zeros(2, 2);
        m.row_mut(1).copy_from_slice(&[1.0, 2.0]);
        assert_eq!(m.row(1), &[1.0, 2.0]);
        assert_eq!(m.row(0), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_out_of_bounds_panics() {
        let m = Matrix::zeros(1, 1);
        let _ = m.row(1);
    }
}
