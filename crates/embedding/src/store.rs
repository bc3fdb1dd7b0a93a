//! The paired input/output embedding store of an SGNS model.

use crate::matrix::Matrix;
use sisg_corpus::TokenId;

/// Input (`v_i`) and output (`v'_i`) embeddings for every token.
///
/// Initialization follows word2vec: input rows uniform in
/// `[-0.5/dim, 0.5/dim)`, output rows zero. The asymmetric similarity of
/// Section II-C reads `input(target) · output(candidate)`, so both matrices
/// are retained after training instead of discarding the output matrix as
/// symmetric pipelines do.
#[derive(Debug, Clone)]
pub struct EmbeddingStore {
    input: Matrix,
    output: Matrix,
}

impl EmbeddingStore {
    /// Allocates and initializes matrices for `n_tokens` tokens of
    /// dimensionality `dim`.
    pub fn new(n_tokens: usize, dim: usize, seed: u64) -> Self {
        Self {
            input: Matrix::uniform_init(n_tokens, dim, seed ^ 0x1297),
            output: Matrix::zeros(n_tokens, dim),
        }
    }

    /// Builds a store from existing matrices.
    ///
    /// # Panics
    /// Panics when the matrices disagree in shape.
    pub fn from_matrices(input: Matrix, output: Matrix) -> Self {
        assert_eq!(input.rows(), output.rows(), "row count mismatch");
        assert_eq!(input.dim(), output.dim(), "dim mismatch");
        Self { input, output }
    }

    /// Number of tokens.
    #[inline]
    pub fn n_tokens(&self) -> usize {
        self.input.rows()
    }

    /// Embedding dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.input.dim()
    }

    /// Input vector of `token`.
    #[inline]
    pub fn input(&self, token: TokenId) -> &[f32] {
        self.input.row(token.index())
    }

    /// Output vector of `token`.
    #[inline]
    pub fn output(&self, token: TokenId) -> &[f32] {
        self.output.row(token.index())
    }

    /// The input matrix.
    #[inline]
    pub fn input_matrix(&self) -> &Matrix {
        &self.input
    }

    /// The output matrix.
    #[inline]
    pub fn output_matrix(&self) -> &Matrix {
        &self.output
    }

    /// Mutable input matrix (single-threaded updates).
    #[inline]
    pub fn input_matrix_mut(&mut self) -> &mut Matrix {
        &mut self.input
    }

    /// Both matrices mutably at once — the entry point of the trainer,
    /// which needs simultaneous `&mut` access to input and output rows.
    #[inline]
    pub fn matrices_mut(&mut self) -> (&mut Matrix, &mut Matrix) {
        (&mut self.input, &mut self.output)
    }

    /// Splits into `(input, output)` matrices.
    pub fn into_matrices(self) -> (Matrix, Matrix) {
        (self.input, self.output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_shapes_and_values() {
        let s = EmbeddingStore::new(5, 4, 7);
        assert_eq!(s.n_tokens(), 5);
        assert_eq!(s.dim(), 4);
        assert!(s.output(TokenId(3)).iter().all(|&v| v == 0.0));
        assert!(s.input(TokenId(3)).iter().any(|&v| v != 0.0));
    }

    #[test]
    #[should_panic(expected = "row count mismatch")]
    fn mismatched_matrices_rejected() {
        let _ = EmbeddingStore::from_matrices(Matrix::zeros(2, 3), Matrix::zeros(3, 3));
    }

    #[test]
    fn deterministic_init() {
        let a = EmbeddingStore::new(4, 4, 5);
        let b = EmbeddingStore::new(4, 4, 5);
        assert_eq!(a.input(TokenId(2)), b.input(TokenId(2)));
    }
}
