//! Dense embedding storage and retrieval.
//!
//! SGNS maintains two matrices: *input* vectors `v_i` (used when a token is
//! the target) and *output* vectors `v'_i` (used when it is the context).
//! SISG's asymmetric similarity (Section II-C) ranks "what follows item v"
//! by `input(v) · output(c)` rather than the usual input·input cosine, so
//! both matrices are first-class here and survive serialization.

pub mod codec;
pub mod kernels;
pub mod math;
pub mod matrix;
pub mod quant;
pub mod store;
mod topk;
pub mod word2vec;

pub use matrix::Matrix;
pub use quant::{quantize_row, QuantMatrix, QuantQuery, QuantRows};
pub use store::EmbeddingStore;
pub use topk::{retrieve_top_k, retrieve_top_k_q8, retrieve_top_k_scaled, Neighbor, TopK};
