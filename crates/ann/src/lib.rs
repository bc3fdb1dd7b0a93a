//! Approximate nearest-neighbour retrieval for the matching stage.
//!
//! The paper's matching stage retrieves "a small number (thousands) of
//! items … out of roughly 1 billion" per click — at that scale similarity
//! search runs behind an ANN index, not a linear scan. This crate supplies
//! the one index the serve shards' cold paths run:
//!
//! - [`qhnsw`] — a Hierarchical Navigable Small World graph over int8
//!   scale-per-row quantized, L2-normalized rows ([`QHnswIndex`]);
//! - [`recall`] — recall@K against exact brute force, the metric by which
//!   `ef_search` is tuned.
//!
//! The index scores by **inner product** (higher = better) over unit-norm
//! rows, so it ranks by cosine, matching how `sisg_core`'s retrieval works.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod qhnsw;
pub mod recall;

pub use qhnsw::{HnswConfig, QHnswIndex};
pub use recall::{recall_at_k, RecallReport};

use sisg_corpus::TokenId;

/// A scored ANN hit (inner-product score, higher is better).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Row id of the hit (a token/item id).
    pub id: TokenId,
    /// Inner-product score.
    pub score: f32,
}
