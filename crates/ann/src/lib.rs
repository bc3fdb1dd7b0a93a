//! Approximate nearest-neighbour retrieval for the matching stage.
//!
//! The paper's matching stage retrieves "a small number (thousands) of
//! items … out of roughly 1 billion" per click — at that scale similarity
//! search runs behind an ANN index, not a linear scan. This crate supplies
//! the substrate a production deployment of SISG would sit on:
//!
//! - [`mod@kmeans`] — seeded Lloyd's k-means over embedding rows (also the
//!   coarse quantizer for IVF);
//! - [`ivf`] — an IVF-Flat index: cluster the vectors, probe the `nprobe`
//!   nearest cells at query time, scan those exactly;
//! - [`hnsw`] — the Hierarchical Navigable Small World graph, one generic
//!   core ([`Hnsw`]) over a [`RowStore`] scorer, and its f32 store;
//! - [`qhnsw`] — the int8 scale-per-row store for that core, the
//!   bounded-memory variant behind the serve shards' cold paths;
//! - [`recall`] — recall@K against exact brute force, the metric by which
//!   index parameters are tuned.
//!
//! All indexes score by **inner product** (higher = better); cosine callers
//! pre-normalize rows, matching how `sisg_core`'s retrieval works.

#![warn(missing_docs)]

pub mod hnsw;
pub mod ivf;
pub mod kmeans;
pub mod qhnsw;
pub mod recall;

pub use hnsw::{Hnsw, HnswConfig, HnswIndex, RowStore};
pub use ivf::{IvfConfig, IvfIndex};
pub use kmeans::{kmeans, KmeansConfig, KmeansResult};
pub use qhnsw::QHnswIndex;
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

/// Common interface of the retrieval indexes, mirroring the exact scan in
/// `sisg_embedding::retrieve_top_k`.
pub trait AnnIndex {
    /// The `k` (approximately) best rows for `query`, best first.
    fn search(&self, query: &[f32], k: usize) -> Vec<Hit>;

    /// Number of indexed vectors.
    fn len(&self) -> usize;

    /// True when the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
