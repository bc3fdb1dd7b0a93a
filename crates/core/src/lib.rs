//! SISG — the Side-Information-enhanced Skip-Gram framework of
//! *"Billion-scale Recommendation with Heterogeneous Side Information at
//! Taobao"* (ICDE 2020).
//!
//! The framework is deliberately thin (that is its "practicability" selling
//! point): behavior sequences are enriched with item SI tokens and user-type
//! tokens (Eq. 4, implemented in [`sisg_corpus::enrich`]), fed to a standard
//! SGNS engine ([`sisg_sgns`]), and item similarity is read off the learned
//! vectors — by cosine for symmetric variants, or by the asymmetric
//! `input·output` product for the directional (`-D`) variants
//! (Section II-C).
//!
//! This crate provides:
//!
//! - [`variants::Variant`] — the six model variants of Table III
//!   (`SGNS`, `SISG-F`, `SISG-U`, `SISG-F-U`, `SISG-F-U-D`, plus the extra
//!   `SISG-D` ablation);
//! - [`model::SisgModel`] — training plus item-to-item retrieval in the
//!   joint semantic space;
//! - [`cold_start`] — the query vectors of Section IV-C: Eq. (6) for a cold
//!   item, averaged user-type vectors for a cold user;
//! - [`serving::MatchingService`] — the matching stage: precomputed top-K
//!   lists for warm items and the one answer rule behind every cold
//!   query.

#![warn(missing_docs)]

pub mod cold_start;
pub mod error;
pub mod interop;
pub mod model;
pub mod serving;
pub mod variants;

pub use cold_start::SiAggregation;
pub use error::CoreError;
pub use model::{SisgModel, SisgTrainReport};
pub use serving::{MatchingService, Recommendation, ServingConfig};
pub use variants::{SimilarityMode, Variant};
