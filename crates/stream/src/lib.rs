//! Streaming ingestion and online learning for SISG.
//!
//! The paper's deployment is a *live* system: click sessions stream in
//! continuously, fold into the embedding model, and the matching service
//! must serve the updated vectors — not last night's batch. This crate
//! closes that loop over the existing components:
//!
//! ```text
//! EventLog ── batches ──▶ IngestPipeline ── train_into ──▶ EmbeddingStore
//!                              │                                │
//!                              └── every `publish_every` batches┘
//!                                        freeze → ServingSnapshot
//!                                               │
//!                                   ServeEngine::install (hot swap)
//! ```
//!
//! - [`IngestPipeline`] consumes batches of
//!   [`SessionEvent`](sisg_corpus::SessionEvent)s from a seeded
//!   [`EventLog`](sisg_corpus::EventLog), folds them into cumulative
//!   frequency/click tables, admits new vocabulary through the SI
//!   enrichment path, and trains the shared store incrementally at a flat
//!   learning rate (`sisg_sgns::train_into` with the decay floor pinned to
//!   the base rate).
//! - Every `publish_every` batches it freezes a
//!   [`MatchingService`](sisg_core::MatchingService), wraps it in a
//!   [`ServingSnapshot`](sisg_serve::ServingSnapshot), and publishes it
//!   through [`ServeEngine::install`](sisg_serve::ServeEngine) — the
//!   epoch-pointer hot swap, now with a producer.
//! - [`IngestPipeline::run_replay`] drives the whole loop under the log's
//!   **virtual clock**: single-threaded, seeded, bit-reproducible — two
//!   runs of the same plan produce byte-identical snapshot codecs and the
//!   same [`ReplayOutcome::trace_hash`] (the PR-4 simulation discipline).
//!   It is the only driver in this crate; the benchmark's `stream_fresh`
//!   workload calls the same `warm_start` / `ingest_batch` / `publish`
//!   stages on its own wall clock.
//!
//! The drift rules (how online tables relate to a from-scratch build over
//! the same prefix) are documented in DESIGN.md §12 and property-tested in
//! this crate's test suite.

#![warn(missing_docs)]

mod metrics;
pub mod pipeline;
pub mod trace;

pub use pipeline::{IngestPipeline, ReplayOutcome, StreamConfig};
pub use trace::store_checksum;

use sisg_core::CoreError;
use sisg_corpus::{ItemId, UserId};
use sisg_serve::ServeError;

/// Every way the streaming pipeline can fail. No panic is reachable from
/// the public API (`crates/stream/src/pipeline.rs` is on the xtask
/// panic-free list).
#[derive(Debug)]
#[non_exhaustive]
pub enum StreamError {
    /// A model/service build step rejected its inputs.
    Rejected(CoreError),
    /// The serve engine refused a publication or probe.
    Serve(ServeError),
    /// The stream configuration is structurally invalid.
    InvalidConfig {
        /// The offending field.
        field: &'static str,
        /// Why it was rejected.
        reason: &'static str,
    },
    /// The embedded SGNS hyper-parameters failed validation.
    Sgns(String),
    /// A session clicked an item outside the pipeline's catalog. The whole
    /// batch was rejected before any state changed.
    UnknownItem {
        /// The offending item id.
        item: ItemId,
        /// Items in the catalog; valid ids are below this.
        n_items: u32,
    },
    /// A session came from a user outside the pipeline's registry. The
    /// whole batch was rejected before any state changed.
    UnknownUser {
        /// The offending user id.
        user: UserId,
        /// Users in the registry; valid ids are below this.
        n_users: u32,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Rejected(e) => write!(f, "stream build step rejected: {e}"),
            StreamError::Serve(e) => write!(f, "stream publication failed: {e}"),
            StreamError::InvalidConfig { field, reason } => {
                write!(f, "invalid stream config: {field} {reason}")
            }
            StreamError::Sgns(reason) => write!(f, "invalid sgns config: {reason}"),
            StreamError::UnknownItem { item, n_items } => {
                write!(
                    f,
                    "event clicks item {item}, outside a catalog of {n_items}"
                )
            }
            StreamError::UnknownUser { user, n_users } => {
                write!(f, "event from user {user}, outside a registry of {n_users}")
            }
        }
    }
}

impl std::error::Error for StreamError {}

impl From<CoreError> for StreamError {
    fn from(e: CoreError) -> Self {
        StreamError::Rejected(e)
    }
}

impl From<ServeError> for StreamError {
    fn from(e: ServeError) -> Self {
        StreamError::Serve(e)
    }
}
