//! Sharded, multi-threaded online matching engine for SISG.
//!
//! The paper serves the matching stage from precomputed top-K candidate
//! lists with two online cold-start fallbacks (Section IV-C). This crate
//! is that serving tier as a redesigned, panic-free API:
//!
//! - **Typed surface** — [`ServeRequest`] in, [`ServeResponse`] or
//!   [`ServeError`] out. Every fallible path returns `Result`; no panic is
//!   reachable from the public API (enforced by clippy's `unwrap_used`
//!   and `expect_used`, denied below, and `xtask lint`'s `no-assert`).
//! - **One answer path** — a [`ServingSnapshot`] keeps the built
//!   [`MatchingService`](sisg_core::MatchingService) whole and answers
//!   through it: warm lookups read its list table, cold answers are its
//!   own answer functions with this crate's retrieval behind the cache.
//! - **Item-routed worker pool** — [`ServeEngine::start`] spreads
//!   requests over worker threads, one queue each (item
//!   `i` → worker `i % n_shards`). Submission never blocks.
//! - **One shed rule** — every request claims one of its tenant's
//!   in-flight slots on the target shard and sheds with
//!   [`ServeError::SloBudgetExhausted`] when they are taken. The slot
//!   travels with the task and back with the answer, so every queued task
//!   holds one and the slots bound each queue's depth. An engine declared
//!   without a tenant table serves one implicit `default` tenant
//!   ([`TenantId::DEFAULT`]) holding every slot and the whole cache, so
//!   it reports a `serve.tenant.default.*` slice like any other tenant.
//! - **Admission-gated cold cache** — repeated cold-item (Eq. 6) and
//!   cold-user inferences are cached per worker behind a sighting-count
//!   admission gate, bit-identical to the uncached computation.
//! - **Epoch-pointer hot swap** — [`ServeEngine::install`] publishes a
//!   fresh snapshot with zero dropped in-flight requests; responses carry
//!   the epoch that answered them.
//!
//! Request accounting is one ledger in the obs registry: each request is
//! counted once, in its tenant's `serve.tenant.<label>.*` slice;
//! [`ServeEngine::stats`] sums this engine's slices, and [`ServeEngine::tenant_stats`]
//! reads them one by one.
//!
//! ```
//! use sisg_serve::{ServeEngine, ServeEngineConfig, ServeRequest};
//! use sisg_core::{MatchingService, ServingConfig, SisgModel, Variant};
//! use sisg_corpus::{CorpusConfig, GeneratedCorpus, ItemId};
//! use sisg_sgns::SgnsConfig;
//!
//! let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
//! let (model, _) = SisgModel::train(&corpus, Variant::SisgFU, &SgnsConfig {
//!     dim: 8, epochs: 1, ..Default::default()
//! })?;
//! let clicks = corpus.sessions.item_clicks(corpus.config.n_items);
//! let service = MatchingService::build(
//!     model, corpus.users.clone(), &clicks, ServingConfig::default(),
//! )?;
//! let engine = ServeEngine::start(service, ServeEngineConfig::builder().n_shards(2).build()?)?;
//! let item = ItemId(0);
//! let resp = engine.serve(ServeRequest::Candidates {
//!     item,
//!     si_values: *corpus.catalog.si_values(item),
//!     k: 10,
//! })?;
//! assert_eq!(resp.epoch, 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod api;
pub mod cache;
pub mod config;
pub mod engine;
mod metrics;
pub mod snapshot;

pub use api::{ServeError, ServeRequest, ServeResponse, TenantRequest};
pub use cache::{AdmissionCache, CacheKey};
pub use config::{
    ColdPathMode, ServeEngineConfig, ServeEngineConfigBuilder, TenantConfig, TenantId,
};
pub use engine::{EngineStats, PendingResponse, ServeEngine, ShardHold, TenantStats};
pub use snapshot::{ColdIndex, ServingSnapshot};
