//! # taobao-sisg
//!
//! A from-scratch Rust reproduction of *"Billion-scale Recommendation with
//! Heterogeneous Side Information at Taobao"* (Pfadler et al., ICDE 2020):
//! the **SISG** framework, its distributed word2vec engine (TNS / ATNS /
//! HBGP), the **EGES** and **CF** baselines, a synthetic Taobao-like
//! workload generator, and the full evaluation harness that regenerates
//! every table and figure of the paper.
//!
//! This crate is the umbrella: it re-exports the workspace members so a
//! downstream user can depend on one crate. See the README for a tour and
//! `examples/` for runnable entry points:
//!
//! ```no_run
//! use taobao_sisg::corpus::{CorpusConfig, GeneratedCorpus, ItemId};
//! use taobao_sisg::core::{MatchingService, ServingConfig, SisgModel, Variant};
//! use taobao_sisg::sgns::SgnsConfig;
//!
//! let corpus = GeneratedCorpus::generate(CorpusConfig::scaled(2_000, 42));
//! let (model, _) = SisgModel::train(&corpus, Variant::SisgFUD, &SgnsConfig::default())
//!     .expect("valid config");
//! let clicks = corpus.sessions.item_clicks(corpus.config.n_items);
//! let svc = MatchingService::build(model, corpus.users.clone(), &clicks, ServingConfig::default())
//!     .expect("clicks cover the catalog");
//! // A warm item answers from its precomputed list, a cold one through
//! // Eq. (6) from its side information.
//! let item = ItemId(0);
//! for r in svc.candidates(item, corpus.catalog.si_values(item), 10).expect("catalog item") {
//!     println!("{:?} score {:.3}", r.item, r.score);
//! }
//! ```

#![warn(missing_docs)]

pub use sisg_ann as ann;
pub use sisg_cf as cf;
pub use sisg_core as core;
pub use sisg_corpus as corpus;
pub use sisg_distributed as distributed;
pub use sisg_eges as eges;
pub use sisg_embedding as embedding;
pub use sisg_eval as eval;
pub use sisg_serve as serve;
pub use sisg_sgns as sgns;
