//! Behavior-sequence data model and synthetic workload generation for the
//! SISG reproduction.
//!
//! The paper trains on user click sessions recorded at Taobao, enriched with
//! heterogeneous side information (SI): item metadata (category, shop, brand,
//! …) and user types (cross features of user metadata). This crate provides
//!
//! - the [`schema`] of item and user features (Table I of the paper),
//! - typed identifiers and the [`vocab::Vocab`] mapping every token
//!   (`item_42`, `leaf_category_1234`, `F_19-25_t1_t7`, …) to a dense id,
//! - [`session`] containers storing behavior sequences in flat CSR layout,
//! - an [`catalog::ItemCatalog`] assigning SI values to every item and a
//!   [`users::UserRegistry`] assigning demographics and user types to users,
//! - a [`generator`] producing synthetic corpora whose statistical shape
//!   (Zipfian popularity, category-coherent sessions, asymmetric transitions,
//!   informative SI) mirrors the Taobao datasets of Table II,
//! - [`stats`] reproducing the Table II dataset-statistics columns,
//! - the next-item train/validation/test [`split`] protocol of Section IV-A,
//!   and
//! - the [`stream`] module: sessions as timestamped [`stream::SessionEvent`]s
//!   in a replayable [`stream::EventLog`] — the seeded click-stream source of
//!   the online-learning pipeline (`crates/stream`).

pub mod catalog;
pub mod enrich;
pub mod generator;
pub mod io;
pub mod schema;
pub mod session;
pub mod split;
pub mod stats;
pub mod stream;
pub mod token;
pub mod users;
pub mod vocab;
pub mod zipf;

pub use catalog::ItemCatalog;
pub use enrich::{EnrichOptions, EnrichedCorpus};
pub use generator::{CorpusConfig, GeneratedCorpus};
pub use schema::ItemFeature;
pub use session::{Corpus, SessionRef};
pub use split::{NextItemSplit, SplitSequences};
pub use stats::DatasetStats;
pub use stream::{EventLog, SessionEvent};
pub use token::{ItemId, LeafCategoryId, TokenId, UserId, UserTypeId};
pub use users::UserRegistry;
pub use vocab::{Vocab, VocabBuilder};
