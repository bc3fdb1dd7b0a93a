//! Evaluation harness for every experiment in the paper.
//!
//! - [`hitrate`] — the offline next-item protocol and HR@K metric (Eq. 5,
//!   Table III);
//! - [`ctr`] — the online A/B simulation behind Figure 3: simulated users
//!   click through ranked candidate lists produced by competing matching
//!   models, with a position-biased click model grounded in the corpus
//!   generator's affinity structure;
//! - [`tsne`] — an exact (O(n²)) t-SNE implementation plus silhouette
//!   scoring for the Figure 5 user-type-embedding case study;
//! - [`report`] — text/JSON experiment tables shared by the bench binaries.

pub mod ctr;
pub mod hitrate;
pub mod metrics;
pub mod report;
pub mod significance;
pub mod tsne;

pub use ctr::{simulate_ab_test, CandidateSource, CtrConfig, CtrSeries};
pub use hitrate::{evaluate_hit_rates, HitRateResult, ItemRetriever};
pub use metrics::{evaluate_ranking, RankingReport};
pub use report::ExperimentTable;
pub use significance::{hit_indicators, paired_bootstrap, BootstrapResult};
pub use tsne::{knn_purity, silhouette, tsne_2d, TsneConfig};
