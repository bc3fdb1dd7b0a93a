//! A from-scratch word2vec engine: Skip-Gram with Negative Sampling (SGNS).
//!
//! The paper's key practicability claim is that SISG training "may in
//! principle be implemented using any word2vec implementation"
//! (Section I) — the enriched sequences of Eq. (4) are ordinary token
//! sequences. This crate is that word2vec implementation: it knows nothing
//! about items, SI, or user types; it trains input/output embeddings over
//! [`sisg_corpus::TokenId`] sequences.
//!
//! Components (all per the original word2vec recipe, Section II-A and
//! Section III-C of the paper):
//!
//! - [`noise::NoiseTable`] — the unigram^α negative-sampling distribution
//!   (`α = 0.75`, the paper's "standard choice"), via Walker alias sampling;
//! - [`sampler`] — window pair sampling, symmetric or right-context-only
//!   (the `-D` directional variants of Section II-C), plus Mikolov
//!   frequency subsampling, run over a sequence source by the one
//!   [`stream::PairStream`] every trainer (sgns, TNS, EGES) draws from;
//! - [`sigmoid::SigmoidTable`] — the classic 1000-entry σ lookup table;
//! - [`sgd`] — Algorithm 1's inner loop, written once: [`sgd::steps`] over
//!   the [`sgd::OutputRows`] access trait (`&mut Matrix`, or a Section III
//!   worker's own row block). The EGES baseline and both distributed TNS
//!   engines call the same function;
//! - [`trainer`] — the two entry points ([`train`] from scratch,
//!   [`train_into`] from an existing store, which is also the stream's
//!   per-batch fold) over one run set-up (`EpochContext`) and one
//!   learning-rate schedule ([`linear_lr`]): one exact, single-threaded
//!   trainer, bit-reproducible run to run. Parallel training (paper
//!   Section III) is `crates/distributed`.

pub mod config;
pub mod noise;
pub mod sampler;
pub mod sgd;
pub mod sigmoid;
pub mod stream;
pub mod trainer;

pub use config::SgnsConfig;
pub use noise::NoiseTable;
pub use sampler::{PairSampler, SubsampleTable, WindowMode};
pub use sgd::PairScratch;
pub use stream::{PairKinds, PairStream};
pub use trainer::{count_freqs, linear_lr, train, train_into, Sequences, TrainStats};
