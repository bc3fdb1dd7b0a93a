//! The production training pipeline, Section III-C — the four preparation
//! stages as explicit, inspectable artifacts:
//!
//! 1. transform item sequences into enriched sequences `S̃` (Eq. 4);
//! 2. count token frequencies into the dictionary `D`;
//! 3. partition `D` into `(P_1, …, P_w)` — items via HBGP, SI and user
//!    types randomly;
//! 4. determine the shared set `Q` of tokens above a frequency threshold
//!    ("usually … the most common SI features such as age, gender, color").
//!
//! [`TrainingPipeline::prepare`] builds all four (stage 1 as a view that
//! expands `S̃` one sequence at a time); [`TrainingPipeline::train`]
//! then runs Algorithm 1 on them. The staged form exists so deployments
//! can checkpoint between stages and operators can inspect the partition
//! and hot set before committing a cluster to a 13-hour run.
//!
//! [`TrainingPipeline::checkpoint`] captures the stage-boundary artifacts
//! as a [`PipelineCheckpoint`]; [`TrainingPipeline::resume`] rebuilds a
//! pipeline from one after a coordinator crash, revalidating that the
//! regenerated corpus still matches the fingerprint the partition was
//! computed for (DESIGN.md §9).

use crate::hotset::HotSet;
use crate::partition::PartitionMap;
use crate::recovery::{enriched_fingerprint, record_recovery, PipelineCheckpoint};
use crate::runtime::{build_partition, train_run, DistConfig};
use crate::tns::TnsRun;
use crate::DistReport;
use sisg_corpus::{EnrichOptions, EnrichedCorpus, GeneratedCorpus};
use sisg_embedding::EmbeddingStore;
use std::borrow::Cow;

/// The artifacts of stages 1–4.
pub struct TrainingPipeline<'a> {
    corpus: &'a GeneratedCorpus,
    config: DistConfig,
    /// Stage 1: the enriched sequences `S̃`, a view over the corpus's clicks
    /// that expands one sequence at a time into a reader's buffer; no
    /// enriched token array exists. Owns stage 2's dictionary.
    pub enriched: EnrichedCorpus<'a>,
    /// Stage 3: the token partition map.
    pub partition: PartitionMap,
    /// Stage 4: the shared hot set `Q`.
    pub hot_set: HotSet,
}

impl<'a> TrainingPipeline<'a> {
    /// Runs stages 1–4.
    pub fn prepare(
        corpus: &'a GeneratedCorpus,
        options: EnrichOptions,
        config: DistConfig,
    ) -> Self {
        // Stage 1 + 2: enrichment carries the counted dictionary.
        let enriched = EnrichedCorpus::build(corpus, options);
        // Stage 3: partition the dictionary.
        let partition =
            build_partition(&config, &corpus.sessions, &corpus.catalog, enriched.space());
        // Stage 4: the shared set Q.
        let hot_set = HotSet::top_k(enriched.vocab(), config.hot_set_size);
        Self {
            corpus,
            config,
            enriched,
            partition,
            hot_set,
        }
    }

    /// Captures the stage-boundary artifacts for persistence between the
    /// preparation stages and training.
    pub fn checkpoint(&self) -> PipelineCheckpoint {
        PipelineCheckpoint {
            workers: self.config.workers as u32,
            enriched_fingerprint: enriched_fingerprint(&self.enriched),
            owners: self.partition.owners().to_vec(),
            hot_tokens: self.hot_set.tokens().to_vec(),
        }
    }

    /// Rebuilds a pipeline from a stage-boundary checkpoint after a
    /// coordinator crash: stages 1–2 are recomputed (they are deterministic
    /// in the corpus), then revalidated against the checkpoint fingerprint;
    /// stages 3–4 are restored verbatim, skipping HBGP.
    pub fn resume(
        corpus: &'a GeneratedCorpus,
        options: EnrichOptions,
        config: DistConfig,
        ck: &PipelineCheckpoint,
    ) -> Result<Self, ResumeError> {
        if ck.workers as usize != config.workers {
            return Err(ResumeError::WorkerMismatch {
                checkpoint: ck.workers as usize,
                config: config.workers,
            });
        }
        let enriched = EnrichedCorpus::build(corpus, options);
        let fp = enriched_fingerprint(&enriched);
        if fp != ck.enriched_fingerprint {
            return Err(ResumeError::CorpusMismatch {
                checkpoint: ck.enriched_fingerprint,
                rebuilt: fp,
            });
        }
        if ck.owners.len() != enriched.space().len() {
            return Err(ResumeError::PartitionMismatch {
                checkpoint: ck.owners.len(),
                space: enriched.space().len(),
            });
        }
        // The checkpoint decoded, but its bytes come from disk: what
        // `PartitionMap::new` asserts and `HotSet::from_tokens` indexes
        // unchecked is checked here first.
        let corrupt = |artifact, index| ResumeError::CorruptArtifact { artifact, index };
        if let Some(i) = ck.owners.iter().position(|&o| o as usize >= config.workers) {
            return Err(corrupt("partition", i));
        }
        let mut seen = vec![false; enriched.space().len()];
        for (i, t) in ck.hot_tokens.iter().enumerate() {
            match seen.get_mut(t.index()) {
                Some(slot) if !*slot => *slot = true,
                _ => return Err(corrupt("hot set", i)),
            }
        }
        let partition = PartitionMap::new(ck.owners.clone(), config.workers);
        let hot_set = HotSet::from_tokens(enriched.space().len(), ck.hot_tokens.clone());
        record_recovery();
        Ok(Self {
            corpus,
            config,
            enriched,
            partition,
            hot_set,
        })
    }

    /// Pre-flight summary an operator would check before training: expected
    /// cut fraction, load imbalance, hot-set composition.
    pub fn preflight(&self) -> PipelinePreflight {
        let n_items = self.enriched.space().n_items() as usize;
        let item_freqs = &self.enriched.vocab().freqs()[..n_items];
        let hot_si = self
            .hot_set
            .tokens()
            .iter()
            .filter(|t| !self.enriched.space().is_item(**t))
            .count();
        PipelinePreflight {
            workers: self.config.workers,
            tokens: self.enriched.total_tokens(),
            vocab_size: self.enriched.vocab().len(),
            cut_fraction: self.partition.cut_fraction(&self.corpus.sessions),
            item_load_imbalance: self.partition.imbalance(item_freqs),
            hot_set_size: self.hot_set.len(),
            hot_set_si_fraction: if self.hot_set.is_empty() {
                0.0
            } else {
                hot_si as f64 / self.hot_set.len() as f64
            },
        }
    }

    /// Runs Algorithm 1 over the prepared artifacts. The run uses the
    /// pipeline's own partition and hot set, so a resumed pipeline trains
    /// on exactly the checkpointed stage-3/4 plan.
    pub fn train(&self) -> (EmbeddingStore, DistReport) {
        let (partition, hot) = (Cow::Borrowed(&self.partition), Cow::Borrowed(&self.hot_set));
        train_run(&TnsRun::build(&self.enriched, &self.config, partition, hot))
    }
}

/// Why a [`TrainingPipeline::resume`] was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// The checkpoint was made for a different worker count.
    WorkerMismatch {
        /// Worker count recorded in the checkpoint.
        checkpoint: usize,
        /// Worker count in the resuming config.
        config: usize,
    },
    /// The rebuilt enriched corpus no longer matches the fingerprint the
    /// partition was computed for.
    CorpusMismatch {
        /// Fingerprint recorded in the checkpoint.
        checkpoint: u64,
        /// Fingerprint of the rebuilt corpus.
        rebuilt: u64,
    },
    /// The checkpointed ownership vector covers a different token space.
    PartitionMismatch {
        /// Token count covered by the checkpoint.
        checkpoint: usize,
        /// Token count of the rebuilt space.
        space: usize,
    },
    /// A checkpointed stage-3/4 artifact decoded but is not a valid plan:
    /// an owner that is not a worker, or a hot token outside the token
    /// space or listed twice.
    CorruptArtifact {
        /// Which artifact: `"partition"` or `"hot set"`.
        artifact: &'static str,
        /// Index of the first offending entry.
        index: usize,
    },
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::WorkerMismatch { checkpoint, config } => write!(
                f,
                "checkpoint made for {checkpoint} workers, config has {config}"
            ),
            ResumeError::CorpusMismatch {
                checkpoint,
                rebuilt,
            } => write!(
                f,
                "enriched corpus fingerprint {rebuilt:#x} differs from checkpointed {checkpoint:#x}"
            ),
            ResumeError::PartitionMismatch { checkpoint, space } => write!(
                f,
                "checkpoint covers {checkpoint} tokens, rebuilt space has {space}"
            ),
            ResumeError::CorruptArtifact { artifact, index } => write!(
                f,
                "checkpointed {artifact} entry {index} is out of range or repeated"
            ),
        }
    }
}

impl std::error::Error for ResumeError {}

/// The operator-facing summary of a prepared pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelinePreflight {
    /// Worker count the plan was made for.
    pub workers: usize,
    /// Total enriched tokens (the corpus-size axis of Figure 7(b)).
    pub tokens: u64,
    /// Dictionary size.
    pub vocab_size: usize,
    /// Fraction of adjacent transitions crossing workers.
    pub cut_fraction: f64,
    /// Max/mean per-worker item-frequency load.
    pub item_load_imbalance: f64,
    /// |Q|.
    pub hot_set_size: usize,
    /// Fraction of `Q` that is SI/user-type tokens (the paper expects this
    /// to be most of it).
    pub hot_set_si_fraction: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::PartitionStrategy;
    use sisg_corpus::CorpusConfig;

    fn config() -> DistConfig {
        DistConfig {
            workers: 4,
            dim: 8,
            window: 3,
            negatives: 2,
            epochs: 1,
            hot_set_size: 64,
            sync_interval: 500,
            ..Default::default()
        }
    }

    #[test]
    fn preflight_reports_sane_numbers() {
        let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
        let pipeline = TrainingPipeline::prepare(&corpus, EnrichOptions::FULL, config());
        let pf = pipeline.preflight();
        assert_eq!(pf.workers, 4);
        assert!(pf.tokens > corpus.sessions.total_clicks());
        assert!(pf.vocab_size > corpus.config.n_items as usize);
        assert!((0.0..=1.0).contains(&pf.cut_fraction));
        assert!(pf.item_load_imbalance >= 1.0);
        assert_eq!(pf.hot_set_size, 64);
        // On a fully enriched corpus the hot set is dominated by SI — the
        // paper's stage-4 observation.
        assert!(
            pf.hot_set_si_fraction > 0.5,
            "hot set should be mostly SI, got {}",
            pf.hot_set_si_fraction
        );
    }

    #[test]
    fn staged_training_produces_usable_store() {
        let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
        let pipeline = TrainingPipeline::prepare(&corpus, EnrichOptions::NONE, config());
        let (store, report) = pipeline.train();
        assert_eq!(store.n_tokens(), pipeline.enriched.space().len());
        assert!(report.total_pairs() > 0);
        // The report's structural numbers match the preflight plan.
        let pf = pipeline.preflight();
        assert!((report.cut_fraction - pf.cut_fraction).abs() < 1e-12);
        assert_eq!(report.workers, pf.workers);
    }

    #[test]
    fn checkpoint_resume_round_trips_and_trains_identically() {
        let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
        let pipeline = TrainingPipeline::prepare(&corpus, EnrichOptions::NONE, config());
        let ck = pipeline.checkpoint();

        // Persist and reload through the byte format.
        let bytes = ck.to_bytes();
        let reloaded = PipelineCheckpoint::from_bytes(&bytes).expect("decode");
        assert_eq!(reloaded, ck);

        let resumed = TrainingPipeline::resume(&corpus, EnrichOptions::NONE, config(), &reloaded)
            .expect("resume");
        // The resumed pipeline reconstructs the exact stage-3/4 plan...
        assert_eq!(resumed.partition.owners(), pipeline.partition.owners());
        assert_eq!(resumed.hot_set.tokens(), pipeline.hot_set.tokens());
        assert_eq!(resumed.preflight(), pipeline.preflight());
        // ...and trains identically: the same pair schedule, and — every
        // worker stepping only its own rows in a fixed order — the same
        // store, bit for bit, at 4 workers with Q on.
        let (store_a, report_a) = pipeline.train();
        let (store_b, report_b) = resumed.train();
        assert_eq!(report_a.pairs_per_worker, report_b.pairs_per_worker);
        assert_eq!(report_a.remote_pairs, report_b.remote_pairs);
        assert!(report_a.remote_pairs > 0 && report_a.sync_rounds > 0);
        let bits = |m: &sisg_embedding::Matrix| -> Vec<u32> {
            m.as_slice().iter().map(|x| x.to_bits()).collect()
        };
        assert!(bits(store_a.input_matrix()) == bits(store_b.input_matrix()));
        assert!(bits(store_a.output_matrix()) == bits(store_b.output_matrix()));
    }

    #[test]
    fn single_worker_resume_trains_bit_identically() {
        let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
        let cfg = DistConfig {
            workers: 1,
            ..config()
        };
        let pipeline = TrainingPipeline::prepare(&corpus, EnrichOptions::NONE, cfg.clone());
        let ck = pipeline.checkpoint();
        let resumed =
            TrainingPipeline::resume(&corpus, EnrichOptions::NONE, cfg, &ck).expect("resume");
        let (store_a, _) = pipeline.train();
        let (store_b, _) = resumed.train();
        for t in 0..store_a.n_tokens() {
            let t = sisg_corpus::TokenId(t as u32);
            assert_eq!(store_a.input(t), store_b.input(t), "row {t:?} diverged");
        }
    }

    #[test]
    fn resume_rejects_mismatched_artifacts() {
        let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
        let pipeline = TrainingPipeline::prepare(&corpus, EnrichOptions::NONE, config());
        let ck = pipeline.checkpoint();

        // Wrong worker count.
        let wrong_workers = DistConfig {
            workers: 8,
            ..config()
        };
        assert!(matches!(
            TrainingPipeline::resume(&corpus, EnrichOptions::NONE, wrong_workers, &ck),
            Err(ResumeError::WorkerMismatch { .. })
        ));

        // Different enrichment → different corpus fingerprint.
        assert!(matches!(
            TrainingPipeline::resume(&corpus, EnrichOptions::FULL, config(), &ck),
            Err(ResumeError::CorpusMismatch { .. })
        ));

        // Tampered fingerprint is caught even when sizes agree.
        let mut tampered = ck.clone();
        tampered.enriched_fingerprint ^= 1;
        assert!(matches!(
            TrainingPipeline::resume(&corpus, EnrichOptions::NONE, config(), &tampered),
            Err(ResumeError::CorpusMismatch { .. })
        ));
    }

    /// A checkpoint that decodes is still bytes from disk: each of these
    /// three re-encodes cleanly, and each used to panic in `resume`.
    #[test]
    fn resume_rejects_decodable_but_inconsistent_artifacts() {
        let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
        let pipeline = TrainingPipeline::prepare(&corpus, EnrichOptions::NONE, config());
        let ck = pipeline.checkpoint();
        let space = pipeline.enriched.space().len() as u32;
        let resume = |mutate: fn(&mut PipelineCheckpoint, u32)| {
            let mut bad = ck.clone();
            mutate(&mut bad, space);
            let bad = PipelineCheckpoint::from_bytes(&bad.to_bytes()).expect("decodes");
            TrainingPipeline::resume(&corpus, EnrichOptions::NONE, config(), &bad)
                .err()
                .expect("resume must refuse")
        };
        assert_eq!(
            resume(|ck, _| ck.owners[7] = 4),
            ResumeError::CorruptArtifact {
                artifact: "partition",
                index: 7
            }
        );
        assert_eq!(
            resume(|ck, space| ck.hot_tokens[3] = sisg_corpus::TokenId(space)),
            ResumeError::CorruptArtifact {
                artifact: "hot set",
                index: 3
            }
        );
        assert_eq!(
            resume(|ck, _| ck.hot_tokens[5] = ck.hot_tokens[0]),
            ResumeError::CorruptArtifact {
                artifact: "hot set",
                index: 5
            }
        );
    }

    #[test]
    fn hbgp_preflight_beats_hash_preflight_on_cut() {
        let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
        let hbgp = TrainingPipeline::prepare(&corpus, EnrichOptions::NONE, config());
        let hash_cfg = DistConfig {
            strategy: PartitionStrategy::Hash,
            ..config()
        };
        let hash = TrainingPipeline::prepare(&corpus, EnrichOptions::NONE, hash_cfg);
        assert!(hbgp.preflight().cut_fraction < hash.preflight().cut_fraction);
    }
}
