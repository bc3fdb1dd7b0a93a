//! `train_dist`: the paper's Section III engine — `TrainingPipeline::prepare`
//! in set-up, `.train()` in the window, two workers, HBGP β = 1.2 and a
//! replicated hot set of 256 tokens.
//!
//! Same sessions per job and same kernels as `train_local`, so a kernel
//! gain must show on both and a partitioning, hot-set or routing gain only
//! here. The two workers share the host's two cores, so no scaling curve
//! is claimed; the per-layer numbers are counts.

use super::train_local::{DIM, JOB_SESSIONS, WARMUP_SESSIONS};
use super::{
    head_sessions, hit_rate_verdict, run_jobs, sessions_checksum, split_corpus, timed, RunConfig,
    SplitCorpus, Verdict, Window, Workload, TRAIN_ITEMS,
};
use crate::catalog::LayerMetrics;
use crate::probes;
use crate::trace::Tracer;
use sisg_core::{SisgModel, Variant};
use sisg_corpus::{EnrichOptions, EnrichedCorpus, GeneratedCorpus};
use sisg_distributed::runtime::PartitionStrategy;
use sisg_distributed::{build_partition, DistConfig, TrainingPipeline};
use sisg_embedding::EmbeddingStore;
use std::time::Duration;

/// Threads race on shared rows, so HR@10 moves by 0.005 run to run on
/// one seed; ten seeds gave 0.47 to 0.52. Below this floor the engine is
/// broken.
const HR_FLOOR: f64 = 0.42;

fn dist_config(seed: u64, sessions: usize) -> DistConfig {
    DistConfig {
        workers: 2,
        dim: DIM,
        // Over enriched tokens: nine tokens per click, so 12 reaches the
        // neighbouring item on either side.
        window: 12,
        negatives: 5,
        epochs: 1,
        hot_set_size: 256,
        // Four ATNS barriers per epoch, as in fig7a.
        sync_interval: (sessions / 4).max(1),
        strategy: PartitionStrategy::Hbgp { beta: 1.2 },
        seed,
        ..Default::default()
    }
}

/// See the module docs.
pub struct TrainDist;

/// Seed-determined inputs: the split corpus and the corpus of one job.
pub struct Inputs {
    corpus: SplitCorpus,
    /// The leading [`JOB_SESSIONS`] training sessions.
    job: GeneratedCorpus,
}

/// The prepared stage artifacts plus the store of the last job.
pub struct Prepared<'a> {
    inputs: &'a Inputs,
    config: DistConfig,
    pipeline: TrainingPipeline<'a>,
    window: Duration,
    store: Option<EmbeddingStore>,
}

impl Workload for TrainDist {
    const NAME: &'static str = "train_dist";
    type Inputs = Inputs;
    type Prepared<'a> = Prepared<'a>;

    fn inputs(cfg: &RunConfig, tr: &mut Tracer, layer: &mut LayerMetrics) -> Inputs {
        let corpus = split_corpus(TRAIN_ITEMS, cfg.seed, tr, layer);
        let job = GeneratedCorpus {
            sessions: head_sessions(&corpus.train.sessions, JOB_SESSIONS),
            ..corpus.train.clone()
        };
        Inputs { corpus, job }
    }

    fn prepare<'a>(
        cfg: &RunConfig,
        inputs: &'a Inputs,
        tr: &mut Tracer,
        layer: &mut LayerMetrics,
    ) -> Prepared<'a> {
        let config = dist_config(cfg.seed, inputs.job.sessions.len());
        let (pipeline, prepare_s) = timed(tr, "dist.prepare", || {
            TrainingPipeline::prepare(&inputs.job, EnrichOptions::FULL, config.clone())
        });
        layer.set("dist.prepare_s", prepare_s);
        // Warm-up: prepare and train the leading sessions of a job.
        let head = GeneratedCorpus {
            sessions: head_sessions(&inputs.job.sessions, WARMUP_SESSIONS),
            ..inputs.job.clone()
        };
        let head_config = dist_config(cfg.seed, head.sessions.len());
        tr.span("train_dist.warmup", None, 0, || {
            let warm = TrainingPipeline::prepare(&head, EnrichOptions::FULL, head_config);
            std::hint::black_box(warm.train());
        });
        Prepared {
            inputs,
            config,
            pipeline,
            window: cfg.window(),
            store: None,
        }
    }

    fn measure(p: &mut Prepared<'_>, tr: &mut Tracer, layer: &mut LayerMetrics) -> Window {
        let mut last = None;
        let jobs = run_jobs(p.window, |job| {
            let (store, report) = tr.span("dist.train", None, job, || p.pipeline.train());
            let pairs = report.total_pairs();
            last = Some((store, report));
            pairs
        });
        let (store, report) = last.expect("at least one job ran");
        p.store = Some(store);

        layer.set("dist.train_s", report.seconds);
        layer.set("dist.remote_pair_share", report.remote_fraction());
        layer.set("dist.item_remote_pair_share", report.item_remote_fraction());
        layer.set("dist.cut_share", report.cut_fraction);
        layer.set("dist.pair_imbalance", report.pair_imbalance());
        layer.set(
            "dist.comm_bytes_per_pair",
            report.total_comm_bytes() as f64 / report.total_pairs().max(1) as f64,
        );
        layer.set("dist.sync_rounds", report.sync_rounds as f64);
        Window::from_jobs(&jobs)
    }

    fn probes(p: &Prepared<'_>, tr: &mut Tracer, layer: &mut LayerMetrics) {
        // The two costly stages of `prepare`, alone.
        let (enriched, enrich_s) = timed(tr, "corpus.enrich", || {
            EnrichedCorpus::build(&p.inputs.job, EnrichOptions::FULL)
        });
        layer.set("corpus.enrich_s", enrich_s);
        layer.set(
            "corpus.enrich_tokens_per_s",
            enriched.total_tokens() as f64 / enrich_s,
        );
        let (partition, partition_s) = timed(tr, "dist.partition", || {
            build_partition(
                &p.config,
                &p.inputs.job.sessions,
                &p.inputs.job.catalog,
                enriched.space(),
            )
        });
        std::hint::black_box(partition);
        layer.set("dist.partition_s", partition_s);
        probes::kernels(DIM, tr, layer);
    }

    fn verify(
        p: Prepared<'_>,
        _window: &Window,
        tr: &mut Tracer,
        layer: &mut LayerMetrics,
    ) -> Verdict {
        let store = p.store.expect("a window ran");
        let space = p.pipeline.enriched.space().clone();
        let model = SisgModel::from_store(Variant::SisgFU, space, store)
            .expect("the trained store covers the token space");
        hit_rate_verdict(&model, &p.inputs.corpus.eval, HR_FLOOR, tr, layer)
    }

    fn input_checksum(inputs: &Inputs) -> u64 {
        sessions_checksum(&inputs.corpus.train.sessions)
    }
}
