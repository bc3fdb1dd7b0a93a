//! `train_local`: single-threaded SISG-F-U-D training through
//! `SisgModel::train_on_sessions`.
//!
//! The work is `corpus::enrich` (inside the timed call), `sgns` and the
//! `embedding::kernels` under it; serving, ANN and streaming do nothing.
//! It is the single-worker baseline `train_dist` is read against.
//!
//! The window is one training job run again and again: the same call on
//! the same sessions, so the window lasts as long as it is asked to, every
//! job does the same work, and every job must return the same model bit
//! for bit.

use super::{
    head_sessions, hit_rate_verdict, run_jobs, sessions_checksum, split_corpus, timed, Fnv,
    RunConfig, SplitCorpus, Verdict, Window, Workload, TRAIN_ITEMS,
};
use crate::catalog::LayerMetrics;
use crate::probes;
use crate::trace::Tracer;
use sisg_core::{SisgModel, SisgTrainReport, Variant};
use sisg_corpus::{Corpus, EnrichedCorpus};
use sisg_sgns::SgnsConfig;
use std::time::Duration;

/// Embedding width of both training workloads.
pub const DIM: usize = 32;
/// Leading training sessions one job trains on, for one epoch: a third of
/// the corpus, calibrated once on the reference host to a job of about
/// 2 s — seven or eight jobs in a 15 s window — and frozen.
pub const JOB_SESSIONS: usize = 10_000;
/// Sessions of the warm-up job: 5 % of the work of a 15 s window, which
/// also keeps `setup_s` above half a second of deterministic work.
pub const WARMUP_SESSIONS: usize = 4_000;
/// HR@10 below this means training is broken, whatever the seed: ten
/// seeds gave 0.64 to 0.69.
const HR_FLOOR: f64 = 0.60;

fn sgns_config(seed: u64) -> SgnsConfig {
    SgnsConfig {
        dim: DIM,
        window: 3,
        negatives: 5,
        epochs: 1,
        threads: 1,
        seed,
        ..Default::default()
    }
}

/// See the module docs.
pub struct TrainLocal;

/// The corpus, the sessions of one job and the model of the last job.
pub struct Prepared<'a> {
    corpus: &'a SplitCorpus,
    job_sessions: Corpus,
    config: SgnsConfig,
    window: Duration,
    model: Option<SisgModel>,
}

impl Prepared<'_> {
    /// One timed call over `sessions`.
    fn train(&self, sessions: &Corpus) -> (SisgModel, SisgTrainReport) {
        SisgModel::train_on_sessions(
            sessions,
            &self.corpus.train.catalog,
            &self.corpus.train.users,
            self.corpus.train.config.n_items,
            Variant::SisgFUD,
            &self.config,
        )
        .expect("the frozen training config is valid")
    }
}

/// Checksum of every trained weight, bit for bit.
fn model_checksum(model: &SisgModel) -> u64 {
    let mut h = Fnv::default();
    let store = model.store();
    for matrix in [store.input_matrix(), store.output_matrix()] {
        for row in 0..matrix.rows() {
            for pair in matrix.row(row).chunks(2) {
                let hi = pair.get(1).map_or(0, |v| v.to_bits());
                h.fold(u64::from(pair[0].to_bits()) << 32 | u64::from(hi));
            }
        }
    }
    h.finish()
}

impl Workload for TrainLocal {
    const NAME: &'static str = "train_local";
    type Inputs = SplitCorpus;
    type Prepared<'a> = Prepared<'a>;

    fn inputs(cfg: &RunConfig, tr: &mut Tracer, layer: &mut LayerMetrics) -> SplitCorpus {
        split_corpus(TRAIN_ITEMS, cfg.seed, tr, layer)
    }

    fn prepare<'a>(
        cfg: &RunConfig,
        corpus: &'a SplitCorpus,
        tr: &mut Tracer,
        _layer: &mut LayerMetrics,
    ) -> Prepared<'a> {
        let prepared = Prepared {
            corpus,
            job_sessions: head_sessions(&corpus.train.sessions, JOB_SESSIONS),
            config: sgns_config(cfg.seed),
            window: cfg.window(),
            model: None,
        };
        let head = head_sessions(&prepared.job_sessions, WARMUP_SESSIONS);
        tr.span("train_local.warmup", None, 0, || {
            std::hint::black_box(prepared.train(&head));
        });
        prepared
    }

    fn measure(p: &mut Prepared<'_>, tr: &mut Tracer, layer: &mut LayerMetrics) -> Window {
        let mut last = None;
        let mut first_checksum = None;
        let mut diverged = 0u64;
        let jobs = run_jobs(p.window, |job| {
            let (model, report) = tr.span("core.train_on_sessions", None, job, || {
                p.train(&p.job_sessions)
            });
            let checksum = model_checksum(&model);
            diverged += u64::from(*first_checksum.get_or_insert(checksum) != checksum);
            let pairs = report.stats.pairs;
            last = Some((model, report));
            pairs
        });
        let (model, report) = last.expect("at least one job ran");
        p.model = Some(model);

        let stats = &report.stats;
        layer.set("sgns.train_s", stats.seconds);
        layer.set("sgns.pairs_total", stats.pairs as f64);
        layer.set("sgns.pairs_per_s", stats.pairs_per_second());
        layer.set("sgns.tokens_per_s", stats.tokens_per_second());
        layer.set("sgns.subsample_drop_share", stats.subsample_drop_rate());
        layer.set("sgns.avg_loss", stats.avg_loss);
        Window {
            // A job whose model differs from the first job's has failed.
            failed: diverged,
            ..Window::from_jobs(&jobs)
        }
    }

    fn probes(p: &Prepared<'_>, tr: &mut Tracer, layer: &mut LayerMetrics) {
        // Enrichment runs inside the timed call; time it alone on the
        // same sessions so its share of a job is known.
        let (enriched, enrich_s) = timed(tr, "corpus.enrich", || {
            EnrichedCorpus::build_from_sessions(
                &p.job_sessions,
                &p.corpus.train.catalog,
                &p.corpus.train.users,
                p.corpus.train.config.n_items,
                Variant::SisgFUD.enrich_options(),
            )
        });
        layer.set("corpus.enrich_s", enrich_s);
        layer.set(
            "corpus.enrich_tokens_per_s",
            enriched.total_tokens() as f64 / enrich_s,
        );
        probes::kernels(DIM, tr, layer);
    }

    fn verify(
        p: Prepared<'_>,
        window: &Window,
        tr: &mut Tracer,
        layer: &mut LayerMetrics,
    ) -> Verdict {
        let model = p.model.expect("a window ran");
        let mut verdict = hit_rate_verdict(&model, &p.corpus.eval, HR_FLOOR, tr, layer);
        verdict.require(window.failed == 0, || {
            format!(
                "{} of {} jobs trained a model that differs from the first job's",
                window.failed, window.attempted
            )
        });
        verdict
    }

    fn input_checksum(corpus: &SplitCorpus) -> u64 {
        sessions_checksum(&corpus.train.sessions)
    }
}
