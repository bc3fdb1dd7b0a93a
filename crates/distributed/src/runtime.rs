//! The threaded Section III runtime: one thread per worker, each driving
//! its [`WorkerMachine`] (Algorithm 1 of the paper, TNS with the ATNS hot
//! set `Q`) over in-process mailboxes.
//!
//! The machines hold everything that trains — rows, scans, noise streams,
//! the exchange, the averaging of `Q`; this module owns only the threads
//! and the transport. Each machine step ends with messages for every peer
//! (a block's batches, their answers, or replicas of `Q`): the thread
//! posts them into the mailbox of each (sender, receiver) pair, waits at
//! the barrier, and hands the machine what its peers posted to it. Every
//! worker makes the same steps, so the barrier is a count of messages: by
//! the time a thread passes it, each peer has posted its one message of
//! that step. What a machine computes does not depend on when a message
//! arrives, so a run is bit-deterministic at any worker count and equals
//! the `sisg-simtest` simulation of the same run.
//!
//! - **HBGP vs hash** is selected by [`PartitionStrategy`].

use crate::hbgp::HbgpPartitioner;
use crate::partition::{assign_all, HashPartitioner, PartitionMap};
use crate::protocol::{Advance, MachineCounters, Message, Rows, WorkerMachine};
use crate::report::{DistReport, PhaseNs};
use crate::tns::TnsRun;
use sisg_corpus::vocab::TokenSpace;
use sisg_corpus::{Corpus, EnrichedCorpus, ItemCatalog};
use sisg_embedding::EmbeddingStore;
use sisg_obs::names as obs_names;
use sisg_sgns::WindowMode;
use std::sync::{Barrier, Mutex, MutexGuard};

/// Which item partitioner the run uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PartitionStrategy {
    /// Heuristic Balanced Graph Partitioning with the given β.
    Hbgp {
        /// Maximum allowed imbalance (paper production value: 1.2).
        beta: f64,
    },
    /// Round-robin hashing (the ablation baseline).
    Hash,
}

impl PartitionStrategy {
    /// The partitioner's report name.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            PartitionStrategy::Hbgp { .. } => "hbgp",
            PartitionStrategy::Hash => "hash",
        }
    }
}

/// Configuration of one distributed run.
#[derive(Debug, Clone, PartialEq)]
pub struct DistConfig {
    /// Number of simulated workers (threads).
    pub workers: usize,
    /// Embedding dimensionality.
    pub dim: usize,
    /// Window half-width over enriched tokens.
    pub window: usize,
    /// Symmetric or right-only windows.
    pub window_mode: WindowMode,
    /// Negatives per positive.
    pub negatives: usize,
    /// Epochs over the corpus.
    pub epochs: usize,
    /// Initial learning rate (linear decay).
    pub learning_rate: f32,
    /// Learning-rate floor.
    pub min_learning_rate: f32,
    /// Mikolov subsampling threshold.
    pub subsample: f64,
    /// Noise exponent α.
    pub noise_exponent: f64,
    /// Size of the shared hot set `Q` (0 disables replication).
    pub hot_set_size: usize,
    /// Sequences processed per worker between hot-set averaging barriers.
    pub sync_interval: usize,
    /// Item partitioner.
    pub strategy: PartitionStrategy,
    /// Seed.
    pub seed: u64,
}

impl Default for DistConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            dim: 32,
            window: 5,
            window_mode: WindowMode::Symmetric,
            negatives: 20,
            epochs: 2,
            learning_rate: 0.025,
            min_learning_rate: 0.0001,
            subsample: 1e-3,
            noise_exponent: 0.75,
            hot_set_size: 256,
            sync_interval: 2_000,
            strategy: PartitionStrategy::Hbgp { beta: 1.2 },
            seed: 42,
        }
    }
}

/// Pipeline stage 3 as a standalone artifact builder: partitions the
/// dictionary under the configured strategy. Shared by both engines and
/// the preparation pipeline, so one `(config, corpus)` always yields the
/// same map.
pub fn build_partition(
    config: &DistConfig,
    sessions: &Corpus,
    catalog: &ItemCatalog,
    space: &TokenSpace,
) -> PartitionMap {
    match config.strategy {
        PartitionStrategy::Hbgp { beta } => assign_all(
            &HbgpPartitioner {
                beta,
                ..Default::default()
            },
            sessions,
            catalog,
            space,
            config.workers,
            config.seed,
        ),
        PartitionStrategy::Hash => assign_all(
            &HashPartitioner,
            sessions,
            catalog,
            space,
            config.workers,
            config.seed,
        ),
    }
}

/// Trains the enriched corpus with the distributed engine and returns the
/// embedding store plus the run's accounting.
pub fn train_distributed(
    enriched: &EnrichedCorpus<'_>,
    catalog: &ItemCatalog,
    config: &DistConfig,
) -> (EmbeddingStore, DistReport) {
    train_run(&TnsRun::new(enriched, catalog, config))
}

/// Runs one thread per machine of `run` to the end of training. Each
/// machine is built on the thread that drives it, so everything it
/// allocates comes from that thread's allocator arena: built side by side
/// on one thread, the machines' buffers interleaved with what the other
/// worker allocates later, and the speed of a process's first job (the
/// benchmark's warm-up) moved by up to 45 % with the machine's size.
pub(crate) fn train_run(run: &TnsRun<'_>) -> (EmbeddingStore, DistReport) {
    let w = run.config.workers;
    let (mut input, mut output) = run.initial_store();
    // `mail[from · w + to]`: what `from` posted `to` in the current step.
    let mail: Vec<Mutex<Vec<Message>>> = (0..w * w).map(|_| Mutex::default()).collect();
    let barrier = Barrier::new(w);
    let span = sisg_obs::span(obs_names::DIST_TRAIN_SPAN);
    let finished: Vec<(MachineCounters, PhaseNs)> = std::thread::scope(|scope| {
        let (mail, barrier) = (&mail, &barrier);
        let work = move |(j, rows): (usize, Rows<'_>)| {
            let mut machine = WorkerMachine::new(run, j, 0, rows);
            drive(&mut machine, w, mail, barrier);
            (machine.counters().clone(), machine.phases())
        };
        let inputs = run.split(input.as_mut_slice());
        let mut blocks = inputs
            .into_iter()
            .zip(run.split(output.as_mut_slice()))
            .enumerate();
        // Worker 0 runs on the calling thread: one thread (and one
        // allocator arena) fewer.
        let first = blocks.next();
        let handles: Vec<_> = blocks.map(|b| scope.spawn(move || work(b))).collect();
        let mut finished: Vec<_> = first.into_iter().map(work).collect();
        finished.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked")),
        );
        finished
    });
    let seconds = span.finish().as_secs_f64();
    let (counters, phases): (Vec<_>, Vec<_>) = finished.into_iter().unzip();
    let (store, mut report) = run.assemble(&counters, input, output, seconds);
    report.phases_per_worker = phases;
    sisg_obs::registry()
        .gauge(obs_names::DIST_EXCHANGE_IDLE_SHARE)
        .set(report.exchange_idle_share());
    (store, report)
}

fn lock(m: &Mutex<Vec<Message>>) -> MutexGuard<'_, Vec<Message>> {
    m.lock().expect("a worker thread panicked")
}

/// Runs one machine to the end of training: after every step, posts its
/// messages, waits for the peers to post theirs, and delivers them.
fn drive(
    machine: &mut WorkerMachine<'_>,
    w: usize,
    mail: &[Mutex<Vec<Message>>],
    barrier: &Barrier,
) {
    let me = machine.me();
    let (mut out, mut inbox) = (Vec::new(), Vec::new());
    loop {
        match machine.advance(&mut out) {
            Advance::Finished => return,
            Advance::Boundary => continue,
            Advance::Sent | Advance::Waiting => {}
        }
        debug_assert!(out.len() == w - 1, "every step sends each peer one message");
        for (to, msg) in out.drain(..) {
            lock(&mail[me * w + to]).push(msg);
        }
        barrier.wait();
        for from in (0..w).filter(|&from| from != me) {
            // Swap, not take: the emptied buffers circulate with their
            // capacity instead of being allocated again every step.
            std::mem::swap(&mut *lock(&mail[from * w + me]), &mut inbox);
            for msg in inbox.drain(..) {
                machine.deliver(msg, &mut out);
            }
        }
        debug_assert!(out.is_empty(), "an in-process run replays nothing");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::TrainingPipeline;
    use sisg_corpus::{CorpusConfig, EnrichOptions, GeneratedCorpus, ItemId, TokenId};
    use sisg_embedding::math::cosine;

    fn corpus() -> GeneratedCorpus {
        GeneratedCorpus::generate(CorpusConfig::tiny())
    }

    fn train_on(
        corpus: &GeneratedCorpus,
        options: EnrichOptions,
        config: &DistConfig,
    ) -> (EmbeddingStore, DistReport) {
        TrainingPipeline::prepare(corpus, options, config.clone()).train()
    }

    fn fast_config(workers: usize) -> DistConfig {
        DistConfig {
            workers,
            dim: 16,
            window: 4,
            negatives: 5,
            epochs: 1,
            hot_set_size: 32,
            sync_interval: 500,
            ..Default::default()
        }
    }

    fn bits(store: &EmbeddingStore) -> Vec<u32> {
        let (input, output) = (store.input_matrix(), store.output_matrix());
        input
            .as_slice()
            .iter()
            .chain(output.as_slice())
            .map(|x| x.to_bits())
            .collect()
    }

    /// Every worker steps only its own rows in a fixed order, so a run
    /// with `Q` on returns the same store bit for bit, whatever the thread
    /// schedule — at 2 and at 4 workers.
    #[test]
    fn runs_with_the_hot_set_on_are_bit_identical() {
        let gen = corpus();
        for workers in [2, 4] {
            let config = fast_config(workers);
            let (a, report_a) = train_on(&gen, EnrichOptions::FULL, &config);
            let (b, report_b) = train_on(&gen, EnrichOptions::FULL, &config);
            assert!(report_a.remote_pairs > 0 && report_a.sync_rounds > 0);
            assert!(bits(&a) == bits(&b), "{workers} workers: stores differ");
            assert_eq!(report_a.pairs_per_worker, report_b.pairs_per_worker);
        }
    }

    /// Every remote pair is one request its owner serves, and every step
    /// touches the context plus at most `negatives` rows.
    #[test]
    fn each_remote_pair_is_served_once() {
        let gen = corpus();
        let config = fast_config(3);
        let (_, report) = train_on(&gen, EnrichOptions::FULL, &config);
        assert!(report.remote_pairs > 0);
        assert_eq!(report.requests_served, report.remote_pairs);
        let pairs = report.total_pairs();
        assert!(report.rows_stepped >= pairs);
        assert!(report.rows_stepped <= pairs * (1 + config.negatives as u64));
    }

    /// Each worker's five phases add up to the run's wall time: no time
    /// of a worker goes unaccounted for.
    #[test]
    fn phases_account_for_each_workers_run_time() {
        let gen = corpus();
        let (_, report) = train_on(&gen, EnrichOptions::FULL, &fast_config(2));
        assert_eq!(report.phases_per_worker.len(), 2);
        let run_ns = report.seconds * 1e9;
        for (j, p) in report.phases_per_worker.iter().enumerate() {
            assert!(
                p.scan > 0 && p.serve > 0 && p.apply > 0 && p.average > 0,
                "{j}: {p:?}"
            );
            let total = p.total() as f64;
            assert!(
                (total - run_ns).abs() <= 0.02 * run_ns + 2e6,
                "worker {j}: phases sum to {total} ns of a {run_ns} ns run: {p:?}"
            );
        }
        assert!((0.0..1.0).contains(&report.exchange_idle_share()));
    }

    #[test]
    fn single_worker_run_has_no_comm() {
        let gen = corpus();
        let (_, report) = train_on(&gen, EnrichOptions::NONE, &fast_config(1));
        assert_eq!(report.remote_pairs, 0);
        assert_eq!(report.pair_comm_bytes, 0);
        assert!(report.total_pairs() > 0);
        assert_eq!(report.cut_fraction, 0.0);
    }

    #[test]
    fn multi_worker_run_processes_all_pairs_once() {
        let gen = corpus();
        let (_, one) = train_on(&gen, EnrichOptions::NONE, &fast_config(1));
        let (_, four) = train_on(&gen, EnrichOptions::NONE, &fast_config(4));
        // Subsampling RNG differs per worker, so totals differ slightly —
        // but they must agree within a tolerance.
        let (a, b) = (one.total_pairs() as f64, four.total_pairs() as f64);
        assert!((a - b).abs() / a < 0.15, "pair totals diverge: {a} vs {b}");
    }

    /// `sync_interval: 0` means "synchronize after every sequence", like
    /// 1: the unclamped value as a slice bound would make every round scan
    /// `0..0` and the run return an untrained store.
    #[test]
    fn zero_sync_interval_trains_like_one() {
        let gen = corpus();
        let run = |sync_interval| {
            let cfg = DistConfig {
                sync_interval,
                ..fast_config(2)
            };
            train_on(&gen, EnrichOptions::NONE, &cfg).1
        };
        let (zero, one) = (run(0), run(1));
        assert!(zero.total_pairs() > 0, "sync_interval 0 trained nothing");
        // Per-worker pair accounting is scan-seed deterministic.
        assert_eq!(zero.pairs_per_worker, one.pairs_per_worker);
        assert_eq!(zero.sync_rounds, one.sync_rounds);
    }

    #[test]
    fn hbgp_beats_hash_on_remote_fraction() {
        let gen = corpus();
        let hbgp = fast_config(4);
        let hash = DistConfig {
            strategy: PartitionStrategy::Hash,
            ..fast_config(4)
        };
        let (_, r_hbgp) = train_on(&gen, EnrichOptions::NONE, &hbgp);
        let (_, r_hash) = train_on(&gen, EnrichOptions::NONE, &hash);
        assert!(
            r_hbgp.remote_fraction() < r_hash.remote_fraction() * 0.6,
            "hbgp {} vs hash {}",
            r_hbgp.remote_fraction(),
            r_hash.remote_fraction()
        );
    }

    #[test]
    fn hot_set_reduces_comm_on_enriched_corpus() {
        let gen = corpus();
        let with_q = fast_config(4);
        let without_q = DistConfig {
            hot_set_size: 0,
            ..fast_config(4)
        };
        let (_, r_with) = train_on(&gen, EnrichOptions::FULL, &with_q);
        let (_, r_without) = train_on(&gen, EnrichOptions::FULL, &without_q);
        // SI tokens are extremely hot; replicating them must cut remote pairs.
        assert!(
            r_with.remote_fraction() < r_without.remote_fraction(),
            "with Q {} vs without {}",
            r_with.remote_fraction(),
            r_without.remote_fraction()
        );
        assert!(r_with.sync_rounds > 0);
        assert!(r_with.sync_comm_bytes > 0);
    }

    #[test]
    fn distributed_training_learns_structure() {
        let gen = corpus();
        // The regime the paper describes: the full enriched corpus, whose
        // hottest tokens are SI features, with Q replicated and averaged
        // on 4 workers.
        let mut cfg = fast_config(4);
        cfg.epochs = 2;
        let (store, report) = train_on(&gen, EnrichOptions::FULL, &cfg);
        assert_eq!(report.hot_set_size, 32);
        // Items of one leaf category should be closer than cross-category.
        let mut within = 0.0f64;
        let mut cross = 0.0f64;
        let (mut wn, mut cn) = (0u32, 0u32);
        for a in 0..120u32 {
            for b in (a + 1)..120u32 {
                let s = cosine(store.input(TokenId(a)), store.input(TokenId(b))) as f64;
                if gen.catalog.leaf_category(ItemId(a)) == gen.catalog.leaf_category(ItemId(b)) {
                    within += s;
                    wn += 1;
                } else {
                    cross += s;
                    cn += 1;
                }
            }
        }
        assert!(
            within / wn as f64 > cross / cn as f64,
            "no structure learned"
        );
    }

    #[test]
    fn load_is_balanced_across_workers() {
        let gen = corpus();
        let (_, report) = train_on(&gen, EnrichOptions::FULL, &fast_config(4));
        assert!(
            report.pair_imbalance() < 2.0,
            "pair imbalance {} too high",
            report.pair_imbalance()
        );
    }
}
