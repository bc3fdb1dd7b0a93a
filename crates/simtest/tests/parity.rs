//! Engine parity: the threaded runtime and the simulator drive the same
//! `WorkerMachine`s, and a machine computes nothing from the order its
//! messages arrive in. So on a fault-free plan the two train the same
//! store bit for bit, with the same accounting — at one, two and four
//! workers, with the hot set `Q` off and on, under hash over item
//! sequences and under HBGP over SI-enriched ones — and drops,
//! duplicates and delays change no bit either.

use sisg_corpus::{CorpusConfig, EnrichOptions, EnrichedCorpus, GeneratedCorpus};
use sisg_distributed::runtime::PartitionStrategy;
use sisg_distributed::{train_distributed, DistConfig, DistReport, FaultPlan};
use sisg_embedding::codec;
use sisg_simtest::{simulate, SimConfig};

fn dist(workers: usize, hot_set_size: usize, strategy: PartitionStrategy) -> DistConfig {
    DistConfig {
        workers,
        dim: 8,
        window: 3,
        negatives: 3,
        epochs: 1,
        hot_set_size,
        sync_interval: 500,
        strategy,
        ..Default::default()
    }
}

/// The report fields both drivers fill from the machines' counters.
fn shared(r: &DistReport) -> Vec<u64> {
    let mut v = r.pairs_per_worker.clone();
    v.extend([
        r.local_pairs,
        r.remote_pairs,
        r.item_pairs,
        r.remote_item_pairs,
        r.pair_comm_bytes,
        r.sync_comm_bytes,
        r.sync_rounds,
        r.requests_served,
        r.rows_stepped,
        r.exchange_blocks,
        r.messages,
        r.payload_bytes,
    ]);
    v
}

#[test]
fn runtime_and_sim_train_the_same_store_bit_for_bit() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let cases = [
        (EnrichOptions::NONE, PartitionStrategy::Hash),
        (EnrichOptions::FULL, PartitionStrategy::Hbgp { beta: 1.2 }),
    ];
    for (options, strategy) in cases {
        let enriched = EnrichedCorpus::build(&corpus, options);
        for workers in [1, 2, 4] {
            for hot in [0, 32] {
                let config = dist(workers, hot, strategy);
                let case = format!("{strategy:?}, {workers} workers, |Q| = {hot}");
                let (rt_store, rt) = train_distributed(&enriched, &corpus.catalog, &config);
                let sim = simulate(
                    &enriched,
                    &corpus.catalog,
                    &SimConfig::new(config, FaultPlan::none()),
                );
                assert!(sim.completed, "{case}: the simulation did not drain");
                assert!(
                    codec::encode(&rt_store) == codec::encode(&sim.store),
                    "{case}: stores differ"
                );
                assert_eq!(shared(&rt), shared(&sim.report), "{case}: reports differ");
                assert!(
                    workers == 1 || rt.remote_pairs > 0,
                    "{case}: nothing remote"
                );
                // The fault-free ledger: one batch and one answer per
                // ordered pair of workers per block, one set of replicas
                // per ordered pair per averaging of Q, nothing resent.
                let per_step = (workers * (workers - 1)) as u64;
                let averagings = if hot == 0 { 0 } else { sim.report.sync_rounds };
                assert_eq!(
                    sim.report.messages,
                    (2 * sim.report.exchange_blocks + averagings) * per_step,
                    "{case}"
                );
                let r = &sim.report;
                assert_eq!((r.retries, r.deduped, r.ignored), (0, 0, 0), "{case}");
            }
        }
    }
}

/// Drops, duplicates and delays cost retransmissions and replays, never a
/// bit of the store: every machine still computes from the same messages.
#[test]
fn message_faults_change_no_bit() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let enriched = EnrichedCorpus::build(&corpus, EnrichOptions::FULL);
    let config = dist(3, 32, PartitionStrategy::Hbgp { beta: 1.2 });
    let clean = simulate(
        &enriched,
        &corpus.catalog,
        &SimConfig::new(config.clone(), FaultPlan::none()),
    );
    let plan = FaultPlan::message_faults(0xFA17, 0.15, 0.10, 0.10);
    let faulted = simulate(&enriched, &corpus.catalog, &SimConfig::new(config, plan));
    assert!(clean.completed && faulted.completed);
    let r = &faulted.report;
    assert!(r.faults_injected > 0 && r.retries > 0 && r.deduped > 0);
    assert!(codec::encode(&clean.store) == codec::encode(&faulted.store));
    assert_eq!(clean.report.rows_stepped, r.rows_stepped);
}
