//! Replay determinism: the same `FaultPlan` seed must produce a
//! byte-identical event trace (and identical counters and float bits) on
//! every run — the property that makes a fault reproducible from a bug
//! report containing nothing but a seed.
//!
//! The pinned hashes double as regression traces: they only change when
//! the protocol, the scheduler, or the corpus generator changes behavior,
//! and such a change must be deliberate (re-pin after review). CI runs
//! this file as the simtest smoke (scripts/check.sh).

use sisg_corpus::{CorpusConfig, EnrichOptions, EnrichedCorpus, GeneratedCorpus};
use sisg_distributed::runtime::PartitionStrategy;
use sisg_distributed::{DistConfig, FaultPlan};
use sisg_embedding::codec;
use sisg_simtest::{simulate, SimConfig};

fn dist() -> DistConfig {
    DistConfig {
        workers: 3,
        dim: 8,
        window: 2,
        negatives: 2,
        epochs: 1,
        hot_set_size: 16,
        sync_interval: 1_000,
        strategy: PartitionStrategy::Hash,
        ..Default::default()
    }
}

fn faulted(seed: u64) -> SimConfig {
    SimConfig::new(dist(), FaultPlan::message_faults(seed, 0.10, 0.05, 0.05))
}

#[test]
fn same_seed_replays_to_identical_trace_and_bits() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let enriched = EnrichedCorpus::build(&corpus, EnrichOptions::NONE);
    let cfg = faulted(0xDEAD_BEEF);
    let a = simulate(&enriched, &corpus.catalog, &cfg);
    let b = simulate(&enriched, &corpus.catalog, &cfg);
    assert!(a.completed && b.completed);
    assert!(a.report.faults_injected > 0, "plan must actually inject");
    assert_eq!(a.trace_hash, b.trace_hash, "event traces diverged");
    assert_eq!(a.events, b.events);
    assert_eq!(a.ticks, b.ticks);
    assert_eq!(a.report, b.report, "counters diverged");
    assert_eq!(
        codec::encode(&a.store),
        codec::encode(&b.store),
        "trained float bits diverged"
    );
}

#[test]
fn different_seeds_explore_different_schedules() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let enriched = EnrichedCorpus::build(&corpus, EnrichOptions::NONE);
    let a = simulate(&enriched, &corpus.catalog, &faulted(1));
    let b = simulate(&enriched, &corpus.catalog, &faulted(2));
    assert_ne!(
        a.trace_hash, b.trace_hash,
        "distinct seeds should produce distinct traces"
    );
}

/// The three CI smoke seeds with their pinned trace hashes. A failure here
/// means the simulated protocol's behavior changed — re-pin only if the
/// change was intentional. The machines exchange batches, answers and
/// replicas of `Q` per block, as checksummed bytes, with the hot set on.
const PINNED: [(u64, u64); 3] = [
    (0x5EED_0001, 0xC3C2_ADF1_894C_8CBC),
    (0x5EED_0002, 0x8228_BE02_EE57_A702),
    (0x5EED_0003, 0x9B52_85D3_BC8E_3684),
];

#[test]
fn pinned_fault_seeds_reproduce_their_traces() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let enriched = EnrichedCorpus::build(&corpus, EnrichOptions::NONE);
    let got: Vec<(u64, u64, bool)> = PINNED
        .iter()
        .map(|&(seed, _)| {
            let out = simulate(&enriched, &corpus.catalog, &faulted(seed));
            (seed, out.trace_hash, out.completed)
        })
        .collect();
    for (seed, hash, completed) in &got {
        println!("seed {seed:#x} -> trace hash {hash:#018X}");
        assert!(completed, "seed {seed:#x} did not drain");
    }
    for ((seed, expected), (_, hash, _)) in PINNED.iter().zip(&got) {
        assert_eq!(
            hash, expected,
            "seed {seed:#x}: trace hash changed (see stdout for current values)"
        );
    }
}
