//! A pinned two-worker store: the threaded runtime is bit-deterministic.
//!
//! Provenance: the checksum below is the FNV-1a hash of the codec bytes
//! of the store that `TrainingPipeline::train` returns for the config in
//! [`config`] — 2 workers, HBGP, a hot set of 32 replicated and averaged
//! tokens, over `CorpusConfig::tiny()` enriched with `EnrichOptions::FULL`.
//! It was pinned when the runtime moved from shared Hogwild rows to
//! owner-stepped rows with a bulk-synchronous TNS exchange; since then a
//! run depends on nothing but its inputs. The pin moves only when the
//! corpus generator, the scan, the TNS step, the exchange order, the
//! learning-rate schedule or the store codec changes, and such a change
//! re-pins it on purpose and says so.

use sisg_corpus::{CorpusConfig, EnrichOptions, GeneratedCorpus};
use sisg_distributed::{DistConfig, TrainingPipeline};
use sisg_embedding::codec;
use sisg_obs::Fnv1a;

/// FNV-1a of the codec bytes of the pinned run's store.
const STORE_CHECKSUM: u64 = 0x0b7b_0987_59df_faf7;

fn config() -> DistConfig {
    DistConfig {
        workers: 2,
        dim: 16,
        window: 4,
        negatives: 5,
        epochs: 1,
        hot_set_size: 32,
        sync_interval: 500,
        seed: 7,
        ..Default::default()
    }
}

#[test]
fn two_worker_store_with_the_hot_set_on_is_pinned() {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let (store, report) = TrainingPipeline::prepare(&corpus, EnrichOptions::FULL, config()).train();
    assert_eq!(report.workers, 2);
    assert!(report.remote_pairs > 0, "the run must exchange requests");
    assert!(report.sync_rounds > 0, "the run must average Q");
    let mut hash = Fnv1a::new();
    hash.bytes(&codec::encode(&store));
    assert_eq!(
        hash.finish(),
        STORE_CHECKSUM,
        "two-worker store moved: {:#018x}",
        hash.finish()
    );
}
