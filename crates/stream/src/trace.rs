//! Trace hashing for replay regression tests.
//!
//! The pipeline folds every control-flow decision (batch boundaries, event
//! counts, vocabulary admissions, trained-pair counts, publication epochs)
//! into an FNV-1a hash ([`Fnv1a`]), exactly like the simtest traces: two
//! runs of the same seeded plan must produce the same hash, and one hash
//! per seed is pinned in CI.
//!
//! The trace deliberately contains **no float bits** — it stays portable
//! across FMA/rounding differences. Float determinism is covered
//! separately by [`store_checksum`] and the encoded snapshot bytes, which
//! the replay tests compare *run-to-run within one host*.

use sisg_embedding::EmbeddingStore;
use sisg_obs::Fnv1a;

/// Trace-tag folded before a warm start record.
pub const TAG_WARM_START: u64 = 0x5741_524D;
/// Trace-tag folded before each ingest-batch record.
pub const TAG_BATCH: u64 = 0x4241_5443;
/// Trace-tag folded before each publication record.
pub const TAG_PUBLISH: u64 = 0x5055_424C;
/// Trace-tag folded once when a run completes.
pub const TAG_DONE: u64 = 0x444F_4E45;

/// Hashes the exact f32 bit patterns of both store matrices — the
/// run-to-run float-determinism check of the replay tests (not part of
/// the pinned trace hash; see the module docs).
pub fn store_checksum(store: &EmbeddingStore) -> u64 {
    let mut h = Fnv1a::new();
    for m in [store.input_matrix(), store.output_matrix()] {
        for &v in m.as_slice() {
            h.u64(u64::from(v.to_bits()));
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_checksum_is_deterministic_and_sensitive() {
        let a = EmbeddingStore::new(4, 3, 7);
        let b = EmbeddingStore::new(4, 3, 7);
        assert_eq!(store_checksum(&a), store_checksum(&b));
        let c = EmbeddingStore::new(4, 3, 8);
        assert_ne!(store_checksum(&a), store_checksum(&c));
    }
}
