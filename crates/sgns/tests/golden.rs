//! Bit-identity regression guard for the trainer.
//!
//! The kernel layer (DESIGN.md §8) promises that a refactor of the SGD
//! inner loop changes the trained output only where it says so:
//! the step pass keeps every element's operation order, the scoring pass
//! keeps the lane order of `kernels::dot_scalar_ref`, and the RNG draw
//! order is untouched. Any low-order-bit drift in the trained embeddings
//! fails the FNV comparison below.
//!
//! Provenance. Both checksums were recorded from the pre-kernel-layer
//! implementation (commit 99fbcfb), whose training dots were strict serial
//! chains. Scoring moved to the four-lane order in the change that made
//! every training path score like `kernels::dot`. A score reaches the
//! update only through its σ table bin (1 024 bins over [−6, 6]), so a
//! changed low-order bit moves the output only when it crosses a bin edge:
//! on the `dim 16` run 3 of 82 855 scores did, and that checksum was
//! re-pinned; on the subsampled `dim 8` run none of 1 039 did, and its
//! checksum still holds from 99fbcfb.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sisg_corpus::TokenId;
use sisg_obs::Fnv1a;
use sisg_sgns::{train, SgnsConfig};

/// Two-topic synthetic corpus, the same shape the trainer tests use.
fn golden_corpus(seed: u64) -> Vec<Vec<TokenId>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..150)
        .map(|_| {
            let topic = if rng.gen_bool(0.5) { 0u32 } else { 10u32 };
            (0..10)
                .map(|_| TokenId(topic + rng.gen_range(0u32..10)))
                .collect()
        })
        .collect()
}

fn checksum(cfg: &SgnsConfig) -> u64 {
    let seqs = golden_corpus(77);
    let (store, stats) = train(&seqs, 20, cfg);
    assert!(stats.pairs > 0, "golden corpus must produce pairs");
    // The little-endian bit pattern of every f32: input rows, then output.
    let mut h = Fnv1a::new();
    for m in [store.input_matrix(), store.output_matrix()] {
        for v in m.as_slice() {
            h.bytes(&v.to_bits().to_le_bytes());
        }
    }
    h.finish()
}

#[test]
fn single_thread_output_is_bit_identical_to_reference() {
    let cfg = SgnsConfig {
        dim: 16,
        window: 3,
        negatives: 5,
        epochs: 2,
        subsample: 0.0,
        seed: 42,
        ..Default::default()
    };
    let got = checksum(&cfg);
    assert_eq!(
        got, 0x18a7_d938_6ae7_ec4d,
        "single-thread SGNS output drifted from the lane-order reference (got {got:#x})"
    );
}

#[test]
fn single_thread_output_with_subsampling_is_bit_identical_to_reference() {
    // Subsampling on: also pins the rng draw order of the filter path.
    let cfg = SgnsConfig {
        dim: 8,
        window: 2,
        negatives: 3,
        epochs: 1,
        subsample: 1e-3,
        seed: 7,
        ..Default::default()
    };
    let got = checksum(&cfg);
    assert_eq!(
        got, 0xcf0e_a002_22e2_1ea1,
        "subsampled single-thread SGNS output drifted from the pre-kernel reference (got {got:#x})"
    );
}
