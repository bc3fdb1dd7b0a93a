//! Bit-identity regression guard for the EGES trainer.
//!
//! The checksum covers every bit of the aggregated, L2-normalized `H_v`
//! matrix that retrieval scores against, trained on the tiny corpus.
//!
//! Provenance. The trainer's own walk loop (commit 254cdcd) gave
//! `0xf1f66bf12ffb2926`. It counted a walk's own tokens into the
//! learning-rate progress of the walk's pairs. The shared `PairStream`
//! reproduced that value bit for bit under the old rule; the value below
//! is the same run under the rule sgns keeps (progress counts the walk
//! tokens before the pair's walk), DESIGN.md §5.
//!
//! A change that moves the value must say why and re-pin it.

use sisg_corpus::{CorpusConfig, GeneratedCorpus, ItemId};
use sisg_eges::{EgesConfig, EgesModel, WalkConfig};
use sisg_obs::Fnv1a;

fn checksum() -> u64 {
    let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
    let config = EgesConfig {
        dim: 16,
        negatives: 5,
        epochs: 2,
        walk: WalkConfig {
            walks_per_node: 2,
            walk_length: 8,
            seed: 3,
        },
        ..Default::default()
    };
    let model = EgesModel::train(&corpus, &config);
    // The little-endian bit pattern of every f32, item by item.
    let mut h = Fnv1a::new();
    for v in 0..corpus.config.n_items {
        for x in model.embedding(ItemId(v)) {
            h.bytes(&x.to_bits().to_le_bytes());
        }
    }
    h.finish()
}

#[test]
fn aggregated_embeddings_are_bit_identical_to_reference() {
    let got = checksum();
    assert_eq!(
        got, 0x463a_8d90_5c81_207d,
        "EGES output drifted from the reference (got {got:#x})"
    );
}
