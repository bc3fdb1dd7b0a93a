//! Graph-identity pins for the int8 HNSW index.
//!
//! The d16 constants were computed on the commit *before* the two
//! mirrored graph implementations were unified into one generic core with
//! a flat layer-0 arena; the d64 ones (the dimension serving runs, and the
//! first where `dot_q8`'s 32-element block loop runs, not only its
//! remainder) on the commit before that core was folded onto int8 rows.
//! Construction order, level sampling, beam search and pruning must
//! reproduce them bit for bit: every node, every layer, every neighbour in
//! order, plus the search effort and answers on that graph. A change that
//! moves one of these constants changed the graph, not just its storage.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sisg_ann::{HnswConfig, QHnswIndex};
use sisg_embedding::math::normalize;
use sisg_embedding::{Matrix, QuantMatrix};
use sisg_obs::Fnv1a;

const ROWS: usize = 2_000;
const K: usize = 10;

/// Seeded corpus of L2-normalized rows.
fn corpus(dim: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data: Vec<f32> = (0..ROWS * dim)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    for row in data.chunks_mut(dim) {
        normalize(row);
    }
    Matrix::from_data(ROWS, dim, data)
}

/// Builds the default index over `m` and runs the probe queries (every
/// 97th row): returns the graph checksum, total hops and a checksum of
/// every hit's id and score bits.
fn pin(m: &Matrix) -> (u64, u64, u64) {
    let index = QHnswIndex::build(QuantMatrix::from_matrix(m), HnswConfig::default());
    let mut hops = 0u64;
    let mut answers = Fnv1a::new();
    for q in (0..ROWS).step_by(97) {
        let (hits, h) = index.search_with_effort(m.row(q), K);
        hops += h;
        for hit in hits {
            answers.bytes(&hit.id.0.to_le_bytes());
            answers.bytes(&hit.score.to_bits().to_le_bytes());
        }
    }
    (index.graph_checksum(), hops, answers.finish())
}

#[test]
fn int8_graph_is_bit_identical_to_the_pinned_build() {
    assert_eq!(
        pin(&corpus(16, 0x005E_ED16)),
        (Q8_GRAPH, Q8_HOPS, Q8_ANSWERS),
        "int8 HNSW graph, search effort or answers moved"
    );
}

#[test]
fn int8_graph_at_d64_is_bit_identical_to_the_pinned_build() {
    assert_eq!(
        pin(&corpus(64, 0x005E_ED64)),
        (Q8_D64_GRAPH, Q8_D64_HOPS, Q8_D64_ANSWERS),
        "int8 HNSW graph at d64, search effort or answers moved"
    );
}

const Q8_GRAPH: u64 = 9_825_857_226_083_849_020;
const Q8_HOPS: u64 = 15_443;
const Q8_ANSWERS: u64 = 5_219_420_135_236_782_981;
const Q8_D64_GRAPH: u64 = 2_479_691_485_934_139_837;
const Q8_D64_HOPS: u64 = 21_556;
const Q8_D64_ANSWERS: u64 = 5_135_914_397_899_935_209;
