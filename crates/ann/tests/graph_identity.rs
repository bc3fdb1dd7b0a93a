//! Graph-identity pins for the HNSW core.
//!
//! The constants below were computed on the commit *before* the two
//! mirrored graph implementations (`hnsw.rs` / `qhnsw.rs`) were unified
//! into one generic core with a flat layer-0 arena. Construction order,
//! level sampling, beam search and pruning must reproduce them bit for
//! bit: every node, every layer, every neighbour in order, plus the
//! search effort and answers on that graph. A change that moves one of
//! these constants changed the graph, not just its storage.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sisg_ann::{Hit, HnswConfig, HnswIndex, QHnswIndex};
use sisg_embedding::math::normalize;
use sisg_embedding::{Matrix, QuantMatrix};
use sisg_obs::Fnv1a;

const ROWS: usize = 2_000;
const DIM: usize = 16;
const K: usize = 10;

/// Seeded corpus of L2-normalized rows.
fn corpus() -> Matrix {
    let mut rng = StdRng::seed_from_u64(0x005E_ED16);
    let mut data: Vec<f32> = (0..ROWS * DIM)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    for row in data.chunks_mut(DIM) {
        normalize(row);
    }
    Matrix::from_data(ROWS, DIM, data)
}

/// Runs the probe queries (every 97th row) and returns total hops and a
/// checksum of every hit's id and score bits.
fn probe(m: &Matrix, search: impl Fn(&[f32]) -> (Vec<Hit>, u64)) -> (u64, u64) {
    let mut hops = 0u64;
    let mut answers = Fnv1a::new();
    for q in (0..ROWS).step_by(97) {
        let (hits, h) = search(m.row(q));
        hops += h;
        for hit in hits {
            answers.bytes(&hit.id.0.to_le_bytes());
            answers.bytes(&hit.score.to_bits().to_le_bytes());
        }
    }
    (hops, answers.finish())
}

#[test]
fn f32_graph_is_bit_identical_to_the_pinned_build() {
    let m = corpus();
    let index = HnswIndex::build(&m, HnswConfig::default());
    let (hops, answers) = probe(&m, |q| index.search_with_effort(q, K));
    assert_eq!(
        (index.graph_checksum(), hops, answers),
        (F32_GRAPH, F32_HOPS, F32_ANSWERS),
        "f32 HNSW graph, search effort or answers moved"
    );
}

#[test]
fn int8_graph_is_bit_identical_to_the_pinned_build() {
    let m = corpus();
    let index = QHnswIndex::build(QuantMatrix::from_matrix(&m), HnswConfig::default());
    let (hops, answers) = probe(&m, |q| index.search_with_effort(q, K));
    assert_eq!(
        (index.graph_checksum(), hops, answers),
        (Q8_GRAPH, Q8_HOPS, Q8_ANSWERS),
        "int8 HNSW graph, search effort or answers moved"
    );
}

const F32_GRAPH: u64 = 2_503_895_126_130_735_881;
const F32_HOPS: u64 = 15_451;
const F32_ANSWERS: u64 = 4_910_973_582_049_234_370;
const Q8_GRAPH: u64 = 9_825_857_226_083_849_020;
const Q8_HOPS: u64 = 15_443;
const Q8_ANSWERS: u64 = 5_219_420_135_236_782_981;
