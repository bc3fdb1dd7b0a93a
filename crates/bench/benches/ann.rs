//! Criterion benchmarks of the serving index: build cost and per-query
//! latency of the int8 HNSW vs the exact scan, over L2-normalized rows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sisg_ann::{HnswConfig, QHnswIndex};
use sisg_corpus::TokenId;
use sisg_embedding::math::normalize;
use sisg_embedding::{retrieve_top_k, Matrix, QuantMatrix};
use std::time::Duration;

fn vectors(n: usize, dim: usize) -> Matrix {
    let mut rng = StdRng::seed_from_u64(11);
    let mut data: Vec<f32> = (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    for row in data.chunks_mut(dim) {
        normalize(row);
    }
    Matrix::from_data(n, dim, data)
}

fn bench_search(c: &mut Criterion) {
    let n = 20_000;
    let m = vectors(n, 32);
    let query: Vec<f32> = m.row(123).to_vec();
    let qhnsw = QHnswIndex::build(QuantMatrix::from_matrix(&m), HnswConfig::default());

    let mut group = c.benchmark_group("ann_search_20k");
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("brute_force_top100", |b| {
        b.iter(|| retrieve_top_k(&query, &m, (0..n as u32).map(TokenId), 100, None))
    });
    group.bench_function("qhnsw_top100", |b| b.iter(|| qhnsw.search(&query, 100)));
    group.finish();
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("ann_build");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(5));
    for n in [2_000usize, 8_000] {
        let rows = QuantMatrix::from_matrix(&vectors(n, 32));
        group.bench_with_input(BenchmarkId::new("qhnsw", n), &n, |b, _| {
            b.iter(|| QHnswIndex::build(rows.clone(), HnswConfig::default()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_search, bench_build);
criterion_main!(benches);
