//! Criterion micro-benchmarks of the hot kernels: the inner loops whose
//! cost dominates a 9.5-trillion-sample production run.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sisg_corpus::TokenId;
use sisg_embedding::math::{axpy, cosine, dot};
use sisg_embedding::{kernels, retrieve_top_k, Matrix};
use sisg_sgns::sgd::{train_pair, PairScratch};
use sisg_sgns::sigmoid::SigmoidTable;
use sisg_sgns::{NoiseTable, PairSampler, WindowMode};
use std::time::Duration;

fn bench_vector_math(c: &mut Criterion) {
    let mut group = c.benchmark_group("vector_math");
    group.measurement_time(Duration::from_secs(2));
    for dim in [32usize, 128] {
        let x: Vec<f32> = (0..dim).map(|i| i as f32 * 0.01).collect();
        let mut y: Vec<f32> = (0..dim).map(|i| 1.0 - i as f32 * 0.01).collect();
        group.bench_with_input(BenchmarkId::new("dot", dim), &dim, |b, _| {
            b.iter(|| dot(black_box(&x), black_box(&y)))
        });
        group.bench_with_input(BenchmarkId::new("axpy", dim), &dim, |b, _| {
            b.iter(|| axpy(black_box(0.01), black_box(&x), black_box(&mut y)))
        });
        group.bench_with_input(BenchmarkId::new("cosine", dim), &dim, |b, _| {
            b.iter(|| cosine(black_box(&x), black_box(&y)))
        });
    }
    group.finish();
}

/// The DESIGN.md §8 kernel variants against each other: the strict serial
/// dot (training order contract), the 4-accumulator unrolled dot (serving),
/// the 4-row interleaved ordered dot (batched training/scan), and the fused
/// gradient step against its two-pass equivalent.
fn bench_kernel_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_variants");
    group.measurement_time(Duration::from_secs(2));
    for dim in [32usize, 128] {
        let x: Vec<f32> = (0..dim).map(|i| i as f32 * 0.01).collect();
        let rows: Vec<Vec<f32>> = (0..4)
            .map(|r| (0..dim).map(|i| ((r * dim + i) as f32).sin()).collect())
            .collect();
        group.bench_with_input(BenchmarkId::new("dot_ordered", dim), &dim, |b, _| {
            b.iter(|| kernels::dot_ordered(black_box(&rows[0]), black_box(&x)))
        });
        group.bench_with_input(BenchmarkId::new("dot_unrolled", dim), &dim, |b, _| {
            b.iter(|| kernels::dot(black_box(&rows[0]), black_box(&x)))
        });
        group.bench_with_input(BenchmarkId::new("dot_ordered_x4", dim), &dim, |b, _| {
            b.iter(|| {
                kernels::dot_ordered_x4(
                    [
                        black_box(&rows[0][..]),
                        black_box(&rows[1][..]),
                        black_box(&rows[2][..]),
                        black_box(&rows[3][..]),
                    ],
                    black_box(&x),
                )
            })
        });
        let mut out = rows[1].clone();
        let mut grad = vec![0.0f32; dim];
        group.bench_with_input(BenchmarkId::new("fused_step", dim), &dim, |b, _| {
            b.iter(|| {
                kernels::fused_step(
                    black_box(0.01),
                    black_box(&x),
                    black_box(&mut out),
                    black_box(&mut grad),
                )
            })
        });
        let m = Matrix::uniform_init(1, dim, 11);
        let row = m.row_ptr(0);
        group.bench_with_input(BenchmarkId::new("fused_grad_step", dim), &dim, |b, _| {
            b.iter(|| {
                black_box(&row).fused_grad_step(
                    black_box(0.01),
                    black_box(&x),
                    black_box(&mut grad),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("two_pass_step", dim), &dim, |b, _| {
            b.iter(|| {
                black_box(&row).accumulate_scaled(black_box(0.01), black_box(&mut grad));
                black_box(&row).axpy_slice(black_box(0.01), black_box(&x));
            })
        });
    }
    group.finish();
}

/// The relaxed-atomic Hogwild accessors ([`Matrix::row_ptr`]) against the
/// plain-slice kernels on the same data: on mainstream ISAs a relaxed
/// `AtomicU32` load/store compiles to the same 32-bit mov as a plain one,
/// so these pairs of numbers should match within noise. This is the
/// regression guard for the soundness refactor that replaced aliased
/// `&mut` rows with `RowPtr`.
fn bench_row_ptr_vs_slice(c: &mut Criterion) {
    let mut group = c.benchmark_group("row_ptr");
    group.measurement_time(Duration::from_secs(2));
    for dim in [32usize, 128] {
        let m = Matrix::uniform_init(2, dim, 5);
        let a = m.row_ptr(0);
        let b_row = m.row_ptr(1);
        group.bench_with_input(BenchmarkId::new("atomic_dot", dim), &dim, |b, _| {
            b.iter(|| black_box(&a).dot(black_box(&b_row)))
        });
        group.bench_with_input(BenchmarkId::new("slice_dot", dim), &dim, |b, _| {
            b.iter(|| dot(black_box(m.row(0)), black_box(m.row(1))))
        });
        group.bench_with_input(BenchmarkId::new("atomic_axpy", dim), &dim, |b, _| {
            b.iter(|| black_box(&a).axpy_row(black_box(0.01), black_box(&b_row)))
        });
    }
    group.finish();
}

fn bench_noise_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("noise_table");
    group.measurement_time(Duration::from_secs(2));
    for vocab in [10_000usize, 1_000_000] {
        let freqs: Vec<u64> = (0..vocab).map(|i| (i as u64 % 1000) + 1).collect();
        let table = NoiseTable::from_freqs(&freqs, 0.75);
        let mut rng = StdRng::seed_from_u64(7);
        group.bench_with_input(BenchmarkId::new("sample", vocab), &vocab, |b, _| {
            b.iter(|| table.sample(black_box(&mut rng)))
        });
    }
    group.finish();
}

fn bench_sgd_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("sgd");
    group.measurement_time(Duration::from_secs(2));
    for (dim, negatives) in [(32usize, 5usize), (32, 20), (128, 20)] {
        let input = Matrix::uniform_init(1000, dim, 1);
        let output = Matrix::uniform_init(1000, dim, 2);
        let sigmoid = SigmoidTable::new();
        let negs: Vec<TokenId> = (2..2 + negatives as u32).map(TokenId).collect();
        let mut scratch = PairScratch::new(dim);
        group.bench_with_input(
            BenchmarkId::new("train_pair", format!("d{dim}_n{negatives}")),
            &dim,
            |b, _| {
                b.iter(|| {
                    train_pair(
                        &input,
                        &output,
                        TokenId(0),
                        TokenId(1),
                        black_box(&negs),
                        0.025,
                        &sigmoid,
                        &mut scratch,
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_retrieval(c: &mut Criterion) {
    let mut group = c.benchmark_group("retrieval");
    group.measurement_time(Duration::from_secs(2));
    for n in [10_000usize, 100_000] {
        let m = Matrix::uniform_init(n, 32, 3);
        let query: Vec<f32> = (0..32).map(|i| (i as f32).sin()).collect();
        group.bench_with_input(BenchmarkId::new("top200", n), &n, |b, _| {
            b.iter(|| retrieve_top_k(black_box(&query), &m, (0..n as u32).map(TokenId), 200, None))
        });
    }
    group.finish();
}

fn bench_pair_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("pair_sampling");
    group.measurement_time(Duration::from_secs(2));
    let seq: Vec<TokenId> = (0..200u32).map(TokenId).collect();
    let mut out = Vec::with_capacity(4096);
    for (name, mode) in [
        ("symmetric", WindowMode::Symmetric),
        ("right_only", WindowMode::RightOnly),
    ] {
        let sampler = PairSampler { window: 10, mode };
        group.bench_function(BenchmarkId::new("window10_len200", name), |b| {
            b.iter(|| sampler.pairs_into(black_box(&seq), &mut out))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_vector_math,
    bench_kernel_variants,
    bench_row_ptr_vs_slice,
    bench_noise_sampling,
    bench_sgd_step,
    bench_retrieval,
    bench_pair_sampling
);
criterion_main!(benches);
