//! Direct probes of the kernel layer's public functions.
//!
//! Every higher number in this benchmark is made of these calls (Item2Vec
//! and EGES score similarity as a plain dot product), so the traced run
//! times them alone, streaming over a matrix larger than the L2 cache at
//! the workload's own dimension.

use crate::catalog::LayerMetrics;
use crate::hist::median;
use crate::trace::Tracer;
use sisg_embedding::kernels::{dot, dot_q8, fused_step};
use sisg_embedding::{Matrix, QuantMatrix, QuantQuery, QuantRows};
use std::time::Instant;

/// Rows of the probe matrix: 8 MB of f32 at d32, 16 MB at d64.
const ROWS: usize = 1 << 16;
/// Passes over the matrix; the median pass is reported.
const PASSES: usize = 15;

/// Median over [`PASSES`] of `pass`'s nanoseconds per row.
fn ns_per_row(mut pass: impl FnMut() -> f32) -> f64 {
    let per_pass: Vec<f64> = (0..PASSES)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(pass());
            started.elapsed().as_nanos() as f64 / ROWS as f64
        })
        .collect();
    median(&per_pass)
}

/// Times `dot` and `fused_step` (the SGD inner loop) at `dim`.
pub fn kernels(dim: usize, tr: &mut Tracer, layer: &mut LayerMetrics) {
    let span = tr.begin("embedding.kernel_probe", None, 0);
    let mut matrix = Matrix::uniform_init(ROWS, dim, 0xD07);
    let query: Vec<f32> = (0..dim).map(|i| (i as f32).sin() * 0.1 + 0.05).collect();

    let dot_ns = ns_per_row(|| {
        let mut acc = 0.0f32;
        for i in 0..ROWS {
            acc += dot(std::hint::black_box(matrix.row(i)), &query);
        }
        acc
    });
    layer.set("embedding.dot_ns", dot_ns);

    let mut grad = vec![0.0f32; dim];
    let fused_ns = ns_per_row(|| {
        for i in 0..ROWS {
            // A step small enough that fifteen passes keep the rows finite.
            fused_step(1e-6, &query, matrix.row_mut(i), &mut grad);
        }
        grad[0]
    });
    layer.set("embedding.fused_step_ns", fused_ns);
    tr.end(span);
}

/// Times the int8 kernel `dot_q8` at `dim`.
pub fn quant_kernel(dim: usize, tr: &mut Tracer, layer: &mut LayerMetrics) {
    let span = tr.begin("embedding.quant_probe", None, 0);
    let quantized = QuantMatrix::from_matrix(&Matrix::uniform_init(ROWS, dim, 0xD07));
    let query: Vec<f32> = (0..dim).map(|i| (i as f32).sin() * 0.1 + 0.05).collect();
    let qquery = QuantQuery::new(&query);
    let q8_ns = ns_per_row(|| {
        let mut acc = 0.0f32;
        for i in 0..ROWS {
            acc += dot_q8(
                std::hint::black_box(quantized.row(i)),
                qquery.weights(),
                quantized.scale(i) * qquery.scale(),
            );
        }
        acc
    });
    layer.set("embedding.dot_q8_ns", q8_ns);
    tr.end(span);
}
