//! The batched, unrolled kernel layer behind every SGD inner loop and
//! serving-side scorer (DESIGN.md §8).
//!
//! Two kernel families live here, split by *numeric contract*:
//!
//! - **Order-preserving kernels** (`dot_ordered`, `dot_ordered_x4`, their
//!   `_scaled` siblings, `fused_step`, `axpy`, `add_assign`, `scale`):
//!   every f32 operation on a given element happens in exactly the order
//!   the naive scalar loop performs it, so results are *bit-identical* to
//!   the reference implementation. The training paths use only these —
//!   single-threaded training output is reproducible across kernel-layer
//!   versions (enforced by the golden checksum test in `crates/sgns`).
//!   `dot_ordered_x4` gets its speed without reordering: it interleaves
//!   four *independent* serial accumulation chains, one per row, which
//!   hides the ~4-cycle FP-add latency that makes a single serial dot
//!   throughput-starved.
//! - **Reduction-reordering kernels** (`dot`, with [`dot_scalar_ref`] as
//!   its semantic definition): 8-wide unrolled with 4 independent
//!   accumulators (`acc[i % 4] += x[i] * y[i]`, combined as
//!   `(a0 + a1) + (a2 + a3)`). Up to ~4× faster than the serial chain, but
//!   the reordered reduction shifts low-order bits, so these serve the
//!   retrieval / evaluation / serving scorers where bit-reproducibility
//!   across versions is not contractual (results are still deterministic
//!   within a build).
//!
//! Elementwise kernels (`axpy` and friends) have no reduction, so loop
//! unrolling and auto-vectorization cannot change their results: each
//! element's value is computed by the same ops in the same order
//! regardless of how many lanes execute at once. They are safe in both
//! families.
//!
//! Atomic (Hogwild) counterparts of these kernels live on
//! [`crate::matrix::RowPtr`], which owns the `AtomicU32` cells; the
//! soundness rules there (per-element relaxed atomics, no SIMD over
//! atomic memory) are why the two implementations are separate.

/// Strict left-to-right dot product — the order-preserving reference used
/// by the training paths.
///
/// # Panics
/// Panics when the slices differ in length.
#[inline]
pub fn dot_ordered(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "length mismatch");
    let mut acc = 0.0f32;
    for (&a, &b) in x.iter().zip(y) {
        acc += a * b;
    }
    acc
}

/// Four order-preserving dot products against a shared right-hand side,
/// with the four serial accumulation chains interleaved for instruction-
/// level parallelism. Each result is bit-identical to
/// `dot_ordered(rows[i], y)`; only the *scheduling* changes.
///
/// # Panics
/// Panics when any row's length differs from `y.len()`.
#[inline]
pub fn dot_ordered_x4(rows: [&[f32]; 4], y: &[f32]) -> [f32; 4] {
    let n = y.len();
    for r in rows {
        assert_eq!(r.len(), n, "length mismatch");
    }
    let [r0, r1, r2, r3] = rows;
    let mut a0 = 0.0f32;
    let mut a1 = 0.0f32;
    let mut a2 = 0.0f32;
    let mut a3 = 0.0f32;
    for d in 0..n {
        let v = y[d];
        a0 += r0[d] * v;
        a1 += r1[d] * v;
        a2 += r2[d] * v;
        a3 += r3[d] * v;
    }
    [a0, a1, a2, a3]
}

/// [`dot_ordered`] over the row `x · s`, scaled one element at a time:
/// accumulates `(x[d] · s) · y[d]` in serial order, so the result is
/// bit-identical to `dot_ordered` over a copy of `x` scaled in place by
/// [`scale`] — without the copy. Scale `1.0` is plain `dot_ordered`.
///
/// # Panics
/// Panics when the slices differ in length.
#[inline]
pub fn dot_ordered_scaled(x: &[f32], s: f32, y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "length mismatch");
    let mut acc = 0.0f32;
    for (&a, &b) in x.iter().zip(y) {
        acc += (a * s) * b;
    }
    acc
}

/// [`dot_ordered_x4`] with row `i` scaled by `scales[i]` element by
/// element, as [`dot_ordered_scaled`] does: result `i` is bit-identical to
/// `dot_ordered(rows[i] · scales[i], y)` over the pre-scaled row.
///
/// The products `(row[d] · s) · y[d]` are elementwise, so they are formed
/// eight elements at a time (a loop the vectorizer takes), and only then
/// added into the four chains in serial order. Against `dot_ordered_x4`
/// over pre-normalized rows (2 000 and 50 000 × d64, one process), the
/// same loop written element by element measured 8–19 % slower; this
/// shape measured between 1 % faster and 7 % slower.
///
/// # Panics
/// Panics when any row's length differs from `y.len()`.
#[inline]
pub fn dot_ordered_scaled_x4(rows: [&[f32]; 4], scales: [f32; 4], y: &[f32]) -> [f32; 4] {
    let n = y.len();
    for r in rows {
        assert_eq!(r.len(), n, "length mismatch");
    }
    const B: usize = 8;
    let mut acc = [0.0f32; 4];
    let mut products = [[0.0f32; B]; 4];
    let full = n - n % B;
    for d in (0..full).step_by(B) {
        let ys = &y[d..d + B];
        for ((p, r), s) in products.iter_mut().zip(rows).zip(scales) {
            for ((slot, &a), &b) in p.iter_mut().zip(&r[d..d + B]).zip(ys) {
                *slot = (a * s) * b;
            }
        }
        for j in 0..B {
            for (a, p) in acc.iter_mut().zip(&products) {
                *a += p[j];
            }
        }
    }
    for d in full..n {
        for ((a, r), s) in acc.iter_mut().zip(rows).zip(scales) {
            *a += (r[d] * s) * y[d];
        }
    }
    acc
}

/// Scalar definition of the unrolled [`dot`] reduction: lane `i % 4`
/// accumulates element `i`, lanes combine as `(a0 + a1) + (a2 + a3)`.
/// The proptests in `tests/kernel_identity.rs` hold [`dot`] to this within
/// 0 ULP for every length.
#[inline]
pub fn dot_scalar_ref(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "length mismatch");
    let mut acc = [0.0f32; 4];
    for (i, (&a, &b)) in x.iter().zip(y).enumerate() {
        acc[i % 4] += a * b;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Dot product, 8-wide unrolled with 4 independent accumulators — the
/// throughput kernel behind [`crate::math::dot`] and the serving scorers.
/// Reduction order is [`dot_scalar_ref`]'s lane order, *not* the serial
/// order; training paths use [`dot_ordered`] instead.
///
/// # Panics
/// Panics when the slices differ in length.
#[inline]
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "length mismatch");
    let mut a0 = 0.0f32;
    let mut a1 = 0.0f32;
    let mut a2 = 0.0f32;
    let mut a3 = 0.0f32;
    let mut xc = x.chunks_exact(8);
    let mut yc = y.chunks_exact(8);
    for (xs, ys) in (&mut xc).zip(&mut yc) {
        a0 += xs[0] * ys[0];
        a1 += xs[1] * ys[1];
        a2 += xs[2] * ys[2];
        a3 += xs[3] * ys[3];
        a0 += xs[4] * ys[4];
        a1 += xs[5] * ys[5];
        a2 += xs[6] * ys[6];
        a3 += xs[7] * ys[7];
    }
    // Remainder elements continue the `i % 4` lane pattern: a full chunk
    // is 8 elements, so the first remainder element is lane 0 again.
    let mut acc = [a0, a1, a2, a3];
    for (i, (&a, &b)) in xc.remainder().iter().zip(yc.remainder()).enumerate() {
        acc[i % 4] += a * b;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// `y += a · x`. Elementwise, so unrolling cannot change results; the
/// plain loop auto-vectorizes.
///
/// # Panics
/// Panics when the slices differ in length.
#[inline]
pub fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "length mismatch");
    for (slot, &v) in y.iter_mut().zip(x) {
        *slot += a * v;
    }
}

/// `dst += src` — bit-identical to `axpy(1.0, src, dst)` since
/// `1.0 * v == v` exactly.
///
/// # Panics
/// Panics when the slices differ in length.
#[inline]
pub fn add_assign(dst: &mut [f32], src: &[f32]) {
    assert_eq!(src.len(), dst.len(), "length mismatch");
    for (slot, &v) in dst.iter_mut().zip(src) {
        *slot += v;
    }
}

/// Scales `x` in place by `a`.
#[inline]
pub fn scale(x: &mut [f32], a: f32) {
    for v in x {
        *v *= a;
    }
}

/// The fused SGD update of one sample step, non-atomic exact path:
/// for every element, `grad[d] += g · vp[d]` (pre-update value) and then
/// `vp[d] = vp[d] + g · v[d]` — one pass over the output row instead of
/// the separate `accumulate_scaled` + `axpy` passes, preserving exactly
/// their per-element op order.
///
/// # Panics
/// Panics when the slices differ in length.
#[inline]
pub fn fused_step(g: f32, v: &[f32], vp: &mut [f32], grad: &mut [f32]) {
    assert_eq!(v.len(), vp.len(), "length mismatch");
    assert_eq!(v.len(), grad.len(), "length mismatch");
    for ((slot, out), &x) in grad.iter_mut().zip(vp.iter_mut()).zip(v) {
        let old = *out;
        *slot += g * old;
        *out = old + g * x;
    }
}

/// Serial-sum reference for the quantized kernels. Integer addition is
/// associative, so unlike the f32 pair ([`dot`] vs [`dot_scalar_ref`])
/// any blocking of [`dot_q8_i32`] or [`dot_q8_rows_i32`] must return
/// *exactly* this sum — both are held to it at 0 ULP (it is the same
/// integer) for every length by the remainder-sweep tests below.
#[inline]
pub fn dot_q8_scalar_ref(x: &[i8], y: &[i8]) -> i32 {
    assert_eq!(x.len(), y.len(), "length mismatch");
    x.iter().zip(y).map(|(&a, &b)| a as i32 * b as i32).sum()
}

/// Raw quantized dot product: i32 accumulation over i8 weights in
/// 32-element blocks, each block a plain widening multiply-add loop that
/// LLVM's loop vectorizer turns into SIMD code. The f32 [`dot`]'s manual
/// 4-lane unroll is deliberately *not* mirrored here: it defeats integer
/// vectorization and measures ~3× slower at baseline x86-64 than this
/// shape. Unlike the f32 kernels the blocking is invisible in the result
/// — integer addition is associative, so every shape returns exactly the
/// serial sum of [`dot_q8_scalar_ref`] (i8·i8 products and their sums
/// never overflow i32 below 2³¹/127² ≈ 133k elements, far past any
/// embedding dim here).
///
/// # Panics
/// Panics when the slices differ in length.
#[inline]
pub fn dot_q8_i32(x: &[i8], y: &[i8]) -> i32 {
    assert_eq!(x.len(), y.len(), "length mismatch");
    let mut acc = 0i32;
    let mut xc = x.chunks_exact(32);
    let mut yc = y.chunks_exact(32);
    for (xs, ys) in (&mut xc).zip(&mut yc) {
        let mut block = 0i32;
        for d in 0..32 {
            block += xs[d] as i32 * ys[d] as i32;
        }
        acc += block;
    }
    for (&a, &b) in xc.remainder().iter().zip(yc.remainder()) {
        acc += a as i32 * b as i32;
    }
    acc
}

/// Quantized dot product rescaled to f32 score space: accumulates in i32
/// via [`dot_q8_i32`] and multiplies by the *combined* scale
/// (`row_scale · query_scale`) exactly once. The serving-side quantized
/// scorer.
///
/// # Panics
/// Panics when the slices differ in length.
#[inline]
pub fn dot_q8(x: &[i8], y: &[i8], combined_scale: f32) -> f32 {
    dot_q8_i32(x, y) as f32 * combined_scale
}

/// The exact i32 dot of every row of a contiguous int8 block against one
/// int8 query: `out[r] = dot_q8_i32(row r, query)`, where row `r` is
/// `rows[r·dim .. (r+1)·dim]` and `dim = query.len()` (any `dim`, 0
/// included). The quantized scan's kernel.
///
/// On an AVX2 host it reduces eight rows at a time: each 16-byte slice is
/// sign-extended to i16 (`cvtepi8_epi16`) and multiplied pairwise into i32
/// lanes (`madd_epi16`), so one widened query slice serves eight rows.
/// Elsewhere, and under Miri (which does not execute AVX2 intrinsics), it
/// is [`dot_q8_i32`] row by row. Integer sums are exact, so both paths
/// return [`dot_q8_scalar_ref`] for every row.
///
/// # Panics
/// Panics when `rows.len() != out.len() · query.len()`.
pub fn dot_q8_rows_i32(rows: &[i8], query: &[i8], out: &mut [i32]) {
    assert_eq!(rows.len(), out.len() * query.len(), "length mismatch");
    #[cfg(target_arch = "x86_64")]
    {
        if !cfg!(miri) && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, checked on the line above.
            unsafe { avx2::dot_q8_rows_i32(rows, query, out) };
            return;
        }
    }
    dot_q8_rows_i32_scalar(rows, query, out);
}

/// The portable path of [`dot_q8_rows_i32`]: [`dot_q8_i32`] row by row.
/// The caller has checked `rows.len() == out.len() · query.len()`.
fn dot_q8_rows_i32_scalar(rows: &[i8], query: &[i8], out: &mut [i32]) {
    let dim = query.len();
    for (r, slot) in out.iter_mut().enumerate() {
        *slot = dot_q8_i32(&rows[r * dim..(r + 1) * dim], query);
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::dot_q8_i32;
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_cvtepi8_epi16, _mm256_hadd_epi32, _mm256_madd_epi16,
        _mm256_permute2x128_si256, _mm256_setzero_si256, _mm256_storeu_si256, _mm_loadu_si128,
    };

    /// Rows reduced together: eight i32 accumulators plus the widened
    /// query slice and one temporary fit the sixteen ymm registers.
    const ROWS: usize = 8;
    /// int8 elements per step: one 128-bit load, widened to 16 × i16.
    const LANES: usize = 16;

    /// Sign-extends 16 int8 values to 16 i16 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn widen(bytes: &[i8; LANES]) -> __m256i {
        // SAFETY: `bytes` is 16 readable bytes, exactly what the unaligned
        // 128-bit load reads.
        _mm256_cvtepi8_epi16(unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) })
    }

    /// Reduces each of eight accumulators' eight i32 lanes to one sum:
    /// lane `r` of the result is the total of `acc[r]`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn reduce8(acc: &[__m256i; ROWS]) -> __m256i {
        // Each hadd sums adjacent lane pairs within a 128-bit half, so two
        // rounds leave, in each half, one partial sum per row of four rows.
        let h01 = _mm256_hadd_epi32(acc[0], acc[1]);
        let h23 = _mm256_hadd_epi32(acc[2], acc[3]);
        let h45 = _mm256_hadd_epi32(acc[4], acc[5]);
        let h67 = _mm256_hadd_epi32(acc[6], acc[7]);
        let lo = _mm256_hadd_epi32(h01, h23);
        let hi = _mm256_hadd_epi32(h45, h67);
        // Low halves (rows 0–3 | 4–7) plus high halves, lane for lane.
        _mm256_add_epi32(
            _mm256_permute2x128_si256::<0x20>(lo, hi),
            _mm256_permute2x128_si256::<0x31>(lo, hi),
        )
    }

    /// The AVX2 body of [`super::dot_q8_rows_i32`]. Full groups of eight
    /// rows run the vector loop over every whole 16-element slice; a
    /// group's remaining `dim % 16` elements and the last `rows % 8` rows
    /// go through [`dot_q8_i32`]. The caller has checked
    /// `rows.len() == out.len() · query.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) fn dot_q8_rows_i32(rows: &[i8], query: &[i8], out: &mut [i32]) {
        let dim = query.len();
        let (q_slices, q_tail) = query.as_chunks::<LANES>();
        let full = dim - q_tail.len();
        let (groups, rest) = out.as_chunks_mut::<ROWS>();
        let grouped = groups.len() * ROWS;
        for (g, sums) in groups.iter_mut().enumerate() {
            let block = &rows[g * ROWS * dim..(g + 1) * ROWS * dim];
            let mut acc = [_mm256_setzero_si256(); ROWS];
            for (c, q) in q_slices.iter().enumerate() {
                let q = widen(q);
                for (r, a) in acc.iter_mut().enumerate() {
                    // SAFETY: r < 8 and (c + 1)·16 ≤ full ≤ dim, so the 16
                    // bytes at r·dim + c·16 lie inside row r of `block`,
                    // whose 8·dim bytes the slicing above bounds-checked.
                    // Indexing row slices instead measured ~35 % slower.
                    let bytes =
                        unsafe { _mm_loadu_si128(block.as_ptr().add(r * dim + c * LANES).cast()) };
                    *a = _mm256_add_epi32(*a, _mm256_madd_epi16(_mm256_cvtepi8_epi16(bytes), q));
                }
            }
            // SAFETY: `sums` is eight i32s, exactly the 32 bytes the
            // unaligned 256-bit store writes.
            unsafe { _mm256_storeu_si256(sums.as_mut_ptr().cast(), reduce8(&acc)) };
            if !q_tail.is_empty() {
                for (r, sum) in sums.iter_mut().enumerate() {
                    *sum += dot_q8_i32(&block[r * dim + full..(r + 1) * dim], q_tail);
                }
            }
        }
        for (r, slot) in (grouped..).zip(rest) {
            *slot = dot_q8_i32(&rows[r * dim..(r + 1) * dim], query);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, salt: f32) -> Vec<f32> {
        (0..n).map(|i| ((i as f32) * 0.37 + salt).sin()).collect()
    }

    #[test]
    fn dot_matches_scalar_ref_exactly() {
        for n in 0..=33 {
            let x = seq(n, 0.1);
            let y = seq(n, 1.7);
            assert_eq!(dot(&x, &y).to_bits(), dot_scalar_ref(&x, &y).to_bits());
        }
    }

    #[test]
    fn dot_ordered_is_the_naive_loop() {
        let x = seq(19, 0.3);
        let y = seq(19, 2.2);
        let mut acc = 0.0f32;
        for i in 0..x.len() {
            acc += x[i] * y[i];
        }
        assert_eq!(dot_ordered(&x, &y).to_bits(), acc.to_bits());
    }

    #[test]
    fn dot_ordered_x4_matches_four_serial_dots() {
        for n in [0usize, 1, 7, 16, 31] {
            let rows: Vec<Vec<f32>> = (0..4).map(|r| seq(n, r as f32)).collect();
            let y = seq(n, 9.9);
            let got = dot_ordered_x4([&rows[0], &rows[1], &rows[2], &rows[3]], &y);
            for r in 0..4 {
                assert_eq!(got[r].to_bits(), dot_ordered(&rows[r], &y).to_bits());
            }
        }
    }

    #[test]
    fn dot_variants_agree_approximately() {
        let x = seq(128, 0.5);
        let y = seq(128, 3.1);
        assert!((dot(&x, &y) - dot_ordered(&x, &y)).abs() < 1e-4);
    }

    #[test]
    fn fused_step_equals_two_pass_reference() {
        let n = 21;
        let v = seq(n, 0.2);
        let g = 0.013f32;
        let mut vp = seq(n, 1.1);
        let mut grad = seq(n, 2.5);
        let mut vp_ref = vp.clone();
        let mut grad_ref = grad.clone();
        // Reference: grad += g·vp (pre-update), then vp += g·v.
        for d in 0..n {
            grad_ref[d] += g * vp_ref[d];
        }
        for d in 0..n {
            vp_ref[d] += g * v[d];
        }
        fused_step(g, &v, &mut vp, &mut grad);
        for d in 0..n {
            assert_eq!(vp[d].to_bits(), vp_ref[d].to_bits());
            assert_eq!(grad[d].to_bits(), grad_ref[d].to_bits());
        }
    }

    #[test]
    fn elementwise_kernels_are_exact() {
        let mut y = vec![1.0f32, 2.0, 3.0];
        axpy(2.0, &[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, [3.0, 4.0, 5.0]);
        add_assign(&mut y, &[1.0, 0.0, -1.0]);
        assert_eq!(y, [4.0, 4.0, 4.0]);
        scale(&mut y, 0.5);
        assert_eq!(y, [2.0, 2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    fn qseq(n: usize, salt: i32) -> Vec<i8> {
        (0..n)
            .map(|i| (((i as i32 * 37 + salt * 13) % 255) - 127) as i8)
            .collect()
    }

    #[test]
    fn dot_q8_matches_scalar_ref_exactly_across_remainders() {
        // The ISSUE-level 0-ULP sweep: every length through two full
        // 32-element blocks plus every partial tail agrees bit-for-bit
        // with the i32 scalar reference, and with the plain serial sum.
        for n in 0..=70usize {
            let x = qseq(n, 1);
            let y = qseq(n, 7);
            let unrolled = dot_q8_i32(&x, &y);
            let reference = dot_q8_scalar_ref(&x, &y);
            assert_eq!(unrolled, reference, "n={n}");
            let serial: i32 = x.iter().zip(&y).map(|(&a, &b)| a as i32 * b as i32).sum();
            assert_eq!(unrolled, serial, "n={n}");
            // The rescaled form is the same integer times the scale: 0 ULP.
            let s = 0.0371f32;
            assert_eq!(
                dot_q8(&x, &y, s).to_bits(),
                (reference as f32 * s).to_bits(),
                "n={n}"
            );
        }
    }

    #[test]
    fn dot_q8_saturated_rows_do_not_overflow() {
        // 127·127·4096 = 66 060 288 « i32::MAX: the worst case at any
        // realistic dim stays exact.
        let x = vec![127i8; 4096];
        let y = vec![-127i8; 4096];
        assert_eq!(dot_q8_i32(&x, &y), -127 * 127 * 4096);
    }

    #[test]
    fn dot_q8_rows_matches_scalar_ref_on_both_paths() {
        // Every dim through eight full 16-element slices plus each tail,
        // and row counts around the 8-row group: the dispatched kernel
        // (AVX2 where the host has it) and the portable path both return
        // the serial i32 sum, row by row. Bytes cover the whole i8 range.
        for dim in 0..=130usize {
            for n in [0usize, 1, 7, 8, 9, 17, 300] {
                let rows: Vec<i8> = (0..n * dim)
                    .map(|i| (i as u32).wrapping_mul(2_654_435_761).rotate_right(13) as i8)
                    .collect();
                let query: Vec<i8> = (0..dim).map(|d| (d as i32 * 53 - 128) as i8).collect();
                let mut fast = vec![i32::MIN; n];
                let mut portable = vec![i32::MIN; n];
                dot_q8_rows_i32(&rows, &query, &mut fast);
                dot_q8_rows_i32_scalar(&rows, &query, &mut portable);
                for r in 0..n {
                    let reference = dot_q8_scalar_ref(&rows[r * dim..(r + 1) * dim], &query);
                    assert_eq!(fast[r], reference, "dim={dim} n={n} row={r}");
                    assert_eq!(portable[r], reference, "dim={dim} n={n} row={r}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_q8_length_mismatch_panics() {
        let _ = dot_q8_i32(&[1i8], &[1i8, 2]);
    }
}
