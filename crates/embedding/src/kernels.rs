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
/// any blocking of [`dot_q8_i32`] must return *exactly* this sum — the
/// blocked kernel is held to it at 0 ULP (it is the same integer) for
/// every length by the remainder-sweep test below.
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

/// Four quantized dot products against a shared right-hand side, i32
/// accumulation chains interleaved for instruction-level parallelism —
/// the quantized sibling of [`dot_ordered_x4`]. Each result is exactly
/// `dot_q8(rows[i], y, scales[i])` (integer accumulation makes the
/// interleaving invisible).
///
/// # Panics
/// Panics when any row's length differs from `y.len()`.
#[inline]
pub fn dot_q8_x4(rows: [&[i8]; 4], scales: [f32; 4], y: &[i8]) -> [f32; 4] {
    let n = y.len();
    for r in rows {
        assert_eq!(r.len(), n, "length mismatch");
    }
    let [r0, r1, r2, r3] = rows;
    let mut a0 = 0i32;
    let mut a1 = 0i32;
    let mut a2 = 0i32;
    let mut a3 = 0i32;
    for d in 0..n {
        let v = y[d] as i32;
        a0 += r0[d] as i32 * v;
        a1 += r1[d] as i32 * v;
        a2 += r2[d] as i32 * v;
        a3 += r3[d] as i32 * v;
    }
    [
        a0 as f32 * scales[0],
        a1 as f32 * scales[1],
        a2 as f32 * scales[2],
        a3 as f32 * scales[3],
    ]
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
    fn dot_q8_x4_matches_four_single_dots() {
        for n in [0usize, 1, 7, 16, 31] {
            let rows: Vec<Vec<i8>> = (0..4).map(|r| qseq(n, r)).collect();
            let y = qseq(n, 9);
            let scales = [0.1f32, 0.2, 0.3, 0.4];
            let got = dot_q8_x4([&rows[0], &rows[1], &rows[2], &rows[3]], scales, &y);
            for r in 0..4 {
                assert_eq!(
                    got[r].to_bits(),
                    dot_q8(&rows[r], &y, scales[r]).to_bits(),
                    "n={n} r={r}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_q8_length_mismatch_panics() {
        let _ = dot_q8_i32(&[1i8], &[1i8, 2]);
    }
}
