//! The batched, unrolled kernel layer behind every SGD inner loop and
//! serving-side scorer (DESIGN.md §8).
//!
//! Two dot orders live here, each a contract:
//!
//! - **Serial order** (`dot_ordered`, `dot_ordered_x4`, their `_scaled`
//!   siblings): one left-to-right accumulation chain per row, the order of
//!   the naive scalar loop. The serving scan (`topk`) uses it;
//!   `dot_ordered_x4` gets its speed without reordering by interleaving
//!   four *independent* chains, one per row.
//! - **Lane order** (`dot`, `dot_rows`, with [`dot_scalar_ref`] as their
//!   semantic definition): four accumulators (`acc[i % 4] += x[i] * y[i]`,
//!   combined as `(a0 + a1) + (a2 + a3)`), so one dot is a chain of
//!   `len / 4` adds instead of `len`. Every training score uses it, through
//!   `dot_rows`, and so do the evaluation and serving scorers behind
//!   [`crate::math::dot`]. Each kernel returns exactly `dot_scalar_ref`'s
//!   bits, so training output is reproducible across kernel-layer versions
//!   (enforced by the golden checksum test in `crates/sgns`).
//!
//! Elementwise kernels (`axpy` and friends) have no reduction, so loop
//! unrolling and auto-vectorization cannot change their results: each
//! element's value is computed by the same ops in the same order
//! regardless of how many lanes execute at once. They are safe in both
//! families.

use sisg_corpus::TokenId;

/// Strict left-to-right dot product — the serial order of the serving
/// scan.
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

/// Dot product in [`dot_scalar_ref`]'s lane order — the kernel behind
/// [`crate::math::dot`] and the serving scorers, and the order of every
/// training score ([`dot_rows`]), *not* the serial order. One row of
/// `dot_block`: on x86_64 its four lane accumulators are one SSE
/// register.
///
/// # Panics
/// Panics when the slices differ in length.
#[inline]
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "length mismatch");
    let [d] = dot_block([x], y);
    d
}

/// The lane-order dots of listed rows of a row-major block:
/// `out[k] = dot(row rows[k], y)` bit for bit, where row `t` is
/// `block[t·dim ..][..dim]` and `dim = y.len()` — the training paths'
/// scoring pass. Four rows share one pass over `y`, each with its own
/// four lane accumulators, which turns the latency-bound chain of one dot
/// into a throughput-bound pass; the last one to three rows share one
/// more.
///
/// # Panics
/// Panics when `out.len() != rows.len()` or a row lies outside the block.
#[inline]
pub fn dot_rows(block: &[f32], rows: &[TokenId], y: &[f32], out: &mut [f32]) {
    assert_eq!(rows.len(), out.len(), "length mismatch");
    let dim = y.len();
    let row = |t: &TokenId| &block[t.index() * dim..][..dim];
    let (quads, rest) = rows.as_chunks::<DOT_GROUP>();
    let (out_quads, out_rest) = out.as_chunks_mut::<DOT_GROUP>();
    for (q, o) in quads.iter().zip(out_quads) {
        *o = dot_block(q.each_ref().map(row), y);
    }
    match rest {
        [] => {}
        [a] => out_rest.copy_from_slice(&dot_block([row(a)], y)),
        [a, b] => out_rest.copy_from_slice(&dot_block([row(a), row(b)], y)),
        [a, b, c] => out_rest.copy_from_slice(&dot_block([row(a), row(b), row(c)], y)),
        _ => unreachable!("as_chunks leaves fewer than {DOT_GROUP} rows"),
    }
}

/// Rows [`dot_rows`] scores in one pass over `y`.
const DOT_GROUP: usize = 4;

/// `K` [`dot`]s against a shared right-hand side, each in
/// [`dot_scalar_ref`]'s lane order: row `r` keeps its own four lane
/// accumulators, element `i` goes to lane `i % 4`, and the lanes combine as
/// `(a0 + a1) + (a2 + a3)`. Result `r` is bit-identical to
/// `dot(rows[r], y)`. Every row is as long as `y` (sliced so by the caller).
#[inline]
fn dot_block<const K: usize>(rows: [&[f32]; K], y: &[f32]) -> [f32; K] {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: SSE is part of the x86_64 baseline, so every x86_64 CPU
        // runs it.
        unsafe { sse::dot_block(rows, y) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        dot_block_portable(rows, y)
    }
}

/// The portable path of [`dot_block`]: the four lanes of every row as a
/// plain array.
#[cfg(any(not(target_arch = "x86_64"), test))]
fn dot_block_portable<const K: usize>(rows: [&[f32]; K], y: &[f32]) -> [f32; K] {
    let (ys, y_tail) = y.as_chunks::<4>();
    let full = y.len() - y_tail.len();
    let mut acc = [[0.0f32; 4]; K];
    for (c, yc) in ys.iter().enumerate() {
        for (a, r) in acc.iter_mut().zip(rows) {
            for j in 0..4 {
                a[j] += r[c * 4 + j] * yc[j];
            }
        }
    }
    lane_tails(&mut acc, rows, full, y_tail);
    acc.map(|a| (a[0] + a[1]) + (a[2] + a[3]))
}

/// The elements past the last whole chunk of four, added into their lanes:
/// the tail starts at a multiple of four, so its element `j` is lane `j`.
#[inline]
fn lane_tails<const K: usize>(
    acc: &mut [[f32; 4]; K],
    rows: [&[f32]; K],
    full: usize,
    y_tail: &[f32],
) {
    for (a, r) in acc.iter_mut().zip(rows) {
        for (j, (&x, &yv)) in r[full..].iter().zip(y_tail).enumerate() {
            a[j] += x * yv;
        }
    }
}

/// SSE body of the lane-order dots. SSE is part of the x86_64 baseline, so
/// no run-time detection is needed; one 128-bit register holds a row's
/// four lane accumulators, which is the lane order itself (the plain-array
/// form vectorizes across rows instead, with a shuffle per product).
#[cfg(target_arch = "x86_64")]
mod sse {
    use super::lane_tails;
    use std::arch::x86_64::{
        __m128, _mm_add_ps, _mm_add_ss, _mm_cvtss_f32, _mm_loadu_ps, _mm_movehl_ps, _mm_mul_ps,
        _mm_setzero_ps, _mm_shuffle_ps, _mm_storeu_ps,
    };

    /// Loads four f32s.
    #[inline(always)]
    fn load(x: &[f32; 4]) -> __m128 {
        // SAFETY: `x` is four readable f32s, exactly the 16 bytes the
        // unaligned 128-bit load reads.
        unsafe { _mm_loadu_ps(x.as_ptr()) }
    }

    /// The register's four lanes as an array.
    #[inline(always)]
    fn lanes(v: __m128) -> [f32; 4] {
        let mut out = [0.0f32; 4];
        // SAFETY: `out` is four writable f32s, exactly the 16 bytes the
        // unaligned 128-bit store writes.
        unsafe { _mm_storeu_ps(out.as_mut_ptr(), v) };
        out
    }

    /// [`super::dot_block`] with each row's lanes in one register.
    ///
    /// # Panics
    /// Panics when a row's length differs from `y.len()`.
    ///
    /// # Safety
    /// Call only where SSE is available: always on x86_64, where it is
    /// baseline.
    #[inline]
    #[target_feature(enable = "sse")]
    pub(super) fn dot_block<const K: usize>(rows: [&[f32]; K], y: &[f32]) -> [f32; K] {
        for r in rows {
            assert_eq!(r.len(), y.len(), "length mismatch");
        }
        let (ys, y_tail) = y.as_chunks::<4>();
        let starts = rows.map(<[f32]>::as_ptr);
        let mut acc = [_mm_setzero_ps(); K];
        for (c, yc) in ys.iter().enumerate() {
            let yv = load(yc);
            for (a, &p) in acc.iter_mut().zip(&starts) {
                // SAFETY: every row is as long as `y` (asserted above) and
                // (c + 1)·4 ≤ y.len(), so the four f32s at c·4 are in the row.
                let x = unsafe { _mm_loadu_ps(p.add(c * 4)) };
                *a = _mm_add_ps(*a, _mm_mul_ps(x, yv));
            }
        }
        if y_tail.is_empty() {
            // (a0 + a1) + (a2 + a3) in registers: pairwise sums, then the
            // high pair onto the low one.
            return acc.map(|a| {
                let pairs = _mm_add_ps(a, _mm_shuffle_ps::<0b10_11_00_01>(a, a));
                _mm_cvtss_f32(_mm_add_ss(pairs, _mm_movehl_ps(pairs, pairs)))
            });
        }
        let mut acc = acc.map(lanes);
        lane_tails(&mut acc, rows, y.len() - y_tail.len(), y_tail);
        acc.map(|a| (a[0] + a[1]) + (a[2] + a[3]))
    }
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

/// The fused SGD update of one sample step: for every element,
/// `grad[d] += g · vp[d]` (pre-update value) and then
/// `vp[d] = vp[d] + g · v[d]` — one pass over the output row instead of
/// a gradient pass and an [`axpy`] pass, preserving exactly their
/// per-element op order.
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

/// [`fused_step`] over several rows of one row-major block, in one pass
/// per eight-element chunk: for each chunk the input gradient is loaded
/// once, every row `rows[k]` (`block[rows[k]·dim ..][..dim]`, with
/// `dim = v.len()`) takes its step with `gs[k]` in list order, and the
/// gradient is stored once — instead of a load and a store of `grad` per
/// row. Every element sees the same operations in the same order as
/// `fused_step(gs[k], v, row k, grad)` called for `k = 0, 1, …`, so the
/// result is bit-identical to that loop, repeated rows included (a
/// repeated row reads back what its earlier step stored).
///
/// On an AVX2 host the chunks are 256-bit registers (multiply and add,
/// never a fused multiply-add, so the rounding is the scalar loop's).
/// Elsewhere, and under Miri, the portable twin runs the same chunks on
/// plain arrays. Every row index is bounds-checked before either path runs.
///
/// # Panics
/// Panics when `gs.len() != rows.len()`, `grad.len() != v.len()`, or a
/// row lies outside the block.
pub fn fused_step_rows(
    block: &mut [f32],
    rows: &[TokenId],
    gs: &[f32],
    v: &[f32],
    grad: &mut [f32],
) {
    assert_eq!(rows.len(), gs.len(), "length mismatch");
    assert_eq!(v.len(), grad.len(), "length mismatch");
    let dim = v.len();
    if dim == 0 {
        return;
    }
    if let Some(top) = rows.iter().map(|t| t.index()).max() {
        let end = (top + 1).checked_mul(dim);
        assert!(
            end.is_some_and(|end| end <= block.len()),
            "row {top} out of bounds"
        );
    }
    #[cfg(target_arch = "x86_64")]
    {
        if !cfg!(miri) && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, checked on the line above; every
            // row index was checked against the block just before.
            unsafe { avx2::fused_step_rows(block, rows, gs, v, grad) };
            return;
        }
    }
    fused_step_rows_portable(block, rows, gs, v, grad);
}

/// Elements per chunk of [`fused_step_rows`]: one 256-bit register.
const STEP_CHUNK: usize = 8;

/// The portable path of [`fused_step_rows`]: the same chunk-outer loop on
/// plain arrays. The caller has checked the lengths and every row index.
fn fused_step_rows_portable(
    block: &mut [f32],
    rows: &[TokenId],
    gs: &[f32],
    v: &[f32],
    grad: &mut [f32],
) {
    let dim = v.len();
    let (v_chunks, v_tail) = v.as_chunks::<STEP_CHUNK>();
    let (g_chunks, g_tail) = grad.as_chunks_mut::<STEP_CHUNK>();
    for (c, (acc, x)) in g_chunks.iter_mut().zip(v_chunks).enumerate() {
        let off = c * STEP_CHUNK;
        for (t, &g) in rows.iter().zip(gs) {
            let start = t.index() * dim + off;
            let row = &mut block[start..start + STEP_CHUNK];
            for j in 0..STEP_CHUNK {
                let old = row[j];
                acc[j] += g * old;
                row[j] = old + g * x[j];
            }
        }
    }
    fused_step_rows_tail(block, rows, gs, v_tail, g_tail, dim);
}

/// The last `dim % 8` elements of every row of [`fused_step_rows`], one
/// element at a time (both paths).
fn fused_step_rows_tail(
    block: &mut [f32],
    rows: &[TokenId],
    gs: &[f32],
    v_tail: &[f32],
    g_tail: &mut [f32],
    dim: usize,
) {
    let off = dim - v_tail.len();
    for (j, (slot, &x)) in g_tail.iter_mut().zip(v_tail).enumerate() {
        for (t, &g) in rows.iter().zip(gs) {
            let cell = &mut block[t.index() * dim + off + j];
            let old = *cell;
            *slot += g * old;
            *cell = old + g * x;
        }
    }
}

/// Raw quantized dot product: i32 accumulation over i8 weights in
/// 32-element blocks, each block a plain widening multiply-add loop that
/// LLVM's loop vectorizer turns into SIMD code. The f32 [`dot`]'s manual
/// 4-lane unroll is deliberately *not* mirrored here: it defeats integer
/// vectorization and measures ~3× slower at baseline x86-64 than this
/// shape. Unlike the f32 kernels the blocking is invisible in the result
/// — integer addition is associative, so every shape returns exactly the
/// serial sum (i8·i8 products and their sums
/// never overflow i32 below 2³¹/127² ≈ 133k elements, far past any
/// embedding dim here).
///
/// # Panics
/// Panics when the slices differ in length.
#[inline]
fn dot_q8_i32(x: &[i8], y: &[i8]) -> i32 {
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
/// via `dot_q8_i32` and multiplies by the *combined* scale
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
/// is `dot_q8_i32` row by row. Integer sums are exact, so both paths
/// return the serial sum for every row.
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
    use super::{dot_q8_i32, fused_step_rows_tail, STEP_CHUNK};
    use sisg_corpus::TokenId;
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_add_ps, _mm256_cvtepi8_epi16, _mm256_hadd_epi32,
        _mm256_loadu_ps, _mm256_madd_epi16, _mm256_mul_ps, _mm256_permute2x128_si256,
        _mm256_set1_ps, _mm256_setzero_ps, _mm256_setzero_si256, _mm256_storeu_ps,
        _mm256_storeu_si256, _mm_loadu_si128,
    };

    /// The AVX2 body of [`super::fused_step_rows`]: the gradient stays in
    /// registers across every row, 32 elements (four registers) at a time,
    /// then 8, then the scalar tail. The caller has checked the lengths and
    /// that every row lies inside `block`.
    ///
    /// # Safety
    /// Call only where AVX2 was detected at run time.
    #[target_feature(enable = "avx2")]
    pub(super) fn fused_step_rows(
        block: &mut [f32],
        rows: &[TokenId],
        gs: &[f32],
        v: &[f32],
        grad: &mut [f32],
    ) {
        let dim = v.len();
        let base = block.as_mut_ptr();
        let mut off = 0;
        while off + 4 * STEP_CHUNK <= dim {
            // SAFETY: rows are in bounds (caller) and off + 32 ≤ dim.
            unsafe { step_block::<4>(base, dim, rows, gs, off, v, grad) };
            off += 4 * STEP_CHUNK;
        }
        while off + STEP_CHUNK <= dim {
            // SAFETY: rows are in bounds (caller) and off + 8 ≤ dim.
            unsafe { step_block::<1>(base, dim, rows, gs, off, v, grad) };
            off += STEP_CHUNK;
        }
        if off < dim {
            fused_step_rows_tail(block, rows, gs, &v[off..], &mut grad[off..], dim);
        }
    }

    /// Elements `off .. off + 8·K` of every row's step, with that slice of
    /// the gradient held in `K` registers across the rows.
    ///
    /// # Safety
    /// `base` points at a block of whole rows of `dim` f32s that only this
    /// pointer touches while the call runs, every row in `rows` lies inside
    /// it, and `off + 8·K ≤ dim == v.len() == grad.len()`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn step_block<const K: usize>(
        base: *mut f32,
        dim: usize,
        rows: &[TokenId],
        gs: &[f32],
        off: usize,
        v: &[f32],
        grad: &mut [f32],
    ) {
        let (xs, _) = v[off..off + K * STEP_CHUNK].as_chunks::<STEP_CHUNK>();
        let (acc_slots, _) = grad[off..off + K * STEP_CHUNK].as_chunks_mut::<STEP_CHUNK>();
        let mut x = [_mm256_setzero_ps(); K];
        let mut acc = [_mm256_setzero_ps(); K];
        for ((xk, ak), (src, slot)) in x.iter_mut().zip(&mut acc).zip(xs.iter().zip(&*acc_slots)) {
            // SAFETY: both are arrays of eight f32s, exactly the 32 bytes the
            // unaligned 256-bit loads read.
            unsafe {
                *xk = _mm256_loadu_ps(src.as_ptr());
                *ak = _mm256_loadu_ps(slot.as_ptr());
            }
        }
        for (t, &g) in rows.iter().zip(gs) {
            let g = _mm256_set1_ps(g);
            // SAFETY: the row lies inside the block and off + 8·K ≤ dim (the
            // contract above), so the 8·K f32s at t·dim + off are row t's.
            let p = unsafe { base.add(t.index() * dim + off) };
            for (k, (ak, xk)) in acc.iter_mut().zip(&x).enumerate() {
                // SAFETY: as above, `p + k·8` starts eight f32s of row t.
                unsafe {
                    let q = p.add(k * STEP_CHUNK);
                    let old = _mm256_loadu_ps(q);
                    *ak = _mm256_add_ps(*ak, _mm256_mul_ps(g, old));
                    _mm256_storeu_ps(q, _mm256_add_ps(old, _mm256_mul_ps(g, *xk)));
                }
            }
        }
        for (ak, slot) in acc.iter().zip(acc_slots) {
            // SAFETY: `slot` is eight f32s, exactly the 32 bytes the
            // unaligned 256-bit store writes.
            unsafe { _mm256_storeu_ps(slot.as_mut_ptr(), *ak) };
        }
    }

    /// Rows reduced together: eight i32 accumulators plus the widened
    /// query slice and one temporary fit the sixteen ymm registers.
    const ROWS: usize = 8;
    /// int8 elements per step: one 128-bit load, widened to 16 × i16.
    const LANES: usize = 16;

    /// Sign-extends 16 int8 values to 16 i16 lanes.
    ///
    /// # Safety
    /// Call only where AVX2 was detected at run time.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn widen(bytes: &[i8; LANES]) -> __m256i {
        // SAFETY: `bytes` is 16 readable bytes, exactly what the unaligned
        // 128-bit load reads.
        _mm256_cvtepi8_epi16(unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) })
    }

    /// Reduces each of eight accumulators' eight i32 lanes to one sum:
    /// lane `r` of the result is the total of `acc[r]`.
    ///
    /// # Safety
    /// Call only where AVX2 was detected at run time.
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
    ///
    /// # Safety
    /// Call only where AVX2 was detected at run time.
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

    /// Serial-sum reference for the quantized kernels. Integer addition
    /// is associative, so unlike the f32 pair ([`dot`] vs
    /// [`dot_scalar_ref`]) any blocking of [`dot_q8_i32`] or
    /// [`dot_q8_rows_i32`] must return *exactly* this sum — both are held
    /// to it at 0 ULP for every length by the remainder sweeps below.
    fn dot_q8_scalar_ref(x: &[i8], y: &[i8]) -> i32 {
        assert_eq!(x.len(), y.len(), "length mismatch");
        x.iter().zip(y).map(|(&a, &b)| a as i32 * b as i32).sum()
    }

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

    /// The dispatched lane-order block (SSE on x86_64) and its portable
    /// twin return `dot_scalar_ref`'s bits for every group size and length.
    #[test]
    fn dot_block_matches_scalar_ref_on_both_paths() {
        fn check<const K: usize>(dim: usize) {
            let rows: Vec<Vec<f32>> = (0..K).map(|r| seq(dim, r as f32 + 0.25)).collect();
            let refs: [&[f32]; K] = std::array::from_fn(|r| rows[r].as_slice());
            let y = seq(dim, 7.5);
            let (fast, portable) = (dot_block(refs, &y), dot_block_portable(refs, &y));
            for r in 0..K {
                let want = dot_scalar_ref(refs[r], &y).to_bits();
                assert_eq!(fast[r].to_bits(), want, "K={K} dim={dim} row={r}");
                assert_eq!(portable[r].to_bits(), want, "K={K} dim={dim} row={r}");
            }
        }
        for dim in 0..=40 {
            check::<1>(dim);
            check::<2>(dim);
            check::<3>(dim);
            check::<4>(dim);
        }
    }

    /// The dispatched register-blocked step (AVX2 where the host has it)
    /// and the portable twin both equal `fused_step` row by row, repeated
    /// rows included, for dims 1..=40 and 1..=24 rows.
    #[test]
    fn fused_step_rows_matches_sequential_on_both_paths() {
        for dim in 1..=40 {
            for n in 1..=24 {
                let block = seq(9 * dim, n as f32 * 0.1);
                let rows: Vec<TokenId> = (0..n)
                    .map(|k| TokenId(((k * 4 + dim) % 9) as u32))
                    .collect();
                let gs: Vec<f32> = (0..n).map(|k| 0.01 * (k as f32 - 7.5)).collect();
                let v = seq(dim, 3.3);
                let grad = seq(dim, 4.4);
                let mut want = (block.clone(), grad.clone());
                for (t, &g) in rows.iter().zip(&gs) {
                    let r = t.index() * dim;
                    fused_step(g, &v, &mut want.0[r..r + dim], &mut want.1);
                }
                let mut fast = (block.clone(), grad.clone());
                fused_step_rows(&mut fast.0, &rows, &gs, &v, &mut fast.1);
                let mut portable = (block, grad);
                fused_step_rows_portable(&mut portable.0, &rows, &gs, &v, &mut portable.1);
                let bits = |x: &[f32]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                for (got, path) in [(&fast, "dispatched"), (&portable, "portable")] {
                    assert_eq!(bits(&got.0), bits(&want.0), "{path} dim={dim} n={n}");
                    assert_eq!(bits(&got.1), bits(&want.1), "{path} dim={dim} n={n}");
                }
            }
        }
    }

    proptest::proptest! {
        /// Dispatched vs portable on arbitrary values, like the int8 block
        /// kernel's sweep above: the step kernel and the dot block agree
        /// bit for bit whichever path the host takes.
        #[test]
        fn dispatched_and_portable_kernels_agree(
            data in proptest::collection::vec(-3.0f32..3.0, 48..600),
            picks in proptest::collection::vec(0u32..8, 1..24),
            dim in 1usize..72,
        ) {
            let dim = dim.min(data.len() / 8);
            let (block, v) = (&data[..8 * dim], &data[data.len() - dim..]);
            let rows: Vec<TokenId> = picks.iter().map(|&p| TokenId(p)).collect();
            let gs: Vec<f32> = picks.iter().map(|&p| (p as f32 - 3.5) * 0.02).collect();
            let mut fast = (block.to_vec(), vec![0.0f32; dim]);
            fused_step_rows(&mut fast.0, &rows, &gs, v, &mut fast.1);
            let mut portable = (block.to_vec(), vec![0.0f32; dim]);
            fused_step_rows_portable(&mut portable.0, &rows, &gs, v, &mut portable.1);
            let bits = |x: &[f32]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            proptest::prelude::prop_assert_eq!(bits(&fast.0), bits(&portable.0));
            proptest::prelude::prop_assert_eq!(bits(&fast.1), bits(&portable.1));
            let quad: [&[f32]; 4] = std::array::from_fn(|r| &block[r * dim..(r + 1) * dim]);
            let (a, b) = (dot_block(quad, v), dot_block_portable(quad, v));
            proptest::prelude::prop_assert_eq!(a.map(f32::to_bits), b.map(f32::to_bits));
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_q8_length_mismatch_panics() {
        let _ = dot_q8_i32(&[1i8], &[1i8, 2]);
    }
}
