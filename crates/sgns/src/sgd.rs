//! The SGNS SGD kernel: one positive pair plus its negatives.
//!
//! Implements the gradient of objective (3):
//! `max Σ log σ(v_i·v'_j) + Σ log σ(−v_i·v'_t)`. For a sample with label
//! `y ∈ {0, 1}` and score `f = v·v'`, the gradient step is
//! `g = η · (y − σ(f))`, applied as `v' += g·v` immediately and `v += Σ g·v'`
//! once at the end (the word2vec accumulation order, which the distributed
//! TNS algorithm also follows — output vectors update on the remote worker,
//! the accumulated input gradient ships back).
//!
//! # Kernel-layer structure (DESIGN.md §8)
//!
//! A pair is processed in three phases against a *cached* copy of the
//! target's input row (loaded once into [`PairScratch::row`], valid for
//! the whole pair because `v` is only written after the last step):
//!
//! 1. **Dot phase** — the 1+N scores `f_i = v·v'_i`. When the step tokens
//!    are pairwise distinct (the common case; the positive is filtered out
//!    of the negatives, so only negative-negative collisions remain), no
//!    step writes a row a later step reads, so all dots are independent
//!    and are computed four at a time via
//!    [`sisg_embedding::dot_slice_x4`] — four *interleaved serial chains*,
//!    each bit-identical to `dot_slice`, turning the latency-bound serial
//!    dot into a throughput-bound one. With duplicates present the code
//!    falls back to computing each dot right before its step.
//! 2. **Update phase**, in original step order: `g = (y − σ(f))·lr`, then
//!    one fused pass per output row (`grad += g·v'` with the pre-update
//!    row, `v' += g·v`) instead of two.
//! 3. **Write-back** — `v += grad` once.
//!
//! Every phase preserves the per-element operation order of the classic
//! three-pass loop, so single-threaded output is bit-identical to it
//! (pinned by the golden-checksum test). The phases are written once, in
//! [`steps`], over the [`OutputRows`] access trait: the Hogwild path over
//! [`RowPtr`] (relaxed per-element atomics, sound under concurrent
//! writers) and the exact non-atomic one over `&mut Matrix`, where
//! plain-slice arithmetic lets LLVM vectorize the elementwise passes.

use crate::sigmoid::SigmoidTable;
use sisg_corpus::TokenId;
use sisg_embedding::kernels;
use sisg_embedding::matrix::{dot_slice_x4, RowPtr};
use sisg_embedding::Matrix;

/// Caller-provided scratch for [`train_pair`] and every other caller of
/// [`steps`]: the cached target row, the input-gradient accumulator, the
/// filtered step-token list and the score buffer. Allocate once per worker and
/// reuse across every pair.
#[derive(Debug)]
pub struct PairScratch {
    /// Snapshot of the target's input row, taken once per pair.
    pub row: Vec<f32>,
    /// Accumulated input gradient, written back once per pair.
    pub grad: Vec<f32>,
    /// Step tokens: the positive context first, then the kept negatives.
    pub kept: Vec<TokenId>,
    /// Scores `f_i` of the batched dot phase.
    pub scores: Vec<f32>,
}

impl PairScratch {
    /// Scratch for matrices of dimensionality `dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            row: vec![0.0; dim],
            grad: vec![0.0; dim],
            kept: Vec::with_capacity(32),
            scores: Vec::with_capacity(32),
        }
    }
}

/// True when no token appears twice. O(n²) with early exit — `n` is
/// 1 + negatives (≈ 6–21), far below the crossover where a hash set wins.
#[inline]
fn pairwise_distinct(kept: &[TokenId]) -> bool {
    for i in 1..kept.len() {
        for j in 0..i {
            if kept[i] == kept[j] {
                return false;
            }
        }
    }
    true
}

/// Loss term of one step (monitoring only): `−ln σ(f)` for the positive,
/// `−ln σ(−f)` for a negative.
#[inline]
fn step_loss(sigmoid: &SigmoidTable, f: f32, label: f32) -> f64 {
    if label > 0.5 {
        sigmoid.neg_log_sigmoid(f)
    } else {
        sigmoid.neg_log_sigmoid(-f)
    }
}

/// Access to the output rows a pair's steps touch. [`steps`] is written
/// once against this trait and monomorphised per access path, so every
/// engine runs the same phases in the same order:
///
/// - `&mut Matrix` — rows owned exclusively (`threads == 1`, EGES, a TNS
///   worker's shard): plain-slice kernels that vectorize;
/// - any `Fn(TokenId) -> RowPtr` resolver — the Hogwild path (relaxed
///   per-element atomics, sound under concurrent writers); for plain SGNS
///   that is `output.row_ptr`, for shared-memory TNS the replica-aware
///   resolver.
///
/// Both produce bit-identical results single-threaded (pinned by a test
/// below).
pub trait OutputRows {
    /// `v'_t · v` for one step token.
    fn dot(&self, t: TokenId, v: &[f32]) -> f32;
    /// Four independent dots as interleaved serial chains, each
    /// bit-identical to [`OutputRows::dot`].
    fn dot_x4(&self, ts: [TokenId; 4], v: &[f32]) -> [f32; 4];
    /// One fused pass over row `t`: `grad += g·v'` with the pre-update
    /// row, then `v' += g·v`.
    fn fused_step(&mut self, t: TokenId, g: f32, v: &[f32], grad: &mut [f32]);
}

impl OutputRows for Matrix {
    #[inline]
    fn dot(&self, t: TokenId, v: &[f32]) -> f32 {
        kernels::dot_ordered(self.row(t.index()), v)
    }
    #[inline]
    fn dot_x4(&self, [a, b, c, d]: [TokenId; 4], v: &[f32]) -> [f32; 4] {
        let rows = [
            self.row(a.index()),
            self.row(b.index()),
            self.row(c.index()),
            self.row(d.index()),
        ];
        kernels::dot_ordered_x4(rows, v)
    }
    #[inline]
    fn fused_step(&mut self, t: TokenId, g: f32, v: &[f32], grad: &mut [f32]) {
        kernels::fused_step(g, v, self.row_mut(t.index()), grad);
    }
}

impl<'m, F: Fn(TokenId) -> RowPtr<'m>> OutputRows for F {
    #[inline]
    fn dot(&self, t: TokenId, v: &[f32]) -> f32 {
        self(t).dot_slice(v)
    }
    #[inline]
    fn dot_x4(&self, [a, b, c, d]: [TokenId; 4], v: &[f32]) -> [f32; 4] {
        dot_slice_x4([self(a), self(b), self(c), self(d)], v)
    }
    #[inline]
    fn fused_step(&mut self, t: TokenId, g: f32, v: &[f32], grad: &mut [f32]) {
        self(t).fused_grad_step(g, v, grad);
    }
}

/// The step phase — Algorithm 1's inner loop, written once for every
/// engine. `kept[0]` is the positive, the rest are negatives; `rows` is
/// the engine's output-row access path. Accumulates the input gradient
/// into `grad` and returns the summed loss.
///
/// Batches the dot phase four at a time when the step tokens are pairwise
/// distinct; otherwise falls back to dot-before-step. Both modes produce
/// bit-identical results single-threaded.
pub fn steps<R: OutputRows + ?Sized>(
    rows: &mut R,
    kept: &[TokenId],
    v: &[f32],
    lr: f32,
    sigmoid: &SigmoidTable,
    grad: &mut [f32],
    scores: &mut Vec<f32>,
) -> f64 {
    let n = kept.len();
    let mut loss = 0.0f64;
    let batched = pairwise_distinct(kept);
    if batched {
        scores.clear();
        scores.resize(n, 0.0);
        let mut i = 0;
        while i + 4 <= n {
            let out = rows.dot_x4([kept[i], kept[i + 1], kept[i + 2], kept[i + 3]], v);
            scores[i..i + 4].copy_from_slice(&out);
            i += 4;
        }
        while i < n {
            scores[i] = rows.dot(kept[i], v);
            i += 1;
        }
    }
    for (i, &t) in kept.iter().enumerate() {
        let label = if i == 0 { 1.0f32 } else { 0.0 };
        let f = if batched { scores[i] } else { rows.dot(t, v) };
        let g = (label - sigmoid.sigmoid(f)) * lr;
        rows.fused_step(t, g, v, grad);
        loss += step_loss(sigmoid, f, label);
    }
    loss
}

/// Builds the step-token list: the positive context first, then every
/// negative that does not collide with it (the original word2vec skip —
/// updating the same row with both labels in one step would cancel the
/// signal). The one negative rule: the trainer, EGES and the distributed
/// TNS step all build their lists here.
#[inline]
pub fn build_kept(kept: &mut Vec<TokenId>, context: TokenId, negatives: &[TokenId]) {
    kept.clear();
    kept.push(context);
    for &neg in negatives {
        if neg != context {
            kept.push(neg);
        }
    }
}

/// One SGD update for `(target, context)` with `negatives`, at learning
/// rate `lr`, over the Hogwild access path — sound under concurrent calls
/// from many threads (lost updates remain possible, which is the Hogwild
/// approximation). Returns the sampled negative-sampling loss (monitoring
/// only).
#[allow(clippy::too_many_arguments)]
pub fn train_pair(
    input: &Matrix,
    output: &Matrix,
    target: TokenId,
    context: TokenId,
    negatives: &[TokenId],
    lr: f32,
    sigmoid: &SigmoidTable,
    scratch: &mut PairScratch,
) -> f64 {
    debug_assert_eq!(scratch.row.len(), input.dim());
    scratch.grad.fill(0.0);
    // Rows are in bounds because TokenIds come from the vocabulary the
    // matrices were sized for (row_ptr asserts it).
    let v = input.row_ptr(target.index());
    v.load_into(&mut scratch.row);
    build_kept(&mut scratch.kept, context, negatives);
    let loss = steps(
        &mut |t: TokenId| output.row_ptr(t.index()),
        &scratch.kept,
        &scratch.row,
        lr,
        sigmoid,
        &mut scratch.grad,
        &mut scratch.scores,
    );
    v.axpy_slice(1.0, &scratch.grad);
    loss
}

/// [`train_pair`] over the exact non-atomic path: `threads == 1` (and any
/// worker-owned shard that never shares rows). Bit-identical results,
/// no atomics.
#[allow(clippy::too_many_arguments)]
pub(crate) fn train_pair_mut(
    input: &mut Matrix,
    output: &mut Matrix,
    target: TokenId,
    context: TokenId,
    negatives: &[TokenId],
    lr: f32,
    sigmoid: &SigmoidTable,
    scratch: &mut PairScratch,
) -> f64 {
    debug_assert_eq!(scratch.row.len(), input.dim());
    scratch.grad.fill(0.0);
    scratch.row.copy_from_slice(input.row(target.index()));
    build_kept(&mut scratch.kept, context, negatives);
    let loss = steps(
        output,
        &scratch.kept,
        &scratch.row,
        lr,
        sigmoid,
        &mut scratch.grad,
        &mut scratch.scores,
    );
    kernels::add_assign(input.row_mut(target.index()), &scratch.grad);
    loss
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisg_embedding::math::{cosine, dot};

    fn setup(dim: usize) -> (Matrix, Matrix, SigmoidTable, PairScratch) {
        (
            Matrix::uniform_init(6, dim, 1),
            Matrix::uniform_init(6, dim, 2),
            SigmoidTable::new(),
            PairScratch::new(dim),
        )
    }

    #[test]
    fn positive_pairs_attract_input_to_output() {
        let (input, output, sig, mut scratch) = setup(8);
        let before = cosine(input.row(0), output.row(1));
        for _ in 0..200 {
            train_pair(
                &input,
                &output,
                TokenId(0),
                TokenId(1),
                &[],
                0.1,
                &sig,
                &mut scratch,
            );
        }
        let after = cosine(input.row(0), output.row(1));
        assert!(after > before, "cosine should rise: {before} -> {after}");
        assert!(after > 0.9, "should converge near 1, got {after}");
    }

    #[test]
    fn negatives_repel() {
        let (input, output, sig, mut scratch) = setup(8);
        for _ in 0..200 {
            train_pair(
                &input,
                &output,
                TokenId(0),
                TokenId(1),
                &[TokenId(2), TokenId(3)],
                0.05,
                &sig,
                &mut scratch,
            );
        }
        let pos = dot(input.row(0), output.row(1));
        let neg = dot(input.row(0), output.row(2));
        assert!(pos > 0.0 && neg < 0.0, "pos {pos}, neg {neg}");
    }

    #[test]
    fn loss_decreases_with_training() {
        let (input, output, sig, mut scratch) = setup(8);
        let first = train_pair(
            &input,
            &output,
            TokenId(0),
            TokenId(1),
            &[TokenId(4)],
            0.1,
            &sig,
            &mut scratch,
        );
        let mut last = first;
        for _ in 0..100 {
            last = train_pair(
                &input,
                &output,
                TokenId(0),
                TokenId(1),
                &[TokenId(4)],
                0.1,
                &sig,
                &mut scratch,
            );
        }
        assert!(last < first, "loss should fall: {first} -> {last}");
    }

    #[test]
    fn negative_equal_to_context_is_skipped() {
        let (input, output, sig, mut scratch) = setup(4);
        let mut scratch2 = PairScratch::new(4);
        let input2 = input.clone();
        let output2 = output.clone();
        train_pair(
            &input,
            &output,
            TokenId(0),
            TokenId(1),
            &[TokenId(1), TokenId(1)],
            0.1,
            &sig,
            &mut scratch,
        );
        train_pair(
            &input2,
            &output2,
            TokenId(0),
            TokenId(1),
            &[],
            0.1,
            &sig,
            &mut scratch2,
        );
        assert_eq!(input.row(0), input2.row(0));
        assert_eq!(output.row(1), output2.row(1));
    }

    #[test]
    fn zero_lr_changes_nothing() {
        let (input, output, sig, mut scratch) = setup(4);
        let snapshot = input.row(0).to_vec();
        train_pair(
            &input,
            &output,
            TokenId(0),
            TokenId(1),
            &[TokenId(2)],
            0.0,
            &sig,
            &mut scratch,
        );
        assert_eq!(input.row(0), snapshot.as_slice());
    }

    /// The Hogwild path and the exact `&mut` path must produce bit-identical
    /// matrices — they are the same algorithm over two access paths.
    #[test]
    fn hogwild_and_mut_paths_are_bit_identical() {
        // 17 negatives with a duplicate exercise the batched phase, the
        // x4 remainder, and the sequential fallback.
        let neg_sets: &[&[TokenId]] = &[
            &[],
            &[TokenId(2)],
            &[TokenId(2), TokenId(3), TokenId(4), TokenId(5)],
            &[TokenId(2), TokenId(3), TokenId(2), TokenId(4), TokenId(5)],
        ];
        for (case, negatives) in neg_sets.iter().enumerate() {
            for dim in [4usize, 7, 8] {
                let input_h = Matrix::uniform_init(6, dim, 11);
                let output_h = Matrix::uniform_init(6, dim, 12);
                let mut input_m = input_h.clone();
                let mut output_m = output_h.clone();
                let sig = SigmoidTable::new();
                let mut s_h = PairScratch::new(dim);
                let mut s_m = PairScratch::new(dim);

                let mut loss_h = 0.0;
                let mut loss_m = 0.0;
                for _ in 0..5 {
                    loss_h += train_pair(
                        &input_h,
                        &output_h,
                        TokenId(0),
                        TokenId(1),
                        negatives,
                        0.07,
                        &sig,
                        &mut s_h,
                    );
                    loss_m += train_pair_mut(
                        &mut input_m,
                        &mut output_m,
                        TokenId(0),
                        TokenId(1),
                        negatives,
                        0.07,
                        &sig,
                        &mut s_m,
                    );
                }
                assert_eq!(loss_h.to_bits(), loss_m.to_bits(), "case {case} dim {dim}");
                let bits =
                    |m: &Matrix| -> Vec<u32> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
                assert_eq!(bits(&input_h), bits(&input_m), "case {case} dim {dim}");
                assert_eq!(bits(&output_h), bits(&output_m), "case {case} dim {dim}");
            }
        }
    }

    /// [`steps`] over both [`OutputRows`] impls — `&mut Matrix` and a
    /// `RowPtr` resolver — must not differ in a single bit.
    #[test]
    fn steps_are_bit_identical_over_every_row_access_path() {
        // Same negative-set shapes as the hogwild/mut parity test: batch,
        // x4 remainder, and the duplicate-token sequential fallback.
        let neg_sets: &[&[TokenId]] = &[
            &[],
            &[TokenId(2)],
            &[TokenId(2), TokenId(3), TokenId(4), TokenId(5)],
            &[TokenId(2), TokenId(3), TokenId(2), TokenId(4), TokenId(5)],
        ];
        for (case, negatives) in neg_sets.iter().enumerate() {
            for dim in [4usize, 7, 8] {
                let mut output_m = Matrix::uniform_init(6, dim, 31);
                let output_h = output_m.clone();
                let input = Matrix::uniform_init(6, dim, 32);
                let sig = SigmoidTable::new();
                let v = input.row(0).to_vec();
                let (mut grad_m, mut grad_h) = (vec![0.0f32; dim], vec![0.0f32; dim]);
                let mut scores = Vec::new();
                let mut kept = Vec::new();
                build_kept(&mut kept, TokenId(1), negatives);

                let (mut loss_m, mut loss_h) = (0.0f64, 0.0f64);
                for _ in 0..5 {
                    loss_m += steps(
                        &mut output_m,
                        &kept,
                        &v,
                        0.07,
                        &sig,
                        &mut grad_m,
                        &mut scores,
                    );
                    let mut hogwild = |t: TokenId| output_h.row_ptr(t.index());
                    loss_h += steps(
                        &mut hogwild,
                        &kept,
                        &v,
                        0.07,
                        &sig,
                        &mut grad_h,
                        &mut scores,
                    );
                }
                let bits = |s: &[f32]| -> Vec<u32> { s.iter().map(|v| v.to_bits()).collect() };
                let at = format!("case {case} dim {dim}");
                assert_eq!(loss_m.to_bits(), loss_h.to_bits(), "{at}");
                assert_eq!(bits(&grad_m), bits(&grad_h), "{at}");
                assert_eq!(bits(output_m.as_slice()), bits(output_h.as_slice()), "{at}");
            }
        }
    }

    /// Duplicated negatives must behave as repeated sequential steps
    /// (the fallback), not as independent batched dots.
    #[test]
    fn duplicate_negatives_use_sequential_semantics() {
        let dim = 8;
        let input = Matrix::uniform_init(6, dim, 21);
        let output = Matrix::uniform_init(6, dim, 22);
        let input_ref = input.clone();
        let output_ref = output.clone();
        let sig = SigmoidTable::new();
        let mut scratch = PairScratch::new(dim);

        let negatives = [TokenId(2), TokenId(2), TokenId(3), TokenId(2)];
        let loss = train_pair(
            &input,
            &output,
            TokenId(0),
            TokenId(1),
            &negatives,
            0.1,
            &sig,
            &mut scratch,
        );

        // Reference: naive scalar re-implementation of the pre-kernel loop.
        let v = input_ref.row_ptr(0);
        let mut grad = vec![0.0f32; dim];
        let mut row = vec![0.0f32; dim];
        v.load_into(&mut row);
        let mut ref_loss = 0.0f64;
        let mut kept = vec![TokenId(1)];
        kept.extend(negatives.iter().copied().filter(|&n| n != TokenId(1)));
        for (i, &t) in kept.iter().enumerate() {
            let label = if i == 0 { 1.0f32 } else { 0.0 };
            let vp = output_ref.row_ptr(t.index());
            let f = vp.dot_slice(&row);
            let g = (label - sig.sigmoid(f)) * 0.1;
            vp.accumulate_scaled(g, &mut grad);
            vp.axpy_slice(g, &row);
            ref_loss += if label > 0.5 {
                sig.neg_log_sigmoid(f)
            } else {
                sig.neg_log_sigmoid(-f)
            };
        }
        v.axpy_slice(1.0, &grad);

        assert_eq!(loss.to_bits(), ref_loss.to_bits());
        let bits = |m: &Matrix| -> Vec<u32> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&input), bits(&input_ref));
        assert_eq!(bits(&output), bits(&output_ref));
    }
}
