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
//! A pair is processed against the target's input row `v`, which stays
//! fixed for the whole pair because it is only written after the last
//! step: the trainer reads it in place, the TNS engines snapshot it once
//! into [`PairScratch::row`]. [`steps`] splits the
//! step tokens into maximal runs of pairwise distinct tokens — the whole
//! list in the common case (the positive is filtered out of the
//! negatives, so only negative-negative collisions remain) — and gives
//! each run two passes:
//!
//! 1. **Scoring pass** — the run's scores `f_i = v·v'_i`, four rows at a
//!    time, each dot in the lane order of
//!    [`sisg_embedding::kernels::dot_scalar_ref`]; then, per score in step
//!    order, the loss term and `g = (y − σ(f))·lr`.
//! 2. **Step pass** — one fused update per row (`grad += g·v'` with the
//!    pre-update row, `v' += g·v`), all rows of the run in one
//!    d-chunk-outer loop that keeps the input gradient in registers
//!    ([`sisg_embedding::kernels::fused_step_rows`]).
//!
//! Then the caller writes `v += grad` back once.
//!
//! Within a run no step writes a row another step of the run reads, so
//! scoring the run before stepping it gives every score the value the
//! dot-before-step loop gives; a repeated token opens a new run, scored
//! after the earlier runs stepped. The step pass keeps every element's
//! operation order. The output therefore equals the classic
//! dot-before-step loop with lane-order dots, bit for bit. The passes are
//! written once, in [`steps`], over the [`OutputRows`] access trait: the
//! trainer's `&mut Matrix` and the Section III worker's own row block.

use crate::sigmoid::SigmoidTable;
use sisg_corpus::TokenId;
use sisg_embedding::kernels;
use sisg_embedding::Matrix;

/// Caller-provided scratch for [`train_pair`] and every other caller of
/// [`steps`]: the cached target row, the input-gradient accumulator, the
/// filtered step-token list and the score buffer. Allocate once per worker and
/// reuse across every pair.
#[derive(Debug)]
pub struct PairScratch {
    /// Snapshot of the target's input row, taken once per pair by the TNS
    /// engines.
    pub row: Vec<f32>,
    /// Accumulated input gradient, written back once per pair.
    pub grad: Vec<f32>,
    /// Step tokens: the positive context first, then the kept negatives.
    pub kept: Vec<TokenId>,
    /// Scores `f_i` of the scoring pass, turned into the step sizes `g_i`.
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

/// End of the run of pairwise distinct tokens that starts at `start`: the
/// first index whose token already occurs in `kept[start..end]`, or
/// `kept.len()`. A 64-bit mask of token residues filters the scan: only a
/// token whose residue is already in the mask (a repeat, or one residue
/// collision in ~64) is looked up in the run so far, so a list without
/// repeats — nearly every list — costs one pass and no search.
#[inline]
fn distinct_run_end(kept: &[TokenId], start: usize) -> usize {
    let mut seen = 0u64;
    for (i, t) in kept.iter().enumerate().skip(start) {
        let bit = 1u64 << (t.0 % 64);
        if seen & bit != 0 && kept[start..i].contains(t) {
            return i;
        }
        seen |= bit;
    }
    kept.len()
}

/// Access to the output rows a pair's steps touch. [`steps`] is written
/// once against this trait and monomorphised per access path, so every
/// engine runs the same passes in the same order: `&mut Matrix` (the
/// trainer, EGES) and the row block a Section III worker owns
/// (`crates/distributed`). Both run the plain-slice kernels, the step pass
/// register-blocked.
pub trait OutputRows {
    /// `scores[k] = v'_{ts[k]} · v` for every `k`, each dot in
    /// [`kernels::dot_scalar_ref`]'s lane order.
    fn dots(&mut self, ts: &[TokenId], v: &[f32], scores: &mut [f32]);
    /// The fused steps of rows `ts` with step sizes `gs`, in list order:
    /// per row, `grad += g·v'` with the pre-update row, then `v' += g·v`.
    fn fused_steps(&mut self, ts: &[TokenId], gs: &[f32], v: &[f32], grad: &mut [f32]);
}

impl OutputRows for Matrix {
    #[inline]
    fn dots(&mut self, ts: &[TokenId], v: &[f32], scores: &mut [f32]) {
        self.dot_rows(ts, v, scores);
    }
    #[inline]
    fn fused_steps(&mut self, ts: &[TokenId], gs: &[f32], v: &[f32], grad: &mut [f32]) {
        self.fused_step_rows(ts, gs, v, grad);
    }
}

/// The step phase — Algorithm 1's inner loop, written once for every
/// engine. `kept[0]` is the positive, the rest are negatives; `rows` is
/// the engine's output-row access path. Accumulates the input gradient
/// into `grad` and returns the summed loss, computed from the scores in
/// the scoring pass.
///
/// Each maximal run of pairwise distinct tokens is scored, then stepped
/// (see the module docs); the result is bit-identical to scoring each
/// token right before its own step.
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
    scores.clear();
    scores.resize(n, 0.0);
    let mut loss = 0.0f64;
    let mut start = 0;
    while start < n {
        let end = distinct_run_end(kept, start);
        let run = &kept[start..end];
        let gs = &mut scores[start..end];
        rows.dots(run, v, gs);
        sigmoid.step_sizes(gs, start == 0, lr, &mut loss);
        rows.fused_steps(run, gs, v, grad);
        start = end;
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
/// rate `lr`: the positive and every kept negative stepped through
/// [`steps`], then the accumulated gradient added to the target's input
/// row. Returns the sampled negative-sampling loss (monitoring only).
#[allow(clippy::too_many_arguments)]
pub fn train_pair(
    input: &mut Matrix,
    output: &mut Matrix,
    target: TokenId,
    context: TokenId,
    negatives: &[TokenId],
    lr: f32,
    sigmoid: &SigmoidTable,
    scratch: &mut PairScratch,
) -> f64 {
    debug_assert_eq!(scratch.grad.len(), input.dim());
    scratch.grad.fill(0.0);
    build_kept(&mut scratch.kept, context, negatives);
    // The steps write only `output`, so the target's input row is read in
    // place: no snapshot needed.
    let loss = steps(
        output,
        &scratch.kept,
        input.row(target.index()),
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
        let (mut input, mut output, sig, mut scratch) = setup(8);
        let before = cosine(input.row(0), output.row(1));
        for _ in 0..200 {
            train_pair(
                &mut input,
                &mut output,
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
        let (mut input, mut output, sig, mut scratch) = setup(8);
        for _ in 0..200 {
            train_pair(
                &mut input,
                &mut output,
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
        let (mut input, mut output, sig, mut scratch) = setup(8);
        let mut pair = || {
            train_pair(
                &mut input,
                &mut output,
                TokenId(0),
                TokenId(1),
                &[TokenId(4)],
                0.1,
                &sig,
                &mut scratch,
            )
        };
        let first = pair();
        let mut last = first;
        for _ in 0..100 {
            last = pair();
        }
        assert!(last < first, "loss should fall: {first} -> {last}");
    }

    #[test]
    fn negative_equal_to_context_is_skipped() {
        let (mut input, mut output, sig, mut scratch) = setup(4);
        let mut scratch2 = PairScratch::new(4);
        let mut input2 = input.clone();
        let mut output2 = output.clone();
        train_pair(
            &mut input,
            &mut output,
            TokenId(0),
            TokenId(1),
            &[TokenId(1), TokenId(1)],
            0.1,
            &sig,
            &mut scratch,
        );
        train_pair(
            &mut input2,
            &mut output2,
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
        let (mut input, mut output, sig, mut scratch) = setup(4);
        let snapshot = input.row(0).to_vec();
        train_pair(
            &mut input,
            &mut output,
            TokenId(0),
            TokenId(1),
            &[TokenId(2)],
            0.0,
            &sig,
            &mut scratch,
        );
        assert_eq!(input.row(0), snapshot.as_slice());
    }

    /// Step-list shapes for the parity test, over a 30-row matrix: no
    /// negative, one, a batch of four, lists with repeated tokens (several
    /// runs, the duplicate path), and 23 negatives (24 kept rows) with and
    /// without repeats.
    fn neg_sets() -> Vec<Vec<TokenId>> {
        let ids = |xs: &[u32]| xs.iter().map(|&x| TokenId(x)).collect::<Vec<_>>();
        vec![
            ids(&[]),
            ids(&[2]),
            ids(&[2, 3, 4, 5]),
            ids(&[2, 3, 2, 4, 5]),
            ids(&[2, 2, 2, 3, 3]),
            (2..25).map(TokenId).collect(),
            (0..23).map(|k| TokenId(2 + (k * 7) % 11)).collect(),
        ]
    }

    /// Dims covering every lane, chunk and register-block remainder.
    const DIMS: [usize; 9] = [1, 4, 7, 8, 16, 31, 32, 33, 40];

    /// [`steps`] over `&mut Matrix` must not differ in a single bit from
    /// the dot-before-step loop: each token scored with `dot_scalar_ref`
    /// right before its own `fused_step`.
    #[test]
    fn steps_equal_the_dot_before_step_loop() {
        for (case, negatives) in neg_sets().iter().enumerate() {
            for dim in DIMS {
                let mut output_m = Matrix::uniform_init(30, dim, 31);
                let mut output_r = output_m.clone();
                let input = Matrix::uniform_init(30, dim, 32);
                let sig = SigmoidTable::new();
                let v = input.row(0).to_vec();
                let mut grads = [vec![0.0f32; dim], vec![0.0f32; dim]];
                let mut scores = Vec::new();
                let mut kept = Vec::new();
                build_kept(&mut kept, TokenId(1), negatives);

                let mut losses = [0.0f64; 2];
                for _ in 0..5 {
                    let [grad_m, grad_r] = &mut grads;
                    losses[0] += steps(&mut output_m, &kept, &v, 0.07, &sig, grad_m, &mut scores);
                    // Reference: score each token right before its step.
                    let mut call_loss = 0.0f64;
                    for (i, &t) in kept.iter().enumerate() {
                        let label = if i == 0 { 1.0f32 } else { 0.0 };
                        let f = kernels::dot_scalar_ref(output_r.row(t.index()), &v);
                        call_loss += if i == 0 {
                            sig.neg_log_sigmoid(f)
                        } else {
                            sig.neg_log_sigmoid(-f)
                        };
                        let g = (label - sig.sigmoid(f)) * 0.07;
                        kernels::fused_step(g, &v, output_r.row_mut(t.index()), grad_r);
                    }
                    losses[1] += call_loss;
                }
                let bits = |s: &[f32]| -> Vec<u32> { s.iter().map(|v| v.to_bits()).collect() };
                let at = format!("case {case} dim {dim}");
                assert_eq!(losses[0].to_bits(), losses[1].to_bits(), "{at}");
                assert_eq!(bits(&grads[0]), bits(&grads[1]), "{at}");
                assert_eq!(bits(output_m.as_slice()), bits(output_r.as_slice()), "{at}");
            }
        }
    }

    /// A run ends at the first token already in it, so repeated tokens
    /// split the list exactly there — including residue collisions of the
    /// 64-bit filter that are not repeats.
    #[test]
    fn distinct_runs_end_at_the_first_repeat() {
        let ids = |xs: &[u32]| xs.iter().map(|&x| TokenId(x)).collect::<Vec<_>>();
        let kept = ids(&[1, 65, 129, 2, 65, 3, 1]);
        assert_eq!(distinct_run_end(&kept, 0), 4);
        assert_eq!(distinct_run_end(&kept, 4), 7);
        assert_eq!(distinct_run_end(&ids(&[5]), 0), 1);
        assert_eq!(distinct_run_end(&ids(&[5, 5]), 0), 1);
        assert_eq!(distinct_run_end(&ids(&[5, 5]), 1), 2);
        let long: Vec<TokenId> = (0..200).map(|k| TokenId(k * 64)).collect();
        assert_eq!(distinct_run_end(&long, 0), 200, "residue collisions only");
    }

    /// Duplicated negatives must behave as repeated sequential steps (a
    /// repeat opens a new run), not as independent batched dots.
    #[test]
    fn duplicate_negatives_use_sequential_semantics() {
        let dim = 8;
        let mut input = Matrix::uniform_init(6, dim, 21);
        let mut output = Matrix::uniform_init(6, dim, 22);
        let mut input_ref = input.as_slice().to_vec();
        let mut output_ref = output.as_slice().to_vec();
        let sig = SigmoidTable::new();
        let mut scratch = PairScratch::new(dim);

        let negatives = [TokenId(2), TokenId(2), TokenId(3), TokenId(2)];
        let loss = train_pair(
            &mut input,
            &mut output,
            TokenId(0),
            TokenId(1),
            &negatives,
            0.1,
            &sig,
            &mut scratch,
        );

        // Reference: the dot-before-step loop over plain row slices, scored
        // with the lane-order reference dot, the gradient accumulated and
        // the row stepped in two scalar passes.
        let row = input_ref[..dim].to_vec();
        let mut grad = vec![0.0f32; dim];
        let mut ref_loss = 0.0f64;
        let mut kept = vec![TokenId(1)];
        kept.extend(negatives.iter().copied().filter(|&n| n != TokenId(1)));
        for (i, &t) in kept.iter().enumerate() {
            let label = if i == 0 { 1.0f32 } else { 0.0 };
            let vp = &mut output_ref[t.index() * dim..(t.index() + 1) * dim];
            let f = kernels::dot_scalar_ref(vp, &row);
            let g = (label - sig.sigmoid(f)) * 0.1;
            for (slot, &o) in grad.iter_mut().zip(vp.iter()) {
                *slot += g * o;
            }
            for (o, &x) in vp.iter_mut().zip(&row) {
                *o += g * x;
            }
            ref_loss += if label > 0.5 {
                sig.neg_log_sigmoid(f)
            } else {
                sig.neg_log_sigmoid(-f)
            };
        }
        for (x, &d) in input_ref[..dim].iter_mut().zip(&grad) {
            *x += d;
        }

        assert_eq!(loss.to_bits(), ref_loss.to_bits());
        let bits = |s: &[f32]| -> Vec<u32> { s.iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(input.as_slice()), bits(&input_ref));
        assert_eq!(bits(output.as_slice()), bits(&output_ref));
    }
}
