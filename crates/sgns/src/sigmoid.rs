//! Precomputed sigmoid lookup, as in the original word2vec implementation.
//!
//! The SGD kernel evaluates `σ(v·v')` once per (positive + negative) sample;
//! the classic trick is a lookup table over `[-MAX_EXP, MAX_EXP]` with
//! saturation outside. We keep the exact `ln σ` around for loss reporting,
//! where accuracy matters more than speed.

/// Saturation bound of the table (word2vec uses 6).
const MAX_EXP: f32 = 6.0;

/// Number of table bins (word2vec uses 1000).
const TABLE_SIZE: usize = 1024;

/// The σ lookup table, with a companion `−ln σ` table for cheap loss
/// monitoring inside the hot loop.
#[derive(Debug, Clone)]
pub struct SigmoidTable {
    table: Box<[f32; TABLE_SIZE]>,
    neg_log: Box<[f64; TABLE_SIZE]>,
    sat_high: f64,
}

impl Default for SigmoidTable {
    fn default() -> Self {
        Self::new()
    }
}

impl SigmoidTable {
    /// Builds the tables.
    pub fn new() -> Self {
        let xs: [f32; TABLE_SIZE] =
            std::array::from_fn(|i| (i as f32 / TABLE_SIZE as f32 * 2.0 - 1.0) * MAX_EXP);
        Self {
            table: Box::new(xs.map(|x| 1.0 / (1.0 + (-x).exp()))),
            neg_log: Box::new(xs.map(|x| -log_sigmoid(x as f64))),
            sat_high: -log_sigmoid(MAX_EXP as f64),
        }
    }

    /// Approximate `σ(x)`, saturating to 0/1 beyond ±`MAX_EXP` (6).
    #[inline]
    pub fn sigmoid(&self, x: f32) -> f32 {
        self.sigmoid_at(x, bucket(x))
    }

    /// Approximate `−ln σ(x)` — the per-sample negative-sampling loss term,
    /// as a table lookup instead of an `exp` + `ln` per sample.
    ///
    /// Saturation: above `MAX_EXP` the loss is the (tiny) constant
    /// `−ln σ(6) ≈ 0.0025`; below `−MAX_EXP` it is `≈ −x` (the exact value
    /// is `−x + ln(1 + eˣ)`, whose correction term is below 0.0025 there).
    /// Loss is monitoring-only, so table precision suffices; gradients
    /// never flow through this value.
    #[inline]
    pub fn neg_log_sigmoid(&self, x: f32) -> f64 {
        self.neg_log_at(x, bucket(x))
    }

    /// [`SigmoidTable::sigmoid`] with `x`'s table bin already computed.
    #[inline]
    fn sigmoid_at(&self, x: f32, bin: u32) -> f32 {
        // Bins are below TABLE_SIZE already; the mask only lets the
        // compiler drop the bounds check.
        let inside = self.table[bin as usize & (TABLE_SIZE - 1)];
        if x >= MAX_EXP {
            1.0
        } else if x <= -MAX_EXP {
            0.0
        } else {
            inside
        }
    }

    /// [`SigmoidTable::neg_log_sigmoid`] with `x`'s table bin already
    /// computed.
    #[inline]
    fn neg_log_at(&self, x: f32, bin: u32) -> f64 {
        let inside = self.neg_log[bin as usize & (TABLE_SIZE - 1)];
        if x >= MAX_EXP {
            self.sat_high
        } else if x <= -MAX_EXP {
            (-x) as f64
        } else {
            inside
        }
    }

    /// The per-score half of the SGNS scoring pass over one run of step
    /// scores: turns every score `f_k` into the step size
    /// `g_k = (y_k − σ(f_k))·lr` in place and adds the loss term of every
    /// step to `loss` in `k` order. The label `y_k` is 1 for the pair's
    /// positive — `k = 0` when `positive_first` — and 0 for a negative; the
    /// loss term is `−ln σ(f)` for the positive and `−ln σ(−f)` for a
    /// negative. Bit-identical to [`SigmoidTable::sigmoid`] and
    /// [`SigmoidTable::neg_log_sigmoid`] called score by score.
    ///
    /// The table bins of eight scores are computed together first — two
    /// packed divisions instead of a scalar division per lookup — and the
    /// lookups follow score by score.
    #[inline]
    pub(crate) fn step_sizes(
        &self,
        scores: &mut [f32],
        positive_first: bool,
        lr: f32,
        loss: &mut f64,
    ) {
        // A local sum: the compiler cannot tell `loss` from `scores`.
        let mut sum = *loss;
        for (c, chunk) in scores.chunks_mut(BINS_AT_ONCE).enumerate() {
            let f: [f32; BINS_AT_ONCE] =
                std::array::from_fn(|k| chunk.get(k).copied().unwrap_or(0.0));
            let positive = positive_first && c == 0;
            // The loss argument: f for the positive, −f for a negative.
            let mut x = f.map(|v| -v);
            if positive {
                x[0] = f[0];
            }
            let (sigma_bins, loss_bins) = (buckets(&f), buckets(&x));
            for (k, slot) in chunk.iter_mut().enumerate() {
                let label = if positive && k == 0 { 1.0 } else { 0.0 };
                sum += self.neg_log_at(x[k], loss_bins[k]);
                *slot = (label - self.sigmoid_at(f[k], sigma_bins[k])) * lr;
            }
        }
        *loss = sum;
    }
}

/// Scores whose table bins [`SigmoidTable::step_sizes`] computes together:
/// eight f32 lanes, one AVX register or two SSE ones.
const BINS_AT_ONCE: usize = 8;

/// Table bin of `x`: `⌊(x + 6) / 12 · 1024⌋`, clamped into the table, so
/// the lookup is unconditional and saturation a select. Inside `(−6, 6)`
/// it is the bin the plain `as usize` cast and `min(1023)` give (the clamp
/// only bites at the top edge), and NaN maps to bin 0 either way.
#[inline]
fn bucket(x: f32) -> u32 {
    let pos = (x + MAX_EXP) / (2.0 * MAX_EXP) * TABLE_SIZE as f32;
    pos.max(0.0).min((TABLE_SIZE - 1) as f32) as u32
}

/// [`bucket`] of eight values.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn buckets(xs: &[f32; BINS_AT_ONCE]) -> [u32; BINS_AT_ONCE] {
    xs.map(bucket)
}

/// [`bucket`] of eight values, four SSE lanes at a time: the same add,
/// division, multiply and clamp per lane (`maxps` with zero second, so
/// NaN maps to bin 0), then a truncating convert. SSE2 is part of the
/// x86_64 baseline.
#[cfg(target_arch = "x86_64")]
#[inline]
fn buckets(xs: &[f32; BINS_AT_ONCE]) -> [u32; BINS_AT_ONCE] {
    use std::arch::x86_64::{
        _mm_add_ps, _mm_cvttps_epi32, _mm_div_ps, _mm_loadu_ps, _mm_max_ps, _mm_min_ps, _mm_mul_ps,
        _mm_set1_ps, _mm_setzero_ps, _mm_storeu_si128,
    };
    let mut out = [0u32; BINS_AT_ONCE];
    for (src, dst) in xs.as_chunks::<4>().0.iter().zip(out.as_chunks_mut::<4>().0) {
        // SAFETY: SSE2 is part of the x86_64 baseline; `src` and `dst` are
        // four f32s and four u32s, exactly the 16 bytes the unaligned
        // load reads and the store writes.
        unsafe {
            let x = _mm_loadu_ps(src.as_ptr());
            let pos = _mm_mul_ps(
                _mm_div_ps(
                    _mm_add_ps(x, _mm_set1_ps(MAX_EXP)),
                    _mm_set1_ps(2.0 * MAX_EXP),
                ),
                _mm_set1_ps(TABLE_SIZE as f32),
            );
            let clamped = _mm_min_ps(
                _mm_max_ps(pos, _mm_setzero_ps()),
                _mm_set1_ps((TABLE_SIZE - 1) as f32),
            );
            _mm_storeu_si128(dst.as_mut_ptr().cast(), _mm_cvttps_epi32(clamped));
        }
    }
    out
}

/// Exact `ln σ(x)`, numerically stable for large |x|.
#[inline]
fn log_sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        -(1.0 + (-x).exp()).ln()
    } else {
        x - (1.0 + x.exp()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scores at and around every edge that matters: the saturation
    /// bounds, table-bin edges, zero, infinities and NaN.
    fn edge_scores() -> Vec<f32> {
        let mut xs = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            1e30,
            -1e30,
        ];
        for edge in [MAX_EXP, -MAX_EXP, 0.0, 1.5, -2.25] {
            let mut x = edge;
            for _ in 0..3 {
                x = f32::from_bits(x.to_bits() + 1);
                xs.push(x);
            }
            xs.extend([edge, -edge]);
        }
        for i in 0..=TABLE_SIZE {
            // Bin edges i·12/1024 − 6 and their neighbours.
            let edge = i as f32 * (2.0 * MAX_EXP) / TABLE_SIZE as f32 - MAX_EXP;
            xs.extend([edge, f32::from_bits(edge.to_bits() + 1), edge * 0.999_99]);
        }
        xs
    }

    #[test]
    fn packed_bins_equal_scalar_bins() {
        for chunk in edge_scores().chunks(BINS_AT_ONCE) {
            let mut xs = [0.0f32; BINS_AT_ONCE];
            xs[..chunk.len()].copy_from_slice(chunk);
            assert_eq!(buckets(&xs), xs.map(bucket), "{xs:?}");
        }
    }

    /// The batched scoring pass equals `sigmoid` and `neg_log_sigmoid`
    /// called score by score, with the loss summed in score order, for
    /// runs shorter and longer than one batch of bins.
    #[test]
    fn step_sizes_equal_score_by_score_lookups() {
        let t = SigmoidTable::new();
        let scores = edge_scores();
        for len in [1usize, 5, 8, 9, 23] {
            for (start, positive_first) in [(0, true), (3, false), (40, true)] {
                let run = &scores[start..start + len];
                let mut got = run.to_vec();
                let mut got_loss = 0.25f64;
                t.step_sizes(&mut got, positive_first, 0.025, &mut got_loss);
                let mut want_loss = 0.25f64;
                for (k, (&f, g)) in run.iter().zip(&got).enumerate() {
                    let label = if positive_first && k == 0 {
                        1.0f32
                    } else {
                        0.0
                    };
                    want_loss += if label > 0.5 {
                        t.neg_log_sigmoid(f)
                    } else {
                        t.neg_log_sigmoid(-f)
                    };
                    let want = (label - t.sigmoid(f)) * 0.025;
                    assert_eq!(g.to_bits(), want.to_bits(), "score {f} at {k}");
                }
                assert_eq!(got_loss.to_bits(), want_loss.to_bits(), "len {len}");
            }
        }
    }

    #[test]
    fn matches_exact_sigmoid() {
        let t = SigmoidTable::new();
        for &x in &[-5.5f32, -2.0, -0.1, 0.0, 0.3, 1.7, 5.9] {
            let exact = 1.0 / (1.0 + (-x).exp());
            assert!(
                (t.sigmoid(x) - exact).abs() < 0.01,
                "σ({x}): {} vs {exact}",
                t.sigmoid(x)
            );
        }
    }

    #[test]
    fn saturates_outside_range() {
        let t = SigmoidTable::new();
        assert_eq!(t.sigmoid(100.0), 1.0);
        assert_eq!(t.sigmoid(-100.0), 0.0);
        assert_eq!(t.sigmoid(MAX_EXP), 1.0);
    }

    #[test]
    fn log_sigmoid_is_stable() {
        assert!((log_sigmoid(0.0) - (-std::f64::consts::LN_2)).abs() < 1e-12);
        assert!(log_sigmoid(-1000.0).is_finite());
        assert!(log_sigmoid(1000.0).abs() < 1e-9);
        // ln σ(x) + ln σ(-x) symmetry check at a moderate point.
        let x = 1.3f64;
        let s = 1.0 / (1.0 + (-x).exp());
        assert!((log_sigmoid(x) - s.ln()).abs() < 1e-12);
    }

    #[test]
    fn neg_log_sigmoid_tracks_exact_loss() {
        let t = SigmoidTable::new();
        for &x in &[-8.0f32, -5.5, -2.0, -0.1, 0.0, 0.3, 1.7, 5.9, 9.0] {
            let exact = -log_sigmoid(x as f64);
            let got = t.neg_log_sigmoid(x);
            assert!((got - exact).abs() < 0.02, "−lnσ({x}): {got} vs {exact}");
            assert!(got >= 0.0, "loss terms are non-negative");
        }
    }

    #[test]
    fn monotonic_over_table_range() {
        let t = SigmoidTable::new();
        let mut prev = -1.0f32;
        let mut x = -MAX_EXP;
        while x < MAX_EXP {
            let v = t.sigmoid(x);
            assert!(v >= prev, "not monotonic at {x}");
            prev = v;
            x += 0.01;
        }
    }
}
