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
    table: Vec<f32>,
    neg_log: Vec<f64>,
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
        let xs: Vec<f32> = (0..TABLE_SIZE)
            .map(|i| (i as f32 / TABLE_SIZE as f32 * 2.0 - 1.0) * MAX_EXP)
            .collect();
        let table = xs.iter().map(|&x| 1.0 / (1.0 + (-x).exp())).collect();
        let neg_log = xs.iter().map(|&x| -log_sigmoid(x as f64)).collect();
        Self {
            table,
            neg_log,
            sat_high: -log_sigmoid(MAX_EXP as f64),
        }
    }

    /// Approximate `σ(x)`, saturating to 0/1 beyond ±`MAX_EXP` (6).
    #[inline]
    pub fn sigmoid(&self, x: f32) -> f32 {
        if x >= MAX_EXP {
            1.0
        } else if x <= -MAX_EXP {
            0.0
        } else {
            let idx = ((x + MAX_EXP) / (2.0 * MAX_EXP) * TABLE_SIZE as f32) as usize;
            self.table[idx.min(TABLE_SIZE - 1)]
        }
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
        if x >= MAX_EXP {
            self.sat_high
        } else if x <= -MAX_EXP {
            (-x) as f64
        } else {
            let idx = ((x + MAX_EXP) / (2.0 * MAX_EXP) * TABLE_SIZE as f32) as usize;
            self.neg_log[idx.min(TABLE_SIZE - 1)]
        }
    }
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
