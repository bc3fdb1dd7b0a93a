//! SGNS hyper-parameters.

use crate::sampler::WindowMode;

/// Hyper-parameters of one SGNS training run.
///
/// Defaults follow the paper's production settings where stated: 20
/// negatives per positive (Section II-A), `α = 0.75` noise exponent
/// (Section III-C), 2 epochs and `d = 128` for the offline evaluation
/// (Section IV-A; we default to a smaller `d` suited to scaled-down
/// corpora — experiments override it).
#[derive(Debug, Clone, PartialEq)]
pub struct SgnsConfig {
    /// Embedding dimensionality (`d`; paper uses 128).
    pub dim: usize,
    /// Context-window half-width (`m`).
    pub window: usize,
    /// Symmetric window or right-context-only (directional).
    pub window_mode: WindowMode,
    /// Negatives per positive pair (`N_neg`; paper uses 20).
    pub negatives: usize,
    /// Training epochs (`T`; paper uses 2).
    pub epochs: usize,
    /// Initial learning rate, decayed linearly to `min_learning_rate`.
    pub learning_rate: f32,
    /// Floor of the learning-rate decay.
    pub min_learning_rate: f32,
    /// Mikolov subsampling threshold `t` (`0.0` disables); the paper
    /// aggressively downsamples very frequent tokens (Section III-A).
    pub subsample: f64,
    /// Noise-distribution exponent `α` (paper: 0.75).
    pub noise_exponent: f64,
    /// Seed for init, sampling and shuffling.
    pub seed: u64,
    /// Training threads: must be 1, the one exact trainer. Parallel
    /// training is Section III's TNS runtime (`crates/distributed`).
    pub threads: usize,
}

impl Default for SgnsConfig {
    fn default() -> Self {
        Self {
            dim: 32,
            window: 5,
            window_mode: WindowMode::Symmetric,
            negatives: 20,
            epochs: 2,
            learning_rate: 0.025,
            min_learning_rate: 0.0001,
            subsample: 1e-3,
            noise_exponent: 0.75,
            seed: 42,
            threads: 1,
        }
    }
}

impl SgnsConfig {
    /// Validates parameter ranges — the one rule list for SGNS
    /// hyper-parameters. Returns the first offending `(field, reason)`.
    pub fn validate(&self) -> Result<(), (&'static str, &'static str)> {
        if self.dim == 0 {
            return Err(("dim", "must be positive"));
        }
        if self.window == 0 {
            return Err(("window", "must be positive"));
        }
        if self.epochs == 0 {
            return Err(("epochs", "must be positive"));
        }
        if !self.learning_rate.is_finite() || self.learning_rate <= 0.0 {
            return Err(("learning_rate", "must be positive and finite"));
        }
        if self.min_learning_rate > self.learning_rate {
            return Err(("min_learning_rate", "exceeds learning_rate"));
        }
        if self.subsample < 0.0 {
            return Err(("subsample", "must be non-negative"));
        }
        if self.threads != 1 {
            return Err((
                "threads",
                "must be 1; parallel training is crates/distributed",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = SgnsConfig::default();
        assert_eq!(c.negatives, 20);
        assert_eq!(c.epochs, 2);
        assert!((c.noise_exponent - 0.75).abs() < 1e-12);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_values() {
        assert!(SgnsConfig {
            dim: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SgnsConfig {
            window: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SgnsConfig {
            epochs: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SgnsConfig {
            learning_rate: 0.001,
            min_learning_rate: 0.01,
            ..Default::default()
        }
        .validate()
        .is_err());
        let (field, reason) = SgnsConfig {
            threads: 2,
            ..Default::default()
        }
        .validate()
        .unwrap_err();
        assert_eq!(field, "threads");
        assert!(reason.contains("crates/distributed"), "{reason}");
    }
}
