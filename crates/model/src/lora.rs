//! Low-Rank Adaptation (LoRA) — Hu et al., the technique the paper uses
//! for all fine-tuning runs ("The fine-tuning method utilizes the LoRa
//! technique, adhering to its standard training configurations").
//!
//! Adapted weights compute `x·W + (x·A)·B · (α/r)` where `W` is frozen and
//! only `A ∈ ℝ^{d×r}`, `B ∈ ℝ^{r×d}` train. `B` is zero-initialised so an
//! untrained adapter is an exact no-op.

use crate::tensor::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// LoRA hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoraConfig {
    /// Adapter rank `r`.
    pub rank: usize,
    /// Scaling numerator `α`; effective scale is `α / r`.
    pub alpha: f32,
}

impl Default for LoraConfig {
    fn default() -> Self {
        LoraConfig { rank: 4, alpha: 8.0 }
    }
}

impl LoraConfig {
    /// The effective delta scale `α / r`.
    pub fn scale(&self) -> f32 {
        if self.rank == 0 {
            0.0
        } else {
            self.alpha / self.rank as f32
        }
    }
}

/// One adapter pair attached to a base weight matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Adapter {
    /// Index of the adapted matrix in the model's parameter list.
    pub target: usize,
    /// Down-projection `A` (`[d_in, r]`), gaussian-initialised.
    pub a: Matrix,
    /// Up-projection `B` (`[r, d_out]`), zero-initialised.
    pub b: Matrix,
}

impl Adapter {
    /// Creates an adapter for a `[d_in, d_out]` base weight.
    pub fn new<R: Rng>(
        target: usize,
        d_in: usize,
        d_out: usize,
        cfg: &LoraConfig,
        rng: &mut R,
    ) -> Adapter {
        let a = Matrix::new(
            d_in,
            cfg.rank,
            (0..d_in * cfg.rank).map(|_| (rng.random::<f32>() - 0.5) * 0.04).collect(),
        );
        let b = Matrix::zeros(cfg.rank, d_out);
        Adapter { target, a, b }
    }

    /// The dense delta `(A·scale)·B` (used when merging and by tests),
    /// computed through the exact forward matmul every kernel family
    /// shares.
    pub fn delta(&self, scale: f32) -> Matrix {
        let mut scaled = self.a.clone();
        for v in scaled.data.iter_mut() {
            *v *= scale;
        }
        let mut out = Matrix::zeros(self.a.rows, self.b.cols);
        crate::tensor::kernels::matmul_into(&scaled, &self.b, &mut out);
        out
    }
}

/// The set of adapters for a model plus the config.
#[derive(Debug, Clone, PartialEq)]
pub struct LoraState {
    /// Hyperparameters.
    pub cfg: LoraConfig,
    /// Adapters in model-parameter order.
    pub adapters: Vec<Adapter>,
}

impl LoraState {
    /// Finds the adapter for a parameter index.
    pub fn adapter_for(&self, target: usize) -> Option<&Adapter> {
        self.adapters.iter().find(|a| a.target == target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn fresh_adapter_is_a_noop() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let ad = Adapter::new(0, 8, 8, &LoraConfig::default(), &mut rng);
        let d = ad.delta(LoraConfig::default().scale());
        assert!(d.data.iter().all(|&x| x == 0.0), "B starts at zero");
    }

    #[test]
    fn rank_zero_scale_is_zero() {
        let cfg = LoraConfig { rank: 0, alpha: 8.0 };
        assert_eq!(cfg.scale(), 0.0);
    }

    #[test]
    fn delta_shape_matches_base() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut ad = Adapter::new(3, 6, 10, &LoraConfig { rank: 2, alpha: 4.0 }, &mut rng);
        // poke B so the delta is nonzero
        ad.b.data[0] = 1.0;
        let d = ad.delta(2.0);
        assert_eq!((d.rows, d.cols), (6, 10));
        assert!(d.data.iter().any(|&x| x != 0.0));
    }

    #[test]
    fn scale_is_alpha_over_rank() {
        let cfg = LoraConfig { rank: 4, alpha: 8.0 };
        assert!((cfg.scale() - 2.0).abs() < 1e-12);
    }
}
