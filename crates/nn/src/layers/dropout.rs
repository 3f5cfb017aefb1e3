//! Inverted dropout layer.

use crate::layer::Layer;
use crate::{NnError, Result};
use agg_tensor::rng::seeded_rng;
use agg_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::Rng;

/// Inverted dropout: during training each activation is zeroed with
/// probability `rate` and the survivors are scaled by `1 / (1 - rate)` so the
/// expected activation is unchanged; during evaluation the layer is a no-op.
#[derive(Debug, Clone)]
pub struct Dropout {
    rate: f32,
    rng: SmallRng,
    mask: Option<Vec<f32>>,
    shape: Vec<usize>,
}

impl Dropout {
    /// Creates a dropout layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidHyperParameter`] unless `0 ≤ rate < 1`.
    pub fn new(rate: f32, seed: u64) -> Result<Self> {
        if !(0.0..1.0).contains(&rate) {
            return Err(NnError::InvalidHyperParameter {
                name: "dropout rate",
                message: format!("must be in [0, 1), got {rate}"),
            });
        }
        Ok(Dropout { rate, rng: seeded_rng(seed), mask: None, shape: Vec::new() })
    }

    /// The configured drop probability.
    pub fn rate(&self) -> f32 {
        self.rate
    }
}

impl Layer for Dropout {
    fn name(&self) -> &'static str {
        "dropout"
    }

    fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>> {
        Ok(input_shape.to_vec())
    }

    fn forward(&mut self, _: &[f32], input: &Tensor, train: bool) -> Result<Tensor> {
        self.shape = input.shape().to_vec();
        if !train || self.rate == 0.0 {
            self.mask = Some(vec![1.0; input.len()]);
            return Ok(input.clone());
        }
        let keep = 1.0 - self.rate;
        let scale = 1.0 / keep;
        let mask: Vec<f32> = (0..input.len())
            .map(|_| if self.rng.gen::<f32>() < keep { scale } else { 0.0 })
            .collect();
        let data: Vec<f32> =
            input.as_slice().iter().zip(mask.iter()).map(|(&x, &m)| x * m).collect();
        self.mask = Some(mask);
        Tensor::from_vec(&self.shape, data).map_err(NnError::from)
    }

    fn backward(&mut self, _: &[f32], grad_output: &Tensor, _: &mut [f32]) -> Result<Tensor> {
        let mask = self.mask.take().ok_or(NnError::BackwardBeforeForward("dropout"))?;
        let data: Vec<f32> =
            grad_output.as_slice().iter().zip(mask.iter()).map(|(&g, &m)| g * m).collect();
        Tensor::from_vec(&self.shape, data).map_err(NnError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_invalid_rates() {
        assert!(Dropout::new(1.0, 0).is_err());
        assert!(Dropout::new(-0.1, 0).is_err());
        assert!(Dropout::new(0.5, 0).is_ok());
    }

    #[test]
    fn evaluation_mode_is_identity() {
        let mut dropout = Dropout::new(0.9, 1).unwrap();
        let x = Tensor::from_vec(&[1, 4], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = dropout.forward(&[], &x, false).unwrap();
        assert_eq!(y, x);
    }

    #[test]
    fn training_mode_zeroes_roughly_rate_fraction() {
        let mut dropout = Dropout::new(0.5, 2).unwrap();
        let x = Tensor::from_vec(&[1, 10_000], vec![1.0; 10_000]).unwrap();
        let y = dropout.forward(&[], &x, true).unwrap();
        let zeros = y.as_slice().iter().filter(|&&v| v == 0.0).count();
        assert!((zeros as f32 / 10_000.0 - 0.5).abs() < 0.05);
        // Survivors are scaled so the expectation is preserved.
        let mean: f32 = y.as_slice().iter().sum::<f32>() / 10_000.0;
        assert!((mean - 1.0).abs() < 0.1);
    }

    #[test]
    fn backward_reuses_the_forward_mask() {
        let mut dropout = Dropout::new(0.5, 3).unwrap();
        let x = Tensor::from_vec(&[1, 8], vec![1.0; 8]).unwrap();
        let y = dropout.forward(&[], &x, true).unwrap();
        let go = Tensor::from_vec(&[1, 8], vec![1.0; 8]).unwrap();
        let gi = dropout.backward(&[], &go, &mut []).unwrap();
        // Gradient is zero exactly where the activation was dropped.
        for i in 0..8 {
            assert_eq!(gi.as_slice()[i] == 0.0, y.as_slice()[i] == 0.0);
        }
        assert!(dropout.backward(&[], &go, &mut []).is_err());
    }
}
