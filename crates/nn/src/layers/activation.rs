//! Activation layers.

use crate::layer::Layer;
use crate::{NnError, Result};
use agg_tensor::Tensor;

/// Rectified linear unit applied elementwise.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    /// Mask of positive pre-activations from the last forward pass.
    mask: Option<Vec<bool>>,
    shape: Vec<usize>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu { mask: None, shape: Vec::new() }
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>> {
        Ok(input_shape.to_vec())
    }

    fn forward(&mut self, _: &[f32], input: &Tensor) -> Result<Tensor> {
        let mask: Vec<bool> = input.as_slice().iter().map(|&x| x > 0.0).collect();
        let out = input.map(agg_tensor::ops::relu);
        self.shape = input.shape().to_vec();
        self.mask = Some(mask);
        Ok(out)
    }

    fn backward(&mut self, _: &[f32], grad_output: &Tensor, _: &mut [f32]) -> Result<Tensor> {
        let mask = self.mask.take().ok_or(NnError::BackwardBeforeForward("relu"))?;
        let data: Vec<f32> = grad_output
            .as_slice()
            .iter()
            .zip(mask.iter())
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor::from_vec(&self.shape, data).map_err(NnError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(&[1, 4], vec![-1.0, 0.0, 2.0, -3.0]).unwrap();
        let y = relu.forward(&[], &x).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(&[1, 4], vec![-1.0, 0.5, 2.0, -3.0]).unwrap();
        relu.forward(&[], &x).unwrap();
        let go = Tensor::from_vec(&[1, 4], vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        let gi = relu.backward(&[], &go, &mut []).unwrap();
        assert_eq!(gi.as_slice(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn backward_requires_forward() {
        let mut relu = Relu::new();
        assert!(relu.backward(&[], &Tensor::zeros(&[1]), &mut []).is_err());
    }

    #[test]
    fn shape_is_preserved() {
        let relu = Relu::new();
        assert_eq!(relu.output_shape(&[3, 4, 5]).unwrap(), vec![3, 4, 5]);
        assert_eq!(relu.param_count(), 0);
    }
}
