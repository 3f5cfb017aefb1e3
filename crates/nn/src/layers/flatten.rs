//! Flatten layer: reshapes `[batch, ...]` into `[batch, features]`.

use crate::layer::Layer;
use crate::{NnError, Result};
use agg_tensor::Tensor;

/// Flattens every non-batch axis into a single feature axis.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    input_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { input_shape: None }
    }
}

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "flatten"
    }

    fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>> {
        if input_shape.is_empty() {
            return Err(NnError::BadInputShape {
                layer: "flatten",
                expected: "at least one non-batch axis".to_string(),
                actual: input_shape.to_vec(),
            });
        }
        Ok(vec![input_shape.iter().product()])
    }

    fn forward(&mut self, _: &[f32], input: &Tensor, _train: bool) -> Result<Tensor> {
        let shape = input.shape();
        if shape.len() < 2 {
            return Err(NnError::BadInputShape {
                layer: "flatten",
                expected: "[batch, ...]".to_string(),
                actual: shape.to_vec(),
            });
        }
        self.input_shape = Some(shape.to_vec());
        let batch = shape[0];
        let features: usize = shape[1..].iter().product();
        input.reshaped(&[batch, features]).map_err(NnError::from)
    }

    fn backward(&mut self, _: &[f32], grad_output: &Tensor, _: &mut [f32]) -> Result<Tensor> {
        let shape = self.input_shape.take().ok_or(NnError::BackwardBeforeForward("flatten"))?;
        grad_output.reshaped(&shape).map_err(NnError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flattens_and_restores_shape() {
        let mut flatten = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4, 5]);
        let y = flatten.forward(&[], &x, true).unwrap();
        assert_eq!(y.shape(), &[2, 60]);
        let gi = flatten.backward(&[], &y, &mut []).unwrap();
        assert_eq!(gi.shape(), &[2, 3, 4, 5]);
    }

    #[test]
    fn output_shape_excludes_batch() {
        let flatten = Flatten::new();
        assert_eq!(flatten.output_shape(&[3, 4, 5]).unwrap(), vec![60]);
        assert!(flatten.output_shape(&[]).is_err());
    }

    #[test]
    fn preserves_data_order() {
        let mut flatten = Flatten::new();
        let x = Tensor::from_vec(&[1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = flatten.forward(&[], &x, true).unwrap();
        assert_eq!(y.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn errors() {
        let mut flatten = Flatten::new();
        assert!(flatten.forward(&[], &Tensor::zeros(&[4]), true).is_err());
        assert!(flatten.backward(&[], &Tensor::zeros(&[1, 4]), &mut []).is_err());
    }
}
