//! The [`Layer`] trait: the unit of composition for models.

use crate::Result;
use agg_tensor::Tensor;
use std::fmt;

/// A differentiable layer.
///
/// Layers process mini-batches: the leading axis of every input and output
/// tensor is the batch dimension. A layer owns its parameters and the
/// gradients accumulated by the most recent [`Layer::backward`] call; the
/// [`crate::Sequential`] model flattens them into the single vector the
/// parameter-server protocol exchanges.
///
/// The forward/backward contract is stateful, mirroring classic
/// backpropagation implementations: `forward` caches whatever activations
/// `backward` needs, and `backward` must be called at most once per
/// `forward`.
pub trait Layer: Send + fmt::Debug {
    /// Short layer name used in error messages and model summaries.
    fn name(&self) -> &'static str;

    /// Output shape (excluding the batch axis) for a given input shape
    /// (excluding the batch axis).
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::BadInputShape`] if the layer cannot accept
    /// the input shape.
    fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>>;

    /// Forward pass over a batch. `train` enables training-only behaviour
    /// (e.g. dropout).
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::BadInputShape`] on shape mismatch.
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor>;

    /// Backward pass: receives the loss gradient with respect to this layer's
    /// output, accumulates parameter gradients internally, and returns the
    /// gradient with respect to the layer's input.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::BackwardBeforeForward`] if no forward pass
    /// is cached.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor>;

    /// Backward pass for a layer whose input gradient nobody reads (the first
    /// layer of a model): accumulates the parameter gradients exactly as
    /// [`Layer::backward`] does. The default runs `backward` and drops the
    /// result; a layer whose input gradient is costly overrides it.
    ///
    /// # Errors
    ///
    /// As [`Layer::backward`].
    fn backward_params_only(&mut self, grad_output: &Tensor) -> Result<()> {
        self.backward(grad_output).map(drop)
    }

    /// Number of trainable parameters.
    fn param_count(&self) -> usize {
        0
    }

    /// Appends the current parameter values to `out` (in a fixed layer-local
    /// order).
    fn collect_params(&self, _out: &mut Vec<f32>) {}

    /// Appends the accumulated gradients to `out`, in the same order as
    /// [`Layer::collect_params`].
    fn collect_grads(&self, _out: &mut Vec<f32>) {}

    /// Loads parameters from the beginning of `data`, returning how many
    /// values were consumed.
    fn load_params(&mut self, _data: &[f32]) -> usize {
        0
    }

    /// Clears the accumulated gradients.
    fn zero_grads(&mut self) {}

    /// Approximate number of floating-point operations for one sample's
    /// forward pass, used by the cluster cost model in `agg-ps`.
    fn forward_flops(&self, _input_shape: &[usize]) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A do-nothing layer used to exercise the default trait methods.
    #[derive(Debug)]
    struct Identity;

    impl Layer for Identity {
        fn name(&self) -> &'static str {
            "identity"
        }
        fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>> {
            Ok(input_shape.to_vec())
        }
        fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
            Ok(input.clone())
        }
        fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
            Ok(grad_output.clone())
        }
    }

    #[test]
    fn default_methods_are_parameterless() {
        let mut layer = Identity;
        assert_eq!(layer.param_count(), 0);
        let mut buf = Vec::new();
        layer.collect_params(&mut buf);
        layer.collect_grads(&mut buf);
        assert!(buf.is_empty());
        assert_eq!(layer.load_params(&[1.0, 2.0]), 0);
        layer.zero_grads();
        assert_eq!(layer.forward_flops(&[3, 4]), 0);
    }

    #[test]
    fn identity_round_trips() {
        let mut layer = Identity;
        let t = Tensor::zeros(&[2, 3]);
        let out = layer.forward(&t, true).unwrap();
        assert_eq!(out, t);
        assert_eq!(layer.backward(&t).unwrap(), t);
        layer.backward_params_only(&t).unwrap();
        assert_eq!(layer.output_shape(&[3]).unwrap(), vec![3]);
    }
}
