//! The [`Layer`] trait: the unit of composition for models.

use crate::Result;
use agg_tensor::Tensor;
use std::fmt;

/// A differentiable layer.
///
/// Layers process mini-batches: the leading axis of every input and output
/// tensor is the batch dimension. A layer does not own its parameters: the
/// [`crate::Sequential`] model lays every layer's parameters out in the one
/// flat vector the parameter-server protocol exchanges, and hands each layer
/// its own sub-slice of it — `params` below, exactly
/// [`Layer::param_count`] values — on every pass. The parameter gradient is
/// written the same way, into the layer's sub-slice of the model's one
/// gradient vector. So a worker computes at the server's vector in place, and
/// no layer keeps a copy of weights or gradients between calls.
///
/// The forward/backward contract is stateful, mirroring classic
/// backpropagation implementations: `forward` caches whatever activations
/// `backward` needs, and `backward` must be called at most once per
/// `forward`, with the same `params`.
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

    /// Forward pass over a batch at the parameters `params`. `train` enables
    /// training-only behaviour (e.g. dropout).
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::BadInputShape`] on shape mismatch.
    fn forward(&mut self, params: &[f32], input: &Tensor, train: bool) -> Result<Tensor>;

    /// Backward pass: receives the loss gradient with respect to this layer's
    /// output, adds the parameter gradient to `grad_params` (laid out like
    /// `params`), and returns the gradient with respect to the layer's input.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::BackwardBeforeForward`] if no forward pass
    /// is cached.
    fn backward(
        &mut self,
        params: &[f32],
        grad_output: &Tensor,
        grad_params: &mut [f32],
    ) -> Result<Tensor>;

    /// Backward pass for a layer whose input gradient nobody reads (the first
    /// layer of a model): adds the parameter gradient exactly as
    /// [`Layer::backward`] does. The default runs `backward` and drops the
    /// result; a layer whose input gradient is costly overrides it.
    ///
    /// # Errors
    ///
    /// As [`Layer::backward`].
    fn backward_params_only(
        &mut self,
        params: &[f32],
        grad_output: &Tensor,
        grad_params: &mut [f32],
    ) -> Result<()> {
        self.backward(params, grad_output, grad_params).map(drop)
    }

    /// Number of trainable parameters.
    fn param_count(&self) -> usize {
        0
    }

    /// Appends the layer's initial parameter values to `out` (in the fixed
    /// layer-local order `params` uses). They are drawn from the layer's
    /// initialiser and seed on each call, so repeated calls agree.
    fn initial_params(&self, _out: &mut Vec<f32>) {}

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
        fn forward(&mut self, _params: &[f32], input: &Tensor, _train: bool) -> Result<Tensor> {
            Ok(input.clone())
        }
        fn backward(
            &mut self,
            _params: &[f32],
            grad_output: &Tensor,
            _grad_params: &mut [f32],
        ) -> Result<Tensor> {
            Ok(grad_output.clone())
        }
    }

    #[test]
    fn default_methods_are_parameterless() {
        let layer = Identity;
        assert_eq!(layer.param_count(), 0);
        let mut buf = Vec::new();
        layer.initial_params(&mut buf);
        assert!(buf.is_empty());
        assert_eq!(layer.forward_flops(&[3, 4]), 0);
    }

    #[test]
    fn identity_round_trips() {
        let mut layer = Identity;
        let t = Tensor::zeros(&[2, 3]);
        let out = layer.forward(&[], &t, true).unwrap();
        assert_eq!(out, t);
        assert_eq!(layer.backward(&[], &t, &mut []).unwrap(), t);
        layer.backward_params_only(&[], &t, &mut []).unwrap();
        assert_eq!(layer.output_shape(&[3]).unwrap(), vec![3]);
    }
}
