//! The [`Sequential`] model: an ordered stack of layers over the flat
//! parameter and gradient vectors the parameter-server protocol exchanges.

use crate::layer::Layer;
use crate::loss::{LossOutput, SoftmaxCrossEntropy};
use crate::{NnError, Result};
use agg_tensor::{Tensor, Vector};

/// A feed-forward stack of layers trained with softmax cross-entropy.
///
/// The model is the unit shipped between the parameter server and the
/// workers. Its parameters are one flat vector (the `x` of Equation 2), each
/// layer's a contiguous sub-slice in layer order, and so is its gradient.
/// [`Sequential::gradient_at`] runs forward + backward over a mini-batch at a
/// parameter vector it borrows, and returns the flattened gradient (the
/// `G(x, ξ)` a worker submits), written once into one zeroed vector: a worker
/// computes at the server's vector in place and keeps no copy of it.
///
/// The model can also hold a resident vector: [`Sequential::set_parameters`]
/// installs one, and [`Sequential::gradient`], [`Sequential::forward`],
/// [`Sequential::evaluate_loss`] and [`Sequential::accuracy`] run the same
/// path at it. Until a vector is installed they run at the layers' initial
/// values ([`Sequential::parameters`]), which are drawn on first use, so a
/// model that only ever computes at borrowed vectors never stores any.
#[derive(Debug)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    loss: SoftmaxCrossEntropy,
    input_shape: Vec<usize>,
    name: String,
    /// The installed parameter vector, `None` until the first
    /// `set_parameters` or resident pass.
    resident: Option<Vector>,
}

/// Summary of one forward/backward evaluation over a mini-batch.
#[derive(Debug, Clone)]
pub struct BatchEvaluation {
    /// Mean loss over the batch.
    pub loss: f32,
    /// Fraction of correctly classified samples in the batch.
    pub accuracy: f32,
    /// Flattened gradient of the mean loss with respect to every parameter.
    pub gradient: Vector,
}

impl Sequential {
    /// Creates an empty model expecting inputs of `input_shape` (excluding
    /// the batch axis).
    pub fn new(name: impl Into<String>, input_shape: &[usize]) -> Self {
        Sequential {
            layers: Vec::new(),
            loss: SoftmaxCrossEntropy::new(),
            input_shape: input_shape.to_vec(),
            name: name.into(),
            resident: None,
        }
    }

    /// Appends a layer (builder style).
    #[must_use]
    pub fn with_layer(mut self, layer: Box<dyn Layer>) -> Self {
        self.push(layer);
        self
    }

    /// Appends a layer in place. An installed parameter vector no longer
    /// fits the model, so it is dropped.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
        self.resident = None;
    }

    /// Model name (used by experiment configs and reports).
    pub fn model_name(&self) -> &str {
        &self.name
    }

    /// The expected per-sample input shape.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Total number of trainable parameters (the `d` of the paper).
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Per-layer (name, parameter count) pairs, mirroring Table 1.
    pub fn layer_summary(&self) -> Vec<(&'static str, usize)> {
        self.layers.iter().map(|l| (l.name(), l.param_count())).collect()
    }

    /// Output shape (excluding batch) after every layer, validating the
    /// layer chain against the configured input shape.
    ///
    /// # Errors
    ///
    /// Returns the first layer's shape error if the chain is inconsistent.
    pub fn output_shape(&self) -> Result<Vec<usize>> {
        let mut shape = self.input_shape.clone();
        for layer in &self.layers {
            shape = layer.output_shape(&shape)?;
        }
        Ok(shape)
    }

    /// Approximate forward FLOPs for one sample, used by the cluster cost
    /// model.
    pub fn flops_per_sample(&self) -> u64 {
        let mut shape = self.input_shape.clone();
        let mut total = 0u64;
        for layer in &self.layers {
            total += layer.forward_flops(&shape);
            if let Ok(next) = layer.output_shape(&shape) {
                shape = next;
            }
        }
        total
    }

    /// The model's parameters as one flat vector: the installed vector, or
    /// the layers' initial values while none is installed.
    pub fn parameters(&self) -> Vector {
        if let Some(params) = &self.resident {
            return params.clone();
        }
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            layer.initial_params(&mut out);
        }
        Vector::from(out)
    }

    /// Installs a flattened parameter vector as the resident one.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParameterSizeMismatch`] when the vector length does
    /// not equal [`Sequential::param_count`].
    pub fn set_parameters(&mut self, params: &Vector) -> Result<()> {
        self.check_len(params.len())?;
        match &mut self.resident {
            Some(resident) => resident.as_mut_slice().copy_from_slice(params.as_slice()),
            None => self.resident = Some(params.clone()),
        }
        Ok(())
    }

    /// Forward pass only, at the resident parameters (inference when `train`
    /// is false).
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        self.at_resident(|model, params| model.forward_at(params, input, train))
    }

    /// Evaluates the loss on a batch at the resident parameters, without
    /// computing gradients.
    ///
    /// # Errors
    ///
    /// Propagates layer and loss errors.
    pub fn evaluate_loss(&mut self, input: &Tensor, labels: &[usize]) -> Result<LossOutput> {
        let logits = self.forward(input, false)?;
        self.loss.evaluate(&logits, labels)
    }

    /// Classification accuracy on a batch (inference mode).
    ///
    /// # Errors
    ///
    /// Propagates layer and loss errors.
    pub fn accuracy(&mut self, input: &Tensor, labels: &[usize]) -> Result<f32> {
        let out = self.evaluate_loss(input, labels)?;
        Ok(out.correct_predictions as f32 / labels.len().max(1) as f32)
    }

    /// [`Sequential::gradient_at`] at the resident parameters.
    ///
    /// # Errors
    ///
    /// As [`Sequential::gradient_at`].
    pub fn gradient(&mut self, input: &Tensor, labels: &[usize]) -> Result<BatchEvaluation> {
        self.at_resident(|model, params| model.gradient_at(params, input, labels))
    }

    /// Runs forward + backward on a mini-batch at `params` and returns loss,
    /// accuracy and the flattened gradient of the **mean** loss.
    ///
    /// `params` is only read, and the gradient starts from zero, so
    /// consecutive calls are independent (one call = one worker gradient
    /// estimate) and the resident vector is neither read nor changed.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParameterSizeMismatch`] when `params` does not hold
    /// [`Sequential::param_count`] values, and propagates layer and loss
    /// errors; an empty batch is a [`NnError::BadInputShape`] (its mean loss
    /// is undefined).
    pub fn gradient_at(
        &mut self,
        params: &[f32],
        input: &Tensor,
        labels: &[usize],
    ) -> Result<BatchEvaluation> {
        self.check_len(params.len())?;
        let logits = self.forward_at(params, input, true)?;
        let loss_out = self.loss.evaluate(&logits, labels)?;
        let mut gradient = vec![0.0f32; params.len()];
        let mut grad = loss_out.grad_logits;
        let mut end = params.len();
        for (idx, layer) in self.layers.iter_mut().enumerate().rev() {
            let start = end - layer.param_count();
            let (own, grad_own) = (&params[start..end], &mut gradient[start..end]);
            if idx == 0 {
                // Nobody reads the gradient with respect to the model's input.
                layer.backward_params_only(own, &grad, grad_own)?;
            } else {
                grad = layer.backward(own, &grad, grad_own)?;
            }
            end = start;
        }
        Ok(BatchEvaluation {
            loss: loss_out.loss,
            accuracy: loss_out.correct_predictions as f32 / labels.len().max(1) as f32,
            gradient: Vector::from(gradient),
        })
    }

    fn check_len(&self, actual: usize) -> Result<()> {
        let expected = self.param_count();
        if actual != expected {
            return Err(NnError::ParameterSizeMismatch { expected, actual });
        }
        Ok(())
    }

    /// The forward pass at `params` (checked by the caller), each layer
    /// reading its own sub-slice.
    fn forward_at(&mut self, params: &[f32], input: &Tensor, train: bool) -> Result<Tensor> {
        let mut x = input.clone();
        let mut rest = params;
        for layer in &mut self.layers {
            let (own, tail) = rest.split_at(layer.param_count());
            x = layer.forward(own, &x, train)?;
            rest = tail;
        }
        Ok(x)
    }

    /// Runs `pass` at the resident vector, drawing the initial one first if
    /// none is installed.
    fn at_resident<T>(&mut self, pass: impl FnOnce(&mut Self, &[f32]) -> Result<T>) -> Result<T> {
        let params = match self.resident.take() {
            Some(params) => params,
            None => self.parameters(),
        };
        let out = pass(self, params.as_slice());
        self.resident = Some(params);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::layers::dense::oracle::{assert_same_bits, ScalarDense};
    use crate::layers::{Dense, Relu};
    use crate::models::synthetic_mlp;
    use agg_tensor::rng::{gaussian_vector, seeded_rng};

    fn tiny_model(seed: u64) -> Sequential {
        Sequential::new("tiny", &[4])
            .with_layer(Box::new(Dense::new(4, 8, Init::HeNormal, seed)))
            .with_layer(Box::new(Relu::new()))
            .with_layer(Box::new(Dense::new(8, 3, Init::HeNormal, seed + 1)))
    }

    fn batch() -> (Tensor, Vec<usize>) {
        let x = Tensor::from_vec(&[2, 4], vec![0.5, -0.2, 0.1, 0.9, -0.5, 0.3, 0.8, -0.1]).unwrap();
        (x, vec![0, 2])
    }

    #[test]
    fn param_count_and_shapes() {
        let model = tiny_model(1);
        assert_eq!(model.param_count(), 4 * 8 + 8 + 8 * 3 + 3);
        assert_eq!(model.output_shape().unwrap(), vec![3]);
        assert_eq!(model.layer_count(), 3);
        assert!(model.flops_per_sample() > 0);
    }

    #[test]
    fn parameters_round_trip() {
        let model = tiny_model(2);
        let params = model.parameters();
        let mut other = tiny_model(3);
        assert_ne!(other.parameters(), params);
        other.set_parameters(&params).unwrap();
        assert_eq!(other.parameters(), params);
        assert!(other.set_parameters(&Vector::zeros(2)).is_err());
        // The initial values are drawn afresh on each call, identically.
        assert_eq!(tiny_model(2).parameters(), params);
    }

    #[test]
    fn gradient_is_gradient_at_the_resident_vector() {
        let (x, labels) = batch();
        let params = tiny_model(9).parameters();
        let mut borrowed = tiny_model(10);
        let at = borrowed.gradient_at(params.as_slice(), &x, &labels).unwrap();
        // Computing at a borrowed vector leaves the model's own values alone.
        assert_eq!(borrowed.parameters(), tiny_model(10).parameters());
        let mut resident = tiny_model(10);
        resident.set_parameters(&params).unwrap();
        let installed = resident.gradient(&x, &labels).unwrap();
        assert_eq!(at.gradient, installed.gradient);
        assert_eq!(at.loss.to_bits(), installed.loss.to_bits());
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut model = tiny_model(4);
        let (x, labels) = batch();
        let analytic = model.gradient(&x, &labels).unwrap().gradient;
        let params = model.parameters();
        let eps = 1e-2f32;
        // Spot-check a spread of coordinates (full check would be slow).
        for &i in &[0usize, 7, 13, 20, 40, analytic.len() - 1] {
            let mut plus = params.clone();
            plus[i] += eps;
            model.set_parameters(&plus).unwrap();
            let lp = model.evaluate_loss(&x, &labels).unwrap().loss;
            let mut minus = params.clone();
            minus[i] -= eps;
            model.set_parameters(&minus).unwrap();
            let lm = model.evaluate_loss(&x, &labels).unwrap().loss;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - analytic[i]).abs() < 2e-2,
                "param {i}: numeric {numeric} vs analytic {}",
                analytic[i]
            );
        }
    }

    #[test]
    fn gradient_calls_are_independent() {
        let mut model = tiny_model(5);
        let (x, labels) = batch();
        let g1 = model.gradient(&x, &labels).unwrap().gradient;
        let g2 = model.gradient(&x, &labels).unwrap().gradient;
        assert_eq!(g1, g2, "gradients must not accumulate across calls");
    }

    #[test]
    fn training_reduces_loss() {
        let mut model = tiny_model(6);
        let (x, labels) = batch();
        let initial = model.evaluate_loss(&x, &labels).unwrap().loss;
        // 50 steps of plain gradient descent on the same batch.
        for _ in 0..50 {
            let eval = model.gradient(&x, &labels).unwrap();
            let mut params = model.parameters();
            params.axpy(-0.5, &eval.gradient).unwrap();
            model.set_parameters(&params).unwrap();
        }
        let final_loss = model.evaluate_loss(&x, &labels).unwrap().loss;
        assert!(
            final_loss < initial * 0.5,
            "loss should drop substantially: {initial} -> {final_loss}"
        );
        assert_eq!(model.accuracy(&x, &labels).unwrap(), 1.0);
    }

    #[test]
    fn accuracy_is_between_zero_and_one() {
        let mut model = tiny_model(7);
        let (x, labels) = batch();
        let acc = model.accuracy(&x, &labels).unwrap();
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn empty_batch_is_a_typed_error_not_a_nan_loss() {
        let mut model = tiny_model(8);
        let empty = Tensor::zeros(&[0, 4]);
        assert!(matches!(
            model.gradient(&empty, &[]).unwrap_err(),
            NnError::BadInputShape { layer: "softmax-cross-entropy", .. }
        ));
        assert!(matches!(
            model.evaluate_loss(&empty, &[]).unwrap_err(),
            NnError::BadInputShape { .. }
        ));
        // The failed call leaves the model usable.
        let (x, labels) = batch();
        assert!(model.gradient(&x, &labels).unwrap().loss.is_finite());
    }

    /// The benchmark's 256→384→10 proxy at the batch sizes its workloads run
    /// yields, bit for bit, the gradient and loss of the same model built on
    /// the sample-at-a-time loops: the training trajectory does not depend on
    /// which kernels computed it.
    #[test]
    fn proxy_mlp_gradient_equals_the_scalar_loops_bit_for_bit() {
        let mut model = synthetic_mlp(256, &[384], 10, 11);
        let params = model.parameters();
        let mut scalar = Sequential::new("scalar-mlp", &[256])
            .with_layer(Box::new(ScalarDense::new(256, 384)))
            .with_layer(Box::new(Relu::new()))
            .with_layer(Box::new(ScalarDense::new(384, 10)));
        let mut rng = seeded_rng(12);
        for batch in [1usize, 2, 25] {
            let x = gaussian_vector(&mut rng, batch * 256, 0.0, 1.0);
            let x = Tensor::from_vec(&[batch, 256], x.as_slice().to_vec()).unwrap();
            let labels: Vec<usize> = (0..batch).map(|n| n % 10).collect();
            let got = model.gradient(&x, &labels).unwrap();
            let want = scalar.gradient_at(params.as_slice(), &x, &labels).unwrap();
            assert_eq!(got.loss.to_bits(), want.loss.to_bits(), "loss at batch {batch}");
            assert_eq!(got.accuracy, want.accuracy);
            assert!(got.gradient.iter().any(|&g| g != 0.0));
            assert_same_bits(
                got.gradient.as_slice(),
                want.gradient.as_slice(),
                &format!("gradient at batch {batch}"),
            );
        }
    }
}
