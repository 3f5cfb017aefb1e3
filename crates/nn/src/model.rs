//! The [`Sequential`] model: the chain `Dense → ReLU → … → Dense` the runs
//! train, over the flat parameter and gradient vectors the parameter-server
//! protocol exchanges.

use crate::layers::activation::{relu, relu_backward};
use crate::layers::dense::Dense;
use crate::loss::{LossOutput, SoftmaxCrossEntropy};
use crate::{NnError, Result};
use agg_tensor::{Tensor, Vector};

/// A multi-layer perceptron trained with softmax cross-entropy: dense layers
/// with a ReLU after every one but the last
/// ([`crate::models::synthetic_mlp`] builds it).
///
/// The model is the unit shipped between the parameter server and the
/// workers. Its parameters are one flat vector (the `x` of Equation 2), each
/// dense layer's weights then bias a contiguous sub-slice in layer order, and
/// so is its gradient. [`Sequential::gradient_into`] runs forward, loss and
/// backward over a mini-batch in one call, at a parameter vector it borrows,
/// and writes the flattened gradient (the `G(x, ξ)` a worker submits) once
/// into a caller's row: a worker computes at the server's vector in place,
/// keeps no copy of it, and writes straight into its arena row. The
/// activations the backward pass reads live for that call only.
/// [`Sequential::gradient_at`] returns the same bits in a fresh vector.
///
/// The model can also hold a resident vector: [`Sequential::set_parameters`]
/// installs one, and [`Sequential::gradient`], [`Sequential::forward`],
/// [`Sequential::evaluate_loss`] and [`Sequential::accuracy`] run the same
/// path at it ([`Sequential::evaluate_loss_at`] evaluates at a borrowed
/// vector instead). Until a vector is installed they run at the layers' initial
/// values ([`Sequential::parameters`]), which are drawn on first use, so a
/// model that only ever computes at borrowed vectors never stores any.
#[derive(Debug)]
pub struct Sequential {
    /// The dense layers in order, at least one.
    layers: Vec<Dense>,
    loss: SoftmaxCrossEntropy,
    input_shape: [usize; 1],
    /// The installed parameter vector, `None` until the first
    /// `set_parameters` or resident pass.
    resident: Option<Vector>,
}

/// The loss and accuracy of one forward/backward pass over a mini-batch
/// ([`Sequential::gradient_into`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchScore {
    /// Mean loss over the batch.
    pub loss: f32,
    /// Fraction of correctly classified samples in the batch.
    pub accuracy: f32,
}

/// Summary of one forward/backward evaluation over a mini-batch.
#[derive(Debug, Clone)]
pub struct BatchEvaluation {
    /// The batch's mean loss and accuracy.
    pub score: BatchScore,
    /// Flattened gradient of the mean loss with respect to every parameter.
    pub gradient: Vector,
}

/// One forward pass: the batch size, every hidden layer's ReLU output (the
/// next layer's input, which the backward pass reads) and the logits.
type Forward = (usize, Vec<Vec<f32>>, Tensor);

impl Sequential {
    /// The chain of `layers` over `input_dim` features.
    pub(crate) fn new(input_dim: usize, layers: Vec<Dense>) -> Self {
        assert!(!layers.is_empty(), "a model has at least one layer");
        Sequential {
            layers,
            loss: SoftmaxCrossEntropy::new(),
            input_shape: [input_dim],
            resident: None,
        }
    }

    /// The expected per-sample input shape.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Total number of trainable parameters (the `d` of the paper).
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Forward FLOPs for one sample, used by the cluster cost model.
    pub fn flops_per_sample(&self) -> u64 {
        self.layers.iter().map(Dense::forward_flops).sum()
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

    /// Forward pass only, at the resident parameters: the logits.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInputShape`] unless `input` is
    /// `[batch, input features]`.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        self.at_resident(|model, params| Ok(model.forward_at(params, input)?.2))
    }

    /// Evaluates the loss on a batch at the resident parameters, without
    /// computing gradients.
    ///
    /// # Errors
    ///
    /// Propagates input-shape and loss errors.
    pub fn evaluate_loss(&mut self, input: &Tensor, labels: &[usize]) -> Result<LossOutput> {
        self.at_resident(|model, params| model.evaluate_loss_at(params, input, labels))
    }

    /// Evaluates the loss on a batch at `params`, a vector it borrows,
    /// without computing gradients: the same bits as
    /// [`Sequential::evaluate_loss`] after installing `params`, with no copy
    /// of them and the resident vector neither read nor changed.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParameterSizeMismatch`] when `params` does not hold
    /// [`Sequential::param_count`] values, and propagates input-shape and
    /// loss errors.
    pub fn evaluate_loss_at(
        &self,
        params: &[f32],
        input: &Tensor,
        labels: &[usize],
    ) -> Result<LossOutput> {
        self.check_len(params.len())?;
        let (_, _, logits) = self.forward_at(params, input)?;
        self.loss.evaluate(&logits, labels)
    }

    /// Classification accuracy on a batch (inference mode).
    ///
    /// # Errors
    ///
    /// Propagates input-shape and loss errors.
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
    /// accuracy and the flattened gradient of the **mean** loss: the
    /// allocating wrapper of [`Sequential::gradient_into`], with the same
    /// bits.
    ///
    /// # Errors
    ///
    /// As [`Sequential::gradient_into`].
    pub fn gradient_at(
        &mut self,
        params: &[f32],
        input: &Tensor,
        labels: &[usize],
    ) -> Result<BatchEvaluation> {
        let mut gradient = vec![0.0f32; params.len()];
        let score = self.gradient_into(params, input, labels, &mut gradient)?;
        Ok(BatchEvaluation { score, gradient: Vector::from(gradient) })
    }

    /// Runs forward, loss and backward on a mini-batch at `params` and writes
    /// the flattened gradient of the **mean** loss into `row`, returning the
    /// batch's loss and accuracy.
    ///
    /// `row` is zero-filled first and each layer accumulates its gradient
    /// into its own sub-slice, so whatever the row held before (a previous
    /// round's gradient, `NaN`, `-0.0`) leaves no trace, and a worker writes
    /// its gradient once, straight into its arena row. `params` is only
    /// read, so consecutive calls are independent (one call = one worker
    /// gradient estimate) and the resident vector is neither read nor
    /// changed.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParameterSizeMismatch`] when `params` or `row` does
    /// not hold [`Sequential::param_count`] values, and propagates
    /// input-shape and loss errors; an empty batch is a
    /// [`NnError::BadInputShape`] (its mean loss is undefined).
    pub fn gradient_into(
        &mut self,
        params: &[f32],
        input: &Tensor,
        labels: &[usize],
        row: &mut [f32],
    ) -> Result<BatchScore> {
        self.check_len(params.len())?;
        self.check_len(row.len())?;
        let (batch, hidden, logits) = self.forward_at(params, input)?;
        let loss_out = self.loss.evaluate(&logits, labels)?;
        row.fill(0.0);
        let mut grad = loss_out.grad_logits.into_vector().into_inner();
        let mut end = params.len();
        for (k, layer) in self.layers.iter_mut().enumerate().rev() {
            let start = end - layer.param_count();
            let layer_input = if k == 0 { input.as_slice() } else { &hidden[k - 1] };
            layer.backward_params(layer_input, &grad, &mut row[start..end], batch);
            // Nobody reads the gradient with respect to the model's input.
            if k > 0 {
                grad = layer.backward_input(&params[start..end], &grad, batch);
                relu_backward(&hidden[k - 1], &mut grad);
            }
            end = start;
        }
        Ok(BatchScore {
            loss: loss_out.loss,
            accuracy: loss_out.correct_predictions as f32 / labels.len().max(1) as f32,
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
    /// reading its own sub-slice; the first reads the caller's batch in
    /// place.
    fn forward_at(&self, params: &[f32], input: &Tensor) -> Result<Forward> {
        let (last, hidden_layers) = self.layers.split_last().expect("at least one layer");
        let batch = self.layers[0].check_input(input)?;
        let mut hidden: Vec<Vec<f32>> = Vec::with_capacity(hidden_layers.len());
        let mut rest = params;
        for layer in hidden_layers {
            let (own, tail) = rest.split_at(layer.param_count());
            let mut out =
                layer.forward(own, hidden.last().map_or(input.as_slice(), Vec::as_slice), batch);
            relu(&mut out);
            hidden.push(out);
            rest = tail;
        }
        let x = hidden.last().map_or(input.as_slice(), Vec::as_slice);
        let logits = Tensor::from_vec(&[batch, last.out_features()], last.forward(rest, x, batch))?;
        Ok((batch, hidden, logits))
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
    use crate::layers::dense::oracle::{assert_same_bits, ScalarDense};
    use crate::models::synthetic_mlp;
    use agg_tensor::rng::{gaussian_vector, seeded_rng};

    fn tiny_model(seed: u64) -> Sequential {
        synthetic_mlp(4, &[8], 3, seed)
    }

    fn batch() -> (Tensor, Vec<usize>) {
        let x = Tensor::from_vec(&[2, 4], vec![0.5, -0.2, 0.1, 0.9, -0.5, 0.3, 0.8, -0.1]).unwrap();
        (x, vec![0, 2])
    }

    #[test]
    fn param_count_and_shapes() {
        let model = tiny_model(1);
        assert_eq!(model.param_count(), 4 * 8 + 8 + 8 * 3 + 3);
        assert_eq!(model.input_shape(), &[4]);
        assert_eq!(model.flops_per_sample(), 2 * (4 * 8 + 8 * 3));
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
    fn evaluate_loss_at_is_evaluate_loss_at_the_resident_vector() {
        let (x, labels) = batch();
        let params = tiny_model(11).parameters();
        let borrowed = tiny_model(12);
        let at = borrowed.evaluate_loss_at(params.as_slice(), &x, &labels).unwrap();
        assert_eq!(borrowed.parameters(), tiny_model(12).parameters());
        let mut resident = tiny_model(12);
        resident.set_parameters(&params).unwrap();
        let installed = resident.evaluate_loss(&x, &labels).unwrap();
        assert_eq!(at.loss.to_bits(), installed.loss.to_bits());
        assert_eq!(at.grad_logits, installed.grad_logits);
        assert_eq!(at.correct_predictions, installed.correct_predictions);
        assert!(borrowed.evaluate_loss_at(&[0.0; 2], &x, &labels).is_err());
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
        assert_eq!(at.score.loss.to_bits(), installed.score.loss.to_bits());
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
        assert!(model.gradient(&x, &labels).unwrap().score.loss.is_finite());
    }

    /// The benchmark's 256→384→10 proxy at the batch sizes its workloads run
    /// yields, bit for bit, the gradient and loss of the same chain built by
    /// hand on the sample-at-a-time loops (a ReLU masking by its input's
    /// sign): the training trajectory does not depend on which kernels
    /// computed it.
    #[test]
    fn proxy_mlp_gradient_equals_the_scalar_loops_bit_for_bit() {
        let mut model = synthetic_mlp(256, &[384], 10, 11);
        let params = model.parameters();
        let (p0, p1) = params.as_slice().split_at(257 * 384);
        let (hidden, output) = (ScalarDense::new(256, 384), ScalarDense::new(384, 10));
        let mut rng = seeded_rng(12);
        for batch in [1usize, 2, 25] {
            let x = gaussian_vector(&mut rng, batch * 256, 0.0, 1.0);
            let x = Tensor::from_vec(&[batch, 256], x.as_slice().to_vec()).unwrap();
            let labels: Vec<usize> = (0..batch).map(|n| n % 10).collect();
            let got = model.gradient(&x, &labels).unwrap();

            let pre = hidden.forward(p0, x.as_slice(), batch);
            let mask: Vec<bool> = pre.iter().map(|&v| v > 0.0).collect();
            let h: Vec<f32> = pre.iter().map(|&v| agg_tensor::ops::relu(v)).collect();
            let logits = Tensor::from_vec(&[batch, 10], output.forward(p1, &h, batch)).unwrap();
            let want = SoftmaxCrossEntropy::new().evaluate(&logits, &labels).unwrap();
            let mut want_gradient = vec![0.0f32; params.len()];
            let (g0, g1) = want_gradient.split_at_mut(p0.len());
            let grad_h = output.backward(p1, &h, want.grad_logits.as_slice(), g1, batch);
            let grad_pre: Vec<f32> =
                grad_h.iter().zip(&mask).map(|(&g, &m)| if m { g } else { 0.0 }).collect();
            hidden.backward(p0, x.as_slice(), &grad_pre, g0, batch);

            assert_eq!(got.score.loss.to_bits(), want.loss.to_bits(), "loss at batch {batch}");
            let want_accuracy = want.correct_predictions as f32 / batch as f32;
            assert_eq!(got.score.accuracy, want_accuracy);
            assert!(got.gradient.iter().any(|&g| g != 0.0));
            assert_same_bits(
                got.gradient.as_slice(),
                &want_gradient,
                &format!("gradient at batch {batch}"),
            );
        }
    }
}
