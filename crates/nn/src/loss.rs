//! Loss functions.

use crate::{NnError, Result};
use agg_tensor::ops::{cross_entropy, softmax};
use agg_tensor::Tensor;

/// Softmax cross-entropy over a batch of logits.
///
/// Returns the mean loss and the gradient of the mean loss with respect to
/// the logits — the gradient the workers send to the parameter server (after
/// backpropagating it through the model).
#[derive(Debug, Clone, Copy, Default)]
pub struct SoftmaxCrossEntropy {
    _private: (),
}

/// Result of one loss evaluation.
#[derive(Debug, Clone)]
pub struct LossOutput {
    /// Mean loss over the batch.
    pub loss: f32,
    /// Gradient of the mean loss with respect to the logits, shaped like the
    /// logits tensor.
    pub grad_logits: Tensor,
    /// Number of samples whose argmax prediction equals the label.
    pub correct_predictions: usize,
}

impl SoftmaxCrossEntropy {
    /// Creates the loss.
    pub fn new() -> Self {
        SoftmaxCrossEntropy { _private: () }
    }

    /// Evaluates the loss and its gradient for a batch of logits
    /// `[batch, classes]` and integer labels.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::LabelCountMismatch`] or [`NnError::LabelOutOfRange`]
    /// when labels and logits disagree, and [`NnError::BadInputShape`] when
    /// the logits are not rank 2 or the batch is empty (the mean over zero
    /// samples is undefined, not `NaN`).
    pub fn evaluate(&self, logits: &Tensor, labels: &[usize]) -> Result<LossOutput> {
        let shape = logits.shape();
        if shape.len() != 2 || shape[0] == 0 {
            return Err(NnError::BadInputShape {
                layer: "softmax-cross-entropy",
                expected: "[batch >= 1, classes]".to_string(),
                actual: shape.to_vec(),
            });
        }
        let (batch, classes) = (shape[0], shape[1]);
        if labels.len() != batch {
            return Err(NnError::LabelCountMismatch { inputs: batch, labels: labels.len() });
        }
        let x = logits.as_slice();
        let mut grad = vec![0.0f32; batch * classes];
        let mut total_loss = 0.0;
        let mut correct_predictions = 0;
        for n in 0..batch {
            let label = labels[n];
            if label >= classes {
                return Err(NnError::LabelOutOfRange { label, classes });
            }
            let row = &x[n * classes..(n + 1) * classes];
            let probs = softmax(row);
            total_loss += cross_entropy(&probs, label);
            if agg_tensor::ops::argmax(row) == Some(label) {
                correct_predictions += 1;
            }
            let grad_row = &mut grad[n * classes..(n + 1) * classes];
            for (c, &p) in probs.iter().enumerate() {
                grad_row[c] = (p - if c == label { 1.0 } else { 0.0 }) / batch as f32;
            }
        }
        Ok(LossOutput {
            loss: total_loss / batch as f32,
            grad_logits: Tensor::from_vec(&[batch, classes], grad)?,
            correct_predictions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_has_near_zero_loss() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::from_vec(&[1, 3], vec![100.0, 0.0, 0.0]).unwrap();
        let out = loss.evaluate(&logits, &[0]).unwrap();
        assert!(out.loss < 1e-3);
        assert_eq!(out.correct_predictions, 1);
    }

    #[test]
    fn uniform_logits_give_log_classes_loss() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::from_vec(&[1, 4], vec![0.0; 4]).unwrap();
        let out = loss.evaluate(&logits, &[2]).unwrap();
        assert!((out.loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_sums_to_zero_per_sample() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]).unwrap();
        let out = loss.evaluate(&logits, &[0, 2]).unwrap();
        let g = out.grad_logits.as_slice();
        assert!((g[0] + g[1] + g[2]).abs() < 1e-6);
        assert!((g[3] + g[4] + g[5]).abs() < 1e-6);
        // The true-class gradient is negative (probability below one).
        assert!(g[0] < 0.0);
        assert!(g[5] < 0.0);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let loss = SoftmaxCrossEntropy::new();
        let base = vec![0.3, -0.2, 0.7];
        let labels = [1usize];
        let logits = Tensor::from_vec(&[1, 3], base.clone()).unwrap();
        let analytic = loss.evaluate(&logits, &labels).unwrap().grad_logits;
        let eps = 1e-3;
        for i in 0..3 {
            let mut plus = base.clone();
            plus[i] += eps;
            let mut minus = base.clone();
            minus[i] -= eps;
            let lp =
                loss.evaluate(&Tensor::from_vec(&[1, 3], plus).unwrap(), &labels).unwrap().loss;
            let lm =
                loss.evaluate(&Tensor::from_vec(&[1, 3], minus).unwrap(), &labels).unwrap().loss;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - analytic.as_slice()[i]).abs() < 1e-3,
                "coordinate {i}: numeric {numeric} vs analytic {}",
                analytic.as_slice()[i]
            );
        }
    }

    #[test]
    fn validation_errors() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::from_vec(&[1, 3], vec![0.0; 3]).unwrap();
        assert!(matches!(
            loss.evaluate(&logits, &[0, 1]).unwrap_err(),
            NnError::LabelCountMismatch { .. }
        ));
        assert!(matches!(
            loss.evaluate(&logits, &[5]).unwrap_err(),
            NnError::LabelOutOfRange { .. }
        ));
        assert!(loss.evaluate(&Tensor::zeros(&[3]), &[0]).is_err());
        // An empty batch has no mean loss: a typed error, not 0/0.
        assert!(matches!(
            loss.evaluate(&Tensor::zeros(&[0, 3]), &[]).unwrap_err(),
            NnError::BadInputShape { actual, .. } if actual == [0, 3]
        ));
    }
}
