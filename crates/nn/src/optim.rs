//! Optimizers: the two `--optimizer` choices of the original AggregaThor
//! runner that a run here selects (`sgd` and `rmsprop`), plus the optional
//! L1/L2 regularisation the runner exposes.
//!
//! Optimizers operate on the flattened parameter vector the parameter server
//! holds: the server aggregates the workers' gradients with a GAR and then
//! applies one optimizer step (Equation 4 of the paper).

use crate::{NnError, Result};
use agg_tensor::Vector;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An SGD-family update rule applied by the parameter server.
pub trait Optimizer: Send + fmt::Debug {
    /// Short name (matches the runner's `--optimizer` values).
    fn name(&self) -> &'static str;

    /// Applies one update step in place: `params ← params − lr · direction`,
    /// where `direction` is derived from `gradient` and the optimizer state.
    ///
    /// # Errors
    ///
    /// Returns an error when the gradient length does not match the parameter
    /// length.
    fn step(&mut self, params: &mut Vector, gradient: &Vector, lr: f32) -> Result<()>;
}

fn check_lengths(params: &Vector, gradient: &Vector) -> Result<()> {
    if params.len() != gradient.len() {
        return Err(NnError::ParameterSizeMismatch {
            expected: params.len(),
            actual: gradient.len(),
        });
    }
    Ok(())
}

/// Plain stochastic gradient descent.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sgd {
    _private: (),
}

impl Sgd {
    /// Creates plain SGD.
    pub fn new() -> Self {
        Sgd { _private: () }
    }
}

impl Optimizer for Sgd {
    fn name(&self) -> &'static str {
        "sgd"
    }

    fn step(&mut self, params: &mut Vector, gradient: &Vector, lr: f32) -> Result<()> {
        check_lengths(params, gradient)?;
        params.axpy(-lr, gradient)?;
        Ok(())
    }
}

/// RMSProp (Tieleman & Hinton, 2012) — the optimizer the paper's evaluation
/// uses ("we employ an RMSprop optimizer with a fixed initial learning rate
/// of 10⁻³").
#[derive(Debug, Clone)]
pub struct RmsProp {
    decay: f32,
    epsilon: f32,
    mean_square: Option<Vector>,
}

impl RmsProp {
    /// Creates RMSProp with the conventional decay of 0.9.
    pub fn new() -> Self {
        RmsProp { decay: 0.9, epsilon: 1e-8, mean_square: None }
    }
}

impl Default for RmsProp {
    fn default() -> Self {
        RmsProp::new()
    }
}

impl Optimizer for RmsProp {
    fn name(&self) -> &'static str {
        "rmsprop"
    }

    fn step(&mut self, params: &mut Vector, gradient: &Vector, lr: f32) -> Result<()> {
        check_lengths(params, gradient)?;
        let ms = self.mean_square.get_or_insert_with(|| Vector::zeros(params.len()));
        if ms.len() != params.len() {
            *ms = Vector::zeros(params.len());
        }
        for i in 0..params.len() {
            let g = gradient[i];
            ms[i] = self.decay * ms[i] + (1.0 - self.decay) * g * g;
            params[i] -= lr * g / (ms[i].sqrt() + self.epsilon);
        }
        Ok(())
    }
}

/// The optimizer choices exposed by the runner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OptimizerKind {
    /// Plain SGD.
    Sgd,
    /// RMSProp.
    RmsProp,
}

impl OptimizerKind {
    /// Builds the optimizer.
    pub fn build(&self) -> Box<dyn Optimizer> {
        match self {
            OptimizerKind::Sgd => Box::new(Sgd::new()),
            OptimizerKind::RmsProp => Box::new(RmsProp::new()),
        }
    }
}

/// Optional L1/L2 regularisation, mirroring the `--l1-regularize` /
/// `--l2-regularize` runner flags. Applied by adding the penalty gradient to
/// the data gradient before the optimizer step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct Regularization {
    /// L1 coefficient (0 disables).
    pub l1: f32,
    /// L2 coefficient (0 disables).
    pub l2: f32,
}

impl Regularization {
    /// No regularisation.
    pub fn none() -> Self {
        Regularization { l1: 0.0, l2: 0.0 }
    }

    /// Adds the regularisation gradient (`l1 · sign(w) + l2 · w`) to
    /// `gradient` in place.
    ///
    /// # Errors
    ///
    /// Returns an error when lengths differ.
    pub fn apply(&self, gradient: &mut Vector, params: &Vector) -> Result<()> {
        if self.l1 == 0.0 && self.l2 == 0.0 {
            return Ok(());
        }
        if gradient.len() != params.len() {
            return Err(NnError::ParameterSizeMismatch {
                expected: params.len(),
                actual: gradient.len(),
            });
        }
        for i in 0..gradient.len() {
            gradient[i] += self.l1 * params[i].signum() + self.l2 * params[i];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimising f(w) = ||w - target||² with each optimizer must converge.
    fn optimise_quadratic(mut opt: Box<dyn Optimizer>, lr: f32, steps: usize) -> f32 {
        let target = Vector::from(vec![1.0, -2.0, 3.0]);
        let mut w = Vector::zeros(3);
        for _ in 0..steps {
            let grad = Vector::from_iter((0..3).map(|i| 2.0 * (w[i] - target[i])));
            opt.step(&mut w, &grad, lr).unwrap();
        }
        w.distance(&target)
    }

    #[test]
    fn all_optimizers_minimise_a_quadratic() {
        assert!(optimise_quadratic(Box::new(Sgd::new()), 0.1, 200) < 1e-3);
        assert!(optimise_quadratic(Box::new(RmsProp::new()), 0.05, 500) < 1e-2);
    }

    #[test]
    fn sgd_step_is_exactly_lr_times_gradient() {
        let mut opt = Sgd::new();
        let mut w = Vector::from(vec![1.0, 1.0]);
        let g = Vector::from(vec![0.5, -0.5]);
        opt.step(&mut w, &g, 0.1).unwrap();
        assert_eq!(w.as_slice(), &[0.95, 1.05]);
    }

    #[test]
    fn mismatched_lengths_are_rejected() {
        let mut w = Vector::zeros(2);
        let g = Vector::zeros(3);
        assert!(Sgd::new().step(&mut w, &g, 0.1).is_err());
        assert!(RmsProp::new().step(&mut w, &g, 0.1).is_err());
    }

    #[test]
    fn kind_builds_the_right_optimizer() {
        assert_eq!(OptimizerKind::Sgd.build().name(), "sgd");
        assert_eq!(OptimizerKind::RmsProp.build().name(), "rmsprop");
    }

    #[test]
    fn regularisation_adds_penalty_gradient() {
        let reg = Regularization { l1: 0.1, l2: 0.01 };
        let params = Vector::from(vec![2.0, -3.0]);
        let mut grad = Vector::zeros(2);
        reg.apply(&mut grad, &params).unwrap();
        assert!((grad[0] - (0.1 + 0.02)).abs() < 1e-6);
        assert!((grad[1] - (-0.1 - 0.03)).abs() < 1e-6);
        // none() is a no-op.
        let mut grad2 = Vector::from(vec![1.0, 1.0]);
        Regularization::none().apply(&mut grad2, &params).unwrap();
        assert_eq!(grad2.as_slice(), &[1.0, 1.0]);
        // Length mismatch is an error.
        assert!(reg.apply(&mut Vector::zeros(3), &params).is_err());
    }

    #[test]
    fn rmsprop_normalises_per_coordinate_scale() {
        // Coordinates with wildly different gradient scales should move at
        // comparable speeds under RMSProp.
        let mut opt = RmsProp::new();
        let mut w = Vector::zeros(2);
        for _ in 0..10 {
            let g = Vector::from(vec![100.0, 0.01]);
            opt.step(&mut w, &g, 0.01).unwrap();
        }
        let ratio = (w[0] / w[1]).abs();
        assert!(ratio < 10.0, "RMSProp should roughly equalise step sizes, ratio {ratio}");
    }
}
