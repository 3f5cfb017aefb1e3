//! The learning-rate schedule: the `--learning-rate` choice of the original
//! runner that a run here selects (`fixed`).

use serde::{Deserialize, Serialize};

/// A learning-rate schedule evaluated per model-update step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LearningRate {
    /// Constant learning rate (the paper's evaluation uses `fixed 1e-3`).
    Fixed {
        /// The constant rate.
        rate: f32,
    },
}

impl LearningRate {
    /// The paper's default: fixed `1e-3`.
    pub fn paper_default() -> Self {
        LearningRate::Fixed { rate: 1e-3 }
    }

    /// Learning rate at a given model-update step.
    pub fn at(&self, _step: u64) -> f32 {
        match *self {
            LearningRate::Fixed { rate } => rate,
        }
    }
}

impl Default for LearningRate {
    fn default() -> Self {
        LearningRate::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_is_constant() {
        let lr = LearningRate::Fixed { rate: 0.05 };
        assert_eq!(lr.at(0), 0.05);
        assert_eq!(lr.at(1_000_000), 0.05);
    }

    #[test]
    fn default_matches_the_paper() {
        assert_eq!(LearningRate::default().at(123), 1e-3);
    }
}
