//! Error type for the neural-network crate.

use thiserror::Error;

/// Errors produced while building or running a model.
#[derive(Debug, Error, Clone, PartialEq)]
pub enum NnError {
    /// A layer (or the loss) received an input of an unexpected shape.
    #[error("{layer}: expected input shape {expected}, got {actual:?}")]
    BadInputShape {
        /// Layer name.
        layer: &'static str,
        /// Human-readable description of the expected shape.
        expected: String,
        /// Shape actually received.
        actual: Vec<usize>,
    },

    /// The provided parameter buffer does not match the model size.
    #[error("parameter buffer has {actual} values, model needs {expected}")]
    ParameterSizeMismatch {
        /// Number of parameters the model holds.
        expected: usize,
        /// Number of values provided.
        actual: usize,
    },

    /// Labels and batch size disagree.
    #[error("batch has {inputs} samples but {labels} labels")]
    LabelCountMismatch {
        /// Number of samples in the batch.
        inputs: usize,
        /// Number of labels provided.
        labels: usize,
    },

    /// A label is outside the valid class range.
    #[error("label {label} out of range for {classes} classes")]
    LabelOutOfRange {
        /// Offending label.
        label: usize,
        /// Number of classes the model predicts.
        classes: usize,
    },

    /// An underlying tensor operation failed.
    #[error("tensor operation failed: {0}")]
    Tensor(String),
}

impl From<agg_tensor::TensorError> for NnError {
    fn from(e: agg_tensor::TensorError) -> Self {
        NnError::Tensor(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages_are_informative() {
        let e = NnError::ParameterSizeMismatch { expected: 10, actual: 3 };
        assert!(e.to_string().contains("10") && e.to_string().contains('3'));
    }

    #[test]
    fn tensor_error_converts() {
        let e: NnError = agg_tensor::TensorError::dim(1, 2).into();
        assert!(matches!(e, NnError::Tensor(_)));
    }
}
