//! Error type shared by all gradient aggregation rules.

use thiserror::Error;

/// Errors produced by gradient aggregation rules and their configuration.
#[derive(Debug, Error, Clone, PartialEq, Eq)]
pub enum AggregationError {
    /// Not enough workers for the requested resilience level.
    ///
    /// Multi-Krum requires `n ≥ 2f + 3`, Bulyan requires `n ≥ 4f + 3`.
    #[error("{rule} with f = {f} requires at least {required} workers, got {actual}")]
    NotEnoughWorkers {
        /// Name of the rule whose precondition failed.
        rule: &'static str,
        /// Declared number of Byzantine workers.
        f: usize,
        /// Minimum number of workers required.
        required: usize,
        /// Number of gradients actually provided.
        actual: usize,
    },

    /// The selection size `m` violates the rule's admissible range.
    #[error("{rule}: selection size m = {m} is outside the admissible range 1..={max}")]
    InvalidSelectionSize {
        /// Name of the rule.
        rule: &'static str,
        /// Requested selection size.
        m: usize,
        /// Maximum admissible selection size for the configuration.
        max: usize,
    },

    /// No gradients were submitted.
    #[error("no gradients submitted to {0}")]
    NoGradients(&'static str),

    /// Gradients disagree on dimensionality.
    #[error("gradient {index} has dimension {actual}, expected {expected}")]
    DimensionMismatch {
        /// Index of the offending gradient in the submission order.
        index: usize,
        /// Expected dimension (taken from the first gradient).
        expected: usize,
        /// Actual dimension of the offending gradient.
        actual: usize,
    },

    /// All candidate gradients were non-finite and the rule cannot produce a
    /// meaningful output.
    #[error("{0}: every candidate gradient contains non-finite coordinates")]
    AllGradientsCorrupt(&'static str),

    /// No row is held by more than half of the round: the majority vote of
    /// a repetition group cannot decode.
    #[error(
        "{rule}: no row is held by more than half of the {n} rows (largest agreeing set {largest})"
    )]
    NoMajority {
        /// Name of the rule.
        rule: &'static str,
        /// Size of the largest set of agreeing rows.
        largest: usize,
        /// Number of rows voted on.
        n: usize,
    },

    /// A numeric kernel failed (propagated from `agg-tensor`).
    #[error("numeric kernel failure: {0}")]
    Numeric(String),

    /// Unknown aggregation rule name passed to the registry.
    #[error("unknown aggregation rule '{0}'")]
    UnknownRule(String),

    /// An invalid argument was passed to the registry.
    #[error("invalid argument for rule '{rule}': {message}")]
    InvalidArgument {
        /// Rule the argument was meant for.
        rule: String,
        /// Human-readable description of the problem.
        message: String,
    },
}

impl From<agg_tensor::TensorError> for AggregationError {
    fn from(e: agg_tensor::TensorError) -> Self {
        AggregationError::Numeric(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_rule_and_numbers() {
        let e = AggregationError::NotEnoughWorkers {
            rule: "multi-krum",
            f: 4,
            required: 11,
            actual: 7,
        };
        let s = e.to_string();
        assert!(s.contains("multi-krum") && s.contains("11") && s.contains('7'));
    }

    #[test]
    fn tensor_errors_convert() {
        let e: AggregationError = agg_tensor::TensorError::dim(1, 2).into();
        assert!(matches!(e, AggregationError::Numeric(_)));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AggregationError>();
    }
}
