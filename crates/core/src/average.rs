//! Plain gradient averaging — the non-resilient baseline
//! (`tf.train.SyncReplicasOptimizer` in the paper's evaluation).

use crate::gar::{reduce_columns, Gar, GarProperties, Resilience};
use crate::Result;
use agg_tensor::{GradientBatch, ShardPlan};

/// Coordinate-wise arithmetic mean of all submitted gradients.
///
/// This is the baseline GAR against which the paper quantifies the 19 % / 43 %
/// overhead of Multi-Krum and Bulyan. It offers **no** Byzantine resilience: a
/// single adversarial gradient shifts the mean arbitrarily, and a single
/// non-finite coordinate poisons the whole update (both behaviours are covered
/// by tests because the evaluation relies on them).
///
/// ```
/// use agg_core::{Average, Gar};
/// use agg_tensor::Vector;
/// let gar = Average::new();
/// let out = gar
///     .aggregate(&[Vector::from(vec![1.0]), Vector::from(vec![3.0])])
///     .unwrap();
/// assert_eq!(out.as_slice(), &[2.0]);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Average {
    _private: (),
}

impl Average {
    /// Creates the averaging rule.
    pub fn new() -> Self {
        Average { _private: () }
    }
}

impl Gar for Average {
    fn properties(&self) -> GarProperties {
        GarProperties {
            name: "average",
            resilience: Resilience::None,
            f: 0,
            minimum_workers: 1,
            tolerates_non_finite: false,
        }
    }

    fn reduce(
        &self,
        batch: &GradientBatch,
        _selection: Option<&[usize]>,
        plan: &ShardPlan,
        out: &mut [f32],
    ) -> Result<()> {
        reduce_columns(batch, batch.n(), plan, out, |cols, dst| Ok(cols.mean_into(None, dst)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AggregationError;
    use agg_tensor::Vector;

    #[test]
    fn averages_coordinatewise() {
        let gar = Average::new();
        let gs = vec![
            Vector::from(vec![1.0, 10.0]),
            Vector::from(vec![3.0, 30.0]),
            Vector::from(vec![5.0, 20.0]),
        ];
        assert_eq!(gar.aggregate(&gs).unwrap().as_slice(), &[3.0, 20.0]);
    }

    #[test]
    fn rejects_empty_and_ragged_batches() {
        let gar = Average::new();
        assert!(matches!(gar.aggregate(&[]).unwrap_err(), AggregationError::NoGradients(_)));
        let gs = vec![Vector::zeros(2), Vector::zeros(3)];
        assert!(matches!(
            gar.aggregate(&gs).unwrap_err(),
            AggregationError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn a_single_outlier_moves_the_mean() {
        // This documents *why* averaging is not Byzantine-resilient.
        let gar = Average::new();
        let mut gs = vec![Vector::from(vec![1.0]); 9];
        gs.push(Vector::from(vec![1e9]));
        let out = gar.aggregate(&gs).unwrap();
        assert!(out[0] > 1e7);
    }

    #[test]
    fn nan_poisons_the_mean() {
        let gar = Average::new();
        let gs = vec![Vector::from(vec![1.0]), Vector::from(vec![f32::NAN])];
        assert!(gar.aggregate(&gs).unwrap()[0].is_nan());
    }

    #[test]
    fn properties_describe_the_baseline() {
        let p = Average::new().properties();
        assert_eq!(p.name, "average");
        assert_eq!(p.resilience, Resilience::None);
        assert!(!p.tolerates_non_finite);
    }
}
