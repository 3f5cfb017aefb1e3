//! Coordinate-wise median GAR (the "Median" baseline of the evaluation,
//! following Xie et al., 2018).
//!
//! The per-coordinate reduction runs on the vertical selection-network
//! kernel of `agg_tensor::sortnet` for worker counts up to the network cap
//! (a pruned Batcher network placing only the median positions), falling
//! back to scalar quickselect beyond it.

use crate::gar::{reduce_columns, Gar, GarProperties, Resilience};
use crate::{resilience, Result};
use agg_tensor::{GradientBatch, ShardPlan};

/// Coordinate-wise median of the submitted gradients.
///
/// Weakly Byzantine-resilient for `f < n/2`: in every coordinate the median
/// lies between two honest values as long as honest workers form a majority.
/// The paper's evaluation shows it converges as fast as the baseline for
/// large mini-batches (b = 250) but fails to reach baseline accuracy for
/// small ones (b = 20) because it effectively uses a single gradient's worth
/// of information per coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoordinateMedian {
    f: usize,
}

impl CoordinateMedian {
    /// Creates a coordinate-wise median rule declared to tolerate `f`
    /// Byzantine workers.
    pub fn new(f: usize) -> Self {
        CoordinateMedian { f }
    }

    /// Declared number of Byzantine workers.
    pub fn f(&self) -> usize {
        self.f
    }
}

impl Default for CoordinateMedian {
    fn default() -> Self {
        CoordinateMedian::new(0)
    }
}

impl Gar for CoordinateMedian {
    fn properties(&self) -> GarProperties {
        GarProperties {
            name: "median",
            resilience: Resilience::Weak,
            f: self.f,
            minimum_workers: resilience::median_min_workers(self.f),
            tolerates_non_finite: true,
        }
    }

    fn check(&self, n: usize) -> Result<()> {
        resilience::check_median("median", n, self.f)
    }

    fn reduce(
        &self,
        batch: &GradientBatch,
        _selection: Option<&[usize]>,
        plan: &ShardPlan,
        out: &mut [f32],
    ) -> Result<()> {
        reduce_columns(batch, batch.n(), plan, out, |cols, dst| Ok(cols.median_into(None, dst)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AggregationError;
    use agg_tensor::Vector;

    #[test]
    fn median_of_clean_gradients() {
        let gar = CoordinateMedian::new(0);
        let gs = vec![
            Vector::from(vec![1.0, 5.0]),
            Vector::from(vec![2.0, 6.0]),
            Vector::from(vec![3.0, 7.0]),
        ];
        assert_eq!(gar.aggregate(&gs).unwrap().as_slice(), &[2.0, 6.0]);
    }

    #[test]
    fn single_outlier_cannot_move_the_median_far() {
        let gar = CoordinateMedian::new(1);
        let gs = vec![Vector::from(vec![1.0]), Vector::from(vec![1.1]), Vector::from(vec![1e9])];
        let out = gar.aggregate(&gs).unwrap();
        assert!((out[0] - 1.1).abs() < 1e-6);
    }

    #[test]
    fn nan_coordinates_are_ignored() {
        let gar = CoordinateMedian::new(1);
        let gs =
            vec![Vector::from(vec![1.0]), Vector::from(vec![2.0]), Vector::from(vec![f32::NAN])];
        assert_eq!(gar.aggregate(&gs).unwrap().as_slice(), &[1.5]);
    }

    #[test]
    fn precondition_requires_honest_majority() {
        let gar = CoordinateMedian::new(2);
        let gs = vec![Vector::zeros(1); 4];
        assert!(matches!(
            gar.aggregate(&gs).unwrap_err(),
            AggregationError::NotEnoughWorkers { .. }
        ));
        let gs = vec![Vector::zeros(1); 5];
        assert!(gar.aggregate(&gs).is_ok());
    }

    #[test]
    fn properties_report_weak_resilience() {
        let p = CoordinateMedian::new(3).properties();
        assert_eq!(p.resilience, Resilience::Weak);
        assert_eq!(p.minimum_workers, 7);
    }
}
