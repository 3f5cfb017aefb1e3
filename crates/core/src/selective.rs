//! Selective averaging: the loss-tolerant averaging variant of §3.3.
//!
//! When the unreliable transport loses packets, the receiving endpoint marks
//! the missing coordinates with `NaN`. Selective averaging ignores those
//! coordinates while averaging, so a lost packet only reduces the effective
//! sample count of the affected coordinates instead of discarding the whole
//! gradient. The paper notes this variant requires in-order packet metadata
//! (sequence numbers) so that received coordinates land at the right offsets;
//! that part is implemented in `agg-net`.

use crate::gar::{reduce_columns, Gar, GarProperties, Resilience};
use crate::{AggregationError, Result};
use agg_tensor::{GradientBatch, ShardPlan};

/// Coordinate-wise mean that skips non-finite (lost) coordinates.
///
/// Not Byzantine-resilient — a worker can still submit arbitrary finite
/// values — but tolerant to packet loss, which is exactly the role it plays
/// in the Figure 8 comparison.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectiveAverage {
    _private: (),
}

impl SelectiveAverage {
    /// Creates the selective-averaging rule.
    pub fn new() -> Self {
        SelectiveAverage { _private: () }
    }
}

impl Gar for SelectiveAverage {
    fn properties(&self) -> GarProperties {
        GarProperties {
            name: "selective-average",
            resilience: Resilience::None,
            f: 0,
            minimum_workers: 1,
            tolerates_non_finite: true,
        }
    }

    fn reduce(
        &self,
        batch: &GradientBatch,
        _selection: Option<&[usize]>,
        plan: &ShardPlan,
        out: &mut [f32],
    ) -> Result<()> {
        if batch.rows().all(|row| row.iter().all(|x| !x.is_finite())) {
            return Err(AggregationError::AllGradientsCorrupt("selective-average"));
        }
        // A coordinate that was lost in every submission becomes a zero
        // update rather than poisoning the model — this matches "not caring
        // what happens at the lower layer": the coordinate simply does not
        // move this step.
        reduce_columns(batch, plan, out, |cols, dst| Ok(cols.nan_mean_into(dst)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agg_tensor::Vector;

    #[test]
    fn behaves_like_average_on_clean_input() {
        let gar = SelectiveAverage::new();
        let gs = vec![Vector::from(vec![1.0, 4.0]), Vector::from(vec![3.0, 8.0])];
        assert_eq!(gar.aggregate(&gs).unwrap().as_slice(), &[2.0, 6.0]);
    }

    #[test]
    fn skips_lost_coordinates() {
        let gar = SelectiveAverage::new();
        let gs = vec![Vector::from(vec![1.0, f32::NAN]), Vector::from(vec![3.0, 8.0])];
        assert_eq!(gar.aggregate(&gs).unwrap().as_slice(), &[2.0, 8.0]);
    }

    #[test]
    fn coordinate_lost_everywhere_becomes_zero_update() {
        let gar = SelectiveAverage::new();
        let gs = vec![Vector::from(vec![1.0, f32::NAN]), Vector::from(vec![3.0, f32::NAN])];
        assert_eq!(gar.aggregate(&gs).unwrap().as_slice(), &[2.0, 0.0]);
    }

    #[test]
    fn fully_corrupt_batch_is_an_error() {
        let gar = SelectiveAverage::new();
        let gs = vec![Vector::from(vec![f32::NAN, f32::NAN])];
        assert!(matches!(
            gar.aggregate(&gs).unwrap_err(),
            AggregationError::AllGradientsCorrupt(_)
        ));
    }

    #[test]
    fn properties_advertise_non_finite_tolerance() {
        assert!(SelectiveAverage::new().properties().tolerates_non_finite);
    }
}
