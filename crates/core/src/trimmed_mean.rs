//! Coordinate-wise trimmed mean (the mean-based rule of Yin et al., 2018,
//! cited in the paper's related work), included as an additional weak
//! baseline GAR.

use crate::gar::{reduce_columns, Gar, GarProperties, Resilience};
use crate::{resilience, Result};
use agg_tensor::{GradientBatch, ShardPlan};

/// Coordinate-wise `f`-trimmed mean.
///
/// In every coordinate the `f` largest and `f` smallest values are discarded
/// and the remaining `n − 2f` values are averaged. Weakly Byzantine-resilient
/// for `f < n/2`: after trimming, every surviving value is bracketed by
/// honest values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrimmedMean {
    f: usize,
}

impl TrimmedMean {
    /// Creates a trimmed-mean rule that trims `f` values from each tail.
    pub fn new(f: usize) -> Self {
        TrimmedMean { f }
    }

    /// Declared number of Byzantine workers (= per-tail trim count).
    pub fn f(&self) -> usize {
        self.f
    }
}

impl Default for TrimmedMean {
    fn default() -> Self {
        TrimmedMean::new(0)
    }
}

impl Gar for TrimmedMean {
    fn properties(&self) -> GarProperties {
        GarProperties {
            name: "trimmed-mean",
            resilience: Resilience::Weak,
            f: self.f,
            minimum_workers: resilience::median_min_workers(self.f),
            tolerates_non_finite: true,
        }
    }

    fn check(&self, n: usize) -> Result<()> {
        resilience::check_median("trimmed-mean", n, self.f)
    }

    fn reduce(
        &self,
        batch: &GradientBatch,
        _selection: Option<&[usize]>,
        plan: &ShardPlan,
        out: &mut [f32],
    ) -> Result<()> {
        // NaN values are dropped by the fused kernel before trimming (the
        // network path canonicalises them past the kept window); a column
        // left with too few values falls back to the median of whatever
        // finite values remain.
        let trim = self.f;
        reduce_columns(batch, plan, out, |cols, dst| Ok(cols.trimmed_mean_into(trim, dst)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agg_tensor::Vector;

    #[test]
    fn trims_extremes_per_coordinate() {
        let gar = TrimmedMean::new(1);
        let gs = vec![
            Vector::from(vec![100.0]),
            Vector::from(vec![1.0]),
            Vector::from(vec![2.0]),
            Vector::from(vec![3.0]),
            Vector::from(vec![-50.0]),
        ];
        assert_eq!(gar.aggregate(&gs).unwrap().as_slice(), &[2.0]);
    }

    #[test]
    fn zero_trim_equals_average() {
        let gar = TrimmedMean::new(0);
        let gs = vec![Vector::from(vec![1.0, 2.0]), Vector::from(vec![3.0, 4.0])];
        assert_eq!(gar.aggregate(&gs).unwrap().as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn outlier_effect_is_bounded_by_honest_range() {
        let gar = TrimmedMean::new(1);
        let gs = vec![
            Vector::from(vec![1.0]),
            Vector::from(vec![1.2]),
            Vector::from(vec![0.8]),
            Vector::from(vec![1e12]),
        ];
        let out = gar.aggregate(&gs).unwrap();
        assert!(out[0] >= 0.8 && out[0] <= 1.2);
    }

    #[test]
    fn requires_enough_workers() {
        let gar = TrimmedMean::new(2);
        assert!(gar.aggregate(&vec![Vector::zeros(1); 4]).is_err());
        assert!(gar.aggregate(&vec![Vector::zeros(1); 5]).is_ok());
    }

    #[test]
    fn nan_heavy_column_falls_back_to_median() {
        let gar = TrimmedMean::new(1);
        let gs = vec![
            Vector::from(vec![f32::NAN]),
            Vector::from(vec![f32::NAN]),
            Vector::from(vec![3.0]),
        ];
        assert_eq!(gar.aggregate(&gs).unwrap().as_slice(), &[3.0]);
    }
}
