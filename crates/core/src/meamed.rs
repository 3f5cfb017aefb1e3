//! Mean-around-median (MeaMed), one of the median-based rules of Xie et al.
//! (2018) cited by the paper's related work and evaluation.
//!
//! For every coordinate, the rule keeps the `n − f` values closest to the
//! coordinate-wise median and averages them. It sits between the plain
//! median (which keeps one value's worth of information per coordinate) and
//! the trimmed mean (which always removes exactly the two tails), and is
//! weakly Byzantine-resilient for `f < n/2`.
//!
//! The kernel (shared with Bulyan's second phase) sorts each column via the
//! vertical selection networks of `agg_tensor::sortnet` and grows the
//! closest-to-median window with the one two-pointer walk both rules use.

use crate::gar::{reduce_columns, Gar, GarProperties, Resilience};
use crate::{resilience, Result};
use agg_tensor::{GradientBatch, ShardPlan};

/// Coordinate-wise mean of the `n − f` values closest to the median.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeaMed {
    f: usize,
}

impl MeaMed {
    /// Creates the rule declared to tolerate `f` Byzantine workers.
    pub fn new(f: usize) -> Self {
        MeaMed { f }
    }

    /// Declared number of Byzantine workers.
    pub fn f(&self) -> usize {
        self.f
    }
}

impl Default for MeaMed {
    fn default() -> Self {
        MeaMed::new(0)
    }
}

impl Gar for MeaMed {
    fn properties(&self) -> GarProperties {
        GarProperties {
            name: "meamed",
            resilience: Resilience::Weak,
            f: self.f,
            minimum_workers: resilience::median_min_workers(self.f),
            tolerates_non_finite: true,
        }
    }

    fn check(&self, n: usize) -> Result<()> {
        resilience::check_median("meamed", n, self.f)
    }

    fn reduce(
        &self,
        batch: &GradientBatch,
        _selection: Option<&[usize]>,
        plan: &ShardPlan,
        out: &mut [f32],
    ) -> Result<()> {
        let keep = batch.n().saturating_sub(self.f).max(1);
        reduce_columns(batch, batch.n(), plan, out, |cols, dst| {
            Ok(cols.mean_around_median_into(None, keep, dst)?)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agg_tensor::Vector;

    #[test]
    fn equals_average_with_f_zero_and_clean_input() {
        let gar = MeaMed::new(0);
        let gs = vec![Vector::from(vec![1.0, 4.0]), Vector::from(vec![3.0, 8.0])];
        assert_eq!(gar.aggregate(&gs).unwrap().as_slice(), &[2.0, 6.0]);
    }

    #[test]
    fn excludes_the_f_most_extreme_values_per_coordinate() {
        let gar = MeaMed::new(1);
        let gs = vec![
            Vector::from(vec![1.0]),
            Vector::from(vec![2.0]),
            Vector::from(vec![3.0]),
            Vector::from(vec![1e9]),
        ];
        // keep = 3 closest to median(=2.5): {1, 2, 3} -> mean 2.
        assert_eq!(gar.aggregate(&gs).unwrap().as_slice(), &[2.0]);
    }

    #[test]
    fn output_stays_in_honest_range_under_attack() {
        let gar = MeaMed::new(2);
        let mut gs: Vec<Vector> = (0..5).map(|i| Vector::from(vec![i as f32 * 0.1])).collect();
        gs.push(Vector::from(vec![-1e8]));
        gs.push(Vector::from(vec![1e8]));
        let out = gar.aggregate(&gs).unwrap();
        assert!(out[0] >= 0.0 && out[0] <= 0.4, "out {}", out[0]);
    }

    #[test]
    fn tolerates_non_finite_values() {
        let gar = MeaMed::new(1);
        let gs =
            vec![Vector::from(vec![1.0]), Vector::from(vec![2.0]), Vector::from(vec![f32::NAN])];
        let out = gar.aggregate(&gs).unwrap();
        assert!(out.is_finite());
        assert!(out[0] >= 1.0 && out[0] <= 2.0);
    }

    #[test]
    fn requires_honest_majority() {
        let gar = MeaMed::new(3);
        assert!(gar.aggregate(&vec![Vector::zeros(1); 6]).is_err());
        assert!(gar.aggregate(&vec![Vector::zeros(1); 7]).is_ok());
    }

    #[test]
    fn properties() {
        let p = MeaMed::new(2).properties();
        assert_eq!(p.name, "meamed");
        assert_eq!(p.resilience, Resilience::Weak);
        assert!(p.tolerates_non_finite);
        assert_eq!(MeaMed::default().f(), 0);
    }
}
