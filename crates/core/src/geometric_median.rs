//! Approximate geometric median via the Weiszfeld iteration.
//!
//! The geometric median (the point minimising the sum of Euclidean distances
//! to the submitted gradients) is the classical robust aggregator that
//! Krum-style rules approximate cheaply; it is the backbone of several of the
//! weakly Byzantine-resilient approaches the paper cites (e.g. the
//! median-of-means constructions). It is included as an additional baseline
//! GAR: robust to a minority of outliers, but more expensive per round than
//! Multi-Krum for the same dimension because of its iterative refinement.

use crate::{AggregationError, Result};
use agg_tensor::{ops, GradientBatch, Vector};

/// Weiszfeld iterations of the rule.
pub(crate) const WEISZFELD_ITERATIONS: usize = 8;

/// Distance and shift below which a Weiszfeld step stops.
const WEISZFELD_TOLERANCE: f32 = 1e-6;

/// The Weiszfeld approximation of the geometric median of the finite arena
/// rows among `rows`, written to `out`. The fixed-point iteration needs
/// full-dimension distances at every step, so it cannot be split by column:
/// the rule reduces all its rows at once, on the sharded tier too.
pub(crate) fn reduce(batch: &GradientBatch, rows: &[usize], out: &mut [f32]) -> Result<()> {
    // Non-finite gradients cannot participate in distance computations;
    // they are excluded up front (equivalent to being infinitely far).
    // Rows are borrowed from the arena — no clones.
    let finite: Vec<usize> =
        rows.iter().copied().filter(|&i| batch.row(i).iter().all(|x| x.is_finite())).collect();
    if finite.is_empty() {
        return Err(AggregationError::AllGradientsCorrupt("geometric-median"));
    }
    // Start from the coordinate-wise median — already a robust point.
    let mut estimate = Vector::zeros(batch.dim());
    batch.columns(0..batch.dim()).median_into(Some(&finite), estimate.as_mut_slice())?;
    for _ in 0..WEISZFELD_ITERATIONS {
        let mut weight_sum = 0.0f32;
        let mut next = Vector::zeros(estimate.len());
        let mut coincides = false;
        for &r in &finite {
            let row = batch.row(r);
            let distance = ops::squared_distance(estimate.as_slice(), row).sqrt().max(1e-12);
            if distance <= WEISZFELD_TOLERANCE {
                coincides = true;
                break;
            }
            let w = 1.0 / distance;
            weight_sum += w;
            for (a, &b) in next.iter_mut().zip(row) {
                *a += w * b;
            }
        }
        if coincides || weight_sum == 0.0 {
            break;
        }
        next.scale(1.0 / weight_sum);
        let shift = estimate.distance(&next);
        estimate = next;
        if shift <= WEISZFELD_TOLERANCE {
            break;
        }
    }
    out.copy_from_slice(estimate.as_slice());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gar, GarConfig, GarKind};

    #[test]
    fn median_of_symmetric_points_is_the_centre() {
        let gar = GarConfig::new(GarKind::GeometricMedian, 0);
        let gs = vec![
            Vector::from(vec![1.0, 0.0]),
            Vector::from(vec![-1.0, 0.0]),
            Vector::from(vec![0.0, 1.0]),
            Vector::from(vec![0.0, -1.0]),
        ];
        let out = gar.aggregate(&gs).unwrap();
        assert!(out[0].abs() < 1e-3 && out[1].abs() < 1e-3, "{out:?}");
    }

    #[test]
    fn resists_a_large_outlier() {
        let gar = GarConfig::new(GarKind::GeometricMedian, 1);
        let mut gs: Vec<Vector> = (0..6).map(|_| Vector::from(vec![1.0, 2.0])).collect();
        gs.push(Vector::from(vec![1e9, -1e9]));
        let out = gar.aggregate(&gs).unwrap();
        assert!((out[0] - 1.0).abs() < 0.1, "{out:?}");
        assert!((out[1] - 2.0).abs() < 0.1, "{out:?}");
    }

    #[test]
    fn excludes_non_finite_gradients() {
        let gar = GarConfig::new(GarKind::GeometricMedian, 1);
        let gs =
            vec![Vector::from(vec![1.0]), Vector::from(vec![1.2]), Vector::from(vec![f32::NAN])];
        let out = gar.aggregate(&gs).unwrap();
        assert!(out.is_finite());
        assert!(out[0] >= 1.0 && out[0] <= 1.2);
        let all_bad = vec![Vector::from(vec![f32::NAN]); 3];
        assert!(matches!(
            gar.aggregate(&all_bad).unwrap_err(),
            AggregationError::AllGradientsCorrupt(_)
        ));
    }

    #[test]
    fn single_gradient_is_returned_as_is() {
        let gar = GarConfig::new(GarKind::GeometricMedian, 0);
        let gs = vec![Vector::from(vec![3.0, -4.0])];
        assert_eq!(gar.aggregate(&gs).unwrap().as_slice(), &[3.0, -4.0]);
    }

    #[test]
    fn configuration_validation() {
        let gar = GarConfig::new(GarKind::GeometricMedian, 2);
        assert!(gar.aggregate(&vec![Vector::zeros(1); 4]).is_err());
        assert!(gar.aggregate(&vec![Vector::zeros(1); 5]).is_ok());
    }
}
