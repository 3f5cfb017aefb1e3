//! Bulyan over Multi-Krum: the strongly Byzantine-resilient GAR
//! (El Mhamdi et al., 2018; §2.3 and Appendix B.3 of the AggregaThor paper).
//!
//! Bulyan proceeds in two phases:
//!
//! 1. **Selection** — run the underlying weak GAR (Krum selection) `θ = n − 2f`
//!    times; each iteration extracts the best-scoring gradient from the
//!    remaining set.
//! 2. **Robust coordinate-wise averaging** — for every coordinate, take the
//!    median of the `θ` selected values and average the `β = θ − 2f` values
//!    closest to that median.
//!
//! The implementation follows the paper's optimisation: the O(n²·d) pairwise
//! distance matrix is computed **once** (it is the Multi-Krum triangular
//! [`DistanceMatrix`], each unordered pair computed exactly once);
//! subsequent selection iterations only re-rank scores over the shrinking
//! active set, so the additional cost per iteration is O(n²) rather than
//! O(n²·d). The second phase runs fused over column blocks of
//! the [`GradientBatch`] arena through the branch-free vertical selection
//! networks of `agg_tensor::sortnet` (the θ selected rows are far below the
//! network cap), sharing the closest-to-median window kernel with MeaMed.

use crate::gar::{ensure_some_finite_row, reduce_columns};
use crate::multi_krum::krum_scores;
use crate::{resilience, AggregationError, Result};
use agg_tensor::{stats, DistanceMatrix, GradientBatch, ShardPlan, TensorError};

/// Phase 1: the `θ = n − 2f` rows extracted by iterated Krum, in extraction
/// order. The distances are computed once (the paper's optimisation); each
/// iteration only re-ranks scores over the shrinking active set.
pub(crate) fn select(distances: &DistanceMatrix, f: usize) -> Result<Vec<usize>> {
    let n = distances.n();
    let theta = resilience::bulyan_selection_count(n, f)?;
    let mut active: Vec<usize> = (0..n).collect();
    let mut selected = Vec::with_capacity(theta);
    for _ in 0..theta {
        // Neighbour count follows the Krum definition on the *remaining*
        // set, clamped to at least one neighbour so the last iterations
        // remain well defined.
        let neighbours = active.len().saturating_sub(f + 2).max(1);
        let scores = krum_scores(distances, &active, neighbours);
        let best_pos = stats::k_smallest_indices(&scores, 1)?[0];
        selected.push(active.remove(best_pos));
    }
    Ok(selected)
}

/// Phase 2, fused: for every coordinate of the selected rows, the mean of
/// the `β = n − 4f` values closest to the coordinate-wise median. Non-finite
/// values rank as infinitely far and are never averaged while enough finite
/// values exist; a coordinate that is NaN in every selected row means the
/// whole selection is corrupt.
pub(crate) fn reduce(
    batch: &GradientBatch,
    selection: Option<&[usize]>,
    plan: &ShardPlan,
    out: &mut [f32],
    f: usize,
) -> Result<()> {
    let beta = resilience::bulyan_beta(batch.n(), f)?;
    ensure_some_finite_row("bulyan", batch, selection)?;
    let rows = selection.map_or(batch.n(), <[usize]>::len);
    reduce_columns(batch, rows, plan, out, |cols, dst| {
        cols.mean_around_median_into(selection, beta, dst).map_err(|e| match e {
            TensorError::EmptyInput(_) => AggregationError::AllGradientsCorrupt("bulyan"),
            other => other.into(),
        })
    })
}

#[cfg(test)]
mod tests {
    use crate::resilience::resilience_floor;
    use crate::{Gar, GarConfig, GarKind, GradientBatch, Resilience};
    use agg_tensor::rng::{gaussian_vector, seeded_rng};
    use agg_tensor::Vector;

    /// The rows `gar`'s selection phase extracts from `gradients`.
    fn selected(gar: &GarConfig, gradients: &[Vector]) -> Vec<usize> {
        let batch = GradientBatch::from_vectors(gradients).unwrap();
        gar.selected_rows(&batch, None).unwrap().unwrap()
    }

    fn honest_batch(n: usize, d: usize, seed: u64) -> Vec<Vector> {
        let mut rng = seeded_rng(seed);
        (0..n)
            .map(|_| {
                let mut v = Vector::filled(d, 1.0);
                v.axpy(1.0, &gaussian_vector(&mut rng, d, 0.0, 0.05)).unwrap();
                v
            })
            .collect()
    }

    #[test]
    fn paper_setup_selection_counts() {
        // n = 19, f = 4 => theta = 11, beta = 3.
        let gs = honest_batch(19, 4, 1);
        let gar = GarConfig::new(GarKind::Bulyan, 4);
        assert_eq!(selected(&gar, &gs).len(), 11);
    }

    #[test]
    fn excludes_large_outliers() {
        let mut gs = honest_batch(15, 3, 2);
        for _ in 0..3 {
            gs.push(Vector::from(vec![1e8, -1e8, 1e8]));
        }
        let gar = GarConfig::new(GarKind::Bulyan, 3); // needs n >= 15, have 18
        let out = gar.aggregate(&gs).unwrap();
        for c in 0..3 {
            assert!((out[c] - 1.0).abs() < 0.2, "coordinate {c} was {}", out[c]);
        }
    }

    #[test]
    fn output_is_within_honest_coordinate_range() {
        // Strong resilience in miniature: every output coordinate must lie
        // within the range spanned by honest gradients.
        let mut gs = honest_batch(8, 5, 3);
        gs.push(Vector::from(vec![50.0, -50.0, 50.0, -50.0, 50.0]));
        let gar = GarConfig::new(GarKind::Bulyan, 1);
        let out = gar.aggregate(&gs).unwrap();
        for c in 0..5 {
            let honest: Vec<f32> = gs[..8].iter().map(|g| g[c]).collect();
            let lo = honest.iter().cloned().fold(f32::INFINITY, f32::min);
            let hi = honest.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            assert!(out[c] >= lo - 1e-4 && out[c] <= hi + 1e-4);
        }
    }

    #[test]
    fn nan_and_infinite_gradients_are_tolerated() {
        let mut gs = honest_batch(8, 3, 4);
        gs.push(Vector::from(vec![f32::NAN, f32::NAN, f32::NAN]));
        let gar = GarConfig::new(GarKind::Bulyan, 1);
        let out = gar.aggregate(&gs).unwrap();
        assert!(out.is_finite());
        assert!((out[0] - 1.0).abs() < 0.2);
    }

    #[test]
    fn requires_4f_plus_3_workers() {
        let gar = GarConfig::new(GarKind::Bulyan, 4);
        assert!(gar.aggregate(&honest_batch(18, 2, 5)).is_err());
        assert!(gar.aggregate(&honest_batch(19, 2, 5)).is_ok());
    }

    #[test]
    fn f_zero_still_aggregates() {
        let gar = GarConfig::new(GarKind::Bulyan, 0);
        let gs = honest_batch(5, 2, 6);
        let out = gar.aggregate(&gs).unwrap();
        assert!((out[0] - 1.0).abs() < 0.2);
    }

    #[test]
    fn extraction_order_starts_with_best_scoring() {
        // All gradients identical except one outlier: the outlier must be
        // extracted last (or not at all if theta < n).
        let mut gs = vec![Vector::from(vec![2.0, 2.0]); 8];
        gs.push(Vector::from(vec![100.0, 100.0]));
        let gar = GarConfig::new(GarKind::Bulyan, 1);
        let order = selected(&gar, &gs);
        // theta = 9 - 2 = 7 selections; index 8 (the outlier) must not be
        // among the first 7 extracted because identical gradients score 0.
        assert!(!order.contains(&8));
    }

    #[test]
    fn properties_report_strong_resilience() {
        assert_eq!(GarKind::Bulyan.resilience(), Resilience::Strong);
        assert_eq!(resilience_floor(GarKind::Bulyan, 2), 11);
        assert!(GarConfig::new(GarKind::Bulyan, 2).selects());
    }
}
