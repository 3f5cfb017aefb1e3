//! Multi-Krum: the paper's weakly Byzantine-resilient workhorse GAR.
//!
//! Given `n` gradients of which at most `f` are Byzantine, each gradient `i`
//! receives a score equal to the sum of its squared distances to its
//! `n − f − 2` closest neighbours. The `m` lowest-scoring gradients are
//! selected and averaged (Equation 5 of the paper). The appendix proves weak
//! Byzantine resilience for any `m ≤ n − f − 2`; `m = 1` is the original Krum
//! of Blanchard et al.
//!
//! The implementation mirrors the paper's "fast, memory scarce" description:
//! gradients live in a contiguous [`GradientBatch`] arena, the O(n²·d)
//! pairwise-distance kernel computes each unordered pair exactly once (flat
//! upper triangle, rayon-parallel when the work warrants it), scores are
//! obtained by partial selection over a reusable scratch buffer instead of
//! allocate-and-sort, and the [`DistanceMatrix`] is shared with Bulyan,
//! which re-ranks scores across its iterations instead of recomputing
//! distances.

use crate::gar::{ensure_some_finite_row, reduce_columns};
use crate::{resilience, Result};
use agg_tensor::batch::PARALLEL_MIN_WORK;
use agg_tensor::{stats, DistanceMatrix, GradientBatch, ShardPlan};
use rayon::prelude::*;

/// The Krum score of gradient `index` restricted to the `active` set — the
/// sum of its `neighbours` smallest distances to other active gradients —
/// over a caller-provided scratch buffer: partial selection
/// (`select_nth_unstable`) of the `neighbours` smallest distances, no
/// allocation and no full sort.
fn krum_score_into(
    distances: &DistanceMatrix,
    active: &[usize],
    index: usize,
    neighbours: usize,
    scratch: &mut Vec<f32>,
) -> f32 {
    scratch.clear();
    scratch.extend(active.iter().filter(|&&j| j != index).map(|&j| distances.get(index, j)));
    let k = neighbours.min(scratch.len());
    if k == 0 {
        return 0.0;
    }
    if k < scratch.len() {
        scratch.select_nth_unstable_by(k - 1, |a, b| a.total_cmp(b));
    }
    scratch[..k].iter().sum()
}

/// Krum scores for every member of `active`, in the same order as `active`.
pub(crate) fn krum_scores(
    distances: &DistanceMatrix,
    active: &[usize],
    neighbours: usize,
) -> Vec<f32> {
    // Gate on the actual work being dispatched: scoring gathers and
    // partially selects |active| distances for each of the |active| members,
    // i.e. |active|² element operations in total. PARALLEL_MIN_WORK is
    // calibrated in exactly those units (element ops versus rayon's fixed
    // dispatch overhead), so the same constant serves every kernel.
    if active.len() * active.len() < PARALLEL_MIN_WORK {
        let mut scratch = Vec::with_capacity(active.len());
        active
            .iter()
            .map(|&i| krum_score_into(distances, active, i, neighbours, &mut scratch))
            .collect()
    } else {
        // Chunked dispatch so each parallel task reuses one scratch buffer
        // across its members instead of allocating per scored gradient.
        let parts: Vec<Vec<f32>> = active
            .chunks(64)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|chunk| {
                let mut scratch = Vec::with_capacity(active.len());
                chunk
                    .iter()
                    .map(|&i| krum_score_into(distances, active, i, neighbours, &mut scratch))
                    .collect()
            })
            .collect();
        parts.into_iter().flatten().collect()
    }
}

/// The selection phase: the `m` rows with the lowest Krum scores over their
/// `n − f − 2` nearest neighbours, lowest score first. On the sharded tier
/// the matrix is the shard-reduced one, so the selection — and therefore the
/// resilience guarantee — is the unsharded rule's.
pub(crate) fn select(distances: &DistanceMatrix, f: usize, m: usize) -> Result<Vec<usize>> {
    let n = distances.n();
    let neighbours = resilience::krum_neighbour_count(n, f)?;
    let active: Vec<usize> = (0..n).collect();
    let scores = krum_scores(distances, &active, neighbours);
    Ok(stats::k_smallest_indices(&scores, m)?)
}

/// The mean of the selected rows, straight out of the arena.
pub(crate) fn reduce(
    batch: &GradientBatch,
    selection: &[usize],
    plan: &ShardPlan,
    out: &mut [f32],
) -> Result<()> {
    ensure_some_finite_row("multi-krum", batch, selection)?;
    reduce_columns(batch, selection.len(), plan, out, |cols, dst| {
        Ok(cols.mean_into(Some(selection), dst)?)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AggregationError, Gar, GarConfig, GarKind};
    use agg_tensor::rng::{gaussian_vector, seeded_rng};
    use agg_tensor::Vector;

    fn distance_matrix(gradients: &[Vector]) -> DistanceMatrix {
        GradientBatch::from_vectors(gradients).unwrap().pairwise_squared_distances()
    }

    /// The rows `gar`'s selection phase keeps for `gradients`.
    fn selected(gar: &GarConfig, gradients: &[Vector]) -> Vec<usize> {
        let batch = GradientBatch::from_vectors(gradients).unwrap();
        gar.selected_rows(&batch, None).unwrap().unwrap()
    }

    /// Builds a batch of `honest` gradients around `center` plus `byz` copies
    /// of `attack`.
    fn batch(honest: usize, center: f32, byz: usize, attack: &[f32]) -> Vec<Vector> {
        let mut rng = seeded_rng(7);
        let d = attack.len();
        let mut out: Vec<Vector> = (0..honest)
            .map(|_| {
                let noise = gaussian_vector(&mut rng, d, 0.0, 0.01);
                let mut v = Vector::filled(d, center);
                v.axpy(1.0, &noise).unwrap();
                v
            })
            .collect();
        out.extend((0..byz).map(|_| Vector::from(attack)));
        out
    }

    #[test]
    fn excludes_an_obvious_outlier() {
        let gs = batch(6, 1.0, 1, &[1e9, -1e9]);
        let gar = GarConfig::new(GarKind::MultiKrum, 1);
        let out = gar.aggregate(&gs).unwrap();
        assert!((out[0] - 1.0).abs() < 0.1);
        assert!((out[1] - 1.0).abs() < 0.1);
    }

    #[test]
    fn selection_never_includes_byzantine_outliers() {
        let gs = batch(11, 2.0, 4, &[500.0, 500.0, 500.0]);
        let gar = GarConfig::new(GarKind::MultiKrum, 4);
        let selected = selected(&gar, &gs);
        assert_eq!(selected.len(), 15 - 4 - 2);
        assert!(selected.iter().all(|&i| i < 11), "selected = {selected:?}");
    }

    #[test]
    fn nan_gradients_are_never_selected() {
        let mut gs = batch(7, 0.5, 0, &[0.0]);
        gs.push(Vector::from(vec![f32::NAN]));
        gs.push(Vector::from(vec![f32::INFINITY]));
        let gar = GarConfig::new(GarKind::MultiKrum, 2);
        let selected = selected(&gar, &gs);
        assert!(selected.iter().all(|&i| i < 7));
        assert!(gar.aggregate(&gs).unwrap().is_finite());
    }

    #[test]
    fn m_equal_one_returns_a_single_input_gradient() {
        let gs = batch(6, 1.0, 1, &[100.0]);
        let gar = GarConfig::new(GarKind::MultiKrum, 1).with_selection(1);
        let out = gar.aggregate(&gs).unwrap();
        // With m = 1 the output is exactly one of the honest gradients.
        assert!(gs[..6].iter().any(|g| g == &out));
    }

    #[test]
    fn default_m_is_n_minus_f_minus_2() {
        let gs = batch(9, 1.0, 2, &[9.0]);
        let gar = GarConfig::new(GarKind::MultiKrum, 2);
        assert_eq!(selected(&gar, &gs).len(), 11 - 2 - 2);
    }

    #[test]
    fn rejects_undersized_clusters_and_oversized_m() {
        let gar = GarConfig::new(GarKind::MultiKrum, 4);
        let gs = vec![Vector::zeros(2); 10]; // needs 11
        assert!(matches!(
            gar.aggregate(&gs).unwrap_err(),
            AggregationError::NotEnoughWorkers { .. }
        ));
        let gar = GarConfig::new(GarKind::MultiKrum, 1).with_selection(10);
        let gs = vec![Vector::zeros(2); 7]; // max m = 4
        assert!(matches!(
            gar.aggregate(&gs).unwrap_err(),
            AggregationError::InvalidSelectionSize { m: 10, max: 4, .. }
        ));
        assert!(GarConfig::new(GarKind::MultiKrum, 1).with_selection(0).build().is_err());
    }

    #[test]
    fn no_byzantine_workers_behaves_like_a_partial_average() {
        // With identical honest gradients the output equals that gradient.
        let gs = vec![Vector::from(vec![3.0, -1.0]); 9];
        let gar = GarConfig::new(GarKind::MultiKrum, 2);
        let out = gar.aggregate(&gs).unwrap();
        assert_eq!(out.as_slice(), &[3.0, -1.0]);
    }

    #[test]
    fn scores_are_permutation_consistent() {
        let gs = batch(8, 1.0, 2, &[50.0, -50.0]);
        let gar = GarConfig::new(GarKind::MultiKrum, 2);
        let out1 = gar.aggregate(&gs).unwrap();
        let mut reversed = gs.clone();
        reversed.reverse();
        let out2 = gar.aggregate(&reversed).unwrap();
        for c in 0..out1.len() {
            assert!((out1[c] - out2[c]).abs() < 1e-4);
        }
    }

    #[test]
    fn krum_score_uses_only_nearest_neighbours() {
        // Three points on a line: 0, 1, 10. With 1 neighbour the score of the
        // middle point is the distance to its closest neighbour only.
        let gs = vec![Vector::from(vec![0.0]), Vector::from(vec![1.0]), Vector::from(vec![10.0])];
        let d = distance_matrix(&gs);
        assert_eq!(krum_scores(&d, &[0, 1, 2], 1), vec![1.0, 1.0, 81.0]);
        // Restricted to the active set: without the middle point, the
        // outer two are each other's only neighbour.
        assert_eq!(krum_scores(&d, &[0, 2], 1), vec![100.0, 100.0]);
    }

    #[test]
    fn parallel_scores_are_bit_identical_at_every_thread_budget() {
        // 460² member-distance ops clear PARALLEL_MIN_WORK, so the scores fan
        // out in chunks of 64 members above budget 1.
        let mut rng = seeded_rng(19);
        let gs: Vec<Vector> = (0..460).map(|_| gaussian_vector(&mut rng, 3, 0.0, 1.0)).collect();
        let d = distance_matrix(&gs);
        let active: Vec<usize> = (0..gs.len()).rev().collect();
        assert!(active.len() * active.len() >= PARALLEL_MIN_WORK);
        let runs = crate::at_budgets(|| {
            krum_scores(&d, &active, 400).iter().map(|s| s.to_bits()).collect::<Vec<u32>>()
        });
        assert!(runs.iter().all(|bits| *bits == runs[0]));
    }

    #[test]
    fn scores_match_the_reference_implementation() {
        let gs = batch(9, 1.0, 2, &[40.0, -40.0]);
        let d = distance_matrix(&gs);
        let dense = crate::reference::distance_matrix(&gs);
        let active: Vec<usize> = (0..gs.len()).collect();
        let fast = krum_scores(&d, &active, 7);
        let slow = crate::reference::krum_scores(&dense, &active, 7);
        for (a, b) in fast.iter().zip(slow.iter()) {
            assert!((a - b).abs() <= 1e-3 * b.abs().max(1.0), "{a} vs {b}");
        }
    }
}
