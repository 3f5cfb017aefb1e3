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
//! allocate-and-sort, and the [`DistanceMatrix`] is shared with
//! [`crate::Bulyan`], which re-ranks scores across its iterations instead of
//! recomputing distances.

use crate::gar::{ensure_some_finite_row, reduce_columns, Gar, GarProperties, Resilience};
use crate::{resilience, AggregationError, Result};
use agg_tensor::batch::PARALLEL_MIN_WORK;
use agg_tensor::{stats, ShardPlan};
use rayon::prelude::*;

pub use agg_tensor::batch::{DistanceMatrix, GradientBatch};

/// Krum score of gradient `index` restricted to the `active` set: the sum of
/// its `neighbours` smallest distances to other active gradients.
pub fn krum_score(
    distances: &DistanceMatrix,
    active: &[usize],
    index: usize,
    neighbours: usize,
) -> f32 {
    let mut scratch = Vec::with_capacity(active.len());
    krum_score_into(distances, active, index, neighbours, &mut scratch)
}

/// [`krum_score`] over a caller-provided scratch buffer: partial selection
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
pub fn krum_scores(distances: &DistanceMatrix, active: &[usize], neighbours: usize) -> Vec<f32> {
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

/// The Multi-Krum gradient aggregation rule.
///
/// ```
/// use agg_core::{Gar, MultiKrum};
/// use agg_tensor::Vector;
/// # fn main() -> Result<(), agg_core::AggregationError> {
/// let gar = MultiKrum::new(1)?; // tolerate one Byzantine worker, m = n - f - 2
/// let honest = (0..6).map(|_| Vector::from(vec![1.0, 1.0]));
/// let byzantine = std::iter::once(Vector::from(vec![-1e6, 1e6]));
/// let gradients: Vec<_> = honest.chain(byzantine).collect();
/// let update = gar.aggregate(&gradients)?;
/// assert!((update[0] - 1.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiKrum {
    f: usize,
    /// Explicit selection size; `None` means "use the largest admissible
    /// value `m̃ = n − f − 2` for the submitted `n`".
    m: Option<usize>,
}

impl MultiKrum {
    /// Creates Multi-Krum with the slowdown-optimal selection size
    /// `m̃ = n − f − 2` (decided per batch).
    ///
    /// # Errors
    ///
    /// Never fails today; returns `Result` so the constructor signature
    /// matches [`MultiKrum::with_selection`], which does validate.
    pub fn new(f: usize) -> Result<Self> {
        Ok(MultiKrum { f, m: None })
    }

    /// Creates Multi-Krum with an explicit selection size `m`.
    ///
    /// # Errors
    ///
    /// Returns [`AggregationError::InvalidSelectionSize`] when `m == 0`.
    /// The upper bound `m ≤ n − f − 2` depends on the batch size and is
    /// enforced at aggregation time.
    pub fn with_selection(f: usize, m: usize) -> Result<Self> {
        if m == 0 {
            return Err(AggregationError::InvalidSelectionSize {
                rule: "multi-krum",
                m,
                max: usize::MAX,
            });
        }
        Ok(MultiKrum { f, m: Some(m) })
    }

    /// Declared number of Byzantine workers.
    pub fn f(&self) -> usize {
        self.f
    }

    /// Resolves the selection size for a batch of `n` gradients.
    pub(crate) fn resolve_m(&self, n: usize) -> Result<usize> {
        let max_m = resilience::multi_krum_max_m(n, self.f)?;
        match self.m {
            None => Ok(max_m),
            Some(m) if m <= max_m => Ok(m),
            Some(m) => {
                Err(AggregationError::InvalidSelectionSize { rule: "multi-krum", m, max: max_m })
            }
        }
    }
}

impl Gar for MultiKrum {
    fn properties(&self) -> GarProperties {
        GarProperties {
            name: "multi-krum",
            resilience: Resilience::Weak,
            f: self.f,
            minimum_workers: resilience::multi_krum_min_workers(self.f),
            tolerates_non_finite: true,
        }
    }

    /// `n ≥ 2f + 3` and `m ≤ n − f − 2`.
    fn check(&self, n: usize) -> Result<()> {
        self.resolve_m(n).map(drop)
    }

    fn selects(&self) -> bool {
        true
    }

    /// The `m` rows with the lowest Krum scores over their `n − f − 2`
    /// nearest neighbours, lowest score first. On the sharded tier the
    /// matrix is the shard-reduced one, so the selection — and therefore
    /// the resilience guarantee — is the unsharded rule's.
    fn select(&self, distances: &DistanceMatrix) -> Result<Vec<usize>> {
        let n = distances.n();
        let m = self.resolve_m(n)?;
        let neighbours = resilience::krum_neighbour_count(n, self.f)?;
        let active: Vec<usize> = (0..n).collect();
        let scores = krum_scores(distances, &active, neighbours);
        Ok(stats::k_smallest_indices(&scores, m)?)
    }

    /// The mean of the selected rows, straight out of the arena.
    fn reduce(
        &self,
        batch: &GradientBatch,
        selection: Option<&[usize]>,
        plan: &ShardPlan,
        out: &mut [f32],
    ) -> Result<()> {
        ensure_some_finite_row("multi-krum", batch, selection)?;
        reduce_columns(batch, plan, out, |cols, dst| Ok(cols.mean_into(selection, dst)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agg_tensor::rng::{gaussian_vector, seeded_rng};
    use agg_tensor::Vector;

    fn distance_matrix(gradients: &[Vector]) -> DistanceMatrix {
        GradientBatch::from_vectors(gradients).unwrap().pairwise_squared_distances()
    }

    /// The rows `gar`'s selection phase keeps for `gradients`.
    fn select(gar: &MultiKrum, gradients: &[Vector]) -> Vec<usize> {
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
        let gar = MultiKrum::new(1).unwrap();
        let out = gar.aggregate(&gs).unwrap();
        assert!((out[0] - 1.0).abs() < 0.1);
        assert!((out[1] - 1.0).abs() < 0.1);
    }

    #[test]
    fn selection_never_includes_byzantine_outliers() {
        let gs = batch(11, 2.0, 4, &[500.0, 500.0, 500.0]);
        let gar = MultiKrum::new(4).unwrap();
        let selected = select(&gar, &gs);
        assert_eq!(selected.len(), 15 - 4 - 2);
        assert!(selected.iter().all(|&i| i < 11), "selected = {selected:?}");
    }

    #[test]
    fn nan_gradients_are_never_selected() {
        let mut gs = batch(7, 0.5, 0, &[0.0]);
        gs.push(Vector::from(vec![f32::NAN]));
        gs.push(Vector::from(vec![f32::INFINITY]));
        let gar = MultiKrum::new(2).unwrap();
        let selected = select(&gar, &gs);
        assert!(selected.iter().all(|&i| i < 7));
        assert!(gar.aggregate(&gs).unwrap().is_finite());
    }

    #[test]
    fn m_equal_one_returns_a_single_input_gradient() {
        let gs = batch(6, 1.0, 1, &[100.0]);
        let gar = MultiKrum::with_selection(1, 1).unwrap();
        let out = gar.aggregate(&gs).unwrap();
        // With m = 1 the output is exactly one of the honest gradients.
        assert!(gs[..6].iter().any(|g| g == &out));
    }

    #[test]
    fn default_m_is_n_minus_f_minus_2() {
        let gs = batch(9, 1.0, 2, &[9.0]);
        let gar = MultiKrum::new(2).unwrap();
        assert_eq!(select(&gar, &gs).len(), 11 - 2 - 2);
    }

    #[test]
    fn rejects_undersized_clusters_and_oversized_m() {
        let gar = MultiKrum::new(4).unwrap();
        let gs = vec![Vector::zeros(2); 10]; // needs 11
        assert!(matches!(
            gar.aggregate(&gs).unwrap_err(),
            AggregationError::NotEnoughWorkers { .. }
        ));
        let gar = MultiKrum::with_selection(1, 10).unwrap();
        let gs = vec![Vector::zeros(2); 7]; // max m = 4
        assert!(matches!(
            gar.aggregate(&gs).unwrap_err(),
            AggregationError::InvalidSelectionSize { m: 10, max: 4, .. }
        ));
        assert!(MultiKrum::with_selection(1, 0).is_err());
    }

    #[test]
    fn no_byzantine_workers_behaves_like_a_partial_average() {
        // With identical honest gradients the output equals that gradient.
        let gs = vec![Vector::from(vec![3.0, -1.0]); 9];
        let gar = MultiKrum::new(2).unwrap();
        let out = gar.aggregate(&gs).unwrap();
        assert_eq!(out.as_slice(), &[3.0, -1.0]);
    }

    #[test]
    fn scores_are_permutation_consistent() {
        let gs = batch(8, 1.0, 2, &[50.0, -50.0]);
        let gar = MultiKrum::new(2).unwrap();
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
        let active = vec![0, 1, 2];
        assert_eq!(krum_score(&d, &active, 1, 1), 1.0);
        assert_eq!(krum_score(&d, &active, 0, 1), 1.0);
        assert_eq!(krum_score(&d, &active, 2, 1), 81.0);
        let scores = krum_scores(&d, &active, 1);
        assert_eq!(scores, vec![1.0, 1.0, 81.0]);
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
