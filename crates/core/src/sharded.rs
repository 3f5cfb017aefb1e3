//! Shard-parallel aggregation with exact distance-decomposed GARs.
//!
//! The paper's deployment shards the model across multiple parameter
//! servers. Naive per-shard aggregation would run each GAR independently on
//! its coordinate slice — cheap, but it weakens the distance-based rules: a
//! Byzantine gradient only has to look locally plausible per shard, and the
//! per-shard Krum selections can disagree. This module implements the exact
//! alternative: because squared L2 distances decompose as sums of per-shard
//! partials over disjoint coordinate ranges,
//!
//! ```text
//! ‖x − y‖² = Σ_s Σ_{c ∈ shard s} (x_c − y_c)²,
//! ```
//!
//! even Krum, Multi-Krum and Bulyan can be computed with *no robustness
//! loss* in a sharded layout. [`ShardedAggregator`] is a shard plan over the
//! wrapped rule's own definition ([`Gar`]'s "how a rule is defined"); it
//! overrides two pieces and reads every other one from the rule:
//!
//! 1. the distance pass: every shard computes its partial pair-distance
//!    matrix on its own column slice
//!    ([`agg_tensor::BatchColumns::distance_partials`]), and the partials
//!    are reduce-summed in **fixed shard order** into one global
//!    [`DistanceMatrix`] (bit-reproducible under any thread count);
//! 2. the column plan ([`Gar::column_plan`]): the rule's precondition and
//!    selection run **once, globally**, exactly as unsharded, and its
//!    reduce then runs once per shard, each shard writing its slice of the
//!    shared output buffer.
//!
//! Per-column reductions are independent, so a coordinate-wise rule's
//! sharded output is bit-identical to the unsharded one. A rule whose reduce
//! cannot be split by column (the geometric median) says so in its own
//! module and reduces the whole batch.
//!
//! The distance partials fan out over shards under rayon with a
//! deterministic shard-order reduce; the reduce instead runs in shard order
//! and parallelises *inside* each shard over column blocks (a shard-level
//! fan-out on top of the block-level one is pure nested-dispatch overhead).
//! Either way, for a fixed shard count the aggregate is bit-for-bit
//! reproducible at any thread budget (pinned at budgets 1, 2 and 4 by the
//! unit tests below).

use crate::gar::Gar;
use crate::{AggregationError, GarConfig, Result};
use agg_tensor::batch::PARALLEL_MIN_WORK;
use agg_tensor::{DistanceMatrix, GradientBatch, ShardPlan};
use rayon::prelude::*;
use std::ops::Range;

/// A gradient aggregation rule evaluated over `S` contiguous coordinate
/// shards, exactly equivalent to the underlying unsharded rule (up to
/// floating-point reassociation in the distance sums).
///
/// Implements [`Gar`], so a parameter server can swap it in wherever a plain
/// rule is used.
///
/// ```
/// use agg_core::{Gar, GarConfig, GarKind, ShardedAggregator};
/// use agg_tensor::Vector;
/// # fn main() -> Result<(), agg_core::AggregationError> {
/// let config = GarConfig::new(GarKind::MultiKrum, 1);
/// let sharded = ShardedAggregator::new(config, 4)?;
/// let honest = (0..6).map(|_| Vector::from(vec![1.0; 8]));
/// let byzantine = std::iter::once(Vector::from(vec![1e6; 8]));
/// let gradients: Vec<_> = honest.chain(byzantine).collect();
/// let update = sharded.aggregate(&gradients)?;
/// assert!((update[0] - 1.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShardedAggregator {
    shards: usize,
    /// The unsharded rule, whose definition every round runs.
    rule: GarConfig,
}

impl ShardedAggregator {
    /// Wraps `config`'s rule in an `S`-shard evaluation plan.
    ///
    /// # Errors
    ///
    /// Returns [`AggregationError::InvalidArgument`] when `shards` is zero
    /// and propagates rule-construction errors.
    pub fn new(config: GarConfig, shards: usize) -> Result<Self> {
        if shards == 0 {
            return Err(AggregationError::InvalidArgument {
                rule: config.kind.name().to_string(),
                message: "a sharded aggregator needs at least one shard".into(),
            });
        }
        Ok(ShardedAggregator { shards, rule: config.validated()? })
    }

    /// Number of coordinate shards.
    pub fn shards(&self) -> usize {
        self.shards
    }
}

impl Gar for ShardedAggregator {
    fn name(&self) -> &'static str {
        self.rule.name()
    }

    fn check(&self, n: usize) -> Result<()> {
        self.rule.check(n)
    }

    fn selects(&self) -> bool {
        self.rule.selects()
    }

    /// The global pair-distance matrix over the arena rows `rows`, assembled
    /// from per-shard partials: shard-parallel compute (when the total
    /// pair-coordinate count clears [`PARALLEL_MIN_WORK`]; the fan-out
    /// preserves shard order), shard-order reduce, one non-finite → `+∞`
    /// mapping at the end (NaN propagates faithfully through the raw sums).
    fn distances_over(&self, batch: &GradientBatch, rows: &[usize]) -> DistanceMatrix {
        let n = rows.len();
        let ranges: Vec<_> = self.column_plan(batch.dim()).ranges().collect();
        let pairs = n.saturating_sub(1) * n / 2;
        let partial = |range: Range<usize>| batch.columns(range).distance_partials(Some(rows));
        let partials: Vec<DistanceMatrix> =
            if self.shards > 1 && pairs.saturating_mul(batch.dim()) >= PARALLEL_MIN_WORK {
                ranges.into_par_iter().map(partial).collect()
            } else {
                ranges.into_iter().map(partial).collect()
            };
        let mut global = DistanceMatrix::zeros(n);
        for partial in &partials {
            global.accumulate(partial);
        }
        global.map_non_finite_to_infinity();
        global
    }

    fn select(&self, distances: &DistanceMatrix) -> Result<Vec<usize>> {
        self.rule.select(distances)
    }

    /// The `S`-shard partition of `0..d`.
    fn column_plan(&self, d: usize) -> ShardPlan {
        ShardPlan::new(d, self.shards).expect("constructor guarantees shards >= 1")
    }

    fn reduce(
        &self,
        batch: &GradientBatch,
        rows: &[usize],
        selection: Option<&[usize]>,
        plan: &ShardPlan,
        out: &mut [f32],
    ) -> Result<()> {
        self.rule.reduce(batch, rows, selection, plan, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GarKind;
    use agg_tensor::rng::{gaussian_vector, seeded_rng};
    use agg_tensor::Vector;

    fn random_batch(n: usize, d: usize, seed: u64) -> GradientBatch {
        let mut rng = seeded_rng(seed);
        let vs: Vec<Vector> = (0..n).map(|_| gaussian_vector(&mut rng, d, 0.0, 1.0)).collect();
        GradientBatch::from_vectors(&vs).unwrap()
    }

    #[test]
    fn zero_shards_is_rejected() {
        assert!(ShardedAggregator::new(GarConfig::new(GarKind::Average, 0), 0).is_err());
    }

    #[test]
    fn properties_delegate_to_the_wrapped_rule() {
        let sharded = ShardedAggregator::new(GarConfig::new(GarKind::Bulyan, 2), 4).unwrap();
        assert_eq!(sharded.name(), "bulyan");
        assert_eq!(sharded.shards(), 4);
        assert!(sharded.selects());
        let median = ShardedAggregator::new(GarConfig::new(GarKind::Median, 2), 4).unwrap();
        assert!(median.check(4).is_err() && median.check(5).is_ok());
    }

    #[test]
    fn sharded_distances_match_the_unsharded_matrix() {
        let batch = random_batch(9, 257, 3);
        let sharded = ShardedAggregator::new(GarConfig::new(GarKind::MultiKrum, 2), 5).unwrap();
        let global = sharded.distances(&batch);
        let reference = batch.pairwise_squared_distances();
        for i in 0..9 {
            for j in 0..9 {
                let a = global.get(i, j);
                let e = reference.get(i, j);
                assert!((a - e).abs() <= 1e-4 * e.abs().max(1.0), "({i},{j}): {a} vs {e}");
            }
        }
    }

    #[test]
    fn selection_matches_the_unsharded_rule() {
        let mut batch = random_batch(12, 65, 7);
        batch.push_row(&vec![1e6; 65]).unwrap();
        let config = GarConfig::new(GarKind::MultiKrum, 2);
        let sharded = ShardedAggregator::new(config, 4).unwrap();
        let selected = sharded.selected_rows(&batch, None).unwrap().unwrap();
        let unsharded = config.selected_rows(&batch, None).unwrap().unwrap();
        assert_eq!(selected, unsharded);
        assert!(!selected.contains(&12), "the outlier must not be selected");
    }

    #[test]
    fn coordinate_rules_have_no_selection_phase() {
        let batch = random_batch(5, 16, 1);
        let sharded = ShardedAggregator::new(GarConfig::new(GarKind::Median, 1), 3).unwrap();
        assert_eq!(sharded.selected_rows(&batch, None).unwrap(), None);
    }

    #[test]
    fn parallel_and_sequential_shards_agree_bitwise() {
        // Large enough that d·n clears the parallel gate, so the distance
        // pass's shard fan-out and the column kernels inside each shard fan
        // out above budget 1.
        // The shard-reduced matrix is compared too: a selection absorbs the
        // rounding a mis-ordered reduce would leave in it.
        let batch = random_batch(13, 40_000, 11);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for kind in [GarKind::MultiKrum, GarKind::Median, GarKind::Bulyan] {
            let sharded = ShardedAggregator::new(GarConfig::new(kind, 2), 4).unwrap();
            let runs = crate::at_budgets(|| {
                let distances = sharded.distances(&batch).to_dense().concat();
                (bits(&distances), bits(sharded.aggregate_batch(&batch).unwrap().as_slice()))
            });
            assert!(
                runs.iter().all(|bits| *bits == runs[0]),
                "{kind}: shard-parallel aggregation must be bit-identical at budgets 1, 2, 4"
            );
        }
    }

    #[test]
    fn streamed_distances_aggregate_is_bit_identical_to_the_batch_path() {
        // The streaming accumulator replays the sharded partial pipeline, so
        // handing its matrix to `aggregate_batch_with_distances` must return
        // the same bits as the batch entry point for every distance rule.
        let batch = random_batch(9, 1500, 17);
        for (kind, f) in [(GarKind::Krum, 2), (GarKind::MultiKrum, 2), (GarKind::Bulyan, 1)] {
            let sharded = ShardedAggregator::new(GarConfig::new(kind, f), 4).unwrap();
            let mut acc = agg_tensor::StreamingDistances::sharded(9, 1500, 4).unwrap();
            for slot in [6, 0, 8, 2, 4, 1, 7, 5, 3] {
                acc.row_arrived(&batch, slot);
            }
            let keep: Vec<usize> = (0..9).collect();
            let streamed =
                sharded.aggregate_batch_with_distances(&batch, &acc.matrix(&keep)).unwrap();
            let reference = sharded.aggregate_batch(&batch).unwrap();
            assert_eq!(streamed.as_slice(), reference.as_slice(), "{kind}");
        }
    }

    #[test]
    fn with_distances_rejects_a_mismatched_matrix() {
        let batch = random_batch(9, 64, 2);
        let sharded = ShardedAggregator::new(GarConfig::new(GarKind::MultiKrum, 2), 2).unwrap();
        let wrong = DistanceMatrix::zeros(8);
        assert!(sharded.aggregate_batch_with_distances(&batch, &wrong).is_err());
    }

    #[test]
    fn coordinate_rules_ignore_a_supplied_matrix() {
        let batch = random_batch(7, 48, 4);
        let sharded = ShardedAggregator::new(GarConfig::new(GarKind::Median, 1), 3).unwrap();
        let matrix = sharded.distances(&batch);
        let with = sharded.aggregate_batch_with_distances(&batch, &matrix).unwrap();
        let without = sharded.aggregate_batch(&batch).unwrap();
        assert_eq!(with.as_slice(), without.as_slice());
    }

    #[test]
    fn empty_batch_is_rejected_like_the_plain_rule() {
        let sharded = ShardedAggregator::new(GarConfig::new(GarKind::Average, 0), 2).unwrap();
        let empty = GradientBatch::new(4);
        assert!(matches!(
            sharded.aggregate_batch(&empty).unwrap_err(),
            AggregationError::NoGradients(_)
        ));
    }

    #[test]
    fn more_shards_than_coordinates_still_aggregates() {
        let batch = random_batch(9, 3, 5);
        let sharded = ShardedAggregator::new(GarConfig::new(GarKind::MultiKrum, 2), 7).unwrap();
        let out = sharded.aggregate_batch(&batch).unwrap();
        let reference =
            GarConfig::new(GarKind::MultiKrum, 2).build().unwrap().aggregate_batch(&batch).unwrap();
        for c in 0..3 {
            assert!((out[c] - reference[c]).abs() <= 1e-6 * reference[c].abs().max(1.0));
        }
    }
}
