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
//! loss* in a sharded layout:
//!
//! 1. every shard computes its partial pair-distance matrix on its own
//!    column slice ([`agg_tensor::BatchColumns::distance_partials`]),
//! 2. the partials are reduce-summed in **fixed shard order** into one
//!    global [`DistanceMatrix`] (bit-reproducible under any thread count),
//! 3. selection runs **once, globally** — identical to the unsharded rule,
//! 4. each shard then averages (Multi-Krum) or median-windows (Bulyan) only
//!    the selected rows of its own slice, and the per-shard outputs
//!    concatenate into the final update.
//!
//! Coordinate-wise rules (average, median, trimmed mean, MeaMed) shard
//! trivially — their per-column reductions are independent, so the sharded
//! output is bit-identical to the unsharded one. The geometric median is the
//! one rule whose fixed-point iteration is inherently global; it runs
//! unsharded (which is, again, exact).
//!
//! The distance partials fan out over shards under rayon with a
//! deterministic shard-order reduce; the coordinate kernels instead run in
//! shard order and parallelise *inside* each shard over column blocks (a
//! shard-level fan-out on top of the block-level one is pure nested-dispatch
//! overhead — see [`ShardedAggregator::coordinate_sharded`]). Either way,
//! for a fixed shard count the aggregate is bit-for-bit reproducible at any
//! thread budget (pinned at budgets 1, 2 and 4 by the unit tests below).

use crate::gar::{ensure_batch_nonempty, Gar, GarProperties};
use crate::{resilience, AggregationError, Bulyan, GarConfig, GarKind, Result};
use agg_tensor::batch::PARALLEL_MIN_WORK;
use agg_tensor::{DistanceMatrix, GradientBatch, ShardPlan, TensorError, Vector};
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
    config: GarConfig,
    shards: usize,
    /// The unsharded rule: source of [`GarProperties`], the aggregation path
    /// for the non-decomposable geometric median, and the documentation of
    /// what this aggregator must be equivalent to.
    inner: Box<dyn Gar>,
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
        let inner = config.build()?;
        Ok(ShardedAggregator { config, shards, inner })
    }

    /// Number of coordinate shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The wrapped rule configuration.
    pub fn config(&self) -> GarConfig {
        self.config
    }

    /// The shard partition for a `d`-dimensional batch.
    pub fn plan(&self, d: usize) -> ShardPlan {
        ShardPlan::new(d, self.shards).expect("constructor guarantees shards >= 1")
    }

    /// Maps `run` over every shard's column range — in parallel when the
    /// total element-op count clears [`PARALLEL_MIN_WORK`] — and returns the
    /// per-shard results in shard order (the fan-out preserves order, so the
    /// downstream reduce is deterministic under any thread count).
    fn map_shards<T: Send>(
        &self,
        plan: &ShardPlan,
        total_work: usize,
        run: impl Fn(Range<usize>) -> T + Sync,
    ) -> Vec<T> {
        let ranges: Vec<Range<usize>> = plan.ranges().collect();
        if self.shards > 1 && total_work >= PARALLEL_MIN_WORK {
            ranges.into_par_iter().map(run).collect()
        } else {
            ranges.into_iter().map(run).collect()
        }
    }

    /// Runs a per-shard coordinate kernel, each shard writing its slice of
    /// one shared output buffer in place (the `*_into` kernel surface of
    /// [`agg_tensor::BatchColumns`]), so assembling the full update costs no
    /// concatenation copy.
    ///
    /// Deliberately sequential over shards: the column kernels already
    /// parallelise over `PARALLEL_MIN_WORK`-gated column blocks inside each
    /// shard, so a shard-level rayon fan-out on top adds nothing but nested
    /// dispatch. Per-column reductions are independent, so running the
    /// shards in shard order is bit-identical to any other schedule.
    fn coordinate_sharded(
        &self,
        batch: &GradientBatch,
        kernel: impl Fn(agg_tensor::BatchColumns<'_>, &mut [f32]) -> Result<()> + Sync,
    ) -> Result<Vector> {
        let plan = self.plan(batch.dim());
        let mut out = vec![0.0f32; batch.dim()];
        for range in plan.ranges() {
            let dst = &mut out[range.clone()];
            kernel(batch.columns(range), dst)?;
        }
        Ok(Vector::from(out))
    }

    /// The global pair-distance matrix assembled from per-shard partials:
    /// shard-parallel compute, shard-order reduce, one non-finite → `+∞`
    /// mapping at the end (NaN propagates faithfully through the raw sums).
    pub fn global_distances(&self, batch: &GradientBatch) -> DistanceMatrix {
        let n = batch.n();
        let plan = self.plan(batch.dim());
        let pairs = n.saturating_sub(1) * n / 2;
        let partials = self.map_shards(&plan, pairs.saturating_mul(batch.dim()), |range| {
            batch.columns(range).distance_partials()
        });
        let mut global = DistanceMatrix::zeros(n);
        for partial in &partials {
            global.accumulate(partial);
        }
        global.map_non_finite_to_infinity();
        global
    }

    /// The worker rows the rule's selection phase picks for this batch
    /// (computed through the sharded distance pipeline), or `None` for rules
    /// with no selection phase.
    ///
    /// Exposed so tests and experiment instrumentation can assert the
    /// decomposition's central claim: the sharded selection equals the
    /// unsharded one.
    ///
    /// # Errors
    ///
    /// Same conditions as the underlying rule's selection.
    pub fn selected_rows(&self, batch: &GradientBatch) -> Result<Option<Vec<usize>>> {
        match self.config.kind {
            GarKind::Krum | GarKind::MultiKrum => {
                let n = ensure_batch_nonempty("multi-krum", batch)?;
                // Cheap precondition before the O(n²·d) distance pipeline.
                resilience::check_multi_krum(n, self.config.f)?;
                let distances = self.global_distances(batch);
                self.selected_rows_with_distances(batch, &distances)
            }
            GarKind::Bulyan => {
                let n = ensure_batch_nonempty("bulyan", batch)?;
                resilience::check_bulyan(n, self.config.f)?;
                let distances = self.global_distances(batch);
                self.selected_rows_with_distances(batch, &distances)
            }
            _ => Ok(None),
        }
    }

    /// [`ShardedAggregator::selected_rows`] on an already-reduced global
    /// distance matrix — the streaming round engine's entry point, where the
    /// matrix was accumulated incrementally as rows completed and folded in
    /// the same shard order, so the selection is bit-identical to the batch
    /// pipeline's.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ShardedAggregator::selected_rows`], plus a
    /// dimension error when the matrix `n` disagrees with the batch.
    pub fn selected_rows_with_distances(
        &self,
        batch: &GradientBatch,
        distances: &DistanceMatrix,
    ) -> Result<Option<Vec<usize>>> {
        match self.config.kind {
            GarKind::Krum | GarKind::MultiKrum => {
                let n = ensure_batch_nonempty("multi-krum", batch)?;
                resilience::check_multi_krum(n, self.config.f)?;
                if distances.n() != n {
                    return Err(TensorError::dim(n, distances.n()).into());
                }
                let rule = self.config.krum_selection()?;
                Ok(Some(rule.select_with_distances(distances)?))
            }
            GarKind::Bulyan => {
                let n = ensure_batch_nonempty("bulyan", batch)?;
                resilience::check_bulyan(n, self.config.f)?;
                if distances.n() != n {
                    return Err(TensorError::dim(n, distances.n()).into());
                }
                Ok(Some(Bulyan::new(self.config.f)?.select_with_distances(distances)?))
            }
            _ => Ok(None),
        }
    }
}

impl ShardedAggregator {
    /// Shared body of both [`Gar`] aggregation entry points: when `distances`
    /// is supplied (the streaming engine's pre-accumulated global matrix) the
    /// selection phase reads it instead of re-running the distance pipeline;
    /// everything downstream — and every coordinate-wise arm — is the same
    /// code either way, which is what keeps streaming == batch bit-identical.
    fn aggregate_batch_inner(
        &self,
        batch: &GradientBatch,
        distances: Option<&DistanceMatrix>,
    ) -> Result<Vector> {
        // Each arm restates its rule's preconditions and error policy (the
        // twin sites live in the rule modules: trimmed_mean.rs, meamed.rs,
        // selective.rs, multi_krum.rs, bulyan.rs) because the sharded
        // evaluation interleaves them with the decomposition. Any drift
        // between a rule and its arm here is caught by the
        // tests/shard_equivalence.rs proptests, which pin Ok/Err agreement
        // and the aggregate for every rule at several shard counts.
        let rule = self.inner.properties().name;
        let n = ensure_batch_nonempty(rule, batch)?;
        let f = self.config.f;
        match self.config.kind {
            GarKind::Average => {
                self.coordinate_sharded(batch, |cols, dst| Ok(cols.mean_into(None, dst)?))
            }
            GarKind::SelectiveAverage => {
                let out =
                    self.coordinate_sharded(batch, |cols, dst| Ok(cols.nan_mean_into(dst)?))?;
                if batch.rows().all(|row| row.iter().all(|x| !x.is_finite())) {
                    return Err(AggregationError::AllGradientsCorrupt("selective-average"));
                }
                Ok(out)
            }
            GarKind::Median => {
                resilience::check_median("median", n, f)?;
                self.coordinate_sharded(batch, |cols, dst| Ok(cols.median_into(None, dst)?))
            }
            GarKind::TrimmedMean => {
                resilience::check_median("trimmed-mean", n, f)?;
                if n <= 2 * f {
                    return Err(AggregationError::NotEnoughWorkers {
                        rule: "trimmed-mean",
                        f,
                        required: 2 * f + 1,
                        actual: n,
                    });
                }
                self.coordinate_sharded(batch, |cols, dst| Ok(cols.trimmed_mean_into(f, dst)?))
            }
            GarKind::MeaMed => {
                resilience::check_median("meamed", n, f)?;
                let keep = (n - f).max(1);
                self.coordinate_sharded(batch, |cols, dst| {
                    Ok(cols.mean_around_median_into(None, keep, dst)?)
                })
            }
            // Weiszfeld's fixed-point iteration needs the full-dimension
            // distances at every step; running it unsharded is the exact
            // decomposition (there is nothing to fuse per shard).
            GarKind::GeometricMedian => self.inner.aggregate_batch(batch),
            GarKind::Krum | GarKind::MultiKrum => {
                let selected = match distances {
                    Some(d) => self.selected_rows_with_distances(batch, d)?,
                    None => self.selected_rows(batch)?,
                }
                .expect("krum/multi-krum always have a selection phase");
                if selected.iter().all(|&i| batch.row(i).iter().any(|x| !x.is_finite())) {
                    return Err(AggregationError::AllGradientsCorrupt("multi-krum"));
                }
                self.coordinate_sharded(
                    batch,
                    |cols, dst| Ok(cols.mean_into(Some(&selected), dst)?),
                )
            }
            GarKind::Bulyan => {
                let selected = match distances {
                    Some(d) => self.selected_rows_with_distances(batch, d)?,
                    None => self.selected_rows(batch)?,
                }
                .expect("bulyan always has a selection phase");
                let beta = resilience::bulyan_beta(n, f)?;
                if selected.iter().all(|&i| batch.row(i).iter().any(|x| !x.is_finite())) {
                    return Err(AggregationError::AllGradientsCorrupt("bulyan"));
                }
                self.coordinate_sharded(batch, |cols, dst| {
                    cols.mean_around_median_into(Some(&selected), beta, dst).map_err(|e| match e {
                        TensorError::EmptyInput(_) => {
                            AggregationError::AllGradientsCorrupt("bulyan")
                        }
                        other => other.into(),
                    })
                })
            }
        }
    }
}

impl Gar for ShardedAggregator {
    fn properties(&self) -> GarProperties {
        self.inner.properties()
    }

    fn aggregate_batch(&self, batch: &GradientBatch) -> Result<Vector> {
        self.aggregate_batch_inner(batch, None)
    }

    fn aggregate_batch_with_distances(
        &self,
        batch: &GradientBatch,
        distances: &DistanceMatrix,
    ) -> Result<Vector> {
        self.aggregate_batch_inner(batch, Some(distances))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MultiKrum;
    use agg_tensor::rng::{gaussian_vector, seeded_rng};

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
        assert_eq!(sharded.config().f, 2);
    }

    #[test]
    fn sharded_distances_match_the_unsharded_matrix() {
        let batch = random_batch(9, 257, 3);
        let sharded = ShardedAggregator::new(GarConfig::new(GarKind::MultiKrum, 2), 5).unwrap();
        let global = sharded.global_distances(&batch);
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
        let selected = sharded.selected_rows(&batch).unwrap().unwrap();
        let unsharded = MultiKrum::new(2).unwrap().select_batch(&batch).unwrap();
        assert_eq!(selected, unsharded);
        assert!(!selected.contains(&12), "the outlier must not be selected");
    }

    #[test]
    fn coordinate_rules_have_no_selection_phase() {
        let batch = random_batch(5, 16, 1);
        let sharded = ShardedAggregator::new(GarConfig::new(GarKind::Median, 1), 3).unwrap();
        assert_eq!(sharded.selected_rows(&batch).unwrap(), None);
    }

    #[test]
    fn parallel_and_sequential_shards_agree_bitwise() {
        // Large enough that d·n clears the parallel gate, so `map_shards`
        // and the column kernels inside each shard fan out above budget 1.
        // The shard-reduced matrix is compared too: a selection absorbs the
        // rounding a mis-ordered reduce would leave in it.
        let batch = random_batch(13, 40_000, 11);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for kind in [GarKind::MultiKrum, GarKind::Median, GarKind::Bulyan] {
            let sharded = ShardedAggregator::new(GarConfig::new(kind, 2), 4).unwrap();
            let runs = crate::at_budgets(|| {
                let distances = sharded.global_distances(&batch).to_dense().concat();
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
        let matrix = sharded.global_distances(&batch);
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
