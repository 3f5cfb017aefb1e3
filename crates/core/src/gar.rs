//! The [`Gar`] trait: the interface every gradient aggregation rule exposes to
//! the parameter server.

use crate::Result;
use agg_tensor::batch::PARALLEL_MIN_WORK;
use agg_tensor::{BatchColumns, DistanceMatrix, GradientBatch, ShardPlan, TensorError, Vector};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The Byzantine-resilience level a rule provides, as defined in §2.2 of the
/// paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Resilience {
    /// No resilience: a single Byzantine gradient can steer the update
    /// arbitrarily (e.g. plain averaging).
    None,
    /// Weak resilience: convergence to *some* flat region is guaranteed, but
    /// the attacker may steer which one (Definition 1).
    Weak,
    /// Strong resilience: in every coordinate the output stays within
    /// `O(1/√d)` of a correct gradient (Definition 2).
    Strong,
}

impl fmt::Display for Resilience {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Resilience::None => "none",
            Resilience::Weak => "weak",
            Resilience::Strong => "strong",
        };
        f.write_str(s)
    }
}

/// One round of a rule: the aggregate and, for a rule with a selection
/// phase, the rows that phase kept (lowest Krum score first for Krum and
/// Multi-Krum, extraction order for Bulyan), as arena row ids.
#[derive(Debug, Clone, PartialEq)]
pub struct GarRound {
    /// The vector the server applies.
    pub aggregate: Vector,
    /// The selected arena rows, or `None` when every row reaches the reduce.
    pub selection: Option<Vec<usize>>,
}

/// A Gradient Aggregation Rule (GAR).
///
/// A GAR consumes the `n` gradient estimates submitted in one synchronous
/// step (Equation 4 of the paper) and produces the single vector the server
/// applies to the model. Implementations must be deterministic functions of
/// their input: the server may be replicated and each replica must compute an
/// identical update (§6 of the paper).
///
/// # How a rule is defined
///
/// A rule states each of its pieces once, as one arm of a `match` in
/// [`crate::GarConfig`]'s implementation, and the provided [`Gar::round_over`]
/// runs them in order over a list of row ids into one arena — the rows the
/// round reduces, read where they landed, never copied into a batch of
/// their own:
///
/// 1. [`Gar::check`] — the precondition for `n` rows, before any distance
///    pass (an empty row list is refused ahead of it, naming the rule);
/// 2. when [`Gar::selects`]: the distance pass [`Gar::distances_over`]
///    (skipped when the caller supplies the matrix) and the selection
///    [`Gar::select`], whose positions map back to arena row ids;
/// 3. [`Gar::reduce`] — the coordinate-wise reduce of the selected rows (all
///    listed rows for a rule without selection), including the checks that
///    follow a selection, over the column ranges of [`Gar::column_plan`].
///
/// Every coordinate is summed over the same rows in the same order as it
/// would be over those rows compacted into their own batch, so a round over
/// a row list has the bits of the compacted round. The all-rows entries —
/// [`Gar::round`], [`Gar::selected_rows`], [`Gar::distances`],
/// [`Gar::aggregate_batch`] and [`Gar::aggregate_batch_with_distances`] —
/// are that one body over `0..n`. The sharded tier
/// ([`crate::ShardedAggregator`]) overrides only the distance pass and the
/// column plan; the tree's group stage
/// ([`crate::TreeAggregator::group_outputs_over`]) runs one round per group
/// over the group's member ids.
///
/// Implementations are `Send + Sync` so the parameter-server simulator can
/// evaluate them from worker threads and the benchmarks can share them.
pub trait Gar: Send + Sync + fmt::Debug {
    /// The rule's name (e.g. `"multi-krum"`), matching the `--aggregator`
    /// flag of the original runner.
    fn name(&self) -> &'static str;

    /// The rule's precondition for a round of `n ≥ 1` rows.
    ///
    /// # Errors
    ///
    /// Returns [`crate::AggregationError`] when `n` does not seat the rule
    /// (too few rows for the declared `f`, or a selection size out of range).
    fn check(&self, _n: usize) -> Result<()> {
        Ok(())
    }

    /// Whether the rule selects rows over the pairwise distance matrix
    /// (Krum, Multi-Krum, Bulyan, the majority vote). Only these rules pay
    /// for a distance pass; the others ignore a supplied matrix.
    fn selects(&self) -> bool {
        false
    }

    /// The distance pass over the arena rows `rows` (entry `(a, b)` is the
    /// distance between rows `rows[a]` and `rows[b]`) that the selection
    /// reads: the flat pairwise kernel.
    fn distances_over(&self, batch: &GradientBatch, rows: &[usize]) -> DistanceMatrix {
        batch.pairwise_squared_distances_over(rows)
    }

    /// [`Gar::distances_over`] every row of `batch`.
    fn distances(&self, batch: &GradientBatch) -> DistanceMatrix {
        self.distances_over(batch, &all_rows(batch))
    }

    /// The selection phase over the distances of `n = distances.n()` rows
    /// that passed [`Gar::check`], as positions `0..n` of the matrix. A rule
    /// without one keeps every row; the round only calls this when
    /// [`Gar::selects`].
    ///
    /// # Errors
    ///
    /// The rule's precondition for `distances.n()` rows.
    fn select(&self, distances: &DistanceMatrix) -> Result<Vec<usize>> {
        Ok((0..distances.n()).collect())
    }

    /// The column ranges the reduce runs over for a `d`-dimensional batch:
    /// one range, `0..d`, unless the rule is evaluated sharded.
    fn column_plan(&self, d: usize) -> ShardPlan {
        ShardPlan::new(d, 1).expect("one shard is always a valid plan")
    }

    /// The coordinate-wise reduce of the round over the arena rows `rows`:
    /// of `selection` (arena row ids, a subset of `rows`) when the rule
    /// selected, else of every row in `rows`. It runs once per range of
    /// `plan`, each range writing its own slice of `out`
    /// (`out.len() == batch.dim()`). The per-column reductions are
    /// independent, so any plan writes the same bits.
    ///
    /// # Errors
    ///
    /// Returns [`crate::AggregationError::AllGradientsCorrupt`] when the rows
    /// the rule reduces leave it nothing usable, and propagates kernel
    /// errors.
    fn reduce(
        &self,
        batch: &GradientBatch,
        rows: &[usize],
        selection: Option<&[usize]>,
        plan: &ShardPlan,
        out: &mut [f32],
    ) -> Result<()>;

    /// The first half of a round over the arena rows `rows`: the
    /// precondition and, for a selecting rule, the selection as arena row
    /// ids — read off `distances` (over `rows`, in list order) when the
    /// caller already holds the matrix, else off the rule's own distance
    /// pass. `None` for a rule without a selection phase. It changes
    /// nothing.
    ///
    /// # Errors
    ///
    /// [`crate::AggregationError::NoGradients`] for an empty row list, an
    /// index error for a row id past the arena, the rule's precondition, and
    /// a dimension error when `distances` covers a different number of rows.
    fn selected_rows_over(
        &self,
        batch: &GradientBatch,
        rows: &[usize],
        distances: Option<&DistanceMatrix>,
    ) -> Result<Option<Vec<usize>>> {
        let n = ensure_rows(self.name(), batch, rows)?;
        self.check(n)?;
        if !self.selects() {
            return Ok(None);
        }
        let owned;
        let distances = match distances {
            Some(matrix) if matrix.n() != n => {
                return Err(TensorError::dim(n, matrix.n()).into());
            }
            Some(matrix) => matrix,
            None => {
                owned = self.distances_over(batch, rows);
                &owned
            }
        };
        let picked = self.select(distances)?;
        Ok(Some(picked.into_iter().map(|k| rows[k]).collect()))
    }

    /// [`Gar::selected_rows_over`] every row of `batch`: the server's
    /// selection feedback for a compacted batch.
    ///
    /// # Errors
    ///
    /// The errors of [`Gar::selected_rows_over`].
    fn selected_rows(
        &self,
        batch: &GradientBatch,
        distances: Option<&DistanceMatrix>,
    ) -> Result<Option<Vec<usize>>> {
        self.selected_rows_over(batch, &all_rows(batch), distances)
    }

    /// One round over the arena rows `rows`: [`Gar::selected_rows_over`],
    /// then [`Gar::reduce`] over the rule's [`Gar::column_plan`].
    ///
    /// # Errors
    ///
    /// The errors of [`Gar::selected_rows_over`] and [`Gar::reduce`].
    fn round_over(
        &self,
        batch: &GradientBatch,
        rows: &[usize],
        distances: Option<&DistanceMatrix>,
    ) -> Result<GarRound> {
        let selection = self.selected_rows_over(batch, rows, distances)?;
        let mut out = vec![0.0f32; batch.dim()];
        let plan = self.column_plan(batch.dim());
        self.reduce(batch, rows, selection.as_deref(), &plan, &mut out)?;
        Ok(GarRound { aggregate: Vector::from(out), selection })
    }

    /// [`Gar::round_over`] every row of `batch`.
    ///
    /// # Errors
    ///
    /// The errors of [`Gar::round_over`].
    fn round(&self, batch: &GradientBatch, distances: Option<&DistanceMatrix>) -> Result<GarRound> {
        self.round_over(batch, &all_rows(batch), distances)
    }

    /// Aggregates one round of gradients packed into a contiguous
    /// [`GradientBatch`] arena: [`Gar::round`]'s aggregate.
    ///
    /// # Errors
    ///
    /// The errors of [`Gar::round`].
    fn aggregate_batch(&self, batch: &GradientBatch) -> Result<Vector> {
        Ok(self.round(batch, None)?.aggregate)
    }

    /// [`Gar::aggregate_batch`] when the pairwise squared-distance matrix
    /// over the batch rows is already computed. Rules without a selection
    /// phase ignore the matrix; given the matrix [`Gar::distances`] builds,
    /// both entries return the same bits.
    ///
    /// # Errors
    ///
    /// The errors of [`Gar::round`].
    fn aggregate_batch_with_distances(
        &self,
        batch: &GradientBatch,
        distances: &DistanceMatrix,
    ) -> Result<Vector> {
        Ok(self.round(batch, Some(distances))?.aggregate)
    }

    /// Aggregates one round of gradients (thin adapter over
    /// [`Gar::aggregate_batch`]: validates, packs the arena, aggregates).
    ///
    /// # Errors
    ///
    /// Implementations return [`crate::AggregationError`] when the submission
    /// violates the rule's preconditions (too few gradients, inconsistent
    /// dimensions) or when every candidate is corrupt.
    fn aggregate(&self, gradients: &[Vector]) -> Result<Vector> {
        validate_batch(self.name(), gradients)?;
        let batch = GradientBatch::from_vectors(gradients)
            .expect("validate_batch guarantees a non-empty, consistent batch");
        self.aggregate_batch(&batch)
    }
}

/// Every row id of `batch`, in order: the row list of the all-rows entries.
pub(crate) fn all_rows(batch: &GradientBatch) -> Vec<usize> {
    (0..batch.n()).collect()
}

/// Runs `kernel` over every column range of `plan`, each call writing its
/// range's slice of `out`: the column loop of every splittable
/// [`Gar::reduce`]. `rows` is how many rows each column reduces; when a
/// sharded plan's `rows·d` clears [`PARALLEL_MIN_WORK`] the ranges run in
/// one parallel region (a kernel's own blocks then run inline on the thread
/// that claimed its range). Columns are independent, so the bits are the
/// same either way.
///
/// # Errors
///
/// The error of the first range, in plan order, whose kernel fails.
pub(crate) fn reduce_columns(
    batch: &GradientBatch,
    rows: usize,
    plan: &ShardPlan,
    out: &mut [f32],
    kernel: impl Fn(BatchColumns<'_>, &mut [f32]) -> Result<()> + Sync,
) -> Result<()> {
    let mut chunks = Vec::with_capacity(plan.shard_count());
    let mut rest = out;
    for range in plan.ranges() {
        let (head, tail) = rest.split_at_mut(range.len());
        chunks.push((batch.columns(range), head));
        rest = tail;
    }
    let run = |(cols, dst): (BatchColumns<'_>, &mut [f32])| kernel(cols, dst);
    let parallel = chunks.len() > 1 && rows.saturating_mul(batch.dim()) >= PARALLEL_MIN_WORK;
    let parts: Vec<Result<()>> = if parallel {
        chunks.into_par_iter().map(run).collect()
    } else {
        chunks.into_iter().map(run).collect()
    };
    parts.into_iter().collect()
}

/// The check that follows a selection phase: at least one of the arena rows
/// `rows` (the selection, or every row of the round) is finite throughout.
///
/// # Errors
///
/// Returns [`crate::AggregationError::AllGradientsCorrupt`] when every such
/// row carries a non-finite coordinate.
pub(crate) fn ensure_some_finite_row(
    rule: &'static str,
    batch: &GradientBatch,
    rows: &[usize],
) -> Result<()> {
    if rows.iter().all(|&i| batch.row(i).iter().any(|x| !x.is_finite())) {
        return Err(crate::AggregationError::AllGradientsCorrupt(rule));
    }
    Ok(())
}

/// Validates that a batch of gradients is non-empty and dimensionally
/// consistent, returning the common dimension.
///
/// The slice adapter [`Gar::aggregate`] calls this before packing the
/// arena, so the error behaviour is uniform across rules.
///
/// # Errors
///
/// Returns [`crate::AggregationError::NoGradients`] or
/// [`crate::AggregationError::DimensionMismatch`].
pub fn validate_batch(rule: &'static str, gradients: &[Vector]) -> Result<usize> {
    use crate::AggregationError;
    if gradients.is_empty() {
        return Err(AggregationError::NoGradients(rule));
    }
    let d = gradients[0].len();
    for (i, g) in gradients.iter().enumerate() {
        if g.len() != d {
            return Err(AggregationError::DimensionMismatch {
                index: i,
                expected: d,
                actual: g.len(),
            });
        }
    }
    Ok(d)
}

/// Validates a round's row list against its arena, returning the row count.
///
/// The arena enforces dimensional consistency at construction, so a
/// non-empty list of in-range row ids is the only structural check a round
/// needs before the rule's own precondition ([`Gar::check`]).
///
/// # Errors
///
/// Returns [`crate::AggregationError::NoGradients`] for an empty list and an
/// index error for a row id past the arena.
pub(crate) fn ensure_rows(
    rule: &'static str,
    batch: &GradientBatch,
    rows: &[usize],
) -> Result<usize> {
    if rows.is_empty() {
        return Err(crate::AggregationError::NoGradients(rule));
    }
    if let Some(&index) = rows.iter().find(|&&r| r >= batch.n()) {
        return Err(TensorError::IndexOutOfBounds { index, size: batch.n() }.into());
    }
    Ok(rows.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AggregationError;

    #[test]
    fn resilience_ordering_matches_strength() {
        assert!(Resilience::None < Resilience::Weak);
        assert!(Resilience::Weak < Resilience::Strong);
        assert_eq!(Resilience::Strong.to_string(), "strong");
    }

    #[test]
    fn a_round_refuses_an_empty_row_list_and_ids_past_the_arena() {
        let batch = GradientBatch::from_vectors(&[Vector::zeros(2), Vector::zeros(2)]).unwrap();
        let rule = crate::GarConfig::new(crate::GarKind::Average, 0);
        assert_eq!(
            rule.round_over(&batch, &[], None),
            Err(AggregationError::NoGradients("average"))
        );
        let past = TensorError::IndexOutOfBounds { index: 2, size: 2 };
        assert_eq!(rule.round_over(&batch, &[1, 2], None), Err(past.into()));
        assert!(rule.round_over(&batch, &[1], None).is_ok());
    }

    #[test]
    fn validate_batch_accepts_consistent_input() {
        let gs = vec![Vector::zeros(3), Vector::zeros(3)];
        assert_eq!(validate_batch("test", &gs).unwrap(), 3);
    }

    #[test]
    fn validate_batch_rejects_empty_and_ragged() {
        assert_eq!(validate_batch("test", &[]).unwrap_err(), AggregationError::NoGradients("test"));
        let gs = vec![Vector::zeros(3), Vector::zeros(4)];
        assert!(matches!(
            validate_batch("test", &gs).unwrap_err(),
            AggregationError::DimensionMismatch { index: 1, expected: 3, actual: 4 }
        ));
    }
}
