//! Hierarchical two-level aggregation: a full GAR per worker group, then a
//! GAR over the group outputs at the root.
//!
//! Every flat rule is O(n²·d) (distance family) or bound to the
//! `n ≤ agg_tensor::sortnet::MAX_NETWORK_N` selection-network sweet spot
//! (coordinate family), which caps practical worker counts around 32. The
//! tree changes the asymptotics instead of the constants: partition the `n`
//! workers into groups of `g ≤ MAX_NETWORK_N`
//! ([`agg_tensor::GroupPlan`]), run the group GAR on each group's rows —
//! every group reuses the existing arena + selection-network kernels exactly
//! at their sweet spot, reading its members' rows where they sit in the one
//! submission arena ([`Gar::round_over`] over the member ids; no group
//! copies its rows into a batch of its own) — and run the root GAR over the
//! `⌈n/g⌉` group outputs:
//!
//! ```text
//! O(n²·d)  →  O(n·g·d + (n/g)²·d)
//! ```
//!
//! Resilience composes by capture counting
//! ([`crate::resilience::composed_max_f`]): the adversary needs
//! `f_group + 1` workers to capture a group, the root absorbs `f_root`
//! captured groups, so the tree withstands
//! `f_total = (f_group + 1)(f_root + 1) − 1` Byzantine workers. Groups whose
//! (live) size falls below the group rule's resilience floor — the ragged
//! last group of an indivisible `n`, or a group shrunk by churn evictions —
//! are *excluded* from the round rather than aggregated unsoundly, and the
//! round itself is refused ([`crate::resilience::check_tree`]) when the
//! contributing groups no longer clear the root rule's floor, exactly like
//! the flat path's refusal below `resilience_floor`.

use crate::gar::{all_rows, ensure_rows, Gar};
use crate::{resilience, AggregationError, GarConfig, GarKind, Result};
use agg_tensor::batch::PARALLEL_MIN_WORK;
use agg_tensor::sortnet::MAX_NETWORK_N;
use agg_tensor::{GradientBatch, GroupPlan, ShardPlan, Vector};
use rayon::prelude::*;
use std::collections::BTreeMap;

/// Configuration of a two-level aggregation tree: the per-group rule, the
/// root rule over group outputs, and the group size `g`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TreeConfig {
    /// The GAR every group runs over its members' gradients, with the
    /// per-group Byzantine budget `group.f`.
    pub group: GarConfig,
    /// The GAR the root runs over the group outputs, with the
    /// captured-group budget `root.f`.
    pub root: GarConfig,
    /// Workers per group (`g`). Must stay within the selection-network sweet
    /// spot `g ≤ 32` — that cap is the whole reason the tier exists.
    pub group_size: usize,
}

impl TreeConfig {
    /// A tree running `kind` at both levels with per-group budget `f_group`
    /// and root budget `f_root`, groups of `group_size`.
    pub fn uniform(kind: GarKind, f_group: usize, f_root: usize, group_size: usize) -> Self {
        TreeConfig {
            group: GarConfig::new(kind, f_group),
            root: GarConfig::new(kind, f_root),
            group_size,
        }
    }

    /// Draco's repetition code (Chen et al., 2018) as a tree: groups of
    /// `2f + 1` workers that compute the same mini-batch, a
    /// [`GarKind::Majority`] vote in every group, and the decoded group
    /// gradients averaged at the root. Trailing workers that do not fill a
    /// group sit below the vote's floor and are excluded.
    pub fn repetition(f: usize) -> Self {
        TreeConfig {
            group: GarConfig::new(GarKind::Majority, f),
            root: GarConfig::new(GarKind::Average, 0),
            group_size: 2 * f + 1,
        }
    }

    /// The composed Byzantine tolerance
    /// `(f_group + 1)(f_root + 1) − 1` of this tree
    /// ([`resilience::composed_max_f`]).
    pub fn composed_max_f(&self) -> usize {
        resilience::composed_max_f(self.group.f, self.root.f)
    }

    /// Minimum members a group needs to contribute to the round.
    pub fn group_floor(&self) -> usize {
        resilience::resilience_floor(self.group.kind, self.group.f)
    }

    /// Minimum contributing groups the root round needs.
    pub fn root_floor(&self) -> usize {
        resilience::resilience_floor(self.root.kind, self.root.f)
    }

    /// [`resilience::check_tree`] for this tree over the live size of every
    /// group.
    ///
    /// # Errors
    ///
    /// Returns [`AggregationError::NotEnoughWorkers`] naming the root rule
    /// when too few groups clear the group floor.
    pub fn check(&self, group_sizes: impl IntoIterator<Item = usize>) -> Result<()> {
        let (group, root) = (self.group, self.root);
        resilience::check_tree(group.kind, group.f, root.kind, root.f, group_sizes)
    }
}

/// One contributing group's aggregation result.
#[derive(Debug, Clone)]
pub struct GroupOutput {
    /// Group id in the [`GroupPlan`].
    pub group: usize,
    /// The arena row ids the group reduced, in the order of the round's row
    /// list (ascending when that list is).
    pub members: Vec<usize>,
    /// The group GAR's aggregate over those rows.
    pub output: Vector,
    /// The arena rows the group rule's selection phase kept — the subset of
    /// `members` that reached `output` — or `None` when the group rule has
    /// no selection phase (every member contributed).
    pub kept: Option<Vec<usize>>,
}

/// The per-group stage of a tree round: the contributing groups' outputs (in
/// ascending group order) plus the groups that were excluded for sitting
/// below the group rule's resilience floor.
#[derive(Debug, Clone)]
pub struct TreeRound {
    /// Contributing groups, ascending by group id.
    pub outputs: Vec<GroupOutput>,
    /// `(group id, live member count)` of every excluded group.
    pub skipped: Vec<(usize, usize)>,
}

impl TreeRound {
    /// The live size of every group the round saw, contributing or excluded
    /// — what [`TreeConfig::check`] judges the round by.
    pub fn group_sizes(&self) -> impl Iterator<Item = usize> + '_ {
        self.outputs
            .iter()
            .map(|group| group.members.len())
            .chain(self.skipped.iter().map(|&(_, size)| size))
    }
}

/// A gradient aggregation rule evaluated as a two-level tree over worker
/// groups — the scale tier beside [`crate::ShardedAggregator`] (which splits
/// *coordinates*; this splits *workers*).
///
/// ```
/// use agg_core::{Gar, GarKind, TreeAggregator, TreeConfig};
/// use agg_tensor::Vector;
/// # fn main() -> Result<(), agg_core::AggregationError> {
/// // 96 workers in groups of 32, Multi-Krum at both levels.
/// let tree = TreeAggregator::new(TreeConfig::uniform(GarKind::MultiKrum, 4, 0, 32))?;
/// let gradients: Vec<Vector> = (0..96).map(|i| {
///     if i >= 91 { Vector::from(vec![1e6; 8]) } else { Vector::from(vec![1.0; 8]) }
/// }).collect();
/// let update = tree.aggregate(&gradients)?;
/// assert!((update[0] - 1.0).abs() < 1e-5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TreeAggregator {
    /// The group rule (shared by every group: rules are stateless), the root
    /// rule over the group outputs, and the group size.
    config: TreeConfig,
}

impl TreeAggregator {
    /// Builds the tree tier from its configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AggregationError::InvalidArgument`] when `group_size` is
    /// zero or exceeds the selection-network cap
    /// (`agg_tensor::sortnet::MAX_NETWORK_N`), and propagates
    /// rule-construction errors from either level.
    pub fn new(config: TreeConfig) -> Result<Self> {
        if config.group_size == 0 || config.group_size > MAX_NETWORK_N {
            return Err(AggregationError::InvalidArgument {
                rule: config.group.kind.name().to_string(),
                message: format!(
                    "tree group size must be in 1..={MAX_NETWORK_N} (the selection-network \
                     sweet spot), got {}",
                    config.group_size
                ),
            });
        }
        config.group.validated()?;
        config.root.validated()?;
        Ok(TreeAggregator { config })
    }

    /// The tree configuration.
    pub fn config(&self) -> TreeConfig {
        self.config
    }

    /// The group partition for `n` workers.
    ///
    /// # Errors
    ///
    /// Returns an error for `n = 0`.
    pub fn plan(&self, workers: usize) -> Result<GroupPlan> {
        Ok(GroupPlan::new(workers, self.config.group_size)?)
    }

    /// Buckets the round's arena rows by group (`groups[k]` is the group id
    /// of row `rows[k]`) into per-group member lists, in row-list order.
    /// Group ids need not be dense: rows of evicted groups simply never
    /// appear.
    fn buckets(&self, rows: &[usize], groups: &[usize]) -> Result<Vec<(usize, Vec<usize>)>> {
        if groups.len() != rows.len() {
            return Err(AggregationError::InvalidArgument {
                rule: self.config.group.name().to_string(),
                message: format!(
                    "group assignment covers {} rows but the round has {}",
                    groups.len(),
                    rows.len()
                ),
            });
        }
        let mut buckets: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (&row, &gid) in rows.iter().zip(groups) {
            buckets.entry(gid).or_default().push(row);
        }
        Ok(buckets.into_iter().collect())
    }

    /// [`TreeAggregator::group_outputs_over`] every row of `batch`
    /// (`groups[i]` is the group id of batch row `i`).
    ///
    /// # Errors
    ///
    /// The errors of [`TreeAggregator::group_outputs_over`].
    pub fn group_outputs(&self, batch: &GradientBatch, groups: &[usize]) -> Result<TreeRound> {
        self.group_outputs_over(batch, &all_rows(batch), groups)
    }

    /// Runs the per-group stage over the arena rows `rows`, `groups[k]`
    /// being the group id of row `rows[k]`: every group whose live member
    /// count clears the group rule's resilience floor is aggregated with the
    /// group GAR (in parallel over groups, results in ascending group
    /// order); undersized groups are excluded and reported, never panicked
    /// over.
    ///
    /// Each group is one [`Gar::round_over`] of the group rule over its
    /// member ids, which reads the rows where they sit in the arena and
    /// returns the aggregate and the selection ([`GroupOutput::kept`], as
    /// arena ids) together, so the round carries its own selection feedback
    /// ([`TreeAggregator::selected_rows_of`]).
    ///
    /// # Errors
    ///
    /// Returns [`AggregationError`] when the row list is empty or names a row
    /// past the arena, the group assignment does not match it, or a group's
    /// aggregation fails for a reason other than its size (e.g. all rows
    /// non-finite).
    pub fn group_outputs_over(
        &self,
        batch: &GradientBatch,
        rows: &[usize],
        groups: &[usize],
    ) -> Result<TreeRound> {
        ensure_rows(self.config.group.name(), batch, rows)?;
        let buckets = self.buckets(rows, groups)?;
        let floor = self.config.group_floor();
        let mut skipped = Vec::new();
        let mut contributing: Vec<(usize, Vec<usize>)> = Vec::new();
        for (gid, members) in buckets {
            if members.len() >= floor {
                contributing.push((gid, members));
            } else {
                skipped.push((gid, members.len()));
            }
        }
        let aggregate_group = |(group, members): (usize, Vec<usize>)| -> Result<GroupOutput> {
            let round = self.config.group.round_over(batch, &members, None)?;
            Ok(GroupOutput { group, members, output: round.aggregate, kept: round.selection })
        };
        let total_work = rows.len().saturating_mul(batch.dim());
        let results: Vec<Result<GroupOutput>> =
            if contributing.len() > 1 && total_work >= PARALLEL_MIN_WORK {
                contributing.into_par_iter().map(aggregate_group).collect()
            } else {
                contributing.into_iter().map(aggregate_group).collect()
            };
        let outputs = results.into_iter().collect::<Result<Vec<GroupOutput>>>()?;
        Ok(TreeRound { outputs, skipped })
    }

    /// Runs the root GAR over already-computed group outputs (the engine
    /// calls this after carrying each output over its group→root link, so
    /// outputs lost on the wire degrade exactly like an excluded group).
    ///
    /// # Errors
    ///
    /// Returns [`AggregationError::NotEnoughWorkers`] (naming the root rule)
    /// when fewer outputs remain than the root floor, plus any root-rule
    /// aggregation error.
    pub fn root_aggregate(&self, outputs: &[Vector]) -> Result<Vector> {
        let required = self.config.root_floor();
        if outputs.len() < required {
            return Err(AggregationError::NotEnoughWorkers {
                rule: self.config.root.kind.name(),
                f: self.config.root.f,
                required,
                actual: outputs.len(),
            });
        }
        let batch = GradientBatch::from_vectors(outputs)?;
        self.config.root.aggregate_batch(&batch)
    }

    /// Full tree round over an explicit row→group assignment (`groups[i]` is
    /// the group id of batch row `i`), the entry point for engines whose
    /// quorum/churn compaction leaves groups ragged.
    ///
    /// # Errors
    ///
    /// The errors of the grouped round ([`TreeAggregator::group_outputs_over`],
    /// then [`TreeConfig::check`], then the root rule).
    pub fn aggregate_batch_grouped(
        &self,
        batch: &GradientBatch,
        groups: &[usize],
    ) -> Result<Vector> {
        self.aggregate_grouped_over(batch, &all_rows(batch), groups)
    }

    /// The whole two-level round over the arena rows `rows`, grouped by
    /// `groups`: the group stage, then a refusal with
    /// [`AggregationError::NotEnoughWorkers`] when the contributing groups
    /// fall below the root floor ([`TreeConfig::check`]), then the root rule.
    fn aggregate_grouped_over(
        &self,
        batch: &GradientBatch,
        rows: &[usize],
        groups: &[usize],
    ) -> Result<Vector> {
        let round = self.group_outputs_over(batch, rows, groups)?;
        self.config.check(round.group_sizes())?;
        let outputs: Vec<Vector> = round.outputs.into_iter().map(|g| g.output).collect();
        self.root_aggregate(&outputs)
    }

    /// The selection feedback of a round that already ran: the arena row
    /// ids that contributed to the root rule's selection, ascending
    /// (`None` for non-selecting root rules). A row is "selected" iff its
    /// group's output made the root selection AND the group rule's own
    /// selection phase kept the row ([`GroupOutput::kept`]; all live members
    /// count when the group rule has no selection phase, e.g. Median
    /// groups). The second condition matters for attribution: a
    /// root-selected group may itself have excluded an outlier member, and
    /// that member did not touch the applied update.
    ///
    /// Costs one root selection over `round.outputs` and a union of row
    /// lists; the group stage is not re-run.
    ///
    /// The root selection here runs over *every* group output of the round,
    /// although the engine's root rule only saw the outputs that survived
    /// their group→root legs: a group whose output was dropped on the wire
    /// can still be credited. That is the behaviour the committed digests
    /// pin; aligning the feedback with the delivered set moves the ledger's
    /// evidence and is scheduled with ROADMAP item 10, the one change that
    /// re-pins the digests.
    ///
    /// # Errors
    ///
    /// Refuses like [`TreeAggregator::aggregate_batch_grouped`] when the
    /// round's groups fall below the composed floor, plus any root-selection
    /// error.
    pub fn selected_rows_of(&self, round: &TreeRound) -> Result<Option<Vec<usize>>> {
        let root = self.config.root;
        if !root.selects() {
            return Ok(None);
        }
        self.config.check(round.group_sizes())?;
        let dim = round.outputs.first().map_or(0, |group| group.output.len());
        let mut output_batch = GradientBatch::with_capacity(dim, round.outputs.len());
        for group in &round.outputs {
            output_batch.push_row(group.output.as_slice())?;
        }
        let picked = root.selected_rows(&output_batch, None)?.expect("the root rule selects");
        let mut rows: Vec<usize> = Vec::new();
        for i in picked {
            let group = &round.outputs[i];
            rows.extend(group.kept.as_ref().unwrap_or(&group.members));
        }
        rows.sort_unstable();
        Ok(Some(rows))
    }
}

impl Gar for TreeAggregator {
    /// The root rule's name: the defence the final update passed through
    /// (the tree's resilience is the composed bound).
    fn name(&self) -> &'static str {
        self.config.root.name()
    }

    /// The whole two-level round over the default contiguous grouping of
    /// the row list (the `k`-th row sits in group `k / g`): the tree neither
    /// selects nor splits columns.
    fn reduce(
        &self,
        batch: &GradientBatch,
        rows: &[usize],
        _selection: Option<&[usize]>,
        _plan: &ShardPlan,
        out: &mut [f32],
    ) -> Result<()> {
        let plan = self.plan(rows.len())?;
        let groups: Vec<usize> = (0..rows.len()).map(|k| plan.group_of(k)).collect();
        out.copy_from_slice(self.aggregate_grouped_over(batch, rows, &groups)?.as_slice());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gar;
    use agg_tensor::rng::{gaussian_vector, seeded_rng};

    fn random_batch(n: usize, d: usize, seed: u64) -> GradientBatch {
        let mut rng = seeded_rng(seed);
        let vs: Vec<Vector> = (0..n).map(|_| gaussian_vector(&mut rng, d, 0.0, 1.0)).collect();
        GradientBatch::from_vectors(&vs).unwrap()
    }

    #[test]
    fn group_size_must_stay_in_the_network_sweet_spot() {
        assert!(TreeAggregator::new(TreeConfig::uniform(GarKind::MultiKrum, 1, 0, 0)).is_err());
        assert!(TreeAggregator::new(TreeConfig::uniform(
            GarKind::MultiKrum,
            1,
            0,
            MAX_NETWORK_N + 1
        ))
        .is_err());
        assert!(TreeAggregator::new(TreeConfig::uniform(GarKind::MultiKrum, 1, 0, MAX_NETWORK_N))
            .is_ok());
    }

    #[test]
    fn repetition_assignment_partitions_workers() {
        let config = TreeConfig::repetition(1);
        assert_eq!(config.group_size, 3);
        let plan = TreeAggregator::new(config).unwrap().plan(9).unwrap();
        assert_eq!(plan.group_count(), 3);
        let mut all: Vec<usize> = plan.ranges().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..9).collect::<Vec<_>>());
        assert!((0..9).all(|w| plan.range(plan.group_of(w)).contains(&w)));
    }

    #[test]
    fn leftover_workers_sit_below_the_vote_floor() {
        // 10 workers in groups of 3: the tenth is a group of its own, below
        // the vote's 2f + 1 floor, so it is excluded while the three full
        // groups decode.
        let config = TreeConfig::repetition(1);
        let plan = TreeAggregator::new(config).unwrap().plan(10).unwrap();
        assert_eq!(plan.sizes().collect::<Vec<_>>(), vec![3, 3, 3, 1]);
        let rows: Vec<Vector> = (0..10).map(|w| Vector::from(vec![(w / 3) as f32; 2])).collect();
        let batch = GradientBatch::from_vectors(&rows).unwrap();
        let groups: Vec<usize> = (0..10).map(|w| plan.group_of(w)).collect();
        let round = TreeAggregator::new(config).unwrap().group_outputs(&batch, &groups).unwrap();
        assert_eq!(round.outputs.len(), 3);
        assert_eq!(round.skipped, vec![(3, 1)]);
    }

    #[test]
    fn too_few_workers_is_rejected() {
        let config = TreeConfig::repetition(1);
        assert!(config.check([2]).is_err());
        assert!(config.check([3]).is_ok());
        assert!(TreeAggregator::new(TreeConfig::repetition(16)).is_err(), "groups of 33 > 32");
    }

    #[test]
    fn config_accessors_expose_the_composed_bound() {
        let config = TreeConfig::uniform(GarKind::MultiKrum, 14, 14, 32);
        assert_eq!(config.composed_max_f(), 224);
        assert_eq!(config.group_floor(), 31);
        assert_eq!(config.root_floor(), 31);
        let tree = TreeAggregator::new(config).unwrap();
        assert_eq!(tree.config(), config);
        assert_eq!(tree.name(), "multi-krum");
    }

    #[test]
    fn excludes_outliers_within_each_group() {
        // 96 workers in 3 groups of 32; the last 5 submit garbage. Multi-Krum
        // per group absorbs them (f_group = 5 within the last group), the
        // root averages the three group outputs.
        let mut batch = random_batch(91, 16, 3);
        for _ in 0..5 {
            batch.push_row(&[1e6; 16]).unwrap();
        }
        let tree = TreeAggregator::new(TreeConfig {
            group: GarConfig::new(GarKind::MultiKrum, 5),
            root: GarConfig::new(GarKind::Average, 0),
            group_size: 32,
        })
        .unwrap();
        let out = tree.aggregate_batch(&batch).unwrap();
        for c in 0..16 {
            assert!(out[c].abs() < 1.0, "coordinate {c} contaminated: {}", out[c]);
        }
    }

    #[test]
    fn ragged_last_group_below_floor_is_skipped_not_panicked() {
        // n = 70, g = 32 → sizes [32, 32, 6]; multi-krum f=4 floors at 11,
        // so the 6-worker tail drops out. Root average over 2 outputs works.
        let batch = random_batch(70, 8, 5);
        let tree = TreeAggregator::new(TreeConfig {
            group: GarConfig::new(GarKind::MultiKrum, 4),
            root: GarConfig::new(GarKind::Average, 0),
            group_size: 32,
        })
        .unwrap();
        let plan = tree.plan(70).unwrap();
        let groups: Vec<usize> = (0..70).map(|w| plan.group_of(w)).collect();
        let round = tree.group_outputs(&batch, &groups).unwrap();
        assert_eq!(round.outputs.len(), 2);
        assert_eq!(round.skipped, vec![(2, 6)]);
        assert!(tree.aggregate_batch(&batch).is_ok());
    }

    #[test]
    fn rounds_below_the_composed_floor_are_refused() {
        // Multi-Krum root with f_root = 2 needs 7 contributing groups; 96
        // workers in groups of 32 give only 3.
        let batch = random_batch(96, 8, 7);
        let tree = TreeAggregator::new(TreeConfig::uniform(GarKind::MultiKrum, 4, 2, 32)).unwrap();
        match tree.aggregate_batch(&batch).unwrap_err() {
            AggregationError::NotEnoughWorkers { rule, f, required, actual } => {
                assert_eq!(rule, "multi-krum");
                assert_eq!(f, 2);
                assert_eq!(required, 7);
                assert_eq!(actual, 3);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn churn_shrunk_groups_degrade_through_the_same_refusal() {
        // 3 groups of 4 under median f=1 (floor 3). Evicting rows from one
        // group first skips it (root median f=1 needs 3 groups → refusal),
        // proving the eviction path and the refusal path compose.
        let batch = random_batch(12, 6, 9);
        let tree = TreeAggregator::new(TreeConfig::uniform(GarKind::Median, 1, 1, 4)).unwrap();
        let full: Vec<usize> = (0..12).map(|w| w / 4).collect();
        assert!(tree.aggregate_batch_grouped(&batch, &full).is_ok());

        // Group 1 loses 2 of its 4 rows → 2 < 3 → skipped → 2 groups < 3.
        let mut shrunk_batch = GradientBatch::with_capacity(6, 10);
        let mut shrunk_groups = Vec::new();
        for w in 0..12 {
            if w == 4 || w == 5 {
                continue;
            }
            shrunk_batch.push_row(batch.row(w)).unwrap();
            shrunk_groups.push(w / 4);
        }
        let round = tree.group_outputs(&shrunk_batch, &shrunk_groups).unwrap();
        assert_eq!(round.skipped, vec![(1, 2)]);
        assert!(tree.aggregate_batch_grouped(&shrunk_batch, &shrunk_groups).is_err());
    }

    #[test]
    fn f_zero_groups_aggregate_fine() {
        // f = 0 at both levels: floors are 3 (multi-krum) and 1 (average).
        let batch = random_batch(9, 4, 11);
        let tree = TreeAggregator::new(TreeConfig {
            group: GarConfig::new(GarKind::MultiKrum, 0),
            root: GarConfig::new(GarKind::Average, 0),
            group_size: 3,
        })
        .unwrap();
        assert!(tree.aggregate_batch(&batch).is_ok());
    }

    #[test]
    fn parallel_and_sequential_groups_agree_bitwise() {
        // The group stage's own outputs are compared too: the Median root is
        // permutation-invariant, so the aggregate alone cannot see the
        // group order.
        let batch = random_batch(96, 4_000, 13);
        let groups: Vec<usize> = (0..96).map(|w| w / 32).collect();
        let bits = |v: &Vector| v.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for kind in [GarKind::MultiKrum, GarKind::Median, GarKind::TrimmedMean] {
            let tree = TreeAggregator::new(TreeConfig {
                group: GarConfig::new(kind, 2),
                root: GarConfig::new(GarKind::Median, 1),
                group_size: 32,
            })
            .unwrap();
            let runs = crate::at_budgets(|| {
                let round = tree.group_outputs(&batch, &groups).unwrap();
                let outputs: Vec<(usize, Vec<u32>)> =
                    round.outputs.iter().map(|g| (g.group, bits(&g.output))).collect();
                (outputs, bits(&tree.aggregate_batch(&batch).unwrap()))
            });
            assert!(
                runs.iter().all(|bits| *bits == runs[0]),
                "{kind}: group-parallel aggregation must be bit-identical at budgets 1, 2, 4"
            );
        }
    }

    #[test]
    fn single_group_tree_is_bit_identical_to_the_flat_rule() {
        // n ≤ g: one group, and a root with floor 1 reduces a single output
        // — the degenerate tree must equal the flat rule bit for bit.
        let batch = random_batch(19, 64, 17);
        for kind in [GarKind::MultiKrum, GarKind::Median, GarKind::Bulyan, GarKind::Average] {
            let tree = TreeAggregator::new(TreeConfig {
                group: GarConfig::new(kind, 4),
                root: GarConfig::new(GarKind::Average, 0),
                group_size: 32,
            })
            .unwrap();
            let flat = GarConfig::new(kind, 4).build().unwrap().aggregate_batch(&batch).unwrap();
            let treed = tree.aggregate_batch(&batch).unwrap();
            assert_eq!(treed.as_slice(), flat.as_slice(), "{kind}");
        }
    }

    #[test]
    fn root_selection_maps_back_to_member_rows() {
        // 4 groups of 4 (median groups), multi-krum root f=0 over 4 outputs.
        // One whole group submits identical garbage → its output is the
        // outlier → its members must be missing from the selection.
        let mut rows: Vec<Vector> = Vec::new();
        let mut rng = seeded_rng(23);
        for w in 0..16 {
            if (4..8).contains(&w) {
                rows.push(Vector::from(vec![1e6; 8]));
            } else {
                rows.push(gaussian_vector(&mut rng, 8, 0.0, 0.1));
            }
        }
        let batch = GradientBatch::from_vectors(&rows).unwrap();
        let tree = TreeAggregator::new(TreeConfig {
            group: GarConfig::new(GarKind::Median, 1),
            root: GarConfig::new(GarKind::MultiKrum, 0),
            group_size: 4,
        })
        .unwrap();
        let groups: Vec<usize> = (0..16).map(|w| w / 4).collect();
        let round = tree.group_outputs(&batch, &groups).unwrap();
        let selected = tree.selected_rows_of(&round).unwrap().unwrap();
        assert!(!selected.is_empty());
        for w in 4..8 {
            assert!(!selected.contains(&w), "captured group member {w} selected at the root");
        }
        // Coordinate root rules expose no selection.
        let flat_root = TreeAggregator::new(TreeConfig {
            group: GarConfig::new(GarKind::Median, 1),
            root: GarConfig::new(GarKind::Median, 1),
            group_size: 4,
        })
        .unwrap();
        let round = flat_root.group_outputs(&batch, &groups).unwrap();
        assert_eq!(flat_root.selected_rows_of(&round).unwrap(), None);
    }

    /// The rows of `batch` named by `members`, gathered into their own arena.
    fn gather(batch: &GradientBatch, members: &[usize]) -> GradientBatch {
        let mut scratch = GradientBatch::with_capacity(batch.dim(), members.len());
        for &row in members {
            scratch.push_row(batch.row(row)).unwrap();
        }
        scratch
    }

    /// A level's selection phase through the rule's own selection entry
    /// (its own distance pass).
    fn selection_oracle(level: &GarConfig, batch: &GradientBatch) -> Result<Option<Vec<usize>>> {
        level.build()?.selected_rows(batch, None)
    }

    /// The pre-change `selected_rows`, ported as the oracle: every group
    /// re-aggregated with `aggregate_batch` (linear-find bucketing and all),
    /// the root selected over the outputs, then one more distance pass
    /// inside each root-picked group.
    fn selected_rows_oracle(
        config: TreeConfig,
        batch: &GradientBatch,
        groups: &[usize],
    ) -> Result<Option<Vec<usize>>> {
        if !matches!(config.root.kind, GarKind::Krum | GarKind::MultiKrum | GarKind::Bulyan) {
            return Ok(None);
        }
        let mut buckets: Vec<(usize, Vec<usize>)> = Vec::new();
        for (row, &gid) in groups.iter().enumerate() {
            match buckets.iter_mut().find(|(g, _)| *g == gid) {
                Some((_, members)) => members.push(row),
                None => buckets.push((gid, vec![row])),
            }
        }
        buckets.sort_by_key(|&(gid, _)| gid);
        let group_rule = config.group.build()?;
        let mut contributing: Vec<Vec<usize>> = Vec::new();
        let mut outputs: Vec<Vector> = Vec::new();
        for (_, members) in &buckets {
            if members.len() >= config.group_floor() {
                outputs.push(group_rule.aggregate_batch(&gather(batch, members))?);
                contributing.push(members.clone());
            }
        }
        config.check(buckets.iter().map(|(_, members)| members.len()))?;
        let picked =
            selection_oracle(&config.root, &GradientBatch::from_vectors(&outputs)?)?.unwrap();
        let mut rows: Vec<usize> = Vec::new();
        for i in picked {
            let members = &contributing[i];
            match selection_oracle(&config.group, &gather(batch, members))? {
                Some(inner) => rows.extend(inner.into_iter().map(|r| members[r])),
                None => rows.extend(members.iter().copied()),
            }
        }
        rows.sort_unstable();
        Ok(Some(rows))
    }

    /// 67 rows of d = 3200 (past the rayon work threshold at 64 rows): honest
    /// noise, every eighth row an in-group outlier, rows 16..24 shifted (a
    /// root-level outlier group under the contiguous layouts, more in-group
    /// outliers under the shuffled one); optionally a NaN coordinate in row
    /// 10 and an all-`+∞` row 33.
    fn feedback_batch(non_finite: bool) -> GradientBatch {
        let mut batch = random_batch(67, 3_200, 41);
        for row in 0..67 {
            if row % 8 == 0 {
                batch.row_mut(row).iter_mut().for_each(|x| *x -= 30.0);
            }
            if (16..24).contains(&row) {
                batch.row_mut(row).iter_mut().for_each(|x| *x += 50.0);
            }
        }
        if non_finite {
            batch.row_mut(10)[3] = f32::NAN;
            batch.row_mut(33).fill(f32::INFINITY);
        }
        batch
    }

    /// Row→group layouts over 67 rows in groups of 8: contiguous with a
    /// ragged 3-row tail, the same with sparse group ids, and a seeded
    /// shuffle that scatters every group's rows across the batch.
    fn feedback_layouts() -> Vec<(&'static str, Vec<usize>)> {
        let contiguous: Vec<usize> = (0..67).map(|row| row / 8).collect();
        let sparse: Vec<usize> = contiguous.iter().map(|gid| 5 + 3 * gid).collect();
        // 29 is coprime to 67, so `row ↦ 29·row mod 67` is a permutation.
        let shuffled: Vec<usize> = (0..67).map(|row| 40 - 5 * ((row * 29 % 67) / 8)).collect();
        vec![("ragged", contiguous), ("non-dense", sparse), ("shuffled", shuffled)]
    }

    /// One cell of the feedback matrix: the round's own feedback against the
    /// oracle, with the group stage at thread budgets 1, 2 and 4; every group
    /// output against the group rule on the gathered rows, bit for bit.
    fn check_feedback(config: TreeConfig, batch: &GradientBatch, groups: &[usize], label: &str) {
        let bits = |v: &Vector| -> Vec<u32> { v.as_slice().iter().map(|x| x.to_bits()).collect() };
        let expected = selected_rows_oracle(config, batch, groups);
        let rows = expected.as_ref().unwrap().as_ref().unwrap();
        assert!(!rows.is_empty() && rows.len() < 60, "{label}: degenerate selection {rows:?}");
        let group_rule = config.group.build().unwrap();
        let tree = TreeAggregator::new(config).unwrap();
        crate::at_budgets(|| {
            let round = tree.group_outputs(batch, groups).unwrap();
            assert_eq!(tree.selected_rows_of(&round), expected, "{label}");
            assert!(round.outputs.windows(2).all(|w| w[0].group < w[1].group), "{label}");
            for group in &round.outputs {
                assert!(group.members.windows(2).all(|w| w[0] < w[1]), "{label}");
                let flat = group_rule.aggregate_batch(&gather(batch, &group.members)).unwrap();
                assert_eq!(bits(&group.output), bits(&flat), "{label}: group {}", group.group);
                assert_eq!(group.kept.is_some(), config.group.kind.uses_distances(), "{label}");
                let kept = group.kept.as_deref().unwrap_or_default();
                assert!(kept.iter().all(|row| group.members.contains(row)), "{label}");
            }
        });
    }

    #[test]
    fn feedback_of_a_held_round_matches_the_pre_change_selected_rows() {
        let group_kinds = [GarKind::Krum, GarKind::MultiKrum, GarKind::Bulyan, GarKind::Median];
        let root_kinds = [GarKind::Krum, GarKind::MultiKrum, GarKind::Bulyan];
        for non_finite in [false, true] {
            let batch = feedback_batch(non_finite);
            for (layout, groups) in feedback_layouts() {
                for group_kind in group_kinds {
                    for root_kind in root_kinds {
                        let config = TreeConfig {
                            group: GarConfig::new(group_kind, 1),
                            root: GarConfig::new(root_kind, 1),
                            group_size: 8,
                        };
                        let label = format!(
                            "{group_kind} groups, {root_kind} root, {layout}, \
                             non-finite rows: {non_finite}"
                        );
                        check_feedback(config, &batch, &groups, &label);
                    }
                }
            }
        }
    }

    #[test]
    fn feedback_refuses_below_the_composed_floor_like_the_pre_change_path() {
        // 24 rows in 3 groups: a Multi-Krum root with f = 1 needs 5.
        let batch = random_batch(24, 16, 43);
        let groups: Vec<usize> = (0..24).map(|row| row / 8).collect();
        let config = TreeConfig::uniform(GarKind::MultiKrum, 1, 1, 8);
        let tree = TreeAggregator::new(config).unwrap();
        let round = tree.group_outputs(&batch, &groups).unwrap();
        let expected = selected_rows_oracle(config, &batch, &groups);
        assert!(matches!(expected, Err(AggregationError::NotEnoughWorkers { .. })));
        assert_eq!(tree.selected_rows_of(&round), expected);
        // A round with nothing in it is refused the same way, not indexed.
        let empty = TreeRound { outputs: Vec::new(), skipped: Vec::new() };
        assert!(tree.selected_rows_of(&empty).is_err());
    }

    #[test]
    fn feedback_credits_a_group_whose_output_was_lost_on_the_wire() {
        // The stated wart: `selected_rows_of` selects over every group
        // output of the round, not over the ones that reached the root. Drop
        // a root-picked group's output from the delivered set — the root
        // rule still applies over the other seven, and the round's feedback
        // (which never sees the delivered set) still lists the dropped
        // group's kept rows.
        let batch = feedback_batch(false);
        let groups: Vec<usize> = (0..67).map(|row| row / 8).collect();
        let tree = TreeAggregator::new(TreeConfig::uniform(GarKind::MultiKrum, 1, 1, 8)).unwrap();
        let round = tree.group_outputs(&batch, &groups).unwrap();
        let feedback = tree.selected_rows_of(&round).unwrap().unwrap();
        let lost = round.outputs.iter().find(|g| feedback.contains(&g.members[1])).unwrap();
        let delivered: Vec<Vector> = round
            .outputs
            .iter()
            .filter(|g| g.group != lost.group)
            .map(|g| g.output.clone())
            .collect();
        assert_eq!(delivered.len(), round.outputs.len() - 1);
        tree.root_aggregate(&delivered).expect("seven outputs clear the root floor of five");
        assert!(lost.kept.as_ref().unwrap().iter().all(|row| feedback.contains(row)));
    }

    #[test]
    fn mismatched_group_assignment_is_rejected() {
        let batch = random_batch(8, 4, 29);
        let tree = TreeAggregator::new(TreeConfig::uniform(GarKind::Median, 1, 0, 4)).unwrap();
        assert!(tree.aggregate_batch_grouped(&batch, &[0, 0, 1]).is_err());
        let empty = GradientBatch::new(4);
        assert!(tree.aggregate_batch(&empty).is_err());
    }

    #[test]
    fn tree_config_round_trips_through_json() {
        let config = TreeConfig::uniform(GarKind::Bulyan, 3, 1, 16);
        let json = serde_json::to_string(&config).unwrap();
        let back: TreeConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
    }
}
