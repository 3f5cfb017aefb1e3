//! Contiguous coordinate sharding of a `d`-dimensional model.
//!
//! The paper's deployment splits the model across multiple parameter servers;
//! [`ShardPlan`] is the one canonical description of that split every layer
//! of the stack shares: the aggregation kernels slice a
//! [`crate::GradientBatch`] into per-shard column ranges, the network layer
//! routes packet payloads to shard assemblers by coordinate offset, and the
//! parameter-server runtime places one server job per shard. Keeping the
//! partition arithmetic in a single type guarantees that a coordinate the
//! wire layer routed to shard `s` is the same coordinate the kernels
//! aggregate in shard `s`.
//!
//! The partition is contiguous and near-equal: with `d = q·S + r`, the first
//! `r` shards hold `q + 1` coordinates and the rest hold `q`. Contiguity is
//! what makes the decomposition exact for the distance-based rules — a
//! squared L2 distance is the sum of per-shard partial sums over disjoint
//! coordinate ranges.

use crate::{Result, TensorError};
use std::ops::Range;

/// A contiguous, near-equal partition of the coordinate range `0..d` into
/// `S` shards.
///
/// ```
/// use agg_tensor::shard::ShardPlan;
/// let plan = ShardPlan::new(10, 3).unwrap();
/// assert_eq!(plan.range(0), 0..4);
/// assert_eq!(plan.range(1), 4..7);
/// assert_eq!(plan.range(2), 7..10);
/// assert_eq!(plan.shard_of(6), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Shard boundaries: `starts[s]..starts[s + 1]` is shard `s`'s coordinate
    /// range; `starts.len() == shard_count + 1`, `starts[0] == 0`, and the
    /// last entry is `d`.
    starts: Vec<usize>,
}

impl ShardPlan {
    /// Partitions `0..d` into `shards` contiguous near-equal ranges.
    ///
    /// Shards may be empty when `shards > d`; every coordinate still belongs
    /// to exactly one shard.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyInput`] when `shards` is zero.
    pub fn new(d: usize, shards: usize) -> Result<Self> {
        if shards == 0 {
            return Err(TensorError::EmptyInput("ShardPlan::new"));
        }
        let base = d / shards;
        let extra = d % shards;
        let mut starts = Vec::with_capacity(shards + 1);
        let mut at = 0usize;
        starts.push(at);
        for s in 0..shards {
            at += base + usize::from(s < extra);
            starts.push(at);
        }
        Ok(ShardPlan { starts })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.starts.len() - 1
    }

    /// Total coordinate count `d` the plan covers.
    pub fn dimension(&self) -> usize {
        *self.starts.last().expect("starts is never empty")
    }

    /// The coordinate range of shard `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= self.shard_count()`.
    pub fn range(&self, s: usize) -> Range<usize> {
        assert!(s < self.shard_count(), "shard {s} out of range");
        self.starts[s]..self.starts[s + 1]
    }

    /// Iterator over every shard's coordinate range, in shard order.
    pub fn ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        (0..self.shard_count()).map(move |s| self.range(s))
    }

    /// The shard holding coordinate `coordinate`.
    ///
    /// # Panics
    ///
    /// Panics if `coordinate >= self.dimension()`.
    pub fn shard_of(&self, coordinate: usize) -> usize {
        assert!(
            coordinate < self.dimension(),
            "coordinate {coordinate} out of range for dimension {}",
            self.dimension()
        );
        // partition_point returns the count of starts <= coordinate; the
        // owning shard is one before that boundary.
        self.starts.partition_point(|&s| s <= coordinate) - 1
    }
}

/// A contiguous partition of the worker range `0..n` into groups of at most
/// `g` workers — the worker-side counterpart of [`ShardPlan`], shared by the
/// hierarchical aggregation tier: the tree aggregator runs one GAR per group
/// over rows `range(group)` of the submission arena, the engine gives each
/// group its own root-ward link and derives per-group membership epochs from
/// it. Keeping the partition arithmetic in one type
/// guarantees the worker the engine assigned to group `k` is the worker whose
/// rows group `k`'s aggregator reduces.
///
/// Unlike [`ShardPlan`] (near-equal split into a fixed shard count), a group
/// plan fixes the group *size*: every group holds exactly `g` workers except
/// the last, which holds the ragged remainder `n mod g` (when nonzero). The
/// group size is the unit the per-group kernels are tuned for
/// (`sortnet::MAX_NETWORK_N`), so it — not the group count — is the invariant
/// worth pinning.
///
/// ```
/// use agg_tensor::shard::GroupPlan;
/// let plan = GroupPlan::new(70, 32).unwrap();
/// assert_eq!(plan.group_count(), 3);
/// assert_eq!(plan.range(0), 0..32);
/// assert_eq!(plan.range(2), 64..70); // ragged last group
/// assert_eq!(plan.group_of(64), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupPlan {
    workers: usize,
    group_size: usize,
    /// Optional permuted placement: `assignment[w]` is the group of worker
    /// `w`. `None` is the identity (contiguous) placement. A permutation
    /// never changes the per-group *capacities* — every group holds exactly
    /// as many workers as its contiguous range — so downstream consumers of
    /// [`GroupPlan::sizes`] (the composed resilience bound, the per-group
    /// kernels, the root-ward links) see the same shape either way; only
    /// *which* worker sits in which group moves.
    assignment: Option<Vec<usize>>,
}

impl GroupPlan {
    /// Partitions `0..workers` into `ceil(workers / group_size)` contiguous
    /// groups of `group_size` workers, the last group taking the remainder.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyInput`] when `workers` or `group_size` is
    /// zero.
    pub fn new(workers: usize, group_size: usize) -> Result<Self> {
        if workers == 0 || group_size == 0 {
            return Err(TensorError::EmptyInput("GroupPlan::new"));
        }
        Ok(GroupPlan { workers, group_size, assignment: None })
    }

    /// Number of groups, `ceil(workers / group_size)`.
    pub fn group_count(&self) -> usize {
        self.workers.div_ceil(self.group_size)
    }

    /// Total worker count `n` the plan covers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The configured (maximum) group size `g`.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Replaces the placement with an explicit worker → group assignment.
    ///
    /// The assignment must be a *capacity-preserving* permutation of the
    /// contiguous placement: `assignment[w]` names worker `w`'s group, every
    /// group id must be in range, and each group must receive exactly as
    /// many workers as its contiguous range holds (`self.sizes()`). This is
    /// the invariant that lets the reshuffled plan drop into every existing
    /// consumer — group output buffers, per-group floors and links are
    /// sized off `sizes()`, which a valid assignment cannot change.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyInput`] when the assignment's length does
    /// not match the worker count, names an out-of-range group, or changes
    /// any group's size.
    pub fn set_assignment(&mut self, assignment: Vec<usize>) -> Result<()> {
        if assignment.len() != self.workers {
            return Err(TensorError::EmptyInput("GroupPlan::set_assignment length"));
        }
        let groups = self.group_count();
        let mut counts = vec![0usize; groups];
        for &g in &assignment {
            if g >= groups {
                return Err(TensorError::EmptyInput("GroupPlan::set_assignment group id"));
            }
            counts[g] += 1;
        }
        if counts.iter().copied().ne(self.sizes()) {
            return Err(TensorError::EmptyInput("GroupPlan::set_assignment group sizes"));
        }
        self.assignment = Some(assignment);
        Ok(())
    }

    /// The explicit worker → group assignment, when one is installed.
    pub fn assignment(&self) -> Option<&[usize]> {
        self.assignment.as_deref()
    }

    /// The worker ids of group `k`, in ascending id order — the
    /// assignment-aware counterpart of [`GroupPlan::range`].
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.group_count()`.
    pub fn members(&self, k: usize) -> Vec<usize> {
        match &self.assignment {
            None => self.range(k).collect(),
            Some(assignment) => {
                assert!(k < self.group_count(), "group {k} out of range");
                (0..self.workers).filter(|&w| assignment[w] == k).collect()
            }
        }
    }

    /// The worker-id range of group `k` under the *contiguous* placement.
    /// This is build-time layout arithmetic (buffer sizing, link topology);
    /// runtime consumers that must honor a reshuffled placement go through
    /// [`GroupPlan::group_of`] / [`GroupPlan::members`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.group_count()`.
    pub fn range(&self, k: usize) -> Range<usize> {
        assert!(k < self.group_count(), "group {k} out of range");
        let start = k * self.group_size;
        start..(start + self.group_size).min(self.workers)
    }

    /// Iterator over every group's worker range, in group order.
    pub fn ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        (0..self.group_count()).map(move |k| self.range(k))
    }

    /// Iterator over every group's size, in group order. Invariant under
    /// reshuffles: an installed assignment is capacity-preserving by
    /// construction, so the sizes are always those of the contiguous layout.
    pub fn sizes(&self) -> impl Iterator<Item = usize> + '_ {
        self.ranges().map(|r| r.len())
    }

    /// The group holding worker `worker`, honoring an installed assignment.
    ///
    /// # Panics
    ///
    /// Panics if `worker >= self.workers()`.
    pub fn group_of(&self, worker: usize) -> usize {
        assert!(worker < self.workers, "worker {worker} out of range for {} workers", self.workers);
        match &self.assignment {
            Some(assignment) => assignment[worker],
            None => worker / self.group_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn near_equal_contiguous_partition() {
        let plan = ShardPlan::new(10, 4).unwrap();
        assert_eq!(plan.shard_count(), 4);
        assert_eq!(plan.dimension(), 10);
        let ranges: Vec<_> = plan.ranges().collect();
        assert_eq!(ranges, vec![0..3, 3..6, 6..8, 8..10]);
        // Widths differ by at most one and cover everything exactly once.
        let total: usize = ranges.iter().map(std::ops::Range::len).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn single_shard_covers_everything() {
        let plan = ShardPlan::new(7, 1).unwrap();
        assert_eq!(plan.range(0), 0..7);
        assert_eq!(plan.shard_of(6), 0);
    }

    #[test]
    fn more_shards_than_coordinates_leaves_empty_shards() {
        let plan = ShardPlan::new(2, 5).unwrap();
        assert_eq!(plan.shard_count(), 5);
        assert_eq!(plan.range(0), 0..1);
        assert_eq!(plan.range(1), 1..2);
        assert!(plan.range(4).is_empty());
        assert_eq!(plan.shard_of(1), 1);
    }

    #[test]
    fn shard_of_agrees_with_ranges_everywhere() {
        for (d, s) in [(1usize, 1usize), (10, 3), (100, 7), (31, 31), (64, 2)] {
            let plan = ShardPlan::new(d, s).unwrap();
            for c in 0..d {
                let owner = plan.shard_of(c);
                assert!(plan.range(owner).contains(&c), "d={d} s={s} c={c}");
            }
        }
    }

    #[test]
    fn zero_dimension_and_zero_shards() {
        let plan = ShardPlan::new(0, 3).unwrap();
        assert_eq!(plan.dimension(), 0);
        assert!(plan.ranges().all(|r| r.is_empty()));
        assert!(ShardPlan::new(5, 0).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shard_of_rejects_out_of_range_coordinates() {
        ShardPlan::new(4, 2).unwrap().shard_of(4);
    }

    #[test]
    fn group_plan_partitions_with_a_ragged_tail() {
        let plan = GroupPlan::new(70, 32).unwrap();
        assert_eq!(plan.group_count(), 3);
        assert_eq!(plan.workers(), 70);
        assert_eq!(plan.group_size(), 32);
        let ranges: Vec<_> = plan.ranges().collect();
        assert_eq!(ranges, vec![0..32, 32..64, 64..70]);
        assert_eq!(plan.sizes().collect::<Vec<_>>(), vec![32, 32, 6]);
        let total: usize = plan.sizes().sum();
        assert_eq!(total, 70);
    }

    #[test]
    fn group_plan_exact_division_has_no_ragged_group() {
        let plan = GroupPlan::new(64, 32).unwrap();
        assert_eq!(plan.group_count(), 2);
        assert!(plan.sizes().all(|s| s == 32));
    }

    #[test]
    fn group_of_agrees_with_ranges_everywhere() {
        for (n, g) in [(1usize, 1usize), (19, 4), (70, 32), (1024, 32), (33, 32), (5, 7)] {
            let plan = GroupPlan::new(n, g).unwrap();
            for w in 0..n {
                let owner = plan.group_of(w);
                assert!(plan.range(owner).contains(&w), "n={n} g={g} w={w}");
            }
        }
    }

    #[test]
    fn fewer_workers_than_group_size_is_one_group() {
        let plan = GroupPlan::new(5, 32).unwrap();
        assert_eq!(plan.group_count(), 1);
        assert_eq!(plan.range(0), 0..5);
    }

    #[test]
    fn degenerate_group_plans_are_rejected() {
        assert!(GroupPlan::new(0, 4).is_err());
        assert!(GroupPlan::new(4, 0).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn group_of_rejects_out_of_range_workers() {
        GroupPlan::new(4, 2).unwrap().group_of(4);
    }

    #[test]
    fn assignment_permutes_placement_without_changing_capacities() {
        // 7 workers in groups of 3: contiguous sizes [3, 3, 1]. A strided
        // deal (0,1,2,0,1,2,0 would overfill group 0) honoring capacities:
        let assignment = vec![0, 1, 2, 0, 1, 0, 1];
        let mut plan = GroupPlan::new(7, 3).unwrap();
        plan.set_assignment(assignment.clone()).unwrap();
        assert_eq!(plan.assignment(), Some(assignment.as_slice()));
        assert_eq!(plan.sizes().collect::<Vec<_>>(), vec![3, 3, 1]);
        for (w, &g) in assignment.iter().enumerate() {
            assert_eq!(plan.group_of(w), g);
        }
        assert_eq!(plan.members(0), vec![0, 3, 5]);
        assert_eq!(plan.members(1), vec![1, 4, 6]);
        assert_eq!(plan.members(2), vec![2]);
        // `range` stays the contiguous layout (buffer sizing).
        assert_eq!(plan.range(0), 0..3);
    }

    #[test]
    fn identity_assignment_matches_the_contiguous_placement() {
        let mut plan = GroupPlan::new(70, 32).unwrap();
        let identity: Vec<usize> = (0..70).map(|w| w / 32).collect();
        plan.set_assignment(identity).unwrap();
        let contiguous = GroupPlan::new(70, 32).unwrap();
        for w in 0..70 {
            assert_eq!(plan.group_of(w), contiguous.group_of(w));
        }
        for k in 0..plan.group_count() {
            assert_eq!(plan.members(k), contiguous.range(k).collect::<Vec<_>>());
        }
    }

    #[test]
    fn capacity_violating_assignments_are_rejected() {
        let assign =
            |workers, assignment| GroupPlan::new(workers, 3).unwrap().set_assignment(assignment);
        // Wrong length.
        assert!(assign(6, vec![0, 1]).is_err());
        // Out-of-range group id.
        assert!(assign(6, vec![0, 0, 0, 1, 1, 2]).is_err());
        // Right length, valid ids, wrong per-group counts (group 0 overfull).
        assert!(assign(6, vec![0, 0, 0, 0, 1, 1]).is_err());
        // Ragged tail: group 2 holds 1 worker, not 2.
        assert!(assign(7, vec![0, 0, 0, 1, 1, 2, 2]).is_err());
    }

    #[test]
    fn members_covers_every_worker_exactly_once() {
        let assignment = vec![0, 1, 0, 1, 2, 0, 1, 0, 1, 2];
        let mut plan = GroupPlan::new(10, 4).unwrap();
        plan.set_assignment(assignment).unwrap();
        let mut seen: Vec<usize> = (0..plan.group_count()).flat_map(|k| plan.members(k)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }
}
