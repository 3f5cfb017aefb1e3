//! Incremental pairwise-distance accumulation for streaming rounds.
//!
//! The batch kernels ([`GradientBatch::pairwise_squared_distances`] and the
//! sharded partial pipeline) assume every row is present before any distance
//! work starts. A streaming round inverts that: rows complete one at a time
//! as their packets drain off the wire, and the O(n²·d) distance work for a
//! row can start the moment the row is in — overlapping the remaining
//! ingest instead of waiting behind a barrier.
//!
//! [`StreamingDistances`] holds the per-pair running state between row
//! arrivals. Its contract is *bit-identity* with the batch pipeline it
//! replaces, which pins two things:
//!
//! - **Kernel choice.** [`Mode::Flat`] replays the unsharded path by
//!   calling it: the arriving row against the prior rows, four at a time,
//!   through the same blocked walk (`GradientBatch::tile_distances`) that
//!   [`GradientBatch::pairwise_squared_distances`] is built on, so each pair
//!   has the bits of [`ops::squared_distance`] on its two full rows (whose
//!   value does not depend on which row is named first). [`Mode::Sharded`]
//!   replays the decomposed path: per-shard partial sums fed by
//!   [`ops::squared_distance_wide`] over [`DISTANCE_BLOCK`]-column tiles in
//!   ascending block order — the fold of
//!   [`GradientBatch::pairwise_squared_distance_partials`].
//! - **Reduce order.** f32 addition is non-associative, so the sharded mode
//!   keeps one accumulator per (shard, pair) and only folds across shards —
//!   in ascending shard order, starting from `0.0` — when the matrix is
//!   extracted, mirroring [`DistanceMatrix::accumulate`] over
//!   `DistanceMatrix::zeros`. Arrival order therefore never leaks into the
//!   result: each pair's value is a function of the two rows alone.
//!
//! Non-finite sums are left raw in the accumulators (NaN must propagate
//! through the cross-shard reduce exactly as in the batch path) and mapped
//! to `+∞` once at extraction, matching both batch kernels' published
//! policy.

use crate::batch::{DistanceMatrix, GradientBatch, DISTANCE_BLOCK, PAIR_TILE};
use crate::shard::ShardPlan;
use crate::{ops, Result};

/// Which batch distance pipeline the accumulator replays bit-for-bit.
#[derive(Debug, Clone)]
enum Mode {
    /// The unsharded four-lane walk
    /// [`GradientBatch::pairwise_squared_distances`] is built on.
    Flat,
    /// The column-blocked sixteen-lane partial pipeline of
    /// [`GradientBatch::pairwise_squared_distance_partials`], folded across
    /// shards in plan order.
    Sharded(ShardPlan),
}

/// Incremental pairwise squared-distance state over a fixed set of `slots`
/// worker rows, fed one completed row at a time.
///
/// ```
/// use agg_tensor::batch::GradientBatch;
/// use agg_tensor::streaming::StreamingDistances;
/// use agg_tensor::Vector;
///
/// let batch = GradientBatch::from_vectors(&[
///     Vector::from(vec![0.0, 0.0]),
///     Vector::from(vec![3.0, 4.0]),
/// ])
/// .unwrap();
/// let mut acc = StreamingDistances::flat(2, 2);
/// acc.row_arrived(&batch, 1);
/// acc.row_arrived(&batch, 0);
/// let m = acc.matrix(&[0, 1]);
/// assert_eq!(m.get(0, 1), 25.0);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingDistances {
    slots: usize,
    dim: usize,
    mode: Mode,
    /// Accumulators, shard-major: `sums[s * pair_count + p]` where `p` is the
    /// flat upper-triangle pair index over the `slots` grid. Flat mode uses a
    /// single logical shard.
    sums: Vec<f32>,
    /// Slot ids in arrival order.
    arrived: Vec<usize>,
    /// One flag per slot: has the row completed this round?
    present: Vec<bool>,
}

impl StreamingDistances {
    /// Accumulator replaying the unsharded distance kernel over full rows.
    pub fn flat(slots: usize, dim: usize) -> Self {
        Self::with_mode(slots, dim, Mode::Flat)
    }

    /// Accumulator replaying the sharded partial pipeline over `shards`
    /// contiguous column ranges of a `dim`-dimensional row.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TensorError::EmptyInput`] when `shards == 0`
    /// (propagated from [`ShardPlan::new`]).
    pub fn sharded(slots: usize, dim: usize, shards: usize) -> Result<Self> {
        let plan = ShardPlan::new(dim, shards)?;
        Ok(Self::with_mode(slots, dim, Mode::Sharded(plan)))
    }

    fn with_mode(slots: usize, dim: usize, mode: Mode) -> Self {
        let pair_count = slots.saturating_sub(1) * slots / 2;
        let shard_count = match &mode {
            Mode::Flat => 1,
            Mode::Sharded(plan) => plan.shard_count(),
        };
        StreamingDistances {
            slots,
            dim,
            mode,
            sums: vec![0.0; shard_count * pair_count],
            arrived: Vec::with_capacity(slots),
            present: vec![false; slots],
        }
    }

    /// Number of worker slots the accumulator was sized for.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Clears all pair state for the next round, keeping the allocation.
    pub fn reset(&mut self) {
        self.sums.fill(0.0);
        self.arrived.clear();
        self.present.fill(false);
    }

    /// Slot ids in the order their rows completed this round.
    pub fn arrived(&self) -> &[usize] {
        &self.arrived
    }

    /// Whether `slot`'s row has completed this round.
    pub fn is_arrived(&self, slot: usize) -> bool {
        self.present.get(slot).copied().unwrap_or(false)
    }

    /// Flat upper-triangle index of the unordered slot pair `(lo, hi)`.
    #[inline]
    fn pair_index(&self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo < hi && hi < self.slots);
        lo * (2 * self.slots - lo - 1) / 2 + (hi - lo - 1)
    }

    /// Folds the completed row in `batch.row(slot)` into the pair state
    /// against every previously arrived row — the per-row event handler of
    /// the streaming round. `batch` is the submission arena: it must hold one
    /// row per slot at the accumulator's dimension.
    ///
    /// The flat walk is the barrier kernel's: the arriving row meets the
    /// prior rows four at a time, column blocks outermost, and each pair is
    /// closed once the row's last block has passed.
    ///
    /// The sharded walk is tile-ordered for cache warmth: the arriving row's
    /// [`DISTANCE_BLOCK`] slice stays register/L1-hot while every prior row's
    /// matching slice streams past it, and per (shard, pair) the blocks fold
    /// in ascending order — the exact left-fold of the batch partial kernel.
    ///
    /// # Panics
    ///
    /// Panics when the arena shape disagrees with the accumulator, `slot` is
    /// out of range, or the slot already arrived this round (the assembler
    /// layer deduplicates packets, so a second completion event for one slot
    /// is a caller bug).
    pub fn row_arrived(&mut self, batch: &GradientBatch, slot: usize) {
        assert_eq!(batch.n(), self.slots, "arena row count must match slots");
        assert_eq!(batch.dim(), self.dim, "arena dimension must match");
        assert!(slot < self.slots, "slot {slot} out of range");
        assert!(!self.present[slot], "slot {slot} already arrived this round");
        let pair_count = self.slots.saturating_sub(1) * self.slots / 2;
        match &self.mode {
            Mode::Flat => {
                let tiles: Vec<(usize, &[usize])> =
                    self.arrived.chunks(PAIR_TILE).map(|priors| (slot, priors)).collect();
                let dists = batch.tile_distances(&tiles);
                for (&prior, dist) in self.arrived.iter().zip(dists) {
                    let p = self.pair_index(prior.min(slot), prior.max(slot));
                    self.sums[p] = dist;
                }
            }
            Mode::Sharded(plan) => {
                for s in 0..plan.shard_count() {
                    let cols = plan.range(s);
                    let base = s * pair_count;
                    let mut start = cols.start;
                    while start < cols.end {
                        let end = (start + DISTANCE_BLOCK).min(cols.end);
                        let a = &batch.row(slot)[start..end];
                        for &prior in &self.arrived {
                            let (lo, hi) = if prior < slot { (prior, slot) } else { (slot, prior) };
                            let p = self.pair_index(lo, hi);
                            self.sums[base + p] +=
                                ops::squared_distance_wide(a, &batch.row(prior)[start..end]);
                        }
                        start = end;
                    }
                }
            }
        }
        self.present[slot] = true;
        self.arrived.push(slot);
    }

    /// Extracts the distance matrix over the compacted row set `keep` —
    /// strictly ascending slot ids, each of which must have arrived. Entry
    /// `(a, b)` of the result is the full-dimension squared distance between
    /// slots `keep[a]` and `keep[b]`: per-shard accumulators folded in
    /// ascending shard order from `0.0` (bitwise the batch pipeline's
    /// cross-shard reduce), then non-finite sums mapped to `+∞`.
    ///
    /// # Panics
    ///
    /// Panics when `keep` is not strictly ascending or contains a slot that
    /// has not arrived.
    pub fn matrix(&self, keep: &[usize]) -> DistanceMatrix {
        for w in keep.windows(2) {
            assert!(w[0] < w[1], "keep slots must be strictly ascending");
        }
        for &slot in keep {
            assert!(self.is_arrived(slot), "slot {slot} has not arrived");
        }
        let shard_count = match &self.mode {
            Mode::Flat => 1,
            Mode::Sharded(plan) => plan.shard_count(),
        };
        let pair_count = self.slots.saturating_sub(1) * self.slots / 2;
        let m = keep.len();
        let mut data = Vec::with_capacity(m.saturating_sub(1) * m / 2);
        for a in 0..m {
            for b in (a + 1)..m {
                let p = self.pair_index(keep[a], keep[b]);
                let mut total = 0.0f32;
                for s in 0..shard_count {
                    total += self.sums[s * pair_count + p];
                }
                data.push(if total.is_finite() { total } else { f32::INFINITY });
            }
        }
        DistanceMatrix::from_triangle(m, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{gaussian_vector, seeded_rng};
    use crate::Vector;

    fn random_batch(n: usize, d: usize, seed: u64) -> GradientBatch {
        let mut rng = seeded_rng(seed);
        let vs: Vec<Vector> = (0..n).map(|_| gaussian_vector(&mut rng, d, 0.0, 1.0)).collect();
        GradientBatch::from_vectors(&vs).unwrap()
    }

    /// Deterministic Fisher–Yates shuffle of `0..n` driven by splitmix64.
    fn arrival_order(n: usize, seed: usize) -> Vec<usize> {
        let mut state = seed as u64 ^ 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }

    fn assert_matrices_bit_identical(a: &DistanceMatrix, b: &DistanceMatrix) {
        assert_eq!(a.n(), b.n());
        for i in 0..a.n() {
            for j in 0..a.n() {
                assert_eq!(
                    a.get(i, j).to_bits(),
                    b.get(i, j).to_bits(),
                    "pair ({i}, {j}): {} vs {}",
                    a.get(i, j),
                    b.get(i, j)
                );
            }
        }
    }

    #[test]
    fn flat_mode_matches_batch_kernel_for_any_arrival_order() {
        let batch = random_batch(9, 301, 7);
        for seed in 0..6 {
            let mut acc = StreamingDistances::flat(9, 301);
            let order = arrival_order(9, seed);
            for &slot in &order {
                if !acc.is_arrived(slot) {
                    acc.row_arrived(&batch, slot);
                }
            }
            let keep: Vec<usize> = (0..9).collect();
            assert_matrices_bit_identical(&acc.matrix(&keep), &batch.pairwise_squared_distances());
        }
    }

    #[test]
    fn sharded_mode_matches_partial_fold_bitwise() {
        let batch = random_batch(11, 5000, 13);
        for shards in [1usize, 3, 4, 7] {
            let plan = ShardPlan::new(5000, shards).unwrap();
            let mut expected = DistanceMatrix::zeros(11);
            for range in plan.ranges() {
                expected.accumulate(&batch.pairwise_squared_distance_partials(range));
            }
            expected.map_non_finite_to_infinity();

            let mut acc = StreamingDistances::sharded(11, 5000, shards).unwrap();
            for &slot in &arrival_order(11, shards) {
                if !acc.is_arrived(slot) {
                    acc.row_arrived(&batch, slot);
                }
            }
            let keep: Vec<usize> = (0..11).collect();
            assert_matrices_bit_identical(&acc.matrix(&keep), &expected);
        }
    }

    #[test]
    fn non_finite_rows_map_to_infinity_like_the_batch_kernels() {
        let mut batch = random_batch(6, 400, 3);
        batch.row_mut(2)[17] = f32::NAN;
        batch.row_mut(4)[399] = f32::INFINITY;

        let mut flat = StreamingDistances::flat(6, 400);
        let mut sharded = StreamingDistances::sharded(6, 400, 3).unwrap();
        for slot in [5, 2, 0, 4, 1, 3] {
            flat.row_arrived(&batch, slot);
            sharded.row_arrived(&batch, slot);
        }
        let keep: Vec<usize> = (0..6).collect();
        assert_matrices_bit_identical(&flat.matrix(&keep), &batch.pairwise_squared_distances());
        for other in [0usize, 1, 3, 5] {
            assert_eq!(sharded.matrix(&keep).get(2, other), f32::INFINITY);
            assert_eq!(sharded.matrix(&keep).get(4, other), f32::INFINITY);
        }
    }

    #[test]
    fn submatrix_extraction_matches_compacted_batch() {
        let batch = random_batch(10, 2600, 21);
        let keep = [0usize, 2, 3, 6, 9];
        let kept: Vec<Vector> = keep.iter().map(|&i| batch.row_vector(i)).collect();
        let compacted = GradientBatch::from_vectors(&kept).unwrap();

        // Flat mode against the unsharded kernel on the compacted batch.
        let mut flat = StreamingDistances::flat(10, 2600);
        for slot in [9, 0, 6, 3, 2] {
            flat.row_arrived(&batch, slot);
        }
        assert_matrices_bit_identical(&flat.matrix(&keep), &compacted.pairwise_squared_distances());

        // Sharded mode against the partial fold on the compacted batch.
        let plan = ShardPlan::new(2600, 4).unwrap();
        let mut expected = DistanceMatrix::zeros(5);
        for range in plan.ranges() {
            expected.accumulate(&compacted.pairwise_squared_distance_partials(range));
        }
        expected.map_non_finite_to_infinity();
        let mut sharded = StreamingDistances::sharded(10, 2600, 4).unwrap();
        for slot in [3, 9, 2, 0, 6] {
            sharded.row_arrived(&batch, slot);
        }
        assert_matrices_bit_identical(&sharded.matrix(&keep), &expected);
    }

    #[test]
    fn reset_clears_state_for_the_next_round() {
        let batch = random_batch(5, 64, 2);
        let mut acc = StreamingDistances::sharded(5, 64, 2).unwrap();
        for slot in 0..5 {
            acc.row_arrived(&batch, slot);
        }
        acc.reset();
        assert!(acc.arrived().is_empty());
        let batch2 = random_batch(5, 64, 99);
        for slot in [4, 1, 0, 3, 2] {
            acc.row_arrived(&batch2, slot);
        }
        let keep: Vec<usize> = (0..5).collect();
        let plan = ShardPlan::new(64, 2).unwrap();
        let mut expected = DistanceMatrix::zeros(5);
        for range in plan.ranges() {
            expected.accumulate(&batch2.pairwise_squared_distance_partials(range));
        }
        expected.map_non_finite_to_infinity();
        assert_matrices_bit_identical(&acc.matrix(&keep), &expected);
    }

    #[test]
    #[should_panic(expected = "already arrived")]
    fn double_arrival_is_a_caller_bug() {
        let batch = random_batch(3, 8, 1);
        let mut acc = StreamingDistances::flat(3, 8);
        acc.row_arrived(&batch, 1);
        acc.row_arrived(&batch, 1);
    }

    #[test]
    #[should_panic(expected = "has not arrived")]
    fn matrix_over_missing_slot_panics() {
        let batch = random_batch(3, 8, 1);
        let mut acc = StreamingDistances::flat(3, 8);
        acc.row_arrived(&batch, 0);
        let _ = acc.matrix(&[0, 2]);
    }
}
