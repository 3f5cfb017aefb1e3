//! Contiguous gradient arena and the fused aggregation kernels built on it.
//!
//! The paper's hot path aggregates `n` gradients of dimension `d` every
//! synchronous round, and its whole pitch is that Byzantine resilience can be
//! cheap: Multi-Krum/Bulyan must keep up with plain averaging. A
//! `Vec<Vector>` stores each gradient in its own heap allocation, so every
//! coordinate-wise kernel chases `n` pointers per coordinate and every
//! distance kernel loses the prefetcher between rows. [`GradientBatch`]
//! instead packs the whole round into a single row-major `n×d` buffer:
//!
//! * rows (gradients) are cheap contiguous slices ([`GradientBatch::row`]),
//! * the pairwise-distance kernel computes only the upper triangle — each
//!   unordered pair exactly once — into a flat [`DistanceMatrix`],
//! * coordinate-wise order statistics (median, trimmed mean, MeaMed,
//!   Bulyan's second phase) run fused over column blocks. At worker-count
//!   row counts (`n ≤ 32`) each block is processed as lane-major tiles of
//!   W = 8–16 columns through a branch-free [`crate::sortnet`] selection
//!   network — every compare–exchange is an elementwise min/max over a
//!   whole lane — and finished over whole lanes too, at 256 bits where the
//!   CPU has AVX2; a tile carrying a NaN is canonicalised (NaN → `+∞`) and
//!   finished lane by lane, which keeps the scalar kernels' NaN policy
//!   intact. Larger batches fall back to the scalar quickselect kernels
//!   (`select_nth_unstable` over a reused per-column gather).
//!
//! All kernels keep the paper's non-finite policy: corrupt gradients map to
//! `+∞` distance and are never selected while enough finite candidates exist.

use crate::sortnet::{self, SelectionNetwork, MAX_NETWORK_N};
use crate::stats::{mean_of_closest_to_median_sorted, median_of_scratch, SMALL_SORT};
use crate::{ops, Result, TensorError, Vector};
use rayon::prelude::*;
use std::ops::Range;

/// Minimum number of f32 element operations a kernel must perform before it
/// dispatches to rayon.
///
/// Calibrated against the fixed dispatch cost (thread spawn + chunking,
/// tens of µs) versus roughly 1 ns per element operation: below ~2×10⁵
/// element ops the dispatch overhead dominates the measurement and distorts
/// the cost model's linear-in-`d` rescaling, so kernels stay sequential.
/// Every parallel gate in the workspace compares its *actual* element-op
/// count against this one constant (pairs·d for the distance kernel, n·d for
/// coordinate kernels, |active|² for score re-ranking) so the calibration is
/// applied to the work really being dispatched.
pub const PARALLEL_MIN_WORK: usize = 200_000;

/// Columns per transpose tile in the fused coordinate kernels. At the
/// paper's n = 19 a block tile is `19 × 512 × 4 B ≈ 38 KiB` — comfortably
/// L1/L2-resident, so the per-coordinate gather never leaves cache.
const COLUMN_BLOCK: usize = 512;

/// Lane width of the vertical selection-network kernels: columns processed
/// side by side as `[f32; W]` rows of a lane-major tile. Sixteen f32 lanes
/// are four 128-bit registers in the baseline instantiation of the tile body
/// and two 256-bit ones in the AVX2 instantiation (nothing here is compiled
/// for AVX-512) — enough independent rows in flight to cover the min/max
/// latency, one cache line of every gathered row, and a tile
/// (`n × 16 × 4 B ≈ 1.2 KiB` at the paper's n = 19) that stays L1-resident.
const WIDE_LANES: usize = 16;

/// Narrow lane width for ragged tails: a residual group of ≤ 8 columns runs
/// through the 8-lane monomorphisation instead of padding half a wide tile.
const NARROW_LANES: usize = 8;

/// Columns per block of both distance walks — the flat
/// [`GradientBatch::tile_distances`] and the sharded
/// [`GradientBatch::pairwise_squared_distance_partials`]. Each pair reads two
/// `4096 × 4 B = 16 KiB` row slices — together a third of L1 — and the whole
/// block across all rows (`19 × 16 KiB ≈ 304 KiB` at the paper's n) stays
/// L2-resident while every pair revisits it, instead of every pair pulling
/// two whole rows through the shared L3. A multiple of four, so a block
/// boundary never splits a 4-chunk of the flat kernel's pinned order.
pub(crate) const DISTANCE_BLOCK: usize = 4096;
const _: () = assert!(DISTANCE_BLOCK % 4 == 0);

/// Later rows one row meets at a time in the flat distance walk: four pairs'
/// independent accumulator chains hide the add latency that bounds one.
pub(crate) const PAIR_TILE: usize = 4;

/// Contiguous groups the flat distance walk's tile list is cut into — its
/// parallel items. Fixed, so the cut does not depend on the thread budget;
/// small, because every group pulls its own copy of each column block
/// through L2.
const DISTANCE_GROUPS: usize = 8;

/// A round of gradients stored contiguously, row-major `n × d`.
///
/// ```
/// use agg_tensor::batch::GradientBatch;
/// use agg_tensor::Vector;
/// let batch = GradientBatch::from_vectors(&[
///     Vector::from(vec![1.0, 2.0]),
///     Vector::from(vec![3.0, 6.0]),
/// ])
/// .unwrap();
/// assert_eq!(batch.n(), 2);
/// assert_eq!(batch.row(1), &[3.0, 6.0]);
/// assert_eq!(batch.coordinate_mean().unwrap().as_slice(), &[2.0, 4.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GradientBatch {
    /// Row-major `n × d` storage.
    data: Vec<f32>,
    n: usize,
    d: usize,
}

impl GradientBatch {
    /// Creates an empty batch that will accept rows of dimension `d`.
    pub fn new(d: usize) -> Self {
        GradientBatch { data: Vec::new(), n: 0, d }
    }

    /// Creates an empty batch of dimension `d` with capacity for `rows` rows.
    pub fn with_capacity(d: usize, rows: usize) -> Self {
        GradientBatch { data: Vec::with_capacity(d.saturating_mul(rows)), n: 0, d }
    }

    /// Packs a slice of vectors into a contiguous batch (one copy).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyInput`] for an empty slice and
    /// [`TensorError::DimensionMismatch`] when the vectors disagree on
    /// length.
    pub fn from_vectors(vectors: &[Vector]) -> Result<Self> {
        let Some(first) = vectors.first() else {
            return Err(TensorError::EmptyInput("GradientBatch::from_vectors"));
        };
        let mut batch = GradientBatch::with_capacity(first.len(), vectors.len());
        for v in vectors {
            batch.push_row(v.as_slice())?;
        }
        Ok(batch)
    }

    /// Appends one gradient row.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] when `row` does not match
    /// the batch dimension.
    pub fn push_row(&mut self, row: &[f32]) -> Result<()> {
        if row.len() != self.d {
            return Err(TensorError::dim(self.d, row.len()));
        }
        self.data.extend_from_slice(row);
        self.n += 1;
        Ok(())
    }

    /// Appends one zero-initialised row and hands it to `fill` to write in
    /// place — the allocation-free way to deliver a gradient straight into
    /// the arena (transports scatter packet payloads, samplers draw random
    /// rounds) without materialising an intermediate `Vector`.
    pub fn push_row_with(&mut self, fill: impl FnOnce(&mut [f32])) {
        let start = self.data.len();
        self.data.resize(start + self.d, 0.0);
        self.n += 1;
        fill(&mut self.data[start..]);
    }

    /// Drops all rows but keeps the allocation, ready for the next round's
    /// refill. Round-based callers pair this with [`GradientBatch::push_row`]
    /// / [`GradientBatch::push_row_with`] so one arena is reused for the whole
    /// run instead of allocating `n × d` per round.
    pub fn clear(&mut self) {
        self.data.clear();
        self.n = 0;
    }

    /// Resizes the batch to exactly `rows` rows (new rows zero-filled),
    /// reusing the allocation. Slot-addressed writers (`row_mut` /
    /// `rows_mut`) use this to lay out one row per producer before a round.
    pub fn resize_rows(&mut self, rows: usize) {
        self.data.resize(rows * self.d, 0.0);
        self.n = rows;
    }

    /// Keeps only the rows whose flag is `true`, compacting the survivors in
    /// place (order preserved, no reallocation). Used after a lossy round:
    /// every worker owns one slot, then undelivered slots are squeezed out.
    ///
    /// Every surviving row moves to a lower or equal index, so applying the
    /// moves in ascending order never overwrites a row before it is read.
    /// The moves run one column block at a time: blocks never overlap, so
    /// each block replays the ascending moves on its own columns, and the
    /// blocks run in parallel when the moved `rows·d` clears
    /// [`PARALLEL_MIN_WORK`]. When no row moves, nothing is copied.
    ///
    /// # Panics
    ///
    /// Panics if `keep.len() != self.n()`.
    pub fn retain_rows(&mut self, keep: &[bool]) {
        assert_eq!(keep.len(), self.n, "one keep flag per row");
        let d = self.d;
        // (from, to) for every survivor that changes index, ascending (a
        // zero-width row has nothing to move).
        let moves: Vec<(usize, usize)> = keep
            .iter()
            .enumerate()
            .filter(|&(_, &k)| k)
            .enumerate()
            .filter_map(|(to, (from, _))| (from != to && d > 0).then_some((from, to)))
            .collect();
        let kept = keep.iter().filter(|&&k| k).count();
        if let (Some(&(_, first)), Some(&(last, _))) = (moves.first(), moves.last()) {
            // Only rows `first..=last` take part; each block gets its piece
            // of every one of them, indexed from `first`.
            let blocks = column_blocks(&(0..d));
            let mut pieces: Vec<Vec<&mut [f32]>> =
                blocks.iter().map(|_| Vec::with_capacity(last + 1 - first)).collect();
            for row in self.data[first * d..(last + 1) * d].chunks_exact_mut(d) {
                let mut rest = row;
                for (block, piece) in blocks.iter().zip(&mut pieces) {
                    let (head, tail) = std::mem::take(&mut rest).split_at_mut(block.len());
                    piece.push(head);
                    rest = tail;
                }
            }
            let run = |mut rows: Vec<&mut [f32]>| {
                for &(from, to) in &moves {
                    let (below, above) = rows.split_at_mut(from - first);
                    below[to - first].copy_from_slice(above[0]);
                }
            };
            if moves.len().saturating_mul(d) >= PARALLEL_MIN_WORK {
                let _: Vec<()> = pieces.into_par_iter().map(run).collect();
            } else {
                pieces.into_iter().for_each(run);
            }
        }
        self.data.truncate(kept * d);
        self.n = kept;
    }

    /// Number of gradients in the batch.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Gradient dimension.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Returns `true` when the batch holds no gradients.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The whole arena as one flat slice (row-major).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Row `i` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.n()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.d..i * self.d + self.d]
    }

    /// Iterator over all rows in submission order.
    pub fn rows(&self) -> impl Iterator<Item = &[f32]> {
        (0..self.n).map(move |i| self.row(i))
    }

    /// Row `i` as a mutable contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.n()`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.d..i * self.d + self.d]
    }

    /// All rows as disjoint mutable slices, in row order — the handles a
    /// parallel round hands out so every producer writes its own slot
    /// concurrently.
    pub fn rows_mut(&mut self) -> Vec<&mut [f32]> {
        if self.d == 0 {
            let mut out = Vec::with_capacity(self.n);
            out.resize_with(self.n, Default::default);
            return out;
        }
        self.data.chunks_exact_mut(self.d).collect()
    }

    /// Copies row `i` out into an owned [`Vector`].
    pub fn row_vector(&self, i: usize) -> Vector {
        Vector::from(self.row(i))
    }

    /// Upper-triangular pairwise squared-distance matrix.
    ///
    /// Each unordered pair `(i, j)` is computed exactly once — the O(n²·d)
    /// kernel that is Multi-Krum's distance phase and that Bulyan reuses
    /// across its selection iterations. Every entry has the bits of
    /// [`ops::squared_distance`] on the two full rows (the order pinned
    /// there; `tests/distance_kernels.rs` checks it entry for entry), then
    /// distances involving non-finite coordinates map to `+∞` so corrupt
    /// gradients are never preferred by any score built on top.
    ///
    /// The walk is cache-blocked and pair-tiled (`tile_distances`): row `i`
    /// meets up to `PAIR_TILE` = 4 consecutive later rows at a time, and the
    /// tiles, taken in flat-triangle order, are cut into `DISTANCE_GROUPS` = 8
    /// contiguous groups. The groups are the parallel items when `pairs·d`
    /// clears [`PARALLEL_MIN_WORK`]; a pair's bits depend on neither the cut
    /// nor the thread count.
    pub fn pairwise_squared_distances(&self) -> DistanceMatrix {
        let n = self.n;
        let pair_count = n.saturating_sub(1) * n / 2;
        let later: Vec<usize> = (0..n).collect();
        // Enumerating i, then j > i in steps, keeps the flat triangle's order.
        let tiles: Vec<(usize, &[usize])> =
            (0..n).flat_map(|i| later[i + 1..].chunks(PAIR_TILE).map(move |js| (i, js))).collect();
        let groups: Vec<&[(usize, &[usize])]> =
            tiles.chunks(tiles.len().div_ceil(DISTANCE_GROUPS).max(1)).collect();
        let run = |group: &[(usize, &[usize])]| self.tile_distances(group);
        let parts: Vec<Vec<f32>> = if pair_count.saturating_mul(self.d) >= PARALLEL_MIN_WORK {
            groups.into_par_iter().map(run).collect()
        } else {
            groups.into_iter().map(run).collect()
        };
        let mut matrix = DistanceMatrix { n, data: parts.concat() };
        matrix.map_non_finite_to_infinity();
        matrix
    }

    /// Raw full-row squared distances for a list of tiles — each a row and the
    /// other rows it is paired with, [`PAIR_TILE`] of them in a full tile — in
    /// tile order, one entry per pair, each with the bits of
    /// [`ops::squared_distance`] on the two rows (non-finite sums are left as
    /// they are).
    ///
    /// This is the one flat distance walk: the barrier kernel above and
    /// [`crate::StreamingDistances`]' flat mode both call it. Column blocks
    /// of [`DISTANCE_BLOCK`] run outermost, so every tile revisits the same
    /// L2-resident block of the rows before the walk moves on; inside a
    /// block a full tile continues its four pairs' accumulator chains side
    /// by side ([`ops::continue_distance_chains`]) — a chain is
    /// latency-bound on its own — and a tile of any other size one chain at a
    /// time. The only state carried across blocks is the four lanes per pair.
    ///
    /// # Panics
    ///
    /// Panics when a row index is out of range.
    pub(crate) fn tile_distances(&self, tiles: &[(usize, &[usize])]) -> Vec<f32> {
        let d = self.d;
        let pairs = || tiles.iter().flat_map(|&(i, others)| others.iter().map(move |&j| (i, j)));
        let mut lanes = vec![[0.0f32; 4]; pairs().count()];
        for start in (0..d).step_by(DISTANCE_BLOCK) {
            let cols = start..(start + DISTANCE_BLOCK).min(d);
            let mut rest = lanes.as_mut_slice();
            for &(i, others) in tiles {
                let a = &self.row(i)[cols.clone()];
                let (tile_lanes, later_tiles) = rest.split_at_mut(others.len());
                rest = later_tiles;
                if let Ok(js) = <[usize; PAIR_TILE]>::try_from(others) {
                    let acc = tile_lanes.try_into().expect("one lane set per row of the tile");
                    ops::continue_distance_chains(a, js.map(|j| &self.row(j)[cols.clone()]), acc);
                } else {
                    for (&j, acc) in others.iter().zip(tile_lanes) {
                        let b = &self.row(j)[cols.clone()];
                        ops::continue_distance_chains(a, [b], std::array::from_mut(acc));
                    }
                }
            }
        }
        let tail = d - d % 4;
        pairs()
            .zip(lanes)
            .map(|((i, j), lanes)| {
                ops::finish_distance_chain(lanes, &self.row(i)[tail..], &self.row(j)[tail..])
            })
            .collect()
    }

    /// Raw per-pair partial squared distances over the column range `cols`:
    /// entry `(i, j)` is `Σ_{c ∈ cols} (row_i[c] − row_j[c])²`.
    ///
    /// This is the sharded half of the distance decomposition: squared L2
    /// distances are sums over disjoint coordinate ranges, so accumulating
    /// one partial matrix per shard (in fixed shard order — see
    /// [`DistanceMatrix::accumulate`]) reproduces the full-dimension matrix
    /// exactly, up to floating-point reassociation. Unlike
    /// [`GradientBatch::pairwise_squared_distances`] the partials are *raw*:
    /// non-finite sums are left in place (they stay non-finite through any
    /// accumulation) and the caller maps them to `+∞` once, after the
    /// cross-shard reduce, via [`DistanceMatrix::map_non_finite_to_infinity`].
    ///
    /// The kernel is column-blocked (all pairs revisit one L2-resident tile
    /// before moving on) with a sixteen-lane inner loop, and deliberately
    /// sequential: the sharded aggregator parallelises across shards, and a
    /// deterministic per-shard kernel is what makes the round bit-identical
    /// under any thread count.
    ///
    /// # Panics
    ///
    /// Panics when `cols` is not contained in `0..self.dim()`.
    pub fn pairwise_squared_distance_partials(&self, cols: Range<usize>) -> DistanceMatrix {
        self.check_cols(&cols);
        let n = self.n;
        let pair_count = n.saturating_sub(1) * n / 2;
        let mut data = vec![0.0f32; pair_count];
        let mut start = cols.start;
        while start < cols.end {
            let end = (start + DISTANCE_BLOCK).min(cols.end);
            let mut p = 0usize;
            for i in 0..n {
                let a = &self.row(i)[start..end];
                for j in (i + 1)..n {
                    data[p] += ops::squared_distance_wide(a, &self.row(j)[start..end]);
                    p += 1;
                }
            }
            start = end;
        }
        DistanceMatrix { n, data }
    }

    /// A view of the column range `cols`, exposing the same fused coordinate
    /// kernels restricted to those columns. This is how the sharded
    /// aggregation layer runs one kernel invocation per shard without
    /// copying the arena.
    ///
    /// # Panics
    ///
    /// Panics when `cols` is not contained in `0..self.dim()`.
    pub fn columns(&self, cols: Range<usize>) -> BatchColumns<'_> {
        self.check_cols(&cols);
        BatchColumns { batch: self, cols }
    }

    /// Validates a column range against the batch dimension.
    fn check_cols(&self, cols: &Range<usize>) {
        assert!(
            cols.start <= cols.end && cols.end <= self.d,
            "column range {}..{} out of range for dimension {}",
            cols.start,
            cols.end,
            self.d
        );
    }

    /// Coordinate-wise mean of all rows. NaN coordinates poison the mean,
    /// matching plain averaging's declared non-resilience.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyInput`] for an empty batch.
    pub fn coordinate_mean(&self) -> Result<Vector> {
        let mut out = vec![0.0f32; self.d];
        self.mean_blocks(None, false, "coordinate_mean", 0..self.d, &mut out)?;
        Ok(Vector::from(out))
    }

    /// Coordinate-wise mean that skips NaN (lost) coordinates; a coordinate
    /// that is NaN in every row becomes `0.0` (no update). `±∞` coordinates
    /// participate, exactly like the slice-wise `nan_mean`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyInput`] for an empty batch.
    pub fn coordinate_nan_mean(&self) -> Result<Vector> {
        let mut out = vec![0.0f32; self.d];
        self.mean_blocks(None, true, "coordinate_nan_mean", 0..self.d, &mut out)?;
        Ok(Vector::from(out))
    }

    /// Coordinate-wise median (NaN-tolerant) of all rows.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyInput`] for an empty batch or a
    /// coordinate that is NaN in every row.
    pub fn coordinate_median(&self) -> Result<Vector> {
        let mut out = vec![0.0f32; self.d];
        self.order_statistic(OrderStatistic::Median, None, 0..self.d, &mut out)?;
        Ok(Vector::from(out))
    }

    /// Coordinate-wise trimmed mean: drops the `trim` smallest and `trim`
    /// largest finite values per coordinate and averages the rest. NaN
    /// values are dropped before trimming; a coordinate left with too few
    /// values falls back to the median of its remaining finite values.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyInput`] for an empty batch or a
    /// coordinate that is NaN in every row.
    pub fn coordinate_trimmed_mean(&self, trim: usize) -> Result<Vector> {
        let mut out = vec![0.0f32; self.d];
        let rule = OrderStatistic::TrimmedMean { trim };
        self.order_statistic(rule, None, 0..self.d, &mut out)?;
        Ok(Vector::from(out))
    }

    fn trimmed_mean_quickselect(
        &self,
        rows: Option<&[usize]>,
        trim: usize,
        cols: Range<usize>,
        out: &mut [f32],
    ) -> Result<()> {
        self.column_reduce(rows, "coordinate_trimmed_mean", cols, out, || {
            move |column: &mut Vec<f32>| {
                column.retain(|x| !x.is_nan());
                let len = column.len();
                if len <= 2 * trim {
                    // Fallback: median of whatever finite values remain
                    // (errors when the whole column was NaN).
                    if column.is_empty() {
                        return Err(TensorError::EmptyInput("coordinate_trimmed_mean"));
                    }
                    return median_of_scratch(column);
                }
                if trim > 0 {
                    let cmp = |a: &f32, b: &f32| a.total_cmp(b);
                    if len <= SMALL_SORT {
                        // Worker-count columns: one insertion-regime sort is
                        // cheaper than selection machinery.
                        column.sort_unstable_by(cmp);
                    } else {
                        // Two partial selections bracket the kept middle:
                        // the `trim` smallest land in front, the `trim`
                        // largest at the back — no full sort.
                        column.select_nth_unstable_by(trim - 1, cmp);
                        let tail = &mut column[trim..];
                        let keep = tail.len() - trim;
                        tail.select_nth_unstable_by(keep - 1, cmp);
                    }
                }
                let kept = &column[trim..len - trim];
                Ok(kept.iter().sum::<f32>() / kept.len() as f32)
            }
        })
    }

    /// For every coordinate: the mean of the `keep` values closest to the
    /// coordinate-wise median (MeaMed, and — restricted to the selected rows
    /// — Bulyan's second phase). Non-finite values rank as infinitely far
    /// from the median, so they are only averaged when fewer than `keep`
    /// finite values exist. `keep` is clamped into `1..=rows`.
    ///
    /// Tie behaviour: when two values are exactly equidistant from the
    /// median at the window boundary, the smaller value wins. (The pre-arena
    /// kernels did not agree with each other here — MeaMed kept the earlier
    /// submission, Bulyan's unstable selection picked arbitrarily — so the
    /// choice is deliberate and deterministic rather than order-dependent.)
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyInput`] for an empty batch or a
    /// coordinate that is NaN in every row.
    pub fn mean_around_median(&self, keep: usize) -> Result<Vector> {
        let mut out = vec![0.0f32; self.d];
        let rule = OrderStatistic::MeanAroundMedian { keep };
        self.order_statistic(rule, None, 0..self.d, &mut out)?;
        Ok(Vector::from(out))
    }

    /// The scalar sort-and-walk mean-around-median: the fallback for batches
    /// of more than [`MAX_NETWORK_N`] rows.
    ///
    /// One small sort serves both the median and the closest-to-median
    /// selection (the window kernel itself is
    /// [`mean_of_closest_to_median_sorted`], shared with the network path's
    /// NaN-carrying tiles).
    fn mean_around_median_quickselect(
        &self,
        rows: Option<&[usize]>,
        keep: usize,
        cols: Range<usize>,
        out: &mut [f32],
    ) -> Result<()> {
        self.column_reduce(rows, "mean_around_median", cols, out, || {
            let mut finite: Vec<f32> = Vec::new();
            move |column: &mut Vec<f32>| {
                finite.clear();
                finite.extend(column.iter().copied().filter(|x| !x.is_nan()));
                if finite.is_empty() {
                    return Err(TensorError::EmptyInput("mean_around_median"));
                }
                finite.sort_unstable_by(f32::total_cmp);
                Ok(mean_of_closest_to_median_sorted(&finite, column.len(), keep))
            }
        })
    }

    fn median_quickselect(
        &self,
        rows: Option<&[usize]>,
        cols: Range<usize>,
        out: &mut [f32],
    ) -> Result<()> {
        self.column_reduce(rows, "coordinate_median", cols, out, || {
            move |column: &mut Vec<f32>| {
                column.retain(|x| !x.is_nan());
                if column.is_empty() {
                    return Err(TensorError::EmptyInput("coordinate_median"));
                }
                median_of_scratch(column)
            }
        })
    }

    /// Validates an optional row subset, returning the effective row count.
    fn check_rows(&self, rows: Option<&[usize]>, label: &'static str) -> Result<usize> {
        let m = rows.map_or(self.n, <[usize]>::len);
        if m == 0 {
            return Err(TensorError::EmptyInput(label));
        }
        if let Some(rows) = rows {
            for &r in rows {
                if r >= self.n {
                    return Err(TensorError::IndexOutOfBounds { index: r, size: self.n });
                }
            }
        }
        Ok(m)
    }

    /// Fused mean kernels over `rows` of this batch (all rows when `None`):
    /// [`mean_rows_into`] after the row check.
    fn mean_blocks(
        &self,
        rows: Option<&[usize]>,
        skip_nan: bool,
        label: &'static str,
        cols: Range<usize>,
        out: &mut [f32],
    ) -> Result<()> {
        let m = self.check_rows(rows, label)?;
        let row = |k: usize| self.row(rows.map_or(k, |rows| rows[k]));
        mean_rows_into(m, row, skip_nan, cols, out);
        Ok(())
    }

    /// Fused per-coordinate reduction driver.
    ///
    /// Every column of a block is gathered straight from the arena into a
    /// reused scratch buffer and reduced by the kernel. At worker-count row
    /// counts the gather's strided reads stay cache-resident — consecutive
    /// columns re-walk the same `m` cache lines, so each 64-byte line serves
    /// 16 columns — which measured faster than the former
    /// transpose-into-a-tile pass (one extra full write+read of the block
    /// that bought nothing the gather did not already have). `make_kernel`
    /// is called once per block so kernels can own per-thread scratch;
    /// blocks run in parallel when `rows·d` clears [`PARALLEL_MIN_WORK`].
    fn column_reduce<K, M>(
        &self,
        rows: Option<&[usize]>,
        label: &'static str,
        cols: Range<usize>,
        out: &mut [f32],
        make_kernel: M,
    ) -> Result<()>
    where
        K: FnMut(&mut Vec<f32>) -> Result<f32>,
        M: Fn() -> K + Sync,
    {
        let m = self.check_rows(rows, label)?;
        let width = cols.len();
        debug_assert_eq!(out.len(), width, "output slice must cover the column range");
        let run = |(range, dst): (Range<usize>, &mut [f32])| -> Result<()> {
            let mut kernel = make_kernel();
            let mut column: Vec<f32> = Vec::with_capacity(m);
            for (j, slot) in range.zip(dst.iter_mut()) {
                column.clear();
                match rows {
                    None => column.extend((0..self.n).map(|r| self.data[r * self.d + j])),
                    Some(rows) => column.extend(rows.iter().map(|&r| self.data[r * self.d + j])),
                }
                *slot = kernel(&mut column)?;
            }
            Ok(())
        };
        let chunks = block_chunks(column_blocks(&cols), out);
        let parts: Vec<Result<()>> = if m.saturating_mul(width) >= PARALLEL_MIN_WORK {
            chunks.into_par_iter().map(run).collect()
        } else {
            chunks.into_iter().map(run).collect()
        };
        parts.into_iter().collect()
    }

    /// One order-statistic rule over `cols` of `rows` (all rows when `None`),
    /// one result per column into `out`: the selection-network tiles at
    /// worker-count row counts, the scalar quickselect kernels above
    /// [`MAX_NETWORK_N`].
    fn order_statistic(
        &self,
        rule: OrderStatistic,
        rows: Option<&[usize]>,
        cols: Range<usize>,
        out: &mut [f32],
    ) -> Result<()> {
        self.order_statistic_at_width(rule, rows, cols, out, TileWidth::Detected)
    }

    fn order_statistic_at_width(
        &self,
        rule: OrderStatistic,
        rows: Option<&[usize]>,
        cols: Range<usize>,
        out: &mut [f32],
        width: TileWidth,
    ) -> Result<()> {
        let m = rows.map_or(self.n, <[usize]>::len);
        if m == 0 {
            return Err(TensorError::EmptyInput(rule.label()));
        }
        if m > MAX_NETWORK_N {
            return self.quickselect(rule, rows, cols, out);
        }
        self.network_reduce(rule, rows, cols, out, width)
    }

    /// `rule` over `cols` of `rows` through the scalar kernels: the fallback
    /// for batches of more than [`MAX_NETWORK_N`] rows.
    fn quickselect(
        &self,
        rule: OrderStatistic,
        rows: Option<&[usize]>,
        cols: Range<usize>,
        out: &mut [f32],
    ) -> Result<()> {
        match rule {
            OrderStatistic::Median => self.median_quickselect(rows, cols, out),
            OrderStatistic::TrimmedMean { trim } => {
                self.trimmed_mean_quickselect(rows, trim, cols, out)
            }
            OrderStatistic::MeanAroundMedian { keep } => {
                self.mean_around_median_quickselect(rows, keep, cols, out)
            }
        }
    }

    /// `rule` over every column through the tile body's baseline
    /// instantiation, whatever the running CPU supports: what
    /// `tests/order_statistic_tiles.rs` holds the dispatched entry points
    /// against, bit for bit. Not part of the API.
    #[doc(hidden)]
    pub fn order_statistic_at_baseline_width(
        &self,
        rule: OrderStatistic,
        rows: Option<&[usize]>,
    ) -> Result<Vector> {
        let mut out = vec![0.0f32; self.d];
        self.order_statistic_at_width(rule, rows, 0..self.d, &mut out, TileWidth::Baseline)?;
        Ok(Vector::from(out))
    }

    /// `rule` over every row and column through the scalar kernels, whatever
    /// the row count: the reference the selection networks are held against
    /// (`sortnet_matches_reference`) and the baseline of the
    /// `selection_networks` criterion group. Not part of the API.
    #[doc(hidden)]
    pub fn order_statistic_quickselect(&self, rule: OrderStatistic) -> Result<Vector> {
        let mut out = vec![0.0f32; self.d];
        self.quickselect(rule, None, 0..self.d, &mut out)?;
        Ok(Vector::from(out))
    }

    /// Vertical selection-network reduction driver (the `n ≤ 32` fast path
    /// of the order-statistic kernels).
    ///
    /// Each column block is processed as lane-major tiles of
    /// [`WIDE_LANES`] columns (ragged tails of ≤ [`NARROW_LANES`] columns
    /// take the narrow monomorphisation) by [`TileReduce`]: gather, one
    /// network execution that sorts every lane at once with branch-free
    /// min/max, and a finish that is lane arithmetic too. NaN-free tiles —
    /// the overwhelmingly common case — run the network pruned to the
    /// positions the rule reads and finish vertically; a tile carrying any
    /// NaN runs the full sorting network and finishes lane by lane, so
    /// order statistics relative to each lane's own finite count stay
    /// exact. Per-column results depend only on that column's values (each
    /// lane is sorted and reduced independently), so the output is
    /// bit-identical under any column blocking, lane grouping, vector width
    /// or thread count — which is what keeps sharded and unsharded
    /// aggregation bitwise equal.
    fn network_reduce(
        &self,
        rule: OrderStatistic,
        rows: Option<&[usize]>,
        cols: Range<usize>,
        out: &mut [f32],
        width: TileWidth,
    ) -> Result<()> {
        let m = self.check_rows(rows, rule.label())?;
        debug_assert!(m <= MAX_NETWORK_N);
        debug_assert_eq!(out.len(), cols.len(), "output slice must cover the column range");
        let full_rule = rule.for_full_column(m);
        let tiles = TileReduce {
            batch: self,
            rows,
            m,
            rule,
            full_rule,
            sort: SelectionNetwork::sorting_cached(m),
            select: SelectionNetwork::selecting_cached(m, full_rule.window(m)),
        };
        let run = |(range, dst): (Range<usize>, &mut [f32])| tiles.block(range, dst, width);
        let parallel = m.saturating_mul(cols.len()) >= PARALLEL_MIN_WORK;
        let chunks = block_chunks(column_blocks(&cols), out);
        let parts: Vec<Result<()>> = if parallel {
            chunks.into_par_iter().map(run).collect()
        } else {
            chunks.into_iter().map(run).collect()
        };
        parts.into_iter().collect()
    }
}

/// Column ranges of at most [`COLUMN_BLOCK`] columns covering `cols`.
///
/// Blocks snap to the global [`COLUMN_BLOCK`] grid rather than to
/// `cols.start`: a range starting off-grid (shard boundaries land anywhere)
/// takes one short leading block and every block after it is grid-aligned —
/// so the network kernels' lane tiles, which snap to the same grid, pay
/// their short-leading-tile realignment once per range instead of once per
/// block.
fn column_blocks(cols: &Range<usize>) -> Vec<Range<usize>> {
    let mut blocks = Vec::new();
    let mut start = cols.start;
    while start < cols.end {
        let end = ((start / COLUMN_BLOCK + 1) * COLUMN_BLOCK).min(cols.end);
        blocks.push(start..end);
        start = end;
    }
    blocks
}

/// Pairs each column block with its slice of `out`, in block order, so
/// block-parallel drivers write results straight into the caller's buffer
/// instead of materialising per-block vectors and concatenating (the
/// concatenation copy was pure overhead, and it compounded per shard in the
/// sharded tier).
fn block_chunks(blocks: Vec<Range<usize>>, out: &mut [f32]) -> Vec<(Range<usize>, &mut [f32])> {
    let mut chunks = Vec::with_capacity(blocks.len());
    let mut rest = out;
    for block in blocks {
        let (head, tail) = rest.split_at_mut(block.len());
        chunks.push((block, head));
        rest = tail;
    }
    chunks
}

/// The one fused mean loop, behind every coordinate mean of the workspace
/// (the batch kernels and [`crate::stats::coordinate_mean_of_rows`]): the
/// mean over `cols` of the `m ≥ 1` rows `row(0), …, row(m − 1)`, written
/// into `out` (`out.len() == cols.len()`). Every row is streamed over each
/// column block once, accumulating straight into `out` (no per-coordinate
/// gather at all); `skip_nan` skips NaN (lost) coordinates and writes `0.0`
/// for a column that is NaN in every row.
///
/// Below the parallel gate the block machinery (range bookkeeping, chunked
/// output, rayon dispatch) is pure overhead for a kernel this trivially
/// fused, so small inputs take a single pass over the whole range; above it
/// the [`COLUMN_BLOCK`] blocks run in parallel. Both paths add each column
/// in row order and then scale it, so they are bit-identical.
pub(crate) fn mean_rows_into<'a>(
    m: usize,
    row: impl Fn(usize) -> &'a [f32] + Sync,
    skip_nan: bool,
    cols: Range<usize>,
    out: &mut [f32],
) {
    debug_assert!(m > 0, "a mean needs at least one row");
    debug_assert_eq!(out.len(), cols.len(), "output slice must cover the column range");
    let width = cols.len();
    let run = |(range, acc): (Range<usize>, &mut [f32])| {
        acc.fill(0.0);
        let mut count = vec![0u32; if skip_nan { range.len() } else { 0 }];
        for k in 0..m {
            let slice = &row(k)[range.clone()];
            if skip_nan {
                for ((a, c), &v) in acc.iter_mut().zip(count.iter_mut()).zip(slice) {
                    if !v.is_nan() {
                        *a += v;
                        *c += 1;
                    }
                }
            } else {
                for (a, &v) in acc.iter_mut().zip(slice) {
                    *a += v;
                }
            }
        }
        if skip_nan {
            for (a, &c) in acc.iter_mut().zip(&count) {
                *a = if c == 0 { 0.0 } else { *a / c as f32 };
            }
        } else {
            let scale = 1.0 / m as f32;
            acc.iter_mut().for_each(|a| *a *= scale);
        }
    };
    if m.saturating_mul(width) < PARALLEL_MIN_WORK {
        // Single pass over the whole range, skipping the block split.
        run((cols, out));
        return;
    }
    let chunks = block_chunks(column_blocks(&cols), out);
    let _: Vec<()> = chunks.into_par_iter().map(run).collect();
}

/// The per-coordinate reductions the selection-network tiles serve. Public
/// (and hidden) only so the reference tests and benches can name a rule to
/// [`GradientBatch::order_statistic_at_baseline_width`] and
/// [`GradientBatch::order_statistic_quickselect`].
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderStatistic {
    /// [`GradientBatch::coordinate_median`].
    Median,
    /// [`GradientBatch::coordinate_trimmed_mean`].
    TrimmedMean { trim: usize },
    /// [`GradientBatch::mean_around_median`].
    MeanAroundMedian { keep: usize },
}

impl OrderStatistic {
    /// The name the rule's errors carry.
    fn label(self) -> &'static str {
        match self {
            OrderStatistic::Median => "coordinate_median",
            OrderStatistic::TrimmedMean { .. } => "coordinate_trimmed_mean",
            OrderStatistic::MeanAroundMedian { .. } => "mean_around_median",
        }
    }

    /// The rule as a NaN-free column of `m ≥ 1` values runs it: a trim that
    /// swallows the column falls back to the median, and `keep` is clamped
    /// into `1..=m`.
    fn for_full_column(self, m: usize) -> Self {
        match self {
            OrderStatistic::TrimmedMean { trim } if m <= 2 * trim => OrderStatistic::Median,
            OrderStatistic::MeanAroundMedian { keep } => {
                OrderStatistic::MeanAroundMedian { keep: keep.min(m).max(1) }
            }
            rule => rule,
        }
    }

    /// Sorted positions a rule returned by [`OrderStatistic::for_full_column`]
    /// reads of its `m` values — all the pruned network has to place.
    fn window(self, m: usize) -> Range<usize> {
        match self {
            OrderStatistic::Median => (m - 1) / 2..m / 2 + 1,
            OrderStatistic::TrimmedMean { trim } => trim..m - trim,
            // The walk starts at m/2 and takes `keep` steps, looking one
            // position past the window it has on either side.
            OrderStatistic::MeanAroundMedian { keep } => {
                (m / 2).saturating_sub(keep)..(m / 2 + keep).min(m)
            }
        }
    }
}

/// Which instantiation of the tile body a reduction runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TileWidth {
    /// 256-bit where the running CPU has AVX2, baseline otherwise.
    Detected,
    /// Baseline whatever the CPU has: the copy tests hold `Detected` against.
    Baseline,
}

/// Scratch for one lane-major tile, cache-line aligned so a row of lanes
/// never straddles two lines. On the stack: a reduction allocates nothing.
#[repr(align(64))]
struct TileScratch([f32; MAX_NETWORK_N * WIDE_LANES]);

/// One order-statistic reduction over the tiles of a batch: everything
/// [`GradientBatch::network_reduce`] fixes before it fans out over column
/// blocks.
///
/// # Vector width
///
/// Gather → network → finish is one `#[inline(always)]` body
/// ([`TileReduce::block_body`]) of plain loops over fixed-size lane arrays
/// with two instantiations, exactly like [`crate::gemm`]'s tiles: the
/// baseline one (128-bit on x86-64, the only one elsewhere) and a
/// `#[target_feature(enable = "avx2")]` wrapper that [`TileReduce::block`]
/// calls when the CPU has AVX2. A lane is a different *column*; no operation
/// crosses lanes, Rust never reassociates float arithmetic and `fma` is not
/// enabled, so both copies compute every column with the same operations in
/// the same order — `tests/order_statistic_tiles.rs` runs both on every
/// case.
struct TileReduce<'a> {
    batch: &'a GradientBatch,
    rows: Option<&'a [usize]>,
    /// Rows reduced per column.
    m: usize,
    /// The rule as asked — what a lane holding fewer than `m` non-NaN values
    /// needs, relative to its own count.
    rule: OrderStatistic,
    /// The rule [`OrderStatistic::for_full_column`] of `m`: the vertical
    /// finish of NaN-free tiles.
    full_rule: OrderStatistic,
    /// Full sort, for tiles carrying a NaN.
    sort: &'static SelectionNetwork,
    /// Pruned to `full_rule`'s window, for NaN-free tiles.
    select: &'static SelectionNetwork,
}

impl TileReduce<'_> {
    /// Reduces the columns `range` into `dst` at the widest instantiation
    /// `width` allows.
    fn block(&self, range: Range<usize>, dst: &mut [f32], width: TileWidth) -> Result<()> {
        #[cfg(target_arch = "x86_64")]
        if width == TileWidth::Detected && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: avx2, the one feature `block_avx2` enables, was just
            // detected on the running CPU.
            return unsafe { self.block_avx2(range, dst) };
        }
        let _ = width; // read only where there is a wider copy to choose
        self.block_body(range, dst)
    }

    /// [`TileReduce::block_body`] compiled for 256-bit vectors.
    ///
    /// # Safety
    ///
    /// The running CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn block_avx2(&self, range: Range<usize>, dst: &mut [f32]) -> Result<()> {
        self.block_body(range, dst)
    }

    /// The tiles of one column block, at the vector width of whichever
    /// function this is inlined into.
    #[inline(always)]
    fn block_body(&self, range: Range<usize>, dst: &mut [f32]) -> Result<()> {
        let mut scratch = TileScratch([0.0; MAX_NETWORK_N * WIDE_LANES]);
        let mut start = range.start;
        let mut done = 0usize;
        while start < range.end {
            // Tiles snap to the global W-column grid rather than to the
            // range start: a shard or block boundary can land anywhere, and
            // an off-grid tile makes every row gather straddle two cache
            // lines (measured ~4% on the whole kernel). One short leading
            // tile per off-grid range restores alignment for everything
            // that follows.
            let grid_next = (start / WIDE_LANES + 1) * WIDE_LANES;
            let width = range.end.min(grid_next) - start;
            let slot = &mut dst[done..done + width];
            if width > NARROW_LANES {
                self.tile::<WIDE_LANES>(start, &mut scratch.0[..self.m * WIDE_LANES], slot)?;
            } else {
                self.tile::<NARROW_LANES>(start, &mut scratch.0[..self.m * NARROW_LANES], slot)?;
            }
            start += width;
            done += width;
        }
        Ok(())
    }

    /// Gathers, sorts and reduces one lane-major tile of `out.len() ≤ W`
    /// columns starting at `col0`, writing one result per column into `out`.
    #[inline(always)]
    fn tile<const W: usize>(&self, col0: usize, tile: &mut [f32], out: &mut [f32]) -> Result<()> {
        let (m, width) = (self.m, out.len());
        debug_assert!(width <= W && tile.len() == m * W);
        // A plain copy of each row's slice, noting only *whether* a NaN came
        // along: per-lane counts are the NaN tile's business.
        let mut nan = [0u32; W];
        for (slot, dst) in tile.chunks_exact_mut(W).enumerate() {
            let dst: &mut [f32; W] = dst.try_into().expect("lane width");
            let row = self.batch.row(self.rows.map_or(slot, |rows| rows[slot]));
            let src = &row[col0..col0 + width];
            match <&[f32; W]>::try_from(src) {
                Ok(src) => *dst = *src,
                Err(_) => {
                    // Padding lanes of a ragged tail ride through the
                    // network as zeros and are never read back.
                    dst[..width].copy_from_slice(src);
                    dst[width..].fill(0.0);
                }
            }
            for w in 0..W {
                nan[w] |= u32::from(dst[w].is_nan());
            }
        }
        if nan.iter().any(|&lane| lane != 0) {
            return self.nan_tile::<W>(tile, out);
        }
        self.select.apply_lanes::<W>(tile);
        let lanes: [f32; W] = match self.full_rule {
            OrderStatistic::Median => sortnet::median_lanes(tile, m),
            OrderStatistic::TrimmedMean { trim } => {
                sortnet::mean_of_rows_lanes(tile, trim..m - trim)
            }
            OrderStatistic::MeanAroundMedian { keep } => {
                sortnet::mean_around_median_lanes(tile, m, keep)
            }
        };
        out.copy_from_slice(&lanes[..width]);
        Ok(())
    }

    /// Finishes a gathered tile that carries a NaN: canonicalises NaN to
    /// `+∞` counting what is left per lane, runs the full sorting network,
    /// and reduces each lane by its own finite count (see the
    /// [`crate::sortnet`] module docs on canonicalisation).
    #[inline(always)]
    fn nan_tile<const W: usize>(&self, tile: &mut [f32], out: &mut [f32]) -> Result<()> {
        let mut finite = [self.m; W];
        for row in tile.chunks_exact_mut(W) {
            for (v, k) in row.iter_mut().zip(&mut finite) {
                if v.is_nan() {
                    *v = f32::INFINITY;
                    *k -= 1;
                }
            }
        }
        self.sort.apply_lanes::<W>(tile);
        for (w, slot) in out.iter_mut().enumerate() {
            let lane = SortedLane { tile, lanes: W, lane: w, finite: finite[w] };
            *slot = lane.reduce(self.rule, self.m)?;
        }
        Ok(())
    }
}

/// One sorted column inside a lane-major network tile: position `p` of the
/// sorted order lives at `tile[p * lanes + lane]`. Canonicalised NaNs
/// (`+∞`) occupy the tail, so the prefix `0..finite` is exactly the sorted
/// non-NaN multiset of the original column.
struct SortedLane<'a> {
    tile: &'a [f32],
    lanes: usize,
    lane: usize,
    /// Number of non-NaN values in this column (`k`); order statistics are
    /// taken relative to this, never the padded row count.
    finite: usize,
}

impl SortedLane<'_> {
    /// The `p`-th smallest value of the column.
    #[inline]
    fn get(&self, p: usize) -> f32 {
        self.tile[p * self.lanes + self.lane]
    }

    /// Median of the sorted prefix `0..k` (midpoint convention for even
    /// `k`, matching [`median_of_scratch`]).
    #[inline]
    fn prefix_median(&self, k: usize) -> f32 {
        if k % 2 == 1 {
            self.get(k / 2)
        } else {
            0.5 * (self.get(k / 2 - 1) + self.get(k / 2))
        }
    }

    /// `rule` over this column of `m` submissions, `finite` of them not NaN.
    fn reduce(&self, rule: OrderStatistic, m: usize) -> Result<f32> {
        let k = self.finite;
        if k == 0 {
            return Err(TensorError::EmptyInput(rule.label()));
        }
        Ok(match rule {
            OrderStatistic::Median => self.prefix_median(k),
            // Fallback: median of whatever finite values remain.
            OrderStatistic::TrimmedMean { trim } if k <= 2 * trim => self.prefix_median(k),
            OrderStatistic::TrimmedMean { trim } => {
                let mut sum = 0.0f32;
                for p in trim..k - trim {
                    sum += self.get(p);
                }
                sum / (k - 2 * trim) as f32
            }
            OrderStatistic::MeanAroundMedian { keep } => {
                let mut sorted = [0.0f32; MAX_NETWORK_N];
                for (p, v) in sorted[..k].iter_mut().enumerate() {
                    *v = self.get(p);
                }
                mean_of_closest_to_median_sorted(&sorted[..k], m, keep)
            }
        })
    }
}

/// A borrowed view of one contiguous column range of a [`GradientBatch`],
/// exposing the fused coordinate kernels restricted to those columns.
///
/// Produced by [`GradientBatch::columns`]. This is the per-shard kernel
/// surface of the sharded aggregation layer: every coordinate-wise rule runs
/// one invocation per shard on such a view, and the distance-based rules use
/// [`BatchColumns::distance_partials`] for their per-shard contribution to
/// the global distance matrix. Each kernel writes one entry per column of
/// the view into the caller's `out`, in column order, computed exactly as the
/// full-width kernel would compute those columns (the per-column reductions
/// are independent, so restricting the range is bit-identical).
#[derive(Debug, Clone)]
pub struct BatchColumns<'a> {
    batch: &'a GradientBatch,
    cols: Range<usize>,
}

impl BatchColumns<'_> {
    /// The column range this view covers.
    pub fn range(&self) -> Range<usize> {
        self.cols.clone()
    }

    /// Number of columns in the view.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Validates a caller-provided output slice against the view's width.
    fn check_out(&self, out: &[f32]) -> Result<()> {
        if out.len() != self.cols.len() {
            return Err(TensorError::dim(self.cols.len(), out.len()));
        }
        Ok(())
    }

    /// Coordinate-wise mean over these columns, written into `out` (one slot
    /// per column of the view); `rows` optionally restricts the reduction to
    /// a row subset (selection averaging). Writing into the caller's buffer
    /// lets a sharded aggregator place every shard's output directly into
    /// the final update.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyInput`] for an empty batch or selection,
    /// [`TensorError::IndexOutOfBounds`] for an invalid row index and
    /// [`TensorError::DimensionMismatch`] when `out` does not match the
    /// view's width.
    pub fn mean_into(&self, rows: Option<&[usize]>, out: &mut [f32]) -> Result<()> {
        self.check_out(out)?;
        let label = if rows.is_some() { "mean_of_rows" } else { "coordinate_mean" };
        self.batch.mean_blocks(rows, false, label, self.cols.clone(), out)
    }

    /// NaN-skipping coordinate-wise mean over these columns, written into
    /// `out`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GradientBatch::coordinate_nan_mean`], plus
    /// [`TensorError::DimensionMismatch`] on a mis-sized `out`.
    pub fn nan_mean_into(&self, out: &mut [f32]) -> Result<()> {
        self.check_out(out)?;
        self.batch.mean_blocks(None, true, "coordinate_nan_mean", self.cols.clone(), out)
    }

    /// NaN-tolerant coordinate-wise median over these columns, written into
    /// `out`; `rows` optionally restricts it to a row subset.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GradientBatch::coordinate_median`], plus
    /// [`TensorError::IndexOutOfBounds`] for an invalid row index and
    /// [`TensorError::DimensionMismatch`] on a mis-sized `out`.
    pub fn median_into(&self, rows: Option<&[usize]>, out: &mut [f32]) -> Result<()> {
        self.check_out(out)?;
        self.batch.order_statistic(OrderStatistic::Median, rows, self.cols.clone(), out)
    }

    /// Coordinate-wise trimmed mean over these columns, written into `out`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GradientBatch::coordinate_trimmed_mean`], plus
    /// [`TensorError::DimensionMismatch`] on a mis-sized `out`.
    pub fn trimmed_mean_into(&self, trim: usize, out: &mut [f32]) -> Result<()> {
        self.check_out(out)?;
        self.batch.order_statistic(
            OrderStatistic::TrimmedMean { trim },
            None,
            self.cols.clone(),
            out,
        )
    }

    /// Mean of the `keep` values closest to the coordinate-wise median, over
    /// these columns (MeaMed / Bulyan phase 2), written into `out`; `rows`
    /// optionally restricts it to a row subset.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GradientBatch::mean_around_median`], plus
    /// [`TensorError::IndexOutOfBounds`] for an invalid row index and
    /// [`TensorError::DimensionMismatch`] on a mis-sized `out`.
    pub fn mean_around_median_into(
        &self,
        rows: Option<&[usize]>,
        keep: usize,
        out: &mut [f32],
    ) -> Result<()> {
        self.check_out(out)?;
        let rule = OrderStatistic::MeanAroundMedian { keep };
        self.batch.order_statistic(rule, rows, self.cols.clone(), out)
    }

    /// Raw per-pair partial squared distances over these columns (see
    /// [`GradientBatch::pairwise_squared_distance_partials`]).
    pub fn distance_partials(&self) -> DistanceMatrix {
        self.batch.pairwise_squared_distance_partials(self.cols.clone())
    }
}

/// Flat, upper-triangular pairwise squared-distance matrix.
///
/// Stores only the `n·(n−1)/2` distances above the diagonal; `get(i, j)`
/// serves both orders and the zero diagonal. Produced by
/// [`GradientBatch::pairwise_squared_distances`] and shared by Multi-Krum
/// and Bulyan (the paper's key optimisation: compute distances once, re-rank
/// scores many times).
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    /// Upper triangle in row-major pair order: `(0,1), (0,2), …, (n−2,n−1)`.
    data: Vec<f32>,
}

impl DistanceMatrix {
    /// An all-zero matrix for `n` gradients — the identity of the per-shard
    /// partial reduce.
    pub fn zeros(n: usize) -> Self {
        DistanceMatrix { n, data: vec![0.0; n.saturating_sub(1) * n / 2] }
    }

    /// Wraps an already-computed flat upper triangle (row-major pair order).
    /// Used by the incremental accumulator in [`crate::streaming`], which
    /// assembles the triangle pair by pair as rows arrive.
    ///
    /// # Panics
    ///
    /// Panics (debug) when `data` is not exactly `n·(n−1)/2` entries.
    pub(crate) fn from_triangle(n: usize, data: Vec<f32>) -> Self {
        debug_assert_eq!(data.len(), n.saturating_sub(1) * n / 2, "triangle length mismatch");
        DistanceMatrix { n, data }
    }

    /// Adds another matrix's pair entries into this one, element-wise.
    ///
    /// This is the cross-shard reduce of the distance decomposition: summing
    /// each shard's raw partial matrix (in fixed shard order, so the result
    /// is bit-reproducible under any thread count) yields the full-dimension
    /// squared distances. Call
    /// [`DistanceMatrix::map_non_finite_to_infinity`] once after the last
    /// shard to apply the non-finite policy.
    ///
    /// # Panics
    ///
    /// Panics when the two matrices disagree on `n`.
    pub fn accumulate(&mut self, other: &DistanceMatrix) {
        assert_eq!(self.n, other.n, "cannot accumulate distance matrices of different sizes");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Maps every non-finite pair distance to `+∞`, the paper's corrupt-
    /// gradient policy ([`GradientBatch::pairwise_squared_distances`] ends
    /// with it; raw partial sums defer it to here so NaN propagates
    /// faithfully through the cross-shard reduce).
    pub fn map_non_finite_to_infinity(&mut self) {
        for v in &mut self.data {
            if !v.is_finite() {
                *v = f32::INFINITY;
            }
        }
    }

    /// Number of gradients the matrix was built from.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored (unordered) pairs.
    pub fn pair_count(&self) -> usize {
        self.data.len()
    }

    /// Squared distance between gradients `i` and `j` (0 on the diagonal).
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        assert!(i < self.n && j < self.n, "distance index out of range");
        if i == j {
            return 0.0;
        }
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        self.data[lo * (2 * self.n - lo - 1) / 2 + (hi - lo - 1)]
    }

    /// Expands into the dense symmetric `n × n` representation (for callers
    /// and tests that want plain nested vectors).
    pub fn to_dense(&self) -> Vec<Vec<f32>> {
        (0..self.n).map(|i| (0..self.n).map(|j| self.get(i, j)).collect()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(rows: &[&[f32]]) -> GradientBatch {
        let vs: Vec<Vector> = rows.iter().map(|r| Vector::from(*r)).collect();
        GradientBatch::from_vectors(&vs).unwrap()
    }

    /// A column-view `_into` kernel run into a fresh buffer of the view's
    /// width.
    fn collect(view: &BatchColumns<'_>, kernel: impl FnOnce(&mut [f32]) -> Result<()>) -> Vec<f32> {
        let mut out = vec![0.0f32; view.width()];
        kernel(&mut out).unwrap();
        out
    }

    #[test]
    fn construction_and_row_views() {
        let b = batch(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(b.n(), 3);
        assert_eq!(b.dim(), 2);
        assert_eq!(b.row(1), &[3.0, 4.0]);
        assert_eq!(b.rows().count(), 3);
        assert_eq!(b.row_vector(2).as_slice(), &[5.0, 6.0]);
        assert_eq!(b.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn construction_rejects_empty_and_ragged() {
        assert!(GradientBatch::from_vectors(&[]).is_err());
        let mut b = GradientBatch::new(2);
        assert!(b.push_row(&[1.0, 2.0, 3.0]).is_err());
        assert!(b.push_row(&[1.0, 2.0]).is_ok());
        assert_eq!(b.n(), 1);
        assert!(GradientBatch::from_vectors(&[Vector::zeros(2), Vector::zeros(3)]).is_err());
    }

    #[test]
    fn triangular_distances_match_pairwise_definition() {
        let b = batch(&[&[0.0, 0.0], &[3.0, 4.0], &[0.0, 1.0]]);
        let m = b.pairwise_squared_distances();
        assert_eq!(m.n(), 3);
        assert_eq!(m.pair_count(), 3);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(0, 1), 25.0);
        assert_eq!(m.get(1, 0), 25.0);
        assert_eq!(m.get(0, 2), 1.0);
        assert_eq!(m.get(1, 2), 18.0);
        let dense = m.to_dense();
        assert_eq!(dense[2][1], 18.0);
        assert_eq!(GradientBatch::new(2).pairwise_squared_distances().n(), 0);
    }

    #[test]
    fn non_finite_distances_map_to_infinity() {
        let b = batch(&[&[f32::NAN], &[1.0], &[f32::INFINITY]]);
        let m = b.pairwise_squared_distances();
        assert_eq!(m.get(0, 1), f32::INFINITY);
        assert_eq!(m.get(1, 2), f32::INFINITY);
        assert_eq!(m.get(0, 2), f32::INFINITY);
    }

    #[test]
    fn means_match_slice_kernels() {
        let b = batch(&[&[1.0, 10.0], &[2.0, 20.0], &[3.0, 90.0]]);
        assert_eq!(b.coordinate_mean().unwrap().as_slice(), &[2.0, 40.0]);
        let view = b.columns(0..2);
        assert_eq!(collect(&view, |out| view.mean_into(Some(&[0, 2]), out)), [2.0, 50.0]);
        assert!(view.mean_into(Some(&[]), &mut [0.0; 2]).is_err());
        assert!(view.mean_into(Some(&[7]), &mut [0.0; 2]).is_err());
    }

    #[test]
    fn nan_mean_skips_lost_coordinates() {
        let b = batch(&[&[1.0, f32::NAN], &[3.0, f32::NAN]]);
        assert_eq!(b.coordinate_nan_mean().unwrap().as_slice(), &[2.0, 0.0]);
        let poisoned = batch(&[&[1.0], &[f32::NAN]]);
        assert!(poisoned.coordinate_mean().unwrap()[0].is_nan());
        assert_eq!(poisoned.coordinate_nan_mean().unwrap()[0], 1.0);
    }

    #[test]
    fn median_matches_slice_kernel_and_errors_on_all_nan_column() {
        let b = batch(&[&[1.0, f32::NAN], &[3.0, 5.0], &[2.0, 7.0]]);
        assert_eq!(b.coordinate_median().unwrap().as_slice(), &[2.0, 6.0]);
        let view = b.columns(0..2);
        assert_eq!(collect(&view, |out| view.median_into(Some(&[1, 2]), out)), [2.5, 6.0]);
        let all_nan = batch(&[&[f32::NAN], &[f32::NAN]]);
        assert!(all_nan.coordinate_median().is_err());
    }

    #[test]
    fn trimmed_mean_trims_and_falls_back() {
        let b = batch(&[&[100.0], &[1.0], &[2.0], &[3.0], &[-50.0]]);
        assert_eq!(b.coordinate_trimmed_mean(1).unwrap().as_slice(), &[2.0]);
        // trim too large for the finite count: falls back to the median.
        let nan_heavy = batch(&[&[f32::NAN], &[f32::NAN], &[3.0]]);
        assert_eq!(nan_heavy.coordinate_trimmed_mean(1).unwrap().as_slice(), &[3.0]);
        let all_nan = batch(&[&[f32::NAN]]);
        assert!(all_nan.coordinate_trimmed_mean(0).is_err());
    }

    #[test]
    fn mean_around_median_ignores_non_finite() {
        let b = batch(&[&[10.0], &[1.9], &[2.2], &[-5.0]]);
        let out = b.mean_around_median(2).unwrap();
        // median of {10, 1.9, 2.2, -5} = 2.05; two closest are 1.9 and 2.2.
        assert!((out[0] - 2.05).abs() < 1e-6);
        let corrupt = batch(&[&[f32::NAN], &[1.0], &[f32::INFINITY], &[3.0]]);
        assert_eq!(corrupt.mean_around_median(2).unwrap().as_slice(), &[2.0]);
    }

    #[test]
    fn large_batch_exercises_the_parallel_paths() {
        // n·d and pairs·d both clear PARALLEL_MIN_WORK.
        let n = 12;
        let d = 40_000;
        let mut b = GradientBatch::with_capacity(d, n);
        for i in 0..n {
            let row: Vec<f32> = (0..d).map(|c| ((i * 31 + c * 7) % 13) as f32).collect();
            b.push_row(&row).unwrap();
        }
        let mean = b.coordinate_mean().unwrap();
        let median = b.coordinate_median().unwrap();
        assert_eq!(mean.len(), d);
        assert_eq!(median.len(), d);
        let m = b.pairwise_squared_distances();
        // Spot-check symmetry against the direct slice kernel.
        for (i, j) in [(0usize, 1usize), (3, 9), (10, 11)] {
            let expected = ops::squared_distance(b.row(i), b.row(j));
            assert_eq!(m.get(i, j), expected);
            assert_eq!(m.get(j, i), expected);
        }
    }

    #[test]
    fn every_parallel_region_is_bit_identical_at_every_thread_budget() {
        // n·d and pairs·d clear PARALLEL_MIN_WORK, so the distance walk's tile
        // groups, the coordinate blocks (`mean_blocks`, `column_reduce`) and
        // the order-statistic blocks (`network_reduce`) all fan out above
        // budget 1; a NaN and a +∞ coordinate take their non-finite paths.
        let (n, d) = (19, 40_000);
        assert!(n * d >= PARALLEL_MIN_WORK);
        let mut b = GradientBatch::with_capacity(d, n);
        for i in 0..n {
            b.push_row_with(|row| {
                for (c, x) in row.iter_mut().enumerate() {
                    *x = ((i * 31 + c * 7) % 113) as f32 * 0.37 - 20.0;
                }
            });
        }
        b.row_mut(4)[123] = f32::NAN;
        b.row_mut(9)[d - 1] = f32::INFINITY;
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let all = b.columns(0..d);
        let kernels = || -> Vec<Vec<u32>> {
            vec![
                bits(&b.pairwise_squared_distances().data),
                bits(b.coordinate_mean().unwrap().as_slice()),
                bits(b.coordinate_nan_mean().unwrap().as_slice()),
                bits(&collect(&all, |out| all.mean_into(Some(&[0, 2, 3, 5, 7, 11, 13, 17]), out))),
                bits(b.order_statistic_quickselect(OrderStatistic::Median).unwrap().as_slice()),
                bits(b.coordinate_median().unwrap().as_slice()),
                bits(b.coordinate_trimmed_mean(4).unwrap().as_slice()),
                bits(b.mean_around_median(11).unwrap().as_slice()),
            ]
        };
        let runs: Vec<Vec<Vec<u32>>> = [1, 2, 4]
            .into_iter()
            .map(|threads| {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build();
                pool.expect("the shim's pools always build").install(kernels)
            })
            .collect();
        for (kernel, sequential) in runs[0].iter().enumerate() {
            for (run, budget) in runs[1..].iter().zip([2, 4]) {
                assert!(run[kernel] == *sequential, "kernel {kernel} diverged at budget {budget}");
            }
        }
    }

    #[test]
    fn clear_and_push_row_with_reuse_the_allocation() {
        let mut b = GradientBatch::with_capacity(3, 2);
        b.push_row_with(|dst| dst.copy_from_slice(&[1.0, 2.0, 3.0]));
        b.push_row_with(|dst| dst.fill(7.0));
        assert_eq!(b.n(), 2);
        assert_eq!(b.row(1), &[7.0, 7.0, 7.0]);
        let ptr = b.as_slice().as_ptr();
        b.clear();
        assert!(b.is_empty());
        b.push_row_with(|dst| dst.fill(0.5));
        assert_eq!(b.n(), 1);
        assert_eq!(b.row(0), &[0.5, 0.5, 0.5]);
        assert_eq!(b.as_slice().as_ptr(), ptr, "clear() must keep the arena allocation");
    }

    #[test]
    fn slot_rows_and_retain_compact_in_order() {
        let mut b = GradientBatch::new(2);
        b.resize_rows(4);
        for (i, row) in b.rows_mut().into_iter().enumerate() {
            row.fill(i as f32);
        }
        b.row_mut(2).copy_from_slice(&[9.0, 9.0]);
        b.retain_rows(&[true, false, true, true]);
        assert_eq!(b.n(), 3);
        assert_eq!(b.row(0), &[0.0, 0.0]);
        assert_eq!(b.row(1), &[9.0, 9.0]);
        assert_eq!(b.row(2), &[3.0, 3.0]);
        b.retain_rows(&[false, false, false]);
        assert!(b.is_empty());
        // Resizing restores the slot layout for the next round.
        b.resize_rows(2);
        assert_eq!(b.n(), 2);
    }

    /// Row-at-a-time compaction, the loop the block-parallel
    /// [`GradientBatch::retain_rows`] replaced, kept as its oracle.
    fn retain_rows_row_at_a_time(b: &mut GradientBatch, keep: &[bool]) {
        let d = b.d;
        let mut kept = 0usize;
        for (i, &k) in keep.iter().enumerate() {
            if k {
                if i != kept && d > 0 {
                    b.data.copy_within(i * d..(i + 1) * d, kept * d);
                }
                kept += 1;
            }
        }
        b.data.truncate(kept * d);
        b.n = kept;
    }

    #[test]
    fn block_parallel_compaction_equals_the_row_at_a_time_loop() {
        // At d = 200 003 a single moved row clears PARALLEL_MIN_WORK, so
        // every pattern that moves a row fans its column blocks out above
        // budget 1 (the last block ragged); d = 3 and 700 stay serial.
        type Keeps = fn(usize) -> bool;
        let n = 9;
        let patterns: [(&str, Keeps); 5] = [
            ("drop the first row", |i| i != 0),
            ("drop the last row", |i| i != 8),
            ("drop every other row", |i| i % 2 == 0),
            ("drop all but one", |i| i == 6),
            ("keep every row", |_| true),
        ];
        for d in [3, 700, 200_003] {
            let mut full = GradientBatch::with_capacity(d, n);
            for i in 0..n {
                full.push_row_with(|row| {
                    for (c, x) in row.iter_mut().enumerate() {
                        *x = (i * 1_000_003 + c) as f32;
                    }
                });
            }
            for (name, kept) in &patterns {
                let keep: Vec<bool> = (0..n).map(*kept).collect();
                let mut expected = full.clone();
                retain_rows_row_at_a_time(&mut expected, &keep);
                for threads in [1, 2, 4] {
                    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build();
                    let mut compacted = full.clone();
                    pool.expect("the shim's pools always build")
                        .install(|| compacted.retain_rows(&keep));
                    assert!(compacted == expected, "{name}, d = {d}, budget {threads}");
                }
            }
        }
    }

    #[test]
    fn the_tree_tier_dimension_splits_into_several_column_blocks() {
        // elastic_tree256's d = 4 138: the coordinate kernels and the
        // compaction have more than one block to deal out.
        let blocks = column_blocks(&(0..4_138));
        assert!(blocks.len() >= 2, "{} block(s)", blocks.len());
        assert_eq!(blocks.first().map(|b| b.start), Some(0));
        assert_eq!(blocks.last().map(|b| b.end), Some(4_138));
    }

    #[test]
    #[should_panic(expected = "one keep flag per row")]
    fn retain_rows_requires_one_flag_per_row() {
        let mut b = GradientBatch::new(1);
        b.resize_rows(2);
        b.retain_rows(&[true]);
    }

    #[test]
    fn column_views_match_full_width_kernels() {
        let b = batch(&[
            &[1.0, 10.0, 100.0, -1.0, f32::NAN],
            &[2.0, 20.0, 200.0, -2.0, 5.0],
            &[3.0, 90.0, 300.0, -3.0, 7.0],
            &[4.0, 40.0, 400.0, -4.0, 9.0],
        ]);
        let cols = 1..4;
        let view = b.columns(cols.clone());
        assert_eq!(view.width(), 3);
        assert_eq!(view.range(), cols.clone());
        let full = b.coordinate_mean().unwrap();
        assert_eq!(collect(&view, |out| view.mean_into(None, out)), &full.as_slice()[cols.clone()]);
        let full = b.coordinate_nan_mean().unwrap();
        assert_eq!(collect(&view, |out| view.nan_mean_into(out)), &full.as_slice()[cols.clone()]);
        let full = b.coordinate_median().unwrap();
        assert_eq!(
            collect(&view, |out| view.median_into(None, out)),
            &full.as_slice()[cols.clone()]
        );
        let full = b.coordinate_trimmed_mean(1).unwrap();
        let trimmed = collect(&view, |out| view.trimmed_mean_into(1, out));
        assert_eq!(trimmed, &full.as_slice()[cols.clone()]);
        let full = b.mean_around_median(2).unwrap();
        let around = collect(&view, |out| view.mean_around_median_into(None, 2, out));
        assert_eq!(around, &full.as_slice()[cols.clone()]);
        let all = b.columns(0..5);
        let full = collect(&all, |out| all.mean_into(Some(&[0, 2]), out));
        assert_eq!(collect(&view, |out| view.mean_into(Some(&[0, 2]), out)), &full[cols]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn column_view_rejects_out_of_range_columns() {
        batch(&[&[1.0, 2.0]]).columns(1..3);
    }

    #[test]
    fn shard_partials_reduce_to_the_full_distance_matrix() {
        let n = 7;
        let d = 9001; // not a multiple of the distance block or the lane count
        let mut b = GradientBatch::with_capacity(d, n);
        for i in 0..n {
            let row: Vec<f32> = (0..d).map(|c| ((i * 37 + c * 11) % 17) as f32 - 8.0).collect();
            b.push_row(&row).unwrap();
        }
        let full = b.pairwise_squared_distances();
        for shards in [1usize, 2, 3, 5] {
            let plan = crate::ShardPlan::new(d, shards).unwrap();
            let mut acc = DistanceMatrix::zeros(n);
            for range in plan.ranges() {
                acc.accumulate(&b.columns(range).distance_partials());
            }
            acc.map_non_finite_to_infinity();
            for i in 0..n {
                for j in 0..n {
                    let a = acc.get(i, j);
                    let e = full.get(i, j);
                    assert!(
                        (a - e).abs() <= 1e-4 * e.abs().max(1.0),
                        "shards={shards} ({i},{j}): {a} vs {e}"
                    );
                }
            }
        }
    }

    #[test]
    fn shard_partials_propagate_non_finite_through_the_reduce() {
        let b = batch(&[&[f32::NAN, 1.0, 2.0], &[0.0, 1.0, 2.0], &[0.0, f32::INFINITY, 2.0]]);
        let plan = crate::ShardPlan::new(3, 3).unwrap();
        let mut acc = DistanceMatrix::zeros(3);
        for range in plan.ranges() {
            acc.accumulate(&b.columns(range).distance_partials());
        }
        acc.map_non_finite_to_infinity();
        assert_eq!(acc.get(0, 1), f32::INFINITY);
        assert_eq!(acc.get(0, 2), f32::INFINITY);
        assert_eq!(acc.get(1, 2), f32::INFINITY);
    }

    #[test]
    #[should_panic(expected = "different sizes")]
    fn accumulate_rejects_mismatched_matrices() {
        DistanceMatrix::zeros(3).accumulate(&DistanceMatrix::zeros(4));
    }

    #[test]
    fn zero_dimension_batches_are_tolerated() {
        let mut b = batch(&[&[], &[]]);
        assert_eq!(b.dim(), 0);
        assert_eq!(b.coordinate_mean().unwrap().len(), 0);
        assert_eq!(b.pairwise_squared_distances().get(0, 1), 0.0);
        let rows = b.rows_mut();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.is_empty()));
    }
}
