//! Branch-free vertical selection networks for the order-statistic kernels.
//!
//! # Why networks, and why vertical
//!
//! The coordinate-wise rules (median, trimmed mean, MeaMed, Bulyan's second
//! phase) reduce `d` independent columns of `n` values each, with `n` the
//! worker count — small (≤ a few dozen) and fixed for a whole round. A
//! data-dependent selection algorithm like quickselect is the right tool for
//! one large array, but at worker-count sizes it is all overhead: every
//! partition step branches on the data, the branches are unpredictable by
//! construction (the pivot splits the column near 50/50), and nothing
//! vectorises. Profiling put the scalar `select_nth_unstable` path at
//! ~250 ns per coordinate — 25 ms per round at d = 100k, the single largest
//! per-round cost left in the system.
//!
//! A **sorting network** is the opposite trade: a fixed sequence of
//! compare–exchange operations, chosen once from `n` alone, that sorts *any*
//! input. No data-dependent control flow exists, so the same network can be
//! executed **vertically**: lay W columns side by side (`[f32; W]` lanes,
//! W = 8–16), and run each compare–exchange as an elementwise min/max over
//! whole lanes. Every operation is a vector min/max the autovectoriser emits
//! readily on stable Rust, the tile (`n × W × 4` bytes, ~1.2 KiB at the
//! paper's n = 19) lives in L1, and one pass sorts sixteen columns at once.
//!
//! # The finish is vertical too
//!
//! Sorting sixteen columns at once buys little if each is then reduced on
//! its own: with the sort vertical and the finish a scalar per-lane loop,
//! Bulyan's second phase (θ = 11 rows, the β = 3 values closest to the
//! median) spent more than half its time in that loop, whose "left or right"
//! branch is a coin flip. On a NaN-free tile every lane holds the same number
//! of values, so the finish is the same fixed sequence of operations in every
//! lane and runs over whole rows of the sorted tile as well:
//! `median_lanes` copies the middle row or halves the sum of the two middle
//! rows, `mean_of_rows_lanes` adds the trimmed mean's kept rows in
//! ascending order, and `mean_around_median_lanes` replays the
//! closest-to-median walk with selects in place of branches. Each lane does
//! exactly the `f32` operations, in exactly the order, of the scalar rule, so
//! the bits do not move. Only a tile that carries a NaN — whose lanes then
//! hold *different* numbers of values — is still finished lane by lane.
//!
//! Gather, network and finish are therefore all plain loops over lane
//! arrays, which `batch.rs` compiles once for baseline x86-64 and once for
//! AVX2 (lanes are independent columns, so the width cannot change a bit
//! either). Measured at the paper's d = 102 538 on one thread
//! (`cargo bench -p agg-bench --bench gar_kernels`, group
//! `order_statistic_tiles`), in nanoseconds per row-coordinate read:
//! Bulyan's second phase ≈ 4.2 with the scalar finish → ≈ 1.6; the median at
//! n = 19 ≈ 2.3 → ≈ 1.1; the trimmed mean ≈ 2.8 → ≈ 1.3; MeaMed keeping 15 of
//! 19 ≈ 8.9 → ≈ 5.2 — against ~12 for the quickselect median.
//!
//! # The Batcher construction
//!
//! [`SelectionNetwork::sorting`] generates Batcher's odd–even mergesort: a
//! recursive merge of sorted halves, expressed here in the classic iterative
//! form (outer loop over merge phase sizes `p = 1, 2, 4, …`, inner loops
//! over the comparison strides `k = p, p/2, …, 1`). The construction is
//! valid for any `n`, not only powers of two, and costs O(n log² n)
//! compare–exchanges — 98 for n = 19. Optimal hand-crafted networks exist
//! for tiny `n`, but Batcher is within a few comparators of optimal in this
//! range and one uniform construction keeps the code honest.
//!
//! The rules rarely need the whole sorted column: the median reads one or
//! two positions, the trimmed mean a middle window. [`SelectionNetwork::
//! selecting`] prunes the sorting network for a contiguous window of output
//! positions by a backward liveness pass: walking the comparator list in
//! reverse, a compare–exchange is kept only if it touches a position whose
//! final value must be correct, and keeping it marks both of its wires
//! live. Dropping a comparator that touches no live wire cannot change any
//! live value (inductively, forward: the dropped comparator writes only
//! dead positions, and every kept comparator sees the same inputs it would
//! have seen in the full network). The pruned network places the requested
//! window of order statistics exactly where the full sort would.
//!
//! # NaN canonicalisation and the total order
//!
//! The scalar kernels first drop NaN values, then compare with
//! `partial_cmp`/`total_cmp` over the NaN-free remainder. Min/max lanes
//! cannot "drop" a value, so the kernel driver canonicalises instead: a
//! gather pre-pass replaces every NaN with `+∞` (counting the replacements
//! per lane) before the network runs. Over NaN-free data the comparison
//! select `if y < x { y } else { x }` is a total order agreeing with
//! `total_cmp` everywhere the kernels can observe (the one divergence,
//! `-0.0` vs `+0.0`, is between numerically equal values). Canonicalised
//! NaNs tie with genuine `+∞` submissions and sort to the tail, so for a
//! lane with `k` non-NaN values the sorted prefix `0..k` is exactly the
//! sorted non-NaN multiset the scalar kernel operates on — the consumer
//! reads order statistics relative to `k` and never sees the padding.
//!
//! The networks are deliberately capped at [`MAX_NETWORK_N`] wires: the
//! O(n log² n) comparator count loses to O(n) quickselect for large `n`,
//! and worker counts beyond 32 per aggregation group are outside the
//! paper's deployment envelope. Callers fall back to the scalar kernels
//! above the cap.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Mutex, OnceLock, PoisonError};

/// Largest wire count (row count `n`) the network kernels serve. Above this
/// the O(n log² n) comparator count loses to quickselect and callers use
/// the scalar path.
pub const MAX_NETWORK_N: usize = 32;

/// One compare–exchange: sorts the pair of wires `(lo, hi)` so the smaller
/// value lands on `lo`. Generation guarantees `lo < hi < n ≤ 32`, hence the
/// narrow index type (the whole network for n = 32 fits in half a KiB).
pub type CompareExchange = (u16, u16);

/// A fixed comparator sequence placing selected order statistics of `n`
/// values, executable vertically over lanes of columns.
///
/// ```
/// use agg_tensor::sortnet::SelectionNetwork;
/// let net = SelectionNetwork::sorting(4);
/// // Two columns side by side, lane-major: position p of lane w is
/// // tile[p * W + w].
/// let mut tile = [3.0, 40.0, 1.0, 10.0, 2.0, 30.0, 0.0, 20.0];
/// net.apply_lanes::<2>(&mut tile);
/// assert_eq!(tile, [0.0, 10.0, 1.0, 20.0, 2.0, 30.0, 3.0, 40.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectionNetwork {
    n: usize,
    ces: Vec<CompareExchange>,
}

impl SelectionNetwork {
    /// Batcher's odd–even mergesort network over `n` wires (full sort).
    ///
    /// # Panics
    ///
    /// Panics when `n` exceeds [`MAX_NETWORK_N`].
    pub fn sorting(n: usize) -> Self {
        assert!(n <= MAX_NETWORK_N, "selection networks are capped at {MAX_NETWORK_N} wires");
        let mut ces = Vec::new();
        // Iterative Batcher odd–even mergesort, valid for any n (each
        // phase p merges sorted runs of length p; each stride k compares
        // wires k apart within the merge, guarded so comparisons never
        // cross a 2p-aligned block boundary).
        let mut p = 1;
        while p < n {
            let mut k = p;
            while k >= 1 {
                let mut j = k % p;
                while j + k < n {
                    for i in 0..k.min(n - j - k) {
                        if (i + j) / (2 * p) == (i + j + k) / (2 * p) {
                            ces.push(((i + j) as u16, (i + j + k) as u16));
                        }
                    }
                    j += 2 * k;
                }
                k /= 2;
            }
            p *= 2;
        }
        SelectionNetwork { n, ces }
    }

    /// The sorting network pruned to place only the order statistics in
    /// `window` (positions into the sorted order): a backward liveness pass
    /// keeps a comparator iff it touches a wire whose final value is
    /// needed, marking both its wires needed in turn. The result is a valid
    /// *selection* network — positions inside `window` end up with exactly
    /// the values a full sort would put there; positions outside carry
    /// garbage.
    ///
    /// For the median `window` is one or two positions and the network
    /// sheds roughly a fifth of its comparators (79 of 98 survive at
    /// n = 19); a `trim..n-trim` window for the trimmed mean keeps most of
    /// the middle and sheds only the comparators that finish ordering the
    /// tails.
    ///
    /// # Panics
    ///
    /// Panics when `n` exceeds [`MAX_NETWORK_N`] or `window` is not
    /// contained in `0..n`.
    pub fn selecting(n: usize, window: Range<usize>) -> Self {
        assert!(
            window.start <= window.end && window.end <= n,
            "selection window {}..{} out of range for {} wires",
            window.start,
            window.end,
            n
        );
        let full = Self::sorting(n);
        let mut needed = [false; MAX_NETWORK_N];
        for pos in window {
            needed[pos] = true;
        }
        let mut kept: Vec<CompareExchange> = Vec::with_capacity(full.ces.len());
        for &(lo, hi) in full.ces.iter().rev() {
            if needed[lo as usize] || needed[hi as usize] {
                needed[lo as usize] = true;
                needed[hi as usize] = true;
                kept.push((lo, hi));
            }
        }
        kept.reverse();
        SelectionNetwork { n, ces: kept }
    }

    /// Process-wide cached sorting network (see
    /// [`SelectionNetwork::selecting_cached`]).
    pub fn sorting_cached(n: usize) -> &'static SelectionNetwork {
        Self::selecting_cached(n, 0..n)
    }

    /// Process-wide cached selection network for `(n, window)`.
    ///
    /// Construction costs a few microseconds — irrelevant once per round,
    /// but the sharded tier invokes a kernel per shard per round, and S
    /// rebuilds per round showed up as a measurable fraction of the
    /// coordinate rules' sharding overhead. Networks depend only on `(n,
    /// window)` and `n` is capped at [`MAX_NETWORK_N`], so the cache is
    /// small and bounded; entries are leaked into `'static` (a handful of
    /// KiB over a process lifetime) so callers share plain references with
    /// no per-call locking beyond the lookup.
    ///
    /// # Panics
    ///
    /// Same conditions as [`SelectionNetwork::selecting`].
    pub fn selecting_cached(n: usize, window: Range<usize>) -> &'static SelectionNetwork {
        type Cache = Mutex<HashMap<(usize, usize, usize), &'static SelectionNetwork>>;
        static CACHE: OnceLock<Cache> = OnceLock::new();
        // A panic under the lock (an out-of-range window failing `selecting`'s
        // assert) poisons the mutex, but the map is insert-only and an entry
        // is inserted whole or not at all, so the guard is still good — and
        // one bad call must not turn every later median in the process into
        // a panic.
        let mut cache =
            CACHE.get_or_init(Default::default).lock().unwrap_or_else(PoisonError::into_inner);
        cache
            .entry((n, window.start, window.end))
            .or_insert_with(|| Box::leak(Box::new(Self::selecting(n, window))))
    }

    /// Number of wires (the row count the network was generated for).
    pub fn wires(&self) -> usize {
        self.n
    }

    /// Number of compare–exchange operations.
    pub fn comparators(&self) -> usize {
        self.ces.len()
    }

    /// Executes the network vertically over a lane-major tile: `W` columns
    /// side by side, position `p` of lane `w` at `tile[p * W + w]`. Every
    /// compare–exchange becomes an elementwise min/max over two `W`-wide
    /// rows — branch-free, so the inner loop autovectorises.
    ///
    /// The tile must be NaN-free (see the module docs on canonicalisation):
    /// the comparison selects compile to plain vector min/max whose NaN
    /// behaviour would silently differ from the scalar kernels' NaN policy.
    ///
    /// `#[inline(always)]` because the batch driver compiles its tile body
    /// twice — baseline and AVX2 — and the min/max rows must be lowered at the
    /// width of whichever copy they are inlined into.
    ///
    /// # Panics
    ///
    /// Panics when the tile is shorter than `wires() * W`.
    #[inline(always)]
    pub fn apply_lanes<const W: usize>(&self, tile: &mut [f32]) {
        assert!(tile.len() >= self.n * W, "tile holds fewer than {} rows of {W} lanes", self.n);
        for &(lo, hi) in &self.ces {
            let ai = lo as usize * W;
            let (head, tail) = tile.split_at_mut(hi as usize * W);
            // Statically sized lane views: the `[f32; W]` type is what lets
            // the compiler drop the bounds checks and unroll the lane loop
            // into straight-line vector min/max.
            let a: &mut [f32; W] = (&mut head[ai..ai + W]).try_into().expect("lane width");
            let b: &mut [f32; W] = (&mut tail[..W]).try_into().expect("lane width");
            for w in 0..W {
                let x = a[w];
                let y = b[w];
                // f32::min/max rather than comparison selects: the selects
                // compile to data-dependent branches, which mispredict ~50%
                // of the time on unsorted lanes; min/max lower to branchless
                // vector instructions. Their IEEE NaN preference never
                // triggers — NaN is canonicalised away before the network
                // runs.
                a[w] = x.min(y);
                b[w] = x.max(y);
            }
        }
    }
}

/// Row `p` of a lane-major tile as a fixed-width lane array — the static
/// width is what lets the lane loops below unroll into whole-register
/// operations.
#[inline(always)]
fn lane_row<const W: usize>(tile: &[f32], p: usize) -> &[f32; W] {
    tile[p * W..(p + 1) * W].try_into().expect("lane width")
}

/// Median of every lane of a tile whose median positions are placed: row
/// `m / 2`, or half the sum of the two middle rows (lower + upper, the order
/// the scalar kernels add them in).
#[inline(always)]
pub(crate) fn median_lanes<const W: usize>(tile: &[f32], m: usize) -> [f32; W] {
    let mut out = *lane_row::<W>(tile, m / 2);
    if m % 2 == 0 {
        let lower = lane_row::<W>(tile, m / 2 - 1);
        for w in 0..W {
            out[w] = 0.5 * (lower[w] + out[w]);
        }
    }
    out
}

/// Mean of rows `kept` of every lane, added in ascending row order from
/// `0.0` and divided once — the trimmed mean's finish on a tile whose `kept`
/// positions are placed.
#[inline(always)]
pub(crate) fn mean_of_rows_lanes<const W: usize>(tile: &[f32], kept: Range<usize>) -> [f32; W] {
    let count = kept.len() as f32;
    let mut sum = [0.0f32; W];
    for p in kept {
        let row = lane_row::<W>(tile, p);
        for w in 0..W {
            sum[w] += row[w];
        }
    }
    for s in &mut sum {
        *s /= count;
    }
    sum
}

/// The closest-to-median window of every lane at once: the vertical twin of
/// [`crate::stats::mean_of_closest_to_median_sorted`] for NaN-free columns,
/// replaying its two-pointer walk step for step with selects in place of
/// branches. `tests/order_statistic_tiles.rs` holds the two together bit for
/// bit.
///
/// The tile holds `m` NaN-free values per lane with positions
/// `m/2 − keep .. m/2 + keep` (clamped into `0..m`) placed, and
/// `1 ≤ keep ≤ m`. After `t` steps a lane that went left `a` times stands at
/// `l = m/2 − a`, `r = m/2 + t − a`, so its two candidates are rows
/// `m/2 − 1 − a` and `m/2 + t − a`: each step picks them out of the at most
/// `t + 1` possible rows by comparing the lane's own `a` — O(keep²) selects
/// per tile, which still beats `keep` mispredicted branches per column at
/// MeaMed's `keep = n − f`. Then, per lane and exactly as the scalar walk:
/// no left candidate (`l == 0`) takes right, no right candidate (`r ≥ m`)
/// takes left, otherwise left wins iff
/// `|left − centre| ≤ |right − centre|` (a tie goes left; a NaN difference,
/// `∞ − ∞`, compares false and goes right); the value taken is added to the
/// lane's sum in the order taken, and the sum is divided by `keep` once.
#[inline(always)]
pub(crate) fn mean_around_median_lanes<const W: usize>(
    tile: &[f32],
    m: usize,
    keep: usize,
) -> [f32; W] {
    let mid = m / 2;
    let above = m - mid;
    let centre = median_lanes::<W>(tile, m);
    let mut lefts = [0u32; W];
    let mut sum = [0.0f32; W];
    for t in 0..keep {
        let mut left = [0.0f32; W];
        let mut right = [0.0f32; W];
        // A lane cannot have gone left more than `mid` times, nor right more
        // than `above`.
        for a in t.saturating_sub(above)..=t.min(mid) {
            if a < mid {
                let row = lane_row::<W>(tile, mid - 1 - a);
                for w in 0..W {
                    left[w] = if lefts[w] == a as u32 { row[w] } else { left[w] };
                }
            }
            if t - a < above {
                let row = lane_row::<W>(tile, mid + t - a);
                for w in 0..W {
                    right[w] = if lefts[w] == a as u32 { row[w] } else { right[w] };
                }
            }
        }
        for w in 0..W {
            let has_left = lefts[w] < mid as u32;
            let has_right = t as u32 - lefts[w] < above as u32;
            let closer = (left[w] - centre[w]).abs() <= (right[w] - centre[w]).abs();
            let take_left = has_left & (!has_right | closer);
            sum[w] += if take_left { left[w] } else { right[w] };
            lefts[w] += u32::from(take_left);
        }
    }
    let count = keep as f32;
    for s in &mut sum {
        *s /= count;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a network over a single column (W = 1).
    fn run(net: &SelectionNetwork, values: &[f32]) -> Vec<f32> {
        let mut tile = values.to_vec();
        net.apply_lanes::<1>(&mut tile);
        tile
    }

    #[test]
    fn sorting_networks_sort_all_01_inputs_exhaustively() {
        // The 0-1 principle: a comparator network sorts every input iff it
        // sorts every 0/1 input. Exhaustive up to n = 12 (4096 patterns).
        for n in 1..=12usize {
            let net = SelectionNetwork::sorting(n);
            for pattern in 0..(1u32 << n) {
                let input: Vec<f32> =
                    (0..n).map(|i| if pattern >> i & 1 == 1 { 1.0 } else { 0.0 }).collect();
                let output = run(&net, &input);
                let ones = input.iter().filter(|&&v| v == 1.0).count();
                let expected: Vec<f32> =
                    (0..n).map(|i| f32::from(u8::from(i >= n - ones))).collect();
                assert_eq!(output, expected, "n={n} pattern={pattern:b}");
            }
        }
    }

    #[test]
    fn sorting_networks_sort_random_inputs_up_to_the_cap() {
        // Deterministic pseudo-random probe for every n up to the cap,
        // duplicates included.
        for n in 1..=MAX_NETWORK_N {
            let net = SelectionNetwork::sorting(n);
            for round in 0..50u64 {
                let mut state = round.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(n as u64);
                let input: Vec<f32> = (0..n)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((state >> 33) % 7) as f32 - 3.0
                    })
                    .collect();
                let mut expected = input.clone();
                expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
                assert_eq!(run(&net, &input), expected, "n={n} round={round}");
            }
        }
    }

    #[test]
    fn pruned_networks_agree_with_the_full_sort_on_their_window() {
        for n in 1..=MAX_NETWORK_N {
            let windows = [
                (n - 1) / 2..n / 2 + 1, // median positions
                0..n,                   // degenerate: full sort
                n / 3..n - n / 4,       // an asymmetric middle window
            ];
            for window in windows {
                let net = SelectionNetwork::selecting(n, window.clone());
                let full = SelectionNetwork::sorting(n);
                assert!(net.comparators() <= full.comparators());
                for round in 0..30u64 {
                    let mut state =
                        round.wrapping_mul(0xD134_2543_DE82_EF95).wrapping_add(n as u64);
                    let input: Vec<f32> = (0..n)
                        .map(|_| {
                            state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
                            ((state >> 40) % 11) as f32 * 0.5 - 2.0
                        })
                        .collect();
                    let pruned_out = run(&net, &input);
                    let full_out = run(&full, &input);
                    for p in window.clone() {
                        assert_eq!(
                            pruned_out[p], full_out[p],
                            "n={n} window position {p} diverged from the full sort"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn median_pruning_shrinks_the_paper_sized_network() {
        let full = SelectionNetwork::sorting(19);
        let median = SelectionNetwork::selecting(19, 9..10);
        assert!(
            median.comparators() < full.comparators(),
            "pruning must drop comparators ({} vs {})",
            median.comparators(),
            full.comparators()
        );
    }

    #[test]
    fn multi_lane_tiles_sort_each_lane_independently() {
        let net = SelectionNetwork::sorting(3);
        // Lanes: [5,1,3] and [-1,-2,-3], interleaved lane-major.
        let mut tile = [5.0, -1.0, 1.0, -2.0, 3.0, -3.0];
        net.apply_lanes::<2>(&mut tile);
        assert_eq!(tile, [1.0, -3.0, 3.0, -2.0, 5.0, -1.0]);
    }

    #[test]
    fn trivial_networks_are_empty() {
        assert_eq!(SelectionNetwork::sorting(0).comparators(), 0);
        assert_eq!(SelectionNetwork::sorting(1).comparators(), 0);
        assert_eq!(SelectionNetwork::selecting(1, 0..1).comparators(), 0);
    }

    #[test]
    #[should_panic(expected = "capped")]
    fn oversized_networks_are_rejected() {
        SelectionNetwork::sorting(MAX_NETWORK_N + 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_windows_are_rejected() {
        SelectionNetwork::selecting(4, 3..5);
    }
}
