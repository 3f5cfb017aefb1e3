//! The flat distance walk against its per-pair definition.
//!
//! `GradientBatch::pairwise_squared_distances` (cache-blocked, pair-tiled,
//! parallel over tile groups) and `StreamingDistances`' flat mode (the same
//! walk, one arriving row at a time) must give every pair the bits of
//! `ops::squared_distance` on its two whole rows, with non-finite sums mapped
//! to `+∞`. The shapes put rows in full and ragged tiles, dimensions on both
//! sides of a 4-chunk and of a 4096-column block boundary, and the pair count
//! on both sides of the parallel gate; the salted rows put NaN, `±∞` and
//! all-zero rows in each of those places.

use agg_tensor::batch::PARALLEL_MIN_WORK;
use agg_tensor::{ops, DistanceMatrix, GradientBatch, StreamingDistances};
use proptest::prelude::*;

const ROWS: [usize; 9] = [0, 1, 2, 3, 4, 5, 6, 19, 33];
const DIMS: [usize; 10] = [0, 1, 3, 4, 5, 17, 4095, 4096, 4097, 8193];

#[derive(Debug, Clone)]
struct Case {
    n: usize,
    d: usize,
    seed: u64,
    /// (row selector, column selector, salt): the row is one of the first
    /// two, the middle or the last two (a row's last tile is its ragged one),
    /// the column one of the first, the last, the middle or either side of
    /// the first block boundary; the salt is NaN, `+∞`, `−∞` there, or the
    /// whole row zeroed.
    salts: Vec<(usize, usize, usize)>,
}

fn case() -> impl Strategy<Value = Case> {
    (
        0..ROWS.len(),
        0..DIMS.len(),
        0u64..u64::MAX,
        prop::collection::vec((0usize..5, 0usize..5, 0usize..4), 0..4),
    )
        .prop_map(|(n, d, seed, salts)| Case { n: ROWS[n], d: DIMS[d], seed, salts })
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Rows of mixed-magnitude values (so a changed summation order changes
/// bits), then the case's salted rows.
fn build(case: &Case) -> GradientBatch {
    let Case { n, d, seed, .. } = *case;
    let mut state = seed;
    let mut batch = GradientBatch::with_capacity(d, n);
    for _ in 0..n {
        batch.push_row_with(|row| {
            for v in row {
                let bits = splitmix(&mut state);
                let unit = (bits >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
                *v = unit * [1e-3, 1.0, 1.0, 1e3][(bits & 3) as usize];
            }
        });
    }
    for &(row, col, salt) in &case.salts {
        if n == 0 || d == 0 {
            break;
        }
        let row = [0, 1, n / 2, n.saturating_sub(2), n - 1][row].min(n - 1);
        let col = [0, d - 1, d / 2, 4095, 4096][col].min(d - 1);
        match salt {
            0 => batch.row_mut(row)[col] = f32::NAN,
            1 => batch.row_mut(row)[col] = f32::INFINITY,
            2 => batch.row_mut(row)[col] = f32::NEG_INFINITY,
            _ => batch.row_mut(row).fill(0.0),
        }
    }
    batch
}

/// The definition: one `ops::squared_distance` per pair over whole rows.
fn oracle(batch: &GradientBatch, i: usize, j: usize) -> f32 {
    let dist = ops::squared_distance(batch.row(i), batch.row(j));
    if dist.is_finite() {
        dist
    } else {
        f32::INFINITY
    }
}

fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed ^ 0x5851_f42d_4c95_7f2d;
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
    }
    order
}

/// Every entry of `matrix` has the bits of the definition on `batch`.
fn assert_is_the_definition(matrix: &DistanceMatrix, batch: &GradientBatch, case: &Case) {
    assert_eq!(matrix.n(), case.n);
    assert_eq!(matrix.pair_count(), case.n.saturating_sub(1) * case.n / 2);
    for i in 0..case.n {
        for j in i + 1..case.n {
            let (got, want) = (matrix.get(i, j), oracle(batch, i, j));
            assert!(
                got.to_bits() == want.to_bits(),
                "n = {}, d = {}, pair ({i}, {j}): {got:e} is not {want:e}",
                case.n,
                case.d
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn barrier_walk_has_the_bits_of_the_per_pair_definition(case in case()) {
        let batch = build(&case);
        assert_is_the_definition(&batch.pairwise_squared_distances(), &batch, &case);
    }

    #[test]
    fn streaming_flat_fold_has_the_same_bits_in_any_arrival_order(case in case()) {
        let batch = build(&case);
        let mut acc = StreamingDistances::flat(case.n, case.d);
        for slot in shuffled(case.n, case.seed) {
            acc.row_arrived(&batch, slot);
        }
        let keep: Vec<usize> = (0..case.n).collect();
        assert_is_the_definition(&acc.matrix(&keep), &batch, &case);
    }
}

#[test]
fn the_shapes_sit_on_both_sides_of_the_parallel_gate() {
    let work = |n: usize, d: usize| n * (n - 1) / 2 * d;
    assert!(work(6, 8193) < PARALLEL_MIN_WORK, "largest small-n shape stays sequential");
    assert!(work(19, 4095) >= PARALLEL_MIN_WORK, "n = 19 at one block is already parallel");
    assert!(work(33, 17) < PARALLEL_MIN_WORK && work(33, 4095) >= PARALLEL_MIN_WORK);
}
