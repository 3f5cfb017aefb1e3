//! The order-statistic tiles against the scalar rules they replay.
//!
//! `GradientBatch`'s median, trimmed mean and mean-around-median (MeaMed,
//! Bulyan's second phase) run gather → selection network → finish over
//! lane-major tiles, NaN-free tiles finishing vertically and tiles carrying
//! a NaN lane by lane, in a body compiled once for baseline x86-64 and once
//! for AVX2. Every case here runs the public (dispatched) entry *and* the
//! baseline body, and holds both, column by column and bit for bit, to a
//! scalar transcription of the rule written out in this file: drop NaN, sort
//! by `total_cmp`, then — for the closest-to-median window — the two-pointer
//! walk of `stats::mean_of_closest_to_median_sorted`, so the vertical lane
//! walk in `sortnet` and the scalar one are tied together from outside.
//!
//! The cases put row counts on both parities up to the network cap, `keep` on
//! every regime of the walk (one value, the whole column, more than the
//! column), dimensions on both sides of the 8- and 16-lane tile widths and of
//! the 512-column block, row subsets in shuffled order, ties at the window
//! boundary, signed zeros and infinities around the median, and NaN so that
//! one lane of a full tile, every lane of a tile, and only a ragged tail
//! finish lane by lane.

use agg_tensor::batch::OrderStatistic;
use agg_tensor::sortnet::SelectionNetwork;
use agg_tensor::{BatchColumns, GradientBatch, Vector};
use proptest::prelude::*;

const DIMS: [usize; 11] = [1, 7, 8, 9, 15, 16, 17, 33, 512, 513, 1029];

/// Ties everywhere: any window boundary falls between equal distances.
const SEVEN: [f32; 7] = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0];

#[derive(Debug, Clone, Copy)]
enum Values {
    /// Drawn from [`SEVEN`].
    Ties,
    /// Magnitudes from 1e-3 to 1e3, so the order values are added in shows
    /// in the sum's bits.
    Mixed,
    /// Mostly `−0.0` and `+0.0`, so the median sits among signed zeros.
    Zeros,
    /// Half `+∞`, an eighth `−∞`: many columns have an infinite median, and
    /// `∞ − ∞` makes the walk's comparison NaN.
    Infinities,
}

#[derive(Debug, Clone, Copy)]
enum Nans {
    None,
    /// One NaN in lane 3 of the first tile.
    OneLane,
    /// Every lane of the first tile, one to three NaN each.
    WholeTile,
    /// One NaN in the last column (a ragged tail unless `d % 16 == 0`).
    Tail,
    /// One value in eight, anywhere — all-NaN columns included.
    Sprinkled,
}

#[derive(Debug, Clone)]
struct Case {
    /// Rows reduced per column.
    m: usize,
    /// Unselected rows interleaved in the arena.
    spare: usize,
    d: usize,
    /// Index into the `keep` / `trim` ladders.
    step: usize,
    values: Values,
    nans: Nans,
    seed: u64,
}

fn case() -> impl Strategy<Value = Case> {
    ((1usize..33, 0usize..4, 0..DIMS.len(), 0usize..7), (0usize..4, 0usize..5, 0u64..u64::MAX))
        .prop_map(|((m, spare, d, step), (values, nans, seed))| Case {
            m,
            spare,
            d: DIMS[d],
            step,
            values: [Values::Ties, Values::Mixed, Values::Zeros, Values::Infinities][values],
            nans: [Nans::None, Nans::OneLane, Nans::WholeTile, Nans::Tail, Nans::Sprinkled][nans],
            seed,
        })
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The arena and the rows of it a subset rule reduces, in shuffled order.
fn build(case: &Case) -> (GradientBatch, Vec<usize>) {
    let Case { m, spare, d, values, nans, seed, .. } = *case;
    let n = m + spare;
    let mut state = seed;
    let mut batch = GradientBatch::with_capacity(d, n);
    for _ in 0..n {
        batch.push_row_with(|row| {
            for v in row {
                let bits = splitmix(&mut state);
                let pick = (bits >> 8) as usize;
                *v = match values {
                    Values::Ties => SEVEN[pick % 7],
                    Values::Mixed => {
                        let unit = (bits >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
                        unit * [1e-3, 1.0, 1.0, 1e3][pick % 4]
                    }
                    Values::Zeros => [-0.0, 0.0, -0.0, 0.0, -1.0, 1.0, 0.5][pick % 7],
                    Values::Infinities => match pick % 8 {
                        0..=3 => f32::INFINITY,
                        4 => f32::NEG_INFINITY,
                        _ => SEVEN[(pick >> 3) % 7],
                    },
                };
            }
        });
    }
    let mut rows: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        rows.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
    }
    rows.truncate(m);
    match nans {
        Nans::None => {}
        Nans::OneLane => batch.row_mut(rows[m / 2])[3.min(d - 1)] = f32::NAN,
        Nans::WholeTile => {
            for col in 0..d.min(16) {
                for &row in rows.iter().take(col % 3 + 1) {
                    batch.row_mut(row)[col] = f32::NAN;
                }
            }
        }
        Nans::Tail => batch.row_mut(rows[0])[d - 1] = f32::NAN,
        Nans::Sprinkled => {
            for row in 0..n {
                for v in batch.row_mut(row) {
                    if splitmix(&mut state) % 8 == 0 {
                        *v = f32::NAN;
                    }
                }
            }
        }
    }
    (batch, rows)
}

/// A column's non-NaN values in ascending order, `None` when there are none
/// (where every rule errs).
fn sorted_non_nan(column: &[f32]) -> Option<Vec<f32>> {
    let mut sorted: Vec<f32> = column.iter().copied().filter(|v| !v.is_nan()).collect();
    sorted.sort_by(f32::total_cmp);
    (!sorted.is_empty()).then_some(sorted)
}

fn median_of_sorted(sorted: &[f32]) -> f32 {
    let k = sorted.len();
    if k % 2 == 1 {
        sorted[k / 2]
    } else {
        0.5 * (sorted[k / 2 - 1] + sorted[k / 2])
    }
}

fn scalar_median(column: &[f32]) -> Option<f32> {
    sorted_non_nan(column).map(|sorted| median_of_sorted(&sorted))
}

fn scalar_trimmed_mean(column: &[f32], trim: usize) -> Option<f32> {
    let sorted = sorted_non_nan(column)?;
    let k = sorted.len();
    if k <= 2 * trim {
        return Some(median_of_sorted(&sorted));
    }
    let mut sum = 0.0f32;
    for &v in &sorted[trim..k - trim] {
        sum += v;
    }
    Some(sum / (k - 2 * trim) as f32)
}

/// The closest-to-median window, transcribed: from the median position the
/// window grows one value at a time towards whichever side is nearer the
/// median, the smaller value on a tie, summing in the order taken.
fn scalar_mean_around_median(column: &[f32], keep: usize) -> Option<f32> {
    let sorted = sorted_non_nan(column)?;
    let k = sorted.len();
    let centre = median_of_sorted(&sorted);
    let keep_eff = keep.min(column.len()).max(1);
    let (mut l, mut r) = (k / 2, k / 2);
    let mut sum = 0.0f32;
    for _ in 0..keep_eff.min(k) {
        let take_left = if l == 0 {
            false
        } else if r >= k {
            true
        } else {
            (sorted[l - 1] - centre).abs() <= (sorted[r] - centre).abs()
        };
        if take_left {
            l -= 1;
            sum += sorted[l];
        } else {
            sum += sorted[r];
            r += 1;
        }
    }
    if keep_eff > k {
        // Fewer non-NaN values than the rule must average: the NaN
        // submissions are forced in.
        sum += f32::NAN;
    }
    Some(sum / keep_eff as f32)
}

/// A column-view `_into` kernel over every column, collected into a vector.
fn full_width(
    batch: &GradientBatch,
    kernel: impl FnOnce(&BatchColumns<'_>, &mut [f32]) -> agg_tensor::Result<()>,
) -> agg_tensor::Result<Vector> {
    let mut out = vec![0.0f32; batch.dim()];
    kernel(&batch.columns(0..batch.dim()), &mut out).map(|()| Vector::from(out))
}

/// Holds one kernel output to the scalar rule applied to every column of
/// `rows`. `zero_sign_free`: the network's min/max do not order `−0.0`
/// against `+0.0`, so a rule that *copies* a value (the median) may return
/// either zero where the sorted order puts a zero; sums start from `+0.0`
/// and never see the difference.
fn assert_is_the_scalar_rule(
    what: &str,
    case: &Case,
    batch: &GradientBatch,
    rows: &[usize],
    got: agg_tensor::Result<Vector>,
    rule: impl Fn(&[f32]) -> Option<f32>,
    zero_sign_free: bool,
) {
    let want: Option<Vec<f32>> = (0..case.d)
        .map(|col| rule(&rows.iter().map(|&r| batch.row(r)[col]).collect::<Vec<f32>>()))
        .collect();
    let (got, want) = match (got, want) {
        (Ok(got), Some(want)) => (got, want),
        (Err(_), None) => return,
        (got, want) => panic!("{what}, {case:?}: kernel {got:?} but the scalar rule {want:?}"),
    };
    assert_eq!(got.len(), case.d);
    for (col, (&g, &w)) in got.as_slice().iter().zip(&want).enumerate() {
        let same = g.to_bits() == w.to_bits()
            || (g.is_nan() && w.is_nan())
            || (zero_sign_free && g == 0.0 && w == 0.0);
        assert!(same, "{what}, {case:?}, column {col}: {g:e} is not {w:e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mean_around_median_tiles_replay_the_scalar_walk(case in case()) {
        let (batch, rows) = build(&case);
        let m = case.m;
        let keep = [1, 2, 3, m / 2, m - 1, m, m + 3][case.step];
        let rule = |column: &[f32]| scalar_mean_around_median(column, keep);
        assert_is_the_scalar_rule(
            "dispatched", &case, &batch, &rows,
            full_width(&batch, |all, out| all.mean_around_median_into(Some(&rows), keep, out)),
            rule, false,
        );
        let at_baseline = OrderStatistic::MeanAroundMedian { keep };
        assert_is_the_scalar_rule(
            "baseline", &case, &batch, &rows,
            batch.order_statistic_at_baseline_width(at_baseline, Some(&rows)), rule, false,
        );
    }

    #[test]
    fn median_tiles_are_the_scalar_median(case in case()) {
        let (batch, rows) = build(&case);
        assert_is_the_scalar_rule(
            "dispatched", &case, &batch, &rows,
            full_width(&batch, |all, out| all.median_into(Some(&rows), out)), scalar_median, true,
        );
        assert_is_the_scalar_rule(
            "baseline", &case, &batch, &rows,
            batch.order_statistic_at_baseline_width(OrderStatistic::Median, Some(&rows)),
            scalar_median, true,
        );
    }

    #[test]
    fn trimmed_mean_tiles_are_the_scalar_trimmed_mean(case in case()) {
        // The public entry trims over every row of the arena; from
        // `(n − 1) / 2` up the trim swallows the column and the rule is the
        // median of what is left.
        let (batch, _) = build(&case);
        let n = batch.n();
        let all: Vec<usize> = (0..n).collect();
        let trim = [0, 1, 2, n / 4, (n - 1) / 2, n / 2, n][case.step];
        let rule = |column: &[f32]| scalar_trimmed_mean(column, trim);
        assert_is_the_scalar_rule(
            "dispatched", &case, &batch, &all,
            batch.coordinate_trimmed_mean(trim), rule, true,
        );
        let at_baseline = OrderStatistic::TrimmedMean { trim };
        assert_is_the_scalar_rule(
            "baseline", &case, &batch, &all,
            batch.order_statistic_at_baseline_width(at_baseline, None), rule, true,
        );
    }
}

#[test]
fn an_infinite_centre_sends_the_walk_right() {
    // First column, sorted: [1, ∞, ∞]. The centre is ∞, so the first step
    // compares |1 − ∞| = ∞ against |∞ − ∞| = NaN, which is false: the walk
    // goes right, right again, and only then takes the 1. The second column,
    // [−1, 0, 1], has a finite centre: right for the 0, then the tie between
    // −1 and 1 goes left.
    let inf = f32::INFINITY;
    let batch = GradientBatch::from_vectors(&[
        Vector::from(vec![inf, -1.0]),
        Vector::from(vec![1.0, 0.0]),
        Vector::from(vec![inf, 1.0]),
    ])
    .unwrap();
    for keep in 1..=3 {
        let got = batch.mean_around_median(keep).unwrap();
        let base = batch
            .order_statistic_at_baseline_width(OrderStatistic::MeanAroundMedian { keep }, None)
            .unwrap();
        for (col, column) in [[inf, 1.0, inf], [-1.0, 0.0, 1.0]].iter().enumerate() {
            let want = scalar_mean_around_median(column, keep).unwrap();
            assert_eq!(got[col].to_bits(), want.to_bits(), "keep {keep}, column {col}");
            assert_eq!(base[col].to_bits(), want.to_bits(), "keep {keep}, column {col}");
        }
    }
    assert_eq!(batch.mean_around_median(2).unwrap().as_slice(), &[inf, -0.5]);
}

#[test]
fn a_poisoned_network_cache_still_serves() {
    // An out-of-range window panics inside the cache's lock and poisons it;
    // the map is insert-only, so every later lookup must carry on.
    let poisoner = std::thread::spawn(|| SelectionNetwork::selecting_cached(4, 3..5));
    assert!(poisoner.join().is_err(), "the out-of-range window must panic");
    let batch = GradientBatch::from_vectors(&[
        Vector::from(vec![3.0, 9.0]),
        Vector::from(vec![1.0, 7.0]),
        Vector::from(vec![2.0, 8.0]),
        Vector::from(vec![5.0, 6.0]),
    ])
    .unwrap();
    assert_eq!(batch.coordinate_median().unwrap().as_slice(), &[2.5, 7.5]);
    assert_eq!(batch.mean_around_median(2).unwrap().as_slice(), &[2.5, 7.5]);
    assert_eq!(SelectionNetwork::selecting_cached(4, 1..3).wires(), 4);
}
