//! Robust statistics kernels.
//!
//! These are the numeric building blocks of the paper's gradient aggregation
//! rules: coordinate-wise medians, trimmed means, selection of the `k` values
//! closest to a reference, and per-coordinate means and deviations. (The
//! pairwise squared distances live on [`crate::GradientBatch`].)
//!
//! All functions are careful about non-finite values: the paper stresses that
//! real malicious workers will send `NaN`/`±Inf` coordinates, so the kernels
//! either tolerate them (treat them as "infinitely far") or expose an explicit
//! policy.

use crate::{Result, TensorError, Vector};

/// Median of a slice, ignoring NaN values.
///
/// For an even count the midpoint (average of the two central values) is
/// returned, matching the conventional coordinate-wise median used by
/// Bulyan and the Median GAR.
///
/// # Errors
///
/// Returns [`TensorError::EmptyInput`] if `values` is empty or contains only
/// NaN values.
pub fn median(values: &[f32]) -> Result<f32> {
    let mut finite: Vec<f32> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    if finite.is_empty() {
        return Err(TensorError::EmptyInput("median"));
    }
    finite.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered above"));
    let n = finite.len();
    if n % 2 == 1 {
        Ok(finite[n / 2])
    } else {
        Ok(0.5 * (finite[n / 2 - 1] + finite[n / 2]))
    }
}

/// Mean of the `beta` values closest to `center` (in absolute difference).
///
/// This is the inner step of Bulyan: for each coordinate, average the
/// `m - 2f` values closest to the coordinate-wise median. Non-finite values
/// sort as infinitely far from the center so they are never selected unless
/// fewer than `beta` finite values exist.
///
/// # Errors
///
/// Returns [`TensorError::EmptyInput`] if `values` is empty, and
/// [`TensorError::DimensionMismatch`] if `beta` is zero or exceeds
/// `values.len()`.
pub fn mean_closest_to(values: &[f32], center: f32, beta: usize) -> Result<f32> {
    if values.is_empty() {
        return Err(TensorError::EmptyInput("mean_closest_to"));
    }
    if beta == 0 || beta > values.len() {
        return Err(TensorError::dim(values.len(), beta));
    }
    let mut keyed: Vec<(f32, f32)> = values
        .iter()
        .map(|&v| {
            let key = if v.is_finite() { (v - center).abs() } else { f32::INFINITY };
            (key, v)
        })
        .collect();
    keyed.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let selected = &keyed[..beta];
    Ok(selected.iter().map(|(_, v)| v).sum::<f32>() / beta as f32)
}

/// Trimmed mean: drops the `trim` smallest and `trim` largest values and
/// averages the rest. NaN values are dropped before trimming.
///
/// # Errors
///
/// Returns [`TensorError::EmptyInput`] when nothing remains after trimming.
pub fn trimmed_mean(values: &[f32], trim: usize) -> Result<f32> {
    let mut finite: Vec<f32> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    if finite.len() <= 2 * trim {
        return Err(TensorError::EmptyInput("trimmed_mean"));
    }
    finite.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered above"));
    let kept = &finite[trim..finite.len() - trim];
    Ok(kept.iter().sum::<f32>() / kept.len() as f32)
}

/// Arithmetic mean ignoring NaN values; returns `None` if all values are NaN
/// or the slice is empty.
pub fn nan_mean(values: &[f32]) -> Option<f32> {
    let mut sum = 0.0;
    let mut count = 0usize;
    for &v in values {
        if !v.is_nan() {
            sum += v;
            count += 1;
        }
    }
    if count == 0 {
        None
    } else {
        Some(sum / count as f32)
    }
}

/// Indices of the `k` smallest values in `values`, in ascending value order.
///
/// NaN values are ranked last (treated as `+∞`), which is exactly the
/// behaviour the robust GARs need: a gradient whose distance to every other
/// gradient is NaN must never be selected. Uses partial selection
/// (`select_nth_unstable`) so the cost is O(n + k log k) rather than a full
/// O(n log n) sort; ties break towards the lower index, matching the stable
/// sort this replaced.
///
/// # Errors
///
/// Returns [`TensorError::DimensionMismatch`] when `k > values.len()`.
pub fn k_smallest_indices(values: &[f32], k: usize) -> Result<Vec<usize>> {
    if k > values.len() {
        return Err(TensorError::dim(values.len(), k));
    }
    if k == 0 {
        return Ok(Vec::new());
    }
    let key = |i: usize| if values[i].is_nan() { f32::INFINITY } else { values[i] };
    let order = |a: &usize, b: &usize| key(*a).total_cmp(&key(*b)).then(a.cmp(b));
    let mut idx: Vec<usize> = (0..values.len()).collect();
    if k < idx.len() {
        idx.select_nth_unstable_by(k - 1, order);
        idx.truncate(k);
    }
    idx.sort_unstable_by(order);
    Ok(idx)
}

/// Coordinate-wise mean of a set of equally sized vectors:
/// [`coordinate_mean_of_rows`] over their slices.
///
/// # Errors
///
/// Returns [`TensorError::EmptyInput`] for an empty set and
/// [`TensorError::DimensionMismatch`] when lengths disagree.
pub fn coordinate_mean(vectors: &[Vector]) -> Result<Vector> {
    let rows: Vec<&[f32]> = vectors.iter().map(Vector::as_slice).collect();
    coordinate_mean_of_rows(&rows)
}

/// Coordinate-wise mean of equally sized row slices, wherever they live
/// (arena rows, vectors): each coordinate sums the rows in slice order and
/// is then scaled by `1 / rows.len()`. It runs the one fused mean loop of
/// the [`GradientBatch`](crate::GradientBatch) kernels, so its column
/// blocks run in parallel once `rows·d` clears
/// [`PARALLEL_MIN_WORK`](crate::batch::PARALLEL_MIN_WORK), with the same
/// bits at any thread budget.
///
/// # Errors
///
/// Returns [`TensorError::EmptyInput`] for no rows and
/// [`TensorError::DimensionMismatch`] when lengths disagree.
pub fn coordinate_mean_of_rows(rows: &[&[f32]]) -> Result<Vector> {
    let d = rows.first().map_or(0, |row| row.len());
    let mut out = vec![0.0f32; d];
    coordinate_mean_of_rows_into(rows, &mut out)?;
    Ok(Vector::from(out))
}

/// [`coordinate_mean_of_rows`] written into `out`, a slice the caller owns
/// (an arena row), with the same bits: whatever `out` held is overwritten.
///
/// # Errors
///
/// Returns [`TensorError::EmptyInput`] for no rows and
/// [`TensorError::DimensionMismatch`] when the rows or `out` disagree on
/// their length.
pub fn coordinate_mean_of_rows_into(rows: &[&[f32]], out: &mut [f32]) -> Result<()> {
    if rows.is_empty() {
        return Err(TensorError::EmptyInput("coordinate_mean"));
    }
    let d = out.len();
    if let Some(row) = rows.iter().find(|row| row.len() != d) {
        return Err(TensorError::dim(d, row.len()));
    }
    crate::batch::mean_rows_into(rows.len(), |k| rows[k], false, 0..d, out);
    Ok(())
}

/// Coordinate-wise median of a set of equally sized vectors (NaN-tolerant).
///
/// # Errors
///
/// Returns [`TensorError::EmptyInput`] for an empty set, a coordinate that is
/// NaN in every vector, and [`TensorError::DimensionMismatch`] when lengths
/// disagree.
pub fn coordinate_median(vectors: &[Vector]) -> Result<Vector> {
    if vectors.is_empty() {
        return Err(TensorError::EmptyInput("coordinate_median"));
    }
    let d = vectors[0].len();
    for v in vectors {
        if v.len() != d {
            return Err(TensorError::dim(d, v.len()));
        }
    }
    let mut out = Vec::with_capacity(d);
    // One scratch buffer reused across coordinates: the per-coordinate cost
    // is on the critical path of the Median GAR (and of Bulyan), so no
    // allocation or full sort per coordinate.
    let mut column: Vec<f32> = Vec::with_capacity(vectors.len());
    for c in 0..d {
        column.clear();
        column.extend(vectors.iter().map(|v| v[c]).filter(|x| !x.is_nan()));
        out.push(median_of_scratch(&mut column)?);
    }
    Ok(Vector::from(out))
}

/// Below this many elements an unstable sort (which degrades to insertion
/// sort) beats `select_nth_unstable`'s pivoting machinery, and one sort can
/// replace two selections. Gradient batches have one value per worker per
/// coordinate, so the per-coordinate kernels live almost entirely in this
/// regime.
pub(crate) const SMALL_SORT: usize = 32;

/// Median of a NaN-free scratch buffer using selection instead of a full
/// sort (one selection beats a sort when only the median is needed; kernels
/// that also need the neighbourhood of the median sort instead — see
/// `batch::mean_around_median`). The buffer is reordered in place.
pub(crate) fn median_of_scratch(column: &mut [f32]) -> Result<f32> {
    let k = column.len();
    if k == 0 {
        return Err(TensorError::EmptyInput("median"));
    }
    let cmp = |a: &f32, b: &f32| a.partial_cmp(b).expect("NaN filtered by caller");
    if k % 2 == 1 {
        let (_, mid, _) = column.select_nth_unstable_by(k / 2, cmp);
        Ok(*mid)
    } else {
        let (below, upper, _) = column.select_nth_unstable_by(k / 2, cmp);
        let upper = *upper;
        let lower = below.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        Ok(0.5 * (lower + upper))
    }
}

/// Mean of the values closest to the median of an already-sorted, NaN-free
/// column — the closest-to-median window rule of MeaMed and Bulyan's second
/// phase in scalar form: what the quickselect path above 32 rows and the
/// selection-network tiles that carry a NaN run. NaN-free tiles run its
/// vertical twin, [`crate::sortnet`]'s `mean_around_median_lanes`, which
/// replays this walk in every lane at once;
/// `tests/order_statistic_tiles.rs` holds both to one transcription of the
/// rule, bit for bit.
///
/// `sorted` holds the column's non-NaN values in ascending order (`±∞`
/// included — they rank infinitely far from the median and are only taken
/// when nothing better remains); `column_len` is the original column length
/// including NaN entries, which bounds the effective keep count exactly as
/// the historical kernels did. `|v − median|` is V-shaped over the sorted
/// buffer, so the window of closest values is contiguous and grows greedily
/// by a two-pointer walk; on ties at the window boundary the smaller value
/// wins (deliberately deterministic — the pre-arena kernels disagreed with
/// each other here).
///
/// When fewer than `keep` non-NaN values exist, the NaN submissions are
/// forced into the average (they rank infinitely far and only join when
/// nothing better remains), poisoning it — the caller decides whether that
/// is an error.
///
/// # Panics
///
/// Panics if `sorted` is empty (callers map the empty column to their own
/// error first).
pub(crate) fn mean_of_closest_to_median_sorted(
    sorted: &[f32],
    column_len: usize,
    keep: usize,
) -> f32 {
    let k = sorted.len();
    assert!(k > 0, "mean_of_closest_to_median_sorted needs at least one value");
    let center = if k % 2 == 1 { sorted[k / 2] } else { 0.5 * (sorted[k / 2 - 1] + sorted[k / 2]) };
    let keep_eff = keep.min(column_len).max(1);
    let take = keep_eff.min(k);
    let (mut l, mut r) = (k / 2, k / 2);
    let mut sum = 0.0f32;
    for _ in 0..take {
        let take_left = if l == 0 {
            false
        } else if r >= k {
            true
        } else {
            (sorted[l - 1] - center).abs() <= (sorted[r] - center).abs()
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
        sum += f32::NAN;
    }
    sum / keep_eff as f32
}

/// Sample variance (unbiased, divide by `n - 1`) of a slice; 0 for fewer than
/// two finite values.
pub fn variance(values: &[f32]) -> f32 {
    let finite: Vec<f32> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if finite.len() < 2 {
        return 0.0;
    }
    let mean = finite.iter().sum::<f32>() / finite.len() as f32;
    finite.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / (finite.len() - 1) as f32
}

/// Coordinate-wise sample standard deviation across borrowed rows, wherever
/// they live (arena rows, vectors): the square root of [`variance`] per
/// column.
///
/// Used by the "little is enough"-style omniscient attack, which perturbs the
/// honest mean by a multiple of the per-coordinate standard deviation.
///
/// # Errors
///
/// Returns [`TensorError::EmptyInput`] for an empty set and
/// [`TensorError::DimensionMismatch`] when lengths disagree.
pub fn coordinate_std_of_rows(rows: &[&[f32]]) -> Result<Vector> {
    if rows.is_empty() {
        return Err(TensorError::EmptyInput("coordinate_std"));
    }
    let d = rows[0].len();
    for r in rows {
        if r.len() != d {
            return Err(TensorError::dim(d, r.len()));
        }
    }
    let mut out = Vec::with_capacity(d);
    let mut column = Vec::with_capacity(rows.len());
    for c in 0..d {
        column.clear();
        column.extend(rows.iter().map(|r| r[c]));
        out.push(variance(&column).sqrt());
    }
    Ok(Vector::from(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]).unwrap(), 2.5);
    }

    #[test]
    fn median_ignores_nan_and_rejects_empty() {
        assert_eq!(median(&[f32::NAN, 1.0, 3.0]).unwrap(), 2.0);
        assert!(median(&[]).is_err());
        assert!(median(&[f32::NAN]).is_err());
    }

    #[test]
    fn mean_closest_selects_neighbours_of_center() {
        // center 2.0, closest two values are 1.9 and 2.2
        let v = [10.0, 1.9, 2.2, -5.0];
        let m = mean_closest_to(&v, 2.0, 2).unwrap();
        assert!((m - 2.05).abs() < 1e-6);
    }

    #[test]
    fn mean_closest_never_selects_non_finite_when_enough_finite() {
        let v = [f32::NAN, 1.0, f32::INFINITY, 3.0];
        let m = mean_closest_to(&v, 2.0, 2).unwrap();
        assert_eq!(m, 2.0);
    }

    #[test]
    fn mean_closest_validates_beta() {
        assert!(mean_closest_to(&[1.0], 0.0, 0).is_err());
        assert!(mean_closest_to(&[1.0], 0.0, 2).is_err());
        assert!(mean_closest_to(&[], 0.0, 1).is_err());
    }

    #[test]
    fn trimmed_mean_drops_extremes() {
        let v = [100.0, 1.0, 2.0, 3.0, -50.0];
        assert_eq!(trimmed_mean(&v, 1).unwrap(), 2.0);
        assert!(trimmed_mean(&v, 2).is_ok());
        assert!(trimmed_mean(&v, 3).is_err());
    }

    #[test]
    fn nan_mean_behaviour() {
        assert_eq!(nan_mean(&[1.0, f32::NAN, 3.0]), Some(2.0));
        assert_eq!(nan_mean(&[f32::NAN]), None);
        assert_eq!(nan_mean(&[]), None);
    }

    #[test]
    fn k_smallest_ranks_nan_last() {
        let v = [5.0, f32::NAN, 1.0, 3.0];
        assert_eq!(k_smallest_indices(&v, 2).unwrap(), vec![2, 3]);
        assert_eq!(k_smallest_indices(&v, 4).unwrap(), vec![2, 3, 0, 1]);
        assert!(k_smallest_indices(&v, 5).is_err());
    }

    /// The scalar oracle: every coordinate sums the rows in slice order,
    /// then scales by `1 / rows`.
    fn row_order_mean(rows: &[&[f32]]) -> Vec<f32> {
        let mut acc = vec![0.0f32; rows[0].len()];
        for row in rows {
            for (a, &v) in acc.iter_mut().zip(*row) {
                *a += v;
            }
        }
        let scale = 1.0 / rows.len() as f32;
        acc.iter().map(|a| a * scale).collect()
    }

    #[test]
    fn mean_of_rows_equals_the_row_order_loop_at_every_width_and_budget() {
        // One, two and many column blocks, each below and at or above
        // PARALLEL_MIN_WORK (rows·d), with a NaN and a +∞ coordinate.
        let shapes = [(3, 1), (5, 700), (19, 4_138), (400, 500), (200, 1_000), (19, 40_000)];
        for (n, d) in shapes {
            let mut data: Vec<Vec<f32>> = (0..n)
                .map(|i| (0..d).map(|c| ((i * 31 + c * 7) % 113) as f32 * 0.37 - 20.0).collect())
                .collect();
            data[1][0] = f32::NAN;
            data[2][d - 1] = f32::INFINITY;
            let rows: Vec<&[f32]> = data.iter().map(Vec::as_slice).collect();
            let expected: Vec<u32> = row_order_mean(&rows).iter().map(|x| x.to_bits()).collect();
            let pool_at = |threads| {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build();
                pool.expect("the shim's pools always build")
            };
            for threads in [1, 2, 4] {
                let mean = pool_at(threads).install(|| coordinate_mean_of_rows(&rows).unwrap());
                let bits: Vec<u32> = mean.as_slice().iter().map(|x| x.to_bits()).collect();
                assert!(bits == expected, "n = {n}, d = {d}, budget {threads}");
                // The in-place form overwrites whatever its row held.
                let mut row = vec![f32::NAN; d];
                pool_at(threads).install(|| coordinate_mean_of_rows_into(&rows, &mut row).unwrap());
                let bits: Vec<u32> = row.iter().map(|x| x.to_bits()).collect();
                assert!(bits == expected, "into: n = {n}, d = {d}, budget {threads}");
            }
        }
        assert!(coordinate_mean_of_rows(&[]).is_err());
        assert!(coordinate_mean_of_rows(&[&[1.0, 2.0], &[1.0]]).is_err());
        assert!(coordinate_mean_of_rows_into(&[], &mut [0.0; 2]).is_err());
        assert!(coordinate_mean_of_rows_into(&[&[1.0, 2.0]], &mut [0.0; 3]).is_err());
    }

    #[test]
    fn coordinate_mean_and_median() {
        let vs = vec![
            Vector::from(vec![1.0, 10.0]),
            Vector::from(vec![2.0, 20.0]),
            Vector::from(vec![3.0, 90.0]),
        ];
        assert_eq!(coordinate_mean(&vs).unwrap().as_slice(), &[2.0, 40.0]);
        assert_eq!(coordinate_median(&vs).unwrap().as_slice(), &[2.0, 20.0]);
        assert!(coordinate_mean(&[]).is_err());
        assert!(coordinate_median(&[]).is_err());
    }

    #[test]
    fn coordinate_median_tolerates_nan_columns() {
        let vs = vec![
            Vector::from(vec![1.0, f32::NAN]),
            Vector::from(vec![3.0, 5.0]),
            Vector::from(vec![2.0, 7.0]),
        ];
        let m = coordinate_median(&vs).unwrap();
        assert_eq!(m.as_slice(), &[2.0, 6.0]);
    }

    #[test]
    fn variance_and_std() {
        assert_eq!(variance(&[1.0, 1.0, 1.0]), 0.0);
        assert!((variance(&[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-6);
        assert_eq!(variance(&[1.0]), 0.0);
        let s = coordinate_std_of_rows(&[&[1.0, 0.0], &[3.0, 0.0]]).unwrap();
        assert!((s[0] - (2.0f32).sqrt()).abs() < 1e-6);
        assert_eq!(s[1], 0.0);
    }
}
