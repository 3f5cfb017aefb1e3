//! Frozen pre-arena implementations of the aggregation rules.
//!
//! These are the original per-`Vector` code paths that predate the
//! contiguous [`agg_tensor::GradientBatch`] arena: dense `Vec<Vec<f32>>`
//! distance matrices that compute both triangles, allocate-and-sort Krum
//! scoring, and per-coordinate gather loops over scattered vectors. They are
//! deliberately kept (and deliberately **not** optimised) for two reasons:
//!
//! 1. **Correctness oracle** — the property tests in
//!    `tests/batch_matches_reference.rs` assert that every fused batch
//!    kernel reproduces these reference implementations within 1e-5,
//!    including NaN/±∞ handling.
//! 2. **Performance baseline** — the `gar_arena_vs_reference_n19_f4`
//!    criterion group in `crates/bench/benches/gar_kernels.rs` times the
//!    arena kernels and these implementations side by side.

use crate::gar::validate_batch;
use crate::registry::GarKind;
use crate::{resilience, AggregationError, Result};
use agg_tensor::{stats, Vector};
use rayon::prelude::*;

/// The original parallel gate: compared against `n·d` for the distance
/// matrix but (incorrectly) against `|active|²` for score re-ranking. Kept
/// verbatim so the baseline measures exactly the pre-arena behaviour.
const PARALLEL_THRESHOLD: usize = 200_000;

/// Dense pairwise squared-distance matrix, computing both triangles.
///
/// Distances involving non-finite coordinates map to `+∞`.
pub fn distance_matrix(gradients: &[Vector]) -> Vec<Vec<f32>> {
    let n = gradients.len();
    let d = gradients.first().map(Vector::len).unwrap_or(0);
    let row = |i: usize| -> Vec<f32> {
        (0..n)
            .map(|j| {
                if i == j {
                    0.0
                } else {
                    let dist = gradients[i].squared_distance(&gradients[j]);
                    if dist.is_finite() {
                        dist
                    } else {
                        f32::INFINITY
                    }
                }
            })
            .collect()
    };
    if n * d < PARALLEL_THRESHOLD {
        (0..n).map(row).collect()
    } else {
        (0..n).into_par_iter().map(row).collect()
    }
}

/// Allocate-and-fully-sort Krum score of gradient `index` within `active`.
pub fn krum_score(
    distances: &[Vec<f32>],
    active: &[usize],
    index: usize,
    neighbours: usize,
) -> f32 {
    let mut row: Vec<f32> =
        active.iter().filter(|&&j| j != index).map(|&j| distances[index][j]).collect();
    row.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    row.iter().take(neighbours).sum()
}

/// Krum scores for every member of `active`, with the original gating.
pub fn krum_scores(distances: &[Vec<f32>], active: &[usize], neighbours: usize) -> Vec<f32> {
    if active.len() * active.len() < PARALLEL_THRESHOLD {
        active.iter().map(|&i| krum_score(distances, active, i, neighbours)).collect()
    } else {
        active.par_iter().map(|&i| krum_score(distances, active, i, neighbours)).collect()
    }
}

/// Pre-arena plain averaging.
pub fn average(gradients: &[Vector]) -> Result<Vector> {
    validate_batch("average", gradients)?;
    Ok(stats::coordinate_mean(gradients)?)
}

/// Pre-arena selective averaging (per-coordinate gather + `nan_mean`).
pub fn selective_average(gradients: &[Vector]) -> Result<Vector> {
    let d = validate_batch("selective-average", gradients)?;
    let mut out = Vec::with_capacity(d);
    let mut column = Vec::with_capacity(gradients.len());
    for c in 0..d {
        column.clear();
        column.extend(gradients.iter().map(|g| g[c]));
        match stats::nan_mean(&column) {
            Some(mean) => out.push(mean),
            None => out.push(0.0),
        }
    }
    let out = Vector::from(out);
    if gradients.iter().all(|g| g.count_non_finite() == g.len()) {
        return Err(AggregationError::AllGradientsCorrupt("selective-average"));
    }
    Ok(out)
}

/// Pre-arena coordinate-wise median.
pub fn coordinate_median(f: usize, gradients: &[Vector]) -> Result<Vector> {
    validate_batch("median", gradients)?;
    resilience::check_median("median", gradients.len(), f)?;
    Ok(stats::coordinate_median(gradients)?)
}

/// Pre-arena coordinate-wise trimmed mean with the median fallback.
pub fn trimmed_mean(f: usize, gradients: &[Vector]) -> Result<Vector> {
    let d = validate_batch("trimmed-mean", gradients)?;
    resilience::check_median("trimmed-mean", gradients.len(), f)?;
    if gradients.len() <= 2 * f {
        return Err(AggregationError::NotEnoughWorkers {
            rule: "trimmed-mean",
            f,
            required: 2 * f + 1,
            actual: gradients.len(),
        });
    }
    let mut out = Vec::with_capacity(d);
    let mut column = Vec::with_capacity(gradients.len());
    for c in 0..d {
        column.clear();
        column.extend(gradients.iter().map(|g| g[c]));
        match stats::trimmed_mean(&column, f) {
            Ok(v) => out.push(v),
            Err(_) => out.push(stats::median(&column).map_err(AggregationError::from)?),
        }
    }
    Ok(Vector::from(out))
}

/// Pre-arena mean-around-median.
pub fn meamed(f: usize, gradients: &[Vector]) -> Result<Vector> {
    let d = validate_batch("meamed", gradients)?;
    resilience::check_median("meamed", gradients.len(), f)?;
    let n = gradients.len();
    let keep = (n - f).max(1);
    let mut out = Vec::with_capacity(d);
    let mut column = Vec::with_capacity(n);
    for c in 0..d {
        column.clear();
        column.extend(gradients.iter().map(|g| g[c]));
        let med = stats::median(&column).map_err(AggregationError::from)?;
        out.push(stats::mean_closest_to(&column, med, keep).map_err(AggregationError::from)?);
    }
    Ok(Vector::from(out))
}

/// Pre-arena Weiszfeld geometric median (8 iterations, tolerance 1e-6).
pub fn geometric_median(f: usize, gradients: &[Vector]) -> Result<Vector> {
    let iterations = 8;
    let tolerance = 1e-6f32;
    validate_batch("geometric-median", gradients)?;
    resilience::check_median("geometric-median", gradients.len(), f)?;
    let finite: Vec<&Vector> = gradients.iter().filter(|g| g.is_finite()).collect();
    if finite.is_empty() {
        return Err(AggregationError::AllGradientsCorrupt("geometric-median"));
    }
    let owned: Vec<Vector> = finite.iter().map(|g| (*g).clone()).collect();
    let mut estimate = stats::coordinate_median(&owned)?;
    for _ in 0..iterations {
        let mut weight_sum = 0.0f32;
        let mut next = Vector::zeros(estimate.len());
        let mut coincides = false;
        for g in &finite {
            let distance = estimate.distance(g).max(1e-12);
            if distance <= tolerance {
                coincides = true;
                break;
            }
            let w = 1.0 / distance;
            weight_sum += w;
            next.axpy(w, g)?;
        }
        if coincides || weight_sum == 0.0 {
            break;
        }
        next.scale(1.0 / weight_sum);
        let shift = estimate.distance(&next);
        estimate = next;
        if shift <= tolerance {
            break;
        }
    }
    Ok(estimate)
}

/// Pre-arena Multi-Krum selection (dense matrix, full-sort scores).
pub fn multi_krum_select(f: usize, m: Option<usize>, gradients: &[Vector]) -> Result<Vec<usize>> {
    validate_batch("multi-krum", gradients)?;
    let n = gradients.len();
    let max_m = resilience::multi_krum_max_m(n, f)?;
    let m = match m {
        None => max_m,
        Some(m) if m <= max_m => m,
        Some(m) => {
            return Err(AggregationError::InvalidSelectionSize {
                rule: "multi-krum",
                m,
                max: max_m,
            })
        }
    };
    let neighbours = resilience::krum_neighbour_count(n, f)?;
    let distances = distance_matrix(gradients);
    let active: Vec<usize> = (0..n).collect();
    let scores = krum_scores(&distances, &active, neighbours);
    Ok(stats::k_smallest_indices(&scores, m)?)
}

/// Pre-arena Multi-Krum aggregation (clones every selected gradient).
pub fn multi_krum(f: usize, m: Option<usize>, gradients: &[Vector]) -> Result<Vector> {
    let selected = multi_krum_select(f, m, gradients)?;
    let chosen: Vec<Vector> = selected.iter().map(|&i| gradients[i].clone()).collect();
    if chosen.iter().all(|g| !g.is_finite()) {
        return Err(AggregationError::AllGradientsCorrupt("multi-krum"));
    }
    Ok(stats::coordinate_mean(&chosen)?)
}

/// Pre-arena Bulyan (iterated Krum selection + per-coordinate second phase).
pub fn bulyan(f: usize, gradients: &[Vector]) -> Result<Vector> {
    validate_batch("bulyan", gradients)?;
    let n = gradients.len();
    resilience::check_bulyan(n, f)?;
    let theta = resilience::bulyan_selection_count(n, f)?;
    let distances = distance_matrix(gradients);
    let mut active: Vec<usize> = (0..n).collect();
    let mut selected_idx = Vec::with_capacity(theta);
    for _ in 0..theta {
        let neighbours = active.len().saturating_sub(f + 2).max(1);
        let scores = krum_scores(&distances, &active, neighbours);
        let best_pos = stats::k_smallest_indices(&scores, 1)?[0];
        selected_idx.push(active.remove(best_pos));
    }

    let beta = resilience::bulyan_beta(n, f)?;
    let selected: Vec<&Vector> = selected_idx.iter().map(|&i| &gradients[i]).collect();
    if selected.iter().all(|g| !g.is_finite()) {
        return Err(AggregationError::AllGradientsCorrupt("bulyan"));
    }

    let d = gradients[0].len();
    let mut out = Vec::with_capacity(d);
    let mut column: Vec<f32> = Vec::with_capacity(selected.len());
    let mut finite: Vec<f32> = Vec::with_capacity(selected.len());
    let mut keyed: Vec<(f32, f32)> = Vec::with_capacity(selected.len());
    let cmp = |a: &f32, b: &f32| a.partial_cmp(b).expect("NaN filtered before comparison");
    for c in 0..d {
        column.clear();
        column.extend(selected.iter().map(|g| g[c]));
        finite.clear();
        finite.extend(column.iter().copied().filter(|x| !x.is_nan()));
        let k = finite.len();
        if k == 0 {
            return Err(AggregationError::AllGradientsCorrupt("bulyan"));
        }
        let median = if k % 2 == 1 {
            *finite.select_nth_unstable_by(k / 2, cmp).1
        } else {
            let upper = *finite.select_nth_unstable_by(k / 2, cmp).1;
            let lower = finite[..k / 2].iter().copied().fold(f32::NEG_INFINITY, f32::max);
            0.5 * (lower + upper)
        };
        keyed.clear();
        keyed.extend(column.iter().map(|&v| {
            let key = if v.is_finite() { (v - median).abs() } else { f32::INFINITY };
            (key, v)
        }));
        let beta = beta.min(keyed.len()).max(1);
        keyed.select_nth_unstable_by(beta - 1, |a, b| {
            a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal)
        });
        let sum: f32 = keyed[..beta].iter().map(|&(_, v)| v).sum();
        out.push(sum / beta as f32);
    }
    Ok(Vector::from(out))
}

/// Draco's majority decoding over the submissions themselves: the first
/// finite row that more than half of the rows equal coordinate for
/// coordinate (a row with a NaN or ±∞ coordinate never votes).
///
/// # Errors
///
/// [`AggregationError::NotEnoughWorkers`] below `2f + 1` rows and
/// [`AggregationError::NoMajority`] when no row reaches the majority.
pub fn majority_decode(f: usize, gradients: &[Vector]) -> Result<Vector> {
    validate_batch("majority", gradients)?;
    let n = gradients.len();
    resilience::check_median("majority", n, f)?;
    let supporters = |candidate: &Vector| {
        gradients.iter().filter(|&row| candidate.is_finite() && row == candidate).count()
    };
    let largest = gradients.iter().map(supporters).max().unwrap_or(0);
    match gradients.iter().find(|candidate| 2 * supporters(candidate) > n) {
        Some(winner) => Ok(winner.clone()),
        None => Err(AggregationError::NoMajority { rule: "majority", largest, n }),
    }
}

/// Dispatches one round through the pre-arena implementation of `kind`.
///
/// # Errors
///
/// Same error conditions as the corresponding live rule.
pub fn aggregate(kind: GarKind, f: usize, gradients: &[Vector]) -> Result<Vector> {
    match kind {
        GarKind::Average => average(gradients),
        GarKind::SelectiveAverage => selective_average(gradients),
        GarKind::Median => coordinate_median(f, gradients),
        GarKind::TrimmedMean => trimmed_mean(f, gradients),
        GarKind::MeaMed => meamed(f, gradients),
        GarKind::GeometricMedian => geometric_median(f, gradients),
        GarKind::Krum => multi_krum(f, Some(1), gradients),
        GarKind::MultiKrum => multi_krum(f, None, gradients),
        GarKind::Bulyan => bulyan(f, gradients),
        GarKind::Majority => majority_decode(f, gradients),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_dispatch_covers_every_kind() {
        let gradients: Vec<Vector> =
            (0..19).map(|i| Vector::from(vec![1.0 + 0.01 * i as f32, -1.0])).collect();
        // The majority vote refuses distinct rows; over a duplicated
        // majority it decodes.
        let mut duplicated = gradients.clone();
        for (i, row) in duplicated.iter_mut().enumerate() {
            if i == 0 || i % 2 == 1 {
                *row = Vector::from(vec![0.5, -1.0]);
            }
        }
        for kind in GarKind::ALL {
            let out = match kind {
                GarKind::Majority => {
                    assert!(matches!(
                        aggregate(kind, 4, &gradients),
                        Err(AggregationError::NoMajority { largest: 1, n: 19, .. })
                    ));
                    aggregate(kind, 4, &duplicated).unwrap()
                }
                _ => aggregate(kind, 4, &gradients).unwrap(),
            };
            assert_eq!(out.len(), 2, "{kind} produced the wrong dimension");
            assert!(out.is_finite(), "{kind} produced a non-finite aggregate");
        }
    }

    #[test]
    fn reference_distance_matrix_computes_both_triangles() {
        let gs = vec![Vector::from(vec![0.0]), Vector::from(vec![2.0])];
        let d = distance_matrix(&gs);
        assert_eq!(d[0][1], 4.0);
        assert_eq!(d[1][0], 4.0);
    }
}
