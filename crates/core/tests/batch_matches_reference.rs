//! Property tests pinning the fused `GradientBatch` kernels to the frozen
//! pre-arena reference implementations in [`agg_core::reference`].
//!
//! Every live rule must reproduce its reference within 1e-5 (relative to the
//! reference magnitude, absolute near zero) across random worker counts,
//! dimensions and declared `f` — including batches carrying NaN/±∞
//! gradients, where the paper's non-finite policy must hold: corrupt
//! gradients map to `+∞` distance and are never selected while enough finite
//! candidates exist.
//!
//! The pinning is up to ties: where the pre-arena kernels themselves were
//! order- or partition-dependent (values exactly equidistant from a median,
//! equal Krum scores, non-finite garbage competing at key `+∞`), the arena
//! kernels choose deterministically instead, and continuous random inputs
//! never land on those measure-zero sets.

use agg_core::{reference, Gar, GarConfig, GarKind, GradientBatch};
use agg_tensor::{stats, Vector};
use proptest::prelude::*;

const TOLERANCE: f32 = 1e-5;

/// Component-wise "matches the reference" check: equal non-finite behaviour,
/// otherwise within 1e-5 of the reference value.
fn close(actual: f32, expected: f32) -> bool {
    if actual.is_nan() && expected.is_nan() {
        return true;
    }
    if actual == expected {
        return true; // covers equal infinities and exact matches
    }
    (actual - expected).abs() <= TOLERANCE * expected.abs().max(1.0)
}

fn assert_vectors_close(kind: GarKind, actual: &Vector, expected: &Vector) {
    // MeaMed and Bulyan's second phase rank every unusable value (NaN, ±∞)
    // at key +∞; when a coordinate has fewer usable values than the keep
    // count, the pre-arena kernel breaks that tie arbitrarily (unstable
    // selection), so which non-finite garbage reaches the mean is not part
    // of its contract. In that regime any non-finite output matches any
    // other; everywhere else the comparison is strict.
    let lenient_non_finite = matches!(kind, GarKind::MeaMed | GarKind::Bulyan);
    assert_eq!(actual.len(), expected.len(), "{kind}: dimension mismatch");
    for c in 0..actual.len() {
        if lenient_non_finite && !actual[c].is_finite() && !expected[c].is_finite() {
            continue;
        }
        assert!(
            close(actual[c], expected[c]),
            "{kind}: coordinate {c} diverged: arena {} vs reference {}",
            actual[c],
            expected[c]
        );
    }
}

/// Runs every rule through both paths and checks they agree on success and
/// on the produced aggregate. Over distinct rows the majority vote refuses
/// on both paths; [`majority_rows`] gives it batches it decodes.
fn assert_all_rules_match(f: usize, gradients: &[Vector]) {
    for kind in GarKind::ALL {
        assert_rule_matches(kind, f, gradients);
    }
}

fn assert_rule_matches(kind: GarKind, f: usize, gradients: &[Vector]) {
    let live = GarConfig::new(kind, f).build().expect("buildable rule");
    let arena = live.aggregate(gradients);
    let legacy = reference::aggregate(kind, f, gradients);
    match (arena, legacy) {
        (Ok(a), Ok(b)) => assert_vectors_close(kind, &a, &b),
        (Err(_), Err(_)) => {}
        (a, b) => panic!("{kind}: arena {a:?} disagrees with reference {b:?} on success"),
    }
}

fn finite_rows() -> impl Strategy<Value = Vec<Vector>> {
    (5usize..24, 1usize..24).prop_flat_map(|(n, d)| {
        prop::collection::vec(prop::collection::vec(-8.0f32..8.0, d).prop_map(Vector::from), n)
    })
}

/// A mostly-finite coordinate that occasionally turns non-finite, mirroring
/// real malicious submissions (the paper: "actual malicious workers will
/// send NaN/±Inf coordinates").
fn sometimes_corrupt() -> impl Strategy<Value = f32> {
    prop_oneof![
        (-8.0f32..8.0).boxed(),
        (-8.0f32..8.0).boxed(),
        (-8.0f32..8.0).boxed(),
        Just(f32::NAN).boxed(),
        Just(f32::INFINITY).boxed(),
        Just(f32::NEG_INFINITY).boxed(),
    ]
}

/// Finite batch with up to `n/5` rows replaced by corrupt submissions.
fn corrupt_rows() -> impl Strategy<Value = Vec<Vector>> {
    (6usize..24, 1usize..16).prop_flat_map(|(n, d)| {
        let honest =
            prop::collection::vec(prop::collection::vec(-8.0f32..8.0, d).prop_map(Vector::from), n);
        let corrupt = prop::collection::vec(
            prop::collection::vec(sometimes_corrupt(), d).prop_map(Vector::from),
            n / 5 + 1,
        );
        (honest, corrupt).prop_map(|(mut rows, corrupt)| {
            let n = rows.len();
            for (k, bad) in corrupt.into_iter().enumerate() {
                let slot = (k * 3 + 1) % n;
                rows[slot] = bad;
            }
            rows
        })
    })
}

/// A repetition group: `copies` replicas of one row scattered among
/// traitor rows (some carrying NaN/±∞), `copies` from one below to well
/// above a majority, so the vote both refuses and decodes.
fn majority_rows() -> impl Strategy<Value = Vec<Vector>> {
    (3usize..16, 1usize..12).prop_flat_map(|(n, d)| {
        let replica = prop::collection::vec(-8.0f32..8.0, d).prop_map(Vector::from);
        let traitors = prop::collection::vec(
            prop::collection::vec(sometimes_corrupt(), d).prop_map(Vector::from),
            n,
        );
        (replica, traitors, n / 2..n + 1, 0usize..n).prop_map(
            |(replica, mut rows, copies, shift)| {
                let n = rows.len();
                for k in 0..copies {
                    rows[(k + shift) % n] = replica.clone();
                }
                rows
            },
        )
    })
}

proptest! {
    #[test]
    fn majority_matches_reference_on_replicated_batches(gs in majority_rows(), f in 0usize..4) {
        assert_rule_matches(GarKind::Majority, f, &gs);
    }

    #[test]
    fn all_rules_match_reference_on_finite_batches(gs in finite_rows(), f in 0usize..3) {
        assert_all_rules_match(f, &gs);
    }

    #[test]
    fn all_rules_match_reference_on_corrupt_batches(gs in corrupt_rows(), f in 0usize..3) {
        assert_all_rules_match(f, &gs);
    }

    #[test]
    fn triangular_distances_equal_dense_reference(gs in corrupt_rows()) {
        let batch = GradientBatch::from_vectors(&gs).unwrap();
        let triangular = batch.pairwise_squared_distances();
        let dense = reference::distance_matrix(&gs);
        for (i, dense_row) in dense.iter().enumerate() {
            for (j, &dense_dist) in dense_row.iter().enumerate() {
                // Same inner kernel on the same operands, each pair computed
                // once: the expansion must agree exactly, including the +∞
                // mapping of non-finite distances.
                prop_assert_eq!(triangular.get(i, j), dense_dist);
                prop_assert_eq!(triangular.get(i, j), triangular.get(j, i));
            }
        }
    }

    #[test]
    fn corrupt_gradients_are_never_selected(gs in finite_rows(), f in 1usize..3) {
        // Corrupt exactly f rows; Multi-Krum with a valid precondition must
        // select none of them (their distances are +∞ to everything).
        let n = gs.len();
        if n < 2 * f + 3 {
            return;
        }
        let mut gs = gs;
        let d = gs[0].len();
        for k in 0..f {
            let slot = (k * 5 + 2) % n;
            gs[slot] = Vector::from(vec![f32::NAN; d]);
        }
        let corrupt: Vec<usize> = (0..f).map(|k| (k * 5 + 2) % n).collect();
        let batch = GradientBatch::from_vectors(&gs).unwrap();
        let selected = GarConfig::new(GarKind::MultiKrum, f).selected_rows(&batch, None).unwrap().unwrap();
        for i in &selected {
            prop_assert!(!corrupt.contains(i), "corrupt row {i} was selected: {selected:?}");
        }
    }

    #[test]
    fn k_smallest_matches_stable_sort_reference(
        values in prop::collection::vec(sometimes_corrupt(), 1..40),
        k_frac in 0.0f64..1.0,
    ) {
        let k = ((values.len() as f64) * k_frac) as usize;
        let fast = stats::k_smallest_indices(&values, k).unwrap();
        // The pre-optimisation reference: stable full sort with NaN → +∞.
        let mut reference_idx: Vec<usize> = (0..values.len()).collect();
        reference_idx.sort_by(|&a, &b| {
            let va = if values[a].is_nan() { f32::INFINITY } else { values[a] };
            let vb = if values[b].is_nan() { f32::INFINITY } else { values[b] };
            va.partial_cmp(&vb).unwrap_or(std::cmp::Ordering::Equal)
        });
        reference_idx.truncate(k);
        prop_assert_eq!(fast, reference_idx);
    }

    #[test]
    fn batch_column_kernels_match_slice_stats(gs in corrupt_rows()) {
        let batch = GradientBatch::from_vectors(&gs).unwrap();
        let d = gs[0].len();
        let mut column = Vec::with_capacity(gs.len());
        let median = batch.coordinate_median();
        let rows: Vec<&[f32]> = gs.iter().map(Vector::as_slice).collect();
        let std = stats::coordinate_std_of_rows(&rows).unwrap();
        let nan_mean = batch.coordinate_nan_mean().unwrap();
        for c in 0..d {
            column.clear();
            column.extend(gs.iter().map(|g| g[c]));
            match (&median, stats::median(&column)) {
                (Ok(m), Ok(expected)) => prop_assert!(close(m[c], expected)),
                (Err(_), Err(_)) => {}
                // The batch kernel fails on the first all-NaN column, the
                // slice kernel per column — a later column can still be
                // computable by the slice kernel.
                (Err(_), Ok(_)) => {}
                (Ok(_), Err(_)) => panic!("batch median succeeded where slice median failed"),
            }
            prop_assert!(close(std[c], stats::variance(&column).sqrt()));
            prop_assert!(close(nan_mean[c], stats::nan_mean(&column).unwrap_or(0.0)));
        }
    }
}
