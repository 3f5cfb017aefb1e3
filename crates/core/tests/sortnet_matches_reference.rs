//! Property tests pinning the selection-network order-statistic kernels to
//! the frozen pre-arena oracle in [`agg_core::reference`].
//!
//! The vertical network path (n ≤ 32: Batcher networks over lane-major
//! tiles, NaN canonicalised to `+∞`) must reproduce the reference for every
//! order-statistic rule — median, trimmed mean, MeaMed and Bulyan (whose
//! second phase is the closest-to-median window) — across:
//!
//! * every worker count the networks serve in practice (`n ∈ 1..=25`, odd
//!   and even, crossing the paper's n = 19),
//! * duplicates-heavy inputs (values drawn from a seven-element set, so
//!   compare–exchange ties are everywhere and any unstable-ordering bug
//!   would surface),
//! * NaN/±∞ rows (the canonicalisation pre-pass and per-lane finite counts
//!   must reproduce the scalar kernels' drop-NaN-then-select semantics),
//! * ragged lane tails (`d` free in `1..=41`, rarely a multiple of the 16-
//!   or 8-wide lane groups, so short leading/trailing tiles are exercised
//!   constantly),
//! * row counts beyond the network cap (n > 32 falls back to the scalar
//!   quickselect path, which must stay pinned too).
//!
//! Like `batch_matches_reference.rs`, the reference pinning is **up to
//! ties**: the median and trimmed mean are functions of the sorted value
//! multiset alone and must pin exactly even on tie-saturated inputs, while
//! MeaMed and Bulyan's closest-to-median window legitimately diverges from
//! the pre-arena kernels on exact ties (the reference broke them by
//! submission order, the arena deterministically prefers the smaller
//! value), so on tie-heavy inputs those two are pinned for Ok/Err agreement
//! against the reference and for **value identity between the network and
//! quickselect paths** — which is what keeps the `n ≤ 32` dispatch an
//! implementation detail rather than observable behaviour. Shard
//! equivalence across the new kernels is pinned by
//! `tests/shard_equivalence.rs` (every rule × S ∈ {1, 2, 3, 7} — shard
//! boundaries land mid-tile on purpose); here a column-view probe checks
//! the same property at adversarially misaligned offsets.

use agg_core::{reference, GarConfig, GarKind, GradientBatch};
use agg_tensor::batch::OrderStatistic;
use agg_tensor::Vector;
use proptest::prelude::*;

const TOLERANCE: f32 = 1e-5;

/// The rules whose per-coordinate reductions are order statistics, i.e.
/// everything the selection networks serve.
const ORDER_STAT_KINDS: [GarKind; 4] =
    [GarKind::Median, GarKind::TrimmedMean, GarKind::MeaMed, GarKind::Bulyan];

/// The order-statistic rules that are functions of each column's sorted
/// value multiset alone — immune to tie-breaking order, so they pin to the
/// reference exactly even on duplicates-saturated inputs.
const TIE_INSENSITIVE_KINDS: [GarKind; 2] = [GarKind::Median, GarKind::TrimmedMean];

fn close(actual: f32, expected: f32) -> bool {
    if actual.is_nan() && expected.is_nan() {
        return true;
    }
    if actual == expected {
        return true; // covers equal infinities and exact matches
    }
    (actual - expected).abs() <= TOLERANCE * expected.abs().max(1.0)
}

/// Mirrors the leniency of `batch_matches_reference.rs`: where the
/// pre-arena kernels broke non-finite ties arbitrarily (MeaMed / Bulyan
/// windows short of finite values), any non-finite output matches any
/// other.
fn assert_rules_match_reference(kinds: &[GarKind], f: usize, gradients: &[Vector]) {
    for &kind in kinds {
        let live = GarConfig::new(kind, f).build().expect("buildable rule");
        let arena = live.aggregate(gradients);
        let legacy = reference::aggregate(kind, f, gradients);
        let lenient = matches!(kind, GarKind::MeaMed | GarKind::Bulyan);
        match (arena, legacy) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.len(), b.len(), "{kind}: dimension mismatch");
                for c in 0..a.len() {
                    if lenient && !a[c].is_finite() && !b[c].is_finite() {
                        continue;
                    }
                    assert!(
                        close(a[c], b[c]),
                        "{kind} (f={f}, n={}, d={}): coordinate {c}: network {} vs reference {}",
                        gradients.len(),
                        gradients[0].len(),
                        a[c],
                        b[c]
                    );
                }
            }
            (Err(_), Err(_)) => {}
            (a, b) => panic!("{kind}: network {a:?} disagrees with reference {b:?} on success"),
        }
    }
}

/// On tie-heavy inputs MeaMed/Bulyan window membership is not pinned to
/// the reference, but whether the rule *succeeds* still is.
fn assert_rules_agree_on_success(kinds: &[GarKind], f: usize, gradients: &[Vector]) {
    for &kind in kinds {
        let live = GarConfig::new(kind, f).build().expect("buildable rule");
        let arena = live.aggregate(gradients).is_ok();
        let legacy = reference::aggregate(kind, f, gradients).is_ok();
        assert_eq!(arena, legacy, "{kind} (f={f}): success disagrees with the reference");
    }
}

/// A duplicates-heavy coordinate: seven distinct values, so every column of
/// a worker-count batch carries ties.
fn duplicate_heavy() -> impl Strategy<Value = f32> {
    (0usize..7).prop_map(|i| [-2.0f32, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0][i])
}

/// A duplicates-heavy coordinate that is sometimes NaN/±∞.
fn duplicate_heavy_corrupt() -> impl Strategy<Value = f32> {
    prop_oneof![
        duplicate_heavy().boxed(),
        duplicate_heavy().boxed(),
        duplicate_heavy().boxed(),
        duplicate_heavy().boxed(),
        (0usize..3).prop_map(|i| [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][i]).boxed(),
    ]
}

fn rows<S: Strategy<Value = f32>>(
    n: impl Strategy<Value = usize>,
    coord: impl Fn() -> S + Clone + 'static,
) -> impl Strategy<Value = Vec<Vector>> {
    (n, 1usize..42).prop_flat_map(move |(n, d)| {
        prop::collection::vec(prop::collection::vec(coord(), d).prop_map(Vector::from), n.max(1))
    })
}

proptest! {
    #[test]
    fn network_rules_match_reference_on_duplicate_heavy_batches(
        gs in rows(1usize..26, duplicate_heavy),
        f in 0usize..3,
    ) {
        assert_rules_match_reference(&TIE_INSENSITIVE_KINDS, f, &gs);
        assert_rules_agree_on_success(&ORDER_STAT_KINDS, f, &gs);
    }

    #[test]
    fn network_rules_match_reference_on_corrupt_batches(
        gs in rows(1usize..26, duplicate_heavy_corrupt),
        f in 0usize..3,
    ) {
        assert_rules_match_reference(&TIE_INSENSITIVE_KINDS, f, &gs);
        assert_rules_agree_on_success(&ORDER_STAT_KINDS, f, &gs);
    }

    #[test]
    fn network_rules_match_reference_on_continuous_batches(
        gs in rows(3usize..26, || -8.0f32..8.0),
        f in 0usize..3,
    ) {
        // Continuous inputs never land on tie sets: all four rules pin.
        assert_rules_match_reference(&ORDER_STAT_KINDS, f, &gs);
    }

    #[test]
    fn scalar_fallback_beyond_the_network_cap_matches_reference(
        gs in rows(33usize..41, duplicate_heavy_corrupt),
        f in 0usize..3,
    ) {
        // n > MAX_NETWORK_N: the quickselect path must stay pinned too.
        assert_rules_match_reference(&TIE_INSENSITIVE_KINDS, f, &gs);
        assert_rules_agree_on_success(&ORDER_STAT_KINDS, f, &gs);
    }

    #[test]
    fn network_and_quickselect_paths_agree_value_identically(
        gs in rows(1usize..26, duplicate_heavy_corrupt),
        trim in 0usize..4,
    ) {
        // The n ≤ 32 dispatch must be unobservable: same values (NaN-aware
        // equality; `-0.0 == 0.0` is fine, both are the same number) from
        // the network tiles and the scalar gather, including the NaN and
        // ±∞ regimes and the trimmed-mean median fallback.
        let batch = GradientBatch::from_vectors(&gs).unwrap();
        let same = |a: agg_tensor::Result<Vector>, b: agg_tensor::Result<Vector>, what: &str| {
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.len(), b.len());
                    for c in 0..a.len() {
                        prop_assert!(
                            a[c] == b[c] || (a[c].is_nan() && b[c].is_nan()),
                            "{} diverged at {}: network {} vs quickselect {}",
                            what, c, a[c], b[c]
                        );
                    }
                }
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(false, "{}: {:?} vs {:?} disagree on success", what, a, b),
            }
        };
        same(
            batch.coordinate_median(),
            batch.order_statistic_quickselect(OrderStatistic::Median),
            "median",
        );
        same(
            batch.coordinate_trimmed_mean(trim),
            batch.order_statistic_quickselect(OrderStatistic::TrimmedMean { trim }),
            "trimmed-mean",
        );
        let keep = (gs.len() / 2).max(1);
        same(
            batch.mean_around_median(keep),
            batch.order_statistic_quickselect(OrderStatistic::MeanAroundMedian { keep }),
            "mean-around-median",
        );
    }

    #[test]
    fn misaligned_column_views_match_the_full_width_kernels(
        gs in rows(1usize..26, duplicate_heavy_corrupt),
        start_frac in 0.0f64..1.0,
        keep in 1usize..8,
    ) {
        // Shard boundaries land anywhere relative to the 16/8-wide lane
        // grid; a view's kernels must be bit-identical to the same columns
        // of the full-width result (short leading tiles, narrow tails and
        // the NaN-tile dispatch must not leak across columns).
        let batch = GradientBatch::from_vectors(&gs).unwrap();
        let d = batch.dim();
        let start = ((d as f64) * start_frac) as usize;
        let cols = start..d;
        let view = batch.columns(cols.clone());
        let windowed = |kernel: &dyn Fn(&mut [f32]) -> agg_tensor::Result<()>| {
            let mut out = vec![0.0f32; view.width()];
            kernel(&mut out).map(|()| Vector::from(out))
        };
        let pairs: [(agg_tensor::Result<Vector>, agg_tensor::Result<Vector>); 3] = [
            (batch.coordinate_median(), windowed(&|out| view.median_into(None, out))),
            (batch.coordinate_trimmed_mean(2), windowed(&|out| view.trimmed_mean_into(2, out))),
            (
                batch.mean_around_median(keep),
                windowed(&|out| view.mean_around_median_into(None, keep, out)),
            ),
        ];
        for (full, windowed) in pairs {
            match (full, windowed) {
                (Ok(full), Ok(windowed)) => {
                    let expected = &full.as_slice()[cols.clone()];
                    for (c, (&a, &b)) in windowed.as_slice().iter().zip(expected).enumerate() {
                        prop_assert!(
                            a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                            "column {} of view {}..{}: {} vs {}", c, cols.start, cols.end, a, b
                        );
                    }
                }
                // The full kernel can fail on an all-NaN column *outside*
                // the view, so a failing full result pins nothing here.
                (Err(_), _) => {}
                // The view's columns are a subset of the full kernel's: the
                // view failing where the full kernel succeeded is a bug.
                (Ok(a), Err(b)) => {
                    prop_assert!(false, "view failed ({b:?}) where full succeeded ({a:?})");
                }
            }
        }
    }
}
