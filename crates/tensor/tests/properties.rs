//! Property-based tests for the numeric kernels in `agg-tensor`.

use agg_tensor::{stats, Vector};
use proptest::prelude::*;

fn finite_f32() -> impl Strategy<Value = f32> {
    prop::num::f32::NORMAL | prop::num::f32::ZERO
}

fn vector(len: usize) -> impl Strategy<Value = Vector> {
    prop::collection::vec(finite_f32().prop_map(|x| x % 1e3), len).prop_map(Vector::from)
}

proptest! {
    #[test]
    fn distance_is_symmetric_and_nonnegative(a in vector(16), b in vector(16)) {
        let dab = a.squared_distance(&b);
        let dba = b.squared_distance(&a);
        prop_assert!(dab >= 0.0);
        prop_assert!((dab - dba).abs() <= 1e-3 * dab.abs().max(1.0));
    }

    #[test]
    fn distance_to_self_is_zero(a in vector(32)) {
        prop_assert_eq!(a.squared_distance(&a), 0.0);
    }

    #[test]
    fn triangle_inequality_on_norm_distance(a in vector(8), b in vector(8), c in vector(8)) {
        let ab = a.distance(&b);
        let bc = b.distance(&c);
        let ac = a.distance(&c);
        prop_assert!(ac <= ab + bc + 1e-2 * (ab + bc).max(1.0));
    }

    #[test]
    fn median_is_within_input_range(values in prop::collection::vec(-1e3f32..1e3, 1..64)) {
        let m = stats::median(&values).unwrap();
        let lo = values.iter().cloned().fold(f32::INFINITY, f32::min);
        let hi = values.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        prop_assert!(m >= lo && m <= hi);
    }

    #[test]
    fn median_is_permutation_invariant(mut values in prop::collection::vec(-1e3f32..1e3, 1..32)) {
        let m1 = stats::median(&values).unwrap();
        values.reverse();
        let m2 = stats::median(&values).unwrap();
        prop_assert!((m1 - m2).abs() < 1e-6);
    }

    #[test]
    fn trimmed_mean_is_within_kept_range(values in prop::collection::vec(-1e3f32..1e3, 5..64)) {
        let trim = values.len() / 4;
        let tm = stats::trimmed_mean(&values, trim).unwrap();
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let kept = &sorted[trim..sorted.len() - trim];
        let lo = kept.first().copied().unwrap();
        let hi = kept.last().copied().unwrap();
        prop_assert!(tm >= lo - 1e-3 && tm <= hi + 1e-3);
    }

    #[test]
    fn coordinate_mean_commutes_with_scaling(vs in prop::collection::vec(vector(8), 1..8), alpha in -10.0f32..10.0) {
        let mean = stats::coordinate_mean(&vs).unwrap();
        let scaled: Vec<Vector> = vs.iter().map(|v| v.scaled(alpha)).collect();
        let mean_scaled = stats::coordinate_mean(&scaled).unwrap();
        for i in 0..mean.len() {
            let expected = mean[i] * alpha;
            prop_assert!((mean_scaled[i] - expected).abs() <= 1e-2 * expected.abs().max(1.0));
        }
    }

    #[test]
    fn k_smallest_returns_sorted_prefix(values in prop::collection::vec(-1e3f32..1e3, 1..64), k_frac in 0.0f64..1.0) {
        let k = ((values.len() as f64) * k_frac) as usize;
        let idx = stats::k_smallest_indices(&values, k).unwrap();
        prop_assert_eq!(idx.len(), k);
        // Selected values are all <= every non-selected value.
        let selected_max = idx.iter().map(|&i| values[i]).fold(f32::NEG_INFINITY, f32::max);
        for (i, &v) in values.iter().enumerate() {
            if !idx.contains(&i) && k > 0 {
                prop_assert!(v >= selected_max - 1e-6);
            }
        }
    }

    #[test]
    fn axpy_matches_operator_addition(a in vector(16), b in vector(16), alpha in -5.0f32..5.0) {
        let mut lhs = a.clone();
        lhs.axpy(alpha, &b).unwrap();
        let rhs = &a + &b.scaled(alpha);
        for i in 0..lhs.len() {
            prop_assert!((lhs[i] - rhs[i]).abs() <= 1e-3 * rhs[i].abs().max(1.0));
        }
    }

    #[test]
    fn softmax_is_a_distribution(logits in prop::collection::vec(-50.0f32..50.0, 1..32)) {
        let p = agg_tensor::ops::softmax(&logits);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&x| x >= 0.0));
    }
}
