//! Property-based tests of the Byzantine-resilience invariants the paper
//! states for each gradient aggregation rule.

use agg_core::{Gar, GarConfig, GarKind};
use agg_tensor::Vector;
use proptest::prelude::*;

/// Strategy: an honest gradient cluster of dimension `d` centred on `center`
/// with bounded spread.
fn honest_cluster(n: usize, d: usize) -> impl Strategy<Value = (Vec<Vector>, f32)> {
    (-10.0f32..10.0).prop_flat_map(move |center| {
        prop::collection::vec(prop::collection::vec(-1.0f32..1.0, d), n).prop_map(move |noise| {
            let grads = noise
                .into_iter()
                .map(|nv| Vector::from_iter(nv.into_iter().map(|x| center + 0.1 * x)))
                .collect();
            (grads, center)
        })
    })
}

/// Strategy: a Byzantine gradient with unbounded coordinates, possibly
/// non-finite.
fn byzantine_gradient(d: usize) -> impl Strategy<Value = Vector> {
    prop::collection::vec(
        prop_oneof![-1e9f32..1e9, Just(f32::NAN), Just(f32::INFINITY), Just(f32::NEG_INFINITY),],
        d,
    )
    .prop_map(Vector::from)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Multi-Krum's output stays within the honest bounding box, no matter
    /// what the f Byzantine gradients are.
    #[test]
    fn multi_krum_output_bounded_by_honest_box(
        (honest, _center) in honest_cluster(11, 4),
        byz in prop::collection::vec(byzantine_gradient(4), 4),
    ) {
        let mut all = honest.clone();
        all.extend(byz);
        let gar = GarConfig::new(GarKind::MultiKrum, 4);
        let out = gar.aggregate(&all).unwrap();
        for c in 0..4 {
            let lo = honest.iter().map(|g| g[c]).fold(f32::INFINITY, f32::min);
            let hi = honest.iter().map(|g| g[c]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(out[c] >= lo - 1e-3 && out[c] <= hi + 1e-3,
                "coordinate {} = {} outside honest range [{}, {}]", c, out[c], lo, hi);
        }
    }

    /// Multi-Krum never selects a Byzantine index when Byzantine gradients
    /// are far from the honest cluster.
    #[test]
    fn multi_krum_never_selects_distant_byzantine(
        (honest, center) in honest_cluster(11, 3),
        offsets in prop::collection::vec(100.0f32..1e6, 4),
    ) {
        let mut all = honest;
        for off in &offsets {
            all.push(Vector::filled(3, center + off));
        }
        let gar = GarConfig::new(GarKind::MultiKrum, 4);
        let batch = agg_tensor::GradientBatch::from_vectors(&all).unwrap();
        let selected = gar.selected_rows(&batch, None).unwrap().unwrap();
        prop_assert!(selected.iter().all(|&i| i < 11), "selected {:?}", selected);
    }

    /// Bulyan's output is within the honest coordinate range (strong
    /// resilience, Definition 2 in miniature).
    #[test]
    fn bulyan_output_bounded_by_honest_box(
        (honest, _center) in honest_cluster(15, 3),
        byz in prop::collection::vec(byzantine_gradient(3), 3),
    ) {
        let mut all = honest.clone();
        all.extend(byz);
        let gar = GarConfig::new(GarKind::Bulyan, 3);
        let out = gar.aggregate(&all).unwrap();
        for c in 0..3 {
            let lo = honest.iter().map(|g| g[c]).fold(f32::INFINITY, f32::min);
            let hi = honest.iter().map(|g| g[c]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(out[c] >= lo - 1e-3 && out[c] <= hi + 1e-3);
        }
    }

    /// The coordinate-wise median is bounded by honest values per coordinate
    /// as long as honest workers form a strict majority.
    #[test]
    fn median_bounded_per_coordinate(
        (honest, _center) in honest_cluster(7, 3),
        byz in prop::collection::vec(byzantine_gradient(3), 3),
    ) {
        let mut all = honest.clone();
        all.extend(byz);
        let gar = GarConfig::new(GarKind::Median, 3);
        let out = gar.aggregate(&all).unwrap();
        for c in 0..3 {
            let lo = honest.iter().map(|g| g[c]).fold(f32::INFINITY, f32::min);
            let hi = honest.iter().map(|g| g[c]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(out[c] >= lo - 1e-3 && out[c] <= hi + 1e-3);
        }
    }

    /// Trimmed mean with trim = f is bounded by honest values per coordinate.
    #[test]
    fn trimmed_mean_bounded_per_coordinate(
        (honest, _center) in honest_cluster(7, 3),
        byz in prop::collection::vec(byzantine_gradient(3), 2),
    ) {
        let mut all = honest.clone();
        all.extend(byz);
        let gar = GarConfig::new(GarKind::TrimmedMean, 2);
        let out = gar.aggregate(&all).unwrap();
        for c in 0..3 {
            let lo = honest.iter().map(|g| g[c]).fold(f32::INFINITY, f32::min);
            let hi = honest.iter().map(|g| g[c]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(out[c] >= lo - 1e-3 && out[c] <= hi + 1e-3);
        }
    }

    /// Aggregation output is invariant (up to float tolerance) under
    /// permutation of the submission order for every robust rule.
    ///
    /// Byzantine gradients are kept far from the honest cluster: when an
    /// "attacker" submits a gradient statistically indistinguishable from the
    /// honest ones, score ties can legitimately break differently under
    /// permutation (and such a gradient is harmless anyway).
    #[test]
    fn robust_rules_are_permutation_invariant(
        (honest, center) in honest_cluster(13, 3),
        offsets in prop::collection::vec(100.0f32..1e6, 2),
        seed in 0u64..1000,
    ) {
        let mut all = honest;
        for off in &offsets {
            all.push(Vector::filled(3, center + off));
        }
        let mut permuted = all.clone();
        // Deterministic pseudo-shuffle driven by the seed.
        let n = permuted.len();
        for i in 0..n {
            let j = ((seed as usize).wrapping_mul(31).wrapping_add(i * 17)) % n;
            permuted.swap(i, j);
        }
        // Exact score ties (identical honest gradients) may legitimately
        // break differently under permutation; the outputs can then differ by
        // at most the honest per-coordinate spread. Real gradients have
        // essentially zero probability of exact ties, so the spread-based
        // tolerance is the honest statement of the invariant.
        let honest = &all[..13];
        let tolerance: Vec<f32> = (0..3)
            .map(|c| {
                let lo = honest.iter().map(|g| g[c]).fold(f32::INFINITY, f32::min);
                let hi = honest.iter().map(|g| g[c]).fold(f32::NEG_INFINITY, f32::max);
                (hi - lo) + 1e-3
            })
            .collect();
        for kind in [GarKind::MultiKrum, GarKind::Bulyan, GarKind::Median] {
            let gar = GarConfig::new(kind, 2);
            let a = gar.aggregate(&all).unwrap();
            let b = gar.aggregate(&permuted).unwrap();
            for c in 0..3 {
                prop_assert!((a[c] - b[c]).abs() <= tolerance[c],
                    "{} not permutation invariant at coordinate {}", gar.name(), c);
            }
        }
    }

    /// With zero Byzantine workers and f = 0, Multi-Krum with the maximal m
    /// equals the average of the selected (n - 2) gradients, hence stays very
    /// close to the overall average for a tight cluster.
    #[test]
    fn multi_krum_close_to_average_without_byzantine(
        (honest, _center) in honest_cluster(9, 3),
    ) {
        let avg = GarConfig::new(GarKind::Average, 0).aggregate(&honest).unwrap();
        let mk = GarConfig::new(GarKind::MultiKrum, 0).aggregate(&honest).unwrap();
        for c in 0..3 {
            prop_assert!((avg[c] - mk[c]).abs() < 0.2);
        }
    }
}
