//! Deterministic random-number helpers.
//!
//! Every experiment in the reproduction is driven by an explicit `u64` seed so
//! runs are repeatable across machines. The helpers here centralise the choice
//! of generator (xoshiro-family `SmallRng`) and provide the Gaussian sampling
//! used for weight initialisation, synthetic data, and Byzantine attacks.

use crate::Vector;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};

/// Creates the crate-standard seeded RNG.
pub fn seeded_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Derives a child seed from a parent seed and a stream index.
///
/// Workers, attacks, and data shards each get independent streams derived
/// from one experiment seed; SplitMix64-style mixing keeps the streams
/// decorrelated even for adjacent indices.
pub fn derive_seed(parent: u64, stream: u64) -> u64 {
    let mut z = parent.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Samples a vector of i.i.d. Gaussian coordinates.
pub fn gaussian_vector(rng: &mut SmallRng, len: usize, mean: f32, std: f32) -> Vector {
    let normal = Normal::new(mean, std.max(0.0)).expect("std is non-negative and finite");
    Vector::from_iter((0..len).map(|_| normal.sample(rng)))
}

/// Fills `dst` with i.i.d. Gaussian coordinates in place (the allocation-free
/// sibling of [`gaussian_vector`], for reused arenas). Draws the same stream
/// as [`gaussian_vector`] for the same RNG state.
pub fn gaussian_fill(rng: &mut SmallRng, dst: &mut [f32], mean: f32, std: f32) {
    let normal = Normal::new(mean, std.max(0.0)).expect("std is non-negative and finite");
    for v in dst {
        *v = normal.sample(rng);
    }
}

/// Fisher–Yates shuffles indices `0..n` and returns them.
pub fn shuffled_indices(rng: &mut SmallRng, n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    idx
}

/// Samples `k` distinct indices from `0..n` (k ≤ n), in random order.
///
/// # Panics
///
/// Panics if `k > n`.
pub fn sample_without_replacement(rng: &mut SmallRng, n: usize, k: usize) -> Vec<usize> {
    assert!(k <= n, "cannot sample {k} items from {n}");
    let mut idx = shuffled_indices(rng, n);
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_deterministic() {
        let a = gaussian_vector(&mut seeded_rng(42), 16, 0.0, 1.0);
        let b = gaussian_vector(&mut seeded_rng(42), 16, 0.0, 1.0);
        assert_eq!(a, b);
        let c = gaussian_vector(&mut seeded_rng(43), 16, 0.0, 1.0);
        assert_ne!(a, c);
    }

    #[test]
    fn derive_seed_decorrelates_streams() {
        let s0 = derive_seed(7, 0);
        let s1 = derive_seed(7, 1);
        assert_ne!(s0, s1);
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
        // Deterministic.
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
    }

    #[test]
    fn gaussian_moments_are_roughly_right() {
        let v = gaussian_vector(&mut seeded_rng(1), 20_000, 2.0, 3.0);
        let mean = v.mean();
        assert!((mean - 2.0).abs() < 0.1, "mean was {mean}");
        let var: f32 =
            v.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / (v.len() - 1) as f32;
        assert!((var.sqrt() - 3.0).abs() < 0.1, "std was {}", var.sqrt());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = seeded_rng(3);
        let mut idx = shuffled_indices(&mut rng, 100);
        idx.sort_unstable();
        assert_eq!(idx, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sample_without_replacement_has_distinct_elements() {
        let mut rng = seeded_rng(4);
        let s = sample_without_replacement(&mut rng, 50, 10);
        assert_eq!(s.len(), 10);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_without_replacement_panics_when_k_exceeds_n() {
        let mut rng = seeded_rng(5);
        let _ = sample_without_replacement(&mut rng, 3, 4);
    }
}
