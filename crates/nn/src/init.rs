//! Weight initialisers.

use agg_tensor::rng::{gaussian_vector, seeded_rng};
use rand::Rng;

/// Weight initialisation schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Init {
    /// All zeros (used for biases).
    Zeros,
    /// Glorot/Xavier uniform: `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
    XavierUniform,
    /// He normal: `N(0, sqrt(2 / fan_in))`, the standard choice before ReLU.
    HeNormal,
}

impl Init {
    /// Generates `count` values for a layer with the given fan-in/fan-out.
    pub fn generate(self, count: usize, fan_in: usize, fan_out: usize, seed: u64) -> Vec<f32> {
        let mut rng = seeded_rng(seed);
        match self {
            Init::Zeros => vec![0.0; count],
            Init::XavierUniform => {
                let a = (6.0 / (fan_in + fan_out).max(1) as f32).sqrt();
                (0..count).map(|_| rng.gen_range(-a..a)).collect()
            }
            Init::HeNormal => {
                let std = (2.0 / fan_in.max(1) as f32).sqrt();
                gaussian_vector(&mut rng, count, 0.0, std).into_inner()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_are_zero() {
        assert!(Init::Zeros.generate(10, 4, 4, 0).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn initialisation_is_deterministic_per_seed() {
        let a = Init::HeNormal.generate(64, 16, 16, 7);
        let b = Init::HeNormal.generate(64, 16, 16, 7);
        assert_eq!(a, b);
        let c = Init::HeNormal.generate(64, 16, 16, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn xavier_respects_bound() {
        let fan_in = 100;
        let fan_out = 100;
        let a = (6.0 / 200.0f32).sqrt();
        let w = Init::XavierUniform.generate(1000, fan_in, fan_out, 1);
        assert!(w.iter().all(|&x| x.abs() <= a));
        // Not degenerate.
        assert!(w.iter().any(|&x| x.abs() > a / 10.0));
    }

    /// The loop `HeNormal` drew before it moved onto the shared fill, kept
    /// as its oracle.
    fn serial_he_normal(count: usize, fan_in: usize, seed: u64) -> Vec<f32> {
        use rand_distr::{Distribution, Normal};
        let normal = Normal::new(0.0f32, (2.0 / fan_in.max(1) as f32).sqrt()).unwrap();
        let mut rng = seeded_rng(seed);
        (0..count).map(|_| normal.sample(&mut rng)).collect()
    }

    #[test]
    fn he_normal_matches_the_serial_loop() {
        for (count, fan_in) in [(1, 1), (100, 10), (256 * 384, 256), (32 * 64 + 5, 32)] {
            let bits = |w: Vec<f32>| w.into_iter().map(f32::to_bits).collect::<Vec<_>>();
            let got = Init::HeNormal.generate(count, fan_in, 7, 42);
            assert_eq!(bits(got), bits(serial_he_normal(count, fan_in, 42)), "{count} x {fan_in}");
        }
    }

    #[test]
    fn he_normal_has_expected_scale() {
        let w = Init::HeNormal.generate(10_000, 50, 10, 3);
        let mean: f32 = w.iter().sum::<f32>() / w.len() as f32;
        let std: f32 =
            (w.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / w.len() as f32).sqrt();
        let expected = (2.0f32 / 50.0).sqrt();
        assert!((std - expected).abs() < expected * 0.1, "std {std} vs {expected}");
    }
}
