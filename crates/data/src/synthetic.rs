//! Deterministic synthetic dataset generator: [`gaussian_blobs`], flat
//! feature vectors drawn from per-class Gaussian clusters, the workhorse of
//! the convergence experiments (used with the MLP models). It is
//! deterministic in its seed and performs the same min-max scaling to
//! `[0, 1]` the paper applies to CIFAR-10.

use crate::dataset::Dataset;
use crate::{DataError, Result};
use agg_tensor::rng::{derive_seed, gaussian_fill_rows, seeded_rng, shuffled_indices};
use agg_tensor::Tensor;
use rand::Rng;

/// Configuration for [`gaussian_blobs`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlobConfig {
    /// Number of classes.
    pub classes: usize,
    /// Feature dimension.
    pub dim: usize,
    /// Total number of samples.
    pub samples: usize,
    /// Distance between class centres (larger = easier).
    pub separation: f32,
    /// Per-class Gaussian noise standard deviation.
    pub noise: f32,
}

impl Default for BlobConfig {
    fn default() -> Self {
        BlobConfig { classes: 10, dim: 32, samples: 2000, separation: 2.0, noise: 1.0 }
    }
}

/// Generates a Gaussian-blob classification dataset.
///
/// Each class `c` gets a centre drawn deterministically from the seed; each
/// sample is its class centre plus isotropic Gaussian noise. Labels are
/// assigned round-robin so classes are balanced.
///
/// # Errors
///
/// Returns [`DataError::InvalidConfig`] for zero classes, dimension or
/// samples.
pub fn gaussian_blobs(config: &BlobConfig, seed: u64) -> Result<Dataset> {
    if config.classes == 0 || config.dim == 0 || config.samples == 0 {
        return Err(DataError::InvalidConfig(
            "classes, dim and samples must be positive".to_string(),
        ));
    }
    let mut center_rng = seeded_rng(derive_seed(seed, 0));
    let centers: Vec<Vec<f32>> = (0..config.classes)
        .map(|_| {
            (0..config.dim)
                .map(|_| center_rng.gen_range(-1.0f32..1.0) * config.separation)
                .collect()
        })
        .collect();
    // Shuffle samples so train/test splits are class-balanced: sample
    // `order[p]` lands in row `p`. The order has its own stream, so drawing
    // it before the noise changes no value.
    let order = shuffled_indices(&mut seeded_rng(derive_seed(seed, 2)), config.samples);
    let mut shuffled = vec![0.0; config.samples * config.dim];
    let mut slots: Vec<Option<&mut [f32]>> = (0..config.samples).map(|_| None).collect();
    for (row, &i) in shuffled.chunks_mut(config.dim).zip(&order) {
        slots[i] = Some(row);
    }
    // The noise stream runs over the samples in their original order.
    let rows = slots.into_iter().map(|row| row.expect("`order` is a permutation")).collect();
    gaussian_fill_rows(&mut seeded_rng(derive_seed(seed, 1)), rows, 0.0, config.noise.max(1e-6));
    let mut shuffled_labels = Vec::with_capacity(config.samples);
    for (row, &i) in shuffled.chunks_mut(config.dim).zip(&order) {
        let class = i % config.classes;
        shuffled_labels.push(class);
        // Float addition commutes: these are the bits of `centre + noise`.
        for (x, &c) in row.iter_mut().zip(&centers[class]) {
            *x += c;
        }
    }
    min_max_scale_flat(&mut shuffled);
    let samples = Tensor::from_vec(&[config.samples, config.dim], shuffled)?;
    Dataset::new(samples, shuffled_labels, config.classes)
}

/// Min-max scales a flat buffer to `[0, 1]` in place (the paper's CIFAR-10
/// preprocessing step).
fn min_max_scale_flat(data: &mut [f32]) {
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &x in data.iter() {
        if x.is_finite() {
            lo = lo.min(x);
            hi = hi.max(x);
        }
    }
    let range = hi - lo;
    if range > 0.0 && range.is_finite() {
        for x in data.iter_mut() {
            *x = (*x - lo) / range;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blobs_are_deterministic_and_balanced() {
        let config = BlobConfig { classes: 4, dim: 8, samples: 400, ..Default::default() };
        let a = gaussian_blobs(&config, 42).unwrap();
        let b = gaussian_blobs(&config, 42).unwrap();
        assert_eq!(a, b);
        let c = gaussian_blobs(&config, 43).unwrap();
        assert_ne!(a, c);
        // Balanced classes.
        for class in 0..4 {
            let count = a.labels().iter().filter(|&&l| l == class).count();
            assert_eq!(count, 100);
        }
    }

    #[test]
    fn blobs_are_min_max_scaled() {
        let d = gaussian_blobs(&BlobConfig::default(), 1).unwrap();
        let data = d.samples().as_slice();
        let lo = data.iter().cloned().fold(f32::INFINITY, f32::min);
        let hi = data.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        assert!(lo >= 0.0 && hi <= 1.0 + 1e-6);
        assert!(hi > 0.9, "scaling should use the full range");
    }

    /// The serial generator `gaussian_blobs` replaced (noise drawn sample by
    /// sample into a buffer in original order, then copied in shuffled
    /// order), kept as its oracle.
    fn serial_blobs(config: &BlobConfig, seed: u64) -> Dataset {
        use rand_distr::{Distribution, Normal};
        let mut center_rng = seeded_rng(derive_seed(seed, 0));
        let centers: Vec<Vec<f32>> = (0..config.classes)
            .map(|_| {
                (0..config.dim)
                    .map(|_| center_rng.gen_range(-1.0f32..1.0) * config.separation)
                    .collect()
            })
            .collect();
        let noise = Normal::new(0.0f32, config.noise.max(1e-6)).unwrap();
        let mut sample_rng = seeded_rng(derive_seed(seed, 1));
        let mut order_rng = seeded_rng(derive_seed(seed, 2));
        let mut data = Vec::with_capacity(config.samples * config.dim);
        let mut labels = Vec::with_capacity(config.samples);
        for i in 0..config.samples {
            let class = i % config.classes;
            labels.push(class);
            for &c in &centers[class] {
                data.push(c + noise.sample(&mut sample_rng));
            }
        }
        let mut indices: Vec<usize> = (0..config.samples).collect();
        for i in (1..indices.len()).rev() {
            let j = order_rng.gen_range(0..=i);
            indices.swap(i, j);
        }
        let mut shuffled = Vec::with_capacity(data.len());
        let mut shuffled_labels = Vec::with_capacity(labels.len());
        for &i in &indices {
            shuffled.extend_from_slice(&data[i * config.dim..(i + 1) * config.dim]);
            shuffled_labels.push(labels[i]);
        }
        min_max_scale_flat(&mut shuffled);
        let samples = Tensor::from_vec(&[config.samples, config.dim], shuffled).unwrap();
        Dataset::new(samples, shuffled_labels, config.classes).unwrap()
    }

    #[test]
    fn blobs_match_the_serial_generator() {
        for (classes, dim, samples) in [(1, 1, 1), (3, 7, 17), (10, 32, 600), (4, 256, 130)] {
            let config = BlobConfig { classes, dim, samples, separation: 2.5, noise: 0.6 };
            for seed in [0, 42] {
                let (got, want) =
                    (gaussian_blobs(&config, seed).unwrap(), serial_blobs(&config, seed));
                assert_eq!(fingerprint(&got), fingerprint(&want), "{config:?}, seed {seed}");
            }
        }
    }

    /// FNV-1a, 64-bit, over every sample's bits and every label.
    fn fingerprint(d: &Dataset) -> u64 {
        let bits = d.samples().as_slice().iter().map(|x| u64::from(x.to_bits()));
        let labels = d.labels().iter().map(|&l| l as u64);
        bits.chain(labels).fold(0xcbf2_9ce4_8422_2325u64, |h, word| {
            word.to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
        })
    }

    /// The benchmark workloads' two data shapes, with the spread and noise
    /// `ExperimentKind::build` passes, at seed 42: every sample's bits and
    /// every label.
    #[test]
    fn blob_bits_are_pinned() {
        for (dim, pin) in [(256, 0xf87b_c64e_df12_ed5fu64), (32, 0xb5db_fc1f_2ba4_db3b)] {
            let config =
                BlobConfig { classes: 10, dim, samples: 4000, separation: 2.5, noise: 0.6 };
            let d = gaussian_blobs(&config, 42).unwrap();
            assert_eq!(fingerprint(&d), pin, "4000 x {dim}: {:#018x}", fingerprint(&d));
        }
    }

    #[test]
    fn blobs_reject_degenerate_configs() {
        assert!(gaussian_blobs(&BlobConfig { classes: 0, ..Default::default() }, 0).is_err());
        assert!(gaussian_blobs(&BlobConfig { samples: 0, ..Default::default() }, 0).is_err());
        assert!(gaussian_blobs(&BlobConfig { dim: 0, ..Default::default() }, 0).is_err());
    }
}
