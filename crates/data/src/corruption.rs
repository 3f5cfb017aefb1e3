//! Dataset-level corruption: the "corrupted data" Byzantine behaviour of the
//! Figure 7 experiment, where one worker trains on poisoned data rather than
//! actively crafting adversarial gradients.

use crate::dataset::Dataset;
use crate::Result;
use agg_tensor::rng::{derive_seed, seeded_rng};
use agg_tensor::Tensor;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How a Byzantine worker's local data is corrupted.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Corruption {
    /// Every label `y` is replaced by `(y + 1) mod classes` (systematic label
    /// flipping — the classic poisoning behaviour).
    LabelShift,
    /// Features are replaced by astronomically large magnitudes (malformed
    /// input records). Gradients computed on such data overflow to non-finite
    /// values — the behaviour "to which TensorFlow is intolerant" in the
    /// paper's Figure 7 experiment.
    HugeValues,
}

/// Applies a corruption to a copy of the dataset.
///
/// # Errors
///
/// Propagates [`crate::DataError`]s from rebuilding the dataset.
pub fn corrupt(dataset: &Dataset, corruption: Corruption, seed: u64) -> Result<Dataset> {
    let classes = dataset.classes();
    match corruption {
        Corruption::LabelShift => {
            let labels = dataset.labels().iter().map(|&l| (l + 1) % classes).collect();
            Dataset::new(dataset.samples().clone(), labels, classes)
        }
        Corruption::HugeValues => {
            let mut rng = seeded_rng(derive_seed(seed, 99));
            let data: Vec<f32> = dataset
                .samples()
                .as_slice()
                .iter()
                .map(|_| if rng.gen::<bool>() { 1e30 } else { -1e30 })
                .collect();
            let samples = Tensor::from_vec(dataset.samples().shape(), data)?;
            Dataset::new(samples, dataset.labels().to_vec(), classes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{gaussian_blobs, BlobConfig};

    fn data() -> Dataset {
        gaussian_blobs(&BlobConfig { classes: 4, dim: 6, samples: 80, ..Default::default() }, 2)
            .unwrap()
    }

    #[test]
    fn label_shift_rotates_every_label() {
        let d = data();
        let c = corrupt(&d, Corruption::LabelShift, 0).unwrap();
        for (orig, new) in d.labels().iter().zip(c.labels()) {
            assert_eq!(*new, (orig + 1) % 4);
        }
        // Features untouched.
        assert_eq!(d.samples(), c.samples());
    }

    #[test]
    fn huge_values_produce_malformed_features() {
        let d = data();
        let c = corrupt(&d, Corruption::HugeValues, 4).unwrap();
        assert!(c.samples().as_slice().iter().all(|&x| x.abs() == 1e30));
        assert_eq!(d.labels(), c.labels());
    }

    #[test]
    fn corruption_is_deterministic() {
        let d = data();
        assert_eq!(
            corrupt(&d, Corruption::HugeValues, 7).unwrap(),
            corrupt(&d, Corruption::HugeValues, 7).unwrap()
        );
    }
}
