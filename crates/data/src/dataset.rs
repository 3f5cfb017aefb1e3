//! In-memory labelled datasets.

use crate::{DataError, Result};
use agg_tensor::{Tensor, TensorError};
use serde::{Deserialize, Serialize};

/// Which portion of a dataset to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Split {
    /// The training portion.
    Train,
    /// The held-out test portion (used for the accuracy metric, as in the
    /// paper's "top-1 cross-accuracy").
    Test,
}

/// A labelled dataset held fully in memory.
///
/// Samples are stored as one tensor whose leading axis is the sample index;
/// per-sample shape is arbitrary (flat features for MLPs, `[C, H, W]` for
/// CNNs).
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    samples: Tensor,
    labels: Vec<usize>,
    classes: usize,
}

impl Dataset {
    /// Creates a dataset from a sample tensor (`[N, ...]`) and labels.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::LabelCountMismatch`] or [`DataError::Empty`] when
    /// the inputs are inconsistent, and [`DataError::InvalidConfig`] when a
    /// label is `>= classes`.
    pub fn new(samples: Tensor, labels: Vec<usize>, classes: usize) -> Result<Self> {
        if samples.shape().is_empty() || samples.shape()[0] == 0 {
            return Err(DataError::Empty("Dataset::new"));
        }
        let n = samples.shape()[0];
        if labels.len() != n {
            return Err(DataError::LabelCountMismatch { samples: n, labels: labels.len() });
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= classes) {
            return Err(DataError::InvalidConfig(format!(
                "label {bad} out of range for {classes} classes"
            )));
        }
        Ok(Dataset { samples, labels, classes })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` when the dataset holds no samples (never true for a
    /// successfully constructed dataset).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Per-sample shape (excluding the sample axis).
    pub fn sample_shape(&self) -> &[usize] {
        &self.samples.shape()[1..]
    }

    /// The full sample tensor.
    pub fn samples(&self) -> &Tensor {
        &self.samples
    }

    /// The label slice.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// The shape of `count` samples: `[count, sample_shape...]`.
    fn shape_of(&self, count: usize) -> Vec<usize> {
        [&[count][..], self.sample_shape()].concat()
    }

    /// Builds the batch tensor and label vector for the given sample indices,
    /// copying the requested rows into one buffer.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Empty`] for an empty index list and
    /// [`DataError::Tensor`] for an out-of-range index.
    pub fn batch(&self, indices: &[usize]) -> Result<(Tensor, Vec<usize>)> {
        if indices.is_empty() {
            return Err(DataError::Empty("Dataset::batch"));
        }
        let row = self.sample_shape().iter().product::<usize>();
        let data = self.samples.as_slice();
        let mut rows = Vec::with_capacity(indices.len() * row);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            let Some(&label) = self.labels.get(i) else {
                return Err(TensorError::IndexOutOfBounds { index: i, size: self.len() }.into());
            };
            rows.extend_from_slice(&data[i * row..(i + 1) * row]);
            labels.push(label);
        }
        Ok((Tensor::from_vec(&self.shape_of(indices.len()), rows)?, labels))
    }

    /// The first `count` samples as one batch (deterministic; used for test
    /// evaluation).
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Empty`] when `count == 0`.
    pub fn head_batch(&self, count: usize) -> Result<(Tensor, Vec<usize>)> {
        let count = count.min(self.len());
        let indices: Vec<usize> = (0..count).collect();
        self.batch(&indices)
    }

    /// Splits the dataset into a training and a test portion, moving the
    /// samples: training keeps the buffer and only the test tail is copied.
    ///
    /// `test_fraction` of the samples (rounded down, at least 1 when the
    /// fraction is positive) go to the test set, taken from the end — the
    /// synthetic generators already emit samples in random order.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidConfig`] for fractions outside `[0, 1)` or
    /// splits that would leave either side empty.
    pub fn split(self, test_fraction: f64) -> Result<(Dataset, Dataset)> {
        if !(0.0..1.0).contains(&test_fraction) {
            return Err(DataError::InvalidConfig(format!(
                "test fraction must be in [0, 1), got {test_fraction}"
            )));
        }
        let n = self.len();
        let test_n = ((n as f64 * test_fraction) as usize).max(1);
        let train_n = n.checked_sub(test_n).filter(|&t| t > 0).ok_or_else(|| {
            DataError::InvalidConfig(format!(
                "split leaves no training samples (n = {n}, test = {test_n})"
            ))
        })?;
        let (train_shape, test_shape) = (self.shape_of(train_n), self.shape_of(test_n));
        let row = self.sample_shape().iter().product::<usize>();
        let mut train_x = self.samples.into_vector().into_inner();
        let test_x = train_x.split_off(train_n * row);
        let mut train_y = self.labels;
        let test_y = train_y.split_off(train_n);
        // `split_off` leaves the full capacity behind: hand the tails back.
        train_x.shrink_to_fit();
        train_y.shrink_to_fit();
        Ok((
            Dataset::new(Tensor::from_vec(&train_shape, train_x)?, train_y, self.classes)?,
            Dataset::new(Tensor::from_vec(&test_shape, test_x)?, test_y, self.classes)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let samples =
            Tensor::from_vec(&[4, 2], vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]).unwrap();
        Dataset::new(samples, vec![0, 1, 0, 1], 2).unwrap()
    }

    #[test]
    fn construction_validates_inputs() {
        let samples = Tensor::zeros(&[3, 2]);
        assert!(Dataset::new(samples.clone(), vec![0, 1], 2).is_err());
        assert!(Dataset::new(samples.clone(), vec![0, 1, 5], 2).is_err());
        assert!(Dataset::new(Tensor::zeros(&[0, 2]), vec![], 2).is_err());
        assert!(Dataset::new(samples, vec![0, 1, 1], 2).is_ok());
    }

    #[test]
    fn batch_gathers_requested_samples() {
        let d = toy();
        let (x, y) = d.batch(&[2, 0]).unwrap();
        assert_eq!(x.shape(), &[2, 2]);
        assert_eq!(x.as_slice(), &[4.0, 5.0, 0.0, 1.0]);
        assert_eq!(y, vec![0, 0]);
        assert!(d.batch(&[]).is_err());
        let out_of_range = TensorError::IndexOutOfBounds { index: 9, size: 4 };
        assert_eq!(d.batch(&[0, 9]).unwrap_err(), DataError::from(out_of_range));
    }

    #[test]
    fn head_batch_truncates_to_len() {
        let d = toy();
        let (x, y) = d.head_batch(100).unwrap();
        assert_eq!(x.shape(), &[4, 2]);
        assert_eq!(y.len(), 4);
    }

    #[test]
    fn split_partitions_the_samples() {
        let d = toy();
        let (train, test) = d.clone().split(0.25).unwrap();
        assert_eq!(train.len(), 3);
        assert_eq!(test.len(), 1);
        assert_eq!(train.classes(), 2);
        assert_eq!(test.sample_shape(), &[2]);
        assert_eq!(train.samples().as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(test.samples().as_slice(), &[6.0, 7.0]);
        assert_eq!((train.labels(), test.labels()), (&[0, 1, 0][..], &[1][..]));
        assert!(d.clone().split(1.5).is_err());
        assert!(d.split(-0.1).is_err());
    }

    #[test]
    fn accessors() {
        let d = toy();
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
        assert_eq!(d.labels(), &[0, 1, 0, 1]);
        assert_eq!(d.samples().shape(), &[4, 2]);
    }
}
