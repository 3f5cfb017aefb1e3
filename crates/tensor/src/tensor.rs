//! N-dimensional row-major tensors: the `[batch, features]` mini-batches the
//! datasets hand out and the logits `agg-nn` computes.

use crate::{Result, TensorError, Vector};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense n-dimensional array of `f32` in row-major (C) order.
///
/// ```
/// use agg_tensor::Tensor;
/// let t = Tensor::zeros(&[2, 3, 4]);
/// assert_eq!(t.len(), 24);
/// assert_eq!(t.shape(), &[2, 3, 4]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let len = shape.iter().product();
        Tensor { shape: shape.to_vec(), data: vec![0.0; len] }
    }

    /// Creates a tensor from a flat buffer and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidReshape`] if the buffer length does not
    /// match the product of the shape.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(TensorError::InvalidReshape {
                elements: data.len(),
                shape: shape.to_vec(),
            });
        }
        Ok(Tensor { shape: shape.to_vec(), data })
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Splits the leading axis, returning the `i`-th sub-tensor (a copy).
    ///
    /// For a batch tensor of shape `[N, F]` this returns sample `i` with
    /// shape `[F]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] when `i` exceeds the leading
    /// axis, or [`TensorError::EmptyInput`] for a rank-0 tensor.
    pub fn index_axis0(&self, i: usize) -> Result<Tensor> {
        if self.shape.is_empty() {
            return Err(TensorError::EmptyInput("index_axis0"));
        }
        let n = self.shape[0];
        if i >= n {
            return Err(TensorError::IndexOutOfBounds { index: i, size: n });
        }
        let inner: usize = self.shape[1..].iter().product();
        let data = self.data[i * inner..(i + 1) * inner].to_vec();
        Tensor::from_vec(&self.shape[1..], data)
    }

    /// Consumes the tensor and returns a flat [`Vector`].
    pub fn into_vector(self) -> Vector {
        Vector::from(self.data)
    }

    /// Elementwise map, returning a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
                op: "axpy",
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }
}

impl From<Vector> for Tensor {
    fn from(v: Vector) -> Self {
        let len = v.len();
        Tensor { shape: vec![len], data: v.into_inner() }
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?})", self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(&[2, 2], vec![0.0; 4]).is_ok());
        assert!(Tensor::from_vec(&[2, 2], vec![0.0; 5]).is_err());
    }

    #[test]
    fn index_axis0_copies_one_row() {
        let t = Tensor::from_vec(&[2, 3], (0..6).map(|x| x as f32).collect()).unwrap();
        let a = t.index_axis0(0).unwrap();
        let b = t.index_axis0(1).unwrap();
        assert_eq!(a.shape(), &[3]);
        assert_eq!(a.as_slice(), &[0.0, 1.0, 2.0]);
        assert_eq!(b.as_slice(), &[3.0, 4.0, 5.0]);
        assert!(t.index_axis0(2).is_err());
    }

    #[test]
    fn conversions() {
        let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let v = t.into_vector();
        assert_eq!(v.len(), 4);
        let back: Tensor = Vector::from(vec![1.0, 2.0]).into();
        assert_eq!(back.shape(), &[2]);
    }

    #[test]
    fn map_and_axpy() {
        let t = Tensor::from_vec(&[2], vec![1.0, -1.0]).unwrap();
        assert_eq!(t.map(f32::abs).as_slice(), &[1.0, 1.0]);
        let mut a = Tensor::zeros(&[2]);
        a.axpy(2.0, &t).unwrap();
        assert_eq!(a.as_slice(), &[2.0, -2.0]);
        assert!(a.axpy(1.0, &Tensor::zeros(&[3])).is_err());
    }
}
