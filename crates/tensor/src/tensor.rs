//! N-dimensional row-major tensors, used for image batches (N, C, H, W) and
//! convolution activations in `agg-nn`.

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

    /// Reshapes in place without moving data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidReshape`] if the element count changes.
    pub fn reshape(&mut self, shape: &[usize]) -> Result<()> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(TensorError::InvalidReshape {
                elements: self.data.len(),
                shape: shape.to_vec(),
            });
        }
        self.shape = shape.to_vec();
        Ok(())
    }

    /// Returns a reshaped copy.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidReshape`] if the element count changes.
    pub fn reshaped(&self, shape: &[usize]) -> Result<Tensor> {
        let mut t = self.clone();
        t.reshape(shape)?;
        Ok(t)
    }

    /// Flat offset of a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] if the index rank differs
    /// from the tensor rank, or [`TensorError::IndexOutOfBounds`] when any
    /// coordinate exceeds its axis.
    pub fn offset(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.shape.len() {
            return Err(TensorError::dim(self.shape.len(), index.len()));
        }
        let mut off = 0;
        for (&i, &s) in index.iter().zip(self.shape.iter()) {
            if i >= s {
                return Err(TensorError::IndexOutOfBounds { index: i, size: s });
            }
            off = off * s + i;
        }
        Ok(off)
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// See [`Tensor::offset`].
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.offset(index)?])
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// See [`Tensor::offset`].
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Splits the leading axis, returning the `i`-th sub-tensor (a copy).
    ///
    /// For a batch tensor of shape `[N, C, H, W]` this returns sample `i`
    /// with shape `[C, H, W]`.
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

    /// Stacks tensors of identical shape along a new leading axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyInput`] for an empty slice and
    /// [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn stack(parts: &[Tensor]) -> Result<Tensor> {
        if parts.is_empty() {
            return Err(TensorError::EmptyInput("Tensor::stack"));
        }
        let inner_shape = parts[0].shape.clone();
        let mut data = Vec::with_capacity(parts.len() * parts[0].len());
        for p in parts {
            if p.shape != inner_shape {
                return Err(TensorError::ShapeMismatch {
                    left: inner_shape,
                    right: p.shape.clone(),
                    op: "stack",
                });
            }
            data.extend_from_slice(&p.data);
        }
        let mut shape = Vec::with_capacity(inner_shape.len() + 1);
        shape.push(parts.len());
        shape.extend_from_slice(&inner_shape);
        Tensor::from_vec(&shape, data)
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
    fn reshape_preserves_data() {
        let mut t = Tensor::from_vec(&[2, 3], (0..6).map(|x| x as f32).collect()).unwrap();
        t.reshape(&[3, 2]).unwrap();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.get(&[2, 1]).unwrap(), 5.0);
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn indexing_row_major() {
        let t = Tensor::from_vec(&[2, 2, 2], (0..8).map(|x| x as f32).collect()).unwrap();
        assert_eq!(t.get(&[0, 0, 0]).unwrap(), 0.0);
        assert_eq!(t.get(&[1, 0, 1]).unwrap(), 5.0);
        assert_eq!(t.get(&[1, 1, 1]).unwrap(), 7.0);
        assert!(t.get(&[2, 0, 0]).is_err());
        assert!(t.get(&[0, 0]).is_err());
    }

    #[test]
    fn set_then_get() {
        let mut t = Tensor::zeros(&[2, 2]);
        t.set(&[1, 0], 9.0).unwrap();
        assert_eq!(t.get(&[1, 0]).unwrap(), 9.0);
    }

    #[test]
    fn index_axis0_and_stack_round_trip() {
        let t = Tensor::from_vec(&[2, 3], (0..6).map(|x| x as f32).collect()).unwrap();
        let a = t.index_axis0(0).unwrap();
        let b = t.index_axis0(1).unwrap();
        assert_eq!(a.as_slice(), &[0.0, 1.0, 2.0]);
        assert_eq!(b.as_slice(), &[3.0, 4.0, 5.0]);
        let restacked = Tensor::stack(&[a, b]).unwrap();
        assert_eq!(restacked, t);
        assert!(t.index_axis0(2).is_err());
    }

    #[test]
    fn stack_rejects_mismatched_shapes() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        assert!(Tensor::stack(&[a, b]).is_err());
        assert!(Tensor::stack(&[]).is_err());
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
