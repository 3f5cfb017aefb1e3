//! Row-major 2-D matrices: a small owned-matrix API for tests, examples and
//! callers that want shape checking.
//!
//! Nothing on the training path holds a [`Matrix`]: `agg-nn`'s dense layers
//! keep their weights as flat slices and call the [`crate::gemm`] kernels
//! directly.
//! [`Matrix::matmul`] is a shape-checked wrapper over the same
//! [`crate::gemm::matmul_acc`] kernel `Dense::forward` uses.

use crate::{gemm, Result, TensorError, Vector};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense row-major matrix of `f32`.
///
/// ```
/// use agg_tensor::Matrix;
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
/// assert_eq!(m.get(1, 0), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidReshape`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::InvalidReshape {
                elements: data.len(),
                shape: vec![rows, cols],
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of equally sized rows.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyInput`] for an empty slice and
    /// [`TensorError::DimensionMismatch`] for ragged rows.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(TensorError::EmptyInput("Matrix::from_rows"));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(TensorError::dim(cols, row.len()));
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix { rows: rows.len(), cols, data })
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col] = value;
    }

    /// A view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics when `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics when `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * rhs`: each element sums its terms in ascending
    /// inner-index order, skipping those whose left factor is exactly zero
    /// (see [`gemm::matmul_acc`]).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the inner dimensions
    /// differ.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(TensorError::ShapeMismatch {
                left: vec![self.rows, self.cols],
                right: vec![rhs.rows, rhs.cols],
                op: "matmul",
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        gemm::matmul_acc(&self.data, &rhs.data, &mut out.data, self.rows, self.cols, rhs.cols);
        Ok(out)
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// In-place scaling.
    pub fn scale(&mut self, alpha: f32) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                left: vec![self.rows, self.cols],
                right: vec![other.rows, other.cols],
                op: "axpy",
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Consumes the matrix and returns a flat [`Vector`] (row-major order).
    pub fn into_vector(self) -> Vector {
        Vector::from(self.data)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_checks_sizes() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn identity_and_indexing() {
        let m = Matrix::identity(3);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.shape(), (3, 3));
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rejects_incompatible_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matmul_with_identity_is_noop() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::zeros(2, 2);
        let b = Matrix::identity(2);
        a.axpy(2.0, &b).unwrap();
        assert_eq!(a.get(0, 0), 2.0);
        a.scale(0.5);
        assert_eq!(a.get(0, 0), 1.0);
        assert!(a.axpy(1.0, &Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn rows_views() {
        let mut a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(a.row(1), &[3.0, 4.0]);
        a.row_mut(0)[1] = 9.0;
        assert_eq!(a.get(0, 1), 9.0);
    }

    #[test]
    fn into_vector_flattens_row_major() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(a.into_vector().as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }
}
