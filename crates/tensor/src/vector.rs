//! Flat `f32` vectors: the representation of gradients and flattened models.
//!
//! Every gradient aggregation rule in the reproduction consumes and produces
//! [`Vector`] values. The type is a thin, shape-checked wrapper around
//! `Vec<f32>` with the arithmetic the paper's kernels need (distances, norms,
//! axpy updates) plus explicit support for non-finite coordinates, which the
//! paper calls out as "a crucial feature when facing actual malicious
//! workers".

use crate::{Result, TensorError};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A dense, flat `f32` vector.
///
/// `Vector` is the unit of exchange between workers and the parameter server:
/// a worker's gradient estimate, a model snapshot, or an aggregated update.
///
/// ```
/// use agg_tensor::Vector;
/// let g = Vector::zeros(4);
/// assert_eq!(g.len(), 4);
/// assert_eq!(g.norm(), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Vector {
    data: Vec<f32>,
}

impl Vector {
    /// Creates a vector of `len` zeros.
    pub fn zeros(len: usize) -> Self {
        Vector { data: vec![0.0; len] }
    }

    /// Creates a vector of `len` copies of `value`.
    pub fn filled(len: usize, value: f32) -> Self {
        Vector { data: vec![value; len] }
    }

    /// Number of coordinates.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the vector has no coordinates.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the vector and returns the underlying buffer.
    pub fn into_inner(self) -> Vec<f32> {
        self.data
    }

    /// Iterator over coordinates.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }

    /// Mutable iterator over coordinates.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f32> {
        self.data.iter_mut()
    }

    /// Checks that `other` has the same length, returning an error otherwise.
    fn check_len(&self, other: &Vector) -> Result<()> {
        if self.len() == other.len() {
            Ok(())
        } else {
            Err(TensorError::dim(self.len(), other.len()))
        }
    }

    /// Dot product with another vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] if lengths differ.
    pub fn dot(&self, other: &Vector) -> Result<f32> {
        self.check_len(other)?;
        Ok(self.data.iter().zip(other.data.iter()).map(|(a, b)| a * b).sum())
    }

    /// Euclidean (L2) norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Squared Euclidean distance to another vector of the same length.
    ///
    /// Non-finite coordinates propagate: if either operand holds a NaN the
    /// result is NaN, matching the behaviour the robust GARs rely on to
    /// exclude malformed gradients by distance.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn squared_distance(&self, other: &Vector) -> f32 {
        assert_eq!(self.len(), other.len(), "squared_distance requires equal lengths");
        crate::ops::squared_distance(&self.data, &other.data)
    }

    /// Euclidean distance to another vector.
    pub fn distance(&self, other: &Vector) -> f32 {
        self.squared_distance(other).sqrt()
    }

    /// In-place `self += alpha * other` (the classic axpy update).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] if lengths differ.
    pub fn axpy(&mut self, alpha: f32, other: &Vector) -> Result<()> {
        self.check_len(other)?;
        crate::ops::axpy(&mut self.data, alpha, &other.data);
        Ok(())
    }

    /// In-place scaling by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Returns a new vector scaled by `alpha`.
    pub fn scaled(&self, alpha: f32) -> Vector {
        let mut out = self.clone();
        out.scale(alpha);
        out
    }

    /// Elementwise map, returning a new vector.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Vector {
        Vector { data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Sum of coordinates.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of coordinates. Returns 0 for the empty vector.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Returns `true` when every coordinate is finite (no NaN, no ±∞).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Number of non-finite coordinates.
    pub fn count_non_finite(&self) -> usize {
        self.data.iter().filter(|x| !x.is_finite()).count()
    }

    /// Clamps every coordinate into `[lo, hi]`.
    pub fn clamp(&mut self, lo: f32, hi: f32) {
        for x in &mut self.data {
            *x = x.clamp(lo, hi);
        }
    }
}

impl From<Vec<f32>> for Vector {
    fn from(data: Vec<f32>) -> Self {
        Vector { data }
    }
}

impl From<&[f32]> for Vector {
    fn from(data: &[f32]) -> Self {
        Vector { data: data.to_vec() }
    }
}

impl From<Vector> for Vec<f32> {
    fn from(v: Vector) -> Self {
        v.data
    }
}

impl AsRef<[f32]> for Vector {
    fn as_ref(&self) -> &[f32] {
        &self.data
    }
}

impl AsMut<[f32]> for Vector {
    fn as_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

impl FromIterator<f32> for Vector {
    fn from_iter<T: IntoIterator<Item = f32>>(iter: T) -> Self {
        Vector { data: iter.into_iter().collect() }
    }
}

impl Extend<f32> for Vector {
    fn extend<T: IntoIterator<Item = f32>>(&mut self, iter: T) {
        self.data.extend(iter);
    }
}

impl IntoIterator for Vector {
    type Item = f32;
    type IntoIter = std::vec::IntoIter<f32>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.into_iter()
    }
}

impl<'a> IntoIterator for &'a Vector {
    type Item = &'a f32;
    type IntoIter = std::slice::Iter<'a, f32>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl Index<usize> for Vector {
    type Output = f32;
    fn index(&self, index: usize) -> &f32 {
        &self.data[index]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, index: usize) -> &mut f32 {
        &mut self.data[index]
    }
}

impl Add<&Vector> for &Vector {
    type Output = Vector;
    fn add(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "vector addition requires equal lengths");
        Vector { data: self.data.iter().zip(rhs.data.iter()).map(|(a, b)| a + b).collect() }
    }
}

impl Sub<&Vector> for &Vector {
    type Output = Vector;
    fn sub(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "vector subtraction requires equal lengths");
        Vector { data: self.data.iter().zip(rhs.data.iter()).map(|(a, b)| a - b).collect() }
    }
}

impl Mul<f32> for &Vector {
    type Output = Vector;
    fn mul(self, rhs: f32) -> Vector {
        self.scaled(rhs)
    }
}

impl Neg for &Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        self.scaled(-1.0)
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.len(), rhs.len(), "vector addition requires equal lengths");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.len(), rhs.len(), "vector subtraction requires equal lengths");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a -= b;
        }
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Vector(len={}, norm={:.4})", self.len(), self.norm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_filled() {
        let z = Vector::zeros(3);
        assert_eq!(z.as_slice(), &[0.0, 0.0, 0.0]);
        let f = Vector::filled(2, 7.5);
        assert_eq!(f.as_slice(), &[7.5, 7.5]);
    }

    #[test]
    fn dot_and_norms() {
        let a = Vector::from(vec![3.0, 4.0]);
        let b = Vector::from(vec![1.0, 2.0]);
        assert_eq!(a.dot(&b).unwrap(), 11.0);
        assert_eq!(a.norm(), 5.0);
    }

    #[test]
    fn dot_rejects_mismatched_lengths() {
        let a = Vector::zeros(2);
        let b = Vector::zeros(3);
        assert_eq!(a.dot(&b).unwrap_err(), TensorError::dim(2, 3));
    }

    #[test]
    fn distances() {
        let a = Vector::from(vec![1.0, 1.0]);
        let b = Vector::from(vec![4.0, 5.0]);
        assert_eq!(a.squared_distance(&b), 25.0);
        assert_eq!(a.distance(&b), 5.0);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut a = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![10.0, 20.0]);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[6.0, 12.0]);
    }

    #[test]
    fn scaling_and_map() {
        let a = Vector::from(vec![1.0, -2.0]);
        assert_eq!(a.scaled(2.0).as_slice(), &[2.0, -4.0]);
        assert_eq!(a.map(f32::abs).as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn arithmetic_operators() {
        let a = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![3.0, 5.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((&a * 3.0).as_slice(), &[3.0, 6.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 7.0]);
        c -= &b;
        assert_eq!(c.as_slice(), a.as_slice());
    }

    #[test]
    fn non_finite_handling() {
        let v = Vector::from(vec![1.0, f32::NAN, f32::INFINITY, 4.0]);
        assert!(!v.is_finite());
        assert_eq!(v.count_non_finite(), 2);
    }

    #[test]
    fn nan_propagates_through_distance() {
        let a = Vector::from(vec![f32::NAN, 0.0]);
        let b = Vector::zeros(2);
        assert!(a.squared_distance(&b).is_nan());
    }

    #[test]
    fn mean_and_sum() {
        let v = Vector::from(vec![1.0, 2.0, 3.0]);
        assert_eq!(v.sum(), 6.0);
        assert_eq!(v.mean(), 2.0);
        assert_eq!(Vector::zeros(0).mean(), 0.0);
    }

    #[test]
    fn conversions_round_trip() {
        let v = Vector::from(vec![1.0, 2.0]);
        let raw: Vec<f32> = v.clone().into();
        assert_eq!(Vector::from(raw), v);
        let collected: Vector = vec![1.0, 2.0].into_iter().collect();
        assert_eq!(collected, v);
    }

    #[test]
    fn display_is_nonempty() {
        let v = Vector::from(vec![3.0, 4.0]);
        let s = format!("{v}");
        assert!(s.contains("len=2"));
    }
}
