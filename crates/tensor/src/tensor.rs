//! The core dense tensor type.

use crate::{Shape, TensorError};
use serde::{Deserialize, Serialize};

/// A dense, row-major `f32` tensor.
///
/// `Tensor` is the single data type flowing through the `dssp-nn` layers and through the
/// parameter server: activations, weights, and gradients are all tensors. The layout is
/// always contiguous row-major, which keeps push/pull serialization in the parameter
/// server trivial (a flat `&[f32]`).
///
/// # Example
///
/// ```
/// use dssp_tensor::Tensor;
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.len(), 6);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![0.0; shape.volume()];
        Self { shape, data }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![1.0; shape.volume()];
        Self { shape, data }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let data = vec![value; shape.volume()];
        Self { shape, data }
    }

    /// Creates a square identity matrix of side `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the volume of `dims`. Use
    /// [`Tensor::try_from_vec`] for a fallible variant.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        Self::try_from_vec(data, dims).expect("data length must match shape volume")
    }

    /// Creates a tensor from existing data, validating the length.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the data length does not match the
    /// shape volume.
    pub fn try_from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(dims);
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                len: data.len(),
                expected: shape.volume(),
            });
        }
        Ok(Self { shape, data })
    }

    /// Returns the shape of the tensor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Returns the number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns true if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the underlying data as a flat slice (row-major order).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Returns the underlying data as a mutable flat slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns the element at a 2-D index. Only valid for rank-2 tensors.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or the index is out of range.
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        assert_eq!(self.shape.rank(), 2, "at2 requires a rank-2 tensor");
        let cols = self.shape.dim(1);
        self.data[i * cols + j]
    }

    /// Sets the element at a 2-D index. Only valid for rank-2 tensors.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or the index is out of range.
    pub fn set2(&mut self, i: usize, j: usize, v: f32) {
        assert_eq!(self.shape.rank(), 2, "set2 requires a rank-2 tensor");
        let cols = self.shape.dim(1);
        self.data[i * cols + j] = v;
    }

    /// Reshapes the tensor in place.
    ///
    /// # Panics
    ///
    /// Panics if the new shape has a different volume.
    pub fn reshape_inplace(&mut self, dims: &[usize]) {
        assert_eq!(
            dims.iter().product::<usize>(),
            self.data.len(),
            "reshape must preserve element count"
        );
        self.shape.set_dims(dims);
    }

    /// Rotates the dimension list `by` places to the left without moving an element:
    /// `[a, b, c, d]` becomes `[b, c, d, a]` for `by == 1`. Like
    /// [`Tensor::reshape_inplace`] it relabels the same row-major data; it never
    /// allocates.
    pub(crate) fn rotate_dims_left(&mut self, by: usize) {
        self.shape.rotate_left(by);
    }

    /// Fills the tensor with `value`.
    pub fn fill(&mut self, value: f32) {
        for v in &mut self.data {
            *v = value;
        }
    }

    /// Reshapes this tensor to `dims`, resizing the backing storage while reusing its
    /// capacity. Element values are unspecified afterwards (a mix of old data and
    /// zeros); callers are expected to overwrite every element.
    ///
    /// This is the primitive behind every `*_into` kernel: once a buffer has been
    /// warmed to its steady-state size, repeated `ensure_shape` calls never touch the
    /// allocator.
    pub fn ensure_shape(&mut self, dims: &[usize]) {
        self.shape.set_dims(dims);
        self.data.resize(self.shape.volume(), 0.0);
    }

    /// Copies `src`'s shape and contents into this tensor, reusing the existing
    /// backing storage when it is large enough.
    pub fn assign(&mut self, src: &Tensor) {
        self.ensure_shape(src.shape().dims());
        self.data.copy_from_slice(&src.data);
    }

    /// The capacity of the backing storage in elements (used by workspace-growth
    /// regression tests).
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Returns the number of rows for a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn rows(&self) -> usize {
        assert_eq!(self.shape.rank(), 2, "rows requires a rank-2 tensor");
        self.shape.dim(0)
    }

    /// Returns the number of columns for a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn cols(&self) -> usize {
        assert_eq!(self.shape.rank(), 2, "cols requires a rank-2 tensor");
        self.shape.dim(1)
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{} n={}", self.shape, self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = Tensor::zeros(&[2, 2]);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let o = Tensor::ones(&[3]);
        assert!(o.as_slice().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn eye_has_diagonal_ones() {
        let e = Tensor::eye(3);
        assert_eq!(e.at2(0, 0), 1.0);
        assert_eq!(e.at2(1, 1), 1.0);
        assert_eq!(e.at2(0, 1), 0.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::try_from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::try_from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn indexing_2d() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set2(1, 2, 7.0);
        assert_eq!(t.at2(1, 2), 7.0);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
    }

    #[test]
    fn fill_overwrites_all_elements() {
        let mut t = Tensor::zeros(&[5]);
        t.fill(2.5);
        assert!(t.as_slice().iter().all(|&v| v == 2.5));
    }

    #[test]
    fn display_is_not_empty() {
        let t = Tensor::zeros(&[2, 2]);
        assert!(!format!("{t}").is_empty());
        assert!(!format!("{t:?}").is_empty());
    }
}
