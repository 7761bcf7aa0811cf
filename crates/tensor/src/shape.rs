//! Shape bookkeeping for [`crate::Tensor`].

use serde::{Deserialize, Serialize};

/// The shape (per-dimension extents) of a tensor.
///
/// A `Shape` is a thin wrapper over a `Vec<usize>` that knows how to compute its
/// element count and row-major strides.
///
/// # Example
///
/// ```
/// use dssp_tensor::Shape;
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.volume(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a slice of dimension extents.
    pub fn new(dims: &[usize]) -> Self {
        Self {
            dims: dims.to_vec(),
        }
    }

    /// Returns the dimension extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Overwrites the extents in place, reusing the backing storage (no allocation
    /// once the rank has been seen before).
    pub fn set_dims(&mut self, dims: &[usize]) {
        self.dims.clear();
        self.dims.extend_from_slice(dims);
    }

    /// Rotates the extents `by` places to the left in place: `[a, b, c]` becomes
    /// `[b, c, a]` for `by == 1`.
    pub(crate) fn rotate_left(&mut self, by: usize) {
        self.dims.rotate_left(by);
    }

    /// Returns the number of dimensions (the rank).
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Returns the total number of elements described by this shape.
    ///
    /// An empty shape (rank 0) describes a scalar and has volume 1.
    pub fn volume(&self) -> usize {
        self.dims.iter().product()
    }

    /// Returns the row-major strides for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Returns the extent of dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rank()`.
    pub fn dim(&self, i: usize) -> usize {
        self.dims[i]
    }

    /// Returns true if the two shapes have identical extents.
    pub fn same_as(&self, other: &Shape) -> bool {
        self.dims == other.dims
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape { dims }
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_of_empty_shape_is_one() {
        assert_eq!(Shape::new(&[]).volume(), 1);
    }

    #[test]
    fn volume_multiplies_dims() {
        assert_eq!(Shape::new(&[3, 4, 5]).volume(), 60);
    }

    #[test]
    fn strides_are_row_major() {
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[7]).strides(), vec![1]);
    }

    #[test]
    fn display_formats_dims() {
        assert_eq!(Shape::new(&[2, 3]).to_string(), "[2x3]");
    }

    #[test]
    fn rank_and_dim_access() {
        let s = Shape::new(&[5, 6]);
        assert_eq!(s.rank(), 2);
        assert_eq!(s.dim(0), 5);
        assert_eq!(s.dim(1), 6);
    }

    #[test]
    fn conversion_from_vec_and_slice() {
        let a: Shape = vec![1, 2].into();
        let b: Shape = (&[1usize, 2][..]).into();
        assert!(a.same_as(&b));
    }
}
