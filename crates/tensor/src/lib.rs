//! Dense `f32` tensor math used by the DSSP reproduction.
//!
//! The crate provides a small, dependency-light tensor type ([`Tensor`]) together with
//! the linear-algebra and convolution kernels needed to train the deep neural networks
//! evaluated in the DSSP paper (a downsized AlexNet and CIFAR-style ResNets). It is not
//! a general-purpose array library; it implements exactly what the `dssp-nn` layers
//! need, with an emphasis on determinism and testability rather than raw speed.
//!
//! # Example
//!
//! ```
//! use dssp_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.as_slice(), a.as_slice());
//! ```

mod conv;
mod gemm;
mod init;
mod ops;
mod shape;
mod tensor;
mod tiles;

pub use conv::{
    conv2d, conv2d_backward, conv2d_backward_into, conv2d_into, conv2d_lanes_backward_into,
    conv2d_lanes_into, max_pool2d, max_pool2d_backward, max_pool2d_backward_into, max_pool2d_into,
    Conv2dSpec, ConvScratch, Pool2dSpec,
};
pub use init::{he_normal, uniform_init, xavier_uniform};
pub use ops::{add_assign_slice, sgd_apply};
pub use shape::Shape;
pub use tensor::Tensor;

/// Error type for tensor operations that validate their inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The two operands have incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Shape of the left-hand operand.
        left: Vec<usize>,
        /// Shape of the right-hand operand.
        right: Vec<usize>,
        /// The operation that was attempted.
        op: &'static str,
    },
    /// The number of data elements does not match the product of the shape dimensions.
    LengthMismatch {
        /// Number of elements supplied.
        len: usize,
        /// Number of elements the shape requires.
        expected: usize,
    },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { left, right, op } => {
                write!(f, "shape mismatch in {op}: {left:?} vs {right:?}")
            }
            TensorError::LengthMismatch { len, expected } => {
                write!(
                    f,
                    "data length {len} does not match shape volume {expected}"
                )
            }
        }
    }
}

impl std::error::Error for TensorError {}
