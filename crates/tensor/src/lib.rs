//! # nrsnn-tensor
//!
//! A small, dependency-light dense `f32` tensor library used as the numeric
//! substrate of the NRSNN reproduction (DNN training, DNN-to-SNN conversion
//! and spiking simulation all operate on these tensors).
//!
//! The crate intentionally implements only what the rest of the workspace
//! needs: n-dimensional row-major tensors, elementwise arithmetic, matrix
//! multiplication, 2-D convolution/pooling helpers (`im2col`/`col2im`) and
//! random initialisers.
//!
//! ## Example
//!
//! ```
//! use nrsnn_tensor::Tensor;
//!
//! # fn main() -> Result<(), nrsnn_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod conv;
mod error;
mod init;
mod linalg;
mod shape;
pub mod simd;
mod tensor;

pub use conv::{col2im, im2col, im2col_slices, Conv2dGeometry, Pool2dGeometry};
pub use error::TensorError;
pub use init::{he_normal, uniform, xavier_uniform};
pub use linalg::{
    matmul, matmul_slices, matmul_sparse_into, matmul_sparse_slices, matvec, matvec_bias_slices,
    matvec_bias_tile_slices, matvec_slices, transpose, transpose_slices,
};
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
