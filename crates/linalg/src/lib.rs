//! Dense linear-algebra substrate for the `appclass` reproduction.
//!
//! The paper's classification center was implemented in Matlab; this crate
//! provides the small, self-contained subset of numerical linear algebra the
//! pipeline needs, written from scratch:
//!
//! * [`Matrix`] — a row-major dense `f64` matrix with the usual structural
//!   and arithmetic operations.
//! * [`eigen`] — a cyclic Jacobi eigensolver for real symmetric matrices
//!   (exactly what PCA needs: the scatter/covariance matrix is symmetric
//!   positive semi-definite), plus power iteration used as an independent
//!   cross-check in tests.
//! * [`stats`] — column statistics: means, variances, z-score normalization
//!   with a fit/apply split (normalization parameters are learned on training
//!   data and applied unchanged to test data), covariance and scatter
//!   matrices.
//! * [`svd`] — a one-sided Jacobi thin SVD: the numerically-stable
//!   alternative route to PCA, used to cross-check the eigen route.
//! * [`vector`] — small dense-vector kernels (dot, norms, axpy, the three
//!   distance metrics) shared by the other modules and by the k-NN
//!   classifier's neighbour search downstream.
//!
//! Everything is deterministic: no randomized algorithms are used in the
//! numerical kernels, so a given input always produces bit-identical output,
//! which the reproduction's integration tests rely on.

#![warn(missing_docs)]

pub mod eigen;
pub mod error;
pub mod matrix;
pub mod stats;
pub mod svd;
pub mod vector;

pub use error::{Error, Result};
pub use matrix::Matrix;
