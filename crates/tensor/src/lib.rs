//! # agg-tensor
//!
//! Dense numeric primitives used throughout the AggregaThor reproduction:
//!
//! * [`Vector`] — a flat `f32` vector, the representation of a gradient or a
//!   flattened model. All gradient aggregation rules (GARs) operate on slices
//!   of these.
//! * [`Matrix`] — a row-major 2-D matrix with shape-checked products; a
//!   convenience type for tests and examples, not held by any layer.
//! * [`gemm`] — the register-tiled dense products over plain slices that
//!   `agg-nn`'s `Dense` layer runs its forward and backward passes on (and
//!   that [`Matrix::matmul`] wraps), bit-identical to the scalar triple loop.
//! * [`Tensor`] — an n-dimensional array (row-major): the mini-batches the
//!   data pipelines hand out and the logits a model computes.
//! * [`GradientBatch`] — a contiguous row-major `n×d` arena holding one
//!   round of gradients, plus the fused, cache-friendly aggregation kernels
//!   (triangular pairwise distances, column-block medians/means). This is
//!   the hot-path representation the GARs aggregate over.
//! * [`sortnet`] — branch-free selection networks (Batcher odd–even
//!   mergesort, pruned to the order statistics a rule actually reads),
//!   executed vertically over lanes of columns by the batch kernels for
//!   worker-count row counts.
//! * [`ShardPlan`] — the contiguous coordinate partition of a sharded
//!   deployment, shared by the aggregation kernels, the packet-routing layer
//!   and the parameter-server runtime so they agree on shard boundaries.
//! * [`stats`] — robust statistics on slices and across collections of
//!   vectors: median, trimmed mean, k-closest-to-median averaging, squared
//!   distances. These are the numeric kernels the paper's Multi-Krum and
//!   Bulyan implementations are built from.
//! * [`rng`] — small deterministic RNG helpers so every experiment in the
//!   reproduction is seedable and repeatable.
//!
//! The crate intentionally avoids BLAS or SIMD intrinsics: kernels are safe
//! loops shaped so the autovectoriser does the work, and every one keeps the
//! summation order of its scalar form so results do not depend on the kernel
//! — nor on the vector width: [`gemm`]'s tiles and the order-statistic tiles
//! of [`batch`] run the same loops at 256 bits where the CPU has AVX2, behind
//! the crate's only `unsafe` (four feature-checked dispatch calls: three in
//! `gemm`, one in `batch`).
//!
//! ```
//! use agg_tensor::Vector;
//!
//! let a = Vector::from(vec![1.0, 2.0, 3.0]);
//! let b = Vector::from(vec![1.0, 0.0, 3.0]);
//! assert_eq!(a.squared_distance(&b), 4.0);
//! ```

pub mod batch;
pub mod error;
pub mod gemm;
pub mod matrix;
pub mod ops;
pub mod rng;
pub mod shard;
pub mod sortnet;
pub mod stats;
pub mod streaming;
pub mod tensor;
pub mod vector;

pub use batch::{BatchColumns, DistanceMatrix, GradientBatch};
pub use error::TensorError;
pub use matrix::Matrix;
pub use shard::{GroupPlan, ShardPlan};
pub use streaming::StreamingDistances;
pub use tensor::Tensor;
pub use vector::Vector;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
