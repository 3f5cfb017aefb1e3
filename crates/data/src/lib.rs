//! # agg-data — datasets and sampling
//!
//! The paper evaluates on CIFAR-10 and MNIST. Those datasets are not bundled
//! here; instead this crate generates **deterministic synthetic
//! classification datasets** with the same API surface (train/test split,
//! min-max scaling, mini-batch sampling) so every experiment is
//! self-contained and laptop-scale. The Byzantine-resilience results the
//! reproduction targets depend on gradient statistics (i.i.d., unbiased,
//! bounded variance) rather than on natural-image content, so the shape of
//! every comparison carries over — that is the whole substitution rationale.
//!
//! * [`dataset::Dataset`] — an in-memory labelled dataset with train/test
//!   split.
//! * [`synthetic`] — Gaussian-blob feature datasets (for the MLPs).
//! * [`sampler::MiniBatchSampler`] — per-worker i.i.d. mini-batch draws, the
//!   sampling model assumed by the paper's convergence analysis.
//! * [`corruption`] — label shifting and huge-valued features, the two
//!   poisonings of the "corrupted data" Byzantine experiment (Figure 7).

pub mod corruption;
pub mod dataset;
pub mod error;
pub mod sampler;
pub mod synthetic;

pub use dataset::{Dataset, Split};
pub use error::DataError;
pub use sampler::MiniBatchSampler;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DataError>;
