//! # agg-core — Byzantine-resilient gradient aggregation rules
//!
//! This crate is the heart of the AggregaThor reproduction: the Gradient
//! Aggregation Rules (GARs) that the parameter server applies to the `n`
//! gradients submitted by the workers each synchronous step, of which up to
//! `f` may be Byzantine (arbitrary, possibly adversarial).
//!
//! Implemented rules:
//!
//! | Rule | Resilience | Requirement | Paper section |
//! |---|---|---|---|
//! | [`Average`] | none | — | baseline (`tf.train.SyncReplicasOptimizer`) |
//! | [`SelectiveAverage`] | none (loss-tolerant) | — | §3.3 |
//! | [`CoordinateMedian`] | weak | `n ≥ 2f + 1` | §4.2 (Xie et al.) |
//! | [`TrimmedMean`] | weak | `n ≥ 2f + 1` | related work (Yin et al.) |
//! | [`Krum`] | weak | `n ≥ 2f + 3` | §2.3 |
//! | [`MultiKrum`] | weak | `n ≥ 2f + 3`, `m ≤ n − f − 2` | §2.3, Appendix B.2 |
//! | [`Bulyan`] | strong | `n ≥ 4f + 3`, `m ≤ n − 2f − 2` | §2.3, Appendix B.3 |
//! | [`Majority`] | strong, given replicated batches | `n ≥ 2f + 1` | Draco baseline (§4.2) |
//!
//! All rules tolerate non-finite (`NaN`, `±∞`) coordinates — the paper calls
//! this "a crucial feature when facing actual malicious workers" — either by
//! construction (distance-based rules never select a non-finite gradient when
//! enough finite ones exist) or, for coordinates lost on the wire, through
//! the transport's loss policy (`agg_net::LossPolicy`, §3.3 of the paper).
//!
//! ```
//! use agg_core::{Gar, MultiKrum};
//! use agg_tensor::Vector;
//!
//! # fn main() -> Result<(), agg_core::AggregationError> {
//! // 7 workers, 1 of them Byzantine.
//! let gradients: Vec<Vector> = (0..6)
//!     .map(|i| Vector::from(vec![1.0 + 0.01 * i as f32, -1.0]))
//!     .chain(std::iter::once(Vector::from(vec![1e9, 1e9])))
//!     .collect();
//! let gar = MultiKrum::new(1)?;
//! let aggregate = gar.aggregate(&gradients)?;
//! assert!(aggregate[0] < 2.0); // the outlier was excluded
//! # Ok(())
//! # }
//! ```

pub mod average;
pub mod bulyan;
pub mod error;
pub mod gar;
pub mod geometric_median;
pub mod krum;
pub mod majority;
pub mod meamed;
pub mod median;
pub mod multi_krum;
pub mod reference;
pub mod registry;
pub mod resilience;
pub mod selective;
pub mod sharded;
pub mod tree;
pub mod trimmed_mean;

pub use agg_tensor::{DistanceMatrix, GradientBatch};
pub use average::Average;
pub use bulyan::Bulyan;
pub use error::AggregationError;
pub use gar::{Gar, GarProperties, GarRound, Resilience};
pub use geometric_median::GeometricMedian;
pub use krum::Krum;
pub use majority::Majority;
pub use meamed::MeaMed;
pub use median::CoordinateMedian;
pub use multi_krum::MultiKrum;
pub use registry::{GarConfig, GarKind, GarWork};
pub use selective::SelectiveAverage;
pub use sharded::ShardedAggregator;
pub use tree::{GroupOutput, TreeAggregator, TreeConfig, TreeRound};
pub use trimmed_mean::TrimmedMean;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, AggregationError>;

/// Runs `op` under rayon thread budgets of 1, 2 and 4, returning the three
/// results in that order: the determinism pins of the parallel regions.
#[cfg(test)]
pub(crate) fn at_budgets<R: Send>(op: impl Fn() -> R + Sync) -> Vec<R> {
    [1, 2, 4]
        .into_iter()
        .map(|threads| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build();
            pool.expect("the shim's pools always build").install(&op)
        })
        .collect()
}
