//! # agg-core — Byzantine-resilient gradient aggregation rules
//!
//! This crate is the heart of the AggregaThor reproduction: the Gradient
//! Aggregation Rules (GARs) that the parameter server applies to the `n`
//! gradients submitted by the workers each synchronous step, of which up to
//! `f` may be Byzantine (arbitrary, possibly adversarial).
//!
//! A rule is its configuration: a [`GarConfig`] names a [`GarKind`] and the
//! declared `f`, and implements [`Gar`], with one `match` over the kind per
//! step of a round. The rules:
//!
//! | Rule | Resilience | Requirement | Paper section |
//! |---|---|---|---|
//! | [`GarKind::Average`] | none | — | baseline (`tf.train.SyncReplicasOptimizer`) |
//! | [`GarKind::SelectiveAverage`] | none (loss-tolerant) | — | §3.3 |
//! | [`GarKind::Median`] | weak | `n ≥ 2f + 1` | §4.2 (Xie et al.) |
//! | [`GarKind::TrimmedMean`] | weak | `n ≥ 2f + 1` | related work (Yin et al.) |
//! | [`GarKind::MeaMed`] | weak | `n ≥ 2f + 1` | related work (Xie et al.) |
//! | [`GarKind::GeometricMedian`] | weak | `n ≥ 2f + 1` | related work (Weiszfeld) |
//! | [`GarKind::Krum`] | weak | `n ≥ 2f + 3` | §2.3 |
//! | [`GarKind::MultiKrum`] | weak | `n ≥ 2f + 3`, `m ≤ n − f − 2` | §2.3, Appendix B.2 |
//! | [`GarKind::Bulyan`] | strong | `n ≥ 4f + 3` | §2.3, Appendix B.3 |
//! | [`GarKind::Majority`] | strong, given replicated batches | `n ≥ 2f + 1` | Draco baseline (§4.2) |
//!
//! The resilient rules tolerate non-finite (`NaN`, `±∞`) coordinates in up
//! to `f` rows — the paper calls this "a crucial feature when facing actual
//! malicious workers" — by construction: distance-based rules never select a
//! non-finite gradient when enough finite ones exist, and the coordinate-wise
//! rules drop or out-rank non-finite values. The two averages are the
//! exception. Selective averaging skips the `NaN` the transport writes for a
//! coordinate lost on the wire (`agg_net::LossPolicy`, §3.3 of the paper),
//! but an infinite value reaches its mean; plain averaging skips nothing, and
//! a single `NaN` poisons the mean.
//!
//! ```
//! use agg_core::{GarConfig, GarKind};
//! use agg_tensor::Vector;
//!
//! # fn main() -> Result<(), agg_core::AggregationError> {
//! // 7 workers, 1 of them Byzantine.
//! let gradients: Vec<Vector> = (0..6)
//!     .map(|i| Vector::from(vec![1.0 + 0.01 * i as f32, -1.0]))
//!     .chain(std::iter::once(Vector::from(vec![1e9, 1e9])))
//!     .collect();
//! let gar = GarConfig::new(GarKind::MultiKrum, 1).build()?;
//! let aggregate = gar.aggregate(&gradients)?;
//! assert!(aggregate[0] < 2.0); // the outlier was excluded
//! # Ok(())
//! # }
//! ```

mod bulyan;
pub mod error;
pub mod gar;
mod geometric_median;
mod majority;
mod multi_krum;
pub mod reference;
pub mod registry;
pub mod resilience;
pub mod sharded;
pub mod tree;

pub use agg_tensor::{DistanceMatrix, GradientBatch};
pub use error::AggregationError;
pub use gar::{Gar, GarRound, Resilience};
pub use registry::{GarConfig, GarKind, GarWork};
pub use sharded::ShardedAggregator;
pub use tree::{
    group_stage, root_feedback, root_round, GroupOutput, Levels, TreeAggregator, TreeConfig,
    TreeRound,
};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, AggregationError>;

// The unit tests of the rules whose whole definition is a match arm of
// `GarConfig`'s `Gar` implementation, each module named after its rule.
#[cfg(test)]
#[path = "rule_tests/average.rs"]
mod average;
#[cfg(test)]
#[path = "rule_tests/krum.rs"]
mod krum;
#[cfg(test)]
#[path = "rule_tests/meamed.rs"]
mod meamed;
#[cfg(test)]
#[path = "rule_tests/median.rs"]
mod median;
#[cfg(test)]
#[path = "rule_tests/selective.rs"]
mod selective;
#[cfg(test)]
#[path = "rule_tests/trimmed_mean.rs"]
mod trimmed_mean;

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
