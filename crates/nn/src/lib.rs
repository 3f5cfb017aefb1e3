//! # agg-nn — the training substrate
//!
//! The AggregaThor paper builds on TensorFlow; this crate is the
//! reproduction's from-scratch substitute: a small, dependency-free
//! neural-network library with exactly the pieces the paper's evaluation
//! needs.
//!
//! * [`model`] — [`model::Sequential`], the one network the runs train: a
//!   chain of dense layers with a ReLU between every two, with hand-written
//!   backpropagation over the flattened parameter / gradient vectors the
//!   parameter-server protocol exchanges.
//! * [`models`] — [`models::synthetic_mlp`], its constructor. The paper's
//!   Table 1 CNN and ResNet-50 are not built: the simulated clock charges
//!   their sizes (`agg_ps::VirtualModelCost`).
//! * [`loss`] — softmax cross-entropy (the image-classification loss used
//!   throughout the paper's evaluation).
//! * [`optim`] — the SGD and RMSProp update rules (the `--optimizer`
//!   choices of the original runner that a run here selects).
//! * [`schedule`] — the fixed learning rate (the runner's
//!   `--learning-rate fixed`).
//! * [`init`] — weight initialisers.
//!
//! ```
//! use agg_nn::models;
//! use agg_nn::model::Sequential;
//!
//! let model = models::synthetic_mlp(16, &[32], 4, 1);
//! assert!(model.param_count() > 0);
//! ```

pub mod error;
pub mod init;
mod layers;
pub mod loss;
pub mod model;
pub mod models;
pub mod optim;
pub mod schedule;

pub use error::NnError;
pub use model::Sequential;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NnError>;
