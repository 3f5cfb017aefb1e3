//! # agg-nn — the training substrate
//!
//! The AggregaThor paper builds on TensorFlow; this crate is the
//! reproduction's from-scratch substitute: a small, dependency-free
//! neural-network library with exactly the pieces the paper's evaluation
//! needs.
//!
//! * [`layer`] / [`layers`] — dense, 2-D convolution, max-pooling, ReLU and
//!   flatten layers with hand-written backpropagation.
//! * [`loss`] — softmax cross-entropy (the image-classification loss used
//!   throughout the paper's evaluation).
//! * [`model`] — [`model::Sequential`], which chains layers and exposes the
//!   flattened parameter / gradient vectors the parameter-server protocol
//!   exchanges.
//! * [`models`] — ready-made architectures: the paper's Table 1 CNN
//!   (~1.75 M parameters), a fast MLP for convergence experiments, and a
//!   large model standing in for ResNet50 in the Figure 5(b) scalability
//!   experiment.
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
pub mod layer;
pub mod layers;
pub mod loss;
pub mod model;
pub mod models;
pub mod optim;
pub mod schedule;

pub use error::NnError;
pub use layer::Layer;
pub use model::Sequential;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NnError>;
