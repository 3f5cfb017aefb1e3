//! # agg-metrics — experiment measurement and reporting
//!
//! The paper evaluates AggregaThor with three metrics (§4.1): accuracy
//! (top-1 cross-accuracy) against time and against model updates,
//! throughput, and the latency split between computation + communication
//! and aggregation. [`trace::TrainingTrace`] captures the accuracy curve;
//! the throughput and the latency split are views over a run's round
//! records (`agg_ps::TrainingReport`).
//!
//! [`table`] renders the small text tables and CSV series the experiment
//! binaries print, so every figure of the paper has a textual counterpart.

pub mod table;
pub mod trace;

pub use table::Table;
pub use trace::{TracePoint, TrainingTrace};
