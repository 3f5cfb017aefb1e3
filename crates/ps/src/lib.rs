//! # agg-ps — the parameter-server runtime
//!
//! This crate is the reproduction's counterpart of the AggregaThor framework
//! itself (§3 of the paper): a synchronous parameter-server training engine
//! with Byzantine workers, the node it charges gradient time on, and the
//! configuration surface of the original `runner.py`.
//!
//! The original system distributes real TensorFlow graphs over a Grid5000
//! cluster; the reproduction simulates the cluster with a discrete-event
//! clock while running the *numerics* (gradients, aggregation, model updates)
//! for real:
//!
//! * [`cluster`] — the Grid5000 node every worker computes on.
//! * [`config`] — [`config::RunnerConfig`], mirroring the command-line surface
//!   of `runner.py` (`--aggregator`, `--optimizer`, `--learning-rate`,
//!   `--nb-workers`, …).
//! * [`cost`] — the time model: analytic gradient-computation and
//!   communication costs, and aggregation cost counted from each rule's work.
//! * [`membership`] — elastic membership: epoch-fenced views over a churning
//!   worker set, deterministic fault plans, and the resilience-floor
//!   refusal.
//! * [`worker`] — honest, data-poisoned and actively adversarial workers.
//! * [`server`] — the trusted parameter server: GAR + optimizer + the
//!   access-control patch that keeps Byzantine workers from overwriting the
//!   shared model directly.
//! * [`streaming`] — the round pipeline: the submission arena and the
//!   quorum policy that lets the server aggregate at `n − f` arrivals.
//! * [`reputation`] — the cross-round suspicion ledger: decayed per-worker
//!   scores folded from the engine's evidence streams, automatic quarantine
//!   with probationary readmission, and the containment reshuffle policy of
//!   the tree tier.
//! * [`engine`] — the synchronous training loop (Equation 4) and the
//!   throughput simulator used by the scalability experiments.
//! * [`report`] — the structured result of a run: one record per round, the
//!   run totals and clock folded from them, and the throughput, latency
//!   split and per-worker rows as views over them.

pub mod cluster;
pub mod config;
pub mod cost;
pub mod engine;
pub mod error;
pub mod membership;
pub mod report;
pub mod reputation;
pub mod server;
pub mod streaming;
pub mod worker;

pub use cluster::Node;
pub use config::{ExperimentKind, RunnerConfig, TransportKind};
pub use cost::{CostModel, VirtualModelCost};
pub use engine::{SyncTrainingEngine, ThroughputSimulation};
pub use error::PsError;
pub use membership::{FaultAction, FaultEvent, FaultPlan, MembershipView, WorkerHealth};
pub use report::{RoundRecord, RoundVerdict, SlotWire, TrainingReport, WorkerReport};
pub use reputation::{
    QuarantineEvent, ReputationConfig, ReputationLedger, RoundEvidence, StandingChange,
    WorkerStanding,
};
pub use server::ParameterServer;
pub use streaming::{QuorumPolicy, RoundPipeline, StreamingConfig};
pub use worker::{Worker, WorkerRole};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, PsError>;
