//! The run configuration: the reproduction's counterpart of the original
//! `runner.py` command line.
//!
//! | `runner.py` flag | Field here |
//! |---|---|
//! | `--experiment` | [`ExperimentKind`] |
//! | `--aggregator` / `--aggregator-args` | [`RunnerConfig::gar`] |
//! | `--optimizer` `sgd` \| `rmsprop` | [`RunnerConfig::optimizer`] |
//! | `--learning-rate` `fixed` | [`RunnerConfig::learning_rate`] |
//! | `--nb-workers` | [`RunnerConfig::workers`] |
//! | `--max-step` | [`RunnerConfig::max_steps`] |
//! | `--evaluation-delta` | [`RunnerConfig::eval_every`] |
//! | `--l1-regularize` / `--l2-regularize` | [`RunnerConfig::regularization`] |
//! | (attack experiments) | [`RunnerConfig::attack`], [`RunnerConfig::byzantine_count`], [`RunnerConfig::data_poisoning`] |
//! | (communication backend) | [`RunnerConfig::transport`], [`RunnerConfig::lossy_links`], [`RunnerConfig::link`] |

use crate::cost::CostModel;
use crate::membership::{self, FaultPlan};
use crate::reputation::ReputationConfig;
use crate::streaming::StreamingConfig;
use crate::{PsError, Result};
use agg_attacks::AttackKind;
use agg_core::{GarConfig, Levels, TreeAggregator, TreeConfig};
use agg_data::corruption::Corruption;
use agg_data::synthetic::{gaussian_blobs, BlobConfig};
use agg_data::Dataset;
use agg_net::{ChaosConfig, LinkConfig, LossPolicy, RetransmitConfig};
use agg_nn::models;
use agg_nn::optim::{OptimizerKind, Regularization};
use agg_nn::schedule::LearningRate;
use agg_nn::Sequential;
use agg_tensor::GroupPlan;
use serde::{Deserialize, Serialize};

/// Which model + dataset combination to train (the `--experiment` flag).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ExperimentKind {
    /// A multi-layer perceptron over Gaussian-blob features — the fast proxy
    /// used by the convergence experiments.
    MlpBlobs {
        /// Feature dimension.
        input_dim: usize,
        /// Hidden width (single hidden layer).
        hidden: usize,
        /// Number of classes.
        classes: usize,
        /// Total number of samples generated.
        samples: usize,
    },
}

impl ExperimentKind {
    /// The default proxy experiment used throughout the figure reproductions.
    pub fn default_proxy() -> Self {
        ExperimentKind::MlpBlobs { input_dim: 32, hidden: 64, classes: 10, samples: 4000 }
    }

    /// Builds only the model for this experiment (used to give every worker
    /// its own model replica without regenerating the dataset).
    pub fn build_model(&self, seed: u64) -> Sequential {
        let ExperimentKind::MlpBlobs { input_dim, hidden, classes, .. } = *self;
        models::synthetic_mlp(input_dim, &[hidden], classes, seed)
    }

    /// Builds the model and the train/test datasets for this experiment.
    ///
    /// # Errors
    ///
    /// Returns [`PsError`] when the synthetic dataset cannot be generated.
    pub fn build(&self, seed: u64) -> Result<(Sequential, Dataset, Dataset)> {
        let ExperimentKind::MlpBlobs { input_dim, classes, samples, .. } = *self;
        let data = gaussian_blobs(
            &BlobConfig { classes, dim: input_dim, samples, separation: 2.5, noise: 0.6 },
            seed,
        )?;
        let (train, test) = data.split(0.2)?;
        Ok((self.build_model(seed), train, test))
    }
}

/// Which transport carries gradients from workers to the server.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TransportKind {
    /// Reliable TCP/gRPC-like transport on every link (including the degraded
    /// ones, which then pay the congestion-collapse penalty).
    Reliable,
    /// The lossy UDP-like transport (`lossyMPI`) with the given loss policy
    /// on the degraded links designated by [`RunnerConfig::lossy_links`]; the
    /// remaining links stay reliable, matching the paper's deployment where
    /// unreliable communication is used "only at (up to) f links".
    Lossy {
        /// How lost coordinates are handled at the receiving endpoint.
        policy: LossPolicy,
    },
}

/// Full configuration of one distributed training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunnerConfig {
    /// Model + dataset.
    pub experiment: ExperimentKind,
    /// Gradient aggregation rule.
    pub gar: GarConfig,
    /// Total number of workers `n`.
    pub workers: usize,
    /// Number of actually Byzantine workers in this run (≤ `workers`). Their
    /// behaviour is [`RunnerConfig::attack`] or, if set,
    /// [`RunnerConfig::data_poisoning`].
    pub byzantine_count: usize,
    /// The behaviour of the Byzantine workers.
    pub attack: AttackKind,
    /// When set, Byzantine workers honestly train on a corrupted copy of the
    /// dataset instead of running `attack` (the Figure 7 experiment).
    pub data_poisoning: Option<Corruption>,
    /// Optimizer applied by the parameter server.
    pub optimizer: OptimizerKind,
    /// Learning-rate schedule.
    pub learning_rate: LearningRate,
    /// Optional L1/L2 regularisation.
    pub regularization: Regularization,
    /// Mini-batch size `b` per worker.
    pub batch_size: usize,
    /// Number of synchronous model updates to run.
    pub max_steps: u64,
    /// Evaluate test accuracy every this many steps.
    pub eval_every: u64,
    /// Number of test samples used per evaluation.
    pub eval_samples: usize,
    /// Gradient transport used on the degraded links.
    pub transport: TransportKind,
    /// How many worker↔server links (taken from the highest worker ids) are
    /// subject to the [`RunnerConfig::link`] packet-drop rate. The remaining
    /// links see a clean network. This models the paper's Figure 8 setup,
    /// where artificial drops are injected on the links under study.
    pub lossy_links: usize,
    /// Link characteristics (bandwidth, latency, loss) of the degraded links;
    /// clean links share the bandwidth/latency but drop nothing.
    pub link: LinkConfig,
    /// Optional chaos schedule on the degraded links: seeded bit flips,
    /// truncations, mutated duplicates, reorder bursts, delay spikes and
    /// transient partitions, replayable bit for bit from
    /// [`RunnerConfig::seed`]. `None` keeps the wire exactly as clean (or as
    /// merely lossy) as before.
    pub chaos: Option<ChaosConfig>,
    /// Optional NACK/retransmit recovery on the degraded links: bounded
    /// retries with exponential backoff under a per-round deadline. `None`
    /// keeps the seed single-shot delivery.
    pub retransmit: Option<RetransmitConfig>,
    /// When true, an adaptive attack additionally *times churn*: the attacker
    /// crashes or rejoins its own workers based on the previous round's
    /// selection feedback (attacker-controlled churn timing). Requires an
    /// attack that plans churn to have any effect; honest runs ignore it.
    pub adaptive_churn: bool,
    /// Number of contiguous coordinate shards the parameter-server tier is
    /// split into (1 = the single monolithic server). Sharded aggregation is
    /// exactly equivalent to the unsharded rule — distance-based GARs reduce
    /// per-shard partial distance matrices and select globally — so this is
    /// purely a scale knob, never a robustness trade-off.
    pub shards: usize,
    /// Hierarchical (two-level) aggregation: partition the workers into
    /// groups of `tree.group_size ≤ 32`, run a full GAR per group at the
    /// sortnet sweet spot, then run a GAR over the group outputs at the
    /// root. `None` keeps the flat tier — the seed behaviour, bit for bit.
    /// When set, [`RunnerConfig::gar`] must equal `tree.root` (the root rule
    /// is what labels, quorum and selection feedback observe) and the tier is
    /// mutually exclusive with coordinate sharding (`shards > 1`). Unlike
    /// sharding, the tree *changes the asymptotics* — O(n²d) becomes
    /// O(n·g·d + (n/g)²d) — at the cost of the composed resilience bound
    /// `f_total = (f_group + 1)(f_root + 1) − 1` instead of a flat `f`.
    pub tree: Option<TreeConfig>,
    /// Simulation cost model.
    pub cost: CostModel,
    /// Round knobs: the quorum policy deciding when the server stops
    /// waiting for stragglers. Its `enabled` flag is retired — the engine
    /// ignores it (see [`StreamingConfig::enabled`]).
    pub streaming: StreamingConfig,
    /// Optional per-worker extra arrival delay in simulated seconds, added
    /// to each worker's compute + transfer time (Byzantine workers
    /// included, whose submissions are otherwise instantaneous). Empty for
    /// no extra delay; otherwise one entry per worker. This is the straggler
    /// knob of the quorum experiments.
    pub worker_extra_delay_sec: Vec<f64>,
    /// The elastic-membership churn schedule: crashes, rejoins and slow-by
    /// demotions applied at the start of the scheduled rounds. Empty for
    /// static membership, which is the same epoch-fenced round with no
    /// transition ever applied.
    pub fault_plan: FaultPlan,
    /// Optional cross-round reputation ledger: decayed per-worker suspicion
    /// scores folded from the engine's evidence streams, driving automatic
    /// quarantine, probationary readmission and (in tree mode) the
    /// containment group reshuffles. `None` keeps the memoryless seed
    /// behaviour, bit for bit. Quarantine evictions and readmissions travel
    /// through the same membership machinery as a fault plan's events.
    pub reputation: Option<ReputationConfig>,
    /// Experiment seed; everything (data, init, sampling, attacks, links)
    /// derives from it.
    pub seed: u64,
}

impl RunnerConfig {
    /// A small, fast configuration with sensible defaults: 11 workers, no
    /// Byzantine behaviour, averaging GAR, RMSProp with the paper's fixed
    /// learning rate.
    pub fn quick_default() -> Self {
        RunnerConfig {
            experiment: ExperimentKind::default_proxy(),
            gar: GarConfig::new(agg_core::GarKind::Average, 0),
            workers: 11,
            byzantine_count: 0,
            attack: AttackKind::None,
            data_poisoning: None,
            optimizer: OptimizerKind::RmsProp,
            learning_rate: LearningRate::paper_default(),
            regularization: Regularization::none(),
            batch_size: 25,
            max_steps: 100,
            eval_every: 10,
            eval_samples: 256,
            transport: TransportKind::Reliable,
            lossy_links: 0,
            link: LinkConfig::datacenter(),
            chaos: None,
            retransmit: None,
            adaptive_churn: false,
            shards: 1,
            tree: None,
            cost: CostModel::paper_like(),
            streaming: StreamingConfig::default(),
            worker_extra_delay_sec: Vec::new(),
            fault_plan: FaultPlan::empty(),
            reputation: None,
            seed: 1,
        }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`PsError::InvalidConfig`] describing the first violated
    /// constraint, or [`PsError::Aggregation`] when the full roster cannot
    /// seat the round's levels.
    pub fn validate(&self) -> Result<()> {
        if self.workers == 0 {
            return Err(PsError::InvalidConfig("at least one worker is required".into()));
        }
        if self.byzantine_count > self.workers {
            return Err(PsError::InvalidConfig(format!(
                "byzantine_count {} exceeds worker count {}",
                self.byzantine_count, self.workers
            )));
        }
        if self.batch_size == 0 {
            return Err(PsError::InvalidConfig("batch size must be positive".into()));
        }
        if self.max_steps == 0 {
            return Err(PsError::InvalidConfig("max_steps must be positive".into()));
        }
        if self.eval_every == 0 {
            return Err(PsError::InvalidConfig("eval_every must be positive".into()));
        }
        let LearningRate::Fixed { rate } = self.learning_rate;
        if !(rate.is_finite() && rate > 0.0) {
            return Err(PsError::InvalidConfig(format!(
                "the learning rate must be finite and positive, got {rate}"
            )));
        }
        let Regularization { l1, l2 } = self.regularization;
        if !(l1.is_finite() && l1 >= 0.0 && l2.is_finite() && l2 >= 0.0) {
            return Err(PsError::InvalidConfig(format!(
                "the L1/L2 coefficients must be finite and non-negative, got {l1} / {l2}"
            )));
        }
        if self.eval_samples == 0 {
            return Err(PsError::InvalidConfig("eval_samples must be positive".into()));
        }
        let attack_is_sane = match self.attack {
            AttackKind::Random { magnitude } => magnitude.is_finite() && magnitude >= 0.0,
            AttackKind::Reversed { scale } | AttackKind::GroupCollusion { scale, .. } => {
                scale.is_finite()
            }
            AttackKind::ConstantDrift { value } => value.is_finite(),
            AttackKind::LittleIsEnough { z }
            | AttackKind::Alie { z }
            | AttackKind::SlowRotation { z, .. } => z.is_finite(),
            _ => true,
        };
        if !attack_is_sane {
            return Err(PsError::InvalidConfig(format!(
                "attack parameters must be finite and a random magnitude non-negative, got {:?}",
                self.attack
            )));
        }
        if self.lossy_links > self.workers {
            return Err(PsError::InvalidConfig(format!(
                "lossy_links {} exceeds worker count {}",
                self.lossy_links, self.workers
            )));
        }
        if self.shards == 0 {
            return Err(PsError::InvalidConfig(
                "the parameter-server tier needs at least one shard".into(),
            ));
        }
        if !self.worker_extra_delay_sec.is_empty()
            && self.worker_extra_delay_sec.len() != self.workers
        {
            return Err(PsError::InvalidConfig(format!(
                "worker_extra_delay_sec has {} entries for {} workers (empty or one per worker)",
                self.worker_extra_delay_sec.len(),
                self.workers
            )));
        }
        if self.worker_extra_delay_sec.iter().any(|d| !d.is_finite() || *d < 0.0) {
            return Err(PsError::InvalidConfig(
                "worker_extra_delay_sec entries must be finite and non-negative".into(),
            ));
        }
        membership::validate_plan(&self.fault_plan, self.workers, self.max_steps)?;
        if let Some(reputation) = &self.reputation {
            reputation.validate()?;
        }
        self.link.validate().map_err(PsError::from)?;
        if let Some(chaos) = &self.chaos {
            chaos.validate().map_err(PsError::from)?;
        }
        if let Some(retransmit) = &self.retransmit {
            retransmit.validate().map_err(PsError::from)?;
        }
        // Build the GAR once to surface configuration errors early.
        self.gar.build().map_err(PsError::from)?;
        if let Some(tree) = &self.tree {
            if self.shards > 1 {
                return Err(PsError::InvalidConfig(
                    "the tree tier and coordinate sharding are mutually exclusive".into(),
                ));
            }
            if self.gar != tree.root {
                return Err(PsError::InvalidConfig(format!(
                    "in tree mode `gar` must equal the root rule (gar = {}, tree.root = {}): \
                     labels, quorum and selection feedback all observe the root",
                    self.gar, tree.root
                )));
            }
            // Surface group-size / rule errors early, exactly like `gar`.
            TreeAggregator::new(*tree).map_err(PsError::from)?;
        }
        // The full roster must seat the round's levels: a run that would
        // refuse every round is a configuration error, not a runtime one.
        let levels = Levels::new(self.gar, self.tree, self.workers);
        let plan = GroupPlan::new(self.workers, levels.group_size).map_err(PsError::from)?;
        levels.check(plan.sizes()).map_err(PsError::from)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_default_is_valid() {
        assert!(RunnerConfig::quick_default().validate().is_ok());
    }

    #[test]
    fn validation_catches_inconsistencies() {
        let mut c = RunnerConfig::quick_default();
        c.workers = 0;
        assert!(c.validate().is_err());

        let mut c = RunnerConfig::quick_default();
        c.byzantine_count = 20;
        assert!(c.validate().is_err());

        let mut c = RunnerConfig::quick_default();
        c.batch_size = 0;
        assert!(c.validate().is_err());

        let mut c = RunnerConfig::quick_default();
        c.max_steps = 0;
        assert!(c.validate().is_err());

        let mut c = RunnerConfig::quick_default();
        c.eval_every = 0;
        assert!(c.validate().is_err());

        let mut c = RunnerConfig::quick_default();
        c.lossy_links = 100;
        assert!(c.validate().is_err());

        for rate in [f32::NAN, 0.0, -1e-3] {
            let mut c = RunnerConfig::quick_default();
            c.learning_rate = LearningRate::Fixed { rate };
            assert!(c.validate().is_err(), "learning rate {rate} is rejected");
        }

        for (l1, l2) in [(-0.1, 0.0), (0.0, -0.1), (f32::NAN, 0.0), (0.0, f32::INFINITY)] {
            let mut c = RunnerConfig::quick_default();
            c.regularization = Regularization { l1, l2 };
            assert!(c.validate().is_err(), "regularization {l1} / {l2} is rejected");
        }

        let mut c = RunnerConfig::quick_default();
        c.eval_samples = 0;
        assert!(c.validate().is_err());

        for attack in [
            AttackKind::Random { magnitude: f32::INFINITY },
            AttackKind::Random { magnitude: -1.0 },
            AttackKind::Reversed { scale: f32::NAN },
            AttackKind::ConstantDrift { value: f32::NEG_INFINITY },
            AttackKind::LittleIsEnough { z: f32::NAN },
            AttackKind::Alie { z: f32::INFINITY },
            AttackKind::SlowRotation { period: 16, z: f32::NAN },
            AttackKind::GroupCollusion { scale: f32::INFINITY, group_size: 4 },
        ] {
            let mut c = RunnerConfig::quick_default();
            c.byzantine_count = 2;
            c.attack = attack;
            assert!(c.validate().is_err(), "{attack:?} is rejected");
        }
        let mut c = RunnerConfig::quick_default();
        c.byzantine_count = 2;
        c.attack = AttackKind::Random { magnitude: 0.0 };
        assert!(c.validate().is_ok(), "a zero magnitude is a valid (silent) attack");

        let mut c = RunnerConfig::quick_default();
        c.link = LinkConfig::datacenter().with_drop_rate(2.0);
        assert!(c.validate().is_err());

        let mut c = RunnerConfig::quick_default();
        c.shards = 0;
        assert!(c.validate().is_err());

        let mut c = RunnerConfig::quick_default();
        c.worker_extra_delay_sec = vec![0.1; 3];
        assert!(c.validate().is_err(), "delay list must match the worker count");

        let mut c = RunnerConfig::quick_default();
        c.worker_extra_delay_sec = vec![0.0; c.workers];
        c.worker_extra_delay_sec[2] = -1.0;
        assert!(c.validate().is_err(), "negative delays are rejected");

        let mut c = RunnerConfig::quick_default();
        c.worker_extra_delay_sec = vec![0.01; c.workers];
        assert!(c.validate().is_ok());

        // A roster below the flat rule's floor: Multi-Krum f = 4 needs 11.
        let mut c = RunnerConfig::quick_default();
        c.gar = GarConfig::new(agg_core::GarKind::MultiKrum, 4);
        c.workers = 5;
        assert!(c.validate().is_err(), "roster below the resilience floor is rejected");
        c.workers = 11;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn fault_plan_validation_mirrors_the_delay_checks() {
        use crate::membership::{FaultAction, FaultPlan};

        // An event naming a worker the run does not have.
        let mut c = RunnerConfig::quick_default();
        c.fault_plan = FaultPlan::empty().with(2, c.workers, FaultAction::Crash);
        assert!(c.validate().is_err(), "unknown worker ids are rejected");

        // An event scheduled past the end of the run.
        let mut c = RunnerConfig::quick_default();
        c.fault_plan = FaultPlan::empty().with(c.max_steps, 0, FaultAction::Crash);
        assert!(c.validate().is_err(), "rounds past max_steps are rejected");

        // A slow-by demotion with a nonsense delay.
        let mut c = RunnerConfig::quick_default();
        c.fault_plan = FaultPlan::empty().with(1, 0, FaultAction::SlowBy { delay_sec: -2.0 });
        assert!(c.validate().is_err(), "negative slow-by delays are rejected");

        // A well-formed crash→rejoin schedule passes.
        let mut c = RunnerConfig::quick_default();
        c.fault_plan = FaultPlan::empty()
            .with(2, 1, FaultAction::Crash)
            .with(5, 1, FaultAction::Rejoin)
            .with(3, 0, FaultAction::SlowBy { delay_sec: 1.5 });
        assert!(c.validate().is_ok());
    }

    #[test]
    fn fault_plan_round_trips_through_json() {
        use crate::membership::{FaultAction, FaultPlan};
        let mut c = RunnerConfig::quick_default();
        c.fault_plan =
            FaultPlan::empty().with(2, 1, FaultAction::Crash).with(5, 1, FaultAction::Rejoin);
        let json = serde_json::to_string(&c).unwrap();
        let back: RunnerConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.fault_plan, c.fault_plan);
    }

    #[test]
    fn streaming_fields_round_trip_through_json() {
        let mut c = RunnerConfig::quick_default();
        c.streaming.enabled = true;
        c.streaming.quorum = crate::streaming::QuorumPolicy::NMinusF;
        c.worker_extra_delay_sec = vec![0.25; c.workers];
        let json = serde_json::to_string(&c).unwrap();
        let back: RunnerConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.streaming, c.streaming);
        assert_eq!(back.worker_extra_delay_sec, c.worker_extra_delay_sec);

        let mut c = RunnerConfig::quick_default();
        c.streaming.quorum = crate::streaming::QuorumPolicy::Count(7);
        let json = serde_json::to_string(&c).unwrap();
        let back: RunnerConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.streaming.quorum, crate::streaming::QuorumPolicy::Count(7));
    }

    #[test]
    fn chaos_and_retransmit_round_trip_through_json() {
        let mut c = RunnerConfig::quick_default();
        c.chaos = Some(ChaosConfig::moderate());
        c.retransmit = Some(RetransmitConfig::default());
        c.adaptive_churn = true;
        let json = serde_json::to_string(&c).unwrap();
        let back: RunnerConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.chaos, c.chaos);
        assert_eq!(back.retransmit, c.retransmit);
        assert!(back.adaptive_churn);

        // Invalid chaos/retransmit settings are caught by validate().
        let mut c = RunnerConfig::quick_default();
        c.chaos = Some(ChaosConfig { bit_flip_rate: 1.5, ..Default::default() });
        assert!(c.validate().is_err(), "out-of-range chaos rates are rejected");

        let mut c = RunnerConfig::quick_default();
        c.retransmit = Some(RetransmitConfig { backoff_factor: 0.0, ..Default::default() });
        assert!(c.validate().is_err(), "nonsense backoff factors are rejected");
    }

    #[test]
    fn reputation_config_round_trips_and_is_validated() {
        let mut c = RunnerConfig::quick_default();
        c.reputation = Some(ReputationConfig { reshuffle_every: 3, ..Default::default() });
        assert!(c.validate().is_ok());
        let json = serde_json::to_string(&c).unwrap();
        let back: RunnerConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.reputation, c.reputation);

        // Invalid ledger settings are caught by validate().
        let mut bad = RunnerConfig::quick_default();
        bad.reputation = Some(ReputationConfig { affinity_epsilon: -1.0, ..Default::default() });
        assert!(bad.validate().is_err(), "a negative affinity radius is rejected");
    }

    #[test]
    fn tree_tier_validation_and_round_trip() {
        use agg_core::{GarKind, TreeConfig};

        // A well-formed tree run: 64 workers, groups of 16, Multi-Krum at
        // both levels, with `gar` mirroring the root rule.
        let mut c = RunnerConfig::quick_default();
        c.workers = 64;
        let tree = TreeConfig::uniform(GarKind::MultiKrum, 2, 0, 16);
        c.tree = Some(tree);
        c.gar = tree.root;
        assert!(c.validate().is_ok());

        let json = serde_json::to_string(&c).unwrap();
        let back: RunnerConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.tree, Some(tree));

        // `gar` must mirror the root rule.
        let mut bad = c.clone();
        bad.gar = tree.group;
        bad.gar.f = 7;
        assert!(bad.validate().is_err(), "gar != tree.root is rejected");

        // Mutually exclusive with coordinate sharding.
        let mut bad = c.clone();
        bad.shards = 4;
        assert!(bad.validate().is_err(), "tree + shards > 1 is rejected");

        // Group size beyond the sortnet sweet spot is rejected.
        let mut bad = c.clone();
        let wide = TreeConfig::uniform(GarKind::MultiKrum, 2, 0, 64);
        bad.tree = Some(wide);
        bad.gar = wide.root;
        assert!(bad.validate().is_err(), "group_size > 32 is rejected");

        // A roster that cannot clear the composed floor is a config error:
        // Multi-Krum root with f = 2 needs 7 contributing groups, but 64
        // workers in groups of 16 only form 4.
        let mut bad = c.clone();
        let starved = TreeConfig::uniform(GarKind::MultiKrum, 2, 2, 16);
        bad.tree = Some(starved);
        bad.gar = starved.root;
        assert!(bad.validate().is_err(), "roster below the composed floor is rejected");
    }

    #[test]
    fn experiments_build_model_and_data() {
        let (model, train, test) = ExperimentKind::default_proxy().build(3).unwrap();
        assert!(model.param_count() > 0);
        assert!(train.len() > test.len());
        assert_eq!(train.classes(), 10);
        assert_eq!(model.input_shape(), &[32]);
        assert_eq!(train.sample_shape(), &[32]);
    }

    #[test]
    fn experiment_build_is_deterministic() {
        let a = ExperimentKind::default_proxy().build(7).unwrap();
        let b = ExperimentKind::default_proxy().build(7).unwrap();
        assert_eq!(a.0.parameters(), b.0.parameters());
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn config_serialises_to_json() {
        let c = RunnerConfig::quick_default();
        let json = serde_json::to_string(&c).unwrap();
        let back: RunnerConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.workers, c.workers);
        assert_eq!(back.gar, c.gar);
    }
}
