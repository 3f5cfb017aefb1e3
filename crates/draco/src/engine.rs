//! Draco training and throughput simulation.

use crate::scheme::{majority_decode_ref, AssignmentScheme, GroupAssignment};
use crate::{DracoError, Result};
use agg_attacks::{Attack, AttackContext, AttackKind};
use agg_data::{Dataset, MiniBatchSampler};
use agg_metrics::{LatencyBreakdown, ThroughputMeter, TracePoint, TrainingTrace};
use agg_net::LinkConfig;
use agg_nn::optim::{Optimizer, OptimizerKind};
use agg_nn::schedule::LearningRate;
use agg_nn::Sequential;
use agg_ps::{CostModel, ExperimentKind, TrainingReport};
use agg_tensor::{GradientBatch, Vector};
use serde::{Deserialize, Serialize};

/// Configuration of a Draco training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DracoConfig {
    /// Model + dataset (shared with the `agg-ps` experiments so comparisons
    /// are apples-to-apples).
    pub experiment: ExperimentKind,
    /// Total number of workers.
    pub workers: usize,
    /// Byzantine workers tolerated by the code (redundancy `r = 2f + 1`).
    pub f: usize,
    /// Byzantine workers actually present (assigned to the highest ids).
    pub byzantine_count: usize,
    /// Behaviour of the Byzantine workers (the paper's Draco comparison uses
    /// the reversed-gradient adversary).
    pub attack: AttackKind,
    /// Redundancy assignment scheme.
    pub scheme: AssignmentScheme,
    /// Optimizer applied after decoding (the paper uses momentum 0.9 for
    /// Draco).
    pub optimizer: OptimizerKind,
    /// Learning-rate schedule.
    pub learning_rate: LearningRate,
    /// Mini-batch size per group.
    pub batch_size: usize,
    /// Number of model updates.
    pub max_steps: u64,
    /// Evaluate every this many steps.
    pub eval_every: u64,
    /// Test samples per evaluation.
    pub eval_samples: usize,
    /// Simulation cost model (virtual model included).
    pub cost: CostModel,
    /// Link characteristics.
    pub link: LinkConfig,
    /// Extra per-gradient encoding overhead, as a multiple of the gradient
    /// computation time (the Draco authors report encode/decode "can be
    /// several times larger than the computation time of ordinary SGD").
    pub encode_overhead_factor: f64,
    /// Decoding cost at the server, in seconds per worker per million
    /// (effective) parameters — linear in `n · d` as in the original system.
    pub decode_sec_per_worker_million_params: f64,
    /// Experiment seed.
    pub seed: u64,
}

impl DracoConfig {
    /// A configuration matching the paper's comparison defaults: repetition
    /// scheme, reversed-gradient adversary, momentum 0.9.
    pub fn paper_like(experiment: ExperimentKind, workers: usize, f: usize) -> Self {
        DracoConfig {
            experiment,
            workers,
            f,
            byzantine_count: 0,
            attack: AttackKind::Reversed { scale: 100.0 },
            scheme: AssignmentScheme::Repetition,
            optimizer: OptimizerKind::Momentum(0.9),
            learning_rate: LearningRate::paper_default(),
            batch_size: 25,
            max_steps: 100,
            eval_every: 10,
            eval_samples: 256,
            cost: CostModel::paper_like(),
            link: LinkConfig::datacenter(),
            encode_overhead_factor: 2.0,
            decode_sec_per_worker_million_params: 0.03,
            seed: 1,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DracoError::InvalidConfig`] for inconsistent settings.
    pub fn validate(&self) -> Result<()> {
        if self.workers < 2 * self.f + 1 {
            return Err(DracoError::InvalidConfig(format!(
                "Draco needs at least 2f + 1 = {} workers, got {}",
                2 * self.f + 1,
                self.workers
            )));
        }
        if self.byzantine_count > self.workers {
            return Err(DracoError::InvalidConfig("byzantine_count exceeds worker count".into()));
        }
        if self.batch_size == 0 || self.max_steps == 0 || self.eval_every == 0 {
            return Err(DracoError::InvalidConfig(
                "batch_size, max_steps and eval_every must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// End-to-end Draco training on the synthetic experiments.
#[derive(Debug)]
pub struct DracoTrainer {
    config: DracoConfig,
    assignment: GroupAssignment,
    model: Sequential,
    optimizer: Box<dyn Optimizer>,
    attack: Box<dyn Attack>,
    train: Dataset,
    test: Dataset,
    samplers: Vec<MiniBatchSampler>,
    clock_sec: f64,
    step: u64,
}

impl DracoTrainer {
    /// Builds the trainer.
    ///
    /// # Errors
    ///
    /// Returns [`DracoError`] when the configuration or data generation
    /// fails.
    pub fn new(config: DracoConfig) -> Result<Self> {
        config.validate()?;
        let assignment = GroupAssignment::new(config.scheme, config.workers, config.f)?;
        let (model, train, test) = config.experiment.build(config.seed)?;
        let samplers = (0..assignment.group_count())
            .map(|g| MiniBatchSampler::new(config.batch_size, config.seed, 1000 + g as u64))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        let optimizer = config.optimizer.build();
        let attack = config.attack.build();
        Ok(DracoTrainer {
            config,
            assignment,
            model,
            optimizer,
            attack,
            train,
            test,
            samplers,
            clock_sec: 0.0,
            step: 0,
        })
    }

    /// The group assignment in use.
    pub fn assignment(&self) -> &GroupAssignment {
        &self.assignment
    }

    fn is_byzantine(&self, worker: usize) -> bool {
        worker >= self.config.workers - self.config.byzantine_count
    }

    /// Runs the configured number of steps.
    ///
    /// # Errors
    ///
    /// Returns [`DracoError`] on model/data failures; undecodable groups are
    /// skipped and counted, not raised.
    pub fn run(&mut self) -> Result<TrainingReport> {
        let label = format!(
            "draco f={} b={} n={}",
            self.config.f, self.config.batch_size, self.config.workers
        );
        let mut trace = TrainingTrace::new(label.clone());
        let mut throughput = ThroughputMeter::new();
        let mut latency = LatencyBreakdown::new();
        let mut skipped = 0u64;

        self.evaluate(&mut trace)?;

        let cost = self.config.cost;
        let actual_dim = self.model.param_count();
        let effective_dim = cost.effective_dimension(actual_dim);
        let node_flops = 5.0e10;
        let decode_time = self.config.decode_sec_per_worker_million_params
            * self.config.workers as f64
            * effective_dim as f64
            / 1e6;

        // One decoded-gradient arena reused across rounds (cleared and
        // refilled in place, same as the `agg-ps` submissions arena).
        let mut decoded_arena =
            GradientBatch::with_capacity(self.model.param_count(), self.assignment.group_count());

        for step in 0..self.config.max_steps {
            let mut params = self.model.parameters();

            // Every group's honest members compute the gradient of the same
            // mini-batch; collect them first so the adversary can be
            // omniscient, then decode group by group.
            let mut group_honest: Vec<Vector> = Vec::with_capacity(self.assignment.group_count());
            for g in 0..self.assignment.group_count() {
                let (batch, labels) = self.samplers[g].next_batch(&self.train)?;
                let eval = self.model.gradient_at(params.as_slice(), &batch, &labels)?;
                group_honest.push(eval.gradient);
            }
            let honest_views: Vec<&[f32]> = group_honest.iter().map(Vector::as_slice).collect();

            decoded_arena.clear();
            for (g, honest) in group_honest.iter().enumerate() {
                let members = self.assignment.group(g)?.to_vec();
                let byz_members = members.iter().filter(|&&w| self.is_byzantine(w)).count();
                let submissions: Vec<Vector> = if byz_members == 0 {
                    vec![honest.clone(); members.len()]
                } else {
                    let ctx = AttackContext {
                        honest_gradients: &honest_views,
                        model: &params,
                        byzantine_count: byz_members,
                        declared_f: self.config.f,
                        step,
                        seed: self.config.seed,
                        total_workers: self.config.workers,
                        previous_selection: None,
                    };
                    let mut crafted = self.attack.craft(&ctx).into_iter();
                    members
                        .iter()
                        .map(|&w| {
                            if self.is_byzantine(w) {
                                crafted.next().unwrap_or_else(|| honest.clone())
                            } else {
                                honest.clone()
                            }
                        })
                        .collect()
                };
                match majority_decode_ref(g, &submissions, self.config.f) {
                    // The winning submission is copied once, straight into
                    // the reused arena (no clone-then-repack round trip).
                    Ok(decoded) => decoded_arena
                        .push_row(decoded.as_slice())
                        .map_err(|e| DracoError::Training(e.to_string()))?,
                    Err(_) => skipped += 1,
                }
            }

            // Time accounting: every worker computes `gradients_per_worker`
            // gradients plus the encoding overhead; the server decodes in
            // time linear in n·d; communication is one gradient each way.
            let single_gradient = cost.gradient_time(1, self.config.batch_size, node_flops);
            let compute = single_gradient
                * self.assignment.gradients_per_worker() as f64
                * (1.0 + self.config.encode_overhead_factor);
            let comm = 2.0 * self.config.link.transfer_time(cost.payload_bytes(actual_dim));
            let round_wait = compute + comm;
            self.clock_sec += round_wait + decode_time;
            latency.record_round(round_wait, decode_time);
            throughput.record_round(decoded_arena.n() as u64, round_wait + decode_time);

            if !decoded_arena.is_empty() {
                // Decoded group gradients are averaged straight off the
                // reused arena, same as the `agg-ps` server path.
                let aggregated = decoded_arena
                    .coordinate_mean()
                    .map_err(|e| DracoError::Training(e.to_string()))?;
                let lr = self.config.learning_rate.at(self.step);
                self.optimizer.step(&mut params, &aggregated, lr)?;
                self.model.set_parameters(&params)?;
                self.step += 1;
            }

            if (step + 1) % self.config.eval_every == 0 || step + 1 == self.config.max_steps {
                self.evaluate(&mut trace)?;
            }
        }

        Ok(TrainingReport {
            label,
            trace,
            throughput,
            latency,
            steps_completed: self.step,
            skipped_updates: skipped,
            simulated_time_sec: self.clock_sec,
            // Draco's fixed roster has no elastic membership.
            ..Default::default()
        })
    }

    fn evaluate(&mut self, trace: &mut TrainingTrace) -> Result<()> {
        let (batch, labels) = self.test.head_batch(self.config.eval_samples)?;
        let out = self.model.evaluate_loss(&batch, &labels)?;
        trace.record(TracePoint {
            step: self.step,
            time_sec: self.clock_sec,
            accuracy: out.correct_predictions as f64 / labels.len().max(1) as f64,
            loss: out.loss as f64,
        });
        Ok(())
    }
}

/// Cost-only Draco throughput simulation (the Draco rows of Figure 5).
#[derive(Debug, Clone)]
pub struct DracoThroughputSimulation {
    /// Number of workers.
    pub workers: usize,
    /// Tolerated Byzantine workers (`r = 2f + 1`).
    pub f: usize,
    /// Assignment scheme.
    pub scheme: AssignmentScheme,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Cost model (with the virtual model of interest).
    pub cost: CostModel,
    /// Link characteristics.
    pub link: LinkConfig,
    /// Effective gradient dimension (e.g. the paper CNN's 1.75 M).
    pub dimension: usize,
    /// Encoding overhead factor (see [`DracoConfig`]).
    pub encode_overhead_factor: f64,
    /// Decoding cost per worker per million parameters.
    pub decode_sec_per_worker_million_params: f64,
}

impl DracoThroughputSimulation {
    /// Runs the analytic simulation, returning **effective** (decoded)
    /// batches per second — the quantity comparable to the GAR systems'
    /// throughput after accounting for Draco's redundant computation.
    ///
    /// # Errors
    ///
    /// Returns [`DracoError::InvalidConfig`] when `workers < 2f + 1`.
    pub fn run(&self) -> Result<f64> {
        let assignment = GroupAssignment::new(self.scheme, self.workers, self.f)?;
        let node_flops = 5.0e10;
        let single = self.cost.gradient_time(1, self.batch_size, node_flops);
        let compute =
            single * assignment.gradients_per_worker() as f64 * (1.0 + self.encode_overhead_factor);
        let comm = 2.0 * self.link.transfer_time(self.dimension * 4);
        let decode = self.decode_sec_per_worker_million_params
            * self.workers as f64
            * self.cost.effective_dimension(self.dimension) as f64
            / 1e6;
        let round_time = compute + comm + decode;
        Ok(assignment.group_count() as f64 / round_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agg_ps::VirtualModelCost;

    fn quick_experiment() -> ExperimentKind {
        ExperimentKind::MlpBlobs { input_dim: 16, hidden: 24, classes: 4, samples: 600 }
    }

    fn quick_config(workers: usize, f: usize) -> DracoConfig {
        DracoConfig {
            batch_size: 16,
            max_steps: 40,
            eval_every: 10,
            eval_samples: 120,
            learning_rate: LearningRate::Fixed { rate: 0.01 },
            optimizer: OptimizerKind::RmsProp,
            ..DracoConfig::paper_like(quick_experiment(), workers, f)
        }
    }

    #[test]
    fn draco_trains_without_byzantine_workers() {
        let mut trainer = DracoTrainer::new(quick_config(6, 1)).unwrap();
        let report = trainer.run().unwrap();
        assert_eq!(report.steps_completed, 40);
        assert_eq!(report.skipped_updates, 0);
        assert!(report.final_accuracy() > 0.6, "accuracy {}", report.final_accuracy());
    }

    #[test]
    fn draco_recovers_exactly_under_tolerated_attack() {
        let mut config = quick_config(9, 1);
        config.byzantine_count = 1; // worker 8: one traitor in its group of three
        let mut trainer = DracoTrainer::new(config).unwrap();
        let report = trainer.run().unwrap();
        // Majority decoding removes the attack entirely, so accuracy matches
        // the clean run closely.
        assert!(report.final_accuracy() > 0.6, "accuracy {}", report.final_accuracy());
        assert_eq!(report.skipped_updates, 0);
    }

    #[test]
    fn colluding_traitors_beyond_the_code_break_the_group() {
        // Two identical colluding traitors in one group of three defeat the
        // f = 1 repetition code (they form the majority), which is exactly
        // the boundary the scheme documents. Training quality collapses.
        let mut config = quick_config(9, 1);
        config.byzantine_count = 2; // workers 7 and 8 share the last group
        let mut trainer = DracoTrainer::new(config).unwrap();
        let report = trainer.run().unwrap();
        assert!(
            report.final_accuracy() < 0.6,
            "the decoded attack gradient should prevent clean convergence, got {}",
            report.final_accuracy()
        );
    }

    #[test]
    fn draco_round_time_is_dominated_by_redundancy_and_decoding() {
        let mut config = quick_config(6, 1);
        config.cost = CostModel::paper_like().with_virtual_model(VirtualModelCost::paper_cnn());
        let mut trainer = DracoTrainer::new(config).unwrap();
        let report = trainer.run().unwrap();
        // Aggregation (decode) share must be substantial, unlike the GAR
        // systems where it is a fraction of compute.
        assert!(report.latency.aggregation_share() > 0.05);
        assert!(report.simulated_time_sec > 0.0);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(DracoTrainer::new(quick_config(2, 1)).is_err());
        let mut c = quick_config(6, 1);
        c.byzantine_count = 10;
        assert!(DracoTrainer::new(c).is_err());
        let mut c = quick_config(6, 1);
        c.batch_size = 0;
        assert!(DracoTrainer::new(c).is_err());
    }

    #[test]
    fn assignment_accessor_matches_configuration() {
        let trainer = DracoTrainer::new(quick_config(9, 1)).unwrap();
        assert_eq!(trainer.assignment().redundancy(), 3);
        assert_eq!(trainer.assignment().group_count(), 3);
    }

    #[test]
    fn throughput_is_an_order_of_magnitude_below_the_gar_systems() {
        let draco = DracoThroughputSimulation {
            workers: 18,
            f: 4,
            scheme: AssignmentScheme::Repetition,
            batch_size: 100,
            cost: CostModel::paper_like().with_virtual_model(VirtualModelCost::paper_cnn()),
            link: LinkConfig::datacenter(),
            dimension: 1_756_426,
            encode_overhead_factor: 2.0,
            decode_sec_per_worker_million_params: 0.03,
        }
        .run()
        .unwrap();
        // The paper reports ~48 batches/s for TensorFlow with 18 workers and
        // Draco "at least one order of magnitude slower".
        assert!(draco < 10.0, "Draco throughput {draco} should be far below the TF systems");
        assert!(draco > 0.1);
    }

    #[test]
    fn throughput_is_insensitive_to_f_compared_to_compute() {
        let base = |f| DracoThroughputSimulation {
            workers: 18,
            f,
            scheme: AssignmentScheme::Repetition,
            batch_size: 100,
            cost: CostModel::paper_like().with_virtual_model(VirtualModelCost::paper_cnn()),
            link: LinkConfig::datacenter(),
            dimension: 1_756_426,
            encode_overhead_factor: 2.0,
            decode_sec_per_worker_million_params: 0.03,
        };
        let t1 = base(1).run().unwrap();
        let t4 = base(4).run().unwrap();
        // Both configurations sit in the same low band (the paper observes
        // "changing the number of Byzantine workers does not have a
        // remarkable effect").
        assert!(t1 < 10.0 && t4 < 10.0);
        // f = 10 needs redundancy 2f + 1 = 21 > 18 workers: invalid.
        assert!(base(10).run().is_err());
    }
}
