//! The synchronous training engine (Equation 4 of the paper) and the
//! throughput simulator behind the scalability experiments.

use crate::cluster::{ClusterSpec, PlacementPolicy};
use crate::config::{RunnerConfig, TransportKind};
use crate::cost::CostModel;
use crate::membership::{FaultAction, MembershipView, RefusalPolicy, WorkerHealth};
use crate::report::{TrainingReport, WorkerReport};
use crate::reputation::{self, ReputationLedger, RoundEvidence};
use crate::server::ParameterServer;
use crate::streaming::RoundPipeline;
use crate::worker::{Worker, WorkerRole};
use crate::{PsError, Result};
use agg_attacks::{Attack, AttackContext, AttackKind, ChurnDirective};
use agg_core::{resilience, GarConfig, TreeConfig, TreeRound};
use agg_data::corruption::corrupt;
use agg_data::{Dataset, MiniBatchSampler};
use agg_metrics::{LatencyBreakdown, ThroughputMeter, TracePoint, TrainingTrace};
use agg_net::{ChaosPlan, GradientCodec, LinkConfig, LossyTransport, ReliableTransport, Transport};
use agg_nn::Sequential;
use agg_tensor::rng::derive_seed;
use agg_tensor::{GroupPlan, Vector};
use rayon::prelude::*;
use std::sync::Arc;

/// The synchronous parameter-server training loop.
///
/// One round:
/// 1. the server broadcasts the model to every worker;
/// 2. every honest (and data-poisoned) worker computes a mini-batch gradient;
/// 3. the adversary crafts the Byzantine submissions, knowing every honest
///    gradient (omniscient attacker, §3.1);
/// 4. gradients travel over each worker's transport (possibly lossy);
/// 5. the server aggregates with the configured GAR and applies the
///    optimizer step.
///
/// Simulated time advances by the broadcast time plus the slowest worker's
/// compute+transfer time (synchronous training: the server waits for all)
/// plus the aggregation the round counted — [`CostModel::aggregation_time`]
/// of the rule over the rows it reduced — and the optimizer step.
///
/// Phase 1 fans the honest workers out over rayon: every worker owns its
/// model, sampler and transport (each with its own derived RNG stream) and
/// delivers its gradient into its own pre-assigned row of one reused
/// submissions arena, so the round is bit-for-bit identical at any thread
/// budget (the determinism suites pin budgets 1, 2 and 4). The threads claim
/// runs of workers from a shared cursor (the rayon shim's guided claiming),
/// so the attacker and crashed slots, which return at once, leave no core
/// waiting at the barrier.
///
/// Phase 3 runs at most one O(n²·d) distance pass per flat or sharded
/// round — the streamed matrix, or one batch pass — which the rule and the
/// selection feedback both read.
#[derive(Debug)]
pub struct SyncTrainingEngine {
    config: RunnerConfig,
    cluster: ClusterSpec,
    server: ParameterServer,
    workers: Vec<Worker>,
    attack: Box<dyn Attack>,
    eval_model: Sequential,
    test_set: Dataset,
    actual_dimension: usize,
    model_flops: u64,
    clock_sec: f64,
    /// The round pipeline: two submission arenas flipped every round (worker
    /// `i` owns row `i`; undelivered rows are compacted away before
    /// aggregation) plus, when streaming is enabled for a distance-based
    /// rule, the incremental pairwise-distance accumulator fed per arriving
    /// row. No per-round `n × d` allocation either way.
    pipeline: RoundPipeline,
    /// The server's membership view: epoch number plus per-worker health,
    /// advanced at the start of every round from the configured fault plan.
    /// With an empty plan it stays at epoch 0 / all-live — static
    /// membership, the seed behaviour bit for bit.
    membership: MembershipView,
    /// The worker-to-group partition of the hierarchical tier; `None` on the
    /// flat path. Groups are contiguous worker-id ranges of
    /// `tree.group_size`, the last one ragged when `n` is not divisible.
    tree_plan: Option<GroupPlan>,
    /// One transport per group for the group-aggregator → root leg of the
    /// hierarchical round. Groups whose worker range overlaps the degraded
    /// links inherit the lossy/chaos/retransmit wire (each with its own
    /// chaos stream past the worker streams); the rest stay reliable.
    tree_links: Vec<Box<dyn Transport>>,
    /// Per-group membership epochs of the hierarchical tier: a crash or
    /// rejoin bumps only the epoch of the group it happened in, so the
    /// epoch fence stays local — workers in untouched groups are never
    /// re-stamped. Empty on the flat path, which fences at the global
    /// view epoch as before.
    group_epochs: Vec<u32>,
    /// The cross-round suspicion ledger driving automatic quarantine,
    /// probationary readmission and the tree tier's containment reshuffles.
    /// `None` keeps the memoryless seed behaviour bit for bit.
    reputation: Option<ReputationLedger>,
    /// The seeded coordinate sample the collusion-affinity sketches read
    /// (every coordinate for small models, a capped sample for large ones).
    /// Empty without a ledger.
    affinity_sample: Vec<usize>,
}

/// What one worker contributed to a round (collected in worker-id order, so
/// the parallel fan-out reduces deterministically).
#[derive(Debug)]
struct WorkerRound {
    /// The pre-wire gradient of an honest worker (the omniscient adversary
    /// sees these); `None` for attackers and data-poisoned workers.
    honest_gradient: Option<Vector>,
    /// Whether the transport delivered the submission into the worker's
    /// arena row.
    delivered: bool,
    /// Simulated compute + transfer seconds.
    worker_time: f64,
    /// Packets of this submission rejected by the epoch fence (a stale-epoch
    /// rejoiner or an evicted worker's stragglers).
    stale_rejects: usize,
    /// Packets of this submission rejected by the wire-integrity check (chaos
    /// damage caught by the CRC32 envelope).
    corrupt_rejects: usize,
    /// Whether this submission's retransmit recovery ran out of budget or
    /// deadline with the row still incomplete — a distinct evidence stream
    /// from a plain transport loss.
    retransmit_exhausted: bool,
}

impl SyncTrainingEngine {
    /// Builds the engine from a runner configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PsError::InvalidConfig`] when the configuration is
    /// inconsistent, and propagates model/data construction failures.
    pub fn new(config: RunnerConfig) -> Result<Self> {
        config.validate()?;
        let (model, train, test) = config.experiment.build(config.seed)?;
        let actual_dimension = model.param_count();
        let model_flops = model.flops_per_sample();

        // The hierarchical tier partitions the roster into contiguous groups
        // of `tree.group_size` (validated against the sortnet sweet spot).
        let tree_plan = match &config.tree {
            Some(tree) => {
                Some(GroupPlan::new(config.workers, tree.group_size).map_err(PsError::from)?)
            }
            None => None,
        };

        // One node per worker plus one per parameter-server shard, matching
        // the paper's one-job-per-node deployment. In tree mode the
        // aggregator tier is one job per group plus a root instead.
        let cluster = match &tree_plan {
            Some(plan) => ClusterSpec::homogeneous_tree(
                config.workers + plan.group_count() + 1,
                config.workers,
                plan.group_count(),
                PlacementPolicy::OneJobPerNode,
            )?,
            None => ClusterSpec::homogeneous_sharded(
                config.workers + config.shards,
                config.workers,
                config.shards,
                PlacementPolicy::OneJobPerNode,
            )?,
        };

        let mut server = ParameterServer::new(
            model.parameters(),
            config.gar,
            config.optimizer,
            config.learning_rate,
            config.regularization,
        )?;
        server.set_shards(config.shards)?;
        server.set_tree(config.tree)?;

        let clean = Arc::new(train);
        let poisoned: Option<Arc<Dataset>> = match &config.data_poisoning {
            Some(c) => Some(Arc::new(
                corrupt(&clean, *c, derive_seed(config.seed, 777)).map_err(PsError::from)?,
            )),
            None => None,
        };

        let honest_count = config.workers - config.byzantine_count;
        let mut workers = Vec::with_capacity(config.workers);
        for id in 0..config.workers {
            let role = if id < honest_count {
                WorkerRole::Honest
            } else if poisoned.is_some() {
                WorkerRole::DataPoisoned
            } else {
                WorkerRole::Attacker
            };
            let dataset = match role {
                WorkerRole::DataPoisoned => Arc::clone(poisoned.as_ref().expect("checked above")),
                _ => Arc::clone(&clean),
            };
            let sampler = MiniBatchSampler::new(config.batch_size, config.seed, id as u64)
                .map_err(PsError::from)?;
            let transport = Self::build_transport(&config, id)?;
            let node = cluster.worker_node(id)?;
            let worker_model = config.experiment.build_model(derive_seed(config.seed, id as u64));
            workers.push(Worker::new(
                id,
                role,
                worker_model,
                dataset,
                sampler,
                transport,
                node.flops_per_sec,
            ));
        }

        // The group-aggregator → root legs of the hierarchical round. A
        // group's leg is degraded exactly when the group contains a degraded
        // worker link (the trailing `lossy_links` ids), so the chaos-afflicted
        // region of the cluster stays contiguous across both levels; each leg
        // draws its chaos from its own stream past the worker streams.
        let tree_links: Vec<Box<dyn Transport>> = match &tree_plan {
            Some(plan) => (0..plan.group_count())
                .map(|gid| {
                    let degraded =
                        plan.range(gid).end > config.workers.saturating_sub(config.lossy_links);
                    Self::build_link(&config, (config.workers + gid) as u64, degraded)
                })
                .collect::<Result<_>>()?,
            None => Vec::new(),
        };
        let group_epochs =
            tree_plan.as_ref().map_or_else(Vec::new, |plan| vec![0; plan.group_count()]);

        let attack = config.attack.build();
        let mut pipeline = RoundPipeline::new(actual_dimension, config.workers);
        // Distance streaming accumulates the *flat* pairwise matrix, which
        // the per-group rules of the tree tier never read — the flag is a
        // no-op there rather than an error, so the determinism matrix can
        // still cross it with tree runs.
        if config.streaming.enabled && config.gar.kind.uses_distances() && config.tree.is_none() {
            pipeline.enable_distance_streaming(config.workers, actual_dimension, config.shards)?;
        }
        let membership = MembershipView::new(config.workers);
        let ledger = config.reputation.map(|cfg| ReputationLedger::new(cfg, config.workers));
        let affinity_sample = match &config.reputation {
            Some(cfg) => reputation::affinity_sample_indices(
                config.seed,
                actual_dimension,
                cfg.affinity_max_coords,
            ),
            None => Vec::new(),
        };
        Ok(SyncTrainingEngine {
            config,
            cluster,
            server,
            workers,
            attack,
            eval_model: model,
            test_set: test,
            actual_dimension,
            model_flops,
            clock_sec: 0.0,
            pipeline,
            membership,
            tree_plan,
            tree_links,
            group_epochs,
            reputation: ledger,
            affinity_sample,
        })
    }

    /// The current membership view (epoch and per-worker health).
    pub fn membership(&self) -> &MembershipView {
        &self.membership
    }

    /// The reputation ledger driving quarantine decisions, when configured.
    pub fn reputation(&self) -> Option<&ReputationLedger> {
        self.reputation.as_ref()
    }

    fn build_transport(config: &RunnerConfig, worker_id: usize) -> Result<Box<dyn Transport>> {
        // The last `lossy_links` worker↔server links are the ones subject to
        // the configured packet-loss rate (the paper injects its artificial
        // drops with `tc` on the links it studies); the remaining links see a
        // clean network. Whether the degraded links run the lossy UDP-like
        // transport or a reliable TCP-like one is decided by
        // `config.transport`, which is exactly the comparison of Figure 8(b).
        let degraded = worker_id >= config.workers.saturating_sub(config.lossy_links);
        Self::build_link(config, worker_id as u64, degraded)
    }

    /// Builds one link of the configured wire: a worker↔server link (stream
    /// `0..workers`) or a group-aggregator → root leg of the tree tier
    /// (stream `workers + gid`). Each stream draws its own chaos from the
    /// shared seeded plan.
    fn build_link(
        config: &RunnerConfig,
        stream: u64,
        degraded: bool,
    ) -> Result<Box<dyn Transport>> {
        let link =
            if degraded { config.link } else { LinkConfig { drop_rate: 0.0, ..config.link } };
        let codec = GradientCodec::default_mtu();
        match config.transport {
            TransportKind::Lossy { policy } if degraded => {
                let mut transport = LossyTransport::new(link, codec, policy, config.seed, stream)
                    .map_err(PsError::from)?;
                // The chaos schedule and the retransmit recovery live on the
                // degraded links only — the same links the paper injects its
                // artificial faults on. Each worker draws its chaos from its
                // own stream of the shared seeded plan.
                if let Some(chaos) = config.chaos {
                    transport.set_chaos(Some(
                        ChaosPlan::new(chaos, config.seed).map_err(PsError::from)?,
                    ));
                }
                if config.retransmit.is_some() {
                    transport.set_retransmit(config.retransmit);
                }
                Ok(Box::new(transport))
            }
            _ => Ok(Box::new(ReliableTransport::new(link, codec).map_err(PsError::from)?)),
        }
    }

    /// The cluster this engine simulates.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// The gradient dimension of the (proxy) model actually trained.
    pub fn model_dimension(&self) -> usize {
        self.actual_dimension
    }

    /// Forward FLOPs per sample of the (proxy) model actually trained.
    pub fn model_flops(&self) -> u64 {
        self.model_flops
    }

    /// Per-worker role assignment (for reports and tests).
    pub fn worker_roles(&self) -> Vec<WorkerRole> {
        self.workers.iter().map(Worker::role).collect()
    }

    /// Runs the configured number of steps and returns the report.
    ///
    /// # Errors
    ///
    /// Returns [`PsError`] for unrecoverable failures (model errors,
    /// structural transport failures). GAR rejections and dropped gradients
    /// are recorded in the report, not raised.
    pub fn run(&mut self) -> Result<TrainingReport> {
        let label = format!(
            "{} f={} b={} n={}{}{}",
            self.server.gar_name(),
            self.config.gar.f,
            self.config.batch_size,
            self.config.workers,
            match self.config.tree {
                Some(tree) => format!(" tree(g={})", tree.group_size),
                None => String::new(),
            },
            match self.config.transport {
                TransportKind::Reliable => String::new(),
                TransportKind::Lossy { .. } => format!(" lossy({} links)", self.config.lossy_links),
            }
        );
        let mut trace = TrainingTrace::new(label.clone());
        let mut throughput = ThroughputMeter::new();
        let mut latency = LatencyBreakdown::new();
        let mut skipped = 0u64;
        let mut refused = 0u64;
        let mut byzantine_selected_rounds = 0u64;
        // Per-worker wire/ledger counters; the report's global wire counters
        // are their sums.
        let mut worker_stats: Vec<WorkerReport> = (0..self.workers.len())
            .map(|worker| WorkerReport { worker, ..Default::default() })
            .collect();
        // The previous round's selection, as *worker slots* — the adaptive
        // adversary's feedback channel and the Byzantine-selection counter.
        let mut previous_selection: Option<Vec<usize>> = None;
        // Which workers the previous aggregated round's selection left out —
        // the ledger's selection-exclusion evidence stream (one round of
        // history, consumed by the next fold).
        let mut prev_excluded = vec![false; self.workers.len()];

        self.evaluate(&mut trace, 0)?;

        let cost = self.config.cost;
        let dim_scale = cost.effective_dimension(self.actual_dimension) as f64
            / self.actual_dimension.max(1) as f64;
        // The coordinates one aggregator node reduces: every shard of the
        // sharded tier runs on its own node, so a round pays one shard's
        // columns (all of them when S = 1).
        let node_dim = cost.effective_dimension(self.actual_dimension).div_ceil(self.config.shards);

        // Elastic membership engages only when a fault plan is configured;
        // with an empty plan the loop below is the static-membership seed
        // path, bit for bit (epoch stays 0, nothing is fenced or refused).
        let fault_plan = self.config.fault_plan.clone();
        // Attacker-controlled churn timing: the adversary chooses crash and
        // rejoin rounds for its own workers from selection feedback instead
        // of following a pre-declared schedule. Engages the same epoch-fenced
        // elastic machinery as a fault plan.
        let adaptive_churn = self.config.adaptive_churn && self.config.byzantine_count > 0;
        // A reputation ledger needs the epoch-fenced elastic machinery even
        // without a fault plan: its quarantines and readmissions are
        // engine-synthesized membership transitions.
        let elastic = !fault_plan.is_empty() || adaptive_churn || self.reputation.is_some();
        // What the run actually tolerates: the flat rule's declared `f`, or
        // the composed bound `(f_group + 1)(f_root + 1) − 1` of the tree
        // tier. Quorum accounting and the adversary's declared-f knowledge
        // both see this figure.
        let declared_f = self.config.tree.map_or(self.config.gar.f, |tree| tree.composed_max_f());
        // Selection feedback is read from the round that ran: the flat and
        // sharded tiers select on the round's own distance matrix (the
        // streamed one, or the single pass Phase 3 builds for the rule), the
        // tree tier on the `TreeRound` it applied (one root selection over
        // the group outputs plus the rows each group's rule kept). No tier
        // pays a second distance pass or group stage. Run it only when
        // someone reads it: the Byzantine-selection counter or the adaptive
        // adversary.
        let wants_selection = self.config.gar.kind.uses_distances()
            && (elastic
                || self.config.byzantine_count > 0
                || matches!(self.config.attack, AttackKind::Adaptive));

        for step in 0..self.config.max_steps {
            let model_bytes = cost.payload_bytes(self.actual_dimension);
            let broadcast_time = self.config.link.transfer_time(model_bytes);

            // Workers the ledger readmits *this* round: their fenced
            // first-round packets are by design, not stale-epoch evidence.
            let mut readmitted_now = vec![false; self.workers.len()];
            if elastic {
                // The ledger's synthesized transitions and the adversary's
                // churn directives join this round's scheduled events: all
                // run through the same MembershipView transition rules, so
                // none can do more than a fault plan could have scheduled
                // (redundant directives are no-ops, rejoiners are fenced for
                // one round).
                let needs_merge = adaptive_churn || self.reputation.is_some();
                let merged_plan = if needs_merge {
                    let mut plan = fault_plan.clone();
                    if let Some(ledger) = &mut self.reputation {
                        // Readmissions first: a lapsed quarantine rejoins on
                        // probation this round (epoch-fenced like any other
                        // rejoiner), so its stale first-round packets are by
                        // design, not fresh evidence against it.
                        for worker in ledger.due_for_readmission(step) {
                            plan = plan.with(step, worker, FaultAction::Rejoin);
                            ledger.readmit(step, worker);
                            readmitted_now[worker] = true;
                            worker_stats[worker].readmissions += 1;
                        }
                        // Quarantine evictions: rank by suspicion, cap
                        // concurrent quarantines at the declared-f budget,
                        // and gate every eviction on the post-eviction
                        // resilience floor — an eviction the floor cannot
                        // absorb yet is deferred, never dropped.
                        let budget = match ledger.config().max_quarantined {
                            0 => declared_f,
                            cap => cap,
                        };
                        let mut live_sim: Vec<bool> = (0..self.workers.len())
                            .map(|w| self.membership.health(w).is_live() || readmitted_now[w])
                            .collect();
                        for candidate in ledger.quarantine_candidates() {
                            if ledger.quarantined_count() >= budget {
                                break;
                            }
                            let was_live = live_sim[candidate];
                            live_sim[candidate] = false;
                            // `+ 1`: the candidate's own quarantine.
                            let f_eff =
                                self.config.gar.f.saturating_sub(ledger.quarantined_count() + 1);
                            let tree_plan = self.tree_plan.as_ref();
                            if !Self::floor_holds(&self.config, tree_plan, f_eff, |w| live_sim[w]) {
                                live_sim[candidate] = was_live;
                                continue;
                            }
                            plan = plan.with(step, candidate, FaultAction::Crash);
                            ledger.begin_quarantine(step, candidate);
                            worker_stats[candidate].quarantines += 1;
                        }
                    }
                    if adaptive_churn {
                        let ctx = AttackContext {
                            honest_gradients: &[],
                            model: self.server.parameters(),
                            byzantine_count: self.config.byzantine_count,
                            declared_f,
                            step,
                            seed: self.config.seed,
                            total_workers: self.workers.len(),
                            previous_selection: previous_selection.as_deref(),
                        };
                        for directive in self.attack.plan_churn(&ctx) {
                            let (worker, action) = match directive {
                                ChurnDirective::Crash(w) => (w, FaultAction::Crash),
                                ChurnDirective::Rejoin(w) => (w, FaultAction::Rejoin),
                            };
                            // The adversary only controls its own workers —
                            // a directive naming an honest slot is ignored —
                            // and a quarantined slot stays evicted: the
                            // ledger's Crash outranks the adversary's Rejoin.
                            let quarantined = self
                                .reputation
                                .as_ref()
                                .is_some_and(|ledger| ledger.is_quarantined(worker));
                            if !quarantined
                                && self
                                    .workers
                                    .get(worker)
                                    .is_some_and(|w| w.role() == WorkerRole::Attacker)
                            {
                                plan = plan.with(step, worker, action);
                            }
                        }
                    }
                    Some(plan)
                } else {
                    None
                };
                let round_plan = merged_plan.as_ref().unwrap_or(&fault_plan);
                let transitions = self.membership.apply_round(round_plan, step);
                // Tree mode fences per group: a crash or rejoin bumps only
                // the epoch of the group it happened in, so view changes
                // never invalidate in-flight rounds of untouched groups. The
                // flat tier fences at the view's epoch.
                if let Some(plan) = &self.tree_plan {
                    for &w in transitions.crashed.iter().chain(&transitions.rejoined) {
                        self.group_epochs[plan.group_of(w)] += 1;
                    }
                }
                for worker in &mut self.workers {
                    let id = worker.id();
                    let epoch = match &self.tree_plan {
                        Some(plan) => self.group_epochs[plan.group_of(id)],
                        None => self.membership.epoch(),
                    };
                    // The server side of every link fences at this worker's
                    // epoch. Live workers that did not just rejoin have taken
                    // part in the view change and stamp it too; a rejoiner
                    // still carries the epoch it crashed with, so its first
                    // round back is fenced, and it syncs at the next round's
                    // broadcast.
                    worker.set_transport_expected_epoch(Some(epoch));
                    if self.membership.health(id).is_live() && !transitions.rejoined.contains(&id) {
                        worker.set_transport_epoch(epoch);
                    }
                }
                // Every transition re-derives the active rule's floor: a
                // live set that cannot seat it voids the resilience proof,
                // so the server refuses the round and degrades per policy
                // instead of aggregating on borrowed assumptions.
                let quarantined =
                    self.reputation.as_ref().map_or(0, ReputationLedger::quarantined_count);
                let f_eff = self.config.gar.f.saturating_sub(quarantined);
                let live = |w| self.membership.health(w).is_live();
                if !Self::floor_holds(&self.config, self.tree_plan.as_ref(), f_eff, live) {
                    refused += 1;
                    if self.config.refusal == RefusalPolicy::HoldLastRound {
                        // The held model is still broadcast, so the clock
                        // pays for the round; a paused server stays silent.
                        self.clock_sec += broadcast_time;
                        latency.record_round(broadcast_time, 0.0);
                        throughput.record_round(0, broadcast_time);
                    }
                    if (step + 1) % self.config.eval_every == 0 || step + 1 == self.config.max_steps
                    {
                        self.evaluate(&mut trace, self.server.step())?;
                    }
                    continue;
                }
            }
            let health: Vec<WorkerHealth> =
                (0..self.workers.len()).map(|i| self.membership.health(i)).collect();
            let live_n = health.iter().filter(|h| h.is_live()).count();

            let params = self.server.parameters().clone();

            // Phase 1: honest (and data-poisoned) workers compute and send,
            // fanned out over rayon. Worker `i` delivers straight into arena
            // row `i` (disjoint mutable slices), results are collected in
            // worker-id order, and every worker draws only from its own RNG
            // streams — so the round is deterministic under any schedule,
            // including which thread claims which run of workers.
            // `begin_round` flips the double buffer: this round's ingest
            // lands in the arena the previous round's aggregation was not
            // reading.
            self.pipeline.begin_round(self.workers.len());
            let run_worker = |(worker, dst): (&mut Worker, &mut [f32])| -> Result<WorkerRound> {
                if !health[worker.id()].is_live() || worker.role() == WorkerRole::Attacker {
                    // Crashed workers compute and submit nothing; attackers
                    // are crafted centrally in Phase 2 (their channels are
                    // "arbitrarily fast" and never extend the round).
                    return Ok(WorkerRound {
                        honest_gradient: None,
                        delivered: false,
                        worker_time: 0.0,
                        stale_rejects: 0,
                        corrupt_rejects: 0,
                        retransmit_exhausted: false,
                    });
                }
                let node_flops = worker.node_flops_per_sec();
                let computation = worker.compute_gradient(&params, |model, batch| {
                    cost.gradient_time(model.flops_per_sample(), batch, node_flops)
                })?;
                let transfer =
                    worker.send_gradient_into(step, computation.gradient.as_slice(), dst)?;
                Ok(WorkerRound {
                    honest_gradient: (worker.role() == WorkerRole::Honest)
                        .then_some(computation.gradient),
                    delivered: transfer.delivered,
                    worker_time: computation.compute_time_sec + transfer.time_sec * dim_scale,
                    stale_rejects: transfer.stale_epoch_rejects,
                    corrupt_rejects: transfer.corrupt_rejects,
                    retransmit_exhausted: transfer.retransmit_exhausted,
                })
            };
            let jobs: Vec<(&mut Worker, &mut [f32])> =
                self.workers.iter_mut().zip(self.pipeline.arena_mut().rows_mut()).collect();
            let results: Vec<Result<WorkerRound>> = jobs.into_par_iter().map(run_worker).collect();
            let mut rounds = Vec::with_capacity(results.len());
            for result in results {
                rounds.push(result?);
            }
            // The straggler knob: configured per-worker delays stretch the
            // simulated arrival times (Byzantine submissions included —
            // their channels are only "arbitrarily fast" by default).
            if !self.config.worker_extra_delay_sec.is_empty() {
                for (round, &delay) in rounds.iter_mut().zip(&self.config.worker_extra_delay_sec) {
                    round.worker_time += delay;
                }
            }
            // Slow-by demotions from the fault plan stretch the affected
            // workers' arrivals exactly like the static straggler knob.
            if elastic {
                for (round, h) in rounds.iter_mut().zip(&health) {
                    if let WorkerHealth::Slowed { delay_sec } = *h {
                        round.worker_time += delay_sec;
                    }
                }
            }
            let mut dropped_gradients = rounds
                .iter()
                .zip(&self.workers)
                .filter(|(r, w)| {
                    w.role() != WorkerRole::Attacker && health[w.id()].is_live() && !r.delivered
                })
                .count() as u64;
            let max_worker_time = rounds.iter().map(|r| r.worker_time).fold(0.0f64, f64::max);

            // Phase 2: the adversary crafts the Byzantine submissions,
            // seeing every honest gradient as a borrowed row view (§3.1's
            // omniscient attacker, without cloning a coordinate).
            let attacker_ids: Vec<usize> = self
                .workers
                .iter()
                .filter(|w| w.role() == WorkerRole::Attacker && health[w.id()].is_live())
                .map(Worker::id)
                .collect();
            if !attacker_ids.is_empty() {
                let honest_views: Vec<&[f32]> = rounds
                    .iter()
                    .filter_map(|r| r.honest_gradient.as_ref().map(Vector::as_slice))
                    .collect();
                let ctx = AttackContext {
                    honest_gradients: &honest_views,
                    model: &params,
                    byzantine_count: attacker_ids.len(),
                    declared_f,
                    step,
                    seed: self.config.seed,
                    total_workers: self.workers.len(),
                    previous_selection: previous_selection.as_deref(),
                };
                let crafted = self.attack.craft(&ctx);
                for (&slot, gradient) in attacker_ids.iter().zip(&crafted) {
                    let worker = &mut self.workers[slot];
                    let transfer = worker.send_gradient_into(
                        step,
                        gradient.as_slice(),
                        self.pipeline.arena_mut().row_mut(slot),
                    )?;
                    rounds[slot].delivered = transfer.delivered;
                    rounds[slot].stale_rejects = transfer.stale_epoch_rejects;
                    rounds[slot].corrupt_rejects = transfer.corrupt_rejects;
                    rounds[slot].retransmit_exhausted = transfer.retransmit_exhausted;
                    if !transfer.delivered {
                        dropped_gradients += 1;
                    }
                }
            }
            for (stat, round) in worker_stats.iter_mut().zip(&rounds) {
                stat.stale_epoch_rejects += round.stale_rejects as u64;
                stat.corrupt_rejects += round.corrupt_rejects as u64;
                stat.retransmit_exhaustions += u64::from(round.retransmit_exhausted);
            }

            // Phase 3: aggregation and model update at the server. The
            // quorum policy decides how many arrivals the round waits for:
            // delivered submissions are ordered by simulated arrival time
            // (worker id breaking ties) and everything past the quorum is
            // dropped exactly like a transport loss. Under the default
            // `All` policy every delivered row is accepted and the round
            // waits for the slowest worker — the seed accounting,
            // unchanged bit for bit. The distance rules then read one
            // matrix per round, shared with the selection feedback.
            // The quorum is computed on the *live* worker count: under
            // churn, `n − f` means "all but f of the workers actually in
            // the view", not of the configured roster. With static
            // membership the two coincide.
            let quorum = self.config.streaming.quorum.accept_count(live_n, declared_f);
            let mut arrivals: Vec<usize> =
                (0..rounds.len()).filter(|&i| rounds[i].delivered).collect();
            arrivals.sort_by(|&a, &b| {
                rounds[a].worker_time.total_cmp(&rounds[b].worker_time).then(a.cmp(&b))
            });
            let accepted = &arrivals[..quorum.min(arrivals.len())];
            dropped_gradients += (arrivals.len() - accepted.len()) as u64;
            let round_wait = if accepted.len() == arrivals.len() {
                // Full synchronous round: the server waits for the slowest
                // worker, delivered or not.
                broadcast_time + max_worker_time
            } else {
                // Quorum round: the clock stops at the last accepted
                // arrival; the stragglers' remaining time is the round's
                // saving.
                broadcast_time
                    + accepted.iter().map(|&i| rounds[i].worker_time).fold(0.0f64, f64::max)
            };

            // Streaming: each accepted row's distance contributions fold in
            // at its (simulated) arrival — the per-row completion event —
            // so the matrix is ready the moment the quorum is. The batch
            // path recomputes it from the compacted arena instead; both are
            // pinned bit-identical at the tensor layer.
            if self.pipeline.distance_streaming() {
                for &slot in accepted {
                    self.pipeline.row_done(slot);
                }
            }
            let mut keep = vec![false; rounds.len()];
            for &slot in accepted {
                keep[slot] = true;
            }
            let kept_slots: Vec<usize> = (0..rounds.len()).filter(|&i| keep[i]).collect();
            // The reputation fold runs *before* aggregation: every evidence
            // stream of this round is already decided at the quorum cut, and
            // folding here lets the containment reshuffle below re-seat a
            // colluding clique before the round's tree is even formed — so a
            // readmitted colluder is re-contained with zero exposure.
            if let Some(ledger_cfg) = self.reputation.as_ref().map(|l| *l.config()) {
                // Collusion-affinity sketches over the delivered arena rows
                // (worker-indexed — the arena is compacted only after this).
                let colluding = {
                    let arena = self.pipeline.arena();
                    let row_views: Vec<Option<&[f32]>> = rounds
                        .iter()
                        .enumerate()
                        .map(|(w, r)| r.delivered.then(|| arena.row(w)))
                        .collect();
                    reputation::collusion_flags(
                        &row_views,
                        &self.affinity_sample,
                        ledger_cfg.affinity_epsilon,
                        ledger_cfg.affinity_min_cluster,
                    )
                };
                let evidence: Vec<RoundEvidence> = rounds
                    .iter()
                    .enumerate()
                    .map(|(w, r)| RoundEvidence {
                        corrupt: r.corrupt_rejects > 0,
                        stale: r.stale_rejects > 0 && !readmitted_now[w],
                        exhausted: r.retransmit_exhausted,
                        straggled: r.delivered && !keep[w],
                        excluded: prev_excluded[w],
                        colluding: colluding[w],
                    })
                    .collect();
                let ledger = self.reputation.as_mut().expect("checked above");
                ledger.observe(step, &evidence);
                // One round of exclusion history: consumed by this fold,
                // rebuilt by this round's selection feedback below.
                prev_excluded.fill(false);
                // Epoch-boundary containment reshuffle of the tree tier:
                // re-seat the most-suspect workers into sacrificial groups
                // whose per-level f budget covers them, then bump every
                // group's epoch — a view change for the whole tier.
                if ledger_cfg.reshuffle_every > 0 && step % ledger_cfg.reshuffle_every == 0 {
                    if let Some(plan) = &mut self.tree_plan {
                        let sizes: Vec<usize> = plan.sizes().collect();
                        // Quarantined/crashed slots deliver nothing; the
                        // placement must know, or it will starve a group
                        // below its floor by piling dead seats into it.
                        let live: Vec<bool> = (0..self.workers.len())
                            .map(|w| self.membership.health(w).is_live())
                            .collect();
                        let next = reputation::containment_assignment(
                            ledger.scores(),
                            &live,
                            &sizes,
                            ledger_cfg.suspect_cutoff,
                            self.config.seed,
                            step,
                        );
                        let current: Vec<usize> =
                            (0..self.workers.len()).map(|w| plan.group_of(w)).collect();
                        if next != current {
                            plan.set_assignment(next).map_err(PsError::from)?;
                            for epoch in &mut self.group_epochs {
                                *epoch += 1;
                            }
                        }
                    }
                }
            }
            // The group id of every surviving row, in arena order — the tree
            // tier's counterpart of the distance matrix.
            let tree_groups: Option<Vec<usize>> = self
                .tree_plan
                .as_ref()
                .map(|plan| kept_slots.iter().map(|&slot| plan.group_of(slot)).collect());
            let mut distances = self.pipeline.matrix(&kept_slots);
            self.pipeline.arena_mut().retain_rows(&keep);
            let submitted = self.pipeline.arena().n() as u64;
            // One distance pass per round: when the pipeline streamed no
            // matrix and the selection feedback will want one, build the
            // matrix the rule would build and let the round and the feedback
            // both read it. The pass is the GAR's own work moved out of
            // `apply_round_batch`; the rule's counted work includes it.
            if distances.is_none() && tree_groups.is_none() && wants_selection {
                distances = self.server.round_distances(self.pipeline.arena());
            }
            let mut aggregation_time = 0.0;
            // Simulated wall time of the group-aggregator → root legs (tree
            // mode only): the legs run in parallel, so the round pays the
            // slowest one.
            let mut tree_wire_wait = 0.0f64;
            // An applied round comes back with its counted kernel seconds
            // and, on the tree tier, the `TreeRound` it reduced, which is
            // what the selection feedback below reads.
            let round_result = if self.pipeline.arena().is_empty() {
                Err(PsError::Aggregation("no submissions survived the transport".into()))
            } else if let (Some(groups), Some(tree)) = (&tree_groups, self.config.tree) {
                self.apply_tree_round(step, groups, tree, dim_scale, &mut tree_wire_wait)
                    .map(|(kernel_sec, round)| (kernel_sec, Some(round)))
            } else {
                match &distances {
                    Some(distances) => self
                        .server
                        .apply_round_batch_with_distances(self.pipeline.arena(), distances),
                    None => self.server.apply_round_batch(self.pipeline.arena()),
                }
                .and_then(|_| {
                    CostModel::aggregation_time(self.config.gar, submitted as usize, node_dim)
                })
                .map(|kernel_sec| (kernel_sec, None))
            };
            let round_wait = round_wait + tree_wire_wait;
            match round_result {
                Ok((kernel_sec, tree_round)) => {
                    aggregation_time = kernel_sec + cost.update_time(self.actual_dimension);
                    if wants_selection {
                        let selection = match &tree_round {
                            Some(round) => self.server.tree_selected_rows_of(round)?,
                            None => self
                                .server
                                .selected_rows(self.pipeline.arena(), distances.as_ref())?,
                        };
                        if let Some(rows) = selection {
                            if rows
                                .iter()
                                .any(|&r| self.workers[kept_slots[r]].role().is_byzantine())
                            {
                                byzantine_selected_rounds += 1;
                            }
                            // The adversary's feedback channel sees worker
                            // identities, so map compacted rows back to
                            // their slots.
                            if self.reputation.is_some() {
                                // Exclusion history for the next fold: every
                                // kept row the selection passed over.
                                for &slot in &kept_slots {
                                    prev_excluded[slot] = true;
                                }
                                for &r in &rows {
                                    prev_excluded[kept_slots[r]] = false;
                                }
                            }
                            previous_selection =
                                Some(rows.iter().map(|&r| kept_slots[r]).collect());
                        }
                    }
                }
                Err(PsError::Aggregation(_)) => {
                    skipped += 1;
                }
                Err(other) => return Err(other),
            }

            self.clock_sec += round_wait + aggregation_time;
            latency.record_round(round_wait, aggregation_time);
            throughput.record_round(submitted + dropped_gradients, round_wait + aggregation_time);

            if (step + 1) % self.config.eval_every == 0 || step + 1 == self.config.max_steps {
                self.evaluate(&mut trace, self.server.step())?;
            }
        }

        if let Some(ledger) = &self.reputation {
            for stat in &mut worker_stats {
                stat.final_suspicion = ledger.score(stat.worker);
            }
        }
        Ok(TrainingReport {
            label,
            trace,
            throughput,
            latency,
            steps_completed: self.server.step(),
            skipped_updates: skipped,
            refused_rounds: refused,
            stale_epoch_rejects: worker_stats.iter().map(|s| s.stale_epoch_rejects).sum(),
            corrupt_rejects: worker_stats.iter().map(|s| s.corrupt_rejects).sum(),
            byzantine_selected_rounds,
            retransmit_exhaustions: worker_stats.iter().map(|s| s.retransmit_exhaustions).sum(),
            per_worker: worker_stats,
            quarantine_events: self
                .reputation
                .as_ref()
                .map_or_else(Vec::new, |ledger| ledger.events().to_vec()),
            simulated_time_sec: self.clock_sec,
        })
    }

    /// Whether the live set (`live` by worker id) still seats the active
    /// rule's resilience proof: the composed two-level bound over the live
    /// partition on the tree tier, `g(f_eff)` live workers on the flat tier.
    /// `f_eff` is the declared `f` less the slots the ledger holds in
    /// quarantine, which no longer count against the adversary's budget.
    fn floor_holds(
        config: &RunnerConfig,
        tree_plan: Option<&GroupPlan>,
        f_eff: usize,
        live: impl Fn(usize) -> bool,
    ) -> bool {
        let live_workers = (0..config.workers).filter(|&w| live(w));
        match (tree_plan, &config.tree) {
            (Some(plan), Some(tree)) => {
                let mut live_sizes = vec![0usize; plan.group_count()];
                for w in live_workers {
                    live_sizes[plan.group_of(w)] += 1;
                }
                resilience::check_tree(
                    tree.group.kind,
                    tree.group.f,
                    tree.root.kind,
                    tree.root.f,
                    live_sizes,
                )
                .is_ok()
            }
            _ => live_workers.count() >= resilience::resilience_floor(config.gar.kind, f_eff),
        }
    }

    /// One hierarchical aggregation round: the group stage on the compacted
    /// arena, the group outputs shipped root-ward over the per-group links
    /// (chaos, retransmit and all — a dropped output simply leaves the root
    /// with one fewer input), then the root rule and the optimizer step.
    /// `wire_wait` receives the slowest leg's simulated transfer time. An
    /// applied round returns its counted kernel seconds — the slowest group
    /// (the groups run on their own nodes in parallel) plus the root over the
    /// delivered outputs — and its group stage for the caller's selection
    /// feedback; a refused or skipped one returns only the error.
    fn apply_tree_round(
        &mut self,
        step: u64,
        groups: &[usize],
        tree: TreeConfig,
        dim_scale: f64,
        wire_wait: &mut f64,
    ) -> Result<(f64, TreeRound)> {
        let round = self.server.tree_group_outputs(self.pipeline.arena(), groups)?;
        let dim = self.config.cost.effective_dimension(self.actual_dimension);
        let mut kernel_sec = 0.0f64;
        for group in &round.outputs {
            let group_sec = CostModel::aggregation_time(tree.group, group.members.len(), dim)?;
            kernel_sec = kernel_sec.max(group_sec);
        }
        let total_workers = self.workers.len();
        let mut delivered = Vec::with_capacity(round.outputs.len());
        for output in &round.outputs {
            let link = &mut self.tree_links[output.group];
            let outcome = link
                .transfer((total_workers + output.group) as u32, step, &output.output)
                .map_err(PsError::from)?;
            *wire_wait = wire_wait.max(outcome.time_sec * dim_scale);
            if let Some(gradient) = outcome.gradient {
                delivered.push(gradient);
            }
        }
        self.server.apply_round_tree_outputs(&delivered)?;
        kernel_sec += CostModel::aggregation_time(tree.root, delivered.len(), dim)?;
        Ok((kernel_sec, round))
    }

    /// Evaluates test accuracy at the current parameters and records a trace
    /// point. Evaluation runs on the dedicated evaluator node, out of band,
    /// so it does not advance the simulated clock (matching the paper's
    /// `/job:eval` design).
    fn evaluate(&mut self, trace: &mut TrainingTrace, step: u64) -> Result<()> {
        self.eval_model.set_parameters(self.server.parameters()).map_err(PsError::from)?;
        let (batch, labels) =
            self.test_set.head_batch(self.config.eval_samples).map_err(PsError::from)?;
        let out = self.eval_model.evaluate_loss(&batch, &labels).map_err(PsError::from)?;
        let accuracy = out.correct_predictions as f64 / labels.len().max(1) as f64;
        trace.record(TracePoint {
            step,
            time_sec: self.clock_sec,
            accuracy,
            loss: out.loss as f64,
        });
        Ok(())
    }
}

/// Cost-only simulation of aggregator throughput (Figures 4 and 5), in closed
/// form: no model is trained and no gradient is aggregated — one round's
/// computation, communication and counted aggregation are charged from the
/// cost model.
#[derive(Debug, Clone)]
pub struct ThroughputSimulation {
    /// Number of workers `n`.
    pub workers: usize,
    /// GAR under test.
    pub gar: GarConfig,
    /// Mini-batch size per worker.
    pub batch_size: usize,
    /// Cost model (set a virtual model to emulate the CNN or ResNet50).
    pub cost: CostModel,
    /// Link characteristics.
    pub link: LinkConfig,
    /// Gradient dimension charged when the cost model sets no virtual model.
    pub proxy_dimension: usize,
}

/// Result of a throughput simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputResult {
    /// Gradients (mini-batches) processed per second of simulated time.
    pub batches_per_sec: f64,
    /// Simulated round time in seconds.
    pub round_time_sec: f64,
    /// Counted aggregation plus optimizer-step time per round in seconds.
    pub aggregation_time_sec: f64,
    /// Per-worker computation + communication time per round.
    pub compute_comm_time_sec: f64,
}

impl ThroughputSimulation {
    /// Runs the simulation.
    ///
    /// # Errors
    ///
    /// Returns [`PsError::InvalidConfig`] for zero workers or dimension, and
    /// [`PsError::Aggregation`] when the rule's resilience precondition
    /// cannot be met with the configured worker count.
    pub fn run(&self) -> Result<ThroughputResult> {
        if self.workers == 0 || self.proxy_dimension == 0 {
            return Err(PsError::InvalidConfig(
                "workers and proxy_dimension must be positive".into(),
            ));
        }
        let node = crate::cluster::Node::grid5000_cpu(0);
        let dim = self.cost.effective_dimension(self.proxy_dimension);
        let aggregation_time = CostModel::aggregation_time(self.gar, self.workers, dim)?
            + self.cost.update_time(self.proxy_dimension);

        let compute = self.cost.gradient_time(1, self.batch_size, node.flops_per_sec);
        let gradient_bytes = self.cost.payload_bytes(self.proxy_dimension);
        let comm = 2.0 * self.link.transfer_time(gradient_bytes);
        let compute_comm = compute + comm;
        let round_time = compute_comm + aggregation_time;
        Ok(ThroughputResult {
            batches_per_sec: self.workers as f64 / round_time,
            round_time_sec: round_time,
            aggregation_time_sec: aggregation_time,
            compute_comm_time_sec: compute_comm,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentKind;
    use crate::cost::VirtualModelCost;
    use agg_attacks::AttackKind;
    use agg_core::GarKind;
    use agg_net::LossPolicy;

    fn quick_config(gar: GarKind, f: usize, workers: usize) -> RunnerConfig {
        RunnerConfig {
            experiment: ExperimentKind::MlpBlobs {
                input_dim: 16,
                hidden: 24,
                classes: 4,
                samples: 600,
            },
            gar: GarConfig::new(gar, f),
            workers,
            max_steps: 60,
            eval_every: 15,
            eval_samples: 120,
            batch_size: 16,
            learning_rate: agg_nn::schedule::LearningRate::Fixed { rate: 0.01 },
            seed: 5,
            ..RunnerConfig::quick_default()
        }
    }

    #[test]
    fn engine_trains_to_good_accuracy_without_byzantine_workers() {
        let mut engine = SyncTrainingEngine::new(quick_config(GarKind::Average, 0, 5)).unwrap();
        let report = engine.run().unwrap();
        assert_eq!(report.steps_completed, 60);
        assert_eq!(report.skipped_updates, 0);
        assert!(report.simulated_time_sec > 0.0);
        assert!(
            report.final_accuracy() > 0.6,
            "expected learning progress, got {}",
            report.final_accuracy()
        );
        assert!(report.trace.len() >= 4);
    }

    #[test]
    fn multi_krum_resists_an_attack_that_ruins_averaging() {
        let mut byzantine_avg = quick_config(GarKind::Average, 0, 9);
        byzantine_avg.byzantine_count = 2;
        byzantine_avg.attack = AttackKind::Reversed { scale: 50.0 };
        let avg_report = SyncTrainingEngine::new(byzantine_avg).unwrap().run().unwrap();

        let mut byzantine_mk = quick_config(GarKind::MultiKrum, 2, 9);
        byzantine_mk.byzantine_count = 2;
        byzantine_mk.attack = AttackKind::Reversed { scale: 50.0 };
        let mk_report = SyncTrainingEngine::new(byzantine_mk).unwrap().run().unwrap();

        assert!(
            mk_report.final_accuracy() > avg_report.final_accuracy() + 0.15,
            "Multi-Krum ({:.3}) should clearly beat averaging ({:.3}) under attack",
            mk_report.final_accuracy(),
            avg_report.final_accuracy()
        );
    }

    #[test]
    fn worker_roles_follow_the_configuration() {
        let mut config = quick_config(GarKind::MultiKrum, 2, 7);
        config.byzantine_count = 2;
        config.attack = AttackKind::Random { magnitude: 10.0 };
        let engine = SyncTrainingEngine::new(config).unwrap();
        let roles = engine.worker_roles();
        assert_eq!(roles.iter().filter(|r| r.is_byzantine()).count(), 2);
        assert_eq!(roles[0], WorkerRole::Honest);
        assert_eq!(roles[6], WorkerRole::Attacker);
        assert_eq!(engine.cluster().worker_count(), 7);
        assert!(engine.model_dimension() > 0);
    }

    #[test]
    fn data_poisoning_creates_data_poisoned_workers() {
        let mut config = quick_config(GarKind::MultiKrum, 1, 7);
        config.byzantine_count = 1;
        config.data_poisoning = Some(agg_data::corruption::Corruption::LabelShift);
        let engine = SyncTrainingEngine::new(config).unwrap();
        assert_eq!(
            engine.worker_roles().iter().filter(|&&r| r == WorkerRole::DataPoisoned).count(),
            1
        );
    }

    #[test]
    fn invalid_configurations_are_rejected_at_construction() {
        let mut config = quick_config(GarKind::Average, 0, 3);
        config.byzantine_count = 5;
        assert!(SyncTrainingEngine::new(config).is_err());
    }

    #[test]
    fn lossy_transport_assigns_lossy_links_to_the_last_workers() {
        let mut config = quick_config(GarKind::MultiKrum, 2, 7);
        config.transport = TransportKind::Lossy { policy: LossPolicy::RandomFill };
        config.lossy_links = 2;
        config.link = LinkConfig::datacenter().with_drop_rate(0.1);
        let mut engine = SyncTrainingEngine::new(config).unwrap();
        let report = engine.run().unwrap();
        // Training must still make progress despite the lossy links.
        assert!(report.final_accuracy() > 0.5, "accuracy {}", report.final_accuracy());
    }

    #[test]
    fn gar_precondition_failures_become_skipped_updates() {
        // Multi-Krum with f = 4 needs 11 workers; give it only 5, so every
        // round is rejected and skipped rather than crashing the run.
        let mut config = quick_config(GarKind::MultiKrum, 4, 5);
        config.max_steps = 5;
        let mut engine = SyncTrainingEngine::new(config).unwrap();
        let report = engine.run().unwrap();
        assert_eq!(report.steps_completed, 0);
        assert_eq!(report.skipped_updates, 5);
    }

    #[test]
    fn sharded_engine_trains_like_the_monolithic_engine() {
        let mut config = quick_config(GarKind::MultiKrum, 2, 9);
        config.byzantine_count = 2;
        config.attack = AttackKind::Reversed { scale: 50.0 };
        let monolithic = SyncTrainingEngine::new(config.clone()).unwrap().run().unwrap();
        config.shards = 4;
        let mut sharded_engine = SyncTrainingEngine::new(config).unwrap();
        assert_eq!(sharded_engine.cluster().parameter_server_count(), 4);
        let sharded = sharded_engine.run().unwrap();
        assert_eq!(sharded.steps_completed, monolithic.steps_completed);
        assert_eq!(sharded.skipped_updates, monolithic.skipped_updates);
        // The decomposition is exact up to floating-point reassociation in
        // the distance sums, so the learning outcome must agree closely.
        assert!(
            (sharded.final_accuracy() - monolithic.final_accuracy()).abs() < 0.05,
            "sharded {} vs monolithic {}",
            sharded.final_accuracy(),
            monolithic.final_accuracy()
        );
    }

    #[test]
    fn streaming_engine_matches_the_barrier_engine_bit_for_bit() {
        // Flipping streaming on changes only when the distance work runs
        // (per arriving row instead of batch-at-barrier), never the result:
        // the incremental accumulator is pinned bit-identical to the batch
        // kernels for both the flat and the sharded tier.
        for shards in [1usize, 4] {
            let mut config = quick_config(GarKind::MultiKrum, 2, 9);
            config.byzantine_count = 2;
            config.attack = AttackKind::Reversed { scale: 50.0 };
            config.shards = shards;
            config.max_steps = 20;
            config.eval_every = 5;
            let barrier = SyncTrainingEngine::new(config.clone()).unwrap().run().unwrap();
            config.streaming.enabled = true;
            let streaming = SyncTrainingEngine::new(config).unwrap().run().unwrap();
            assert_eq!(barrier.trace.len(), streaming.trace.len());
            for (b, s) in barrier.trace.points().iter().zip(streaming.trace.points()) {
                assert_eq!(
                    b.accuracy.to_bits(),
                    s.accuracy.to_bits(),
                    "accuracy diverged with {shards} shard(s) at step {}",
                    b.step
                );
                assert_eq!(
                    b.loss.to_bits(),
                    s.loss.to_bits(),
                    "loss diverged with {shards} shard(s) at step {}",
                    b.step
                );
            }
        }
    }

    #[test]
    fn quorum_rounds_stop_waiting_for_stragglers() {
        let mut config = quick_config(GarKind::MultiKrum, 2, 9);
        config.max_steps = 10;
        // Workers 7 and 8 are honest stragglers: a full synchronous round
        // waits out their 5-second delay; an n − f quorum round does not.
        let mut delays = vec![0.0; 9];
        delays[7] = 5.0;
        delays[8] = 5.0;
        config.worker_extra_delay_sec = delays;
        let full = SyncTrainingEngine::new(config.clone()).unwrap().run().unwrap();
        config.streaming.quorum = crate::streaming::QuorumPolicy::NMinusF;
        let quorum = SyncTrainingEngine::new(config).unwrap().run().unwrap();
        assert_eq!(quorum.steps_completed, 10);
        assert!(
            quorum.simulated_time_sec < full.simulated_time_sec - 40.0,
            "ten rounds of 5-second straggler wait should vanish: quorum {} vs full {}",
            quorum.simulated_time_sec,
            full.simulated_time_sec
        );
        // Aggregating over the 7 fastest of 9 still trains.
        assert!(quorum.final_accuracy() > 0.6, "accuracy {}", quorum.final_accuracy());
    }

    #[test]
    fn crash_rejoin_schedule_fences_the_rejoiner_and_recovers() {
        use crate::membership::{FaultAction, FaultPlan};
        let mut config = quick_config(GarKind::MultiKrum, 2, 9);
        config.max_steps = 10;
        config.fault_plan =
            FaultPlan::empty().with(3, 2, FaultAction::Crash).with(6, 2, FaultAction::Rejoin);
        let mut engine = SyncTrainingEngine::new(config).unwrap();
        let report = engine.run().unwrap();
        // Multi-Krum f=2 needs 11-2=9... floor is 2f+3=7 ≤ 8 live, so no
        // round is refused; rounds 3..6 simply run with 8 submissions.
        assert_eq!(report.refused_rounds, 0);
        assert_eq!(report.steps_completed, 10);
        assert_eq!(report.skipped_updates, 0);
        // Two live-set changes: crash and rejoin.
        assert_eq!(engine.membership().epoch(), 2);
        // The rejoiner's first round back is fenced as stale (one gradient's
        // worth of packets), then it syncs and delivers again.
        assert!(report.stale_epoch_rejects > 0, "the rejoin round must be fenced");
        // The GAR never selected a Byzantine row (there are none).
        assert_eq!(report.byzantine_selected_rounds, 0);
    }

    #[test]
    fn rounds_below_the_resilience_floor_are_refused_not_aggregated() {
        use crate::membership::{FaultAction, FaultPlan, RefusalPolicy};
        // Bulyan f=4 has floor 4f+3 = 19: one crash among 19 workers drops
        // the live set below it until the rejoin.
        let mut config = quick_config(GarKind::Bulyan, 4, 19);
        config.max_steps = 8;
        config.fault_plan =
            FaultPlan::empty().with(2, 5, FaultAction::Crash).with(5, 5, FaultAction::Rejoin);
        let held = SyncTrainingEngine::new(config.clone()).unwrap().run().unwrap();
        // Rounds 2, 3, 4 are refused (18 < 19). Round 5 passes the floor
        // again but the rejoiner is fenced, so Bulyan sees 18 rows and the
        // round is skipped by the GAR precondition — the two degradations
        // stay distinguishable in the report.
        assert_eq!(held.refused_rounds, 3);
        assert_eq!(held.skipped_updates, 1);
        assert_eq!(held.steps_completed, 8 - 3 - 1);
        assert!(held.stale_epoch_rejects > 0);

        // Hold-last-round still broadcasts the held model, so the refused
        // rounds appear in the latency accounting.
        assert_eq!(held.latency.rounds(), 8 - 3 + 3);

        // Pause refuses the same rounds but records nothing for them: no
        // broadcast, no clock charge.
        config.refusal = RefusalPolicy::Pause;
        let paused = SyncTrainingEngine::new(config).unwrap().run().unwrap();
        assert_eq!(paused.refused_rounds, 3);
        assert_eq!(paused.steps_completed, held.steps_completed);
        assert_eq!(paused.latency.rounds(), 8 - 3);
    }

    #[test]
    fn slow_by_demotions_feed_the_quorum_policy() {
        use crate::membership::{FaultAction, FaultPlan};
        let mut config = quick_config(GarKind::MultiKrum, 2, 9);
        config.max_steps = 10;
        config.fault_plan = FaultPlan::empty()
            .with(0, 7, FaultAction::SlowBy { delay_sec: 5.0 })
            .with(0, 8, FaultAction::SlowBy { delay_sec: 5.0 });
        let full = SyncTrainingEngine::new(config.clone()).unwrap().run().unwrap();
        config.streaming.quorum = crate::streaming::QuorumPolicy::NMinusF;
        let quorum = SyncTrainingEngine::new(config).unwrap().run().unwrap();
        assert_eq!(quorum.steps_completed, 10);
        // Slow-by never changes the live set: no epoch bump, nothing fenced.
        assert_eq!(quorum.refused_rounds, 0);
        assert_eq!(quorum.stale_epoch_rejects, 0);
        assert!(
            quorum.simulated_time_sec < full.simulated_time_sec - 40.0,
            "the n − f quorum should stop waiting for the demoted stragglers: {} vs {}",
            quorum.simulated_time_sec,
            full.simulated_time_sec
        );
    }

    #[test]
    fn tree_engine_trains_and_places_one_aggregator_per_group() {
        use agg_core::TreeConfig;
        // 12 workers in 3 groups of 4, Median at both levels.
        let tree = TreeConfig::uniform(GarKind::Median, 1, 1, 4);
        let mut config = quick_config(GarKind::Median, 1, 12);
        config.tree = Some(tree);
        config.gar = tree.root;
        let mut engine = SyncTrainingEngine::new(config).unwrap();
        // 3 group aggregators + 1 root.
        assert_eq!(engine.cluster().parameter_server_count(), 4);
        let report = engine.run().unwrap();
        assert_eq!(report.steps_completed, 60);
        assert_eq!(report.skipped_updates, 0);
        assert!(report.label.contains("tree(g=4)"));
        assert!(
            report.final_accuracy() > 0.6,
            "expected learning progress, got {}",
            report.final_accuracy()
        );
    }

    #[test]
    fn tree_rounds_below_the_composed_floor_are_refused() {
        use crate::membership::{FaultAction, FaultPlan};
        use agg_core::TreeConfig;
        // 12 workers, Median f=1 at both levels: the root needs 3
        // contributing groups and a group needs 3 live members. Crashing two
        // workers of group 1 drops it below its floor, leaving 2 < 3
        // contributing groups — refusal, not a panic or an under-counted
        // aggregate.
        let tree = TreeConfig::uniform(GarKind::Median, 1, 1, 4);
        let mut config = quick_config(GarKind::Median, 1, 12);
        config.tree = Some(tree);
        config.gar = tree.root;
        config.max_steps = 10;
        config.fault_plan = FaultPlan::empty()
            .with(3, 4, FaultAction::Crash)
            .with(3, 5, FaultAction::Crash)
            .with(6, 4, FaultAction::Rejoin)
            .with(6, 5, FaultAction::Rejoin);
        let mut engine = SyncTrainingEngine::new(config).unwrap();
        let report = engine.run().unwrap();
        assert_eq!(report.refused_rounds, 3, "rounds 3, 4, 5 are below the composed floor");
        // The rejoiners are fenced at their group's epoch for one round; the
        // other groups' workers were never re-stamped.
        assert!(report.stale_epoch_rejects > 0);
        // Round 6 clears the composed floor again but the two rejoiners are
        // still fenced, so group 1 contributes 2 < 3 rows and the root sees
        // 2 < 3 groups: skipped by the GAR precondition — the refusal and
        // the skip stay distinguishable, exactly like the flat tier.
        assert_eq!(report.skipped_updates, 1);
        assert_eq!(report.steps_completed, 10 - 3 - 1);
    }

    #[test]
    fn throughput_simulation_reports_sane_numbers() {
        let sim = ThroughputSimulation {
            workers: 10,
            gar: GarConfig::new(GarKind::MultiKrum, 1),
            batch_size: 100,
            cost: CostModel::paper_like().with_virtual_model(VirtualModelCost::paper_cnn()),
            link: LinkConfig::datacenter(),
            proxy_dimension: 20_000,
        };
        let result = sim.run().unwrap();
        assert!(result.batches_per_sec > 0.0);
        assert!(result.round_time_sec > 0.0);
        assert!(result.aggregation_time_sec > 0.0);
        assert!(result.compute_comm_time_sec > 0.0);
        // Sanity: the simulated CNN throughput is in the tens of batches/sec,
        // the regime Figure 5(a) reports.
        assert!(result.batches_per_sec > 1.0 && result.batches_per_sec < 500.0);
    }

    #[test]
    fn throughput_simulation_validates_inputs() {
        let sim = ThroughputSimulation {
            workers: 0,
            gar: GarConfig::new(GarKind::Average, 0),
            batch_size: 10,
            cost: CostModel::paper_like(),
            link: LinkConfig::datacenter(),
            proxy_dimension: 100,
        };
        assert!(matches!(sim.run(), Err(PsError::InvalidConfig(_))));
        // Below the rule's floor the error is the resilience precondition's.
        let bulyan =
            ThroughputSimulation { workers: 18, gar: GarConfig::new(GarKind::Bulyan, 4), ..sim };
        assert!(matches!(bulyan.run(), Err(PsError::Aggregation(e)) if e.contains("bulyan")));
    }

    /// `rounds` copies of `per_round` summed in order, the way the latency
    /// breakdown accumulates them.
    fn summed(per_round: f64, rounds: u64) -> f64 {
        (0..rounds).fold(0.0, |total, _| total + per_round)
    }

    #[test]
    fn tree_rounds_are_charged_the_slowest_group_plus_the_root() {
        use agg_core::TreeConfig;
        // n = 64 in 4 groups of 16, Multi-Krum at both levels, charged at
        // the paper CNN's dimension: each round pays one 16-row group and
        // the root over the 4 outputs — not a flat pass over 64 rows.
        let tree = TreeConfig::uniform(GarKind::MultiKrum, 2, 0, 16);
        let mut config = quick_config(GarKind::MultiKrum, 0, 64);
        config.tree = Some(tree);
        config.gar = tree.root;
        config.max_steps = 3;
        config.cost = CostModel::paper_like().with_virtual_model(VirtualModelCost::paper_cnn());
        let report = SyncTrainingEngine::new(config.clone()).unwrap().run().unwrap();
        assert_eq!(report.steps_completed, 3);
        let dim = VirtualModelCost::paper_cnn().dimension;
        let per_round = CostModel::aggregation_time(tree.group, 16, dim).unwrap()
            + CostModel::aggregation_time(tree.root, 4, dim).unwrap()
            + config.cost.update_time(dim);
        assert_eq!(report.latency.aggregation_sec(), summed(per_round, 3));
    }

    #[test]
    fn quorum_rounds_are_charged_the_accepted_rows_only() {
        // n = 9, f = 2 under an n − f quorum: the rule reduces 7 rows.
        let mut config = quick_config(GarKind::MultiKrum, 2, 9);
        config.max_steps = 3;
        config.streaming.quorum = crate::streaming::QuorumPolicy::NMinusF;
        config.cost = CostModel::paper_like().with_virtual_model(VirtualModelCost::paper_cnn());
        let report = SyncTrainingEngine::new(config.clone()).unwrap().run().unwrap();
        assert_eq!(report.steps_completed, 3);
        let dim = VirtualModelCost::paper_cnn().dimension;
        let per_round =
            CostModel::aggregation_time(config.gar, 7, dim).unwrap() + config.cost.update_time(dim);
        assert_eq!(report.latency.aggregation_sec(), summed(per_round, 3));
    }
}
