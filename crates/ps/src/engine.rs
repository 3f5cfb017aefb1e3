//! The synchronous training engine (Equation 4 of the paper) and the
//! throughput simulator behind the scalability experiments.

use crate::cluster::Node;
use crate::config::{RunnerConfig, TransportKind};
use crate::cost::{CostModel, REPLICATION_ENCODE_FACTOR};
use crate::membership::{FaultAction, MembershipView, WorkerHealth};
use crate::report::{RoundRecord, RoundVerdict, SlotWire, TrainingReport};
use crate::reputation::{self, ReputationLedger, RoundEvidence, StandingChange};
use crate::server::ParameterServer;
use crate::streaming::RoundPipeline;
use crate::worker::{Worker, WorkerRole};
use crate::{PsError, Result};
use agg_attacks::{Attack, AttackContext, ChurnDirective};
use agg_core::{resilience, GarConfig, TreeConfig};
use agg_data::corruption::corrupt;
use agg_data::{Dataset, MiniBatchSampler};
use agg_metrics::{TracePoint, TrainingTrace};
use agg_net::{
    ChaosPlan, GradientCodec, LinkConfig, LossyTransport, ReliableTransport, RowTransfer, Transport,
};
use agg_nn::Sequential;
use agg_tensor::batch::PARALLEL_MIN_WORK;
use agg_tensor::rng::derive_seed;
use agg_tensor::{GroupPlan, Tensor, Vector};
use rayon::prelude::*;
use std::sync::Arc;

/// The synchronous parameter-server training loop.
///
/// [`SyncTrainingEngine::run`] is a loop of rounds (Equation 4 of the
/// paper). Each round runs six stages, and each stage fills the round's one
/// [`RoundRecord`]:
/// 1. **membership** — the ledger's readmissions and quarantines and the
///    adversary's churn directives join the round's scheduled faults, the
///    view advances, every link is stamped with its epoch, and a live set
///    below the resilience floor refuses the round;
/// 2. **gradients** — compute, craft, send: the live honest (and
///    data-poisoned) workers compute a mini-batch gradient at the broadcast
///    model into their arena rows, the adversary crafts the Byzantine
///    submissions knowing every honest gradient as computed (omniscient
///    attacker, §3.1), and every row is sent in place over its transport
///    (possibly lossy);
/// 3. **quorum cut** — the delivered rows in simulated arrival order, the
///    first `quorum` of them accepted;
/// 4. **ledger** — the round's evidence folds into the suspicion ledger, and
///    the tree tier's containment reshuffle runs;
/// 5. **aggregate** — the flat, sharded or tree rule over the accepted rows,
///    read where they landed in the arena (the rule runs over the list of
///    accepted slots; nothing is compacted or copied), the optimizer step,
///    and the rule's selection;
/// 6. **charge** — the verdict and the round's simulated seconds.
///
/// The report keeps every record ([`TrainingReport::rounds`]) and folds from
/// it only the run totals and the simulated clock; the latency split, the
/// throughput and the per-worker rows are views over the records. The
/// adversary's selection feedback and the ledger's exclusion evidence are
/// read off the earlier records.
///
/// Simulated time advances by the broadcast time plus the slowest worker's
/// compute+transfer time (synchronous training: the server waits for all, or
/// for the quorum) plus the aggregation the round counted —
/// [`CostModel::aggregation_time`] of the rule over the rows it reduced —
/// and the optimizer step.
///
/// The gradients stage fans the honest workers out over rayon: every worker
/// owns its model, sampler and transport (each with its own derived RNG
/// stream) and computes its gradient into, and later sends it from, its own
/// pre-assigned row of one reused submissions arena, so the round is
/// bit-for-bit identical at any thread budget (the determinism suites pin
/// budgets 1, 2 and 4). The threads claim runs of workers from a shared
/// cursor (the rayon shim's guided claiming), so the attacker and crashed
/// slots, which return at once, leave no core waiting at the barrier.
///
/// The O(n·d) passes after Phase 1 split their work over rayon too — the
/// adversary's honest mean, the send region and the sharded reduce — each
/// item writing its own rows or columns in a fixed term order, so their bits
/// do not depend on the thread budget either. The aggregate stage runs at
/// most one O(n²·d) distance pass per flat or sharded round — the parallel
/// batch kernel over the accepted rows — which the rule and the selection
/// both read.
#[derive(Debug)]
pub struct SyncTrainingEngine {
    config: RunnerConfig,
    server: ParameterServer,
    workers: Vec<Worker>,
    /// Each worker's mini-batch sampler stream: its own id, or under a
    /// replicating rule its group's lowest id, so a round's record counts a
    /// group's replicas of one mini-batch once. Nondecreasing in worker id.
    streams: Vec<usize>,
    /// The evaluator's model. It evaluates at the server's vector in place
    /// ([`Sequential::evaluate_loss_at`]), so it never holds a copy of it.
    eval_model: Sequential,
    /// The first `eval_samples` rows of the test set and their labels,
    /// gathered once: every evaluation reads this batch.
    eval_batch: (Tensor, Vec<usize>),
    actual_dimension: usize,
    /// The round pipeline's one submission arena, reused every round: worker
    /// `i` owns row `i` for the whole run, so a round allocates no `n × d`
    /// buffer. The rule reads the accepted rows where they landed;
    /// undelivered and late rows are skipped, never compacted away, and the
    /// next round overwrites them. The engine never enables the pipeline's
    /// per-row distance fold: the aggregate stage runs the batch kernel over
    /// the accepted rows instead.
    pipeline: RoundPipeline,
    /// The server's membership view: epoch number plus per-worker health,
    /// advanced at the start of every round from the configured fault plan.
    /// With an empty plan it stays at epoch 0 / all-live — static
    /// membership.
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

/// What the aggregate stage hands the charge stage.
struct Aggregation {
    /// The counted kernel seconds of an applied round, or the error that
    /// stopped it (the rule's precondition for a skipped round).
    kernel_sec: Result<f64>,
    /// The tree tier's slowest group → root leg (0 on the flat tiers): the
    /// legs run in parallel, and a round skipped at the root still waited.
    wire_wait: f64,
    /// The rule's selection as slots (`None` for a rule without one).
    selection: Option<Vec<usize>>,
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
        // Evaluation reads only the test set's first rows: keep those alone.
        let eval_batch = test.head_batch(config.eval_samples).map_err(PsError::from)?;
        drop(test);

        // The hierarchical tier partitions the roster into contiguous groups
        // of `tree.group_size` (validated against the sortnet sweet spot).
        let tree_plan = match &config.tree {
            Some(tree) => {
                Some(GroupPlan::new(config.workers, tree.group_size).map_err(PsError::from)?)
            }
            None => None,
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

        let replicated = replicates_batches(config.gar, config.tree);
        let honest_count = config.workers - config.byzantine_count;
        let mut workers = Vec::with_capacity(config.workers);
        let mut streams = Vec::with_capacity(config.workers);
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
            // Under a replicating rule every member of a group draws the
            // group's mini-batch: the stream of its lowest worker id (the
            // flat roster is one group).
            let stream = match &tree_plan {
                _ if !replicated => id,
                Some(plan) => plan.range(plan.group_of(id)).start,
                None => 0,
            };
            let sampler = MiniBatchSampler::new(config.batch_size, config.seed, stream as u64)
                .map_err(PsError::from)?;
            streams.push(stream);
            let transport = Self::build_transport(&config, id, actual_dimension)?;
            let worker_model = config.experiment.build_model(derive_seed(config.seed, id as u64));
            workers.push(Worker::new(id, role, worker_model, dataset, sampler, transport));
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
                    let stream = (config.workers + gid) as u64;
                    Self::build_link(&config, stream, degraded, actual_dimension)
                })
                .collect::<Result<_>>()?,
            None => Vec::new(),
        };
        let group_epochs =
            tree_plan.as_ref().map_or_else(Vec::new, |plan| vec![0; plan.group_count()]);

        let pipeline = RoundPipeline::new(actual_dimension, config.workers);
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
            server,
            workers,
            streams,
            eval_model: model,
            eval_batch,
            actual_dimension,
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

    fn build_transport(
        config: &RunnerConfig,
        worker_id: usize,
        dimension: usize,
    ) -> Result<Box<dyn Transport>> {
        // The last `lossy_links` worker↔server links are the ones subject to
        // the configured packet-loss rate (the paper injects its artificial
        // drops with `tc` on the links it studies); the remaining links see a
        // clean network. Whether the degraded links run the lossy UDP-like
        // transport or a reliable TCP-like one is decided by
        // `config.transport`, which is exactly the comparison of Figure 8(b).
        Self::build_link(config, worker_id as u64, degraded_link(config, worker_id), dimension)
    }

    /// Builds one link of the configured wire: a worker↔server link (stream
    /// `0..workers`) or a group-aggregator → root leg of the tree tier
    /// (stream `workers + gid`). Each stream draws its own chaos from the
    /// shared seeded plan. A lossy link is sized for `dimension` here, on
    /// the building thread (see [`LossyTransport::with_dimension`]).
    fn build_link(
        config: &RunnerConfig,
        stream: u64,
        degraded: bool,
        dimension: usize,
    ) -> Result<Box<dyn Transport>> {
        let link =
            if degraded { config.link } else { LinkConfig { drop_rate: 0.0, ..config.link } };
        let codec = GradientCodec::default_mtu();
        match config.transport {
            TransportKind::Lossy { policy } if degraded => {
                let mut transport = LossyTransport::new(link, codec, policy, config.seed, stream)
                    .map_err(PsError::from)?
                    .with_dimension(dimension);
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

    /// The model parameters as the server holds them.
    pub fn parameters(&self) -> &Vector {
        self.server.parameters()
    }

    /// Runs the configured number of steps and returns the report.
    ///
    /// # Errors
    ///
    /// Returns [`PsError`] for unrecoverable failures (model errors,
    /// structural transport failures). GAR rejections and dropped gradients
    /// are recorded in the report, not raised.
    pub fn run(&mut self) -> Result<TrainingReport> {
        let label = self.label();
        let mut report = TrainingReport {
            trace: TrainingTrace::new(label.clone()),
            label,
            ..Default::default()
        };
        let byzantine: Vec<bool> = self.workers.iter().map(|w| w.role().is_byzantine()).collect();
        self.evaluate(&mut report)?;
        for step in 0..self.config.max_steps {
            let record = self.round(step, &report.rounds)?;
            report.fold(record, &byzantine);
            if (step + 1) % self.config.eval_every == 0 || step + 1 == self.config.max_steps {
                self.evaluate(&mut report)?;
            }
        }
        report.steps_completed = self.server.step();
        report.final_suspicion = vec![0.0; self.workers.len()];
        if let Some(ledger) = &self.reputation {
            report.quarantine_events = ledger.events().to_vec();
            report.final_suspicion = ledger.scores().to_vec();
        }
        Ok(report)
    }

    /// One round, stage by stage. A refused round ends after the membership
    /// stage.
    fn round(&mut self, step: u64, history: &[RoundRecord]) -> Result<RoundRecord> {
        let mut record = RoundRecord { step, ..Default::default() };
        if !self.advance_membership(history, &mut record) {
            return Ok(record);
        }
        let arrival_sec = self.gradients(history, &mut record)?;
        self.quorum_cut(&arrival_sec, &mut record);
        self.ledger(history, &record)?;
        let aggregation = self.aggregate(&record);
        self.charge(aggregation, &mut record)?;
        Ok(record)
    }

    /// The run's label: rule, `f`, batch size, workers, tier and wire.
    fn label(&self) -> String {
        format!(
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
        )
    }

    /// What the adversary knows this round (§3.1), over its configured
    /// roster: the trailing `byzantine_count` of all the workers, whether or
    /// not churn or the ledger has taken some of them out of the view. Its
    /// selection feedback is the last selection an earlier round made. It
    /// reads only the configuration and the server's `model`, so the
    /// gradients stage can build it while it writes the attacker rows of
    /// the arena the honest views borrow from.
    fn attack_context<'a>(
        config: &RunnerConfig,
        model: &'a Vector,
        honest: &'a [&'a [f32]],
        step: u64,
        history: &'a [RoundRecord],
    ) -> AttackContext<'a> {
        AttackContext {
            honest_gradients: honest,
            model,
            byzantine_count: config.byzantine_count,
            declared_f: declared_f(config),
            step,
            seed: config.seed,
            total_workers: config.workers,
            previous_selection: history.iter().rev().find_map(|r| r.selection.as_deref()),
        }
    }

    /// The factor wire seconds scale by when the cost model charges a larger
    /// virtual model than the proxy that travels.
    fn dim_scale(&self) -> f64 {
        self.config.cost.effective_dimension(self.actual_dimension) as f64
            / self.actual_dimension.max(1) as f64
    }

    /// Simulated seconds of the model broadcast that opens every round.
    fn broadcast_time(&self) -> f64 {
        self.config.link.transfer_time(self.config.cost.payload_bytes(self.actual_dimension))
    }

    /// Membership: the ledger's synthesized transitions and the adversary's
    /// churn directives join this round's scheduled events. All run through
    /// the same [`MembershipView`] transition rules, so none can do more than
    /// a fault plan could have scheduled (redundant directives are no-ops,
    /// rejoiners are fenced for one round). Then every link is stamped and
    /// the floor re-derived; returns `false` when the round is refused. With
    /// an empty plan, no ledger and no adversarial churn nothing transitions:
    /// every link is stamped epoch 0 and the validated roster clears the
    /// floor.
    fn advance_membership(&mut self, history: &[RoundRecord], record: &mut RoundRecord) -> bool {
        let (step, n, declared_f) = (record.step, self.workers.len(), declared_f(&self.config));
        let mut plan = self.config.fault_plan.clone();
        if let Some(ledger) = &mut self.reputation {
            // Readmissions first: a lapsed quarantine rejoins on probation
            // this round (epoch-fenced like any other rejoiner), so its stale
            // first-round packets are by design, not fresh evidence against
            // it.
            let readmitted = ledger.due_for_readmission(step);
            for &worker in &readmitted {
                plan = plan.with(step, worker, FaultAction::Rejoin);
                ledger.readmit(step, worker);
            }
            // Quarantine evictions: rank by suspicion, cap concurrent
            // quarantines at the declared-f budget, and gate every eviction
            // on the post-eviction resilience floor — an eviction the floor
            // cannot absorb yet is deferred, never dropped.
            let budget = match ledger.config().max_quarantined {
                0 => declared_f,
                cap => cap,
            };
            let mut live_sim: Vec<bool> = (0..n)
                .map(|w| self.membership.health(w).is_live() || readmitted.contains(&w))
                .collect();
            for candidate in ledger.quarantine_candidates() {
                if ledger.quarantined_count() >= budget {
                    break;
                }
                let was_live = live_sim[candidate];
                live_sim[candidate] = false;
                // `+ 1`: the candidate's own quarantine.
                let f_eff = self.config.gar.f.saturating_sub(ledger.quarantined_count() + 1);
                let tree_plan = self.tree_plan.as_ref();
                if !Self::floor_holds(&self.config, tree_plan, f_eff, |w| live_sim[w]) {
                    live_sim[candidate] = was_live;
                    continue;
                }
                plan = plan.with(step, candidate, FaultAction::Crash);
                ledger.begin_quarantine(step, candidate);
            }
        }
        // Attacker-controlled churn timing: the adversary chooses crash and
        // rejoin rounds for its own workers from selection feedback instead
        // of following a pre-declared schedule.
        if self.config.adaptive_churn && self.config.byzantine_count > 0 {
            let model = self.server.parameters();
            let ctx = Self::attack_context(&self.config, model, &[], step, history);
            let directives = self.config.attack.plan_churn(&ctx);
            for directive in directives {
                let (worker, action) = match directive {
                    ChurnDirective::Crash(w) => (w, FaultAction::Crash),
                    ChurnDirective::Rejoin(w) => (w, FaultAction::Rejoin),
                };
                // The adversary only controls its own workers — a directive
                // naming an honest slot is ignored — and a quarantined slot
                // stays evicted: the ledger's Crash outranks the adversary's
                // Rejoin.
                let quarantined =
                    self.reputation.as_ref().is_some_and(|ledger| ledger.is_quarantined(worker));
                let attacker =
                    self.workers.get(worker).is_some_and(|w| w.role() == WorkerRole::Attacker);
                if attacker && !quarantined {
                    plan = plan.with(step, worker, action);
                }
            }
        }
        let transitions = self.membership.apply_round(&plan, step);
        // Tree mode fences per group: a crash or rejoin bumps only the epoch
        // of the group it happened in, so view changes never invalidate
        // in-flight rounds of untouched groups. The flat tier fences at the
        // view's epoch.
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
            // The server side of every link fences at this worker's epoch.
            // Live workers that did not just rejoin have taken part in the
            // view change and stamp it too; a rejoiner still carries the
            // epoch it crashed with, so its first round back is fenced, and
            // it syncs at the next round's broadcast.
            worker.set_transport_expected_epoch(Some(epoch));
            if self.membership.health(id).is_live() && !transitions.rejoined.contains(&id) {
                worker.set_transport_epoch(epoch);
            }
        }
        record.epoch = self.membership.epoch();
        // Every transition re-derives the active rule's floor: a live set
        // that cannot seat it voids the resilience proof, so the server
        // refuses the round instead of aggregating on borrowed assumptions.
        let quarantined = self.reputation.as_ref().map_or(0, ReputationLedger::quarantined_count);
        let f_eff = self.config.gar.f.saturating_sub(quarantined);
        let live = |w| self.membership.health(w).is_live();
        if Self::floor_holds(&self.config, self.tree_plan.as_ref(), f_eff, live) {
            return true;
        }
        record.verdict = RoundVerdict::Refused;
        // The held model is still broadcast, so the clock pays for the round.
        record.round_wait_sec = self.broadcast_time();
        false
    }

    /// Gradients: compute, craft, send. Phase 1 fans the live honest (and
    /// data-poisoned) workers out over rayon; each computes its gradient
    /// into its own arena row. In a round with a live attacker, Phase 2 has
    /// the adversary craft the attacker rows from borrowed views of the
    /// honest rows, as computed. Phase 3 sends every live row in place over
    /// its worker's transport, in one parallel region. Fills the record's
    /// wire outcomes and returns every slot's simulated arrival time.
    fn gradients(&mut self, history: &[RoundRecord], record: &mut RoundRecord) -> Result<Vec<f64>> {
        let (step, n, dim_scale) = (record.step, self.workers.len(), self.dim_scale());

        // Phase 1: worker `i` computes straight into arena row `i` (disjoint
        // mutable slices), results are collected in worker-id order, and
        // every worker draws only from its own RNG streams — so the round is
        // deterministic under any schedule, including which thread claims
        // which run of workers. Every worker computes at one node rate.
        self.pipeline.begin_round(n);
        let params = self.server.parameters();
        let (membership, cost) = (&self.membership, self.config.cost);
        let node_flops = Node::grid5000_cpu(0).flops_per_sec;
        let encode = match replicates_batches(self.config.gar, self.config.tree) {
            true => REPLICATION_ENCODE_FACTOR,
            false => 1.0,
        };
        let run_worker = |(worker, row): (&mut Worker, &mut [f32])| -> Result<Option<f64>> {
            if !membership.health(worker.id()).is_live() || worker.role() == WorkerRole::Attacker {
                // Crashed workers compute and submit nothing; attackers are
                // crafted centrally in Phase 2 (their channels are
                // "arbitrarily fast" and never extend the round).
                return Ok(None);
            }
            let compute_sec = worker.compute_into(params, row, |model, batch| {
                cost.gradient_time(model.flops_per_sample(), batch, node_flops) * encode
            })?;
            Ok(Some(compute_sec))
        };
        let jobs: Vec<(&mut Worker, &mut [f32])> =
            self.workers.iter_mut().zip(self.pipeline.arena_mut().rows_mut()).collect();
        let computed: Vec<Result<Option<f64>>> = jobs.into_par_iter().map(run_worker).collect();
        let mut arrival_sec = vec![0.0f64; n];
        for (slot, result) in computed.into_iter().enumerate() {
            arrival_sec[slot] = result?.unwrap_or(0.0);
        }

        // Phase 2: a live attacker's adversary crafts one submission per slot
        // of its roster straight into the roster's arena rows, seeing every
        // live honest gradient as a borrowed view of its arena row (§3.1's
        // omniscient attacker, without cloning a coordinate), before the wire
        // touches any of them. Honest ids are exactly `0..roster.start`, so
        // the arena splits there into the honest views and the attacker rows,
        // and roster slot `s` owns row `s`.
        let roster = n - self.config.byzantine_count..n;
        let membership = &self.membership;
        let live = |w| membership.health(w).is_live();
        let attacking =
            roster.clone().any(|w| self.workers[w].role() == WorkerRole::Attacker && live(w));
        if attacking {
            let mut rows = self.pipeline.arena_mut().rows_mut();
            let (honest_rows, attacker_rows) = rows.split_at_mut(roster.start);
            let honest: Vec<&[f32]> =
                (0..roster.start).filter(|&w| live(w)).map(|w| &*honest_rows[w]).collect();
            let model = self.server.parameters();
            let ctx = Self::attack_context(&self.config, model, &honest, step, history);
            self.config.attack.craft_into(&ctx, attacker_rows);
        }

        // Phase 3: every live slot sends its row in place over its own
        // transport. A reliable send only prices the row, so the sends fan
        // out only when the lossy ones, which encode and assemble their row,
        // clear the gate.
        let sends: Vec<(&mut Worker, &mut [f32])> = self
            .workers
            .iter_mut()
            .zip(self.pipeline.arena_mut().rows_mut())
            .filter(|(worker, _)| live(worker.id()))
            .collect();
        let lossy_sends =
            sends.iter().filter(|(worker, _)| lossy_link(&self.config, worker.id())).count();
        let send = |(worker, row): (&mut Worker, &mut [f32])| {
            let attacker = worker.role() == WorkerRole::Attacker;
            Ok((worker.id(), attacker, worker.send_in_place(step, row)?))
        };
        let sent: Vec<Result<(usize, bool, RowTransfer)>> =
            if lossy_sends.saturating_mul(self.actual_dimension) >= PARALLEL_MIN_WORK {
                sends.into_par_iter().map(send).collect()
            } else {
                sends.into_iter().map(send).collect()
            };
        record.wire = vec![None; n];
        for result in sent {
            let (slot, attacker, transfer) = result?;
            record.wire[slot] = Some(SlotWire::from(&transfer));
            // An attacker's channel is "arbitrarily fast": only a computed
            // row's send extends its arrival.
            if !attacker {
                arrival_sec[slot] += transfer.time_sec * dim_scale;
            }
        }
        // The straggler knob and slow-by demotions stretch the simulated
        // arrival times (Byzantine submissions included — their channels are
        // only "arbitrarily fast" by default).
        for (slot, sec) in arrival_sec.iter_mut().enumerate() {
            if let Some(delay) = self.config.worker_extra_delay_sec.get(slot) {
                *sec += delay;
            }
            if let WorkerHealth::Slowed { delay_sec } = self.membership.health(slot) {
                *sec += delay_sec;
            }
        }
        // The distinct mini-batches submitted, delivered or not: a replicating
        // group's copies of one batch share a stream, and streams are
        // nondecreasing in slot order.
        let mut last = None;
        record.batches = (record.wire.iter().zip(&self.streams))
            .filter(|&(wire, &stream)| wire.is_some() && last.replace(stream) != Some(stream))
            .count() as u64;
        Ok(arrival_sec)
    }

    /// Quorum cut: the delivered rows in simulated arrival order (slot id
    /// breaking ties), the first `quorum` accepted and the rest dropped
    /// exactly like a transport loss. The quorum counts the *live* workers:
    /// under churn, `n − f` means all but `f` of the view. Under the default
    /// `All` policy every delivered row is accepted and the round waits for
    /// the slowest worker, delivered or not; a quorum round stops the clock
    /// at its last accepted arrival — the stragglers' remaining time is its
    /// saving.
    fn quorum_cut(&mut self, arrival_sec: &[f64], record: &mut RoundRecord) {
        let live = self.membership.live_count();
        let quorum = self.config.streaming.quorum.accept_count(live, declared_f(&self.config));
        let mut arrivals: Vec<usize> = (0..arrival_sec.len())
            .filter(|&slot| record.wire[slot].is_some_and(|wire| wire.delivered))
            .collect();
        arrivals.sort_by(|&a, &b| arrival_sec[a].total_cmp(&arrival_sec[b]).then(a.cmp(&b)));
        let accepted = &arrivals[..quorum.min(arrivals.len())];
        let slowest = if accepted.len() == arrivals.len() {
            arrival_sec.iter().copied().fold(0.0f64, f64::max)
        } else {
            accepted.iter().map(|&slot| arrival_sec[slot]).fold(0.0f64, f64::max)
        };
        record.round_wait_sec = self.broadcast_time() + slowest;
        // The cut only decides which rows count. Their distances are taken
        // by the aggregate stage's one parallel batch pass over the accepted
        // rows; the simulated clock charges that work the same whatever
        // order the rows arrived in.
        record.accepted = accepted.to_vec();
        record.accepted.sort_unstable();
    }

    /// Ledger: the reputation fold runs *before* aggregation. Every evidence
    /// stream of the round is decided at the quorum cut, and folding here
    /// lets the containment reshuffle re-seat a colluding clique before the
    /// round's tree is even formed — so a readmitted colluder is re-contained
    /// with zero exposure.
    fn ledger(&mut self, history: &[RoundRecord], record: &RoundRecord) -> Result<()> {
        let Some(ledger) = self.reputation.as_mut() else { return Ok(()) };
        let (step, cfg) = (record.step, *ledger.config());
        // Collusion-affinity sketches over the delivered arena rows
        // (slot-indexed, like the arena itself).
        let arena = self.pipeline.arena();
        let rows: Vec<Option<&[f32]>> = (0..record.wire.len())
            .map(|w| record.wire[w].is_some_and(|wire| wire.delivered).then(|| arena.row(w)))
            .collect();
        let colluding = reputation::collusion_flags(
            &rows,
            &self.affinity_sample,
            cfg.affinity_epsilon,
            cfg.affinity_min_cluster,
        );
        // Workers the ledger readmitted this round: their fenced first-round
        // packets are by design, not stale-epoch evidence.
        let readmitted = |w| {
            let mut this_round = ledger.events().iter().rev().take_while(|e| e.round == step);
            this_round.any(|e| e.worker == w && e.change == StandingChange::Readmitted)
        };
        // Selection-exclusion evidence: the slots the previous non-refused
        // round accepted but its selection passed over. A refused round never
        // folds the ledger, so it leaves this evidence to the next one that
        // does.
        let last = history.iter().rev().find(|r| r.verdict != RoundVerdict::Refused);
        let excluded = |w| {
            last.is_some_and(|r| {
                let accepted = r.accepted.binary_search(&w).is_ok();
                r.selection.as_ref().is_some_and(|s| accepted && !s.contains(&w))
            })
        };
        let evidence: Vec<RoundEvidence> = (0..record.wire.len())
            .map(|w| {
                let wire = record.wire[w].unwrap_or_default();
                RoundEvidence {
                    corrupt: wire.corrupt_rejects > 0,
                    stale: wire.stale_epoch_rejects > 0 && !readmitted(w),
                    exhausted: wire.retransmit_exhausted,
                    straggled: wire.delivered && record.accepted.binary_search(&w).is_err(),
                    excluded: excluded(w),
                    colluding: colluding[w],
                }
            })
            .collect();
        ledger.observe(step, &evidence);
        // Epoch-boundary containment reshuffle of the tree tier: re-seat the
        // most-suspect workers into sacrificial groups whose per-level f
        // budget covers them, then bump every group's epoch — a view change
        // for the whole tier.
        if cfg.reshuffle_every > 0 && step % cfg.reshuffle_every == 0 {
            if let Some(plan) = &mut self.tree_plan {
                let sizes: Vec<usize> = plan.sizes().collect();
                // Quarantined/crashed slots deliver nothing; the placement
                // must know, or it will starve a group below its floor by
                // piling dead seats into it.
                let live: Vec<bool> =
                    (0..self.workers.len()).map(|w| self.membership.health(w).is_live()).collect();
                let next = reputation::containment_assignment(
                    ledger.scores(),
                    &live,
                    &sizes,
                    cfg.suspect_cutoff,
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
        Ok(())
    }

    /// Aggregate: the round's one entry for the flat, sharded and tree tiers
    /// over the accepted slots, which are arena row ids — the rule, the
    /// optimizer step and the selection, all read where the rows landed. An
    /// error before the tree legs shipped comes back as a round that waited
    /// for no leg; the charge stage tells a skip from a failure.
    fn aggregate(&mut self, record: &RoundRecord) -> Aggregation {
        let rows = &record.accepted;
        // The group id of every accepted row, in row-list order — the tree
        // tier's counterpart of the distance matrix.
        let groups: Option<Vec<usize>> = self
            .tree_plan
            .as_ref()
            .map(|plan| rows.iter().map(|&slot| plan.group_of(slot)).collect());
        let aggregation = match (groups, self.config.tree) {
            _ if rows.is_empty() => {
                Err(PsError::Aggregation("no submissions survived the transport".into()))
            }
            (Some(groups), Some(tree)) => self.aggregate_tree(record.step, rows, &groups, tree),
            _ => self.aggregate_flat(rows),
        };
        aggregation.unwrap_or_else(|error| Aggregation {
            kernel_sec: Err(error),
            wire_wait: 0.0,
            selection: None,
        })
    }

    /// The flat and sharded round over the accepted rows: one server round,
    /// which runs the rule's one distance pass (the parallel batch kernel,
    /// or the sharded partials) and hands back the aggregate's selection
    /// with the outcome. The rule is charged the accepted rows over one
    /// shard's columns: every shard runs on its own node (all columns when
    /// S = 1).
    fn aggregate_flat(&mut self, rows: &[usize]) -> Result<Aggregation> {
        let (_, selection) = self.server.apply_round_over(self.pipeline.arena(), rows, None)?;
        let node_dim = self.config.cost.effective_dimension(self.actual_dimension);
        let node_dim = node_dim.div_ceil(self.config.shards);
        let kernel_sec = CostModel::aggregation_time(self.config.gar, rows.len(), node_dim)?;
        Ok(Aggregation { kernel_sec: Ok(kernel_sec), wire_wait: 0.0, selection })
    }

    /// The hierarchical round: the group stage over the accepted rows, each
    /// group reading its members where they landed, the group outputs
    /// shipped root-ward over the per-group links (chaos, retransmit and all
    /// — a dropped output leaves the root one input fewer), then the root
    /// rule and the optimizer step. The kernel charge is the slowest group
    /// (the groups run on their own nodes in parallel) plus the root over
    /// the delivered outputs; the selection is read off the group stage that
    /// ran, not a second one.
    fn aggregate_tree(
        &mut self,
        step: u64,
        rows: &[usize],
        groups: &[usize],
        tree: TreeConfig,
    ) -> Result<Aggregation> {
        let dim = self.config.cost.effective_dimension(self.actual_dimension);
        let round = self.server.tree_group_outputs_over(self.pipeline.arena(), rows, groups)?;
        let mut group_sec = 0.0f64;
        for group in &round.outputs {
            let sec = CostModel::aggregation_time(tree.group, group.members.len(), dim)?;
            group_sec = group_sec.max(sec);
        }
        let (n, dim_scale) = (self.workers.len(), self.dim_scale());
        let mut wire_wait = 0.0f64;
        let mut delivered = Vec::with_capacity(round.outputs.len());
        for output in &round.outputs {
            let link = &mut self.tree_links[output.group];
            let outcome = link
                .transfer((n + output.group) as u32, step, &output.output)
                .map_err(PsError::from)?;
            wire_wait = wire_wait.max(outcome.time_sec * dim_scale);
            delivered.extend(outcome.gradient);
        }
        let kernel_sec = self
            .server
            .apply_round_tree_outputs(&delivered)
            .and_then(|_| CostModel::aggregation_time(tree.root, delivered.len(), dim))
            .map(|root_sec| group_sec + root_sec);
        let selection = match kernel_sec {
            Ok(_) => self.server.tree_selected_rows_of(&round)?,
            Err(_) => None,
        };
        Ok(Aggregation { kernel_sec, wire_wait, selection })
    }

    /// Charge: the verdict, and the round's seconds beyond the wait — the
    /// counted kernel plus the optimizer step for an applied round, nothing
    /// for a round the rule's precondition skipped. The tree legs' wait
    /// joins the round's wait either way.
    fn charge(&self, aggregation: Aggregation, record: &mut RoundRecord) -> Result<()> {
        record.round_wait_sec += aggregation.wire_wait;
        match aggregation.kernel_sec {
            Ok(kernel_sec) => {
                record.aggregation_sec =
                    kernel_sec + self.config.cost.update_time(self.actual_dimension);
                record.selection = aggregation.selection;
            }
            Err(PsError::Aggregation(_)) => record.verdict = RoundVerdict::Skipped,
            Err(other) => return Err(other),
        }
        Ok(())
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
                tree.check(live_sizes).is_ok()
            }
            _ => live_workers.count() >= resilience::resilience_floor(config.gar.kind, f_eff),
        }
    }

    /// Evaluates test accuracy at the current parameters and records a trace
    /// point at the report's clock. Evaluation runs on the dedicated
    /// evaluator node, out of band, so it does not advance the simulated
    /// clock (matching the paper's `/job:eval` design).
    fn evaluate(&self, report: &mut TrainingReport) -> Result<()> {
        let (batch, labels) = &self.eval_batch;
        let params = self.server.parameters().as_slice();
        let out = self.eval_model.evaluate_loss_at(params, batch, labels).map_err(PsError::from)?;
        let accuracy = out.correct_predictions as f64 / labels.len().max(1) as f64;
        report.trace.record(TracePoint {
            step: self.server.step(),
            time_sec: report.simulated_time_sec,
            accuracy,
            loss: out.loss as f64,
        });
        Ok(())
    }
}

/// What the run tolerates: the flat rule's declared `f`, or the composed
/// bound `(f_group + 1)(f_root + 1) − 1` of the tree tier. Quorum accounting
/// and the adversary's declared-f knowledge both see this figure.
fn declared_f(config: &RunnerConfig) -> usize {
    config.tree.map_or(config.gar.f, |tree| tree.composed_max_f())
}

/// Whether worker `id`'s link is one of the last `lossy_links`, the ones the
/// configured loss rate, chaos and retransmit apply to.
fn degraded_link(config: &RunnerConfig, id: usize) -> bool {
    id >= config.workers.saturating_sub(config.lossy_links)
}

/// Whether worker `id` sends over the lossy transport, which encodes its row
/// and assembles what arrives back into it: work that scales with d, where
/// a reliable send only prices the row.
fn lossy_link(config: &RunnerConfig, id: usize) -> bool {
    matches!(config.transport, TransportKind::Lossy { .. }) && degraded_link(config, id)
}

/// Whether the rule that votes over the workers' rows — the group rule of a
/// tree, else the flat rule — needs its voters to compute one mini-batch
/// ([`agg_core::GarKind::replicates_batches`]).
fn replicates_batches(gar: GarConfig, tree: Option<TreeConfig>) -> bool {
    tree.map_or(gar, |tree| tree.group).kind.replicates_batches()
}

/// Cost-only simulation of aggregator throughput (Figures 4 and 5), in closed
/// form: no model is trained and no gradient is aggregated — one round's
/// computation, communication and counted aggregation are charged from the
/// cost model, as the engine charges them.
#[derive(Debug, Clone)]
pub struct ThroughputSimulation {
    /// Number of workers `n`.
    pub workers: usize,
    /// GAR under test (the root rule of a tree).
    pub gar: GarConfig,
    /// The two-level tier, whose root must be `gar`; `None` for the flat
    /// round. [`TreeConfig::repetition`] is Draco.
    pub tree: Option<TreeConfig>,
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
    /// Returns [`PsError::InvalidConfig`] for zero workers or dimension or a
    /// tree whose root is not `gar`, and [`PsError::Aggregation`] when the
    /// rule's resilience precondition (a tree's composed one) cannot be met
    /// with the configured worker count.
    pub fn run(&self) -> Result<ThroughputResult> {
        if self.workers == 0 || self.proxy_dimension == 0 {
            return Err(PsError::InvalidConfig(
                "workers and proxy_dimension must be positive".into(),
            ));
        }
        let node = Node::grid5000_cpu(0);
        let dim = self.cost.effective_dimension(self.proxy_dimension);
        // A tree round is charged its slowest group plus the root over the
        // contributing groups; under a replicating rule each contributing
        // group (the flat roster is one) yields one batch.
        let (groups, kernel_sec) = match self.tree {
            None => (1, CostModel::aggregation_time(self.gar, self.workers, dim)?),
            Some(tree) if tree.root != self.gar => {
                return Err(PsError::InvalidConfig(format!(
                    "the tree's root ({}) must be the simulated rule ({})",
                    tree.root, self.gar
                )))
            }
            Some(tree) => {
                let plan = GroupPlan::new(self.workers, tree.group_size).map_err(PsError::from)?;
                tree.check(plan.sizes()).map_err(PsError::from)?;
                let groups: Vec<usize> =
                    plan.sizes().filter(|&size| size >= tree.group_floor()).collect();
                let mut slowest_group = 0.0f64;
                for &size in &groups {
                    slowest_group =
                        slowest_group.max(CostModel::aggregation_time(tree.group, size, dim)?);
                }
                let root = CostModel::aggregation_time(tree.root, groups.len(), dim)?;
                (groups.len(), slowest_group + root)
            }
        };
        let aggregation_time = kernel_sec + self.cost.update_time(self.proxy_dimension);

        let (batches, encode) = match replicates_batches(self.gar, self.tree) {
            true => (groups, REPLICATION_ENCODE_FACTOR),
            false => (self.workers, 1.0),
        };
        let compute = self.cost.gradient_time(1, self.batch_size, node.flops_per_sec) * encode;
        let gradient_bytes = self.cost.payload_bytes(self.proxy_dimension);
        let comm = 2.0 * self.link.transfer_time(gradient_bytes);
        let compute_comm = compute + comm;
        let round_time = compute_comm + aggregation_time;
        Ok(ThroughputResult {
            batches_per_sec: batches as f64 / round_time,
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
    fn a_selecting_rule_reports_its_selection_without_attackers() {
        // Static Bulyan at its floor n = 4f + 3, no Byzantine slot: the
        // selection is still read off every applied round.
        let mut config = quick_config(GarKind::Bulyan, 2, 11);
        config.max_steps = 12;
        let report = SyncTrainingEngine::new(config).unwrap().run().unwrap();
        assert_eq!(report.steps_completed, 12);
        for record in &report.rounds {
            assert_eq!(record.verdict, RoundVerdict::Applied);
            let selection = record.selection.as_ref().expect("Bulyan selects");
            assert_eq!(selection.len(), 11 - 2 * 2);
            assert!(selection.iter().all(|slot| record.accepted.binary_search(slot).is_ok()));
        }
    }

    #[test]
    fn worker_roles_follow_the_configuration() {
        let mut config = quick_config(GarKind::MultiKrum, 2, 7);
        config.byzantine_count = 2;
        config.attack = AttackKind::Random { magnitude: 10.0 };
        let engine = SyncTrainingEngine::new(config).unwrap();
        let roles: Vec<WorkerRole> = engine.workers.iter().map(Worker::role).collect();
        assert_eq!(roles.iter().filter(|r| r.is_byzantine()).count(), 2);
        assert_eq!(roles[0], WorkerRole::Honest);
        assert_eq!(roles[6], WorkerRole::Attacker);
        assert_eq!(roles.len(), 7);
        assert!(engine.actual_dimension > 0);
    }

    #[test]
    fn data_poisoning_creates_data_poisoned_workers() {
        let mut config = quick_config(GarKind::MultiKrum, 1, 7);
        config.byzantine_count = 1;
        config.data_poisoning = Some(agg_data::corruption::Corruption::LabelShift);
        let engine = SyncTrainingEngine::new(config).unwrap();
        assert_eq!(
            engine.workers.iter().filter(|w| w.role() == WorkerRole::DataPoisoned).count(),
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
        // Multi-Krum with f = 4 needs 11 rows. The roster seats it, but one
        // link drops every packet, so every round reaches the rule with 10
        // rows and is rejected and skipped rather than crashing the run.
        let mut config = quick_config(GarKind::MultiKrum, 4, 11);
        config.max_steps = 5;
        config.transport = TransportKind::Lossy { policy: LossPolicy::DropGradient };
        config.lossy_links = 1;
        config.link = LinkConfig::datacenter().with_drop_rate(1.0);
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
        let sharded = SyncTrainingEngine::new(config).unwrap().run().unwrap();
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
        use crate::membership::{FaultAction, FaultPlan};
        // Bulyan f=4 has floor 4f+3 = 19: one crash among 19 workers drops
        // the live set below it until the rejoin.
        let mut config = quick_config(GarKind::Bulyan, 4, 19);
        config.max_steps = 8;
        config.fault_plan =
            FaultPlan::empty().with(2, 5, FaultAction::Crash).with(5, 5, FaultAction::Rejoin);
        let held = SyncTrainingEngine::new(config).unwrap().run().unwrap();
        // Rounds 2, 3, 4 are refused (18 < 19). Round 5 passes the floor
        // again but the rejoiner is fenced, so Bulyan sees 18 rows and the
        // round is skipped by the GAR precondition — the two degradations
        // stay distinguishable in the report.
        assert_eq!(held.refused_rounds, 3);
        assert_eq!(held.skipped_updates, 1);
        assert_eq!(held.steps_completed, 8 - 3 - 1);
        assert!(held.stale_epoch_rejects > 0);
        let verdicts = |report: &TrainingReport| -> Vec<RoundVerdict> {
            report.rounds.iter().map(|round| round.verdict).collect()
        };
        let (applied, skipped) = (RoundVerdict::Applied, RoundVerdict::Skipped);
        let refused = RoundVerdict::Refused;
        let expected = [applied, applied, refused, refused, refused, skipped, applied, applied];
        assert_eq!(verdicts(&held), expected);

        // The server still broadcasts the held model, so the refused rounds
        // are charged.
        assert_eq!(held.rounds.len(), 8);
        let broadcast = held.rounds[2].round_wait_sec;
        assert!(broadcast > 0.0 && held.rounds[3..5].iter().all(|r| r.round_wait_sec == broadcast));
    }

    #[test]
    fn the_adversary_crafts_for_its_configured_roster_under_churn() {
        use crate::membership::{FaultAction, FaultPlan};
        // Attackers are slots 7 and 8 of 9, and one of them crashes at round
        // 1. Adaptive: slot 7 was selected in round 0, so it must press its
        // advantage; read as a roster of one, slot 8 alone would look
        // excluded. Random: live slot 8 must send its own row (seed k = 1),
        // not the first row of a one-slot roster.
        let cases = [(AttackKind::Adaptive, 8, 7), (AttackKind::Random { magnitude: 10.0 }, 7, 8)];
        for (attack, crashed, sender) in cases {
            let mut config = quick_config(GarKind::MultiKrum, 2, 9);
            config.byzantine_count = 2;
            config.attack = attack;
            config.fault_plan = FaultPlan::empty().with(1, crashed, FaultAction::Crash);
            let mut engine = SyncTrainingEngine::new(config.clone()).unwrap();
            let history = [RoundRecord { selection: Some(vec![7, 0, 1]), ..Default::default() }];
            let mut record = RoundRecord { step: 1, ..Default::default() };
            assert!(engine.advance_membership(&history, &mut record));
            engine.gradients(&history, &mut record).unwrap();
            assert_eq!(record.wire[crashed], None, "{attack:?}: a crashed slot sends nothing");
            let arena = engine.pipeline.arena();
            let honest: Vec<&[f32]> = (0..7).map(|w| arena.row(w)).collect();
            let roster = AttackContext {
                honest_gradients: &honest,
                model: engine.server.parameters(),
                byzantine_count: 2,
                declared_f: 2,
                step: 1,
                seed: config.seed,
                total_workers: 9,
                previous_selection: Some(&[7, 0, 1]),
            };
            let crafted = config.attack.craft(&roster);
            assert_eq!(arena.row(sender), crafted[sender - 7].as_slice(), "{attack:?}");
        }
    }

    #[test]
    fn the_adversary_crafts_from_the_computed_gradients_not_the_assembled_rows() {
        // Four honest workers and one sign-flip attacker, every link lossy at
        // 30 % drop under `SelectiveNan`, so a lost coordinate arrives as NaN.
        // The same config over reliable links leaves each honest row as
        // computed. The attacker's row, wherever it arrived, must be the
        // craft over those computed rows — sending the honest rows before
        // the craft would have put NaN into every coordinate any honest
        // link lost.
        let mut reliable = quick_config(GarKind::MultiKrum, 1, 5);
        reliable.byzantine_count = 1;
        reliable.attack = AttackKind::SignFlip;
        let lossy = RunnerConfig {
            transport: TransportKind::Lossy { policy: LossPolicy::SelectiveNan },
            lossy_links: 5,
            link: LinkConfig::datacenter().with_drop_rate(0.3),
            ..reliable.clone()
        };
        let first_round = |config: RunnerConfig| {
            let mut engine = SyncTrainingEngine::new(config).unwrap();
            let mut record = RoundRecord::default();
            assert!(engine.advance_membership(&[], &mut record));
            engine.gradients(&[], &mut record).unwrap();
            assert!(record.wire.iter().all(|wire| wire.is_some_and(|w| w.delivered)));
            let rows: Vec<Vec<f32>> = engine.pipeline.arena().rows().map(<[f32]>::to_vec).collect();
            (rows, engine.server.parameters().clone())
        };
        let (computed, model) = first_round(reliable.clone());
        let (assembled, _) = first_round(lossy);
        let craft = |honest: &[Vec<f32>]| {
            let honest: Vec<&[f32]> = honest.iter().map(Vec::as_slice).collect();
            let ctx = AttackContext {
                honest_gradients: &honest,
                model: &model,
                byzantine_count: 1,
                declared_f: 1,
                step: 0,
                seed: reliable.seed,
                total_workers: 5,
                previous_selection: None,
            };
            reliable.attack.craft(&ctx).remove(0)
        };
        let from_computed = craft(&computed[..4]);
        let from_assembled = craft(&assembled[..4]);
        assert_eq!(computed[4], from_computed.as_slice().to_vec(), "reliable links send it as is");
        let (mut arrived, mut lost_upstream) = (0, 0);
        for (c, &got) in assembled[4].iter().enumerate() {
            if got.is_nan() {
                continue;
            }
            arrived += 1;
            assert_eq!(got.to_bits(), from_computed[c].to_bits(), "coordinate {c}");
            lost_upstream += usize::from(from_assembled[c].is_nan());
        }
        assert!(arrived > 0 && lost_upstream > 0, "{arrived} arrived, {lost_upstream} lost");
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
        let report = SyncTrainingEngine::new(config).unwrap().run().unwrap();
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
        let verdicts: Vec<RoundVerdict> = report.rounds.iter().map(|r| r.verdict).collect();
        let mut expected = vec![RoundVerdict::Applied; 10];
        expected[3..6].fill(RoundVerdict::Refused);
        expected[6] = RoundVerdict::Skipped;
        assert_eq!(verdicts, expected);
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
            tree: None,
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
            tree: None,
        };
        assert!(matches!(sim.run(), Err(PsError::InvalidConfig(_))));
        // Below the rule's floor the error is the resilience precondition's.
        let bulyan =
            ThroughputSimulation { workers: 18, gar: GarConfig::new(GarKind::Bulyan, 4), ..sim };
        assert!(matches!(bulyan.run(), Err(PsError::Aggregation(e)) if e.contains("bulyan")));
    }

    /// `rounds` copies of `per_round` summed in order, the way
    /// [`TrainingReport::aggregation_sec`] walks the records.
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
        assert_eq!(report.aggregation_sec(), summed(per_round, 3));
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
        assert_eq!(report.aggregation_sec(), summed(per_round, 3));
    }

    /// Draco's repetition code with `f` over `workers`: the engine's round
    /// over [`TreeConfig::repetition`], against the reversed-gradient
    /// adversary of the paper's comparison.
    fn draco_config(workers: usize, f: usize) -> RunnerConfig {
        let tree = TreeConfig::repetition(f);
        RunnerConfig {
            gar: tree.root,
            tree: Some(tree),
            max_steps: 40,
            eval_every: 10,
            attack: AttackKind::Reversed { scale: 100.0 },
            ..quick_config(GarKind::Average, 0, workers)
        }
    }

    /// Closed-form Draco throughput at `n = 18`, `b = 100`, charged as the
    /// paper CNN.
    fn draco_throughput(f: usize) -> Result<ThroughputResult> {
        let tree = TreeConfig::repetition(f);
        ThroughputSimulation {
            workers: 18,
            gar: tree.root,
            tree: Some(tree),
            batch_size: 100,
            cost: CostModel::paper_like().with_virtual_model(VirtualModelCost::paper_cnn()),
            link: LinkConfig::datacenter(),
            proxy_dimension: 1_756_426,
        }
        .run()
    }

    #[test]
    fn draco_trains_without_byzantine_workers() {
        let report = SyncTrainingEngine::new(draco_config(6, 1)).unwrap().run().unwrap();
        assert_eq!(report.steps_completed, 40);
        assert_eq!(report.skipped_updates, 0);
        assert!(report.final_accuracy() > 0.6, "accuracy {}", report.final_accuracy());
    }

    #[test]
    fn draco_recovers_exactly_under_tolerated_attack() {
        // Worker 8 is one traitor in its group of three: the vote removes it
        // entirely, so the run is the clean run, trace point for trace point.
        let clean = SyncTrainingEngine::new(draco_config(9, 1)).unwrap().run().unwrap();
        let mut config = draco_config(9, 1);
        config.byzantine_count = 1;
        let report = SyncTrainingEngine::new(config).unwrap().run().unwrap();
        assert_eq!(report.skipped_updates, 0);
        assert_eq!(report.trace.points(), clean.trace.points());
        assert!(report.final_accuracy() > 0.6, "accuracy {}", report.final_accuracy());
    }

    #[test]
    fn colluding_traitors_beyond_the_code_break_the_group() {
        // Workers 7 and 8 share the last group of three and send the same
        // crafted row: they are its majority, which is exactly the boundary
        // the code documents. Training quality collapses.
        let mut config = draco_config(9, 1);
        config.byzantine_count = 2;
        let report = SyncTrainingEngine::new(config).unwrap().run().unwrap();
        assert!(
            report.final_accuracy() < 0.6,
            "the decoded attack gradient should prevent clean convergence, got {}",
            report.final_accuracy()
        );
    }

    #[test]
    fn draco_round_time_is_dominated_by_redundancy_and_decoding() {
        let mut config = draco_config(6, 1);
        config.cost = CostModel::paper_like().with_virtual_model(VirtualModelCost::paper_cnn());
        let report = SyncTrainingEngine::new(config.clone()).unwrap().run().unwrap();
        // Each round decodes one group of three and averages the two
        // decoded gradients.
        let dim = VirtualModelCost::paper_cnn().dimension;
        let tree = config.tree.unwrap();
        let per_round = CostModel::aggregation_time(tree.group, 3, dim).unwrap()
            + CostModel::aggregation_time(tree.root, 2, dim).unwrap()
            + config.cost.update_time(dim);
        assert_eq!(report.aggregation_sec(), summed(per_round, 40));
        assert!(report.aggregation_share() > 0.05);
        // The workers pay the encoding: against the same tree with a median
        // in every group, each round waits two more gradients.
        let median = TreeConfig { group: GarConfig::new(GarKind::Median, 1), ..tree };
        let plain = RunnerConfig { tree: Some(median), ..config.clone() };
        let plain = SyncTrainingEngine::new(plain).unwrap().run().unwrap();
        let gradient =
            config.cost.gradient_time(1, config.batch_size, Node::grid5000_cpu(0).flops_per_sec);
        for (draco, plain) in report.rounds.iter().zip(&plain.rounds) {
            let encoding = draco.round_wait_sec - plain.round_wait_sec;
            assert!((encoding - 2.0 * gradient).abs() < 1e-9, "{encoding} vs {gradient}");
        }
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(SyncTrainingEngine::new(draco_config(2, 1)).is_err());
        let mut c = draco_config(6, 1);
        c.byzantine_count = 10;
        assert!(SyncTrainingEngine::new(c).is_err());
        let mut c = draco_config(6, 1);
        c.batch_size = 0;
        assert!(SyncTrainingEngine::new(c).is_err());
    }

    #[test]
    fn assignment_accessor_matches_configuration() {
        let tree = TreeConfig::repetition(1);
        assert_eq!((tree.group_size, tree.group_floor(), tree.root_floor()), (3, 3, 1));
        // 9 workers: 3 repetition groups.
        assert!(SyncTrainingEngine::new(draco_config(9, 1)).is_ok());
    }

    #[test]
    fn throughput_is_an_order_of_magnitude_below_the_gar_systems() {
        // The paper reports ~48 batches/s for TensorFlow with 18 workers and
        // Draco "at least one order of magnitude slower".
        let draco = draco_throughput(4).unwrap().batches_per_sec;
        assert!(draco < 10.0, "Draco throughput {draco} should be far below the TF systems");
        assert!(draco > 0.1);
    }

    #[test]
    fn throughput_is_insensitive_to_f_compared_to_compute() {
        // Both configurations sit in the same low band (the paper observes
        // "changing the number of Byzantine workers does not have a
        // remarkable effect").
        let t1 = draco_throughput(1).unwrap().batches_per_sec;
        let t4 = draco_throughput(4).unwrap().batches_per_sec;
        assert!(t1 < 10.0 && t4 < 10.0);
        // f = 10 needs groups of 2f + 1 = 21 > 18 workers: no group decodes.
        assert!(matches!(draco_throughput(10), Err(PsError::Aggregation(_))));
    }

    #[test]
    fn throughput_simulation_requires_the_tree_root_to_be_the_rule() {
        let tree = TreeConfig::repetition(1);
        let sim = ThroughputSimulation {
            workers: 9,
            gar: GarConfig::new(GarKind::Median, 1),
            tree: Some(tree),
            batch_size: 10,
            cost: CostModel::paper_like(),
            link: LinkConfig::datacenter(),
            proxy_dimension: 100,
        };
        assert!(matches!(sim.run(), Err(PsError::InvalidConfig(_))));
        // Three groups of three: three decoded batches per round.
        let draco = ThroughputSimulation { gar: tree.root, ..sim }.run().unwrap();
        assert_eq!(draco.batches_per_sec * draco.round_time_sec, 3.0);
    }
}
