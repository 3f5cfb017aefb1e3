//! The traced run: a training loop built from the layers' public calls, in
//! the order `SyncTrainingEngine::run` makes them, with a span around each
//! call and a count at the same boundary.
//!
//! The loop is a port of `run()` for the knobs the workloads use (no data
//! poisoning, no attacker-timed churn, no virtual cost model). It trains for
//! real: the caller checks that its final model scores exactly what the
//! engine's does after the same rounds, so a call the engine makes and the
//! replay misses shows as a mismatch, not as a quietly smaller trace.
//!
//! Phase 1 runs the workers one after another (the traced child pins
//! `RAYON_NUM_THREADS=1`), so span wall time is CPU time.

use crate::spans::Tracer;
use agg_attacks::{Attack, AttackContext, AttackKind};
use agg_core::{resilience, TreeConfig};
use agg_data::{Dataset, MiniBatchSampler};
use agg_net::{
    ChaosPlan, GradientCodec, LinkConfig, LinkStats, LossyTransport, ReliableTransport, Transport,
};
use agg_nn::Sequential;
use agg_ps::cluster::Node;
use agg_ps::membership::{FaultAction, MembershipView, WorkerHealth};
use agg_ps::reputation::{self, ReputationLedger, RoundEvidence};
use agg_ps::server::RoundOutcome;
use agg_ps::{ParameterServer, PsError, RoundPipeline, RunnerConfig, TransportKind};
use agg_tensor::{GradientBatch, GroupPlan, Vector};
use std::sync::Arc;

type Result<T> = std::result::Result<T, PsError>;

/// One link of the configured wire and the span its transfers are filed
/// under.
struct Link {
    transport: Box<dyn Transport>,
    span: &'static str,
}

impl Link {
    /// Mirrors the engine's link builder: the trailing `lossy_links` links
    /// are degraded; chaos and retransmit live on the degraded links only.
    fn build(config: &RunnerConfig, stream: u64, degraded: bool) -> Result<Link> {
        let link =
            if degraded { config.link } else { LinkConfig { drop_rate: 0.0, ..config.link } };
        let codec = GradientCodec::default_mtu();
        match config.transport {
            TransportKind::Lossy { policy } if degraded => {
                let mut transport = LossyTransport::new(link, codec, policy, config.seed, stream)?;
                if let Some(chaos) = config.chaos {
                    transport.set_chaos(Some(ChaosPlan::new(chaos, config.seed)?));
                }
                if config.retransmit.is_some() {
                    transport.set_retransmit(config.retransmit);
                }
                let recovering = config.chaos.is_some() || config.retransmit.is_some();
                Ok(Link {
                    transport: Box::new(transport),
                    span: if recovering { "net.recovering_transfer" } else { "net.lossy_transfer" },
                })
            }
            _ => Ok(Link {
                transport: Box::new(ReliableTransport::new(link, codec)?),
                span: "net.reliable_transfer",
            }),
        }
    }
}

/// The counts every transfer leaves at the net boundary.
fn count_transfer(
    tracer: &mut Tracer,
    dimension: usize,
    delivered: bool,
    bytes_sent: usize,
    missing: usize,
    stats: LinkStats,
) {
    tracer.count("net.rows_sent", 1.0);
    tracer.count("net.rows_delivered", f64::from(u8::from(delivered)));
    tracer.count("net.payload_bytes", (dimension * 4) as f64);
    tracer.count("net.bytes_sent", bytes_sent as f64);
    tracer.count("net.packets_sent", stats.sent as f64);
    tracer.count("net.missing_coords", missing as f64);
}

struct Worker {
    id: usize,
    attacker: bool,
    model: Sequential,
    sampler: MiniBatchSampler,
    link: Link,
}

impl Worker {
    fn send(
        &mut self,
        tracer: &mut Tracer,
        step: u64,
        gradient: &[f32],
        dst: &mut [f32],
    ) -> Result<agg_net::RowTransfer> {
        let span = tracer.begin(self.link.span, Some(self.id));
        let transfer = self.link.transport.transfer_into(self.id as u32, step, gradient, dst)?;
        tracer.end(span);
        count_transfer(
            tracer,
            gradient.len(),
            transfer.delivered,
            transfer.bytes_sent,
            transfer.missing_coordinates,
            transfer.link_stats,
        );
        tracer.count("net.corrupt_rejects", transfer.corrupt_rejects as f64);
        tracer.count("net.retransmits", transfer.retransmits as f64);
        Ok(transfer)
    }
}

/// What one worker contributed to a round.
#[derive(Default)]
struct WorkerRound {
    honest_gradient: Option<Vector>,
    delivered: bool,
    worker_time: f64,
    stale_rejects: usize,
    corrupt_rejects: usize,
    retransmit_exhausted: bool,
}

/// The run counters the engine folds into its `TrainingReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub skipped: u64,
    pub refused: u64,
    pub stale_epoch_rejects: u64,
    pub corrupt_rejects: u64,
    pub retransmit_exhaustions: u64,
    pub byzantine_selected_rounds: u64,
    pub quarantines: u64,
    pub readmissions: u64,
}

/// The replayed training loop and its state between rounds.
pub struct Replay {
    config: RunnerConfig,
    server: ParameterServer,
    workers: Vec<Worker>,
    dataset: Arc<Dataset>,
    attack: Box<dyn Attack>,
    eval_model: Sequential,
    test_set: Dataset,
    dimension: usize,
    node_flops: f64,
    pipeline: RoundPipeline,
    membership: MembershipView,
    tree_plan: Option<GroupPlan>,
    tree_links: Vec<Link>,
    group_epochs: Vec<u32>,
    ledger: Option<ReputationLedger>,
    affinity_sample: Vec<usize>,
    previous_selection: Option<Vec<usize>>,
    prev_excluded: Vec<bool>,
    /// Counters accumulated over every round replayed so far.
    pub counters: Counters,
    /// The honest workers' pre-wire gradients of the last round.
    pub last_gradients: Vec<Vector>,
}

fn tree_floor_ok(plan: &GroupPlan, tree: &TreeConfig, live: &[bool]) -> bool {
    let mut live_sizes = vec![0usize; plan.group_count()];
    for (w, &is_live) in live.iter().enumerate() {
        if is_live {
            live_sizes[plan.group_of(w)] += 1;
        }
    }
    resilience::check_tree(tree.group.kind, tree.group.f, tree.root.kind, tree.root.f, live_sizes)
        .is_ok()
}

impl Replay {
    /// Builds the loop's state the way `SyncTrainingEngine::new` does.
    ///
    /// # Errors
    ///
    /// Returns [`PsError`] for an invalid configuration.
    pub fn new(config: RunnerConfig) -> Result<Self> {
        config.validate()?;
        assert!(
            config.data_poisoning.is_none()
                && !config.adaptive_churn
                && config.cost.virtual_model.is_none(),
            "the replay ports only the knobs the benchmark workloads use"
        );
        let (model, train, test_set) = config.experiment.build(config.seed)?;
        let dimension = model.param_count();
        let n = config.workers;
        let tree_plan = match &config.tree {
            Some(tree) => Some(GroupPlan::new(n, tree.group_size)?),
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

        let honest_count = n - config.byzantine_count;
        let mut workers = Vec::with_capacity(n);
        for id in 0..n {
            workers.push(Worker {
                id,
                attacker: id >= honest_count,
                model: config
                    .experiment
                    .build_model(agg_tensor::rng::derive_seed(config.seed, id as u64)),
                sampler: MiniBatchSampler::new(config.batch_size, config.seed, id as u64)?,
                link: Link::build(&config, id as u64, id >= n.saturating_sub(config.lossy_links))?,
            });
        }
        let tree_links = match &tree_plan {
            Some(plan) => (0..plan.group_count())
                .map(|gid| {
                    let degraded = plan.range(gid).end > n.saturating_sub(config.lossy_links);
                    Link::build(&config, (n + gid) as u64, degraded)
                })
                .collect::<Result<_>>()?,
            None => Vec::new(),
        };
        let group_epochs = tree_plan.as_ref().map_or_else(Vec::new, |p| vec![0; p.group_count()]);

        let mut pipeline = RoundPipeline::new(dimension, n);
        if config.streaming.enabled && config.gar.kind.uses_distances() && config.tree.is_none() {
            pipeline.enable_distance_streaming(n, dimension, config.shards)?;
        }
        let ledger = config.reputation.map(|cfg| ReputationLedger::new(cfg, n));
        let affinity_sample = config.reputation.map_or_else(Vec::new, |cfg| {
            reputation::affinity_sample_indices(config.seed, dimension, cfg.affinity_max_coords)
        });
        Ok(Replay {
            attack: config.attack.build(),
            server,
            workers,
            dataset: Arc::new(train),
            eval_model: model,
            test_set,
            dimension,
            node_flops: Node::grid5000_cpu(0).flops_per_sec,
            pipeline,
            membership: MembershipView::new(n),
            tree_plan,
            tree_links,
            group_epochs,
            ledger,
            affinity_sample,
            previous_selection: None,
            prev_excluded: vec![false; n],
            counters: Counters::default(),
            last_gradients: Vec::new(),
            config,
        })
    }

    /// Gradient dimension of the model being trained.
    pub fn dimension(&self) -> usize {
        self.dimension
    }

    /// The last round's compacted submissions arena.
    pub fn arena(&self) -> &GradientBatch {
        self.pipeline.arena()
    }

    /// Test accuracy and loss at the current parameters.
    ///
    /// # Errors
    ///
    /// Propagates model and dataset errors.
    pub fn evaluate(&mut self, tracer: &mut Tracer) -> Result<(f64, f64)> {
        let span = tracer.begin("nn.evaluate", None);
        self.eval_model.set_parameters(self.server.parameters())?;
        let (batch, labels) = self.test_set.head_batch(self.config.eval_samples)?;
        let out = self.eval_model.evaluate_loss(&batch, &labels)?;
        tracer.end(span);
        Ok((out.correct_predictions as f64 / labels.len().max(1) as f64, f64::from(out.loss)))
    }

    /// The start-of-round membership work of an elastic run: the ledger's
    /// readmissions and quarantines join the fault plan, the view advances,
    /// every link is re-stamped and the resilience floor re-derived.
    /// Returns whether the round may proceed.
    fn advance_membership(
        &mut self,
        step: u64,
        declared_f: usize,
        readmitted_now: &mut [bool],
    ) -> bool {
        let n = self.workers.len();
        let mut plan = self.config.fault_plan.clone();
        if let Some(ledger) = &mut self.ledger {
            for worker in ledger.due_for_readmission(step) {
                plan = plan.with(step, worker, FaultAction::Rejoin);
                ledger.readmit(step, worker);
                readmitted_now[worker] = true;
                self.counters.readmissions += 1;
            }
            let budget = match ledger.config().max_quarantined {
                0 => declared_f,
                cap => cap,
            };
            let mut live_sim: Vec<bool> =
                (0..n).map(|w| self.membership.health(w).is_live() || readmitted_now[w]).collect();
            for candidate in ledger.quarantine_candidates() {
                if ledger.quarantined_count() >= budget {
                    break;
                }
                let was_live = live_sim[candidate];
                live_sim[candidate] = false;
                let floor_ok = match (&self.tree_plan, &self.config.tree) {
                    (Some(tree_plan), Some(tree)) => tree_floor_ok(tree_plan, tree, &live_sim),
                    _ => {
                        let f_eff =
                            self.config.gar.f.saturating_sub(ledger.quarantined_count() + 1);
                        live_sim.iter().filter(|&&l| l).count()
                            >= resilience::resilience_floor(self.config.gar.kind, f_eff)
                    }
                };
                if !floor_ok {
                    live_sim[candidate] = was_live;
                    continue;
                }
                plan = plan.with(step, candidate, FaultAction::Crash);
                ledger.begin_quarantine(step, candidate);
                self.counters.quarantines += 1;
            }
        }
        let transitions = self.membership.apply_round(&plan, step);
        if let Some(plan) = &self.tree_plan {
            for &w in transitions.crashed.iter().chain(&transitions.rejoined) {
                self.group_epochs[plan.group_of(w)] += 1;
            }
        }
        for worker in &mut self.workers {
            let epoch = match &self.tree_plan {
                Some(plan) => self.group_epochs[plan.group_of(worker.id)],
                None => self.membership.epoch(),
            };
            worker.link.transport.set_expected_epoch(Some(epoch));
            if self.membership.health(worker.id).is_live()
                && !transitions.rejoined.contains(&worker.id)
            {
                worker.link.transport.set_epoch(epoch);
            }
        }
        match (&self.tree_plan, &self.config.tree) {
            (Some(plan), Some(tree)) => {
                let live: Vec<bool> = (0..n).map(|w| self.membership.health(w).is_live()).collect();
                tree_floor_ok(plan, tree, &live)
            }
            _ => {
                let quarantined = self.ledger.as_ref().map_or(0, |l| l.quarantined_count());
                self.membership.satisfies_floor(
                    self.config.gar.kind,
                    self.config.gar.f.saturating_sub(quarantined),
                )
            }
        }
    }

    /// One round of the loop, every layer call spanned.
    ///
    /// # Errors
    ///
    /// Returns [`PsError`] for the failures `run()` raises (model errors,
    /// structural transport failures); GAR rejections are counted.
    pub fn round(&mut self, tracer: &mut Tracer, step: u64) -> Result<()> {
        tracer.round = step;
        let round_span = tracer.begin("replay.round", None);
        let result = self.round_inner(tracer, step);
        tracer.end(round_span);
        result
    }

    fn round_inner(&mut self, tracer: &mut Tracer, step: u64) -> Result<()> {
        let n = self.workers.len();
        let cost = self.config.cost;
        let elastic = !self.config.fault_plan.is_empty() || self.ledger.is_some();
        let declared_f = self.config.tree.map_or(self.config.gar.f, |t| t.composed_max_f());
        let wants_selection = self.config.gar.kind.uses_distances()
            && (elastic
                || self.config.byzantine_count > 0
                || matches!(self.config.attack, AttackKind::Adaptive));

        let mut readmitted_now = vec![false; n];
        if elastic {
            let span = tracer.begin("ps.membership_apply", None);
            let floor_ok = self.advance_membership(step, declared_f, &mut readmitted_now);
            tracer.end(span);
            if !floor_ok {
                self.counters.refused += 1;
                return Ok(());
            }
        }
        let health: Vec<WorkerHealth> = (0..n).map(|i| self.membership.health(i)).collect();
        let live_n = health.iter().filter(|h| h.is_live()).count();
        let params = self.server.parameters().clone();

        // Phase 1: live honest workers compute and send, in worker-id order.
        self.pipeline.begin_round(n);
        let mut rounds: Vec<WorkerRound> = Vec::with_capacity(n);
        for (worker, dst) in self.workers.iter_mut().zip(self.pipeline.arena_mut().rows_mut()) {
            if !health[worker.id].is_live() || worker.attacker {
                rounds.push(WorkerRound::default());
                continue;
            }
            let id = Some(worker.id);
            let span = tracer.begin("nn.set_parameters", id);
            worker.model.set_parameters(&params)?;
            tracer.end(span);
            let span = tracer.begin("data.next_batch", id);
            let (batch, labels) = worker.sampler.next_batch(&self.dataset)?;
            tracer.end(span);
            let span = tracer.begin("nn.gradient", id);
            let evaluation = worker.model.gradient(&batch, &labels)?;
            tracer.end(span);
            let forward_flops = worker.model.flops_per_sample();
            tracer.count(
                "nn.gradient_flops",
                forward_flops as f64 * labels.len() as f64 * cost.backward_multiplier,
            );
            let compute_time = cost.gradient_time(forward_flops, labels.len(), self.node_flops);
            let transfer = worker.send(tracer, step, evaluation.gradient.as_slice(), dst)?;
            rounds.push(WorkerRound {
                honest_gradient: Some(evaluation.gradient),
                delivered: transfer.delivered,
                worker_time: compute_time + transfer.time_sec,
                stale_rejects: transfer.stale_epoch_rejects,
                corrupt_rejects: transfer.corrupt_rejects,
                retransmit_exhausted: transfer.retransmit_exhausted,
            });
        }
        for (round, &delay) in rounds.iter_mut().zip(&self.config.worker_extra_delay_sec) {
            round.worker_time += delay;
        }
        for (round, h) in rounds.iter_mut().zip(&health) {
            if let WorkerHealth::Slowed { delay_sec } = *h {
                round.worker_time += delay_sec;
            }
        }

        // Phase 2: the adversary crafts the Byzantine submissions.
        let attacker_ids: Vec<usize> = self
            .workers
            .iter()
            .filter(|w| w.attacker && health[w.id].is_live())
            .map(|w| w.id)
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
                total_workers: n,
                previous_selection: self.previous_selection.as_deref(),
            };
            let span = tracer.begin("attacks.craft", None);
            let crafted = self.attack.craft(&ctx);
            tracer.end(span);
            for (&slot, gradient) in attacker_ids.iter().zip(&crafted) {
                let transfer = self.workers[slot].send(
                    tracer,
                    step,
                    gradient.as_slice(),
                    self.pipeline.arena_mut().row_mut(slot),
                )?;
                rounds[slot].delivered = transfer.delivered;
                rounds[slot].stale_rejects = transfer.stale_epoch_rejects;
                rounds[slot].corrupt_rejects = transfer.corrupt_rejects;
                rounds[slot].retransmit_exhausted = transfer.retransmit_exhausted;
            }
        }
        for round in &rounds {
            self.counters.stale_epoch_rejects += round.stale_rejects as u64;
            self.counters.corrupt_rejects += round.corrupt_rejects as u64;
            self.counters.retransmit_exhaustions += u64::from(round.retransmit_exhausted);
        }

        // Phase 3: quorum cut in simulated-arrival order, then aggregation.
        let quorum = self.config.streaming.quorum.accept_count(live_n, declared_f);
        let mut arrivals: Vec<usize> = (0..n).filter(|&i| rounds[i].delivered).collect();
        arrivals.sort_by(|&a, &b| {
            rounds[a].worker_time.total_cmp(&rounds[b].worker_time).then(a.cmp(&b))
        });
        let accepted = &arrivals[..quorum.min(arrivals.len())];
        if self.pipeline.distance_streaming() {
            for &slot in accepted {
                let span = tracer.begin("tensor.streaming_row", Some(slot));
                self.pipeline.row_done(slot);
                tracer.end(span);
            }
        }
        let mut keep = vec![false; n];
        for &slot in accepted {
            keep[slot] = true;
        }
        let kept_slots: Vec<usize> = (0..n).filter(|&i| keep[i]).collect();

        if let Some(ledger_cfg) = self.ledger.as_ref().map(|l| *l.config()) {
            let span = tracer.begin("ps.collusion_flags", None);
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
            tracer.end(span);
            let evidence: Vec<RoundEvidence> = rounds
                .iter()
                .enumerate()
                .map(|(w, r)| RoundEvidence {
                    corrupt: r.corrupt_rejects > 0,
                    stale: r.stale_rejects > 0 && !readmitted_now[w],
                    exhausted: r.retransmit_exhausted,
                    straggled: r.delivered && !keep[w],
                    excluded: self.prev_excluded[w],
                    colluding: colluding[w],
                })
                .collect();
            let ledger = self.ledger.as_mut().expect("checked above");
            let span = tracer.begin("ps.ledger_observe", None);
            ledger.observe(step, &evidence);
            tracer.end(span);
            self.prev_excluded.fill(false);
            if ledger_cfg.reshuffle_every > 0 && step.is_multiple_of(ledger_cfg.reshuffle_every) {
                if let Some(plan) = &mut self.tree_plan {
                    let span = tracer.begin("ps.containment", None);
                    let sizes: Vec<usize> = plan.sizes().collect();
                    let live: Vec<bool> =
                        (0..n).map(|w| self.membership.health(w).is_live()).collect();
                    let next = reputation::containment_assignment(
                        ledger.scores(),
                        &live,
                        &sizes,
                        ledger_cfg.suspect_cutoff,
                        self.config.seed,
                        step,
                    );
                    let current: Vec<usize> = (0..n).map(|w| plan.group_of(w)).collect();
                    if next != current {
                        plan.set_assignment(next)?;
                        for epoch in &mut self.group_epochs {
                            *epoch += 1;
                        }
                    }
                    tracer.end(span);
                }
            }
        }

        let tree_groups: Option<Vec<usize>> = self
            .tree_plan
            .as_ref()
            .map(|plan| kept_slots.iter().map(|&slot| plan.group_of(slot)).collect());
        let distances = if self.pipeline.distance_streaming() {
            let span = tracer.begin("ps.pipeline_matrix", None);
            let matrix = self.pipeline.matrix(&kept_slots);
            tracer.end(span);
            matrix
        } else {
            None
        };
        let span = tracer.begin("tensor.retain_rows", None);
        self.pipeline.arena_mut().retain_rows(&keep);
        tracer.end(span);

        let round_result = if self.pipeline.arena().is_empty() {
            Err(PsError::Aggregation("no submissions survived the transport".into()))
        } else if let Some(groups) = &tree_groups {
            self.apply_tree_round(tracer, step, groups)
        } else {
            let span = tracer.begin("ps.apply_round", None);
            let result = match &distances {
                Some(d) => self.server.apply_round_batch_with_distances(self.pipeline.arena(), d),
                None => self.server.apply_round_batch(self.pipeline.arena()),
            };
            tracer.end(span);
            let gar_span = match (self.config.shards > 1, distances.is_some()) {
                (true, _) => "core.sharded_aggregate",
                (false, true) => "core.aggregate_primed",
                (false, false) => "core.aggregate",
            };
            split_apply_round(tracer, span, gar_span, &result);
            result
        };
        match round_result {
            Ok(_) => {
                if wants_selection {
                    let span = tracer.begin("core.selected_rows", None);
                    let selection = match &tree_groups {
                        Some(groups) => {
                            self.server.tree_selected_rows(self.pipeline.arena(), groups)?
                        }
                        None => {
                            self.server.selected_rows(self.pipeline.arena(), distances.as_ref())?
                        }
                    };
                    tracer.end(span);
                    if let Some(rows) = selection {
                        if rows.iter().any(|&r| self.workers[kept_slots[r]].attacker) {
                            self.counters.byzantine_selected_rounds += 1;
                        }
                        if self.ledger.is_some() {
                            for &slot in &kept_slots {
                                self.prev_excluded[slot] = true;
                            }
                            for &r in &rows {
                                self.prev_excluded[kept_slots[r]] = false;
                            }
                        }
                        self.previous_selection =
                            Some(rows.iter().map(|&r| kept_slots[r]).collect());
                    }
                }
            }
            Err(PsError::Aggregation(_)) => self.counters.skipped += 1,
            Err(other) => return Err(other),
        }
        self.last_gradients = rounds.into_iter().filter_map(|r| r.honest_gradient).collect();
        Ok(())
    }

    /// The hierarchical round: group stage, group outputs shipped root-ward
    /// over the per-group links, root rule and optimizer step.
    fn apply_tree_round(
        &mut self,
        tracer: &mut Tracer,
        step: u64,
        groups: &[usize],
    ) -> Result<RoundOutcome> {
        let span = tracer.begin("core.tree_group", None);
        let round = self.server.tree_group_outputs(self.pipeline.arena(), groups);
        tracer.end(span);
        let round = round?;
        let n = self.workers.len();
        let mut delivered = Vec::with_capacity(round.outputs.len());
        for output in &round.outputs {
            let link = &mut self.tree_links[output.group];
            let span = tracer.begin(link.span, Some(n + output.group));
            let outcome =
                link.transport.transfer((n + output.group) as u32, step, &output.output)?;
            tracer.end(span);
            count_transfer(
                tracer,
                output.output.len(),
                outcome.gradient.is_some(),
                outcome.bytes_sent,
                outcome.missing_coordinates,
                outcome.link_stats,
            );
            if let Some(gradient) = outcome.gradient {
                delivered.push(gradient);
            }
        }
        let span = tracer.begin("ps.apply_round", None);
        let result = self.server.apply_round_tree_outputs(&delivered);
        tracer.end(span);
        split_apply_round(tracer, span, "core.tree_root", &result);
        result
    }
}

/// Splits a closed `ps.apply_round` span into the GAR time the server
/// measured itself and the optimizer step that followed it.
fn split_apply_round(
    tracer: &mut Tracer,
    span: usize,
    gar_span: &'static str,
    result: &Result<RoundOutcome>,
) {
    if let Ok(outcome) = result {
        let total = tracer.duration_ns(span);
        let gar = ((outcome.aggregation_wall_sec * 1e9) as u64).min(total);
        tracer.child_of(span, gar_span, 0, gar);
        tracer.child_of(span, "ps.optimizer_update", gar, total - gar);
    }
}
