//! The trusted parameter server.
//!
//! Holds the global model, applies the configured gradient aggregation rule
//! and optimizer (Equation 4 of the paper), and enforces the access-control
//! behaviour the paper adds to TensorFlow: vanilla TensorFlow lets any node
//! execute arbitrary operations anywhere in the cluster, so a single
//! Byzantine worker could overwrite the shared parameters; the paper's code
//! patch makes the `ps` job "discard remote graph definitions and
//! executions". [`ParameterServer::handle_remote_write`] models that patch.

use crate::{PsError, Result};
use agg_core::{
    group_stage, root_round, Gar, GarConfig, Levels, ShardedAggregator, TreeAggregator, TreeConfig,
    TreeRound,
};
use agg_nn::optim::{OptimizerKind, Regularization};
use agg_nn::schedule::LearningRate;
use agg_tensor::{DistanceMatrix, GradientBatch, Vector};
use std::time::Instant;

/// Result of one aggregation + update round at the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundOutcome {
    /// Wall-clock seconds the aggregation kernel took (measured for real).
    pub aggregation_wall_sec: f64,
    /// Learning rate applied this step.
    pub learning_rate: f32,
    /// Model-update step index after the update.
    pub step: u64,
}

/// The synchronous parameter server.
///
/// Every round has one shape over the round's [`Levels`]
/// ([`ParameterServer::levels`]): a group stage over the submission arena
/// ([`ParameterServer::group_stage`]), each group's aggregate written into
/// its row of a group-output arena, then the root over the outputs that
/// reached it and the optimizer step ([`ParameterServer::apply_root`]). The
/// flat roster is one group running the server's own rule under the
/// identity root; the tree tier runs its group rule in every group and its
/// root rule over the outputs.
#[derive(Debug)]
pub struct ParameterServer {
    params: Vector,
    /// The rule every group of a round runs: the group level of
    /// [`ParameterServer::levels`] — the flat rule on the flat roster, the
    /// tree's group rule on a tree — as the plain rule at one shard and its
    /// [`ShardedAggregator`] above. The two are exactly equivalent (global
    /// selection over the shard-reduced distance matrix), so swapping one
    /// for the other is a deployment decision, never a robustness change.
    gar: Box<dyn Gar>,
    gar_config: GarConfig,
    /// Coordinate shards of the parameter-server tier (1: monolithic).
    shards: usize,
    /// The hierarchical tier, when active: the rule every group runs and
    /// the root rule over the group outputs. Unlike sharding this is *not*
    /// equivalent to the flat rule in general (the resilience bound
    /// composes: `f_total = (f_group + 1)(f_root + 1) − 1`). `None` is the
    /// flat roster.
    tree: Option<TreeAggregator>,
    optimizer: OptimizerKind,
    /// RMSProp's running mean square of the applied gradient (empty until
    /// its first step; SGD never fills it).
    mean_square: Vector,
    learning_rate: LearningRate,
    regularization: Regularization,
    step: u64,
    /// Whether the TensorFlow-style vulnerability patch is active. It is on
    /// by default; tests switch it off to demonstrate the vulnerability the
    /// paper describes.
    reject_remote_writes: bool,
}

impl ParameterServer {
    /// Creates a parameter server with initial parameters.
    ///
    /// # Errors
    ///
    /// Returns [`PsError`] when the GAR configuration is invalid.
    pub fn new(
        initial_params: Vector,
        gar_config: GarConfig,
        optimizer: OptimizerKind,
        learning_rate: LearningRate,
        regularization: Regularization,
    ) -> Result<Self> {
        let gar = gar_config.build().map_err(PsError::from)?;
        Ok(ParameterServer {
            params: initial_params,
            gar,
            gar_config,
            shards: 1,
            tree: None,
            optimizer,
            mean_square: Vector::zeros(0),
            learning_rate,
            regularization,
            step: 0,
            reject_remote_writes: true,
        })
    }

    /// The current global model parameters.
    pub fn parameters(&self) -> &Vector {
        &self.params
    }

    /// The number of model updates applied so far.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Splits (or un-splits) the parameter-server tier into `shards`
    /// contiguous coordinate shards. Aggregation stays exactly equivalent to
    /// the unsharded rule; `shards = 1` restores the monolithic path.
    ///
    /// # Errors
    ///
    /// Returns [`PsError`] when `shards` is zero, when the tree tier is
    /// active and `shards > 1` (the two tiers are mutually exclusive), or
    /// when the rule cannot be rebuilt.
    pub fn set_shards(&mut self, shards: usize) -> Result<()> {
        if shards == 0 {
            return Err(PsError::InvalidConfig(
                "the parameter-server tier needs at least one shard".into(),
            ));
        }
        self.rebuild(shards, self.tree.as_ref().map(TreeAggregator::config))
    }

    /// Number of parameter-server shards (1 for the monolithic server).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Name of the active aggregation rule.
    pub fn gar_name(&self) -> &'static str {
        self.gar_config.kind.name()
    }

    /// Installs (or removes) the hierarchical aggregation tier. `None`
    /// restores the flat roster.
    ///
    /// # Errors
    ///
    /// Returns [`PsError`] when the tree configuration is invalid (zero or
    /// oversized groups, unbuildable rules) or when the coordinate-sharded
    /// tier is already active — the two tiers are mutually exclusive.
    pub fn set_tree(&mut self, config: Option<TreeConfig>) -> Result<()> {
        self.rebuild(self.shards, config)
    }

    /// Installs `shards` and `tree`, and the rule every group runs.
    fn rebuild(&mut self, shards: usize, tree: Option<TreeConfig>) -> Result<()> {
        if shards > 1 && tree.is_some() {
            return Err(PsError::InvalidConfig(
                "the tree tier and coordinate sharding are mutually exclusive".into(),
            ));
        }
        let tree = tree.map(TreeAggregator::new).transpose().map_err(PsError::from)?;
        let group = tree.as_ref().map_or(self.gar_config, |tree| tree.config().group);
        self.gar = match shards {
            1 => group.build().map_err(PsError::from)?,
            _ => Box::new(ShardedAggregator::new(group, shards).map_err(PsError::from)?),
        };
        (self.shards, self.tree) = (shards, tree);
        Ok(())
    }

    /// The active hierarchical tier, if any.
    pub fn tree(&self) -> Option<&TreeAggregator> {
        self.tree.as_ref()
    }

    /// The levels of every round over `workers`: the installed tree's, or
    /// the flat rule as one group of `workers` under the identity root.
    /// [`ParameterServer::group_stage`] and [`ParameterServer::apply_root`]
    /// run a round of them.
    pub fn levels(&self, workers: usize) -> Levels {
        Levels::new(self.gar_config, self.tree.as_ref().map(TreeAggregator::config), workers)
    }

    /// The installed tree tier, or the error `entry` returns without one.
    fn tree_tier(&self, entry: &str) -> Result<&TreeAggregator> {
        self.tree.as_ref().ok_or_else(|| {
            PsError::InvalidConfig(format!("{entry} requires an installed tree tier"))
        })
    }

    /// The group stage of a round of `levels` ([`ParameterServer::levels`])
    /// over the arena rows `rows` (`groups[k]` is the group id of row
    /// `rows[k]`): every group that seats the group rule reduces its members
    /// where they sit in `batch` into row `group` of `outputs`
    /// ([`group_stage`]). Then [`Levels::check`] over every group the round
    /// saw: a round that even full delivery could not seat is refused before
    /// any output ships. A pure read of the model.
    ///
    /// # Errors
    ///
    /// Returns [`PsError::Aggregation`] when the levels rule the round out,
    /// the rows or groups are malformed, or a contributing group's rule
    /// fails.
    pub fn group_stage(
        &self,
        levels: &Levels,
        batch: &GradientBatch,
        rows: &[usize],
        groups: &[usize],
        outputs: &mut GradientBatch,
    ) -> Result<TreeRound<()>> {
        let round = group_stage(&*self.gar, levels.group_floor(), batch, rows, groups, outputs)?;
        levels.check(round.group_sizes())?;
        Ok(round)
    }

    /// The root of `levels` over the group outputs in the rows `delivered`
    /// of `outputs`, read where they sit ([`root_round`]), then the
    /// optimizer step. The outcome's `aggregation_wall_sec` times the root
    /// alone: the group stage ran before the legs.
    ///
    /// # Errors
    ///
    /// Returns [`PsError::Aggregation`] when fewer outputs arrived than the
    /// root's floor (dropped inter-group packets degrade into a skipped
    /// round, never an unsound aggregate), and [`PsError::Model`] when the
    /// optimizer step fails.
    pub fn apply_root(
        &mut self,
        levels: &Levels,
        outputs: &mut GradientBatch,
        delivered: &[usize],
    ) -> Result<RoundOutcome> {
        let start = Instant::now();
        let mut update = Vec::new();
        let aggregate = root_round(levels.root, outputs, delivered, &mut update)?;
        self.finish_round(aggregate, start)
    }

    /// Stage 1 of a hierarchical round over every row of `batch`
    /// (`groups[i]` is the group id of batch row `i`), each group's output
    /// in a vector of its own, refused when the composed bound rules the
    /// round out.
    ///
    /// # Errors
    ///
    /// Returns [`PsError::InvalidConfig`] when no tree tier is installed, and
    /// [`PsError::Aggregation`] when the composed bound fails or a
    /// contributing group's rule fails.
    pub fn tree_group_outputs(&self, batch: &GradientBatch, groups: &[usize]) -> Result<TreeRound> {
        let tree = self.tree_tier("tree_group_outputs")?;
        let round = tree.group_outputs(batch, groups)?;
        Levels::from(tree.config()).check(round.group_sizes())?;
        Ok(round)
    }

    /// Stage 2 of a hierarchical round: runs the root rule over the group
    /// outputs that survived the wire and applies the optimizer step.
    ///
    /// # Errors
    ///
    /// Returns [`PsError::InvalidConfig`] when no tree tier is installed,
    /// and the errors of [`ParameterServer::apply_root`].
    pub fn apply_round_tree_outputs(&mut self, outputs: &[Vector]) -> Result<RoundOutcome> {
        let start = Instant::now();
        let mut aggregated = self.tree_tier("apply_round_tree_outputs")?.root_aggregate(outputs)?;
        self.finish_round(aggregated.as_mut_slice(), start)
    }

    /// Tree-tier counterpart of [`ParameterServer::selected_rows`], read from
    /// a round [`ParameterServer::tree_group_outputs`] returned: the arena
    /// rows whose *groups* the root rule's selection phase picks and whose
    /// group rule kept them (`None` when the root rule has no selection
    /// phase). A pure read.
    ///
    /// # Errors
    ///
    /// Returns [`PsError::InvalidConfig`] when no tree tier is installed, and
    /// [`PsError::Aggregation`] when the composed bound fails for the round.
    pub fn tree_selected_rows_of(&self, round: &TreeRound) -> Result<Option<Vec<usize>>> {
        Ok(self.tree_tier("tree_selected_rows_of")?.selected_rows_of(round)?)
    }

    /// [`ParameterServer::tree_group_outputs`] followed by
    /// [`ParameterServer::tree_selected_rows_of`], for callers that hold no
    /// round.
    ///
    /// # Errors
    ///
    /// The errors of those two calls.
    pub fn tree_selected_rows(
        &self,
        batch: &GradientBatch,
        groups: &[usize],
    ) -> Result<Option<Vec<usize>>> {
        self.tree_selected_rows_of(&self.tree_group_outputs(batch, groups)?)
    }

    /// A worker attempts to overwrite the shared parameters directly — the
    /// attack vector the paper's TensorFlow patch closes.
    ///
    /// # Errors
    ///
    /// Returns [`PsError::AccessDenied`] while the patch is active (the
    /// default). When the patch is disabled the write succeeds, demonstrating
    /// why the patch is necessary.
    pub fn handle_remote_write(&mut self, worker: usize, values: &Vector) -> Result<()> {
        if self.reject_remote_writes {
            return Err(PsError::AccessDenied {
                worker,
                action: "overwrite the shared parameters via a remote graph execution".into(),
            });
        }
        self.params = values.clone();
        Ok(())
    }

    /// One flat round over every row of `gradients`: the rule's aggregate,
    /// then the optimizer step.
    ///
    /// # Errors
    ///
    /// Returns [`PsError::Aggregation`] when the GAR rejects the round (an
    /// empty batch or not enough rows for the declared `f`), and
    /// [`PsError::Model`] when the optimizer step fails.
    pub fn apply_round_batch(&mut self, gradients: &GradientBatch) -> Result<RoundOutcome> {
        self.apply_round_primed(gradients, None)
    }

    /// [`ParameterServer::apply_round_batch`] primed with the round's
    /// pairwise distance matrix, so distance-based rules select straight on
    /// it instead of recomputing the O(n²·d) kernel. Rules that do not use
    /// distances ignore the matrix; either way the round's result is
    /// bit-identical to the batch path.
    ///
    /// # Errors
    ///
    /// The errors of [`ParameterServer::apply_round_batch`], and
    /// [`PsError::Aggregation`] for a matrix of another size.
    pub fn apply_round_batch_with_distances(
        &mut self,
        gradients: &GradientBatch,
        distances: &DistanceMatrix,
    ) -> Result<RoundOutcome> {
        self.apply_round_primed(gradients, Some(distances))
    }

    fn apply_round_primed(
        &mut self,
        gradients: &GradientBatch,
        distances: Option<&DistanceMatrix>,
    ) -> Result<RoundOutcome> {
        let start = Instant::now();
        let mut aggregate = self.gar.round(gradients, distances)?.aggregate;
        self.finish_round(aggregate.as_mut_slice(), start)
    }

    /// The pairwise distance matrix this tier's own
    /// [`ParameterServer::apply_round_batch`] would build for `batch`: the
    /// flat kernel for the distance rules (Krum, Multi-Krum, Bulyan), the
    /// shard-reduced matrix on the sharded tier, `None` for rules that read
    /// no distances. Handing it to
    /// [`ParameterServer::apply_round_batch_with_distances`] and
    /// [`ParameterServer::selected_rows`] makes a round and its selection
    /// feedback share one O(n²·d) pass. A pure read; preconditions are left
    /// to the round itself.
    pub fn round_distances(&self, batch: &GradientBatch) -> Option<DistanceMatrix> {
        self.gar.selects().then(|| self.gar.distances(batch))
    }

    /// The row indices the active rule's selection phase would pick for this
    /// batch (`None` for rules without a selection phase). Works on both the
    /// monolithic and the sharded tier, and reads the round's distance
    /// matrix when the caller already holds it
    /// ([`ParameterServer::round_distances`]). A pure read: no model state
    /// changes.
    ///
    /// # Errors
    ///
    /// Returns [`PsError::Aggregation`] when the rule's preconditions fail
    /// for this batch (the round itself would fail the same way).
    pub fn selected_rows(
        &self,
        batch: &GradientBatch,
        distances: Option<&DistanceMatrix>,
    ) -> Result<Option<Vec<usize>>> {
        Ok(self.gar.selected_rows(batch, distances)?)
    }

    /// Regularizes `aggregated` in place and takes the optimizer step along
    /// it.
    fn finish_round(&mut self, aggregated: &mut [f32], start: Instant) -> Result<RoundOutcome> {
        let aggregation_wall_sec = start.elapsed().as_secs_f64();
        self.regularization.apply(aggregated, &self.params).map_err(PsError::from)?;
        let lr = self.learning_rate.at(self.step);
        self.optimizer.step(&mut self.mean_square, &mut self.params, aggregated, lr)?;
        self.step += 1;
        Ok(RoundOutcome { aggregation_wall_sec, learning_rate: lr, step: self.step })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agg_core::GarKind;

    fn server(kind: GarKind, f: usize, d: usize) -> ParameterServer {
        ParameterServer::new(
            Vector::zeros(d),
            GarConfig::new(kind, f),
            OptimizerKind::Sgd,
            LearningRate::Fixed { rate: 0.1 },
            Regularization::none(),
        )
        .unwrap()
    }

    fn batch_of(gradients: &[Vector]) -> GradientBatch {
        GradientBatch::from_vectors(gradients).unwrap()
    }

    /// The parameters a fresh [`server`] holds after one SGD step along
    /// `aggregate`.
    fn stepped_from_zero(aggregate: &Vector) -> Vector {
        let mut params = Vector::zeros(aggregate.len());
        OptimizerKind::Sgd
            .step(&mut Vector::zeros(0), &mut params, aggregate.as_slice(), 0.1)
            .unwrap();
        params
    }

    #[test]
    fn apply_round_moves_parameters_against_the_gradient() {
        let mut s = server(GarKind::Average, 0, 3);
        let gradients = vec![Vector::from(vec![1.0, 0.0, -1.0]); 4];
        let outcome = s.apply_round_batch(&batch_of(&gradients)).unwrap();
        assert_eq!(outcome.step, 1);
        assert_eq!(outcome.learning_rate, 0.1);
        assert!(outcome.aggregation_wall_sec >= 0.0);
        assert_eq!(s.parameters().as_slice(), &[-0.1, 0.0, 0.1]);
        assert_eq!(s.step(), 1);
    }

    #[test]
    fn batch_and_slice_rounds_agree() {
        // A batch round steps the model exactly as the rule applied to the
        // gradient slices by hand, followed by one SGD step.
        let mut by_batch = server(GarKind::MultiKrum, 1, 3);
        let gradients: Vec<Vector> =
            (0..7).map(|i| Vector::from(vec![1.0 + 0.01 * i as f32, 0.0, -1.0])).collect();
        let by_slice = GarConfig::new(GarKind::MultiKrum, 1).build().unwrap();
        let expected = stepped_from_zero(&by_slice.aggregate(&gradients).unwrap());
        let outcome = by_batch.apply_round_batch(&batch_of(&gradients)).unwrap();
        assert_eq!(outcome.step, 1);
        assert_eq!(expected.as_slice(), by_batch.parameters().as_slice());
    }

    #[test]
    fn gar_precondition_failures_surface_as_errors() {
        let mut s = server(GarKind::MultiKrum, 4, 2);
        // Multi-Krum with f = 4 needs 11 gradients.
        let gradients = vec![Vector::zeros(2); 5];
        assert!(matches!(s.apply_round_batch(&batch_of(&gradients)), Err(PsError::Aggregation(_))));
        assert_eq!(s.step(), 0, "a failed round must not advance the step");
    }

    #[test]
    fn remote_writes_are_rejected_by_default() {
        let mut s = server(GarKind::Average, 0, 2);
        let result = s.handle_remote_write(3, &Vector::from(vec![9.0, 9.0]));
        assert!(matches!(result, Err(PsError::AccessDenied { worker: 3, .. })));
        assert_eq!(s.parameters().as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn unpatched_server_is_vulnerable() {
        // This is the vulnerability of vanilla TensorFlow the paper fixes:
        // without the patch a single worker rewrites the model at will.
        let mut s = server(GarKind::Average, 0, 2);
        s.reject_remote_writes = false;
        s.handle_remote_write(3, &Vector::from(vec![9.0, 9.0])).unwrap();
        assert_eq!(s.parameters().as_slice(), &[9.0, 9.0]);
    }

    #[test]
    fn regularization_is_applied() {
        let mut s = ParameterServer::new(
            Vector::from(vec![1.0, -1.0]),
            GarConfig::new(GarKind::Average, 0),
            OptimizerKind::Sgd,
            LearningRate::Fixed { rate: 1.0 },
            Regularization { l1: 0.0, l2: 0.1 },
        )
        .unwrap();
        // Zero data gradient: only the L2 pull towards zero acts.
        s.apply_round_batch(&batch_of(&[Vector::zeros(2)])).unwrap();
        assert!(s.parameters()[0] < 1.0);
        assert!(s.parameters()[1] > -1.0);
    }

    #[test]
    fn sharded_and_monolithic_rounds_agree() {
        let gradients: Vec<Vector> =
            (0..9).map(|i| Vector::from(vec![1.0 + 0.01 * i as f32, -0.5, 2.0])).collect();
        let batch = GradientBatch::from_vectors(&gradients).unwrap();
        let mut monolithic = server(GarKind::MultiKrum, 2, 3);
        let mut sharded = server(GarKind::MultiKrum, 2, 3);
        sharded.set_shards(3).unwrap();
        assert_eq!(sharded.shards(), 3);
        monolithic.apply_round_batch(&batch).unwrap();
        sharded.apply_round_batch(&batch).unwrap();
        for c in 0..3 {
            let a = sharded.parameters()[c];
            let b = monolithic.parameters()[c];
            assert!((a - b).abs() <= 1e-6 * b.abs().max(1.0), "coordinate {c}: {a} vs {b}");
        }
        sharded.set_shards(1).unwrap();
        assert_eq!(sharded.shards(), 1);
        assert!(sharded.set_shards(0).is_err());
    }

    #[test]
    fn distance_primed_round_matches_the_batch_round() {
        let gradients: Vec<Vector> =
            (0..9).map(|i| Vector::from(vec![1.0 + 0.01 * i as f32, -0.5, 2.0])).collect();
        let batch = GradientBatch::from_vectors(&gradients).unwrap();
        let distances = batch.pairwise_squared_distances();
        let mut by_batch = server(GarKind::MultiKrum, 2, 3);
        let mut by_distances = server(GarKind::MultiKrum, 2, 3);
        by_batch.apply_round_batch(&batch).unwrap();
        by_distances.apply_round_batch_with_distances(&batch, &distances).unwrap();
        assert_eq!(by_batch.parameters().as_slice(), by_distances.parameters().as_slice());

        // A mismatched matrix is an aggregation error, not a silent misuse.
        let wrong = agg_tensor::DistanceMatrix::zeros(4);
        let mut s = server(GarKind::MultiKrum, 2, 3);
        assert!(matches!(
            s.apply_round_batch_with_distances(&batch, &wrong),
            Err(PsError::Aggregation(_))
        ));
    }

    #[test]
    fn selection_feedback_matches_the_rule_on_every_tier() {
        let mut batch_rows: Vec<Vector> =
            (0..9).map(|i| Vector::from(vec![1.0 + 0.01 * i as f32, -0.5, 2.0])).collect();
        batch_rows.push(Vector::from(vec![1e6, 1e6, 1e6]));
        let batch = GradientBatch::from_vectors(&batch_rows).unwrap();
        let rule = GarConfig::new(GarKind::MultiKrum, 2);
        let expected = rule.selected_rows(&batch, None).unwrap().unwrap();

        // Monolithic, batch path.
        let monolithic = server(GarKind::MultiKrum, 2, 3);
        let selected = monolithic.selected_rows(&batch, None).unwrap().unwrap();
        assert_eq!(selected, expected);
        assert!(!selected.contains(&9), "the outlier must not be selected");

        // Monolithic, distance-primed path.
        let distances = batch.pairwise_squared_distances();
        assert_eq!(monolithic.selected_rows(&batch, Some(&distances)).unwrap().unwrap(), expected);

        // Sharded tier agrees.
        let mut sharded = server(GarKind::MultiKrum, 2, 3);
        sharded.set_shards(3).unwrap();
        assert_eq!(sharded.selected_rows(&batch, None).unwrap().unwrap(), expected);

        // Krum selects exactly one row; coordinate rules have no selection.
        let krum = server(GarKind::Krum, 2, 3);
        assert_eq!(krum.selected_rows(&batch, None).unwrap().unwrap().len(), 1);
        let median = server(GarKind::Median, 2, 3);
        assert_eq!(median.selected_rows(&batch, None).unwrap(), None);
    }

    #[test]
    fn one_distance_pass_serves_the_round_and_its_selection_feedback() {
        use agg_core::resilience::resilience_floor;
        use agg_tensor::rng::{gaussian_fill, seeded_rng};

        let (d, f) = (37, 2);
        let batch_of = |n: usize| {
            let mut rng = seeded_rng(n as u64);
            let mut batch = GradientBatch::with_capacity(d, n);
            for _ in 0..n {
                batch.push_row_with(|dst| gaussian_fill(&mut rng, dst, 0.0, 1.0));
            }
            batch.row_mut(1)[5] = f32::NAN;
            batch.row_mut(2)[0] = f32::INFINITY;
            batch.row_mut(2)[d - 1] = f32::NEG_INFINITY;
            batch
        };
        for kind in [GarKind::Krum, GarKind::MultiKrum, GarKind::Bulyan] {
            for shards in [1, 4] {
                let tier = || {
                    let mut s = server(kind, f, d);
                    s.set_shards(shards).unwrap();
                    s
                };
                let floor = resilience_floor(kind, f);
                for n in [floor, 19] {
                    let batch = batch_of(n);
                    let (mut two_pass, mut one_pass) = (tier(), tier());
                    let distances = one_pass.round_distances(&batch).expect("a distance rule");
                    two_pass.apply_round_batch(&batch).unwrap();
                    one_pass.apply_round_batch_with_distances(&batch, &distances).unwrap();
                    let bits = |s: &ParameterServer| -> Vec<u32> {
                        s.parameters().as_slice().iter().map(|x| x.to_bits()).collect()
                    };
                    assert_eq!(bits(&two_pass), bits(&one_pass), "{kind} S={shards} n={n}");
                    assert_eq!(
                        one_pass.selected_rows(&batch, None).unwrap(),
                        one_pass.selected_rows(&batch, Some(&distances)).unwrap(),
                        "{kind} S={shards} n={n}"
                    );
                }
                // One row short of the floor: the same refusal either way,
                // and neither server steps.
                let starved = batch_of(floor - 1);
                let (mut two_pass, mut one_pass) = (tier(), tier());
                let distances = one_pass.round_distances(&starved).expect("a distance rule");
                let refused = two_pass.apply_round_batch(&starved).unwrap_err();
                assert!(matches!(refused, PsError::Aggregation(_)));
                assert_eq!(
                    one_pass
                        .apply_round_batch_with_distances(&starved, &distances)
                        .unwrap_err()
                        .to_string(),
                    refused.to_string()
                );
                assert_eq!((two_pass.step(), one_pass.step()), (0, 0));
                // A round nothing survived has an empty matrix, not a panic.
                assert_eq!(tier().round_distances(&GradientBatch::new(d)).map(|m| m.n()), Some(0));
            }
        }
        // Rules that read no distances have no matrix to share.
        for kind in [GarKind::Average, GarKind::Median, GarKind::GeometricMedian] {
            let mut s = server(kind, f, d);
            assert!(s.round_distances(&batch_of(19)).is_none());
            s.set_shards(4).unwrap();
            assert!(s.round_distances(&batch_of(19)).is_none());
        }
    }

    #[test]
    fn tree_rounds_flow_through_both_stages() {
        use agg_core::TreeConfig;

        // 12 workers in groups of 4, Median at both levels (root floor
        // 2f + 1 = 3 groups); the last group is pure garbage and must be
        // outvoted.
        let mut rows: Vec<Vector> =
            (0..8).map(|i| Vector::from(vec![1.0 + 0.01 * i as f32, -1.0])).collect();
        rows.extend((0..4).map(|_| Vector::from(vec![1e6, 1e6])));
        let batch = GradientBatch::from_vectors(&rows).unwrap();
        let groups: Vec<usize> = (0..12).map(|w| w / 4).collect();
        let tree = TreeConfig::uniform(GarKind::Median, 1, 1, 4);

        let mut staged = server(GarKind::Median, 1, 2);
        staged.set_tree(Some(tree)).unwrap();
        assert!(staged.tree().is_some());
        let round = staged.tree_group_outputs(&batch, &groups).unwrap();
        assert_eq!(round.outputs.len(), 3);
        assert!(round.skipped.is_empty());
        let outputs: Vec<Vector> = round.outputs.iter().map(|o| o.output.clone()).collect();
        let outcome = staged.apply_round_tree_outputs(&outputs).unwrap();
        assert_eq!(outcome.step, 1);
        assert!(staged.parameters()[0].abs() < 1.0, "the garbage group must not move the model");

        // The staged path (group outputs, then root) lands on the model of
        // both tree stages back to back on a loss-free interconnect.
        let one_shot = TreeAggregator::new(tree).unwrap();
        let expected =
            stepped_from_zero(&one_shot.aggregate_batch_grouped(&batch, &groups).unwrap());
        assert_eq!(staged.parameters().as_slice(), expected.as_slice());

        // Dropping outputs below the root floor refuses the round and does
        // not advance the step.
        let mut starved = server(GarKind::Median, 1, 2);
        starved.set_tree(Some(tree)).unwrap();
        assert!(matches!(
            starved.apply_round_tree_outputs(&outputs[..1]),
            Err(PsError::Aggregation(_))
        ));
        assert_eq!(starved.step(), 0);

        // Root selection feedback maps back to member rows: a Multi-Krum
        // root over Median group outputs excludes the garbage group.
        let selector = {
            let mut s = server(GarKind::MultiKrum, 0, 2);
            let t = TreeConfig {
                group: GarConfig::new(GarKind::Median, 1),
                root: GarConfig::new(GarKind::MultiKrum, 0),
                group_size: 4,
            };
            s.set_tree(Some(t)).unwrap();
            s
        };
        let selected = selector.tree_selected_rows(&batch, &groups).unwrap().unwrap();
        assert!(!selected.iter().any(|&r| r >= 8), "garbage rows must not be selected");
        // The same feedback read from a round the caller already holds, as
        // the engine does after applying it.
        let held = selector.tree_group_outputs(&batch, &groups).unwrap();
        assert_eq!(selector.tree_selected_rows_of(&held).unwrap().unwrap(), selected);

        // The flat entry points stay flat, and the tiers stay exclusive.
        let mut s = server(GarKind::Median, 1, 2);
        assert!(matches!(s.tree_selected_rows_of(&held), Err(PsError::InvalidConfig(_))));
        assert!(matches!(s.tree_group_outputs(&batch, &groups), Err(PsError::InvalidConfig(_))));
        assert!(matches!(s.apply_round_tree_outputs(&outputs), Err(PsError::InvalidConfig(_))));
        s.set_tree(Some(tree)).unwrap();
        assert!(s.set_shards(3).is_err(), "tree + shards is rejected");
        s.set_tree(None).unwrap();
        s.set_shards(3).unwrap();
        let mut s2 = server(GarKind::Median, 1, 2);
        s2.set_shards(3).unwrap();
        assert!(s2.set_tree(Some(tree)).is_err(), "shards + tree is rejected");
    }

    #[test]
    fn gar_accessors() {
        let s = server(GarKind::Bulyan, 1, 4);
        assert_eq!(s.gar_name(), "bulyan");
        assert_eq!(s.gar_config.f, 1);
    }
}
