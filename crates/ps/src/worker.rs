//! Workers: honest gradient estimators, data-poisoned workers and actively
//! adversarial workers.

use crate::{PsError, Result};
use agg_data::{Dataset, MiniBatchSampler};
use agg_net::{RowTransfer, Transport};
use agg_nn::Sequential;
use agg_tensor::Vector;
use std::sync::Arc;

/// The behaviour of one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerRole {
    /// Computes honest gradients on clean data.
    Honest,
    /// Computes real gradients, but on a corrupted local dataset (the
    /// "corrupted data" Byzantine behaviour of Figure 7).
    DataPoisoned,
    /// Does not compute gradients at all; the adversary crafts its submission
    /// centrally (omniscient attack).
    Attacker,
}

impl WorkerRole {
    /// `true` for every non-honest role.
    pub fn is_byzantine(&self) -> bool {
        !matches!(self, WorkerRole::Honest)
    }
}

/// The result of one worker's local step.
#[derive(Debug, Clone)]
pub struct WorkerComputation {
    /// The gradient estimate the worker submits.
    pub gradient: Vector,
    /// Training loss observed on the worker's mini-batch.
    pub loss: f32,
    /// Seconds of simulated compute time the gradient cost.
    pub compute_time_sec: f64,
}

/// One simulated worker process.
///
/// Each worker owns its model's layers (as a TensorFlow worker owns its
/// sub-graph: the shapes, the activation caches, any dropout stream), an
/// i.i.d. mini-batch sampler over its local dataset view, and the transport
/// its gradients travel over. It owns no weights: every round it computes at
/// the server's parameter vector, borrowed in place, so the n workers of a
/// round share one copy of the model instead of holding n.
#[derive(Debug)]
pub struct Worker {
    id: usize,
    role: WorkerRole,
    model: Sequential,
    dataset: Arc<Dataset>,
    sampler: MiniBatchSampler,
    transport: Box<dyn Transport>,
    node_flops_per_sec: f64,
}

impl Worker {
    /// Creates a worker.
    pub fn new(
        id: usize,
        role: WorkerRole,
        model: Sequential,
        dataset: Arc<Dataset>,
        sampler: MiniBatchSampler,
        transport: Box<dyn Transport>,
        node_flops_per_sec: f64,
    ) -> Self {
        Worker { id, role, model, dataset, sampler, transport, node_flops_per_sec }
    }

    /// Worker index within the cluster.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The worker's behaviour.
    pub fn role(&self) -> WorkerRole {
        self.role
    }

    /// Sustained FLOP/s of the node this worker runs on.
    pub fn node_flops_per_sec(&self) -> f64 {
        self.node_flops_per_sec
    }

    /// Computes one mini-batch gradient at the given model parameters, read
    /// in place ([`Sequential::gradient_at`]).
    ///
    /// The returned compute time uses the provided closure so the engine's
    /// cost model stays in one place.
    ///
    /// # Errors
    ///
    /// Returns [`PsError`] when the model rejects the parameters or batch.
    pub fn compute_gradient(
        &mut self,
        params: &Vector,
        compute_time: impl FnOnce(&Sequential, usize) -> f64,
    ) -> Result<WorkerComputation> {
        let (batch, labels) = self.sampler.next_batch(&self.dataset).map_err(PsError::from)?;
        let evaluation =
            self.model.gradient_at(params.as_slice(), &batch, &labels).map_err(PsError::from)?;
        let time = compute_time(&self.model, labels.len());
        Ok(WorkerComputation {
            gradient: evaluation.gradient,
            loss: evaluation.loss,
            compute_time_sec: time,
        })
    }

    /// Sends a gradient straight into the server's arena row for this worker
    /// (the zero-copy round path: the receiver's view is written into `dst`,
    /// no intermediate `Vector`).
    ///
    /// # Errors
    ///
    /// Returns [`PsError::Network`] for structural transport failures (loss is
    /// not an error).
    pub fn send_gradient_into(
        &mut self,
        step: u64,
        gradient: &[f32],
        dst: &mut [f32],
    ) -> Result<RowTransfer> {
        self.transport.transfer_into(self.id as u32, step, gradient, dst).map_err(PsError::from)
    }

    /// Name of the transport this worker uses (for reports).
    pub fn transport_name(&self) -> &'static str {
        self.transport.name()
    }

    /// Stamps the membership epoch this worker believes is current into its
    /// transport's outgoing packets. The engine calls this when the worker
    /// learns a new view; a rejoining worker keeps its stale epoch for one
    /// round and gets fenced.
    pub fn set_transport_epoch(&mut self, epoch: u32) {
        self.transport.set_epoch(epoch);
    }

    /// Sets the server-side epoch fence on this worker's link: packets
    /// stamped with any other epoch are rejected at the assembler instead of
    /// filling a row. `None` disables fencing (static membership).
    pub fn set_transport_expected_epoch(&mut self, epoch: Option<u32>) {
        self.transport.set_expected_epoch(epoch);
    }
}

// Workers fan out across threads in the engine's parallel Phase 1; every
// field (model, Arc<Dataset>, sampler, boxed transport) must stay `Send`.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Worker>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use agg_data::synthetic::{gaussian_blobs, BlobConfig};
    use agg_net::{GradientCodec, LinkConfig, ReliableTransport};
    use agg_nn::models;

    fn make_worker(role: WorkerRole) -> Worker {
        let model = models::synthetic_mlp(8, &[16], 4, 0);
        let dataset = Arc::new(
            gaussian_blobs(
                &BlobConfig { classes: 4, dim: 8, samples: 64, ..Default::default() },
                1,
            )
            .unwrap(),
        );
        let sampler = MiniBatchSampler::new(8, 1, 0).unwrap();
        let transport = Box::new(
            ReliableTransport::new(LinkConfig::datacenter(), GradientCodec::default_mtu()).unwrap(),
        );
        Worker::new(0, role, model, dataset, sampler, transport, 5e10)
    }

    #[test]
    fn roles_classify_byzantine_behaviour() {
        assert!(!WorkerRole::Honest.is_byzantine());
        assert!(WorkerRole::DataPoisoned.is_byzantine());
        assert!(WorkerRole::Attacker.is_byzantine());
    }

    #[test]
    fn honest_worker_computes_a_gradient_of_model_dimension() {
        let mut worker = make_worker(WorkerRole::Honest);
        let params = worker.model.parameters();
        let result = worker.compute_gradient(&params, |_, b| b as f64 * 0.01).unwrap();
        assert_eq!(result.gradient.len(), params.len());
        assert!(result.loss.is_finite());
        assert!((result.compute_time_sec - 0.08).abs() < 1e-9);
    }

    #[test]
    fn gradient_rejects_wrong_parameter_size() {
        let mut worker = make_worker(WorkerRole::Honest);
        assert!(worker.compute_gradient(&Vector::zeros(3), |_, _| 0.0).is_err());
    }

    #[test]
    fn epoch_passthroughs_reach_the_transport() {
        let mut worker = make_worker(WorkerRole::Honest);
        let g = vec![1.0f32; 64];
        let mut dst = vec![0.0f32; 64];
        // Server fences at epoch 3; the worker still stamps epoch 0.
        worker.set_transport_expected_epoch(Some(3));
        let fenced = worker.send_gradient_into(0, &g, &mut dst).unwrap();
        assert!(!fenced.delivered);
        assert!(fenced.stale_epoch_rejects > 0);
        // Once the worker learns the view, delivery resumes.
        worker.set_transport_epoch(3);
        let ok = worker.send_gradient_into(1, &g, &mut dst).unwrap();
        assert!(ok.delivered);
        assert_eq!(ok.stale_epoch_rejects, 0);
        assert_eq!(dst, g);
    }

    #[test]
    fn send_gradient_goes_through_the_transport() {
        let mut worker = make_worker(WorkerRole::Honest);
        let g = vec![1.0f32; 100];
        let mut row = vec![0.0f32; 100];
        let outcome = worker.send_gradient_into(0, &g, &mut row).unwrap();
        assert!(outcome.delivered);
        assert_eq!(row, g);
        assert_eq!(worker.transport_name(), "tcp");
        assert_eq!(worker.id(), 0);
        assert_eq!(worker.node_flops_per_sec(), 5e10);
    }
}
