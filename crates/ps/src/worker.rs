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

/// One simulated worker process.
///
/// Each worker owns its model's layers (as a TensorFlow worker owns its
/// sub-graph: the shapes and a reused transpose scratch), an i.i.d. mini-batch
/// sampler over its local dataset view, and the transport its gradients
/// travel over. It owns no weights: every round it computes at the server's
/// parameter vector, borrowed in place, so the n workers of a round share one
/// copy of the model instead of holding n. It owns no gradient buffer
/// either: it computes into the arena row the engine hands it
/// ([`Worker::compute_into`]) and sends from that row
/// ([`Worker::send_in_place`]), so each gradient is written once.
#[derive(Debug)]
pub struct Worker {
    id: usize,
    role: WorkerRole,
    model: Sequential,
    dataset: Arc<Dataset>,
    sampler: MiniBatchSampler,
    transport: Box<dyn Transport>,
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
    ) -> Self {
        Worker { id, role, model, dataset, sampler, transport }
    }

    /// Worker index within the cluster.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The worker's behaviour.
    pub fn role(&self) -> WorkerRole {
        self.role
    }

    /// Computes one mini-batch gradient at the given model parameters, read
    /// in place, into `row` ([`Sequential::gradient_into`]) — the worker's
    /// arena row, so the gradient is written once — and returns its
    /// simulated compute seconds.
    ///
    /// The compute time uses the provided closure so the engine's cost model
    /// stays in one place.
    ///
    /// # Errors
    ///
    /// Returns [`PsError`] when the model rejects the parameters, the row or
    /// the batch.
    pub fn compute_into(
        &mut self,
        params: &Vector,
        row: &mut [f32],
        compute_time: impl FnOnce(&Sequential, usize) -> f64,
    ) -> Result<f64> {
        let (batch, labels) = self.sampler.next_batch(&self.dataset).map_err(PsError::from)?;
        self.model.gradient_into(params.as_slice(), &batch, &labels, row).map_err(PsError::from)?;
        Ok(compute_time(&self.model, labels.len()))
    }

    /// Sends the gradient in `row` to the server over this worker's
    /// transport ([`Transport::send_in_place`]): the receiver's view of it
    /// replaces it in the same row.
    ///
    /// # Errors
    ///
    /// Returns [`PsError::Network`] for structural transport failures (loss is
    /// not an error).
    pub fn send_in_place(&mut self, step: u64, row: &mut [f32]) -> Result<RowTransfer> {
        self.transport.send_in_place(self.id as u32, step, row).map_err(PsError::from)
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
    /// filling a row. `None` disables fencing; the engine fences every link,
    /// at epoch 0 under static membership.
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
        Worker::new(0, role, model, dataset, sampler, transport)
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
        let mut row = vec![f32::NAN; params.len()];
        let sec = worker.compute_into(&params, &mut row, |_, b| b as f64 * 0.01).unwrap();
        assert!(row.iter().all(|g| g.is_finite()), "the row holds only the gradient");
        assert!(row.iter().any(|&g| g != 0.0));
        assert!((sec - 0.08).abs() < 1e-9);
    }

    #[test]
    fn gradient_rejects_wrong_parameter_size() {
        let mut worker = make_worker(WorkerRole::Honest);
        let d = worker.model.param_count();
        assert!(worker.compute_into(&Vector::zeros(3), &mut vec![0.0; d], |_, _| 0.0).is_err());
        let params = worker.model.parameters();
        assert!(worker.compute_into(&params, &mut vec![0.0; d + 1], |_, _| 0.0).is_err());
    }

    #[test]
    fn epoch_passthroughs_reach_the_transport() {
        let mut worker = make_worker(WorkerRole::Honest);
        let g = vec![1.0f32; 64];
        let mut row = g.clone();
        // Server fences at epoch 3; the worker still stamps epoch 0.
        worker.set_transport_expected_epoch(Some(3));
        let fenced = worker.send_in_place(0, &mut row).unwrap();
        assert!(!fenced.delivered);
        assert!(fenced.stale_epoch_rejects > 0);
        // Once the worker learns the view, delivery resumes.
        worker.set_transport_epoch(3);
        let ok = worker.send_in_place(1, &mut row).unwrap();
        assert!(ok.delivered);
        assert_eq!(ok.stale_epoch_rejects, 0);
        assert_eq!(row, g);
    }

    #[test]
    fn send_gradient_goes_through_the_transport() {
        let mut worker = make_worker(WorkerRole::Honest);
        let g = vec![1.0f32; 100];
        let mut row = g.clone();
        let outcome = worker.send_in_place(0, &mut row).unwrap();
        assert!(outcome.delivered);
        assert_eq!(row, g);
        assert_eq!(worker.id(), 0);
    }
}
