//! The simulation time model.
//!
//! The reproduction runs gradient numerics for real but does not own a 20-node
//! Grid5000 cluster, so wall-clock time is *simulated*:
//!
//! * **Gradient computation** — `flops(model) · batch / node_flops` at the
//!   one [`crate::cluster::Node`] rate every worker computes at, plus a fixed
//!   per-batch overhead (framework/launch cost).
//! * **Communication** — handled by `agg-net`'s transports (bytes over a
//!   bandwidth/latency link, with the TCP congestion model under loss).
//! * **Aggregation** — *counted*, not timed: the rule's [`GarWork`] over the
//!   rows it reduces (pairs of the distance walk, rows through the
//!   order-statistic tiles, rows averaged) times the effective dimension
//!   times the per-unit rates below, so the clock is a pure function of the
//!   configuration and the seed.
//!
//! The optional [`VirtualModelCost`] sets that effective dimension: the
//! Figure 3–8 experiments train a small proxy model for accuracy while
//! charging time as if the model were the paper's 1.75 M-parameter CNN (or
//! ResNet-50), which preserves the compute/communication/aggregation ratios
//! the figures depend on. [`PAPER_CNN_LAYERS`] is that CNN's Table 1 as
//! shape arithmetic.

use crate::{PsError, Result};
use agg_core::{GarConfig, GarWork};
use serde::{Deserialize, Serialize};

// The aggregation rates, in ns per unit of `GarWork` × coordinate: the
// single-thread (`RAYON_NUM_THREADS=1`) medians of the `gar_kernels`
// criterion lines named below, on a 2-core Intel Xeon.

/// Per pair-coordinate of the distance walk:
/// `pairwise_distances/blocked_pair_tiled/n19_d102538` (6.62 Gelem/s).
const DISTANCE_NS_PER_PAIR_COORD: f64 = 0.151;
/// Per row-coordinate through the order-statistic tiles:
/// `order_statistic_tiles/median/n19_d102538` (1.15 Gelem/s).
const TILE_NS_PER_ROW_COORD: f64 = 0.87;
/// Per row-coordinate averaged: `gar_dimension_sweep_n19_f4/average/100000`
/// (934 µs over 19 × 100 000).
const MEAN_NS_PER_ROW_COORD: f64 = 0.49;
/// Per row-coordinate of a repetition code's decode: the 0.03 s per worker
/// per million parameters the Draco authors report for their decoder, which
/// is far slower than the comparison itself.
const DECODE_NS_PER_ROW_COORD: f64 = 30.0;

/// Fixed overhead charged per gradient computation (framework dispatch, data
/// loading), in seconds.
const GRADIENT_OVERHEAD_SEC: f64 = 5e-3;
/// Fixed time charged per server model update (optimizer step), per million
/// parameters.
const UPDATE_SEC_PER_MILLION_PARAMS: f64 = 2e-3;

/// The factor a worker's gradient time is multiplied by under a rule that
/// replicates batches ([`agg_core::GarKind::replicates_batches`]): the
/// gradient plus the encoding Draco's authors put at twice its cost.
pub const REPLICATION_ENCODE_FACTOR: f64 = 3.0;

/// Pretend-costs of a model larger than the proxy actually trained.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VirtualModelCost {
    /// Gradient dimension to charge for (e.g. 1.75 M for the paper CNN).
    pub dimension: usize,
    /// Forward FLOPs per sample to charge for.
    pub flops_per_sample: u64,
}

impl VirtualModelCost {
    /// The paper's Table 1 CNN: the 1 756 426 parameters
    /// [`PAPER_CNN_LAYERS`] adds up, and 65 MFLOP forward per sample, which
    /// rounds down the table's 65.56 MFLOP.
    pub fn paper_cnn() -> Self {
        VirtualModelCost { dimension: 1_756_426, flops_per_sample: 65_000_000 }
    }

    /// ResNet-50, the large model of Figure 5(b): 25 M parameters, rounding
    /// down the 25.6 M of the standard implementation, and 4 GFLOP forward
    /// per sample, rounding up the 3.8 × 10⁹ FLOPs of He et al., "Deep
    /// Residual Learning for Image Recognition" (CVPR 2016), Table 1. That
    /// figure counts a multiply-add once, where [`PAPER_CNN_LAYERS`] counts
    /// it twice.
    pub fn resnet50() -> Self {
        VirtualModelCost { dimension: 25_000_000, flops_per_sample: 4_000_000_000 }
    }
}

/// What a row of [`PAPER_CNN_LAYERS`] computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CnnLayerKind {
    /// A 2-D convolution with "SAME" padding.
    Conv,
    /// Max-pooling with "SAME" padding: no parameters, and no FLOPs counted.
    MaxPool,
    /// A fully connected layer: a 1 × 1 kernel over a 1 × 1 map.
    Dense,
}

/// One layer of the paper's Table 1 CNN, as shape arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CnnLayer {
    /// The layer's name in Table 1.
    pub name: &'static str,
    /// What the layer computes.
    pub kind: CnnLayerKind,
    /// Side of the square kernel or window.
    pub kernel: u64,
    /// Input channels (input features of a dense layer).
    pub in_channels: u64,
    /// Output channels (units of a dense layer).
    pub channels: u64,
    /// Stride of the kernel or window.
    pub stride: u64,
    /// Side of the square output map.
    pub output: u64,
}

impl CnnLayer {
    /// Weights and biases: `(kernel² · in_channels + 1) · channels`.
    pub fn params(&self) -> u64 {
        match self.kind {
            CnnLayerKind::MaxPool => 0,
            _ => (self.kernel * self.kernel * self.in_channels + 1) * self.channels,
        }
    }

    /// Forward FLOPs per sample, a multiply and an add per weight and output
    /// position: `2 · kernel² · in_channels · channels · output²`.
    pub fn flops(&self) -> u64 {
        match self.kind {
            CnnLayerKind::MaxPool => 0,
            _ => {
                2 * self.kernel
                    * self.kernel
                    * self.in_channels
                    * self.channels
                    * self.output.pow(2)
            }
        }
    }
}

const fn cnn_layer(
    name: &'static str,
    kind: CnnLayerKind,
    kernel: u64,
    in_channels: u64,
    channels: u64,
    stride: u64,
    output: u64,
) -> CnnLayer {
    CnnLayer { name, kind, kernel, in_channels, channels, stride, output }
}

/// The paper's Table 1 CNN on 32 × 32 × 3 inputs, a ReLU after every
/// convolution and hidden dense layer:
///
/// | Input | Conv1 | Pool1 | Conv2 | Pool2 | FC1 | FC2 | FC3 |
/// |---|---|---|---|---|---|---|---|
/// | 32×32×3 | 5×5×64, stride 1 | 3×3, stride 2 | 5×5×64, stride 1 | 3×3, stride 2 | 384 | 192 | 10 |
///
/// The reproduction trains an MLP and charges this model's time through
/// [`VirtualModelCost::paper_cnn`].
pub const PAPER_CNN_LAYERS: [CnnLayer; 7] = {
    use CnnLayerKind::{Conv, Dense, MaxPool};
    [
        cnn_layer("conv1", Conv, 5, 3, 64, 1, 32),
        cnn_layer("pool1", MaxPool, 3, 64, 64, 2, 16),
        cnn_layer("conv2", Conv, 5, 64, 64, 1, 16),
        cnn_layer("pool2", MaxPool, 3, 64, 64, 2, 8),
        cnn_layer("fc1", Dense, 1, 64 * 8 * 8, 384, 1, 1),
        cnn_layer("fc2", Dense, 1, 384, 192, 1, 1),
        cnn_layer("fc3", Dense, 1, 192, 10, 1, 1),
    ]
};

/// The time model used by the training engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Multiplier applied to forward FLOPs to account for the backward pass
    /// (≈2× forward) and optimizer bookkeeping.
    pub backward_multiplier: f64,
    /// Optional virtual model whose dimension/FLOPs are charged instead of
    /// the proxy model's.
    pub virtual_model: Option<VirtualModelCost>,
}

impl CostModel {
    /// Costs calibrated to the paper's platform (see module docs): with the
    /// Table 1 CNN and a mini-batch of 100 a worker takes ≈0.4 s per
    /// gradient, matching the ≈48 batches/s the paper reports for 18
    /// workers.
    pub fn paper_like() -> Self {
        CostModel { backward_multiplier: 3.0, virtual_model: None }
    }

    /// Same cost constants but charging for a virtual (larger) model.
    pub fn with_virtual_model(mut self, virtual_model: VirtualModelCost) -> Self {
        self.virtual_model = Some(virtual_model);
        self
    }

    /// Effective gradient dimension to charge communication/aggregation for.
    pub fn effective_dimension(&self, actual_dimension: usize) -> usize {
        self.virtual_model.map(|v| v.dimension).unwrap_or(actual_dimension)
    }

    /// Effective forward FLOPs per sample to charge computation for.
    pub fn effective_flops(&self, actual_flops: u64) -> u64 {
        self.virtual_model.map(|v| v.flops_per_sample).unwrap_or(actual_flops)
    }

    /// Time for one worker to compute one mini-batch gradient on a node
    /// sustaining `node_flops` FLOP/s.
    pub fn gradient_time(
        &self,
        model_forward_flops: u64,
        batch_size: usize,
        node_flops: f64,
    ) -> f64 {
        let flops = self.effective_flops(model_forward_flops) as f64
            * batch_size as f64
            * self.backward_multiplier;
        GRADIENT_OVERHEAD_SEC + flops / node_flops.max(1.0)
    }

    /// Time charged for the server's optimizer step.
    pub fn update_time(&self, actual_dimension: usize) -> f64 {
        let d = self.effective_dimension(actual_dimension) as f64;
        UPDATE_SEC_PER_MILLION_PARAMS * d / 1e6
    }

    /// Seconds one aggregator node is charged for running `gar` over `rows`
    /// gradients of `dim` coordinates (the effective dimension, or one
    /// shard's columns of it): the rule's counted work times the rates.
    ///
    /// # Errors
    ///
    /// Returns [`PsError::Aggregation`] when `rows` does not seat the rule —
    /// the resilience error the round itself would return.
    pub fn aggregation_time(gar: GarConfig, rows: usize, dim: usize) -> Result<f64> {
        let GarWork { pairs, tile_rows, mean_rows, decode_rows } =
            gar.work(rows).map_err(PsError::from)?;
        let ns_per_coord = pairs as f64 * DISTANCE_NS_PER_PAIR_COORD
            + tile_rows as f64 * TILE_NS_PER_ROW_COORD
            + mean_rows as f64 * MEAN_NS_PER_ROW_COORD
            + decode_rows as f64 * DECODE_NS_PER_ROW_COORD;
        Ok(ns_per_coord * dim as f64 * 1e-9)
    }

    /// Number of bytes exchanged for one gradient or one model copy.
    pub fn payload_bytes(&self, actual_dimension: usize) -> usize {
        self.effective_dimension(actual_dimension) * std::mem::size_of::<f32>()
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cnn_gradient_time_is_sub_second() {
        // Table 1 CNN, b = 100, Grid5000-class node (~50 GFLOP/s).
        let cost = CostModel::paper_like().with_virtual_model(VirtualModelCost::paper_cnn());
        let t = cost.gradient_time(1, 100, 5.0e10);
        assert!(t > 0.1 && t < 1.5, "gradient time {t} out of the plausible range");
    }

    #[test]
    fn param_count_matches_table1_first_conv() {
        // Table 1: conv 5x5x64 on 3-channel input -> 5*5*3*64 + 64 = 4864.
        let conv1 = PAPER_CNN_LAYERS[0];
        assert_eq!(conv1.name, "conv1");
        assert_eq!(conv1.kind, CnnLayerKind::Conv);
        assert_eq!((conv1.kernel, conv1.in_channels, conv1.channels), (5, 3, 64));
        assert_eq!(conv1.params(), 5 * 5 * 3 * 64 + 64);
        assert_eq!(conv1.params(), 4864);
    }

    /// The figures agg-nn's convolution layers gave for the CNN they built
    /// (`models::paper_cnn(0)`: `layer_summary()`, `param_count()` and
    /// `flops_per_sample()`), before the crate shrank to the MLP.
    #[test]
    fn paper_cnn_has_about_1_75_million_parameters() {
        let params: Vec<u64> = PAPER_CNN_LAYERS
            .iter()
            .filter(|l| l.kind != CnnLayerKind::MaxPool)
            .map(CnnLayer::params)
            .collect();
        assert_eq!(params, [4_864, 102_464, 1_573_248, 73_920, 1_930]);
        let total: u64 = PAPER_CNN_LAYERS.iter().map(CnnLayer::params).sum();
        assert_eq!(total, 1_756_426);
        assert_eq!(total as usize, VirtualModelCost::paper_cnn().dimension);
        let flops: u64 = PAPER_CNN_LAYERS.iter().map(CnnLayer::flops).sum();
        assert_eq!(flops, 65_556_224);
        // The clock charges 556 224 FLOPs (0.85 %) fewer per sample.
        assert_eq!(flops - VirtualModelCost::paper_cnn().flops_per_sample, 556_224);
    }

    /// "SAME" padding maps a side of `w` to `ceil(w / stride)`; every layer
    /// reads the channels of the one before it, and FC1 the flattened
    /// 64 × 8 × 8 map.
    #[test]
    fn paper_cnn_layer_chain_is_consistent() {
        let (mut side, mut channels) = (32, 3);
        for layer in PAPER_CNN_LAYERS {
            match layer.kind {
                CnnLayerKind::Dense => {
                    assert_eq!(layer.in_channels, channels * side * side, "{}", layer.name);
                    assert_eq!((layer.kernel, layer.output), (1, 1), "{}", layer.name);
                }
                _ => {
                    assert_eq!(layer.in_channels, channels, "{}", layer.name);
                    assert_eq!(layer.output, side.div_ceil(layer.stride), "{}", layer.name);
                }
            }
            if layer.kind == CnnLayerKind::MaxPool {
                assert_eq!((layer.params(), layer.flops(), layer.channels), (0, 0, channels));
            }
            (side, channels) = (layer.output, layer.channels);
        }
        assert_eq!(channels, 10);
    }

    #[test]
    fn virtual_model_overrides_actual_costs() {
        let cost = CostModel::paper_like().with_virtual_model(VirtualModelCost::paper_cnn());
        assert_eq!(cost.effective_dimension(1000), 1_756_426);
        assert_eq!(cost.effective_flops(5), 65_000_000);
        let plain = CostModel::paper_like();
        assert_eq!(plain.effective_dimension(1000), 1000);
        assert_eq!(plain.effective_flops(5), 5);
    }

    #[test]
    fn gradient_time_scales_with_batch_and_node_speed() {
        let cost = CostModel::paper_like();
        let slow = cost.gradient_time(1_000_000, 10, 1e9);
        let fast = cost.gradient_time(1_000_000, 10, 1e10);
        assert!(slow > fast);
        let small_batch = cost.gradient_time(1_000_000, 10, 1e9);
        let big_batch = cost.gradient_time(1_000_000, 100, 1e9);
        assert!(big_batch > small_batch);
    }

    #[test]
    fn aggregation_time_is_the_counted_work_at_the_rates() {
        use agg_core::GarKind;
        let time = |kind, f| CostModel::aggregation_time(GarConfig::new(kind, f), 19, 1000);
        // Multi-Krum at n = 19, f = 4: 171 pairs and 13 averaged rows.
        let ns_per_coord = 171.0 * DISTANCE_NS_PER_PAIR_COORD + 13.0 * MEAN_NS_PER_ROW_COORD;
        let expected = ns_per_coord * 1000.0 * 1e-9;
        assert_eq!(time(GarKind::MultiKrum, 4).unwrap(), expected);
        // Linear in the dimension, and the paper's ordering holds.
        let avg = time(GarKind::Average, 0).unwrap();
        let bulyan = time(GarKind::Bulyan, 4).unwrap();
        assert!(avg < expected && expected < bulyan);
        let doubled = CostModel::aggregation_time(GarConfig::new(GarKind::Bulyan, 4), 19, 2000);
        assert!((doubled.unwrap() / bulyan - 2.0).abs() < 1e-12);
        // A roster below the rule's floor is the round's own refusal.
        assert!(matches!(time(GarKind::Bulyan, 5), Err(PsError::Aggregation(_))));
        // The majority vote pays its pair walk plus the decode of every row.
        let ns_per_coord = 171.0 * DISTANCE_NS_PER_PAIR_COORD + 19.0 * DECODE_NS_PER_ROW_COORD;
        assert_eq!(time(GarKind::Majority, 4).unwrap(), ns_per_coord * 1000.0 * 1e-9);
    }

    #[test]
    fn payload_bytes_are_four_per_parameter() {
        let cost = CostModel::paper_like();
        assert_eq!(cost.payload_bytes(1000), 4000);
        let virt = cost.with_virtual_model(VirtualModelCost::resnet50());
        assert_eq!(virt.payload_bytes(1000), 100_000_000);
    }

    #[test]
    fn update_time_grows_with_dimension() {
        let cost = CostModel::paper_like();
        assert!(cost.update_time(10_000_000) > cost.update_time(1_000_000));
    }
}
