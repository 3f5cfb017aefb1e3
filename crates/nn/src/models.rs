//! Ready-made model architectures used by the experiments.

use crate::init::Init;
use crate::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
use crate::model::Sequential;

/// The paper's Table 1 CNN for CIFAR-10-shaped inputs (`3 × 32 × 32`):
///
/// | Input | Conv1 | Pool1 | Conv2 | Pool2 | FC1 | FC2 | FC3 |
/// |---|---|---|---|---|---|---|---|
/// | 32×32×3 | 5×5×64, stride 1 | 3×3, stride 2 | 5×5×64, stride 1 | 3×3, stride 2 | 384 | 192 | 10 |
///
/// With "SAME" padding throughout, the parameter count is ≈ 1.75 M, matching
/// the paper's description of the model.
pub fn paper_cnn(seed: u64) -> Sequential {
    Sequential::new(&[3, 32, 32])
        .with_layer(Box::new(Conv2d::same(3, 64, 5, seed)))
        .with_layer(Box::new(Relu::new()))
        .with_layer(Box::new(MaxPool2d::same(3, 2)))
        .with_layer(Box::new(Conv2d::same(64, 64, 5, seed + 1)))
        .with_layer(Box::new(Relu::new()))
        .with_layer(Box::new(MaxPool2d::same(3, 2)))
        .with_layer(Box::new(Flatten::new()))
        .with_layer(Box::new(Dense::new(64 * 8 * 8, 384, Init::HeNormal, seed + 2)))
        .with_layer(Box::new(Relu::new()))
        .with_layer(Box::new(Dense::new(384, 192, Init::HeNormal, seed + 3)))
        .with_layer(Box::new(Relu::new()))
        .with_layer(Box::new(Dense::new(192, 10, Init::XavierUniform, seed + 4)))
}

/// A small convolutional model with the same layer pattern as the Table 1 CNN
/// but scaled down to `channels × 8 × 8` inputs, so end-to-end distributed
/// training experiments run in seconds on a laptop while exercising exactly
/// the same code path (conv → pool → conv → pool → dense stack).
pub fn small_cnn(channels: usize, classes: usize, seed: u64) -> Sequential {
    Sequential::new(&[channels, 8, 8])
        .with_layer(Box::new(Conv2d::same(channels, 8, 3, seed)))
        .with_layer(Box::new(Relu::new()))
        .with_layer(Box::new(MaxPool2d::same(2, 2)))
        .with_layer(Box::new(Conv2d::same(8, 8, 3, seed + 1)))
        .with_layer(Box::new(Relu::new()))
        .with_layer(Box::new(MaxPool2d::same(2, 2)))
        .with_layer(Box::new(Flatten::new()))
        .with_layer(Box::new(Dense::new(8 * 2 * 2, 32, Init::HeNormal, seed + 2)))
        .with_layer(Box::new(Relu::new()))
        .with_layer(Box::new(Dense::new(32, classes, Init::XavierUniform, seed + 3)))
}

/// A plain multi-layer perceptron over flat feature vectors.
///
/// Used for the convergence-shape experiments: the Byzantine-resilience
/// statements are about gradient statistics, not about convolution, so the
/// MLP gives the same comparative curves at a fraction of the cost.
pub fn synthetic_mlp(input_dim: usize, hidden: &[usize], classes: usize, seed: u64) -> Sequential {
    let mut model = Sequential::new(&[input_dim]);
    let mut in_dim = input_dim;
    let mut layer_seed = seed;
    for &h in hidden {
        model.push(Box::new(Dense::new(in_dim, h, Init::HeNormal, layer_seed)));
        model.push(Box::new(Relu::new()));
        in_dim = h;
        layer_seed += 1;
    }
    model.push(Box::new(Dense::new(in_dim, classes, Init::XavierUniform, layer_seed)));
    model
}

/// The "large model" standing in for ResNet50 in the Figure 5(b) scalability
/// experiment.
///
/// ResNet50 has ~25.6 M parameters and a gradient-computation cost that
/// dwarfs aggregation; what the experiment needs is that ratio, so the
/// stand-in is a deep, wide MLP whose parameter count (~25 M) and per-sample
/// FLOPs are in the same regime. It is used for cost modelling and parameter
/// counting, not for accuracy experiments.
pub fn large_model(seed: u64) -> Sequential {
    // 2048 -> 3072 -> 3072 -> 2048 -> 1000 ≈ 24 M parameters.
    synthetic_mlp(2048, &[3072, 3072, 2048], 1000, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use agg_tensor::Tensor;

    /// The initial vector of the benchmark workloads' MLP (HeNormal hidden
    /// layer, XavierUniform output layer, zero biases), FNV-1a over its bits.
    #[test]
    fn synthetic_mlp_initial_parameters_are_pinned() {
        let params = synthetic_mlp(256, &[384], 10, 42).parameters();
        let hash = params.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
            x.to_bits()
                .to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
        });
        assert_eq!(hash, 0xbe9e_7b86_d024_ac9f, "{hash:#018x}");
    }

    #[test]
    fn paper_cnn_has_about_1_75_million_parameters() {
        let model = paper_cnn(0);
        let d = model.param_count();
        // The paper reports "a total of 1.75M parameters"; this is the exact
        // total `table1` prints, and its per-layer rows sum to it.
        assert_eq!(d, 1_756_426);
        let per_layer: usize = model.layer_summary().iter().map(|&(_, p)| p).sum();
        assert_eq!(per_layer, d);
        assert_eq!(model.output_shape().unwrap(), vec![10]);
    }

    #[test]
    fn paper_cnn_layer_chain_is_consistent() {
        let model = paper_cnn(1);
        // Conv1 4864 params, Conv2 102464, FC1 1573248, FC2 73920, FC3 1930.
        let summary = model.layer_summary();
        let conv_params: Vec<usize> =
            summary.iter().filter(|(n, _)| *n == "conv2d").map(|&(_, p)| p).collect();
        assert_eq!(conv_params, vec![4864, 102_464]);
        let dense_params: Vec<usize> =
            summary.iter().filter(|(n, _)| *n == "dense").map(|&(_, p)| p).collect();
        assert_eq!(dense_params, vec![1_573_248, 73_920, 1930]);
    }

    #[test]
    fn small_cnn_forward_backward_runs() {
        let mut model = small_cnn(1, 4, 2);
        let x = Tensor::zeros(&[2, 1, 8, 8]);
        let eval = model.gradient(&x, &[0, 1]).unwrap();
        assert_eq!(eval.gradient.len(), model.param_count());
        assert!(eval.score.loss.is_finite());
    }

    #[test]
    fn mlp_layer_structure() {
        let model = synthetic_mlp(16, &[32, 8], 4, 3);
        assert_eq!(model.output_shape().unwrap(), vec![4]);
        assert_eq!(model.param_count(), 16 * 32 + 32 + 32 * 8 + 8 + 8 * 4 + 4);
    }

    #[test]
    fn large_model_is_in_the_resnet50_parameter_regime() {
        let model = large_model(0);
        let d = model.param_count();
        assert!((20_000_000..=30_000_000).contains(&d), "expected ~25M parameters, got {d}");
        // Its per-sample compute must dwarf the small CNN's.
        assert!(model.flops_per_sample() > 20 * small_cnn(3, 10, 0).flops_per_sample());
    }
}
