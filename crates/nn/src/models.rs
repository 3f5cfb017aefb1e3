//! The model the experiments train.

use crate::init::Init;
use crate::layers::dense::Dense;
use crate::model::Sequential;

/// A plain multi-layer perceptron over flat feature vectors: a dense layer
/// per width in `hidden` (He-normal weights, seeds `seed`, `seed + 1`, …),
/// each followed by a ReLU, then a dense layer to `classes` (Xavier-uniform
/// weights, the next seed); every bias starts at zero.
///
/// The Byzantine-resilience statements are about gradient statistics, not
/// about convolution, so the MLP gives the same comparative curves at a
/// fraction of the cost; the time the paper's CNN would take is charged
/// through `agg_ps::VirtualModelCost`.
pub fn synthetic_mlp(input_dim: usize, hidden: &[usize], classes: usize, seed: u64) -> Sequential {
    let mut layers = Vec::with_capacity(hidden.len() + 1);
    let mut in_dim = input_dim;
    let mut layer_seed = seed;
    for &h in hidden {
        layers.push(Dense::new(in_dim, h, Init::HeNormal, layer_seed));
        in_dim = h;
        layer_seed += 1;
    }
    layers.push(Dense::new(in_dim, classes, Init::XavierUniform, layer_seed));
    Sequential::new(input_dim, layers)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn mlp_layer_structure() {
        let model = synthetic_mlp(16, &[32, 8], 4, 3);
        assert_eq!(model.input_shape(), &[16]);
        assert_eq!(model.param_count(), 16 * 32 + 32 + 32 * 8 + 8 + 8 * 4 + 4);
        assert_eq!(model.flops_per_sample(), 2 * (16 * 32 + 32 * 8 + 8 * 4));
    }
}
