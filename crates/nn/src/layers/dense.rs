//! Fully connected (dense) layer.
//!
//! The layer holds no weights: it reads them from its sub-slice of the
//! model's flat parameter vector and adds its gradient into its sub-slice of
//! the model's flat gradient, weights first, row-major
//! `[in_features, out_features]`, then the bias. It keeps no activations
//! either: [`crate::Sequential`] hands every call the input it needs. The
//! three products — forward, weight gradient, input gradient — run on the
//! register-tiled slice kernels in [`agg_tensor::gemm`], called directly on
//! those slices. The kernels add the terms of every output element in the
//! order the sample-at-a-time loops did, so gradients are bit-identical to
//! that scalar form; the test module keeps those loops as the oracle.

use crate::init::Init;
use crate::{NnError, Result};
use agg_tensor::{gemm, Tensor};

/// A fully connected layer: `y = x · W + b`, over `[batch, in_features]`
/// row-major inputs.
#[derive(Debug, Clone)]
pub(crate) struct Dense {
    in_features: usize,
    out_features: usize,
    /// Initialiser and seed of the weights (the bias starts at zero).
    init: Init,
    seed: u64,
    /// Transposed `grad_output` for the input-gradient kernel, kept across
    /// calls so `backward_input` does not allocate it anew each time.
    grad_output_t: Vec<f32>,
}

impl Dense {
    /// Creates a dense layer whose initial weights come from `init` and
    /// `seed`.
    pub(crate) fn new(in_features: usize, out_features: usize, init: Init, seed: u64) -> Self {
        Dense { in_features, out_features, init, seed, grad_output_t: Vec::new() }
    }

    /// Output feature count.
    pub(crate) fn out_features(&self) -> usize {
        self.out_features
    }

    /// The batch size of `input`, which must be `[batch, in_features]`.
    pub(crate) fn check_input(&self, input: &Tensor) -> Result<usize> {
        let shape = input.shape();
        if shape.len() != 2 || shape[1] != self.in_features {
            return Err(NnError::BadInputShape {
                layer: "dense",
                expected: format!("[batch, {}]", self.in_features),
                actual: shape.to_vec(),
            });
        }
        Ok(shape[0])
    }

    /// Number of trainable parameters.
    pub(crate) fn param_count(&self) -> usize {
        (self.in_features + 1) * self.out_features
    }

    /// Appends the initial parameter values to `out`, drawn from the
    /// initialiser and seed on each call, so repeated calls agree.
    pub(crate) fn initial_params(&self, out: &mut Vec<f32>) {
        let (fan_in, fan_out) = (self.in_features, self.out_features);
        let start = out.len();
        // The bias starts at the zeros the resize writes.
        out.resize(start + self.param_count(), 0.0);
        self.init.fill(&mut out[start..start + fan_in * fan_out], fan_in, fan_out, self.seed);
    }

    /// Forward FLOPs for one sample (a multiply and an add per weight).
    pub(crate) fn forward_flops(&self) -> u64 {
        2 * self.in_features as u64 * self.out_features as u64
    }

    /// The `[batch, out_features]` output for `batch` rows of `input`.
    pub(crate) fn forward(&self, params: &[f32], input: &[f32], batch: usize) -> Vec<f32> {
        let (weights, bias) = params.split_at(self.in_features * self.out_features);
        let mut out = Vec::with_capacity(batch * self.out_features);
        for _ in 0..batch {
            out.extend_from_slice(bias);
        }
        gemm::matmul_acc(input, weights, &mut out, batch, self.in_features, self.out_features);
        out
    }

    /// Adds the weight and bias gradients of the `batch` rows of `input` and
    /// `grad_output` to `grad_params` (samples in order).
    pub(crate) fn backward_params(
        &self,
        input: &[f32],
        grad_output: &[f32],
        grad_params: &mut [f32],
        batch: usize,
    ) {
        let (grad_weights, grad_bias) =
            grad_params.split_at_mut(self.in_features * self.out_features);
        for go_row in grad_output.chunks_exact(self.out_features) {
            for (gb, &g) in grad_bias.iter_mut().zip(go_row) {
                *gb += g;
            }
        }
        gemm::matmul_tn_acc(
            input,
            grad_output,
            grad_weights,
            batch,
            self.in_features,
            self.out_features,
        );
    }

    /// The `[batch, in_features]` gradient with respect to the input.
    pub(crate) fn backward_input(
        &mut self,
        params: &[f32],
        grad_output: &[f32],
        batch: usize,
    ) -> Vec<f32> {
        let mut grad_input = vec![0.0f32; batch * self.in_features];
        gemm::matmul_nt(
            grad_output,
            &params[..self.in_features * self.out_features],
            &mut grad_input,
            &mut self.grad_output_t,
            batch,
            self.in_features,
            self.out_features,
        );
        grad_input
    }
}

/// The sample-at-a-time loops `Dense` ran before it moved onto the tiled
/// kernels, kept as the reference the kernels must equal bit for bit.
#[cfg(test)]
pub(crate) mod oracle {
    /// A dense layer computed one sample and one input at a time.
    #[derive(Debug)]
    pub(crate) struct ScalarDense {
        in_features: usize,
        out_features: usize,
    }

    impl ScalarDense {
        /// A layer of the given shape (weights then bias in `params`, as
        /// [`super::Dense`] lays them out).
        pub(crate) fn new(in_features: usize, out_features: usize) -> Self {
            ScalarDense { in_features, out_features }
        }

        /// The `[batch, out_features]` output for `batch` rows of `x`.
        pub(crate) fn forward(&self, params: &[f32], x: &[f32], batch: usize) -> Vec<f32> {
            let (weights, bias) = params.split_at(self.in_features * self.out_features);
            let mut out = vec![0.0f32; batch * self.out_features];
            for n in 0..batch {
                let x_row = &x[n * self.in_features..(n + 1) * self.in_features];
                let out_row = &mut out[n * self.out_features..(n + 1) * self.out_features];
                out_row.copy_from_slice(bias);
                for (i, &xi) in x_row.iter().enumerate() {
                    if xi == 0.0 {
                        continue;
                    }
                    let w_row = &weights[i * self.out_features..(i + 1) * self.out_features];
                    for (o, &w) in w_row.iter().enumerate() {
                        out_row[o] += xi * w;
                    }
                }
            }
            out
        }

        /// Adds the parameter gradients of the batch to `grad_params` and
        /// returns the gradient with respect to `x`.
        pub(crate) fn backward(
            &self,
            params: &[f32],
            x: &[f32],
            go: &[f32],
            grad_params: &mut [f32],
            batch: usize,
        ) -> Vec<f32> {
            let weights = &params[..self.in_features * self.out_features];
            let (grad_weights, grad_bias) =
                grad_params.split_at_mut(self.in_features * self.out_features);
            let mut grad_input = vec![0.0f32; batch * self.in_features];
            for n in 0..batch {
                let go_row = &go[n * self.out_features..(n + 1) * self.out_features];
                let x_row = &x[n * self.in_features..(n + 1) * self.in_features];
                for (o, &g) in go_row.iter().enumerate() {
                    grad_bias[o] += g;
                }
                let gi_row = &mut grad_input[n * self.in_features..(n + 1) * self.in_features];
                for (i, &xi) in x_row.iter().enumerate() {
                    let w_row = &weights[i * self.out_features..(i + 1) * self.out_features];
                    let gw_row =
                        &mut grad_weights[i * self.out_features..(i + 1) * self.out_features];
                    let mut acc = 0.0;
                    for (o, &g) in go_row.iter().enumerate() {
                        gw_row[o] += xi * g;
                        acc += w_row[o] * g;
                    }
                    gi_row[i] += acc;
                }
            }
            grad_input
        }
    }

    /// Bit equality, except that any NaN equals any NaN: which payload an
    /// operation on two NaNs returns is not something Rust pins down.
    pub(crate) fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (idx, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: element {idx} is {g:e} ({:#x}), the scalar loops give {w:e} ({:#x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{assert_same_bits, ScalarDense};
    use super::*;
    use proptest::prelude::*;

    /// 2 -> 2 with known parameters: W = [[1, 2], [3, 4]], b = [0.5, -0.5].
    const SIMPLE: [f32; 6] = [1.0, 2.0, 3.0, 4.0, 0.5, -0.5];

    fn simple_dense() -> Dense {
        Dense::new(2, 2, Init::Zeros, 0)
    }

    #[test]
    fn forward_matches_hand_computation() {
        let layer = simple_dense();
        let y = layer.forward(&SIMPLE, &[1.0, 1.0], 1);
        // [1*1 + 1*3 + 0.5, 1*2 + 1*4 - 0.5] = [4.5, 5.5]
        assert_eq!(y, vec![4.5, 5.5]);
    }

    #[test]
    fn backward_computes_all_three_gradients() {
        let mut layer = simple_dense();
        let (x, go) = ([1.0, 2.0], [1.0, 1.0]);
        let mut grads = vec![0.0; 6];
        layer.backward_params(&x, &go, &mut grads, 1);
        let gi = layer.backward_input(&SIMPLE, &go, 1);
        // dL/dx_i = sum_o W[i][o] * go[o] => [1+2, 3+4] = [3, 7]
        assert_eq!(gi, vec![3.0, 7.0]);
        // dW[i][o] = x_i * go_o => [[1,1],[2,2]]; db = [1,1]
        assert_eq!(grads, vec![1.0, 1.0, 2.0, 2.0, 1.0, 1.0]);
    }

    #[test]
    fn backward_adds_to_the_gradient_it_is_given() {
        let layer = simple_dense();
        let mut grads = vec![0.0; 6];
        for _ in 0..2 {
            layer.backward_params(&[1.0, 0.0], &[1.0, 0.0], &mut grads, 1);
        }
        assert_eq!(grads, vec![2.0, 0.0, 0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn initial_params_follow_the_seed() {
        let layer = Dense::new(3, 4, Init::HeNormal, 42);
        let mut params = Vec::new();
        layer.initial_params(&mut params);
        assert_eq!(params.len(), layer.param_count());
        assert_eq!(params.len(), 16);
        assert_eq!(&params[12..], &[0.0; 4], "the bias starts at zero");
        let mut again = Vec::new();
        Dense::new(3, 4, Init::HeNormal, 42).initial_params(&mut again);
        assert_eq!(again, params);
        let mut other = Vec::new();
        Dense::new(3, 4, Init::HeNormal, 43).initial_params(&mut other);
        assert_ne!(other, params);
    }

    #[test]
    fn shape_errors() {
        let layer = Dense::new(2, 3, Init::Zeros, 0);
        assert!(matches!(
            layer.check_input(&Tensor::zeros(&[1, 5])).unwrap_err(),
            NnError::BadInputShape { layer: "dense", .. }
        ));
        assert!(layer.check_input(&Tensor::zeros(&[2])).is_err());
        assert_eq!(layer.check_input(&Tensor::zeros(&[4, 2])).unwrap(), 4);
    }

    #[test]
    fn batch_processing_is_independent_per_sample() {
        let layer = simple_dense();
        let y = layer.forward(&SIMPLE, &[1.0, 0.0, 0.0, 1.0], 2);
        assert_eq!(y.len(), 4);
        assert_eq!(&y[..2], &[1.5, 1.5]); // row [1,0]
        assert_eq!(&y[2..], &[3.5, 3.5]); // row [0,1]
    }

    #[test]
    fn flops_estimate_is_positive() {
        assert_eq!(Dense::new(10, 20, Init::Zeros, 0).forward_flops(), 400);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut layer = simple_dense();
        assert!(layer.forward(&SIMPLE, &[], 0).is_empty());
        let mut grads = vec![0.0; 6];
        layer.backward_params(&[], &[], &mut grads, 0);
        assert!(layer.backward_input(&SIMPLE, &[], 0).is_empty());
        assert!(grads.iter().all(|&g| g == 0.0));
    }

    /// A layer input or parameter: mostly ordinary values, a fifth exact
    /// zeros (what a ReLU hands the next layer), some `-0.0`, huge and tiny
    /// magnitudes and, when `specials` is set, the occasional ±∞ or NaN.
    fn value(specials: bool) -> impl Strategy<Value = f32> {
        (0u32..64, -2.0f32..2.0).prop_map(move |(pick, v)| match pick {
            0..=11 => 0.0,
            12 | 13 => -0.0,
            14 if specials => f32::INFINITY,
            15 if specials => f32::NEG_INFINITY,
            16 if specials => f32::NAN,
            17 => v * 1e30,
            18 => v * 1e-30,
            _ => v,
        })
    }

    /// Everything one comparison needs: the shape (batch sizes around the
    /// four-row tile, output widths around the sixteen-column tile, input
    /// widths that are not multiples of four), the parameters, one input and
    /// two output gradients.
    #[derive(Debug)]
    struct Case {
        batch: usize,
        in_features: usize,
        out_features: usize,
        params: Vec<f32>,
        input: Vec<f32>,
        grad_outputs: [Vec<f32>; 2],
    }

    const BATCHES: [usize; 7] = [0, 1, 2, 3, 4, 5, 25];
    const IN_FEATURES: [usize; 5] = [1, 3, 6, 13, 30];
    const OUT_FEATURES: [usize; 6] = [1, 10, 15, 16, 17, 384];

    fn case(specials: bool) -> impl Strategy<Value = Case> {
        (0..BATCHES.len(), 0..IN_FEATURES.len(), 0..OUT_FEATURES.len()).prop_flat_map(
            move |(b, i, o)| {
                let (batch, in_features, out_features) =
                    (BATCHES[b], IN_FEATURES[i], OUT_FEATURES[o]);
                let values = |len| prop::collection::vec(value(specials), len);
                (
                    values((in_features + 1) * out_features),
                    values(batch * in_features),
                    values(batch * out_features),
                    values(batch * out_features),
                )
                    .prop_map(move |(params, input, g0, g1)| Case {
                        batch,
                        in_features,
                        out_features,
                        params,
                        input,
                        grad_outputs: [g0, g1],
                    })
            },
        )
    }

    /// Forward, then two backward rounds into the same gradient buffers (so
    /// the second weight gradient starts from a non-zero sum), comparing
    /// every output with the scalar loops.
    fn check_against_the_scalar_loops(case: &Case) {
        let Case { batch, in_features, out_features, ref params, ref input, .. } = *case;
        let mut tiled = Dense::new(in_features, out_features, Init::Zeros, 0);
        let scalar = ScalarDense::new(in_features, out_features);
        let (mut want, mut got) = (vec![0.0; params.len()], vec![0.0; params.len()]);
        for grad_output in &case.grad_outputs {
            let want_y = scalar.forward(params, input, batch);
            let got_y = tiled.forward(params, input, batch);
            assert_same_bits(&got_y, &want_y, "forward");
            let want_x = scalar.backward(params, input, grad_output, &mut want, batch);
            tiled.backward_params(input, grad_output, &mut got, batch);
            let got_x = tiled.backward_input(params, grad_output, batch);
            assert_same_bits(&got_x, &want_x, "input gradient");
        }
        assert_same_bits(&got, &want, "parameter gradients");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn tiled_kernels_equal_the_scalar_loops_bit_for_bit(case in case(false)) {
            check_against_the_scalar_loops(&case);
        }

        #[test]
        fn tiled_kernels_equal_the_scalar_loops_on_infinities_and_nan(case in case(true)) {
            check_against_the_scalar_loops(&case);
        }
    }
}
