//! 2-D convolution layer (direct convolution, NCHW layout).
//!
//! Like every parameterised layer, it reads its weights from and writes its
//! gradient into its sub-slices of the model's flat vectors (see
//! [`crate::Layer`]): weights `[out_channels, in_channels, kernel, kernel]`
//! row-major, then the bias.

use crate::init::Init;
use crate::layer::Layer;
use crate::{NnError, Result};
use agg_tensor::Tensor;

/// A 2-D convolution over `[batch, channels, height, width]` tensors.
///
/// Zero padding is symmetric (`padding` pixels on each side); the Table 1 CNN
/// uses `padding = kernel / 2` ("same" padding for odd kernels) with stride 1.
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    /// Initialiser and seed of the weights (the bias starts at zero).
    init: Init,
    seed: u64,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution layer.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0` or `kernel == 0` (programming errors, not data
    /// errors).
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        init: Init,
        seed: u64,
    ) -> Self {
        assert!(kernel > 0, "kernel size must be positive");
        assert!(stride > 0, "stride must be positive");
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            init,
            seed,
            cached_input: None,
        }
    }

    /// Convenience constructor for the paper's "same"-padded stride-1
    /// convolutions: `padding = kernel / 2`.
    pub fn same(in_channels: usize, out_channels: usize, kernel: usize, seed: u64) -> Self {
        Conv2d::new(in_channels, out_channels, kernel, 1, kernel / 2, Init::HeNormal, seed)
    }

    fn spatial_output(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        let padded_h = h + 2 * self.padding;
        let padded_w = w + 2 * self.padding;
        if padded_h < self.kernel || padded_w < self.kernel {
            return Err(NnError::BadInputShape {
                layer: "conv2d",
                expected: format!("spatial size >= {}", self.kernel),
                actual: vec![h, w],
            });
        }
        Ok(((padded_h - self.kernel) / self.stride + 1, (padded_w - self.kernel) / self.stride + 1))
    }

    fn check_input(&self, input: &Tensor) -> Result<(usize, usize, usize)> {
        let shape = input.shape();
        if shape.len() != 4 || shape[1] != self.in_channels {
            return Err(NnError::BadInputShape {
                layer: "conv2d",
                expected: format!("[batch, {}, h, w]", self.in_channels),
                actual: shape.to_vec(),
            });
        }
        Ok((shape[0], shape[2], shape[3]))
    }

    fn weight_count(&self) -> usize {
        self.out_channels * self.in_channels * self.kernel * self.kernel
    }

    #[inline]
    fn weight_index(&self, oc: usize, ic: usize, ki: usize, kj: usize) -> usize {
        ((oc * self.in_channels + ic) * self.kernel + ki) * self.kernel + kj
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>> {
        if input_shape.len() != 3 || input_shape[0] != self.in_channels {
            return Err(NnError::BadInputShape {
                layer: "conv2d",
                expected: format!("[{}, h, w]", self.in_channels),
                actual: input_shape.to_vec(),
            });
        }
        let (oh, ow) = self.spatial_output(input_shape[1], input_shape[2])?;
        Ok(vec![self.out_channels, oh, ow])
    }

    fn forward(&mut self, params: &[f32], input: &Tensor) -> Result<Tensor> {
        let (batch, h, w) = self.check_input(input)?;
        let (weights, bias) = params.split_at(self.weight_count());
        let (oh, ow) = self.spatial_output(h, w)?;
        let x = input.as_slice();
        let mut out = vec![0.0f32; batch * self.out_channels * oh * ow];
        let in_plane = h * w;
        let out_plane = oh * ow;
        for n in 0..batch {
            for oc in 0..self.out_channels {
                let bias = bias[oc];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias;
                        for ic in 0..self.in_channels {
                            let x_base = (n * self.in_channels + ic) * in_plane;
                            for ki in 0..self.kernel {
                                let iy = (oy * self.stride + ki) as isize - self.padding as isize;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                for kj in 0..self.kernel {
                                    let ix =
                                        (ox * self.stride + kj) as isize - self.padding as isize;
                                    if ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    acc += x[x_base + iy as usize * w + ix as usize]
                                        * weights[self.weight_index(oc, ic, ki, kj)];
                                }
                            }
                        }
                        out[(n * self.out_channels + oc) * out_plane + oy * ow + ox] = acc;
                    }
                }
            }
        }
        self.cached_input = Some(input.clone());
        Tensor::from_vec(&[batch, self.out_channels, oh, ow], out).map_err(NnError::from)
    }

    fn backward(
        &mut self,
        params: &[f32],
        grad_output: &Tensor,
        grad_params: &mut [f32],
    ) -> Result<Tensor> {
        let input = self.cached_input.take().ok_or(NnError::BackwardBeforeForward("conv2d"))?;
        let weights = &params[..self.weight_count()];
        let (grad_weights, grad_bias) = grad_params.split_at_mut(self.weight_count());
        let (batch, h, w) = self.check_input(&input)?;
        let (oh, ow) = self.spatial_output(h, w)?;
        let x = input.as_slice();
        let go = grad_output.as_slice();
        let in_plane = h * w;
        let out_plane = oh * ow;
        let mut grad_input = vec![0.0f32; batch * self.in_channels * in_plane];
        for n in 0..batch {
            for oc in 0..self.out_channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = go[(n * self.out_channels + oc) * out_plane + oy * ow + ox];
                        if g == 0.0 {
                            continue;
                        }
                        grad_bias[oc] += g;
                        for ic in 0..self.in_channels {
                            let x_base = (n * self.in_channels + ic) * in_plane;
                            for ki in 0..self.kernel {
                                let iy = (oy * self.stride + ki) as isize - self.padding as isize;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                for kj in 0..self.kernel {
                                    let ix =
                                        (ox * self.stride + kj) as isize - self.padding as isize;
                                    if ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    let xi = x_base + iy as usize * w + ix as usize;
                                    let wi = self.weight_index(oc, ic, ki, kj);
                                    grad_weights[wi] += x[xi] * g;
                                    grad_input[xi] += weights[wi] * g;
                                }
                            }
                        }
                    }
                }
            }
        }
        Tensor::from_vec(&[batch, self.in_channels, h, w], grad_input).map_err(NnError::from)
    }

    fn param_count(&self) -> usize {
        self.weight_count() + self.out_channels
    }

    fn initial_params(&self, out: &mut Vec<f32>) {
        let fan_in = self.in_channels * self.kernel * self.kernel;
        let fan_out = self.out_channels * self.kernel * self.kernel;
        out.extend(self.init.generate(self.weight_count(), fan_in, fan_out, self.seed));
        out.resize(out.len() + self.out_channels, 0.0);
    }

    fn forward_flops(&self, input_shape: &[usize]) -> u64 {
        if input_shape.len() != 3 {
            return 0;
        }
        match self.spatial_output(input_shape[1], input_shape[2]) {
            Ok((oh, ow)) => {
                2 * (self.out_channels * self.in_channels * self.kernel * self.kernel * oh * ow)
                    as u64
            }
            Err(_) => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1-channel 3x3 convolution with "same" padding for hand checks.
    fn identity_conv() -> Conv2d {
        Conv2d::new(1, 1, 3, 1, 1, Init::Zeros, 0)
    }

    /// Its parameters: a kernel with a 1 in the centre (output == input),
    /// zero bias.
    const IDENTITY: [f32; 10] = [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0];

    #[test]
    fn identity_kernel_preserves_input() {
        let mut conv = identity_conv();
        let x = Tensor::from_vec(&[1, 1, 3, 3], (1..=9).map(|v| v as f32).collect()).unwrap();
        let y = conv.forward(&IDENTITY, &x).unwrap();
        assert_eq!(y.shape(), &[1, 1, 3, 3]);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn output_shape_follows_stride_and_padding() {
        let conv = Conv2d::new(3, 8, 5, 1, 2, Init::Zeros, 0);
        assert_eq!(conv.output_shape(&[3, 32, 32]).unwrap(), vec![8, 32, 32]);
        let strided = Conv2d::new(3, 8, 3, 2, 0, Init::Zeros, 0);
        assert_eq!(strided.output_shape(&[3, 9, 9]).unwrap(), vec![8, 4, 4]);
        assert!(conv.output_shape(&[1, 32, 32]).is_err());
        assert!(conv.output_shape(&[3, 32]).is_err());
    }

    #[test]
    fn sum_kernel_computes_local_sums() {
        // 2x2 kernel of ones, stride 1, no padding, on a 2x2 input of ones
        // => single output = 4 + bias.
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, Init::Zeros, 0);
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0; 4]).unwrap();
        let y = conv.forward(&[1.0, 1.0, 1.0, 1.0, 0.5], &x).unwrap();
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.as_slice(), &[4.5]);
    }

    #[test]
    fn backward_of_identity_kernel_passes_gradient_through() {
        let mut conv = identity_conv();
        let x = Tensor::from_vec(&[1, 1, 3, 3], vec![1.0; 9]).unwrap();
        conv.forward(&IDENTITY, &x).unwrap();
        let go = Tensor::from_vec(&[1, 1, 3, 3], (1..=9).map(|v| v as f32).collect()).unwrap();
        let mut grads = vec![0.0; 10];
        let gi = conv.backward(&IDENTITY, &go, &mut grads).unwrap();
        assert_eq!(gi.as_slice(), go.as_slice());
        // Bias gradient = sum of output gradients = 45.
        assert_eq!(grads[9], 45.0);
        // Centre weight gradient = sum_i x_i * go_i = 45 (x is all ones).
        assert_eq!(grads[4], 45.0);
    }

    #[test]
    fn multi_channel_shapes() {
        let mut conv = Conv2d::new(3, 4, 3, 1, 1, Init::HeNormal, 5);
        let mut params = Vec::new();
        conv.initial_params(&mut params);
        assert_eq!(params.len(), conv.param_count());
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let y = conv.forward(&params, &x).unwrap();
        assert_eq!(y.shape(), &[2, 4, 8, 8]);
        let mut grads = vec![0.0; params.len()];
        let gi = conv.backward(&params, &y, &mut grads).unwrap();
        assert_eq!(gi.shape(), &[2, 3, 8, 8]);
    }

    #[test]
    fn rejects_bad_input_and_double_backward() {
        let mut conv = Conv2d::new(1, 1, 3, 1, 0, Init::Zeros, 0);
        let params = [0.0; 10];
        assert!(conv.forward(&params, &Tensor::zeros(&[1, 2, 4, 4])).is_err());
        assert!(conv.forward(&params, &Tensor::zeros(&[1, 1, 2, 2])).is_err());
        assert!(conv.backward(&params, &Tensor::zeros(&[1, 1, 1, 1]), &mut [0.0; 10]).is_err());
    }

    #[test]
    fn param_count_matches_table1_first_conv() {
        // Table 1: conv 5x5x64 on 3-channel input -> 5*5*3*64 + 64 = 4864.
        let conv = Conv2d::same(3, 64, 5, 0);
        assert_eq!(conv.param_count(), 4864);
    }

    #[test]
    fn flops_scale_with_spatial_size() {
        let conv = Conv2d::same(3, 16, 3, 0);
        let small = conv.forward_flops(&[3, 8, 8]);
        let big = conv.forward_flops(&[3, 16, 16]);
        assert_eq!(big, small * 4);
    }
}
