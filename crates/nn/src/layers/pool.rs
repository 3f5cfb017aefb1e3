//! Max pooling layer (NCHW layout).

use crate::layer::Layer;
use crate::{NnError, Result};
use agg_tensor::Tensor;

/// 2-D max pooling.
///
/// With `same_padding = true` the output spatial size is `ceil(size / stride)`
/// (TensorFlow "SAME" semantics), which is what the Table 1 CNN relies on to
/// reach its 1.75 M-parameter count; padded positions are treated as `-∞` and
/// can never win the max.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    same_padding: bool,
    /// For backward: shape of the cached input and, for every output element,
    /// the flat input index that won the max.
    cached: Option<(Vec<usize>, Vec<usize>)>,
}

impl MaxPool2d {
    /// Creates a max-pooling layer with "VALID" (no) padding.
    ///
    /// # Panics
    ///
    /// Panics if `kernel == 0` or `stride == 0`.
    pub fn new(kernel: usize, stride: usize) -> Self {
        assert!(kernel > 0 && stride > 0, "kernel and stride must be positive");
        MaxPool2d { kernel, stride, same_padding: false, cached: None }
    }

    /// Creates a max-pooling layer with TensorFlow-style "SAME" padding.
    ///
    /// # Panics
    ///
    /// Panics if `kernel == 0` or `stride == 0`.
    pub fn same(kernel: usize, stride: usize) -> Self {
        assert!(kernel > 0 && stride > 0, "kernel and stride must be positive");
        MaxPool2d { kernel, stride, same_padding: true, cached: None }
    }

    fn spatial_output(&self, size: usize) -> Result<(usize, usize)> {
        if self.same_padding {
            let out = size.div_ceil(self.stride);
            let needed = (out - 1) * self.stride + self.kernel;
            let pad_total = needed.saturating_sub(size);
            Ok((out, pad_total / 2))
        } else {
            if size < self.kernel {
                return Err(NnError::BadInputShape {
                    layer: "maxpool2d",
                    expected: format!("spatial size >= {}", self.kernel),
                    actual: vec![size],
                });
            }
            Ok(((size - self.kernel) / self.stride + 1, 0))
        }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>> {
        if input_shape.len() != 3 {
            return Err(NnError::BadInputShape {
                layer: "maxpool2d",
                expected: "[channels, h, w]".to_string(),
                actual: input_shape.to_vec(),
            });
        }
        let (oh, _) = self.spatial_output(input_shape[1])?;
        let (ow, _) = self.spatial_output(input_shape[2])?;
        Ok(vec![input_shape[0], oh, ow])
    }

    fn forward(&mut self, _: &[f32], input: &Tensor, _train: bool) -> Result<Tensor> {
        let shape = input.shape();
        if shape.len() != 4 {
            return Err(NnError::BadInputShape {
                layer: "maxpool2d",
                expected: "[batch, channels, h, w]".to_string(),
                actual: shape.to_vec(),
            });
        }
        let (batch, channels, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let (oh, pad_h) = self.spatial_output(h)?;
        let (ow, pad_w) = self.spatial_output(w)?;
        let x = input.as_slice();
        let mut out = vec![f32::NEG_INFINITY; batch * channels * oh * ow];
        let mut argmax = vec![0usize; out.len()];
        let in_plane = h * w;
        let out_plane = oh * ow;
        for n in 0..batch {
            for c in 0..channels {
                let base = (n * channels + c) * in_plane;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = base;
                        for ki in 0..self.kernel {
                            let iy = (oy * self.stride + ki) as isize - pad_h as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kj in 0..self.kernel {
                                let ix = (ox * self.stride + kj) as isize - pad_w as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let idx = base + iy as usize * w + ix as usize;
                                // NaN inputs never win the max, mirroring the
                                // robust treatment elsewhere in the stack.
                                if x[idx] > best {
                                    best = x[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        let o = (n * channels + c) * out_plane + oy * ow + ox;
                        out[o] = if best.is_finite() { best } else { 0.0 };
                        argmax[o] = best_idx;
                    }
                }
            }
        }
        self.cached = Some((shape.to_vec(), argmax));
        Tensor::from_vec(&[batch, channels, oh, ow], out).map_err(NnError::from)
    }

    fn backward(&mut self, _: &[f32], grad_output: &Tensor, _: &mut [f32]) -> Result<Tensor> {
        let (input_shape, argmax) =
            self.cached.take().ok_or(NnError::BackwardBeforeForward("maxpool2d"))?;
        let go = grad_output.as_slice();
        let mut grad_input = vec![0.0f32; input_shape.iter().product()];
        for (o, &idx) in argmax.iter().enumerate() {
            grad_input[idx] += go[o];
        }
        Tensor::from_vec(&input_shape, grad_input).map_err(NnError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_pooling_picks_maxima() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(
            &[1, 1, 4, 4],
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
        )
        .unwrap();
        let y = pool.forward(&[], &x, true).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn backward_routes_gradient_to_the_argmax() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 9.0, 3.0, 2.0]).unwrap();
        pool.forward(&[], &x, true).unwrap();
        let go = Tensor::from_vec(&[1, 1, 1, 1], vec![5.0]).unwrap();
        let gi = pool.backward(&[], &go, &mut []).unwrap();
        assert_eq!(gi.as_slice(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn same_padding_matches_tensorflow_output_size() {
        // The Table 1 pipeline: 32x32, pool 3x3 stride 2, SAME => 16x16.
        let pool = MaxPool2d::same(3, 2);
        assert_eq!(pool.output_shape(&[64, 32, 32]).unwrap(), vec![64, 16, 16]);
        assert_eq!(pool.output_shape(&[64, 16, 16]).unwrap(), vec![64, 8, 8]);
        // VALID would give 15x15.
        let valid = MaxPool2d::new(3, 2);
        assert_eq!(valid.output_shape(&[64, 32, 32]).unwrap(), vec![64, 15, 15]);
    }

    #[test]
    fn same_padding_forward_ignores_padded_cells() {
        let mut pool = MaxPool2d::same(2, 2);
        // 3x3 input pooled to 2x2; last row/col windows extend past the edge.
        let x = Tensor::from_vec(&[1, 1, 3, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0])
            .unwrap();
        let y = pool.forward(&[], &x, true).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn errors_on_bad_shapes() {
        let mut pool = MaxPool2d::new(3, 2);
        assert!(pool.forward(&[], &Tensor::zeros(&[2, 2]), true).is_err());
        assert!(pool.forward(&[], &Tensor::zeros(&[1, 1, 2, 2]), true).is_err());
        assert!(pool.output_shape(&[4, 4]).is_err());
        assert!(pool.backward(&[], &Tensor::zeros(&[1, 1, 1, 1]), &mut []).is_err());
    }

    #[test]
    fn has_no_parameters() {
        let pool = MaxPool2d::new(2, 2);
        assert_eq!(pool.param_count(), 0);
    }

    #[test]
    fn nan_inputs_do_not_poison_the_output() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![f32::NAN, 1.0, 2.0, 3.0]).unwrap();
        let y = pool.forward(&[], &x, true).unwrap();
        assert_eq!(y.as_slice(), &[3.0]);
    }
}
