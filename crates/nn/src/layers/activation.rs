//! The ReLU between two dense layers, applied in place.

/// Rectified linear unit over a layer's output, in place.
pub(crate) fn relu(x: &mut [f32]) {
    for v in x {
        *v = agg_tensor::ops::relu(*v);
    }
}

/// The backward pass of [`relu`]: zeroes `grad` wherever the ReLU's output
/// `activations` is not positive. That is exactly where its input was not
/// positive, since a ReLU passes a positive input unchanged and sends every
/// other value, NaN included, to zero.
pub(crate) fn relu_backward(activations: &[f32], grad: &mut [f32]) {
    for (g, &a) in grad.iter_mut().zip(activations) {
        if a <= 0.0 {
            *g = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut x = [-1.0, 0.0, 2.0, -3.0, f32::NAN, -0.0];
        relu(&mut x);
        assert_eq!(x.map(f32::to_bits), [0.0, 0.0, 2.0, 0.0, 0.0, 0.0].map(f32::to_bits));
    }

    #[test]
    fn backward_masks_gradient() {
        let mut x = [-1.0, 0.5, 2.0, -3.0];
        relu(&mut x);
        let mut g = [1.0, 1.0, 1.0, 1.0];
        relu_backward(&x, &mut g);
        assert_eq!(g, [0.0, 1.0, 1.0, 0.0]);
    }
}
