//! Free-standing elementwise operations and activation primitives shared by
//! the neural-network crate and the data pipeline.

/// Rectified linear unit.
#[inline]
pub fn relu(x: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

/// In-place `y += alpha * x` over the common length of the two slices.
pub fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
    for (a, b) in y.iter_mut().zip(x) {
        *a += alpha * b;
    }
}

/// Numerically stable softmax over a slice, written into a new `Vec`.
///
/// Subtracts the maximum before exponentiation so large logits do not
/// overflow. An all-`-inf` input produces a uniform distribution.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    if logits.is_empty() {
        return Vec::new();
    }
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if !max.is_finite() {
        return vec![1.0 / logits.len() as f32; logits.len()];
    }
    let exps: Vec<f32> = logits.iter().map(|&x| (x - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Index of the maximum value (ties broken toward the lower index).
/// Returns `None` for an empty slice.
pub fn argmax(values: &[f32]) -> Option<usize> {
    let mut best: Option<(usize, f32)> = None;
    for (i, &v) in values.iter().enumerate() {
        match best {
            None => best = Some((i, v)),
            Some((_, bv)) if v > bv => best = Some((i, v)),
            _ => {}
        }
    }
    best.map(|(i, _)| i)
}

/// Cross-entropy loss between a softmax distribution and a one-hot label.
///
/// Probabilities are clamped away from zero for numerical stability.
pub fn cross_entropy(probabilities: &[f32], label: usize) -> f32 {
    let p = probabilities.get(label).copied().unwrap_or(0.0);
    -(p.max(1e-12)).ln()
}

/// Squared Euclidean distance between two equally sized slices.
///
/// **The pinned order.** Coordinate `c` of a full 4-chunk is added into lane
/// `c % 4` of four accumulators, chunks ascending; the lanes are then summed
/// as `((a0 + a1) + a2) + a3` and the `len % 4` tail coordinates are added to
/// that total in order. Every flat (unsharded) distance in the workspace —
/// this function, [`crate::batch::GradientBatch::pairwise_squared_distances`]
/// and [`crate::StreamingDistances`]' flat mode — is this order, built from
/// `continue_distance_chains` and `finish_distance_chain`; the training
/// trajectories pinned in `tests/round_determinism.rs` depend on it, and
/// `squared_distance_is_the_four_lane_order` below spells it out.
///
/// Non-finite coordinates propagate (NaN in, NaN out), matching the
/// behaviour the robust GARs rely on to exclude malformed gradients.
/// Operates on raw slices so both [`crate::Vector`] and the contiguous
/// [`crate::batch::GradientBatch`] rows share one implementation.
///
/// # Panics
///
/// Panics (debug) if the lengths differ; in release the shorter length wins.
pub fn squared_distance(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "squared_distance requires equal lengths");
    let len = a.len().min(b.len());
    let (a, b) = (&a[..len], &b[..len]);
    let mut lanes = [[0.0f32; 4]];
    continue_distance_chains(a, [b], &mut lanes);
    let tail = len - len % 4;
    finish_distance_chain(lanes[0], &a[tail..], &b[tail..])
}

/// Continues `P` pairs' four-lane [`squared_distance`] chains over one
/// stretch of coordinates: pair `p` is `a` against `others[p]`, and
/// `lanes[p]` holds its accumulators on entry and on return.
///
/// Only the full 4-chunks of `a` are consumed — a stretch that is not the
/// end of the row must have a length divisible by four, and the row's final
/// `len % 4` coordinates are left to [`finish_distance_chain`]. A pair's
/// chain is sequential (each chunk's add waits for the previous one), so the
/// cache-blocked kernels pass `P = 4` pairs that share `a` to keep four
/// independent chains in flight, and `P = 1` for what is left over; the
/// bits of a pair do not depend on `P` or on where the stretches are cut.
///
/// # Panics
///
/// Panics when a slice of `others` is shorter than `a`.
#[inline]
pub(crate) fn continue_distance_chains<const P: usize>(
    a: &[f32],
    others: [&[f32]; P],
    lanes: &mut [[f32; 4]; P],
) {
    let full = a.len() - a.len() % 4;
    let a = &a[..full];
    let others = others.map(|b| &b[..full]);
    let mut acc = *lanes;
    for (c, x) in a.chunks_exact(4).enumerate() {
        for p in 0..P {
            let y = &others[p][c * 4..c * 4 + 4];
            for lane in 0..4 {
                let d = x[lane] - y[lane];
                acc[p][lane] += d * d;
            }
        }
    }
    *lanes = acc;
}

/// Closes one pair's chain: the lane sum in the pinned order, then the
/// row's `len % 4` tail coordinates.
#[inline]
pub(crate) fn finish_distance_chain(lanes: [f32; 4], a_tail: &[f32], b_tail: &[f32]) -> f32 {
    let mut total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for (x, y) in a_tail.iter().zip(b_tail) {
        let d = x - y;
        total += d * d;
    }
    total
}

/// Squared Euclidean distance with sixteen independent accumulators.
///
/// The four-lane [`squared_distance`] is latency-bound on its accumulate
/// chain (one vector add must retire before the next of the same lane group
/// issues); sixteen lanes unroll the chain far enough to keep the FMA/add
/// pipes busy, which measures ~1.5–1.8× faster on the cache-resident column
/// slices the sharded partial-distance kernel feeds it. The summation order
/// differs from [`squared_distance`], so results agree only to within
/// floating-point reassociation error — callers that pin bit-exact legacy
/// behaviour keep using the four-lane kernel. Non-finite coordinates
/// propagate exactly as in [`squared_distance`].
///
/// # Panics
///
/// Panics (debug) if the lengths differ; in release the shorter length wins.
pub fn squared_distance_wide(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "squared_distance_wide requires equal lengths");
    let mut acc = [0.0f32; 16];
    let chunks = a.chunks_exact(16);
    let rem = chunks.remainder();
    let other_chunks = b.chunks_exact(16);
    let other_rem = other_chunks.remainder();
    for (x, y) in chunks.zip(other_chunks) {
        for lane in 0..16 {
            let d = x[lane] - y[lane];
            acc[lane] += d * d;
        }
    }
    let mut total = acc.iter().sum::<f32>();
    for (x, y) in rem.iter().zip(other_rem.iter()) {
        let d = x - y;
        total += d * d;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_and_grad() {
        assert_eq!(relu(2.0), 2.0);
        assert_eq!(relu(-2.0), 0.0);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
        // Huge logits must not overflow.
        let p = softmax(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-6);
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn argmax_breaks_ties_low() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), Some(1));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn cross_entropy_behaviour() {
        assert!(cross_entropy(&[1.0, 0.0], 0) < 1e-6);
        assert!(cross_entropy(&[0.0, 1.0], 0) > 10.0);
        // Out-of-range label treated as zero probability, still finite.
        assert!(cross_entropy(&[0.5, 0.5], 7).is_finite());
    }

    /// The pinned order written out term by term, with no helper shared
    /// with the kernels: four lanes over ascending 4-chunks, the lane sum
    /// left to right, then the tail.
    #[test]
    fn squared_distance_is_the_four_lane_order() {
        for len in [0usize, 1, 3, 4, 5, 8, 11, 64, 4099] {
            let a: Vec<f32> = (0..len).map(|c| ((c * 37 % 101) as f32 - 50.0) * 1.7e-3).collect();
            let b: Vec<f32> = (0..len).map(|c| ((c * 53 % 89) as f32 - 44.0) * 9.1e2).collect();
            let mut lanes = [0.0f32; 4];
            for c in 0..len - len % 4 {
                let diff = a[c] - b[c];
                lanes[c % 4] += diff * diff;
            }
            let mut want = ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
            for c in len - len % 4..len {
                let diff = a[c] - b[c];
                want += diff * diff;
            }
            assert_eq!(squared_distance(&a, &b).to_bits(), want.to_bits(), "len {len}");
            // Four chains side by side, cut at a 4-chunk boundary, close to
            // the same bits as one chain over the whole row.
            let cut = len / 8 * 4;
            let mut chains = [[0.0f32; 4]; 4];
            continue_distance_chains(&a[..cut], [&b[..cut]; 4], &mut chains);
            continue_distance_chains(&a[cut..], [&b[cut..]; 4], &mut chains);
            let tail = len - len % 4;
            for chain in chains {
                let got = finish_distance_chain(chain, &a[tail..], &b[tail..]);
                assert_eq!(got.to_bits(), want.to_bits(), "len {len}, cut {cut}");
            }
        }
    }
}
