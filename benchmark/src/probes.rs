//! Isolated measurements taken in the traced child beside the replay: the
//! memory roofline, the tensor kernels and the legs of the lossy wire path.
//!
//! These calls happen inside `agg-core` and `agg-net` during a round, where
//! the benchmark cannot put a span, so each is timed here through its public
//! entry point on the replay's own data. Probe times are reported as
//! per-layer metrics and never enter the accounted share.

use agg_core::GarConfig;
use agg_net::{crc32, GradientCodec, LinkConfig, LossyLink, RoundAssembler};
use agg_tensor::{GradientBatch, ShardPlan, Vector};
use std::hint::black_box;
use std::time::Instant;

/// Best wall time of `repeats` calls, in seconds.
fn best_of<T>(repeats: usize, mut call: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let start = Instant::now();
        black_box(call());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// What the machine does on a buffer of the workload's arena size.
pub struct Roofline {
    /// `copy_from_slice` rate, bytes copied per second, in GB/s.
    pub memcpy_gbps: f64,
    /// Rate of a vectorisable `f32` sum over the buffer, in GB/s.
    pub stream_sum_gbps: f64,
}

/// Measures the roofline on `bytes` bytes, best of five.
pub fn roofline(bytes: usize) -> Roofline {
    let len = (bytes / 4).max(16);
    let src: Vec<f32> = (0..len).map(|i| (i % 251) as f32).collect();
    let mut dst = vec![0.0f32; len];
    let copy = best_of(5, || {
        dst.copy_from_slice(black_box(&src));
        // The copy must be observable, or the compiler drops it.
        black_box(&mut dst);
    });
    let sum = best_of(5, || {
        // Sixteen independent accumulators, so the sum is bandwidth-bound
        // rather than bound by one add's latency.
        let mut lanes = [0.0f32; 16];
        for chunk in black_box(&src).chunks_exact(16) {
            for (lane, &value) in lanes.iter_mut().zip(chunk) {
                *lane += value;
            }
        }
        lanes.iter().sum::<f32>()
    });
    let gb = (len * 4) as f64 / 1e9;
    Roofline { memcpy_gbps: gb / copy, stream_sum_gbps: gb / sum }
}

/// Seconds per call of the tensor kernels on one round's arena.
pub struct KernelTimes {
    pub pairwise_distances: f64,
    pub distance_partials: f64,
    pub coordinate_median: f64,
    pub coordinate_mean: f64,
    /// The flat rule run on an already computed distance matrix: what the
    /// rule costs beyond its distance phase. Zero for rules without one.
    pub aggregate_primed: f64,
}

/// Times the batch kernels on `arena` (best of three). `shards` is the
/// workload's shard count: the partial kernel runs once per shard range.
pub fn kernels(arena: &GradientBatch, gar: GarConfig, shards: usize) -> KernelTimes {
    let plan = ShardPlan::new(arena.dim(), shards).expect("shards is positive");
    let aggregate_primed = if gar.kind.uses_distances() {
        let rule = gar.build().expect("the workload's rule was already validated");
        let distances = arena.pairwise_squared_distances();
        // A rejected batch (too few rows after a lossy round) costs nothing.
        best_of(3, || rule.aggregate_batch_with_distances(arena, &distances).ok())
    } else {
        0.0
    };
    KernelTimes {
        pairwise_distances: best_of(3, || arena.pairwise_squared_distances()),
        distance_partials: best_of(3, || {
            for cols in plan.ranges() {
                black_box(arena.pairwise_squared_distance_partials(cols));
            }
        }),
        coordinate_median: best_of(3, || arena.coordinate_median().ok()),
        coordinate_mean: best_of(3, || arena.coordinate_mean().ok()),
        aggregate_primed,
    }
}

/// Seconds to push every one of a round's gradients through each leg of the
/// lossy wire path.
pub struct WireLegTimes {
    pub split_bytes: f64,
    pub link_transmit: f64,
    pub assemble: f64,
    pub crc32: f64,
}

/// Times the legs over `gradients` (one round's worth), best of three,
/// through a link of the workload's configuration with its own RNG stream.
pub fn wire_legs(gradients: &[Vector], link: LinkConfig, seed: u64) -> WireLegTimes {
    let codec = GradientCodec::default_mtu();
    let dimension = gradients.first().map_or(0, Vector::len);
    let mut wire = LossyLink::new(link, seed, 0xBE9C).expect("the workload's link is valid");
    let mut assembler = RoundAssembler::new(dimension);
    let mut row = vec![0.0f32; dimension];
    // [split, transmit, assemble, crc32]
    let mut best = [f64::INFINITY; 4];
    for _ in 0..3 {
        let mut pass = [0.0f64; 4];
        for (worker, gradient) in gradients.iter().enumerate() {
            let start = Instant::now();
            let packets = codec.split_bytes(worker as u32, 0, gradient.as_slice());
            pass[0] += start.elapsed().as_secs_f64();

            let start = Instant::now();
            let (delivered, _) = wire.transmit_bytes(&packets);
            pass[1] += start.elapsed().as_secs_f64();

            let start = Instant::now();
            black_box(assembler.assemble_into(&delivered, &mut row).expect("own packets parse"));
            pass[2] += start.elapsed().as_secs_f64();

            let start = Instant::now();
            black_box(packets.iter().map(|p| crc32(p)).fold(0u32, |a, c| a ^ c));
            pass[3] += start.elapsed().as_secs_f64();
        }
        for (best, pass) in best.iter_mut().zip(pass) {
            *best = best.min(pass);
        }
    }
    let [split_bytes, link_transmit, assemble, crc32] = best;
    WireLegTimes { split_bytes, link_transmit, assemble, crc32 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roofline_rates_are_positive_and_finite() {
        let r = roofline(1 << 20);
        assert!(r.memcpy_gbps.is_finite() && r.memcpy_gbps > 0.0);
        assert!(r.stream_sum_gbps.is_finite() && r.stream_sum_gbps > 0.0);
    }
}
