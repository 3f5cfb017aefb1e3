//! Criterion benchmarks of the neural-network substrate: the per-worker
//! gradient computation whose cost dominates every round (Figures 3–5).

use agg_data::synthetic::{gaussian_blobs, BlobConfig};
use agg_nn::{models, Sequential};
use agg_tensor::gemm;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

/// `Sequential::gradient` on the model shapes and batch sizes the engine
/// executes in the repo benchmark's workloads (`BENCHMARK.json`): the
/// 256→384→10 proxy at b = 25 (`paper19`), b = 2 (`gar19_bulyan`,
/// `stream19_sharded`) and b = 1 (`wire19_lossy`), and 32→96→10 at b = 8
/// (`elastic_tree256`). Reports the time per gradient and, as `thrpt`, the
/// nominal rate `nn.gradient_gflops` uses — forward FLOPs × 3 × batch per
/// call, counted as elements, so Gelem/s reads as GFLOP/s. Nominal counts an
/// input gradient for every layer, but `Sequential::gradient` skips the
/// first layer's (nothing consumes it), so each shape also prints the share
/// of the nominal count that is executed: executed GFLOP/s = `thrpt` × that.
fn bench_engine_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("nn_engine_gradient");
    group.sample_size(30);
    for &(input_dim, hidden, batch) in &[(256, 384, 25), (256, 384, 2), (256, 384, 1), (32, 96, 8)]
    {
        let mut model = models::synthetic_mlp(input_dim, &[hidden], 10, 0);
        let data = gaussian_blobs(
            &BlobConfig { classes: 10, dim: input_dim, samples: 64, ..Default::default() },
            1,
        )
        .unwrap();
        let (x, labels) = data.head_batch(batch).unwrap();
        let nominal = 3 * model.flops_per_sample();
        let executed = nominal - 2 * (input_dim * hidden) as u64;
        println!(
            "nn_engine_gradient/{input_dim}x{hidden}x10_b{batch}: executes {:.3} of the nominal \
             FLOPs ({executed} of {nominal} per sample)",
            executed as f64 / nominal as f64
        );
        group.throughput(Throughput::Elements(nominal * batch as u64));
        group.bench_function(&format!("{input_dim}x{hidden}x10_b{batch}"), |b| {
            b.iter(|| model.gradient(black_box(&x), black_box(&labels)).unwrap())
        });
    }
    group.finish();
}

/// `Sequential::gradient_at` the way a round runs it: one model per worker,
/// visited in turn, every one computing at the same shared parameter vector
/// (the server's). 19 workers at the 256→384→10 proxy (b = 1, 2, 25) and 256
/// at 32→96→10 (b = 8), the worker counts and shapes of the repo benchmark's
/// workloads. Unlike `nn_engine_gradient`, which hot-loops one model, this
/// keeps each worker's private state (activation caches, and any copy of the
/// weights a worker might keep) cold between its turns, as in a real round.
/// `thrpt` is the same nominal rate as in `nn_engine_gradient`.
fn bench_worker_rotation(c: &mut Criterion) {
    let mut group = c.benchmark_group("nn_worker_rotation");
    group.sample_size(30);
    for &(input_dim, hidden, batch, workers) in
        &[(256, 384, 1, 19), (256, 384, 2, 19), (256, 384, 25, 19), (32, 96, 8, 256)]
    {
        let mut models: Vec<Sequential> = (0..workers)
            .map(|w| models::synthetic_mlp(input_dim, &[hidden], 10, w as u64))
            .collect();
        let params = models::synthetic_mlp(input_dim, &[hidden], 10, 0).parameters();
        let data = gaussian_blobs(
            &BlobConfig { classes: 10, dim: input_dim, samples: 64, ..Default::default() },
            1,
        )
        .unwrap();
        let (x, labels) = data.head_batch(batch).unwrap();
        group.throughput(Throughput::Elements(3 * models[0].flops_per_sample() * batch as u64));
        let mut turn = 0;
        group.bench_function(&format!("{input_dim}x{hidden}x10_b{batch}_w{workers}"), |b| {
            b.iter(|| {
                let model = &mut models[turn];
                turn = (turn + 1) % workers;
                model.gradient_at(black_box(params.as_slice()), &x, &labels).unwrap()
            })
        });
    }
    group.finish();
}

/// The three `agg_tensor::gemm` entry points at `paper19`'s first-layer
/// shape (batch 25, 256 inputs, 384 outputs), then the forward and
/// weight-gradient kernels at its output layer (25 × 384 × 10), each through
/// its public, runtime-dispatched entry; `thrpt` is executed GFLOP/s
/// (2 · batch · in · out per call). The forward operands are dense (no zero
/// activations to skip).
fn bench_gemm_dispatch(c: &mut Criterion) {
    const BATCH: usize = 25;
    const IN: usize = 256;
    const OUT: usize = 384;
    let operand = |len: usize, salt: u32| -> Vec<f32> {
        (0..len as u32)
            .map(|i| ((i.wrapping_mul(2_654_435_761) ^ salt) >> 8) as f32 / 8e6)
            .collect()
    };
    let x = operand(BATCH * IN, 1);
    let w = operand(IN * OUT, 2);
    let grad_out = operand(BATCH * OUT, 3);
    let mut group = c.benchmark_group("gemm_dispatch");
    group.sample_size(30);
    group.throughput(Throughput::Elements((2 * BATCH * IN * OUT) as u64));
    let mut out = vec![0.0f32; BATCH * OUT];
    group.bench_function("matmul_acc_25x256x384", |b| {
        b.iter(|| gemm::matmul_acc(black_box(&x), &w, &mut out, BATCH, IN, OUT))
    });
    let mut grad_w = vec![0.0f32; IN * OUT];
    group.bench_function("matmul_tn_acc_25x256x384", |b| {
        b.iter(|| gemm::matmul_tn_acc(black_box(&x), &grad_out, &mut grad_w, BATCH, IN, OUT))
    });
    let (mut grad_in, mut scratch) = (vec![0.0f32; BATCH * IN], Vec::new());
    group.bench_function("matmul_nt_25x256x384", |b| {
        b.iter(|| {
            gemm::matmul_nt(black_box(&grad_out), &w, &mut grad_in, &mut scratch, BATCH, IN, OUT)
        })
    });
    // The ten-column output layer (384 → 10), all of it in the kernels' edge
    // columns: its forward and its weight gradient.
    const CLASSES: usize = 10;
    let h = operand(BATCH * OUT, 4);
    let w_out = operand(OUT * CLASSES, 5);
    let grad_logits = operand(BATCH * CLASSES, 6);
    group.throughput(Throughput::Elements((2 * BATCH * OUT * CLASSES) as u64));
    let mut logits = vec![0.0f32; BATCH * CLASSES];
    group.bench_function("matmul_acc_25x384x10", |b| {
        b.iter(|| gemm::matmul_acc(black_box(&h), &w_out, &mut logits, BATCH, OUT, CLASSES))
    });
    let mut grad_w_out = vec![0.0f32; OUT * CLASSES];
    group.bench_function("matmul_tn_acc_25x384x10", |b| {
        b.iter(|| {
            gemm::matmul_tn_acc(black_box(&h), &grad_logits, &mut grad_w_out, BATCH, OUT, CLASSES)
        })
    });
    group.finish();
}

fn bench_mlp_gradient(c: &mut Criterion) {
    let mut group = c.benchmark_group("nn_mlp_gradient");
    group.sample_size(20);
    let mut model = models::synthetic_mlp(32, &[64], 10, 0);
    let data =
        gaussian_blobs(&BlobConfig { classes: 10, dim: 32, samples: 256, ..Default::default() }, 1)
            .unwrap();
    let (batch, labels) = data.head_batch(64).unwrap();
    group.bench_function("batch64", |b| {
        b.iter(|| model.gradient(black_box(&batch), black_box(&labels)).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_engine_shapes,
    bench_worker_rotation,
    bench_gemm_dispatch,
    bench_mlp_gradient
);
criterion_main!(benches);
