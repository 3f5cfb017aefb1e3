//! Criterion benchmarks of the neural-network substrate: the per-worker
//! gradient computation whose cost dominates every round (Figures 3–5).

use agg_data::synthetic::{gaussian_blobs, synthetic_images, BlobConfig, ImageConfig};
use agg_nn::models;
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

/// The three `agg_tensor::gemm` entry points at `paper19`'s first-layer
/// shape (batch 25, 256 inputs, 384 outputs), each through its public,
/// runtime-dispatched entry; `thrpt` is executed GFLOP/s (2 · 25 · 256 · 384
/// per call). The forward operand is dense (no zero activations to skip).
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

fn bench_small_cnn_gradient(c: &mut Criterion) {
    let mut group = c.benchmark_group("nn_small_cnn_gradient");
    group.sample_size(10);
    let mut model = models::small_cnn(1, 4, 0);
    let data = synthetic_images(&ImageConfig::tiny(64, 4), 1).unwrap();
    let (batch, labels) = data.head_batch(16).unwrap();
    group.bench_function("batch16", |b| {
        b.iter(|| model.gradient(black_box(&batch), black_box(&labels)).unwrap())
    });
    group.finish();
}

fn bench_paper_cnn_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("nn_paper_cnn_forward");
    group.sample_size(10);
    let mut model = models::paper_cnn(0);
    let data = synthetic_images(&ImageConfig::cifar_like(4), 1).unwrap();
    let (batch, labels) = data.head_batch(1).unwrap();
    group.bench_function("single_sample_inference", |b| {
        b.iter(|| model.evaluate_loss(black_box(&batch), black_box(&labels)).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_engine_shapes,
    bench_gemm_dispatch,
    bench_mlp_gradient,
    bench_small_cnn_gradient,
    bench_paper_cnn_forward
);
criterion_main!(benches);
