//! Criterion benchmarks of the neural-network substrate: the per-worker
//! gradient computation whose cost dominates every round (Figures 3–5).

use agg_data::synthetic::{gaussian_blobs, synthetic_images, BlobConfig, ImageConfig};
use agg_nn::models;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

/// `Sequential::gradient` on the model shapes and batch sizes the engine
/// executes in the repo benchmark's workloads (`BENCHMARK.json`): the
/// 256→384→10 proxy at b = 25 (`paper19`), b = 2 (`gar19_bulyan`,
/// `stream19_sharded`) and b = 1 (`wire19_lossy`), and 32→96→10 at b = 8
/// (`elastic_tree256`). Reports the time per gradient and, as `thrpt`, the
/// nominal rate `nn.gradient_gflops` uses — forward FLOPs × 3 × batch per
/// call, counted as elements, so Gelem/s reads as GFLOP/s.
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
        group.throughput(Throughput::Elements(3 * model.flops_per_sample() * batch as u64));
        group.bench_function(&format!("{input_dim}x{hidden}x10_b{batch}"), |b| {
            b.iter(|| model.gradient(black_box(&x), black_box(&labels)).unwrap())
        });
    }
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
    bench_mlp_gradient,
    bench_small_cnn_gradient,
    bench_paper_cnn_forward
);
criterion_main!(benches);
