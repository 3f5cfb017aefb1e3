//! Criterion micro-benchmarks of the gradient aggregation kernels.
//!
//! These back the paper's §4.2 cost analysis: Multi-Krum and Bulyan are
//! O(n²·d) per round (the same asymptotic cost as averaging's O(n·d) once
//! d ≫ n), with Bulyan a constant factor above Multi-Krum. The benches sweep
//! both the gradient dimension `d` and the worker count `n` so the scaling
//! claims can be checked from the Criterion report.

use agg_core::{reference, Gar, GarConfig, GarKind, TreeAggregator, TreeConfig};
use agg_ps::reputation::{affinity_sample_indices, collusion_flags};
use agg_tensor::batch::OrderStatistic;
use agg_tensor::ops;
use agg_tensor::rng::{gaussian_vector, seeded_rng};
use agg_tensor::{GradientBatch, Vector};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn gradients(n: usize, d: usize, seed: u64) -> Vec<Vector> {
    let mut rng = seeded_rng(seed);
    (0..n).map(|_| gaussian_vector(&mut rng, d, 0.0, 1.0)).collect()
}

/// Sweep the gradient dimension at the paper's worker count (n = 19, f = 4).
fn bench_dimension_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("gar_dimension_sweep_n19_f4");
    group.sample_size(10);
    for &d in &[1_000usize, 10_000, 100_000] {
        let gs = gradients(19, d, 1);
        let kinds = [
            GarKind::Average,
            GarKind::Median,
            GarKind::TrimmedMean,
            GarKind::Krum,
            GarKind::MultiKrum,
            GarKind::Bulyan,
        ];
        for kind in kinds {
            let gar = GarConfig::new(kind, if kind == GarKind::Average { 0 } else { 4 });
            group.bench_with_input(BenchmarkId::new(kind.name(), d), &gs, |b, gs| {
                b.iter(|| gar.aggregate(black_box(gs)).unwrap())
            });
        }
    }
    group.finish();
}

/// Sweep the worker count at a fixed dimension (the n² term).
fn bench_worker_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("gar_worker_sweep_d20000");
    group.sample_size(10);
    for &n in &[7usize, 11, 19, 27] {
        let gs = gradients(n, 20_000, 2);
        let f = 1;
        let mk = GarConfig::new(GarKind::MultiKrum, f);
        let bulyan = GarConfig::new(GarKind::Bulyan, f);
        let avg = GarConfig::new(GarKind::Average, 0);
        group.bench_with_input(BenchmarkId::new("multi-krum-f1", n), &gs, |b, gs| {
            b.iter(|| mk.aggregate(black_box(gs)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("bulyan-f1", n), &gs, |b, gs| {
            b.iter(|| bulyan.aggregate(black_box(gs)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("average", n), &gs, |b, gs| {
            b.iter(|| avg.aggregate(black_box(gs)).unwrap())
        });
    }
    group.finish();
}

/// The ablation the paper calls out: higher declared f means fewer Multi-Krum
/// neighbours and fewer Bulyan iterations, hence *faster* aggregation.
fn bench_f_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("gar_f_ablation_n19_d20000");
    group.sample_size(10);
    let gs = gradients(19, 20_000, 3);
    for &f in &[1usize, 2, 4] {
        let mk = GarConfig::new(GarKind::MultiKrum, f);
        group.bench_with_input(BenchmarkId::new("multi-krum", f), &gs, |b, gs| {
            b.iter(|| mk.aggregate(black_box(gs)).unwrap())
        });
        let bulyan = GarConfig::new(GarKind::Bulyan, f);
        group.bench_with_input(BenchmarkId::new("bulyan", f), &gs, |b, gs| {
            b.iter(|| bulyan.aggregate(black_box(gs)).unwrap())
        });
    }
    group.finish();
}

/// Arena kernels versus the frozen pre-arena reference implementations, side
/// by side: the before/after evidence for the contiguous `GradientBatch`
/// refactor (triangular distances computed once, fused phase-2, clone-free
/// averaging).
fn bench_arena_vs_reference(c: &mut Criterion) {
    let mut group = c.benchmark_group("gar_arena_vs_reference_n19_f4");
    group.sample_size(10);
    for &d in &[10_000usize, 100_000] {
        let gs = gradients(19, d, 4);
        let batch = GradientBatch::from_vectors(&gs).unwrap();
        let mk = GarConfig::new(GarKind::MultiKrum, 4);
        group.bench_with_input(BenchmarkId::new("multi-krum-arena", d), &batch, |b, batch| {
            b.iter(|| mk.aggregate_batch(black_box(batch)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("multi-krum-reference", d), &gs, |b, gs| {
            b.iter(|| reference::aggregate(GarKind::MultiKrum, 4, black_box(gs)).unwrap())
        });
        let bulyan = GarConfig::new(GarKind::Bulyan, 4);
        group.bench_with_input(BenchmarkId::new("bulyan-arena", d), &batch, |b, batch| {
            b.iter(|| bulyan.aggregate_batch(black_box(batch)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("bulyan-reference", d), &gs, |b, gs| {
            b.iter(|| reference::aggregate(GarKind::Bulyan, 4, black_box(gs)).unwrap())
        });
    }
    group.finish();
}

/// Vertical selection networks versus the scalar quickselect kernels, per
/// order-statistic reduction, across worker counts spanning the network
/// range (n = 5, 19, 31 — the cap is 32) and both cache regimes (d = 1k
/// resident, d = 100k streaming). This is the before/after evidence for the
/// branch-free lane-major sort path: `order_statistic_quickselect` runs the
/// exact scalar kernels the dispatch falls back to above the cap.
fn bench_selection_networks(c: &mut Criterion) {
    const MEDIAN: OrderStatistic = OrderStatistic::Median;
    let mut group = c.benchmark_group("selection_networks");
    group.sample_size(10);
    for &n in &[5usize, 19, 31] {
        for &d in &[1_000usize, 100_000] {
            let gs = gradients(n, d, 5);
            let batch = GradientBatch::from_vectors(&gs).unwrap();
            let label = format!("n{n}-d{d}");
            group.bench_with_input(
                BenchmarkId::new("median-network", &label),
                &batch,
                |b, batch| b.iter(|| black_box(batch).coordinate_median().unwrap()),
            );
            group.bench_with_input(
                BenchmarkId::new("median-quickselect", &label),
                &batch,
                |b, batch| b.iter(|| black_box(batch).order_statistic_quickselect(MEDIAN).unwrap()),
            );
            let trim = (n / 5).max(1);
            let trimmed = OrderStatistic::TrimmedMean { trim };
            group.bench_with_input(
                BenchmarkId::new("trimmed-mean-network", &label),
                &batch,
                |b, batch| b.iter(|| black_box(batch).coordinate_trimmed_mean(trim).unwrap()),
            );
            group.bench_with_input(
                BenchmarkId::new("trimmed-mean-quickselect", &label),
                &batch,
                |b, batch| {
                    b.iter(|| black_box(batch).order_statistic_quickselect(trimmed).unwrap())
                },
            );
            let keep = n - trim;
            let around = OrderStatistic::MeanAroundMedian { keep };
            group.bench_with_input(
                BenchmarkId::new("mean-around-median-network", &label),
                &batch,
                |b, batch| b.iter(|| black_box(batch).mean_around_median(keep).unwrap()),
            );
            group.bench_with_input(
                BenchmarkId::new("mean-around-median-quickselect", &label),
                &batch,
                |b, batch| b.iter(|| black_box(batch).order_statistic_quickselect(around).unwrap()),
            );
        }
    }
    group.finish();
}

/// The reputation ledger's collusion-affinity sketch at the scale tier's
/// shape (n = 256 rows of d = 4138, m = 256 sampled coordinates, the default
/// ε = 0.05 and cluster minimum 3): all-honest traffic, where every pair
/// leaves at its first 16-coordinate check, and the same round with a
/// jittered 6-clique, whose 15 pairs are summed to the end.
fn bench_collusion_sketch(c: &mut Criterion) {
    let mut group = c.benchmark_group("collusion_flags_n256_m256");
    group.sample_size(10);
    let sample = affinity_sample_indices(7, 4_138, 256);
    let honest = gradients(256, 4_138, 6);
    let mut with_clique = honest.clone();
    for (k, row) in with_clique.iter_mut().enumerate().take(6).skip(1) {
        *row = Vector::from_iter(honest[0].as_slice().iter().map(|&x| x + 1e-4 * k as f32));
    }
    for (name, rows) in [("honest", &honest), ("clique6", &with_clique)] {
        let views: Vec<Option<&[f32]>> = rows.iter().map(|r| Some(r.as_slice())).collect();
        group.bench_with_input(BenchmarkId::from_parameter(name), &views, |b, views| {
            b.iter(|| collusion_flags(black_box(views), &sample, 0.05, 3))
        });
    }
    group.finish();
}

/// The tree tier's selection feedback at the scale tier's shape (n = 256 in
/// groups of 32, d = 4138, Multi-Krum at both levels): `selected_rows` is
/// the group stage plus `selected_rows_of` (what the server's
/// `tree_selected_rows` runs for a caller that holds no round),
/// `selected_rows_of` alone reads a round the caller already holds — the
/// call the engine makes after applying it.
fn bench_tree_feedback(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_feedback_n256_g32_d4138");
    group.sample_size(10);
    let batch = GradientBatch::from_vectors(&gradients(256, 4_138, 8)).unwrap();
    let groups: Vec<usize> = (0..256).map(|row| row / 32).collect();
    let tree = TreeAggregator::new(TreeConfig::uniform(GarKind::MultiKrum, 6, 1, 32)).unwrap();
    let round = tree.group_outputs(&batch, &groups).unwrap();
    group.bench_function("selected_rows", |b| {
        b.iter(|| {
            let round = tree.group_outputs(black_box(&batch), &groups).unwrap();
            tree.selected_rows_of(&round).unwrap()
        })
    });
    group.bench_function("selected_rows_of", |b| {
        b.iter(|| tree.selected_rows_of(black_box(&round)).unwrap())
    });
    group.finish();
}

/// The flat distance pass at the shapes the repo benchmark runs it: the
/// paper's round (n = 19, d = 102 538: `paper19`, `gar19_bulyan`) and one
/// tree group (n = 32, d = 4138: `elastic_tree256`). Three walks over the
/// same rows: `blocked_pair_tiled` is `pairwise_squared_distances` (cache
/// blocks outermost, four pairs side by side; parallel over tile groups
/// under the thread budget — run with `RAYON_NUM_THREADS=1` to compare
/// walks, not schedules), `per_pair_rows` is one `ops::squared_distance`
/// per pair over two whole rows (the walk the kernel replaced, sequential),
/// `partials_s1` is the sharded tier's sixteen-lane kernel with one shard
/// (different bits). `rows_of/n32_in_n256_d4138` is the tree's group walk
/// as a round runs it: `pairwise_squared_distances_over` 32 rows scattered
/// across a 256-row arena (every eighth row, offset by the group's seat),
/// read where they sit — beside `blocked_pair_tiled/n32_d4138`, the same
/// walk over 32 contiguous rows, it shows what reading rows in place costs
/// the kernel. `thrpt` counts pair-coordinates, so ns per
/// pair-coordinate is its reciprocal and the nominal read rate in GB/s —
/// two `f32` per pair-coordinate, the figure to hold against the traced
/// run's `roofline.stream_sum_gbps` — is 8 × `thrpt`.
fn bench_pairwise_distances(c: &mut Criterion) {
    let mut group = c.benchmark_group("pairwise_distances");
    group.sample_size(20);
    for &(n, d) in &[(19usize, 102_538usize), (32, 4_138)] {
        let batch = GradientBatch::from_vectors(&gradients(n, d, 9)).unwrap();
        let shape = format!("n{n}_d{d}");
        group.throughput(Throughput::Elements((n * (n - 1) / 2 * d) as u64));
        group.bench_with_input(BenchmarkId::new("blocked_pair_tiled", &shape), &batch, |b, g| {
            b.iter(|| black_box(g).pairwise_squared_distances())
        });
        group.bench_with_input(BenchmarkId::new("per_pair_rows", &shape), &batch, |b, g| {
            b.iter(|| {
                let g = black_box(g);
                (0..n)
                    .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
                    .map(|(i, j)| ops::squared_distance(g.row(i), g.row(j)))
                    .collect::<Vec<f32>>()
            })
        });
        group.bench_with_input(BenchmarkId::new("partials_s1", &shape), &batch, |b, g| {
            b.iter(|| black_box(g).pairwise_squared_distance_partials(0..d))
        });
    }
    let arena = GradientBatch::from_vectors(&gradients(256, 4_138, 9)).unwrap();
    let members: Vec<usize> = (0..32).map(|k| 8 * k + 5).collect();
    group.throughput(Throughput::Elements((32 * 31 / 2 * 4_138) as u64));
    group.bench_with_input(BenchmarkId::new("rows_of", "n32_in_n256_d4138"), &arena, |b, g| {
        b.iter(|| black_box(g).pairwise_squared_distances_over(&members))
    });
    group.finish();
}

/// The order-statistic tile (gather → selection network → finish, the one
/// driver under median, trimmed mean, MeaMed and Bulyan's second phase) at
/// the shapes the repo benchmark runs it: the paper's round (`gar19_bulyan`:
/// n = 19, f = 4, so phase 2 reads θ = 11 selected rows of the arena and
/// keeps β = 3) with the other three rules over all 19 rows beside it, and
/// one tree group (`elastic_tree256`'s shape, n = 32, f = 6: θ = 20, β = 8).
/// The `*_quickselect` lines are the scalar kernels the dispatch falls back
/// to above 32 rows — the in-file reference. `thrpt` counts row-coordinates
/// (rows read × d), so ns per row-coordinate is its reciprocal and the
/// nominal read rate in GB/s — one `f32` per row-coordinate, the figure to
/// hold against the traced run's `roofline.stream_sum_gbps` — is 4 × `thrpt`.
/// Blocks run in parallel under the thread budget: `RAYON_NUM_THREADS=1`
/// compares kernels, not schedules.
fn bench_order_statistic_tiles(c: &mut Criterion) {
    const MEDIAN: OrderStatistic = OrderStatistic::Median;
    const TRIM4: OrderStatistic = OrderStatistic::TrimmedMean { trim: 4 };
    const KEEP15: OrderStatistic = OrderStatistic::MeanAroundMedian { keep: 15 };
    let mut group = c.benchmark_group("order_statistic_tiles");
    group.sample_size(20);
    let (n, d) = (19usize, 102_538usize);
    let batch = GradientBatch::from_vectors(&gradients(n, d, 10)).unwrap();
    let shape = format!("n{n}_d{d}");
    // Eleven rows in no particular order, as iterated Krum extracts them.
    let selected = [7usize, 2, 16, 11, 0, 18, 5, 13, 9, 3, 14];
    let mut out = vec![0.0f32; d];
    group.throughput(Throughput::Elements((selected.len() * d) as u64));
    group.bench_with_input(BenchmarkId::new("bulyan_phase2_t11_b3", &shape), &batch, |b, g| {
        let view = black_box(g).columns(0..d);
        b.iter(|| view.mean_around_median_into(Some(&selected), 3, &mut out).unwrap())
    });
    group.throughput(Throughput::Elements((n * d) as u64));
    group.bench_with_input(BenchmarkId::new("meamed_keep15", &shape), &batch, |b, g| {
        b.iter(|| black_box(g).mean_around_median(15).unwrap())
    });
    group.bench_with_input(BenchmarkId::new("median", &shape), &batch, |b, g| {
        b.iter(|| black_box(g).coordinate_median().unwrap())
    });
    group.bench_with_input(BenchmarkId::new("trimmed_f4", &shape), &batch, |b, g| {
        b.iter(|| black_box(g).coordinate_trimmed_mean(4).unwrap())
    });
    group.bench_with_input(
        BenchmarkId::new("meamed_keep15_quickselect", &shape),
        &batch,
        |b, g| b.iter(|| black_box(g).order_statistic_quickselect(KEEP15).unwrap()),
    );
    group.bench_with_input(BenchmarkId::new("median_quickselect", &shape), &batch, |b, g| {
        b.iter(|| black_box(g).order_statistic_quickselect(MEDIAN).unwrap())
    });
    group.bench_with_input(BenchmarkId::new("trimmed_f4_quickselect", &shape), &batch, |b, g| {
        b.iter(|| black_box(g).order_statistic_quickselect(TRIM4).unwrap())
    });

    let (n, d) = (32usize, 4_138usize);
    let batch = GradientBatch::from_vectors(&gradients(n, d, 11)).unwrap();
    let selected: Vec<usize> = (0..20).map(|i| (i * 13 + 5) % n).collect();
    let mut out = vec![0.0f32; d];
    group.throughput(Throughput::Elements((selected.len() * d) as u64));
    group.bench_with_input(
        BenchmarkId::new("bulyan_phase2_t20_b8", format!("n{n}_d{d}")),
        &batch,
        |b, g| {
            let view = black_box(g).columns(0..d);
            b.iter(|| view.mean_around_median_into(Some(&selected), 8, &mut out).unwrap())
        },
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_pairwise_distances,
    bench_order_statistic_tiles,
    bench_dimension_sweep,
    bench_worker_sweep,
    bench_f_ablation,
    bench_arena_vs_reference,
    bench_selection_networks,
    bench_collusion_sketch,
    bench_tree_feedback
);
criterion_main!(benches);
