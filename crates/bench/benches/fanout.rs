//! Criterion benchmarks of the rayon shim's scheduler: the makespan of the
//! three region shapes a training round opens, under the process's thread
//! budget (`RAYON_NUM_THREADS`, default the available parallelism). No
//! kernel microbench sees the scheduler — an item costs the same however
//! the items are dealt out; only the time until the *last* one finishes
//! moves.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rayon::prelude::*;

/// About 0.2 ms of dependent integer work: one "gradient computation".
fn heavy(seed: usize) -> u64 {
    (0..150_000u64)
        .fold(seed as u64, |x, k| x.wrapping_mul(6364136223846793005).wrapping_add(black_box(k)))
}

fn bench_fanout(c: &mut Criterion) {
    let mut group = c.benchmark_group("fanout");
    group.sample_size(30);

    // Phase 1 on `paper19`: fifteen honest workers, then the four attacker
    // slots, which return at once. The ideal makespan on two cores is 7.5
    // heavy items; one static chunk per core needs 10.
    group.bench_function("phase1_15_heavy_4_empty", |b| {
        b.iter(|| -> Vec<u64> {
            (0..19usize).into_par_iter().map(|i| if i < 15 { heavy(i) } else { 0 }).collect()
        })
    });

    // Phase 1 without attackers (`gar19_bulyan`): nineteen equal items.
    group.bench_function("phase1_19_equal", |b| {
        b.iter(|| -> Vec<u64> { (0..19usize).into_par_iter().map(heavy).collect() })
    });

    // A column reduce over the n = 19, d = 102 538 arena (7.6 MB) in ~50
    // equal blocks: the shape of `mean_blocks` / `column_reduce`, bound by
    // memory streaming rather than arithmetic, where dealing neighbouring
    // blocks to different cores would cost locality.
    let (n, d, block) = (19usize, 102_538usize, 2048usize);
    let arena: Vec<f32> = (0..n * d).map(|i| (i % 251) as f32).collect();
    let blocks: Vec<std::ops::Range<usize>> =
        (0..d).step_by(block).map(|start| start..(start + block).min(d)).collect();
    group.bench_function("column_sum_50_blocks", |b| {
        b.iter(|| -> Vec<f32> {
            blocks
                .par_iter()
                .map(|cols| {
                    arena.chunks_exact(d).map(|row| row[cols.clone()].iter().sum::<f32>()).sum()
                })
                .collect()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fanout);
criterion_main!(benches);
