//! Criterion benchmarks of the communication layer: the wire codec's
//! encode + reassemble leg, and the two transports behind the Figure 8
//! experiments.

use agg_net::{
    GradientCodec, LinkConfig, LossPolicy, LossyTransport, ReliableTransport, RoundAssembler,
    Transport,
};
use agg_tensor::rng::{gaussian_vector, seeded_rng};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

/// The wire leg of one gradient without a link: `split_bytes` (one
/// contiguous buffer, zero-copy `Bytes` slices) into `RoundAssembler`
/// (verify, bitset scatter into a reused row).
fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("net_codec");
    group.sample_size(20);
    let codec = GradientCodec::default_mtu();
    for &d in &[10_000usize, 100_000] {
        let gradient = gaussian_vector(&mut seeded_rng(4), d, 0.0, 1.0);
        let mut assembler = RoundAssembler::new(d);
        let mut row = vec![0.0f32; d];
        group.bench_with_input(BenchmarkId::new("encode_decode", d), &gradient, |b, g| {
            b.iter(|| {
                let packets = codec.split_bytes(0, 0, g.as_slice());
                assembler.assemble_into(black_box(&packets), &mut row).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_transports(c: &mut Criterion) {
    let mut group = c.benchmark_group("net_transports");
    group.sample_size(20);
    let gradient = gaussian_vector(&mut seeded_rng(2), 100_000, 0.0, 1.0);
    let codec = GradientCodec::default_mtu();

    let mut reliable = ReliableTransport::new(LinkConfig::datacenter(), codec).unwrap();
    group.bench_function("reliable_100k", |b| {
        b.iter(|| reliable.transfer(0, 0, black_box(&gradient)).unwrap())
    });

    let mut lossy = LossyTransport::new(
        LinkConfig::datacenter().with_drop_rate(0.10),
        codec,
        LossPolicy::RandomFill,
        3,
        0,
    )
    .unwrap();
    group.bench_function("lossy_10pct_100k", |b| {
        b.iter(|| lossy.transfer(0, 0, black_box(&gradient)).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_codec, bench_transports);
criterion_main!(benches);
