//! Criterion benchmarks of the communication layer: the wire codec's
//! encode + reassemble leg, and the two transports behind the Figure 8
//! experiments.

use agg_net::packet::{wire_integrity_errors, CRC_LANES};
use agg_net::{
    crc32, ChaosConfig, ChaosPlan, GradientCodec, LinkConfig, LossPolicy, LossyTransport,
    ReliableTransport, RetransmitConfig, RoundAssembler, Transport,
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
        let mut row = gradient.as_slice().to_vec();
        group.bench_with_input(BenchmarkId::new("encode_decode", d), &gradient, |b, g| {
            b.iter(|| {
                let packets = codec.split_bytes(0, 0, g.as_slice());
                assembler.assemble_into(black_box(&packets), &mut row).unwrap()
            })
        });
    }
    group.finish();
}

/// The integrity envelope alone over one d = 100 000 split (286 packets,
/// 1 436 checksummed bytes each): one CRC-32C chain per packet in turn
/// (`crc32`), against three packets' chains side by side
/// (`wire_integrity_errors`, what the encoder and the assembler run).
fn bench_crc(c: &mut Criterion) {
    let mut group = c.benchmark_group("net_crc");
    group.sample_size(20);
    let gradient = gaussian_vector(&mut seeded_rng(5), 100_000, 0.0, 1.0);
    let packets = GradientCodec::default_mtu().split_bytes(0, 0, gradient.as_slice());
    group.bench_function("one_chain_100k", |b| {
        b.iter(|| packets.iter().fold(0u32, |acc, p| acc ^ crc32(black_box(p))))
    });
    group.bench_function("three_chains_100k", |b| {
        b.iter(|| {
            for batch in packets.chunks(CRC_LANES) {
                black_box(wire_integrity_errors(black_box(batch)));
            }
        })
    });
    group.finish();
}

/// `Transport::send_in_place` — the call the engine makes — from a row
/// reused across iterations and filled with the gradient once (a lossy send
/// leaves the receiver's view there, which the next iteration sends), at
/// the two row sizes the lossy workloads send:
/// d = 4 138 (`elastic_tree256`, 12 packets, where the tail of the
/// three-packet CRC batches shows) and d = 100 000 (≈ the paper's model,
/// 286 packets). `lossy_10pct` is a plain lossy send; `lossy_chaos_retransmit`
/// is `stream19_sharded`'s degraded link (10 % drop, `ChaosConfig::moderate`,
/// the default `RetransmitConfig`), one step further per iteration so every
/// send draws fresh chaos: the first transmission and the NACK/retransmit
/// rounds of the one lossy send body.
fn bench_transports(c: &mut Criterion) {
    let mut group = c.benchmark_group("net_transports");
    group.sample_size(20);
    let codec = GradientCodec::default_mtu();
    for (label, d) in [("4138", 4_138usize), ("100k", 100_000)] {
        let gradient = gaussian_vector(&mut seeded_rng(2), d, 0.0, 1.0);
        let mut row = gradient.as_slice().to_vec();

        let mut reliable = ReliableTransport::new(LinkConfig::datacenter(), codec).unwrap();
        group.bench_function(&format!("reliable_{label}"), |b| {
            b.iter(|| reliable.send_in_place(0, 0, black_box(&mut row)).unwrap())
        });

        let mut lossy = LossyTransport::new(
            LinkConfig::datacenter().with_drop_rate(0.10),
            codec,
            LossPolicy::RandomFill,
            3,
            0,
        )
        .unwrap();
        group.bench_function(&format!("lossy_10pct_{label}"), |b| {
            b.iter(|| lossy.send_in_place(0, 0, black_box(&mut row)).unwrap())
        });

        let mut recovering = LossyTransport::new(
            LinkConfig::datacenter().with_drop_rate(0.10),
            codec,
            LossPolicy::RandomFill,
            3,
            0,
        )
        .unwrap();
        recovering.set_chaos(Some(ChaosPlan::new(ChaosConfig::moderate(), 3).unwrap()));
        recovering.set_retransmit(Some(RetransmitConfig::default()));
        let mut step = 0u64;
        group.bench_function(&format!("lossy_chaos_retransmit_{label}"), |b| {
            b.iter(|| {
                step += 1;
                recovering.send_in_place(0, step, black_box(&mut row)).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_codec, bench_crc, bench_transports);
criterion_main!(benches);
