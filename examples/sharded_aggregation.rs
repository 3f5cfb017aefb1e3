//! Sharded aggregation: the multi-parameter-server deployment, exactly.
//!
//! The paper's deployment splits the model across several parameter
//! servers. Distance-based GARs look like they resist sharding — Krum needs
//! the full-dimension pairwise distances — but squared L2 distances
//! decompose into per-shard partial sums, so the sharded tier computes one
//! partial distance matrix per shard, reduces them in shard order, selects
//! *once globally*, and each shard then averages only the selected rows of
//! its own coordinate slice. No robustness is lost: this example asserts
//! that the selected worker set is identical, sharded or not, even while
//! under attack, and that the sharded update equals the monolithic one bit
//! for bit (each shard's columns average the same rows in the same order,
//! and at this size the four shards' reduces share one parallel region).
//!
//! ```text
//! cargo run --release -p agg-apps --example sharded_aggregation
//! ```

use agg_core::{Gar, GarConfig, GarKind, MultiKrum, ShardedAggregator};
use agg_net::{GradientCodec, RoundAssembler};
use agg_tensor::rng::{gaussian_vector, seeded_rng};
use agg_tensor::{GradientBatch, Vector};

const N: usize = 19; // the paper's worker count
const F: usize = 4; // declared Byzantine workers
const D: usize = 102_538; // the paper's MLP proxy dimension
const SHARDS: usize = 4;

fn main() {
    // One synchronous round: 15 honest gradients around a common descent
    // direction, 4 Byzantine submissions pulling somewhere else entirely.
    let mut rng = seeded_rng(7);
    let mut sent: Vec<Vector> = Vec::with_capacity(N);
    for _ in 0..N - F {
        let mut v = Vector::filled(D, 1.0);
        v.axpy(1.0, &gaussian_vector(&mut rng, D, 0.0, 0.05)).expect("same dimension");
        sent.push(v);
    }
    sent.resize(N, Vector::filled(D, -75.0));

    // The wire side, as the engine runs it: every worker splits its gradient
    // into MTU-sized packets oblivious to sharding, and the server assembles
    // each worker's packets into that worker's row of one arena.
    let codec = GradientCodec::default_mtu();
    let mut assembler = RoundAssembler::new(D);
    let mut batch = GradientBatch::with_capacity(D, N);
    let mut packets_sent = 0;
    for (worker, gradient) in sent.iter().enumerate() {
        let packets = codec.split_bytes(worker as u32, 0, gradient.as_slice());
        packets_sent += packets.len();
        batch.push_row_with(|row| {
            let missing = assembler.assemble_into(&packets, row).expect("consistent round");
            assert_eq!(missing, 0, "a clean wire loses nothing");
        });
    }
    println!("wire: {packets_sent} packets assembled into {N} arena rows of {D} coordinates");

    // What is sharded is the arena: each shard reads its column slice of
    // the same rows, so no packet is ever routed per shard.
    let config = GarConfig::new(GarKind::MultiKrum, F);
    let sharded = ShardedAggregator::new(config, SHARDS).expect("valid shard count");
    for (s, range) in sharded.column_plan(D).ranges().enumerate() {
        let columns = batch.columns(range.clone());
        println!(
            "  shard {s}: coordinates {}..{} ({} wide)",
            range.start,
            range.end,
            columns.width()
        );
    }

    // The aggregation side: Multi-Krum over the sharded tier vs the
    // monolithic server.
    let monolithic = MultiKrum::new(F).expect("valid f");

    let sharded_selection =
        sharded.selected_rows(&batch, None).expect("selects").expect("multi-krum selects");
    let monolithic_selection =
        monolithic.selected_rows(&batch, None).expect("selects").expect("multi-krum selects");
    println!("\nmonolithic selection: {monolithic_selection:?}");
    println!("sharded selection:    {sharded_selection:?}");
    assert_eq!(sharded_selection, monolithic_selection, "the decomposition is exact");
    assert!(
        sharded_selection.iter().all(|&w| w < N - F),
        "no Byzantine worker sneaks into the selection"
    );

    let sharded_update = sharded.aggregate_batch(&batch).expect("aggregates");
    let monolithic_update = monolithic.aggregate_batch(&batch).expect("aggregates");
    let bits = |v: &Vector| v.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    assert!(
        bits(&sharded_update) == bits(&monolithic_update),
        "the sharded update must equal the monolithic one bit for bit"
    );
    println!(
        "\nupdates are bitwise equal (selection identical, per-shard averages exact); \
         update[0] = {:.4}",
        sharded_update[0]
    );
}
