//! The parallel round pipeline must be a pure performance change: Phase 1
//! fans honest workers out over rayon, but every worker owns its model,
//! sampler and transport (each with its own derived RNG stream) and writes
//! into its own pre-assigned arena row, so for a fixed seed the engine must
//! produce the same `TrainingReport` at every thread budget — same trace,
//! same step counts, same skipped rounds. Budget 1 is the sequential seed
//! ordering.
//!
//! The sharded aggregation tier gets the same pin: shards run under rayon,
//! but the per-shard kernels are deterministic and the cross-shard reduce
//! happens in fixed shard order, so budget 1 (plain shard order) must be
//! bit-identical to budgets 2 and 4.
//!
//! Every pass after Phase 1 is pinned the same way: the adversary's honest
//! mean, the attackers' sends, the compaction of undelivered and late rows,
//! the distance pass over the compacted rows and the sharded reduce each
//! split their work over rayon, and each keeps its term order. Every pin
//! below runs its configuration at budgets 1, 2 and 4 in this process
//! (`common::assert_deterministic`). Most configurations are small enough
//! that the kernels stay under the parallel gate; the `stream19`-shaped pin
//! is large enough that every region fans out.
//!
//! The `streaming_*` pins are named for the per-row distance fold the engine
//! once ran; the engine now always takes the batch pass, which the fold is
//! pinned bit-identical to at the tensor layer, so they pin the same
//! configurations on the one pipeline.

mod common;

use agg_attacks::AttackKind;
use agg_core::{GarConfig, GarKind};
use agg_net::{ChaosConfig, LinkConfig, LossPolicy, RetransmitConfig};
use agg_nn::schedule::LearningRate;
use agg_ps::{QuorumPolicy, RunnerConfig, TrainingReport, TransportKind};
use common::assert_deterministic;

fn base_config(gar: GarKind, f: usize, workers: usize) -> RunnerConfig {
    RunnerConfig {
        experiment: agg_ps::ExperimentKind::MlpBlobs {
            input_dim: 16,
            hidden: 24,
            classes: 4,
            samples: 600,
        },
        gar: GarConfig::new(gar, f),
        workers,
        max_steps: 24,
        eval_every: 6,
        eval_samples: 120,
        batch_size: 16,
        learning_rate: LearningRate::Fixed { rate: 0.01 },
        seed: 23,
        ..RunnerConfig::quick_default()
    }
}

#[test]
fn parallel_engine_matches_sequential_on_reliable_links() {
    let report = assert_deterministic(&base_config(GarKind::Average, 0, 7));
    assert_eq!(report.steps_completed, 24);
}

#[test]
fn parallel_engine_matches_sequential_under_attack() {
    let mut config = base_config(GarKind::MultiKrum, 2, 9);
    config.byzantine_count = 2;
    config.attack = AttackKind::LittleIsEnough { z: 1.0 };
    assert_deterministic(&config);
}

#[test]
fn parallel_engine_matches_sequential_over_lossy_links_with_drops() {
    // DropGradient at a substantial loss rate exercises the undelivered-slot
    // compaction: whole rows vanish from some rounds and the skipped count
    // must still line up exactly.
    let mut config = base_config(GarKind::Average, 0, 8);
    config.transport = TransportKind::Lossy { policy: LossPolicy::DropGradient };
    config.lossy_links = 3;
    config.link = LinkConfig::datacenter().with_drop_rate(0.15);
    assert_deterministic(&config);
}

#[test]
fn shard_parallel_aggregation_matches_sequential_shard_order() {
    // Multi-Krum over a 4-shard tier: the distance pipeline (per-shard
    // partials, shard-order reduce, global selection) and the sharded
    // reduce, at every budget.
    let mut config = base_config(GarKind::MultiKrum, 2, 9);
    config.shards = 4;
    config.byzantine_count = 2;
    config.attack = AttackKind::LittleIsEnough { z: 1.0 };
    let report = assert_deterministic(&config);
    assert_eq!(report.steps_completed, 24);
}

#[test]
fn shard_parallel_median_matches_sequential_shard_order() {
    // Coordinate-wise rule through the selection-network kernels: per-shard
    // column ranges start mid-lane-tile, so this pins that the network
    // path's tile/block snapping and NaN canonicalisation stay bit-identical
    // at every budget.
    let mut config = base_config(GarKind::Median, 2, 9);
    config.shards = 3;
    config.byzantine_count = 2;
    config.attack = AttackKind::LittleIsEnough { z: 1.5 };
    let report = assert_deterministic(&config);
    assert_eq!(report.steps_completed, 24);
}

#[test]
fn shard_parallel_bulyan_matches_sequential_shard_order() {
    // Bulyan drives both halves at once: the sharded distance pipeline for
    // phase 1 and the network mean-around-median kernels for phase 2 over
    // the selected rows.
    let mut config = base_config(GarKind::Bulyan, 1, 9);
    config.shards = 4;
    config.byzantine_count = 1;
    config.attack = AttackKind::Reversed { scale: 50.0 };
    let report = assert_deterministic(&config);
    assert_eq!(report.steps_completed, 24);
}

#[test]
fn shard_parallel_aggregation_matches_sequential_shard_order_over_lossy_links() {
    // Both parallel tiers at once (phase-1 workers and shards), over lossy
    // links with whole-row compaction.
    let mut config = base_config(GarKind::MultiKrum, 2, 9);
    config.shards = 3;
    config.byzantine_count = 1;
    config.attack = AttackKind::Reversed { scale: 50.0 };
    config.transport = TransportKind::Lossy { policy: LossPolicy::RandomFill };
    config.lossy_links = 4;
    config.link = LinkConfig::datacenter().with_drop_rate(0.10);
    assert_deterministic(&config);
}

#[test]
fn streaming_matches_barrier_bit_for_bit_across_thread_modes() {
    // Krum — Multi-Krum's m = 1 selection — on the 4-shard tier: one
    // selected row per round, so any drift in the sharded distance partials
    // between budgets changes which row wins.
    let mut config = base_config(GarKind::Krum, 2, 9);
    config.byzantine_count = 2;
    config.attack = AttackKind::LittleIsEnough { z: 1.0 };
    config.shards = 4;
    let report = assert_deterministic(&config);
    assert_eq!(report.steps_completed, 24);
}

#[test]
fn streaming_matches_barrier_over_lossy_links_with_whole_row_drops() {
    // DropGradient removes whole rows from some rounds, so the distance
    // pass runs over a sparse, compacted slot set — the layout a lossy round
    // actually hands the server.
    let mut config = base_config(GarKind::MultiKrum, 2, 9);
    config.byzantine_count = 1;
    config.attack = AttackKind::Reversed { scale: 50.0 };
    config.transport = TransportKind::Lossy { policy: LossPolicy::DropGradient };
    config.lossy_links = 4;
    config.link = LinkConfig::datacenter().with_drop_rate(0.15);
    assert_deterministic(&config);
}

#[test]
fn streaming_bulyan_matches_barrier_on_the_sharded_tier() {
    // Bulyan reuses the round's one matrix for its iterated selection and
    // then runs its second phase on the arena rows; both halves must agree
    // at every budget.
    let mut config = base_config(GarKind::Bulyan, 1, 9);
    config.byzantine_count = 1;
    config.attack = AttackKind::Reversed { scale: 50.0 };
    config.shards = 3;
    let report = assert_deterministic(&config);
    assert_eq!(report.steps_completed, 24);
}

#[test]
fn a_stream19_shaped_round_is_bit_identical_at_every_budget() {
    // stream19_sharded in small: S = 4 Multi-Krum under an n − f quorum,
    // 4 stragglers and 2 sign-flip attackers, the last 6 links lossy with
    // chaos and retransmit. At d = 104 404 every region after Phase 1 clears
    // PARALLEL_MIN_WORK — the honest mean's blocks, the two attackers' sends,
    // a compaction that moves the rows behind each straggler, the sharded
    // distance partials and the reduce's four ranges — so budgets 2 and 4
    // deal them to threads.
    let mut delays = vec![0.0; 19];
    for straggler in [0, 5, 10, 15] {
        delays[straggler] = 0.05;
    }
    let mut config = RunnerConfig {
        experiment: agg_ps::ExperimentKind::MlpBlobs {
            input_dim: 256,
            hidden: 400,
            classes: 4,
            samples: 200,
        },
        gar: GarConfig::new(GarKind::MultiKrum, 4),
        workers: 19,
        byzantine_count: 2,
        attack: AttackKind::SignFlip,
        shards: 4,
        worker_extra_delay_sec: delays,
        transport: TransportKind::Lossy { policy: LossPolicy::RandomFill },
        lossy_links: 6,
        link: LinkConfig::datacenter().with_drop_rate(0.10),
        chaos: Some(ChaosConfig::moderate()),
        retransmit: Some(RetransmitConfig::default()),
        max_steps: 4,
        eval_every: 2,
        eval_samples: 40,
        batch_size: 2,
        ..base_config(GarKind::MultiKrum, 4, 19)
    };
    config.streaming.quorum = QuorumPolicy::NMinusF;
    let report = assert_deterministic(&config);
    assert_eq!(report.steps_completed, 4);
    for record in &report.rounds {
        // The quorum cuts straggler 0 every round, so every accepted row
        // moves down in the compaction.
        assert_eq!(record.accepted.len(), 15, "step {}", record.step);
        assert!(!record.accepted.contains(&0), "step {}", record.step);
        let selection = record.selection.as_ref().expect("Multi-Krum selects");
        assert!(selection.iter().all(|slot| record.accepted.binary_search(slot).is_ok()));
    }
}

#[test]
fn parallel_engine_matches_sequential_with_random_fill_and_byzantine_workers() {
    let mut config = base_config(GarKind::MultiKrum, 2, 9);
    config.byzantine_count = 1;
    config.attack = AttackKind::Reversed { scale: 50.0 };
    config.transport = TransportKind::Lossy { policy: LossPolicy::RandomFill };
    config.lossy_links = 4;
    config.link = LinkConfig::datacenter().with_drop_rate(0.10);
    let report = assert_deterministic(&config);
    // The run must actually have learned something for the comparison to be
    // meaningful (all-zero traces would match trivially).
    assert!(report.final_accuracy() > 0.4, "accuracy {}", report.final_accuracy());
}

/// What the selection feedback determines in a report: the
/// Byzantine-selection count and the bits of the final accuracy and loss.
fn selection_fingerprint(report: &TrainingReport) -> (u64, u64, u64) {
    let last = report.trace.points().last().expect("the run evaluates at the end");
    (report.byzantine_selected_rounds, last.accuracy.to_bits(), last.loss.to_bits())
}

#[test]
fn selection_feedback_reports_are_pinned_across_the_single_distance_pass() {
    // The engine builds one distance matrix per round and hands it to both
    // the rule and the selection feedback. The expected values were captured
    // from the engine that ran two passes (`apply_round_batch`, then
    // `selected_rows(.., None)`): a sign-flip run, whose feedback only
    // counts, and an adaptive run, whose adversary consumes
    // `previous_selection` and so steers every later round by it.
    let mut sign_flip = base_config(GarKind::MultiKrum, 2, 9);
    sign_flip.byzantine_count = 2;
    sign_flip.attack = AttackKind::SignFlip;
    let mut adaptive = base_config(GarKind::MultiKrum, 2, 9);
    adaptive.byzantine_count = 2;
    adaptive.attack = AttackKind::Adaptive;
    let pins = [
        (sign_flip, (0u64, 0x3ff0_0000_0000_0000u64, 0x3fd7_f9cd_2000_0000u64)),
        (adaptive, (24, 0x3ff0_0000_0000_0000, 0x3fd5_c656_2000_0000)),
    ];
    for (config, expected) in pins {
        let report = assert_deterministic(&config);
        assert_eq!(report.steps_completed, 24);
        assert_eq!(selection_fingerprint(&report), expected, "{:?}", config.attack);
    }
}
