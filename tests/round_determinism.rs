//! The parallel round pipeline must be a pure performance change: Phase 1
//! fans honest workers out over rayon, but every worker owns its model,
//! sampler and transport (each with its own derived RNG stream) and writes
//! into its own pre-assigned arena row, so for a fixed seed the parallel
//! engine must produce a `TrainingReport` identical to the sequential seed
//! ordering — same trace, same step counts, same skipped rounds.
//!
//! The sharded aggregation tier gets the same pin: shards run under rayon,
//! but the per-shard kernels are deterministic and the cross-shard reduce
//! happens in fixed shard order, so `set_shard_parallel(false)` (the shard
//! ordering) must be bit-identical to the fan-out. CI runs this whole suite
//! under both `RAYON_NUM_THREADS=1` and `=4`, which closes the argument:
//! in either environment parallel == sequential, and the sequential
//! ordering is trivially thread-count independent, so a 1-thread and a
//! 4-thread process produce the same bits.
//!
//! The streaming round pipeline is pinned the same way: with
//! `streaming.enabled` the distance work for the selection rules runs
//! incrementally per arriving row instead of batch-at-barrier, and the
//! result must be bit-identical — the accumulator replays the exact batch
//! kernels and reduce orders. CI's matrix crosses `RAYON_NUM_THREADS`
//! with `AGG_STREAMING={on,off}`: setting `AGG_STREAMING=on` flips every
//! test in this suite onto the streaming path via `base_config`, so the
//! parallel == sequential pins hold in both modes, and the explicit
//! streaming-vs-barrier tests below tie the two modes to each other.
//!
//! Only the deterministic fields are compared bit-for-bit: the wall-clock
//! derived fields (`time_sec`, `simulated_time_sec`, latency/throughput
//! seconds) embed real `Instant` measurements of the aggregation kernel and
//! were already run-to-run nondeterministic in the sequential seed engine.

use agg_attacks::AttackKind;
use agg_core::{GarConfig, GarKind};
use agg_net::{LinkConfig, LossPolicy};
use agg_nn::schedule::LearningRate;
use agg_ps::{RunnerConfig, SyncTrainingEngine, TrainingReport, TransportKind};

fn base_config(gar: GarKind, f: usize, workers: usize) -> RunnerConfig {
    let mut config = RunnerConfig {
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
    };
    // The CI matrix hook: `AGG_STREAMING=on` reruns this entire suite with
    // per-row streaming distance accumulation enabled, so every parallel ==
    // sequential pin is checked on both round pipelines.
    if matches!(std::env::var("AGG_STREAMING").as_deref(), Ok("on") | Ok("1") | Ok("true")) {
        config.streaming.enabled = true;
    }
    config
}

fn run_parallel_and_sequential(config: RunnerConfig) -> (TrainingReport, TrainingReport) {
    let mut parallel = SyncTrainingEngine::new(config.clone()).expect("valid config");
    let mut sequential = SyncTrainingEngine::new(config).expect("valid config");
    sequential.set_phase1_parallel(false);
    (parallel.run().expect("parallel run"), sequential.run().expect("sequential run"))
}

/// Bit-for-bit equality of everything the gradient path determines.
fn assert_reports_identical(parallel: &TrainingReport, sequential: &TrainingReport) {
    assert_eq!(parallel.label, sequential.label);
    assert_eq!(parallel.steps_completed, sequential.steps_completed);
    assert_eq!(parallel.skipped_updates, sequential.skipped_updates);
    assert_eq!(parallel.trace.len(), sequential.trace.len());
    for (p, s) in parallel.trace.points().iter().zip(sequential.trace.points()) {
        assert_eq!(p.step, s.step);
        assert_eq!(
            p.accuracy.to_bits(),
            s.accuracy.to_bits(),
            "accuracy diverged at step {}: parallel {} vs sequential {}",
            p.step,
            p.accuracy,
            s.accuracy
        );
        assert_eq!(
            p.loss.to_bits(),
            s.loss.to_bits(),
            "loss diverged at step {}: parallel {} vs sequential {}",
            p.step,
            p.loss,
            s.loss
        );
    }
}

#[test]
fn parallel_engine_matches_sequential_on_reliable_links() {
    let (parallel, sequential) = run_parallel_and_sequential(base_config(GarKind::Average, 0, 7));
    assert_reports_identical(&parallel, &sequential);
    assert_eq!(parallel.steps_completed, 24);
}

#[test]
fn parallel_engine_matches_sequential_under_attack() {
    let mut config = base_config(GarKind::MultiKrum, 2, 9);
    config.byzantine_count = 2;
    config.attack = AttackKind::LittleIsEnough { z: 1.0 };
    let (parallel, sequential) = run_parallel_and_sequential(config);
    assert_reports_identical(&parallel, &sequential);
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
    let (parallel, sequential) = run_parallel_and_sequential(config);
    assert_reports_identical(&parallel, &sequential);
}

#[test]
fn shard_parallel_aggregation_matches_sequential_shard_order() {
    // Multi-Krum over a 4-shard tier: the distance pipeline (per-shard
    // partials, shard-order reduce, global selection) runs under rayon in
    // one engine and in plain shard order in the other.
    let mut config = base_config(GarKind::MultiKrum, 2, 9);
    config.shards = 4;
    config.byzantine_count = 2;
    config.attack = AttackKind::LittleIsEnough { z: 1.0 };
    let mut parallel = SyncTrainingEngine::new(config.clone()).expect("valid config");
    let mut sequential = SyncTrainingEngine::new(config).expect("valid config");
    sequential.set_shard_parallel(false);
    let parallel = parallel.run().expect("shard-parallel run");
    let sequential = sequential.run().expect("shard-sequential run");
    assert_reports_identical(&parallel, &sequential);
    assert_eq!(parallel.steps_completed, 24);
}

#[test]
fn shard_parallel_median_matches_sequential_shard_order() {
    // Coordinate-wise rule through the selection-network kernels: per-shard
    // column ranges start mid-lane-tile, so this pins that the network
    // path's tile/block snapping and NaN canonicalisation stay bit-identical
    // between the rayon fan-out and plain shard order.
    let mut config = base_config(GarKind::Median, 2, 9);
    config.shards = 3;
    config.byzantine_count = 2;
    config.attack = AttackKind::LittleIsEnough { z: 1.5 };
    let mut parallel = SyncTrainingEngine::new(config.clone()).expect("valid config");
    let mut sequential = SyncTrainingEngine::new(config).expect("valid config");
    sequential.set_phase1_parallel(false);
    sequential.set_shard_parallel(false);
    let parallel = parallel.run().expect("parallel run");
    let sequential = sequential.run().expect("sequential run");
    assert_reports_identical(&parallel, &sequential);
    assert_eq!(parallel.steps_completed, 24);
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
    let mut parallel = SyncTrainingEngine::new(config.clone()).expect("valid config");
    let mut sequential = SyncTrainingEngine::new(config).expect("valid config");
    sequential.set_phase1_parallel(false);
    sequential.set_shard_parallel(false);
    let parallel = parallel.run().expect("parallel run");
    let sequential = sequential.run().expect("sequential run");
    assert_reports_identical(&parallel, &sequential);
    assert_eq!(parallel.steps_completed, 24);
}

#[test]
fn shard_parallel_aggregation_matches_sequential_shard_order_over_lossy_links() {
    // Both parallel tiers at once (phase-1 workers and shards) against the
    // fully sequential engine, over lossy links with whole-row compaction.
    let mut config = base_config(GarKind::MultiKrum, 2, 9);
    config.shards = 3;
    config.byzantine_count = 1;
    config.attack = AttackKind::Reversed { scale: 50.0 };
    config.transport = TransportKind::Lossy { policy: LossPolicy::RandomFill };
    config.lossy_links = 4;
    config.link = LinkConfig::datacenter().with_drop_rate(0.10);
    let mut parallel = SyncTrainingEngine::new(config.clone()).expect("valid config");
    let mut sequential = SyncTrainingEngine::new(config).expect("valid config");
    sequential.set_phase1_parallel(false);
    sequential.set_shard_parallel(false);
    let parallel = parallel.run().expect("parallel run");
    let sequential = sequential.run().expect("sequential run");
    assert_reports_identical(&parallel, &sequential);
}

#[test]
fn streaming_matches_barrier_bit_for_bit_across_thread_modes() {
    // The 2 × 2 grid of {streaming, barrier} × {parallel, sequential}: all
    // four engines must produce identical bits. Multi-Krum over a 4-shard
    // tier exercises the blocked partial-distance accumulator against the
    // sharded batch pipeline.
    let mut config = base_config(GarKind::MultiKrum, 2, 9);
    config.byzantine_count = 2;
    config.attack = AttackKind::LittleIsEnough { z: 1.0 };
    config.shards = 4;
    let mut reports = Vec::new();
    for streaming in [false, true] {
        for parallel in [false, true] {
            let mut c = config.clone();
            c.streaming.enabled = streaming;
            let mut engine = SyncTrainingEngine::new(c).expect("valid config");
            engine.set_phase1_parallel(parallel);
            engine.set_shard_parallel(parallel);
            reports.push(engine.run().expect("run"));
        }
    }
    for report in &reports[1..] {
        assert_reports_identical(&reports[0], report);
    }
    assert_eq!(reports[0].steps_completed, 24);
}

#[test]
fn streaming_matches_barrier_over_lossy_links_with_whole_row_drops() {
    // DropGradient removes whole rows from some rounds, so the streaming
    // accumulator extracts its matrix over a sparse, compacted slot set —
    // the layout a lossy round actually hands the server.
    let mut config = base_config(GarKind::MultiKrum, 2, 9);
    config.byzantine_count = 1;
    config.attack = AttackKind::Reversed { scale: 50.0 };
    config.transport = TransportKind::Lossy { policy: LossPolicy::DropGradient };
    config.lossy_links = 4;
    config.link = LinkConfig::datacenter().with_drop_rate(0.15);
    config.streaming.enabled = false;
    let mut barrier_engine = SyncTrainingEngine::new(config.clone()).expect("valid config");
    config.streaming.enabled = true;
    let mut streaming_engine = SyncTrainingEngine::new(config).expect("valid config");
    let barrier = barrier_engine.run().expect("barrier run");
    let streaming = streaming_engine.run().expect("streaming run");
    assert_reports_identical(&barrier, &streaming);
}

#[test]
fn streaming_bulyan_matches_barrier_on_the_sharded_tier() {
    // Bulyan reuses the streamed matrix for its iterated selection and then
    // runs its second phase on the arena rows; both halves must be
    // untouched by the pipeline swap.
    let mut config = base_config(GarKind::Bulyan, 1, 9);
    config.byzantine_count = 1;
    config.attack = AttackKind::Reversed { scale: 50.0 };
    config.shards = 3;
    config.streaming.enabled = false;
    let barrier = SyncTrainingEngine::new(config.clone()).expect("valid config").run().unwrap();
    config.streaming.enabled = true;
    let streaming = SyncTrainingEngine::new(config).expect("valid config").run().unwrap();
    assert_reports_identical(&barrier, &streaming);
    assert_eq!(barrier.steps_completed, 24);
}

#[test]
fn parallel_engine_matches_sequential_with_random_fill_and_byzantine_workers() {
    let mut config = base_config(GarKind::MultiKrum, 2, 9);
    config.byzantine_count = 1;
    config.attack = AttackKind::Reversed { scale: 50.0 };
    config.transport = TransportKind::Lossy { policy: LossPolicy::RandomFill };
    config.lossy_links = 4;
    config.link = LinkConfig::datacenter().with_drop_rate(0.10);
    let (parallel, sequential) = run_parallel_and_sequential(config);
    assert_reports_identical(&parallel, &sequential);
    // The run must actually have learned something for the comparison to be
    // meaningful (all-zero traces would match trivially).
    assert!(parallel.final_accuracy() > 0.4, "accuracy {}", parallel.final_accuracy());
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
        for parallel in [true, false] {
            let mut engine = SyncTrainingEngine::new(config.clone()).expect("valid config");
            engine.set_phase1_parallel(parallel);
            let report = engine.run().expect("run");
            assert_eq!(report.steps_completed, 24);
            assert_eq!(
                selection_fingerprint(&report),
                expected,
                "{:?}, phase 1 parallel = {parallel}",
                config.attack
            );
        }
    }
}
