//! Quorum rounds must equal lossy-drop rounds, for every rule.
//!
//! The streaming engine's quorum policy stops a round at the first `n − f`
//! arrivals and compacts the stragglers away. The load-bearing claim is
//! that this is *exactly* the transport-loss semantics the GARs already
//! absorb: aggregating the accepted rows through the streaming pipeline
//! (per-row distance accumulation, matrix extraction over the compacted
//! slot set, distance-primed aggregation) must be bit-for-bit identical to
//! explicitly dropping the stragglers and running the plain batch rule on
//! what is left. The property is checked over all eleven GAR configurations
//! (the ten registry kinds plus Multi-Krum with an explicit selection
//! size), on the flat and the sharded tier, under randomised arrival
//! orders and straggler sets — including rows carrying NaN/±∞ garbage.
//!
//! The adversarial complement: when the `f` slowest workers are the
//! Byzantine ones, an `n − f` quorum excludes them before they can steer
//! the aggregate, so even the non-resilient average survives an attack
//! that ruins it in full synchronous rounds.
//!
//! And the quorum cut is decided on simulated arrival times, not host
//! scheduling: a quorum run gives the same report at thread budgets 1, 2
//! and 4, streaming on and off.

mod common;

use agg_attacks::AttackKind;
use agg_core::{Gar, GarConfig, GarKind, ShardedAggregator};
use agg_ps::{QuorumPolicy, RoundPipeline, RunnerConfig};
use agg_tensor::{GradientBatch, Vector};
use common::{assert_deterministic, run};
use proptest::prelude::*;

/// The ten registry kinds plus Multi-Krum with an explicit `m`: every GAR
/// configuration the framework can build.
fn all_configs(f: usize) -> Vec<GarConfig> {
    let mut configs: Vec<GarConfig> =
        GarKind::ALL.iter().map(|&kind| GarConfig::new(kind, f)).collect();
    configs.push(GarConfig::new(GarKind::MultiKrum, f).with_selection(2));
    configs
}

/// Deterministic Fisher–Yates permutation of `0..n` driven by splitmix64.
fn arrival_order(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Runs one quorum round through the streaming pipeline — fill the arena,
/// fold each accepted row in at its arrival, extract the matrix over the
/// compacted slot set, compact — and checks the distance-primed aggregate
/// against the plain batch rule over an explicitly packed batch of the
/// same accepted rows, bit for bit, for every configuration in `configs`
/// (the quorum is `n − f` for the first one's `f`).
fn assert_quorum_equals_explicit_drop(
    rows: &[Vec<f32>],
    configs: &[GarConfig],
    shards: usize,
    seed: u64,
) {
    let f = configs[0].f;
    let n = rows.len();
    let d = rows[0].len();
    let quorum = QuorumPolicy::NMinusF.accept_count(n, f);
    let order = arrival_order(n, seed);
    let accepted = &order[..quorum];

    let mut pipeline = RoundPipeline::new(d, n);
    pipeline.enable_distance_streaming(n, d, shards).expect("valid shard plan");
    pipeline.begin_round(n);
    for (slot, row) in rows.iter().enumerate() {
        pipeline.arena_mut().row_mut(slot).copy_from_slice(row);
    }
    // Per-row completion events in arrival order; stragglers never fire.
    for &slot in accepted {
        pipeline.row_done(slot);
    }
    let mut keep = vec![false; n];
    for &slot in accepted {
        keep[slot] = true;
    }
    let kept_slots: Vec<usize> = (0..n).filter(|&i| keep[i]).collect();
    let distances = pipeline.matrix(&kept_slots).expect("streaming enabled");
    pipeline.arena_mut().retain_rows(&keep);

    // The explicit-drop reference: the same accepted rows, freshly packed.
    let survivors: Vec<Vector> =
        kept_slots.iter().map(|&slot| Vector::from(rows[slot].clone())).collect();
    let packed = GradientBatch::from_vectors(&survivors).expect("non-empty quorum");

    for &config in configs {
        let (streamed, reference) = if shards > 1 {
            let rule = ShardedAggregator::new(config, shards).expect("valid shards");
            (
                rule.aggregate_batch_with_distances(pipeline.arena(), &distances),
                rule.aggregate_batch(&packed),
            )
        } else {
            let rule = config.build().expect("buildable rule");
            (
                rule.aggregate_batch_with_distances(pipeline.arena(), &distances),
                rule.aggregate_batch(&packed),
            )
        };
        match (streamed, reference) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.len(), b.len(), "{config} S={shards}: dimension mismatch");
                for c in 0..a.len() {
                    assert_eq!(
                        a[c].to_bits(),
                        b[c].to_bits(),
                        "{config} S={shards}: coordinate {c} diverged: quorum {} vs drop {}",
                        a[c],
                        b[c]
                    );
                }
            }
            (Err(_), Err(_)) => {}
            (a, b) => {
                panic!("{config} S={shards}: quorum path {a:?} disagrees with explicit drop {b:?}")
            }
        }
    }
}

/// A mostly-finite coordinate that occasionally turns non-finite, mirroring
/// real malicious submissions.
fn sometimes_corrupt() -> impl Strategy<Value = f32> {
    prop_oneof![
        (-8.0f32..8.0).boxed(),
        (-8.0f32..8.0).boxed(),
        (-8.0f32..8.0).boxed(),
        Just(f32::NAN).boxed(),
        Just(f32::INFINITY).boxed(),
        Just(f32::NEG_INFINITY).boxed(),
    ]
}

/// Finite batch with up to `n/5 + 1` rows replaced by corrupt submissions.
fn corrupt_rows() -> impl Strategy<Value = Vec<Vec<f32>>> {
    (8usize..20, 1usize..40).prop_flat_map(|(n, d)| {
        let honest = prop::collection::vec(prop::collection::vec(-8.0f32..8.0, d), n);
        let corrupt =
            prop::collection::vec(prop::collection::vec(sometimes_corrupt(), d), n / 5 + 1);
        (honest, corrupt).prop_map(|(mut rows, corrupt)| {
            let n = rows.len();
            for (k, bad) in corrupt.into_iter().enumerate() {
                rows[(k * 3 + 1) % n] = bad;
            }
            rows
        })
    })
}

/// A repetition group: `copies` replicas of one row among traitor rows
/// (some carrying NaN/±∞), from just below a majority to every row, so
/// the `n − f` quorum both keeps and breaks the vote's majority.
fn majority_rows() -> impl Strategy<Value = Vec<Vec<f32>>> {
    (5usize..16, 1usize..24).prop_flat_map(|(n, d)| {
        let replica = prop::collection::vec(-8.0f32..8.0, d);
        let traitors = prop::collection::vec(prop::collection::vec(sometimes_corrupt(), d), n);
        (replica, traitors, n / 2..n + 1, 0usize..n).prop_map(
            |(replica, mut rows, copies, shift)| {
                let n = rows.len();
                for k in 0..copies {
                    rows[(k + shift) % n] = replica.clone();
                }
                rows
            },
        )
    })
}

proptest! {
    #[test]
    fn quorum_equals_explicit_drop_on_the_flat_tier(
        rows in corrupt_rows(),
        f in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        assert_quorum_equals_explicit_drop(&rows, &all_configs(f), 1, seed);
    }

    #[test]
    fn quorum_equals_explicit_drop_on_the_sharded_tier(
        rows in corrupt_rows(),
        f in 0usize..3,
        shards in 2usize..6,
        seed in 0u64..u64::MAX,
    ) {
        assert_quorum_equals_explicit_drop(&rows, &all_configs(f), shards, seed);
    }

    #[test]
    fn quorum_equals_explicit_drop_for_the_majority_vote(
        rows in majority_rows(),
        f in 0usize..3,
        shards in 1usize..6,
        seed in 0u64..u64::MAX,
    ) {
        let majority = [GarConfig::new(GarKind::Majority, f)];
        assert_quorum_equals_explicit_drop(&rows, &majority, shards, seed);
    }
}

fn engine_config(gar: GarKind, f: usize, workers: usize) -> RunnerConfig {
    RunnerConfig {
        experiment: agg_ps::ExperimentKind::MlpBlobs {
            input_dim: 16,
            hidden: 24,
            classes: 4,
            samples: 600,
        },
        gar: GarConfig::new(gar, f),
        workers,
        max_steps: 40,
        eval_every: 10,
        eval_samples: 120,
        batch_size: 16,
        learning_rate: agg_nn::schedule::LearningRate::Fixed { rate: 0.01 },
        seed: 31,
        ..RunnerConfig::quick_default()
    }
}

#[test]
fn quorum_excludes_byzantine_stragglers() {
    // The adversarial case: the f slowest workers ARE the Byzantine ones.
    // Averaging with no quorum is defenceless — two reversed gradients at
    // 50× scale wreck every round. With an n − f quorum the attackers,
    // being the stragglers, never make the accepted set.
    let mut config = engine_config(GarKind::Average, 2, 9);
    config.byzantine_count = 2;
    config.attack = AttackKind::Reversed { scale: 50.0 };
    let mut delays = vec![0.0; 9];
    delays[7] = 5.0;
    delays[8] = 5.0;
    config.worker_extra_delay_sec = delays;

    let ruined = run(config.clone());

    config.streaming.quorum = QuorumPolicy::NMinusF;
    let defended = run(config);

    assert!(
        defended.final_accuracy() > ruined.final_accuracy() + 0.2,
        "quorum ({:.3}) should clearly beat the full synchronous round ({:.3}) \
         when the stragglers are the attackers",
        defended.final_accuracy(),
        ruined.final_accuracy()
    );
    assert!(defended.final_accuracy() > 0.6, "accuracy {}", defended.final_accuracy());
}

#[test]
fn quorum_rounds_remain_deterministic_across_thread_modes() {
    // The quorum accept set is decided on simulated arrival times, not host
    // scheduling, so every thread budget must agree bit for bit under a
    // quorum too, on both round pipelines.
    let mut config = engine_config(GarKind::MultiKrum, 2, 9);
    config.byzantine_count = 2;
    config.attack = AttackKind::Reversed { scale: 50.0 };
    config.streaming.enabled = true;
    config.streaming.quorum = QuorumPolicy::NMinusF;
    let mut delays = vec![0.0; 9];
    delays[3] = 2.0;
    delays[5] = 3.0;
    config.worker_extra_delay_sec = delays;
    assert_deterministic(&config);
}
