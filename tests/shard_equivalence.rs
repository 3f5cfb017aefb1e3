//! Sharded aggregation must be exactly equivalent to the unsharded arena
//! path, for every rule and every shard count.
//!
//! This is the load-bearing property of the shard-parallel aggregation
//! layer: coordinate-wise rules shard trivially (their per-column
//! reductions are independent, so the outputs are bit-identical), and the
//! distance-based rules (Krum, Multi-Krum, Bulyan) stay *exact* because
//! squared L2 distances decompose into per-shard partial sums — the global
//! selection runs on the shard-reduced matrix and must pick the same
//! workers. The only admissible divergence is floating-point reassociation
//! in the distance sums, hence the 1e-6 tolerance.
//!
//! The property is checked for S ∈ {1, 2, 3, 7} over all eleven GAR
//! configurations (the ten registry kinds plus Multi-Krum with an explicit
//! selection size), on finite batches, on batches carrying NaN/±∞ rows, on
//! slot-addressed arenas that went through undelivered-row compaction
//! (`retain_rows`) — the layout a lossy round hands the server — and on the
//! empty batch and batches one row below each rule's floor. Failures must
//! agree too: the same [`AggregationError`] value on both tiers. Each tier's
//! primed entry (handed its own distance pass) must return its unprimed
//! entry's bits.

use agg_core::resilience::resilience_floor;
use agg_core::{AggregationError, Gar, GarConfig, GarKind, ShardedAggregator};
use agg_tensor::{GradientBatch, Vector};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];
const TOLERANCE: f32 = 1e-6;

/// The ten registry kinds plus Multi-Krum with an explicit `m`: every GAR
/// configuration the framework can build.
fn all_configs(f: usize) -> Vec<GarConfig> {
    let mut configs: Vec<GarConfig> =
        GarKind::ALL.iter().map(|&kind| GarConfig::new(kind, f)).collect();
    configs.push(GarConfig::new(GarKind::MultiKrum, f).with_selection(2));
    configs
}

/// Component-wise agreement: equal non-finite behaviour, otherwise within
/// 1e-6 of the unsharded value (relative to its magnitude, absolute near
/// zero).
fn close(sharded: f32, unsharded: f32) -> bool {
    if sharded.is_nan() && unsharded.is_nan() {
        return true;
    }
    if sharded == unsharded {
        return true; // covers equal infinities and exact matches
    }
    (sharded - unsharded).abs() <= TOLERANCE * unsharded.abs().max(1.0)
}

fn bits(v: &Vector) -> Vec<u32> {
    v.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// `rule`'s round through the unprimed entry, after checking that the
/// primed entry, handed the rule's own distance pass, returns the same bits
/// or the same error.
fn primed_agrees(
    rule: &dyn Gar,
    batch: &GradientBatch,
    label: &str,
) -> Result<Vector, AggregationError> {
    let unprimed = rule.aggregate_batch(batch);
    let primed = rule.aggregate_batch_with_distances(batch, &rule.distances(batch));
    assert_eq!(
        unprimed.as_ref().map(bits),
        primed.as_ref().map(bits),
        "{label}: the primed entry diverged from the unprimed one"
    );
    unprimed
}

/// Runs every configuration through the sharded and unsharded paths at
/// every shard count (see [`assert_config_sharded_matches_unsharded`]).
/// Over distinct rows the majority vote refuses on every tier;
/// [`majority_rows`] gives it batches it decodes.
fn assert_sharded_matches_unsharded(f: usize, batch: &GradientBatch) {
    for config in all_configs(f) {
        assert_config_sharded_matches_unsharded(config, batch);
    }
}

/// `config` through the sharded and unsharded paths at every shard count,
/// requiring the same aggregate or the same error, and the same selection
/// (or the same refusal) as the rule's own selection entry.
fn assert_config_sharded_matches_unsharded(config: GarConfig, batch: &GradientBatch) {
    let flat = config.build().expect("buildable rule");
    let unsharded = primed_agrees(&*flat, batch, &format!("{config} flat"));
    let reference = flat.selected_rows(batch, None);
    for shards in SHARD_COUNTS {
        let label = format!("{config} S={shards}");
        let sharded_rule = ShardedAggregator::new(config, shards).expect("valid shards");
        let sharded = primed_agrees(&sharded_rule, batch, &label);
        match (&sharded, &unsharded) {
            (Ok(a), Ok(b)) => assert_aggregates_close(config, shards, a, b),
            (Err(a), Err(b)) => assert_eq!(a, b, "{label}: sharded and flat fail differently"),
            (a, b) => panic!("{label}: sharded {a:?} disagrees with unsharded {b:?} on success"),
        }
        // The selection phase, when the rule has one, must pick exactly the
        // same workers — the heart of the no-robustness-loss claim.
        assert_eq!(
            sharded_rule.selected_rows(batch, None),
            reference,
            "{label}: sharded selection diverged"
        );
    }
}

fn assert_aggregates_close(config: GarConfig, shards: usize, sharded: &Vector, unsharded: &Vector) {
    // MeaMed and Bulyan's second phase rank every unusable value at key +∞;
    // when a coordinate has fewer usable values than the keep count, which
    // non-finite garbage reaches the mean is not part of the contract (see
    // batch_matches_reference.rs) — any non-finite output matches any other.
    let lenient_non_finite = matches!(config.kind, GarKind::MeaMed | GarKind::Bulyan);
    assert_eq!(sharded.len(), unsharded.len(), "{config} S={shards}: dimension mismatch");
    for c in 0..sharded.len() {
        if lenient_non_finite && !sharded[c].is_finite() && !unsharded[c].is_finite() {
            continue;
        }
        assert!(
            close(sharded[c], unsharded[c]),
            "{config} S={shards}: coordinate {c} diverged: sharded {} vs unsharded {}",
            sharded[c],
            unsharded[c]
        );
    }
}

fn batch_of(rows: Vec<Vec<f32>>) -> GradientBatch {
    let vs: Vec<Vector> = rows.into_iter().map(Vector::from).collect();
    GradientBatch::from_vectors(&vs).expect("consistent rows")
}

fn finite_rows() -> impl Strategy<Value = Vec<Vec<f32>>> {
    (5usize..24, 1usize..24)
        .prop_flat_map(|(n, d)| prop::collection::vec(prop::collection::vec(-8.0f32..8.0, d), n))
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
    (6usize..24, 1usize..16).prop_flat_map(|(n, d)| {
        let honest = prop::collection::vec(prop::collection::vec(-8.0f32..8.0, d), n);
        let corrupt =
            prop::collection::vec(prop::collection::vec(sometimes_corrupt(), d), n / 5 + 1);
        (honest, corrupt).prop_map(|(mut rows, corrupt)| {
            let n = rows.len();
            for (k, bad) in corrupt.into_iter().enumerate() {
                let slot = (k * 3 + 1) % n;
                rows[slot] = bad;
            }
            rows
        })
    })
}

/// A repetition group: `copies` replicas of one row among traitor rows
/// (some carrying NaN/±∞), `copies` from one below to well above a
/// majority, so the vote both refuses and decodes.
fn majority_rows() -> impl Strategy<Value = Vec<Vec<f32>>> {
    (3usize..16, 1usize..24).prop_flat_map(|(n, d)| {
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

#[test]
fn sharded_and_flat_refuse_the_same_way() {
    // The empty batch and a batch one row below each rule's floor: every
    // entry of every tier refuses, with the same error, and an empty batch
    // names the configured rule.
    for f in 0..3 {
        for config in all_configs(f) {
            let floor = resilience_floor(config.kind, f);
            for n in [0, floor - 1] {
                let rows: Vec<Vec<f32>> = (0..n).map(|i| vec![i as f32, 1.0, -2.0]).collect();
                let batch = if n == 0 { GradientBatch::new(3) } else { batch_of(rows) };
                assert_sharded_matches_unsharded(f, &batch);
                let refusal = config.build().unwrap().aggregate_batch(&batch).unwrap_err();
                if n == 0 {
                    assert_eq!(refusal, AggregationError::NoGradients(config.kind.name()));
                    assert_eq!(config.build().unwrap().aggregate(&[]).unwrap_err(), refusal);
                } else {
                    assert!(
                        matches!(refusal, AggregationError::NotEnoughWorkers { .. }),
                        "{config} over {n} rows: {refusal:?}"
                    );
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn majority_decodes_the_same_sharded_and_flat(rows in majority_rows(), f in 0usize..4) {
        let batch = batch_of(rows);
        let config = GarConfig::new(GarKind::Majority, f);
        assert_config_sharded_matches_unsharded(config, &batch);
        // Sharded ≡ flat by construction: the copy of one row, bit for bit.
        if let Ok(flat) = config.build().unwrap().aggregate_batch(&batch) {
            for shards in SHARD_COUNTS {
                let sharded = ShardedAggregator::new(config, shards).unwrap();
                let sharded = sharded.aggregate_batch(&batch).unwrap();
                prop_assert_eq!(bits(&sharded), bits(&flat));
            }
        }
    }

    #[test]
    fn sharded_matches_unsharded_on_finite_batches(rows in finite_rows(), f in 0usize..3) {
        assert_sharded_matches_unsharded(f, &batch_of(rows));
    }

    #[test]
    fn sharded_matches_unsharded_on_corrupt_batches(rows in corrupt_rows(), f in 0usize..3) {
        assert_sharded_matches_unsharded(f, &batch_of(rows));
    }

    #[test]
    fn sharded_matches_unsharded_after_row_compaction(
        rows in corrupt_rows(),
        keep_seed in 0u64..u64::MAX,
        f in 0usize..3,
    ) {
        // The engine's round layout: one slot per worker, written in place,
        // then undelivered slots squeezed out by retain_rows. The survivors
        // must aggregate identically to a freshly packed batch of the same
        // rows — sharded or not.
        let n = rows.len();
        let d = rows[0].len();
        let keep: Vec<bool> = (0..n).map(|i| (keep_seed >> (i % 64)) & 1 == 1 || i == 0).collect();
        let mut arena = GradientBatch::new(d);
        arena.resize_rows(n);
        for (slot, row) in rows.iter().enumerate() {
            arena.row_mut(slot).copy_from_slice(row);
        }
        arena.retain_rows(&keep);
        let survivors: Vec<Vec<f32>> = rows
            .iter()
            .zip(&keep)
            .filter(|(_, &k)| k)
            .map(|(row, _)| row.clone())
            .collect();
        prop_assert_eq!(arena.n(), survivors.len());
        assert_sharded_matches_unsharded(f, &arena);
        // And the compacted arena agrees with the freshly packed batch, bit
        // for bit (NaN payloads included, which `==` would reject).
        let packed = batch_of(survivors);
        prop_assert_eq!(arena.as_slice().len(), packed.as_slice().len());
        for (a, b) in arena.as_slice().iter().zip(packed.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
