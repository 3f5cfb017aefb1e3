//! The update a selecting rule applies is the reduce of the selection it
//! reports: one definition drives both, on the flat tier, on the sharded
//! tier and in every group of a tree round.
//!
//! For Krum and Multi-Krum the aggregate's bits must equal the column
//! view's `mean_into(Some(selection))`; for Bulyan,
//! `mean_around_median_into(Some(selection), β = n − 4f)`. The batches carry
//! NaN and ±∞ rows, so the selections are the ones the non-finite policy
//! shapes.

use agg_core::{
    Gar, GarConfig, GarKind, GarRound, GradientBatch, ShardedAggregator, TreeAggregator, TreeConfig,
};
use agg_tensor::rng::{gaussian_vector, seeded_rng};
use agg_tensor::Vector;

const N: usize = 19;
const F: usize = 4;
const D: usize = 41;

fn bits(v: &Vector) -> Vec<u32> {
    v.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// `n` Gaussian rows of dimension `d` with a NaN coordinate in row 1, `+∞`
/// in row 2, `−∞` in row 3 and an all-NaN row 4.
fn corrupt_batch(n: usize, d: usize, seed: u64) -> GradientBatch {
    let mut rng = seeded_rng(seed);
    let rows: Vec<Vector> = (0..n).map(|_| gaussian_vector(&mut rng, d, 0.0, 1.0)).collect();
    let mut batch = GradientBatch::from_vectors(&rows).unwrap();
    batch.row_mut(1)[d / 2] = f32::NAN;
    batch.row_mut(2)[0] = f32::INFINITY;
    batch.row_mut(3)[d - 1] = f32::NEG_INFINITY;
    batch.row_mut(4).fill(f32::NAN);
    batch
}

/// Krum, Multi-Krum with the default and an explicit `m`, and Bulyan.
fn selecting_configs(f: usize) -> [GarConfig; 4] {
    [
        GarConfig::new(GarKind::Krum, f),
        GarConfig::new(GarKind::MultiKrum, f),
        GarConfig::new(GarKind::MultiKrum, f).with_selection(2),
        GarConfig::new(GarKind::Bulyan, f),
    ]
}

/// The reduce `config` applies to `selection`, through the flat kernels.
fn reduce_of(config: GarConfig, batch: &GradientBatch, selection: &[usize]) -> Vector {
    let (all, mut out) = (batch.columns(0..batch.dim()), vec![0.0f32; batch.dim()]);
    match config.kind {
        GarKind::Bulyan => {
            all.mean_around_median_into(Some(selection), batch.n() - 4 * config.f, &mut out)
        }
        _ => all.mean_into(Some(selection), &mut out),
    }
    .unwrap();
    Vector::from(out)
}

fn assert_round_is_reduce_of_selection(
    config: GarConfig,
    rule: &dyn Gar,
    batch: &GradientBatch,
    label: &str,
) {
    let GarRound { aggregate, selection } = rule.round(batch, None).unwrap();
    let selection = selection.expect("a selecting rule reports its selection");
    assert_eq!(rule.selected_rows(batch, None).unwrap().as_ref(), Some(&selection), "{label}");
    let expected_len = match config.kind {
        GarKind::Krum => 1,
        GarKind::Bulyan => batch.n() - 2 * config.f,
        _ => config.m.unwrap_or(batch.n() - config.f - 2),
    };
    assert_eq!(selection.len(), expected_len, "{label}: {selection:?}");
    assert!(!selection.contains(&4), "{label}: the all-NaN row was selected");
    assert_eq!(bits(&aggregate), bits(&reduce_of(config, batch, &selection)), "{label}");
}

#[test]
fn flat_and_sharded_updates_are_the_reduce_of_the_reported_selection() {
    for seed in [3, 17, 29] {
        let batch = corrupt_batch(N, D, seed);
        for config in selecting_configs(F) {
            let flat = config.build().unwrap();
            assert_round_is_reduce_of_selection(config, &*flat, &batch, &format!("{config} flat"));
            let sharded = ShardedAggregator::new(config, 3).unwrap();
            assert_round_is_reduce_of_selection(config, &sharded, &batch, &format!("{config} S=3"));
        }
    }
}

#[test]
fn every_tree_group_reports_its_own_rules_selection_and_aggregate() {
    // 40 rows in groups of 8 (floor 5 for Multi-Krum / Krum at f = 1, 7 for
    // Bulyan), the corrupt rows in group 0 and a second set in group 3.
    let mut batch = corrupt_batch(40, D, 11);
    batch.row_mut(25)[7] = f32::NAN;
    batch.row_mut(30).fill(f32::INFINITY);
    let groups: Vec<usize> = (0..40).map(|row| row / 8).collect();
    for group in selecting_configs(1) {
        let config =
            TreeConfig { group, root: GarConfig::new(GarKind::MultiKrum, 1), group_size: 8 };
        let tree = TreeAggregator::new(config).unwrap();
        let group_rule = group.build().unwrap();
        let round = tree.group_outputs(&batch, &groups).unwrap();
        assert_eq!(round.outputs.len(), 5, "{group}");
        for output in &round.outputs {
            let mut gathered = GradientBatch::with_capacity(D, output.members.len());
            for &row in &output.members {
                gathered.push_row(batch.row(row)).unwrap();
            }
            let selection = group_rule.selected_rows(&gathered, None).unwrap().unwrap();
            let kept: Vec<usize> = selection.into_iter().map(|r| output.members[r]).collect();
            let aggregate = group_rule.aggregate_batch(&gathered).unwrap();
            let label = format!("{group} groups, group {}", output.group);
            assert_eq!(output.kept.as_ref(), Some(&kept), "{label}");
            assert_eq!(bits(&output.output), bits(&aggregate), "{label}");
        }
    }
}
