//! A round over a list of row ids into a larger arena is the round over
//! those rows compacted into a batch of their own, bit for bit: the same
//! aggregate (or the same refusal) and the same selection, mapped from
//! batch positions to arena ids.
//!
//! Every `GarKind` runs flat, sharded over S = 1 and S = 4, and as the
//! group rule of a tree whose groups are uniform (4 × 8) or ragged
//! (7, 7, 7, 7, 4), with a Multi-Krum root so the root selection is mapped
//! too. The row lists are drawn from a 40-row arena: one with the first slot
//! cut, one with the last slot cut and its order shuffled, one over the
//! arena's NaN and ±∞ rows (the arena also holds non-finite rows the list
//! leaves out), and a single survivor. A kernel that reads the arena's
//! leading rows instead of the listed ones, or a selection left as batch
//! positions, fails these tests.

use agg_core::{
    AggregationError, Gar, GarConfig, GarKind, GarRound, GradientBatch, ShardedAggregator,
    TreeAggregator, TreeConfig, TreeRound,
};
use agg_tensor::rng::{derive_seed, gaussian_vector, seeded_rng};
use agg_tensor::Vector;

/// Rows in the arena, and the dimension (past the distance kernel's
/// parallel gate for a 32-row list).
const ARENA: usize = 40;
const D: usize = 300;

fn bits(v: &Vector) -> Vec<u32> {
    v.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// Gaussian rows with non-finite coordinates in rows 3 (NaN), 11 (`+∞`),
/// 17 (all NaN) and 38 (`−∞`): the lists below take some of them and leave
/// the others out.
fn arena() -> GradientBatch {
    let mut rng = seeded_rng(47);
    let rows: Vec<Vector> = (0..ARENA).map(|_| gaussian_vector(&mut rng, D, 0.0, 1.0)).collect();
    let mut batch = GradientBatch::from_vectors(&rows).unwrap();
    batch.row_mut(3)[D / 3] = f32::NAN;
    batch.row_mut(11)[0] = f32::INFINITY;
    batch.row_mut(17).fill(f32::NAN);
    batch.row_mut(38)[D - 1] = f32::NEG_INFINITY;
    batch
}

/// `len` distinct arena ids drawn from `seed`, never `cut`, ascending.
fn drawn(seed: u64, len: usize, cut: usize) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..ARENA).filter(|&r| r != cut).collect();
    // A seeded Fisher–Yates prefix.
    for k in 0..len {
        let j = k + (derive_seed(seed, k as u64) as usize) % (ids.len() - k);
        ids.swap(k, j);
    }
    ids.truncate(len);
    ids.sort_unstable();
    ids
}

/// The row lists every setting runs over, named.
fn row_lists() -> Vec<(&'static str, Vec<usize>)> {
    let first_cut = drawn(1, 32, 0);
    let mut last_cut = drawn(2, 32, ARENA - 1);
    // Any order: the compacted batch takes the list's order.
    last_cut.reverse();
    last_cut.swap(3, 20);
    let mut non_finite = drawn(3, 28, 17);
    non_finite.extend([3, 11, 38]);
    non_finite.sort_unstable();
    vec![
        ("first slot cut", first_cut),
        ("last slot cut, shuffled", last_cut),
        ("non-finite rows", non_finite),
        ("single survivor", vec![23]),
    ]
}

/// The listed rows copied into a batch of their own, in list order.
fn compacted(batch: &GradientBatch, rows: &[usize]) -> GradientBatch {
    let mut out = GradientBatch::with_capacity(batch.dim(), rows.len());
    for &r in rows {
        out.push_row(batch.row(r)).unwrap();
    }
    out
}

/// Batch positions of the compacted round → arena ids.
fn mapped(rows: &[usize], positions: &[usize]) -> Vec<usize> {
    positions.iter().map(|&k| rows[k]).collect()
}

fn sorted(mut rows: Vec<usize>) -> Vec<usize> {
    rows.sort_unstable();
    rows
}

/// A round's aggregate bits and selection, or its refusal.
type Outcome = Result<(Vec<u32>, Option<Vec<usize>>), AggregationError>;

fn outcome(
    round: Result<GarRound, AggregationError>,
    map: impl Fn(&[usize]) -> Vec<usize>,
) -> Outcome {
    round.map(|r| (bits(&r.aggregate), r.selection.as_deref().map(map)))
}

/// `rule`'s round over `rows` of `batch` against its round over the
/// compacted rows.
fn assert_in_place_matches_compacted(rule: &dyn Gar, batch: &GradientBatch, label: &str) {
    for (list, rows) in row_lists() {
        let compact = compacted(batch, &rows);
        let in_place = outcome(rule.round_over(batch, &rows, None), <[usize]>::to_vec);
        let expected = outcome(rule.round(&compact, None), |sel| mapped(&rows, sel));
        assert_eq!(in_place, expected, "{label}, {list}");
        let selection = rule.selected_rows_over(batch, &rows, None);
        let expected = rule.selected_rows(&compact, None).map(|s| s.map(|s| mapped(&rows, &s)));
        assert_eq!(selection, expected, "{label}, {list}: selection");
    }
}

/// Every kind at f = 1, and Multi-Krum with an explicit m.
fn configs() -> Vec<GarConfig> {
    let mut configs: Vec<GarConfig> =
        GarKind::ALL.iter().map(|&kind| GarConfig::new(kind, 1)).collect();
    configs.push(GarConfig::new(GarKind::MultiKrum, 1).with_selection(3));
    configs
}

#[test]
fn flat_and_sharded_rounds_read_the_listed_rows() {
    let plain = arena();
    for config in configs() {
        let batch =
            if config.kind == GarKind::Majority { replicated(&plain) } else { plain.clone() };
        assert_in_place_matches_compacted(&config, &batch, &format!("{config} flat"));
        for shards in [1, 4] {
            let sharded = ShardedAggregator::new(config, shards).unwrap();
            assert_in_place_matches_compacted(&sharded, &batch, &format!("{config} S={shards}"));
        }
    }
}

/// The replicated rows a majority vote decodes: the arena's rows repeat in
/// blocks of four, so every group of the tree holds agreeing pairs.
fn replicated(batch: &GradientBatch) -> GradientBatch {
    let rows: Vec<Vector> = (0..ARENA).map(|r| batch.row_vector(r - r % 4)).collect();
    GradientBatch::from_vectors(&rows).unwrap()
}

/// A tree round's group stage with members and kept rows as arena ids.
fn group_stage(round: TreeRound, map: impl Fn(&[usize]) -> Vec<usize>) -> Vec<String> {
    let mut lines: Vec<String> = round
        .outputs
        .into_iter()
        .map(|g| {
            format!(
                "{} {:?} {:?} {:?}",
                g.group,
                map(&g.members),
                bits(&g.output),
                g.kept.as_deref().map(&map)
            )
        })
        .collect();
    lines.push(format!("skipped {:?}", round.skipped));
    lines
}

#[test]
fn tree_rounds_read_each_group_where_it_landed() {
    let plain = arena();
    for config in configs() {
        let batch =
            if config.kind == GarKind::Majority { replicated(&plain) } else { plain.clone() };
        let root = GarConfig::new(GarKind::MultiKrum, 0);
        for group_size in [8, 7] {
            let tree_config = TreeConfig { group: config, root, group_size };
            let tree = TreeAggregator::new(tree_config).unwrap();
            let label = format!("{config} groups of {group_size}");
            assert_in_place_matches_compacted(&tree, &batch, &label);
            for (list, rows) in row_lists() {
                let compact = compacted(&batch, &rows);
                let groups: Vec<usize> = (0..rows.len()).map(|k| k / group_size).collect();
                let in_place = tree.group_outputs_over(&batch, &rows, &groups);
                let expected = tree.group_outputs(&compact, &groups);
                let feedback = in_place.as_ref().map(|round| tree.selected_rows_of(round));
                let expected_feedback = expected.as_ref().map(|round| {
                    let feedback = tree.selected_rows_of(round);
                    feedback.map(|s| s.map(|s| sorted(mapped(&rows, &s))))
                });
                assert_eq!(feedback, expected_feedback, "{label}, {list}: root feedback");
                assert_eq!(
                    in_place.map(|r| group_stage(r, <[usize]>::to_vec)),
                    expected.map(|r| group_stage(r, |m| mapped(&rows, m))),
                    "{label}, {list}: group stage"
                );
            }
        }
    }
}
