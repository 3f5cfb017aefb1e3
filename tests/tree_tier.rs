//! The hierarchical (two-level) aggregation tier, end to end.
//!
//! Five contracts:
//!
//! * **Tree == flat where the math composes exactly.** A single-group tree
//!   (g ≥ n) runs the group rule over the whole batch and a degenerate
//!   f = 0 root over one output, so for every coordinate-wise rule the tree
//!   must be *bit-identical* to the flat GAR; multi-group averaging equals
//!   the flat average up to reassociation. Property-tested over arbitrary
//!   batches.
//! * **The tree tier is a pure performance change.** Like the phase-1 and
//!   shard tiers, the grouped stage fans out over rayon but reduces in
//!   ascending group order, so the same `TrainingReport` bits must come out
//!   at thread budgets 1, 2 and 4.
//! * **Composed resilience holds at engine scale.** A mid-scale tree run
//!   (n = 64, Multi-Krum at both levels) trains through the full
//!   group-stage + per-group-link path, and the colluding-group
//!   adversary that concentrates all its workers into the fewest groups is
//!   still rejected at the root under the composed bound.
//! * **The tree changes the asymptotics.** A Multi-Krum round at g = 32
//!   evaluates (n/g)·C(g, 2)·d + C(n/g, 2)·d pair-coordinates, counted from
//!   the `TreeRound` it returns, against the flat rule's C(n, 2)·d: 4.1×
//!   fewer at n = 128, then 8.2×, 16.2× and 32× at n = 256, 512 and 1024.
//! * **Selection feedback is a fold over the round that ran.** The engine
//!   reads the tree tier's feedback from the `TreeRound` it applied; what
//!   that feedback determines (Byzantine-selection count, ledger
//!   transitions and scores, the adaptive adversary's steering) is pinned to
//!   values captured from the engine that re-ran the group stage instead.

mod common;

use agg_attacks::AttackKind;
use agg_core::{GarConfig, GarKind, TreeAggregator, TreeConfig};
use agg_net::{LinkConfig, LossPolicy};
use agg_nn::schedule::LearningRate;
use agg_ps::{
    FaultPlan, ReputationConfig, RunnerConfig, StandingChange, TrainingReport, TransportKind,
};
use agg_tensor::rng::{gaussian_vector, seeded_rng};
use agg_tensor::{GradientBatch, Vector};
use common::assert_deterministic;
use proptest::prelude::*;

fn base_config(tree: TreeConfig, workers: usize) -> RunnerConfig {
    RunnerConfig {
        experiment: agg_ps::ExperimentKind::MlpBlobs {
            input_dim: 16,
            hidden: 24,
            classes: 4,
            samples: 600,
        },
        gar: tree.root,
        tree: Some(tree),
        workers,
        max_steps: 12,
        eval_every: 4,
        eval_samples: 120,
        batch_size: 16,
        learning_rate: LearningRate::Fixed { rate: 0.01 },
        seed: 37,
        ..RunnerConfig::quick_default()
    }
}

#[test]
fn tree_engine_is_deterministic_across_the_parallel_grid() {
    // d = 5380 and n = 40 puts the grouped stage past the rayon work
    // threshold, so budgets 2 and 4 genuinely fan groups out.
    let tree = TreeConfig::uniform(GarKind::Median, 1, 2, 8);
    let mut config = base_config(tree, 40);
    config.experiment =
        agg_ps::ExperimentKind::MlpBlobs { input_dim: 16, hidden: 256, classes: 4, samples: 600 };
    config.max_steps = 8;
    let report = assert_deterministic(&config);
    assert_eq!(report.steps_completed, 8);
    assert!(report.label.contains("tree(g=8)"), "label: {}", report.label);
}

#[test]
fn tree_engine_is_deterministic_under_attack() {
    // The colluding-group adversary exercises the declared-f plumbing
    // (AttackContext sees the composed bound) on top of the grid pin.
    // Multi-Krum's floor is 2f + 3, so f = 1 groups need g ≥ 5 and the
    // f = 1 root needs ≥ 5 groups: 30 workers in groups of 6.
    let tree = TreeConfig::uniform(GarKind::MultiKrum, 1, 1, 6);
    let mut config = base_config(tree, 30);
    config.byzantine_count = 3;
    config.attack = AttackKind::GroupCollusion { scale: 8.0, group_size: 6 };
    let report = assert_deterministic(&config);
    assert_eq!(report.steps_completed, 12);
}

#[test]
fn midscale_tree_round_trains_with_multikrum_at_both_levels() {
    // The engine-scale smoke for the asymptotic claim's correctness half:
    // n = 64 workers in groups of 16 with Multi-Krum at both levels place
    // one aggregator job per group plus a root, and the run learns.
    let tree = TreeConfig::uniform(GarKind::MultiKrum, 6, 0, 16);
    let config = base_config(tree, 64);
    let report = common::run(config);
    assert_eq!(report.steps_completed, 12);
    assert_eq!(report.refused_rounds, 0);
    assert!(report.final_accuracy() > 0.6, "accuracy {}", report.final_accuracy());
}

/// What the tree tier's selection feedback determines in a report: the
/// Byzantine-selection count, the skipped rounds, the ledger's transitions as
/// `(round, worker, quarantined?)`, an FNV-1a fold of the per-worker
/// `final_suspicion` bits, and the bits of the final accuracy and loss.
type FeedbackFingerprint = (u64, u64, Vec<(u64, usize, bool)>, u64, u64, u64);

fn feedback_fingerprint(report: &TrainingReport) -> FeedbackFingerprint {
    let last = report.trace.points().last().expect("the run evaluates at the end");
    let suspicion = report.per_worker().iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, stat| {
        (hash ^ stat.final_suspicion.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let events = report
        .quarantine_events
        .iter()
        .map(|e| (e.round, e.worker, e.change == StandingChange::Quarantined))
        .collect();
    (
        report.byzantine_selected_rounds,
        report.skipped_updates,
        events,
        suspicion,
        last.accuracy.to_bits(),
        last.loss.to_bits(),
    )
}

/// n = 48 in 6 groups of 8, Multi-Krum at both levels (f = 1, so the root
/// needs 5 of the 6 outputs), the last two groups and their root-ward legs
/// on a 10 %-drop wire with no retransmit, seeded churn, and a ledger that
/// reshuffles every third round.
fn feedback_config(attack: AttackKind) -> RunnerConfig {
    let tree = TreeConfig::uniform(GarKind::MultiKrum, 1, 1, 8);
    let mut config = base_config(tree, 48);
    config.max_steps = 30;
    config.eval_every = 10;
    config.byzantine_count = 3;
    config.attack = attack;
    config.reputation = Some(ReputationConfig { reshuffle_every: 3, ..Default::default() });
    config.fault_plan = FaultPlan::seeded_churn(config.seed, 48, 30, 4);
    config.transport = TransportKind::Lossy { policy: LossPolicy::DropGradient };
    config.lossy_links = 16;
    config.link = LinkConfig::datacenter().with_drop_rate(0.10);
    config
}

#[test]
fn tree_feedback_reports_are_pinned_across_the_single_group_stage() {
    // The engine reads the selection feedback from the `TreeRound` it
    // applied. The expected values were captured from the engine that re-ran
    // the group stage (`tree_selected_rows(arena, groups)`) after every
    // applied round: a colluding clique, whose feedback feeds the ledger's
    // exclusion history and the Byzantine-selection count, and an adaptive
    // adversary, which also consumes `previous_selection` and so steers
    // every later round by it. Both runs lose group outputs on the lossy
    // root-ward legs and skip rounds, so the pins also cover the two rules a
    // fold over the applied round must keep: a round that did not apply
    // feeds nothing back (`previous_selection` and the exclusion history
    // stay as the last applied round left them), and a group whose output
    // was lost on the wire is still credited (see `selected_rows_of`).
    let events = vec![
        (5, 47, true),
        (5, 45, true),
        (5, 46, true),
        (17, 45, false),
        (17, 46, false),
        (17, 47, false),
        (21, 47, true),
        (21, 46, true),
        (21, 45, true),
    ];
    let pins: [(AttackKind, FeedbackFingerprint); 2] = [
        (
            AttackKind::GroupCollusion { scale: 8.0, group_size: 8 },
            (
                0,
                2,
                events.clone(),
                0x04fa_43df_80a8_8ed1,
                0x3ff0_0000_0000_0000,
                0x3fd4_ef3f_e000_0000,
            ),
        ),
        (
            AttackKind::Adaptive,
            (4, 2, events, 0xc01a_f752_9300_ec6d, 0x3ff0_0000_0000_0000, 0x3fd4_35cd_e000_0000),
        ),
    ];
    for (attack, expected) in pins {
        let report = assert_deterministic(&feedback_config(attack));
        assert!(report.skipped_updates > 0, "{attack:?}: no round lost its root quorum");
        assert_eq!(feedback_fingerprint(&report), expected, "{attack:?}");
    }
}

#[test]
fn tree_round_evaluates_a_fraction_of_the_flat_pair_coordinates() {
    // The tier's scale claim, counted instead of timed: Multi-Krum at both
    // levels, g = 32, f ≈ n/5 at every level (capped by the 2f + 3 floor).
    // The pair-coordinates the round evaluated are read off the member lists
    // of the `TreeRound` it returned, and held against the flat C(n, 2)·d.
    const G: usize = 32;
    const D: usize = 8;
    let declared_f = |n: usize| (n / 5).min(n.saturating_sub(3) / 2);
    let pairs = |rows: usize| rows * rows.saturating_sub(1) / 2;
    let bits = |v: &Vector| v.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    for (n, min_saving) in [(128, 1.5), (256, 3.0), (512, 3.0), (1024, 3.0)] {
        let groups = n / G;
        let tree = TreeAggregator::new(TreeConfig {
            group: GarConfig::new(GarKind::MultiKrum, declared_f(G)),
            root: GarConfig::new(GarKind::MultiKrum, declared_f(groups)),
            group_size: G,
        })
        .expect("tree");
        let mut rng = seeded_rng(0x7BEE ^ n as u64);
        let rows: Vec<Vector> = (0..n).map(|_| gaussian_vector(&mut rng, D, 0.0, 1.0)).collect();
        let batch = GradientBatch::from_vectors(&rows).expect("batch");
        let assignment: Vec<usize> = (0..n).map(|i| i / G).collect();

        let round = tree.group_outputs(&batch, &assignment).expect("group stage");
        let evaluated = round.outputs.iter().map(|g| pairs(g.members.len()) * D).sum::<usize>()
            + pairs(round.outputs.len()) * D;
        assert_eq!(evaluated, groups * pairs(G) * D + pairs(groups) * D, "n = {n}");
        let flat = pairs(n) * D;
        assert!(
            flat as f64 >= min_saving * evaluated as f64,
            "n = {n}: flat {flat} pair-coordinates vs tree {evaluated}"
        );

        let outputs: Vec<Vector> = round.outputs.into_iter().map(|g| g.output).collect();
        let update = tree.root_aggregate(&outputs).expect("root stage");
        let grouped = tree.aggregate_batch_grouped(&batch, &assignment).expect("grouped round");
        assert_eq!(bits(&update), bits(&grouped), "n = {n}");
    }
}

/// The flat aggregate of `rows` under `kind`/`f`, as raw bits.
fn flat_bits(kind: GarKind, f: usize, rows: &[Vector]) -> Vec<u32> {
    let batch = GradientBatch::from_vectors(rows).expect("batch");
    let gar = GarConfig::new(kind, f).build().expect("rule");
    gar.aggregate_batch(&batch)
        .expect("flat aggregate")
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// The tree aggregate of `rows` under `config` with `groups[i] = i / g`,
/// as raw bits.
fn tree_bits(config: TreeConfig, rows: &[Vector]) -> Vec<u32> {
    let batch = GradientBatch::from_vectors(rows).expect("batch");
    let groups: Vec<usize> = (0..rows.len()).map(|i| i / config.group_size).collect();
    let tree = TreeAggregator::new(config).expect("tree");
    tree.aggregate_batch_grouped(&batch, &groups)
        .expect("tree aggregate")
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A single-group tree (g ≥ n) must be bit-identical to the flat rule
    /// for every coordinate-wise GAR: the group stage aggregates the whole
    /// batch and the f = 0 root is the identity over its one output.
    #[test]
    fn single_group_tree_is_bit_identical_to_flat(
        rows in prop::collection::vec(
            prop::collection::vec(-100.0f32..100.0, 1..48),
            5..25,
        ),
    ) {
        let d = rows[0].len();
        let rows: Vec<Vector> =
            rows.into_iter().map(|mut r| { r.resize(d, 0.5); Vector::from(r) }).collect();
        for (kind, f) in [
            (GarKind::Average, 0),
            (GarKind::Median, 1),
            (GarKind::TrimmedMean, 1),
            (GarKind::MeaMed, 1),
        ] {
            let tree = TreeConfig::uniform(kind, f, 0, 32);
            prop_assert_eq!(
                tree_bits(tree, &rows),
                flat_bits(kind, f, &rows),
                "{} f={} diverged from flat", kind, f
            );
        }
    }

    /// Multi-group averaging composes exactly in real arithmetic when
    /// g | n (equal group sizes make the average of group averages the
    /// global average); in floats only the summation order differs, so the
    /// tree must match flat to reassociation tolerance.
    #[test]
    fn equal_group_average_matches_flat_up_to_reassociation(
        rows in prop::collection::vec(
            prop::collection::vec(-100.0f32..100.0, 1..48),
            4usize..7,
        ),
        group_size in 2usize..6,
    ) {
        let d = rows[0].len();
        // Replicate the generated rows to exactly groups × group_size.
        let n = rows.len() * group_size;
        let rows: Vec<Vector> = (0..n)
            .map(|i| {
                let mut r = rows[i % rows.len()].clone();
                r.resize(d, 0.25);
                r[i % d] += (i / rows.len()) as f32 * 0.125;
                Vector::from(r)
            })
            .collect();
        let tree = TreeConfig::uniform(GarKind::Average, 0, 0, group_size);
        let tree_result = tree_bits(tree, &rows);
        let flat_result = flat_bits(GarKind::Average, 0, &rows);
        for (i, (&t, &f)) in tree_result.iter().zip(&flat_result).enumerate() {
            let (t, f) = (f32::from_bits(t), f32::from_bits(f));
            let tolerance = 1e-4f32.max(f.abs() * 1e-5);
            prop_assert!(
                (t - f).abs() <= tolerance,
                "coordinate {}: tree {} vs flat {}", i, t, f
            );
        }
    }
}
