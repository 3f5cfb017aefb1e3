//! Integration tests comparing Draco with the AggregaThor stack, mirroring
//! the qualitative claims of the paper's §4.2 / §5:
//!
//! * both reach comparable final accuracy without Byzantine workers;
//! * Draco's throughput sits far below the GAR-based systems;
//! * Draco pays `2f + 1`-fold redundancy, so its simulated time per step is
//!   much larger;
//! * Draco requires agreement on the data assignment (groups share batches),
//!   which AggregaThor does not.
//!
//! Both sides run on the one engine and are charged by the one clock: Draco
//! is a repetition tree ([`TreeConfig::repetition`]) whose groups of
//! `2f + 1` vote by majority and whose root averages.

use agg_attacks::AttackKind;
use agg_core::{GarConfig, GarKind, TreeConfig};
use agg_net::LinkConfig;
use agg_nn::schedule::LearningRate;
use agg_ps::{
    CostModel, ExperimentKind, RoundVerdict, RunnerConfig, SyncTrainingEngine,
    ThroughputSimulation, TrainingReport, VirtualModelCost,
};

fn experiment() -> ExperimentKind {
    ExperimentKind::MlpBlobs { input_dim: 32, hidden: 48, classes: 10, samples: 2000 }
}

fn aggregathor_config(gar: GarKind, f: usize, workers: usize) -> RunnerConfig {
    RunnerConfig {
        experiment: experiment(),
        gar: GarConfig::new(gar, f),
        workers,
        batch_size: 25,
        max_steps: 80,
        eval_every: 20,
        eval_samples: 256,
        learning_rate: LearningRate::Fixed { rate: 0.01 },
        cost: CostModel::paper_like().with_virtual_model(VirtualModelCost::paper_cnn()),
        seed: 9,
        ..RunnerConfig::quick_default()
    }
}

/// Draco with `f` over `workers`, against the reversed-gradient adversary
/// of the paper's comparison.
fn draco_config(workers: usize, f: usize) -> RunnerConfig {
    let tree = TreeConfig::repetition(f);
    RunnerConfig {
        tree: Some(tree),
        attack: AttackKind::Reversed { scale: 100.0 },
        ..aggregathor_config(tree.root.kind, tree.root.f, workers)
    }
}

fn run(config: RunnerConfig) -> TrainingReport {
    SyncTrainingEngine::new(config).unwrap().run().unwrap()
}

#[test]
fn both_systems_reach_comparable_final_accuracy() {
    let draco = run(draco_config(19, 4));
    let aggregathor = run(aggregathor_config(GarKind::MultiKrum, 4, 19));
    assert!(draco.final_accuracy() > 0.65, "draco accuracy {}", draco.final_accuracy());
    assert!(
        aggregathor.final_accuracy() > 0.65,
        "aggregathor accuracy {}",
        aggregathor.final_accuracy()
    );
}

#[test]
fn draco_is_slower_in_simulated_time_than_the_baseline_for_the_same_number_of_steps() {
    // The redundancy (2f + 1 gradients' worth of work per useful batch) plus
    // the decode make Draco's rounds much longer than the TensorFlow
    // baseline's.
    let draco = run(draco_config(19, 4));
    let baseline = run(aggregathor_config(GarKind::Average, 0, 19));
    assert!(
        draco.simulated_time_sec > 1.5 * baseline.simulated_time_sec,
        "draco {:.1}s vs baseline {:.1}s",
        draco.simulated_time_sec,
        baseline.simulated_time_sec
    );
}

#[test]
fn draco_throughput_is_an_order_of_magnitude_below_averaging() {
    let averaging = ThroughputSimulation {
        workers: 18,
        gar: GarConfig::new(GarKind::Average, 0),
        tree: None,
        batch_size: 100,
        cost: CostModel::paper_like().with_virtual_model(VirtualModelCost::paper_cnn()),
        link: LinkConfig::datacenter(),
        proxy_dimension: 50_000,
    };
    let tree = TreeConfig::repetition(4);
    let draco = ThroughputSimulation { gar: tree.root, tree: Some(tree), ..averaging.clone() };
    let averaging = averaging.run().unwrap().batches_per_sec;
    let draco = draco.run().unwrap().batches_per_sec;
    assert!(
        averaging > 8.0 * draco,
        "averaging {averaging:.2} batches/s should dwarf Draco {draco:.2} batches/s"
    );
}

#[test]
fn draco_throughput_counts_each_group_batch_once() {
    // n = 9, f = 1: three groups of three replicas. With no fault every slot
    // submits, but each group's three copies are one mini-batch.
    let report = run(RunnerConfig { max_steps: 10, ..draco_config(9, 1) });
    assert_eq!(report.charged_rounds(), 10);
    assert_eq!(report.batches_received(), 3 * report.charged_rounds());
}

#[test]
fn draco_tolerates_exactly_f_byzantine_per_group_and_no_more() {
    // Within the code's tolerance Draco recovers the honest gradient exactly…
    let mut within = draco_config(9, 1);
    within.byzantine_count = 1;
    let report = run(within);
    assert!(report.final_accuracy() > 0.65, "accuracy {}", report.final_accuracy());
    assert_eq!(report.skipped_updates, 0);

    // …but colluding traitors outnumbering the group majority defeat it.
    let mut beyond = draco_config(9, 1);
    beyond.byzantine_count = 2;
    let report = run(beyond);
    assert!(report.final_accuracy() < 0.65, "accuracy {}", report.final_accuracy());
}

#[test]
fn draco_requires_grouped_data_assignment_unlike_aggregathor() {
    // The structural difference the paper's related-work section stresses:
    // Draco's correctness depends on the members of a group sharing their
    // mini-batch. With no Byzantine worker every group of a repetition tree
    // decodes in every round, which can only happen when its members' rows
    // are bit-equal. Every AggregaThor worker samples its own stream.
    let report = run(RunnerConfig { max_steps: 20, ..draco_config(9, 1) });
    assert_eq!(report.rounds.len(), 20);
    assert!(report.rounds.iter().all(|r| r.verdict == RoundVerdict::Applied));
    assert_eq!(report.steps_completed, 20);
}

#[test]
fn flat_majority_run_equals_a_one_group_repetition_tree() {
    // 2f + 1 workers are one repetition group: the flat vote and the tree
    // (vote, then the root's average over its one output) apply the same
    // updates. Only the clock differs, by the tree's group → root leg.
    let f = 2;
    let flat =
        RunnerConfig { max_steps: 30, ..aggregathor_config(GarKind::Majority, f, 2 * f + 1) };
    let tree = RunnerConfig { max_steps: 30, ..draco_config(2 * f + 1, f) };
    let mut flat_engine = SyncTrainingEngine::new(flat).unwrap();
    let mut tree_engine = SyncTrainingEngine::new(tree).unwrap();
    let (flat_report, tree_report) = (flat_engine.run().unwrap(), tree_engine.run().unwrap());
    let bits = |engine: &SyncTrainingEngine| -> Vec<u32> {
        engine.parameters().as_slice().iter().map(|x| x.to_bits()).collect()
    };
    assert_eq!(bits(&flat_engine), bits(&tree_engine));
    let verdicts = |report: &TrainingReport| -> Vec<RoundVerdict> {
        report.rounds.iter().map(|r| r.verdict).collect()
    };
    assert_eq!(verdicts(&flat_report), vec![RoundVerdict::Applied; 30]);
    assert_eq!(verdicts(&flat_report), verdicts(&tree_report));
    assert!(tree_report.simulated_time_sec > flat_report.simulated_time_sec);
}
