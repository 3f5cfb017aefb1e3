//! Integration tests comparing Draco with the AggregaThor stack, mirroring
//! the qualitative claims of the paper's §4.2 / §5:
//!
//! * both reach comparable final accuracy without Byzantine workers;
//! * Draco's throughput sits far below the GAR-based systems;
//! * Draco pays `2f + 1`-fold redundancy, so its simulated time per step is
//!   much larger;
//! * Draco requires agreement on the data assignment (groups share batches),
//!   which AggregaThor does not.

use agg_core::{GarConfig, GarKind};
use agg_draco::{
    AssignmentScheme, DracoConfig, DracoThroughputSimulation, DracoTrainer, GroupAssignment,
};
use agg_net::LinkConfig;
use agg_nn::optim::OptimizerKind;
use agg_nn::schedule::LearningRate;
use agg_ps::{
    CostModel, ExperimentKind, RunnerConfig, SyncTrainingEngine, ThroughputSimulation,
    VirtualModelCost,
};

fn experiment() -> ExperimentKind {
    ExperimentKind::MlpBlobs { input_dim: 32, hidden: 48, classes: 10, samples: 2000 }
}

fn draco_config(workers: usize, f: usize) -> DracoConfig {
    DracoConfig {
        batch_size: 25,
        max_steps: 80,
        eval_every: 20,
        eval_samples: 256,
        learning_rate: LearningRate::Fixed { rate: 0.01 },
        optimizer: OptimizerKind::RmsProp,
        cost: CostModel::paper_like().with_virtual_model(VirtualModelCost::paper_cnn()),
        seed: 9,
        ..DracoConfig::paper_like(experiment(), workers, f)
    }
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

#[test]
fn both_systems_reach_comparable_final_accuracy() {
    let draco = DracoTrainer::new(draco_config(19, 4)).unwrap().run().unwrap();
    let aggregathor = SyncTrainingEngine::new(aggregathor_config(GarKind::MultiKrum, 4, 19))
        .unwrap()
        .run()
        .unwrap();
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
    // the linear-in-n·d decode make Draco's rounds much longer than the
    // TensorFlow baseline's.
    let draco = DracoTrainer::new(draco_config(19, 4)).unwrap().run().unwrap();
    let baseline = SyncTrainingEngine::new(aggregathor_config(GarKind::Average, 0, 19))
        .unwrap()
        .run()
        .unwrap();
    assert!(
        draco.simulated_time_sec > 1.5 * baseline.simulated_time_sec,
        "draco {:.1}s vs baseline {:.1}s",
        draco.simulated_time_sec,
        baseline.simulated_time_sec
    );
}

#[test]
fn draco_throughput_is_an_order_of_magnitude_below_averaging() {
    let cost = CostModel::paper_like().with_virtual_model(VirtualModelCost::paper_cnn());
    let averaging = ThroughputSimulation {
        workers: 18,
        gar: GarConfig::new(GarKind::Average, 0),
        batch_size: 100,
        cost,
        link: LinkConfig::datacenter(),
        proxy_dimension: 50_000,
    }
    .run()
    .unwrap()
    .batches_per_sec;
    let draco = DracoThroughputSimulation {
        workers: 18,
        f: 4,
        scheme: AssignmentScheme::Repetition,
        batch_size: 100,
        cost,
        link: LinkConfig::datacenter(),
        dimension: 1_756_426,
        encode_overhead_factor: 2.0,
        decode_sec_per_worker_million_params: 0.03,
    }
    .run()
    .unwrap();
    assert!(
        averaging > 8.0 * draco,
        "averaging {averaging:.2} batches/s should dwarf Draco {draco:.2} batches/s"
    );
}

#[test]
fn draco_tolerates_exactly_f_byzantine_per_group_and_no_more() {
    // Within the code's tolerance Draco recovers the honest gradient exactly…
    let mut within = draco_config(9, 1);
    within.byzantine_count = 1;
    let report = DracoTrainer::new(within).unwrap().run().unwrap();
    assert!(report.final_accuracy() > 0.65, "accuracy {}", report.final_accuracy());
    assert_eq!(report.skipped_updates, 0);

    // …but colluding traitors outnumbering the group majority defeat it.
    let mut beyond = draco_config(9, 1);
    beyond.byzantine_count = 2;
    let report = DracoTrainer::new(beyond).unwrap().run().unwrap();
    assert!(report.final_accuracy() < 0.65, "accuracy {}", report.final_accuracy());
}

#[test]
fn draco_requires_grouped_data_assignment_unlike_aggregathor() {
    // The structural difference the paper's related-work section stresses:
    // Draco's correctness depends on workers sharing mini-batches (group
    // assignment), whereas every AggregaThor worker samples independently.
    let assignment = GroupAssignment::new(AssignmentScheme::Repetition, 9, 1).unwrap();
    assert_eq!(assignment.redundancy(), 3);
    for g in 0..assignment.group_count() {
        assert_eq!(assignment.group(g).unwrap().len(), 3);
    }
    // AggregaThor's engine imposes no such grouping: every worker has its own
    // independent sampler stream (checked indirectly by the reproducibility
    // and convergence tests in end_to_end.rs).
}
