//! Integration tests for training over the lossy transport (the Figure 8
//! experiments): convergence must survive packet loss when a robust GAR (or
//! selective averaging) absorbs it, and the lossy transport must be far
//! cheaper than TCP under loss.

use agg_core::{GarConfig, GarKind};
use agg_net::{LinkConfig, LossPolicy};
use agg_nn::schedule::LearningRate;
use agg_ps::{
    CostModel, RunnerConfig, SyncTrainingEngine, TrainingReport, TransportKind, VirtualModelCost,
};

fn lossy_config(
    gar: GarKind,
    f: usize,
    policy: LossPolicy,
    drop_rate: f64,
    lossy_links: usize,
) -> RunnerConfig {
    RunnerConfig {
        gar: GarConfig::new(gar, f),
        workers: 19,
        transport: TransportKind::Lossy { policy },
        lossy_links,
        link: LinkConfig::datacenter().with_drop_rate(drop_rate),
        max_steps: 80,
        eval_every: 20,
        eval_samples: 256,
        learning_rate: LearningRate::Fixed { rate: 0.01 },
        seed: 17,
        ..RunnerConfig::quick_default()
    }
}

fn run(config: RunnerConfig) -> TrainingReport {
    SyncTrainingEngine::new(config).expect("valid").run().expect("runs")
}

#[test]
fn robust_gar_over_lossy_links_converges_without_added_loss() {
    let report = run(lossy_config(GarKind::MultiKrum, 8, LossPolicy::RandomFill, 0.0, 8));
    assert!(report.final_accuracy() > 0.7, "accuracy {}", report.final_accuracy());
    assert_eq!(report.skipped_updates, 0);
}

#[test]
fn robust_gar_over_lossy_links_converges_under_ten_percent_loss() {
    let report = run(lossy_config(GarKind::MultiKrum, 8, LossPolicy::RandomFill, 0.10, 8));
    assert!(report.final_accuracy() > 0.7, "accuracy {}", report.final_accuracy());
}

#[test]
fn selective_averaging_tolerates_loss() {
    let report = run(lossy_config(GarKind::SelectiveAverage, 0, LossPolicy::SelectiveNan, 0.10, 8));
    assert!(report.final_accuracy() > 0.7, "accuracy {}", report.final_accuracy());
}

#[test]
fn drop_gradient_policy_still_converges_by_discarding_incomplete_gradients() {
    // "The most straightforward solution": whole gradients are dropped when
    // any packet is missing; the remaining complete gradients still drive
    // convergence at this loss level.
    let report = run(lossy_config(GarKind::Average, 0, LossPolicy::DropGradient, 0.05, 8));
    assert!(report.final_accuracy() > 0.6, "accuracy {}", report.final_accuracy());
}

#[test]
fn plain_averaging_over_lossy_links_is_hurt_by_loss() {
    // Without selective handling or a robust GAR, NaN-filled gradients poison
    // the average (the paper observes divergence for TF over lossyMPI).
    let report = run(lossy_config(GarKind::Average, 0, LossPolicy::SelectiveNan, 0.10, 8));
    let robust = run(lossy_config(GarKind::MultiKrum, 8, LossPolicy::RandomFill, 0.10, 8));
    assert!(
        report.final_accuracy() < robust.final_accuracy() - 0.1 || report.skipped_updates > 0,
        "averaging ({}, {} skipped) should do clearly worse than the robust stack ({})",
        report.final_accuracy(),
        report.skipped_updates,
        robust.final_accuracy()
    );
}

#[test]
fn lossy_transport_is_much_faster_than_tcp_under_loss() {
    // Same number of steps, same (averaging) aggregation rule, 10% drop rate,
    // paper-CNN cost model: the reliable transport's congestion collapse under
    // loss makes its rounds far slower than the lossy transport's. The full
    // AggregaThor-vs-TF end-to-end comparison (which also includes the robust
    // GAR's own cost) is produced by the `fig8` experiment binary and recorded
    // in EXPERIMENTS.md; this test pins down the transport-level mechanism.
    let cost = CostModel::paper_like().with_virtual_model(VirtualModelCost::paper_cnn());

    let mut tcp = lossy_config(GarKind::Average, 0, LossPolicy::RandomFill, 0.10, 19);
    tcp.transport = TransportKind::Reliable;
    tcp.cost = cost;
    tcp.max_steps = 10;
    let tcp_report = run(tcp);

    let mut udp = lossy_config(GarKind::SelectiveAverage, 0, LossPolicy::SelectiveNan, 0.10, 19);
    udp.cost = cost;
    udp.max_steps = 10;
    let udp_report = run(udp);

    // Compare the compute + communication component only: it is derived
    // purely from the cost model and link simulation, hence deterministic.
    // Total simulated time also contains the aggregation term, which the
    // engine calibrates from real wall-clock timings when a virtual model is
    // set — a fixed ratio over it would be flaky across machines and loads.
    let tcp_comm = tcp_report.compute_comm_sec();
    let udp_comm = udp_report.compute_comm_sec();
    assert!(
        tcp_comm > 2.0 * udp_comm,
        "TCP under loss ({tcp_comm:.1}s) should be several times slower than \
         lossyMPI ({udp_comm:.1}s)"
    );
}
