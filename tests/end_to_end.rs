//! End-to-end integration tests: every gradient aggregation rule trains the
//! proxy experiment to good accuracy in a clean (non-Byzantine) deployment,
//! and the security patch protects the shared model.

use agg_core::{GarConfig, GarKind};
use agg_nn::schedule::LearningRate;
use agg_ps::{ParameterServer, RunnerConfig, SyncTrainingEngine};
use agg_tensor::Vector;

fn clean_config(gar: GarKind, f: usize) -> RunnerConfig {
    RunnerConfig {
        gar: GarConfig::new(gar, f),
        workers: 11,
        max_steps: 80,
        eval_every: 20,
        eval_samples: 256,
        learning_rate: LearningRate::Fixed { rate: 0.01 },
        seed: 33,
        ..RunnerConfig::quick_default()
    }
}

fn train(gar: GarKind, f: usize) -> f64 {
    SyncTrainingEngine::new(clean_config(gar, f))
        .expect("valid configuration")
        .run()
        .expect("run completes")
        .final_accuracy()
}

#[test]
fn average_learns_the_proxy_task() {
    assert!(train(GarKind::Average, 0) > 0.7);
}

#[test]
fn median_learns_the_proxy_task() {
    assert!(train(GarKind::Median, 2) > 0.7);
}

#[test]
fn trimmed_mean_learns_the_proxy_task() {
    assert!(train(GarKind::TrimmedMean, 2) > 0.7);
}

#[test]
fn krum_learns_the_proxy_task() {
    // Krum uses a single gradient per step, so it is noisier; the bar is a
    // bit lower but must still show clear learning over the 10-class chance
    // level of 0.1.
    assert!(train(GarKind::Krum, 2) > 0.5);
}

#[test]
fn multi_krum_learns_the_proxy_task() {
    assert!(train(GarKind::MultiKrum, 2) > 0.7);
}

#[test]
fn bulyan_learns_the_proxy_task() {
    assert!(train(GarKind::Bulyan, 2) > 0.7);
}

#[test]
fn selective_average_learns_the_proxy_task() {
    assert!(train(GarKind::SelectiveAverage, 0) > 0.7);
}

#[test]
fn accuracy_per_update_is_comparable_across_robust_rules() {
    // Figure 3(b)/(d): update-wise, the robust rules track the baseline.
    let baseline = train(GarKind::Average, 0);
    let multi_krum = train(GarKind::MultiKrum, 2);
    let bulyan = train(GarKind::Bulyan, 2);
    assert!((baseline - multi_krum).abs() < 0.2, "avg {baseline} vs mk {multi_krum}");
    assert!((baseline - bulyan).abs() < 0.2, "avg {baseline} vs bulyan {bulyan}");
}

#[test]
fn runs_are_reproducible_for_a_fixed_seed() {
    let a = SyncTrainingEngine::new(clean_config(GarKind::MultiKrum, 2)).unwrap().run().unwrap();
    let b = SyncTrainingEngine::new(clean_config(GarKind::MultiKrum, 2)).unwrap().run().unwrap();
    assert_eq!(a.trace.points().len(), b.trace.points().len());
    for (pa, pb) in a.trace.points().iter().zip(b.trace.points()) {
        assert_eq!(pa.step, pb.step);
        assert!((pa.accuracy - pb.accuracy).abs() < 1e-9);
    }
}

#[test]
fn byzantine_resilience_costs_simulated_time() {
    // The 19%/43% story in miniature: with the paper-CNN cost model the
    // robust rules take longer in simulated time for the same number of
    // steps, and the whole difference is the aggregation the clock counts —
    // the three runs wait for their workers the same, bit for bit.
    use agg_ps::{CostModel, TrainingReport, VirtualModelCost};
    let with_cost = |gar, f| {
        let mut config = clean_config(gar, f);
        config.workers = 19;
        config.max_steps = 20;
        config.cost = CostModel::paper_like().with_virtual_model(VirtualModelCost::paper_cnn());
        SyncTrainingEngine::new(config).unwrap().run().unwrap()
    };
    let avg = with_cost(GarKind::Average, 0);
    let mk = with_cost(GarKind::MultiKrum, 4);
    let bulyan = with_cost(GarKind::Bulyan, 4);
    let (t_avg, t_mk, t_bulyan) =
        (avg.simulated_time_sec, mk.simulated_time_sec, bulyan.simulated_time_sec);
    assert!(t_avg < t_mk, "Multi-Krum ({t_mk:.3}s) should cost more than averaging ({t_avg:.3}s)");
    assert!(
        t_mk < t_bulyan,
        "Bulyan ({t_bulyan:.3}s) should cost more than Multi-Krum ({t_mk:.3}s)"
    );
    let waited = |r: &TrainingReport| r.compute_comm_sec().to_bits();
    assert_eq!(waited(&avg), waited(&mk));
    assert_eq!(waited(&mk), waited(&bulyan));
    // Each gap in simulated time is the gap in counted aggregation time, up
    // to the rounding of the two running sums.
    for (slow, fast) in [(&mk, &avg), (&bulyan, &mk)] {
        let clock_gap = slow.simulated_time_sec - fast.simulated_time_sec;
        let aggregation_gap = slow.aggregation_sec() - fast.aggregation_sec();
        assert!(
            (clock_gap - aggregation_gap).abs() <= 1e-12 * slow.simulated_time_sec,
            "clock gap {clock_gap} vs aggregation gap {aggregation_gap}"
        );
    }
}

#[test]
fn parameter_server_rejects_direct_writes_from_workers() {
    let mut server = ParameterServer::new(
        Vector::zeros(16),
        GarConfig::new(GarKind::MultiKrum, 1),
        agg_nn::optim::OptimizerKind::Sgd,
        LearningRate::paper_default(),
        agg_nn::optim::Regularization::none(),
    )
    .expect("server builds");
    assert!(server.handle_remote_write(0, &Vector::filled(16, 7.0)).is_err());
    assert_eq!(server.parameters(), &Vector::zeros(16));
}
