//! Figure 3 — overhead of AggregaThor in a non-Byzantine environment.
//!
//! The paper trains its CNN on CIFAR-10 with 19 workers and compares vanilla
//! TensorFlow averaging against AggregaThor's Average, Median, Multi-Krum
//! (f=4) and Bulyan (f=4), plus Draco, for two mini-batch sizes. The headline
//! numbers: Multi-Krum is ≈19 % slower and Bulyan ≈43 % slower than the
//! baseline to reach 50 % of the final accuracy, while accuracy per model
//! update is unchanged.
//!
//! This reproduction trains the proxy model (see the `agg_data` crate docs for
//! why a synthetic task stands in for CIFAR-10) with the same
//! worker count, GARs and declared `f`, charging simulated time as if the
//! model were the paper CNN, and prints the same comparisons.

use agg_bench::{format_overhead, format_time, paper_runner, proxy_experiment};
use agg_core::GarKind;
use agg_draco::{DracoConfig, DracoTrainer};
use agg_metrics::Table;
use agg_nn::optim::OptimizerKind;
use agg_nn::schedule::LearningRate;
use agg_ps::{CostModel, SyncTrainingEngine, TrainingReport, VirtualModelCost};

fn run_gar(kind: GarKind, f: usize, batch: usize, steps: u64) -> TrainingReport {
    let config = paper_runner(kind, f, batch, steps);
    SyncTrainingEngine::new(config)
        .expect("configuration is valid")
        .run()
        .expect("training run completes")
}

fn run_draco(f: usize, batch: usize, steps: u64) -> TrainingReport {
    let config = DracoConfig {
        batch_size: batch,
        max_steps: steps,
        eval_every: (steps / 20).max(1),
        eval_samples: 512,
        learning_rate: LearningRate::Fixed { rate: 5e-3 },
        optimizer: OptimizerKind::RmsProp,
        cost: CostModel::paper_like().with_virtual_model(VirtualModelCost::paper_cnn()),
        seed: 42,
        ..DracoConfig::paper_like(proxy_experiment(), 19, f)
    };
    DracoTrainer::new(config).expect("valid Draco config").run().expect("Draco run completes")
}

fn report_batch_regime(batch: usize, steps: u64) {
    println!("\n--- mini-batch size = {batch} (paper: 250 / 20) ---");
    let baseline = run_gar(GarKind::Average, 0, batch, steps);
    let runs: Vec<(&str, TrainingReport)> = vec![
        ("TF (baseline averaging)", baseline.clone()),
        ("Average (AggregaThor)", run_gar(GarKind::Average, 0, batch, steps)),
        ("Median", run_gar(GarKind::Median, 4, batch, steps)),
        ("Multi-Krum (f=4)", run_gar(GarKind::MultiKrum, 4, batch, steps)),
        ("Bulyan (f=4)", run_gar(GarKind::Bulyan, 4, batch, steps)),
        ("Draco (f=4)", run_draco(4, batch, steps)),
    ];

    // The paper's statistic: time to reach 50 % of the baseline's final
    // accuracy.
    let target = 0.5 * baseline.final_accuracy();
    let baseline_time = baseline.time_to_accuracy(target);

    let mut table = Table::new(
        format!("Figure 3 (accuracy vs time), b = {batch}: time to 50% of baseline final accuracy"),
        &["system", "time-to-target (s)", "overhead vs TF", "final accuracy", "steps"],
    );
    for (name, report) in &runs {
        table.add_row(&[
            name.to_string(),
            format_time(report.time_to_accuracy(target)),
            format_overhead(report.time_to_accuracy(target), baseline_time),
            format!("{:.3}", report.final_accuracy()),
            report.steps_completed.to_string(),
        ]);
    }
    println!("{table}");

    let mut updates = Table::new(
        format!("Figure 3 (accuracy vs model updates), b = {batch}"),
        &["system", "steps to 50% target", "final accuracy"],
    );
    for (name, report) in &runs {
        let steps_to = report.trace.steps_to_accuracy(target);
        updates.add_row(&[
            name.to_string(),
            steps_to.map(|s| s.to_string()).unwrap_or_else(|| "never".into()),
            format!("{:.3}", report.final_accuracy()),
        ]);
    }
    println!("{updates}");
    println!(
        "paper reference: Multi-Krum ≈ +19% and Bulyan ≈ +43% time overhead vs TF; \
         all systems reach comparable accuracy per model update."
    );
}

fn main() {
    // The paper's two mini-batch regimes: 250 and 20.
    report_batch_regime(250, 150);
    report_batch_regime(20, 300);
}
