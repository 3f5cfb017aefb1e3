//! Quickstart: train a model with Byzantine-resilient aggregation in a few
//! lines.
//!
//! This example mirrors the "Local deployment" smoke test of the original
//! AggregaThor artifact: build a runner configuration, pick a gradient
//! aggregation rule, run a short synchronous training session, and print the
//! resulting accuracy trace.
//!
//! ```text
//! cargo run --release -p agg-apps --example quickstart
//! ```

use agg_core::{GarConfig, GarKind};
use agg_ps::{RunnerConfig, SyncTrainingEngine, VirtualModelCost};

fn main() {
    // The paper's Table 1 CNN, whose size the simulated clock charges (the
    // run below trains a small MLP).
    let cnn = VirtualModelCost::paper_cnn();
    println!(
        "Table 1 CNN: {} parameters ({:.2}M, paper reports ~1.75M)\n",
        cnn.dimension,
        cnn.dimension as f64 / 1e6
    );

    // A quick distributed run: 11 workers, 1 of them Byzantine would need an
    // attack configured; here we train clean with Multi-Krum (f = 2).
    let config = RunnerConfig {
        gar: GarConfig::new(GarKind::MultiKrum, 2),
        workers: 11,
        max_steps: 120,
        eval_every: 20,
        learning_rate: agg_nn::schedule::LearningRate::Fixed { rate: 0.01 },
        ..RunnerConfig::quick_default()
    };
    println!(
        "training: {} workers, GAR = {}, batch = {}, {} steps",
        config.workers, config.gar, config.batch_size, config.max_steps
    );

    let mut engine = SyncTrainingEngine::new(config).expect("configuration is valid");
    let report = engine.run().expect("training completes");

    println!("\naccuracy trace (step, simulated seconds, test accuracy):");
    for point in report.trace.points() {
        println!(
            "  step {:4}  t = {:7.2}s  accuracy = {:.3}",
            point.step, point.time_sec, point.accuracy
        );
    }
    println!("\n{}", report.summary());
}
