//! # agg-bench — experiment harness
//!
//! Shared configuration builders for the experiment binaries that reproduce
//! every table and figure of the paper's evaluation section. One binary per
//! artefact:
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `table1` | Table 1 — CNN model parameters |
//! | `fig3` | Figure 3 — overhead in a non-Byzantine environment |
//! | `fig4` | Figure 4 — latency breakdown |
//! | `fig5` | Figure 5 — throughput vs number of workers (CNN and ResNet50) |
//! | `fig6` | Figure 6 — impact of `f` on convergence |
//! | `fig7` | Figure 7 — impact of malformed input on convergence |
//! | `fig8` | Figure 8 — impact of dropped packets on convergence |
//! | `attack_strong` | §4.3 — dimensional-leeway attack: weak vs strong resilience |
//!
//! Run any of them with `cargo run --release -p agg-bench --bin <name>`.
//! Criterion micro-benchmarks of the GAR kernels (the §4.2 cost analysis)
//! live under `benches/`.

use agg_core::{GarConfig, GarKind, TreeConfig};
use agg_nn::optim::OptimizerKind;
use agg_nn::schedule::LearningRate;
use agg_ps::{
    CostModel, ExperimentKind, RunnerConfig, SyncTrainingEngine, TrainingReport, VirtualModelCost,
};

/// The proxy experiment used by every convergence figure: a 32-feature,
/// 10-class Gaussian-blob task learned by a one-hidden-layer MLP. Small
/// enough that a full sweep runs in seconds, statistically rich enough that
/// every comparative behaviour of the paper shows up.
pub fn proxy_experiment() -> ExperimentKind {
    ExperimentKind::MlpBlobs { input_dim: 32, hidden: 64, classes: 10, samples: 4000 }
}

/// Baseline runner configuration shared by the figure experiments: 19
/// workers (the paper's deployment), RMSProp, fixed learning rate, and a cost
/// model that charges time as if the model were the paper's 1.75 M-parameter
/// CNN (see the `agg_ps::cost` module docs).
pub fn paper_runner(gar: GarKind, f: usize, batch_size: usize, max_steps: u64) -> RunnerConfig {
    RunnerConfig {
        experiment: proxy_experiment(),
        gar: GarConfig::new(gar, f),
        workers: 19,
        batch_size,
        max_steps,
        eval_every: (max_steps / 20).max(1),
        eval_samples: 512,
        optimizer: OptimizerKind::RmsProp,
        learning_rate: LearningRate::Fixed { rate: 5e-3 },
        cost: CostModel::paper_like().with_virtual_model(VirtualModelCost::paper_cnn()),
        seed: 42,
        ..RunnerConfig::quick_default()
    }
}

/// Trains one system of a figure: [`paper_runner`]`(kind, f, batch_size,
/// max_steps)`, over `tree` when given (whose root must then be `kind` with
/// `f`; [`TreeConfig::repetition`] is Draco), with `adjust` applied last.
///
/// # Panics
///
/// Panics when the configuration is invalid or the run fails: the figure
/// binaries run fixed, known-good configurations.
pub fn run_gar(
    kind: GarKind,
    f: usize,
    batch_size: usize,
    max_steps: u64,
    tree: Option<TreeConfig>,
    adjust: impl FnOnce(&mut RunnerConfig),
) -> TrainingReport {
    let mut config = RunnerConfig { tree, ..paper_runner(kind, f, batch_size, max_steps) };
    adjust(&mut config);
    SyncTrainingEngine::new(config).expect("valid configuration").run().expect("run completes")
}

/// Formats an optional time-to-accuracy as a table cell.
pub fn format_time(value: Option<f64>) -> String {
    match value {
        Some(t) => format!("{t:.1}"),
        None => "never".to_string(),
    }
}

/// Relative overhead of `time` versus `baseline` as a percentage string
/// ("+19.0%"), or "n/a" when either side is missing.
pub fn format_overhead(time: Option<f64>, baseline: Option<f64>) -> String {
    match (time, baseline) {
        (Some(t), Some(b)) if b > 0.0 => format!("{:+.1}%", 100.0 * (t - b) / b),
        _ => "n/a".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_runner_is_valid_for_every_gar() {
        for (kind, f) in [
            (GarKind::Average, 0),
            (GarKind::Median, 4),
            (GarKind::MultiKrum, 4),
            (GarKind::Bulyan, 4),
        ] {
            let config = paper_runner(kind, f, 25, 10);
            assert!(config.validate().is_ok(), "{kind:?} config invalid");
            assert_eq!(config.workers, 19);
        }
        let draco = TreeConfig::repetition(4);
        let config =
            RunnerConfig { tree: Some(draco), ..paper_runner(GarKind::Average, 0, 25, 10) };
        assert!(config.validate().is_ok(), "Draco's repetition tree over the paper runner");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(format_time(Some(12.34)), "12.3");
        assert_eq!(format_time(None), "never");
        assert_eq!(format_overhead(Some(119.0), Some(100.0)), "+19.0%");
        assert_eq!(format_overhead(None, Some(1.0)), "n/a");
        assert_eq!(format_overhead(Some(1.0), None), "n/a");
    }
}
