//! A flat run seated exactly at its rule's resilience floor applies every
//! round: Bulyan at n = 4f + 3 (`gar19_bulyan`'s shape at a small d) and
//! Multi-Krum at n = 2f + 3, seeds 1–5, at thread budgets 1 and 2. With no
//! seat to spare, one lost row or a floor check one seat too high skips a
//! round, and the runs must also agree bit for bit across the budgets.

mod common;

use agg_core::{resilience, GarConfig, GarKind};
use agg_ps::{ExperimentKind, RoundVerdict, RunnerConfig};

const ROUNDS: u64 = 12;

fn at_floor(kind: GarKind, f: usize, workers: usize, seed: u64) -> RunnerConfig {
    RunnerConfig {
        experiment: ExperimentKind::MlpBlobs {
            input_dim: 16,
            hidden: 24,
            classes: 10,
            samples: 400,
        },
        gar: GarConfig::new(kind, f),
        workers,
        max_steps: ROUNDS,
        eval_every: ROUNDS,
        batch_size: 2,
        seed,
        ..RunnerConfig::quick_default()
    }
}

#[test]
fn a_flat_run_at_its_floor_applies_every_round() {
    for (kind, f, workers) in [(GarKind::Bulyan, 4, 19), (GarKind::MultiKrum, 4, 11)] {
        assert_eq!(resilience::resilience_floor(kind, f), workers, "{kind} f={f}");
        for seed in 1..=5 {
            let config = at_floor(kind, f, workers, seed);
            for report in common::reports_at_budgets(&config, &[1, 2]) {
                assert_eq!(report.rounds.len() as u64, ROUNDS, "{kind} seed {seed}");
                for record in &report.rounds {
                    assert_eq!(
                        record.verdict,
                        RoundVerdict::Applied,
                        "{kind} f={f} n={workers} seed {seed}: round {}",
                        record.step
                    );
                }
            }
        }
    }
}
