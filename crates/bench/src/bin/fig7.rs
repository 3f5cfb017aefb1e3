//! Figure 7 — impact of malformed input (corrupted data) on convergence.
//!
//! One worker trains on corrupted records. The paper shows vanilla
//! TensorFlow diverges ("TensorFlow is intolerant" to this mild Byzantine
//! behaviour) while AggregaThor with f = 1 converges like the ideal,
//! non-Byzantine TensorFlow run.

use agg_bench::{format_time, run_gar};
use agg_core::GarKind;
use agg_data::corruption::Corruption;
use agg_metrics::Table;
use agg_ps::TrainingReport;

fn run(kind: GarKind, f: usize, poisoned_workers: usize, steps: u64) -> TrainingReport {
    run_gar(kind, f, 50, steps, None, |config| {
        config.byzantine_count = poisoned_workers;
        if poisoned_workers > 0 {
            config.data_poisoning = Some(Corruption::HugeValues);
        }
    })
}

fn main() {
    let steps = 150;
    let ideal = run(GarKind::Average, 0, 0, steps);
    let tf_poisoned = run(GarKind::Average, 0, 1, steps);
    let aggregathor = run(GarKind::MultiKrum, 1, 1, steps);

    let target = 0.5 * ideal.final_accuracy();
    let mut table = Table::new(
        "Figure 7: one worker trains on malformed records (mini-batch 50)",
        &["system", "final accuracy", "best accuracy", "time to 50% of ideal (s)"],
    );
    for (name, report) in [
        ("TF (non-Byzantine ideal)", &ideal),
        ("TF with 1 corrupted worker", &tf_poisoned),
        ("AggregaThor Multi-Krum (f=1)", &aggregathor),
    ] {
        table.add_row(&[
            name.to_string(),
            format!("{:.3}", report.final_accuracy()),
            format!("{:.3}", report.best_accuracy()),
            format_time(report.time_to_accuracy(target)),
        ]);
    }
    println!("{table}");
    println!(
        "expected shape: the ideal TF run and AggregaThor (f=1) converge to comparable accuracy; \
         TF with a single corrupted worker degrades or diverges (the paper observes divergence)."
    );
}
