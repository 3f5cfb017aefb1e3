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
//! model were the paper CNN, and prints the same comparisons. Draco runs on
//! the same engine and clock, as a repetition tree.

use agg_bench::{format_overhead, format_time, run_gar};
use agg_core::{GarKind, TreeConfig};
use agg_metrics::Table;
use agg_ps::TrainingReport;

fn report_batch_regime(batch: usize, steps: u64) {
    println!("\n--- mini-batch size = {batch} (paper: 250 / 20) ---");
    let gar = |kind, f| run_gar(kind, f, batch, steps, None, |_| {});
    let draco =
        |f| run_gar(GarKind::Average, 0, batch, steps, Some(TreeConfig::repetition(f)), |_| {});
    let baseline = gar(GarKind::Average, 0);
    let runs: Vec<(&str, TrainingReport)> = vec![
        ("TF (baseline averaging)", baseline.clone()),
        ("Average (AggregaThor)", gar(GarKind::Average, 0)),
        ("Median", gar(GarKind::Median, 4)),
        ("Multi-Krum (f=4)", gar(GarKind::MultiKrum, 4)),
        ("Bulyan (f=4)", gar(GarKind::Bulyan, 4)),
        ("Draco (f=4)", draco(4)),
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
