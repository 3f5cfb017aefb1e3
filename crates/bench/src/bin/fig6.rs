//! Figure 6 — impact of the declared `f` on convergence (non-Byzantine
//! environment).
//!
//! The paper observes a trade-off between update throughput and update
//! quality: increasing `f` makes Multi-Krum slightly *slower* to converge
//! (it averages fewer gradients, so each update is noisier) while Bulyan
//! becomes slightly *faster* (its throughput gain outweighs the extra
//! noise); the effect shrinks for small mini-batches.

use agg_bench::{format_time, run_gar};
use agg_core::{GarKind, TreeConfig};
use agg_metrics::Table;
use agg_ps::TrainingReport;

fn regime(batch: usize, steps: u64) {
    let gar = |kind, f| run_gar(kind, f, batch, steps, None, |_| {});
    let draco =
        |f| run_gar(GarKind::Average, 0, batch, steps, Some(TreeConfig::repetition(f)), |_| {});
    let runs: Vec<(&str, TrainingReport)> = vec![
        ("Multi-Krum f=1", gar(GarKind::MultiKrum, 1)),
        ("Multi-Krum f=4", gar(GarKind::MultiKrum, 4)),
        ("Bulyan f=1", gar(GarKind::Bulyan, 1)),
        ("Bulyan f=4", gar(GarKind::Bulyan, 4)),
        ("Draco f=1", draco(1)),
        ("Draco f=4", draco(4)),
    ];
    let target = 0.5 * runs.iter().map(|(_, r)| r.final_accuracy()).fold(0.0, f64::max);
    let mut table = Table::new(
        format!("Figure 6: impact of f on convergence, b = {batch}"),
        &["system", "time to 50% of best accuracy (s)", "final accuracy", "throughput (batches/s)"],
    );
    for (name, report) in &runs {
        table.add_row(&[
            name.to_string(),
            format_time(report.time_to_accuracy(target)),
            format!("{:.3}", report.final_accuracy()),
            format!("{:.2}", report.batches_per_sec()),
        ]);
    }
    println!("{table}");
}

fn main() {
    println!("--- large mini-batch regime (b = 250) ---");
    regime(250, 150);
    println!(
        "expected shape: Multi-Krum slightly slower with f=4 than f=1, Bulyan slightly faster \
         with f=4 than f=1 (throughput compensates the extra noise); Draco far slower overall.\n"
    );
    println!("--- small mini-batch regime (b = 20) ---");
    regime(20, 300);
    println!("expected shape: same ordering, smaller impact of f.");
}
