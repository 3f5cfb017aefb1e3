//! Figure 4 — latency breakdown per epoch.
//!
//! The paper decomposes the average per-round latency into
//! "computation + communication" and "aggregation", reporting that
//! aggregation accounts for ≈35 % of the round for Median, ≈27 % for
//! Multi-Krum and ≈52 % for Bulyan (and a negligible share for plain
//! TensorFlow averaging).
//!
//! The reproduction charges every part in closed form at the paper CNN's
//! 1.75 M dimensions: computation and communication analytically, and
//! aggregation as each rule's counted work times per-unit kernel rates (see
//! the `agg_ps::cost` module docs).

use agg_core::{GarConfig, GarKind};
use agg_metrics::Table;
use agg_net::LinkConfig;
use agg_ps::{CostModel, ThroughputSimulation, VirtualModelCost};

fn main() {
    let cost = CostModel::paper_like().with_virtual_model(VirtualModelCost::paper_cnn());
    let systems = [
        ("TF (averaging)", GarConfig::new(GarKind::Average, 0)),
        ("Median", GarConfig::new(GarKind::Median, 4)),
        ("Multi-Krum (f=4)", GarConfig::new(GarKind::MultiKrum, 4)),
        ("Bulyan (f=4)", GarConfig::new(GarKind::Bulyan, 4)),
    ];

    let mut table = Table::new(
        "Figure 4: latency breakdown per round (19 workers, paper CNN cost model)",
        &[
            "system",
            "compute+comm (s)",
            "aggregation (s)",
            "total (s)",
            "aggregation share",
            "paper share",
        ],
    );
    let paper_share = ["~0%", "35%", "27%", "52%"];
    for ((name, gar), paper) in systems.iter().zip(paper_share) {
        let sim = ThroughputSimulation {
            workers: 19,
            gar: *gar,
            tree: None,
            batch_size: 100,
            cost,
            link: LinkConfig::datacenter(),
            proxy_dimension: 200_000,
        };
        let result = sim.run().expect("simulation runs");
        let share = result.aggregation_time_sec / result.round_time_sec;
        table.add_row(&[
            name.to_string(),
            format!("{:.3}", result.compute_comm_time_sec),
            format!("{:.3}", result.aggregation_time_sec),
            format!("{:.3}", result.round_time_sec),
            format!("{:.1}%", 100.0 * share),
            paper.to_string(),
        ]);
    }
    println!("{table}");
    println!(
        "expected shape: aggregation share negligible for averaging, largest for Bulyan, \
         with Multi-Krum below Bulyan."
    );
}
