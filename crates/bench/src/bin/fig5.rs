//! Figure 5 — throughput against the number of workers.
//!
//! (a) the Table 1 CNN: all systems coincide up to ~6 workers, then the
//! Byzantine-resilient GARs fall below averaging, with higher declared `f`
//! giving *higher* throughput (fewer selected gradients / fewer Bulyan
//! iterations) and Draco an order of magnitude below everything.
//!
//! (b) the ResNet50-class model: gradient computation dominates, so the
//! robust GARs track averaging closely.

use agg_core::{GarConfig, GarKind, TreeConfig};
use agg_metrics::Table;
use agg_net::LinkConfig;
use agg_ps::{CostModel, ThroughputSimulation, VirtualModelCost};

struct System {
    name: &'static str,
    gar: GarConfig,
    /// The two-level tier; [`TreeConfig::repetition`] marks a Draco row.
    tree: Option<TreeConfig>,
}

impl System {
    fn flat(name: &'static str, kind: GarKind, f: usize) -> Self {
        System { name, gar: GarConfig::new(kind, f), tree: None }
    }

    fn draco(name: &'static str, f: usize) -> Self {
        let tree = TreeConfig::repetition(f);
        System { name, gar: tree.root, tree: Some(tree) }
    }
}

fn simulate(system: &System, workers: usize, virtual_model: VirtualModelCost) -> Option<f64> {
    let sim = ThroughputSimulation {
        workers,
        gar: system.gar,
        tree: system.tree,
        batch_size: 100,
        cost: CostModel::paper_like().with_virtual_model(virtual_model),
        link: LinkConfig::datacenter(),
        proxy_dimension: 100_000,
    };
    sim.run().ok().map(|r| r.batches_per_sec)
}

fn sweep(title: &str, virtual_model: VirtualModelCost, systems: &[System]) {
    let worker_counts = [2usize, 4, 6, 8, 10, 12, 14, 16, 18];
    let mut header: Vec<String> = vec!["workers".to_string()];
    header.extend(systems.iter().map(|s| s.name.to_string()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(title, &header_refs);
    for &n in &worker_counts {
        let mut row = vec![n.to_string()];
        for system in systems {
            let value = simulate(system, n, virtual_model);
            row.push(match value {
                Some(v) => format!("{v:.2}"),
                None => "n/a".to_string(),
            });
        }
        table.add_row(&row);
    }
    println!("{table}");
}

fn main() {
    let systems = vec![
        System::flat("TF/Average", GarKind::Average, 0),
        System::flat("Median", GarKind::Median, 4),
        System::flat("Multi-Krum f=1", GarKind::MultiKrum, 1),
        System::flat("Multi-Krum f=4", GarKind::MultiKrum, 4),
        System::flat("Bulyan f=1", GarKind::Bulyan, 1),
        System::flat("Bulyan f=2", GarKind::Bulyan, 2),
        System::draco("Draco f=1", 1),
        System::draco("Draco f=4", 4),
    ];

    sweep(
        "Figure 5(a): throughput (batches/sec) vs #workers — Table 1 CNN",
        VirtualModelCost::paper_cnn(),
        &systems,
    );
    println!(
        "expected shape: systems coincide for small clusters; robust GARs fall below averaging \
         as n grows; higher f => higher throughput; Draco at the bottom ('n/a' = the GAR's \
         precondition n >= 2f+3 / 4f+3, or Draco's group of 2f+1, is not met at that cluster \
         size).\n"
    );

    sweep(
        "Figure 5(b): throughput (batches/sec) vs #workers — ResNet50-class model",
        VirtualModelCost::resnet50(),
        &systems,
    );
    println!(
        "expected shape: gradient computation dominates, so Multi-Krum and Bulyan track \
         averaging closely; Draco remains far below."
    );
}
