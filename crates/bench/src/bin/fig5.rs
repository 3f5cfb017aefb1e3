//! Figure 5 — throughput against the number of workers.
//!
//! (a) the Table 1 CNN: all systems coincide up to ~6 workers, then the
//! Byzantine-resilient GARs fall below averaging, with higher declared `f`
//! giving *higher* throughput (fewer selected gradients / fewer Bulyan
//! iterations) and Draco an order of magnitude below everything.
//!
//! (b) the ResNet50-class model: gradient computation dominates, so the
//! robust GARs track averaging closely.

use agg_core::{GarConfig, GarKind};
use agg_draco::{AssignmentScheme, DracoThroughputSimulation};
use agg_metrics::Table;
use agg_net::LinkConfig;
use agg_ps::{CostModel, ThroughputSimulation, VirtualModelCost};

struct System {
    name: &'static str,
    gar: Option<GarConfig>,
    /// `Some(f)` marks a Draco row.
    draco_f: Option<usize>,
}

fn simulate(system: &System, workers: usize, virtual_model: VirtualModelCost) -> Option<f64> {
    let cost = CostModel::paper_like().with_virtual_model(virtual_model);
    match (system.gar, system.draco_f) {
        (Some(gar), None) => {
            let sim = ThroughputSimulation {
                workers,
                gar,
                batch_size: 100,
                cost,
                link: LinkConfig::datacenter(),
                proxy_dimension: 100_000,
            };
            sim.run().ok().map(|r| r.batches_per_sec)
        }
        (None, Some(f)) => DracoThroughputSimulation {
            workers,
            f,
            scheme: AssignmentScheme::Repetition,
            batch_size: 100,
            cost,
            link: LinkConfig::datacenter(),
            dimension: virtual_model.dimension,
            encode_overhead_factor: 2.0,
            decode_sec_per_worker_million_params: 0.03,
        }
        .run()
        .ok(),
        _ => None,
    }
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
        System {
            name: "TF/Average",
            gar: Some(GarConfig::new(GarKind::Average, 0)),
            draco_f: None,
        },
        System { name: "Median", gar: Some(GarConfig::new(GarKind::Median, 4)), draco_f: None },
        System {
            name: "Multi-Krum f=1",
            gar: Some(GarConfig::new(GarKind::MultiKrum, 1)),
            draco_f: None,
        },
        System {
            name: "Multi-Krum f=4",
            gar: Some(GarConfig::new(GarKind::MultiKrum, 4)),
            draco_f: None,
        },
        System { name: "Bulyan f=1", gar: Some(GarConfig::new(GarKind::Bulyan, 1)), draco_f: None },
        System { name: "Bulyan f=2", gar: Some(GarConfig::new(GarKind::Bulyan, 2)), draco_f: None },
        System { name: "Draco f=1", gar: None, draco_f: Some(1) },
        System { name: "Draco f=4", gar: None, draco_f: Some(4) },
    ];

    sweep(
        "Figure 5(a): throughput (batches/sec) vs #workers — Table 1 CNN",
        VirtualModelCost::paper_cnn(),
        &systems,
    );
    println!(
        "expected shape: systems coincide for small clusters; robust GARs fall below averaging \
         as n grows; higher f => higher throughput; Draco at the bottom ('n/a' = the GAR's \
         precondition n >= 2f+3 / 4f+3 is not met at that cluster size).\n"
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
