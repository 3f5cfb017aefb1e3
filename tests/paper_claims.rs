//! The shapes the `fig4` and `fig5` printers report as "expected shape",
//! asserted over the same closed-form simulations: no training runs, so the
//! whole file takes milliseconds, and since the simulated clock counts each
//! rule's work instead of timing it, every comparison is exact.

use agg_core::resilience::resilience_floor;
use agg_core::{GarConfig, GarKind, TreeConfig};
use agg_net::LinkConfig;
use agg_ps::{CostModel, PsError, ThroughputSimulation, VirtualModelCost};

/// Figure 5's cluster sizes.
const WORKER_COUNTS: [usize; 9] = [2, 4, 6, 8, 10, 12, 14, 16, 18];

/// Figure 5's GAR systems.
const SYSTEMS: [(GarKind, usize); 6] = [
    (GarKind::Average, 0),
    (GarKind::Median, 4),
    (GarKind::MultiKrum, 1),
    (GarKind::MultiKrum, 4),
    (GarKind::Bulyan, 1),
    (GarKind::Bulyan, 2),
];

fn simulation(
    kind: GarKind,
    f: usize,
    workers: usize,
    model: VirtualModelCost,
) -> ThroughputSimulation {
    ThroughputSimulation {
        workers,
        gar: GarConfig::new(kind, f),
        tree: None,
        batch_size: 100,
        cost: CostModel::paper_like().with_virtual_model(model),
        link: LinkConfig::datacenter(),
        proxy_dimension: 100_000,
    }
}

/// Batches per second, `None` where the printer shows `n/a`.
fn throughput(kind: GarKind, f: usize, workers: usize, model: VirtualModelCost) -> Option<f64> {
    simulation(kind, f, workers, model).run().ok().map(|r| r.batches_per_sec)
}

/// Draco's batches per second: the repetition tree over the same cost model.
fn draco(f: usize, workers: usize, model: VirtualModelCost) -> Option<f64> {
    let tree = TreeConfig::repetition(f);
    let sim = ThroughputSimulation {
        tree: Some(tree),
        ..simulation(tree.root.kind, tree.root.f, workers, model)
    };
    sim.run().ok().map(|r| r.batches_per_sec)
}

const MODELS: [fn() -> VirtualModelCost; 2] =
    [VirtualModelCost::paper_cnn, VirtualModelCost::resnet50];

#[test]
fn figure4_aggregation_share_orders_average_multi_krum_bulyan() {
    let share = |kind, f| {
        let result = simulation(kind, f, 19, VirtualModelCost::paper_cnn()).run().unwrap();
        result.aggregation_time_sec / result.round_time_sec
    };
    let (avg, mk, bulyan) =
        (share(GarKind::Average, 0), share(GarKind::MultiKrum, 4), share(GarKind::Bulyan, 4));
    assert!(avg < mk && mk < bulyan, "shares: average {avg}, multi-krum {mk}, bulyan {bulyan}");
}

#[test]
fn figure5_higher_f_gives_higher_or_equal_throughput() {
    for model in MODELS.map(|m| m()) {
        for n in WORKER_COUNTS {
            for (kind, low, high) in [(GarKind::MultiKrum, 1, 4), (GarKind::Bulyan, 1, 2)] {
                let (Some(t_low), Some(t_high)) =
                    (throughput(kind, low, n, model), throughput(kind, high, n, model))
                else {
                    continue;
                };
                assert!(t_high >= t_low, "{kind} n={n}: f={high} {t_high} < f={low} {t_low}");
            }
        }
    }
}

#[test]
fn figure5_draco_sits_below_every_gar() {
    for model in MODELS.map(|m| m()) {
        for n in WORKER_COUNTS {
            let slowest_gar = SYSTEMS
                .iter()
                .filter_map(|&(kind, f)| throughput(kind, f, n, model))
                .fold(f64::INFINITY, f64::min);
            for f in [1, 4] {
                if let Some(d) = draco(f, n, model) {
                    assert!(d < slowest_gar, "n={n}: Draco f={f} {d} vs slowest GAR {slowest_gar}");
                }
            }
        }
    }
}

#[test]
fn figure5_na_cells_are_exactly_the_resilience_floor() {
    for model in MODELS.map(|m| m()) {
        for n in WORKER_COUNTS {
            for (kind, f) in SYSTEMS {
                let result = simulation(kind, f, n, model).run();
                if n >= resilience_floor(kind, f) {
                    assert!(result.is_ok(), "{kind} f={f} n={n}: {result:?}");
                } else {
                    assert!(
                        matches!(&result, Err(PsError::Aggregation(e)) if e.contains("requires at least")),
                        "{kind} f={f} n={n}: {result:?}"
                    );
                }
            }
        }
    }
}
