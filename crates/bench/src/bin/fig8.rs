//! Figure 8 — impact of dropped packets on convergence.
//!
//! The gradient transfer of the last `f = 8` workers runs over the lossy
//! UDP-like transport. With no added loss (a) the three loss-handling
//! strategies of §3.3 behave alike; with a 10 % artificial drop rate (b)
//! AggregaThor over lossyMPI converges to 30 % accuracy more than ~6× faster
//! than TensorFlow over gRPC (whose TCP flow collapses under loss), while
//! non-robust averaging over the lossy transport fails to converge cleanly.

use agg_bench::{format_time, run_gar};
use agg_core::GarKind;
use agg_metrics::Table;
use agg_net::{LinkConfig, LossPolicy};
use agg_ps::{TrainingReport, TransportKind};

struct Scenario {
    name: &'static str,
    gar: GarKind,
    f: usize,
    transport: TransportKind,
    lossy_links: usize,
}

fn run(scenario: &Scenario, drop_rate: f64, steps: u64) -> TrainingReport {
    run_gar(scenario.gar, scenario.f, 50, steps, None, |config| {
        config.transport = scenario.transport;
        config.lossy_links = scenario.lossy_links;
        config.link = LinkConfig::datacenter().with_drop_rate(drop_rate);
    })
}

fn report(title: &str, drop_rate: f64, scenarios: &[Scenario], steps: u64) {
    let mut table = Table::new(
        title,
        &["system", "final accuracy", "time to 30% accuracy (s)", "simulated time (s)"],
    );
    for scenario in scenarios {
        let result = run(scenario, drop_rate, steps);
        table.add_row(&[
            scenario.name.to_string(),
            format!("{:.3}", result.final_accuracy()),
            format_time(result.time_to_accuracy(0.30)),
            format!("{:.1}", result.simulated_time_sec),
        ]);
    }
    println!("{table}");
}

fn main() {
    let steps = 150;

    let no_loss = [
        Scenario {
            name: "TF (drop whole gradient)",
            gar: GarKind::Average,
            f: 0,
            transport: TransportKind::Lossy { policy: LossPolicy::DropGradient },
            lossy_links: 8,
        },
        Scenario {
            name: "Selective Average",
            gar: GarKind::SelectiveAverage,
            f: 0,
            transport: TransportKind::Lossy { policy: LossPolicy::SelectiveNan },
            lossy_links: 8,
        },
        Scenario {
            name: "AggregaThor (Multi-Krum f=8)",
            gar: GarKind::MultiKrum,
            f: 8,
            transport: TransportKind::Lossy { policy: LossPolicy::RandomFill },
            lossy_links: 8,
        },
    ];
    report(
        "Figure 8(a): 0% artificial drop rate, lossy transport on 8 links",
        0.0,
        &no_loss,
        steps,
    );
    println!("expected shape: the three strategies converge almost identically.\n");

    let lossy = [
        Scenario {
            name: "AggregaThor (Multi-Krum f=8, lossyMPI)",
            gar: GarKind::MultiKrum,
            f: 8,
            transport: TransportKind::Lossy { policy: LossPolicy::RandomFill },
            lossy_links: 8,
        },
        Scenario {
            name: "TF (gRPC / reliable TCP)",
            gar: GarKind::Average,
            f: 0,
            transport: TransportKind::Reliable,
            lossy_links: 8,
        },
        Scenario {
            name: "TF (lossyMPI, non-robust averaging)",
            gar: GarKind::Average,
            f: 0,
            transport: TransportKind::Lossy { policy: LossPolicy::SelectiveNan },
            lossy_links: 8,
        },
    ];
    report("Figure 8(b): 10% artificial drop rate", 0.10, &lossy, steps);
    println!(
        "expected shape: AggregaThor over the lossy transport reaches 30% accuracy several times \
         (paper: >6x) faster than TF over TCP, whose congestion control collapses under loss; \
         non-robust averaging over the lossy transport fails to converge cleanly."
    );
}
