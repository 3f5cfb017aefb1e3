//! Cluster deployment: the framework surface of AggregaThor.
//!
//! Shows the pieces the original system exposes through its `runner.py`
//! tool: the runner's aggregator specifications, the admissible
//! Byzantine-resilience envelopes for a given cluster size, and the security
//! patch that keeps workers from overwriting the shared model.
//!
//! ```text
//! cargo run --release -p agg-apps --example cluster_deployment
//! ```

use agg_core::{resilience, GarConfig};
use agg_metrics::Table;
use agg_nn::optim::{OptimizerKind, Regularization};
use agg_nn::schedule::LearningRate;
use agg_ps::ParameterServer;
use agg_tensor::Vector;

fn main() {
    // 1. Runner-style GAR specification strings.
    for spec in ["average", "median:f=4", "multi-krum:f=4,m=9", "bulyan:f=4"] {
        let config = GarConfig::parse(spec).expect("valid spec");
        let gar = config.build().expect("builds");
        println!(
            "--aggregator {spec:<22} -> rule '{}', resilience {}, needs n >= {}",
            gar.name(),
            config.kind.resilience(),
            resilience::resilience_floor(config.kind, config.f)
        );
    }
    println!();

    // 2. Resilience envelope for the paper's 19-worker cluster.
    let n = 19;
    let mut table = Table::new(
        "Byzantine-resilience envelope for n = 19 workers",
        &["guarantee", "max f", "selection size m̃", "slowdown bound"],
    );
    let f_weak = resilience::max_f_multi_krum(n).unwrap_or(0);
    let f_strong = resilience::max_f_bulyan(n).unwrap_or(0);
    table.add_row(&[
        "weak (Multi-Krum)".to_string(),
        f_weak.to_string(),
        resilience::multi_krum_max_m(n, f_weak).map(|m| m.to_string()).unwrap_or_default(),
        format!("{:.2}", resilience::theoretical_slowdown(n, f_weak, false).unwrap_or(0.0)),
    ]);
    table.add_row(&[
        "strong (Bulyan)".to_string(),
        f_strong.to_string(),
        resilience::bulyan_max_m(n, f_strong).map(|m| m.to_string()).unwrap_or_default(),
        format!("{:.2}", resilience::theoretical_slowdown(n, f_strong, true).unwrap_or(0.0)),
    ]);
    println!("{table}");

    // 3. The TensorFlow vulnerability patch in action.
    let mut server = ParameterServer::new(
        Vector::zeros(8),
        GarConfig::parse("multi-krum:f=2").expect("valid"),
        OptimizerKind::RmsProp,
        LearningRate::paper_default(),
        Regularization::none(),
    )
    .expect("server builds");
    match server.handle_remote_write(5, &Vector::filled(8, 1e9)) {
        Err(e) => println!("worker 5 tried to overwrite the model directly -> rejected: {e}"),
        Ok(()) => unreachable!("the patch rejects remote writes"),
    }
}
