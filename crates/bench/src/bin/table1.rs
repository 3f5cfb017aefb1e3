//! Table 1 — the CNN model used throughout the paper's evaluation.
//!
//! Prints the Table 1 architecture as shape arithmetic
//! (`agg_ps::cost::PAPER_CNN_LAYERS`): per layer its kernel, channels, stride,
//! output size, parameters and forward FLOPs, then the totals; the paper
//! describes the model as having "a total of 1.75M parameters". Then the
//! constants the simulated clock charges for it and for ResNet-50
//! (`VirtualModelCost`). The runs train an MLP; this model is never built.

use agg_metrics::Table;
use agg_ps::cost::{CnnLayer, CnnLayerKind, PAPER_CNN_LAYERS};
use agg_ps::VirtualModelCost;

fn main() {
    let mut table = Table::new(
        "Table 1: CNN model parameters (paper: ~1.75M total)",
        &["layer", "kernel", "channels", "stride", "output", "parameters", "MFLOP"],
    );
    for layer in PAPER_CNN_LAYERS {
        let [kernel, stride, output] = match layer.kind {
            CnnLayerKind::Dense => ["-", "-", "-"].map(String::from),
            _ => [
                format!("{0}x{0}", layer.kernel),
                layer.stride.to_string(),
                format!("{0}x{0}x{1}", layer.output, layer.channels),
            ],
        };
        table.add_row(&[
            layer.name.to_string(),
            kernel,
            layer.channels.to_string(),
            stride,
            output,
            layer.params().to_string(),
            format!("{:.3}", layer.flops() as f64 / 1e6),
        ]);
    }
    let params: u64 = PAPER_CNN_LAYERS.iter().map(CnnLayer::params).sum();
    let flops: u64 = PAPER_CNN_LAYERS.iter().map(CnnLayer::flops).sum();
    let total =
        ["TOTAL", "", "", "", "", &params.to_string(), &format!("{:.3}", flops as f64 / 1e6)];
    table.add_row(&total);
    println!("{table}");
    println!(
        "paper total: ~1,750,000 parameters | reproduced total: {params} parameters ({:.2}M)",
        params as f64 / 1e6
    );
    let cnn = VirtualModelCost::paper_cnn();
    println!(
        "forward cost: {:.1} MFLOP per sample counted, {:.1} MFLOP charged",
        flops as f64 / 1e6,
        cnn.flops_per_sample as f64 / 1e6
    );

    let resnet = VirtualModelCost::resnet50();
    println!(
        "\nResNet-50 (Figure 5b), charged: {} parameters ({:.1}M), {:.1} GFLOP/sample",
        resnet.dimension,
        resnet.dimension as f64 / 1e6,
        resnet.flops_per_sample as f64 / 1e9
    );
}
