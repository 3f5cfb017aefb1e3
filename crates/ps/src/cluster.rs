//! The node model: every worker computes on one kind of machine.
//!
//! The paper deploys on Grid5000, one job per node (1 parameter server and
//! 19 workers on 20 nodes). The simulated clock needs one figure from that
//! deployment: the sustained FLOP/s a worker node spends on its gradient,
//! which the engine's Phase 1 and the throughput simulator both charge.

/// One machine in the cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Host name (informational).
    pub name: String,
    /// Sustained throughput of the node in FLOP/s for the gradient
    /// computation (the cost model divides model FLOPs by this).
    pub flops_per_sec: f64,
}

impl Node {
    /// A node modelled after the paper's Grid5000 machines (2× Xeon E5-2630,
    /// treated as ~50 GFLOP/s sustained for this workload).
    pub fn grid5000_cpu(index: usize) -> Self {
        Node { name: format!("g5k-node-{index}"), flops_per_sec: 5.0e10 }
    }
}
