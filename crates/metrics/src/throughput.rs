//! Throughput measurement: gradients (mini-batches) received by the
//! aggregator per second of simulated time (the metric of Figure 5).

use serde::{Deserialize, Serialize};

/// Accumulates the throughput of a training run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ThroughputMeter {
    gradients_received: u64,
    model_updates: u64,
    elapsed_sec: f64,
}

impl ThroughputMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        ThroughputMeter::default()
    }

    /// Records one synchronous round: `gradients` received, one model update,
    /// `round_time_sec` of simulated time.
    pub fn record_round(&mut self, gradients: u64, round_time_sec: f64) {
        self.gradients_received += gradients;
        self.model_updates += 1;
        self.elapsed_sec += round_time_sec.max(0.0);
    }

    /// Total gradients received.
    pub fn gradients_received(&self) -> u64 {
        self.gradients_received
    }

    /// Total model updates performed.
    pub fn model_updates(&self) -> u64 {
        self.model_updates
    }

    /// Total simulated time.
    pub fn elapsed_sec(&self) -> f64 {
        self.elapsed_sec
    }

    /// Gradients received per second — the y-axis of Figure 5
    /// ("Throughput (batches/sec)"), where each distinct mini-batch counts
    /// once per round: every worker's own, or one per replicating group.
    pub fn gradients_per_sec(&self) -> f64 {
        if self.elapsed_sec <= 0.0 {
            0.0
        } else {
            self.gradients_received as f64 / self.elapsed_sec
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_rounds() {
        let mut m = ThroughputMeter::new();
        m.record_round(19, 0.5);
        m.record_round(19, 0.5);
        assert_eq!(m.gradients_received(), 38);
        assert_eq!(m.model_updates(), 2);
        assert!((m.elapsed_sec() - 1.0).abs() < 1e-9);
        assert!((m.gradients_per_sec() - 38.0).abs() < 1e-9);
    }

    #[test]
    fn empty_meter_reports_zero() {
        let m = ThroughputMeter::new();
        assert_eq!(m.gradients_per_sec(), 0.0);
    }

    #[test]
    fn negative_times_are_clamped() {
        let mut m = ThroughputMeter::new();
        m.record_round(5, -1.0);
        assert_eq!(m.elapsed_sec(), 0.0);
    }
}
