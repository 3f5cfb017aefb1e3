//! Per-round latency breakdown: computation + communication versus
//! aggregation time (the decomposition of Figure 4).

use serde::{Deserialize, Serialize};

/// Accumulates where the time of each synchronous round goes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyBreakdown {
    compute_comm_sec: f64,
    aggregation_sec: f64,
    rounds: u64,
}

impl LatencyBreakdown {
    /// Creates an empty breakdown.
    pub fn new() -> Self {
        LatencyBreakdown::default()
    }

    /// Records one round: the time the server waited for gradients (worker
    /// computation plus the transfer) and the time it spent aggregating.
    pub fn record_round(&mut self, compute_comm_sec: f64, aggregation_sec: f64) {
        self.compute_comm_sec += compute_comm_sec.max(0.0);
        self.aggregation_sec += aggregation_sec.max(0.0);
        self.rounds += 1;
    }

    /// Total computation + communication time.
    pub fn compute_comm_sec(&self) -> f64 {
        self.compute_comm_sec
    }

    /// Total aggregation time.
    pub fn aggregation_sec(&self) -> f64 {
        self.aggregation_sec
    }

    /// Number of rounds recorded.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Fraction of total round time spent in aggregation — the percentage the
    /// paper reports (35 % for Median, 27 % for Multi-Krum, 52 % for Bulyan).
    pub fn aggregation_share(&self) -> f64 {
        let total = self.compute_comm_sec + self.aggregation_sec;
        if total <= 0.0 {
            0.0
        } else {
            self.aggregation_sec / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_averages() {
        let mut b = LatencyBreakdown::new();
        b.record_round(0.4, 0.1);
        b.record_round(0.6, 0.3);
        assert_eq!(b.rounds(), 2);
        assert!((b.compute_comm_sec() - 1.0).abs() < 1e-9);
        assert!((b.aggregation_sec() - 0.4).abs() < 1e-9);
        assert!((b.aggregation_share() - 0.4 / 1.4).abs() < 1e-9);
    }

    #[test]
    fn empty_breakdown_is_all_zero() {
        let b = LatencyBreakdown::new();
        assert_eq!(b.aggregation_share(), 0.0);
    }

    #[test]
    fn negative_inputs_are_clamped() {
        let mut b = LatencyBreakdown::new();
        b.record_round(-1.0, -2.0);
        assert_eq!(b.compute_comm_sec(), 0.0);
        assert_eq!(b.aggregation_sec(), 0.0);
        assert_eq!(b.rounds(), 1);
    }
}
