//! Structured results of a training run: one [`RoundRecord`] per round, and
//! the [`TrainingReport`] that keeps them. The report folds only the run
//! totals and the simulated clock as the records arrive; the latency split,
//! the throughput and the per-worker rows are views that walk the records.

use crate::reputation::{QuarantineEvent, StandingChange};
use agg_metrics::TrainingTrace;
use agg_net::RowTransfer;
use serde::{Deserialize, Serialize};

/// How a round ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoundVerdict {
    /// The server aggregated the round and applied the optimizer step.
    #[default]
    Applied,
    /// The GAR's precondition rejected the rows that survived the wire and
    /// the quorum cut (e.g. too few of them); no update was applied.
    Skipped,
    /// The live set was below the active rule's resilience floor, so the
    /// server refused the round before any worker computed. It still
    /// broadcast the last model, and the round is charged for it.
    Refused,
}

/// What the wire did with one slot's submission in one round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotWire {
    /// Whether the row reached the server's arena.
    pub delivered: bool,
    /// Packets the epoch fence rejected.
    pub stale_epoch_rejects: u64,
    /// Packets the wire-integrity check rejected.
    pub corrupt_rejects: u64,
    /// Whether retransmit recovery ran out of budget or deadline with the
    /// row still incomplete.
    pub retransmit_exhausted: bool,
}

impl From<&RowTransfer> for SlotWire {
    fn from(transfer: &RowTransfer) -> Self {
        SlotWire {
            delivered: transfer.delivered,
            stale_epoch_rejects: transfer.stale_epoch_rejects as u64,
            corrupt_rejects: transfer.corrupt_rejects as u64,
            retransmit_exhausted: transfer.retransmit_exhausted,
        }
    }
}

/// Everything the run keeps of one round: what the engine's stages decided,
/// in the order they decided it. The report's counters, the adversary's
/// selection feedback and the ledger's exclusion evidence are all read off
/// these records.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Engine step of the round.
    pub step: u64,
    /// Membership view epoch the round ran under (0 under static
    /// membership).
    pub epoch: u32,
    /// How the round ended.
    pub verdict: RoundVerdict,
    /// One entry per worker slot: the wire outcome of its submission, `None`
    /// when the slot submitted nothing (crashed or quarantined). Empty for a
    /// refused round.
    pub wire: Vec<Option<SlotWire>>,
    /// The slots whose rows made the quorum cut, ascending.
    pub accepted: Vec<usize>,
    /// The slots the rule's selection phase picked on an applied round;
    /// `None` for a rule without a selection phase and for a round that was
    /// not applied.
    pub selection: Option<Vec<usize>>,
    /// Distinct mini-batches the submitting slots drew, delivered or not: a
    /// replicating group's copies of one batch count once.
    pub batches: u64,
    /// Simulated seconds the server waited: the broadcast plus the slowest
    /// counted arrival, plus the tree tier's slowest group → root leg (only
    /// the broadcast on a refused round).
    pub round_wait_sec: f64,
    /// Simulated seconds of counted aggregation and the optimizer step (0
    /// unless applied).
    pub aggregation_sec: f64,
}

/// One worker's share of the run's wire counters and the ledger's verdict on
/// it: a row of [`TrainingReport::per_worker`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkerReport {
    /// Worker id (the row's index, repeated so serialized rows stay
    /// self-describing).
    pub worker: usize,
    /// Packets of this worker's submissions rejected by the epoch fence.
    pub stale_epoch_rejects: u64,
    /// Packets of this worker's submissions rejected by the wire-integrity
    /// check.
    pub corrupt_rejects: u64,
    /// Rounds in which this worker's retransmit recovery exhausted its
    /// budget or deadline without completing the row.
    pub retransmit_exhaustions: u64,
    /// Times the reputation ledger quarantined this worker.
    pub quarantines: u64,
    /// Times the reputation ledger readmitted this worker on probation.
    pub readmissions: u64,
    /// The worker's suspicion score when the run ended (0 without a ledger).
    pub final_suspicion: f64,
}

/// Everything a training run produced, ready for the experiment harness to
/// turn into the paper's tables and figures.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrainingReport {
    /// Human-readable label of the run (GAR, `f`, batch size, transport).
    pub label: String,
    /// Accuracy/loss versus simulated time and model updates.
    pub trace: TrainingTrace,
    /// Model updates actually applied.
    pub steps_completed: u64,
    /// Rounds skipped because the GAR rejected the submission (e.g. every
    /// gradient was dropped by the transport).
    pub skipped_updates: u64,
    /// Rounds the server *refused* to aggregate because churn dropped the
    /// live worker set below the active rule's resilience floor (elastic
    /// membership). A refusal is a graceful degradation, not an error: the
    /// server holds the last model and broadcasts it again.
    pub refused_rounds: u64,
    /// Packets rejected by the epoch fence across the run: late packets from
    /// evicted workers and first-round submissions of stale-epoch rejoiners.
    pub stale_epoch_rejects: u64,
    /// Packets rejected by the wire-integrity check (CRC32 mismatch,
    /// truncation, unknown wire version) across the run. Every fault the
    /// chaos plan injects lands here — a corrupted packet never reaches an
    /// arena row; its coordinates are either retransmitted or degrade like a
    /// transport loss.
    pub corrupt_rejects: u64,
    /// Rounds in which the GAR's selection set contained at least one row
    /// submitted by a Byzantine worker (0 means the selected set stayed
    /// honest every round).
    pub byzantine_selected_rounds: u64,
    /// Worker-rounds in which a worker's retransmit recovery ran out of
    /// budget or deadline with the row still incomplete — counted apart from
    /// a plain transport loss so the reputation ledger (and operators) can
    /// see it.
    pub retransmit_exhaustions: u64,
    /// Every quarantine/readmission transition the reputation ledger made,
    /// in the order it made them. Empty without a ledger.
    pub quarantine_events: Vec<QuarantineEvent>,
    /// Each worker slot's suspicion score when the run ended: one entry per
    /// slot, zeros without a ledger, empty for a report the engine did not
    /// produce.
    pub final_suspicion: Vec<f64>,
    /// Total simulated wall-clock time of the run, in seconds: every round's
    /// wait plus its aggregation, summed in step order.
    pub simulated_time_sec: f64,
    /// One record per round of a `SyncTrainingEngine` run, in step order
    /// (empty for a report the engine did not produce). Every counter above
    /// except `steps_completed`, the trace and the ledger's outputs is a fold
    /// over these, and every view below walks them.
    pub rounds: Vec<RoundRecord>,
}

impl TrainingReport {
    /// Folds one round into the counters and the clock, then keeps the
    /// record. `byzantine` marks the slots whose selection counts against
    /// the GAR.
    pub(crate) fn fold(&mut self, record: RoundRecord, byzantine: &[bool]) {
        match record.verdict {
            RoundVerdict::Applied => {}
            RoundVerdict::Skipped => self.skipped_updates += 1,
            RoundVerdict::Refused => self.refused_rounds += 1,
        }
        if record.selection.as_ref().is_some_and(|s| s.iter().any(|&slot| byzantine[slot])) {
            self.byzantine_selected_rounds += 1;
        }
        for wire in record.wire.iter().flatten() {
            self.stale_epoch_rejects += wire.stale_epoch_rejects;
            self.corrupt_rejects += wire.corrupt_rejects;
            self.retransmit_exhaustions += u64::from(wire.retransmit_exhausted);
        }
        self.simulated_time_sec += record.round_wait_sec + record.aggregation_sec;
        self.rounds.push(record);
    }

    /// Total computation + communication seconds: the rounds' waits.
    pub fn compute_comm_sec(&self) -> f64 {
        self.rounds.iter().fold(0.0, |sum, record| sum + record.round_wait_sec)
    }

    /// Total aggregation seconds of the rounds.
    pub fn aggregation_sec(&self) -> f64 {
        self.rounds.iter().fold(0.0, |sum, record| sum + record.aggregation_sec)
    }

    /// Fraction of the round time spent in aggregation (Figure 4) — the
    /// percentage the paper reports (35 % for Median, 27 % for Multi-Krum,
    /// 52 % for Bulyan).
    pub fn aggregation_share(&self) -> f64 {
        let aggregation = self.aggregation_sec();
        let total = self.compute_comm_sec() + aggregation;
        if total <= 0.0 {
            0.0
        } else {
            aggregation / total
        }
    }

    /// Distinct mini-batches the rounds' submitting slots drew.
    pub fn batches_received(&self) -> u64 {
        self.rounds.iter().map(|record| record.batches).sum()
    }

    /// Batches received per simulated second — the y-axis of Figure 5
    /// ("Throughput (batches/sec)").
    pub fn batches_per_sec(&self) -> f64 {
        let seconds = self.simulated_time_sec;
        if seconds <= 0.0 {
            0.0
        } else {
            self.batches_received() as f64 / seconds
        }
    }

    /// One row per worker slot: its wire counters summed over the rounds,
    /// its quarantines and readmissions counted off the ledger's log, and
    /// its final suspicion. Empty for a report the engine did not produce.
    pub fn per_worker(&self) -> Vec<WorkerReport> {
        let mut rows = vec![WorkerReport::default(); self.final_suspicion.len()];
        for (worker, (row, &score)) in rows.iter_mut().zip(&self.final_suspicion).enumerate() {
            (row.worker, row.final_suspicion) = (worker, score);
        }
        for record in &self.rounds {
            for (row, wire) in rows.iter_mut().zip(&record.wire) {
                let Some(wire) = wire else { continue };
                row.stale_epoch_rejects += wire.stale_epoch_rejects;
                row.corrupt_rejects += wire.corrupt_rejects;
                row.retransmit_exhaustions += u64::from(wire.retransmit_exhausted);
            }
        }
        for event in &self.quarantine_events {
            let row = &mut rows[event.worker];
            match event.change {
                StandingChange::Quarantined => row.quarantines += 1,
                StandingChange::Readmitted => row.readmissions += 1,
            }
        }
        rows
    }

    /// Final test accuracy (0 when nothing was evaluated).
    pub fn final_accuracy(&self) -> f64 {
        self.trace.final_accuracy()
    }

    /// Best test accuracy seen during the run.
    pub fn best_accuracy(&self) -> f64 {
        self.trace.best_accuracy()
    }

    /// Simulated time to reach the given accuracy, if ever reached.
    pub fn time_to_accuracy(&self, target: f64) -> Option<f64> {
        self.trace.time_to_accuracy(target)
    }

    /// Number of quarantine evictions the reputation ledger made.
    pub fn quarantine_count(&self) -> u64 {
        self.quarantine_events.iter().filter(|e| e.change == StandingChange::Quarantined).count()
            as u64
    }

    /// Number of probationary readmissions the reputation ledger made.
    pub fn readmission_count(&self) -> u64 {
        self.quarantine_events.iter().filter(|e| e.change == StandingChange::Readmitted).count()
            as u64
    }

    /// One-line summary for experiment logs.
    pub fn summary(&self) -> String {
        let refusals = if self.refused_rounds > 0 {
            format!(" + {} refused below the resilience floor", self.refused_rounds)
        } else {
            String::new()
        };
        let quarantines = if self.quarantine_events.is_empty() {
            String::new()
        } else {
            format!(
                ", {} quarantined / {} readmitted by the reputation ledger",
                self.quarantine_count(),
                self.readmission_count()
            )
        };
        format!(
            "{}: {} steps ({} skipped{refusals}), {:.1}s simulated, final accuracy {:.3}, throughput {:.2} batches/s, aggregation share {:.1}%{quarantines}",
            self.label,
            self.steps_completed,
            self.skipped_updates,
            self.simulated_time_sec,
            self.final_accuracy(),
            self.batches_per_sec(),
            100.0 * self.aggregation_share(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agg_metrics::TracePoint;

    #[test]
    fn summary_mentions_the_label_and_accuracy() {
        let mut report = TrainingReport { label: "multi-krum f=4".into(), ..Default::default() };
        report.trace.record(TracePoint { step: 10, time_sec: 1.0, accuracy: 0.5, loss: 1.0 });
        report.steps_completed = 10;
        let s = report.summary();
        assert!(s.contains("multi-krum f=4"));
        assert!(s.contains("0.500"));
        assert_eq!(report.final_accuracy(), 0.5);
        assert_eq!(report.best_accuracy(), 0.5);
        assert_eq!(report.time_to_accuracy(0.4), Some(1.0));
        assert_eq!(report.time_to_accuracy(0.9), None);
    }

    #[test]
    fn default_report_is_empty() {
        let report = TrainingReport::default();
        assert_eq!(report.final_accuracy(), 0.0);
        assert_eq!(report.steps_completed, 0);
        assert_eq!(report.refused_rounds, 0);
        assert_eq!(report.stale_epoch_rejects, 0);
        assert_eq!(report.corrupt_rejects, 0);
        assert_eq!(report.byzantine_selected_rounds, 0);
        assert_eq!(report.retransmit_exhaustions, 0);
        assert!(report.per_worker().is_empty());
        assert!(report.rounds.is_empty());
        assert_eq!(report.aggregation_share(), 0.0);
        assert_eq!(report.batches_per_sec(), 0.0);
        assert!(report.quarantine_events.is_empty());
        assert_eq!(report.quarantine_count(), 0);
        assert_eq!(report.readmission_count(), 0);
    }

    #[test]
    fn summary_surfaces_quarantine_events() {
        use crate::reputation::{QuarantineEvent, StandingChange};
        let mut report = TrainingReport { label: "multi-krum f=4".into(), ..Default::default() };
        assert!(!report.summary().contains("quarantined"));
        report.quarantine_events = vec![
            QuarantineEvent { round: 4, worker: 17, change: StandingChange::Quarantined },
            QuarantineEvent { round: 9, worker: 18, change: StandingChange::Quarantined },
            QuarantineEvent { round: 16, worker: 17, change: StandingChange::Readmitted },
        ];
        assert_eq!(report.quarantine_count(), 2);
        assert_eq!(report.readmission_count(), 1);
        assert!(report.summary().contains("2 quarantined / 1 readmitted by the reputation ledger"));
    }

    /// A round of `verdict` that waited `wait` and aggregated for
    /// `aggregation` simulated seconds over `batches` mini-batches.
    fn round(verdict: RoundVerdict, wait: f64, aggregation: f64, batches: u64) -> RoundRecord {
        RoundRecord {
            verdict,
            batches,
            round_wait_sec: wait,
            aggregation_sec: aggregation,
            ..Default::default()
        }
    }

    #[test]
    fn latency_split_sums_the_charged_rounds() {
        let mut report = TrainingReport::default();
        report.fold(round(RoundVerdict::Applied, 0.4, 0.1, 19), &[]);
        report.fold(round(RoundVerdict::Refused, 0.1, 0.0, 0), &[]);
        report.fold(round(RoundVerdict::Skipped, 0.6, 0.3, 19), &[]);
        assert_eq!(report.rounds.len(), 3);
        assert!((report.compute_comm_sec() - 1.1).abs() < 1e-9);
        assert!((report.aggregation_sec() - 0.4).abs() < 1e-9);
        assert!((report.aggregation_share() - 0.4 / 1.5).abs() < 1e-9);
        assert!((report.simulated_time_sec - 1.5).abs() < 1e-9);
    }

    #[test]
    fn batches_per_sec_divides_by_the_clock() {
        let mut report = TrainingReport::default();
        report.fold(round(RoundVerdict::Applied, 0.5, 0.0, 19), &[]);
        report.fold(round(RoundVerdict::Refused, 0.5, 0.0, 0), &[]);
        report.fold(round(RoundVerdict::Applied, 0.5, 0.0, 19), &[]);
        assert_eq!(report.batches_received(), 38);
        assert_eq!(report.rounds.len(), 3);
        assert!((report.batches_per_sec() - 38.0 / 1.5).abs() < 1e-9);
    }

    #[test]
    fn per_worker_breakdown_round_trips_through_json() {
        let report = TrainingReport {
            final_suspicion: vec![0.0, 0.75, 0.5],
            quarantine_events: vec![
                QuarantineEvent { round: 2, worker: 1, change: StandingChange::Quarantined },
                QuarantineEvent { round: 5, worker: 1, change: StandingChange::Readmitted },
            ],
            rounds: vec![
                RoundRecord {
                    step: 3,
                    epoch: 1,
                    wire: vec![
                        Some(SlotWire { delivered: true, ..Default::default() }),
                        Some(SlotWire {
                            corrupt_rejects: 2,
                            retransmit_exhausted: true,
                            ..Default::default()
                        }),
                        Some(SlotWire { stale_epoch_rejects: 4, ..Default::default() }),
                    ],
                    accepted: vec![0],
                    selection: Some(vec![0]),
                    batches: 3,
                    round_wait_sec: 0.25,
                    aggregation_sec: 0.125,
                    ..Default::default()
                },
                RoundRecord { step: 4, verdict: RoundVerdict::Refused, ..Default::default() },
                RoundRecord {
                    step: 5,
                    wire: vec![None, Some(SlotWire { corrupt_rejects: 1, ..Default::default() })],
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: TrainingReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.rounds, report.rounds);
        let rows = back.per_worker();
        assert_eq!(rows, report.per_worker());
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], WorkerReport { worker: 0, ..Default::default() });
        assert_eq!(
            rows[1],
            WorkerReport {
                worker: 1,
                corrupt_rejects: 3,
                retransmit_exhaustions: 1,
                quarantines: 1,
                readmissions: 1,
                final_suspicion: 0.75,
                ..Default::default()
            }
        );
        assert_eq!(rows[2].stale_epoch_rejects, 4);
        assert_eq!(rows[2].final_suspicion, 0.5);
    }

    #[test]
    fn summary_surfaces_refused_rounds() {
        let mut report = TrainingReport { label: "bulyan f=4".into(), ..Default::default() };
        assert!(!report.summary().contains("refused"));
        report.refused_rounds = 3;
        assert!(report.summary().contains("3 refused below the resilience floor"));
    }
}
