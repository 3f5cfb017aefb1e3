//! The determinism harness the engine-level suites share: one report
//! comparator and one sweep that runs a configuration at several rayon
//! thread budgets in the test's own process.
//!
//! A budget is scoped to one call (`ThreadPool::install`), so budget 1 is
//! the sequential ordering of every parallel region: Phase 1's worker
//! fan-out, Phase 2's attacker sends, the sharded tier's shards (distance
//! partials and reduce), the tree tier's groups and the tensor kernels'
//! blocks (the compaction and the honest mean included). Budgets 2 and 4
//! deal the same items to threads differently, so equal reports pin that no
//! region's result depends on the schedule.

#![allow(dead_code)] // each suite uses its own subset

use agg_ps::{RunnerConfig, SyncTrainingEngine, TrainingReport};

/// The thread budgets every determinism pin runs at: the sequential
/// ordering, the benchmark box's two cores, and more threads than cores.
pub const BUDGETS: [usize; 3] = [1, 2, 4];

/// Runs `op` with every rayon region it opens limited to `threads` threads.
pub fn at_budget<R: Send>(threads: usize, op: impl FnOnce() -> R + Send) -> R {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build();
    pool.expect("the shim's pools always build").install(op)
}

/// Runs `config` to completion.
pub fn run(config: RunnerConfig) -> TrainingReport {
    SyncTrainingEngine::new(config).expect("valid config").run().expect("runs")
}

/// One run of `config` per budget, each report asserted identical to the
/// first; the reports come back in `budgets` order.
pub fn reports_at_budgets(config: &RunnerConfig, budgets: &[usize]) -> Vec<TrainingReport> {
    let reports: Vec<TrainingReport> =
        budgets.iter().map(|&threads| at_budget(threads, || run(config.clone()))).collect();
    for (report, threads) in reports.iter().zip(budgets).skip(1) {
        let context = format!("budget {threads} vs budget {}", budgets[0]);
        assert_reports_identical(&reports[0], report, &context);
    }
    reports
}

/// `config` at every budget of [`BUDGETS`], the three reports asserted
/// identical; returns the budget-1 report.
pub fn assert_deterministic(config: &RunnerConfig) -> TrainingReport {
    reports_at_budgets(config, &BUDGETS).swap_remove(0)
}

/// Bit-for-bit equality of the whole report: the counters, the per-worker
/// breakdown, the ledger's transitions, the trace, the simulated clock (the
/// run's seconds, their latency split and the throughput meter) and every
/// round's record.
pub fn assert_reports_identical(a: &TrainingReport, b: &TrainingReport, context: &str) {
    assert_eq!(a.label, b.label, "{context}: labels");
    assert_eq!(
        a.simulated_time_sec.to_bits(),
        b.simulated_time_sec.to_bits(),
        "{context}: simulated time {} vs {}",
        a.simulated_time_sec,
        b.simulated_time_sec
    );
    let (la, lb) = (&a.latency, &b.latency);
    assert_eq!(la.rounds(), lb.rounds(), "{context}: latency rounds");
    assert_eq!(
        la.compute_comm_sec().to_bits(),
        lb.compute_comm_sec().to_bits(),
        "{context}: compute+comm seconds"
    );
    assert_eq!(
        la.aggregation_sec().to_bits(),
        lb.aggregation_sec().to_bits(),
        "{context}: aggregation seconds {} vs {}",
        la.aggregation_sec(),
        lb.aggregation_sec()
    );
    let (ta, tb) = (&a.throughput, &b.throughput);
    assert_eq!(ta.gradients_received(), tb.gradients_received(), "{context}: gradients");
    assert_eq!(ta.model_updates(), tb.model_updates(), "{context}: throughput rounds");
    assert_eq!(
        ta.elapsed_sec().to_bits(),
        tb.elapsed_sec().to_bits(),
        "{context}: throughput seconds"
    );
    assert_eq!(a.steps_completed, b.steps_completed, "{context}: steps");
    assert_eq!(a.skipped_updates, b.skipped_updates, "{context}: skips");
    assert_eq!(a.refused_rounds, b.refused_rounds, "{context}: refusals");
    assert_eq!(a.stale_epoch_rejects, b.stale_epoch_rejects, "{context}: stale rejects");
    assert_eq!(a.corrupt_rejects, b.corrupt_rejects, "{context}: corrupt rejects");
    assert_eq!(a.retransmit_exhaustions, b.retransmit_exhaustions, "{context}: exhaustions");
    assert_eq!(a.byzantine_selected_rounds, b.byzantine_selected_rounds, "{context}: selections");
    assert_eq!(a.quarantine_events, b.quarantine_events, "{context}: ledger transitions");
    assert_eq!(a.per_worker.len(), b.per_worker.len(), "{context}: per-worker rows");
    for (x, y) in a.per_worker.iter().zip(&b.per_worker) {
        let worker = x.worker;
        assert_eq!(x.worker, y.worker, "{context}: per-worker order");
        assert_eq!(x.stale_epoch_rejects, y.stale_epoch_rejects, "{context}: worker {worker}");
        assert_eq!(x.corrupt_rejects, y.corrupt_rejects, "{context}: worker {worker}");
        assert_eq!(
            x.retransmit_exhaustions, y.retransmit_exhaustions,
            "{context}: worker {worker}"
        );
        assert_eq!(x.quarantines, y.quarantines, "{context}: worker {worker}");
        assert_eq!(x.readmissions, y.readmissions, "{context}: worker {worker}");
        assert_eq!(
            x.final_suspicion.to_bits(),
            y.final_suspicion.to_bits(),
            "{context}: suspicion diverged for worker {worker}: {} vs {}",
            x.final_suspicion,
            y.final_suspicion
        );
    }
    assert_eq!(a.rounds.len(), b.rounds.len(), "{context}: round records");
    for (x, y) in a.rounds.iter().zip(&b.rounds) {
        let round = format!("{context}: round {}", x.step);
        assert_eq!((x.step, x.epoch, x.verdict), (y.step, y.epoch, y.verdict), "{round}");
        assert_eq!(x.wire, y.wire, "{round}: wire outcomes");
        assert_eq!(x.accepted, y.accepted, "{round}: accepted slots");
        assert_eq!(x.selection, y.selection, "{round}: selection");
        assert_eq!(x.round_wait_sec.to_bits(), y.round_wait_sec.to_bits(), "{round}: wait");
        assert_eq!(
            x.aggregation_sec.to_bits(),
            y.aggregation_sec.to_bits(),
            "{round}: aggregation"
        );
    }
    assert_eq!(a.trace.len(), b.trace.len(), "{context}: trace length");
    for (p, q) in a.trace.points().iter().zip(b.trace.points()) {
        assert_eq!(p.step, q.step, "{context}: trace steps");
        assert_eq!(
            p.time_sec.to_bits(),
            q.time_sec.to_bits(),
            "{context}: clock diverged at step {}: {} vs {}",
            p.step,
            p.time_sec,
            q.time_sec
        );
        assert_eq!(
            p.accuracy.to_bits(),
            q.accuracy.to_bits(),
            "{context}: accuracy diverged at step {}: {} vs {}",
            p.step,
            p.accuracy,
            q.accuracy
        );
        assert_eq!(
            p.loss.to_bits(),
            q.loss.to_bits(),
            "{context}: loss diverged at step {}: {} vs {}",
            p.step,
            p.loss,
            q.loss
        );
    }
}
