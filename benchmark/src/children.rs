//! What the two kinds of child process do. The harness re-executes itself:
//! a *sample* child times one `SyncTrainingEngine::run`, a *trace* child
//! replays the workload under spans. Each prints one JSON line.

use crate::clock::{peak_rss_kb, process_cpu_seconds};
use crate::probes;
use crate::replay::Replay;
use crate::spans::Tracer;
use crate::workloads::Workload;
use agg_ps::{PsError, SyncTrainingEngine, TrainingReport};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Rounds of the warm-up run a sample child makes on a throwaway engine.
const WARMUP_ROUNDS: u64 = 3;

/// One timed sample.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sample {
    /// Wall seconds of each `SyncTrainingEngine::new` this child made.
    pub setup_s: Vec<f64>,
    /// Wall seconds of the timed `run()`.
    pub wall_s: f64,
    /// Process CPU seconds (all threads) of the timed `run()`.
    pub cpu_s: f64,
    /// Rounds the timed `run()` was asked for.
    pub rounds: u64,
    /// `VmHWM` after the run, in kB.
    pub peak_rss_kb: u64,
    /// Every deterministic counter of the report plus the bits of the final
    /// accuracy and loss.
    pub digest: String,
    /// The report's counters and final point, under their per-layer metric
    /// names (`ps.rounds` … `ps.final_loss`).
    pub report: Vec<Metric>,
    pub simulated_time_sec: f64,
}

impl Sample {
    /// The report value filed under `name` (0 when there is none).
    pub fn reported(&self, name: &str) -> f64 {
        self.report.iter().find(|m| m.name == name).map_or(0.0, |m| m.value)
    }
}

fn final_loss(report: &TrainingReport) -> f64 {
    report.trace.points().last().map_or(f64::NAN, |p| p.loss)
}

/// The report's deterministic content. `simulated_time_sec` is left out: it
/// folds in the measured aggregation time.
fn digest(report: &TrainingReport) -> String {
    format!(
        "{}.{}.{}.{}.{}.{}.{}.{}.{}.{:016x}.{:016x}",
        report.steps_completed,
        report.skipped_updates,
        report.refused_rounds,
        report.stale_epoch_rejects,
        report.corrupt_rejects,
        report.byzantine_selected_rounds,
        report.retransmit_exhaustions,
        report.quarantine_count(),
        report.readmission_count(),
        report.final_accuracy().to_bits(),
        final_loss(report).to_bits(),
    )
}

/// Builds the engine (timed), warms up on a throwaway engine, then times one
/// `run()` of the workload's round count with evaluation only at the ends.
/// No harness code runs between the start and the end of the timed call.
///
/// # Errors
///
/// Propagates engine errors; the parent counts the sample's rounds as failed.
pub fn sample(workload: Workload, seed: u64) -> Result<Sample, PsError> {
    let mut setup_s = Vec::new();
    let mut build = |rounds: u64| {
        let start = Instant::now();
        let engine = SyncTrainingEngine::new(workload.config(seed, rounds, rounds));
        setup_s.push(start.elapsed().as_secs_f64());
        engine
    };
    build(WARMUP_ROUNDS.min(workload.rounds))?.run()?;
    let mut engine = build(workload.rounds)?;

    let (wall, cpu) = (Instant::now(), process_cpu_seconds());
    let report = engine.run()?;
    let (wall_s, cpu_s) = (wall.elapsed().as_secs_f64(), process_cpu_seconds() - cpu);

    Ok(Sample {
        setup_s,
        wall_s,
        cpu_s,
        rounds: workload.rounds,
        peak_rss_kb: peak_rss_kb().unwrap_or(0),
        digest: digest(&report),
        report: [
            ("ps.rounds", report.steps_completed as f64),
            ("ps.skipped_updates", report.skipped_updates as f64),
            ("ps.refused_rounds", report.refused_rounds as f64),
            ("ps.stale_epoch_rejects", report.stale_epoch_rejects as f64),
            ("ps.corrupt_rejects", report.corrupt_rejects as f64),
            ("ps.retransmit_exhaustions", report.retransmit_exhaustions as f64),
            ("ps.quarantines", report.quarantine_count() as f64),
            ("ps.readmissions", report.readmission_count() as f64),
            ("ps.byzantine_selected_rounds", report.byzantine_selected_rounds as f64),
            ("ps.final_accuracy", report.final_accuracy()),
            ("ps.final_loss", final_loss(&report)),
        ]
        .map(|(name, value)| Metric { name: name.into(), value })
        .to_vec(),
        simulated_time_sec: report.simulated_time_sec,
    })
}

/// A named number.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Metric {
    pub name: String,
    pub value: f64,
}

/// A correctness check and what it saw.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// What a trace child reports.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceRecord {
    /// The per-layer metrics the replay and the probes yield.
    pub metrics: Vec<Metric>,
    /// Self time per round of every layer's spans, in ms.
    pub layer_self_ms: Vec<Metric>,
    /// Process CPU ms per replayed round, probes excluded.
    pub replay_cpu_ms: f64,
    pub checks: Vec<Check>,
}

/// Replays the workload under spans (after the roofline probe, before the
/// kernel and wire-leg probes), writes the span file and checks the replay
/// against the engine.
///
/// # Errors
///
/// Propagates replay, engine and span-file errors.
pub fn trace(
    workload: Workload,
    seed: u64,
    span_file: &std::path::Path,
) -> Result<TraceRecord, Box<dyn std::error::Error>> {
    let (warmup, rounds) = if workload.tiny { (1, 2) } else { (2, 20) };
    let total = warmup + rounds;
    let config = workload.config(seed, total, total);
    let mut replay = Replay::new(config.clone())?;
    let (n, d) = (config.workers, replay.dimension());
    let roofline = probes::roofline(n * d * 4);

    let mut tracer = Tracer::new();
    for step in 0..warmup {
        replay.round(&mut tracer, step)?;
    }
    tracer.clear();
    let cpu = process_cpu_seconds();
    replay.evaluate(&mut tracer)?;
    for step in warmup..total {
        replay.round(&mut tracer, step)?;
    }
    let (accuracy, loss) = replay.evaluate(&mut tracer)?;
    let replay_cpu_ms = (process_cpu_seconds() - cpu) * 1e3 / rounds as f64;

    let arena = replay.arena();
    let kernels = probes::kernels(arena, config.gar, config.shards);
    let legs = probes::wire_legs(&replay.last_gradients, config.link, seed);
    tracer.write_jsonl(span_file)?;

    let per_round = rounds as f64;
    // `run()` evaluates twice per run, whatever its length: the replay's two
    // evaluations are spread over the timed run's rounds, not its own.
    let weight = |name: &str| match name {
        "nn.evaluate" => per_round / workload.rounds as f64,
        _ => 1.0,
    };
    let span_ms = |name: &str| tracer.total_seconds(name) * 1e3 * weight(name) / per_round;
    let count = |name: &str| tracer.counted(name) / per_round;
    let transfer_s: f64 =
        ["net.reliable_transfer", "net.lossy_transfer", "net.recovering_transfer"]
            .iter()
            .map(|name| tracer.total_seconds(name))
            .sum();
    let (rows, dim) = (arena.n() as f64, arena.dim() as f64);
    let pairs = rows * (rows - 1.0) / 2.0;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let values: Vec<(&str, f64)> = vec![
        ("data.next_batch_ms", span_ms("data.next_batch")),
        ("nn.set_parameters_ms", span_ms("nn.set_parameters")),
        ("nn.gradient_ms", span_ms("nn.gradient")),
        (
            "nn.gradient_gflops",
            ratio(tracer.counted("nn.gradient_flops"), tracer.total_seconds("nn.gradient")) / 1e9,
        ),
        ("nn.evaluate_ms", span_ms("nn.evaluate")),
        ("attacks.craft_ms", span_ms("attacks.craft")),
        ("net.reliable_transfer_ms", span_ms("net.reliable_transfer")),
        ("net.lossy_transfer_ms", span_ms("net.lossy_transfer")),
        ("net.recovering_transfer_ms", span_ms("net.recovering_transfer")),
        ("net.split_bytes_ms", legs.split_bytes * 1e3),
        ("net.link_transmit_ms", legs.link_transmit * 1e3),
        ("net.assemble_ms", legs.assemble * 1e3),
        ("net.crc32_ms", legs.crc32 * 1e3),
        ("net.payload_gbps", ratio(tracer.counted("net.payload_bytes"), transfer_s) / 1e9),
        ("net.bytes_sent", count("net.bytes_sent")),
        ("net.packets_sent", count("net.packets_sent")),
        ("net.missing_coords", count("net.missing_coords")),
        ("net.corrupt_rejects", count("net.corrupt_rejects")),
        ("net.retransmits", count("net.retransmits")),
        (
            "net.delivered_share",
            ratio(tracer.counted("net.rows_delivered"), tracer.counted("net.rows_sent")),
        ),
        ("tensor.pairwise_distances_ms", kernels.pairwise_distances * 1e3),
        ("tensor.distance_partials_ms", kernels.distance_partials * 1e3),
        ("tensor.streaming_row_ms", span_ms("tensor.streaming_row")),
        ("tensor.coordinate_median_ms", kernels.coordinate_median * 1e3),
        ("tensor.coordinate_mean_ms", kernels.coordinate_mean * 1e3),
        ("tensor.retain_rows_ms", span_ms("tensor.retain_rows")),
        ("tensor.distance_ns_per_pair_coord", ratio(kernels.pairwise_distances * 1e9, pairs * dim)),
        ("tensor.median_ns_per_row_coord", ratio(kernels.coordinate_median * 1e9, rows * dim)),
        ("tensor.mean_gbps", ratio(rows * dim * 4.0, kernels.coordinate_mean) / 1e9),
        ("roofline.memcpy_gbps", roofline.memcpy_gbps),
        ("roofline.stream_sum_gbps", roofline.stream_sum_gbps),
        ("core.aggregate_ms", span_ms("core.aggregate")),
        ("core.aggregate_primed_ms", kernels.aggregate_primed * 1e3),
        ("core.sharded_aggregate_ms", span_ms("core.sharded_aggregate")),
        ("core.selected_rows_ms", span_ms("core.selected_rows")),
        ("core.tree_group_ms", span_ms("core.tree_group")),
        ("core.tree_root_ms", span_ms("core.tree_root")),
        ("ps.apply_round_ms", span_ms("ps.apply_round")),
        ("ps.optimizer_update_ms", span_ms("ps.optimizer_update")),
        ("ps.pipeline_matrix_ms", span_ms("ps.pipeline_matrix")),
        ("ps.membership_apply_ms", span_ms("ps.membership_apply")),
        ("ps.collusion_flags_ms", span_ms("ps.collusion_flags")),
        ("ps.ledger_observe_ms", span_ms("ps.ledger_observe")),
        ("ps.containment_ms", span_ms("ps.containment")),
    ];

    // Self time per layer; the `replay.round` spans are the harness's own.
    let mut layer_self_ms = std::collections::BTreeMap::<&str, f64>::new();
    for (span, own_ns) in tracer.spans().iter().zip(tracer.self_times_ns()) {
        if span.layer() != "replay" {
            *layer_self_ms.entry(span.layer()).or_insert(0.0) +=
                own_ns as f64 * 1e-6 * weight(span.name) / per_round;
        }
    }

    let mut checks = Vec::new();
    // The replay is a faithful port exactly when it trains the same model:
    // the engine, given the same config, must end on the same point.
    let report = SyncTrainingEngine::new(config)?.run()?;
    let counters = replay.counters;
    let engine_side = (
        report.final_accuracy().to_bits(),
        final_loss(&report).to_bits(),
        [
            report.skipped_updates,
            report.refused_rounds,
            report.stale_epoch_rejects,
            report.corrupt_rejects,
            report.retransmit_exhaustions,
            report.byzantine_selected_rounds,
            report.quarantine_count(),
            report.readmission_count(),
        ],
    );
    let replay_side = (
        accuracy.to_bits(),
        loss.to_bits(),
        [
            counters.skipped,
            counters.refused,
            counters.stale_epoch_rejects,
            counters.corrupt_rejects,
            counters.retransmit_exhaustions,
            counters.byzantine_selected_rounds,
            counters.quarantines,
            counters.readmissions,
        ],
    );
    checks.push(Check {
        name: "replay_matches_engine".into(),
        ok: engine_side == replay_side,
        detail: format!("engine {engine_side:x?} replay {replay_side:x?}"),
    });
    if workload.name == "wire19_lossy" && !workload.tiny {
        let lost =
            ratio(tracer.counted("net.missing_coords"), tracer.counted("net.rows_sent") * d as f64);
        checks.push(Check {
            name: "lossy_links_lose_8_to_12_percent".into(),
            ok: (0.08..=0.12).contains(&lost),
            detail: format!("{:.2} % of coordinates missing", lost * 100.0),
        });
    }

    Ok(TraceRecord {
        metrics: values
            .into_iter()
            .map(|(name, value)| Metric { name: name.into(), value })
            .collect(),
        layer_self_ms: layer_self_ms
            .into_iter()
            .map(|(name, value)| Metric { name: name.into(), value })
            .collect(),
        replay_cpu_ms,
        checks,
    })
}
