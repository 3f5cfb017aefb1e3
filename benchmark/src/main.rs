//! The repo's benchmark: times `SyncTrainingEngine::run` on five workloads
//! and traces a replay of each layer by layer. See `README.md`.
//!
//! The harness re-executes itself for every timed sample and traced run, so
//! each sample has its own address space (and its own `VmHWM`).

mod children;
mod clock;
mod metrics;
mod probes;
mod replay;
mod spans;
mod stats;
mod workloads;

use children::{Check, Metric, Sample, TraceRecord};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::Workload;

const USAGE: &str = "\
usage: run.sh [--workload <name>] [--seed <n>] [--passes <k>] [--aa] [--tiny]
       run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>

Without --trace: every workload (or the one named) in interleaved passes,
both metric families, exit 1 when a check fails; --aa runs two sets and
compares their medians against the bounds in BENCHMARK.json.
With --trace: one workload for about <s> seconds of timed rounds; the last
line of output is the result as one JSON object.";

/// Fixed seeds of the quality runs that give `ps.steps_to_target`. They do
/// not follow `--seed`: rounds-to-target varies by tens of percent from one
/// seed to the next, which would drown `time_to_target_s` in seed noise.
const QUALITY_SEEDS: [u64; 5] = [101, 102, 103, 104, 105];

/// Test accuracy every timed run must end above, whatever its seed: five
/// times chance on the ten-class task. The per-workload targets are held to
/// the quality runs, whose seeds are fixed; a timed run on an arbitrary seed
/// can end a few points under a target it crossed rounds earlier.
const LEARNING_FLOOR: f64 = 0.5;

#[derive(Debug, Default)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    passes: usize,
    aa: bool,
    tiny: bool,
    child: Option<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options { seed: 42, passes: 25, ..Options::default() };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        fn parsed<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
            text.parse().map_err(|_| format!("{flag}: cannot read {text}"))
        }
        match flag.as_str() {
            "--workload" => options.workload = Some(value()?.clone()),
            "--seed" => options.seed = parsed(flag, value()?)?,
            "--seconds" => options.seconds = Some(parsed(flag, value()?)?),
            "--trace" => options.trace = Some(parsed::<u8>(flag, value()?)? != 0),
            "--passes" => options.passes = parsed::<usize>(flag, value()?)?.max(2),
            "--child" => options.child = Some(value()?.clone()),
            "--aa" => options.aa = true,
            "--tiny" => options.tiny = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(options)
}

/// Where the span files go: `benchmark/bench-output/`, git-ignored.
fn span_file(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("bench-output")
        .join(format!("trace-{workload}.jsonl"))
}

/// Runs one child of this executable to completion and parses the JSON
/// object on the last line of its output.
fn run_child<T: serde::Deserialize>(
    kind: &str,
    workload: Workload,
    options: &Options,
    threads: usize,
) -> Result<T, String> {
    let mut command = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    command
        .args(["--child", kind, "--workload", workload.name])
        .args(["--seed", &options.seed.to_string()])
        .env("RAYON_NUM_THREADS", threads.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if workload.tiny {
        command.arg("--tiny");
    }
    let output = command.output().map_err(|e| format!("cannot start a {kind} child: {e}"))?;
    if !output.status.success() {
        return Err(format!("{kind} child of {} ended with {}", workload.name, output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text.lines().last().ok_or(format!("{kind} child printed nothing"))?;
    serde_json::from_str(line).map_err(|e| format!("{kind} child output: {e}"))
}

/// How long a set samples.
#[derive(Debug, Clone, Copy)]
enum Budget {
    /// A fixed number of interleaved passes.
    Passes(usize),
    /// Until every workload has this many seconds of timed `run()`.
    Seconds(f64),
}

/// Everything measured for one workload in one set.
struct WorkloadResult {
    workload: Workload,
    samples: Vec<Sample>,
    /// Samples whose child failed; their rounds count as failed rounds.
    lost_samples: u64,
    steps_to_target: u64,
    trace: Option<TraceRecord>,
    checks: Vec<Check>,
}

/// Median, quartiles and count of one end-to-end metric.
#[derive(Debug, Clone, Copy)]
struct Summary {
    median: f64,
    q1: f64,
    q3: f64,
    count: usize,
}

fn summarize(values: &[f64]) -> Summary {
    let [q1, median, q3] = stats::quartiles(values);
    Summary { median, q1, q3, count: values.len() }
}

impl WorkloadResult {
    fn round_ms(&self, seconds: impl Fn(&Sample) -> f64) -> Vec<f64> {
        self.samples.iter().map(|s| seconds(s) * 1e3 / s.rounds as f64).collect()
    }

    fn rounds_attempted(&self) -> u64 {
        (self.samples.len() as u64 + self.lost_samples) * self.workload.rounds
    }

    /// Rounds skipped or refused, plus every round of a sample that errored
    /// or broke a correctness check.
    fn rounds_failed(&self) -> u64 {
        let reference = self.samples.first().map(|s| s.digest.as_str());
        self.samples
            .iter()
            .map(|s| {
                let unapplied =
                    (s.reported("ps.skipped_updates") + s.reported("ps.refused_rounds")) as u64;
                let broken = Some(s.digest.as_str()) != reference
                    || s.reported("ps.rounds") as u64 + unapplied != s.rounds;
                if broken {
                    s.rounds
                } else {
                    unapplied
                }
            })
            .sum::<u64>()
            + self.lost_samples * self.workload.rounds
    }

    /// The end-to-end metrics, in `metrics::END_TO_END` order.
    fn end_to_end(&self) -> [Summary; 6] {
        let wall = summarize(&self.round_ms(|s| s.wall_s));
        let to_target = self.steps_to_target as f64 / 1e3;
        let setups: Vec<f64> = self.samples.iter().flat_map(|s| s.setup_s.clone()).collect();
        let rss: Vec<f64> = self.samples.iter().map(|s| s.peak_rss_kb as f64 / 1024.0).collect();
        let applied = 1.0 - self.rounds_failed() as f64 / self.rounds_attempted().max(1) as f64;
        [
            wall,
            summarize(&self.round_ms(|s| s.cpu_s)),
            Summary {
                median: wall.median * to_target,
                q1: wall.q1 * to_target,
                q3: wall.q3 * to_target,
                count: wall.count,
            },
            summarize(&setups),
            summarize(&rss),
            Summary { median: applied, q1: applied, q3: applied, count: self.samples.len() },
        ]
    }

    /// The per-layer metrics, in `metrics::PER_LAYER` order: the traced
    /// child's spans, counts and probes, the timed samples' report counters,
    /// and what relates the two.
    fn per_layer(&self) -> Vec<f64> {
        let trace = self.trace.as_ref();
        let e2e = self.end_to_end();
        let (round_wall_ms, round_cpu_ms) = (e2e[0].median, e2e[1].median);
        let layer_self_ms: f64 =
            trace.map_or(0.0, |t| t.layer_self_ms.iter().map(|m| m.value).sum());
        let report = self.samples.first();
        let wall_ms = self.round_ms(|s| s.wall_s);
        let sim_over_wall: Vec<f64> =
            self.samples.iter().map(|s| s.simulated_time_sec / s.wall_s).collect();
        metrics::PER_LAYER
            .iter()
            .map(|&(name, _)| match name {
                "ps.engine_unaccounted_ms" => round_cpu_ms - layer_self_ms,
                "ps.steps_to_target" => self.steps_to_target as f64,
                "ps.sim_over_wall" => stats::median(&sim_over_wall),
                "trace.accounted_share" => layer_self_ms / round_cpu_ms,
                "trace.parallel_speedup" => round_cpu_ms / round_wall_ms,
                "trace.round_wall_q1_ms" => e2e[0].q1,
                "trace.round_wall_hi_ms" => stats::high_percentile(&wall_ms).1,
                // A span, count or probe of the traced child, or a counter of
                // the timed runs' report.
                other => trace
                    .and_then(|t| t.metrics.iter().find(|m| m.name == other))
                    .map_or_else(|| report.map_or(0.0, |s| s.reported(other)), |m| m.value),
            })
            .collect()
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// Rounds to the workload's target accuracy: the median over the quality
/// seeds of the first evaluated step at or above the target, evaluating every
/// step. `None` when a quality run never gets there.
fn steps_to_target(workload: Workload) -> Result<Option<u64>, agg_ps::PsError> {
    let mut steps = Vec::new();
    for seed in QUALITY_SEEDS {
        let config = workload.config(seed, workload.quality_rounds, 1);
        let report = agg_ps::SyncTrainingEngine::new(config)?.run()?;
        match report.trace.steps_to_accuracy(workload.target_accuracy) {
            Some(step) => steps.push(step as f64),
            None => return Ok(None),
        }
    }
    Ok(Some(stats::median(&steps) as u64))
}

/// The checks every set makes on a workload's timed samples.
fn sample_checks(result: &WorkloadResult) -> Vec<Check> {
    let samples = &result.samples;
    let mut digests: Vec<&str> = samples.iter().map(|s| s.digest.as_str()).collect();
    digests.dedup();
    let mut checks = vec![
        Check {
            name: "every_sample_ran".into(),
            ok: result.lost_samples == 0 && !samples.is_empty(),
            detail: format!("{} of {} samples lost", result.lost_samples, samples.len()),
        },
        Check {
            name: "one_digest_across_samples".into(),
            ok: digests.len() == 1,
            detail: format!("digest {}", digests.join(" != ")),
        },
        Check {
            name: "every_round_applied".into(),
            ok: result.rounds_failed() == 0,
            detail: format!(
                "{} of {} rounds failed",
                result.rounds_failed(),
                result.rounds_attempted()
            ),
        },
    ];
    if result.workload.tiny {
        return checks;
    }
    checks.push(Check {
        name: "timed_runs_learn".into(),
        ok: samples.iter().all(|s| s.reported("ps.final_accuracy") >= LEARNING_FLOOR),
        detail: format!(
            "final accuracy {:.3}, floor {LEARNING_FLOOR}",
            samples.first().map_or(f64::NAN, |s| s.reported("ps.final_accuracy"))
        ),
    });
    if result.workload.name == "elastic_tree256" {
        let seen = samples.first().map_or((0.0, 0.0), |s| {
            (s.reported("ps.corrupt_rejects"), s.reported("ps.quarantines"))
        });
        checks.push(Check {
            name: "chaos_and_ledger_are_live".into(),
            ok: seen.0 > 0.0 && seen.1 > 0.0,
            detail: format!("{} corrupt rejects, {} quarantines", seen.0, seen.1),
        });
    }
    checks
}

/// One set: timed samples in interleaved passes (pass `i` takes sample `i`
/// of every workload in turn, so each workload's samples span the whole
/// set), the quality runs, and one traced run per workload when `traced`.
fn run_set(
    workloads: &[Workload],
    options: &Options,
    budget: Budget,
    traced: bool,
) -> Result<Vec<WorkloadResult>, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut results: Vec<WorkloadResult> = workloads
        .iter()
        .map(|&workload| WorkloadResult {
            workload,
            samples: Vec::new(),
            lost_samples: 0,
            steps_to_target: 0,
            trace: None,
            checks: Vec::new(),
        })
        .collect();
    let mut pass = 0;
    loop {
        let mut sampled = false;
        for result in &mut results {
            let timed: f64 = result.samples.iter().map(|s| s.wall_s).sum();
            let wanted = match budget {
                Budget::Passes(passes) => pass < passes,
                // At least three samples, or there are no quartiles to speak of.
                Budget::Seconds(seconds) => pass < 3 || timed < seconds,
            };
            // A workload that keeps losing its samples must not loop forever.
            if !wanted || result.lost_samples >= 3 {
                continue;
            }
            sampled = true;
            match run_child::<Sample>("sample", result.workload, options, threads) {
                Ok(sample) => result.samples.push(sample),
                Err(error) => {
                    eprintln!("{error}");
                    result.lost_samples += 1;
                }
            }
        }
        if !sampled {
            break;
        }
        pass += 1;
    }
    for result in &mut results {
        result.checks = sample_checks(result);
        match steps_to_target(result.workload).map_err(|e| e.to_string())? {
            Some(steps) => result.steps_to_target = steps,
            None => result.checks.push(Check {
                name: "quality_runs_reach_target".into(),
                ok: false,
                detail: format!("target {} not reached", result.workload.target_accuracy),
            }),
        }
        if traced {
            // One thread: Phase 1 runs the workers in turn, so a span's wall
            // time is its CPU time.
            let record: TraceRecord = run_child("trace", result.workload, options, 1)?;
            result.checks.extend(record.checks.iter().cloned());
            result.trace = Some(record);
        }
    }
    Ok(results)
}

fn print_end_to_end(result: &WorkloadResult) {
    println!(
        "{:<22} {:<6} {:>12} {:>12} {:>12} {:>4}",
        "end-to-end", "unit", "median", "q1", "q3", "n"
    );
    for ((name, unit), s) in metrics::END_TO_END.iter().zip(result.end_to_end()) {
        println!(
            "{name:<22} {unit:<6} {:>12.5} {:>12.5} {:>12.5} {:>4}",
            s.median, s.q1, s.q3, s.count
        );
    }
}

fn print_per_layer(result: &WorkloadResult) {
    let wall_ms = result.round_ms(|s| s.wall_s);
    println!(
        "per-layer (traced run; round_wall hi = p{:.0} of {} samples)",
        stats::high_percentile(&wall_ms).0,
        wall_ms.len()
    );
    for ((name, unit), value) in metrics::PER_LAYER.iter().zip(result.per_layer()) {
        println!("{name:<34} {unit:<8} {value:>14.5}");
    }
    if let Some(trace) = &result.trace {
        let total: f64 = trace.layer_self_ms.iter().map(|m| m.value).sum();
        let shares: Vec<String> = trace
            .layer_self_ms
            .iter()
            .map(|Metric { name, value }| format!("{name} {:.1} %", 100.0 * value / total))
            .collect();
        println!(
            "layer self time {total:.3} ms/round (replay CPU {:.3} ms/round): {}",
            trace.replay_cpu_ms,
            shares.join(", ")
        );
        println!("spans: {}", span_file(result.workload.name).display());
    }
}

fn print_checks(result: &WorkloadResult) {
    println!("digest {}", result.samples.first().map_or("-", |s| s.digest.as_str()));
    for check in &result.checks {
        println!(
            "check {:<34} {} ({})",
            check.name,
            if check.ok { "ok" } else { "FAILED" },
            check.detail
        );
    }
}

/// The result line of the builder's contract.
fn result_json(result: &WorkloadResult, traced: bool) -> String {
    let values: Vec<(&str, &str, f64)> = if traced {
        metrics::PER_LAYER.iter().zip(result.per_layer()).map(|(&(n, u), v)| (n, u, v)).collect()
    } else {
        let e2e = result.end_to_end();
        metrics::END_TO_END.iter().zip(e2e).map(|(&(n, u), s)| (n, u, s.median)).collect()
    };
    let finite = values.iter().all(|(_, _, v)| v.is_finite());
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct() && finite,
        result.rounds_attempted().max(1),
        result.rounds_failed(),
        metrics.join(", ")
    )
}

/// The regression bound `BENCHMARK.json` fixes for each end-to-end metric,
/// in `metrics::END_TO_END` order.
fn declared_bounds() -> Result<Vec<f64>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let declared: serde::Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let Ok(serde::Value::Seq(entries)) = declared.get_field("end_to_end") else {
        return Err(format!("{path}: end_to_end must be a list"));
    };
    metrics::END_TO_END
        .iter()
        .map(|&(name, _)| {
            entries
                .iter()
                .find(|e| e.get_field("name") == Ok(&serde::Value::Str(name.into())))
                .and_then(|e| match e.get_field("bound") {
                    Ok(serde::Value::F64(bound)) => Some(*bound),
                    _ => None,
                })
                .ok_or(format!("{path}: no bound for {name}"))
        })
        .collect()
}

/// `--aa`: two sets of the same code, medians side by side with the bound.
fn print_aa(first: &[WorkloadResult], second: &[WorkloadResult], bounds: &[f64]) -> bool {
    let mut within = true;
    println!(
        "\n{:<18} {:<22} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "set A", "set B", "diff %", "bound %"
    );
    for (a, b) in first.iter().zip(second) {
        let rows = metrics::END_TO_END.iter().zip(a.end_to_end()).zip(b.end_to_end());
        for ((((name, _), sa), sb), &bound) in rows.zip(bounds) {
            let diff = (sb.median - sa.median).abs() / sa.median;
            let ok = diff <= bound;
            within &= ok;
            println!(
                "{:<18} {name:<22} {:>12.5} {:>12.5} {:>8.2} {:>7.1}{}",
                a.workload.name,
                sa.median,
                sb.median,
                diff * 100.0,
                bound * 100.0,
                if ok { "" } else { "  EXCEEDED" }
            );
        }
    }
    within
}

fn run(options: &Options) -> Result<bool, String> {
    let named = match &options.workload {
        Some(name) => Some(Workload::by_name(name).ok_or(format!("unknown workload {name}"))?),
        None => None,
    };
    let size = |w: Workload| if options.tiny { w.tiny() } else { w };

    if let Some(kind) = &options.child {
        let workload = size(named.ok_or("--child needs --workload")?);
        fn json_line<T: serde::Serialize, E: ToString>(
            record: Result<T, E>,
        ) -> Result<String, String> {
            let record = record.map_err(|e| e.to_string())?;
            serde_json::to_string(&record).map_err(|e| e.to_string())
        }
        let line = match kind.as_str() {
            "sample" => json_line(children::sample(workload, options.seed)),
            "trace" => {
                json_line(children::trace(workload, options.seed, &span_file(workload.name)))
            }
            other => Err(format!("unknown child kind {other}")),
        }?;
        println!("{line}");
        return Ok(true);
    }

    if let Some(traced) = options.trace {
        // The builder's contract: one workload, a seconds budget, one family
        // of metrics, the result as the last line.
        let workload = size(named.ok_or("--trace needs --workload")?);
        let seconds = options.seconds.ok_or("--trace needs --seconds")?;
        // A traced run spends most of its time in the replay and the probes;
        // it needs the timed samples only for round_cpu_ms and the counters.
        let budget = Budget::Seconds(if traced { seconds / 3.0 } else { seconds });
        let results = run_set(&[workload], options, budget, traced)?;
        let result = &results[0];
        println!("workload {} seed {}", workload.name, options.seed);
        if traced {
            print_per_layer(result);
        } else {
            print_end_to_end(result);
        }
        print_checks(result);
        println!("{}", result_json(result, traced));
        return Ok(result.correct());
    }

    let workloads: Vec<Workload> = match named {
        Some(workload) => vec![size(workload)],
        None => workloads::ALL.iter().map(|&w| size(w)).collect(),
    };
    let budget = Budget::Passes(options.passes);
    let mut sets = Vec::new();
    for set in 0..if options.aa { 2 } else { 1 } {
        let results = run_set(&workloads, options, budget, true)?;
        for result in &results {
            println!("\n== {} (seed {}, set {}) ==", result.workload.name, options.seed, set + 1);
            print_end_to_end(result);
            print_per_layer(result);
            print_checks(result);
        }
        sets.push(results);
    }
    let mut ok = sets.iter().flatten().all(WorkloadResult::correct);
    if let [first, second] = sets.as_slice() {
        ok &= print_aa(first, second, &declared_bounds()?);
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&options) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(error) => {
            eprintln!("benchmark failed: {error}");
            ExitCode::FAILURE
        }
    }
}
