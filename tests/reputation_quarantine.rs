//! The reputation ledger end to end: decayed suspicion scores folded from
//! the engine's evidence streams, automatic quarantine with probationary
//! readmission, and the tree tier's collusion-breaking containment
//! reshuffles.
//!
//! Three contracts are pinned here:
//!
//! * **No false positives** — honest workers under a moderate chaos plan
//!   (corruption, drops, duplicates, retransmit exhaustion, quorum
//!   straggling) accrue evidence but are *never* quarantined: the default
//!   config's honest-ceiling arithmetic (`Σ honest weights / (1 − λ)`)
//!   sits strictly below the quarantine threshold, and the proptest block
//!   generalises the pin over arbitrary honest evidence sequences.
//! * **Bounded-round capture** — the identity-rotating adaptive adversary
//!   at the paper's deployment size (n = 19, f = 4) is quarantined within
//!   a handful of rounds: its rotation pays a stale-epoch fence hit per
//!   rejoin and its identical crafted rows light up the collusion-affinity
//!   sketch, neither of which geometric decay can forget fast enough.
//! * **Containment beyond the composed bound** — with suspicion-ranked
//!   reshuffles, a Multi-Krum tree survives `GroupCollusion` at
//!   `byzantine_count` far above `composed_max_f`: the most-suspect
//!   workers are concentrated into sacrificial groups (each fully
//!   captured, then out-voted at the root) while every other group stays
//!   below its clique-capture threshold.
//!
//! Everything is seeded; the determinism tests below run the flat ledger
//! and the tree reshuffles at thread budgets 1, 2 and 4, and assert the
//! reports agree bit for bit, ledger state included.

mod common;

use agg_attacks::AttackKind;
use agg_core::{GarConfig, GarKind, TreeConfig};
use agg_net::{ChaosConfig, LinkConfig, LossPolicy, RetransmitConfig};
use agg_nn::schedule::LearningRate;
use agg_ps::{
    reputation, FaultAction, FaultPlan, ReputationConfig, ReputationLedger, RoundEvidence,
    RoundRecord, RoundVerdict, RunnerConfig, StandingChange, TransportKind, WorkerReport,
};
use common::{assert_deterministic, run};
use proptest::prelude::*;

fn base_config(gar: GarKind, f: usize, workers: usize) -> RunnerConfig {
    RunnerConfig {
        experiment: agg_ps::ExperimentKind::MlpBlobs {
            input_dim: 16,
            hidden: 24,
            classes: 4,
            samples: 600,
        },
        gar: GarConfig::new(gar, f),
        workers,
        max_steps: 40,
        eval_every: 10,
        eval_samples: 120,
        batch_size: 16,
        learning_rate: LearningRate::Fixed { rate: 0.01 },
        seed: 23,
        reputation: Some(ReputationConfig::default()),
        ..RunnerConfig::quick_default()
    }
}

/// Degrades the trailing `lossy` links with the moderate chaos mix and the
/// default retransmit recovery — the wire conditions an honest worker must
/// survive without ever being quarantined.
fn degrade(config: &mut RunnerConfig, lossy: usize) {
    config.transport = TransportKind::Lossy { policy: LossPolicy::DropGradient };
    config.lossy_links = lossy;
    config.link = LinkConfig::datacenter().with_drop_rate(0.05);
    config.chaos = Some(ChaosConfig::moderate());
    config.retransmit = Some(RetransmitConfig::default());
}

// ---------------------------------------------------------------------------
// False-positive guarantee
// ---------------------------------------------------------------------------

#[test]
fn honest_workers_under_moderate_chaos_are_never_quarantined() {
    // All-honest roster, three degraded links running the full chaos mix
    // with retransmit recovery: corruption and exhaustion evidence flows
    // into the ledger every round, yet no score may ever cross the
    // threshold — the acceptance criterion's zero-false-positive pin.
    let mut config = base_config(GarKind::MultiKrum, 2, 9);
    degrade(&mut config, 3);
    let report = run(config);

    assert!(report.quarantine_events.is_empty(), "honest run must stay quarantine-free");
    assert_eq!(report.quarantine_count(), 0);
    let threshold = reputation::QUARANTINE_THRESHOLD;
    let per_worker = report.per_worker();
    assert_eq!(per_worker.len(), 9);
    for stat in &per_worker {
        assert!(
            stat.final_suspicion < threshold,
            "worker {} ended at suspicion {} >= threshold {}",
            stat.worker,
            stat.final_suspicion,
            threshold
        );
        assert_eq!(stat.quarantines, 0, "worker {}", stat.worker);
    }
    // The pin is only meaningful if the chaos actually produced evidence.
    assert!(report.corrupt_rejects > 0, "the chaos schedule never landed a fault");
    let per_worker_corrupt: u64 = per_worker.iter().map(|s| s.corrupt_rejects).sum();
    assert_eq!(per_worker_corrupt, report.corrupt_rejects, "breakdown must sum to the global");
    let per_worker_stale: u64 = per_worker.iter().map(|s| s.stale_epoch_rejects).sum();
    assert_eq!(per_worker_stale, report.stale_epoch_rejects);
    assert!(report.final_accuracy() > 0.6, "accuracy {}", report.final_accuracy());
}

#[test]
fn retransmit_exhaustion_is_counted_separately_from_plain_loss() {
    // Worker 8's link is fully partitioned with a retransmit budget: every
    // round its recovery exhausts, which must land in the dedicated
    // exhaustion counters (global and per-worker) — not be conflated with
    // the plain losses a budget-less run records.
    let mut config = base_config(GarKind::MultiKrum, 2, 9);
    config.max_steps = 12;
    config.eval_every = 4;
    config.transport = TransportKind::Lossy { policy: LossPolicy::DropGradient };
    config.lossy_links = 1; // worker 8 only
    config.chaos = Some(ChaosConfig { partition_rate: 1.0, ..ChaosConfig::default() });
    config.retransmit = Some(RetransmitConfig::default());
    let report = run(config.clone());
    assert!(report.retransmit_exhaustions > 0, "the partition must exhaust the budget");
    let per_worker = report.per_worker();
    assert_eq!(
        per_worker[8].retransmit_exhaustions, report.retransmit_exhaustions,
        "only the partitioned worker exhausts"
    );
    for stat in &per_worker[..8] {
        assert_eq!(stat.retransmit_exhaustions, 0, "worker {}", stat.worker);
    }
    // Exhaustion alone (weight 0.25, decay 0.7) saturates far below the
    // threshold: a flaky link is degraded service, not an attack.
    assert!(report.quarantine_events.is_empty(), "a partitioned honest link is not Byzantine");

    // The same wire without a retransmit budget records zero exhaustions —
    // the loss is plain, and the counter stays silent.
    config.retransmit = None;
    let plain = run(config);
    assert_eq!(plain.retransmit_exhaustions, 0, "no budget, nothing to exhaust");
}

// ---------------------------------------------------------------------------
// Bounded-round quarantine of the identity-rotating adversary
// ---------------------------------------------------------------------------

#[test]
fn adaptive_rotation_is_quarantined_within_bounded_rounds_and_honest_slots_never() {
    // The acceptance scenario: n = 19, f = 4 Multi-Krum, the adaptive
    // adversary rotating identities from selection feedback, moderate chaos
    // on the four honest degraded links (11..=14) to prove discrimination —
    // honest workers accrue wire evidence while the attackers (15..=18)
    // accrue rotation and collusion evidence, and only the latter cross.
    let mut config = base_config(GarKind::MultiKrum, 4, 19);
    config.byzantine_count = 4;
    config.attack = AttackKind::Adaptive;
    config.adaptive_churn = true;
    degrade(&mut config, 8); // links 11..=18: four honest, four Byzantine
    let report = run(config);

    const BOUND: u64 = 8;
    let per_worker = report.per_worker();
    for stat in &per_worker[15..] {
        let slot = stat.worker;
        assert!(stat.quarantines > 0, "attacker slot {slot} was never quarantined");
        let first = report
            .quarantine_events
            .iter()
            .find(|e| e.worker == slot && e.change == StandingChange::Quarantined)
            .expect("quarantine event recorded");
        assert!(
            first.round <= BOUND,
            "attacker slot {slot} first quarantined at round {} > bound {BOUND}",
            first.round
        );
    }
    for stat in &per_worker[..15] {
        assert_eq!(
            stat.quarantines, 0,
            "honest worker {} was quarantined (suspicion {})",
            stat.worker, stat.final_suspicion
        );
    }
    // Probationary readmission is part of the loop: with 40 rounds and a
    // 12-round quarantine, the attackers come back at least once — and are
    // re-captured, so the last ledger word on them is a quarantine.
    assert!(report.readmission_count() > 0, "no probationary readmission ever happened");
    assert!(
        report.quarantine_count() > report.readmission_count(),
        "every readmitted attacker must be re-quarantined: {} quarantines vs {} readmissions",
        report.quarantine_count(),
        report.readmission_count()
    );
    // The summary surfaces the ledger's work.
    assert!(report.summary().contains("readmitted by the reputation ledger"));
    assert!(report.final_accuracy() > 0.6, "accuracy {}", report.final_accuracy());
}

#[test]
fn slow_rotation_evades_the_default_ledger_by_pacing_below_the_decay_horizon() {
    // The evasion trade-off, pinned from the attacker's side: rotating one
    // slot per 16-round window keeps every slot's stale-epoch evidence
    // sparser than the decay horizon and its jittered stealth rows below
    // the collusion sketch, so the default ledger never fires — but the
    // evasion *is* the mitigation: stealth-shifted gradients at f = 4
    // leave Multi-Krum's selection intact and the run keeps learning.
    let mut config = base_config(GarKind::MultiKrum, 4, 19);
    config.byzantine_count = 4;
    config.attack = AttackKind::SlowRotation { period: 16, z: 0.5 };
    config.adaptive_churn = true;
    let report = run(config);
    assert_eq!(
        report.quarantine_count(),
        0,
        "slow rotation paced past the decay horizon must evade quarantine: {:?}",
        report.quarantine_events
    );
    assert!(report.final_accuracy() > 0.6, "accuracy {}", report.final_accuracy());
}

// ---------------------------------------------------------------------------
// Collusion-breaking containment reshuffles on the tree tier
// ---------------------------------------------------------------------------

#[test]
fn reputation_reshuffles_contain_group_collusion_far_beyond_the_composed_bound() {
    // n = 30 in groups of 6 under a Multi-Krum tree (f_group = f_root = 1):
    // the composed bound tolerates 3 Byzantine workers, yet 15 colluders
    // (half the roster!) attack. Statically placed, they capture three
    // groups outright — enough to capture the 5-way root. With the ledger's
    // containment reshuffle, the affinity sketch flags the cliques in round
    // 0 (before the first aggregation), the suspects are concentrated into
    // ⌊(5−1)/2⌋ = 2 sacrificial groups plus ≤ ⌊(6−1)/2⌋ = 2 per dealt
    // group, and the root out-votes the 2 captured outputs every round.
    let tree = TreeConfig::uniform(GarKind::MultiKrum, 1, 1, 6);
    assert_eq!(tree.composed_max_f(), 3);
    let mut config = base_config(GarKind::MultiKrum, 1, 30);
    config.gar = tree.root;
    config.tree = Some(tree);
    config.byzantine_count = 15;
    config.attack = AttackKind::GroupCollusion { scale: 100.0, group_size: 6 };
    config.reputation = Some(ReputationConfig { reshuffle_every: 1, ..Default::default() });

    let contained = run(config.clone());
    assert_eq!(
        contained.byzantine_selected_rounds, 0,
        "containment must keep every Byzantine row out of the root's selection"
    );
    assert!(contained.final_accuracy() > 0.6, "accuracy {}", contained.final_accuracy());
    assert_eq!(contained.refused_rounds, 0, "containment never breaks the composed floor");

    // The no-ledger baseline proves the attack is live: the same colluders
    // under static contiguous placement capture the root.
    config.reputation = None;
    let captured = run(config);
    assert!(
        captured.byzantine_selected_rounds > 0,
        "static placement at 5× the composed bound must be captured"
    );
    assert!(
        captured.final_accuracy() < contained.final_accuracy(),
        "the captured run must train worse: {} vs {}",
        captured.final_accuracy(),
        contained.final_accuracy()
    );
}

// ---------------------------------------------------------------------------
// The report is a fold over the round records
// ---------------------------------------------------------------------------

#[test]
fn every_report_counter_is_the_sum_of_its_round_records() {
    // Churn (a seeded crash schedule plus the adaptive rotation), chaos on
    // eight links and the ledger: every counter the report carries must be
    // its sum over `rounds`, and the per-worker ledger counts must be the
    // ledger's own transition log.
    let mut config = base_config(GarKind::MultiKrum, 4, 19);
    config.byzantine_count = 4;
    config.attack = AttackKind::Adaptive;
    config.adaptive_churn = true;
    config.fault_plan = FaultPlan::seeded_churn(config.seed, 19, config.max_steps, 3);
    degrade(&mut config, 8);
    let report = run(config);
    let rounds = &report.rounds;
    assert_eq!(rounds.iter().map(|r| r.step).collect::<Vec<_>>(), (0..40).collect::<Vec<_>>());
    assert!(report.quarantine_count() > 0 && report.readmission_count() > 0);
    assert!(report.corrupt_rejects > 0 && report.stale_epoch_rejects > 0);

    let count = |wanted: fn(RoundVerdict) -> bool| {
        rounds.iter().filter(|r| wanted(r.verdict)).count() as u64
    };
    assert_eq!(report.steps_completed, count(|v| v == RoundVerdict::Applied));
    assert_eq!(report.skipped_updates, count(|v| v == RoundVerdict::Skipped));
    assert_eq!(report.refused_rounds, count(|v| v == RoundVerdict::Refused));
    let byzantine =
        |r: &&RoundRecord| r.selection.as_ref().is_some_and(|s| s.iter().any(|&w| w >= 15));
    assert_eq!(report.byzantine_selected_rounds, rounds.iter().filter(byzantine).count() as u64);

    let mut wire = vec![WorkerReport::default(); 19];
    for round in rounds {
        for (stat, slot) in wire.iter_mut().zip(&round.wire) {
            let Some(slot) = slot else { continue };
            stat.stale_epoch_rejects += slot.stale_epoch_rejects;
            stat.corrupt_rejects += slot.corrupt_rejects;
            stat.retransmit_exhaustions += u64::from(slot.retransmit_exhausted);
        }
    }
    for (stat, sums) in report.per_worker().iter().zip(&wire) {
        let w = stat.worker;
        assert_eq!(stat.stale_epoch_rejects, sums.stale_epoch_rejects, "worker {w}");
        assert_eq!(stat.corrupt_rejects, sums.corrupt_rejects, "worker {w}");
        assert_eq!(stat.retransmit_exhaustions, sums.retransmit_exhaustions, "worker {w}");
        let events = |change| {
            let log = report.quarantine_events.iter();
            log.filter(|e| e.worker == w && e.change == change).count() as u64
        };
        assert_eq!(stat.quarantines, events(StandingChange::Quarantined), "worker {w}");
        assert_eq!(stat.readmissions, events(StandingChange::Readmitted), "worker {w}");
    }
    let total = |field: fn(&WorkerReport) -> u64| wire.iter().map(field).sum::<u64>();
    assert_eq!(report.stale_epoch_rejects, total(|s| s.stale_epoch_rejects));
    assert_eq!(report.corrupt_rejects, total(|s| s.corrupt_rejects));
    assert_eq!(report.retransmit_exhaustions, total(|s| s.retransmit_exhaustions));

    // The clock, in step order: every round pays its wait and its
    // aggregation.
    let (mut wait, mut aggregation, mut clock, mut received) = (0.0, 0.0, 0.0, 0);
    for round in rounds {
        wait += round.round_wait_sec;
        aggregation += round.aggregation_sec;
        clock += round.round_wait_sec + round.aggregation_sec;
        received += round.wire.iter().flatten().count() as u64;
    }
    assert_eq!(report.simulated_time_sec.to_bits(), f64::to_bits(clock));
    assert_eq!(report.compute_comm_sec().to_bits(), f64::to_bits(wait));
    assert_eq!(report.aggregation_sec().to_bits(), f64::to_bits(aggregation));
    assert_eq!(report.batches_received(), received);
}

/// FNV-1a fold of every figure the report derives from its records: the
/// round count, the latency split and its share, the batches received
/// and their rate, and every per-worker row.
fn view_fingerprint(report: &agg_ps::TrainingReport) -> u64 {
    let fnv = |hash: u64, word: u64| (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    let mut words = vec![
        report.rounds.len() as u64,
        report.compute_comm_sec().to_bits(),
        report.aggregation_sec().to_bits(),
        report.aggregation_share().to_bits(),
        report.batches_received(),
        report.batches_per_sec().to_bits(),
    ];
    for row in report.per_worker() {
        words.extend([
            row.worker as u64,
            row.stale_epoch_rejects,
            row.corrupt_rejects,
            row.retransmit_exhaustions,
            row.quarantines,
            row.readmissions,
            row.final_suspicion.to_bits(),
        ]);
    }
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, fnv)
}

#[test]
fn report_views_are_pinned() {
    // (a) Churn, the adaptive rotation, chaos on eight links and the ledger.
    let mut churn = base_config(GarKind::MultiKrum, 4, 19);
    churn.byzantine_count = 4;
    churn.attack = AttackKind::Adaptive;
    churn.adaptive_churn = true;
    churn.fault_plan = FaultPlan::seeded_churn(churn.seed, 19, churn.max_steps, 3);
    degrade(&mut churn, 8);
    // (b) Draco at n = 9: three groups replicate one mini-batch each, so the
    // batches received are a third of the submitting slots.
    let tree = TreeConfig::repetition(1);
    let mut draco = base_config(tree.root.kind, tree.root.f, 9);
    draco.tree = Some(tree);
    draco.reputation = None;
    // (c) A Bulyan run whose crash drops the live set below the floor for
    // three rounds, each held and charged for its broadcast.
    let mut refused = base_config(GarKind::Bulyan, 4, 19);
    refused.max_steps = 24;
    refused.eval_every = 6;
    refused.reputation = None;
    refused.byzantine_count = 4;
    refused.attack = AttackKind::Adaptive;
    refused.fault_plan =
        FaultPlan::empty().with(8, 2, FaultAction::Crash).with(11, 2, FaultAction::Rejoin);

    let fingerprints: Vec<u64> =
        [churn, draco, refused].into_iter().map(|c| view_fingerprint(&run(c))).collect();
    assert_eq!(
        fingerprints,
        [0x1807_46ac_2322_0d99, 0x2abb_2174_5168_10df, 0x53f0_22d5_a8af_4025],
        "FNV-1a folds of the views: churn, Draco, held refusals"
    );
}

// ---------------------------------------------------------------------------
// Determinism across thread budgets
// ---------------------------------------------------------------------------

#[test]
fn quarantine_rounds_are_bit_identical_across_thread_and_streaming_modes() {
    // The full ledger pipeline (evidence fold, affinity sketch, quarantine
    // synthesis, readmission) under the adaptive rotation: every thread
    // budget must agree bit for bit — scores, events and per-worker counters
    // included.
    let mut config = base_config(GarKind::MultiKrum, 4, 19);
    config.max_steps = 24;
    config.eval_every = 6;
    config.byzantine_count = 4;
    config.attack = AttackKind::Adaptive;
    config.adaptive_churn = true;
    degrade(&mut config, 8);
    let report = assert_deterministic(&config);
    assert!(
        report.quarantine_count() > 0,
        "the determinism pin must cover actual quarantine traffic"
    );
}

#[test]
fn tree_reshuffle_rounds_are_bit_identical_across_thread_modes() {
    // The containment reshuffle path (suspicion ranking, seeded rotation,
    // epoch bumps) pinned the same way on the tree tier.
    let tree = TreeConfig::uniform(GarKind::MultiKrum, 1, 1, 6);
    let mut config = base_config(GarKind::MultiKrum, 1, 30);
    config.max_steps = 24;
    config.eval_every = 6;
    config.gar = tree.root;
    config.tree = Some(tree);
    config.byzantine_count = 15;
    config.attack = AttackKind::GroupCollusion { scale: 100.0, group_size: 6 };
    config.reputation = Some(ReputationConfig { reshuffle_every: 1, ..Default::default() });
    let report = assert_deterministic(&config);
    assert_eq!(report.byzantine_selected_rounds, 0);

    // The ledger's outcome on the tree tier. The exclusion history that
    // feeds these scores must not move by a bit. The round-15/16 evictions
    // depend on the colluders staying group-aligned after three of them are
    // quarantined, which holds because the adversary crafts for its whole
    // configured roster.
    let transitions: Vec<(u64, usize, bool)> = report
        .quarantine_events
        .iter()
        .map(|e| (e.round, e.worker, e.change == StandingChange::Quarantined))
        .collect();
    assert_eq!(
        transitions,
        vec![
            (3, 15, true),
            (3, 21, true),
            (3, 27, true),
            (15, 15, false),
            (15, 21, false),
            (15, 27, false),
            (15, 18, true),
            (15, 25, true),
            (16, 19, true),
        ]
    );
    let suspicion = report.per_worker().iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, stat| {
        (hash ^ stat.final_suspicion.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(suspicion, 0xbb6c_f736_6aff_0916, "FNV-1a fold of the final_suspicion bits");
    let last = report.trace.points().last().expect("the run evaluates at the end");
    assert_eq!(last.accuracy.to_bits(), 0x3fef_bbbb_bbbb_bbbc);
    assert_eq!(last.loss.to_bits(), 0x3fd9_4971_8000_0000);
}

// ---------------------------------------------------------------------------
// Ledger properties (proptest)
// ---------------------------------------------------------------------------

/// All six evidence streams from one generated bitmask.
fn arbitrary_evidence() -> impl Strategy<Value = RoundEvidence> {
    (0u8..64).prop_map(|bits| RoundEvidence {
        corrupt: bits & 1 != 0,
        stale: bits & 2 != 0,
        exhausted: bits & 4 != 0,
        straggled: bits & 8 != 0,
        excluded: bits & 16 != 0,
        colluding: bits & 32 != 0,
    })
}

/// Honest-plausible evidence: anything the wire or the quorum can do to an
/// honest worker (corruption, exhaustion, straggling, selection exclusion)
/// but never the Byzantine-only streams (stale-epoch rotation, collusion).
fn honest_evidence() -> impl Strategy<Value = RoundEvidence> {
    (0u8..16).prop_map(|bits| RoundEvidence {
        corrupt: bits & 1 != 0,
        stale: false,
        exhausted: bits & 2 != 0,
        straggled: bits & 4 != 0,
        excluded: bits & 8 != 0,
        colluding: false,
    })
}

proptest! {
    #[test]
    fn scores_decay_geometrically_without_evidence(
        seq in prop::collection::vec(arbitrary_evidence(), 1..40),
        quiet in 1u64..30,
    ) {
        // Feed an arbitrary evidence prefix, then go quiet: each quiet
        // round must shrink the score by exactly the decay factor, so any
        // finite evidence burst is eventually forgotten.
        let decay = reputation::DECAY;
        let mut ledger = ReputationLedger::new(ReputationConfig::default(), 1);
        for (round, e) in seq.iter().enumerate() {
            ledger.observe(round as u64, std::slice::from_ref(e));
        }
        let mut previous = ledger.score(0);
        for round in 0..quiet {
            ledger.observe(seq.len() as u64 + round, &[RoundEvidence::default()]);
            let now = ledger.score(0);
            prop_assert!((now - previous * decay).abs() < 1e-12,
                "quiet round must decay exactly: {now} vs {}", previous * decay);
            prop_assert!(now <= previous, "decay must be monotone: {now} > {previous}");
            previous = now;
        }
    }

    #[test]
    fn an_extra_evidence_bit_never_lowers_the_score(
        seq in prop::collection::vec(arbitrary_evidence(), 1..40),
        flip in 0usize..6,
    ) {
        // Monotonicity in the evidence: strengthening any single round's
        // evidence (turning one stream on) can only raise every subsequent
        // score — the threshold crossing is monotone in what the worker did.
        let base_cfg = ReputationConfig::default();
        let mut base = ReputationLedger::new(base_cfg, 1);
        let mut stronger = ReputationLedger::new(base_cfg, 1);
        for (round, e) in seq.iter().enumerate() {
            let mut boosted = *e;
            if round == seq.len() / 2 {
                match flip {
                    0 => boosted.corrupt = true,
                    1 => boosted.stale = true,
                    2 => boosted.exhausted = true,
                    3 => boosted.straggled = true,
                    4 => boosted.excluded = true,
                    _ => boosted.colluding = true,
                }
            }
            base.observe(round as u64, std::slice::from_ref(e));
            stronger.observe(round as u64, std::slice::from_ref(&boosted));
            prop_assert!(stronger.score(0) >= base.score(0) - 1e-12,
                "round {round}: boosted score {} < base {}", stronger.score(0), base.score(0));
        }
    }

    #[test]
    fn honest_evidence_never_crosses_the_default_threshold(
        seq in prop::collection::vec(honest_evidence(), 1..200),
    ) {
        // The false-positive guarantee as a property: *no* sequence of
        // honest-plausible evidence reaches the default threshold, because
        // the geometric series of honest weights converges strictly below
        // it (a compile-time assertion beside the constants).
        let threshold = reputation::QUARANTINE_THRESHOLD;
        let mut ledger = ReputationLedger::new(ReputationConfig::default(), 1);
        for (round, e) in seq.iter().enumerate() {
            ledger.observe(round as u64, std::slice::from_ref(e));
            prop_assert!(ledger.score(0) < threshold,
                "honest worker crossed at round {round}: {}", ledger.score(0));
        }
        prop_assert!(ledger.quarantine_candidates().is_empty());
    }
}
