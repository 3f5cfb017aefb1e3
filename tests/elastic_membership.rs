//! Elastic membership, end to end: epoch-fenced views, resilience-floor
//! refusals and the omniscient attack family under churn.
//!
//! Two families of pins:
//!
//! * **Determinism** — a churn schedule is part of the round state, so the
//!   parallel phase-1 fan-out, the sharded tier and the quorum cut must all
//!   produce bit-identical reports (traces *and* the elastic counters:
//!   refused rounds, stale-epoch rejects, Byzantine selections) at thread
//!   budgets 1, 2 and 4, exactly as in `round_determinism`.
//!
//! * **Semantics** — a crash→rejoin schedule at the paper's deployment size
//!   behaves identically under every attack in the new family: rounds below
//!   the rule's resilience floor are *refused* (reported, never a panic),
//!   the rejoiner's first submission is rejected by the epoch fence packet
//!   by packet, and under a crude attack the selection set stays honest in
//!   every aggregated round. The within-variance attacks (ALIE, min-max,
//!   min-sum, adaptive) enter Krum-family selections by construction —
//!   that is their published mechanism — so for them the pin is the
//!   faithfully-reported `byzantine_selected_rounds` counter plus the
//!   run's accuracy, not an empty selection.

mod common;

use agg_attacks::AttackKind;
use agg_core::{resilience, GarConfig, GarKind, TreeConfig};
use agg_net::{ChaosConfig, LinkConfig, LossPolicy, RetransmitConfig};
use agg_nn::schedule::LearningRate;
use agg_ps::{
    FaultAction, FaultPlan, QuorumPolicy, RunnerConfig, SyncTrainingEngine, TransportKind,
};
use common::{assert_deterministic, assert_reports_identical, run};

/// The light proxy experiment shared with `round_determinism`: d = 508
/// parameters, which the default 350-coordinate packet codec splits into
/// exactly 2 packets per gradient — the number the stale-epoch pins use.
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
        max_steps: 24,
        eval_every: 6,
        eval_samples: 120,
        batch_size: 16,
        learning_rate: LearningRate::Fixed { rate: 0.01 },
        seed: 23,
        ..RunnerConfig::quick_default()
    }
}

/// A churn schedule exercising all three transitions: a crash→rejoin pair,
/// a second overlapping crash and a slow-by demotion.
fn churn_plan() -> FaultPlan {
    FaultPlan::empty()
        .with(4, 1, FaultAction::Crash)
        .with(9, 1, FaultAction::Rejoin)
        .with(7, 3, FaultAction::Crash)
        .with(12, 3, FaultAction::Rejoin)
        .with(2, 0, FaultAction::SlowBy { delay_sec: 0.5 })
}

#[test]
fn churn_schedule_is_bit_identical_across_parallel_and_sequential() {
    // Adaptive attacker + churn: the selection-feedback loop, the epoch
    // fence and the floor check all run inside the round, and none of them
    // may depend on the phase-1 execution order.
    let mut config = base_config(GarKind::MultiKrum, 2, 9);
    config.byzantine_count = 2;
    config.attack = AttackKind::Adaptive;
    config.fault_plan = churn_plan();
    let report = assert_deterministic(&config);
    // Both fenced rejoins fired: 2 rejoiners × 2 packets each.
    assert_eq!(report.stale_epoch_rejects, 4);
    assert_eq!(report.steps_completed, 24);
}

#[test]
fn churn_on_the_sharded_tier_matches_sequential_shard_order() {
    let mut config = base_config(GarKind::MultiKrum, 2, 9);
    config.shards = 4;
    config.byzantine_count = 2;
    config.attack = AttackKind::Alie { z: 0.0 };
    config.fault_plan = churn_plan();
    assert_deterministic(&config);
}

#[test]
fn churn_streaming_quorum_matches_the_barrier_path() {
    // The full stack at once: churn + an n − f quorum. The quorum is
    // computed over the *live* worker count, so the membership view feeds
    // straight into the accept threshold, and every budget must agree bit
    // for bit.
    let mut config = base_config(GarKind::MultiKrum, 2, 9);
    config.byzantine_count = 2;
    config.attack = AttackKind::MinSum;
    config.fault_plan = churn_plan();
    config.streaming.quorum = QuorumPolicy::NMinusF;
    assert_deterministic(&config);
}

#[test]
fn seeded_churn_plans_are_deterministic_and_runnable() {
    // The generator is pure in its inputs…
    let a = FaultPlan::seeded_churn(77, 9, 24, 3);
    let b = FaultPlan::seeded_churn(77, 9, 24, 3);
    assert_eq!(a, b);
    assert!(!a.is_empty());
    // …and its schedules pass config validation and run to completion with
    // the same bits at every thread budget.
    let mut config = base_config(GarKind::MultiKrum, 2, 9);
    config.byzantine_count = 2;
    config.attack = AttackKind::MinMax;
    config.fault_plan = a;
    config.validate().expect("generated plans are always valid");
    assert_deterministic(&config);
}

#[test]
fn crude_attacks_under_churn_keep_the_selection_set_honest() {
    // Reversed gradients are outliers by construction, so across the whole
    // crash→rejoin run Multi-Krum's selection must never admit a Byzantine
    // row — the engine-level counterpart of the attack-matrix exclusion pin.
    let mut config = base_config(GarKind::MultiKrum, 2, 9);
    config.byzantine_count = 2;
    config.attack = AttackKind::Reversed { scale: 50.0 };
    config.fault_plan =
        FaultPlan::empty().with(5, 1, FaultAction::Crash).with(8, 1, FaultAction::Rejoin);
    let report = run(config);
    assert_eq!(report.byzantine_selected_rounds, 0, "selection admitted a Byzantine row");
    assert_eq!(report.refused_rounds, 0, "9 − 1 live workers stay above Multi-Krum's floor");
    assert_eq!(report.stale_epoch_rejects, 2, "one fenced rejoin × two packets");
}

#[test]
fn crash_rejoin_with_every_new_attack_under_multi_krum_and_bulyan() {
    // The acceptance matrix: a crash→rejoin schedule at the paper's
    // deployment size (n = 19, f = 4) crossed with the omniscient attack
    // family, under both the weakly (Multi-Krum, floor 2f + 3 = 11) and the
    // strongly (Bulyan, floor 4f + 3 = 19) resilient rule.
    assert_eq!(resilience::resilience_floor(GarKind::MultiKrum, 4), 11);
    assert_eq!(resilience::resilience_floor(GarKind::Bulyan, 4), 19);
    let attacks =
        [AttackKind::Alie { z: 0.0 }, AttackKind::MinMax, AttackKind::MinSum, AttackKind::Adaptive];
    for attack in attacks {
        for gar in [GarKind::MultiKrum, GarKind::Bulyan] {
            let mut config = base_config(gar, 4, 19);
            config.byzantine_count = 4;
            config.attack = attack;
            config.fault_plan =
                FaultPlan::empty().with(8, 2, FaultAction::Crash).with(11, 2, FaultAction::Rejoin);
            let report = run(config);
            match gar {
                GarKind::MultiKrum => {
                    // 18 live workers stay above the floor: nothing refused,
                    // nothing skipped, the crash rounds simply aggregate the
                    // remaining submissions.
                    assert_eq!(report.refused_rounds, 0, "{attack:?}/{gar}");
                    assert_eq!(report.skipped_updates, 0, "{attack:?}/{gar}");
                    assert_eq!(report.steps_completed, 24, "{attack:?}/{gar}");
                }
                GarKind::Bulyan => {
                    // n = 19 is exactly Bulyan's floor, so the three crash
                    // rounds are refused (graceful, in the report), and the
                    // rejoiner's fenced round leaves 18 < 19 rows — a skipped
                    // update, not a refusal.
                    assert_eq!(report.refused_rounds, 3, "{attack:?}/{gar}");
                    assert_eq!(report.skipped_updates, 1, "{attack:?}/{gar}");
                    assert_eq!(report.steps_completed, 24 - 4, "{attack:?}/{gar}");
                }
                _ => unreachable!(),
            }
            // The fence rejects the rejoiner's stale-epoch submission packet
            // by packet: d = 508 → exactly 2 packets.
            assert_eq!(report.stale_epoch_rejects, 2, "{attack:?}/{gar}");
            // Within-variance attacks may enter the selection (that is the
            // attack); the counter just has to be faithfully reported, and
            // the run has to keep learning regardless.
            assert!(
                report.final_accuracy() > 0.4,
                "{attack:?}/{gar}: accuracy {}",
                report.final_accuracy()
            );
        }
    }
}

#[test]
fn adaptive_churn_times_crashes_from_selection_feedback() {
    // Attacker-controlled churn timing: instead of a pre-declared schedule,
    // the adaptive adversary crashes its lead worker when the selection
    // excluded it and rejoins it once its gradients are being selected —
    // all through the same epoch-fenced membership machinery, so directives
    // can never exceed what a fault plan could schedule.
    let mut config = base_config(GarKind::MultiKrum, 2, 9);
    config.byzantine_count = 2;
    config.attack = AttackKind::Adaptive;
    config.adaptive_churn = true;
    // The attacker's timing decisions are deterministic functions of the
    // feedback, so the run stays bit-identical at every thread budget.
    let report = assert_deterministic(&config);
    // The adversary actually churned: the epoch advanced without any
    // scheduled fault plan, and the fence caught the timed rejoin.
    let mut churned = SyncTrainingEngine::new(config.clone()).expect("valid config");
    churned.run().expect("churned run");
    assert!(churned.membership().epoch() > 0, "the adversary never exercised its churn channel");
    assert!(
        report.stale_epoch_rejects > 0,
        "a timed rejoin must be fenced exactly like a scheduled one"
    );
    // Flipping the knob off with everything else identical restores the
    // static view: same attack, no churn, epoch pinned at 0.
    config.adaptive_churn = false;
    let mut baseline = SyncTrainingEngine::new(config).expect("valid config");
    let baseline_report = baseline.run().expect("static run");
    assert_eq!(baseline.membership().epoch(), 0);
    assert_eq!(baseline_report.stale_epoch_rejects, 0);
    assert_eq!(report.steps_completed, 24, "churn never costs a MultiKrum round here");
}

#[test]
fn refusal_policies_degrade_gracefully_not_fatally() {
    // A refused round holds the last model: the run finishes, reports the
    // refusals, keeps charging the broadcast rounds and never turns a floor
    // violation into an error.
    let mut config = base_config(GarKind::Bulyan, 4, 19);
    config.byzantine_count = 4;
    config.attack = AttackKind::Adaptive;
    config.fault_plan =
        FaultPlan::empty().with(8, 2, FaultAction::Crash).with(11, 2, FaultAction::Rejoin);
    let report = run(config);
    assert_eq!(report.refused_rounds, 3);
    assert_eq!(report.steps_completed, 20);
    assert_eq!(report.charged_rounds(), 24);
    assert!(report.summary().contains("3 refused below the resilience floor"));
}

#[test]
fn static_membership_is_the_empty_plan() {
    // A rejoin of a live worker is a no-op: it changes no health, bumps no
    // epoch and fences nothing. A run with only that event must therefore be
    // the static run, record for record and bit for bit, on every tier.
    let paper19 = RunnerConfig {
        byzantine_count: 4,
        attack: AttackKind::SignFlip,
        ..base_config(GarKind::MultiKrum, 4, 19)
    };
    let mut delays = vec![0.0; 19];
    for straggler in [0, 5, 10, 15] {
        delays[straggler] = 0.05;
    }
    let mut stream19_sharded = RunnerConfig {
        byzantine_count: 2,
        attack: AttackKind::SignFlip,
        shards: 4,
        worker_extra_delay_sec: delays,
        transport: TransportKind::Lossy { policy: LossPolicy::RandomFill },
        lossy_links: 6,
        link: LinkConfig::datacenter().with_drop_rate(0.10),
        chaos: Some(ChaosConfig::moderate()),
        retransmit: Some(RetransmitConfig::default()),
        ..base_config(GarKind::MultiKrum, 4, 19)
    };
    stream19_sharded.streaming.quorum = QuorumPolicy::NMinusF;
    let tree = TreeConfig::uniform(GarKind::Median, 1, 0, 8);
    let two_groups = RunnerConfig {
        gar: tree.root,
        tree: Some(tree),
        byzantine_count: 1,
        attack: AttackKind::Reversed { scale: 50.0 },
        ..base_config(GarKind::Median, 0, 16)
    };
    for (name, config) in
        [("paper19", paper19), ("stream19_sharded", stream19_sharded), ("tree", two_groups)]
    {
        let mut fixed = SyncTrainingEngine::new(config.clone()).expect("valid config");
        let fixed_report = fixed.run().expect("static run");
        let noop = FaultPlan::empty().with(0, 0, FaultAction::Rejoin);
        let planned = RunnerConfig { fault_plan: noop, ..config };
        let mut planned = SyncTrainingEngine::new(planned).expect("valid config");
        let planned_report = planned.run().expect("planned run");
        assert_reports_identical(&fixed_report, &planned_report, name);
        assert_eq!(fixed.parameters(), planned.parameters(), "{name}: final parameters");
        assert_eq!(planned.membership().epoch(), 0, "{name}: a no-op rejoin bumps nothing");
    }
}
