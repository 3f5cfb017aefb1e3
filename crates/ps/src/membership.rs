//! Elastic membership: epoch-fenced views over a churning worker set.
//!
//! The paper deploys a *static* cluster — `n` workers declared up front, the
//! GAR's `f` bound checked once. Real deployments churn: workers crash,
//! rejoin with stale state, or degrade into stragglers. This module gives the
//! engine a [`MembershipView`] — the server's authoritative picture of who is
//! in the round — driven by a deterministic [`FaultPlan`]:
//!
//! * **Epochs.** Every change to the *live set* (a crash or a rejoin)
//!   increments the view's epoch. The engine stamps every wire packet with
//!   the epoch of its worker's group, which moves in every round the view's
//!   epoch moves for that group
//!   ([`agg_net::GradientCodec::split_bytes_epoch`]), and fences it at the
//!   server's assemblers, so a late packet from an evicted worker — or a
//!   rejoiner that has not yet learned the new view — can never fill a row of
//!   the current round.
//! * **Resilience floor.** After every transition the engine re-derives the
//!   active rule's minimum worker count via
//!   [`agg_core::resilience::resilience_floor`] and *refuses to aggregate*
//!   while the live set is below it: the server holds the last model and
//!   broadcasts it again instead of silently running a GAR whose `n ≥ g(f)`
//!   precondition no longer holds.
//! * **Static membership is the empty plan.** With no event the view stays
//!   at epoch 0 with every worker live, so the same fenced round runs with
//!   nothing to fence and nothing to refuse.
//! * **Determinism.** The view at round `r` is a pure function of the plan
//!   and `r` ([`MembershipView::at_round`]): replaying the same plan yields
//!   bit-identical runs under any thread schedule.

use crate::{PsError, Result};
use agg_core::{resilience, GarKind};
use agg_tensor::rng::{derive_seed, sample_without_replacement, seeded_rng};
use serde::{Deserialize, Serialize};

/// One scheduled membership transition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultAction {
    /// The worker crashes: it stops computing and submitting, and its live
    /// slot leaves the view (epoch bump).
    Crash,
    /// A crashed worker comes back. It rejoins the live set (epoch bump) but
    /// still carries the epoch it crashed with, so its first round's
    /// submission is fenced as stale; it learns the current view at the next
    /// round's broadcast. A `Rejoin` of a merely slowed worker clears the
    /// slowdown without an epoch bump (it never left the view).
    Rejoin,
    /// The worker degrades into a straggler: every subsequent round's arrival
    /// is delayed by this many simulated seconds. Feeds the quorum policy —
    /// under `n − f` quorum the slowed worker's rows simply stop making the
    /// cut. No epoch bump (the live set is unchanged).
    SlowBy {
        /// Extra arrival delay in simulated seconds.
        delay_sec: f64,
    },
}

/// A [`FaultAction`] bound to a round and a worker.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Round (engine step) at whose start the action applies.
    pub round: u64,
    /// Worker id the action applies to.
    pub worker: usize,
    /// What happens.
    pub action: FaultAction,
}

/// A deterministic churn schedule: the full list of membership transitions a
/// run will experience. Empty by default — static membership.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The scheduled transitions, in any order (the view applies them sorted
    /// by round, then worker id, so the plan's ordering never matters).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: static membership.
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan schedules no transitions.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Convenience builder.
    pub fn with(mut self, round: u64, worker: usize, action: FaultAction) -> Self {
        self.events.push(FaultEvent { round, worker, action });
        self
    }

    /// A seeded crash→rejoin schedule: `crashes` workers (drawn without
    /// replacement from `0..workers`) each crash at a derived round and
    /// rejoin a few rounds later. Deterministic in
    /// `(seed, workers, rounds, crashes)`.
    pub fn seeded_churn(seed: u64, workers: usize, rounds: u64, crashes: usize) -> Self {
        let mut plan = FaultPlan::default();
        if workers == 0 || rounds < 3 {
            return plan;
        }
        let mut rng = seeded_rng(derive_seed(seed, 0xC4A5));
        let picked = sample_without_replacement(&mut rng, workers, crashes.min(workers));
        for (stream, worker) in picked.into_iter().enumerate() {
            // Crash somewhere in the first two thirds, rejoin 1-3 rounds on:
            // both events always land inside the run.
            let draw = derive_seed(derive_seed(seed, 0x5EED), stream as u64);
            let crash_at = 1 + draw % (rounds * 2 / 3).max(1);
            let rejoin_at = (crash_at + 1 + (draw >> 32) % 3).min(rounds - 1);
            plan = plan.with(crash_at, worker, FaultAction::Crash);
            if rejoin_at > crash_at {
                plan = plan.with(rejoin_at, worker, FaultAction::Rejoin);
            }
        }
        plan
    }

    /// The events scheduled for `round`, in deterministic (worker id) order.
    fn events_at(&self, round: u64) -> Vec<FaultEvent> {
        let mut events: Vec<FaultEvent> =
            self.events.iter().copied().filter(|e| e.round == round).collect();
        events.sort_by_key(|e| e.worker);
        events
    }
}

/// Health of one worker slot in the current view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkerHealth {
    /// In the live set, arriving on time.
    Live,
    /// Out of the live set: computes nothing, submits nothing.
    Crashed,
    /// In the live set but demoted to straggler: every arrival is delayed.
    Slowed {
        /// Extra arrival delay in simulated seconds.
        delay_sec: f64,
    },
}

impl WorkerHealth {
    /// Whether this slot is part of the live set.
    pub fn is_live(&self) -> bool {
        !matches!(self, WorkerHealth::Crashed)
    }
}

/// What [`MembershipView::apply_round`] changed at the start of a round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundTransitions {
    /// Workers that rejoined the live set this round. They still carry the
    /// epoch they crashed with: their first submission is fenced as stale
    /// and they sync at the next round's broadcast.
    pub rejoined: Vec<usize>,
    /// Workers that crashed this round.
    pub crashed: Vec<usize>,
    /// Whether the epoch advanced (any live-set change).
    pub epoch_changed: bool,
}

/// The server's authoritative picture of the worker set: an epoch number and
/// per-worker health, advanced round by round from a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct MembershipView {
    epoch: u32,
    health: Vec<WorkerHealth>,
}

impl MembershipView {
    /// The initial view: epoch 0, every worker live — indistinguishable from
    /// static membership until a plan event fires.
    pub fn new(workers: usize) -> Self {
        MembershipView { epoch: 0, health: vec![WorkerHealth::Live; workers] }
    }

    /// Current view epoch. Starts at 0 and increments on every live-set
    /// change; the engine stamps it into every packet and fences the
    /// assemblers at it.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Health of worker `id` (out-of-range ids read as crashed).
    pub fn health(&self, id: usize) -> WorkerHealth {
        self.health.get(id).copied().unwrap_or(WorkerHealth::Crashed)
    }

    /// Number of workers in the live set.
    pub fn live_count(&self) -> usize {
        self.health.iter().filter(|h| h.is_live()).count()
    }

    /// Whether the live set satisfies `rule`'s resilience floor for the
    /// declared `f` — the gate the engine checks after every transition.
    pub fn satisfies_floor(&self, rule: GarKind, f: usize) -> bool {
        self.live_count() >= resilience::resilience_floor(rule, f)
    }

    /// Applies the plan's events for `round` and returns what changed.
    /// Redundant events (crashing a crashed worker, rejoining a live one)
    /// are no-ops and never bump the epoch.
    pub fn apply_round(&mut self, plan: &FaultPlan, round: u64) -> RoundTransitions {
        let mut transitions = RoundTransitions::default();
        for event in plan.events_at(round) {
            let Some(slot) = self.health.get_mut(event.worker) else { continue };
            match (event.action, *slot) {
                (FaultAction::Crash, WorkerHealth::Live | WorkerHealth::Slowed { .. }) => {
                    *slot = WorkerHealth::Crashed;
                    transitions.crashed.push(event.worker);
                    transitions.epoch_changed = true;
                }
                (FaultAction::Rejoin, WorkerHealth::Crashed) => {
                    *slot = WorkerHealth::Live;
                    transitions.rejoined.push(event.worker);
                    transitions.epoch_changed = true;
                }
                // Clearing a slowdown keeps the live set intact: no bump.
                (FaultAction::Rejoin, WorkerHealth::Slowed { .. }) => *slot = WorkerHealth::Live,
                (
                    FaultAction::SlowBy { delay_sec },
                    WorkerHealth::Live | WorkerHealth::Slowed { .. },
                ) => {
                    *slot = WorkerHealth::Slowed { delay_sec };
                }
                _ => {}
            }
        }
        if transitions.epoch_changed {
            self.epoch += 1;
        }
        transitions
    }

    /// The view *after* the transitions of round `round` have been applied —
    /// a pure function of `(plan, round)`, used by tests to pin that the
    /// engine's incremental state matches an independent replay.
    pub fn at_round(workers: usize, plan: &FaultPlan, round: u64) -> Self {
        let mut view = MembershipView::new(workers);
        for r in 0..=round {
            view.apply_round(plan, r);
        }
        view
    }
}

/// Validates a plan against a run shape (worker count, round count): every
/// event must name a known worker, land inside the run, and carry a sane
/// delay. Mirrors the `worker_extra_delay_sec` checks in
/// [`crate::config::RunnerConfig::validate`].
///
/// # Errors
///
/// Returns [`PsError::InvalidConfig`] describing the first offending event.
pub fn validate_plan(plan: &FaultPlan, workers: usize, max_steps: u64) -> Result<()> {
    for event in &plan.events {
        if event.worker >= workers {
            return Err(PsError::InvalidConfig(format!(
                "fault plan references worker {} but the run has only {} workers",
                event.worker, workers
            )));
        }
        if event.round >= max_steps {
            return Err(PsError::InvalidConfig(format!(
                "fault plan schedules an event at round {} but the run stops after {} steps",
                event.round, max_steps
            )));
        }
        if let FaultAction::SlowBy { delay_sec } = event.action {
            if !delay_sec.is_finite() || delay_sec < 0.0 {
                return Err(PsError::InvalidConfig(format!(
                    "fault plan slows worker {} by a non-finite or negative delay",
                    event.worker
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_advances_only_on_live_set_changes() {
        let plan = FaultPlan::empty()
            .with(1, 2, FaultAction::Crash)
            .with(1, 4, FaultAction::SlowBy { delay_sec: 3.0 })
            .with(3, 2, FaultAction::Rejoin)
            .with(4, 4, FaultAction::Rejoin);
        let mut view = MembershipView::new(5);
        assert_eq!(view.epoch(), 0);
        assert_eq!(view.live_count(), 5);

        let t = view.apply_round(&plan, 0);
        assert_eq!(t, RoundTransitions::default());
        assert_eq!(view.epoch(), 0);

        let t = view.apply_round(&plan, 1);
        assert_eq!(t.crashed, vec![2]);
        assert!(t.epoch_changed);
        assert_eq!(view.epoch(), 1);
        assert_eq!(view.live_count(), 4);
        assert_eq!(view.health(2), WorkerHealth::Crashed);
        assert_eq!(view.health(4), WorkerHealth::Slowed { delay_sec: 3.0 });
        assert!(view.health(4).is_live());

        view.apply_round(&plan, 2);
        assert_eq!(view.epoch(), 1);

        let t = view.apply_round(&plan, 3);
        assert_eq!(t.rejoined, vec![2]);
        assert_eq!(view.epoch(), 2);
        assert_eq!(view.live_count(), 5);

        // Rejoin of a slowed worker clears the slowdown without a bump.
        view.apply_round(&plan, 4);
        assert_eq!(view.epoch(), 2);
        assert_eq!(view.health(4), WorkerHealth::Live);
    }

    #[test]
    fn redundant_events_are_no_ops() {
        let plan = FaultPlan::empty()
            .with(0, 1, FaultAction::Crash)
            .with(1, 1, FaultAction::Crash)
            .with(2, 0, FaultAction::Rejoin)
            .with(3, 9, FaultAction::Crash);
        let mut view = MembershipView::new(3);
        view.apply_round(&plan, 0);
        assert_eq!(view.epoch(), 1);
        view.apply_round(&plan, 1); // already crashed
        view.apply_round(&plan, 2); // already live
        view.apply_round(&plan, 3); // unknown worker
        assert_eq!(view.epoch(), 1);
        assert_eq!(view.health(9), WorkerHealth::Crashed, "out of range reads crashed");
    }

    #[test]
    fn at_round_replays_the_incremental_state() {
        let plan = FaultPlan::seeded_churn(7, 9, 40, 3);
        assert!(!plan.is_empty());
        let mut incremental = MembershipView::new(9);
        for round in 0..40 {
            incremental.apply_round(&plan, round);
            assert_eq!(incremental, MembershipView::at_round(9, &plan, round));
        }
        // Every crash either rejoins inside the run or stays down; either
        // way all events land in range.
        assert!(validate_plan(&plan, 9, 40).is_ok());
    }

    #[test]
    fn floor_check_follows_the_rule() {
        let mut view = MembershipView::new(19);
        assert!(view.satisfies_floor(GarKind::Bulyan, 4)); // floor 19
        let plan = FaultPlan::empty().with(0, 3, FaultAction::Crash);
        view.apply_round(&plan, 0);
        assert!(!view.satisfies_floor(GarKind::Bulyan, 4), "18 < 4f+3 = 19");
        assert!(view.satisfies_floor(GarKind::MultiKrum, 4), "18 ≥ 2f+3 = 11");
        assert!(view.satisfies_floor(GarKind::Average, 4), "averaging has no floor");
    }

    #[test]
    fn plan_validation_rejects_bad_events() {
        let plan = FaultPlan::empty().with(2, 7, FaultAction::Crash);
        assert!(validate_plan(&plan, 5, 10).is_err(), "unknown worker");
        assert!(validate_plan(&plan, 8, 10).is_ok());
        assert!(validate_plan(&plan, 8, 2).is_err(), "round past max_steps");
        let slow = FaultPlan::empty().with(0, 0, FaultAction::SlowBy { delay_sec: -1.0 });
        assert!(validate_plan(&slow, 1, 1).is_err(), "negative delay");
        let nan = FaultPlan::empty().with(0, 0, FaultAction::SlowBy { delay_sec: f64::NAN });
        assert!(validate_plan(&nan, 1, 1).is_err(), "non-finite delay");
    }

    #[test]
    fn plans_round_trip_through_json() {
        let plan = FaultPlan::empty()
            .with(3, 1, FaultAction::Crash)
            .with(5, 1, FaultAction::Rejoin)
            .with(2, 0, FaultAction::SlowBy { delay_sec: 0.5 });
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn seeded_churn_is_deterministic_and_in_range() {
        let a = FaultPlan::seeded_churn(11, 12, 30, 4);
        let b = FaultPlan::seeded_churn(11, 12, 30, 4);
        assert_eq!(a, b);
        let c = FaultPlan::seeded_churn(12, 12, 30, 4);
        assert_ne!(a, c, "different seeds give different schedules");
        assert!(validate_plan(&a, 12, 30).is_ok());
        assert!(FaultPlan::seeded_churn(1, 0, 30, 4).is_empty());
        assert!(FaultPlan::seeded_churn(1, 5, 2, 4).is_empty());
    }
}
