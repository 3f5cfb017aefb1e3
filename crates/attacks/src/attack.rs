//! The [`Attack`] trait and the information an omniscient adversary sees.

use agg_tensor::{stats, Vector};
use std::fmt;

/// Everything the adversary knows when crafting this round's Byzantine
/// gradients (the paper grants the adversary all of it: §3.1).
#[derive(Debug, Clone, Copy)]
pub struct AttackContext<'a> {
    /// The gradients computed by the correct workers this round, as borrowed
    /// row views (arena rows or vector slices) — the engine hands these out
    /// without cloning a single coordinate.
    pub honest_gradients: &'a [&'a [f32]],
    /// The current global model parameters.
    pub model: &'a Vector,
    /// The adversary's roster: how many Byzantine gradients to produce, one
    /// per attacker slot. Attacker slots are the trailing `byzantine_count`
    /// worker ids, counted whether or not churn or quarantine has taken some
    /// of them out of the round; the engine sends row `k` from slot
    /// `total_workers − byzantine_count + k` when that slot is live.
    pub byzantine_count: usize,
    /// The `f` the server has declared to its GAR (the adversary knows the
    /// defence configuration).
    pub declared_f: usize,
    /// Current model-update step.
    pub step: u64,
    /// Experiment seed (attacks derive their own deterministic streams).
    pub seed: u64,
    /// The configured number of workers `n` (honest + Byzantine), crashed
    /// and quarantined slots included. Lets n-aware attacks (ALIE) derive
    /// the exact within-variance budget and lets the adaptive attacker
    /// recognise its own slots in the selection set.
    pub total_workers: usize,
    /// The worker indices the GAR selected in the *previous* round, when
    /// the server computed a selection (`None` on the first round and for
    /// non-selecting rules). The adaptive attacker conditions on it.
    pub previous_selection: Option<&'a [usize]>,
}

impl<'a> AttackContext<'a> {
    /// Dimension of the model / gradients.
    pub fn dimension(&self) -> usize {
        self.model.len()
    }

    /// Coordinate-wise mean of the honest gradients (the quantity most
    /// attacks perturb), through the column-blocked
    /// [`stats::coordinate_mean_of_rows`]: each coordinate sums the rows in
    /// order, and the blocks run in parallel on a large round. Zero vector
    /// when there are no honest gradients.
    ///
    /// # Panics
    ///
    /// Panics when an honest row does not have the model's dimension.
    pub fn honest_mean(&self) -> Vector {
        let mut mean = Vector::zeros(self.dimension());
        self.honest_mean_into(mean.as_mut_slice());
        mean
    }

    /// [`AttackContext::honest_mean`] written into `out` (an attacker's
    /// arena row), with the same bits, through
    /// [`stats::coordinate_mean_of_rows_into`].
    ///
    /// # Panics
    ///
    /// Panics when an honest row or `out` does not have the model's
    /// dimension.
    pub(crate) fn honest_mean_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.dimension(), "the mean has the model's dimension");
        if self.honest_gradients.is_empty() {
            out.fill(0.0);
            return;
        }
        stats::coordinate_mean_of_rows_into(self.honest_gradients, out)
            .expect("every honest gradient has the model's dimension");
    }
}

/// A membership transition an adaptive adversary requests for one of its own
/// workers — the attacker-controlled-churn-timing channel. The engine applies
/// directives through the same epoch-fenced [`MembershipView`] machinery as
/// scheduled faults, so a directive can never do more than a crash or rejoin
/// the fault plan could have scheduled: redundant directives (crashing a
/// crashed worker, rejoining a live one) are no-ops, and a rejoiner's first
/// round back is still fenced as stale.
///
/// [`MembershipView`]: https://docs.rs/agg-ps (crate `agg-ps`, `membership`)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnDirective {
    /// Crash the given worker at the start of this round.
    Crash(usize),
    /// Rejoin the given (previously crashed) worker at the start of this
    /// round.
    Rejoin(usize),
}

/// A Byzantine worker behaviour; [`AttackKind`](crate::AttackKind) is its
/// one implementor.
///
/// `craft_into` writes exactly `ctx.byzantine_count` gradients, row `k` for
/// the `k`-th attacker slot; the parameter server simulator hands it the
/// attacker slots' own arena rows and submits the rows of the live slots
/// alongside the honest ones. Every method is a deterministic function of
/// the context (including `seed` and `step`), so experiments replay exactly.
pub trait Attack: Send + Sync + fmt::Debug {
    /// Short attack name used in experiment configurations and reports.
    fn name(&self) -> &'static str;

    /// Crafts this round's Byzantine gradients into `rows`, one per roster
    /// slot, overwriting whatever they held. A kind whose slots all send the
    /// same bits writes the first row and copies it into the rest.
    ///
    /// # Panics
    ///
    /// Panics unless there are `ctx.byzantine_count` rows of the model's
    /// dimension.
    fn craft_into(&self, ctx: &AttackContext<'_>, rows: &mut [&mut [f32]]);

    /// Crafts this round's Byzantine gradients as owned vectors: the
    /// allocating wrapper of [`Attack::craft_into`], with the same bits.
    fn craft(&self, ctx: &AttackContext<'_>) -> Vec<Vector> {
        let mut crafted = vec![Vector::zeros(ctx.dimension()); ctx.byzantine_count];
        let mut rows: Vec<&mut [f32]> = crafted.iter_mut().map(Vector::as_mut_slice).collect();
        self.craft_into(ctx, &mut rows);
        crafted
    }

    /// Chooses membership transitions for the adversary's own workers at the
    /// start of this round, from the previous round's selection feedback.
    /// Called only when the engine has attacker-controlled churn enabled.
    fn plan_churn(&self, ctx: &AttackContext<'_>) -> Vec<ChurnDirective>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_mean_is_the_coordinate_mean() {
        let honest: Vec<&[f32]> = vec![&[1.0, 3.0], &[3.0, 5.0]];
        let model = Vector::zeros(2);
        let ctx = AttackContext {
            honest_gradients: &honest,
            model: &model,
            byzantine_count: 1,
            declared_f: 1,
            step: 0,
            seed: 0,
            total_workers: 3,
            previous_selection: None,
        };
        assert_eq!(ctx.honest_mean().as_slice(), &[2.0, 4.0]);
        assert_eq!(ctx.dimension(), 2);
    }

    #[test]
    fn honest_mean_of_nothing_is_zero() {
        let model = Vector::zeros(3);
        let ctx = AttackContext {
            honest_gradients: &[],
            model: &model,
            byzantine_count: 2,
            declared_f: 2,
            step: 5,
            seed: 1,
            total_workers: 2,
            previous_selection: None,
        };
        assert_eq!(ctx.honest_mean(), Vector::zeros(3));
    }
}
