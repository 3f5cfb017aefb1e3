//! Concrete attack implementations and the [`AttackKind`] registry.

use crate::attack::{Attack, AttackContext, ChurnDirective};
use agg_tensor::rng::{derive_seed, gaussian_vector, seeded_rng};
use agg_tensor::{stats, Vector};
use serde::{Deserialize, Serialize};

/// Honest behaviour: produces gradients identical to the honest mean.
///
/// Used as the "no attack" baseline so every experiment can run through the
/// same code path with and without an adversary.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoAttack;

impl Attack for NoAttack {
    fn name(&self) -> &'static str {
        "none"
    }

    fn craft(&self, ctx: &AttackContext<'_>) -> Vec<Vector> {
        vec![ctx.honest_mean(); ctx.byzantine_count]
    }
}

/// Large random gradients (`N(0, magnitude²)` per coordinate).
#[derive(Debug, Clone, Copy)]
pub struct RandomGradient {
    /// Standard deviation of each Byzantine coordinate.
    pub magnitude: f32,
}

impl Default for RandomGradient {
    fn default() -> Self {
        RandomGradient { magnitude: 100.0 }
    }
}

impl Attack for RandomGradient {
    fn name(&self) -> &'static str {
        "random"
    }

    fn craft(&self, ctx: &AttackContext<'_>) -> Vec<Vector> {
        (0..ctx.byzantine_count)
            .map(|k| {
                let mut rng =
                    seeded_rng(derive_seed(ctx.seed, ctx.step ^ (k as u64) << 32 | 0xA77));
                gaussian_vector(&mut rng, ctx.dimension(), 0.0, self.magnitude)
            })
            .collect()
    }
}

/// The reversed-gradient adversary (the model used for the paper's Draco
/// comparison): sends `−scale ·` (honest mean).
#[derive(Debug, Clone, Copy)]
pub struct ReversedGradient {
    /// Magnification applied to the reversed direction (Draco's default
    /// experiments use 100).
    pub scale: f32,
}

impl Default for ReversedGradient {
    fn default() -> Self {
        ReversedGradient { scale: 100.0 }
    }
}

impl Attack for ReversedGradient {
    fn name(&self) -> &'static str {
        "reversed"
    }

    fn craft(&self, ctx: &AttackContext<'_>) -> Vec<Vector> {
        let mut g = ctx.honest_mean();
        g.scale(-self.scale);
        vec![g; ctx.byzantine_count]
    }
}

/// Sign-flipping: sends the negated honest mean without magnification.
#[derive(Debug, Clone, Copy, Default)]
pub struct SignFlip;

impl Attack for SignFlip {
    fn name(&self) -> &'static str {
        "sign-flip"
    }

    fn craft(&self, ctx: &AttackContext<'_>) -> Vec<Vector> {
        let mut g = ctx.honest_mean();
        g.scale(-1.0);
        vec![g; ctx.byzantine_count]
    }
}

/// Non-finite gradients: a mixture of `NaN` and `±∞` coordinates — the
/// malformed input a real malicious worker (or a lossy transport) produces.
#[derive(Debug, Clone, Copy, Default)]
pub struct NonFinite;

impl Attack for NonFinite {
    fn name(&self) -> &'static str {
        "non-finite"
    }

    fn craft(&self, ctx: &AttackContext<'_>) -> Vec<Vector> {
        let d = ctx.dimension();
        (0..ctx.byzantine_count)
            .map(|k| {
                Vector::from_iter((0..d).map(|i| match (i + k) % 3 {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    _ => f32::NEG_INFINITY,
                }))
            })
            .collect()
    }
}

/// Constant drift towards a fixed target direction, scaled per step — models
/// an adversary steering the model towards a specific bad optimum.
#[derive(Debug, Clone, Copy)]
pub struct ConstantDrift {
    /// Per-coordinate drift value.
    pub value: f32,
}

impl Default for ConstantDrift {
    fn default() -> Self {
        ConstantDrift { value: 10.0 }
    }
}

impl Attack for ConstantDrift {
    fn name(&self) -> &'static str {
        "constant-drift"
    }

    fn craft(&self, ctx: &AttackContext<'_>) -> Vec<Vector> {
        vec![Vector::filled(ctx.dimension(), self.value); ctx.byzantine_count]
    }
}

/// The dimensional-leeway attack against weakly Byzantine-resilient GARs
/// (the "hidden vulnerability" of El Mhamdi et al., illustrated in the
/// paper's Figure 9, also known as "a little is enough").
///
/// The adversary submits `mean + z · σ` where `σ` is the per-coordinate
/// standard deviation of the honest gradients and `z` is small enough that
/// the crafted gradient stays inside the honest point cloud (so Krum-style
/// selection accepts it) yet, accumulated over `d ≫ 1` coordinates and many
/// steps, biases convergence towards a poor optimum. Strongly resilient GARs
/// (Bulyan) bound the per-coordinate deviation and resist it.
#[derive(Debug, Clone, Copy)]
pub struct LittleIsEnough {
    /// Multiple of the per-coordinate standard deviation to add.
    pub z: f32,
}

impl Default for LittleIsEnough {
    fn default() -> Self {
        LittleIsEnough { z: 1.0 }
    }
}

impl Attack for LittleIsEnough {
    fn name(&self) -> &'static str {
        "little-is-enough"
    }

    fn craft(&self, ctx: &AttackContext<'_>) -> Vec<Vector> {
        let mean = ctx.honest_mean();
        // The row-view kernel is the right tool here: `craft` receives
        // borrowed honest rows once per round, so packing them into an arena
        // would add an O(n·d) copy for a single std computation.
        let std = stats::coordinate_std_of_rows(ctx.honest_gradients)
            .unwrap_or_else(|_| Vector::zeros(ctx.dimension()));
        let mut crafted = mean;
        let _ = crafted.axpy(self.z, &std);
        vec![crafted; ctx.byzantine_count]
    }
}

/// Per-coordinate standard deviation of the honest rows, zero when it
/// cannot be computed (fewer than two rows).
fn honest_std(ctx: &AttackContext<'_>) -> Vector {
    stats::coordinate_std_of_rows(ctx.honest_gradients)
        .unwrap_or_else(|_| Vector::zeros(ctx.dimension()))
}

/// Standard normal CDF via the Abramowitz–Stegun 7.1.26 erf approximation
/// (max absolute error ≈ 1.5e-7 — far below what the z search needs).
fn normal_cdf(z: f64) -> f64 {
    let x = z / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.327_591_1 * x.abs());
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let erf = 1.0 - poly * (-x * x).exp();
    let erf = if x < 0.0 { -erf } else { erf };
    0.5 * (1.0 + erf)
}

/// The ALIE `z_max`: the largest z with `Φ(z) ≤ (n − m − s) / (n − m)`
/// where `s = ⌊n/2⌋ + 1 − m` supporters are needed for a majority
/// (Baruch et al., "A Little Is Enough"). Found by deterministic bisection.
fn alie_z_max(n: usize, m: usize) -> f32 {
    if n <= m {
        return 0.0;
    }
    let s = (n / 2 + 1).saturating_sub(m);
    let cutoff = (n - m).saturating_sub(s) as f64 / (n - m) as f64;
    if cutoff <= 0.5 {
        // Fewer than half the non-Byzantine workers can be out-supported:
        // no positive z keeps a majority, stay at the mean.
        return 0.0;
    }
    let (mut lo, mut hi) = (0.0f64, 10.0f64);
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if normal_cdf(mid) <= cutoff {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo as f32
}

/// Squared Euclidean distance between two rows, accumulated in f64.
fn row_distance_sq(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| (f64::from(x) - f64::from(y)).powi(2)).sum()
}

/// Largest `γ ≥ 0` such that `constraint(mean + γ·direction)` holds, by
/// deterministic doubling + bisection. `constraint` must hold at γ = 0.
fn max_admissible_gamma(
    mean: &Vector,
    direction: &Vector,
    constraint: impl Fn(&[f32]) -> bool,
) -> f32 {
    let crafted_at = |gamma: f32| {
        let mut crafted = mean.clone();
        let _ = crafted.axpy(gamma, direction);
        crafted
    };
    if !constraint(crafted_at(0.0).as_slice()) {
        return 0.0;
    }
    let mut hi = 1.0f32;
    let mut doublings = 0;
    while constraint(crafted_at(hi).as_slice()) && doublings < 40 {
        hi *= 2.0;
        doublings += 1;
    }
    if doublings == 40 {
        return hi;
    }
    let mut lo = if doublings == 0 { 0.0 } else { hi / 2.0 };
    for _ in 0..30 {
        let mid = 0.5 * (lo + hi);
        if constraint(crafted_at(mid).as_slice()) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The perturbation direction the min-max / min-sum family scales: the unit
/// vector opposing the honest mean (the "inverse unit vector" choice of
/// Shejwalkar & Houmansadr), falling back to the std direction when the
/// mean is (numerically) zero.
fn perturbation_direction(ctx: &AttackContext<'_>) -> Vector {
    let mean = ctx.honest_mean();
    let norm = (mean.as_slice().iter().map(|&v| f64::from(v).powi(2)).sum::<f64>()).sqrt();
    if norm > 1e-12 {
        let mut dir = mean;
        dir.scale(-(1.0 / norm as f32));
        return dir;
    }
    honest_std(ctx)
}

/// The "A Little Is Enough" attack (Baruch et al.): all Byzantine workers
/// collude on `mean − z · σ`, with `z` defaulting to the exact `z_max` the
/// worker count supports — the strongest shift that still keeps a majority
/// of honest workers closer to the crafted gradient than to each other.
#[derive(Debug, Clone, Copy)]
pub struct Alie {
    /// Standard-deviation multiple; any non-positive value derives the
    /// classic `z_max` from `(total_workers, byzantine_count)`.
    pub z: f32,
}

impl Default for Alie {
    fn default() -> Self {
        Alie { z: 0.0 }
    }
}

impl Attack for Alie {
    fn name(&self) -> &'static str {
        "alie"
    }

    fn craft(&self, ctx: &AttackContext<'_>) -> Vec<Vector> {
        let z = if self.z > 0.0 {
            self.z
        } else {
            alie_z_max(ctx.total_workers.max(1), ctx.byzantine_count)
        };
        let mut crafted = ctx.honest_mean();
        let _ = crafted.axpy(-z, &honest_std(ctx));
        vec![crafted; ctx.byzantine_count]
    }
}

/// The min-max distance attack (Shejwalkar & Houmansadr): submit
/// `mean + γ·p` with the largest `γ` keeping the crafted gradient's maximum
/// distance to any honest gradient within the maximum pairwise honest
/// distance — so no distance-based score can call it an outlier.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinMax;

impl Attack for MinMax {
    fn name(&self) -> &'static str {
        "min-max"
    }

    fn craft(&self, ctx: &AttackContext<'_>) -> Vec<Vector> {
        let honest = ctx.honest_gradients;
        if honest.len() < 2 {
            return vec![ctx.honest_mean(); ctx.byzantine_count];
        }
        let mut max_pairwise = 0.0f64;
        for (i, a) in honest.iter().enumerate() {
            for b in &honest[i + 1..] {
                max_pairwise = max_pairwise.max(row_distance_sq(a, b));
            }
        }
        let mean = ctx.honest_mean();
        let direction = perturbation_direction(ctx);
        let gamma = max_admissible_gamma(&mean, &direction, |crafted| {
            honest.iter().all(|g| row_distance_sq(crafted, g) <= max_pairwise)
        });
        let mut crafted = mean;
        let _ = crafted.axpy(gamma, &direction);
        vec![crafted; ctx.byzantine_count]
    }
}

/// The min-sum distance attack (Shejwalkar & Houmansadr): like
/// [`MinMax`], but the constraint bounds the crafted gradient's *sum* of
/// squared distances to the honest gradients by the worst honest worker's
/// sum — the tighter budget that also fools sum-of-distances scores (Krum).
#[derive(Debug, Clone, Copy, Default)]
pub struct MinSum;

impl Attack for MinSum {
    fn name(&self) -> &'static str {
        "min-sum"
    }

    fn craft(&self, ctx: &AttackContext<'_>) -> Vec<Vector> {
        let honest = ctx.honest_gradients;
        if honest.len() < 2 {
            return vec![ctx.honest_mean(); ctx.byzantine_count];
        }
        let mut max_honest_sum = 0.0f64;
        for a in honest {
            let sum: f64 = honest.iter().map(|b| row_distance_sq(a, b)).sum();
            max_honest_sum = max_honest_sum.max(sum);
        }
        let mean = ctx.honest_mean();
        let direction = perturbation_direction(ctx);
        let gamma = max_admissible_gamma(&mean, &direction, |crafted| {
            honest.iter().map(|g| row_distance_sq(crafted, g)).sum::<f64>() <= max_honest_sum
        });
        let mut crafted = mean;
        let _ = crafted.axpy(gamma, &direction);
        vec![crafted; ctx.byzantine_count]
    }
}

/// An adaptive attacker that conditions on the previous round's selection
/// set ([`AttackContext::previous_selection`]):
///
/// * no selection information yet → a moderate within-variance shift;
/// * its gradients were selected last round → press the advantage with a
///   stronger shift;
/// * it was excluded last round → retreat to a stealthier shift to get
///   back inside the selection.
///
/// The policy itself is stateless — everything it adapts to travels in the
/// context, so replays stay deterministic.
#[derive(Debug, Clone, Copy)]
pub struct Adaptive {
    /// Shift (in σ multiples) used before any selection feedback exists.
    pub base_z: f32,
    /// Shift used after a round in which an attacker slot was selected.
    pub aggressive_z: f32,
    /// Shift used after a round of exclusion.
    pub stealth_z: f32,
}

impl Default for Adaptive {
    fn default() -> Self {
        Adaptive { base_z: 0.5, aggressive_z: 1.0, stealth_z: 0.2 }
    }
}

impl Attack for Adaptive {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn craft(&self, ctx: &AttackContext<'_>) -> Vec<Vector> {
        // Attacker slots are the trailing worker ids, mirroring the
        // engine's role layout.
        let first_attacker = ctx.total_workers.saturating_sub(ctx.byzantine_count);
        let z = match ctx.previous_selection {
            None => self.base_z,
            Some(selected) if selected.iter().any(|&w| w >= first_attacker) => self.aggressive_z,
            Some(_) => self.stealth_z,
        };
        let mut crafted = ctx.honest_mean();
        let _ = crafted.axpy(-z, &honest_std(ctx));
        vec![crafted; ctx.byzantine_count]
    }

    /// Times churn from the same feedback channel as the gradient policy —
    /// an identity-rotation schedule:
    ///
    /// * no selection information yet → stay put;
    /// * an attacker slot was *selected* last round → crash it: the slot
    ///   retires at its moment of maximum exposure, before a stateful
    ///   defence can build a profile of it, and forces an epoch bump the
    ///   server must absorb;
    /// * an attacker slot was *excluded* (or is sitting out) → rejoin it:
    ///   exclusion already nullifies its gradients, so coming back with a
    ///   fenced first round costs the adversary nothing.
    ///
    /// Directives are redundant-safe: rejoining a live worker or crashing a
    /// crashed one is a no-op in the engine's membership view, so the policy
    /// can restate its intent every round and stay stateless — everything it
    /// adapts to travels in the context, and replays stay deterministic.
    fn plan_churn(&self, ctx: &AttackContext<'_>) -> Vec<ChurnDirective> {
        let first_attacker = ctx.total_workers.saturating_sub(ctx.byzantine_count);
        let Some(selected) = ctx.previous_selection else {
            return Vec::new();
        };
        (first_attacker..ctx.total_workers)
            .map(|slot| {
                if selected.contains(&slot) {
                    ChurnDirective::Crash(slot)
                } else {
                    ChurnDirective::Rejoin(slot)
                }
            })
            .collect()
    }
}

/// The reputation-evading rotation: identity churn paced *slower than the
/// suspicion ledger's decay horizon*, with individually jittered
/// within-variance gradients.
///
/// The fast identity rotation ([`Adaptive::plan_churn`]) pays one
/// stale-epoch fence hit per rejoin; rotating every round accrues that
/// evidence faster than geometric decay can forget it, and a reputation
/// ledger crosses its quarantine threshold within a few rounds. This
/// variant makes the opposite trade: each window of `period` rounds crashes
/// exactly one attacker slot (round-robin), so any single slot pays a fence
/// hit only once every `byzantine_count · period` rounds — by which time the
/// decayed residual of the previous hit is negligible and the score saw-tooths
/// below the threshold forever. The cost of evasion is proportionally less
/// attack pressure: stealthy shifts, no collusion clique (per-slot jitter
/// keeps pairwise distances above any affinity sketch's epsilon), and most
/// slots honest-looking most of the time.
///
/// The schedule reads only `ctx.step`, so the policy stays stateless and
/// replays stay deterministic.
#[derive(Debug, Clone, Copy)]
pub struct SlowRotation {
    /// Rounds per rotation window; each window crashes the next attacker
    /// slot in round-robin order. Zero behaves as 1 (fast rotation — the
    /// degenerate case a ledger catches).
    pub period: u64,
    /// Shift (in σ multiples) of the within-variance crafted gradients.
    pub z: f32,
}

impl Default for SlowRotation {
    fn default() -> Self {
        // A default window comfortably past the default ledger's decay
        // horizon (0.7^16 ≈ 3e-3): evidence from the previous rotation is
        // forgotten before the next one lands.
        SlowRotation { period: 16, z: 0.5 }
    }
}

impl SlowRotation {
    /// The attacker slot resting (crashed) during `step`'s window, if any.
    fn resting_slot(&self, ctx: &AttackContext<'_>) -> Option<usize> {
        if ctx.byzantine_count == 0 {
            return None;
        }
        let first_attacker = ctx.total_workers.saturating_sub(ctx.byzantine_count);
        let window = ctx.step / self.period.max(1);
        Some(first_attacker + (window as usize % ctx.byzantine_count))
    }
}

impl Attack for SlowRotation {
    fn name(&self) -> &'static str {
        "slow-rotation"
    }

    fn craft(&self, ctx: &AttackContext<'_>) -> Vec<Vector> {
        let mean = ctx.honest_mean();
        let std = honest_std(ctx);
        (0..ctx.byzantine_count)
            .map(|k| {
                let mut crafted = mean.clone();
                let _ = crafted.axpy(-self.z, &std);
                // Per-slot, per-round jitter: no two crafted rows are ever
                // bit-close, so a collusion-affinity sketch sees no clique.
                let mut rng = seeded_rng(derive_seed(
                    derive_seed(ctx.seed, 0x5107_A7E0 ^ ctx.step),
                    k as u64,
                ));
                let _ = crafted.axpy(
                    0.2 * self.z.abs().max(0.1),
                    &gaussian_vector(&mut rng, ctx.dimension(), 0.0, 1.0),
                );
                crafted
            })
            .collect()
    }

    fn plan_churn(&self, ctx: &AttackContext<'_>) -> Vec<ChurnDirective> {
        let Some(resting) = self.resting_slot(ctx) else {
            return Vec::new();
        };
        let first_attacker = ctx.total_workers.saturating_sub(ctx.byzantine_count);
        // Restate the full intent every round (redundant directives are
        // membership no-ops): the resting slot stays down, everyone else is
        // (re)joined — at a window boundary exactly one slot crashes and the
        // previous rester rejoins through the epoch fence.
        (first_attacker..ctx.total_workers)
            .map(|slot| {
                if slot == resting {
                    ChurnDirective::Crash(slot)
                } else {
                    ChurnDirective::Rejoin(slot)
                }
            })
            .collect()
    }
}

/// The colluding-group attack against the hierarchical (tree) aggregation
/// tier. Byzantine slots are the trailing worker ids and the tree's
/// `GroupPlan` partitions workers contiguously, so an adversary with `f`
/// slots automatically owns the *fewest possible groups* — the worst case
/// for the composed bound `f_total = (f_group + 1)(f_root + 1) − 1`.
///
/// Within a group the attackers submit bit-identical extreme gradients
/// (`−scale ·` honest mean): zero intra-group distance means a fully
/// captured group's distance-based GAR selects the crafted gradient with
/// certainty and emits it verbatim as the group output. Across captured
/// groups the copies differ by a tiny per-group jitter — near-zero pairwise
/// distance at the root, so the captured outputs collude there exactly like
/// colluding workers do in a flat round. The tree survives iff the number
/// of captured groups stays ≤ `f_root`, which is precisely what
/// `agg_core::resilience::composed_max_f` promises.
#[derive(Debug, Clone, Copy)]
pub struct GroupCollusion {
    /// Magnification applied to the reversed honest mean.
    pub scale: f32,
    /// The tree tier's group size `g`, used to align the collusion cliques
    /// with group boundaries. Zero behaves as one global clique.
    pub group_size: usize,
}

impl Default for GroupCollusion {
    fn default() -> Self {
        GroupCollusion { scale: 100.0, group_size: 32 }
    }
}

impl Attack for GroupCollusion {
    fn name(&self) -> &'static str {
        "group-collusion"
    }

    fn craft(&self, ctx: &AttackContext<'_>) -> Vec<Vector> {
        let mut base = ctx.honest_mean();
        base.scale(-self.scale);
        let first_attacker = ctx.total_workers.saturating_sub(ctx.byzantine_count);
        let group_size = self.group_size.max(1);
        let jitter_scale = 0.001 * self.scale.abs().max(1.0);
        (0..ctx.byzantine_count)
            .map(|k| {
                // Identical inside a group, jittered across groups: the
                // per-group aggregate stays extreme while no two captured
                // groups hand the root the exact same bits.
                let group = ((first_attacker + k) / group_size) as u64;
                let mut rng = seeded_rng(derive_seed(ctx.seed, 0xC011_ABCD ^ group));
                let mut crafted = base.clone();
                let _ = crafted
                    .axpy(jitter_scale, &gaussian_vector(&mut rng, ctx.dimension(), 0.0, 1.0));
                crafted
            })
            .collect()
    }
}

/// The attack choices exposed to experiment configurations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AttackKind {
    /// No attack (honest duplicates of the mean).
    None,
    /// Large random gradients.
    Random {
        /// Standard deviation of each coordinate.
        magnitude: f32,
    },
    /// Reversed (and magnified) honest mean.
    Reversed {
        /// Magnification factor.
        scale: f32,
    },
    /// Negated honest mean.
    SignFlip,
    /// NaN / ±∞ coordinates.
    NonFinite,
    /// Constant per-coordinate drift.
    ConstantDrift {
        /// Drift value.
        value: f32,
    },
    /// The dimensional-leeway ("little is enough") attack.
    LittleIsEnough {
        /// Standard-deviation multiple.
        z: f32,
    },
    /// The ALIE within-variance attack (`z ≤ 0` derives the exact `z_max`
    /// from the worker count).
    Alie {
        /// Standard-deviation multiple, or non-positive for auto.
        z: f32,
    },
    /// The min-max distance attack.
    MinMax,
    /// The min-sum distance attack.
    MinSum,
    /// The selection-feedback adaptive attacker (default shift schedule).
    Adaptive,
    /// The reputation-evading rotation: identity churn paced slower than a
    /// suspicion ledger's decay horizon, with jittered stealth gradients.
    SlowRotation {
        /// Rounds per rotation window (one slot rests per window).
        period: u64,
        /// Standard-deviation multiple of the stealth shift.
        z: f32,
    },
    /// The colluding-group attack against the hierarchical tree tier.
    GroupCollusion {
        /// Magnification of the reversed honest mean.
        scale: f32,
        /// The tree tier's group size (aligns collusion cliques with
        /// group boundaries).
        group_size: usize,
    },
}

impl AttackKind {
    /// Builds the attack.
    pub fn build(&self) -> Box<dyn Attack> {
        match *self {
            AttackKind::None => Box::new(NoAttack),
            AttackKind::Random { magnitude } => Box::new(RandomGradient { magnitude }),
            AttackKind::Reversed { scale } => Box::new(ReversedGradient { scale }),
            AttackKind::SignFlip => Box::new(SignFlip),
            AttackKind::NonFinite => Box::new(NonFinite),
            AttackKind::ConstantDrift { value } => Box::new(ConstantDrift { value }),
            AttackKind::LittleIsEnough { z } => Box::new(LittleIsEnough { z }),
            AttackKind::Alie { z } => Box::new(Alie { z }),
            AttackKind::MinMax => Box::new(MinMax),
            AttackKind::MinSum => Box::new(MinSum),
            AttackKind::Adaptive => Box::new(Adaptive::default()),
            AttackKind::SlowRotation { period, z } => Box::new(SlowRotation { period, z }),
            AttackKind::GroupCollusion { scale, group_size } => {
                Box::new(GroupCollusion { scale, group_size })
            }
        }
    }

    /// Canonical name of the attack.
    pub fn name(&self) -> &'static str {
        self.build().name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agg_core::{Average, Gar, MultiKrum};

    fn honest_cloud(n: usize, d: usize) -> Vec<Vector> {
        let mut rng = seeded_rng(3);
        (0..n)
            .map(|_| {
                let mut v = Vector::filled(d, 1.0);
                let _ = v.axpy(1.0, &gaussian_vector(&mut rng, d, 0.0, 0.1));
                v
            })
            .collect()
    }

    fn views(honest: &[Vector]) -> Vec<&[f32]> {
        honest.iter().map(Vector::as_slice).collect()
    }

    fn ctx<'a>(honest: &'a [&'a [f32]], model: &'a Vector, byz: usize) -> AttackContext<'a> {
        AttackContext {
            honest_gradients: honest,
            model,
            byzantine_count: byz,
            declared_f: byz,
            step: 3,
            seed: 17,
            total_workers: honest.len() + byz,
            previous_selection: None,
        }
    }

    #[test]
    fn every_kind_produces_the_requested_count_and_dimension() {
        let honest = honest_cloud(8, 6);
        let honest_views = views(&honest);
        let model = Vector::zeros(6);
        let kinds = [
            AttackKind::None,
            AttackKind::Random { magnitude: 10.0 },
            AttackKind::Reversed { scale: 100.0 },
            AttackKind::SignFlip,
            AttackKind::NonFinite,
            AttackKind::ConstantDrift { value: 5.0 },
            AttackKind::LittleIsEnough { z: 1.0 },
            AttackKind::Alie { z: 0.0 },
            AttackKind::MinMax,
            AttackKind::MinSum,
            AttackKind::Adaptive,
            AttackKind::SlowRotation { period: 4, z: 0.5 },
            AttackKind::GroupCollusion { scale: 100.0, group_size: 4 },
        ];
        for kind in kinds {
            let attack = kind.build();
            let crafted = attack.craft(&ctx(&honest_views, &model, 3));
            assert_eq!(crafted.len(), 3, "{}", attack.name());
            assert!(crafted.iter().all(|g| g.len() == 6), "{}", attack.name());
        }
    }

    #[test]
    fn attacks_are_deterministic() {
        let honest = honest_cloud(8, 6);
        let honest_views = views(&honest);
        let model = Vector::zeros(6);
        for kind in [
            AttackKind::Random { magnitude: 10.0 },
            AttackKind::LittleIsEnough { z: 1.5 },
            AttackKind::Alie { z: 0.0 },
            AttackKind::MinMax,
            AttackKind::MinSum,
            AttackKind::Adaptive,
            AttackKind::SlowRotation { period: 4, z: 0.5 },
            AttackKind::GroupCollusion { scale: 100.0, group_size: 4 },
        ] {
            let a = kind.build().craft(&ctx(&honest_views, &model, 2));
            let b = kind.build().craft(&ctx(&honest_views, &model, 2));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn reversed_gradient_points_against_the_mean() {
        let honest = honest_cloud(5, 4);
        let honest_views = views(&honest);
        let model = Vector::zeros(4);
        let crafted = ReversedGradient { scale: 10.0 }.craft(&ctx(&honest_views, &model, 1));
        let mean = ctx(&honest_views, &model, 1).honest_mean();
        let dot = crafted[0].dot(&mean).unwrap();
        assert!(dot < 0.0);
    }

    #[test]
    fn non_finite_attack_is_actually_non_finite() {
        let honest = honest_cloud(4, 9);
        let honest_views = views(&honest);
        let model = Vector::zeros(9);
        let crafted = NonFinite.craft(&ctx(&honest_views, &model, 2));
        assert!(crafted.iter().all(|g| !g.is_finite()));
    }

    #[test]
    fn reversed_attack_ruins_averaging_but_not_multi_krum() {
        // The paper's core claim in one test: a single Byzantine worker
        // defeats averaging while Multi-Krum stays within the honest cloud.
        let honest = honest_cloud(8, 5);
        let honest_views = views(&honest);
        let model = Vector::zeros(5);
        let byz = ReversedGradient { scale: 100.0 }.craft(&ctx(&honest_views, &model, 1));
        let mut all = honest.clone();
        all.extend(byz);

        let averaged = Average::new().aggregate(&all).unwrap();
        assert!(averaged[0] < 0.0, "averaging is dragged negative by the attack");

        let robust = MultiKrum::new(1).unwrap().aggregate(&all).unwrap();
        assert!((robust[0] - 1.0).abs() < 0.3, "Multi-Krum stays near the honest mean");
    }

    #[test]
    fn little_is_enough_is_selected_by_multi_krum() {
        // The crafted gradient stays inside the honest cloud, so Multi-Krum
        // (weak resilience) accepts it into its selection — exactly the
        // vulnerability that motivates Bulyan.
        let honest = honest_cloud(11, 20);
        let honest_views = views(&honest);
        let model = Vector::zeros(20);
        let context = ctx(&honest_views, &model, 4);
        let byz = LittleIsEnough { z: 0.5 }.craft(&context);
        let mut all = honest.clone();
        all.extend(byz);
        let mk = MultiKrum::new(4).unwrap();
        let batch = agg_tensor::GradientBatch::from_vectors(&all).unwrap();
        let selected = mk.selected_rows(&batch, None).unwrap().unwrap();
        assert!(
            selected.iter().any(|&i| i >= 11),
            "the stealthy gradient should enter the selection: {selected:?}"
        );
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(AttackKind::None.name(), "none");
        assert_eq!(AttackKind::SignFlip.name(), "sign-flip");
        assert_eq!(AttackKind::LittleIsEnough { z: 1.0 }.name(), "little-is-enough");
        assert_eq!(AttackKind::Alie { z: 0.0 }.name(), "alie");
        assert_eq!(AttackKind::MinMax.name(), "min-max");
        assert_eq!(AttackKind::MinSum.name(), "min-sum");
        assert_eq!(AttackKind::Adaptive.name(), "adaptive");
        assert_eq!(AttackKind::SlowRotation { period: 16, z: 0.5 }.name(), "slow-rotation");
        assert_eq!(
            AttackKind::GroupCollusion { scale: 100.0, group_size: 32 }.name(),
            "group-collusion"
        );
    }

    #[test]
    fn slow_rotation_rests_one_slot_per_window() {
        let honest = honest_cloud(10, 6);
        let honest_views = views(&honest);
        let model = Vector::zeros(6);
        let attack = SlowRotation { period: 4, z: 0.5 };
        // 3 attacker slots (10, 11, 12), windows of 4 rounds: the resting
        // slot advances round-robin at each window boundary, so any single
        // slot rejoins only once per 12 rounds — slower than a decaying
        // suspicion score can accumulate.
        for (step, resting) in [(0, 10), (3, 10), (4, 11), (7, 11), (8, 12), (12, 10)] {
            let context = AttackContext { step, ..ctx(&honest_views, &model, 3) };
            let directives = attack.plan_churn(&context);
            assert_eq!(directives.len(), 3, "step {step}");
            for directive in &directives {
                match *directive {
                    ChurnDirective::Crash(slot) => assert_eq!(slot, resting, "step {step}"),
                    ChurnDirective::Rejoin(slot) => assert_ne!(slot, resting, "step {step}"),
                }
            }
            assert_eq!(
                directives.iter().filter(|d| matches!(d, ChurnDirective::Crash(_))).count(),
                1,
                "exactly one slot rests per window (step {step})"
            );
        }
    }

    #[test]
    fn slow_rotation_rows_are_jittered_apart() {
        // Unlike Adaptive's identical rows, the crafted rows must never form
        // a zero-distance clique a collusion-affinity sketch could flag.
        let honest = honest_cloud(10, 16);
        let honest_views = views(&honest);
        let model = Vector::zeros(16);
        let crafted = SlowRotation::default().craft(&ctx(&honest_views, &model, 3));
        assert_eq!(crafted.len(), 3);
        for i in 0..crafted.len() {
            for j in i + 1..crafted.len() {
                let d = row_distance_sq(crafted[i].as_slice(), crafted[j].as_slice());
                assert!(d > 1e-4, "rows {i} and {j} are bit-close: {d}");
            }
        }
        // The stealth shift still points against the honest mean direction.
        let mean = ctx(&honest_views, &model, 3).honest_mean();
        let shifted = crafted[0].dot(&mean).unwrap();
        let aligned = mean.dot(&mean).unwrap();
        assert!(shifted < aligned, "crafted row must sit below the mean along itself");
    }

    #[test]
    fn group_collusion_is_identical_within_a_group_and_jittered_across() {
        // 24 honest + 40 Byzantine of 64 workers, groups of 32: attacker
        // slots 24..64 span groups 0 and 1.
        let honest = honest_cloud(24, 8);
        let honest_views = views(&honest);
        let model = Vector::zeros(8);
        let context = ctx(&honest_views, &model, 40);
        assert_eq!(context.total_workers, 64);
        let crafted = GroupCollusion { scale: 100.0, group_size: 32 }.craft(&context);
        assert_eq!(crafted.len(), 40);
        // Slots 24..32 (first 8 crafted rows) share group 0; slots 32..64
        // (the rest) share group 1.
        for g in &crafted[..8] {
            assert_eq!(g, &crafted[0], "group 0 clique must be bit-identical");
        }
        for g in &crafted[8..] {
            assert_eq!(g, &crafted[8], "group 1 clique must be bit-identical");
        }
        assert_ne!(crafted[0], crafted[8], "captured groups must not hand the root equal bits");
        // Both cliques still point hard against the honest mean.
        let mean = context.honest_mean();
        assert!(crafted[0].dot(&mean).unwrap() < 0.0);
        assert!(crafted[8].dot(&mean).unwrap() < 0.0);
        // ...and the cross-group jitter stays tiny relative to the payload.
        let jitter = row_distance_sq(crafted[0].as_slice(), crafted[8].as_slice());
        let payload = row_distance_sq(crafted[0].as_slice(), mean.as_slice());
        assert!(jitter < 1e-4 * payload, "jitter {jitter} vs payload {payload}");
    }

    #[test]
    fn alie_z_max_matches_the_papers_example() {
        // n = 19 workers, m = 4 Byzantine: s = ⌊19/2⌋ + 1 − 4 = 6
        // supporters, cutoff = (19 − 4 − 6)/(19 − 4) = 0.6, so
        // z_max = Φ⁻¹(0.6) ≈ 0.2533.
        let z = alie_z_max(19, 4);
        assert!((z - 0.2533).abs() < 1e-3, "z_max = {z}");
        // A Byzantine majority leaves no admissible shift.
        assert_eq!(alie_z_max(5, 5), 0.0);
        assert_eq!(alie_z_max(4, 2), 0.0);
    }

    #[test]
    fn alie_stays_within_the_honest_variance() {
        let honest = honest_cloud(15, 30);
        let honest_views = views(&honest);
        let model = Vector::zeros(30);
        let context = ctx(&honest_views, &model, 4);
        let crafted = Alie::default().craft(&context);
        assert_eq!(crafted.len(), 4);
        let mean = context.honest_mean();
        let std = honest_std(&context);
        for (c, (m, s)) in
            crafted[0].as_slice().iter().zip(mean.as_slice().iter().zip(std.as_slice()))
        {
            assert!((c - m).abs() <= 1.001 * s.abs() + 1e-6, "shift must stay within one σ");
        }
    }

    #[test]
    fn min_max_respects_the_pairwise_distance_budget() {
        let honest = honest_cloud(12, 25);
        let honest_views = views(&honest);
        let model = Vector::zeros(25);
        let context = ctx(&honest_views, &model, 3);
        let crafted = MinMax.craft(&context);
        let mut max_pairwise = 0.0f64;
        for (i, a) in honest_views.iter().enumerate() {
            for b in &honest_views[i + 1..] {
                max_pairwise = max_pairwise.max(row_distance_sq(a, b));
            }
        }
        for g in &honest_views {
            let d = row_distance_sq(crafted[0].as_slice(), g);
            assert!(d <= max_pairwise * 1.001, "min-max exceeded the budget: {d} > {max_pairwise}");
        }
        // And it is not the trivial zero perturbation: it moved off the mean.
        let mean = context.honest_mean();
        assert!(row_distance_sq(crafted[0].as_slice(), mean.as_slice()) > 0.0);
    }

    #[test]
    fn min_sum_respects_the_sum_distance_budget() {
        let honest = honest_cloud(12, 25);
        let honest_views = views(&honest);
        let model = Vector::zeros(25);
        let context = ctx(&honest_views, &model, 3);
        let crafted = MinSum.craft(&context);
        let mut max_honest_sum = 0.0f64;
        for a in &honest_views {
            let sum: f64 = honest_views.iter().map(|b| row_distance_sq(a, b)).sum();
            max_honest_sum = max_honest_sum.max(sum);
        }
        let crafted_sum: f64 =
            honest_views.iter().map(|g| row_distance_sq(crafted[0].as_slice(), g)).sum();
        assert!(crafted_sum <= max_honest_sum * 1.001);
        // The min-sum budget is at most the min-max one in sum terms, so
        // the crafted point still sits inside the cloud for Krum scores.
        let mean = context.honest_mean();
        assert!(row_distance_sq(crafted[0].as_slice(), mean.as_slice()) > 0.0);
    }

    #[test]
    fn adaptive_attack_conditions_on_the_previous_selection() {
        let honest = honest_cloud(10, 12);
        let honest_views = views(&honest);
        let model = Vector::zeros(12);
        let base_ctx = ctx(&honest_views, &model, 2); // workers 10, 11 are attackers
        let base = Adaptive::default().craft(&base_ctx)[0].clone();

        // Selected last round (slot 11 is an attacker) → aggressive.
        let selected: Vec<usize> = vec![0, 1, 2, 11];
        let aggressive_ctx = AttackContext { previous_selection: Some(&selected), ..base_ctx };
        let aggressive = Adaptive::default().craft(&aggressive_ctx)[0].clone();

        // Excluded last round → stealthy.
        let excluded: Vec<usize> = vec![0, 1, 2, 3];
        let stealth_ctx = AttackContext { previous_selection: Some(&excluded), ..base_ctx };
        let stealth = Adaptive::default().craft(&stealth_ctx)[0].clone();

        let mean = base_ctx.honest_mean();
        let d_base = row_distance_sq(base.as_slice(), mean.as_slice());
        let d_aggressive = row_distance_sq(aggressive.as_slice(), mean.as_slice());
        let d_stealth = row_distance_sq(stealth.as_slice(), mean.as_slice());
        assert!(
            d_stealth < d_base && d_base < d_aggressive,
            "shift must be ordered stealth < base < aggressive: {d_stealth} {d_base} {d_aggressive}"
        );
    }

    #[test]
    fn within_variance_attacks_never_break_bulyan() {
        // The acceptance-side sanity check at unit scope: under each new
        // attack, Bulyan's aggregate stays near the honest mean.
        use agg_core::Bulyan;
        let honest = honest_cloud(15, 10);
        let honest_views = views(&honest);
        let model = Vector::zeros(10);
        let context = ctx(&honest_views, &model, 4);
        for kind in [
            AttackKind::Alie { z: 0.0 },
            AttackKind::MinMax,
            AttackKind::MinSum,
            AttackKind::Adaptive,
        ] {
            let byz = kind.build().craft(&context);
            let mut all = honest.clone();
            all.extend(byz);
            let aggregate = Bulyan::new(4).unwrap().aggregate(&all).unwrap();
            for &v in aggregate.as_slice() {
                assert!((v - 1.0).abs() < 0.5, "{}: coordinate {v} drifted", kind.name());
            }
        }
    }
}
