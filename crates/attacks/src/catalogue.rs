//! The [`AttackKind`] catalogue: every adversary behaviour, one variant each.

use crate::attack::{Attack, AttackContext, ChurnDirective};
use agg_tensor::rng::{derive_seed, gaussian_fill, seeded_rng};
use agg_tensor::{stats, Vector};
use serde::{Deserialize, Serialize};

/// The adversary's repertoire, as experiment configurations select it. Each
/// variant is its own [`Attack`]: `craft_into` and `plan_churn` are one match
/// over the variants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AttackKind {
    /// Honest behaviour: every attacker row is the honest mean, so each
    /// experiment runs the same code path with and without an adversary.
    None,
    /// Large random gradients, `N(0, magnitude²)` per coordinate (§2.2: "a
    /// Byzantine worker can propose a gradient that can completely ruin the
    /// training").
    Random {
        /// Standard deviation of each coordinate.
        magnitude: f32,
    },
    /// The reversed-gradient adversary of the paper's Draco comparison
    /// (§4.1): sends `−scale ·` (honest mean).
    Reversed {
        /// Magnification of the reversed direction (Draco's experiments use
        /// 100).
        scale: f32,
    },
    /// Sign-flipping: the negated honest mean, unmagnified.
    SignFlip,
    /// A mixture of `NaN` and `±∞` coordinates — the malformed input a real
    /// malicious worker (or a lossy transport) produces (§2.3).
    NonFinite,
    /// A constant per-coordinate drift: an adversary steering the model
    /// towards a specific bad optimum.
    ConstantDrift {
        /// Drift value of every coordinate.
        value: f32,
    },
    /// The dimensional-leeway attack against weakly Byzantine-resilient GARs
    /// (the "hidden vulnerability" of El Mhamdi et al., the paper's Fig. 9):
    /// `mean + z · σ`, with `σ` the per-coordinate standard deviation of the
    /// honest gradients. The crafted row stays inside the honest cloud, so
    /// Krum-style selection accepts it, yet over `d ≫ 1` coordinates and
    /// many steps it biases convergence. Bulyan bounds the per-coordinate
    /// deviation and resists it.
    LittleIsEnough {
        /// Standard-deviation multiple.
        z: f32,
    },
    /// "A Little Is Enough" (Baruch et al.): all attackers collude on
    /// `mean − z · σ`, by default at the exact `z_max` the worker count
    /// supports — the strongest shift that still keeps a majority of honest
    /// workers closer to the crafted row than to each other.
    Alie {
        /// Standard-deviation multiple; any non-positive value derives
        /// `z_max` from `(total_workers, byzantine_count)`.
        z: f32,
    },
    /// The min-max distance attack (Shejwalkar & Houmansadr): `mean + γ·p`
    /// with the largest `γ` that keeps the crafted row's largest distance to
    /// an honest row within the largest pairwise honest distance, so no
    /// distance-based score calls it an outlier.
    MinMax,
    /// The min-sum distance attack (Shejwalkar & Houmansadr): like
    /// [`AttackKind::MinMax`], but the crafted row's *sum* of squared
    /// distances to the honest rows is bounded by the worst honest row's
    /// sum — the tighter budget that also fools Krum's scores.
    MinSum,
    /// The selection-feedback attacker: it conditions on
    /// [`AttackContext::previous_selection`].
    ///
    /// * No selection yet → a moderate within-variance shift, no churn.
    /// * An attacker slot was selected last round → a stronger shift, and
    ///   that slot crashes: it retires at its moment of greatest exposure,
    ///   before a stateful defence profiles it, and forces an epoch bump.
    /// * An attacker slot was excluded → a stealthier shift, and that slot
    ///   rejoins: exclusion already nullifies it, so a fenced first round
    ///   back costs the adversary nothing.
    ///
    /// Directives are restated every round (redundant ones are membership
    /// no-ops), so the policy is stateless and replays stay deterministic.
    Adaptive,
    /// The reputation-evading rotation: identity churn paced slower than a
    /// suspicion ledger's decay horizon, with jittered stealth gradients.
    ///
    /// [`AttackKind::Adaptive`]'s fast rotation pays one stale-epoch fence
    /// hit per rejoin and crosses a ledger's quarantine threshold within a
    /// few rounds. Here each window of `period` rounds crashes exactly one
    /// attacker slot (round-robin), so a slot pays a fence hit only once
    /// every `byzantine_count · period` rounds, after the previous hit has
    /// decayed away (16 rounds is past the default ledger's horizon,
    /// 0.7^16 ≈ 3e-3). The price is less pressure: stealthy `mean − z · σ`
    /// rows, each jittered per slot and round so no collusion sketch sees a
    /// clique. The schedule reads only `ctx.step`.
    SlowRotation {
        /// Rounds per rotation window (one slot rests per window); zero
        /// behaves as 1, the fast rotation a ledger catches.
        period: u64,
        /// Standard-deviation multiple of the stealth shift.
        z: f32,
    },
    /// The colluding-group attack against the tree tier. Attacker slots are
    /// the trailing worker ids and the tree partitions workers contiguously,
    /// so `f` slots own the fewest possible groups — the worst case for the
    /// composed bound `(f_group + 1)(f_root + 1) − 1`. Inside a group the
    /// attackers send bit-identical `−scale ·` (honest mean) rows, which a
    /// fully captured group's GAR emits verbatim; across groups the copies
    /// differ by a tiny jitter, so the captured outputs collude at the root.
    /// The tree survives iff the captured groups stay ≤ `f_root`, which is
    /// what `agg_core::resilience::composed_max_f` promises.
    GroupCollusion {
        /// Magnification of the reversed honest mean.
        scale: f32,
        /// The tree tier's group size, which aligns the cliques with group
        /// boundaries; zero behaves as one global clique.
        group_size: usize,
    },
}

/// [`AttackKind::Adaptive`]'s shifts in σ multiples: before any selection
/// feedback, after a round in which an attacker slot was selected, and after
/// a round of exclusion.
const ADAPTIVE_Z: (f32, f32, f32) = (0.5, 1.0, 0.2);

impl AttackKind {
    /// Boxes the attack, for callers that hold a `Box<dyn Attack>`.
    pub fn build(&self) -> Box<dyn Attack> {
        Box::new(*self)
    }
}

impl Attack for AttackKind {
    fn name(&self) -> &'static str {
        match self {
            AttackKind::None => "none",
            AttackKind::Random { .. } => "random",
            AttackKind::Reversed { .. } => "reversed",
            AttackKind::SignFlip => "sign-flip",
            AttackKind::NonFinite => "non-finite",
            AttackKind::ConstantDrift { .. } => "constant-drift",
            AttackKind::LittleIsEnough { .. } => "little-is-enough",
            AttackKind::Alie { .. } => "alie",
            AttackKind::MinMax => "min-max",
            AttackKind::MinSum => "min-sum",
            AttackKind::Adaptive => "adaptive",
            AttackKind::SlowRotation { .. } => "slow-rotation",
            AttackKind::GroupCollusion { .. } => "group-collusion",
        }
    }

    fn craft_into(&self, ctx: &AttackContext<'_>, rows: &mut [&mut [f32]]) {
        let d = ctx.dimension();
        assert_eq!(rows.len(), ctx.byzantine_count, "one row per roster slot");
        assert!(rows.iter().all(|row| row.len() == d), "every row has the model's dimension");
        let honest = ctx.honest_gradients;
        match *self {
            AttackKind::None => write_copies(rows, |row| ctx.honest_mean_into(row)),
            AttackKind::Random { magnitude } => {
                for (k, row) in rows.iter_mut().enumerate() {
                    let mut rng =
                        seeded_rng(derive_seed(ctx.seed, ctx.step ^ (k as u64) << 32 | 0xA77));
                    gaussian_fill(&mut rng, row, 0.0, magnitude);
                }
            }
            AttackKind::Reversed { scale } => {
                write_copies(rows, |row| scaled_mean_into(ctx, -scale, row))
            }
            AttackKind::SignFlip => write_copies(rows, |row| scaled_mean_into(ctx, -1.0, row)),
            AttackKind::NonFinite => {
                for (k, row) in rows.iter_mut().enumerate() {
                    for (i, v) in row.iter_mut().enumerate() {
                        *v = match (i + k) % 3 {
                            0 => f32::NAN,
                            1 => f32::INFINITY,
                            _ => f32::NEG_INFINITY,
                        };
                    }
                }
            }
            AttackKind::ConstantDrift { value } => write_copies(rows, |row| row.fill(value)),
            AttackKind::LittleIsEnough { z } => {
                write_copies(rows, |row| shifted_mean_into(ctx, z, row))
            }
            AttackKind::Alie { z } => {
                let z = if z > 0.0 {
                    z
                } else {
                    alie_z_max(ctx.total_workers.max(1), ctx.byzantine_count)
                };
                write_copies(rows, |row| shifted_mean_into(ctx, -z, row))
            }
            AttackKind::MinMax => {
                let max_pairwise = honest
                    .iter()
                    .enumerate()
                    .flat_map(|(i, a)| honest[i + 1..].iter().map(move |b| row_distance_sq(a, b)))
                    .fold(0.0, f64::max);
                write_copies(rows, |row| {
                    within_distance_budget_into(ctx, row, |crafted| {
                        honest.iter().all(|g| row_distance_sq(crafted, g) <= max_pairwise)
                    })
                })
            }
            AttackKind::MinSum => {
                let sum_to_honest =
                    |row: &[f32]| honest.iter().map(|g| row_distance_sq(row, g)).sum::<f64>();
                let max_honest_sum = honest.iter().map(|a| sum_to_honest(a)).fold(0.0, f64::max);
                write_copies(rows, |row| {
                    within_distance_budget_into(ctx, row, |crafted| {
                        sum_to_honest(crafted) <= max_honest_sum
                    })
                })
            }
            AttackKind::Adaptive => {
                let (base, aggressive, stealth) = ADAPTIVE_Z;
                let z = match ctx.previous_selection {
                    None => base,
                    Some(selected) if selected.iter().any(|&w| w >= first_attacker(ctx)) => {
                        aggressive
                    }
                    Some(_) => stealth,
                };
                write_copies(rows, |row| shifted_mean_into(ctx, -z, row))
            }
            AttackKind::SlowRotation { z, .. } => {
                write_copies(rows, |row| shifted_mean_into(ctx, -z, row));
                let mut noise = vec![0.0f32; d];
                for (k, row) in rows.iter_mut().enumerate() {
                    // Per-slot, per-round jitter: no two crafted rows are
                    // ever bit-close, so a collusion sketch sees no clique.
                    let seed = derive_seed(derive_seed(ctx.seed, 0x5107_A7E0 ^ ctx.step), k as u64);
                    jitter(row, 0.2 * z.abs().max(0.1), seed, &mut noise);
                }
            }
            AttackKind::GroupCollusion { scale, group_size } => {
                write_copies(rows, |row| scaled_mean_into(ctx, -scale, row));
                let jitter_scale = 0.001 * scale.abs().max(1.0);
                let mut noise = vec![0.0f32; d];
                for (k, row) in rows.iter_mut().enumerate() {
                    // Identical inside a group, jittered across groups: the
                    // group aggregate stays extreme while no two captured
                    // groups hand the root the same bits.
                    let group = ((first_attacker(ctx) + k) / group_size.max(1)) as u64;
                    let seed = derive_seed(ctx.seed, 0xC011_ABCD ^ group);
                    jitter(row, jitter_scale, seed, &mut noise);
                }
            }
        }
    }

    fn plan_churn(&self, ctx: &AttackContext<'_>) -> Vec<ChurnDirective> {
        // Every attacker slot gets a directive each round: the ones `crash`
        // names go down, the rest (re)join.
        let restate = |crash: &dyn Fn(usize) -> bool| -> Vec<ChurnDirective> {
            (first_attacker(ctx)..ctx.total_workers)
                .map(|slot| {
                    if crash(slot) {
                        ChurnDirective::Crash(slot)
                    } else {
                        ChurnDirective::Rejoin(slot)
                    }
                })
                .collect()
        };
        match *self {
            AttackKind::Adaptive => match ctx.previous_selection {
                Some(selected) => restate(&|slot| selected.contains(&slot)),
                None => Vec::new(),
            },
            AttackKind::SlowRotation { period, .. } if ctx.byzantine_count > 0 => {
                // One slot rests per window; at a window boundary exactly
                // one slot crashes and the previous rester rejoins through
                // the epoch fence.
                let window = ctx.step / period.max(1);
                let resting = first_attacker(ctx) + (window as usize % ctx.byzantine_count);
                restate(&|slot| slot == resting)
            }
            _ => Vec::new(),
        }
    }
}

/// The first attacker slot: attackers are the trailing worker ids, as in
/// the engine's role layout.
fn first_attacker(ctx: &AttackContext<'_>) -> usize {
    ctx.total_workers.saturating_sub(ctx.byzantine_count)
}

/// Writes one crafted row with `craft` into the first of `rows` and copies
/// it into the rest: the kinds whose every slot sends the same bits.
fn write_copies(rows: &mut [&mut [f32]], craft: impl FnOnce(&mut [f32])) {
    if let Some((first, rest)) = rows.split_first_mut() {
        craft(first);
        for row in rest {
            row.copy_from_slice(first);
        }
    }
}

/// `y += alpha · x`, coordinate by coordinate ([`Vector::axpy`] on slices).
fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
    for (a, &b) in y.iter_mut().zip(x) {
        *a += alpha * b;
    }
}

/// Writes `factor ·` (honest mean) into `row`.
fn scaled_mean_into(ctx: &AttackContext<'_>, factor: f32, row: &mut [f32]) {
    ctx.honest_mean_into(row);
    row.iter_mut().for_each(|v| *v *= factor);
}

/// Writes `mean + z · σ` over the honest rows into `row`.
fn shifted_mean_into(ctx: &AttackContext<'_>, z: f32, row: &mut [f32]) {
    ctx.honest_mean_into(row);
    axpy(row, z, honest_std(ctx).as_slice());
}

/// `row += scale · N(0, 1)^d`, the noise drawn from the stream `seed` into
/// the caller's `noise` scratch.
fn jitter(row: &mut [f32], scale: f32, seed: u64, noise: &mut [f32]) {
    gaussian_fill(&mut seeded_rng(seed), noise, 0.0, 1.0);
    axpy(row, scale, noise);
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

/// The perturbation direction the min-max / min-sum family scales: the unit
/// vector opposing the honest `mean` (the "inverse unit vector" choice of
/// Shejwalkar & Houmansadr), falling back to the std direction when the
/// mean is (numerically) zero.
fn perturbation_direction(ctx: &AttackContext<'_>, mean: &[f32]) -> Vector {
    let norm = (mean.iter().map(|&v| f64::from(v).powi(2)).sum::<f64>()).sqrt();
    if norm > 1e-12 {
        let mut dir = Vector::from(mean.to_vec());
        dir.scale(-(1.0 / norm as f32));
        return dir;
    }
    honest_std(ctx)
}

/// Writes the min-max / min-sum row into `row`: `mean + γ·p`, `p` the
/// [`perturbation_direction`] and `γ` the largest that keeps the row
/// `admissible`. Fewer than two honest rows leave no budget to measure, so
/// the row is the mean.
fn within_distance_budget_into(
    ctx: &AttackContext<'_>,
    row: &mut [f32],
    admissible: impl Fn(&[f32]) -> bool,
) {
    ctx.honest_mean_into(row);
    if ctx.honest_gradients.len() < 2 {
        return;
    }
    let direction = perturbation_direction(ctx, row);
    let gamma = max_admissible_gamma(row, direction.as_slice(), admissible);
    axpy(row, gamma, direction.as_slice());
}

/// Largest `γ ≥ 0` such that `constraint(mean + γ·direction)` holds, by
/// deterministic doubling + bisection, every candidate written into one
/// scratch row. `constraint` must hold at γ = 0.
fn max_admissible_gamma(
    mean: &[f32],
    direction: &[f32],
    constraint: impl Fn(&[f32]) -> bool,
) -> f32 {
    let mut candidate = mean.to_vec();
    let mut admits = |gamma: f32| {
        candidate.copy_from_slice(mean);
        axpy(&mut candidate, gamma, direction);
        constraint(&candidate)
    };
    if !admits(0.0) {
        return 0.0;
    }
    let mut hi = 1.0f32;
    let mut doublings = 0;
    while admits(hi) && doublings < 40 {
        hi *= 2.0;
        doublings += 1;
    }
    if doublings == 40 {
        return hi;
    }
    let mut lo = if doublings == 0 { 0.0 } else { hi / 2.0 };
    for _ in 0..30 {
        let mid = 0.5 * (lo + hi);
        if admits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use agg_core::{Gar, GarConfig, GarKind};
    use agg_tensor::rng::gaussian_vector;

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
        for kind in EVERY_KIND {
            let crafted = kind.craft(&ctx(&honest_views, &model, 3));
            assert_eq!(crafted.len(), 3, "{}", kind.name());
            assert!(crafted.iter().all(|g| g.len() == 6), "{}", kind.name());
        }
    }

    /// One of every variant (both `Alie` branches).
    const EVERY_KIND: [AttackKind; 14] = [
        AttackKind::None,
        AttackKind::Random { magnitude: 10.0 },
        AttackKind::Reversed { scale: 100.0 },
        AttackKind::SignFlip,
        AttackKind::NonFinite,
        AttackKind::ConstantDrift { value: 5.0 },
        AttackKind::LittleIsEnough { z: 1.0 },
        AttackKind::Alie { z: 0.0 },
        AttackKind::Alie { z: 0.5 },
        AttackKind::MinMax,
        AttackKind::MinSum,
        AttackKind::Adaptive,
        AttackKind::SlowRotation { period: 4, z: 0.5 },
        AttackKind::GroupCollusion { scale: 100.0, group_size: 3 },
    ];

    #[test]
    fn craft_into_used_rows_equals_craft_bit_for_bit() {
        // Rows that held NaN, or another round's crafted rows, end with
        // exactly the bits `craft` returns: every coordinate is overwritten.
        let honest = honest_cloud(8, 6);
        let honest_views = views(&honest);
        let model = Vector::zeros(6);
        let selected = [0, 1, 9];
        for kind in EVERY_KIND {
            for byz in [1, 3] {
                for (step, history) in [(0, None), (5, Some(&selected[..]))] {
                    let context = AttackContext {
                        step,
                        previous_selection: history,
                        ..ctx(&honest_views, &model, byz)
                    };
                    let crafted = kind.craft(&context);
                    let earlier = kind.craft(&AttackContext { step: step + 1, ..context });
                    for mut used in [
                        vec![vec![f32::NAN; 6]; byz],
                        earlier.iter().map(|r| r.as_slice().to_vec()).collect(),
                    ] {
                        let mut rows: Vec<&mut [f32]> =
                            used.iter_mut().map(Vec::as_mut_slice).collect();
                        kind.craft_into(&context, &mut rows);
                        for (got, want) in used.iter().zip(&crafted) {
                            let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                            let want: Vec<u32> =
                                want.as_slice().iter().map(|v| v.to_bits()).collect();
                            assert_eq!(got, want, "{kind:?} k = {byz} step {step}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one row per roster slot")]
    fn craft_into_wants_one_row_per_roster_slot() {
        let honest = honest_cloud(4, 3);
        let honest_views = views(&honest);
        let model = Vector::zeros(3);
        let mut row = [0.0f32; 3];
        AttackKind::SignFlip.craft_into(&ctx(&honest_views, &model, 2), &mut [&mut row[..]]);
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
            let a = kind.craft(&ctx(&honest_views, &model, 2));
            let b = kind.craft(&ctx(&honest_views, &model, 2));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn reversed_gradient_points_against_the_mean() {
        let honest = honest_cloud(5, 4);
        let honest_views = views(&honest);
        let model = Vector::zeros(4);
        let crafted = AttackKind::Reversed { scale: 10.0 }.craft(&ctx(&honest_views, &model, 1));
        let mean = ctx(&honest_views, &model, 1).honest_mean();
        let dot = crafted[0].dot(&mean).unwrap();
        assert!(dot < 0.0);
    }

    #[test]
    fn non_finite_attack_is_actually_non_finite() {
        let honest = honest_cloud(4, 9);
        let honest_views = views(&honest);
        let model = Vector::zeros(9);
        let crafted = AttackKind::NonFinite.craft(&ctx(&honest_views, &model, 2));
        assert!(crafted.iter().all(|g| !g.is_finite()));
    }

    #[test]
    fn reversed_attack_ruins_averaging_but_not_multi_krum() {
        // The paper's core claim in one test: a single Byzantine worker
        // defeats averaging while Multi-Krum stays within the honest cloud.
        let honest = honest_cloud(8, 5);
        let honest_views = views(&honest);
        let model = Vector::zeros(5);
        let byz = AttackKind::Reversed { scale: 100.0 }.craft(&ctx(&honest_views, &model, 1));
        let mut all = honest.clone();
        all.extend(byz);

        let averaged = GarConfig::new(GarKind::Average, 0).aggregate(&all).unwrap();
        assert!(averaged[0] < 0.0, "averaging is dragged negative by the attack");

        let robust = GarConfig::new(GarKind::MultiKrum, 1).aggregate(&all).unwrap();
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
        let byz = AttackKind::LittleIsEnough { z: 0.5 }.craft(&context);
        let mut all = honest.clone();
        all.extend(byz);
        let mk = GarConfig::new(GarKind::MultiKrum, 4);
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
        let attack = AttackKind::SlowRotation { period: 4, z: 0.5 };
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
        let crafted =
            AttackKind::SlowRotation { period: 16, z: 0.5 }.craft(&ctx(&honest_views, &model, 3));
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
        let crafted = AttackKind::GroupCollusion { scale: 100.0, group_size: 32 }.craft(&context);
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
        let crafted = AttackKind::Alie { z: 0.0 }.craft(&context);
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
        let crafted = AttackKind::MinMax.craft(&context);
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
        let crafted = AttackKind::MinSum.craft(&context);
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
        let base = AttackKind::Adaptive.craft(&base_ctx)[0].clone();

        // Selected last round (slot 11 is an attacker) → aggressive.
        let selected: Vec<usize> = vec![0, 1, 2, 11];
        let aggressive_ctx = AttackContext { previous_selection: Some(&selected), ..base_ctx };
        let aggressive = AttackKind::Adaptive.craft(&aggressive_ctx)[0].clone();

        // Excluded last round → stealthy.
        let excluded: Vec<usize> = vec![0, 1, 2, 3];
        let stealth_ctx = AttackContext { previous_selection: Some(&excluded), ..base_ctx };
        let stealth = AttackKind::Adaptive.craft(&stealth_ctx)[0].clone();

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
            let byz = kind.craft(&context);
            let mut all = honest.clone();
            all.extend(byz);
            let aggregate = GarConfig::new(GarKind::Bulyan, 4).aggregate(&all).unwrap();
            for &v in aggregate.as_slice() {
                assert!((v - 1.0).abs() < 0.5, "{}: coordinate {v} drifted", kind.name());
            }
        }
    }

    /// FNV-1a, 64-bit, over a byte stream.
    fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
    }

    #[test]
    fn attack_bits_are_pinned() {
        // One FNV-1a fold per setting over its crafted rows and churn
        // directives: byzantine_count 0, 1 and 4 × no selection history, an
        // attacker selected and the attackers excluded × steps 0..9 (two
        // slow-rotation windows). A change to any attack's bits shows here.
        let pins = [
            (AttackKind::None, 0xc4ea_d07a_395a_6791),
            (AttackKind::Random { magnitude: 10.0 }, 0x8dbe_d1f4_54c8_7f08),
            (AttackKind::Reversed { scale: 100.0 }, 0x0dba_fbc6_753d_9b20),
            (AttackKind::SignFlip, 0x9e8f_bff8_aacf_d691),
            (AttackKind::NonFinite, 0x513b_d75b_96d8_d313),
            (AttackKind::ConstantDrift { value: 5.0 }, 0xfea5_c1f3_6ca3_d023),
            (AttackKind::LittleIsEnough { z: 1.0 }, 0x57e4_4cd2_62c5_b153),
            (AttackKind::Alie { z: 0.0 }, 0x1409_350e_72b0_7889),
            (AttackKind::Alie { z: 0.5 }, 0x9ac9_4b2c_0e9e_2fd9),
            (AttackKind::MinMax, 0x47c7_4ad2_6d5a_b615),
            (AttackKind::MinSum, 0xeac2_d99c_ec78_606a),
            (AttackKind::Adaptive, 0xab07_5300_2939_7260),
            (AttackKind::SlowRotation { period: 4, z: 0.5 }, 0xecd6_ead0_71c9_bf2e),
            (AttackKind::SlowRotation { period: 0, z: 0.5 }, 0x1e6f_3641_ff7b_45de),
            (AttackKind::GroupCollusion { scale: 100.0, group_size: 3 }, 0xd316_aeb7_2a1f_f837),
            (AttackKind::GroupCollusion { scale: 100.0, group_size: 0 }, 0x5b9d_97e8_5c1d_f2e1),
        ];
        let honest = honest_cloud(8, 6);
        let honest_views = views(&honest);
        let model = Vector::zeros(6);
        for (kind, pin) in pins {
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            for byz in [0, 1, 4] {
                let selected = [0, 1, 2, honest.len() + byz - 1];
                let excluded = [0, 1, 2, 3];
                for history in [None, Some(&selected[..]), Some(&excluded[..])] {
                    for step in 0..9 {
                        let context = AttackContext {
                            step,
                            previous_selection: history,
                            ..ctx(&honest_views, &model, byz)
                        };
                        for row in kind.craft(&context) {
                            hash = fnv1a(hash, &(row.len() as u64).to_le_bytes());
                            for &v in row.as_slice() {
                                hash = fnv1a(hash, &v.to_bits().to_le_bytes());
                            }
                        }
                        for directive in kind.plan_churn(&context) {
                            let (tag, slot) = match directive {
                                ChurnDirective::Crash(slot) => (0u8, slot),
                                ChurnDirective::Rejoin(slot) => (1u8, slot),
                            };
                            hash = fnv1a(hash, &[tag]);
                            hash = fnv1a(hash, &(slot as u64).to_le_bytes());
                        }
                    }
                }
            }
            assert_eq!(hash, pin, "{kind:?}: {hash:#018x}");
        }
    }
}
