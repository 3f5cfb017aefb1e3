//! Cross-round worker reputation: a deterministic suspicion ledger driving
//! automatic quarantine, probationary readmission and collusion-breaking
//! group reshuffles.
//!
//! The paper's GARs are memoryless: every round tolerates `f` Byzantine
//! submissions and then forgets everything it observed. But the stack
//! already *counts* per-worker evidence of misbehaviour — wire corruption
//! caught by the CRC envelope, stale-epoch fencing, retransmit-budget
//! exhaustion, quorum straggling, Krum-family selection exclusion — and a
//! colluding clique betrays itself by submitting near-identical rows. This
//! module folds those streams into one decayed suspicion score per worker:
//!
//! ```text
//! score[w] ← decay · score[w] + Σ weight(evidence seen this round)
//! ```
//!
//! With decay `λ ∈ [0, 1)` a worker accruing at most `c` per round converges
//! to `c / (1 − λ)` — the honest ceiling. The weights are chosen so that
//! routine wire trouble (corruption, exhaustion, straggling, exclusion)
//! saturates *below* the quarantine threshold while the signatures of an
//! active adversary (repeated stale-epoch fencing from identity rotation,
//! near-duplicate collusion rows) cross it within a few rounds. That is the
//! false-positive guarantee `tests/reputation_quarantine.rs` pins: honest
//! workers under a moderate chaos plan are never quarantined.
//!
//! Standing walks a three-state machine:
//!
//! ```text
//!            score ≥ threshold            round ≥ until
//!   Active ───────────────────▶ Quarantined ─────────▶ Probation
//!      ▲                                                  │ │
//!      │         round ≥ until (clean probation)          │ │ score ≥ threshold
//!      └──────────────────────────────────────────────────┘ └──▶ Quarantined
//! ```
//!
//! Quarantine is an *engine-synthesized eviction*: the training engine turns
//! it into a `Crash` through the existing `MembershipView`/epoch machinery
//! (and bars the adversary's own rejoin directives for the slot), readmission
//! into a `Rejoin` whose first round back is epoch-fenced like any rejoiner.
//! During probation every accrual is multiplied up, so a readmitted worker
//! that resumes misbehaving is re-quarantined faster than it was caught.
//!
//! [`containment_assignment`] is the tree tier's reshuffle policy. A
//! Krum-family level of `n` rows falls to an identical-row clique of size
//! `c ≥ ⌈n/2⌉` (the clique's mutual distances vanish, so once it outnumbers
//! the honest rows among any row's `n − f − 2` neighbours its scores win) —
//! spreading suspects evenly is therefore *worse* than concentrating them.
//! Containment does the opposite of spreading: it sacrifices up to
//! `⌊(G−1)/2⌋` groups wholesale (the root's own survivable-clique budget)
//! and caps every remaining group at its survivable `⌊(size−1)/2⌋`, so
//! captured groups stay a root-level minority and every other group keeps an
//! honest majority clique-free.

use crate::{PsError, Result};
use agg_tensor::rng::{derive_seed, sample_without_replacement, seeded_rng};
use serde::{Deserialize, Serialize};

/// Geometric decay `λ ∈ [0, 1)` applied to every score at the start of each
/// observed round.
pub const DECAY: f64 = 0.7;
/// Accrual when the wire-integrity check rejected packets of the worker's
/// submission (chaos damage, not necessarily the worker's fault — weighted
/// low).
pub const CORRUPT_WEIGHT: f64 = 0.25;
/// Accrual when the epoch fence rejected the submission. Outside the engine's
/// own readmissions this is the signature of identity rotation (crash while
/// exposed, rejoin with stale state) — weighted high.
pub const STALE_WEIGHT: f64 = 2.5;
/// Accrual when retransmit recovery ran out of budget or deadline on the
/// submission (distinguishable from a plain loss since the transport reports
/// it separately).
pub const EXHAUSTION_WEIGHT: f64 = 0.25;
/// Accrual when the submission was delivered but fell past the quorum cut.
pub const STRAGGLE_WEIGHT: f64 = 0.15;
/// Accrual when the round's distance-based selection kept the worker's row
/// out of the selected set (fed from the *previous* round's selection — the
/// selection-exclusion history).
pub const EXCLUSION_WEIGHT: f64 = 0.15;
/// Accrual when the worker's row sat inside a near-duplicate affinity cluster
/// (see [`collusion_flags`]) — the collusion signature, weighted high.
pub const COLLUSION_WEIGHT: f64 = 1.5;
/// Score at which an Active (or Probation) worker becomes a quarantine
/// candidate.
pub const QUARANTINE_THRESHOLD: f64 = 3.2;
/// How many rounds an eviction lasts before the worker is due for
/// readmission.
pub const QUARANTINE_ROUNDS: u64 = 12;
/// Length of the probation window after readmission.
pub const PROBATION_ROUNDS: u64 = 12;
/// Multiplier applied to every accrual while a worker is on probation (the
/// "tightened fencing": relapse is punished faster than first offence).
pub const PROBATION_MULTIPLIER: f64 = 2.0;

/// The worst-case steady-state score of a worker that accrues the four
/// routine wire/selection streams (corruption, exhaustion, straggling,
/// exclusion) every single round: the geometric-series limit `c / (1 − λ)`
/// ≈ 2.67. The false-positive guarantee needs it below
/// [`QUARANTINE_THRESHOLD`], which the compiler checks, while one collusion
/// or stale signature per round crosses the threshold in two to three rounds.
pub const HONEST_CEILING: f64 =
    (CORRUPT_WEIGHT + EXHAUSTION_WEIGHT + STRAGGLE_WEIGHT + EXCLUSION_WEIGHT) / (1.0 - DECAY);
const _: () = assert!(HONEST_CEILING < QUARANTINE_THRESHOLD);

/// The ledger's settings that a run chooses: the collusion sketch, the tree
/// tier's containment reshuffles and the quarantine cap. The fold's weights,
/// decay and sentence lengths are the constants above.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReputationConfig {
    /// Relative distance (to the larger sampled norm of the pair) below
    /// which two sampled rows count as affinity neighbours.
    pub affinity_epsilon: f64,
    /// Minimum affinity-component size that counts as collusion. Pairs of
    /// honest rows can collide by chance; cliques cannot.
    pub affinity_min_cluster: usize,
    /// Maximum number of coordinates sampled into each affinity sketch.
    /// The default (256) is chosen for the bench floor: colluding rows
    /// differ by deliberate jitter orders of magnitude below their scale,
    /// so even a small sample separates them from independent mini-batch
    /// gradients, while the per-round gather + pairwise pass stays within
    /// ~5% of a static round at d = 100k.
    pub affinity_max_coords: usize,
    /// Score above which a worker is treated as a suspect by
    /// [`containment_assignment`] (lower than the quarantine threshold:
    /// reshuffles react before evictions do).
    pub suspect_cutoff: f64,
    /// Recompute the tree tier's group assignment every this many rounds
    /// (0 disables reshuffles; ignored on the flat path).
    pub reshuffle_every: u64,
    /// Cap on concurrently quarantined workers; 0 means "the run's declared
    /// `f`" (flat `f` or the tree's composed bound).
    pub max_quarantined: usize,
}

impl Default for ReputationConfig {
    fn default() -> Self {
        ReputationConfig {
            affinity_epsilon: 0.05,
            affinity_min_cluster: 3,
            affinity_max_coords: 256,
            suspect_cutoff: 0.5,
            reshuffle_every: 0,
            max_quarantined: 0,
        }
    }
}

impl ReputationConfig {
    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`PsError::InvalidConfig`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<()> {
        if !self.affinity_epsilon.is_finite() || self.affinity_epsilon <= 0.0 {
            return Err(PsError::InvalidConfig(
                "reputation affinity_epsilon must be positive".into(),
            ));
        }
        if self.affinity_min_cluster < 2 {
            return Err(PsError::InvalidConfig(
                "reputation affinity_min_cluster must be at least 2".into(),
            ));
        }
        if self.affinity_max_coords == 0 {
            return Err(PsError::InvalidConfig(
                "reputation affinity_max_coords must be positive".into(),
            ));
        }
        if !self.suspect_cutoff.is_finite() || self.suspect_cutoff < 0.0 {
            return Err(PsError::InvalidConfig(
                "reputation suspect_cutoff must be finite and non-negative".into(),
            ));
        }
        Ok(())
    }
}

/// The evidence one worker produced in one round, as booleans: the ledger
/// weighs *that* a stream fired, not how many packets it touched, so one
/// badly-chaosed round cannot outweigh a clean history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundEvidence {
    /// Wire-integrity rejections on the submission.
    pub corrupt: bool,
    /// Epoch-fence rejections on the submission (engine-synthesized
    /// readmission fences are *not* counted — the engine knows it caused
    /// them).
    pub stale: bool,
    /// Retransmit recovery exhausted its budget or deadline.
    pub exhausted: bool,
    /// Delivered but cut by the quorum policy.
    pub straggled: bool,
    /// Kept by the quorum but excluded by the previous round's
    /// distance-based selection.
    pub excluded: bool,
    /// Sat in a near-duplicate affinity cluster this round.
    pub colluding: bool,
}

/// Where a worker currently stands with the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkerStanding {
    /// In good standing: eligible for rounds, accrues at weight 1.
    Active,
    /// Evicted by the ledger; the engine holds it out of the view (and
    /// suppresses adversarial rejoins) until the round below.
    Quarantined {
        /// First round at which the worker is due for readmission.
        until: u64,
    },
    /// Readmitted under tightened fencing: accruals are multiplied by
    /// [`PROBATION_MULTIPLIER`] until the round below.
    Probation {
        /// First round at which a clean probation lapses back to Active.
        until: u64,
    },
}

/// What happened to a worker's standing, for the report's event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StandingChange {
    /// The ledger evicted the worker.
    Quarantined,
    /// The ledger readmitted the worker on probation.
    Readmitted,
}

/// One quarantine/readmission transition, as recorded in the run's report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineEvent {
    /// Engine step at whose start the transition applied.
    pub round: u64,
    /// Worker id.
    pub worker: usize,
    /// What changed.
    pub change: StandingChange,
}

/// The per-worker suspicion ledger. Purely deterministic: scores are a fold
/// of the evidence stream, standings a function of scores and round numbers,
/// so replays under any thread schedule are bit-identical.
#[derive(Debug, Clone)]
pub struct ReputationLedger {
    config: ReputationConfig,
    scores: Vec<f64>,
    standing: Vec<WorkerStanding>,
    events: Vec<QuarantineEvent>,
}

impl ReputationLedger {
    /// A fresh ledger: every worker Active at score 0.
    pub fn new(config: ReputationConfig, workers: usize) -> Self {
        ReputationLedger {
            config,
            scores: vec![0.0; workers],
            standing: vec![WorkerStanding::Active; workers],
            events: Vec::new(),
        }
    }

    /// The configuration this ledger runs under.
    pub fn config(&self) -> &ReputationConfig {
        &self.config
    }

    /// Folds one round of evidence: lapse expired probations, decay every
    /// score, then accrue the weighted evidence (probation-multiplied for
    /// workers still inside their window). Worker order is the slice order —
    /// deterministic by construction.
    pub fn observe(&mut self, round: u64, evidence: &[RoundEvidence]) {
        debug_assert_eq!(evidence.len(), self.scores.len());
        for w in 0..self.scores.len() {
            if let WorkerStanding::Probation { until } = self.standing[w] {
                if round >= until {
                    self.standing[w] = WorkerStanding::Active;
                }
            }
            let e = evidence.get(w).copied().unwrap_or_default();
            let mut accrual = 0.0;
            if e.corrupt {
                accrual += CORRUPT_WEIGHT;
            }
            if e.stale {
                accrual += STALE_WEIGHT;
            }
            if e.exhausted {
                accrual += EXHAUSTION_WEIGHT;
            }
            if e.straggled {
                accrual += STRAGGLE_WEIGHT;
            }
            if e.excluded {
                accrual += EXCLUSION_WEIGHT;
            }
            if e.colluding {
                accrual += COLLUSION_WEIGHT;
            }
            if matches!(self.standing[w], WorkerStanding::Probation { .. }) {
                accrual *= PROBATION_MULTIPLIER;
            }
            self.scores[w] = self.scores[w] * DECAY + accrual;
        }
    }

    /// Workers whose score has reached the quarantine threshold and who are
    /// not already quarantined, ranked most-suspect first (score descending,
    /// id ascending on exact ties — `total_cmp`, so the ranking is total and
    /// deterministic).
    pub fn quarantine_candidates(&self) -> Vec<usize> {
        let mut out: Vec<usize> = (0..self.scores.len())
            .filter(|&w| {
                !matches!(self.standing[w], WorkerStanding::Quarantined { .. })
                    && self.scores[w] >= QUARANTINE_THRESHOLD
            })
            .collect();
        out.sort_by(|&a, &b| self.scores[b].total_cmp(&self.scores[a]).then(a.cmp(&b)));
        out
    }

    /// Marks a worker quarantined as of `round` and logs the event.
    pub fn begin_quarantine(&mut self, round: u64, worker: usize) {
        self.standing[worker] = WorkerStanding::Quarantined { until: round + QUARANTINE_ROUNDS };
        self.events.push(QuarantineEvent { round, worker, change: StandingChange::Quarantined });
    }

    /// Quarantined workers whose sentence has run out by `round`, in id
    /// order.
    pub fn due_for_readmission(&self, round: u64) -> Vec<usize> {
        (0..self.standing.len())
            .filter(|&w| matches!(self.standing[w], WorkerStanding::Quarantined { until } if round >= until))
            .collect()
    }

    /// Readmits a worker on probation as of `round` and logs the event. The
    /// score is whatever the quarantine's decay left of it.
    pub fn readmit(&mut self, round: u64, worker: usize) {
        self.standing[worker] = WorkerStanding::Probation { until: round + PROBATION_ROUNDS };
        self.events.push(QuarantineEvent { round, worker, change: StandingChange::Readmitted });
    }

    /// Whether the worker is currently quarantined.
    pub fn is_quarantined(&self, worker: usize) -> bool {
        matches!(self.standing.get(worker), Some(WorkerStanding::Quarantined { .. }))
    }

    /// Number of currently quarantined workers.
    pub fn quarantined_count(&self) -> usize {
        self.standing.iter().filter(|s| matches!(s, WorkerStanding::Quarantined { .. })).count()
    }

    /// Current standing of a worker.
    pub fn standing(&self, worker: usize) -> WorkerStanding {
        self.standing.get(worker).copied().unwrap_or(WorkerStanding::Active)
    }

    /// Current suspicion score of a worker.
    pub fn score(&self, worker: usize) -> f64 {
        self.scores.get(worker).copied().unwrap_or(0.0)
    }

    /// All current suspicion scores, indexed by worker id.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Every quarantine/readmission transition so far, in the order they
    /// happened.
    pub fn events(&self) -> &[QuarantineEvent] {
        &self.events
    }
}

/// The deterministic coordinate sample every affinity sketch reads: all of
/// `0..dimension` when it fits the budget, otherwise `max_coords` indices
/// drawn without replacement from a seed-derived stream. Sampled once per
/// run and reused every round, so sketch distances are comparable across
/// rounds — and the adversary cannot know which coordinates are watched.
pub fn affinity_sample_indices(seed: u64, dimension: usize, max_coords: usize) -> Vec<usize> {
    if dimension <= max_coords {
        (0..dimension).collect()
    } else {
        let mut rng = seeded_rng(derive_seed(seed, 0xAFF1_517E));
        let mut picked = sample_without_replacement(&mut rng, dimension, max_coords);
        picked.sort_unstable();
        picked
    }
}

/// Flags the rows sitting in near-duplicate clusters. Two present rows are
/// affinity neighbours when their sampled Euclidean distance is within
/// `epsilon ×` the larger of their sampled norms (colluding submissions
/// differ by deliberate jitter orders of magnitude below their scale, while
/// independent mini-batch gradients differ at the scale of the gradients
/// themselves); connected components of size ≥ `min_cluster` are flagged.
/// Zero-norm pairs never form an edge — two silent rows are not evidence.
///
/// Cost is `O(n·m)` for the gather plus `O(n²·m)` worst case for the pair
/// pass over the `m` sampled coordinates — but a pair stops at the first
/// `AFFINITY_CHECK_EVERY`-coordinate check that proves it too far apart,
/// so honest traffic (independent rows, apart at the scale of the gradients
/// themselves) pays `O(n²·16)` and only near-duplicates are summed to the
/// end. The exit is exact, not a heuristic: the squared differences are
/// added in the same left-to-right `f64` order as a full sum, partial sums
/// of non-negative terms never decrease under round-to-nearest and `sqrt`
/// is monotone, so a partial sum already past `epsilon × scale` means the
/// full sum is too (or is NaN, which fails the edge test as well); NaN
/// partials never compare greater, run to the end and fall to the final
/// comparison. Computed sequentially — bit-deterministic under any thread
/// schedule.
pub fn collusion_flags(
    rows: &[Option<&[f32]>],
    sample: &[usize],
    epsilon: f64,
    min_cluster: usize,
) -> Vec<bool> {
    let n = rows.len();
    let sketches: Vec<Option<Vec<f64>>> = rows
        .iter()
        .map(|row| row.map(|r| sample.iter().map(|&i| f64::from(r[i])).collect()))
        .collect();
    let norms: Vec<f64> = sketches
        .iter()
        .map(|s| s.as_ref().map_or(0.0, |v| v.iter().map(|x| x * x).sum::<f64>().sqrt()))
        .collect();

    // Union-find over the affinity edges; a clique of colluders is a single
    // component however its pairwise edges land.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for i in 0..n {
        let Some(a) = &sketches[i] else { continue };
        for j in (i + 1)..n {
            let Some(b) = &sketches[j] else { continue };
            let scale = norms[i].max(norms[j]);
            if scale <= 0.0 {
                continue;
            }
            if sketches_within(a, b, epsilon * scale) {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    parent[ri] = rj;
                }
            }
        }
    }
    let mut component_size = vec![0usize; n];
    for (i, sketch) in sketches.iter().enumerate() {
        if sketch.is_some() {
            let root = find(&mut parent, i);
            component_size[root] += 1;
        }
    }
    (0..n)
        .map(|i| sketches[i].is_some() && component_size[find(&mut parent, i)] >= min_cluster)
        .collect()
}

/// How many sampled coordinates [`collusion_flags`] adds to a pair's
/// distance between checks for the early exit.
const AFFINITY_CHECK_EVERY: usize = 16;

/// Whether two sketches lie within `threshold` of each other in Euclidean
/// distance: `(Σ (aᵢ − bᵢ)²).sqrt() <= threshold`, summed left to right,
/// stopping at the first check that proves the answer is no.
fn sketches_within(a: &[f64], b: &[f64], threshold: f64) -> bool {
    let mut dist_sq = 0.0f64;
    for (xs, ys) in a.chunks(AFFINITY_CHECK_EVERY).zip(b.chunks(AFFINITY_CHECK_EVERY)) {
        for (x, y) in xs.iter().zip(ys) {
            dist_sq += (x - y) * (x - y);
        }
        if dist_sq.sqrt() > threshold {
            return false;
        }
    }
    dist_sq.sqrt() <= threshold
}

/// The suspicion-ranked containment placement of workers into groups of the
/// given capacities (a permutation [`agg_tensor::GroupPlan`] accepts as an
/// assignment).
///
/// Suspects — workers scoring above `suspect_cutoff`, ranked score
/// descending then id ascending — are placed to keep every Krum-family
/// level below its clique-capture point `⌈size/2⌉`:
///
/// 1. **Sacrifice.** Up to `⌊(G−1)/2⌋` groups (largest capacity first) are
///    filled *entirely* with the top suspects: a fully captured group is a
///    root-level minority the root rule excludes, whereas the same suspects
///    spread around would capture everything.
/// 2. **Deal.** Remaining suspects go round-robin over the other groups,
///    capped at each group's survivable `⌊(size−1)/2⌋`; the starting group
///    rotates with `derive_seed(seed, epoch)` so repeated reshuffles do not
///    pin the same honest groups against the same suspects.
/// 3. **Overflow.** Suspects beyond every budget sacrifice further groups,
///    one at a time — containment degrades group by group instead of
///    poisoning all of them at once.
/// 4. **Fill.** Honest workers take the remaining seats in id order.
///
/// Dead workers (`live[w] == false` — quarantined or crashed slots) are
/// seated *before* anyone else, one per group round-robin from the
/// non-sacrificed end of the order: they deliver nothing, so piling them
/// into one group would starve it below the group rule's resilience floor,
/// and their wasted seats must not consume the sacrificial capacity that
/// contains the live suspects.
///
/// With no suspects and no dead workers the contiguous identity layout
/// comes back, so an evidence-free run never installs a gratuitous
/// permutation.
pub fn containment_assignment(
    scores: &[f64],
    live: &[bool],
    sizes: &[usize],
    suspect_cutoff: f64,
    seed: u64,
    epoch: u64,
) -> Vec<usize> {
    let n = scores.len();
    debug_assert_eq!(live.len(), n, "one liveness flag per worker");
    debug_assert_eq!(sizes.iter().sum::<usize>(), n, "group capacities must seat every worker");
    let group_count = sizes.len();

    let mut suspects: Vec<usize> =
        (0..n).filter(|&w| live[w] && scores[w] > suspect_cutoff).collect();
    suspects.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    let dead: Vec<usize> = (0..n).filter(|&w| !live[w]).collect();

    if suspects.is_empty() && dead.is_empty() {
        // Contiguous identity: worker w sits in the group whose capacity
        // range covers it.
        let mut assignment = Vec::with_capacity(n);
        for (g, &size) in sizes.iter().enumerate() {
            assignment.extend(std::iter::repeat(g).take(size));
        }
        return assignment;
    }

    let mut assignment = vec![usize::MAX; n];
    let mut remaining: Vec<usize> = sizes.to_vec();
    // Largest groups first (id ascending on ties): sacrificing a big group
    // absorbs the most suspects per root-level capture spent.
    let mut sacrifice_order: Vec<usize> = (0..group_count).collect();
    sacrifice_order.sort_by_key(|&g| (std::cmp::Reverse(sizes[g]), g));
    let sacrificial_budget = (group_count.saturating_sub(1)) / 2;

    // Phase 0: spread the dead evenly, starting from the groups that will
    // NOT be sacrificed (the end of the order) so the sacrificial seats
    // stay available for live suspects.
    let mut dead_cursor = 0usize;
    for &w in &dead {
        loop {
            let g = sacrifice_order[group_count - 1 - (dead_cursor % group_count)];
            dead_cursor += 1;
            if remaining[g] > 0 {
                assignment[w] = g;
                remaining[g] -= 1;
                break;
            }
        }
    }

    let mut next_suspect = 0usize;
    // Phase 1: fill up to the sacrificial budget of groups completely.
    for &g in sacrifice_order.iter().take(sacrificial_budget) {
        while remaining[g] > 0 && next_suspect < suspects.len() {
            assignment[suspects[next_suspect]] = g;
            remaining[g] -= 1;
            next_suspect += 1;
        }
    }

    // Phase 2: deal the rest round-robin over the non-sacrificed groups,
    // capped at each group's survivable-clique budget.
    let dealt: Vec<usize> = sacrifice_order.iter().skip(sacrificial_budget).copied().collect();
    if !dealt.is_empty() && next_suspect < suspects.len() {
        let mut budget: Vec<usize> =
            dealt.iter().map(|&g| (sizes[g].saturating_sub(1)) / 2).collect();
        let start = (derive_seed(seed, epoch) % dealt.len() as u64) as usize;
        let mut cursor = start;
        let mut stuck = 0usize;
        while next_suspect < suspects.len() && stuck < dealt.len() {
            let slot = cursor % dealt.len();
            let g = dealt[slot];
            if budget[slot] > 0 && remaining[g] > 0 {
                assignment[suspects[next_suspect]] = g;
                remaining[g] -= 1;
                budget[slot] -= 1;
                next_suspect += 1;
                stuck = 0;
            } else {
                stuck += 1;
            }
            cursor += 1;
        }
    }

    // Phase 3: overflow sacrifices further groups, one at a time.
    for &g in sacrifice_order.iter().skip(sacrificial_budget) {
        if next_suspect >= suspects.len() {
            break;
        }
        while remaining[g] > 0 && next_suspect < suspects.len() {
            assignment[suspects[next_suspect]] = g;
            remaining[g] -= 1;
            next_suspect += 1;
        }
    }

    // Phase 4: honest workers first-fit the remaining seats in id order.
    let mut fill_group = 0usize;
    for seat in assignment.iter_mut() {
        if *seat != usize::MAX {
            continue;
        }
        while remaining[fill_group] == 0 {
            fill_group += 1;
        }
        *seat = fill_group;
        remaining[fill_group] -= 1;
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn evidence(colluding: bool, stale: bool) -> RoundEvidence {
        RoundEvidence { colluding, stale, ..Default::default() }
    }

    #[test]
    fn default_config_is_valid_and_keeps_the_honest_ceiling_below_threshold() {
        // The ceiling's bound is checked at compile time, beside the
        // constants; the adversarial signatures must still cross.
        assert!(ReputationConfig::default().validate().is_ok());
        // One stale event per three rounds (the rotation cadence) peaks at
        // stale/(1 − λ³).
        assert!(STALE_WEIGHT / (1.0 - DECAY.powi(3)) > QUARANTINE_THRESHOLD);
        // So does one collusion flag every round.
        const { assert!(COLLUSION_WEIGHT / (1.0 - DECAY) > QUARANTINE_THRESHOLD) };
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let c = ReputationConfig { affinity_min_cluster: 1, ..Default::default() };
        assert!(c.validate().is_err(), "a single row is not a cluster");
    }

    #[test]
    fn scores_decay_geometrically_and_accrue_weighted_evidence() {
        let mut ledger = ReputationLedger::new(ReputationConfig::default(), 2);
        ledger.observe(0, &[evidence(true, false), RoundEvidence::default()]);
        assert_eq!(ledger.score(0), COLLUSION_WEIGHT);
        assert_eq!(ledger.score(1), 0.0);
        for round in 1..=8 {
            ledger.observe(round, &[RoundEvidence::default(); 2]);
        }
        let expected = COLLUSION_WEIGHT * DECAY.powi(8);
        assert!((ledger.score(0) - expected).abs() < 1e-12);
    }

    #[test]
    fn honest_chaos_evidence_never_reaches_the_threshold() {
        let mut ledger = ReputationLedger::new(ReputationConfig::default(), 1);
        // Worst case: every routine stream fires every round, forever.
        let worst = RoundEvidence {
            corrupt: true,
            exhausted: true,
            straggled: true,
            excluded: true,
            ..Default::default()
        };
        for round in 0..10_000 {
            ledger.observe(round, &[worst]);
            assert!(
                ledger.score(0) < QUARANTINE_THRESHOLD,
                "round {round}: honest worst-case score {} crossed the threshold",
                ledger.score(0)
            );
        }
        assert!(ledger.score(0) <= HONEST_CEILING + 1e-9);
    }

    #[test]
    fn rotation_stale_evidence_crosses_within_bounded_rounds() {
        let config = ReputationConfig::default();
        let mut ledger = ReputationLedger::new(config, 1);
        let mut crossed_at = None;
        for round in 0..30 {
            // The identity-rotation cadence: fenced every third round.
            ledger.observe(round, &[evidence(false, round % 3 == 0)]);
            if crossed_at.is_none() && !ledger.quarantine_candidates().is_empty() {
                crossed_at = Some(round);
            }
        }
        let crossed_at = crossed_at.expect("rotation must cross the threshold");
        assert!(crossed_at <= 9, "crossed only at round {crossed_at}");
    }

    #[test]
    fn quarantine_walks_the_standing_machine_and_logs_events() {
        let mut ledger = ReputationLedger::new(ReputationConfig::default(), 3);
        assert_eq!(ledger.standing(1), WorkerStanding::Active);

        ledger.begin_quarantine(10, 1);
        assert!(ledger.is_quarantined(1));
        assert_eq!(ledger.quarantined_count(), 1);
        assert_eq!(ledger.standing(1), WorkerStanding::Quarantined { until: 22 });
        assert!(ledger.due_for_readmission(21).is_empty());
        assert_eq!(ledger.due_for_readmission(22), vec![1]);

        ledger.readmit(22, 1);
        assert_eq!(ledger.standing(1), WorkerStanding::Probation { until: 34 });
        assert!(!ledger.is_quarantined(1));

        // Probation multiplies accrual; a clean window lapses back to Active.
        ledger.observe(
            22,
            &[RoundEvidence::default(), evidence(true, false), RoundEvidence::default()],
        );
        assert_eq!(ledger.score(1), COLLUSION_WEIGHT * PROBATION_MULTIPLIER);
        ledger.observe(33, &[RoundEvidence::default(); 3]);
        assert!(matches!(ledger.standing(1), WorkerStanding::Probation { .. }));
        ledger.observe(34, &[RoundEvidence::default(); 3]);
        assert_eq!(ledger.standing(1), WorkerStanding::Active);

        let events = ledger.events();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0],
            QuarantineEvent { round: 10, worker: 1, change: StandingChange::Quarantined }
        );
        assert_eq!(
            events[1],
            QuarantineEvent { round: 22, worker: 1, change: StandingChange::Readmitted }
        );
    }

    #[test]
    fn candidates_rank_by_score_then_id_and_skip_the_quarantined() {
        let mut ledger = ReputationLedger::new(ReputationConfig::default(), 4);
        ledger.scores = vec![6.4, 9.6, 6.4, 1.6];
        assert_eq!(ledger.quarantine_candidates(), vec![1, 0, 2]);
        ledger.begin_quarantine(0, 1);
        assert_eq!(ledger.quarantine_candidates(), vec![0, 2]);
    }

    #[test]
    fn affinity_sample_covers_small_dimensions_and_subsamples_large_ones() {
        assert_eq!(affinity_sample_indices(7, 10, 2048), (0..10).collect::<Vec<_>>());
        let sampled = affinity_sample_indices(7, 100_000, 2048);
        assert_eq!(sampled.len(), 2048);
        assert!(sampled.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        assert!(sampled.iter().all(|&i| i < 100_000));
        assert_eq!(sampled, affinity_sample_indices(7, 100_000, 2048), "seed-deterministic");
        assert_ne!(sampled, affinity_sample_indices(8, 100_000, 2048));
    }

    #[test]
    fn collusion_flags_nail_the_clique_and_spare_independent_rows() {
        let d = 64usize;
        let sample: Vec<usize> = (0..d).collect();
        let mut rng = seeded_rng(42);
        // Three colluders: one base row plus tiny jitter. Three honest rows:
        // independent draws at the same scale. One absent row.
        let base: Vec<f32> = (0..d).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut rows_data: Vec<Vec<f32>> = Vec::new();
        for k in 0..3 {
            rows_data.push(base.iter().map(|&x| x + 1e-4 * (k as f32 + 1.0)).collect());
        }
        for _ in 0..3 {
            rows_data
                .push(agg_tensor::rng::gaussian_vector(&mut rng, d, 0.0, 1.0).as_slice().to_vec());
        }
        let rows: Vec<Option<&[f32]>> =
            rows_data.iter().map(|r| Some(r.as_slice())).chain(std::iter::once(None)).collect();
        let flags = collusion_flags(&rows, &sample, 0.05, 3);
        assert_eq!(flags, vec![true, true, true, false, false, false, false]);
    }

    #[test]
    fn collusion_needs_the_minimum_cluster_and_nonzero_norms() {
        let d = 16usize;
        let sample: Vec<usize> = (0..d).collect();
        let a = vec![1.0f32; d];
        let b = vec![1.0001f32; d];
        let zero = vec![0.0f32; d];
        // A pair below the cluster minimum is not collusion.
        let rows: Vec<Option<&[f32]>> = vec![Some(&a), Some(&b)];
        assert_eq!(collusion_flags(&rows, &sample, 0.05, 3), vec![false, false]);
        // Two identical zero rows never form an edge.
        let rows: Vec<Option<&[f32]>> = vec![Some(&zero), Some(&zero), Some(&zero)];
        assert_eq!(collusion_flags(&rows, &sample, 0.05, 2), vec![false, false, false]);
    }

    /// The pre-early-exit `collusion_flags`, kept verbatim as the oracle:
    /// every pair's squared differences summed to the end before the one
    /// comparison.
    fn collusion_flags_full_sum(
        rows: &[Option<&[f32]>],
        sample: &[usize],
        epsilon: f64,
        min_cluster: usize,
    ) -> Vec<bool> {
        let n = rows.len();
        let sketches: Vec<Option<Vec<f64>>> = rows
            .iter()
            .map(|row| row.map(|r| sample.iter().map(|&i| f64::from(r[i])).collect()))
            .collect();
        let norms: Vec<f64> = sketches
            .iter()
            .map(|s| s.as_ref().map_or(0.0, |v| v.iter().map(|x| x * x).sum::<f64>().sqrt()))
            .collect();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for i in 0..n {
            let Some(a) = &sketches[i] else { continue };
            for j in (i + 1)..n {
                let Some(b) = &sketches[j] else { continue };
                let scale = norms[i].max(norms[j]);
                if scale <= 0.0 {
                    continue;
                }
                let dist_sq: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
                if dist_sq.sqrt() <= epsilon * scale {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[ri] = rj;
                    }
                }
            }
        }
        let mut component_size = vec![0usize; n];
        for (i, sketch) in sketches.iter().enumerate() {
            if sketch.is_some() {
                let root = find(&mut parent, i);
                component_size[root] += 1;
            }
        }
        (0..n)
            .map(|i| sketches[i].is_some() && component_size[find(&mut parent, i)] >= min_cluster)
            .collect()
    }

    /// One round's worth of rows for the sketch, drawn from `seed`: a
    /// jittered clique of `clique` rows in the leading slots, then a mix of
    /// absent rows, all-zero rows, independent Gaussian rows, Gaussian rows
    /// with a NaN / `+∞` / `−∞` at a sampled coordinate before (position 3)
    /// or after (position 20) the first 16-coordinate check, and the
    /// `[1, 0, …]` / `[2, 0, …]` pair whose distance sits exactly on
    /// `0.5 × scale` (the differing coordinate at sampled position 0 or 20).
    fn sketch_rows(
        seed: u64,
        n: usize,
        d: usize,
        sample: &[usize],
        clique: usize,
    ) -> Vec<Option<Vec<f32>>> {
        let mut rng = seeded_rng(derive_seed(seed, 1));
        let base = agg_tensor::rng::gaussian_vector(&mut rng, d, 0.0, 1.0);
        let at = |position: usize| sample[position.min(sample.len() - 1)];
        (0..n)
            .map(|w| {
                if w < clique {
                    return Some(base.as_slice().iter().map(|&x| x + 1e-4 * w as f32).collect());
                }
                let mut row =
                    agg_tensor::rng::gaussian_vector(&mut rng, d, 0.0, 1.0).as_slice().to_vec();
                let draw = derive_seed(seed, 100 + w as u64);
                let poison = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][(draw >> 8) as usize % 3];
                match draw % 12 {
                    0 => return None,
                    1 => row.fill(0.0),
                    2 => row[at(3)] = poison,
                    3 => row[at(20)] = poison,
                    4 | 5 => {
                        row.fill(0.0);
                        row[at(if draw % 12 == 4 { 0 } else { 20 })] = 1.0 + (w % 2) as f32;
                    }
                    _ => {}
                }
                Some(row)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The early exit is exact: the flags equal the full-sum oracle's
        /// over the shapes, thresholds and hostile rows above.
        #[test]
        fn collusion_flags_match_the_full_sum_oracle(
            n in prop_oneof![Just(0usize), Just(1), Just(2), Just(7), Just(40)],
            m in prop_oneof![Just(1usize), Just(15), Just(16), Just(17), Just(33), Just(256)],
            epsilon in prop_oneof![Just(1e-6f64), Just(0.05), Just(0.5), Just(10.0)],
            (min_cluster, clique_shape, seed) in (2usize..6, 0usize..4, 0u64..u64::MAX),
        ) {
            // Sample every other coordinate, so sketch position ≠ row index.
            let d = 2 * m;
            let sample: Vec<usize> = (0..m).map(|i| 2 * i + 1).collect();
            let clique = [0, min_cluster - 1, min_cluster, n][clique_shape].min(n);
            let rows = sketch_rows(seed, n, d, &sample, clique);
            let views: Vec<Option<&[f32]>> = rows.iter().map(|r| r.as_deref()).collect();
            let flags = collusion_flags(&views, &sample, epsilon, min_cluster);
            prop_assert_eq!(
                &flags,
                &collusion_flags_full_sum(&views, &sample, epsilon, min_cluster),
                "n={} m={} eps={} min_cluster={} clique={} seed={}",
                n, m, epsilon, min_cluster, clique, seed
            );
            // The planted clique is what the sketch exists to find.
            if epsilon >= 0.05 && clique >= min_cluster {
                prop_assert!(flags[..clique].iter().all(|&f| f), "clique of {} missed", clique);
            }
        }
    }

    #[test]
    fn the_early_exit_keeps_the_boundary_and_non_finite_cases() {
        // 33 sampled coordinates: checks fall after 16, 32 and 33.
        let sample: Vec<usize> = (0..33).collect();
        let unit = |position: usize, value: f32| {
            let mut row = vec![0.0f32; 33];
            row[position] = value;
            row
        };
        for position in [0, 15, 16, 20, 32] {
            // Distance 1 against scale 2: exactly on 0.5 × scale is an edge,
            // a hair under it is not.
            let (a, b) = (unit(position, 1.0), unit(position, 2.0));
            let rows: Vec<Option<&[f32]>> = vec![Some(&a), Some(&b)];
            assert_eq!(collusion_flags(&rows, &sample, 0.5, 2), vec![true, true], "{position}");
            assert_eq!(
                collusion_flags(&rows, &sample, 0.499_999, 2),
                vec![false, false],
                "{position}"
            );
            // A NaN or an infinity anywhere in a pair is never an edge,
            // whether it lands before or after the first check.
            for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let mut c = a.clone();
                c[(position + 7) % 33] = poison;
                let rows: Vec<Option<&[f32]>> = vec![Some(&a), Some(&c), Some(&c)];
                assert_eq!(
                    collusion_flags(&rows, &sample, 10.0, 2),
                    collusion_flags_full_sum(&rows, &sample, 10.0, 2),
                    "{poison} near {position}"
                );
            }
        }
    }

    #[test]
    fn containment_with_no_suspects_is_the_contiguous_identity() {
        let scores = vec![0.0; 7];
        let sizes = vec![3usize, 3, 1];
        assert_eq!(
            containment_assignment(&scores, &[true; 7], &sizes, 0.5, 9, 0),
            vec![0, 0, 0, 1, 1, 1, 2]
        );
    }

    #[test]
    fn containment_sacrifices_groups_and_caps_the_rest() {
        // The GroupCollusion acceptance shape: 30 workers in 5 groups of 6,
        // the trailing 15 all suspect at the same score.
        let mut scores = vec![0.0; 30];
        for s in scores.iter_mut().skip(15) {
            *s = 1.5;
        }
        let sizes = vec![6usize; 5];
        let assignment = containment_assignment(&scores, &[true; 30], &sizes, 0.5, 21, 0);
        // Capacities preserved.
        let mut counts = vec![0usize; 5];
        for &g in &assignment {
            counts[g] += 1;
        }
        assert_eq!(counts, sizes);
        // Per-group suspect counts: two sacrificed groups of 6, one suspect
        // dealt to each remaining group — every non-sacrificed group stays
        // below its capture point ⌈6/2⌉ = 3.
        let mut suspect_counts = vec![0usize; 5];
        for w in 15..30 {
            suspect_counts[assignment[w]] += 1;
        }
        suspect_counts.sort_unstable();
        assert_eq!(suspect_counts, vec![1, 1, 1, 6, 6]);
        // Deterministic in (seed, epoch).
        assert_eq!(assignment, containment_assignment(&scores, &[true; 30], &sizes, 0.5, 21, 0));
    }

    #[test]
    fn containment_overflow_degrades_one_group_at_a_time() {
        // 12 workers in 3 groups of 4 with 8 suspects: the sacrifice budget
        // ⌊(3−1)/2⌋ = 1 group plus survivable budgets of ⌊3/2⌋ = 1 each can
        // only contain 6, so overflow is inevitable — it must pile into the
        // *next* group in sacrifice order rather than spread evenly.
        let mut scores = vec![0.0; 12];
        for s in scores.iter_mut().take(8) {
            *s = 2.0;
        }
        let sizes = vec![4usize; 3];
        let assignment = containment_assignment(&scores, &[true; 12], &sizes, 0.5, 3, 5);
        let mut suspect_counts = vec![0usize; 3];
        for w in 0..8 {
            suspect_counts[assignment[w]] += 1;
        }
        suspect_counts.sort_unstable();
        assert_eq!(
            suspect_counts,
            vec![1, 3, 4],
            "overflow concentrates in one further group, leaving the last survivable"
        );
        let mut counts = vec![0usize; 3];
        for &g in &assignment {
            counts[g] += 1;
        }
        assert_eq!(counts, sizes);
    }

    #[test]
    fn containment_seats_everyone_for_ragged_partitions() {
        // Fuzz-ish sweep over shapes and suspect mixes: every worker seated,
        // every capacity respected, suspects never exceed a survivable
        // budget in more groups than the sacrifice can explain.
        for (n, sizes) in [(7usize, vec![3usize, 3, 1]), (10, vec![4, 4, 2]), (9, vec![9])] {
            for suspect_count in 0..=n {
                let mut scores = vec![0.0; n];
                for s in scores.iter_mut().take(suspect_count) {
                    *s = 1.0 + suspect_count as f64;
                }
                let assignment =
                    containment_assignment(&scores, &vec![true; n], &sizes, 0.5, 11, 2);
                let mut counts = vec![0usize; sizes.len()];
                for &g in &assignment {
                    assert!(g < sizes.len());
                    counts[g] += 1;
                }
                assert_eq!(counts, sizes, "n={n} suspects={suspect_count}");
            }
        }
    }

    #[test]
    fn containment_spreads_dead_workers_one_per_group_from_the_unsacrificed_end() {
        // 3 quarantined workers across 5 groups of 6: each lands in a
        // different group, none in the sacrificial ones (which must keep
        // their full capacity for live suspects), so no group drops more
        // than one live seat — the floor-starvation mode this guards.
        let mut scores = vec![0.0; 30];
        for s in scores.iter_mut().skip(15) {
            *s = 5.0;
        }
        let mut live = [true; 30];
        live[15] = false;
        live[21] = false;
        live[27] = false;
        let sizes = vec![6usize; 5];
        let assignment = containment_assignment(&scores, &live, &sizes, 0.5, 21, 3);
        let mut dead_per_group = [0usize; 5];
        for w in [15, 21, 27] {
            dead_per_group[assignment[w]] += 1;
        }
        assert_eq!(dead_per_group.iter().max(), Some(&1), "dead workers piled up: {assignment:?}");
        // 12 live suspects fit exactly in the two sacrificial groups, so no
        // live suspect shares a group with a dead seat or an honest worker.
        let mut live_suspects_per_group = vec![0usize; 5];
        for w in 15..30 {
            if live[w] {
                live_suspects_per_group[assignment[w]] += 1;
            }
        }
        for w in [15, 21, 27] {
            assert_eq!(live_suspects_per_group[assignment[w]], 0, "dead seated with live suspects");
        }
        live_suspects_per_group.sort_unstable();
        assert_eq!(live_suspects_per_group, vec![0, 0, 0, 6, 6]);
    }
}
