//! # agg-attacks — Byzantine worker behaviours
//!
//! The paper's threat model (§3.1): up to `f` of the `n` workers are
//! controlled by a single adversary with unbounded computational power,
//! access to the full dataset, and knowledge of every correct worker's
//! gradient. This crate implements that adversary's repertoire so the
//! evaluation can inject each behaviour into the parameter-server simulator:
//!
//! | Attack | Paper reference | Defeats |
//! |---|---|---|
//! | [`AttackKind::None`] | baseline | — |
//! | [`AttackKind::Random`] | §2.2 "a Byzantine worker can propose a gradient that can completely ruin the training" | averaging |
//! | [`AttackKind::Reversed`] | §4.1 (the Draco adversary model) | averaging |
//! | [`AttackKind::SignFlip`] | classic poisoning baseline | averaging |
//! | [`AttackKind::NonFinite`] | §2.3 "support non-finite coordinates" | averaging, naive implementations |
//! | [`AttackKind::ConstantDrift`] | §3.1 goal of the adversary | averaging |
//! | [`AttackKind::LittleIsEnough`] | §2.2 / Fig. 9 dimensional-leeway attack | weak GARs (degrades), not Bulyan |
//! | [`AttackKind::Alie`] | "A Little Is Enough" (Baruch et al.), exact `z_max` | weak GARs (degrades), not Bulyan |
//! | [`AttackKind::MinMax`] | min-max distance attack (Shejwalkar & Houmansadr) | distance outlier tests |
//! | [`AttackKind::MinSum`] | min-sum distance attack (Shejwalkar & Houmansadr) | sum-of-distances scores |
//! | [`AttackKind::Adaptive`] | selection-feedback attacker with identity churn (elastic-membership threat model) | static analyses |
//! | [`AttackKind::SlowRotation`] | churn paced slower than a reputation ledger's decay | suspicion ledgers |
//! | [`AttackKind::GroupCollusion`] | captured groups colluding at the tree's root | the tree tier past its composed bound |
//!
//! Attacks are *omniscient*: [`Attack::craft`] receives all honest gradients
//! of the round, matching the strongest adversary the paper allows — and,
//! for the adaptive family, the previous round's selection set via
//! [`AttackContext::previous_selection`].

pub mod attack;
pub mod catalogue;

pub use attack::{Attack, AttackContext, ChurnDirective};
pub use catalogue::AttackKind;
