//! Byzantine-resilience preconditions and the admissible selection sizes
//! proven in the paper's appendix.
//!
//! * Multi-Krum (weak resilience): `n ≥ 2f + 3`, any `m ≤ n − f − 2`
//!   (Theorem 1).
//! * Bulyan over Multi-Krum (strong resilience): `n ≥ 4f + 3`, any
//!   `m ≤ n − 2f − 2` (Theorem 2).
//! * The slowdown-optimal choices are `m̃ = n − f − 2` (weak) and
//!   `m̃ = n − 2f − 2` (strong), giving a slowdown of `Ω(√(m̃/n))` versus
//!   plain averaging.

use crate::{AggregationError, GarKind, Result};

/// Minimum number of workers for weak resilience with Multi-Krum.
pub fn multi_krum_min_workers(f: usize) -> usize {
    2 * f + 3
}

/// Minimum number of workers for strong resilience with Bulyan.
pub fn bulyan_min_workers(f: usize) -> usize {
    4 * f + 3
}

/// Minimum number of workers for the coordinate-wise median / trimmed-mean
/// family (an honest majority in every coordinate).
pub fn median_min_workers(f: usize) -> usize {
    2 * f + 1
}

/// Largest admissible Multi-Krum selection size: `m ≤ n − f − 2`.
///
/// # Errors
///
/// Returns [`AggregationError::NotEnoughWorkers`] when `n < 2f + 3`.
pub fn multi_krum_max_m(n: usize, f: usize) -> Result<usize> {
    check_multi_krum(n, f)?;
    Ok(n - f - 2)
}

/// Largest admissible Bulyan selection size: `m ≤ n − 2f − 2`.
///
/// # Errors
///
/// Returns [`AggregationError::NotEnoughWorkers`] when `n < 4f + 3`.
pub fn bulyan_max_m(n: usize, f: usize) -> Result<usize> {
    check_bulyan(n, f)?;
    Ok(n - 2 * f - 2)
}

/// Number of Krum neighbours used in the score: `n − f − 2`.
///
/// # Errors
///
/// Returns [`AggregationError::NotEnoughWorkers`] when `n < 2f + 3`.
pub fn krum_neighbour_count(n: usize, f: usize) -> Result<usize> {
    check_multi_krum(n, f)?;
    Ok(n - f - 2)
}

/// Number of selection iterations Bulyan performs: `θ = n − 2f`.
///
/// # Errors
///
/// Returns [`AggregationError::NotEnoughWorkers`] when `n < 4f + 3`.
pub fn bulyan_selection_count(n: usize, f: usize) -> Result<usize> {
    check_bulyan(n, f)?;
    Ok(n - 2 * f)
}

/// Number of values averaged around the coordinate-wise median inside
/// Bulyan: `β = θ − 2f = n − 4f`.
///
/// # Errors
///
/// Returns [`AggregationError::NotEnoughWorkers`] when `n < 4f + 3`.
pub fn bulyan_beta(n: usize, f: usize) -> Result<usize> {
    check_bulyan(n, f)?;
    Ok(n - 4 * f)
}

/// Checks the Multi-Krum precondition `n ≥ 2f + 3`.
///
/// # Errors
///
/// Returns [`AggregationError::NotEnoughWorkers`] when violated.
pub fn check_multi_krum(n: usize, f: usize) -> Result<()> {
    let required = multi_krum_min_workers(f);
    if n < required {
        return Err(AggregationError::NotEnoughWorkers {
            rule: "multi-krum",
            f,
            required,
            actual: n,
        });
    }
    Ok(())
}

/// Checks the Bulyan precondition `n ≥ 4f + 3`.
///
/// # Errors
///
/// Returns [`AggregationError::NotEnoughWorkers`] when violated.
pub fn check_bulyan(n: usize, f: usize) -> Result<()> {
    let required = bulyan_min_workers(f);
    if n < required {
        return Err(AggregationError::NotEnoughWorkers { rule: "bulyan", f, required, actual: n });
    }
    Ok(())
}

/// Checks the coordinate-median / trimmed-mean precondition `n ≥ 2f + 1`.
///
/// # Errors
///
/// Returns [`AggregationError::NotEnoughWorkers`] when violated.
pub fn check_median(rule: &'static str, n: usize, f: usize) -> Result<()> {
    let required = median_min_workers(f);
    if n < required {
        return Err(AggregationError::NotEnoughWorkers { rule, f, required, actual: n });
    }
    Ok(())
}

/// Largest `f` tolerable by Multi-Krum with `n` workers (`⌊(n − 3) / 2⌋`),
/// or `None` when even `f = 0` is not supported.
pub fn max_f_multi_krum(n: usize) -> Option<usize> {
    if n < 3 {
        None
    } else {
        Some((n - 3) / 2)
    }
}

/// Largest `f` tolerable by Bulyan with `n` workers (`⌊(n − 3) / 4⌋`), or
/// `None` when even `f = 0` is not supported.
pub fn max_f_bulyan(n: usize) -> Option<usize> {
    if n < 3 {
        None
    } else {
        Some((n - 3) / 4)
    }
}

/// Minimum live worker count below which `rule` loses its resilience
/// guarantee for a declared `f`: `2f + 3` for the Krum family, `4f + 3` for
/// Bulyan, `2f + 1` for the coordinate-wise family and the majority vote of
/// a repetition group, and `1` for the
/// non-resilient averaging rules (they aggregate anything, so only an empty
/// round is inadmissible).
///
/// The elastic-membership engine consults this floor on every churn
/// transition and refuses to aggregate once the live set shrinks past it.
pub fn resilience_floor(rule: GarKind, f: usize) -> usize {
    match rule {
        GarKind::Krum | GarKind::MultiKrum => multi_krum_min_workers(f),
        GarKind::Bulyan => bulyan_min_workers(f),
        GarKind::Median
        | GarKind::TrimmedMean
        | GarKind::MeaMed
        | GarKind::GeometricMedian
        | GarKind::Majority => median_min_workers(f),
        GarKind::Average | GarKind::SelectiveAverage => 1,
    }
}

/// Largest total Byzantine worker count the two-level aggregation tree
/// tolerates when every group runs its GAR with a declared per-group budget
/// `f_group` and the root runs its GAR over the group outputs with a declared
/// budget `f_root`:
///
/// ```text
/// f_total_max = (f_group + 1) · (f_root + 1) − 1.
/// ```
///
/// The capture-counting argument: a group's GAR withstands up to `f_group`
/// Byzantine members, so the adversary must spend `f_group + 1` workers to
/// *capture* a group (control its output arbitrarily). The root withstands up
/// to `f_root` captured groups. An adversary with `f_total` workers captures
/// at most `⌊f_total / (f_group + 1)⌋` groups (concentrating workers in the
/// fewest groups is optimal — exactly the colluding-group attack in
/// `agg-attacks`), so the tree is safe iff
/// `⌊f_total / (f_group + 1)⌋ ≤ f_root`, i.e.
/// `f_total ≤ (f_group + 1)(f_root + 1) − 1`. Workers left over after the
/// last whole capture sit inside still-honest-majority groups where their
/// group's GAR absorbs them (they are within that group's `f_group` budget by
/// construction of the division).
pub fn composed_max_f(f_group: usize, f_root: usize) -> usize {
    (f_group + 1) * (f_root + 1) - 1
}

/// Number of groups that can *contribute* to the root round: a group
/// contributes iff its (live) member count clears its rule's resilience
/// floor for the declared per-group `f`. Undersized groups — the ragged last
/// group of an indivisible `n`, or a group shrunk by churn evictions — are
/// excluded here rather than aggregated unsoundly or panicked over.
pub fn contributing_groups(
    group_sizes: impl IntoIterator<Item = usize>,
    group_rule: GarKind,
    f_group: usize,
) -> usize {
    let floor = resilience_floor(group_rule, f_group);
    group_sizes.into_iter().filter(|&size| size >= floor).count()
}

/// Checks the composed two-level precondition for a tree round over groups of
/// the given sizes: the number of contributing groups (per
/// [`contributing_groups`]) must itself clear the *root* rule's resilience
/// floor for `f_root`. This is the tree-tier counterpart of the flat
/// `check_*` functions — the engine consults it after every churn transition
/// and refuses the round (never panics, never under-counts) when it fails.
///
/// # Errors
///
/// Returns [`AggregationError::NotEnoughWorkers`] naming the root rule when
/// too few groups contribute.
pub fn check_tree(
    group_rule: GarKind,
    f_group: usize,
    root_rule: GarKind,
    f_root: usize,
    group_sizes: impl IntoIterator<Item = usize>,
) -> Result<()> {
    let contributing = contributing_groups(group_sizes, group_rule, f_group);
    let required = resilience_floor(root_rule, f_root);
    if contributing < required {
        return Err(AggregationError::NotEnoughWorkers {
            rule: root_rule.name(),
            f: f_root,
            required,
            actual: contributing,
        });
    }
    Ok(())
}

/// Smallest identical-row clique that *captures* a Krum-family selection
/// over `n` rows: `⌈n / 2⌉`. A clique of `c` identical rows gives each
/// member `c − 1` zero-distance neighbours; once `c − 1 ≥ n − c` — i.e.
/// `c ≥ ⌈n / 2⌉` — every clique member's Krum score is the minimum possible
/// and the selection is theirs regardless of the declared `f`. The
/// contrapositive is the budget a placement policy can rely on: a group of
/// size `n` *survives* any planted clique of at most
/// `clique_capture_threshold(n) − 1 = ⌊(n − 1) / 2⌋` members.
///
/// This is the arithmetic behind reputation-driven containment reshuffles:
/// concentrating suspects into sacrificial groups (each fully captured, then
/// out-voted at the root) while every remaining group stays below this
/// threshold.
pub fn clique_capture_threshold(n: usize) -> usize {
    n.div_ceil(2)
}

/// The theoretical slowdown ratio `√(m̃ / n)` of Multi-Krum / AggregaThor
/// versus plain averaging, in the absence of Byzantine workers
/// (Theorems 1 & 2 part (ii)).
///
/// Returns `None` when the configuration is inadmissible.
pub fn theoretical_slowdown(n: usize, f: usize, strong: bool) -> Option<f64> {
    let m_tilde = if strong { bulyan_max_m(n, f).ok()? } else { multi_krum_max_m(n, f).ok()? };
    Some((m_tilde as f64 / n as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clique_capture_threshold_is_the_majority_point() {
        // c identical rows capture iff each member sees c − 1 zero-distance
        // neighbours out-numbering the n − c outsiders.
        assert_eq!(clique_capture_threshold(5), 3);
        assert_eq!(clique_capture_threshold(6), 3);
        assert_eq!(clique_capture_threshold(7), 4);
        // The survivable budget is one less than the capture point.
        for n in 2..64 {
            let survivable = clique_capture_threshold(n) - 1;
            assert_eq!(survivable, (n - 1) / 2, "n={n}");
        }
    }

    #[test]
    fn paper_setup_is_admissible() {
        // The paper's main setup: 19 workers, f = 4.
        assert!(check_multi_krum(19, 4).is_ok());
        assert!(check_bulyan(19, 4).is_ok());
        assert_eq!(multi_krum_max_m(19, 4).unwrap(), 13);
        assert_eq!(bulyan_max_m(19, 4).unwrap(), 9);
        assert_eq!(bulyan_selection_count(19, 4).unwrap(), 11);
        assert_eq!(bulyan_beta(19, 4).unwrap(), 3);
    }

    #[test]
    fn preconditions_reject_too_few_workers() {
        assert!(check_multi_krum(10, 4).is_err());
        assert!(check_bulyan(18, 4).is_err());
        assert!(check_median("median", 8, 4).is_err());
        assert!(check_median("median", 9, 4).is_ok());
    }

    #[test]
    fn boundary_values_are_exact() {
        assert!(check_multi_krum(11, 4).is_ok());
        assert!(check_multi_krum(10, 4).is_err());
        assert!(check_bulyan(19, 4).is_ok());
        assert!(check_bulyan(7, 1).is_ok());
        assert!(check_bulyan(6, 1).is_err());
    }

    #[test]
    fn max_f_is_inverse_of_min_workers() {
        for n in 3..64usize {
            let f = max_f_multi_krum(n).unwrap();
            assert!(multi_krum_min_workers(f) <= n);
            assert!(multi_krum_min_workers(f + 1) > n);
            let f = max_f_bulyan(n).unwrap();
            assert!(bulyan_min_workers(f) <= n);
            assert!(bulyan_min_workers(f + 1) > n);
        }
        assert_eq!(max_f_multi_krum(2), None);
        assert_eq!(max_f_bulyan(1), None);
        // With 19 workers (the paper): Multi-Krum tolerates f=8, Bulyan f=4.
        assert_eq!(max_f_multi_krum(19), Some(8));
        assert_eq!(max_f_bulyan(19), Some(4));
    }

    #[test]
    fn max_f_is_the_exact_boundary_of_check_for_all_n_up_to_128() {
        // Property: `max_f_*` is *exactly* the largest f for which `check_*`
        // passes — f itself is admissible, f + 1 is not — for every n the
        // engine could plausibly run with.
        for n in 0..=128usize {
            match max_f_multi_krum(n) {
                Some(f) => {
                    assert!(check_multi_krum(n, f).is_ok(), "multi-krum n={n} f={f}");
                    assert!(check_multi_krum(n, f + 1).is_err(), "multi-krum n={n} f={}", f + 1);
                }
                None => assert!(check_multi_krum(n, 0).is_err(), "multi-krum n={n} f=0"),
            }
            match max_f_bulyan(n) {
                Some(f) => {
                    assert!(check_bulyan(n, f).is_ok(), "bulyan n={n} f={f}");
                    assert!(check_bulyan(n, f + 1).is_err(), "bulyan n={n} f={}", f + 1);
                }
                None => assert!(check_bulyan(n, 0).is_err(), "bulyan n={n} f=0"),
            }
        }
    }

    #[test]
    fn resilience_floor_matches_the_per_rule_preconditions() {
        for f in 0..16usize {
            assert_eq!(resilience_floor(GarKind::Krum, f), multi_krum_min_workers(f));
            assert_eq!(resilience_floor(GarKind::MultiKrum, f), multi_krum_min_workers(f));
            assert_eq!(resilience_floor(GarKind::Bulyan, f), bulyan_min_workers(f));
            assert_eq!(resilience_floor(GarKind::Median, f), median_min_workers(f));
            assert_eq!(resilience_floor(GarKind::TrimmedMean, f), median_min_workers(f));
            assert_eq!(resilience_floor(GarKind::MeaMed, f), median_min_workers(f));
            assert_eq!(resilience_floor(GarKind::GeometricMedian, f), median_min_workers(f));
            assert_eq!(resilience_floor(GarKind::Majority, f), 2 * f + 1);
            assert_eq!(resilience_floor(GarKind::Average, f), 1);
            assert_eq!(resilience_floor(GarKind::SelectiveAverage, f), 1);

            // The floor is exactly the n where `check_*` flips from Err to Ok.
            let n = resilience_floor(GarKind::MultiKrum, f);
            assert!(check_multi_krum(n, f).is_ok());
            assert!(n == 0 || check_multi_krum(n - 1, f).is_err());
            let n = resilience_floor(GarKind::Bulyan, f);
            assert!(check_bulyan(n, f).is_ok());
            assert!(n == 0 || check_bulyan(n - 1, f).is_err());
        }
        // Paper deployment: n = 19, f = 4 sits exactly on Bulyan's floor.
        assert_eq!(resilience_floor(GarKind::Bulyan, 4), 19);
        assert_eq!(resilience_floor(GarKind::MultiKrum, 4), 11);
    }

    #[test]
    fn composed_max_f_counts_whole_group_captures() {
        // Capturing a group costs f_group + 1 workers; the root absorbs
        // f_root captures, so one more worker than (f_g+1)(f_r+1)-1 buys the
        // (f_root + 1)-th capture.
        assert_eq!(composed_max_f(0, 0), 0);
        assert_eq!(composed_max_f(4, 0), 4);
        assert_eq!(composed_max_f(0, 4), 4);
        // n = 1024, g = 32 → 32 groups; multi-krum at both levels tolerates
        // f_group = 14 per group and f_root = 14 groups: 224 total.
        assert_eq!(composed_max_f(14, 14), 224);
        for f_g in 0..8usize {
            for f_r in 0..8usize {
                let total = composed_max_f(f_g, f_r);
                assert_eq!(total / (f_g + 1), f_r, "f_total/(f_g+1) captures exactly f_root");
                assert_eq!((total + 1) / (f_g + 1), f_r + 1, "one more worker over-captures");
            }
        }
    }

    #[test]
    fn contributing_groups_excludes_undersized_groups() {
        // Multi-Krum f=2 → floor 7: the ragged 5-worker tail and the
        // churn-shrunk 6-worker group drop out; f = 0 still floors at 3.
        let sizes = [32usize, 32, 6, 5];
        assert_eq!(contributing_groups(sizes, GarKind::MultiKrum, 2), 2);
        assert_eq!(contributing_groups(sizes, GarKind::MultiKrum, 0), 4);
        assert_eq!(contributing_groups([2usize, 1, 2], GarKind::MultiKrum, 0), 0);
        // Averaging rules only need a non-empty group.
        assert_eq!(contributing_groups([1usize, 0, 3], GarKind::Average, 0), 2);
        assert_eq!(contributing_groups(std::iter::empty(), GarKind::Median, 1), 0);
    }

    #[test]
    fn check_tree_requires_the_root_floor_in_contributing_groups() {
        // 8 full groups of 32: multi-krum root with f_root = 2 needs 7.
        let full = vec![32usize; 8];
        assert!(check_tree(GarKind::MultiKrum, 4, GarKind::MultiKrum, 2, full.clone()).is_ok());
        // Shrinking two groups below the group floor (11) leaves 6 < 7.
        let mut shrunk = full;
        shrunk[3] = 10;
        shrunk[5] = 0;
        let err = check_tree(GarKind::MultiKrum, 4, GarKind::MultiKrum, 2, shrunk).unwrap_err();
        match err {
            AggregationError::NotEnoughWorkers { rule, f, required, actual } => {
                assert_eq!(rule, "multi-krum");
                assert_eq!(f, 2);
                assert_eq!(required, 7);
                assert_eq!(actual, 6);
            }
            other => panic!("unexpected error {other:?}"),
        }
        // A degenerate single-group tree works whenever the root floor is 1.
        assert!(check_tree(GarKind::MultiKrum, 4, GarKind::Average, 0, [11usize]).is_ok());
        assert!(check_tree(GarKind::MultiKrum, 4, GarKind::Median, 0, [11usize]).is_ok());
        assert!(check_tree(GarKind::MultiKrum, 4, GarKind::MultiKrum, 0, [11usize]).is_err());
    }

    #[test]
    fn composed_two_level_boundary_is_exact_for_all_n_up_to_128() {
        // Extension of the flat boundary property to the composed bound: for
        // every total worker count n ≤ 128 partitioned into contiguous groups
        // of g (ragged last group included), `check_tree` must agree exactly
        // with the brute-force evaluation — count the groups whose size
        // clears the group floor, compare against the root floor — for
        // every level-rule combination the tree tier supports, including
        // f = 0 groups. Never a panic, never an under-count. g = n is the
        // flat roster: one group, which under the identity root
        // (`Levels` with no root) must seat every rule exactly at its flat
        // floor, and refuse naming the rule.
        let combos = [
            (GarKind::MultiKrum, 4usize, GarKind::MultiKrum, 2usize),
            (GarKind::MultiKrum, 0, GarKind::MultiKrum, 0),
            (GarKind::Bulyan, 1, GarKind::MultiKrum, 1),
            (GarKind::Median, 3, GarKind::Median, 1),
            (GarKind::TrimmedMean, 0, GarKind::Bulyan, 0),
            (GarKind::Average, 0, GarKind::Average, 0),
        ];
        for n in 1..=128usize {
            for kind in GarKind::ALL {
                for f in 0..=n {
                    let one_group = crate::Levels::new(crate::GarConfig::new(kind, f), None, n);
                    match one_group.check([n]) {
                        Ok(()) => assert!(n >= resilience_floor(kind, f), "n={n}: {kind} f={f}"),
                        Err(AggregationError::NotEnoughWorkers { rule, .. }) => {
                            assert!(n < resilience_floor(kind, f), "n={n}: {kind} f={f}");
                            assert_eq!(rule, kind.name());
                        }
                        Err(other) => panic!("n={n}: {kind} f={f}: {other}"),
                    }
                    assert_eq!(one_group.composed_max_f(), f, "the identity root adds no budget");
                }
            }
            for g in [1usize, 4, 8, 17, 32, n] {
                let group_count = n.div_ceil(g);
                let sizes: Vec<usize> = (0..group_count)
                    .map(|k| if (k + 1) * g <= n { g } else { n - k * g })
                    .collect();
                assert_eq!(sizes.iter().sum::<usize>(), n);
                for (group_rule, f_g, root_rule, f_r) in combos {
                    let group_floor = resilience_floor(group_rule, f_g);
                    let contributing_brute = sizes.iter().filter(|&&s| s >= group_floor).count();
                    assert_eq!(
                        contributing_groups(sizes.iter().copied(), group_rule, f_g),
                        contributing_brute,
                        "n={n} g={g} {group_rule} f={f_g}"
                    );
                    let ok =
                        check_tree(group_rule, f_g, root_rule, f_r, sizes.iter().copied()).is_ok();
                    let expected = contributing_brute >= resilience_floor(root_rule, f_r);
                    assert_eq!(ok, expected, "n={n} g={g} {group_rule}/{root_rule}");
                }
            }
        }
    }

    #[test]
    fn krum_neighbour_count_matches_definition() {
        assert_eq!(krum_neighbour_count(19, 4).unwrap(), 13);
        assert_eq!(krum_neighbour_count(7, 2).unwrap(), 3);
        assert!(krum_neighbour_count(6, 2).is_err());
    }

    #[test]
    fn slowdown_is_below_one_and_monotone_in_f() {
        let s1 = theoretical_slowdown(19, 1, false).unwrap();
        let s4 = theoretical_slowdown(19, 4, false).unwrap();
        assert!(s1 < 1.0 && s4 < 1.0);
        assert!(s4 < s1, "more declared failures => fewer selected => more slowdown");
        assert_eq!(theoretical_slowdown(5, 4, false), None);
    }
}
