//! Majority decoding: the group rule of Draco's repetition code (Chen et
//! al., *DRACO*, ICML 2018).
//!
//! Draco tolerates Byzantine workers by redundancy rather than robust
//! statistics: the workers are split into groups of `r = 2f + 1`, every
//! member of a group computes the gradient of the *same* mini-batch at the
//! same model, and the server keeps the value a majority of the group sent.
//! Honest members' rows are then bit-equal, so at most `f` traitors can
//! neither outvote them nor forge a majority of their own. The whole scheme
//! is a tree tier ([`crate::TreeConfig::repetition`]): this rule
//! ([`crate::GarKind::Majority`]) in every group, averaging at the root.

use crate::gar::ensure_some_finite_row;
use crate::{AggregationError, Result};
use agg_tensor::{DistanceMatrix, GradientBatch, ShardPlan};

/// The exact-match vote: the rows at distance exactly 0 from the
/// lowest-index row that has the most such rows (itself included),
/// ascending; refused unless they are more than half of the round.
///
/// The vote reads the pairwise distance matrix every selecting rule reads.
/// A row carrying a non-finite coordinate sits at `+∞` from every other
/// row, so it never forms a majority. Rows that differ only below the `f32`
/// underflow of a squared difference (about `1e-23`) agree too; gradients
/// at that scale carry no update.
pub(crate) fn select(distances: &DistanceMatrix) -> Result<Vec<usize>> {
    let n = distances.n();
    let agreeing = |i: usize| (0..n).filter(move |&j| distances.get(i, j) == 0.0);
    let counts: Vec<usize> = (0..n).map(|i| agreeing(i).count()).collect();
    let (winner, largest) = counts.iter().copied().enumerate().fold((0, 0), |best, (i, count)| {
        if count > best.1 {
            (i, count)
        } else {
            best
        }
    });
    if 2 * largest <= n {
        return Err(AggregationError::NoMajority { rule: "majority", largest, n });
    }
    Ok(agreeing(winner).collect())
}

/// A copy of the first selected row (the first row when `selection` is
/// `None`), one column range at a time; a lone non-finite row that wins a
/// one-row round is refused as corrupt.
pub(crate) fn reduce(
    batch: &GradientBatch,
    selection: Option<&[usize]>,
    plan: &ShardPlan,
    out: &mut [f32],
) -> Result<()> {
    let first = selection.map_or(0, |rows| rows[0]);
    ensure_some_finite_row("majority", batch, Some(&[first]))?;
    for range in plan.ranges() {
        out[range.clone()].copy_from_slice(&batch.row(first)[range]);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gar, GarConfig, GarKind, TreeAggregator, TreeConfig};
    use agg_tensor::Vector;

    fn decode(f: usize, submissions: &[Vector]) -> Result<Vector> {
        GarConfig::new(GarKind::Majority, f).aggregate(submissions)
    }

    fn bits(v: &Vector) -> Vec<u32> {
        v.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn majority_decode_recovers_the_honest_gradient() {
        let honest = Vector::from(vec![1.0, 2.0, 3.0]);
        let byz = Vector::from(vec![-100.0, 100.0, f32::NAN]);
        let submissions = vec![honest.clone(), byz, honest.clone()];
        assert_eq!(decode(1, &submissions).unwrap(), honest);
    }

    #[test]
    fn majority_decode_fails_when_byzantines_outnumber_the_code() {
        let submissions =
            vec![Vector::from(vec![1.0]), Vector::from(vec![7.0]), Vector::from(vec![9.0])];
        assert_eq!(
            decode(1, &submissions).unwrap_err(),
            AggregationError::NoMajority { rule: "majority", largest: 1, n: 3 }
        );
        // And a group below 2f + 1 is refused before any vote.
        assert!(matches!(
            decode(2, &submissions).unwrap_err(),
            AggregationError::NotEnoughWorkers { rule: "majority", required: 5, .. }
        ));
    }

    #[test]
    fn nan_submissions_never_form_a_spurious_majority() {
        let nan = Vector::from(vec![f32::NAN, 1.0]);
        let honest = Vector::from(vec![0.5, 1.0]);
        let submissions = vec![nan.clone(), honest.clone(), honest.clone()];
        assert_eq!(decode(1, &submissions).unwrap(), honest);
        // Bit-identical NaN rows do not agree with each other either, and a
        // lone NaN row is refused as corrupt.
        let all_nan = vec![nan.clone(), nan.clone(), honest];
        assert!(matches!(decode(1, &all_nan), Err(AggregationError::NoMajority { .. })));
        assert_eq!(
            decode(0, &[nan]).unwrap_err(),
            AggregationError::AllGradientsCorrupt("majority")
        );
    }

    #[test]
    fn identical_byzantine_copies_can_defeat_the_code_only_with_majority() {
        // f = 1 tolerates a single traitor per group; two colluding identical
        // traitors in a group of three defeat it — the code's boundary, not a
        // bug.
        let byz = Vector::from(vec![666.0]);
        let submissions = vec![byz.clone(), byz.clone(), Vector::from(vec![1.0])];
        assert_eq!(decode(1, &submissions).unwrap(), byz);
    }

    #[test]
    fn f_plus_one_identical_honest_rows_decode_to_exactly_their_bits() {
        // f = 2: a group of 5 with 3 bit-identical honest rows (awkward
        // values: a subnormal, a negative zero, a large exponent) and two
        // distinct traitors.
        let honest = Vector::from(vec![1e-40, -0.0, 3.0e38, -7.25, 0.1]);
        let traitor_a = Vector::from(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let traitor_b = Vector::from(vec![f32::INFINITY, 0.0, 0.0, 0.0, f32::NAN]);
        let group = vec![traitor_a, honest.clone(), traitor_b, honest.clone(), honest.clone()];
        let batch = GradientBatch::from_vectors(&group).unwrap();
        let round = GarConfig::new(GarKind::Majority, 2).round(&batch, None).unwrap();
        assert_eq!(round.selection, Some(vec![1, 3, 4]));
        assert_eq!(bits(&round.aggregate), bits(&honest));
    }

    #[test]
    fn f_plus_one_identical_crafted_rows_decode_to_the_crafted_row() {
        // Draco's stated limit: once f + 1 members of a group of 2f + 1 send
        // the same crafted row, the vote returns it.
        let crafted = Vector::from(vec![-100.0, 100.0, -100.0]);
        let honest = Vector::from(vec![0.25, -0.5, 0.75]);
        let group = vec![honest.clone(), crafted.clone(), honest, crafted.clone(), crafted.clone()];
        let batch = GradientBatch::from_vectors(&group).unwrap();
        let round = GarConfig::new(GarKind::Majority, 2).round(&batch, None).unwrap();
        assert_eq!(round.selection, Some(vec![1, 3, 4]));
        assert_eq!(bits(&round.aggregate), bits(&crafted));
    }

    #[test]
    fn one_group_repetition_tree_returns_the_decoded_row() {
        // The root's average over one decoded row is that row, bit for bit.
        let honest = Vector::from((0..11).map(|i| i as f32 * 0.37 - 1.0).collect::<Vec<_>>());
        let group = vec![honest.clone(), Vector::from(vec![9.0; 11]), honest.clone()];
        let batch = GradientBatch::from_vectors(&group).unwrap();
        let tree = TreeAggregator::new(TreeConfig::repetition(1)).unwrap();
        assert_eq!(bits(&tree.aggregate_batch(&batch).unwrap()), bits(&honest));
    }
}
