//! The gradient aggregation rules, named at runtime the way the
//! `--aggregator` / `--aggregator-args` flags of the original AggregaThor
//! runner (`runner.py`) name them. A rule is its configuration: a
//! [`GarConfig`] is the [`Gar`] a round runs, and each step of the round is
//! one `match` over its [`GarKind`].

use crate::gar::{reduce_columns, Gar, Resilience};
use crate::geometric_median::WEISZFELD_ITERATIONS;
use crate::{bulyan, geometric_median, majority, multi_krum};
use crate::{resilience, AggregationError, Result};
use agg_tensor::{DistanceMatrix, GradientBatch, ShardPlan};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// The set of gradient aggregation rules known to the framework.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GarKind {
    /// Plain averaging: the non-resilient baseline
    /// (`tf.train.SyncReplicasOptimizer` in the paper's evaluation). A single
    /// adversarial gradient shifts the mean arbitrarily, and a single
    /// non-finite coordinate poisons it.
    ///
    /// ```
    /// use agg_core::{Gar, GarConfig, GarKind};
    /// use agg_tensor::Vector;
    /// let gar = GarConfig::new(GarKind::Average, 0);
    /// let out = gar.aggregate(&[Vector::from(vec![1.0]), Vector::from(vec![3.0])]).unwrap();
    /// assert_eq!(out.as_slice(), &[2.0]);
    /// ```
    Average,
    /// Loss-tolerant selective averaging (§3.3): the coordinate-wise mean
    /// that skips the non-finite coordinates the unreliable transport marks
    /// as lost. A coordinate lost in every submission becomes a zero update.
    SelectiveAverage,
    /// Coordinate-wise median (Xie et al., 2018).
    Median,
    /// Coordinate-wise `f`-trimmed mean (Yin et al., 2018): the `f` largest
    /// and `f` smallest values of every coordinate are discarded and the
    /// rest averaged.
    TrimmedMean,
    /// Mean-around-median (Xie et al., 2018): per coordinate, the mean of
    /// the `n − f` values closest to the median.
    MeaMed,
    /// Approximate geometric median (Weiszfeld), over the finite rows.
    GeometricMedian,
    /// Krum (Blanchard et al., 2017): Multi-Krum with `m = 1`, so the output
    /// is exactly one of the submitted gradients.
    Krum,
    /// Multi-Krum (§2.3, Equation 5): the mean of the `m` rows with the
    /// lowest sum of squared distances to their `n − f − 2` nearest
    /// neighbours.
    ///
    /// ```
    /// use agg_core::{Gar, GarConfig, GarKind};
    /// use agg_tensor::Vector;
    /// # fn main() -> Result<(), agg_core::AggregationError> {
    /// // Tolerate one Byzantine worker, m = n - f - 2.
    /// let gar = GarConfig::new(GarKind::MultiKrum, 1).build()?;
    /// let honest = (0..6).map(|_| Vector::from(vec![1.0, 1.0]));
    /// let byzantine = std::iter::once(Vector::from(vec![-1e6, 1e6]));
    /// let gradients: Vec<_> = honest.chain(byzantine).collect();
    /// let update = gar.aggregate(&gradients)?;
    /// assert!((update[0] - 1.0).abs() < 1e-6);
    /// # Ok(())
    /// # }
    /// ```
    MultiKrum,
    /// Bulyan over Multi-Krum (§2.3, Appendix B.3): `θ = n − 2f` rows
    /// extracted by iterated Krum, then per coordinate the mean of the
    /// `β = n − 4f` selected values closest to their median.
    ///
    /// ```
    /// use agg_core::{Gar, GarConfig, GarKind};
    /// use agg_tensor::Vector;
    /// # fn main() -> Result<(), agg_core::AggregationError> {
    /// let gar = GarConfig::new(GarKind::Bulyan, 1).build()?; // needs n >= 7
    /// let honest = (0..6).map(|i| Vector::from(vec![1.0 + 0.001 * i as f32]));
    /// let byzantine = std::iter::once(Vector::from(vec![1e9]));
    /// let gradients: Vec<_> = honest.chain(byzantine).collect();
    /// let update = gar.aggregate(&gradients)?;
    /// assert!((update[0] - 1.0).abs() < 0.01);
    /// # Ok(())
    /// # }
    /// ```
    Bulyan,
    /// Exact-match majority vote: the group rule of Draco's repetition code
    /// (Chen et al., 2018). Two rows agree when their squared distance is
    /// exactly 0; the round returns the row more than half of it sent.
    ///
    /// ```
    /// use agg_core::{Gar, GarConfig, GarKind};
    /// use agg_tensor::Vector;
    /// # fn main() -> Result<(), agg_core::AggregationError> {
    /// // A group of 2f + 1 = 3 with one traitor.
    /// let honest = Vector::from(vec![0.5, -1.0]);
    /// let gradients = vec![honest.clone(), Vector::from(vec![1e6, 1e6]), honest.clone()];
    /// assert_eq!(GarConfig::new(GarKind::Majority, 1).aggregate(&gradients)?, honest);
    /// # Ok(())
    /// # }
    /// ```
    Majority,
}

impl GarKind {
    /// All known kinds, in a stable order (useful for sweeps and listings).
    pub const ALL: [GarKind; 10] = [
        GarKind::Average,
        GarKind::SelectiveAverage,
        GarKind::Median,
        GarKind::TrimmedMean,
        GarKind::MeaMed,
        GarKind::GeometricMedian,
        GarKind::Krum,
        GarKind::MultiKrum,
        GarKind::Bulyan,
        GarKind::Majority,
    ];

    /// Whether this rule selects on the pairwise distance matrix. The
    /// streaming round engine accumulates distances incrementally per
    /// arriving row only for these rules; the others aggregate
    /// coordinate-wise and gain nothing from a pre-computed matrix.
    pub fn uses_distances(self) -> bool {
        matches!(self, GarKind::Krum | GarKind::MultiKrum | GarKind::Bulyan | GarKind::Majority)
    }

    /// The Byzantine resilience the rule provides (§2.2): none for the two
    /// averages, strong for Bulyan and for the majority vote (given the
    /// replicated batches it assumes), weak for the rest.
    pub fn resilience(self) -> Resilience {
        match self {
            GarKind::Average | GarKind::SelectiveAverage => Resilience::None,
            GarKind::Median
            | GarKind::TrimmedMean
            | GarKind::MeaMed
            | GarKind::GeometricMedian
            | GarKind::Krum
            | GarKind::MultiKrum => Resilience::Weak,
            GarKind::Bulyan | GarKind::Majority => Resilience::Strong,
        }
    }

    /// Whether the rule needs every worker it votes over to compute the
    /// same mini-batch: Draco's repetition code, whose honest rows agree bit
    /// for bit only because they are replicas. The engine then gives every
    /// group one sampler stream and charges the code's encoding work.
    pub fn replicates_batches(self) -> bool {
        self == GarKind::Majority
    }

    /// The canonical rule name (matches `--aggregator`).
    pub fn name(&self) -> &'static str {
        match self {
            GarKind::Average => "average",
            GarKind::SelectiveAverage => "selective-average",
            GarKind::Median => "median",
            GarKind::TrimmedMean => "trimmed-mean",
            GarKind::MeaMed => "meamed",
            GarKind::GeometricMedian => "geometric-median",
            GarKind::Krum => "krum",
            GarKind::MultiKrum => "multi-krum",
            GarKind::Bulyan => "bulyan",
            GarKind::Majority => "majority",
        }
    }
}

impl fmt::Display for GarKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for GarKind {
    type Err = AggregationError;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.to_ascii_lowercase().replace('_', "-").as_str() {
            "average" | "mean" => Ok(GarKind::Average),
            "selective-average" | "selective" => Ok(GarKind::SelectiveAverage),
            "median" => Ok(GarKind::Median),
            "trimmed-mean" | "trimmed" => Ok(GarKind::TrimmedMean),
            "meamed" | "mean-around-median" => Ok(GarKind::MeaMed),
            "geometric-median" | "geomed" => Ok(GarKind::GeometricMedian),
            "krum" => Ok(GarKind::Krum),
            "multi-krum" | "multikrum" => Ok(GarKind::MultiKrum),
            "bulyan" => Ok(GarKind::Bulyan),
            "majority" => Ok(GarKind::Majority),
            other => Err(AggregationError::UnknownRule(other.to_string())),
        }
    }
}

/// The work of one round per gradient coordinate: times `d`, the
/// pair-coordinates and row-coordinates the kernels' benchmarks count.
/// Selection bookkeeping that does not scale with `d` is left out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GarWork {
    /// Row pairs whose squared distance is walked.
    pub pairs: usize,
    /// Rows read through the order-statistic tiles.
    pub tile_rows: usize,
    /// Rows averaged.
    pub mean_rows: usize,
    /// Rows compared in a repetition code's decode.
    pub decode_rows: usize,
}

/// A gradient aggregation rule: which rule, the declared number of
/// Byzantine workers `f`, and (for Multi-Krum) an optional selection size.
///
/// This is the serialisable piece that experiment configurations store, and
/// the [`Gar`] a round runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GarConfig {
    /// Which aggregation rule to use.
    pub kind: GarKind,
    /// Declared number of Byzantine workers to tolerate.
    pub f: usize,
    /// Optional Multi-Krum selection size `m` (ignored by other rules).
    pub m: Option<usize>,
}

impl GarConfig {
    /// Configuration for a rule with a declared `f`.
    pub fn new(kind: GarKind, f: usize) -> Self {
        GarConfig { kind, f, m: None }
    }

    /// Sets an explicit Multi-Krum selection size.
    pub fn with_selection(mut self, m: usize) -> Self {
        self.m = Some(m);
        self
    }

    /// Builds the configured rule as a boxed trait object.
    ///
    /// # Errors
    ///
    /// Returns [`AggregationError::InvalidSelectionSize`] when `m` is invalid
    /// for the chosen rule.
    pub fn build(&self) -> Result<Box<dyn Gar>> {
        Ok(Box::new(self.validated()?))
    }

    /// This configuration, refused when Multi-Krum's explicit `m` is zero
    /// (its upper bound `n − f − 2` depends on the round, which checks it).
    pub(crate) fn validated(self) -> Result<Self> {
        if self.kind == GarKind::MultiKrum && self.m == Some(0) {
            let max = usize::MAX;
            return Err(AggregationError::InvalidSelectionSize { rule: "multi-krum", m: 0, max });
        }
        Ok(self)
    }

    /// The selection size of a Krum-family round over `n` rows: 1 for Krum,
    /// the configured `m` for Multi-Krum, else the largest admissible
    /// `m̃ = n − f − 2`.
    fn resolve_m(&self, n: usize) -> Result<usize> {
        let max = resilience::multi_krum_max_m(n, self.f)?;
        match (self.kind, self.m) {
            (GarKind::Krum, _) => Ok(1),
            (_, None) => Ok(max),
            (_, Some(m)) if (1..=max).contains(&m) => Ok(m),
            (_, Some(m)) => {
                Err(AggregationError::InvalidSelectionSize { rule: "multi-krum", m, max })
            }
        }
    }

    /// The [`GarWork`] of one round over `n` rows: `C(n, 2)` pairs for the
    /// Krum family and Bulyan; `n` tile rows for median, trimmed mean and
    /// MeaMed, `θ = n − 2f` for Bulyan's second phase; `m` averaged rows for
    /// Multi-Krum (1 for Krum), `β = n − 4f` for Bulyan, `n` for averaging.
    /// The geometric median starts from the coordinate median (`n` tile rows)
    /// and then, per Weiszfeld iteration, distances and averages every row.
    /// The majority vote walks the `C(n, 2)` pairs and decodes `n` rows.
    ///
    /// # Errors
    ///
    /// The error the round itself returns when `n` does not seat the rule.
    pub fn work(&self, n: usize) -> Result<GarWork> {
        self.check(n)?;
        let (f, all_pairs) = (self.f, n * n.saturating_sub(1) / 2);
        let (pairs, tile_rows, mean_rows, decode_rows) = match self.kind {
            GarKind::Average | GarKind::SelectiveAverage => (0, 0, n, 0),
            GarKind::Median | GarKind::TrimmedMean | GarKind::MeaMed => (0, n, 0, 0),
            GarKind::GeometricMedian => (WEISZFELD_ITERATIONS * n, n, WEISZFELD_ITERATIONS * n, 0),
            GarKind::Krum | GarKind::MultiKrum => (all_pairs, 0, self.resolve_m(n)?, 0),
            GarKind::Bulyan => (
                all_pairs,
                resilience::bulyan_selection_count(n, f)?,
                resilience::bulyan_beta(n, f)?,
                0,
            ),
            GarKind::Majority => (all_pairs, 0, 0, n),
        };
        Ok(GarWork { pairs, tile_rows, mean_rows, decode_rows })
    }

    /// Parses a runner-style specification of the form
    /// `"<name>"`, `"<name>:f=<k>"` or `"<name>:f=<k>,m=<j>"`.
    ///
    /// # Errors
    ///
    /// Returns [`AggregationError::UnknownRule`] or
    /// [`AggregationError::InvalidArgument`] on malformed input.
    pub fn parse(spec: &str) -> Result<Self> {
        let mut parts = spec.splitn(2, ':');
        let name = parts.next().unwrap_or_default().trim();
        let kind: GarKind = name.parse()?;
        let mut config = GarConfig::new(kind, 0);
        if let Some(args) = parts.next() {
            for kv in args.split(',').filter(|s| !s.trim().is_empty()) {
                let mut it = kv.splitn(2, '=');
                let key = it.next().unwrap_or_default().trim();
                let value = it.next().unwrap_or_default().trim();
                let parsed: usize =
                    value.parse().map_err(|_| AggregationError::InvalidArgument {
                        rule: name.to_string(),
                        message: format!("'{key}={value}' is not an integer assignment"),
                    })?;
                match key {
                    "f" => config.f = parsed,
                    "m" => config.m = Some(parsed),
                    other => {
                        return Err(AggregationError::InvalidArgument {
                            rule: name.to_string(),
                            message: format!("unknown argument '{other}'"),
                        })
                    }
                }
            }
        }
        Ok(config)
    }
}

impl fmt::Display for GarConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.m {
            Some(m) => write!(f, "{}:f={},m={}", self.kind, self.f, m),
            None => write!(f, "{}:f={}", self.kind, self.f),
        }
    }
}

impl Gar for GarConfig {
    fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// `n ≥ 2f + 3` and `1 ≤ m ≤ n − f − 2` for the Krum family, `n ≥ 4f + 3`
    /// for Bulyan, an honest majority `n ≥ 2f + 1` for the coordinate-wise
    /// rules and the vote; the averages seat any round.
    fn check(&self, n: usize) -> Result<()> {
        let f = self.f;
        match self.kind {
            GarKind::Average | GarKind::SelectiveAverage => Ok(()),
            GarKind::Median
            | GarKind::TrimmedMean
            | GarKind::MeaMed
            | GarKind::GeometricMedian
            | GarKind::Majority => resilience::check_median(self.kind.name(), n, f),
            GarKind::Krum | GarKind::MultiKrum => self.resolve_m(n).map(drop),
            GarKind::Bulyan => resilience::check_bulyan(n, f),
        }
    }

    fn selects(&self) -> bool {
        self.kind.uses_distances()
    }

    fn select(&self, distances: &DistanceMatrix) -> Result<Vec<usize>> {
        match self.kind {
            GarKind::Krum | GarKind::MultiKrum => {
                multi_krum::select(distances, self.f, self.resolve_m(distances.n())?)
            }
            GarKind::Bulyan => bulyan::select(distances, self.f),
            GarKind::Majority => majority::select(distances),
            _ => Ok((0..distances.n()).collect()),
        }
    }

    fn reduce(
        &self,
        batch: &GradientBatch,
        selection: Option<&[usize]>,
        plan: &ShardPlan,
        out: &mut [f32],
    ) -> Result<()> {
        let (n, f) = (batch.n(), self.f);
        match self.kind {
            GarKind::Average => {
                reduce_columns(batch, n, plan, out, |cols, dst| Ok(cols.mean_into(None, dst)?))
            }
            GarKind::SelectiveAverage => {
                if batch.rows().all(|row| row.iter().all(|x| !x.is_finite())) {
                    return Err(AggregationError::AllGradientsCorrupt("selective-average"));
                }
                reduce_columns(batch, n, plan, out, |cols, dst| Ok(cols.nan_mean_into(dst)?))
            }
            GarKind::Median => {
                reduce_columns(batch, n, plan, out, |cols, dst| Ok(cols.median_into(None, dst)?))
            }
            // NaN values are dropped before trimming; a column left with too
            // few values falls back to the median of the finite ones.
            GarKind::TrimmedMean => {
                reduce_columns(batch, n, plan, out, |cols, dst| Ok(cols.trimmed_mean_into(f, dst)?))
            }
            GarKind::MeaMed => {
                let keep = n.saturating_sub(f).max(1);
                reduce_columns(batch, n, plan, out, |cols, dst| {
                    Ok(cols.mean_around_median_into(None, keep, dst)?)
                })
            }
            GarKind::GeometricMedian => geometric_median::reduce(batch, out),
            GarKind::Krum | GarKind::MultiKrum => multi_krum::reduce(batch, selection, plan, out),
            GarKind::Bulyan => bulyan::reduce(batch, selection, plan, out, f),
            GarKind::Majority => majority::reduce(batch, selection, plan, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_builds() {
        for kind in GarKind::ALL {
            let gar = GarConfig::new(kind, 1).build().unwrap();
            assert_eq!(gar.name(), kind.name());
        }
    }

    #[test]
    fn names_round_trip_through_fromstr() {
        for kind in GarKind::ALL {
            let parsed: GarKind = kind.name().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("no-such-rule".parse::<GarKind>().is_err());
        assert_eq!("Multi_Krum".parse::<GarKind>().unwrap(), GarKind::MultiKrum);
    }

    #[test]
    fn parse_accepts_runner_style_specs() {
        let c = GarConfig::parse("multi-krum:f=4").unwrap();
        assert_eq!(c.kind, GarKind::MultiKrum);
        assert_eq!(c.f, 4);
        assert_eq!(c.m, None);

        let c = GarConfig::parse("multi-krum:f=4,m=9").unwrap();
        assert_eq!(c.m, Some(9));

        let c = GarConfig::parse("average").unwrap();
        assert_eq!(c.kind, GarKind::Average);
        assert_eq!(c.f, 0);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(GarConfig::parse("bogus:f=1").is_err());
        assert!(matches!(
            GarConfig::parse("krum:f=abc").unwrap_err(),
            AggregationError::InvalidArgument { .. }
        ));
        assert!(matches!(
            GarConfig::parse("krum:q=3").unwrap_err(),
            AggregationError::InvalidArgument { .. }
        ));
    }

    #[test]
    fn display_round_trips_through_parse() {
        let c = GarConfig::new(GarKind::MultiKrum, 4).with_selection(9);
        let reparsed = GarConfig::parse(&c.to_string()).unwrap();
        assert_eq!(reparsed, c);
    }

    #[test]
    fn work_counts_the_paper_deployment() {
        // n = 19, f = 4: C(19, 2) = 171 pairs, m̃ = 13, θ = 11, β = 3.
        let work = |kind| GarConfig::new(kind, 4).work(19).unwrap();
        let counts =
            |pairs, tile_rows, mean_rows| GarWork { pairs, tile_rows, mean_rows, decode_rows: 0 };
        assert_eq!(work(GarKind::Average), counts(0, 0, 19));
        assert_eq!(work(GarKind::Median), counts(0, 19, 0));
        assert_eq!(work(GarKind::Krum), counts(171, 0, 1));
        assert_eq!(work(GarKind::MultiKrum), counts(171, 0, 13));
        assert_eq!(work(GarKind::Bulyan), counts(171, 11, 3));
        assert_eq!(work(GarKind::Majority), GarWork { decode_rows: 19, ..counts(171, 0, 0) });
        let explicit = GarConfig::new(GarKind::MultiKrum, 4).with_selection(5);
        assert_eq!(explicit.work(19).unwrap().mean_rows, 5);
        let per_iteration = WEISZFELD_ITERATIONS * 19;
        assert_eq!(work(GarKind::GeometricMedian), counts(per_iteration, 19, per_iteration));
    }

    #[test]
    fn work_is_refused_exactly_where_the_round_is() {
        use agg_tensor::{GradientBatch, Vector};
        for kind in GarKind::ALL {
            for f in 0..5 {
                for m in [None, Some(1), Some(6)] {
                    let config = GarConfig { kind, f, m };
                    let Ok(gar) = config.build() else { continue };
                    for n in 1..24 {
                        let rows: Vec<Vector> =
                            (0..n).map(|i| Vector::from(vec![i as f32, 1.0])).collect();
                        let batch = GradientBatch::from_vectors(&rows).unwrap();
                        let round = gar.aggregate_batch(&batch);
                        // Distinct rows never agree, so past its floor the
                        // majority vote refuses for want of a majority.
                        let seated = match round {
                            Err(AggregationError::NoMajority { .. }) => kind == GarKind::Majority,
                            _ => round.is_ok(),
                        };
                        assert_eq!(config.work(n).is_ok(), seated, "{config} over {n} rows");
                        if kind == GarKind::Majority {
                            let replicas = vec![Vector::from(vec![0.5, 1.0]); n];
                            let batch = GradientBatch::from_vectors(&replicas).unwrap();
                            assert_eq!(
                                config.work(n).is_ok(),
                                gar.aggregate_batch(&batch).is_ok(),
                                "{config} over {n} replicas"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn build_propagates_invalid_m() {
        let c = GarConfig::new(GarKind::MultiKrum, 1).with_selection(0);
        assert!(c.build().is_err());
    }

    /// FNV-1a, 64-bit, over a byte stream.
    fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    /// Folds one round into `hash`: its aggregate's bits and its selection,
    /// or a refusal tag.
    fn fold_round(hash: u64, round: Result<crate::GarRound>) -> u64 {
        let Ok(round) = round else { return fnv1a(hash, &[0xff]) };
        let mut hash = fnv1a(hash, &(round.aggregate.len() as u64).to_le_bytes());
        for &v in round.aggregate.as_slice() {
            hash = fnv1a(hash, &v.to_bits().to_le_bytes());
        }
        match round.selection {
            None => fnv1a(hash, &[0]),
            Some(rows) => {
                rows.iter().fold(fnv1a(hash, &[1]), |h, &row| fnv1a(h, &(row as u64).to_le_bytes()))
            }
        }
    }

    #[test]
    fn gar_bits_are_pinned() {
        use crate::{ShardedAggregator, TreeAggregator, TreeConfig};
        use agg_tensor::rng::{gaussian_vector, seeded_rng};
        use agg_tensor::{GradientBatch, Vector};
        // Two seeded batches of n = 11, d = 37: nine distinct rows, then nine
        // replicas of one row (what a repetition group sends); each ends with
        // an outlier row and a row with one NaN coordinate. Every setting
        // folds its flat round, its round sharded over S = 3 and a two-group
        // tree (groups of 6 and 5, this rule in each group, averaging at the
        // root) over both batches. A change to any rule's bits shows here.
        use GarKind::*;
        let pins = [
            (GarConfig::new(Average, 0), 0x6b51_fbe3_849d_2450),
            (GarConfig::new(Average, 1), 0x6b51_fbe3_849d_2450),
            (GarConfig::new(Average, 2), 0x6b51_fbe3_849d_2450),
            (GarConfig::new(SelectiveAverage, 0), 0xc59d_7f8e_bcab_89ef),
            (GarConfig::new(SelectiveAverage, 1), 0xc59d_7f8e_bcab_89ef),
            (GarConfig::new(SelectiveAverage, 2), 0xc59d_7f8e_bcab_89ef),
            (GarConfig::new(Median, 0), 0xed68_645f_5806_dce6),
            (GarConfig::new(Median, 1), 0xed68_645f_5806_dce6),
            (GarConfig::new(Median, 2), 0xed68_645f_5806_dce6),
            (GarConfig::new(TrimmedMean, 0), 0x5dcf_e27e_22e1_182b),
            (GarConfig::new(TrimmedMean, 1), 0x88e5_6cb5_41e7_0114),
            (GarConfig::new(TrimmedMean, 2), 0x9355_0b62_6cfd_99d8),
            (GarConfig::new(MeaMed, 0), 0x1b48_6eef_cce7_0286),
            (GarConfig::new(MeaMed, 1), 0xb2de_6811_386f_458c),
            (GarConfig::new(MeaMed, 2), 0xbfd1_839b_ead6_6046),
            (GarConfig::new(GeometricMedian, 0), 0xecf7_8f4b_264f_85f4),
            (GarConfig::new(GeometricMedian, 1), 0xecf7_8f4b_264f_85f4),
            (GarConfig::new(GeometricMedian, 2), 0xecf7_8f4b_264f_85f4),
            (GarConfig::new(Krum, 0), 0x2a95_8e3a_d414_8f1e),
            (GarConfig::new(Krum, 1), 0xa201_1eae_b569_4894),
            (GarConfig::new(Krum, 2), 0xd4d9_f74e_fb04_cd4f),
            (GarConfig::new(MultiKrum, 0), 0x5ca3_81ed_0147_894f),
            (GarConfig::new(MultiKrum, 1), 0x2ba7_87ab_a424_7645),
            (GarConfig::new(MultiKrum, 2), 0x0ac7_edb6_b4e1_887d),
            (GarConfig::new(Bulyan, 0), 0x57f6_7f60_1270_2126),
            (GarConfig::new(Bulyan, 1), 0xa091_0039_b4b8_a23f),
            (GarConfig::new(Bulyan, 2), 0x095e_f245_010b_48c5),
            (GarConfig::new(Majority, 0), 0xdb38_e65c_0503_3f2b),
            (GarConfig::new(Majority, 1), 0xdb38_e65c_0503_3f2b),
            (GarConfig::new(Majority, 2), 0xdb38_e65c_0503_3f2b),
            (GarConfig::new(MultiKrum, 1).with_selection(2), 0x3d25_a90e_68ee_98f3),
        ];
        let mut rng = seeded_rng(41);
        let distinct: Vec<Vector> =
            (0..9).map(|_| gaussian_vector(&mut rng, 37, 0.5, 1.0)).collect();
        let replicas = vec![distinct[0].clone(); 9];
        let batches: Vec<GradientBatch> = [distinct, replicas]
            .into_iter()
            .map(|mut rows| {
                rows.push(Vector::filled(37, 1e6));
                let mut poisoned = rows[1].clone();
                poisoned[5] = f32::NAN;
                rows.push(poisoned);
                GradientBatch::from_vectors(&rows).unwrap()
            })
            .collect();
        let settings: Vec<GarConfig> = pins.iter().map(|&(config, _)| config).collect();
        let every_kind_at_f_0_1_2 =
            GarKind::ALL.into_iter().flat_map(|kind| (0..3).map(move |f| GarConfig::new(kind, f)));
        assert!(every_kind_at_f_0_1_2.into_iter().all(|config| settings.contains(&config)));
        for (config, pin) in pins {
            let flat = config.build().unwrap();
            let sharded = ShardedAggregator::new(config, 3).unwrap();
            let tree_config =
                TreeConfig { group: config, root: GarConfig::new(Average, 0), group_size: 6 };
            let tree = TreeAggregator::new(tree_config).unwrap();
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            for batch in &batches {
                hash = fold_round(hash, flat.round(batch, None));
                hash = fold_round(hash, sharded.round(batch, None));
                hash = fold_round(hash, tree.round(batch, None));
            }
            assert_eq!(hash, pin, "{config}: {hash:#018x}");
        }
    }
}
