//! Runtime construction of gradient aggregation rules by name, mirroring the
//! `--aggregator` / `--aggregator-args` flags of the original AggregaThor
//! runner (`runner.py`).

use crate::geometric_median::WEISZFELD_ITERATIONS;
use crate::{
    resilience, AggregationError, Average, Bulyan, CoordinateMedian, Gar, GeometricMedian, Krum,
    Majority, MeaMed, MultiKrum, Result, SelectiveAverage, TrimmedMean,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// The set of gradient aggregation rules known to the framework.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GarKind {
    /// Plain averaging (non-resilient baseline).
    Average,
    /// Loss-tolerant selective averaging.
    SelectiveAverage,
    /// Coordinate-wise median.
    Median,
    /// Coordinate-wise trimmed mean.
    TrimmedMean,
    /// Mean-around-median (Xie et al.).
    MeaMed,
    /// Approximate geometric median (Weiszfeld).
    GeometricMedian,
    /// Krum (m = 1).
    Krum,
    /// Multi-Krum.
    MultiKrum,
    /// Bulyan over Multi-Krum.
    Bulyan,
    /// Exact-match majority vote: the group rule of Draco's repetition code.
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

/// A declarative GAR configuration: which rule, the declared number of
/// Byzantine workers `f`, and (for Multi-Krum) an optional selection size.
///
/// This is the serialisable piece that experiment configurations store.
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
        Ok(match self.kind {
            GarKind::Average => Box::new(Average::new()),
            GarKind::SelectiveAverage => Box::new(SelectiveAverage::new()),
            GarKind::Median => Box::new(CoordinateMedian::new(self.f)),
            GarKind::TrimmedMean => Box::new(TrimmedMean::new(self.f)),
            GarKind::MeaMed => Box::new(MeaMed::new(self.f)),
            GarKind::GeometricMedian => Box::new(GeometricMedian::new(self.f)),
            GarKind::Krum => Box::new(Krum::new(self.f)),
            GarKind::MultiKrum => Box::new(self.multi_krum()?),
            GarKind::Bulyan => Box::new(Bulyan::new(self.f)?),
            GarKind::Majority => Box::new(Majority::new(self.f)),
        })
    }

    /// The Multi-Krum behind a Krum-family configuration: `m = 1` for Krum,
    /// the configured `m` (or the largest admissible one) for Multi-Krum.
    fn multi_krum(&self) -> Result<MultiKrum> {
        match (self.kind, self.m) {
            (GarKind::Krum, _) => MultiKrum::with_selection(self.f, 1),
            (_, Some(m)) => MultiKrum::with_selection(self.f, m),
            (_, None) => MultiKrum::new(self.f),
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
        self.build()?.check(n)?;
        let (f, all_pairs) = (self.f, n * n.saturating_sub(1) / 2);
        let (pairs, tile_rows, mean_rows, decode_rows) = match self.kind {
            GarKind::Average | GarKind::SelectiveAverage => (0, 0, n, 0),
            GarKind::Median | GarKind::TrimmedMean | GarKind::MeaMed => (0, n, 0, 0),
            GarKind::GeometricMedian => (WEISZFELD_ITERATIONS * n, n, WEISZFELD_ITERATIONS * n, 0),
            GarKind::Krum | GarKind::MultiKrum => {
                (all_pairs, 0, self.multi_krum()?.resolve_m(n)?, 0)
            }
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
}
