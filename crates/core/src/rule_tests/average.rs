//! `GarKind::Average`: the coordinate-wise mean of every row.

#[cfg(test)]
mod tests {
    use crate::resilience::resilience_floor;
    use crate::{AggregationError, Gar, GarConfig, GarKind, Resilience};
    use agg_tensor::Vector;

    #[test]
    fn averages_coordinatewise() {
        let gar = GarConfig::new(GarKind::Average, 0);
        let gs = vec![
            Vector::from(vec![1.0, 10.0]),
            Vector::from(vec![3.0, 30.0]),
            Vector::from(vec![5.0, 20.0]),
        ];
        assert_eq!(gar.aggregate(&gs).unwrap().as_slice(), &[3.0, 20.0]);
    }

    #[test]
    fn rejects_empty_and_ragged_batches() {
        let gar = GarConfig::new(GarKind::Average, 0);
        assert!(matches!(gar.aggregate(&[]).unwrap_err(), AggregationError::NoGradients(_)));
        let gs = vec![Vector::zeros(2), Vector::zeros(3)];
        assert!(matches!(
            gar.aggregate(&gs).unwrap_err(),
            AggregationError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn a_single_outlier_moves_the_mean() {
        // This documents *why* averaging is not Byzantine-resilient.
        let gar = GarConfig::new(GarKind::Average, 0);
        let mut gs = vec![Vector::from(vec![1.0]); 9];
        gs.push(Vector::from(vec![1e9]));
        let out = gar.aggregate(&gs).unwrap();
        assert!(out[0] > 1e7);
    }

    #[test]
    fn nan_poisons_the_mean() {
        let gar = GarConfig::new(GarKind::Average, 0);
        let gs = vec![Vector::from(vec![1.0]), Vector::from(vec![f32::NAN])];
        assert!(gar.aggregate(&gs).unwrap()[0].is_nan());
    }

    #[test]
    fn properties_describe_the_baseline() {
        let gar = GarConfig::new(GarKind::Average, 0);
        assert_eq!(gar.name(), "average");
        assert!(!gar.selects());
        assert_eq!(GarKind::Average.resilience(), Resilience::None);
        assert_eq!(resilience_floor(GarKind::Average, 0), 1);
    }
}
