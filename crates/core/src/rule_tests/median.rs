//! `GarKind::Median`: the coordinate-wise median, run on the vertical
//! selection-network kernel of `agg_tensor::sortnet`.

#[cfg(test)]
mod tests {
    use crate::resilience::resilience_floor;
    use crate::{AggregationError, Gar, GarConfig, GarKind, Resilience};
    use agg_tensor::Vector;

    #[test]
    fn median_of_clean_gradients() {
        let gar = GarConfig::new(GarKind::Median, 0);
        let gs = vec![
            Vector::from(vec![1.0, 5.0]),
            Vector::from(vec![2.0, 6.0]),
            Vector::from(vec![3.0, 7.0]),
        ];
        assert_eq!(gar.aggregate(&gs).unwrap().as_slice(), &[2.0, 6.0]);
    }

    #[test]
    fn single_outlier_cannot_move_the_median_far() {
        let gar = GarConfig::new(GarKind::Median, 1);
        let gs = vec![Vector::from(vec![1.0]), Vector::from(vec![1.1]), Vector::from(vec![1e9])];
        let out = gar.aggregate(&gs).unwrap();
        assert!((out[0] - 1.1).abs() < 1e-6);
    }

    #[test]
    fn nan_coordinates_are_ignored() {
        let gar = GarConfig::new(GarKind::Median, 1);
        let gs =
            vec![Vector::from(vec![1.0]), Vector::from(vec![2.0]), Vector::from(vec![f32::NAN])];
        assert_eq!(gar.aggregate(&gs).unwrap().as_slice(), &[1.5]);
    }

    #[test]
    fn precondition_requires_honest_majority() {
        let gar = GarConfig::new(GarKind::Median, 2);
        let gs = vec![Vector::zeros(1); 4];
        assert!(matches!(
            gar.aggregate(&gs).unwrap_err(),
            AggregationError::NotEnoughWorkers { .. }
        ));
        let gs = vec![Vector::zeros(1); 5];
        assert!(gar.aggregate(&gs).is_ok());
    }

    #[test]
    fn properties_report_weak_resilience() {
        assert_eq!(GarKind::Median.resilience(), Resilience::Weak);
        assert_eq!(resilience_floor(GarKind::Median, 3), 7);
    }
}
