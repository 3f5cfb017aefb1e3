//! `GarKind::SelectiveAverage`: the coordinate-wise mean that skips the
//! coordinates the unreliable transport marks as lost (§3.3).

#[cfg(test)]
mod tests {
    use crate::{AggregationError, Gar, GarConfig, GarKind, Resilience};
    use agg_tensor::Vector;

    #[test]
    fn behaves_like_average_on_clean_input() {
        let gar = GarConfig::new(GarKind::SelectiveAverage, 0);
        let gs = vec![Vector::from(vec![1.0, 4.0]), Vector::from(vec![3.0, 8.0])];
        assert_eq!(gar.aggregate(&gs).unwrap().as_slice(), &[2.0, 6.0]);
    }

    #[test]
    fn skips_lost_coordinates() {
        let gar = GarConfig::new(GarKind::SelectiveAverage, 0);
        let gs = vec![Vector::from(vec![1.0, f32::NAN]), Vector::from(vec![3.0, 8.0])];
        assert_eq!(gar.aggregate(&gs).unwrap().as_slice(), &[2.0, 8.0]);
    }

    #[test]
    fn coordinate_lost_everywhere_becomes_zero_update() {
        let gar = GarConfig::new(GarKind::SelectiveAverage, 0);
        let gs = vec![Vector::from(vec![1.0, f32::NAN]), Vector::from(vec![3.0, f32::NAN])];
        assert_eq!(gar.aggregate(&gs).unwrap().as_slice(), &[2.0, 0.0]);
    }

    #[test]
    fn fully_corrupt_batch_is_an_error() {
        let gar = GarConfig::new(GarKind::SelectiveAverage, 0);
        let gs = vec![Vector::from(vec![f32::NAN, f32::NAN])];
        assert!(matches!(
            gar.aggregate(&gs).unwrap_err(),
            AggregationError::AllGradientsCorrupt(_)
        ));
    }

    #[test]
    fn properties_advertise_non_finite_tolerance() {
        // A lost coordinate (NaN) is skipped in whichever row it is lost.
        let gar = GarConfig::new(GarKind::SelectiveAverage, 0);
        let gs = vec![
            Vector::from(vec![f32::NAN, 1.0]),
            Vector::from(vec![2.0, f32::NAN]),
            Vector::from(vec![4.0, 3.0]),
        ];
        assert_eq!(gar.aggregate(&gs).unwrap().as_slice(), &[3.0, 2.0]);
        // An infinite value was sent, not lost: it reaches the mean, as in
        // plain averaging, because the rule is not Byzantine-resilient.
        let gs = vec![Vector::from(vec![f32::INFINITY]), Vector::from(vec![1.0])];
        assert!(gar.aggregate(&gs).unwrap()[0].is_infinite());
        assert_eq!(GarKind::SelectiveAverage.resilience(), Resilience::None);
    }
}
