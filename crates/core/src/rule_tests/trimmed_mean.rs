//! `GarKind::TrimmedMean`: per coordinate, the mean of what is left after
//! the `f` largest and `f` smallest values are trimmed.

#[cfg(test)]
mod tests {
    use crate::{Gar, GarConfig, GarKind};
    use agg_tensor::Vector;

    #[test]
    fn trims_extremes_per_coordinate() {
        let gar = GarConfig::new(GarKind::TrimmedMean, 1);
        let gs = vec![
            Vector::from(vec![100.0]),
            Vector::from(vec![1.0]),
            Vector::from(vec![2.0]),
            Vector::from(vec![3.0]),
            Vector::from(vec![-50.0]),
        ];
        assert_eq!(gar.aggregate(&gs).unwrap().as_slice(), &[2.0]);
    }

    #[test]
    fn zero_trim_equals_average() {
        let gar = GarConfig::new(GarKind::TrimmedMean, 0);
        let gs = vec![Vector::from(vec![1.0, 2.0]), Vector::from(vec![3.0, 4.0])];
        assert_eq!(gar.aggregate(&gs).unwrap().as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn outlier_effect_is_bounded_by_honest_range() {
        let gar = GarConfig::new(GarKind::TrimmedMean, 1);
        let gs = vec![
            Vector::from(vec![1.0]),
            Vector::from(vec![1.2]),
            Vector::from(vec![0.8]),
            Vector::from(vec![1e12]),
        ];
        let out = gar.aggregate(&gs).unwrap();
        assert!(out[0] >= 0.8 && out[0] <= 1.2);
    }

    #[test]
    fn requires_enough_workers() {
        let gar = GarConfig::new(GarKind::TrimmedMean, 2);
        assert!(gar.aggregate(&vec![Vector::zeros(1); 4]).is_err());
        assert!(gar.aggregate(&vec![Vector::zeros(1); 5]).is_ok());
    }

    #[test]
    fn nan_heavy_column_falls_back_to_median() {
        let gar = GarConfig::new(GarKind::TrimmedMean, 1);
        let gs = vec![
            Vector::from(vec![f32::NAN]),
            Vector::from(vec![f32::NAN]),
            Vector::from(vec![3.0]),
        ];
        assert_eq!(gar.aggregate(&gs).unwrap().as_slice(), &[3.0]);
    }
}
