//! `GarKind::MeaMed`: per coordinate, the mean of the `n − f` values
//! closest to the median.

#[cfg(test)]
mod tests {
    use crate::resilience::resilience_floor;
    use crate::{Gar, GarConfig, GarKind, Resilience};
    use agg_tensor::Vector;

    #[test]
    fn equals_average_with_f_zero_and_clean_input() {
        let gar = GarConfig::new(GarKind::MeaMed, 0);
        let gs = vec![Vector::from(vec![1.0, 4.0]), Vector::from(vec![3.0, 8.0])];
        assert_eq!(gar.aggregate(&gs).unwrap().as_slice(), &[2.0, 6.0]);
    }

    #[test]
    fn excludes_the_f_most_extreme_values_per_coordinate() {
        let gar = GarConfig::new(GarKind::MeaMed, 1);
        let gs = vec![
            Vector::from(vec![1.0]),
            Vector::from(vec![2.0]),
            Vector::from(vec![3.0]),
            Vector::from(vec![1e9]),
        ];
        // keep = 3 closest to median(=2.5): {1, 2, 3} -> mean 2.
        assert_eq!(gar.aggregate(&gs).unwrap().as_slice(), &[2.0]);
    }

    #[test]
    fn output_stays_in_honest_range_under_attack() {
        let gar = GarConfig::new(GarKind::MeaMed, 2);
        let mut gs: Vec<Vector> = (0..5).map(|i| Vector::from(vec![i as f32 * 0.1])).collect();
        gs.push(Vector::from(vec![-1e8]));
        gs.push(Vector::from(vec![1e8]));
        let out = gar.aggregate(&gs).unwrap();
        assert!(out[0] >= 0.0 && out[0] <= 0.4, "out {}", out[0]);
    }

    #[test]
    fn tolerates_non_finite_values() {
        let gar = GarConfig::new(GarKind::MeaMed, 1);
        let gs =
            vec![Vector::from(vec![1.0]), Vector::from(vec![2.0]), Vector::from(vec![f32::NAN])];
        let out = gar.aggregate(&gs).unwrap();
        assert!(out.is_finite());
        assert!(out[0] >= 1.0 && out[0] <= 2.0);
    }

    #[test]
    fn requires_honest_majority() {
        let gar = GarConfig::new(GarKind::MeaMed, 3);
        assert!(gar.aggregate(&vec![Vector::zeros(1); 6]).is_err());
        assert!(gar.aggregate(&vec![Vector::zeros(1); 7]).is_ok());
    }

    #[test]
    fn properties() {
        assert_eq!(GarConfig::new(GarKind::MeaMed, 2).name(), "meamed");
        assert_eq!(GarKind::MeaMed.resilience(), Resilience::Weak);
        assert_eq!(resilience_floor(GarKind::MeaMed, 2), 5);
    }
}
