//! `GarKind::Krum`: Multi-Krum with `m = 1`.

#[cfg(test)]
mod tests {
    use crate::{Gar, GarConfig, GarKind, GradientBatch, Resilience};
    use agg_tensor::rng::{gaussian_vector, seeded_rng};
    use agg_tensor::Vector;

    #[test]
    fn output_is_one_of_the_inputs() {
        let mut rng = seeded_rng(11);
        let gs: Vec<Vector> = (0..9).map(|_| gaussian_vector(&mut rng, 5, 0.0, 1.0)).collect();
        let gar = GarConfig::new(GarKind::Krum, 2);
        let out = gar.aggregate(&gs).unwrap();
        assert!(gs.iter().any(|g| g == &out));
    }

    #[test]
    fn selects_a_central_gradient_not_the_outlier() {
        let mut gs = vec![
            Vector::from(vec![1.0, 1.0]),
            Vector::from(vec![1.1, 0.9]),
            Vector::from(vec![0.9, 1.1]),
            Vector::from(vec![1.05, 1.0]),
            Vector::from(vec![0.95, 1.0]),
            Vector::from(vec![1.0, 1.05]),
        ];
        gs.push(Vector::from(vec![1e6, -1e6]));
        let gar = GarConfig::new(GarKind::Krum, 1);
        let batch = GradientBatch::from_vectors(&gs).unwrap();
        let selected = gar.selected_rows(&batch, None).unwrap().unwrap();
        assert_eq!(selected.len(), 1);
        assert!(selected[0] < 6);
        // Krum's m is 1 whatever selection size the config carries.
        let with_m = gar.with_selection(3).selected_rows(&batch, None).unwrap();
        assert_eq!(with_m, Some(selected));
    }

    #[test]
    fn requires_2f_plus_3_workers() {
        let gar = GarConfig::new(GarKind::Krum, 3);
        assert!(gar.aggregate(&vec![Vector::zeros(1); 8]).is_err());
        assert!(gar.aggregate(&vec![Vector::zeros(1); 9]).is_ok());
    }

    #[test]
    fn properties_name_is_krum() {
        assert_eq!(GarConfig::new(GarKind::Krum, 1).name(), "krum");
        assert_eq!(GarKind::Krum.resilience(), Resilience::Weak);
    }
}
