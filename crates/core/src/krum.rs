//! Krum (Blanchard et al., 2017): the `m = 1` special case of Multi-Krum.
//!
//! Kept as a distinct type because the paper repeatedly contrasts the two
//! ("choosing m = 1 hampers the speed of convergence") and the Figure 5 / 6
//! experiments need both configurations side by side.

use crate::gar::{Gar, GarProperties, Resilience};
use crate::multi_krum::MultiKrum;
use crate::{resilience, Result};
use agg_tensor::{DistanceMatrix, GradientBatch, ShardPlan};

/// The original Krum rule: select the single gradient with the smallest sum
/// of distances to its `n − f − 2` nearest neighbours.
///
/// The output is always exactly one of the submitted gradients, which is the
/// property the paper exploits when discussing variance: Krum discards the
/// information of all other workers, so it converges in `O(1/√1)` steps-worth
/// of samples instead of `O(1/√m)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Krum {
    inner: MultiKrum,
}

impl Krum {
    /// Creates Krum declared to tolerate `f` Byzantine workers.
    pub fn new(f: usize) -> Self {
        let inner =
            MultiKrum::with_selection(f, 1).expect("m = 1 is always a valid selection size");
        Krum { inner }
    }

    /// Declared number of Byzantine workers.
    pub fn f(&self) -> usize {
        self.inner.f()
    }
}

impl Default for Krum {
    fn default() -> Self {
        Krum::new(0)
    }
}

impl Gar for Krum {
    fn properties(&self) -> GarProperties {
        GarProperties {
            name: "krum",
            resilience: Resilience::Weak,
            f: self.f(),
            minimum_workers: resilience::multi_krum_min_workers(self.f()),
            tolerates_non_finite: true,
        }
    }

    // Everything but the name is Multi-Krum's with m = 1.

    fn check(&self, n: usize) -> Result<()> {
        self.inner.check(n)
    }

    fn selects(&self) -> bool {
        true
    }

    fn select(&self, distances: &DistanceMatrix) -> Result<Vec<usize>> {
        self.inner.select(distances)
    }

    fn reduce(
        &self,
        batch: &GradientBatch,
        selection: Option<&[usize]>,
        plan: &ShardPlan,
        out: &mut [f32],
    ) -> Result<()> {
        self.inner.reduce(batch, selection, plan, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agg_tensor::rng::{gaussian_vector, seeded_rng};
    use agg_tensor::Vector;

    #[test]
    fn output_is_one_of_the_inputs() {
        let mut rng = seeded_rng(11);
        let gs: Vec<Vector> = (0..9).map(|_| gaussian_vector(&mut rng, 5, 0.0, 1.0)).collect();
        let gar = Krum::new(2);
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
        let gar = Krum::new(1);
        let batch = GradientBatch::from_vectors(&gs).unwrap();
        let selected = gar.selected_rows(&batch, None).unwrap().unwrap();
        assert_eq!(selected.len(), 1);
        assert!(selected[0] < 6);
    }

    #[test]
    fn requires_2f_plus_3_workers() {
        let gar = Krum::new(3);
        assert!(gar.aggregate(&vec![Vector::zeros(1); 8]).is_err());
        assert!(gar.aggregate(&vec![Vector::zeros(1); 9]).is_ok());
    }

    #[test]
    fn properties_name_is_krum() {
        assert_eq!(Krum::new(1).name(), "krum");
        assert_eq!(Krum::default().f(), 0);
    }
}
