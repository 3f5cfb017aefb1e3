//! Deterministic random-number helpers.
//!
//! Every experiment in the reproduction is driven by an explicit `u64` seed so
//! runs are repeatable across machines. The helpers here centralise the choice
//! of generator (xoshiro-family `SmallRng`) and provide the Gaussian sampling
//! used for weight initialisation, synthetic data, and Byzantine attacks.

use crate::Vector;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use rand_distr::{Distribution, Normal};
use rayon::prelude::*;

/// Below this many values a normal fill runs inline on the caller: about
/// 0.4 ms of Box–Muller work, several times what opening a region costs.
const PARALLEL_FILL_MIN: usize = 1 << 14;

/// Values per run of a parallel normal fill (about 0.1 ms of work). Rows
/// longer than this are cut into pieces of this length, and a run closes at
/// the first piece boundary at or past it.
const FILL_RUN: usize = 1 << 12;

/// Creates the crate-standard seeded RNG.
pub fn seeded_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Derives a child seed from a parent seed and a stream index.
///
/// Workers, attacks, and data shards each get independent streams derived
/// from one experiment seed; SplitMix64-style mixing keeps the streams
/// decorrelated even for adjacent indices.
pub fn derive_seed(parent: u64, stream: u64) -> u64 {
    let mut z = parent.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Samples a vector of i.i.d. Gaussian coordinates.
pub fn gaussian_vector(rng: &mut SmallRng, len: usize, mean: f32, std: f32) -> Vector {
    let mut out = vec![0.0; len];
    gaussian_fill(rng, &mut out, mean, std);
    Vector::from(out)
}

/// Fills `dst` with i.i.d. Gaussian coordinates in place (the allocation-free
/// sibling of [`gaussian_vector`], for reused arenas). Draws the same stream
/// as [`gaussian_vector`] for the same RNG state.
pub fn gaussian_fill(rng: &mut SmallRng, dst: &mut [f32], mean: f32, std: f32) {
    gaussian_fill_rows(rng, vec![dst], mean, std);
}

/// Fills `rows` with i.i.d. `N(mean, std²)` draws from `rng`, as one stream
/// in the order given: every value has the bits that drawing them one by one
/// gives, and `rng` ends where that serial loop would leave it.
///
/// A [`Normal`] sample takes exactly two words of the generator and never
/// draws again, so value `k` of the stream starts `2k` words in. The fill
/// steps the generator over the rows serially, two `next_u64` per value and
/// none of the `ln` / `cos` work, records the state at the start of each run
/// of about 4 096 values, and fills the runs in one parallel region. Below
/// 16 384 values it runs inline.
///
/// Uniform draws (`Uniform`, float `gen_range`) cannot be split this way:
/// they draw again when the affine map rounds up to the excluded bound, so
/// their word count per value is not fixed and a run's start state is known
/// only by drawing everything before it. Their callers stay serial.
pub fn gaussian_fill_rows(rng: &mut SmallRng, rows: Vec<&mut [f32]>, mean: f32, std: f32) {
    let normal = Normal::new(mean, std.max(0.0)).expect("std is non-negative and finite");
    let total: usize = rows.iter().map(|row| row.len()).sum();
    if total < PARALLEL_FILL_MIN {
        return fill_run(rng, rows, &normal);
    }
    let mut runs = Vec::with_capacity(total / FILL_RUN + 1);
    let (mut start, mut pieces, mut len) = (rng.clone(), Vec::new(), 0);
    for piece in rows.into_iter().flat_map(|row| row.chunks_mut(FILL_RUN)) {
        if len >= FILL_RUN {
            runs.push((std::mem::replace(&mut start, rng.clone()), std::mem::take(&mut pieces)));
            len = 0;
        }
        for _ in 0..2 * piece.len() {
            rng.next_u64();
        }
        len += piece.len();
        pieces.push(piece);
    }
    runs.push((start, pieces));
    let _: Vec<()> =
        runs.into_par_iter().map(|(mut run, pieces)| fill_run(&mut run, pieces, &normal)).collect();
}

/// Draws every value of `rows` in order: the one normal-fill loop.
fn fill_run(rng: &mut SmallRng, rows: Vec<&mut [f32]>, normal: &Normal<f32>) {
    for v in rows.into_iter().flatten() {
        *v = normal.sample(rng);
    }
}

/// Fisher–Yates shuffles indices `0..n` and returns them.
pub fn shuffled_indices(rng: &mut SmallRng, n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    idx
}

/// Samples `k` distinct indices from `0..n` (k ≤ n), in random order.
///
/// # Panics
///
/// Panics if `k > n`.
pub fn sample_without_replacement(rng: &mut SmallRng, n: usize, k: usize) -> Vec<usize> {
    assert!(k <= n, "cannot sample {k} items from {n}");
    let mut idx = shuffled_indices(rng, n);
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_deterministic() {
        let a = gaussian_vector(&mut seeded_rng(42), 16, 0.0, 1.0);
        let b = gaussian_vector(&mut seeded_rng(42), 16, 0.0, 1.0);
        assert_eq!(a, b);
        let c = gaussian_vector(&mut seeded_rng(43), 16, 0.0, 1.0);
        assert_ne!(a, c);
    }

    /// The serial loop [`gaussian_fill_rows`] replaced, kept as its oracle.
    fn serial_fill(rng: &mut SmallRng, rows: &mut [Vec<f32>], mean: f32, std: f32) {
        let normal = Normal::new(mean, std.max(0.0)).unwrap();
        for v in rows.iter_mut().flatten() {
            *v = normal.sample(rng);
        }
    }

    /// The fill equals the serial loop bit for bit, with the rows handed in
    /// shuffled over one buffer, and leaves the generator in the same state,
    /// under every thread budget and on both sides of the inline threshold.
    #[test]
    fn row_fill_matches_the_serial_loop() {
        for threads in [1, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            for count in [1, 7, 16, 17, 4000] {
                for dim in [1, 3, 32, 256] {
                    let order = shuffled_indices(&mut seeded_rng(count as u64), count);
                    let mut expected = vec![vec![0.0; dim]; count];
                    let mut oracle = seeded_rng(9);
                    serial_fill(&mut oracle, &mut expected, 0.25, 1.5);

                    let mut buffer = vec![f32::NAN; count * dim];
                    let mut slots: Vec<Option<&mut [f32]>> =
                        buffer.chunks_mut(dim).map(Some).collect();
                    let rows = order.iter().map(|&p| slots[p].take().unwrap()).collect();
                    let mut rng = seeded_rng(9);
                    pool.install(|| gaussian_fill_rows(&mut rng, rows, 0.25, 1.5));

                    for (i, &p) in order.iter().enumerate() {
                        let got = &buffer[p * dim..(p + 1) * dim];
                        let bits =
                            |row: &[f32]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(got), bits(&expected[i]), "{count}x{dim}, t={threads}");
                    }
                    assert_eq!(rng, oracle, "end state, {count}x{dim}, t={threads}");
                }
            }
        }
    }

    /// One row longer than a run is cut into pieces; the vector helpers
    /// draw the same stream as the serial loop.
    #[test]
    fn long_rows_match_the_serial_loop() {
        for threads in [1, 2] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let mut expected = vec![vec![0.0; 100_003]];
            let mut oracle = seeded_rng(5);
            serial_fill(&mut oracle, &mut expected, 0.0, 0.3);
            let mut rng = seeded_rng(5);
            let got = pool.install(|| gaussian_vector(&mut rng, 100_003, 0.0, 0.3));
            assert!(got.iter().zip(&expected[0]).all(|(a, b)| a.to_bits() == b.to_bits()));
            assert_eq!(rng, oracle);
        }
    }

    #[test]
    fn derive_seed_decorrelates_streams() {
        let s0 = derive_seed(7, 0);
        let s1 = derive_seed(7, 1);
        assert_ne!(s0, s1);
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
        // Deterministic.
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
    }

    #[test]
    fn gaussian_moments_are_roughly_right() {
        let v = gaussian_vector(&mut seeded_rng(1), 20_000, 2.0, 3.0);
        let mean = v.mean();
        assert!((mean - 2.0).abs() < 0.1, "mean was {mean}");
        let var: f32 =
            v.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / (v.len() - 1) as f32;
        assert!((var.sqrt() - 3.0).abs() < 0.1, "std was {}", var.sqrt());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = seeded_rng(3);
        let mut idx = shuffled_indices(&mut rng, 100);
        idx.sort_unstable();
        assert_eq!(idx, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sample_without_replacement_has_distinct_elements() {
        let mut rng = seeded_rng(4);
        let s = sample_without_replacement(&mut rng, 50, 10);
        assert_eq!(s.len(), 10);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_without_replacement_panics_when_k_exceeds_n() {
        let mut rng = seeded_rng(5);
        let _ = sample_without_replacement(&mut rng, 3, 4);
    }
}
