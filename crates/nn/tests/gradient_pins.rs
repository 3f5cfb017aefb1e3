//! Bit pins of the flat gradient `Sequential` computes, for the MLP the
//! benchmark workloads train and for the small CNN (dense, conv, pool, ReLU,
//! flatten), each at two parameter vectors and two batch sizes. The pins were
//! captured while every layer still kept its own copy of the weights and its
//! own gradient buffers; both entries — `gradient_at` on a borrowed vector,
//! and `set_parameters` + `gradient` on the resident one — must reproduce
//! them. Any change to the term order of any layer moves them.
//!
//! Every input and parameter is a multiple of a power of two, so nothing in
//! the setup goes through a transcendental function whose bits could differ
//! between the debug and release builds.

use agg_nn::models::{small_cnn, synthetic_mlp};
use agg_nn::{NnError, Sequential};
use agg_tensor::{Tensor, Vector};

/// A deterministic vector of multiples of `1 / scale` in `[-1024, 1024) / scale`,
/// with exact zeros where the hash lands on the midpoint.
fn exact_values(len: usize, salt: u64, scale: f32) -> Vec<f32> {
    (0..len as u64)
        .map(|i| {
            let h = (i ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 53;
            (h as f32 - 1024.0) / scale
        })
        .collect()
}

/// FNV-1a over the loss bits and every gradient element's bits.
fn fingerprint(loss: f32, gradient: &[f32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for bits in std::iter::once(loss.to_bits()).chain(gradient.iter().map(|g| g.to_bits())) {
        for byte in bits.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// One pinned case: a model builder, its per-sample input shape, the class
/// count, and the fingerprints at (parameter salt, batch).
struct Pinned {
    name: &'static str,
    build: fn() -> Sequential,
    sample_shape: &'static [usize],
    classes: usize,
    pins: [(u64, usize, u64); 4],
}

fn mlp() -> Sequential {
    synthetic_mlp(256, &[384], 10, 11)
}

fn cnn() -> Sequential {
    small_cnn(3, 10, 5)
}

const CASES: [Pinned; 2] = [
    Pinned {
        name: "synthetic_mlp 256-384-10",
        build: mlp,
        sample_shape: &[256],
        classes: 10,
        pins: [
            (1, 1, 0x682f_d9a2_03ca_da9b),
            (1, 25, 0x09eb_2221_f667_0385),
            (2, 1, 0x40f7_0751_144f_383a),
            (2, 25, 0xaffb_c116_5ea8_efff),
        ],
    },
    Pinned {
        name: "small_cnn 3x8x8-10",
        build: cnn,
        sample_shape: &[3, 8, 8],
        classes: 10,
        pins: [
            (1, 1, 0x73b6_ef2f_2094_897c),
            (1, 6, 0xe6d1_3dc0_b977_64f5),
            (2, 1, 0x7777_0e46_5340_ede3),
            (2, 6, 0xc9f1_2298_c72b_c792),
        ],
    },
];

/// The parameter vector for `salt`: weights of about ±1/8, so activations
/// neither vanish nor overflow through two layers.
fn params_for(model: &Sequential, salt: u64) -> Vector {
    Vector::from(exact_values(model.param_count(), salt * 7919, 8192.0))
}

fn batch_for(case: &Pinned, batch: usize) -> (Tensor, Vec<usize>) {
    let per_sample: usize = case.sample_shape.iter().product();
    let mut shape = vec![batch];
    shape.extend_from_slice(case.sample_shape);
    let x = Tensor::from_vec(&shape, exact_values(batch * per_sample, 0x5eed, 256.0)).unwrap();
    let labels = (0..batch).map(|n| (3 * n + 1) % case.classes).collect();
    (x, labels)
}

#[test]
fn gradients_match_the_captured_bits() {
    let mut report = Vec::new();
    for case in &CASES {
        let mut model = (case.build)();
        for &(salt, batch, pin) in &case.pins {
            let params = params_for(&model, salt);
            let (x, labels) = batch_for(case, batch);
            model.set_parameters(&params).unwrap();
            let eval = model.gradient(&x, &labels).unwrap();
            assert!(eval.loss.is_finite(), "{}: loss {}", case.name, eval.loss);
            assert!(eval.gradient.iter().any(|&g| g != 0.0), "{}: all-zero gradient", case.name);
            let got = fingerprint(eval.loss, eval.gradient.as_slice());
            if got != pin {
                report.push(format!("{} salt {salt} batch {batch}: {got:#018x}", case.name));
            }
        }
    }
    assert!(report.is_empty(), "moved pins:\n{}", report.join("\n"));
}

#[test]
fn gradient_at_a_borrowed_vector_matches_the_captured_bits() {
    let mut report = Vec::new();
    for case in &CASES {
        let mut model = (case.build)();
        let initial = model.parameters();
        for &(salt, batch, pin) in &case.pins {
            let params = params_for(&model, salt);
            let (x, labels) = batch_for(case, batch);
            let eval = model.gradient_at(params.as_slice(), &x, &labels).unwrap();
            let got = fingerprint(eval.loss, eval.gradient.as_slice());
            if got != pin {
                report.push(format!("{} salt {salt} batch {batch}: {got:#018x}", case.name));
            }
        }
        assert_eq!(model.parameters(), initial, "{}: a borrowed vector was stored", case.name);
    }
    assert!(report.is_empty(), "moved pins:\n{}", report.join("\n"));
}

#[test]
fn a_call_carries_no_state_into_the_next() {
    for case in &CASES {
        let (x, labels) = batch_for(case, 2);
        let mut used = (case.build)();
        let (p, q) = (params_for(&used, 1), params_for(&used, 2));
        used.gradient_at(p.as_slice(), &x, &labels).unwrap();
        let after_p = used.gradient_at(q.as_slice(), &x, &labels).unwrap();
        let fresh = (case.build)().gradient_at(q.as_slice(), &x, &labels).unwrap();
        assert_eq!(after_p.loss.to_bits(), fresh.loss.to_bits(), "{}: loss", case.name);
        let bits = |g: &Vector| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&after_p.gradient), bits(&fresh.gradient), "{}: gradient", case.name);
    }
}

#[test]
fn a_wrong_length_vector_is_a_typed_error() {
    for case in &CASES {
        let mut model = (case.build)();
        let d = model.param_count();
        let (x, labels) = batch_for(case, 1);
        for len in [0, d - 1, d + 1] {
            let params = vec![0.5f32; len];
            let err = model.gradient_at(&params, &x, &labels).unwrap_err();
            assert!(
                matches!(err, NnError::ParameterSizeMismatch { expected, actual }
                    if expected == d && actual == len),
                "{}: {err:?}",
                case.name
            );
            let err = model.set_parameters(&Vector::from(params)).unwrap_err();
            assert!(matches!(err, NnError::ParameterSizeMismatch { .. }), "{}", case.name);
        }
        // The model is still usable afterwards.
        let params = params_for(&model, 1);
        assert!(model.gradient_at(params.as_slice(), &x, &labels).unwrap().loss.is_finite());
    }
}
