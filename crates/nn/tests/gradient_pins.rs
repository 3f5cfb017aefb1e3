//! Bit pins of the flat gradient `Sequential` computes, for the MLP the
//! benchmark workloads train and for a chain two hidden layers deep, each at
//! two parameter vectors and two batch sizes. The one-hidden-layer pins were
//! captured while every layer still kept its own copy of the weights and its
//! own gradient buffers, the two-hidden-layer ones while the chain still ran
//! through a boxed layer trait; every entry — `gradient_at` on a borrowed vector,
//! `gradient_into` a used row, and `set_parameters` + `gradient` on the
//! resident one — must reproduce them. Any change to the term order of any
//! layer moves them.
//!
//! Every input and parameter is a multiple of a power of two, so nothing in
//! the setup goes through a transcendental function whose bits could differ
//! between the debug and release builds.

use agg_nn::models::synthetic_mlp;
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

fn deep_mlp() -> Sequential {
    synthetic_mlp(32, &[64, 16], 4, 13)
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
        name: "synthetic_mlp 32-64-16-4",
        build: deep_mlp,
        sample_shape: &[32],
        classes: 4,
        pins: [
            (1, 1, 0xa81d_a134_a769_3b96),
            (1, 25, 0x00ca_8eab_f29a_4d90),
            (2, 1, 0xdcb0_ee13_68af_da60),
            (2, 25, 0x9417_1666_04f6_407a),
        ],
    },
];

/// The parameter vector for `salt`: weights of about ±1/8, so activations
/// neither vanish nor overflow through the chain.
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
            assert!(eval.score.loss.is_finite(), "{}: loss {}", case.name, eval.score.loss);
            assert!(eval.gradient.iter().any(|&g| g != 0.0), "{}: all-zero gradient", case.name);
            let got = fingerprint(eval.score.loss, eval.gradient.as_slice());
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
            let got = fingerprint(eval.score.loss, eval.gradient.as_slice());
            if got != pin {
                report.push(format!("{} salt {salt} batch {batch}: {got:#018x}", case.name));
            }
        }
        assert_eq!(model.parameters(), initial, "{}: a borrowed vector was stored", case.name);
    }
    assert!(report.is_empty(), "moved pins:\n{}", report.join("\n"));
}

#[test]
fn gradient_into_a_used_row_equals_gradient_at() {
    // The row is an arena row: whatever the last round left there — NaN,
    // negative zeros, garbage — must leave no trace in the gradient.
    type Fill = fn(usize) -> f32;
    let fills: [(&str, Fill); 3] = [
        ("NaN", |_| f32::NAN),
        ("-0.0", |_| -0.0),
        ("garbage", |i| f32::from_bits((i as u32).wrapping_mul(0x9e37_79b9))),
    ];
    for case in &CASES {
        let mut model = (case.build)();
        for &(salt, batch, pin) in &case.pins {
            let params = params_for(&model, salt);
            let (x, labels) = batch_for(case, batch);
            let want = model.gradient_at(params.as_slice(), &x, &labels).unwrap();
            for (fill_name, fill) in fills {
                let mut row: Vec<f32> = (0..model.param_count()).map(fill).collect();
                let score = model.gradient_into(params.as_slice(), &x, &labels, &mut row).unwrap();
                let what = format!("{} salt {salt} batch {batch} over {fill_name}", case.name);
                assert_eq!(fingerprint(score.loss, &row), pin, "{what}");
                assert_eq!(score.loss.to_bits(), want.score.loss.to_bits(), "{what}: loss");
                assert_eq!(
                    score.accuracy.to_bits(),
                    want.score.accuracy.to_bits(),
                    "{what}: accuracy"
                );
                let bits = |g: &[f32]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&row), bits(want.gradient.as_slice()), "{what}: gradient");
            }
        }
    }
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
        assert_eq!(after_p.score.loss.to_bits(), fresh.score.loss.to_bits(), "{}: loss", case.name);
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
            let good = params_for(&model, 1);
            let mut row = vec![0.5f32; len];
            let err = model.gradient_into(good.as_slice(), &x, &labels, &mut row).unwrap_err();
            assert!(
                matches!(err, NnError::ParameterSizeMismatch { expected, actual }
                    if expected == d && actual == len),
                "{}: row {err:?}",
                case.name
            );
            assert!(row.iter().all(|&v| v == 0.5), "{}: a rejected row is untouched", case.name);
        }
        // The model is still usable afterwards.
        let params = params_for(&model, 1);
        assert!(model.gradient_at(params.as_slice(), &x, &labels).unwrap().score.loss.is_finite());
    }
}
