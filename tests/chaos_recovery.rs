//! Chaos-engineered wire, end to end: seeded fault injection, CRC32
//! rejection and the bounded retransmit/timeout recovery path.
//!
//! Three contracts, each pinned at the training-loop level (and the first
//! also property-tested at the wire level):
//!
//! * **Corruption detected ≡ corruption dropped.** A damaged packet the
//!   CRC32 envelope rejects must train *bit-for-bit* like the same packet
//!   never arriving: `ChaosMode::Corrupt` vs `ChaosMode::Drop` runs are
//!   compared across the full GAR × shards grid. Zero silent corruption —
//!   every injected fault is accounted in `corrupt_rejects`.
//! * **Recovery within budget ≡ a clean wire.** With a generous NACK
//!   budget the retransmit path re-delivers everything chaos destroyed, so
//!   training is bit-identical to a fault-free run of the same seed (only
//!   simulated time pays for the retries).
//! * **Recovery exhausted ≡ a transport loss.** A worker partitioned past
//!   its retry budget degrades exactly like a quorum straggler: the row is
//!   left out of the accepted slots and the `n − f` round aggregates the
//!   same survivor set.
//!
//! The engine has one round pipeline (the batch distance kernel over the
//! accepted rows), so each training-loop contract runs once per
//! configuration.

use agg_core::{GarConfig, GarKind};
use agg_net::{
    reseal_packet_bytes, ChaosConfig, ChaosMode, ChaosPlan, GradientCodec, LinkConfig, LossPolicy,
    LossyTransport, RetransmitConfig, RoundAssembler, Transport,
};
use agg_nn::schedule::LearningRate;
use agg_ps::{QuorumPolicy, RunnerConfig, SyncTrainingEngine, TrainingReport, TransportKind};
use proptest::prelude::*;

/// The light proxy experiment shared with `round_determinism` and
/// `elastic_membership`: d = 508 parameters → exactly 2 packets per gradient
/// under the default 350-coordinate codec.
fn base_config(gar: GarKind, f: usize, workers: usize) -> RunnerConfig {
    RunnerConfig {
        experiment: agg_ps::ExperimentKind::MlpBlobs {
            input_dim: 16,
            hidden: 24,
            classes: 4,
            samples: 600,
        },
        gar: GarConfig::new(gar, f),
        workers,
        max_steps: 6,
        eval_every: 3,
        eval_samples: 120,
        batch_size: 16,
        learning_rate: LearningRate::Fixed { rate: 0.01 },
        seed: 31,
        ..RunnerConfig::quick_default()
    }
}

/// Bit-for-bit equality of everything the gradient path determines. The
/// simulated clock is deliberately excluded: chaos modes and retransmits
/// charge different wire times, and the contracts below are about *values*.
fn assert_same_training(a: &TrainingReport, b: &TrainingReport, label: &str) {
    assert_eq!(a.steps_completed, b.steps_completed, "{label}: steps");
    assert_eq!(a.skipped_updates, b.skipped_updates, "{label}: skips");
    assert_eq!(a.refused_rounds, b.refused_rounds, "{label}: refusals");
    assert_eq!(a.trace.len(), b.trace.len(), "{label}: trace length");
    for (p, q) in a.trace.points().iter().zip(b.trace.points()) {
        assert_eq!(p.step, q.step, "{label}: trace steps");
        assert_eq!(
            p.accuracy.to_bits(),
            q.accuracy.to_bits(),
            "{label}: accuracy diverged at step {}",
            p.step
        );
        assert_eq!(p.loss.to_bits(), q.loss.to_bits(), "{label}: loss diverged at step {}", p.step);
    }
}

#[test]
fn corruption_detected_trains_identically_to_corruption_dropped() {
    // The zero-silent-corruption contract across the GAR grid: for every
    // rule (and both the flat and the S = 3 sharded tier), a run whose
    // degraded links damage packets (caught by the CRC envelope) must be
    // bit-identical to a run whose links *drop* the exact same packets —
    // the only difference the wire damage is allowed to make is the
    // `corrupt_rejects` accounting.
    let grid = [
        (GarKind::Average, 0),
        (GarKind::Median, 1),
        (GarKind::Median, 2),
        (GarKind::TrimmedMean, 1),
        (GarKind::TrimmedMean, 2),
        (GarKind::Krum, 1),
        (GarKind::Krum, 2),
        (GarKind::MultiKrum, 1),
        (GarKind::MultiKrum, 2),
        (GarKind::Bulyan, 1),
    ];
    for (gar, f) in grid {
        for shards in [1usize, 3] {
            let mut config = base_config(gar, f, 9);
            config.shards = shards;
            config.transport = TransportKind::Lossy { policy: LossPolicy::RandomFill };
            config.lossy_links = 3;
            config.chaos = Some(ChaosConfig::moderate());
            let corrupt =
                SyncTrainingEngine::new(config.clone()).expect("valid").run().expect("runs");
            config.chaos = Some(ChaosConfig { mode: ChaosMode::Drop, ..ChaosConfig::moderate() });
            let dropped = SyncTrainingEngine::new(config).expect("valid").run().expect("runs");
            let label = format!("{gar} f={f} shards={shards}");
            assert_same_training(&corrupt, &dropped, &label);
            assert!(corrupt.corrupt_rejects > 0, "{label}: chaos never landed a fault");
            assert_eq!(dropped.corrupt_rejects, 0, "{label}: dropped packets are not corrupt");
        }
    }
}

#[test]
fn retransmit_within_budget_is_bit_identical_to_a_fault_free_run() {
    // Recovery proven: with a retry budget generous enough to outlast the
    // chaos schedule, every damaged coordinate is re-delivered and the run
    // trains bit-for-bit like a clean wire — the faults exist only in the
    // `corrupt_rejects` ledger and the simulated clock.
    let mut config = base_config(GarKind::MultiKrum, 2, 9);
    config.max_steps = 12;
    config.eval_every = 4;
    config.transport = TransportKind::Lossy { policy: LossPolicy::DropGradient };
    config.lossy_links = 3;
    let baseline = SyncTrainingEngine::new(config.clone()).expect("valid").run().expect("runs");
    assert_eq!(baseline.corrupt_rejects, 0);

    config.chaos = Some(ChaosConfig::moderate());
    config.retransmit = Some(RetransmitConfig {
        max_retries: 16,
        round_deadline_sec: 10.0,
        ..RetransmitConfig::default()
    });
    let recovered = SyncTrainingEngine::new(config).expect("valid").run().expect("runs");
    let label = "recovered vs fault-free";
    assert_same_training(&baseline, &recovered, label);
    assert!(recovered.corrupt_rejects > 0, "{label}: the chaos schedule must actually fire");
    assert!(
        recovered.simulated_time_sec > baseline.simulated_time_sec,
        "{label}: retries charge backoff and resend time to the clock"
    );
}

#[test]
fn exhausted_recovery_degrades_exactly_like_a_quorum_straggler() {
    // Graceful degradation beyond the budget: worker 8's link is fully
    // partitioned and its retries exhaust, so its row is compacted away —
    // and the n − f quorum round must aggregate the *same* survivor set,
    // bit for bit, as a run where worker 8 is merely a hopeless straggler.
    let mut config = base_config(GarKind::MultiKrum, 2, 9);
    config.max_steps = 12;
    config.eval_every = 4;
    config.streaming.quorum = QuorumPolicy::NMinusF;
    config.transport = TransportKind::Lossy { policy: LossPolicy::DropGradient };
    config.lossy_links = 1; // worker 8 only

    let mut partitioned_cfg = config.clone();
    partitioned_cfg.chaos = Some(ChaosConfig { partition_rate: 1.0, ..ChaosConfig::default() });
    partitioned_cfg.retransmit = Some(RetransmitConfig::default());
    let partitioned = SyncTrainingEngine::new(partitioned_cfg).expect("valid").run().expect("runs");

    let mut straggler_cfg = config;
    straggler_cfg.worker_extra_delay_sec = vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 50.0];
    let straggler = SyncTrainingEngine::new(straggler_cfg).expect("valid").run().expect("runs");

    let label = "partitioned vs straggler";
    assert_same_training(&partitioned, &straggler, label);
    assert_eq!(partitioned.steps_completed, 12, "{label}: n − f quorum absorbs the lost row");
    assert_eq!(partitioned.skipped_updates, 0, "{label}");
    assert_eq!(
        partitioned.corrupt_rejects, 0,
        "{label}: a partition delivers nothing — there is nothing to reject"
    );
}

#[test]
fn retry_delay_spikes_consume_the_round_deadline_budget() {
    // Pins the retransmit-delay accounting contract: a delay spike injected
    // on a *retry* attempt is charged to `time_sec` before the next
    // `time_sec + backoff <= round_deadline_sec` check, so a delay-heavy
    // plan exhausts the deadline in strictly fewer retries than a delay-free
    // twin with the identical fault schedule. The spike magnitude changes no
    // RNG draw (each attempt reseeds from (step, stream, attempt)), so the
    // two plans drop exactly the same packets — only the clock differs.
    let link = LinkConfig::datacenter().with_drop_rate(0.6);
    let codec = GradientCodec::new(10).unwrap();
    let retrans = RetransmitConfig {
        max_retries: 16,
        initial_backoff_sec: 1e-4,
        backoff_factor: 1.5,
        round_deadline_sec: 0.25,
    };
    let spike_sec = 0.05f64;
    let gradient: Vec<f32> = (0..1000).map(|i| i as f32 * 0.25 - 3.0).collect();
    let run = |delay_spike_sec: f64| {
        let chaos =
            ChaosConfig { delay_spike_rate: 1.0, delay_spike_sec, ..ChaosConfig::default() };
        let mut t = LossyTransport::new(link, codec, LossPolicy::DropGradient, 11, 0).unwrap();
        t.set_chaos(Some(ChaosPlan::new(chaos, 11).unwrap()));
        t.set_retransmit(Some(retrans));
        let mut row = vec![0.0f32; gradient.len()];
        t.transfer_into(0, 0, &gradient, &mut row).unwrap()
    };

    let free = run(0.0);
    let heavy = run(spike_sec);

    assert!(free.delivered, "without delay spikes the retry budget must complete the row");
    assert!(free.retransmits > 1, "60% loss must need more than one retry");
    assert!(
        heavy.retransmits < free.retransmits,
        "retry delay spikes must shrink the usable retry budget \
         (heavy {} vs free {})",
        heavy.retransmits,
        free.retransmits
    );
    // Every attempt — the initial send and each retry — fired a spike, and
    // every one of them must appear in the reported time.
    assert!(
        heavy.time_sec >= spike_sec * (heavy.retransmits + 1) as f64,
        "reported time {} must include all {} delay spikes",
        heavy.time_sec,
        heavy.retransmits + 1
    );
    // The guard runs before each retry, so the overrun is bounded by one
    // attempt's spike + wire time.
    assert!(
        heavy.time_sec <= retrans.round_deadline_sec + spike_sec + 0.01,
        "the deadline bounds the clock to one attempt of overrun, got {}",
        heavy.time_sec
    );
}

#[test]
fn retry_delay_spikes_are_charged_to_the_reported_round_wait() {
    // The engine-level half of the same pin: two runs whose chaos plans
    // differ only in spike magnitude (every fault draw identical) must train
    // bit-for-bit — recovery re-delivers everything either way under a
    // generous deadline — while the delay-heavy run's simulated clock, which
    // aggregates the per-round `round_wait`, is strictly larger.
    let mut config = base_config(GarKind::MultiKrum, 2, 9);
    config.max_steps = 12;
    config.eval_every = 4;
    config.transport = TransportKind::Lossy { policy: LossPolicy::DropGradient };
    config.lossy_links = 3;
    config.retransmit = Some(RetransmitConfig {
        max_retries: 16,
        round_deadline_sec: 10.0,
        ..RetransmitConfig::default()
    });
    config.chaos = Some(ChaosConfig {
        delay_spike_rate: 1.0,
        delay_spike_sec: 0.0,
        ..ChaosConfig::moderate()
    });
    let free = SyncTrainingEngine::new(config.clone()).expect("valid").run().expect("runs");
    config.chaos = Some(ChaosConfig {
        delay_spike_rate: 1.0,
        delay_spike_sec: 2e-3,
        ..ChaosConfig::moderate()
    });
    let heavy = SyncTrainingEngine::new(config).expect("valid").run().expect("runs");

    let label = "delay-heavy vs delay-free";
    assert_same_training(&free, &heavy, label);
    assert!(heavy.corrupt_rejects > 0, "{label}: the chaos schedule must actually fire");
    assert!(
        heavy.simulated_time_sec > free.simulated_time_sec,
        "{label}: retry delay spikes must be charged to the reported round_wait \
         (heavy {} vs free {})",
        heavy.simulated_time_sec,
        free.simulated_time_sec
    );
}

/// Flips one payload bit of each selected packet and reseals nothing — the
/// receiver must catch it via the CRC.
fn damage(packets: &[bytes::Bytes], victims: &[usize]) -> Vec<bytes::Bytes> {
    packets
        .iter()
        .enumerate()
        .map(|(i, p)| {
            if victims.contains(&i) {
                let mut raw = p.to_vec();
                let byte = raw.len() - 1;
                raw[byte] ^= 0x10;
                bytes::Bytes::from(raw)
            } else {
                p.clone()
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The wire-level version of the corruption ≡ drop contract, under
    /// arbitrary gradients and arbitrary victim sets: feeding a batch with
    /// damaged packets yields the same row bits and the same missing count
    /// as feeding the batch with those packets removed — plus an exact
    /// `corrupt_rejects` ledger.
    #[test]
    fn damaged_packets_assemble_exactly_like_removed_packets(
        g in prop::collection::vec(prop::num::f32::ANY, 1..700),
        victims in prop::collection::vec(0usize..8, 0..6),
        worker in 0u32..16,
    ) {
        let codec = GradientCodec::new(97).unwrap();
        let clean = codec.split_bytes(worker, 4, &g);
        let victims: Vec<usize> =
            victims.into_iter().map(|v| v % clean.len()).collect();
        let damaged = damage(&clean, &victims);
        let removed: Vec<_> = clean
            .iter()
            .enumerate()
            .filter(|(i, _)| !victims.contains(i))
            .map(|(_, p)| p.clone())
            .collect();

        let mut a = RoundAssembler::new(g.len());
        let mut row_damaged = vec![-3.25f32; g.len()];
        let missing_damaged = a.assemble_into(&damaged, &mut row_damaged).unwrap();
        let distinct_victims =
            victims.iter().collect::<std::collections::BTreeSet<_>>().len();
        prop_assert_eq!(a.corrupt_rejects(), distinct_victims);

        let mut b = RoundAssembler::new(g.len());
        let mut row_removed = vec![-3.25f32; g.len()];
        let missing_removed = b.assemble_into(&removed, &mut row_removed).unwrap();
        prop_assert_eq!(b.corrupt_rejects(), 0);

        prop_assert_eq!(missing_damaged, missing_removed);
        for (x, y) in row_damaged.iter().zip(&row_removed) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// A resealed mutation is indistinguishable from an honest packet at the
    /// CRC layer — integrity is *tamper-evidence on the simulated wire*, not
    /// authentication — but the header validators still reject any resealed
    /// packet whose header no longer makes sense.
    #[test]
    fn resealed_nonsense_headers_stay_rejected(
        g in prop::collection::vec(prop::num::f32::ANY, 40..200),
        bad_sequence in 64u32..1000,
    ) {
        let codec = GradientCodec::new(32).unwrap();
        let packets = codec.split_bytes(0, 7, &g);
        let mut raw = packets[0].to_vec();
        // Point the sequence field past `total`, then reseal so the CRC is
        // valid again: the packet must now fail *semantic* validation.
        raw[12..16].copy_from_slice(&bad_sequence.to_le_bytes());
        reseal_packet_bytes(&mut raw);
        let mut assembler = RoundAssembler::new(g.len());
        let mut row = vec![0.0f32; g.len()];
        prop_assert!(assembler
            .assemble_into(&[bytes::Bytes::from(raw)], &mut row)
            .is_err());
        prop_assert_eq!(assembler.corrupt_rejects(), 0);
    }
}
