//! The lossy link model: independent packet drops, reordering and
//! duplication, as injected in the paper's Figure 8 experiments with `tc` —
//! plus the seeded chaos layer ([`ChaosPlan`]) that damages the packets a
//! link *does* deliver: bit flips, truncation, duplication-with-mutation,
//! reorder bursts, delay spikes and transient partitions.
//!
//! Both draw a send's fate without reading a packet's bytes: the link's
//! draws depend only on how many packets there are, the chaos plan's also
//! on their lengths. So the lossy transport draws the fate over packet ids
//! first and encodes only the packets that arrive, damaged as drawn;
//! [`LossyLink::transmit_bytes`] and [`ChaosPlan::apply`] run the same
//! draws over encoded [`Bytes`].

use crate::{NetError, Result};
use agg_tensor::rng::{derive_seed, seeded_rng};
use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Static characteristics of a (simulated) network link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Usable bandwidth in bytes per second (the paper's clusters use 10 Gbps
    /// Ethernet ≈ 1.25 GB/s).
    pub bandwidth_bytes_per_sec: f64,
    /// One-way propagation latency in seconds.
    pub latency_sec: f64,
    /// Independent probability that a packet is dropped.
    pub drop_rate: f64,
    /// Probability that a delivered packet is displaced in the arrival order.
    pub reorder_rate: f64,
    /// Probability that a delivered packet is duplicated.
    pub duplicate_rate: f64,
}

impl LinkConfig {
    /// A clean 10 Gbps data-centre link (the paper's baseline environment).
    pub fn datacenter() -> Self {
        LinkConfig {
            bandwidth_bytes_per_sec: 1.25e9,
            latency_sec: 100e-6,
            drop_rate: 0.0,
            reorder_rate: 0.0,
            duplicate_rate: 0.0,
        }
    }

    /// The same link with an artificially injected drop rate (the paper uses
    /// `tc` to add 10 % loss).
    pub fn with_drop_rate(mut self, drop_rate: f64) -> Self {
        self.drop_rate = drop_rate;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidConfig`] for non-positive bandwidth or
    /// probabilities outside `[0, 1]`.
    pub fn validate(&self) -> Result<()> {
        if self.bandwidth_bytes_per_sec <= 0.0 {
            return Err(NetError::InvalidConfig("bandwidth must be positive".to_string()));
        }
        if self.latency_sec < 0.0 {
            return Err(NetError::InvalidConfig("latency must be non-negative".to_string()));
        }
        for (name, p) in [
            ("drop_rate", self.drop_rate),
            ("reorder_rate", self.reorder_rate),
            ("duplicate_rate", self.duplicate_rate),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(NetError::InvalidConfig(format!("{name} must be in [0, 1], got {p}")));
            }
        }
        Ok(())
    }

    /// Time to push `bytes` through the link (serialisation + propagation).
    pub fn transfer_time(&self, bytes: usize) -> f64 {
        bytes as f64 / self.bandwidth_bytes_per_sec + self.latency_sec
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig::datacenter()
    }
}

/// What happened to one batch of packets pushed through a lossy link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LinkStats {
    /// Packets handed to the link.
    pub sent: usize,
    /// Packets delivered (including duplicates).
    pub delivered: usize,
    /// Packets dropped.
    pub dropped: usize,
    /// Packets duplicated.
    pub duplicated: usize,
    /// Packets displaced from their original position.
    pub reordered: usize,
}

/// A link that applies drops, duplication and reordering to packet batches.
#[derive(Debug, Clone)]
pub struct LossyLink {
    config: LinkConfig,
    rng: SmallRng,
}

impl LossyLink {
    /// Creates a lossy link with its own deterministic RNG stream.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidConfig`] when the configuration is invalid.
    pub fn new(config: LinkConfig, seed: u64, stream: u64) -> Result<Self> {
        config.validate()?;
        Ok(LossyLink { config, rng: seeded_rng(derive_seed(seed, stream ^ 0x11AC)) })
    }

    /// The link's static configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Pushes a batch of encoded packets through the link, returning the
    /// delivered packets (in arrival order) and the statistics of what
    /// happened, by the same draws the lossy transport makes over packet
    /// ids. `Bytes` views are reference-counted, so delivery (and
    /// duplication) clones a pointer, not a payload.
    pub fn transmit_bytes(&mut self, packets: &[Bytes]) -> (Vec<Bytes>, LinkStats) {
        let mut delivered = Vec::with_capacity(packets.len());
        let stats = self.transmit(packets.iter().cloned(), &mut delivered);
        (delivered, stats)
    }

    /// The link's fate for one batch: which of `packets` arrive and in what
    /// order, written into `delivered` (cleared first). Per packet it draws
    /// a drop and, for a survivor, a duplicate; then one reorder pass swaps
    /// each selected arrival with a random one. The draws depend only on how
    /// many packets there are and how many survive, never on their bytes,
    /// so a batch of packet ids draws the arrivals a batch of encoded
    /// packets would.
    pub(crate) fn transmit<T: Clone>(
        &mut self,
        packets: impl IntoIterator<Item = T>,
        delivered: &mut Vec<T>,
    ) -> LinkStats {
        let mut stats = LinkStats::default();
        delivered.clear();
        for p in packets {
            stats.sent += 1;
            if self.rng.gen::<f64>() < self.config.drop_rate {
                stats.dropped += 1;
                continue;
            }
            delivered.push(p.clone());
            if self.rng.gen::<f64>() < self.config.duplicate_rate {
                delivered.push(p);
                stats.duplicated += 1;
            }
        }
        // Reordering: displace each selected packet to a random position.
        let len = delivered.len();
        for i in 0..len {
            if self.rng.gen::<f64>() < self.config.reorder_rate {
                let j = self.rng.gen_range(0..len);
                if i != j {
                    delivered.swap(i, j);
                    stats.reordered += 1;
                }
            }
        }
        stats.delivered = delivered.len();
        stats
    }
}

/// Per-fault-class rates of a [`ChaosPlan`]. All rates are independent
/// per-packet (or per-round, for bursts/partitions/spikes) probabilities in
/// `[0, 1]`; the all-zero default injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Per-packet probability of one flipped bit (header or payload).
    pub bit_flip_rate: f64,
    /// Per-packet probability of truncation to a strictly shorter prefix.
    pub truncate_rate: f64,
    /// Per-packet probability of an appended duplicate with one flipped bit
    /// (the original is delivered intact).
    pub mutate_duplicate_rate: f64,
    /// Per-round probability of a reorder burst: a contiguous window of the
    /// delivered batch arrives reversed.
    pub reorder_burst_rate: f64,
    /// Per-round probability of a delay spike of [`ChaosConfig::delay_spike_sec`].
    pub delay_spike_rate: f64,
    /// Extra one-way delay charged when a spike fires.
    pub delay_spike_sec: f64,
    /// Per-round probability of a transient partition: every packet of the
    /// round (including retransmissions) is lost.
    pub partition_rate: f64,
    /// How scheduled faults are realised (see [`ChaosMode`]); `Corrupt`
    /// unless a scenario explicitly wants the explicit-drop twin.
    pub mode: ChaosMode,
}

impl ChaosConfig {
    /// A moderate all-fault mix used by the chaos bench arm and tests:
    /// every fault class fires regularly, none dominates.
    pub fn moderate() -> Self {
        ChaosConfig {
            bit_flip_rate: 0.05,
            truncate_rate: 0.03,
            mutate_duplicate_rate: 0.03,
            reorder_burst_rate: 0.10,
            delay_spike_rate: 0.05,
            delay_spike_sec: 2e-3,
            partition_rate: 0.01,
            mode: ChaosMode::Corrupt,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidConfig`] for probabilities outside
    /// `[0, 1]` or a non-finite/negative spike delay.
    pub fn validate(&self) -> Result<()> {
        for (name, p) in [
            ("bit_flip_rate", self.bit_flip_rate),
            ("truncate_rate", self.truncate_rate),
            ("mutate_duplicate_rate", self.mutate_duplicate_rate),
            ("reorder_burst_rate", self.reorder_burst_rate),
            ("delay_spike_rate", self.delay_spike_rate),
            ("partition_rate", self.partition_rate),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(NetError::InvalidConfig(format!("{name} must be in [0, 1], got {p}")));
            }
        }
        if !self.delay_spike_sec.is_finite() || self.delay_spike_sec < 0.0 {
            return Err(NetError::InvalidConfig(format!(
                "delay_spike_sec must be finite and non-negative, got {}",
                self.delay_spike_sec
            )));
        }
        Ok(())
    }
}

/// How a [`ChaosPlan`] realises the faults it schedules.
///
/// Both modes draw the *identical* random sequence for partition, spike and
/// per-packet fault selection, so a given `(seed, step, stream, attempt)`
/// damages the same packets either way. `Corrupt` delivers the damaged
/// bytes (the receiver's integrity envelope must reject them); `Drop`
/// removes the selected packets outright. A receiver that detects every
/// corruption therefore assembles bit-identical rows under either mode —
/// the property the chaos test suite pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ChaosMode {
    /// Deliver damaged bytes (default).
    #[default]
    Corrupt,
    /// Remove the packets the faults would have damaged.
    Drop,
}

/// What one [`ChaosPlan::apply`] call did to a batch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChaosStats {
    /// Packets with one flipped bit.
    pub bit_flips: usize,
    /// Packets truncated to a shorter prefix.
    pub truncations: usize,
    /// Mutated duplicates appended to the batch.
    pub mutated_duplicates: usize,
    /// Whether a reorder burst fired.
    pub reorder_bursts: usize,
    /// Whether the round hit a transient partition (everything lost).
    pub partitioned: bool,
    /// Extra delay charged by a spike (0 when none fired).
    pub delay_sec: f64,
}

impl ChaosStats {
    /// Corrupt packets this application injected — every one of them must
    /// surface as a `corrupt_rejects` at the receiver (never in a row).
    pub fn injected_corrupt(&self) -> usize {
        self.bit_flips + self.truncations + self.mutated_duplicates
    }
}

/// A seeded, replayable schedule of wire faults.
///
/// Where [`LossyLink`] models *clean* loss — a packet either arrives intact
/// or not at all — `ChaosPlan` models the dirtier failures of a real
/// datacenter fabric: bits flipped in flight, datagrams cut short by a
/// misbehaving NIC, duplicates that differ from their original, bursts of
/// reordering, latency spikes and short link partitions. Faults are drawn
/// from the plan's own RNG stream, derived from
/// `(seed, stream, step, attempt)` and nothing else:
///
/// * the plan never touches the [`LossyLink`] RNG, so enabling chaos leaves
///   every existing loss/duplication/reorder draw — and every determinism
///   pin built on them — unchanged;
/// * replaying the same `(seed, stream, step, attempt)` replays the same
///   faults bit-for-bit, composing with `FaultPlan` churn and `LossPolicy`
///   compaction into fully reproducible scenarios;
/// * the `attempt` axis gives every retransmission its own fault draw, so a
///   retry can succeed where the first send was damaged.
///
/// At most one corruption fault (flip **or** truncate) applies per packet,
/// and a mutated duplicate damages only the appended copy, so
/// [`ChaosStats::injected_corrupt`] counts the damaged packets exactly —
/// the accounting the zero-silent-corruption property test reconciles
/// against the receiver's `corrupt_rejects`.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    config: ChaosConfig,
    seed: u64,
    mode: ChaosMode,
}

impl ChaosPlan {
    /// Creates a plan injecting faults at the rates of `config`, drawn from
    /// an RNG stream derived from `seed`, realised in `config.mode`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidConfig`] when `config` is invalid.
    pub fn new(config: ChaosConfig, seed: u64) -> Result<Self> {
        config.validate()?;
        let mode = config.mode;
        Ok(ChaosPlan { config, seed, mode })
    }

    /// The same plan realising its faults in a different mode.
    pub fn with_mode(mut self, mode: ChaosMode) -> Self {
        self.mode = mode;
        self
    }

    /// The plan's fault rates.
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }

    /// The plan's mode.
    pub fn mode(&self) -> ChaosMode {
        self.mode
    }

    /// Applies the faults scheduled for `(step, stream, attempt)` to a batch
    /// of delivered packets, in place, by the same draws the lossy transport
    /// makes over its arrivals before it encodes them. `stream` identifies
    /// the sender (the same id the transport's [`LossyLink`] uses),
    /// `attempt` is 0 for the original transmission and increments per
    /// retransmission.
    pub fn apply(
        &self,
        step: u64,
        stream: u64,
        attempt: u32,
        packets: &mut Vec<Bytes>,
    ) -> ChaosStats {
        self.damage(step, stream, attempt, packets)
    }

    /// The faults scheduled for `(step, stream, attempt)`, drawn over a
    /// batch of arrivals and realised on them in place. Every draw depends
    /// only on the arrivals' count and byte lengths, so a batch of
    /// descriptors of packets not yet encoded draws exactly the faults a
    /// batch of encoded packets would.
    pub(crate) fn damage<P: Damageable>(
        &self,
        step: u64,
        stream: u64,
        attempt: u32,
        packets: &mut Vec<P>,
    ) -> ChaosStats {
        let per_send = derive_seed(derive_seed(self.seed, 0xC0A5 ^ stream), step);
        let mut rng = seeded_rng(derive_seed(per_send, attempt as u64));
        let mut stats = ChaosStats::default();
        if rng.gen::<f64>() < self.config.partition_rate {
            stats.partitioned = true;
            packets.clear();
            return stats;
        }
        if rng.gen::<f64>() < self.config.delay_spike_rate {
            stats.delay_sec = self.config.delay_spike_sec;
        }
        // Per-packet faults, drawn over the original batch only (appended
        // duplicates are never re-damaged). The classification draw and the
        // fault-parameter draws are identical in both modes; only the
        // realisation differs, so Corrupt and Drop select the same victims.
        let originals = packets.len();
        let mut doomed = vec![false; originals];
        let mut appended: Vec<P> = Vec::new();
        let flip = self.config.bit_flip_rate;
        let truncate = flip + self.config.truncate_rate;
        let mutate = truncate + self.config.mutate_duplicate_rate;
        for (i, doom) in doomed.iter_mut().enumerate() {
            let draw = rng.gen::<f64>();
            let wire_len = packets[i].wire_len();
            let len = wire_len.max(1);
            if draw < flip {
                stats.bit_flips += 1;
                let bit = rng.gen_range(0..len * 8);
                match self.mode {
                    ChaosMode::Corrupt => {
                        if wire_len > 0 {
                            packets[i] = packets[i].flipped(bit);
                        }
                    }
                    ChaosMode::Drop => *doom = true,
                }
            } else if draw < truncate {
                stats.truncations += 1;
                // Strictly shorter, so truncation is always detectable (a
                // short header or a checksum over fewer bytes than sealed).
                let keep = rng.gen_range(0..len);
                match self.mode {
                    ChaosMode::Corrupt => packets[i] = packets[i].truncated(keep.min(wire_len)),
                    ChaosMode::Drop => *doom = true,
                }
            } else if draw < mutate {
                stats.mutated_duplicates += 1;
                let bit = rng.gen_range(0..len * 8);
                // In Drop mode the damaged copy simply never materialises —
                // rejecting a corrupt duplicate and not sending it are the
                // same thing to the assembler.
                if self.mode == ChaosMode::Corrupt && wire_len > 0 {
                    appended.push(packets[i].flipped(bit));
                }
            }
        }
        if doomed.iter().any(|&d| d) {
            // `retain` visits the originals in order, once each.
            let mut index = 0;
            packets.retain(|_| {
                index += 1;
                !doomed[index - 1]
            });
        }
        packets.extend(appended);
        // A reorder burst reverses a contiguous window of the batch. Window
        // draws depend on the current length, which may differ between
        // modes — harmless, because assembly is arrival-order insensitive.
        if rng.gen::<f64>() < self.config.reorder_burst_rate && packets.len() >= 2 {
            stats.reorder_bursts = 1;
            let start = rng.gen_range(0..packets.len() - 1);
            let end = rng.gen_range(start + 2..=packets.len());
            packets[start..end].reverse();
        }
        stats
    }
}

/// A packet as the chaos layer sees it: a byte length, and the two kinds of
/// damage it can take. Encoded [`Bytes`] take it on their bytes; the lossy
/// transport's arrival descriptors record it, to realise on the bytes when
/// the packet is encoded.
pub(crate) trait Damageable {
    /// The packet's length on the wire, in bytes.
    fn wire_len(&self) -> usize;

    /// A copy of the packet with bit `bit` (`< 8 · wire_len`) flipped.
    fn flipped(&self, bit: usize) -> Self;

    /// The packet cut to its first `keep` (`≤ wire_len`) bytes.
    fn truncated(&self, keep: usize) -> Self;
}

impl Damageable for Bytes {
    fn wire_len(&self) -> usize {
        self.len()
    }

    fn flipped(&self, bit: usize) -> Self {
        let mut bytes = self.to_vec();
        bytes[bit / 8] ^= 1 << (bit % 8);
        Bytes::from(bytes)
    }

    fn truncated(&self, keep: usize) -> Self {
        self.slice(0..keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::GradientCodec;

    fn wire_packets(n_coords: usize, step: u64) -> Vec<Bytes> {
        GradientCodec::new(10).unwrap().split_bytes(
            0,
            step,
            &(0..n_coords).map(|i| i as f32).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn config_validation() {
        assert!(LinkConfig::datacenter().validate().is_ok());
        assert!(LinkConfig { bandwidth_bytes_per_sec: 0.0, ..LinkConfig::datacenter() }
            .validate()
            .is_err());
        assert!(LinkConfig::datacenter().with_drop_rate(1.5).validate().is_err());
        assert!(LinkConfig { latency_sec: -1.0, ..LinkConfig::datacenter() }.validate().is_err());
    }

    #[test]
    fn transfer_time_has_bandwidth_and_latency_terms() {
        let link = LinkConfig {
            bandwidth_bytes_per_sec: 1000.0,
            latency_sec: 0.5,
            ..LinkConfig::datacenter()
        };
        assert!((link.transfer_time(1000) - 1.5).abs() < 1e-9);
        assert!((link.transfer_time(0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lossless_link_delivers_everything_in_order() {
        let mut link = LossyLink::new(LinkConfig::datacenter(), 1, 0).unwrap();
        let ps = wire_packets(100, 0);
        let (delivered, stats) = link.transmit_bytes(&ps);
        assert_eq!(delivered, ps);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.delivered, ps.len());
    }

    #[test]
    fn drop_rate_drops_about_the_right_fraction() {
        let config = LinkConfig::datacenter().with_drop_rate(0.3);
        let mut link = LossyLink::new(config, 2, 0).unwrap();
        let ps = wire_packets(10_000, 0);
        let (_, stats) = link.transmit_bytes(&ps);
        let rate = stats.dropped as f64 / stats.sent as f64;
        assert!((rate - 0.3).abs() < 0.05, "observed drop rate {rate}");
    }

    #[test]
    fn duplication_and_reordering_happen() {
        let config =
            LinkConfig { duplicate_rate: 0.2, reorder_rate: 0.5, ..LinkConfig::datacenter() };
        let mut link = LossyLink::new(config, 3, 0).unwrap();
        let ps = wire_packets(1000, 0);
        let (delivered, stats) = link.transmit_bytes(&ps);
        assert!(stats.duplicated > 0);
        assert!(stats.reordered > 0);
        assert_eq!(delivered.len(), stats.delivered);
        assert!(delivered.len() > ps.len());
    }

    #[test]
    fn link_is_deterministic_per_seed() {
        let config = LinkConfig::datacenter().with_drop_rate(0.2);
        let ps = wire_packets(500, 0);
        let (a, _) = LossyLink::new(config, 7, 1).unwrap().transmit_bytes(&ps);
        let (b, _) = LossyLink::new(config, 7, 1).unwrap().transmit_bytes(&ps);
        assert_eq!(a, b);
        let (c, _) = LossyLink::new(config, 8, 1).unwrap().transmit_bytes(&ps);
        assert_ne!(a, c);
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        assert!(LossyLink::new(LinkConfig::datacenter().with_drop_rate(2.0), 0, 0).is_err());
    }

    #[test]
    fn chaos_config_validation() {
        assert!(ChaosConfig::default().validate().is_ok());
        assert!(ChaosConfig::moderate().validate().is_ok());
        assert!(ChaosConfig { bit_flip_rate: 1.5, ..Default::default() }.validate().is_err());
        assert!(ChaosConfig { partition_rate: -0.1, ..Default::default() }.validate().is_err());
        assert!(ChaosConfig { delay_spike_sec: f64::NAN, ..Default::default() }
            .validate()
            .is_err());
        assert!(
            ChaosPlan::new(ChaosConfig { truncate_rate: 2.0, ..Default::default() }, 1).is_err()
        );
    }

    #[test]
    fn chaos_is_deterministic_per_seed_step_stream_and_attempt() {
        let plan = ChaosPlan::new(ChaosConfig::moderate(), 42).unwrap();
        let original = wire_packets(200, 3);
        let mut a = original.clone();
        let mut b = original.clone();
        let sa = plan.apply(3, 5, 0, &mut a);
        let sb = plan.apply(3, 5, 0, &mut b);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        // A different attempt draws fresh faults for the same send.
        let mut c = original.clone();
        let sc = plan.apply(3, 5, 1, &mut c);
        assert!(a != c || sa != sc, "attempt axis must vary the fault draw");
        // And a different seed differs too.
        let other = ChaosPlan::new(ChaosConfig::moderate(), 43).unwrap();
        let mut d = original.clone();
        let sd = other.apply(3, 5, 0, &mut d);
        assert!(a != d || sa != sd, "seed must vary the fault draw");
    }

    #[test]
    fn every_injected_corruption_is_detected_and_counted() {
        // Across many rounds of moderate chaos, the number of packets the
        // integrity envelope rejects equals injected_corrupt() exactly, and
        // every surviving packet is one that was sent — no silent
        // corruption, no over-counting.
        let plan = ChaosPlan::new(ChaosConfig::moderate(), 7).unwrap();
        let mut saw_each = ChaosStats::default();
        for step in 0..200u64 {
            let original = wire_packets(120, step);
            let mut batch = original.clone();
            let sent = batch.len();
            let stats = plan.apply(step, 1, 0, &mut batch);
            if stats.partitioned {
                assert!(batch.is_empty(), "a partition loses the whole round");
                continue;
            }
            let corrupt =
                batch.iter().filter(|p| crate::packet::wire_integrity_error(p).is_some()).count();
            assert_eq!(corrupt, stats.injected_corrupt(), "step {step}");
            assert_eq!(
                batch.len(),
                sent + stats.mutated_duplicates,
                "only mutated duplicates change the batch size"
            );
            for p in &batch {
                if crate::packet::wire_integrity_error(p).is_none() {
                    assert!(original.contains(p), "step {step}: an intact packet nobody sent");
                }
            }
            saw_each.bit_flips += stats.bit_flips;
            saw_each.truncations += stats.truncations;
            saw_each.mutated_duplicates += stats.mutated_duplicates;
            saw_each.reorder_bursts += stats.reorder_bursts;
            saw_each.delay_sec += stats.delay_sec;
        }
        assert!(saw_each.bit_flips > 0, "expected some bit flips over 200 rounds");
        assert!(saw_each.truncations > 0);
        assert!(saw_each.mutated_duplicates > 0);
        assert!(saw_each.reorder_bursts > 0);
        assert!(saw_each.delay_sec > 0.0);
    }

    #[test]
    fn corrupt_and_drop_modes_select_the_same_victims() {
        let config = ChaosConfig::moderate();
        let corrupt_plan = ChaosPlan::new(config, 11).unwrap();
        let drop_plan = ChaosPlan::new(config, 11).unwrap().with_mode(ChaosMode::Drop);
        assert_eq!(drop_plan.mode(), ChaosMode::Drop);
        for step in 0..100u64 {
            let mut corrupted = wire_packets(90, step);
            let mut dropped = corrupted.clone();
            let sc = corrupt_plan.apply(step, 2, 0, &mut corrupted);
            let sd = drop_plan.apply(step, 2, 0, &mut dropped);
            assert_eq!(sc.bit_flips, sd.bit_flips);
            assert_eq!(sc.truncations, sd.truncations);
            assert_eq!(sc.mutated_duplicates, sd.mutated_duplicates);
            assert_eq!(sc.partitioned, sd.partitioned);
            assert_eq!(sc.delay_sec, sd.delay_sec);
            // The intact packets of the corrupt batch are exactly the drop
            // batch (as multisets — reorder windows may differ).
            let mut intact: Vec<&[u8]> = corrupted
                .iter()
                .filter(|p| crate::packet::wire_integrity_error(p).is_none())
                .map(|p| p.as_ref())
                .collect();
            let mut kept: Vec<&[u8]> = dropped.iter().map(|p| p.as_ref()).collect();
            intact.sort();
            kept.sort();
            assert_eq!(intact, kept, "step {step}");
        }
    }

    #[test]
    fn partition_loses_the_whole_round() {
        let plan =
            ChaosPlan::new(ChaosConfig { partition_rate: 1.0, ..Default::default() }, 5).unwrap();
        let mut batch = wire_packets(50, 0);
        let stats = plan.apply(0, 0, 0, &mut batch);
        assert!(stats.partitioned);
        assert!(batch.is_empty());
        assert_eq!(stats.injected_corrupt(), 0);
    }
}
