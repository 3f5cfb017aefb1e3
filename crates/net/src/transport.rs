//! The two transports compared in the paper's Figure 8: a reliable TCP-like
//! channel and the lossy UDP-like `lossyMPI` channel, plus the policies for
//! handling whatever the lossy channel fails to deliver (§3.3).

use crate::assembler::RoundAssembler;
use crate::link::{ChaosPlan, Damageable, LinkConfig, LinkStats, LossyLink};
use crate::packet::{GradientCodec, PacketStamp, CRC_LANES, HEADER_BYTES};
use crate::{NetError, Result};
use agg_tensor::Vector;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How the receiving endpoint treats lost coordinates (§3.3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum LossPolicy {
    /// Drop the whole gradient if any coordinate is missing ("the most
    /// straightforward solution"). The caller receives `None` for that
    /// gradient.
    DropGradient,
    /// Keep missing coordinates as `NaN`; the selective-averaging GAR ignores
    /// them.
    SelectiveNan,
    /// Fill missing coordinates with pseudo-random values and let the
    /// Byzantine-resilient GAR on top absorb them — AggregaThor's approach.
    #[default]
    RandomFill,
}

/// Everything that happened while transferring one gradient.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferOutcome {
    /// The gradient as seen by the receiver; `None` when the loss policy
    /// dropped it entirely.
    pub gradient: Option<Vector>,
    /// Simulated wall-clock time the transfer took, in seconds.
    pub time_sec: f64,
    /// Bytes put on the wire (including retransmissions for the reliable
    /// transport).
    pub bytes_sent: usize,
    /// Number of coordinates that never arrived (before policy handling).
    pub missing_coordinates: usize,
    /// Raw link statistics.
    pub link_stats: LinkStats,
}

/// What one in-place transfer did — [`TransferOutcome`] minus the owned
/// gradient: the receiver's view was written straight into the caller's
/// arena row instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowTransfer {
    /// `false` when the loss policy dropped the gradient entirely (the row's
    /// contents are then unspecified and must not be aggregated).
    pub delivered: bool,
    /// Simulated wall-clock time the transfer took, in seconds.
    pub time_sec: f64,
    /// Bytes put on the wire (including retransmissions for the reliable
    /// transport).
    pub bytes_sent: usize,
    /// Number of coordinates that never arrived (before policy handling).
    pub missing_coordinates: usize,
    /// Packets the receiver's epoch fence rejected (late packets from an
    /// evicted membership epoch). When non-zero the gradient was fenced and
    /// `delivered` is `false`.
    pub stale_epoch_rejects: usize,
    /// Packets the receiver's integrity envelope rejected (bit-flipped,
    /// truncated or version-mismatched on the wire). Corrupt packets never
    /// reach the row; they count as losses for the loss policy.
    pub corrupt_rejects: usize,
    /// Retransmission rounds the recovery protocol ran (0 when disabled or
    /// when the first transmission completed the row).
    pub retransmits: usize,
    /// `true` when the recovery protocol was enabled but the row still ended
    /// the round incomplete — the retry budget or the round deadline ran out
    /// before every coordinate arrived. Distinguishes a *recovery failure*
    /// (the wire stayed bad through the whole budget) from a plain loss on a
    /// transport that never tried to recover.
    pub retransmit_exhausted: bool,
    /// Raw link statistics.
    pub link_stats: LinkStats,
}

/// Bounded NACK/retransmit recovery for the lossy transport: after the
/// initial transmission the receiver NACKs the pre-split packet ids it has
/// not accepted, the sender re-sends exactly those packets, and the exchange
/// repeats under an exponential backoff until the row completes, the retry
/// budget runs out, or the per-round deadline passes. Beyond the budget the
/// row degrades exactly like a plain transport loss — compacted by the loss
/// policy, absorbed by the `n − f` quorum, refused below the resilience
/// floor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetransmitConfig {
    /// Maximum retransmission rounds after the initial send.
    pub max_retries: u32,
    /// Backoff charged before the first retransmission.
    pub initial_backoff_sec: f64,
    /// Multiplier applied to the backoff after every retransmission.
    pub backoff_factor: f64,
    /// Hard per-round deadline: no retransmission starts once the transfer's
    /// accumulated simulated time (including the pending backoff) would
    /// exceed it.
    pub round_deadline_sec: f64,
}

impl RetransmitConfig {
    fn default_max_retries() -> u32 {
        3
    }

    fn default_initial_backoff_sec() -> f64 {
        1e-3
    }

    fn default_backoff_factor() -> f64 {
        2.0
    }

    fn default_round_deadline_sec() -> f64 {
        0.25
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidConfig`] for non-finite or negative
    /// timings, a backoff factor below 1, or a non-positive deadline.
    pub fn validate(&self) -> Result<()> {
        if !self.initial_backoff_sec.is_finite() || self.initial_backoff_sec < 0.0 {
            return Err(NetError::InvalidConfig(format!(
                "initial_backoff_sec must be finite and non-negative, got {}",
                self.initial_backoff_sec
            )));
        }
        if !self.backoff_factor.is_finite() || self.backoff_factor < 1.0 {
            return Err(NetError::InvalidConfig(format!(
                "backoff_factor must be finite and at least 1, got {}",
                self.backoff_factor
            )));
        }
        if !self.round_deadline_sec.is_finite() || self.round_deadline_sec <= 0.0 {
            return Err(NetError::InvalidConfig(format!(
                "round_deadline_sec must be finite and positive, got {}",
                self.round_deadline_sec
            )));
        }
        Ok(())
    }
}

impl Default for RetransmitConfig {
    fn default() -> Self {
        RetransmitConfig {
            max_retries: Self::default_max_retries(),
            initial_backoff_sec: Self::default_initial_backoff_sec(),
            backoff_factor: Self::default_backoff_factor(),
            round_deadline_sec: Self::default_round_deadline_sec(),
        }
    }
}

/// A one-way gradient transfer channel from a worker to the parameter
/// server (the model transfer in the opposite direction reuses the same
/// models with the roles swapped).
///
/// Each transport has one send body, [`Transport::send_in_place`]: the
/// gradient leaves from the row it was written to and the receiver's view
/// comes back into that row. [`Transport::transfer_into`] and
/// [`Transport::transfer`] copy the gradient into a row first.
pub trait Transport: Send + fmt::Debug {
    /// Short transport name (`"tcp"`, `"lossy-udp"`).
    fn name(&self) -> &'static str;

    /// Stamps every subsequent send with this membership epoch — the epoch
    /// the *sender* believes is current. Default: no-op (epoch 0, the
    /// static-membership wire default).
    fn set_epoch(&mut self, _epoch: u32) {}

    /// Fences the *receiving* side on an expected membership epoch: packets
    /// stamped with any other epoch are rejected before they can fill a
    /// row (`None` accepts any epoch). Default: no-op.
    fn set_expected_epoch(&mut self, _epoch: Option<u32>) {}

    /// Installs a seeded [`ChaosPlan`] damaging the wire between sender and
    /// receiver (`None` disables chaos). Default: no-op — the reliable
    /// transport's acknowledgement machinery already repairs wire damage,
    /// which its congestion model prices in.
    fn set_chaos(&mut self, _chaos: Option<ChaosPlan>) {}

    /// Enables the bounded NACK/retransmit recovery protocol (`None`
    /// disables it). Default: no-op — transports without a lossy wire have
    /// nothing to recover.
    fn set_retransmit(&mut self, _config: Option<RetransmitConfig>) {}

    /// Sends the gradient held in `row` — the hot path — and leaves the
    /// receiver's view of it (after loss and policy handling) in the same
    /// row, typically one slot of a reused `GradientBatch` arena, so a round
    /// moves a gradient from its compute to the server with no second copy
    /// of it. A reliable link only prices the send and leaves the row as it
    /// is; a lossy one encodes the row into its packets and assembles what
    /// arrives back into it.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] only for structural failures (codec
    /// inconsistencies); packet loss is not an error, it is the point.
    fn send_in_place(&mut self, worker: u32, step: u64, row: &mut [f32]) -> Result<RowTransfer>;

    /// Transfers one gradient into `dst`: copies it there, then sends it in
    /// place ([`Transport::send_in_place`]), for callers whose gradient
    /// lives outside the destination row.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidConfig`] for a mismatched row length, and
    /// otherwise as [`Transport::send_in_place`].
    fn transfer_into(
        &mut self,
        worker: u32,
        step: u64,
        gradient: &[f32],
        dst: &mut [f32],
    ) -> Result<RowTransfer> {
        if dst.len() != gradient.len() {
            return Err(NetError::InvalidConfig(format!(
                "destination row has {} coordinates, gradient has {}",
                dst.len(),
                gradient.len()
            )));
        }
        dst.copy_from_slice(gradient);
        self.send_in_place(worker, step, dst)
    }

    /// Transfers one gradient, returning what the receiver observes as an
    /// owned [`Vector`] (convenience wrapper over
    /// [`Transport::send_in_place`] for callers without an arena).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Transport::send_in_place`].
    fn transfer(&mut self, worker: u32, step: u64, gradient: &Vector) -> Result<TransferOutcome> {
        let mut row = gradient.as_slice().to_vec();
        let outcome = self.send_in_place(worker, step, &mut row)?;
        Ok(TransferOutcome {
            gradient: outcome.delivered.then(|| Vector::from(row)),
            time_sec: outcome.time_sec,
            bytes_sent: outcome.bytes_sent,
            missing_coordinates: outcome.missing_coordinates,
            link_stats: outcome.link_stats,
        })
    }
}

/// A reliable, in-order transport modelling TCP/gRPC.
///
/// Every byte is delivered. The cost of reliability under loss follows the
/// classic Mathis bound: the achievable throughput of a long-lived TCP flow
/// is `MSS / (RTT · √(2p/3))`, so a 10 % loss rate collapses throughput by
/// orders of magnitude — which is exactly the behaviour the paper observes
/// ("TCP reducing (halving) its transmission rate following packet losses").
/// Lost bytes are also retransmitted (`/(1 − p)`).
#[derive(Debug, Clone)]
pub struct ReliableTransport {
    link: LinkConfig,
    codec: GradientCodec,
    /// Round-trip time used by the congestion model.
    rtt_sec: f64,
    /// Membership epoch stamped on sends (sender side).
    epoch: u32,
    /// Epoch fence applied on receipt (server side); `None` accepts any.
    expected_epoch: Option<u32>,
}

impl ReliableTransport {
    /// Creates a reliable transport over the given link.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidConfig`] when the link is invalid.
    pub fn new(link: LinkConfig, codec: GradientCodec) -> Result<Self> {
        link.validate()?;
        // Effective RTT floor of 1 ms: under the loss rates this model is
        // exercised with, queues build up and retransmission timers fire, so
        // the propagation latency alone undersells the recovery cost.
        Ok(ReliableTransport {
            link,
            codec,
            rtt_sec: (2.0 * link.latency_sec).max(1e-3),
            epoch: 0,
            expected_epoch: None,
        })
    }

    /// Effective throughput (bytes/sec) under the configured loss rate.
    pub fn effective_bandwidth(&self) -> f64 {
        let p = self.link.drop_rate;
        if p <= 0.0 {
            return self.link.bandwidth_bytes_per_sec;
        }
        // Mathis et al.: rate ≈ MSS / (RTT * sqrt(2p/3)).
        let mss = (self.codec.coords_per_packet() * 4) as f64;
        let congestion_limited = mss / (self.rtt_sec * (2.0 * p / 3.0).sqrt());
        congestion_limited.min(self.link.bandwidth_bytes_per_sec)
    }
}

impl Transport for ReliableTransport {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    fn set_expected_epoch(&mut self, epoch: Option<u32>) {
        self.expected_epoch = epoch;
    }

    /// Prices the send; the row is left as it is, because reliability means
    /// the receiver sees every byte the worker wrote.
    fn send_in_place(&mut self, _worker: u32, _step: u64, row: &mut [f32]) -> Result<RowTransfer> {
        // The cost model only needs the wire byte count, which is analytic —
        // no packets are materialised at all.
        let packet_count = self.codec.packet_count(row.len());
        let payload_bytes = self.codec.wire_bytes_total(row.len());
        let p = self.link.drop_rate;
        // Retransmissions inflate the bytes actually sent.
        let bytes_sent = (payload_bytes as f64 / (1.0 - p).max(1e-3)).ceil() as usize;
        let time_sec = bytes_sent as f64 / self.effective_bandwidth() + self.link.latency_sec;
        // Reliability gets the bytes through, but the membership fence still
        // rejects a sender stamping the wrong epoch: the wire cost was paid
        // (the sender did not know), the row does not count.
        let fenced = self.expected_epoch.is_some_and(|expected| self.epoch != expected);
        Ok(RowTransfer {
            delivered: !fenced,
            time_sec,
            bytes_sent,
            missing_coordinates: if fenced { row.len() } else { 0 },
            stale_epoch_rejects: if fenced { packet_count } else { 0 },
            corrupt_rejects: 0,
            retransmits: 0,
            retransmit_exhausted: false,
            link_stats: LinkStats {
                sent: packet_count,
                delivered: packet_count,
                ..Default::default()
            },
        })
    }
}

/// The lossy UDP-like transport (the paper's `lossyMPI`).
///
/// Packets travel at full link speed with no retransmission of gradient
/// payload; whatever is lost is handled by the configured [`LossPolicy`].
/// A send streams its packets: the link and the chaos plan first draw the
/// send's fate over packet ids, then the packets that arrive are encoded
/// from the row a run of [`CRC_LANES`] at a time into a few-packet scratch
/// the transport owns, damaged as drawn, and fed to the [`RoundAssembler`],
/// which scatters them straight into the caller's arena row. No buffer of
/// the whole encoded row exists, and a dropped packet is never encoded.
/// Optional [`ChaosPlan`] damage and bounded [`RetransmitConfig`] recovery
/// are parameters of the same send.
#[derive(Debug)]
pub struct LossyTransport {
    link: LossyLink,
    link_config: LinkConfig,
    codec: GradientCodec,
    policy: LossPolicy,
    /// Reused across rounds; re-created only if the gradient dimension
    /// changes mid-stream (which real deployments never do).
    assembler: Option<RoundAssembler>,
    /// Membership epoch stamped into every packet header (sender side).
    epoch: u32,
    /// Epoch fence applied by the receiving assembler; `None` accepts any.
    expected_epoch: Option<u32>,
    /// Wire-fault injection; `None` leaves the wire clean (beyond the
    /// link's whole-packet loss model).
    chaos: Option<ChaosPlan>,
    /// Bounded NACK/retransmit recovery; `None` sends once and moves on.
    retransmit: Option<RetransmitConfig>,
    /// The link's stream id, reused as the chaos stream so a replay of the
    /// same `(seed, stream, step, attempt)` damages the same packets.
    stream: u64,
    /// The current transmission's arrivals, reused across sends.
    arrivals: Vec<Arrival>,
    /// Room for one run of [`CRC_LANES`] encoded packets, reused across
    /// sends.
    scratch: Vec<u8>,
}

/// One packet of a lossy send as the wire delivers it: its id, its length
/// on the wire, and what the chaos plan did to it. The packet's bytes exist
/// only once it arrives, encoded from the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Arrival {
    seq: u32,
    len: u32,
    damage: Damage,
}

/// The damage a [`ChaosPlan`] does to one arriving packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Damage {
    Intact,
    /// One bit flipped, counted from the packet's first byte.
    FlippedBit(u32),
    /// Cut to its first this many bytes.
    TruncatedTo(u32),
}

impl Arrival {
    /// Packet `seq` of a `d`-coordinate gradient, undamaged.
    fn intact(codec: &GradientCodec, d: usize, seq: usize) -> Self {
        let len = codec.packet_len(d, seq) as u32;
        Arrival { seq: seq as u32, len, damage: Damage::Intact }
    }
}

impl Damageable for Arrival {
    fn wire_len(&self) -> usize {
        self.len as usize
    }

    fn flipped(&self, bit: usize) -> Self {
        debug_assert_eq!(self.damage, Damage::Intact, "a packet takes one fault at most");
        Arrival { damage: Damage::FlippedBit(bit as u32), ..*self }
    }

    fn truncated(&self, keep: usize) -> Self {
        debug_assert_eq!(self.damage, Damage::Intact, "a packet takes one fault at most");
        Arrival { damage: Damage::TruncatedTo(keep as u32), ..*self }
    }
}

/// Encodes the packets of `arrivals` from `row`, a run of [`CRC_LANES`] at a
/// time, into `scratch`, realises each one's damage on its sealed bytes, and
/// feeds the run to `assembler`, in arrival order.
fn feed_arrivals(
    codec: &GradientCodec,
    stamp: PacketStamp,
    arrivals: &[Arrival],
    scratch: &mut [u8],
    assembler: &mut RoundAssembler,
    row: &mut [f32],
) -> Result<()> {
    for run in arrivals.chunks(CRC_LANES) {
        let mut seqs = [0usize; CRC_LANES];
        for (seq, arrival) in seqs.iter_mut().zip(run) {
            *seq = arrival.seq as usize;
        }
        let mut ranges = codec.encode_run(stamp, row, &seqs[..run.len()], scratch);
        for (range, arrival) in ranges.iter_mut().zip(run) {
            match arrival.damage {
                Damage::Intact => {}
                Damage::FlippedBit(bit) => {
                    scratch[range.start + bit as usize / 8] ^= 1 << (bit % 8);
                }
                Damage::TruncatedTo(keep) => range.end = range.start + keep as usize,
            }
        }
        let lanes = ranges.map(|range| &scratch[range]);
        assembler.feed_run(&lanes[..run.len()], row)?;
    }
    Ok(())
}

impl LossyTransport {
    /// Creates a lossy transport over the given link.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidConfig`] when the link is invalid.
    pub fn new(
        link: LinkConfig,
        codec: GradientCodec,
        policy: LossPolicy,
        seed: u64,
        stream: u64,
    ) -> Result<Self> {
        Ok(LossyTransport {
            link: LossyLink::new(link, seed, stream)?,
            link_config: link,
            codec,
            policy,
            assembler: None,
            epoch: 0,
            expected_epoch: None,
            chaos: None,
            retransmit: None,
            stream,
            arrivals: Vec::new(),
            scratch: vec![0; CRC_LANES * (HEADER_BYTES + 4 * codec.coords_per_packet())],
        })
    }

    /// Builds the reassembly state for gradients of `dimension` now instead
    /// of at the first transfer. Transfers run on whichever thread a
    /// parallel round hands the link to, so a lazily built buffer lands in
    /// that thread's allocator arena and the process's memory layout (and
    /// peak RSS) would follow the first round's schedule; a link built with
    /// its dimension keeps its long-lived buffers (the assembler's bitsets
    /// and room for one send's arrivals) on the building thread.
    pub fn with_dimension(mut self, dimension: usize) -> Self {
        self.assembler = Some(RoundAssembler::new(dimension));
        self.arrivals.reserve(self.codec.packet_count(dimension));
        self
    }

    /// The configured loss policy.
    pub fn policy(&self) -> LossPolicy {
        self.policy
    }

    /// Deterministic pseudo-random fill for lost coordinates (the
    /// [`LossPolicy::RandomFill`] policy).
    fn random_fill(index: usize) -> f32 {
        let mut z = (index as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ((z >> 41) as f32 / (1u64 << 23) as f32) * 2.0 - 1.0
    }

    /// Applies the configured loss policy to an assembled row and decides
    /// whether the gradient counts as delivered. Under `RandomFill` the gaps
    /// already hold their fill (the assembler wrote it during its gap walk),
    /// so only the `non_finite_payload` coordinates the packets themselves
    /// carried are left, and the row is scanned only when there are any.
    fn apply_policy(
        policy: LossPolicy,
        missing: usize,
        non_finite_payload: usize,
        dst: &mut [f32],
    ) -> bool {
        match policy {
            LossPolicy::DropGradient => missing == 0,
            LossPolicy::SelectiveNan => true,
            LossPolicy::RandomFill => {
                if non_finite_payload > 0 {
                    for (i, v) in dst.iter_mut().enumerate() {
                        if !v.is_finite() {
                            *v = Self::random_fill(i);
                        }
                    }
                }
                true
            }
        }
    }
}

impl Transport for LossyTransport {
    fn name(&self) -> &'static str {
        "lossy-udp"
    }

    fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    fn set_expected_epoch(&mut self, epoch: Option<u32>) {
        self.expected_epoch = epoch;
    }

    fn set_chaos(&mut self, chaos: Option<ChaosPlan>) {
        self.chaos = chaos;
    }

    fn set_retransmit(&mut self, config: Option<RetransmitConfig>) {
        self.retransmit = config;
    }

    /// One send, then — only with recovery configured — bounded
    /// NACK/retransmit rounds under exponential backoff and the per-round
    /// deadline. An unset chaos plan draws no fault and an unset retransmit
    /// config never retries: the plain lossy transfer is this body with both
    /// left at `None`.
    ///
    /// Each transmission draws its fate first: the link's arrivals over
    /// packet ids, then the chaos plan's damage over those arrivals. Only
    /// then are the arriving packets encoded from the row, a run at a time,
    /// and fed to the assembler; the bytes put on the wire are arithmetic.
    fn send_in_place(&mut self, worker: u32, step: u64, row: &mut [f32]) -> Result<RowTransfer> {
        let LossyTransport {
            link,
            link_config,
            codec,
            policy,
            assembler,
            epoch,
            expected_epoch,
            chaos,
            retransmit,
            stream,
            arrivals,
            scratch,
        } = self;
        let dimension = row.len();
        let total = codec.packet_count(dimension);
        let stamp = PacketStamp { worker, step, epoch: *epoch };
        let assembler = match assembler {
            Some(a) if a.dimension() == dimension => a,
            slot => slot.insert(RoundAssembler::new(dimension)),
        };
        assembler.set_expected_epoch(*expected_epoch);
        assembler.begin_round();
        let packet = |seq| Arrival::intact(codec, dimension, seq);
        let mut bytes_sent = codec.wire_bytes_total(dimension);
        let mut link_stats = link.transmit((0..total).map(packet), arrivals);
        let mut chaos_delay = 0.0f64;
        if let Some(plan) = chaos {
            chaos_delay += plan.damage(step, *stream, 0, arrivals).delay_sec;
        }
        feed_arrivals(codec, stamp, arrivals, scratch, assembler, row)?;
        // UDP pays no congestion penalty: time is bytes / bandwidth + latency,
        // independent of the drop rate (only a tiny metadata retransmission
        // overhead is charged per lost packet).
        let metadata_overhead = link_stats.dropped * HEADER_BYTES;
        let mut time_sec = link_config.transfer_time(bytes_sent + metadata_overhead) + chaos_delay;
        let mut retransmits = 0usize;
        if let Some(config) = *retransmit {
            let mut backoff = config.initial_backoff_sec;
            // A fenced round never retries: every packet shares the stale
            // epoch stamp, so re-sending it can only be fenced again.
            while retransmits < config.max_retries as usize
                && !assembler.is_complete()
                && assembler.stale_rejects() == 0
                && time_sec + backoff <= config.round_deadline_sec
            {
                // The NACK names exactly the packet ids the assembler has
                // not accepted, and the sender encodes those packets again
                // from the row. That needs no stored packets: the assembler
                // writes only accepted packets, whose payload bits are the
                // row's own (a flipped or truncated packet fails the CRC),
                // and the gap fill runs only in `finish_round` after this
                // loop, so until then every coordinate of the row still holds
                // the sender's bits. Each retry pays its backoff, its wire
                // time, and a fresh fault draw on the chaos plan's `attempt`
                // axis.
                let nacked = |seq: &usize| !assembler.sequence_seen(*seq);
                let resend_bytes: usize =
                    (0..total).filter(nacked).map(|seq| codec.packet_len(dimension, seq)).sum();
                retransmits += 1;
                time_sec += backoff;
                backoff *= config.backoff_factor;
                bytes_sent += resend_bytes;
                let retry_stats = link.transmit((0..total).filter(nacked).map(packet), arrivals);
                if let Some(plan) = chaos {
                    time_sec += plan.damage(step, *stream, retransmits as u32, arrivals).delay_sec;
                }
                link_stats.sent += retry_stats.sent;
                link_stats.delivered += retry_stats.delivered;
                link_stats.dropped += retry_stats.dropped;
                link_stats.duplicated += retry_stats.duplicated;
                link_stats.reordered += retry_stats.reordered;
                time_sec +=
                    link_config.transfer_time(resend_bytes + retry_stats.dropped * HEADER_BYTES);
                feed_arrivals(codec, stamp, arrivals, scratch, assembler, row)?;
            }
        }
        let stale_epoch_rejects = assembler.stale_rejects();
        // Every packet of a gradient shares one epoch stamp, so any fenced
        // packet means the whole gradient was fenced: nothing of it may reach
        // aggregation, and the loss policy must not manufacture a row out of
        // the NaN fill. A fenced round never retried either, so its budget
        // was not exhausted — the fence, not the wire, stopped the row.
        let fenced = stale_epoch_rejects > 0;
        let missing = if *policy == LossPolicy::RandomFill && !fenced {
            assembler.finish_round_with(row, Self::random_fill)?
        } else {
            assembler.finish_round(row)?
        };
        let non_finite_payload = assembler.non_finite_written();
        Ok(RowTransfer {
            delivered: !fenced && Self::apply_policy(*policy, missing, non_finite_payload, row),
            time_sec,
            bytes_sent,
            missing_coordinates: missing,
            stale_epoch_rejects,
            corrupt_rejects: assembler.corrupt_rejects(),
            retransmits,
            // The recovery protocol was on and the row still ended
            // incomplete: the retry budget / round deadline ran out with
            // coordinates missing.
            retransmit_exhausted: !fenced && retransmit.is_some() && missing > 0,
            link_stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient(d: usize) -> Vector {
        Vector::from_iter((0..d).map(|i| (i as f32).sin()))
    }

    #[test]
    fn reliable_transport_always_delivers_everything() {
        let mut t = ReliableTransport::new(
            LinkConfig::datacenter().with_drop_rate(0.1),
            GradientCodec::new(16).unwrap(),
        )
        .unwrap();
        let g = gradient(100);
        let out = t.transfer(0, 0, &g).unwrap();
        assert_eq!(out.gradient.as_ref().unwrap(), &g);
        assert_eq!(out.missing_coordinates, 0);
        assert!(out.bytes_sent > 400);
    }

    #[test]
    fn loss_collapses_reliable_throughput_but_not_lossy() {
        let clean = LinkConfig::datacenter();
        let lossy_link = clean.with_drop_rate(0.10);
        let codec = GradientCodec::default_mtu();
        let g = gradient(100_000);

        let mut tcp_clean = ReliableTransport::new(clean, codec).unwrap();
        let mut tcp_lossy = ReliableTransport::new(lossy_link, codec).unwrap();
        let t_clean = tcp_clean.transfer(0, 0, &g).unwrap().time_sec;
        let t_lossy = tcp_lossy.transfer(0, 0, &g).unwrap().time_sec;
        assert!(
            t_lossy > 5.0 * t_clean,
            "10% loss should slow TCP by a large factor: {t_clean} vs {t_lossy}"
        );

        let mut udp = LossyTransport::new(lossy_link, codec, LossPolicy::RandomFill, 1, 0).unwrap();
        let t_udp = udp.transfer(0, 0, &g).unwrap().time_sec;
        assert!(
            t_udp < t_lossy / 5.0,
            "lossy transport should be much faster than TCP under loss: {t_udp} vs {t_lossy}"
        );
    }

    #[test]
    fn drop_gradient_policy_drops_incomplete_gradients() {
        let link = LinkConfig::datacenter().with_drop_rate(0.5);
        let codec = GradientCodec::new(10).unwrap();
        let mut t = LossyTransport::new(link, codec, LossPolicy::DropGradient, 3, 0).unwrap();
        let g = gradient(1000);
        let out = t.transfer(0, 0, &g).unwrap();
        assert!(
            out.gradient.is_none(),
            "with 50% loss the gradient is practically always incomplete"
        );
        assert!(out.missing_coordinates > 0);
    }

    #[test]
    fn selective_policy_exposes_nan_random_fill_hides_them() {
        let link = LinkConfig::datacenter().with_drop_rate(0.3);
        let codec = GradientCodec::new(10).unwrap();
        let g = gradient(1000);

        let mut selective =
            LossyTransport::new(link, codec, LossPolicy::SelectiveNan, 5, 0).unwrap();
        let out = selective.transfer(0, 0, &g).unwrap();
        let received = out.gradient.unwrap();
        assert!(out.missing_coordinates > 0);
        assert_eq!(received.count_non_finite(), out.missing_coordinates);

        let mut filled = LossyTransport::new(link, codec, LossPolicy::RandomFill, 5, 0).unwrap();
        let out = filled.transfer(0, 0, &g).unwrap();
        let received = out.gradient.unwrap();
        assert!(out.missing_coordinates > 0);
        assert!(received.is_finite());
    }

    #[test]
    fn zero_loss_lossy_transport_is_lossless() {
        let mut t = LossyTransport::new(
            LinkConfig::datacenter(),
            GradientCodec::new(16).unwrap(),
            LossPolicy::SelectiveNan,
            7,
            0,
        )
        .unwrap();
        let g = gradient(200);
        let out = t.transfer(0, 0, &g).unwrap();
        assert_eq!(out.gradient.unwrap(), g);
        assert_eq!(out.missing_coordinates, 0);
    }

    #[test]
    fn epoch_fence_rejects_stale_senders_on_both_transports() {
        let link = LinkConfig::datacenter();
        let g = gradient(100);
        let transports: [Box<dyn Transport>; 2] = [
            Box::new(ReliableTransport::new(link, GradientCodec::default_mtu()).unwrap()),
            Box::new(
                LossyTransport::new(
                    link,
                    GradientCodec::default_mtu(),
                    LossPolicy::RandomFill,
                    2,
                    0,
                )
                .unwrap(),
            ),
        ];
        for mut t in transports {
            let name = t.name();
            t.set_epoch(1);
            t.set_expected_epoch(Some(2));
            let mut row = vec![9.0f32; 100];
            let out = t.transfer_into(0, 0, g.as_slice(), &mut row).unwrap();
            assert!(!out.delivered, "{name}: a stale-epoch gradient must be fenced");
            assert!(out.stale_epoch_rejects > 0, "{name}: rejects must be counted");
            assert!(out.bytes_sent > 0, "{name}: the wire cost was still paid");

            // Syncing the sender to the expected epoch restores delivery.
            t.set_epoch(2);
            let out = t.transfer_into(0, 0, g.as_slice(), &mut row).unwrap();
            assert!(out.delivered, "{name}: current-epoch send must deliver");
            assert_eq!(out.stale_epoch_rejects, 0);
            assert_eq!(row, g.as_slice());
        }
    }

    #[test]
    fn retransmit_config_validation() {
        assert!(RetransmitConfig::default().validate().is_ok());
        assert!(RetransmitConfig { backoff_factor: 0.5, ..Default::default() }.validate().is_err());
        assert!(RetransmitConfig { initial_backoff_sec: -1.0, ..Default::default() }
            .validate()
            .is_err());
        assert!(RetransmitConfig { round_deadline_sec: 0.0, ..Default::default() }
            .validate()
            .is_err());
    }

    #[test]
    fn retransmit_recovers_all_losses_within_budget() {
        let link = LinkConfig::datacenter().with_drop_rate(0.3);
        let codec = GradientCodec::new(10).unwrap();
        let mut t = LossyTransport::new(link, codec, LossPolicy::DropGradient, 3, 0).unwrap();
        t.set_retransmit(Some(RetransmitConfig {
            max_retries: 16,
            round_deadline_sec: 10.0,
            ..Default::default()
        }));
        let g = gradient(1000);
        let mut recovered = 0usize;
        for step in 0..10u64 {
            let mut row = vec![0.0f32; 1000];
            let out = t.transfer_into(0, step, g.as_slice(), &mut row).unwrap();
            assert!(out.delivered, "step {step}: a generous retry budget must complete the row");
            assert_eq!(out.missing_coordinates, 0);
            assert!(!out.retransmit_exhausted, "a completed row never exhausted its budget");
            assert_eq!(row, g.as_slice());
            recovered += out.retransmits;
        }
        assert!(recovered > 0, "30% loss must trigger retransmissions");
    }

    #[test]
    fn chaos_damage_is_rejected_counted_and_recovered() {
        let link = LinkConfig::datacenter();
        let codec = GradientCodec::new(10).unwrap();
        let mut t = LossyTransport::new(link, codec, LossPolicy::DropGradient, 9, 1).unwrap();
        t.set_chaos(Some(ChaosPlan::new(crate::ChaosConfig::moderate(), 77).unwrap()));
        t.set_retransmit(Some(RetransmitConfig {
            max_retries: 16,
            round_deadline_sec: 10.0,
            ..Default::default()
        }));
        let g = gradient(800);
        let mut corrupt = 0usize;
        for step in 0..20u64 {
            let mut row = vec![0.0f32; 800];
            let out = t.transfer_into(0, step, g.as_slice(), &mut row).unwrap();
            corrupt += out.corrupt_rejects;
            assert!(out.delivered, "step {step}: retries must outlast moderate chaos");
            assert_eq!(row, g.as_slice(), "step {step}: recovery must be bit-exact");
        }
        assert!(corrupt > 0, "moderate chaos must corrupt some packets over 20 rounds");
    }

    #[test]
    fn deadline_exhaustion_degrades_like_a_transport_loss() {
        // A fully partitioned wire: no retry can ever complete the row. The
        // transfer must exhaust its budget gracefully — no panic, the loss
        // policy decides, and the retry count respects the bound.
        let link = LinkConfig::datacenter().with_drop_rate(1.0);
        let codec = GradientCodec::new(10).unwrap();
        let mut t = LossyTransport::new(link, codec, LossPolicy::DropGradient, 5, 0).unwrap();
        let retrans = RetransmitConfig { max_retries: 3, ..Default::default() };
        t.set_retransmit(Some(retrans));
        let g = gradient(500);
        let mut row = vec![0.0f32; 500];
        let out = t.transfer_into(0, 0, g.as_slice(), &mut row).unwrap();
        assert!(!out.delivered);
        assert_eq!(out.missing_coordinates, 500);
        assert!(out.retransmits <= 3);
        assert!(out.retransmits > 0, "the budget should at least be attempted");
        assert!(
            out.retransmit_exhausted,
            "an incomplete row with recovery enabled is a budget exhaustion, not a plain loss"
        );
        assert!(out.time_sec <= retrans.round_deadline_sec + 1.0);

        // The same partitioned wire without recovery is a plain loss: the
        // exhaustion marker stays clear so the ledger can tell them apart.
        let mut plain = LossyTransport::new(link, codec, LossPolicy::DropGradient, 5, 0).unwrap();
        let mut row = vec![0.0f32; 500];
        let out = plain.transfer_into(0, 0, g.as_slice(), &mut row).unwrap();
        assert!(!out.delivered);
        assert!(!out.retransmit_exhausted, "no recovery protocol, no exhaustion");
    }

    #[test]
    fn unconfigured_lossy_transfer_matches_the_captured_row_transfers() {
        // Every field of `RowTransfer`, and a CRC of the row's bytes, for a
        // `LossyTransport` with neither chaos nor retransmit configured —
        // values captured at ee85c5f, where that configuration ran a
        // transfer body of its own. The gradient is exactly representable
        // (multiples of 1/256), because `f32::sin` returns different bits in
        // debug and release builds; the row CRCs were re-captured for it at
        // 037baaa, identically in both profiles.
        let clean = LinkConfig::datacenter();
        let dirty =
            LinkConfig { drop_rate: 0.10, duplicate_rate: 0.05, reorder_rate: 0.05, ..clean };
        let g: Vec<f32> = (0..1029).map(|i| ((i * 37 % 1024) as f32 - 512.0) / 256.0).collect();
        let clean_stats = LinkStats { sent: 65, delivered: 65, ..Default::default() };
        let dirty_stats =
            LinkStats { sent: 65, delivered: 61, dropped: 6, duplicated: 2, reordered: 5 };
        // (link, fenced, policy) -> (delivered, time bits, missing, stale, stats, row crc)
        use LossPolicy::{DropGradient, RandomFill, SelectiveNan};
        let clean_pin = (true, 0x3f1b9f72eb67bf18u64, 0, 0, clean_stats, 0xb3cfee88u32);
        let dirty_time = 0x3f1bac557455dc39u64;
        let fenced_pin = (false, dirty_time, 1029, 61, dirty_stats, 0xc06530c2u32);
        for (link, fenced, policy, pin) in [
            (clean, false, DropGradient, clean_pin),
            (clean, false, SelectiveNan, clean_pin),
            (clean, false, RandomFill, clean_pin),
            (dirty, false, DropGradient, (false, dirty_time, 96, 0, dirty_stats, 0xad3c7be9)),
            (dirty, false, SelectiveNan, (true, dirty_time, 96, 0, dirty_stats, 0xad3c7be9)),
            (dirty, false, RandomFill, (true, dirty_time, 96, 0, dirty_stats, 0xb1a1f067)),
            (dirty, true, DropGradient, fenced_pin),
            (dirty, true, SelectiveNan, fenced_pin),
            (dirty, true, RandomFill, fenced_pin),
        ] {
            // A link sized at construction transfers exactly like one that
            // sizes its assembler at the first transfer, and a row sent in
            // place ends exactly like one transferred into a zeroed row.
            for (sized, in_place) in [(false, false), (true, false), (false, true), (true, true)] {
                let codec = GradientCodec::new(16).unwrap();
                let mut t = LossyTransport::new(link, codec, policy, 42, 7).unwrap();
                if sized {
                    t = t.with_dimension(g.len());
                }
                if fenced {
                    t.set_epoch(1);
                    t.set_expected_epoch(Some(2));
                }
                let (row, out) = if in_place {
                    let mut row = g.clone();
                    let out = t.send_in_place(3, 5, &mut row).unwrap();
                    (row, out)
                } else {
                    let mut row = vec![0.0f32; g.len()];
                    let out = t.transfer_into(3, 5, &g, &mut row).unwrap();
                    (row, out)
                };
                let (delivered, time_bits, missing, stale, link_stats, row_crc) = pin;
                let expected = RowTransfer {
                    delivered,
                    time_sec: f64::from_bits(time_bits),
                    bytes_sent: 6716,
                    missing_coordinates: missing,
                    stale_epoch_rejects: stale,
                    corrupt_rejects: 0,
                    retransmits: 0,
                    retransmit_exhausted: false,
                    link_stats,
                };
                let case = format!(
                    "drop {} fenced {fenced} {policy:?} sized {sized} in place {in_place}",
                    link.drop_rate
                );
                assert_eq!(out, expected, "{case}");
                let bytes: Vec<u8> = row.iter().flat_map(|v| v.to_le_bytes()).collect();
                assert_eq!(crate::crc32(&bytes), row_crc, "row of {case}");
            }
        }
    }

    /// A CRC of every `RowTransfer` field, for pinning a run of transfers.
    fn transfer_crc(out: &RowTransfer) -> u32 {
        let s = out.link_stats;
        let fields = [
            u64::from(out.delivered),
            out.time_sec.to_bits(),
            out.bytes_sent as u64,
            out.missing_coordinates as u64,
            out.stale_epoch_rejects as u64,
            out.corrupt_rejects as u64,
            out.retransmits as u64,
            u64::from(out.retransmit_exhausted),
            s.sent as u64,
            s.delivered as u64,
            s.dropped as u64,
            s.duplicated as u64,
            s.reordered as u64,
        ];
        let bytes: Vec<u8> = fields.iter().flat_map(|v| v.to_le_bytes()).collect();
        crate::crc32(&bytes)
    }

    #[test]
    fn reliable_and_recovering_transfers_match_the_captured_row_transfers() {
        // Three steps on one transport (so the link, chaos and retransmit
        // draws advance), each pinned as (CRC of every `RowTransfer` field,
        // CRC of the row's bytes), values captured at a6607ce, where
        // `ReliableTransport` had a copying transfer body of its own. Each
        // case runs through both entries: a transfer into a row of NaN, and
        // a send in place from the row the gradient was written to.
        let clean = LinkConfig::datacenter();
        let dirty =
            LinkConfig { drop_rate: 0.10, duplicate_rate: 0.05, reorder_rate: 0.05, ..clean };
        let g: Vec<f32> = (0..1029).map(|i| ((i * 37 % 1024) as f32 - 512.0) / 256.0).collect();
        let codec = GradientCodec::new(16).unwrap();
        let build = |case: &str| -> Box<dyn Transport> {
            let policy = match case {
                "reliable clean" => return Box::new(ReliableTransport::new(clean, codec).unwrap()),
                "reliable dirty" => return Box::new(ReliableTransport::new(dirty, codec).unwrap()),
                "reliable fenced" => {
                    let mut t = ReliableTransport::new(dirty, codec).unwrap();
                    t.set_epoch(1);
                    t.set_expected_epoch(Some(2));
                    return Box::new(t);
                }
                "recovering drop" => LossPolicy::DropGradient,
                "recovering nan" => LossPolicy::SelectiveNan,
                _ => LossPolicy::RandomFill,
            };
            // One retry: some rows complete, some exhaust the budget.
            let mut t = LossyTransport::new(dirty, codec, policy, 42, 7).unwrap();
            t.set_chaos(Some(ChaosPlan::new(crate::ChaosConfig::moderate(), 9).unwrap()));
            t.set_retransmit(Some(RetransmitConfig { max_retries: 1, ..Default::default() }));
            Box::new(t)
        };
        // The gradient's own bytes: what a delivered, complete row holds.
        let sent = 0xb3cfee88;
        let cases = [
            ("reliable clean", [(0xf04fea7e, sent); 3]),
            ("reliable dirty", [(0x4c87c23f, sent); 3]),
            // Fenced, so not delivered, and nothing reads the row: it keeps
            // the gradient as sent, where a6607ce left it as it was.
            ("reliable fenced", [(0x098f6cec, sent); 3]),
            (
                "recovering drop",
                [(0x043d5845, 0x3852c782), (0xaf7e3d23, sent), (0x83ac5cf7, 0x1e13aa9e)],
            ),
            (
                "recovering nan",
                [(0x43e6db52, 0x3852c782), (0xaf7e3d23, sent), (0xc477dfe0, 0x1e13aa9e)],
            ),
            (
                "recovering fill",
                [(0x43e6db52, 0x096c7362), (0xaf7e3d23, sent), (0xc477dfe0, 0x3777257c)],
            ),
        ];
        for (name, pins) in cases {
            for in_place in [false, true] {
                let mut t = build(name);
                for (step, (transfer_pin, row_pin)) in (0..).zip(pins) {
                    let mut row = vec![f32::NAN; g.len()];
                    let out = if in_place {
                        row.copy_from_slice(&g);
                        t.send_in_place(3, step, &mut row).unwrap()
                    } else {
                        t.transfer_into(3, step, &g, &mut row).unwrap()
                    };
                    let case = format!("{name} step {step} in place {in_place}: {out:?}");
                    assert_eq!(transfer_crc(&out), transfer_pin, "{case}");
                    let bytes: Vec<u8> = row.iter().flat_map(|v| v.to_le_bytes()).collect();
                    assert_eq!(crate::crc32(&bytes), row_pin, "row of {case}");
                }
            }
        }
        let err =
            build("reliable clean").transfer_into(0, 0, &[1.0; 4], &mut [0.0; 3]).unwrap_err();
        assert!(matches!(err, NetError::InvalidConfig(_)), "{err:?}");
    }

    /// The lossy send as it ran before it streamed its packets, over the
    /// public wrappers: the whole row split into one buffer, the packets
    /// pushed through the link and damaged as `Bytes`, and every retry
    /// re-sending the stored packets. The oracle the streamed send is held
    /// to, bit for bit.
    struct SplitSend {
        link: LossyLink,
        link_config: LinkConfig,
        codec: GradientCodec,
        policy: LossPolicy,
        chaos: Option<ChaosPlan>,
        retransmit: Option<RetransmitConfig>,
        stream: u64,
        epochs: (u32, Option<u32>),
    }

    impl SplitSend {
        fn send(&mut self, worker: u32, step: u64, row: &mut [f32]) -> RowTransfer {
            let packets = self.codec.split_bytes_epoch(worker, step, self.epochs.0, row);
            let mut bytes_sent: usize = packets.iter().map(|p| p.len()).sum();
            let (mut delivered, mut link_stats) = self.link.transmit_bytes(&packets);
            let mut chaos_delay = 0.0f64;
            if let Some(plan) = &self.chaos {
                chaos_delay += plan.apply(step, self.stream, 0, &mut delivered).delay_sec;
            }
            let mut assembler = RoundAssembler::new(row.len());
            assembler.set_expected_epoch(self.epochs.1);
            assembler.begin_round();
            assembler.feed_all(&delivered, row).unwrap();
            let overhead = link_stats.dropped * HEADER_BYTES;
            let mut time_sec = self.link_config.transfer_time(bytes_sent + overhead) + chaos_delay;
            let mut retransmits = 0usize;
            if let Some(config) = self.retransmit {
                let mut backoff = config.initial_backoff_sec;
                while retransmits < config.max_retries as usize
                    && !assembler.is_complete()
                    && assembler.stale_rejects() == 0
                    && time_sec + backoff <= config.round_deadline_sec
                {
                    let resend: Vec<_> = (0..packets.len())
                        .filter(|&s| !assembler.sequence_seen(s))
                        .map(|s| packets[s].clone())
                        .collect();
                    retransmits += 1;
                    time_sec += backoff;
                    backoff *= config.backoff_factor;
                    let resend_bytes: usize = resend.iter().map(|p| p.len()).sum();
                    bytes_sent += resend_bytes;
                    let (mut redelivered, retry) = self.link.transmit_bytes(&resend);
                    if let Some(plan) = &self.chaos {
                        let attempt = retransmits as u32;
                        time_sec +=
                            plan.apply(step, self.stream, attempt, &mut redelivered).delay_sec;
                    }
                    link_stats.sent += retry.sent;
                    link_stats.delivered += retry.delivered;
                    link_stats.dropped += retry.dropped;
                    link_stats.duplicated += retry.duplicated;
                    link_stats.reordered += retry.reordered;
                    time_sec +=
                        self.link_config.transfer_time(resend_bytes + retry.dropped * HEADER_BYTES);
                    assembler.feed_all(&redelivered, row).unwrap();
                }
            }
            let stale_epoch_rejects = assembler.stale_rejects();
            let fenced = stale_epoch_rejects > 0;
            let missing = if self.policy == LossPolicy::RandomFill && !fenced {
                assembler.finish_round_with(row, LossyTransport::random_fill).unwrap()
            } else {
                assembler.finish_round(row).unwrap()
            };
            let non_finite = assembler.non_finite_written();
            RowTransfer {
                delivered: !fenced
                    && LossyTransport::apply_policy(self.policy, missing, non_finite, row),
                time_sec,
                bytes_sent,
                missing_coordinates: missing,
                stale_epoch_rejects,
                corrupt_rejects: assembler.corrupt_rejects(),
                retransmits,
                retransmit_exhausted: !fenced && self.retransmit.is_some() && missing > 0,
                link_stats,
            }
        }
    }

    #[test]
    fn streamed_sends_equal_the_split_sends_they_replace() {
        // Every wire shape the engine builds and harsher ones: clean, lossy
        // and very lossy links; no chaos, moderate chaos in both modes and a
        // heavy mix; no recovery, the default and a deep retry budget; a
        // fenced sender; rows of 0, 5 and 1 029 coordinates with NaN and ±∞
        // in them. Each case runs eight steps on one transport, so the link
        // and chaos draws advance as they do in a run.
        let heavy = crate::ChaosConfig {
            bit_flip_rate: 0.2,
            truncate_rate: 0.2,
            mutate_duplicate_rate: 0.2,
            reorder_burst_rate: 0.5,
            partition_rate: 0.1,
            ..crate::ChaosConfig::moderate()
        };
        let moderate = crate::ChaosConfig::moderate();
        let chaos_configs = [
            None,
            Some(moderate),
            Some(crate::ChaosConfig { mode: crate::ChaosMode::Drop, ..moderate }),
            Some(heavy),
        ];
        let deep =
            RetransmitConfig { max_retries: 6, round_deadline_sec: 1.0, ..Default::default() };
        let codec = GradientCodec::new(16).unwrap();
        let mut cases = 0;
        for d in [0usize, 5, 1029] {
            let g: Vec<f32> = (0..d)
                .map(|i| match i % 97 {
                    3 => f32::NAN,
                    50 => f32::NEG_INFINITY,
                    _ => ((i * 37 % 1024) as f32 - 512.0) / 256.0,
                })
                .collect();
            for drop_rate in [0.0, 0.1, 0.4] {
                let link = LinkConfig {
                    drop_rate,
                    duplicate_rate: 0.05,
                    reorder_rate: 0.1,
                    ..LinkConfig::datacenter()
                };
                for chaos in chaos_configs {
                    for retransmit in [None, Some(RetransmitConfig::default()), Some(deep)] {
                        for (policy, epochs) in [
                            (LossPolicy::RandomFill, (0, None)),
                            (LossPolicy::DropGradient, (2, Some(2))),
                            (LossPolicy::SelectiveNan, (1, Some(2))),
                        ] {
                            let plan = chaos.map(|c| ChaosPlan::new(c, 5).unwrap());
                            let mut streamed =
                                LossyTransport::new(link, codec, policy, 17, 4).unwrap();
                            streamed.set_chaos(plan.clone());
                            streamed.set_retransmit(retransmit);
                            streamed.set_epoch(epochs.0);
                            streamed.set_expected_epoch(epochs.1);
                            let mut split = SplitSend {
                                link: LossyLink::new(link, 17, 4).unwrap(),
                                link_config: link,
                                codec,
                                policy,
                                chaos: plan,
                                retransmit,
                                stream: 4,
                                epochs,
                            };
                            for step in 0..8 {
                                let (mut a, mut b) = (g.clone(), g.clone());
                                let got = streamed.send_in_place(2, step, &mut a).unwrap();
                                let want = split.send(2, step, &mut b);
                                let case = format!(
                                    "d {d} drop {drop_rate} {chaos:?} {retransmit:?} {policy:?} \
                                     step {step}"
                                );
                                assert_eq!(got, want, "{case}");
                                let bits = |row: &[f32]| {
                                    row.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                                };
                                assert_eq!(bits(&a), bits(&b), "row of {case}");
                                cases += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 3 * 3 * 4 * 3 * 3 * 8);
    }

    #[test]
    fn chaos_retransmit_transfers_match_the_captured_row_transfers() {
        // Six steps on one transport per chaos mode, each pinned as (CRC of
        // every `RowTransfer` field, CRC of the row's bytes), values captured
        // before the lossy send streamed its packets, when every send split
        // the row into a buffer of its own. A 20 % drop rate under moderate
        // chaos and the default three retries: some rows need a second
        // retransmit, so some packet is NACKed twice.
        let link = LinkConfig {
            drop_rate: 0.20,
            duplicate_rate: 0.05,
            reorder_rate: 0.05,
            ..LinkConfig::datacenter()
        };
        let g: Vec<f32> = (0..1029).map(|i| ((i * 37 % 1024) as f32 - 512.0) / 256.0).collect();
        let codec = GradientCodec::new(16).unwrap();
        let (short_0, short_1, short_4, sent) = (0xdc1621e9, 0xaaf04960, 0xebde2f66, 0xb3cfee88);
        let corrupt = [
            (0x5fa5eeb9, short_0),
            (0x7ce76821, short_1),
            (0x9daf3f52, sent),
            (0x018c11c4, sent),
            (0xe713e2b6, short_4),
            (0x53d56b77, sent),
        ];
        // The same victims, removed instead of damaged: the same rows, and
        // the same fields but the corrupt rejects.
        let dropped = [
            (0xf1e60dba, short_0),
            (0x737daed9, short_1),
            (0x33ecdc51, sent),
            (0xa055343f, sent),
            (0xdad9f64b, short_4),
            (0x6185b972, sent),
        ];
        for (mode, pins) in
            [(crate::ChaosMode::Corrupt, corrupt), (crate::ChaosMode::Drop, dropped)]
        {
            let mut t = LossyTransport::new(link, codec, LossPolicy::SelectiveNan, 42, 7).unwrap();
            let plan = ChaosPlan::new(crate::ChaosConfig::moderate(), 9).unwrap().with_mode(mode);
            t.set_chaos(Some(plan));
            t.set_retransmit(Some(RetransmitConfig::default()));
            let mut nacked_twice = false;
            for (step, (transfer_pin, row_pin)) in (0..).zip(pins) {
                let mut row = g.clone();
                let out = t.send_in_place(3, step, &mut row).unwrap();
                nacked_twice |= out.retransmits >= 2;
                let case = format!("{mode:?} step {step}: {out:?}");
                assert_eq!(transfer_crc(&out), transfer_pin, "{case}");
                let bytes: Vec<u8> = row.iter().flat_map(|v| v.to_le_bytes()).collect();
                assert_eq!(crate::crc32(&bytes), row_pin, "row of {case}");
            }
            assert!(nacked_twice, "{mode:?}: no row needed a second retransmit");
        }
    }

    #[test]
    fn random_fill_replaces_delivered_non_finite_payloads_and_lost_packets() {
        // The gaps take their fill during the assembler's gap walk; NaN and
        // ±∞ that arrive *in* a payload are only found by the scan, which
        // runs because the decode counted them. Every finite coordinate is
        // ≥ 2, outside the fill's [-1, 1), so a filled coordinate can never
        // pass for a delivered one.
        let link = LinkConfig::datacenter().with_drop_rate(0.2);
        let codec = GradientCodec::new(16).unwrap();
        let mut t = LossyTransport::new(link, codec, LossPolicy::RandomFill, 11, 0).unwrap();
        let g: Vec<f32> = (0..400)
            .map(|i| match i % 7 {
                1 => f32::NAN,
                3 => f32::INFINITY,
                5 => f32::NEG_INFINITY,
                _ => 2.0 + i as f32,
            })
            .collect();
        let mut row = vec![0.0f32; g.len()];
        let out = t.transfer_into(0, 0, &g, &mut row).unwrap();
        assert!(out.delivered);
        let mut lost_packets = 0;
        for (p, (got, sent)) in row.chunks(16).zip(g.chunks(16)).enumerate() {
            // Every packet carries finite coordinates; a lost one has none
            // of them left.
            let lost = got.iter().zip(sent).any(|(a, b)| b.is_finite() && a != b);
            lost_packets += usize::from(lost);
            for (k, (a, b)) in got.iter().zip(sent).enumerate() {
                let i = 16 * p + k;
                let want = if lost || !b.is_finite() { LossyTransport::random_fill(i) } else { *b };
                assert_eq!(a.to_bits(), want.to_bits(), "coordinate {i}, packet lost: {lost}");
            }
        }
        assert!(lost_packets > 0, "the seed must lose a packet");
        assert_eq!(out.missing_coordinates, 16 * lost_packets);
    }

    #[test]
    fn fenced_round_never_retries() {
        let link = LinkConfig::datacenter();
        let codec = GradientCodec::new(16).unwrap();
        let mut t = LossyTransport::new(link, codec, LossPolicy::RandomFill, 6, 0).unwrap();
        t.set_retransmit(Some(RetransmitConfig::default()));
        t.set_epoch(1);
        t.set_expected_epoch(Some(2));
        let g = gradient(200);
        let mut row = vec![0.0f32; 200];
        let out = t.transfer_into(0, 0, g.as_slice(), &mut row).unwrap();
        assert!(!out.delivered);
        assert!(out.stale_epoch_rejects > 0);
        assert_eq!(out.retransmits, 0, "re-sending a stale epoch can only be fenced again");
    }

    #[test]
    fn effective_bandwidth_is_monotone_in_loss() {
        let codec = GradientCodec::default_mtu();
        let b0 =
            ReliableTransport::new(LinkConfig::datacenter(), codec).unwrap().effective_bandwidth();
        let b5 = ReliableTransport::new(LinkConfig::datacenter().with_drop_rate(0.05), codec)
            .unwrap()
            .effective_bandwidth();
        let b10 = ReliableTransport::new(LinkConfig::datacenter().with_drop_rate(0.10), codec)
            .unwrap()
            .effective_bandwidth();
        assert!(b0 > b5 && b5 > b10);
    }
}
