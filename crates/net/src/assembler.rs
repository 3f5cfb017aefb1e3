//! The receiving end of the wire: reassembly of whatever packets arrived,
//! straight into an arena row.
//!
//! The paper keeps UDP viable for gradient traffic by adding a small
//! **reliable metadata scheme** on top of the unreliable payload: every
//! packet carries worker id, step, sequence number, total packet count, and
//! the offset of its first coordinate (layout in [`crate::packet`]), so a
//! delivered packet always knows where its coordinates belong no matter how
//! the link dropped, duplicated or reordered the rest of the gradient.
//! [`RoundAssembler`] is the one place those packets are decoded:
//!
//! * payloads are **scattered directly into a caller-provided arena row**
//!   (`&mut [f32]`, e.g. one row of `agg_tensor::GradientBatch`) in one bulk
//!   little-endian pass;
//! * received coordinates are tracked in a **compact bitset** (one bit per
//!   coordinate, reused across rounds), so counting what went missing is a
//!   popcount over `d/64` words;
//! * the lossy transport encodes each arriving packet from the row into a
//!   few-packet scratch just before it is fed, a run of three at a time, so
//!   the whole wire → arena path holds no more than a run of encoded packets
//!   and copies each coordinate once each way.
//!
//! Every packet goes through one ingest: the transport feeds it its runs of
//! encoded arrivals, [`RoundAssembler::feed_all`] a batch of [`Bytes`] a
//! link delivered, and [`RoundAssembler::feed`] is its batch of one. It is
//! the wire's only validator. It checks, in this order, and stops at the
//! first failure:
//!
//! 1. **dimension** — the destination row matches the assembler
//!    ([`NetError::InvalidConfig`]);
//! 2. **integrity** — length, wire version and CRC-32C
//!    ([`FeedOutcome::Corrupt`]: wire damage, counted and skipped like a
//!    loss, because no field of a corrupt packet can be trusted);
//! 3. **header** — the payload length matches the declared coordinate count;
//! 4. **fence** — the epoch stamp matches the expected membership epoch
//!    ([`FeedOutcome::StaleEpoch`], before the stream check so an evicted
//!    worker's stragglers can never become the round's reference);
//! 5. **stream** — same `(worker, step)` as the round's first accepted packet
//!    ([`NetError::InconsistentStream`]);
//! 6. **bounds** — `offset + count` lies inside the row;
//! 7. **sequence** — `sequence < total` and `total` is no larger than a
//!    gradient of this dimension can be split into;
//! 8. **dedup** — a packet id already fed this round is accepted with zero
//!    new coverage and never written (first delivery wins);
//! 9. **scatter** — the payload lands in `row[offset..offset + count]`.
//!
//! From step 3 on the header is checksum-valid, so a failure means a broken
//! or malicious *sender*, not wire damage, and is a hard
//! [`NetError::MalformedPacket`].
//!
//! Step 2 is decided per batch of three consecutive packets, whose CRC-32C
//! chains run side by side (`packet::CRC_LANES`); steps 3–9 then run on each
//! of the three in arrival order. A verdict is a pure function of its
//! packet's bytes, so deciding it early changes neither the order of the
//! checks nor any outcome: every packet gets the result `feed` would give it,
//! and no packet after the first error is counted or written.
//!
//! Missing coordinates surface as `NaN` in the destination row
//! ([`RoundAssembler::finish_round`]), or as any value the caller computes
//! from the coordinate index ([`RoundAssembler::finish_round_with`], written
//! during the same gap walk); the caller's loss policy decides which.

use crate::packet::{get_f32_slice_le, wire_integrity_errors, CRC_LANES, HEADER_BYTES};
use crate::{NetError, Result};
use bytes::Bytes;

/// One bit per coordinate, tracking which coordinates any delivered packet
/// covered: the words are reused across rounds, marking a coordinate range is
/// a handful of word ORs, and finding what went missing is a popcount-driven
/// walk of the zero bits.
#[derive(Debug, Clone)]
struct CoordinateBitset {
    words: Vec<u64>,
    len: usize,
}

impl CoordinateBitset {
    fn new(len: usize) -> Self {
        CoordinateBitset { words: vec![0u64; len.div_ceil(64)], len }
    }

    /// Clears every bit, ready for the next round.
    fn reset(&mut self) {
        self.words.fill(0);
    }

    /// Sets the bits for coordinates `start..start + len`, word at a time,
    /// and returns how many of them were newly set. The return value is what makes completion
    /// accounting exact under duplication and overlap: a re-delivered range
    /// contributes zero, no matter how the packets were split.
    fn mark(&mut self, start: usize, len: usize) -> usize {
        let end = start + len;
        let mut i = start;
        let mut newly = 0usize;
        while i < end {
            let bit = i % 64;
            let take = (64 - bit).min(end - i);
            let mask = if take == 64 { !0u64 } else { ((1u64 << take) - 1) << bit };
            newly += take - (self.words[i / 64] & mask).count_ones() as usize;
            self.words[i / 64] |= mask;
            i += take;
        }
        newly
    }

    /// Invokes `gap` for every unset coordinate, in increasing order, and
    /// returns how many there were. At realistic loss rates most words are fully
    /// covered and skipped outright.
    fn for_each_gap(&self, mut gap: impl FnMut(usize)) -> usize {
        let mut missing = 0usize;
        for (w, &word) in self.words.iter().enumerate() {
            let base = w * 64;
            let limit = (self.len - base).min(64);
            let mut gaps = !word;
            if limit < 64 {
                gaps &= (1u64 << limit) - 1;
            }
            missing += gaps.count_ones() as usize;
            while gaps != 0 {
                gap(base + gaps.trailing_zeros() as usize);
                gaps &= gaps - 1;
            }
        }
        missing
    }
}

/// The reliable metadata accompanying one wire packet (parsed header).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WireHeader {
    worker: u32,
    step: u64,
    /// The sender's packet id — the dedup key of the round.
    sequence: usize,
    total: usize,
    offset: usize,
    count: usize,
    /// Membership epoch the sender stamped.
    epoch: u32,
}

/// Parses the fixed-size header of an encoded packet without consuming the
/// buffer — the decoder of the layout [`crate::packet`] documents. The
/// payload length must match the declared coordinate count exactly: an
/// over-length payload is as suspect as a short one.
fn parse_header(data: &[u8]) -> Result<WireHeader> {
    if data.len() < HEADER_BYTES {
        return Err(NetError::MalformedPacket(format!(
            "{} bytes is shorter than the {HEADER_BYTES}-byte header",
            data.len()
        )));
    }
    let u32_at = |at: usize| -> u32 {
        u32::from_le_bytes(data[at..at + 4].try_into().expect("4-byte window"))
    };
    let worker = u32_at(0);
    let step = u64::from_le_bytes(data[4..12].try_into().expect("8-byte window"));
    let sequence = u32_at(12) as usize;
    let total = u32_at(16) as usize;
    let offset = u32_at(20) as usize;
    let count = u32_at(24) as usize;
    let epoch = u32_at(28);
    if data.len() - HEADER_BYTES != count * 4 {
        return Err(NetError::MalformedPacket(format!(
            "payload declares {count} coordinates but carries {} bytes",
            data.len() - HEADER_BYTES
        )));
    }
    Ok(WireHeader { worker, step, sequence, total, offset, count, epoch })
}

/// Rejects a packet whose (worker, step) identity disagrees with the round's
/// reference packet.
fn check_same_stream(header: &WireHeader, reference: &WireHeader) -> Result<()> {
    if header.worker != reference.worker || header.step != reference.step {
        return Err(NetError::InconsistentStream(format!(
            "packet from worker {} step {} mixed with worker {} step {}",
            header.worker, header.step, reference.worker, reference.step
        )));
    }
    Ok(())
}

/// Rejects a packet whose coordinate range extends beyond the gradient.
fn check_in_bounds(header: &WireHeader, dimension: usize) -> Result<()> {
    if header.offset + header.count > dimension {
        return Err(NetError::MalformedPacket(format!(
            "packet covers coordinates {}..{} of a {dimension}-dimensional gradient",
            header.offset,
            header.offset + header.count,
        )));
    }
    Ok(())
}

/// Marks `sequence` in the seen-set, returning `false` when it was already
/// there. The word vector grows lazily to the stream's packet count — which
/// [`check_sequence`] has bounded by the gradient — and is reused (zeroed)
/// across rounds.
fn note_sequence(seen: &mut Vec<u64>, sequence: usize) -> bool {
    let word = sequence / 64;
    if word >= seen.len() {
        seen.resize(word + 1, 0);
    }
    let bit = 1u64 << (sequence % 64);
    if seen[word] & bit != 0 {
        return false;
    }
    seen[word] |= bit;
    true
}

/// Rejects a packet whose sequence number is not below its declared total —
/// which also rejects a declared total of zero — or whose declared total is
/// more packets than a `dimension`-coordinate gradient can be split into: one
/// per coordinate, and one header-only packet for an empty gradient. The
/// bound is what keeps a header from sizing the dedup set.
fn check_sequence(header: &WireHeader, dimension: usize) -> Result<()> {
    if header.total == 0 {
        return Err(NetError::MalformedPacket("packet declares a zero-packet stream".to_string()));
    }
    if header.total > dimension.max(1) {
        return Err(NetError::MalformedPacket(format!(
            "packet declares a {}-packet stream for a {dimension}-dimensional gradient",
            header.total
        )));
    }
    if header.sequence >= header.total {
        return Err(NetError::MalformedPacket(format!(
            "packet sequence {} of a {}-packet stream",
            header.sequence, header.total
        )));
    }
    Ok(())
}

/// What one [`RoundAssembler::feed`] call changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeedOutcome {
    /// The packet passed every check; unless it was a duplicate, its payload
    /// was scattered into the row.
    Accepted {
        /// Coordinates this packet newly covered (zero for a duplicate or a
        /// header-only packet; exact under overlap).
        newly_covered: usize,
    },
    /// The packet's epoch stamp did not match the assembler's expected
    /// epoch — a late packet from an evicted worker or a stale-epoch
    /// rejoin. Nothing was written; the reject is counted in
    /// `stale_rejects()`.
    StaleEpoch {
        /// The epoch the sender stamped into the packet.
        packet_epoch: u32,
        /// The epoch the assembler currently fences on.
        expected_epoch: u32,
    },
    /// The packet failed the integrity envelope — too short to hold a
    /// header, stamped with an unknown wire version, or its CRC32 disagrees
    /// with the bytes. Nothing was parsed (not even the epoch stamp, which
    /// is as untrustworthy as the rest of the packet), nothing was written;
    /// the reject is counted in `corrupt_rejects()`.
    Corrupt {
        /// Which integrity check failed.
        reason: &'static str,
    },
}

impl FeedOutcome {
    /// Coordinates newly covered by this feed (zero for duplicates,
    /// stale-epoch rejects and corrupt rejects).
    pub fn newly_covered(&self) -> usize {
        match self {
            FeedOutcome::Accepted { newly_covered } => *newly_covered,
            FeedOutcome::StaleEpoch { .. } | FeedOutcome::Corrupt { .. } => 0,
        }
    }

    /// Whether the packet was rejected by the integrity envelope.
    pub fn is_corrupt(&self) -> bool {
        matches!(self, FeedOutcome::Corrupt { .. })
    }
}

/// Reassembles one gradient per round from whichever encoded packets
/// arrived, scattering payloads straight into a caller-provided row:
/// [`RoundAssembler::begin_round`], [`RoundAssembler::feed_all`] per batch
/// (or [`RoundAssembler::feed`] per packet) as it drains off the wire (the
/// caller may watch [`RoundAssembler::is_complete`] to fire per-row work the
/// moment the row is in), then [`RoundAssembler::finish_round`] or
/// [`RoundAssembler::finish_round_with`] to fill whatever never arrived.
///
/// The bitset buffer is owned and reused, so a long-lived transport performs
/// zero reassembly allocations after the first round.
#[derive(Debug, Clone)]
pub struct RoundAssembler {
    dimension: usize,
    /// One bit per coordinate, set when any delivered packet covered it.
    filled: CoordinateBitset,
    /// Coordinates covered so far this round.
    received: usize,
    /// The round's first accepted header: its (worker, step) reference.
    reference: Option<WireHeader>,
    /// One bit per packet id fed (and accepted) this round.
    seen: Vec<u64>,
    /// Epoch fence: `Some(e)` rejects every packet not stamped with `e`
    /// (counted in `stale_rejects`), `None` accepts any epoch (the static
    /// membership default).
    expected_epoch: Option<u32>,
    stale_rejects: usize,
    corrupt_rejects: usize,
    /// Non-finite payload coordinates written this round.
    non_finite_written: usize,
}

impl RoundAssembler {
    /// Creates an assembler for gradients of dimension `dimension`.
    pub fn new(dimension: usize) -> Self {
        RoundAssembler {
            dimension,
            filled: CoordinateBitset::new(dimension),
            received: 0,
            reference: None,
            seen: Vec::new(),
            expected_epoch: None,
            stale_rejects: 0,
            corrupt_rejects: 0,
            non_finite_written: 0,
        }
    }

    /// The gradient dimension this assembler reassembles.
    pub fn dimension(&self) -> usize {
        self.dimension
    }

    /// Sets the membership-epoch fence: packets stamped with a different
    /// epoch are rejected (never written to a row, counted in
    /// [`RoundAssembler::stale_rejects`]). `None` — the default — accepts
    /// any epoch, preserving the static-membership behaviour.
    pub fn set_expected_epoch(&mut self, epoch: Option<u32>) {
        self.expected_epoch = epoch;
    }

    /// Packets rejected by the epoch fence this round.
    pub fn stale_rejects(&self) -> usize {
        self.stale_rejects
    }

    /// Packets rejected by the integrity envelope (short, wrong wire
    /// version, checksum mismatch) this round.
    pub fn corrupt_rejects(&self) -> usize {
        self.corrupt_rejects
    }

    /// Whether packet id `sequence` has been fed (and accepted) this round —
    /// the receiver-side state a NACK protocol inspects to decide which
    /// packets to request again.
    pub fn sequence_seen(&self, sequence: usize) -> bool {
        self.seen.get(sequence / 64).is_some_and(|word| word & (1u64 << (sequence % 64)) != 0)
    }

    fn check_row(&self, dst: &[f32]) -> Result<()> {
        if dst.len() != self.dimension {
            return Err(NetError::InvalidConfig(format!(
                "destination row has {} coordinates, assembler expects {}",
                dst.len(),
                self.dimension
            )));
        }
        Ok(())
    }

    /// Starts a round: clears the coverage bitset, the received count, the
    /// stream reference, the packet-id dedup set, the reject counters and the
    /// non-finite count.
    pub fn begin_round(&mut self) {
        self.filled.reset();
        self.received = 0;
        self.reference = None;
        self.seen.fill(0);
        self.stale_rejects = 0;
        self.corrupt_rejects = 0;
        self.non_finite_written = 0;
    }

    /// Feeds one delivered packet through the validation order in the
    /// [module docs](crate::assembler), scattering its payload into `dst`, and reports
    /// what it changed — [`RoundAssembler::feed_all`] over a batch of one. A
    /// packet that is not [`FeedOutcome::Accepted`] never writes to `dst`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidConfig`] when `dst` does not match the
    /// assembler's dimension, [`NetError::InconsistentStream`] when packets
    /// disagree about the worker or step, and [`NetError::MalformedPacket`]
    /// for checksum-valid packets whose headers are nonsensical (over-length
    /// payload, coordinates outside the gradient, a sequence number at or
    /// above the declared total, a total the gradient cannot have).
    pub fn feed(&mut self, packet: &Bytes, dst: &mut [f32]) -> Result<FeedOutcome> {
        self.check_row(dst)?;
        let [integrity, ..] = wire_integrity_errors(std::slice::from_ref(packet));
        self.ingest(packet, integrity, dst)
    }

    /// Feeds a batch of delivered packets in order, with exactly the outcome
    /// of one [`RoundAssembler::feed`] per packet. The integrity (step 2) of
    /// every [`CRC_LANES`] consecutive packets is decided together, their
    /// checksums run side by side; steps 3–9 then run on each of them in
    /// turn.
    ///
    /// # Errors
    ///
    /// The first error [`RoundAssembler::feed`] would return; no packet after
    /// it is counted or written.
    pub fn feed_all(&mut self, packets: &[Bytes], dst: &mut [f32]) -> Result<()> {
        self.check_row(dst)?;
        for batch in packets.chunks(CRC_LANES) {
            self.feed_run(batch, dst)?;
        }
        Ok(())
    }

    /// The one ingest over a run of at most [`CRC_LANES`] packets, in
    /// order: their integrity decided side by side, then steps 3–9 on each.
    /// `dst` is checked by the caller; the lossy transport feeds its runs of
    /// encoded arrivals here as they leave its scratch.
    pub(crate) fn feed_run<P: AsRef<[u8]>>(&mut self, run: &[P], dst: &mut [f32]) -> Result<()> {
        let verdicts = wire_integrity_errors(run);
        for (packet, integrity) in run.iter().zip(verdicts) {
            self.ingest(packet.as_ref(), integrity, dst)?;
        }
        Ok(())
    }

    /// Steps 2–9 of the validation order for one packet whose integrity
    /// verdict is already decided.
    fn ingest(
        &mut self,
        packet: &[u8],
        integrity: Option<&'static str>,
        dst: &mut [f32],
    ) -> Result<FeedOutcome> {
        if let Some(reason) = integrity {
            self.corrupt_rejects += 1;
            return Ok(FeedOutcome::Corrupt { reason });
        }
        let header = parse_header(packet)?;
        if let Some(expected_epoch) = self.expected_epoch {
            if header.epoch != expected_epoch {
                self.stale_rejects += 1;
                return Ok(FeedOutcome::StaleEpoch { packet_epoch: header.epoch, expected_epoch });
            }
        }
        match &self.reference {
            Some(reference) => check_same_stream(&header, reference)?,
            None => self.reference = Some(header),
        }
        check_in_bounds(&header, self.dimension)?;
        check_sequence(&header, self.dimension)?;
        if !note_sequence(&mut self.seen, header.sequence) {
            return Ok(FeedOutcome::Accepted { newly_covered: 0 });
        }
        let payload = &packet[HEADER_BYTES..HEADER_BYTES + 4 * header.count];
        self.non_finite_written +=
            get_f32_slice_le(payload, &mut dst[header.offset..header.offset + header.count]);
        let newly_covered = self.filled.mark(header.offset, header.count);
        self.received += newly_covered;
        Ok(FeedOutcome::Accepted { newly_covered })
    }

    /// Coordinates covered so far this round.
    pub fn received(&self) -> usize {
        self.received
    }

    /// Whether every coordinate of the row has been covered — the per-row
    /// completion event of the round.
    pub fn is_complete(&self) -> bool {
        self.received == self.dimension
    }

    /// Non-finite payload coordinates (NaN or ±∞ on the wire) the accepted
    /// packets wrote this round, counted during the decode. Zero means every
    /// covered coordinate is finite, so a finite
    /// [`RoundAssembler::finish_round_with`] fill leaves the whole row finite
    /// with no scan.
    pub fn non_finite_written(&self) -> usize {
        self.non_finite_written
    }

    /// Ends a round: NaN-fills every coordinate no packet covered and returns
    /// how many there were — [`RoundAssembler::finish_round_with`] with a NaN
    /// fill.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidConfig`] when `dst` does not match the
    /// assembler's dimension.
    pub fn finish_round(&mut self, dst: &mut [f32]) -> Result<usize> {
        self.finish_round_with(dst, |_| f32::NAN)
    }

    /// Ends a round: writes `fill(c)` into every coordinate `c` no packet
    /// covered, during the walk that finds them, and returns how many there
    /// were. A delivered `NaN` payload coordinate counts as received — only
    /// coordinates missing from every packet count as lost, which is why the
    /// bitset (not a NaN scan of `dst`) is the source of truth. Only the gaps
    /// are written, so the row is written once (by payloads or by the fill),
    /// never twice.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidConfig`] when `dst` does not match the
    /// assembler's dimension.
    pub fn finish_round_with(
        &mut self,
        dst: &mut [f32],
        fill: impl Fn(usize) -> f32,
    ) -> Result<usize> {
        self.check_row(dst)?;
        Ok(self.filled.for_each_gap(|c| dst[c] = fill(c)))
    }

    /// One whole round over a batch of delivered packets (out of order,
    /// duplicated or a subset): [`RoundAssembler::begin_round`],
    /// [`RoundAssembler::feed_all`], [`RoundAssembler::finish_round`].
    /// Returns the number of coordinates no packet covered (left as `NaN`).
    ///
    /// # Errors
    ///
    /// The first error [`RoundAssembler::feed`] returns; corrupt and
    /// stale-epoch packets are counted and skipped, exactly like packets the
    /// link dropped.
    pub fn assemble_into(&mut self, packets: &[Bytes], dst: &mut [f32]) -> Result<usize> {
        self.begin_round();
        self.feed_all(packets, dst)?;
        self.finish_round(dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::GradientCodec;

    fn gradient(d: usize) -> Vec<f32> {
        (0..d).map(|i| i as f32).collect()
    }

    #[test]
    fn assembles_a_full_round_bit_exactly() {
        let codec = GradientCodec::new(10).unwrap();
        let g = gradient(35);
        let packets = codec.split_bytes(1, 5, &g);
        assert_eq!(packets.len(), 4);
        let mut assembler = RoundAssembler::new(35);
        let mut row = vec![0.0f32; 35];
        let missing = assembler.assemble_into(&packets, &mut row).unwrap();
        assert_eq!(missing, 0);
        assert_eq!(row, g);
    }

    #[test]
    fn tolerates_reordering_and_duplication() {
        let codec = GradientCodec::new(8).unwrap();
        let g = gradient(20);
        let mut packets = codec.split_bytes(0, 0, &g);
        packets.reverse();
        packets.push(packets[0].clone());
        let mut assembler = RoundAssembler::new(20);
        let mut row = vec![0.0f32; 20];
        assert_eq!(assembler.assemble_into(&packets, &mut row).unwrap(), 0);
        assert_eq!(row, g);
    }

    #[test]
    fn missing_packets_surface_as_nan_and_are_counted() {
        let codec = GradientCodec::new(8).unwrap();
        let g = gradient(20);
        let mut packets = codec.split_bytes(0, 0, &g);
        packets.remove(1); // drop coordinates 8..16
        let mut assembler = RoundAssembler::new(20);
        let mut row = vec![0.0f32; 20];
        let missing = assembler.assemble_into(&packets, &mut row).unwrap();
        assert_eq!(missing, 8);
        assert!(row[8].is_nan() && row[15].is_nan());
        assert_eq!(row[0], 0.0);
        assert_eq!(row[19], 19.0);
    }

    #[test]
    fn nan_payload_counts_as_received() {
        let codec = GradientCodec::new(4).unwrap();
        let g = vec![f32::NAN, 1.0, f32::NEG_INFINITY, 2.0];
        let packets = codec.split_bytes(0, 0, &g);
        let mut assembler = RoundAssembler::new(4);
        let mut row = vec![0.0f32; 4];
        let missing = assembler.assemble_into(&packets, &mut row).unwrap();
        assert_eq!(missing, 0, "a delivered NaN coordinate is not a lost coordinate");
        assert!(row[0].is_nan());
        assert_eq!(row[1], 1.0);
        assert_eq!(row[2], f32::NEG_INFINITY);
    }

    #[test]
    fn rejects_mixed_streams_truncation_and_bad_offsets() {
        let codec = GradientCodec::new(8).unwrap();
        let a = codec.split_bytes(0, 0, &gradient(16));
        let b = codec.split_bytes(1, 0, &gradient(16));
        let mixed: Vec<_> = a.iter().chain(b.iter()).cloned().collect();
        let mut assembler = RoundAssembler::new(16);
        let mut row = vec![0.0f32; 16];
        assert!(matches!(
            assembler.assemble_into(&mixed, &mut row),
            Err(NetError::InconsistentStream(_))
        ));
        // A truncated header or a truncated payload is wire damage, not a
        // malformed sender: counted as corrupt and skipped like a loss.
        let truncated = vec![a[0].slice(0..10)];
        assert_eq!(assembler.assemble_into(&truncated, &mut row).unwrap(), 16);
        assert_eq!(assembler.corrupt_rejects(), 1);
        let short_payload = vec![a[0].slice(0..HEADER_BYTES + 4)];
        assert_eq!(assembler.assemble_into(&short_payload, &mut row).unwrap(), 16);
        assert_eq!(assembler.corrupt_rejects(), 1);
        // A packet whose coordinates extend beyond the gradient.
        let far = codec.split_bytes(0, 0, &gradient(24));
        let mut small = RoundAssembler::new(16);
        assert!(matches!(
            small.assemble_into(&far[2..3], &mut row),
            Err(NetError::MalformedPacket(_))
        ));
    }

    #[test]
    fn empty_round_is_all_missing_and_empty_gradient_is_complete() {
        let mut assembler = RoundAssembler::new(10);
        let mut row = vec![0.0f32; 10];
        assert_eq!(assembler.assemble_into(&[], &mut row).unwrap(), 10);
        assert!(row.iter().all(|v| v.is_nan()));

        let codec = GradientCodec::default();
        let packets = codec.split_bytes(2, 9, &[]);
        assert_eq!(packets.len(), 1);
        let mut empty = RoundAssembler::new(0);
        assert_eq!(empty.assemble_into(&packets, &mut []).unwrap(), 0);
    }

    #[test]
    fn wrong_destination_length_is_rejected() {
        let mut assembler = RoundAssembler::new(8);
        let mut row = vec![0.0f32; 4];
        assert!(matches!(assembler.assemble_into(&[], &mut row), Err(NetError::InvalidConfig(_))));
    }

    #[test]
    fn duplicate_packet_over_already_filled_coordinates_is_idempotent() {
        // The UDP link can deliver the same datagram twice; the second copy
        // rewrites identical bytes over coordinates the bitset already marks,
        // so values and the missing count are unchanged.
        let codec = GradientCodec::new(6).unwrap();
        let g = gradient(14);
        let mut packets = codec.split_bytes(3, 2, &g);
        packets.push(packets[1].clone());
        packets.push(packets[1].clone());
        let mut assembler = RoundAssembler::new(14);
        let mut row = vec![0.0f32; 14];
        assert_eq!(assembler.assemble_into(&packets, &mut row).unwrap(), 0);
        assert_eq!(row, g);
    }

    #[test]
    fn zero_length_payload_packets_are_tolerated() {
        // A zero-dimensional gradient encodes as one header-only packet with
        // count = 0: valid metadata, nothing to scatter, nothing missing.
        let codec = GradientCodec::default();
        let packets = codec.split_bytes(5, 1, &[]);
        assert_eq!(packets.len(), 1);

        let mut assembler = RoundAssembler::new(0);
        assert_eq!(assembler.assemble_into(&packets, &mut []).unwrap(), 0);
    }

    #[test]
    fn streaming_feed_matches_batch_assembly_bit_for_bit() {
        // begin_round/feed/finish_round packet by packet and assemble_into
        // over the same packet multiset both produce exactly what arrived:
        // packet 4 (coordinates 28..35) was lost, the rest came reversed with
        // one duplicate.
        let codec = GradientCodec::new(7).unwrap();
        let g: Vec<f32> = (0..53).map(|i| (i as f32).cos()).collect();
        let mut packets = codec.split_bytes(4, 8, &g);
        packets.remove(4);
        packets.reverse();
        packets.push(packets[2].clone());
        let mut expected = g.clone();
        expected[28..35].fill(f32::NAN);

        let mut batch = RoundAssembler::new(53);
        let mut batch_row = vec![0.0f32; 53];
        assert_eq!(batch.assemble_into(&packets, &mut batch_row).unwrap(), 7);

        let mut streaming = RoundAssembler::new(53);
        streaming.begin_round();
        let mut row = vec![0.0f32; 53];
        for p in &packets {
            streaming.feed(p, &mut row).unwrap();
        }
        assert!(!streaming.is_complete());
        assert_eq!(streaming.finish_round(&mut row).unwrap(), 7);
        for (c, ((a, b), e)) in row.iter().zip(&batch_row).zip(&expected).enumerate() {
            assert_eq!(a.to_bits(), e.to_bits(), "coordinate {c}");
            assert_eq!(b.to_bits(), e.to_bits(), "batch coordinate {c}");
        }
    }

    #[test]
    fn gaps_take_the_fill_and_the_decode_counts_non_finite_payloads() {
        // Packet 1 (coordinates 4..8) is lost; the delivered ones carry NaN
        // and ±∞. The fill lands on exactly the gaps, during the gap walk,
        // and the non-finite count is what the payloads carried.
        let codec = GradientCodec::new(4).unwrap();
        let mut g = gradient(14);
        g[1] = f32::NAN;
        g[9] = f32::INFINITY;
        g[13] = f32::NEG_INFINITY;
        g[5] = f32::NAN; // in the lost packet: a gap, not a payload
        let mut packets = codec.split_bytes(0, 0, &g);
        packets.remove(1);
        let mut assembler = RoundAssembler::new(14);
        assembler.begin_round();
        let mut row = vec![0.0f32; 14];
        assembler.feed_all(&packets, &mut row).unwrap();
        assert_eq!(assembler.non_finite_written(), 3);
        let fill = |c: usize| 1000.0 + c as f32;
        assert_eq!(assembler.finish_round_with(&mut row, fill).unwrap(), 4);
        for (c, (&got, &sent)) in row.iter().zip(&g).enumerate() {
            let want = if (4..8).contains(&c) { fill(c) } else { sent };
            assert_eq!(got.to_bits(), want.to_bits(), "coordinate {c}");
        }
        // The count starts over with the round.
        assembler.begin_round();
        assert_eq!(assembler.non_finite_written(), 0);
    }

    #[test]
    fn feed_all_is_feed_per_packet_up_to_the_first_error() {
        // Batches of 0..=4 packets over every alignment of a hostile run:
        // corrupt, stale, duplicate and honest packets, then a malformed
        // one. The batch ends in the state the per-packet feed reaches, stops
        // at the same error, and writes nothing after it.
        let codec = GradientCodec::new(5).unwrap();
        let g = gradient(23);
        let current = codec.split_bytes_epoch(2, 4, 6, &g);
        let stale = codec.split_bytes_epoch(2, 4, 5, &g);
        let mut flipped = current[2].to_vec();
        flipped[HEADER_BYTES + 1] ^= 0x20;
        let malformed = resealed(&current[3], |b| b[20..24].copy_from_slice(&40u32.to_le_bytes()));
        let mut arrivals = vec![
            current[0].clone(),
            Bytes::from(flipped),
            stale[1].clone(),
            current[1].clone(),
            current[0].clone(),
            current[4].slice(0..HEADER_BYTES - 3),
            current[4].clone(),
            malformed,
        ];
        arrivals.extend(current[2..4].iter().cloned());
        for start in 0..arrivals.len() {
            for len in 0..=4.min(arrivals.len() - start) {
                let batch = &arrivals[start..start + len];
                let mut one = RoundAssembler::new(23);
                one.set_expected_epoch(Some(6));
                one.begin_round();
                let mut one_row = vec![-1.5f32; 23];
                let mut one_result = Ok(());
                for p in batch {
                    if let Err(e) = one.feed(p, &mut one_row) {
                        one_result = Err(e);
                        break;
                    }
                }
                let mut all = RoundAssembler::new(23);
                all.set_expected_epoch(Some(6));
                all.begin_round();
                let mut all_row = vec![-1.5f32; 23];
                let all_result = all.feed_all(batch, &mut all_row);
                let at = format!("batch {start}+{len}");
                assert_eq!(all_result, one_result, "{at}");
                assert_eq!(all_row, one_row, "{at}");
                assert_eq!(
                    (all.received(), all.corrupt_rejects(), all.stale_rejects()),
                    (one.received(), one.corrupt_rejects(), one.stale_rejects()),
                    "{at}"
                );
                assert_eq!(all.non_finite_written(), one.non_finite_written(), "{at}");
            }
        }
    }

    #[test]
    fn row_completion_fires_exactly_when_the_last_coordinate_lands() {
        let codec = GradientCodec::new(8).unwrap();
        let g = gradient(20);
        let packets = codec.split_bytes(1, 3, &g);
        let mut assembler = RoundAssembler::new(20);
        assembler.begin_round();
        let mut row = vec![0.0f32; 20];
        for (i, p) in packets.iter().enumerate() {
            assert!(!assembler.is_complete(), "complete before packet {i}");
            let first = assembler.feed(p, &mut row).unwrap();
            assert_eq!(
                first,
                FeedOutcome::Accepted { newly_covered: (p.len() - HEADER_BYTES) / 4 }
            );
            // A re-delivered packet id is dropped before the scatter, so it
            // cannot count toward completion.
            let received = assembler.received();
            let duplicate = assembler.feed(p, &mut row).unwrap();
            assert_eq!(duplicate, FeedOutcome::Accepted { newly_covered: 0 });
            assert_eq!(assembler.received(), received);
        }
        assert!(assembler.is_complete());
        assert_eq!(assembler.received(), 20);
        assert_eq!(assembler.finish_round(&mut row).unwrap(), 0);
        assert_eq!(row, g);
    }

    #[test]
    fn feed_rejects_mixed_streams_and_bad_sequences() {
        let codec = GradientCodec::new(8).unwrap();
        let a = codec.split_bytes(0, 0, &gradient(16));
        let b = codec.split_bytes(1, 0, &gradient(16));
        let mut assembler = RoundAssembler::new(16);
        assembler.begin_round();
        let mut row = vec![0.0f32; 16];
        assembler.feed(&a[0], &mut row).unwrap();
        assert!(matches!(assembler.feed(&b[0], &mut row), Err(NetError::InconsistentStream(_))));
        // A sequence number at/above the declared total, resealed so the
        // checksum is valid: a *sender* bug, so a hard error rather than a
        // corrupt-reject.
        let mut bytes = a[0].to_vec();
        bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        crate::packet::reseal_packet_bytes(&mut bytes);
        assert!(matches!(
            assembler.feed(&Bytes::from(bytes), &mut row),
            Err(NetError::MalformedPacket(_))
        ));
    }

    /// Builds a checksum-valid packet with an arbitrary header mutation
    /// applied after sealing.
    fn resealed(base: &Bytes, mutate: impl FnOnce(&mut Vec<u8>)) -> Bytes {
        let mut bytes = base.to_vec();
        mutate(&mut bytes);
        crate::packet::reseal_packet_bytes(&mut bytes);
        Bytes::from(bytes)
    }

    #[test]
    fn malformed_header_shapes_are_rejected_up_front() {
        // Checksum-valid but semantically broken headers: each shape must be
        // a hard MalformedPacket whether fed singly or as a batch — never
        // scattered, never silently skipped.
        let codec = GradientCodec::new(8).unwrap();
        let g = gradient(16);
        let a = codec.split_bytes(0, 0, &g);
        let zero_total = resealed(&a[0], |b| b[16..20].copy_from_slice(&0u32.to_le_bytes()));
        let bad_sequence = resealed(&a[0], |b| b[12..16].copy_from_slice(&9u32.to_le_bytes()));
        let over_length = resealed(&a[0], |b| b.extend_from_slice(&[0u8; 4]));
        let out_of_bounds = resealed(&a[1], |b| b[20..24].copy_from_slice(&12u32.to_le_bytes()));
        for (shape, packet) in [
            ("zero total", &zero_total),
            ("sequence >= total", &bad_sequence),
            ("over-length payload", &over_length),
            ("out of bounds", &out_of_bounds),
        ] {
            let mut assembler = RoundAssembler::new(16);
            let mut row = vec![0.0f32; 16];
            assembler.begin_round();
            assert!(
                matches!(assembler.feed(packet, &mut row), Err(NetError::MalformedPacket(_))),
                "feed must reject {shape}"
            );
            assert!(
                matches!(
                    assembler.assemble_into(std::slice::from_ref(packet), &mut row),
                    Err(NetError::MalformedPacket(_))
                ),
                "assemble_into must reject {shape}"
            );
            assert_eq!(assembler.corrupt_rejects(), 0, "{shape} is malformed, not corrupt");
        }
    }

    #[test]
    fn corrupt_packets_are_counted_and_never_touch_a_row() {
        // Wire-damage shapes: short header, truncated payload, flipped
        // payload bit, flipped header bit, unknown wire version. Each is a
        // FeedOutcome::Corrupt — counted, skipped, and provably absent from
        // the row — and the intact remainder of the round still lands.
        let codec = GradientCodec::new(8).unwrap();
        let g = gradient(20);
        let packets = codec.split_bytes(0, 0, &g);
        let corrupted: Vec<Bytes> = vec![
            packets[0].slice(0..HEADER_BYTES - 1),
            packets[0].slice(0..HEADER_BYTES + 7),
            {
                let mut b = packets[1].to_vec();
                b[HEADER_BYTES + 2] ^= 0x10;
                Bytes::from(b)
            },
            {
                let mut b = packets[1].to_vec();
                b[21] ^= 0x01; // offset field
                Bytes::from(b)
            },
            {
                let mut b = packets[2].to_vec();
                b[32..36].copy_from_slice(&7u32.to_le_bytes()); // version
                crate::packet::reseal_packet_bytes(&mut b);
                Bytes::from(b)
            },
        ];

        let mut assembler = RoundAssembler::new(20);
        assembler.begin_round();
        let mut row = vec![-4.5f32; 20];
        for c in &corrupted {
            let outcome = assembler.feed(c, &mut row).unwrap();
            assert!(outcome.is_corrupt());
            assert_eq!(outcome.newly_covered(), 0);
        }
        assert!(row.iter().all(|&v| v == -4.5), "a corrupt packet must never touch the row");
        assert_eq!(assembler.corrupt_rejects(), corrupted.len());
        assert_eq!(assembler.received(), 0);
        for p in &packets {
            assert!(!assembler.feed(p, &mut row).unwrap().is_corrupt());
        }
        assert!(assembler.is_complete());
        assert_eq!(row, g);

        // Batch path: corrupt packets mixed into an otherwise-complete round
        // are skipped without error and without affecting the result.
        let mixed: Vec<Bytes> = corrupted.iter().chain(packets.iter()).cloned().collect();
        let mut batch = RoundAssembler::new(20);
        let mut batch_row = vec![0.0f32; 20];
        assert_eq!(batch.assemble_into(&mixed, &mut batch_row).unwrap(), 0);
        assert_eq!(batch.corrupt_rejects(), corrupted.len());
        assert_eq!(batch_row, g);
    }

    #[test]
    fn corruption_detected_equals_explicit_drop() {
        // The zero-silent-corruption invariant at the assembler level:
        // corrupting a subset of packets must produce exactly the row a
        // plain drop of the same subset produces — same bits, same missing
        // count — with corrupt_rejects accounting for every damaged packet.
        let codec = GradientCodec::new(8).unwrap();
        let g: Vec<f32> = (0..50).map(|i| (i as f32).sin()).collect();
        let packets = codec.split_bytes(3, 11, &g);
        let damage = [1usize, 4];
        let corrupted: Vec<Bytes> = packets
            .iter()
            .enumerate()
            .map(|(i, p)| {
                if damage.contains(&i) {
                    let mut b = p.to_vec();
                    b[HEADER_BYTES] ^= 0x40;
                    Bytes::from(b)
                } else {
                    p.clone()
                }
            })
            .collect();
        let dropped: Vec<Bytes> = packets
            .iter()
            .enumerate()
            .filter(|(i, _)| !damage.contains(i))
            .map(|(_, p)| p.clone())
            .collect();

        let mut a = RoundAssembler::new(50);
        let mut row_corrupt = vec![0.0f32; 50];
        let missing_corrupt = a.assemble_into(&corrupted, &mut row_corrupt).unwrap();
        assert_eq!(a.corrupt_rejects(), damage.len());
        let mut b = RoundAssembler::new(50);
        let mut row_drop = vec![0.0f32; 50];
        let missing_drop = b.assemble_into(&dropped, &mut row_drop).unwrap();
        assert_eq!(b.corrupt_rejects(), 0);
        assert_eq!(missing_corrupt, missing_drop);
        for (c, (x, y)) in row_corrupt.iter().zip(&row_drop).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "coordinate {c}");
        }
    }

    #[test]
    fn begin_round_resets_streaming_state_between_rounds() {
        let codec = GradientCodec::new(8).unwrap();
        let mut assembler = RoundAssembler::new(20);
        let mut row = vec![0.0f32; 20];

        let g = gradient(20);
        assembler.begin_round();
        for p in codec.split_bytes(0, 0, &g) {
            assembler.feed(&p, &mut row).unwrap();
        }
        assert!(assembler.is_complete());

        // Next round, next step: the dedup set and counters must start
        // fresh, so the same sequence numbers land again.
        assembler.begin_round();
        assert!(!assembler.is_complete());
        assert_eq!(assembler.received(), 0);
        assert!(!assembler.sequence_seen(0));
        let next: Vec<f32> = g.iter().map(|x| x + 1.0).collect();
        for p in codec.split_bytes(0, 1, &next) {
            assembler.feed(&p, &mut row).unwrap();
        }
        assert!(assembler.is_complete());
        assert_eq!(assembler.finish_round(&mut row).unwrap(), 0);
        assert_eq!(row, next);
    }

    #[test]
    fn hostile_total_cannot_grow_the_dedup_set() {
        // A Byzantine worker's 56-byte packet, resealed so the checksum is
        // valid, claiming to be packet 2^32 - 2 of 2^32 - 1: no 16-coordinate
        // gradient splits into that many packets, so it is malformed — and
        // rejected before the dedup set sees the sequence number.
        let packets = GradientCodec::new(4).unwrap().split_bytes(0, 0, &gradient(16));
        let hostile = resealed(&packets[0], |b| {
            b[12..16].copy_from_slice(&(u32::MAX - 1).to_le_bytes());
            b[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        });
        let mut assembler = RoundAssembler::new(16);
        assembler.begin_round();
        let seen_words = assembler.seen.capacity();
        let mut row = vec![-2.5f32; 16];
        assert!(matches!(assembler.feed(&hostile, &mut row), Err(NetError::MalformedPacket(_))));
        assert!(row.iter().all(|&v| v == -2.5));
        assert_eq!(assembler.seen.capacity(), seen_words);
        assert!(!assembler.sequence_seen(u32::MAX as usize - 1));
        // The largest total the codec itself can produce still passes.
        let per_coordinate = GradientCodec::new(1).unwrap().split_bytes(0, 0, &gradient(16));
        assert_eq!(assembler.assemble_into(&per_coordinate, &mut row).unwrap(), 0);
    }

    #[test]
    fn stale_epoch_packet_never_fills_a_row() {
        // An epoch-2 fence against an epoch-1 sender: every packet is
        // fenced, no coordinate lands, and the row the caller primed stays
        // byte-identical — the streaming feed path.
        let codec = GradientCodec::new(8).unwrap();
        let g = gradient(20);
        let stale = codec.split_bytes_epoch(0, 0, 1, &g);
        let mut assembler = RoundAssembler::new(20);
        assembler.set_expected_epoch(Some(2));
        assembler.begin_round();
        let mut row = vec![-7.5f32; 20];
        for p in &stale {
            let outcome = assembler.feed(p, &mut row).unwrap();
            assert_eq!(outcome, FeedOutcome::StaleEpoch { packet_epoch: 1, expected_epoch: 2 });
            assert_eq!(outcome.newly_covered(), 0);
            assert!(matches!(outcome, FeedOutcome::StaleEpoch { .. }));
        }
        assert!(row.iter().all(|&v| v == -7.5), "a stale packet must never touch the row");
        assert_eq!(assembler.received(), 0);
        assert_eq!(assembler.stale_rejects(), stale.len());
        assert_eq!(assembler.finish_round(&mut row).unwrap(), 20);

        // Current-epoch packets still land after the stale burst — the
        // fence never poisons the stream reference.
        assembler.begin_round();
        let mut row = vec![0.0f32; 20];
        for p in &stale {
            let outcome = assembler.feed(p, &mut row).unwrap();
            assert!(matches!(outcome, FeedOutcome::StaleEpoch { .. }));
        }
        for p in codec.split_bytes_epoch(0, 0, 2, &g) {
            let outcome = assembler.feed(&p, &mut row).unwrap();
            assert!(!matches!(outcome, FeedOutcome::StaleEpoch { .. }));
        }
        assert!(assembler.is_complete());
        assert_eq!(row, g);
    }

    #[test]
    fn stale_epoch_packet_is_fenced_in_batch_assembly() {
        // assemble_into with a mix of current and stale packets: stale ones
        // are skipped (counted), current ones land, missing = what only the
        // stale packets would have covered.
        let codec = GradientCodec::new(8).unwrap();
        let g = gradient(20);
        let current = codec.split_bytes_epoch(0, 0, 3, &g);
        let stale = codec.split_bytes_epoch(0, 0, 2, &g);
        // Stale copy of packet 1 (coords 8..16) plus current packets 0 and 2.
        let mixed = vec![stale[1].clone(), current[0].clone(), current[2].clone()];
        let mut assembler = RoundAssembler::new(20);
        assembler.set_expected_epoch(Some(3));
        let mut row = vec![0.0f32; 20];
        assert_eq!(assembler.assemble_into(&mixed, &mut row).unwrap(), 8);
        assert_eq!(assembler.stale_rejects(), 1);
        assert!(row[8..16].iter().all(|v| v.is_nan()));
        assert_eq!(row[..8], g[..8]);

        // All-stale round: everything missing, nothing written.
        let mut all_stale_row = vec![5.0f32; 20];
        assert_eq!(assembler.assemble_into(&stale, &mut all_stale_row).unwrap(), 20);
        assert_eq!(assembler.stale_rejects(), stale.len());
        assert!(all_stale_row.iter().all(|v| v.is_nan()));
    }
}
