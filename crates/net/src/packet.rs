//! The wire format: one gradient as a run of self-describing packets.
//!
//! A gradient of dimension `d` is split into packets carrying at most
//! `coords_per_packet` consecutive `f32` coordinates. Every packet opens with
//! a fixed 40-byte little-endian header — the "reliability scheme for
//! metadata (accompanying gradients) and packets ordering" the paper adds on
//! top of UDP — followed by the payload coordinates:
//!
//! | bytes | field | meaning |
//! |---|---|---|
//! | 0..4 | `worker` | worker that produced the gradient |
//! | 4..12 | `step` | model-update step the gradient belongs to |
//! | 12..16 | `sequence` | 0-based packet id within the gradient |
//! | 16..20 | `total` | number of packets the gradient was split into |
//! | 20..24 | `offset` | index of the first coordinate carried |
//! | 24..28 | `count` | coordinates carried (`4 * count` payload bytes follow) |
//! | 28..32 | `epoch` | membership epoch the sender believed current (0 = static membership) |
//! | 32..36 | `version` | [`WIRE_VERSION`] |
//! | 36..40 | `checksum` | CRC-32C of every other byte of the packet |
//!
//! The payload may be lost, but a delivered packet always knows where its
//! coordinates belong; the epoch stamp lets the receiver fence off late
//! packets from evicted workers; the checksum covers header and payload, so a
//! bit-flipped or truncated packet is rejected instead of scattered into a
//! gradient row.
//!
//! The format has one encoder, which writes a run of up to [`CRC_LANES`]
//! packets, each from its sequence number and the coordinates it carries,
//! and seals the run side by side. [`GradientCodec::split_bytes_epoch`] runs
//! it over a whole split into one buffer; the lossy transport runs it only
//! over the packets that arrive, a run at a time into a few-packet scratch,
//! so no send holds its whole encoded row. Its only decoder is the header
//! parse inside the [`crate::RoundAssembler`] ingest, behind
//! [`wire_integrity_errors`].
//!
//! The checksum is CRC-32C, and it is the one pass over a packet besides the
//! copy itself. A single CRC-32C chain is bound by the `crc32` instruction's
//! latency (three cycles per eight bytes), not by memory. Packets are
//! checksummed independently, so the encoder seals, and the receiver
//! verifies, [`CRC_LANES`] packets at a time: one chain per packet, folded
//! side by side. Over one d = 100 000 split (286 packets of 1 436
//! checksummed bytes, hot in cache) on a 2-vCPU Xeon (Sapphire Rapids class),
//! one chain per packet in turn reads 28–32 µs and three side by side
//! 22–27 µs, headers and verdicts included: the out-of-order core already
//! overlaps consecutive lone chains, so the lanes win about a quarter, not
//! the threefold the latency alone suggests. `cargo bench -p agg-bench
//! --bench net_codec` prints both as `net_crc/{one_chain,three_chains}_100k`.

use crate::{NetError, Result};
use bytes::{Bytes, BytesMut};
use std::ops::Range;

/// Number of header bytes in the wire format: worker (4), step (8),
/// sequence (4), total (4), offset (4), count (4), epoch (4), version (4),
/// checksum (4).
pub const HEADER_BYTES: usize = 4 + 8 + 4 + 4 + 4 + 4 + 4 + 4 + 4;

/// Current wire-format version stamped into every packet header. Version 2
/// added the version and CRC-32C checksum fields; receivers reject any other
/// value as corrupt.
pub const WIRE_VERSION: u32 = 2;

/// Byte offset of the CRC-32C checksum field within the header. The checksum
/// covers every wire byte *except* this field: header bytes
/// `0..CHECKSUM_OFFSET` followed by the payload bytes at `HEADER_BYTES..`.
pub const CHECKSUM_OFFSET: usize = HEADER_BYTES - 4;

/// Reflected CRC-32C (Castagnoli) polynomial. Chosen over the IEEE 802.3
/// polynomial because x86 has computed it in hardware since SSE 4.2 (the
/// `crc32` instruction iSCSI, ext4 and Btrfs ride on), so the per-packet
/// integrity envelope costs a fraction of the payload memcpy instead of a
/// table walk per byte.
const CRC32C_POLY: u32 = 0x82F6_3B78;

/// Slicing-by-8 lookup tables for the software CRC-32C path, built at
/// compile time: table 0 is the classic one-byte-at-a-time table, table `t`
/// advances a byte through `t` further zero bytes, so eight lookups fold
/// eight message bytes per iteration.
const CRC32C_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ CRC32C_POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// Starts a streaming CRC-32C computation (see [`crc32_update`]).
pub fn crc32_init() -> u32 {
    0xFFFF_FFFF
}

/// The whole little-endian 64-bit words of `bytes`, in order.
#[inline(always)]
fn words(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes
        .chunks_exact(8)
        .map(|word| u64::from_le_bytes(word.try_into().expect("chunks_exact yields 8-byte chunks")))
}

/// The three lanes' words zipped together: as many as the shortest lane
/// holds, the stretch the three-chain kernels fold side by side.
#[inline(always)]
fn lane_words(parts: [&[u8]; 3]) -> impl Iterator<Item = [u64; 3]> + '_ {
    words(parts[0]).zip(words(parts[1])).zip(words(parts[2])).map(|((a, b), c)| [a, b, c])
}

/// What each lane holds past the words [`lane_words`] yields.
fn lane_tails(parts: [&[u8]; 3]) -> [&[u8]; 3] {
    let common = parts.iter().map(|p| p.len() / 8).min().unwrap_or(0);
    parts.map(|p| &p[8 * common..])
}

/// One slicing-by-8 fold: eight message bytes (`word`, little-endian) into a
/// CRC-32C state.
#[inline(always)]
fn crc32c_fold_sw(state: u32, word: u64) -> u32 {
    let lo = word as u32 ^ state;
    let hi = (word >> 32) as u32;
    CRC32C_TABLES[7][(lo & 0xFF) as usize]
        ^ CRC32C_TABLES[6][((lo >> 8) & 0xFF) as usize]
        ^ CRC32C_TABLES[5][((lo >> 16) & 0xFF) as usize]
        ^ CRC32C_TABLES[4][(lo >> 24) as usize]
        ^ CRC32C_TABLES[3][(hi & 0xFF) as usize]
        ^ CRC32C_TABLES[2][((hi >> 8) & 0xFF) as usize]
        ^ CRC32C_TABLES[1][((hi >> 16) & 0xFF) as usize]
        ^ CRC32C_TABLES[0][(hi >> 24) as usize]
}

/// Software CRC-32C: slicing-by-8, folding one 64-bit chunk per iteration.
fn crc32c_update_sw(mut state: u32, bytes: &[u8]) -> u32 {
    for word in words(bytes) {
        state = crc32c_fold_sw(state, word);
    }
    for &b in bytes.chunks_exact(8).remainder() {
        state = (state >> 8) ^ CRC32C_TABLES[0][((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

/// [`crc32c_update_sw`] on three independent streams: their common words
/// fold side by side, each tail on its own.
fn crc32c_update_x3_sw(states: [u32; 3], parts: [&[u8]; 3]) -> [u32; 3] {
    let [mut a, mut b, mut c] = states;
    for [x, y, z] in lane_words(parts) {
        a = crc32c_fold_sw(a, x);
        b = crc32c_fold_sw(b, y);
        c = crc32c_fold_sw(c, z);
    }
    let [ta, tb, tc] = lane_tails(parts);
    [crc32c_update_sw(a, ta), crc32c_update_sw(b, tb), crc32c_update_sw(c, tc)]
}

/// Hardware CRC-32C: the SSE 4.2 `crc32` instruction, eight bytes per fold,
/// then four, then one. Bit-identical to the software path — the instruction
/// implements exactly the reflected Castagnoli update the tables encode.
///
/// # Safety
///
/// The CPU must support SSE 4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_update_hw(state: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u32, _mm_crc32_u64, _mm_crc32_u8};
    let mut crc = u64::from(state);
    for word in words(bytes) {
        crc = _mm_crc32_u64(crc, word);
    }
    let mut crc = crc as u32;
    let mut tail = bytes.chunks_exact(8).remainder();
    if let Some((half, rest)) = tail.split_first_chunk::<4>() {
        crc = _mm_crc32_u32(crc, u32::from_le_bytes(*half));
        tail = rest;
    }
    for &b in tail {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

/// [`crc32c_update_hw`] on three independent streams. One `crc32` has a
/// latency of three cycles and a throughput of one per cycle, so a lone
/// chain leaves two thirds of the unit idle; three chains folded side by
/// side fill it, and the common words cost what one chain's did.
///
/// # Safety
///
/// The CPU must support SSE 4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_update_x3_hw(states: [u32; 3], parts: [&[u8]; 3]) -> [u32; 3] {
    use std::arch::x86_64::_mm_crc32_u64;
    let [mut a, mut b, mut c] = states.map(u64::from);
    for [x, y, z] in lane_words(parts) {
        a = _mm_crc32_u64(a, x);
        b = _mm_crc32_u64(b, y);
        c = _mm_crc32_u64(c, z);
    }
    let [ta, tb, tc] = lane_tails(parts);
    [crc32c_update_hw(a as u32, ta), crc32c_update_hw(b as u32, tb), crc32c_update_hw(c as u32, tc)]
}

/// Folds three independent byte streams into three streaming CRC-32C
/// states at once; lane `i` ends exactly where
/// `crc32_update(states[i], parts[i])` would. Lanes may differ in length.
fn crc32_update_x3(states: [u32; 3], parts: [&[u8]; 3]) -> [u32; 3] {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: the sse4.2 feature was just verified at runtime.
            return unsafe { crc32c_update_x3_hw(states, parts) };
        }
    }
    crc32c_update_x3_sw(states, parts)
}

/// Folds `bytes` into a streaming CRC-32C state. Chain over disjoint slices —
/// e.g. header then payload — to checksum them as one logical buffer in the
/// same single-pass style as [`put_f32_slice_le`].
pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        // The detection result is cached in an atomic by std, so the hot
        // path pays one relaxed load before dropping into the instruction.
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: the sse4.2 feature was just verified at runtime.
            return unsafe { crc32c_update_hw(state, bytes) };
        }
    }
    crc32c_update_sw(state, bytes)
}

/// Finishes a streaming CRC-32C computation.
pub fn crc32_finish(state: u32) -> u32 {
    !state
}

/// One-shot CRC-32C of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_finish(crc32_update(crc32_init(), bytes))
}

/// How many packets the wire checksums side by side: one CRC-32C chain per
/// packet, three chains to cover the `crc32` instruction's three-cycle
/// latency.
pub const CRC_LANES: usize = 3;

/// A header-only stand-in for an unused lane of a short batch: its checksum
/// costs five folds and is never read.
const IDLE_LANE: [u8; HEADER_BYTES] = [0; HEADER_BYTES];

/// The wire checksums of [`CRC_LANES`] encoded packets, their chains folded
/// side by side: per packet, CRC-32C over the header up to the checksum
/// field, then over the payload after it. Every packet must hold a whole
/// header; a short batch fills its unused lanes with [`IDLE_LANE`].
fn wire_checksums(lanes: [&[u8]; CRC_LANES]) -> [u32; CRC_LANES] {
    let headers = lanes.map(|p| &p[..CHECKSUM_OFFSET]);
    let payloads = lanes.map(|p| &p[HEADER_BYTES..]);
    crc32_update_x3(crc32_update_x3([crc32_init(); CRC_LANES], headers), payloads).map(crc32_finish)
}

/// Writes the checksum field of every packet in `buf`, [`CRC_LANES`]
/// packets at a time, after their headers and payloads are in place (the
/// field is excluded from coverage, so its placeholder does not matter; the
/// encoder writes zero to keep the format canonical).
fn seal_packets(buf: &mut [u8], packets: &[Range<usize>]) {
    for batch in packets.chunks(CRC_LANES) {
        let mut lanes: [&[u8]; CRC_LANES] = [&IDLE_LANE; CRC_LANES];
        for (lane, range) in lanes.iter_mut().zip(batch) {
            *lane = &buf[range.clone()];
        }
        let sums = wire_checksums(lanes);
        for (range, crc) in batch.iter().zip(sums) {
            let field = range.start + CHECKSUM_OFFSET..range.start + HEADER_BYTES;
            buf[field].copy_from_slice(&crc.to_le_bytes());
        }
    }
}

/// Recomputes the checksum field of an already-encoded packet in place.
/// Receivers reject packets whose stored checksum disagrees with the bytes,
/// so any test (or adversary model) that mutates header fields of a sealed
/// packet must re-seal it to reach the semantic validation layer.
pub fn reseal_packet_bytes(data: &mut [u8]) {
    assert!(data.len() >= HEADER_BYTES, "cannot reseal a short packet");
    data[CHECKSUM_OFFSET..HEADER_BYTES].copy_from_slice(&[0; 4]);
    seal_packets(data, std::slice::from_ref(&(0..data.len())));
}

/// Verifies the integrity envelope of up to [`CRC_LANES`] received wire
/// packets at once, their checksums run side by side. Verdict `i` belongs
/// to `packets[i]`: the reason that packet is corrupt (too short to hold a
/// header, stamped with another [`WIRE_VERSION`], or a CRC-32C that
/// disagrees with every byte outside the checksum field), or `None` when it
/// is intact. Verdicts past `packets.len()` are `None`.
///
/// # Panics
///
/// Panics if `packets.len() > CRC_LANES`.
pub fn wire_integrity_errors<P: AsRef<[u8]>>(packets: &[P]) -> [Option<&'static str>; CRC_LANES] {
    assert!(packets.len() <= CRC_LANES, "at most {CRC_LANES} packets per integrity batch");
    let mut verdicts = [None; CRC_LANES];
    let mut sealed: [&[u8]; CRC_LANES] = [&IDLE_LANE; CRC_LANES];
    for ((verdict, lane), packet) in verdicts.iter_mut().zip(&mut sealed).zip(packets) {
        let data = packet.as_ref();
        if data.len() < HEADER_BYTES {
            *verdict = Some("short header");
        } else if header_word(data, CHECKSUM_OFFSET - 4) != WIRE_VERSION {
            *verdict = Some("unknown wire version");
        } else {
            *lane = data;
        }
    }
    let sums = wire_checksums(sealed);
    for ((verdict, lane), crc) in verdicts.iter_mut().zip(sealed).zip(sums).take(packets.len()) {
        if verdict.is_none() && header_word(lane, CHECKSUM_OFFSET) != crc {
            *verdict = Some("checksum mismatch");
        }
    }
    verdicts
}

/// [`wire_integrity_errors`] for one packet: the reason it is corrupt, or
/// `None` when it is intact.
pub fn wire_integrity_error(data: &[u8]) -> Option<&'static str> {
    wire_integrity_errors(&[data])[0]
}

/// Reads the little-endian `u32` header field at byte offset `at`.
fn header_word(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([data[at], data[at + 1], data[at + 2], data[at + 3]])
}

/// Bulk little-endian encode: appends `values` to `buf` in one pass over
/// 4-byte chunks — the reserved region is written in place and the chunked
/// copy vectorises to a straight memcpy on little-endian targets.
pub fn put_f32_slice_le(buf: &mut BytesMut, values: &[f32]) {
    let start = buf.len();
    buf.resize(start + 4 * values.len(), 0);
    write_f32_slice_le(&mut buf[start..], values);
}

/// [`put_f32_slice_le`] into the first `4 * values.len()` bytes of `dst`.
fn write_f32_slice_le(dst: &mut [u8], values: &[f32]) {
    for (dst, &v) in dst.chunks_exact_mut(4).zip(values) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Bulk little-endian decode: fills `dst` from `src` in one pass over 4-byte
/// chunks (the inverse of [`put_f32_slice_le`]; NaN payloads round-trip
/// bit-exactly) and returns how many of the decoded values are not finite.
/// The count is read off each value's bit pattern (exponent all ones) in the
/// same pass, so the loop still vectorises like a copy.
///
/// # Panics
///
/// Panics if `src.len() != 4 * dst.len()`.
pub fn get_f32_slice_le(src: &[u8], dst: &mut [f32]) -> usize {
    const EXPONENT: u32 = 0x7F80_0000;
    assert_eq!(src.len(), 4 * dst.len(), "byte payload must be 4 bytes per coordinate");
    let mut non_finite = 0usize;
    // u32 lanes keep the count as wide as the data; a block is short enough
    // that the lane count cannot overflow.
    for (dst, src) in dst.chunks_mut(1 << 16).zip(src.chunks(4 << 16)) {
        let mut block = 0u32;
        for (v, raw) in dst.iter_mut().zip(src.chunks_exact(4)) {
            let bits =
                u32::from_le_bytes(raw.try_into().expect("chunks_exact yields 4-byte chunks"));
            block += u32::from(bits & EXPONENT == EXPONENT);
            *v = f32::from_bits(bits);
        }
        non_finite += block as usize;
    }
    non_finite
}

/// Splits gradients into encoded wire packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GradientCodec {
    coords_per_packet: usize,
}

impl GradientCodec {
    /// Creates a codec carrying `coords_per_packet` coordinates per packet.
    ///
    /// The default MTU-style choice is 350 coordinates ≈ 1400 payload bytes.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidConfig`] when `coords_per_packet == 0`.
    pub fn new(coords_per_packet: usize) -> Result<Self> {
        if coords_per_packet == 0 {
            return Err(NetError::InvalidConfig("coords_per_packet must be positive".to_string()));
        }
        Ok(GradientCodec { coords_per_packet })
    }

    /// The codec used throughout the experiments (≈1.4 kB payload per
    /// packet, a typical Ethernet MTU).
    pub fn default_mtu() -> Self {
        GradientCodec { coords_per_packet: 350 }
    }

    /// Coordinates carried per packet.
    pub fn coords_per_packet(&self) -> usize {
        self.coords_per_packet
    }

    /// Number of packets a gradient of dimension `d` splits into (a
    /// zero-dimensional gradient still costs one metadata-only packet).
    pub fn packet_count(&self, d: usize) -> usize {
        d.div_ceil(self.coords_per_packet).max(1)
    }

    /// Total wire bytes (headers + payload) of a gradient of dimension `d` —
    /// the summed length of a split, without materialising any packet.
    pub fn wire_bytes_total(&self, d: usize) -> usize {
        self.packet_count(d) * HEADER_BYTES + 4 * d
    }

    /// The coordinates packet `seq` of a `d`-coordinate gradient carries.
    fn packet_coords(&self, d: usize, seq: usize) -> Range<usize> {
        let offset = (seq * self.coords_per_packet).min(d);
        offset..(offset + self.coords_per_packet).min(d)
    }

    /// Wire length (header + payload) of packet `seq` of a `d`-coordinate
    /// gradient, known from the sequence number alone.
    pub(crate) fn packet_len(&self, d: usize, seq: usize) -> usize {
        HEADER_BYTES + 4 * self.packet_coords(d, seq).len()
    }

    /// The wire's one encoder: writes packets `seqs` (at most
    /// [`CRC_LANES`]) of `gradient` back to back from the front of `buf`,
    /// headers via the field writers and payloads via the bulk
    /// little-endian pass, seals them side by side while they are in cache,
    /// and returns each packet's byte range in `buf` (lanes past
    /// `seqs.len()` are empty). A packet's bytes depend only on the stamp,
    /// its sequence number and the coordinates it carries, so any packet
    /// can be encoded again, alone or in any run, with the same bytes.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`CRC_LANES`] packets, a sequence
    /// number is past the split, or `buf` cannot hold the run.
    pub(crate) fn encode_run(
        &self,
        stamp: PacketStamp,
        gradient: &[f32],
        seqs: &[usize],
        buf: &mut [u8],
    ) -> [Range<usize>; CRC_LANES] {
        assert!(seqs.len() <= CRC_LANES, "at most {CRC_LANES} packets per sealed run");
        let d = gradient.len();
        let total = self.packet_count(d);
        let mut ranges: [Range<usize>; CRC_LANES] = std::array::from_fn(|_| 0..0);
        let mut at = 0;
        for (range, &seq) in ranges.iter_mut().zip(seqs) {
            assert!(seq < total, "packet {seq} of a {total}-packet split");
            let coords = self.packet_coords(d, seq);
            let fields = [
                &stamp.worker.to_le_bytes()[..],
                &stamp.step.to_le_bytes(),
                &(seq as u32).to_le_bytes(),
                &(total as u32).to_le_bytes(),
                &(coords.start as u32).to_le_bytes(),
                &(coords.len() as u32).to_le_bytes(),
                &stamp.epoch.to_le_bytes(),
                &WIRE_VERSION.to_le_bytes(),
                // Checksum placeholder, patched by seal_packets.
                &[0; 4],
            ];
            let packet = &mut buf[at..at + HEADER_BYTES + 4 * coords.len()];
            let mut field_at = 0;
            for field in fields {
                packet[field_at..field_at + field.len()].copy_from_slice(field);
                field_at += field.len();
            }
            write_f32_slice_le(&mut packet[HEADER_BYTES..], &gradient[coords]);
            *range = at..at + packet.len();
            at = range.end;
        }
        seal_packets(buf, &ranges[..seqs.len()]);
        ranges
    }

    /// Splits a gradient into **encoded wire packets**: every packet of the
    /// gradient is written into one contiguous `BytesMut` by the wire's
    /// encoder, [`CRC_LANES`] packets at a time, and handed out as zero-copy
    /// [`Bytes`] slices of that single buffer (freezing it moves the buffer,
    /// it does not copy it). The lossy transport never builds this buffer:
    /// it encodes only the packets that arrive, a run at a time, with the
    /// same encoder and the same bytes.
    ///
    /// Packets are stamped with epoch 0 (static membership); see
    /// [`GradientCodec::split_bytes_epoch`].
    pub fn split_bytes(&self, worker: u32, step: u64, gradient: &[f32]) -> Vec<Bytes> {
        self.split_bytes_epoch(worker, step, 0, gradient)
    }

    /// [`GradientCodec::split_bytes`] with an explicit membership epoch
    /// stamped into every packet header.
    pub fn split_bytes_epoch(
        &self,
        worker: u32,
        step: u64,
        epoch: u32,
        gradient: &[f32],
    ) -> Vec<Bytes> {
        let d = gradient.len();
        let total = self.packet_count(d);
        let stamp = PacketStamp { worker, step, epoch };
        let mut buf = BytesMut::with_capacity(self.wire_bytes_total(d));
        buf.resize(self.wire_bytes_total(d), 0);
        let mut bounds = Vec::with_capacity(total);
        let mut at = 0;
        let seqs: Vec<usize> = (0..total).collect();
        for run in seqs.chunks(CRC_LANES) {
            let ranges = self.encode_run(stamp, gradient, run, &mut buf[at..]);
            for range in &ranges[..run.len()] {
                bounds.push(at + range.start..at + range.end);
            }
            at += ranges[run.len() - 1].end;
        }
        let frozen = buf.freeze();
        bounds.into_iter().map(|range| frozen.slice(range)).collect()
    }
}

/// The sender's identity every packet of one gradient carries in its header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PacketStamp {
    /// Worker that produced the gradient.
    pub(crate) worker: u32,
    /// Model-update step the gradient belongs to.
    pub(crate) step: u64,
    /// Membership epoch the sender believed current.
    pub(crate) epoch: u32,
}

impl Default for GradientCodec {
    fn default() -> Self {
        GradientCodec::default_mtu()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FeedOutcome, RoundAssembler};

    fn gradient(d: usize) -> Vec<f32> {
        (0..d).map(|i| i as f32).collect()
    }

    /// Reads the little-endian `u32` header field at byte offset `at`.
    fn field(packet: &[u8], at: usize) -> u32 {
        u32::from_le_bytes(packet[at..at + 4].try_into().unwrap())
    }

    #[test]
    fn encode_decode_round_trip() {
        let g = [1.5f32, -2.5, f32::NAN];
        let packets = GradientCodec::new(8).unwrap().split_bytes_epoch(3, 42, 6, &g);
        assert_eq!(packets.len(), 1);
        assert_eq!(packets[0].len(), HEADER_BYTES + 12);
        // Decoded behind a fence on the stamped epoch, so the stamp is read
        // back too.
        let mut assembler = RoundAssembler::new(3);
        assembler.set_expected_epoch(Some(6));
        let mut row = [0.0f32; 3];
        assert_eq!(assembler.assemble_into(&packets, &mut row).unwrap(), 0);
        assert_eq!(assembler.stale_rejects(), 0);
        assert_eq!(row.map(f32::to_bits), g.map(f32::to_bits));
    }

    #[test]
    fn decode_rejects_truncation() {
        let encoded = GradientCodec::new(10).unwrap().split_bytes(0, 0, &[1.0; 10])[0].clone();
        let mut assembler = RoundAssembler::new(10);
        assembler.begin_round();
        let mut row = [0.0f32; 10];
        for cut in [10, HEADER_BYTES + 4] {
            let truncated = encoded.slice(0..cut);
            assert!(wire_integrity_error(&truncated).is_some());
            assert!(assembler.feed(&truncated, &mut row).unwrap().is_corrupt());
        }
        assert_eq!(row, [0.0f32; 10]);
    }

    #[test]
    fn split_covers_every_coordinate_exactly_once() {
        let codec = GradientCodec::new(10).unwrap();
        let g = gradient(35);
        let packets = codec.split_bytes(1, 5, &g);
        assert_eq!(packets.len(), 4);
        assert_eq!(packets.len(), codec.packet_count(35));
        assert_eq!(packets.iter().map(Bytes::len).sum::<usize>(), codec.wire_bytes_total(35));
        let mut next = 0u32;
        for (seq, p) in packets.iter().enumerate() {
            assert_eq!(field(p, 12), seq as u32, "sequence");
            assert_eq!(field(p, 16), 4, "total");
            assert_eq!(field(p, 20), next, "offset continues where the last packet ended");
            assert_eq!(p.len(), HEADER_BYTES + 4 * field(p, 24) as usize);
            next += field(p, 24);
        }
        assert_eq!(next, 35);
        assert_eq!(field(&packets[3], 24), 5);
        let mut row = vec![-1.0f32; 35];
        assert_eq!(RoundAssembler::new(35).assemble_into(&packets, &mut row).unwrap(), 0);
        assert_eq!(row, g);
    }

    #[test]
    fn a_nacked_packet_encoded_again_from_a_partly_assembled_row_is_the_split_packet() {
        // In place, the row the sender encodes from is the row the receiver
        // assembles into. Accepted packets write the row's own bits back
        // (quiet and signalling NaNs, -0.0, subnormals and infinities
        // included), so the packets still missing encode from it exactly as
        // the split encoded them from the gradient, in a run or alone.
        let codec = GradientCodec::new(7).unwrap();
        let g: Vec<f32> = (0..40u32)
            .map(|i| match i % 5 {
                0 => f32::from_bits(0x7FC0_0000 | i),
                1 => -0.0,
                2 => f32::from_bits(0x7F80_0001 + i),
                3 => f32::from_bits(1 + i),
                _ => f32::NEG_INFINITY,
            })
            .collect();
        let split = codec.split_bytes_epoch(4, 9, 2, &g);
        assert_eq!(split.len(), 6);
        let mut row = g.clone();
        let mut assembler = RoundAssembler::new(g.len());
        assembler.begin_round();
        for seq in [5, 0, 2, 5] {
            assert!(matches!(
                assembler.feed(&split[seq], &mut row),
                Ok(FeedOutcome::Accepted { .. })
            ));
        }
        assert_eq!(
            row.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            g.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        let nacked: Vec<usize> =
            (0..split.len()).filter(|&s| !assembler.sequence_seen(s)).collect();
        assert_eq!(nacked, [1, 3, 4]);
        let stamp = PacketStamp { worker: 4, step: 9, epoch: 2 };
        let mut buf = vec![0u8; CRC_LANES * (HEADER_BYTES + 4 * 7)];
        let ranges = codec.encode_run(stamp, &row, &nacked, &mut buf);
        for (range, &seq) in ranges.iter().zip(&nacked) {
            assert_eq!(&buf[range.clone()], &split[seq][..], "packet {seq} in a run");
        }
        for seq in [5, 3] {
            let [alone, ..] = codec.encode_run(stamp, &row, &[seq], &mut buf);
            assert_eq!(&buf[alone], &split[seq][..], "packet {seq} alone");
        }
    }

    #[test]
    fn empty_gradient_still_produces_a_packet() {
        // A zero-dimensional gradient costs one header-only packet, so the
        // receiver learns the step happened.
        let packets = GradientCodec::default().split_bytes(2, 9, &[]);
        assert_eq!(packets.len(), 1);
        assert_eq!(packets[0].len(), HEADER_BYTES);
        assert_eq!((field(&packets[0], 12), field(&packets[0], 16)), (0, 1));
        assert_eq!(RoundAssembler::new(0).assemble_into(&packets, &mut []).unwrap(), 0);
    }

    #[test]
    fn epoch_stamp_round_trips_through_both_split_paths() {
        let codec = GradientCodec::new(8).unwrap();
        let g = gradient(20);
        assert!(codec.split_bytes_epoch(1, 2, 7, &g).iter().all(|p| field(p, 28) == 7));
        // The epoch-less entry point stamps the static-membership epoch 0.
        assert!(codec.split_bytes(1, 2, &g).iter().all(|p| field(p, 28) == 0));
    }

    #[test]
    fn zero_coords_per_packet_is_rejected() {
        assert!(GradientCodec::new(0).is_err());
        assert_eq!(GradientCodec::default().coords_per_packet(), 350);
    }

    #[test]
    fn crc32c_matches_the_castagnoli_reference_vector() {
        // The canonical CRC-32C check value for the ASCII digits 1-9 (the
        // same vector iSCSI pins, RFC 3720 B.4).
        assert_eq!(crc32(b"123456789"), 0xE306_9283);
        // Streaming over split slices equals the one-shot result.
        let state = crc32_update(crc32_init(), b"1234");
        assert_eq!(crc32_finish(crc32_update(state, b"56789")), 0xE306_9283);
    }

    #[test]
    fn software_crc32c_agrees_with_the_dispatched_path() {
        // Exercise every chunk-remainder shape across the slicing-by-8
        // boundary so the software fallback and the hardware instruction
        // can never silently disagree on any platform.
        let data: Vec<u8> = (0..=255u8).cycle().take(1021).collect();
        for len in [0, 1, 3, 4, 5, 7, 8, 9, 12, 13, 15, 63, 64, 65, 1021] {
            let slice = &data[..len];
            assert_eq!(
                crc32c_update_sw(crc32_init(), slice),
                crc32_update(crc32_init(), slice),
                "sw/dispatch divergence at len {len}"
            );
        }
    }

    /// Lengths around every word and tail boundary, a wire header's 36
    /// checksummed bytes, and a full packet's 1 436.
    const LANE_LENGTHS: [usize; 20] =
        [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 36, 1436];

    #[test]
    fn three_chains_equal_one_chain_on_both_paths() {
        let data: Vec<u8> = (0..3 * 1436).map(|i| (i * 131 % 251) as u8).collect();
        let lane = |l: usize, len: usize| &data[l * 1436..l * 1436 + len];
        // Three distinct start states, so a lane mixed up with another shows.
        let states = [crc32_init(), 0x1234_5678, 0x0BAD_F00D];
        for &a in &LANE_LENGTHS {
            for &b in &LANE_LENGTHS {
                for &c in &LANE_LENGTHS {
                    let parts = [lane(0, a), lane(1, b), lane(2, c)];
                    let one_chain = [0, 1, 2].map(|l| crc32c_update_sw(states[l], parts[l]));
                    let lengths = (a, b, c);
                    assert_eq!(crc32c_update_x3_sw(states, parts), one_chain, "sw {lengths:?}");
                    assert_eq!(crc32_update_x3(states, parts), one_chain, "dispatch {lengths:?}");
                    #[cfg(target_arch = "x86_64")]
                    {
                        if std::arch::is_x86_feature_detected!("sse4.2") {
                            // SAFETY: the sse4.2 feature was just verified
                            // at runtime.
                            let (x3, single) = unsafe {
                                (
                                    crc32c_update_x3_hw(states, parts),
                                    [0, 1, 2].map(|l| crc32c_update_hw(states[l], parts[l])),
                                )
                            };
                            assert_eq!(single, one_chain, "hw one chain {lengths:?}");
                            assert_eq!(x3, one_chain, "hw three chains {lengths:?}");
                        }
                    }
                }
            }
        }
    }

    /// `count` sealed packets of `coords` coordinates each (the last one
    /// shorter), as one split.
    fn split_of(count: usize, coords: usize) -> Vec<Bytes> {
        let g: Vec<f32> = (0..count * coords - coords / 2).map(|i| i as f32 * 0.25).collect();
        GradientCodec::new(coords).unwrap().split_bytes_epoch(7, 11, 3, &g)
    }

    #[test]
    fn batched_sealing_and_verdicts_equal_the_batch_of_one() {
        // Splits of 1..=4 packets seal in batches of three (4 = one full
        // batch plus a tail of one); each packet must carry exactly the
        // checksum a lone reseal computes, and the batched verdicts over any
        // 0..=3 of them must equal the verdicts one packet at a time.
        for count in 1..=4 {
            let packets = split_of(count, 359); // 1 436 payload bytes each
            assert_eq!(packets.len(), count);
            for p in &packets {
                let mut alone = p.to_vec();
                reseal_packet_bytes(&mut alone);
                assert_eq!(&alone[..], &p[..], "{count}-packet split");
            }
            let mut hostile: Vec<Bytes> = packets.clone();
            hostile.push(packets[0].slice(0..HEADER_BYTES - 1));
            hostile.push(packets[count - 1].slice(0..HEADER_BYTES + 8));
            let mut flipped = packets[0].to_vec();
            flipped[HEADER_BYTES + 3] ^= 4;
            hostile.push(Bytes::from(flipped));
            for start in 0..hostile.len() {
                for len in 0..=CRC_LANES.min(hostile.len() - start) {
                    let batch = &hostile[start..start + len];
                    let verdicts = wire_integrity_errors(batch);
                    for (i, verdict) in verdicts.iter().enumerate() {
                        let alone = batch.get(i).and_then(|p| wire_integrity_error(p));
                        assert_eq!(*verdict, alone, "batch {start}+{len}, lane {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn decode_counts_non_finite_values_by_bit_pattern() {
        let values = [
            1.0f32,
            f32::NAN,
            -0.0,
            f32::INFINITY,
            f32::MAX,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            f32::from_bits(0x7F80_0001), // signalling NaN
            f32::from_bits(0xFFFF_FFFF), // negative quiet NaN, all bits set
            f32::from_bits(0x0000_0001), // smallest subnormal
        ];
        let mut buf = BytesMut::new();
        put_f32_slice_le(&mut buf, &values);
        let mut decoded = [0.0f32; 10];
        assert_eq!(get_f32_slice_le(&buf, &mut decoded), 5);
        assert_eq!(decoded.map(f32::to_bits), values.map(f32::to_bits));
        assert_eq!(get_f32_slice_le(&[], &mut []), 0);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let encoded =
            GradientCodec::new(4).unwrap().split_bytes_epoch(1, 3, 2, &[0.5, -1.5, 2.0])[0].clone();
        assert!(wire_integrity_error(&encoded).is_none());
        let mut assembler = RoundAssembler::new(3);
        assembler.begin_round();
        let mut row = [7.0f32; 3];
        for byte in 0..encoded.len() {
            for bit in 0..8 {
                let mut flipped = encoded.to_vec();
                flipped[byte] ^= 1 << bit;
                // Flips inside the checksum field desynchronise the stored
                // value; flips anywhere else change the computed CRC. Either
                // way the packet must be rejected (CRC32 detects all
                // single-bit errors).
                assert!(
                    wire_integrity_error(&flipped).is_some(),
                    "bit {bit} of byte {byte} flipped undetected"
                );
                assert!(matches!(
                    assembler.feed(&Bytes::from(flipped), &mut row),
                    Ok(FeedOutcome::Corrupt { .. })
                ));
            }
        }
        assert_eq!(row, [7.0f32; 3]);
    }

    #[test]
    fn unknown_wire_version_is_rejected() {
        let mut v1 = GradientCodec::new(4).unwrap().split_bytes(0, 0, &[1.0])[0].to_vec();
        v1[CHECKSUM_OFFSET - 4..CHECKSUM_OFFSET].copy_from_slice(&1u32.to_le_bytes());
        reseal_packet_bytes(&mut v1);
        assert_eq!(wire_integrity_error(&v1), Some("unknown wire version"));
    }

    #[test]
    fn reseal_restores_integrity_after_header_mutation() {
        let g = gradient(16);
        let mut mutated = GradientCodec::new(8).unwrap().split_bytes(4, 8, &g)[1].to_vec();
        mutated[12..16].copy_from_slice(&u32::MAX.to_le_bytes()); // sequence
        assert_eq!(wire_integrity_error(&mutated), Some("checksum mismatch"));
        reseal_packet_bytes(&mut mutated);
        assert!(wire_integrity_error(&mutated).is_none());
        assert_eq!(field(&mutated, 12), u32::MAX);
    }

    #[test]
    fn appended_garbage_breaks_the_checksum() {
        let mut bytes =
            GradientCodec::new(4).unwrap().split_bytes(0, 0, &[1.0, 2.0, 3.0])[0].to_vec();
        assert!(wire_integrity_error(&bytes).is_none());
        bytes.push(0xAB);
        assert!(wire_integrity_error(&bytes).is_some());
    }
}
