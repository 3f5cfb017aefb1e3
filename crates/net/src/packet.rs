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
//! gradient row. [`GradientCodec::split_bytes_epoch`] is the format's only
//! encoder; its only decoder is the header parse inside
//! [`crate::RoundAssembler::feed`], behind [`wire_integrity_error`].

use crate::{NetError, Result};
use bytes::{BufMut, Bytes, BytesMut};

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

/// Software CRC-32C: slicing-by-8, folding one 64-bit chunk per iteration.
fn crc32c_update_sw(mut state: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ state;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        state = CRC32C_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC32C_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC32C_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC32C_TABLES[4][(lo >> 24) as usize]
            ^ CRC32C_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC32C_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC32C_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC32C_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        state = (state >> 8) ^ CRC32C_TABLES[0][((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

/// Hardware CRC-32C: the SSE 4.2 `crc32` instruction, eight bytes per fold.
/// Bit-identical to the software path — the instruction implements exactly
/// the reflected Castagnoli update the tables encode.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_update_hw(state: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut crc = u64::from(state);
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("exact 8-byte chunk"));
        crc = _mm_crc32_u64(crc, word);
    }
    let mut crc = crc as u32;
    for &b in chunks.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
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

/// Computes the wire checksum of one encoded packet occupying
/// `buf[start..]`: CRC32 over the header up to the checksum field, then over
/// the payload after it.
fn wire_checksum(buf: &[u8], start: usize) -> u32 {
    let state = crc32_update(crc32_init(), &buf[start..start + CHECKSUM_OFFSET]);
    crc32_finish(crc32_update(state, &buf[start + HEADER_BYTES..]))
}

/// Patches the checksum field of the packet occupying `buf[start..]` after
/// header and payload have been written (the field must hold a placeholder
/// zero when the checksum is computed — it is excluded from coverage, so any
/// placeholder works, but zero keeps the format canonical).
fn seal_packet(buf: &mut BytesMut, start: usize) {
    let crc = wire_checksum(buf, start);
    buf[start + CHECKSUM_OFFSET..start + HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
}

/// Recomputes the checksum field of an already-encoded packet in place.
/// Receivers reject packets whose stored checksum disagrees with the bytes,
/// so any test (or adversary model) that mutates header fields of a sealed
/// packet must re-seal it to reach the semantic validation layer.
pub fn reseal_packet_bytes(data: &mut [u8]) {
    assert!(data.len() >= HEADER_BYTES, "cannot reseal a short packet");
    data[CHECKSUM_OFFSET..HEADER_BYTES].copy_from_slice(&[0; 4]);
    let crc = wire_checksum(data, 0);
    data[CHECKSUM_OFFSET..HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
}

/// Verifies the integrity envelope of one received wire packet: long enough
/// to hold a header, stamped with the current [`WIRE_VERSION`], and with a
/// CRC32 that matches every byte outside the checksum field. Returns the
/// reason the packet is corrupt, or `None` when it is intact.
pub fn wire_integrity_error(data: &[u8]) -> Option<&'static str> {
    if data.len() < HEADER_BYTES {
        return Some("short header");
    }
    let version = u32::from_le_bytes(
        data[CHECKSUM_OFFSET - 4..CHECKSUM_OFFSET].try_into().expect("4-byte field"),
    );
    if version != WIRE_VERSION {
        return Some("unknown wire version");
    }
    let stored =
        u32::from_le_bytes(data[CHECKSUM_OFFSET..HEADER_BYTES].try_into().expect("4-byte field"));
    if wire_checksum(data, 0) != stored {
        return Some("checksum mismatch");
    }
    None
}

/// Bulk little-endian encode: appends `values` to `buf` in one pass over
/// 4-byte chunks — the reserved region is written in place and the chunked
/// copy vectorises to a straight memcpy on little-endian targets.
pub fn put_f32_slice_le(buf: &mut BytesMut, values: &[f32]) {
    let start = buf.len();
    buf.resize(start + 4 * values.len(), 0);
    for (dst, &v) in buf[start..].chunks_exact_mut(4).zip(values) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Bulk little-endian decode: fills `dst` from `src` in one pass over 4-byte
/// chunks (the inverse of [`put_f32_slice_le`]; NaN payloads round-trip
/// bit-exactly).
///
/// # Panics
///
/// Panics if `src.len() != 4 * dst.len()`.
pub fn get_f32_slice_le(src: &[u8], dst: &mut [f32]) {
    assert_eq!(src.len(), 4 * dst.len(), "byte payload must be 4 bytes per coordinate");
    for (v, raw) in dst.iter_mut().zip(src.chunks_exact(4)) {
        *v = f32::from_le_bytes(raw.try_into().expect("chunks_exact yields 4-byte chunks"));
    }
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

    /// Splits a gradient into **encoded wire packets**: every packet of the
    /// gradient is written into one contiguous `BytesMut` (headers via the
    /// header writers, payload via the bulk [`put_f32_slice_le`] pass) and
    /// handed out as zero-copy [`Bytes`] slices of that single buffer.
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
        let mut buf = BytesMut::with_capacity(self.wire_bytes_total(d));
        let mut bounds = Vec::with_capacity(total);
        let mut write_packet = |seq: usize, chunk: &[f32]| {
            let start = buf.len();
            buf.put_u32_le(worker);
            buf.put_u64_le(step);
            buf.put_u32_le(seq as u32);
            buf.put_u32_le(total as u32);
            buf.put_u32_le((seq * self.coords_per_packet) as u32);
            buf.put_u32_le(chunk.len() as u32);
            buf.put_u32_le(epoch);
            buf.put_u32_le(WIRE_VERSION);
            buf.put_u32_le(0); // checksum placeholder, patched by seal_packet
            put_f32_slice_le(&mut buf, chunk);
            seal_packet(&mut buf, start);
            bounds.push(start..buf.len());
        };
        if d == 0 {
            write_packet(0, &[]);
        } else {
            for (seq, chunk) in gradient.chunks(self.coords_per_packet).enumerate() {
                write_packet(seq, chunk);
            }
        }
        let frozen = buf.freeze();
        bounds.into_iter().map(|range| frozen.slice(range)).collect()
    }
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
        for len in [0, 1, 7, 8, 9, 63, 64, 65, 1021] {
            let slice = &data[..len];
            assert_eq!(
                crc32c_update_sw(crc32_init(), slice),
                crc32_update(crc32_init(), slice),
                "sw/dispatch divergence at len {len}"
            );
        }
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
