//! `RoundAssembler::feed` is where bytes from a possibly Byzantine worker
//! enter the server. Whatever arrives — garbage, wire damage, or packets
//! resealed around hostile header fields — a feed never panics, never writes
//! outside the range an accepted header names, never writes at all unless it
//! accepts, and keeps the completion accounting exact.
//!
//! 256 seeded cases by default; `PROPTEST_CASES=<n>` sizes a longer run.

use agg_net::packet::HEADER_BYTES;
use agg_net::{reseal_packet_bytes, FeedOutcome, GradientCodec, NetError, RoundAssembler};
use bytes::Bytes;
use proptest::prelude::*;
use std::collections::BTreeSet;

const D: usize = 53;
const EPOCH: u32 = 5;
const SENTINEL: f32 = -7.25;

/// Byte offsets of the header fields a hostile sender overwrites: worker,
/// step (low half), sequence, total, offset, count, epoch.
const FIELDS: [usize; 7] = [0, 4, 12, 16, 20, 24, 28];

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(256)
}

/// One arrival, as a recipe over the honest packets of the round.
#[derive(Debug, Clone)]
enum Arrival {
    Honest(usize),
    Garbage(Vec<u8>),
    /// An honest packet with 1–3 flipped bits.
    Flipped(usize, Vec<usize>),
    /// An honest packet cut to a strictly shorter prefix.
    Truncated(usize, usize),
    /// An honest packet with header fields overwritten, then resealed so the
    /// checksum is valid again.
    Resealed(usize, Vec<(usize, u32)>),
}

impl Arrival {
    fn bytes(&self, honest: &[Bytes]) -> Bytes {
        let base = |i: &usize| honest[i % honest.len()].to_vec();
        match self {
            Arrival::Honest(i) => honest[i % honest.len()].clone(),
            Arrival::Garbage(bytes) => Bytes::from(bytes.clone()),
            Arrival::Flipped(i, bits) => {
                let mut raw = base(i);
                // Distinct positions, or two flips of one bit cancel out.
                for bit in bits.iter().map(|bit| bit % (raw.len() * 8)).collect::<BTreeSet<_>>() {
                    raw[bit / 8] ^= 1 << (bit % 8);
                }
                Bytes::from(raw)
            }
            Arrival::Truncated(i, keep) => {
                let raw = base(i);
                Bytes::from(raw[..keep % raw.len()].to_vec())
            }
            Arrival::Resealed(i, overwrites) => {
                let mut raw = base(i);
                for (field, value) in overwrites {
                    let at = FIELDS[field % FIELDS.len()];
                    raw[at..at + 4].copy_from_slice(&value.to_le_bytes());
                }
                reseal_packet_bytes(&mut raw);
                Bytes::from(raw)
            }
        }
    }

    fn is_wire_damage(&self) -> bool {
        matches!(self, Arrival::Garbage(_) | Arrival::Flipped(..) | Arrival::Truncated(..))
    }
}

/// Small values pass validation often enough to reach the scatter; the rest
/// probe the far end of every field.
fn hostile_u32() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..64, 0u32..u32::MAX, Just(u32::MAX - 1), Just(u32::MAX)]
}

fn resealed() -> impl Strategy<Value = Arrival> {
    (0usize..64, prop::collection::vec((0usize..FIELDS.len(), hostile_u32()), 1..=3))
        .prop_map(|(i, overwrites)| Arrival::Resealed(i, overwrites))
}

/// `prop_oneof!` picks uniformly, so honest and resealed arrivals are listed
/// twice to outweigh plain wire damage.
fn arrival() -> impl Strategy<Value = Arrival> {
    prop_oneof![
        (0usize..64).prop_map(Arrival::Honest),
        (0usize..64).prop_map(Arrival::Honest),
        prop::collection::vec(0u8..255, 0..=200).prop_map(Arrival::Garbage),
        (0usize..64, prop::collection::vec(0usize..1 << 20, 1..=3))
            .prop_map(|(i, bits)| Arrival::Flipped(i, bits)),
        (0usize..64, 0usize..1 << 20).prop_map(|(i, keep)| Arrival::Truncated(i, keep)),
        resealed(),
        resealed(),
    ]
}

fn field(packet: &[u8], at: usize) -> usize {
    u32::from_le_bytes(packet[at..at + 4].try_into().unwrap()) as usize
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn feed_survives_hostile_bytes(arrivals in prop::collection::vec(arrival(), 0..48)) {
        let g: Vec<f32> = (0..D).map(|i| i as f32 + 0.5).collect();
        let honest = GradientCodec::new(7).unwrap().split_bytes_epoch(2, 9, EPOCH, &g);
        let mut assembler = RoundAssembler::new(D);
        assembler.set_expected_epoch(Some(EPOCH));
        assembler.begin_round();
        let mut row = vec![SENTINEL; D];
        let mut covered = [false; D];
        let mut accepted_ids = BTreeSet::new();

        for arrival in &arrivals {
            let packet = arrival.bytes(&honest);
            let before = bits(&row);
            let outcome = assembler.feed(&packet, &mut row);
            match &outcome {
                Ok(FeedOutcome::Accepted { newly_covered }) => {
                    let (sequence, total) = (field(&packet, 12), field(&packet, 16));
                    let (offset, count) = (field(&packet, 20), field(&packet, 24));
                    prop_assert!(offset + count <= D, "accepted {}..{}", offset, offset + count);
                    prop_assert!(sequence < total && total <= D, "accepted {}/{}", sequence, total);
                    // Only the first delivery of a packet id is written.
                    let first = accepted_ids.insert(sequence);
                    let written = if first { offset..offset + count } else { 0..0 };
                    let mut newly = 0;
                    for c in 0..D {
                        if written.contains(&c) {
                            let at = HEADER_BYTES + 4 * (c - offset);
                            prop_assert_eq!(row[c].to_le_bytes().as_slice(), &packet[at..at + 4]);
                            newly += usize::from(!covered[c]);
                            covered[c] = true;
                        } else {
                            prop_assert_eq!(row[c].to_bits(), before[c], "coordinate {} moved", c);
                        }
                    }
                    prop_assert_eq!(*newly_covered, newly);
                }
                Ok(FeedOutcome::Corrupt { .. })
                | Ok(FeedOutcome::StaleEpoch { .. })
                | Err(NetError::MalformedPacket(_))
                | Err(NetError::InconsistentStream(_)) => {
                    prop_assert_eq!(bits(&row), before, "{:?} wrote to the row", outcome);
                }
                Err(other) => panic!("unexpected feed error {other:?}"),
            }
            if arrival.is_wire_damage() {
                prop_assert!(matches!(outcome, Ok(FeedOutcome::Corrupt { .. })), "{:?}", arrival);
            }
            prop_assert_eq!(assembler.received(), covered.iter().filter(|&&c| c).count());
            prop_assert_eq!(assembler.is_complete(), assembler.received() == D);
        }

        let missing = assembler.finish_round(&mut row).unwrap();
        prop_assert_eq!(missing, covered.iter().filter(|&&c| !c).count());
        for c in 0..D {
            prop_assert_eq!(row[c].is_nan(), !covered[c], "coordinate {}", c);
        }
    }
}
