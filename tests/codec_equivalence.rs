//! The wire codec's own pin: the byte layout `GradientCodec::split_bytes_epoch`
//! writes, held to a hand-assembled golden vector, and property tests that
//! `RoundAssembler` recovers exactly what arrived — bit for bit, NaN payloads
//! included — under arbitrary packet reordering, duplication and loss, and
//! rejects truncated packets and mixed streams.

use agg_net::{crc32, GradientCodec, NetError, RoundAssembler};
use proptest::prelude::*;

/// One packet of the golden gradient (worker 3, step 7, epoch 5, three
/// packets), assembled field by field in the documented order without
/// touching the codec.
fn golden_packet(sequence: u32, offset: u32, coordinates: &[f32]) -> Vec<u8> {
    let mut header = Vec::new();
    header.extend(3u32.to_le_bytes()); // worker
    header.extend(7u64.to_le_bytes()); // step
    header.extend(sequence.to_le_bytes());
    header.extend(3u32.to_le_bytes()); // total
    header.extend(offset.to_le_bytes());
    header.extend((coordinates.len() as u32).to_le_bytes()); // count
    header.extend(5u32.to_le_bytes()); // epoch
    header.extend(2u32.to_le_bytes()); // wire version
    let payload: Vec<u8> = coordinates.iter().flat_map(|c| c.to_le_bytes()).collect();
    // The checksum covers every byte of the packet except its own field.
    let checksum = crc32(&[header.as_slice(), payload.as_slice()].concat());
    [header, checksum.to_le_bytes().to_vec(), payload].concat()
}

#[test]
fn split_bytes_matches_the_hand_assembled_golden_vector() {
    // The checksum the vector is sealed with is itself pinned: CRC-32C of the
    // ASCII digits 1-9 (RFC 3720 B.4).
    assert_eq!(crc32(b"123456789"), 0xE306_9283);

    let gradient = [1.5f32, f32::NAN, -0.0, f32::MAX, -2.25];
    let golden = [
        golden_packet(0, 0, &gradient[0..2]),
        golden_packet(1, 2, &gradient[2..4]),
        golden_packet(2, 4, &gradient[4..5]),
    ];
    assert_eq!(golden.each_ref().map(Vec::len), [48, 48, 44]);
    // Spot bytes, so the vector cannot drift together with its builder.
    assert_eq!(golden[1][..4], [3, 0, 0, 0], "worker");
    assert_eq!(golden[1][12..16], [1, 0, 0, 0], "sequence");
    assert_eq!(golden[1][20..28], [2, 0, 0, 0, 2, 0, 0, 0], "offset, count");
    assert_eq!(golden[1][40..48], [0, 0, 0, 0x80, 0xFF, 0xFF, 0x7F, 0x7F], "-0.0, f32::MAX");

    let packets = GradientCodec::new(2).unwrap().split_bytes_epoch(3, 7, 5, &gradient);
    assert_eq!(packets.len(), golden.len());
    for (sequence, (packet, expected)) in packets.iter().zip(&golden).enumerate() {
        assert_eq!(packet.as_ref(), expected.as_slice(), "packet {sequence}");
    }
}

/// Wire payloads include everything a malicious worker or a lossy link can
/// produce: normal values, zeros, NaN and both infinities.
fn wire_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        prop::num::f32::ANY,
        prop::num::f32::ZERO,
        Just(f32::NAN),
        Just(f32::INFINITY),
        Just(f32::NEG_INFINITY),
    ]
}

fn gradient() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(wire_f32(), 0..700)
}

proptest! {
    #[test]
    fn assembly_recovers_what_arrived_under_reorder_duplication_and_loss(
        g in gradient(),
        cpp in 1usize..97,
        selection in prop::collection::vec(0usize..1024, 0..40),
    ) {
        let codec = GradientCodec::new(cpp).unwrap();
        let packets = codec.split_bytes(5, 11, &g);
        // An arbitrary multiset of packet indices: drops, duplicates and
        // reorderings all at once.
        let picked: Vec<usize> = selection.iter().map(|i| i % packets.len()).collect();
        let arrivals: Vec<_> = picked.iter().map(|&i| packets[i].clone()).collect();

        let mut assembler = RoundAssembler::new(g.len());
        let mut row = vec![0.0f32; g.len()];
        let missing = assembler.assemble_into(&arrivals, &mut row).unwrap();

        let arrived = |c: usize| picked.contains(&(c / cpp));
        prop_assert_eq!(missing, (0..g.len()).filter(|&c| !arrived(c)).count());
        for (c, (got, sent)) in row.iter().zip(&g).enumerate() {
            let expected = if arrived(c) { *sent } else { f32::NAN };
            prop_assert_eq!(got.to_bits(), expected.to_bits(), "coordinate {}", c);
        }
    }

    #[test]
    fn truncated_packets_are_rejected_as_corrupt(g in gradient(), cut in 0usize..32) {
        let codec = GradientCodec::new(50).unwrap();
        let first = codec.split_bytes(0, 0, &g)[0].clone();
        // Truncate somewhere inside the header or the declared payload.
        let cut = cut.min(first.len().saturating_sub(1));
        let truncated = first.slice(0..cut);
        // A truncation is wire damage: it is skipped and counted, never
        // scattered into the row, and the row stays missing.
        let mut assembler = RoundAssembler::new(g.len());
        let mut row = vec![0.0f32; g.len()];
        let missing = assembler.assemble_into(&[truncated], &mut row).unwrap();
        prop_assert_eq!(missing, g.len());
        prop_assert_eq!(assembler.corrupt_rejects(), 1);
    }

    #[test]
    fn mixed_streams_are_rejected(g in prop::collection::vec(wire_f32(), 1..80)) {
        let codec = GradientCodec::new(16).unwrap();
        let a = codec.split_bytes(0, 0, &g);
        let b = codec.split_bytes(1, 0, &g);
        let mixed: Vec<_> = a.iter().chain(b.iter()).cloned().collect();
        let mut assembler = RoundAssembler::new(g.len());
        let mut row = vec![0.0f32; g.len()];
        prop_assert!(matches!(
            assembler.assemble_into(&mixed, &mut row),
            Err(NetError::InconsistentStream(_))
        ));
    }
}
