//! # agg-net — the simulated communication layer
//!
//! The paper modifies TensorFlow's networking stack to add **lossyMPI**, a
//! UDP-based transport that trades reliability for speed, and relies on the
//! Byzantine-resilient GAR above it to absorb whatever the transport loses
//! (§3.3). This crate reproduces that layer as a discrete simulation:
//!
//! * [`packet`] — the wire format: gradients are split into MTU-sized packets
//!   with sequence numbers and a small reliable metadata header, exactly the
//!   scheme the paper describes for packet ordering, sealed with a CRC-32C.
//! * [`link`] — a lossy link model: independent packet drops, reordering and
//!   duplication at configurable rates (the paper injects a 10 % drop rate
//!   with `tc`), plus [`link::ChaosPlan`] — a seeded schedule of dirtier
//!   wire faults (bit flips, truncation, mutated duplicates, reorder
//!   bursts, delay spikes, transient partitions) that the integrity envelope
//!   must catch.
//! * [`assembler`] — [`assembler::RoundAssembler`]: validation and zero-copy
//!   reassembly of whatever arrived straight into a caller-provided arena
//!   row, tracking missing coordinates with a compact bitset.
//! * [`transport`] — the two transports compared in Figure 8:
//!   [`transport::ReliableTransport`] (TCP/gRPC-like: delivers everything,
//!   pays for it with retransmissions and congestion back-off under loss) and
//!   [`transport::LossyTransport`] (UDP/lossyMPI-like: constant speed, lost
//!   coordinates surface according to a [`transport::LossPolicy`]). Both
//!   send in place via [`transport::Transport::send_in_place`]: the gradient
//!   goes out from the arena row it was computed into, and the receiver's
//!   view comes back into the same row, so one training round holds each
//!   gradient once.
//!
//! There is one wire. Every send over the lossy transport takes the same
//! steps: the link draws which packet ids arrive, duplicated and reordered
//! ([`LossyLink::transmit_bytes`]'s draws), the chaos plan draws their
//! damage ([`ChaosPlan::apply`]'s draws, when a plan is installed), then the
//! arrivals are encoded from the row three at a time, damaged as drawn and
//! fed to the assembler's one ingest (verify three packets at a time,
//! validate, scatter; [`RoundAssembler::feed_all`] is that ingest over
//! encoded packets), and [`RoundAssembler::finish_round_with`] fills what
//! never arrived: the `RandomFill` value, or NaN. Retransmit rounds repeat
//! the draws and the feed for the packets still missing, encoding them
//! again from the row. [`GradientCodec::split_bytes_epoch`] encodes a whole
//! split with the same encoder.
//!
//! Nothing here opens real sockets: the parameter-server simulator in
//! `agg-ps` drives these models and charges the returned transfer times to
//! its discrete-event clock.

pub mod assembler;
pub mod error;
pub mod link;
pub mod packet;
pub mod transport;

pub use assembler::{FeedOutcome, RoundAssembler};
pub use error::NetError;
pub use link::{ChaosConfig, ChaosMode, ChaosPlan, ChaosStats, LinkConfig, LinkStats, LossyLink};
pub use packet::{
    crc32, get_f32_slice_le, put_f32_slice_le, reseal_packet_bytes, wire_integrity_error,
    GradientCodec, WIRE_VERSION,
};
pub use transport::{
    LossPolicy, LossyTransport, ReliableTransport, RetransmitConfig, RowTransfer, TransferOutcome,
    Transport,
};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NetError>;
