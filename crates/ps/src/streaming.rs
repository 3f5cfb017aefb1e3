//! The streaming round pipeline: the round's submission arena plus the
//! incremental distance accumulator.
//!
//! The barrier round loop waits for every submission, then starts the
//! O(n²·d) distance work from scratch. The streaming loop inverts that
//! around per-row completion events:
//!
//! * **Per-row distance work.** When a worker's row completes, its distance
//!   contributions against every previously arrived row fold into
//!   [`agg_tensor::StreamingDistances`] immediately, so by the time the
//!   quorum is reached the matrix is one cheap cross-shard fold away.
//!   Bit-identity with the batch kernels is pinned at the tensor layer, so
//!   flipping streaming on or off never changes a round's result.
//! * **One arena.** Training is synchronous (Equation 4): round `t` is
//!   aggregated and applied before round `t + 1` is broadcast, so one
//!   submission arena, resized in place every round, is all a round reads.
//! * **Quorum.** [`QuorumPolicy`] decides when the server stops waiting:
//!   after every worker (the paper's synchronous baseline), after the first
//!   `n − f` arrivals (stragglers are indistinguishable from Byzantine
//!   workers, so a GAR tolerating `f` of them may simply not wait), or after
//!   an explicit count. Late rows are dropped exactly like transport losses
//!   — the round compacts them away — which keeps the quorum semantics
//!   identical whether streaming is on or off.

use crate::{PsError, Result};
use agg_tensor::{DistanceMatrix, GradientBatch, StreamingDistances};
use serde::{Deserialize, Serialize};

/// When the server stops waiting for stragglers and aggregates the round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum QuorumPolicy {
    /// Wait for every worker — the paper's synchronous baseline and the
    /// default.
    #[default]
    All,
    /// Aggregate at the first `n − f` arrivals. A GAR declared to tolerate
    /// `f` Byzantine workers tolerates `f` missing ones just the same, so
    /// the round never waits for the `f` slowest submissions.
    NMinusF,
    /// Aggregate at the first `k` arrivals (clamped to `1..=n`).
    Count(usize),
}

impl QuorumPolicy {
    /// How many arrivals the round waits for under this policy.
    pub fn accept_count(&self, workers: usize, f: usize) -> usize {
        match *self {
            QuorumPolicy::All => workers,
            QuorumPolicy::NMinusF => workers.saturating_sub(f).max(1),
            QuorumPolicy::Count(k) => k.clamp(1, workers),
        }
    }
}

/// Streaming knobs of the round engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct StreamingConfig {
    /// Run distance work per arriving row instead of batch-at-barrier. Off
    /// by default; results are bit-identical either way.
    pub enabled: bool,
    /// When the round stops waiting for stragglers. Applies in both modes —
    /// the quorum semantic is independent of the streaming mechanism.
    pub quorum: QuorumPolicy,
}

/// The submission arena plus (optionally) the incremental distance
/// accumulator — the server-side state of a streaming round.
#[derive(Debug)]
pub struct RoundPipeline {
    arena: GradientBatch,
    distances: Option<StreamingDistances>,
}

impl RoundPipeline {
    /// An empty arena sized for `workers` rows of dimension `dim`.
    pub fn new(dim: usize, workers: usize) -> Self {
        RoundPipeline { arena: GradientBatch::with_capacity(dim, workers), distances: None }
    }

    /// Enables per-row distance accumulation matching the server tier:
    /// `shards == 1` replays the flat pairwise kernel, `shards > 1` the
    /// column-blocked partial pipeline of the sharded aggregator — both
    /// bit-identical to the batch path they replace.
    ///
    /// # Errors
    ///
    /// Returns [`PsError`] when the shard plan cannot be built.
    pub fn enable_distance_streaming(
        &mut self,
        slots: usize,
        dim: usize,
        shards: usize,
    ) -> Result<()> {
        self.distances = Some(if shards > 1 {
            StreamingDistances::sharded(slots, dim, shards).map_err(PsError::from)?
        } else {
            StreamingDistances::flat(slots, dim)
        });
        Ok(())
    }

    /// Whether per-row distance accumulation is active.
    pub fn distance_streaming(&self) -> bool {
        self.distances.is_some()
    }

    /// Prepares the arena for `rows` submissions, resized in place (the
    /// previous round was applied before this one began), and clears the
    /// distance state.
    pub fn begin_round(&mut self, rows: usize) {
        self.arena.resize_rows(rows);
        if let Some(distances) = self.distances.as_mut() {
            distances.reset();
        }
    }

    /// The current round's submission arena.
    pub fn arena(&self) -> &GradientBatch {
        &self.arena
    }

    /// Mutable view of the current round's submission arena (workers deliver
    /// into disjoint rows of it).
    pub fn arena_mut(&mut self) -> &mut GradientBatch {
        &mut self.arena
    }

    /// Per-row completion event: folds the freshly completed arena row into
    /// the distance state against every previously arrived row. A no-op when
    /// distance streaming is disabled.
    ///
    /// # Panics
    ///
    /// Panics when `slot` is out of range or already completed this round
    /// (upstream deduplication is the caller's contract).
    pub fn row_done(&mut self, slot: usize) {
        if let Some(distances) = self.distances.as_mut() {
            distances.row_arrived(&self.arena, slot);
        }
    }

    /// Extracts the distance matrix over the compacted slot set `keep`
    /// (strictly ascending worker slots, all completed). `None` when
    /// distance streaming is disabled — the caller falls back to the batch
    /// kernels.
    pub fn matrix(&self, keep: &[usize]) -> Option<DistanceMatrix> {
        self.distances.as_ref().map(|distances| distances.matrix(keep))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agg_tensor::rng::{gaussian_fill, seeded_rng};

    #[test]
    fn quorum_accept_counts() {
        assert_eq!(QuorumPolicy::All.accept_count(19, 4), 19);
        assert_eq!(QuorumPolicy::NMinusF.accept_count(19, 4), 15);
        assert_eq!(QuorumPolicy::NMinusF.accept_count(3, 5), 1);
        assert_eq!(QuorumPolicy::Count(7).accept_count(19, 4), 7);
        assert_eq!(QuorumPolicy::Count(0).accept_count(19, 4), 1);
        assert_eq!(QuorumPolicy::Count(50).accept_count(19, 4), 19);
        assert_eq!(QuorumPolicy::default(), QuorumPolicy::All);
    }

    #[test]
    fn every_round_reuses_the_one_arena() {
        let mut pipeline = RoundPipeline::new(4, 3);
        pipeline.begin_round(3);
        let first = pipeline.arena().row(0).as_ptr();
        for rows in [3, 2, 3] {
            pipeline.begin_round(rows);
            assert_eq!(pipeline.arena().n(), rows);
            assert_eq!(pipeline.arena().row(0).as_ptr(), first);
        }
    }

    #[test]
    fn streamed_matrix_matches_the_batch_kernel() {
        let mut pipeline = RoundPipeline::new(257, 6);
        pipeline.enable_distance_streaming(6, 257, 1).unwrap();
        assert!(pipeline.distance_streaming());
        let mut rng = seeded_rng(41);
        pipeline.begin_round(6);
        for slot in 0..6 {
            gaussian_fill(&mut rng, pipeline.arena_mut().row_mut(slot), 0.0, 1.0);
        }
        for slot in [4, 1, 5, 0, 3, 2] {
            pipeline.row_done(slot);
        }
        let keep: Vec<usize> = (0..6).collect();
        let streamed = pipeline.matrix(&keep).unwrap();
        let batch = pipeline.arena().pairwise_squared_distances();
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(streamed.get(i, j).to_bits(), batch.get(i, j).to_bits());
            }
        }
    }

    #[test]
    fn matrix_is_none_without_distance_streaming() {
        let mut pipeline = RoundPipeline::new(8, 2);
        pipeline.begin_round(2);
        pipeline.row_done(0); // no-op
        assert!(pipeline.matrix(&[0]).is_none());
    }
}
