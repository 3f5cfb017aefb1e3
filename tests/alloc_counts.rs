//! Heap traffic of the engine, counted by this binary's own global
//! allocator: calls, bytes requested, and the live and peak live bytes.
//!
//! The counters are process-wide, so the binary holds one `#[test]`, which
//! runs its measurements one after another.
//!
//! * **Building the engine.** At the `paper19` shape (4 000 × 256 Gaussian
//!   blobs, d = 102 538, n = 19), the peak of live bytes while the data are
//!   built (`ExperimentKind::build`, the first step of
//!   `SyncTrainingEngine::new`), and while the whole engine is, exceeds the
//!   live bytes once it returns by less than one copy of the dataset: the
//!   data are drawn into their final buffer and split by moving it.
//! * **A round.** `alloc.count_per_round` and `alloc.bytes_per_round` after
//!   warm-up, at the `paper19`, `gar19_bulyan` and `wire19_lossy` shapes:
//!   the allocations of a run of `WARM + MEASURED` rounds minus those of a
//!   run of `WARM` rounds (same seed, so the first rounds are the same), over
//!   `MEASURED`. Printed (`--nocapture`), not asserted: they are the
//!   baseline the in-place gradient stage is measured against.

use agg_attacks::AttackKind;
use agg_core::{GarConfig, GarKind};
use agg_net::{LinkConfig, LossPolicy};
use agg_ps::{ExperimentKind, RunnerConfig, SyncTrainingEngine, TransportKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static CALLS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting every allocation and reallocation.
struct Counting;

impl Counting {
    fn grew(&self, by: usize) {
        let live = LIVE.fetch_add(by, Relaxed) + by;
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            CALLS.fetch_add(1, Relaxed);
            BYTES.fetch_add(layout.size(), Relaxed);
            self.grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            CALLS.fetch_add(1, Relaxed);
            BYTES.fetch_add(layout.size(), Relaxed);
            self.grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            CALLS.fetch_add(1, Relaxed);
            BYTES.fetch_add(new_size, Relaxed);
            if new_size >= layout.size() {
                self.grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Rounds run before the measured ones, and the measured rounds.
const WARM: u64 = 2;
const MEASURED: u64 = 4;

/// One copy of the `paper19` dataset: 4 000 samples × 256 `f32` features.
const DATASET_BYTES: usize = 4_000 * 256 * 4;

/// The benchmark's workload of this name, for `rounds` rounds, with one
/// evaluation before the first round and one after the last.
fn workload(name: &str, rounds: u64) -> RunnerConfig {
    let base = RunnerConfig {
        experiment: ExperimentKind::MlpBlobs {
            input_dim: 256,
            hidden: 384,
            classes: 10,
            samples: 4000,
        },
        workers: 19,
        max_steps: rounds,
        eval_every: 1_000,
        seed: 42,
        ..RunnerConfig::quick_default()
    };
    match name {
        "paper19" => RunnerConfig {
            gar: GarConfig::new(GarKind::MultiKrum, 4),
            byzantine_count: 4,
            attack: AttackKind::SignFlip,
            batch_size: 25,
            ..base
        },
        "gar19_bulyan" => {
            RunnerConfig { gar: GarConfig::new(GarKind::Bulyan, 4), batch_size: 2, ..base }
        }
        "wire19_lossy" => RunnerConfig {
            gar: GarConfig::new(GarKind::Average, 0),
            transport: TransportKind::Lossy { policy: LossPolicy::RandomFill },
            lossy_links: 19,
            link: LinkConfig::datacenter().with_drop_rate(0.10),
            batch_size: 1,
            ..base
        },
        other => unreachable!("no workload {other}"),
    }
}

/// Allocation calls and bytes of building and running `config`'s engine.
fn run_counts(config: RunnerConfig) -> (usize, usize) {
    let (calls, bytes) = (CALLS.load(Relaxed), BYTES.load(Relaxed));
    let mut engine = SyncTrainingEngine::new(config).unwrap();
    engine.run().unwrap();
    (CALLS.load(Relaxed) - calls, BYTES.load(Relaxed) - bytes)
}

/// Live bytes after `build` returns, and how far the live bytes peaked above
/// that while it ran.
fn peak_over_kept<T>(build: impl FnOnce() -> T) -> (usize, usize) {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let built = build();
    let (peak, after) = (PEAK.load(Relaxed), LIVE.load(Relaxed));
    drop(built);
    (after - before, peak - after)
}

#[test]
fn engine_allocations() {
    // `SyncTrainingEngine::new` builds the data first and then reserves the
    // 7.8 MB gradient arena, which is live when it returns, so its own peak
    // cannot show a transient copy of the dataset: the data build can.
    let config = workload("paper19", 1);
    let (kept, over) = peak_over_kept(|| config.experiment.build(config.seed).unwrap());
    println!("alloc.data_build_kept_bytes {kept} alloc.data_build_peak_over_kept_bytes {over}");
    assert!(over < DATASET_BYTES, "the data build peaked {over} bytes above the {kept} it keeps");
    let (kept, over) = peak_over_kept(|| SyncTrainingEngine::new(config).unwrap());
    println!("alloc.new_kept_bytes {kept} alloc.new_peak_over_kept_bytes {over}");
    assert!(over < DATASET_BYTES, "the engine build peaked {over} bytes above the {kept} it keeps");

    for name in ["paper19", "gar19_bulyan", "wire19_lossy"] {
        let (warm_calls, warm_bytes) = run_counts(workload(name, WARM));
        let (calls, bytes) = run_counts(workload(name, WARM + MEASURED));
        let per_round = |total: usize, warm: usize| (total - warm) as f64 / MEASURED as f64;
        println!("{name} alloc.count_per_round {:.1}", per_round(calls, warm_calls));
        println!("{name} alloc.bytes_per_round {:.0}", per_round(bytes, warm_bytes));
    }
}
