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
//!   data are drawn into their final buffer and split by moving it. At the
//!   `wire19_lossy` shape the engine keeps less than 4 rows (see below)
//!   beyond the dataset and the n × d arena: its models, links and
//!   assemblers, and no gradient-sized buffer per worker or per link (19
//!   rows).
//! * **A round's budget, in rows** (a row is d × 4 bytes, one gradient). At
//!   the `paper19` shape the live bytes of a run peak less than 5 rows
//!   above what the engine holds when it starts: every gradient, honest or
//!   crafted, is written into its arena row, so no round holds a gradient a
//!   second time. At the `gar19_bulyan` shape a round allocates less than 4
//!   rows, and at the `wire19_lossy` shape too: a lossy send encodes only
//!   the packets that arrive, a few at a time, into a scratch its link
//!   owns, so no send builds a buffer of its whole encoded row.
//! * **A round's traffic.** `alloc.count_per_round` and
//!   `alloc.bytes_per_round` after warm-up at all five benchmark shapes:
//!   the allocations of a run of `WARM + MEASURED` rounds minus those of a
//!   run of `WARM` rounds (same seed, so the first rounds are the same),
//!   over `MEASURED`. Printed (`--nocapture`); the `gar19_bulyan` and
//!   `wire19_lossy` ones are bounded, and an `elastic_tree256` round
//!   allocates less than 190 rows of its d = 4138: the rules read the
//!   accepted rows where they landed in the arena, so no tree group copies
//!   its 32 members into a batch of its own, and the root reads the group
//!   outputs where the groups wrote them, so no output is copied into a
//!   vector, a leg's buffer or a root batch of its own.
//! * **Counts that reproduce.** Two runs of one shape allocate the same
//!   calls and bytes, at thread budget 1 and at thread budget 2: no parallel
//!   region allocates by how its work fell to the threads.

use agg_attacks::AttackKind;
use agg_core::{GarConfig, GarKind, TreeConfig};
use agg_net::{ChaosConfig, LinkConfig, LossPolicy, RetransmitConfig};
use agg_ps::{
    ExperimentKind, FaultPlan, QuorumPolicy, ReputationConfig, RunnerConfig, SyncTrainingEngine,
    TransportKind,
};
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

/// One gradient of the benchmark MLP (d = 256·384 + 384 + 384·10 + 10).
const ROW_BYTES: usize = 102_538 * 4;

/// The n × d gradient arena of the n = 19 shapes.
const ARENA_BYTES: usize = 19 * ROW_BYTES;

/// One gradient of `elastic_tree256`'s MLP (d = 32·96 + 96 + 96·10 + 10).
const TREE_ROW_BYTES: usize = 4_138 * 4;

/// The five benchmark shapes.
const SHAPES: [&str; 5] =
    ["paper19", "gar19_bulyan", "wire19_lossy", "stream19_sharded", "elastic_tree256"];

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
    let lossy = |drop_rate: f64| LinkConfig::datacenter().with_drop_rate(drop_rate);
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
            link: lossy(0.10),
            batch_size: 1,
            ..base
        },
        "stream19_sharded" => {
            let mut delays = vec![0.0; 19];
            for straggler in [0, 5, 10, 15] {
                delays[straggler] = 0.05;
            }
            let mut config = RunnerConfig {
                gar: GarConfig::new(GarKind::MultiKrum, 4),
                byzantine_count: 2,
                attack: AttackKind::SignFlip,
                shards: 4,
                worker_extra_delay_sec: delays,
                transport: TransportKind::Lossy { policy: LossPolicy::RandomFill },
                lossy_links: 6,
                link: lossy(0.10),
                chaos: Some(ChaosConfig::moderate()),
                retransmit: Some(RetransmitConfig::default()),
                batch_size: 2,
                ..base
            };
            config.streaming.quorum = QuorumPolicy::NMinusF;
            config
        }
        "elastic_tree256" => {
            let tree = TreeConfig::uniform(GarKind::MultiKrum, 6, 1, 32);
            // The churn plan of the longest run, cut at this run's end, so a
            // shorter run is the longer one's prefix.
            let mut fault_plan = FaultPlan::seeded_churn(42, 256, WARM + MEASURED, 8);
            fault_plan.events.retain(|event| event.round < rounds);
            let mut config = RunnerConfig {
                experiment: ExperimentKind::MlpBlobs {
                    input_dim: 32,
                    hidden: 96,
                    classes: 10,
                    samples: 4000,
                },
                workers: 256,
                gar: tree.root,
                tree: Some(tree),
                byzantine_count: 6,
                attack: AttackKind::SignFlip,
                reputation: Some(ReputationConfig {
                    reshuffle_every: 5,
                    ..ReputationConfig::default()
                }),
                fault_plan,
                transport: TransportKind::Lossy { policy: LossPolicy::DropGradient },
                lossy_links: 32,
                link: lossy(0.05),
                chaos: Some(ChaosConfig::moderate()),
                retransmit: Some(RetransmitConfig::default()),
                batch_size: 8,
                ..base
            };
            config.streaming.quorum = QuorumPolicy::NMinusF;
            config
        }
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

/// How far the live bytes peaked above their level when `work` started.
fn peak_over_start(work: impl FnOnce()) -> usize {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    work();
    PEAK.load(Relaxed) - before
}

#[test]
fn engine_allocations() {
    // `SyncTrainingEngine::new` builds the data first and then reserves the
    // 7.8 MB gradient arena, which is live when it returns, so its own peak
    // cannot show a transient copy of the dataset: the data build can.
    let config = workload("paper19", WARM + MEASURED);
    let (kept, over) = peak_over_kept(|| config.experiment.build(config.seed).unwrap());
    println!("alloc.data_build_kept_bytes {kept} alloc.data_build_peak_over_kept_bytes {over}");
    assert!(over < DATASET_BYTES, "the data build peaked {over} bytes above the {kept} it keeps");
    let (kept, over) = peak_over_kept(|| SyncTrainingEngine::new(config.clone()).unwrap());
    println!("alloc.new_kept_bytes {kept} alloc.new_peak_over_kept_bytes {over}");
    assert!(over < DATASET_BYTES, "the engine build peaked {over} bytes above the {kept} it keeps");

    let mut engine = SyncTrainingEngine::new(config).unwrap();
    let over = peak_over_start(|| drop(engine.run().unwrap()));
    let rows = over as f64 / ROW_BYTES as f64;
    println!("paper19 alloc.run_peak_over_engine_rows {rows:.1}");
    assert!(rows < 5.0, "a paper19 run peaked {rows:.1} rows above the engine");
    drop(engine);

    let (kept, _) =
        peak_over_kept(|| SyncTrainingEngine::new(workload("wire19_lossy", 1)).unwrap());
    let rows = kept.saturating_sub(DATASET_BYTES + ARENA_BYTES) as f64 / ROW_BYTES as f64;
    println!("wire19_lossy alloc.new_kept_bytes {kept} alloc.new_kept_rows_over_arena {rows:.1}");
    assert!(rows < 4.0, "a wire19_lossy engine keeps {rows:.1} rows past its data and arena");

    for name in SHAPES {
        let (warm_calls, warm_bytes) = run_counts(workload(name, WARM));
        let (calls, bytes) = run_counts(workload(name, WARM + MEASURED));
        let per_round = |total: usize, warm: usize| (total - warm) as f64 / MEASURED as f64;
        let bytes_per_round = per_round(bytes, warm_bytes);
        println!("{name} alloc.count_per_round {:.1}", per_round(calls, warm_calls));
        println!("{name} alloc.bytes_per_round {bytes_per_round:.0}");
        if name == "gar19_bulyan" || name == "wire19_lossy" {
            let rows = bytes_per_round / ROW_BYTES as f64;
            assert!(rows < 4.0, "a {name} round allocates {rows:.1} rows");
        }
        if name == "elastic_tree256" {
            let rows = bytes_per_round / TREE_ROW_BYTES as f64;
            assert!(rows < 190.0, "an {name} round allocates {rows:.0} rows");
        }
    }

    for threads in [1, 2] {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        for name in SHAPES {
            let runs = [(); 2].map(|()| pool.install(|| run_counts(workload(name, WARM))));
            println!("{name} alloc.run_counts_at_{threads}_threads {:?}", runs[0]);
            assert_eq!(runs[0], runs[1], "two {name} runs at {threads} threads allocate apart");
        }
    }
}
