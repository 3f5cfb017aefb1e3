//! The five workloads: each is one `RunnerConfig` generated from the seed.
//! The engine receives only the generated config.

use agg_attacks::AttackKind;
use agg_core::{GarConfig, GarKind, TreeConfig};
use agg_net::{ChaosConfig, LinkConfig, LossPolicy, RetransmitConfig};
use agg_ps::{
    ExperimentKind, FaultPlan, QuorumPolicy, ReputationConfig, RunnerConfig, TransportKind,
};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Rounds one timed sample runs.
    pub rounds: u64,
    /// Test accuracy the quality runs must reach.
    pub target_accuracy: f64,
    /// Rounds a quality run gets to reach the target.
    pub quality_rounds: u64,
    /// Smoke-test size: a small model and at most 32 workers, same knobs.
    pub tiny: bool,
}

/// Every workload, in `BENCHMARK.json` order.
pub const ALL: [Workload; 5] = [
    Workload {
        name: "paper19",
        rounds: 24,
        target_accuracy: 0.90,
        quality_rounds: 12,
        tiny: false,
    },
    Workload {
        name: "gar19_bulyan",
        rounds: 80,
        target_accuracy: 0.60,
        quality_rounds: 40,
        tiny: false,
    },
    Workload {
        name: "wire19_lossy",
        rounds: 100,
        target_accuracy: 0.60,
        quality_rounds: 50,
        tiny: false,
    },
    Workload {
        name: "stream19_sharded",
        rounds: 80,
        target_accuracy: 0.60,
        quality_rounds: 40,
        tiny: false,
    },
    Workload {
        name: "elastic_tree256",
        rounds: 40,
        target_accuracy: 0.80,
        quality_rounds: 40,
        tiny: false,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        ALL.iter().copied().find(|w| w.name == name)
    }

    /// The workload at smoke-test size, with three rounds and no accuracy
    /// target.
    pub fn tiny(self) -> Workload {
        Workload { rounds: 3, target_accuracy: 0.0, quality_rounds: 3, tiny: true, ..self }
    }

    /// The engine configuration for `rounds` rounds with evaluation every
    /// `eval_every` steps.
    pub fn config(&self, seed: u64, rounds: u64, eval_every: u64) -> RunnerConfig {
        let tiny = self.tiny;
        // d = 256·384 + 384 + 384·10 + 10 = 102 538: the paper's ~100k proxy.
        let paper_mlp = if tiny {
            ExperimentKind::MlpBlobs { input_dim: 16, hidden: 24, classes: 10, samples: 400 }
        } else {
            ExperimentKind::MlpBlobs { input_dim: 256, hidden: 384, classes: 10, samples: 4000 }
        };
        let base = RunnerConfig {
            experiment: paper_mlp,
            workers: 19,
            max_steps: rounds,
            eval_every,
            seed,
            ..RunnerConfig::quick_default()
        };
        let lossy = |drop_rate: f64| LinkConfig::datacenter().with_drop_rate(drop_rate);
        match self.name {
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
                config.streaming.enabled = true;
                config.streaming.quorum = QuorumPolicy::NMinusF;
                config
            }
            "elastic_tree256" => {
                let (workers, group_size, f_group, f_root, attackers, lossy_links, crashes) =
                    if tiny { (32, 8, 1, 0, 1, 4, 2) } else { (256, 32, 6, 1, 6, 32, 8) };
                let tree = TreeConfig::uniform(GarKind::MultiKrum, f_group, f_root, group_size);
                let mut config = RunnerConfig {
                    experiment: if tiny {
                        paper_mlp
                    } else {
                        ExperimentKind::MlpBlobs {
                            input_dim: 32,
                            hidden: 96,
                            classes: 10,
                            samples: 4000,
                        }
                    },
                    workers,
                    gar: tree.root,
                    tree: Some(tree),
                    byzantine_count: attackers,
                    attack: AttackKind::SignFlip,
                    // The default ledger never reshuffles; the workload turns
                    // the containment pass on so that layer is exercised.
                    reputation: Some(ReputationConfig {
                        reshuffle_every: 5,
                        ..ReputationConfig::default()
                    }),
                    fault_plan: FaultPlan::seeded_churn(seed, workers, rounds, crashes),
                    transport: TransportKind::Lossy { policy: LossPolicy::DropGradient },
                    lossy_links,
                    link: lossy(0.05),
                    chaos: Some(ChaosConfig::moderate()),
                    retransmit: Some(RetransmitConfig::default()),
                    batch_size: 8,
                    ..base
                };
                config.streaming.quorum = QuorumPolicy::NMinusF;
                config
            }
            other => unreachable!("unknown workload {other}"),
        }
    }
}
