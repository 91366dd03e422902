//! The three benchmark workloads: each is one fixed ensemble campaign that a
//! single `OnlineExperiment::run` streams and trains on. Every knob not named
//! here keeps the production default (`gemm_threads = 0`, `prefetch = false`,
//! `kernel_isa = auto`, `ingest_shards = 1`, no emulated device delay, no
//! denormal flush).

use melissa::{DurabilityConfig, ExperimentConfig, WorkloadSpec};
use melissa_ensemble::CampaignPlan;
use std::path::Path;
use training_buffer::{BufferConfig, BufferKind};

/// Concurrent clients of every campaign: the launcher is a closed-loop load
/// generator whose clients block on backpressure, as in the paper.
const CLIENTS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's surrogate (2×256) on a Reservoir buffer: the trainer is
    /// saturated, so `nn` and `validation` do most of the work.
    ReservoirMlp256,
    /// A width-16 surrogate fed many short 16×16 simulations through FIFO:
    /// ~1 KiB messages against a trivial train step, so the data plane
    /// (`transport`, `aggregator`, `buffer`) and per-round overhead dominate.
    FifoIngest,
    /// The implicit-Euler solver, FIRO, two ranks and durable checkpoints:
    /// the only workload with disk writes, the all-reduce and idle rounds.
    FiroDurable2Rank,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ReservoirMlp256,
        Workload::FifoIngest,
        Workload::FiroDurable2Rank,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReservoirMlp256 => "reservoir-mlp256",
            Workload::FifoIngest => "fifo-ingest",
            Workload::FiroDurable2Rank => "firo-durable-2rank",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn durable(self) -> bool {
        self == Workload::FiroDurable2Rank
    }

    /// Builds the experiment configuration of one run. `seed` feeds both the
    /// experiment seed and the campaign's parameter sampler; `durable_dir` is
    /// used only by the durable workload.
    pub fn config(self, seed: u64, durable_dir: &Path) -> ExperimentConfig {
        let (workload, sims, kind, ranks, width, validation) = match self {
            Workload::ReservoirMlp256 => {
                let spec = WorkloadSpec::heat_analytic(grid(32, 100));
                (spec, 60, BufferKind::Reservoir, 1, 256, (10, 100))
            }
            Workload::FifoIngest => {
                let spec = WorkloadSpec::heat_analytic(grid(16, 25));
                (spec, 8000, BufferKind::Fifo, 1, 16, (4, 1000))
            }
            Workload::FiroDurable2Rank => {
                let spec = WorkloadSpec::heat(grid(32, 100));
                (spec, 288, BufferKind::Firo, 2, 64, (4, 50))
            }
        };
        let total_samples = sims * workload.steps();
        let mut builder = ExperimentConfig::builder()
            .seed(seed)
            .workload(workload)
            .campaign(CampaignPlan::single_series(sims, CLIENTS).with_seed(seed))
            .buffer(BufferConfig::paper_proportions(kind, total_samples, seed))
            .ranks(ranks)
            .hidden_width(width)
            .validation(validation.0, validation.1);
        if self.durable() {
            builder = builder.durability(DurabilityConfig {
                checkpoint_every_batches: 20,
                ..DurabilityConfig::new(durable_dir.to_string_lossy())
            });
        }
        builder
            .build()
            .expect("benchmark workloads are valid configurations")
    }
}

/// An `n`×`n` heat-equation grid streamed for `steps` time steps.
fn grid(n: usize, steps: usize) -> heat_solver::SolverConfig {
    heat_solver::SolverConfig {
        nx: n,
        ny: n,
        steps,
        ..heat_solver::SolverConfig::default()
    }
}
