//! One untraced run in a child process: set up, time one
//! `OnlineExperiment::run`, then check its outputs outside the timed window.

use crate::child::{emit, emit_checks, fresh_dir, peak_rss_mb};
use crate::workloads::Workload;
use melissa::{
    CompletionJournal, DurableCheckpointStore, DurableIdentity, ExperimentConfig, ExperimentReport,
    OnlineExperiment, ValidationSet,
};
use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;
use surrogate_nn::Mlp;

/// Set-ups timed per run; the median is reported, so one slow set-up (a cold
/// page, a directory removal that has to wait for the journal) does not move
/// `setup_s`.
const SETUP_REPEATS: usize = 25;

/// What the correctness checks need to know about one finished run, filled
/// from an `ExperimentReport` or from the traced pipeline.
#[derive(Debug, Clone, Default)]
pub struct RunFacts {
    pub params_finite: bool,
    pub unique_trained: usize,
    pub samples_trained: usize,
    pub messages_sent: usize,
    pub messages_delivered: usize,
    pub launcher_failed: usize,
    pub launcher_retries: usize,
    pub campaign_s: f64,
    pub durable_error: Option<String>,
    pub durable_checkpoints: usize,
    /// Final validation MSE (normalised units); NaN when none was recorded.
    pub val_mse: f64,
    /// Validation passes recorded in the loss history.
    pub evaluations: usize,
}

impl RunFacts {
    pub fn from_report(model: &Mlp, report: &ExperimentReport) -> Self {
        let transport = report.transport.unwrap_or_default();
        let launcher = report.launcher.clone().unwrap_or_default();
        Self {
            params_finite: model.params_flat().iter().all(|p| p.is_finite()),
            unique_trained: report.unique_samples_trained,
            samples_trained: report.samples_trained,
            messages_sent: transport.messages_sent,
            messages_delivered: transport.messages_delivered,
            launcher_failed: launcher.failed,
            launcher_retries: launcher.retries,
            campaign_s: launcher.total_duration,
            durable_error: report.durable_error.clone(),
            durable_checkpoints: report.durable_checkpoints,
            val_mse: report.final_validation_mse.map_or(f64::NAN, f64::from),
            evaluations: report
                .metrics
                .losses
                .iter()
                .filter(|p| p.validation_loss.is_some())
                .count(),
        }
    }

    /// Prints the counts both the untraced and the traced run report.
    pub fn emit_counts(&self, config: &ExperimentConfig) {
        emit("unique_produced", config.total_unique_samples() as f64);
        emit("unique_trained", self.unique_trained as f64);
        emit("samples_trained", self.samples_trained as f64);
        emit("messages_sent", self.messages_sent as f64);
        emit("messages_delivered", self.messages_delivered as f64);
        emit("durable_checkpoints", self.durable_checkpoints as f64);
        emit("campaign_s", self.campaign_s);
        emit("retries", self.launcher_retries as f64);
        emit("evaluations", self.evaluations as f64);
        emit("val_mse", self.val_mse);
    }
}

/// Runs every correctness check on a finished run. The durable directory is
/// reopened here, after the timed window.
pub fn checks(config: &ExperimentConfig, facts: &RunFacts) -> Vec<(&'static str, bool)> {
    let untrained = untrained_validation_mse(config);
    let mut checks = vec![
        ("params_finite", facts.params_finite),
        (
            "all_samples_trained",
            facts.unique_trained == config.total_unique_samples(),
        ),
        (
            "all_messages_delivered",
            facts.messages_sent > 0 && facts.messages_delivered == facts.messages_sent,
        ),
        ("no_failed_clients", facts.launcher_failed == 0),
        ("no_durable_error", facts.durable_error.is_none()),
        (
            "val_mse_below_untrained",
            facts.val_mse.is_finite() && facts.val_mse < untrained,
        ),
    ];
    if let Some(durability) = &config.durability {
        let (checkpoint_ok, journal_ok) = verify_durable(config, Path::new(&durability.directory));
        checks.push(("checkpoint_covers_all", checkpoint_ok));
        checks.push(("journal_replays_cleanly", journal_ok));
    }
    checks
}

/// Validation MSE of the freshly initialised surrogate: a trained run must
/// end below it.
fn untrained_validation_mse(config: &ExperimentConfig) -> f64 {
    let workload = config.workload.build();
    let validation = ValidationSet::generate_with(
        config,
        workload.as_ref(),
        &config.workload.input_normalizer(),
        &config.workload.output_normalizer(),
    );
    let model = Mlp::new(config.surrogate.mlp_config(config.output_size()));
    f64::from(validation.evaluate(&model))
}

/// Reopens the durable directory the way a restart would. The newest valid
/// checkpoint must cover every simulation, so a faster checkpoint path cannot
/// pass by writing less. The journal must replay cleanly: distinct, in-range
/// ids. It holds the completions not yet subsumed by a checkpoint, so an id
/// that completes between a batch's journal append and that batch's
/// checkpoint is durable through the checkpoint alone.
fn verify_durable(config: &ExperimentConfig, dir: &Path) -> (bool, bool) {
    let Some(durability) = &config.durability else {
        return (false, false);
    };
    let identity = identity(config);
    let every: BTreeSet<u64> = (0..config.total_simulations() as u64).collect();
    let checkpoint_ok = DurableCheckpointStore::open(dir, identity, durability.keep_last)
        .and_then(|store| store.load_latest())
        .map(|latest| {
            latest.latest.is_some_and(|(_, checkpoint)| {
                checkpoint
                    .completed_simulations
                    .iter()
                    .copied()
                    .collect::<BTreeSet<u64>>()
                    == every
            })
        })
        .unwrap_or(false);
    let journal_ok = CompletionJournal::open(dir, identity, durability.journal_flush_every)
        .map(|(_, replayed)| {
            let distinct: BTreeSet<u64> = replayed.iter().copied().collect();
            !replayed.is_empty() && distinct.len() == replayed.len() && distinct.is_subset(&every)
        })
        .unwrap_or(false);
    (checkpoint_ok, journal_ok)
}

/// The identity `OnlineExperiment` stamps into the durable files of `config`.
pub fn identity(config: &ExperimentConfig) -> DurableIdentity {
    DurableIdentity {
        experiment_seed: config.seed,
        config_fingerprint: config.config_fingerprint(),
    }
}

/// The child side of one untraced run.
pub fn untraced(workload: Workload, seed: u64, dir: &Path) {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut experiment = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let config = workload.config(seed, dir);
        if workload.durable() {
            fresh_dir(dir);
        }
        let built = OnlineExperiment::new(config).expect("benchmark configurations validate");
        setups.push(started.elapsed().as_secs_f64());
        experiment = Some(built);
    }
    let experiment = experiment.expect("at least one set-up");

    let started = Instant::now();
    let (model, report) = experiment.run();
    let wall_s = started.elapsed().as_secs_f64();
    let peak_rss = peak_rss_mb();

    let config = experiment.config();
    let facts = RunFacts::from_report(&model, &report);
    emit("wall_s", wall_s);
    emit("setup_s", crate::stats::median(&setups));
    emit("peak_rss_mb", peak_rss);
    facts.emit_counts(config);
    let stats = &report.buffer_stats;
    emit(
        "producer_waits",
        stats.iter().map(|s| s.producer_waits).sum::<usize>() as f64,
    );
    emit(
        "consumer_waits",
        stats.iter().map(|s| s.consumer_waits).sum::<usize>() as f64,
    );
    emit("gets", stats.iter().map(|s| s.gets).sum::<usize>() as f64);
    emit(
        "repeated_gets",
        stats.iter().map(|s| s.repeated_gets).sum::<usize>() as f64,
    );
    emit_checks(&checks(config, &facts));
}
