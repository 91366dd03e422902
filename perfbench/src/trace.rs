//! The traced run, for the per-layer metrics.
//!
//! It has two parts, both built only from the crates' public items:
//!
//! 1. [`drive_pipeline`] re-drives the pipeline `OnlineExperiment::run` wires
//!    in `crates/core/src/server.rs`, from the same public parts, with spans
//!    around each call into a layer: the workload's step generation, the
//!    client's `send`, the trainer's `get_batch_with` (through a decorator
//!    buffer) and each rank's `RankTrainer::run`.
//! 2. The replays time, per call, what the trainer calls internally:
//!    `forward_ws`, the loss plus `backward_ws`, the optimizer step, the
//!    all-reduce, validation, the aggregator's drain and the durable writes.
//!
//! The traced run must reproduce the untraced run's counts on the same seed;
//! [`per_layer`] checks that, so the trace cannot drift from what `run` does.

use crate::child::{emit, emit_checks, fresh_dir};
use crate::run::{checks, identity, RunFacts};
use crate::stats::{median, quantile};
use crate::workloads::Workload;
use crate::{collect, ChildRun, Metric};
use melissa::trainer::{merge_occurrences, RankOutcome};
use melissa::{
    step_to_payload, Aggregator, CheckpointStore, CompletionJournal, DurabilityConfig,
    DurableCheckpointStore, DurableIdentity, DurableRecorder, ExperimentConfig, IngestControl,
    RankTrainer, ReceptionGate, RecoveryHooks, RecoveryTracker, ServerCheckpoint, TrainerShared,
    ValidationSet,
};
use melissa_ensemble::{
    CampaignEvents, ClientContext, ClientError, ClientJob, Launcher, LauncherReport,
    ParameterSampler, SamplerKind,
};
use melissa_transport::{Fabric, FabricConfig, FaultConfig, SamplePayload};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use surrogate_nn::{
    Adam, AdamConfig, Batch, GradientSynchronizer, Loss, Mlp, MseLoss, Optimizer, Sample,
};
use training_buffer::{
    BufferKind, BufferStats, Evicted, EvictionObserver, ShardedBuffer, TrainingBuffer,
};

/// The per-layer metrics, in output order, with their units.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("workload.step_us.p50", "us"),
    ("workload.step_us.p99", "us"),
    ("ensemble.campaign_s", "s"),
    ("ensemble.retries", "count"),
    ("transport.send_us.p50", "us"),
    ("transport.send_us.p99", "us"),
    ("transport.send_blocked_s", "s"),
    ("transport.bytes", "bytes"),
    ("aggregator.ingest_us", "us"),
    ("aggregator.drain_s", "s"),
    ("buffer.get_us.p50", "us"),
    ("buffer.get_us.p99", "us"),
    ("buffer.get_wait_s", "s"),
    ("buffer.producer_waits", "count"),
    ("buffer.consumer_waits", "count"),
    ("buffer.repeat_frac", "fraction"),
    ("trainer.self_s", "s"),
    ("trainer.idle_round_frac", "fraction"),
    ("nn.forward_us", "us"),
    ("nn.backward_us", "us"),
    ("nn.optim_us", "us"),
    ("nn.gflop_s", "GFLOP/s"),
    ("nn.allreduce_us", "us"),
    ("validation.evaluate_ms", "ms"),
    ("validation.evaluations", "count"),
    ("validation.generate_ms", "ms"),
    ("durable.checkpoint_ms.p50", "ms"),
    ("durable.checkpoint_ms.p99", "ms"),
    ("durable.journal_flush_ms", "ms"),
    ("durable.checkpoints", "count"),
    ("trace.overhead_frac", "fraction"),
    ("trace.unaccounted_frac", "fraction"),
];

/// Metrics the parent derives from the untraced runs instead of the traced
/// child: launcher and buffer counts come from `ExperimentReport`.
const FROM_UNTRACED: [(&str, &str); 5] = [
    ("ensemble.campaign_s", "campaign_s"),
    ("ensemble.retries", "retries"),
    ("buffer.producer_waits", "producer_waits"),
    ("buffer.consumer_waits", "consumer_waits"),
    ("durable.checkpoints", "durable_checkpoints"),
];

/// Counts a traced run must reproduce from the untraced run on its seed.
const REPRODUCED: [&str; 5] = [
    "unique_produced",
    "unique_trained",
    "messages_sent",
    "messages_delivered",
    "durable_checkpoints",
];

/// A decorator handed to `RankTrainer::new` that times every
/// `get_batch_with`: batch assembly plus the wait for data.
struct TracedBuffer {
    inner: Arc<ShardedBuffer<Sample>>,
    get_us: Mutex<Vec<f64>>,
}

impl TrainingBuffer<Sample> for TracedBuffer {
    fn put(&self, item: Sample) {
        self.inner.put(item);
    }

    fn get(&self) -> Option<Sample> {
        self.inner.get()
    }

    fn put_many(&self, items: &mut Vec<Sample>) {
        self.inner.put_many(items);
    }

    fn get_batch(&self, n: usize, out: &mut Vec<Sample>) -> usize {
        self.inner.get_batch(n, out)
    }

    fn get_batch_with(&self, n: usize, visit: &mut dyn FnMut(&Sample)) -> usize {
        let started = Instant::now();
        let served = self.inner.get_batch_with(n, visit);
        let elapsed = micros(started.elapsed());
        self.get_us.lock().expect("get-span lock").push(elapsed);
        served
    }

    fn set_eviction_observer(&self, observer: EvictionObserver<Sample>) {
        self.inner.set_eviction_observer(observer);
    }

    fn mark_reception_over(&self) {
        self.inner.mark_reception_over();
    }

    fn is_reception_over(&self) -> bool {
        self.inner.is_reception_over()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn stats(&self) -> BufferStats {
        self.inner.stats()
    }

    fn kind(&self) -> BufferKind {
        self.inner.kind()
    }
}

fn micros(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e6
}

fn millis(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// What the traced pipeline measured.
struct Pipeline {
    facts: RunFacts,
    wall_s: f64,
    generate_ms: f64,
    step_us: Vec<f64>,
    send_us: Vec<f64>,
    bytes_sent: u64,
    /// Rank 0's `get_batch_with` spans.
    get_us: Vec<f64>,
    /// Rank 0's `RankTrainer::run` wall time.
    rank0_run_s: f64,
    outcomes: Vec<RankOutcome>,
    validation: Arc<ValidationSet>,
}

/// The durable recorder `OnlineExperiment` opens for a fresh run.
fn open_recorder(config: &ExperimentConfig, identity: DurableIdentity) -> Option<DurableRecorder> {
    let durability = config.durability.as_ref()?;
    let dir = durability.directory_path();
    let store = DurableCheckpointStore::open(&dir, identity, durability.keep_last)
        .expect("open the durable checkpoint store");
    let (journal, journaled) =
        CompletionJournal::open(&dir, identity, durability.journal_flush_every)
            .expect("open the completion journal");
    Some(DurableRecorder::new(store, journal, journaled))
}

/// Re-drives the pipeline of `OnlineExperiment::run` for a fresh run without
/// faults, with spans around each call into a layer.
fn drive_pipeline(config: &ExperimentConfig) -> Pipeline {
    let ranks = config.training.num_ranks;
    let started = Instant::now();
    let durable = open_recorder(config, identity(config)).map(Arc::new);
    let start = Instant::now();

    let workload = config.workload.build();
    let input_norm = config.workload.input_normalizer();
    let output_norm = config.workload.output_normalizer();
    let generate_started = Instant::now();
    let validation = Arc::new(ValidationSet::generate_with(
        config,
        workload.as_ref(),
        &input_norm,
        &output_norm,
    ));
    let generate_ms = millis(generate_started.elapsed());

    let fabric = Fabric::new(FabricConfig {
        num_server_ranks: ranks,
        shards_per_rank: config.ingest_shards,
        channel_capacity: config.channel_capacity,
        fault: config.fault.clone(),
    });
    let endpoints = fabric.rank_shard_endpoints();
    let buffers: Vec<Arc<ShardedBuffer<Sample>>> = (0..ranks)
        .map(|rank| {
            Arc::new(ShardedBuffer::new(
                &config.rank_buffer_config(rank),
                config.ingest_shards,
            ))
        })
        .collect();
    let batches_expected = config.total_unique_samples() / config.training.batch_size + 16;
    let traced: Vec<Arc<TracedBuffer>> = buffers
        .iter()
        .map(|inner| {
            Arc::new(TracedBuffer {
                inner: Arc::clone(inner),
                get_us: Mutex::new(Vec::with_capacity(batches_expected)),
            })
        })
        .collect();

    let production_done = Arc::new(AtomicBool::new(false));
    let server_down = Arc::new(AtomicBool::new(false));
    let gate = Arc::new(ReceptionGate::new(config.campaign.total_clients()));
    let tracker = Arc::new(RecoveryTracker::new(ranks));
    let completed = Arc::new(Vec::new());
    for buffer in &buffers {
        let tracker = Arc::clone(&tracker);
        buffer.set_eviction_observer(Arc::new(move |sample: &Sample, evicted| {
            tracker.record_evicted(sample.simulation_id, evicted == Evicted::Trained);
        }));
    }
    let checkpoint_every_batches = match &config.durability {
        Some(durability) => durability.effective_checkpoint_every(config.checkpoint_every_batches),
        None => config.checkpoint_every_batches,
    };
    let store = Arc::new(CheckpointStore::new());
    let hooks = RecoveryHooks {
        checkpoint_every_batches,
        store: Arc::clone(&store),
        tracker: Arc::clone(&tracker),
        crash_after_batches: config.fault.plan.server_crash_after(),
        server_down: Arc::clone(&server_down),
        experiment_seed: config.seed,
        resume_rounds: 0,
        durable: durable.clone(),
    };
    let mlp_config = config.surrogate.mlp_config(config.output_size());
    let param_count = Mlp::new(mlp_config.clone()).param_count();
    let shared = Arc::new(TrainerShared::new(ranks, param_count));

    let steps = config.workload.steps();
    let step_spans: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(config.total_unique_samples()));
    let send_spans: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(config.total_unique_samples()));
    let rank_results: Mutex<Vec<(RankOutcome, f64)>> = Mutex::new(Vec::new());
    let launcher_report: Mutex<Option<LauncherReport>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for (rank, rank_endpoints) in endpoints.into_iter().enumerate() {
            let aggregator = Aggregator::new(
                rank_endpoints,
                Arc::clone(&buffers[rank]),
                input_norm.clone(),
                output_norm.clone(),
                IngestControl {
                    gate: Arc::clone(&gate),
                    production_done: Arc::clone(&production_done),
                    server_down: Arc::clone(&server_down),
                    tracker: Some(Arc::clone(&tracker)),
                    completed: Arc::clone(&completed),
                },
            );
            scope.spawn(move || aggregator.run(start));
        }

        for (rank, buffer) in traced.iter().enumerate() {
            let buffer: Arc<dyn TrainingBuffer<Sample>> = Arc::clone(buffer) as _;
            let trainer = RankTrainer::new(
                rank,
                Mlp::new(mlp_config.clone()),
                buffer,
                config.training.clone(),
                (rank == 0).then(|| Arc::clone(&validation)),
                Arc::clone(&shared),
            )
            .with_recovery(hooks.clone());
            let rank_results = &rank_results;
            scope.spawn(move || {
                let run_started = Instant::now();
                let outcome = trainer.run(start);
                let run_s = run_started.elapsed().as_secs_f64();
                rank_results
                    .lock()
                    .expect("rank-result lock")
                    .push((outcome, run_s));
            });
        }

        let (fabric, workload, gate) = (&fabric, &workload, &gate);
        let (production_done, server_down) = (&production_done, &server_down);
        let (step_spans, send_spans) = (&step_spans, &send_spans);
        let launcher_report = &launcher_report;
        scope.spawn(move || {
            let launcher = Launcher::new(config.launcher);
            let space = workload.parameter_space();
            let on_abandoned = |_client_id: u64| gate.abandon_one();
            let events = CampaignEvents {
                on_abandoned: Some(&on_abandoned),
            };
            let client_fn = |job: &ClientJob, ctx: &ClientContext| {
                if server_down.load(Ordering::Acquire) {
                    return Err(ClientError::server_down("training server crashed"));
                }
                let connection = fabric.connect_client(job.client_id);
                let mut steps_us = Vec::with_capacity(steps);
                let mut sends_us = Vec::with_capacity(steps);
                let mut left_callback = Instant::now();
                workload
                    .generate_seeded(job.parameters, job.seed, &mut |step| {
                        steps_us.push(micros(left_callback.elapsed()));
                        let payload = step_to_payload(&step, job.client_id);
                        let send_started = Instant::now();
                        let _ = connection.send(payload);
                        sends_us.push(micros(send_started.elapsed()));
                        ctx.beat();
                        left_callback = Instant::now();
                    })
                    .map_err(|e| ClientError::crash(e.to_string()))?;
                step_spans.lock().expect("span lock").extend(steps_us);
                send_spans.lock().expect("span lock").extend(sends_us);
                connection
                    .finalize()
                    .map_err(|e| ClientError::crash(e.to_string()))
            };
            let report = launcher.run_campaign_with(&config.campaign, &space, &events, client_fn);
            production_done.store(true, Ordering::Release);
            *launcher_report.lock().expect("launcher-report lock") = Some(report);
        });
    });

    let mut rank_results = rank_results.into_inner().expect("rank results");
    rank_results.sort_by_key(|(outcome, _)| outcome.rank);
    let rank0_run_s = rank_results.first().map_or(f64::NAN, |(_, run_s)| *run_s);
    let outcomes: Vec<RankOutcome> = rank_results.into_iter().map(|(o, _)| o).collect();
    let model = outcomes.first().expect("one training rank").model.clone();

    // The final checkpoint `OnlineExperiment` captures after the threads join.
    if !server_down.load(Ordering::Acquire) && (checkpoint_every_batches > 0 || durable.is_some()) {
        let rounds = outcomes[0].rounds;
        let final_checkpoint = ServerCheckpoint::capture(
            &model,
            rounds,
            rounds * config.training.batch_size * ranks,
            tracker.completed_simulations(),
            config.seed,
        );
        if let Some(durable) = &durable {
            durable.record_completions(&final_checkpoint.completed_simulations);
            durable.record_checkpoint(&final_checkpoint);
        }
        store.record(final_checkpoint);
    }
    let unique_trained = merge_occurrences(&outcomes).len();
    let wall_s = started.elapsed().as_secs_f64();

    let transport = fabric.stats();
    let launcher = launcher_report
        .into_inner()
        .expect("launcher report")
        .unwrap_or_default();
    let losses = &outcomes[0].losses;
    let facts = RunFacts {
        params_finite: model.params_flat().iter().all(|p| p.is_finite()),
        unique_trained,
        samples_trained: outcomes.iter().map(|o| o.samples_consumed).sum(),
        messages_sent: transport.messages_sent,
        messages_delivered: transport.messages_delivered,
        launcher_failed: launcher.failed,
        launcher_retries: launcher.retries,
        campaign_s: launcher.total_duration,
        durable_error: durable.as_ref().and_then(|d| d.first_error()),
        durable_checkpoints: durable.as_ref().map_or(0, |d| d.checkpoints_saved()),
        val_mse: losses
            .iter()
            .rev()
            .find_map(|p| p.validation_loss)
            .map_or(f64::NAN, f64::from),
        evaluations: losses
            .iter()
            .filter(|p| p.validation_loss.is_some())
            .count(),
    };
    let get_us = std::mem::take(&mut *traced[0].get_us.lock().expect("get-span lock"));
    Pipeline {
        facts,
        wall_s,
        generate_ms,
        step_us: step_spans.into_inner().expect("step spans"),
        send_us: send_spans.into_inner().expect("send spans"),
        bytes_sent: transport.bytes_sent,
        get_us,
        rank0_run_s,
        outcomes,
        validation,
    }
}

/// Runs `body` until `budget` has passed and at least `min` times, returning
/// each call's measurement.
fn repeat<T>(min: usize, budget: Duration, mut body: impl FnMut() -> T) -> Vec<T> {
    let started = Instant::now();
    let mut values = Vec::new();
    while values.len() < min || started.elapsed() < budget {
        values.push(body());
    }
    values
}

/// Per-call medians of the trainer's compute, on the workload's shape, real
/// samples, resolved thread count and ISA.
struct NnReplay {
    forward_us: f64,
    backward_us: f64,
    optim_us: f64,
    gflop_s: f64,
}

fn replay_nn(config: &ExperimentConfig, samples: &[Sample]) -> NnReplay {
    let training = &config.training;
    let batch_size = training.batch_size;
    let mut model = Mlp::new(config.surrogate.mlp_config(config.output_size()));
    let mut ws = model
        .workspace(batch_size)
        .with_threads(training.effective_gemm_threads())
        .with_isa(training.kernel_isa);
    let mut optimizer =
        Adam::new(AdamConfig::default(), model.param_count()).with_isa(training.kernel_isa);
    let mut batch = Batch::with_capacity(batch_size, model.input_size(), model.output_size());
    let mut grads = Vec::with_capacity(model.param_count());
    let chunks: Vec<&[Sample]> = samples.chunks_exact(batch_size).collect();
    let mut round = 0usize;
    let calls = repeat(200, Duration::from_millis(600), || {
        batch.fill_owned(chunks[round % chunks.len()]);
        round += 1;
        let t0 = Instant::now();
        model.forward_ws(&batch.inputs, &mut ws);
        let t1 = Instant::now();
        let (prediction, grad_out) = ws.output_and_grad_mut();
        std::hint::black_box(MseLoss.evaluate_into(prediction, &batch.targets, grad_out));
        model.backward_ws(&mut ws);
        let t2 = Instant::now();
        model.grads_flat_into(&mut grads);
        optimizer.step(&mut model, &grads, training.initial_learning_rate);
        let t3 = Instant::now();
        (micros(t1 - t0), micros(t2 - t1), micros(t3 - t2))
    });
    let forward: Vec<f64> = calls.iter().map(|c| c.0).collect();
    let backward: Vec<f64> = calls.iter().map(|c| c.1).collect();
    let optim: Vec<f64> = calls.iter().map(|c| c.2).collect();
    // Dense layers only: forward 2·B·in·out per layer, backward twice that
    // (weight and input gradients).
    let sizes = &model.config().layer_sizes;
    let macs: usize = sizes.windows(2).map(|w| w[0] * w[1]).sum();
    let flops = 6.0 * (batch_size * macs) as f64;
    let (forward_us, backward_us) = (median(&forward), median(&backward));
    NnReplay {
        forward_us,
        backward_us,
        optim_us: median(&optim),
        gflop_s: flops / ((forward_us + backward_us) * 1e-6) / 1e9,
    }
}

/// Per-call median of the gradient all-reduce, across the workload's rank
/// threads, on its parameter count.
fn replay_allreduce(ranks: usize, param_count: usize) -> f64 {
    const CALLS: usize = 300;
    let sync = GradientSynchronizer::new(ranks, param_count);
    let mut rank0 = Vec::with_capacity(CALLS);
    std::thread::scope(|scope| {
        for _ in 1..ranks {
            let sync = &sync;
            scope.spawn(move || {
                let mut grads = vec![0.5f32; param_count];
                for _ in 0..CALLS {
                    sync.all_reduce_mean(&mut grads);
                }
            });
        }
        let mut grads = vec![0.5f32; param_count];
        for _ in 0..CALLS {
            let started = Instant::now();
            sync.all_reduce_mean(&mut grads);
            rank0.push(micros(started.elapsed()));
        }
    });
    median(&rank0)
}

/// Microseconds per message for `Aggregator::run` to drain pre-queued
/// workload payloads into the workload's buffer.
fn replay_aggregator(config: &ExperimentConfig) -> f64 {
    let workload = config.workload.build();
    let messages = config.buffer.capacity.min(1024);
    let mut sampler = ParameterSampler::new(
        SamplerKind::MonteCarlo,
        workload.parameter_space(),
        messages,
        config.seed,
    );
    let mut payloads: Vec<SamplePayload> = Vec::with_capacity(messages);
    let mut simulation = 0u64;
    while payloads.len() < messages {
        let trajectory = workload
            .trajectory(sampler.parameters(simulation as usize))
            .expect("benchmark workloads generate");
        for step in trajectory.iter().take(messages - payloads.len()) {
            payloads.push(step_to_payload(step, simulation));
        }
        simulation += 1;
    }
    let input_norm = config.workload.input_normalizer();
    let output_norm = config.workload.output_normalizer();
    let per_message = repeat(5, Duration::from_millis(300), || {
        let fabric = Fabric::new(FabricConfig {
            num_server_ranks: 1,
            shards_per_rank: 1,
            channel_capacity: messages + 2,
            fault: FaultConfig::none(),
        });
        let connection = fabric.connect_client(0);
        for payload in payloads.iter().cloned() {
            connection.send(payload).expect("the endpoint is alive");
        }
        connection.finalize().expect("the endpoint is alive");
        let buffer = Arc::new(ShardedBuffer::new(&config.rank_buffer_config(0), 1));
        let endpoints = fabric.rank_shard_endpoints().remove(0);
        let done = Arc::new(AtomicBool::new(true));
        let aggregator = Aggregator::new(
            endpoints,
            buffer,
            input_norm.clone(),
            output_norm.clone(),
            IngestControl::basic(1, done),
        );
        let started = Instant::now();
        std::hint::black_box(aggregator.run(started));
        micros(started.elapsed()) / messages as f64
    });
    median(&per_message)
}

/// Durable write latencies: `DurableCheckpointStore::save` of the trained
/// model, and one `CompletionJournal::append` + `flush`, in a scratch
/// directory beside the run's. Workloads without durability replay them too,
/// with the default retention, so every latency is a measured value; only
/// `firo-durable-2rank` makes these calls inside its runs.
struct DurableReplay {
    checkpoint_ms: Vec<f64>,
    journal_flush_ms: f64,
}

fn replay_durable(
    config: &ExperimentConfig,
    model: &Mlp,
    rounds: usize,
    dir: &Path,
) -> DurableReplay {
    let durability = config
        .durability
        .clone()
        .unwrap_or_else(|| DurabilityConfig::new(""));
    let scratch = dir.with_extension("replay");
    fresh_dir(&scratch);
    let identity = identity(config);
    let store = DurableCheckpointStore::open(&scratch, identity, durability.keep_last)
        .expect("open the replay store");
    let checkpoint = ServerCheckpoint::capture(
        model,
        rounds,
        rounds * config.training.batch_size * config.training.num_ranks,
        (0..config.total_simulations() as u64).collect(),
        config.seed,
    );
    let checkpoint_ms = repeat(15, Duration::from_millis(400), || {
        let started = Instant::now();
        store.save(&checkpoint).expect("replay checkpoint save");
        millis(started.elapsed())
    });
    let (journal, _) = CompletionJournal::open(scratch.join("journal-replay"), identity, 1)
        .expect("open the replay journal");
    let mut id = 0u64;
    let journal_ms = repeat(20, Duration::from_millis(200), || {
        let started = Instant::now();
        journal.append(id).expect("replay journal append");
        journal.flush().expect("replay journal flush");
        id += 1;
        millis(started.elapsed())
    });
    let _ = std::fs::remove_dir_all(&scratch);
    DurableReplay {
        checkpoint_ms,
        journal_flush_ms: median(&journal_ms),
    }
}

/// The child side of one traced run.
pub fn traced(workload: Workload, seed: u64, dir: &Path) {
    let config = workload.config(seed, dir);
    if workload.durable() {
        fresh_dir(dir);
    }
    let pipeline = drive_pipeline(&config);
    let facts = &pipeline.facts;
    let rank0 = &pipeline.outcomes[0];
    let model = &rank0.model;
    let rounds: usize = pipeline.outcomes.iter().map(|o| o.rounds).sum();
    let with_data: usize = pipeline.outcomes.iter().map(|o| o.batches_with_data).sum();
    let get_wait_s: f64 = pipeline.get_us.iter().sum::<f64>() * 1e-6;

    let nn = replay_nn(&config, pipeline.validation.samples());
    let allreduce_us = replay_allreduce(config.training.num_ranks, model.param_count());
    let mut ws = model
        .workspace(config.training.batch_size)
        .with_threads(config.training.effective_gemm_threads())
        .with_isa(config.training.kernel_isa);
    let evaluate_ms = median(&repeat(3, Duration::from_millis(300), || {
        let started = Instant::now();
        std::hint::black_box(pipeline.validation.evaluate_with(model, &mut ws));
        millis(started.elapsed())
    }));
    let ingest_us = replay_aggregator(&config);
    let durable = replay_durable(&config, model, rank0.rounds, dir);

    // Rank 0's run split into the waits it measured and the per-call replays
    // times the calls it made. Only the periodic checkpoints run inside
    // `RankTrainer::run`; a journal flush happens at most once per batch and
    // once per simulation.
    let periodic_checkpoints = facts.durable_checkpoints.saturating_sub(1) as f64;
    let journal_flushes = if workload.durable() {
        config.total_simulations().min(rank0.batches_with_data) as f64
    } else {
        0.0
    };
    let checkpoint_p50 = median(&durable.checkpoint_ms);
    let journal_ms = durable.journal_flush_ms;
    let covered_s = get_wait_s
        + rank0.batches_with_data as f64 * (nn.forward_us + nn.backward_us) * 1e-6
        + rank0.rounds as f64 * (nn.optim_us + allreduce_us) * 1e-6
        + facts.evaluations as f64 * evaluate_ms * 1e-3
        + periodic_checkpoints * checkpoint_p50 * 1e-3
        + journal_flushes * journal_ms * 1e-3;

    emit("wall_s", pipeline.wall_s);
    facts.emit_counts(&config);
    emit("workload.step_us.p50", median(&pipeline.step_us));
    emit("workload.step_us.p99", quantile(&pipeline.step_us, 0.99));
    emit("transport.send_us.p50", median(&pipeline.send_us));
    emit("transport.send_us.p99", quantile(&pipeline.send_us, 0.99));
    emit(
        "transport.send_blocked_s",
        pipeline.send_us.iter().sum::<f64>() * 1e-6,
    );
    emit("transport.bytes", pipeline.bytes_sent as f64);
    emit("aggregator.ingest_us", ingest_us);
    emit("buffer.get_us.p50", median(&pipeline.get_us));
    emit("buffer.get_us.p99", quantile(&pipeline.get_us, 0.99));
    emit("buffer.get_wait_s", get_wait_s);
    emit("trainer.self_s", pipeline.rank0_run_s - get_wait_s);
    emit(
        "trainer.idle_round_frac",
        1.0 - with_data as f64 / rounds.max(1) as f64,
    );
    emit("nn.forward_us", nn.forward_us);
    emit("nn.backward_us", nn.backward_us);
    emit("nn.optim_us", nn.optim_us);
    emit("nn.gflop_s", nn.gflop_s);
    emit("nn.allreduce_us", allreduce_us);
    emit("validation.evaluate_ms", evaluate_ms);
    emit("validation.evaluations", facts.evaluations as f64);
    emit("validation.generate_ms", pipeline.generate_ms);
    emit("durable.checkpoint_ms.p50", checkpoint_p50);
    emit(
        "durable.checkpoint_ms.p99",
        quantile(&durable.checkpoint_ms, 0.99),
    );
    emit("durable.journal_flush_ms", journal_ms);
    emit(
        "trace.unaccounted_frac",
        1.0 - covered_s / pipeline.rank0_run_s,
    );
    emit_checks(&checks(&config, facts));
}

/// The per-layer metrics of one traced invocation, and whether every traced
/// run reproduced the counts of the untraced run on its seed.
pub fn per_layer(untraced: &[ChildRun], traced: &[ChildRun]) -> (Vec<Metric>, bool) {
    let mut compared = 0;
    let mut consistent = true;
    for run in traced {
        let Some(twin) = untraced.iter().find(|u| u.seed == run.seed) else {
            continue;
        };
        for key in REPRODUCED {
            let (a, b) = (run.get(key), twin.get(key));
            if a.is_none() || a != b {
                eprintln!("perfbench: traced {key} {a:?} differs from untraced {b:?}");
                consistent = false;
            }
        }
        compared += 1;
    }
    consistent &= compared > 0;

    let untraced_wall = median(&collect(untraced, "wall_s"));
    let traced_wall = median(&collect(traced, "wall_s"));
    let drain: Vec<f64> = untraced
        .iter()
        .filter_map(|r| Some(r.get("wall_s")? - r.get("campaign_s")?))
        .collect();
    let repeat_frac: Vec<f64> = untraced
        .iter()
        .filter_map(|r| Some(r.get("repeated_gets")? / r.get("gets")?.max(1.0)))
        .collect();
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let values = match name {
                "aggregator.drain_s" => drain.clone(),
                "buffer.repeat_frac" => repeat_frac.clone(),
                "trace.overhead_frac" => vec![traced_wall / untraced_wall - 1.0],
                _ => match FROM_UNTRACED.iter().find(|(metric, _)| *metric == name) {
                    Some((_, key)) => collect(untraced, key),
                    None => collect(traced, name),
                },
            };
            (name, unit, values)
        })
        .collect();
    (metrics, consistent)
}
