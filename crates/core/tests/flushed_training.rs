//! Trainer-level pin of training in the flushed-denormal environment.
//!
//! `RankTrainer::run` trains with denormals flushed to zero. This test runs a
//! one-rank trainer for 1024 batches at `gemm_threads = 2` on a model whose
//! dead units reach the regime the flush changes: after a short warm-up the
//! inputs collapse onto one axis, the weights of the other inputs and of the
//! ReLU units that go dead see exactly-zero gradients, and their Adam first
//! moments decay through the denormal range for ~1000 steps. The trained
//! parameters and the loss history must match, bit for bit, a hand-written
//! `forward_ws`/`backward_ws`/`step_in_place` loop on serial scalar kernels
//! run inside `FlushedDenormals` on the test thread; one input axis carries
//! a denormal so that an unflushed trainer would end with different
//! parameters. The test also checks that `run` leaves the calling thread's
//! FP control value as it found it.

use melissa::trainer::{RankTrainer, TrainerShared};
use melissa::TrainingConfig;
use std::sync::Arc;
use std::time::Instant;
use surrogate_nn::simd::{fp_control, FlushedDenormals};
use surrogate_nn::{
    Activation, Adam, AdamConfig, Batch, InitScheme, KernelIsa, Loss, LrSchedule, Mlp, MlpConfig,
    MseLoss, Sample, SampleBasedHalving,
};
use training_buffer::{build_buffer, BufferConfig, BufferKind, TrainingBuffer};

const BATCH_SIZE: usize = 4;
const ROUNDS: usize = 1024;
/// Rounds whose inputs span axes 0–2; later inputs keep axis 0 only.
const WARMUP_ROUNDS: usize = 16;
/// Input axis 3 always carries this denormal, and its first-layer weights
/// start at exactly zero. Flushed, its gradients are exactly zero and the
/// weights stay zero. Unflushed, the denormal products reach Adam with a
/// second moment that underflows to zero, so the update `lr · m̂ / ε` moves
/// each weight to a normal ~1e-36 on the first step: a trainer thread that
/// ran unflushed cannot match the flushed hand loop.
const DENORMAL: f32 = 1.5e-39;
/// 128 × 256 = 2^15 output-layer weights: the slice `step_in_place` splits
/// across the pool. Each output-layer GEMM of a batch of 4 is 2^17
/// multiply-adds, the kernels' parallel threshold.
const LAYERS: [usize; 3] = [4, 128, 256];

/// Inputs and targets from plain arithmetic only, so the stream does not
/// depend on any libm implementation.
fn sample(k: usize) -> Sample {
    let x = ((k * 37 % 101) as f32) / 101.0;
    let inputs = if k < WARMUP_ROUNDS * BATCH_SIZE {
        vec![x, 1.0 - x, x * x, DENORMAL]
    } else {
        vec![x, 0.0, 0.0, DENORMAL]
    };
    let targets = (0..LAYERS[2])
        .map(|j| {
            let t = ((j * 13 + k * 7) % 64) as f32 / 64.0;
            0.5 * x + 0.5 * t * (1.0 - x)
        })
        .collect();
    Sample::new(inputs, targets, (k % 8) as u64, k)
}

/// The first-layer weights of input axis 3 (weights are `fan_in × fan_out`,
/// row-major, first in the flat parameter order).
fn denormal_axis_weights(params: &[f32]) -> &[f32] {
    &params[3 * LAYERS[1]..4 * LAYERS[1]]
}

fn model() -> Mlp {
    let mut model = Mlp::new(MlpConfig {
        layer_sizes: LAYERS.to_vec(),
        activation: Activation::ReLU,
        init: InitScheme::HeUniform,
        seed: 9,
    });
    let mut params = model.params_flat();
    params[3 * LAYERS[1]..4 * LAYERS[1]].fill(0.0);
    model.set_params_flat(&params);
    model
}

fn config() -> TrainingConfig {
    TrainingConfig {
        batch_size: BATCH_SIZE,
        num_ranks: 1,
        validation_interval_batches: 0,
        gemm_threads: 2,
        ..TrainingConfig::default()
    }
}

/// The trainer's parameters and per-round training losses, trained by `run`
/// on the calling thread.
fn train_with_rank_trainer() -> (Vec<f32>, Vec<f32>) {
    let total = BATCH_SIZE * ROUNDS;
    let buffer: Arc<dyn TrainingBuffer<Sample>> =
        Arc::from(build_buffer::<Sample>(&BufferConfig {
            kind: BufferKind::Fifo,
            capacity: total,
            threshold: 1,
            seed: 3,
        }));
    for k in 0..total {
        buffer.put(sample(k));
    }
    buffer.mark_reception_over();
    let shared = Arc::new(TrainerShared::new(1, model().param_count()));
    let trainer = RankTrainer::new(0, model(), buffer, config(), None, shared);
    // Read right around `run`: the thread's own arithmetic sets sticky
    // exception flags in the same register.
    let before = fp_control();
    let outcome = trainer.run(Instant::now());
    assert_eq!(
        fp_control(),
        before,
        "run must restore the caller's FP control"
    );
    assert_eq!(outcome.batches_with_data, ROUNDS, "every batch must train");
    let losses = outcome.losses.iter().map(|p| p.train_loss).collect();
    (outcome.model.params_flat(), losses)
}

/// The first `rounds` rounds by hand on the calling thread, serial and on
/// the scalar kernels: parameters, per-round losses and the optimizer.
fn train_by_hand(rounds: usize) -> (Vec<f32>, Vec<f32>, Adam) {
    let config = config();
    let mut model = model();
    let mut ws = model.workspace(BATCH_SIZE).with_isa(KernelIsa::Scalar);
    let mut adam =
        Adam::new(AdamConfig::default(), model.param_count()).with_isa(KernelIsa::Scalar);
    let schedule = SampleBasedHalving {
        initial: config.initial_learning_rate,
        interval_samples: config.lr_halving_samples,
        floor: config.lr_floor,
    };
    let mut batch = Batch::with_capacity(BATCH_SIZE, LAYERS[0], LAYERS[2]);
    let mut losses = Vec::with_capacity(rounds);
    for round in 1..=rounds {
        batch.clear();
        for k in (round - 1) * BATCH_SIZE..round * BATCH_SIZE {
            batch.push_sample(&sample(k));
        }
        model.forward_ws(&batch.inputs, &mut ws);
        let (prediction, grad) = ws.output_and_grad_mut();
        losses.push(MseLoss.evaluate_into(prediction, &batch.targets, grad));
        model.backward_ws(&mut ws);
        let lr = schedule.learning_rate(round, round * BATCH_SIZE);
        adam.step_in_place(&mut model, ws.pool(), lr);
    }
    (model.params_flat(), losses, adam)
}

/// Adam's first and second moments, read from its serialized state.
fn moments(adam: &Adam) -> (Vec<f32>, Vec<f32>) {
    let json = serde_json::to_string(adam).expect("Adam serializes");
    let state: serde::Value = serde_json::from_str(&json).expect("valid JSON");
    let field = |name: &str| -> Vec<f32> {
        let (_, value) = state
            .as_object()
            .and_then(|fields| fields.iter().find(|(key, _)| key == name))
            .expect("moment field");
        value
            .as_array()
            .expect("moment array")
            .iter()
            .map(|v| v.as_number().expect("number").parse().expect("f32"))
            .collect()
    };
    (field("first_moment"), field("second_moment"))
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn flushed_training_matches_a_hand_loop_through_the_denormal_regime() {
    let (trained, trained_losses) = train_with_rank_trainer();
    let (unflushed, _, _) = train_by_hand(1);
    assert!(
        denormal_axis_weights(&unflushed)
            .iter()
            .any(|w| w.is_normal()),
        "unflushed, the denormal products should move the axis-3 weights"
    );

    let _flushed = FlushedDenormals::enter();
    let (params, losses, adam) = train_by_hand(ROUNDS);
    assert!(denormal_axis_weights(&params)
        .iter()
        .all(|w| w.to_bits() == 0));
    assert_eq!(bits(&trained), bits(&params), "trained parameters");
    assert_eq!(bits(&trained_losses), bits(&losses), "training losses");

    // A first moment of exactly zero next to a nonzero second moment had a
    // nonzero gradient once and decayed since; unflushed it would have stuck
    // at a denormal instead (0.9 × 1 ulp rounds back to 1 ulp). Count such
    // lanes among the output-layer weights, the slice the pool splits: each
    // ReLU unit that went dead after the warm-up contributes a row of them.
    let (first, second) = moments(&adam);
    let start = LAYERS[0] * LAYERS[1] + LAYERS[1];
    let output_weights = start..start + LAYERS[1] * LAYERS[2];
    let flushed_lanes = first[output_weights.clone()]
        .iter()
        .zip(&second[output_weights])
        .filter(|(m, v)| m.to_bits() << 1 == 0 && v.to_bits() << 1 != 0)
        .count();
    assert!(
        flushed_lanes >= LAYERS[2],
        "only {flushed_lanes} output-layer moments were flushed"
    );
}
