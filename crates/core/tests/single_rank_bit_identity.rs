//! Bit-identity pin for single-rank training.
//!
//! A one-rank `RankTrainer` trains a fixed model on a pre-filled FIFO buffer
//! at `gemm_threads = 0` (the default) and at `gemm_threads = 2`. The model's
//! output layer is wide enough that its GEMMs cross the kernels' parallel
//! threshold, so the threaded kernels really run at 2 threads. Both runs must
//! end with the same parameters bit for bit, and those parameters must match
//! a checksum recorded before the default thread count and the one-rank
//! all-reduce were last changed: neither the thread count nor the shape of
//! the one-rank collective may move a single trained bit.

use melissa::trainer::{RankTrainer, TrainerShared};
use melissa::TrainingConfig;
use melissa_transport::Checksum64;
use std::sync::Arc;
use std::time::Instant;
use surrogate_nn::{Activation, InitScheme, Mlp, MlpConfig, Sample};
use training_buffer::{build_buffer, BufferConfig, BufferKind, TrainingBuffer};

const BATCH_SIZE: usize = 16;
const ROUNDS: usize = 24;
/// 16 × 96 × 1024 multiply-adds per output-layer GEMM: above the kernels'
/// 2^20 parallel threshold, so `gemm_threads = 2` splits the work.
const LAYERS: [usize; 3] = [4, 96, 1024];
/// `Checksum64` over the little-endian bits of the trained parameters.
const TRAINED_CHECKSUM: u64 = 5_547_064_625_559_055_120;

/// Inputs and targets from plain arithmetic only, so the stream does not
/// depend on any libm implementation.
fn sample(k: usize) -> Sample {
    let x = ((k * 37 % 101) as f32) / 101.0;
    let inputs = vec![x, 1.0 - x, x * x, 0.25 + 0.5 * x];
    let targets = (0..LAYERS[2])
        .map(|j| {
            let t = ((j * 13 + k * 7) % 64) as f32 / 64.0;
            0.5 * x + 0.5 * t * (1.0 - x)
        })
        .collect();
    Sample::new(inputs, targets, (k % 8) as u64, k)
}

fn model() -> Mlp {
    Mlp::new(MlpConfig {
        layer_sizes: LAYERS.to_vec(),
        activation: Activation::ReLU,
        init: InitScheme::HeUniform,
        seed: 5,
    })
}

fn train(gemm_threads: usize) -> Vec<f32> {
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
    let config = TrainingConfig {
        batch_size: BATCH_SIZE,
        num_ranks: 1,
        validation_interval_batches: 0,
        gemm_threads,
        ..TrainingConfig::default()
    };
    let shared = Arc::new(TrainerShared::new(1, model().param_count()));
    let outcome = RankTrainer::new(0, model(), buffer, config, None, shared).run(Instant::now());
    assert_eq!(outcome.batches_with_data, ROUNDS, "every batch must train");
    outcome.model.params_flat()
}

fn checksum(params: &[f32]) -> u64 {
    let mut sum = Checksum64::new();
    for p in params {
        sum.update(&p.to_bits().to_le_bytes());
    }
    sum.finish()
}

#[test]
fn single_rank_training_is_bit_identical_across_gemm_threads() {
    let default_threads = train(0);
    let two_threads = train(2);
    assert!(default_threads.iter().all(|p| p.is_finite()));
    assert_eq!(default_threads.len(), two_threads.len());
    for (i, (a, b)) in default_threads.iter().zip(&two_threads).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "param {i} diverged: {a} vs {b}");
    }
    assert_eq!(
        checksum(&default_threads),
        TRAINED_CHECKSUM,
        "trained parameters moved from the recorded checksum"
    );
}
