//! Optimizers operating on the flattened parameter/gradient vectors.
//!
//! The paper trains with Adam starting at a learning rate of `1e-3`; SGD with
//! momentum is kept as a baseline for ablations.

use crate::mlp::Mlp;
use crate::pool::KernelPool;
use crate::simd::{self, KernelIsa};
use serde::{Deserialize, Serialize};

/// An optimizer consuming flattened gradients and updating the model in place.
pub trait Optimizer: Send {
    /// Applies one update step with the given learning rate.
    fn step(&mut self, model: &mut Mlp, grads: &[f32], learning_rate: f32);

    /// Number of update steps applied so far.
    fn steps_taken(&self) -> usize;

    /// Human-readable optimizer name.
    fn name(&self) -> &'static str;
}

/// Configuration of the [`Adam`] optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdamConfig {
    /// Exponential decay rate of the first moment.
    pub beta1: f32,
    /// Exponential decay rate of the second moment.
    pub beta2: f32,
    /// Numerical stabiliser.
    pub epsilon: f32,
    /// Optional decoupled weight decay (AdamW style); 0 disables it.
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            weight_decay: 0.0,
        }
    }
}

/// Adam optimizer (Kingma & Ba), the paper's choice.
///
/// The step is fully fused: moment update, bias correction, optional
/// decoupled weight decay and the parameter update run in a single pass over
/// the parameters via [`Mlp::for_each_param_slice_mut`] — no delta vector is
/// ever materialised, so a step performs zero allocations and touches each
/// parameter-sized buffer the minimum number of times. The arithmetic per
/// element is identical to the classic compute-delta-then-apply formulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    config: AdamConfig,
    first_moment: Vec<f32>,
    second_moment: Vec<f32>,
    steps: usize,
    /// Kernel-ISA request the fused pass dispatches on. Every resolved ISA is
    /// bit-identical, so this is operational state, not part of a checkpoint
    /// (restored checkpoints re-detect on the restoring host).
    #[serde(skip)]
    isa: KernelIsa,
}

impl Adam {
    /// Creates the optimizer for a model with `param_count` parameters.
    pub fn new(config: AdamConfig, param_count: usize) -> Self {
        Self {
            config,
            first_moment: vec![0.0; param_count],
            second_moment: vec![0.0; param_count],
            steps: 0,
            isa: KernelIsa::Auto,
        }
    }

    /// Sets the kernel-ISA request the fused update dispatches on
    /// (bit-identical for every resolved ISA; `Auto` is the default).
    pub fn with_isa(mut self, isa: KernelIsa) -> Self {
        self.isa = isa;
        self
    }

    /// The optimizer configuration.
    pub fn config(&self) -> &AdamConfig {
        &self.config
    }

    /// Applies one update step from the model's own gradients, with no
    /// flattened copy: the single-rank training step, where the all-reduce
    /// would return the gradients unchanged. Large parameter slices split
    /// across `pool` ([`simd::adam_update_pooled`]). Bit-identical to
    /// [`Optimizer::step`] on [`Mlp::grads_flat`].
    ///
    /// # Panics
    /// Panics when the model's parameter count differs from the optimizer
    /// state, or before the model's first backward pass.
    pub fn step_in_place(
        &mut self,
        model: &mut Mlp,
        mut pool: Option<&mut KernelPool>,
        learning_rate: f32,
    ) {
        assert_eq!(
            model.param_count(),
            self.first_moment.len(),
            "model size does not match optimizer state"
        );
        let step = self.next_step(learning_rate);
        let isa = self.isa.resolve();
        let first = &mut self.first_moment;
        let second = &mut self.second_moment;
        let mut offset = 0usize;
        model.for_each_param_grad_mut(|params, grads| {
            let range = offset..offset + params.len();
            simd::adam_update_pooled(
                isa,
                pool.as_deref_mut(),
                params,
                grads,
                &mut first[range.clone()],
                &mut second[range],
                step,
            );
            offset += params.len();
        });
    }

    /// Counts one step and returns its loop-invariant inputs.
    fn next_step(&mut self, learning_rate: f32) -> simd::AdamStep {
        self.steps += 1;
        let t = self.steps as f32;
        let b1 = self.config.beta1;
        let b2 = self.config.beta2;
        simd::AdamStep {
            beta1: b1,
            beta2: b2,
            bias1: 1.0 - b1.powf(t),
            bias2: 1.0 - b2.powf(t),
            learning_rate,
            epsilon: self.config.epsilon,
            decay: learning_rate * self.config.weight_decay,
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, model: &mut Mlp, grads: &[f32], learning_rate: f32) {
        assert_eq!(
            grads.len(),
            self.first_moment.len(),
            "gradient length does not match optimizer state"
        );
        assert_eq!(
            grads.len(),
            model.param_count(),
            "gradient length does not match the model"
        );
        let step = self.next_step(learning_rate);
        let isa = self.isa.resolve();
        let first = &mut self.first_moment;
        let second = &mut self.second_moment;
        let mut offset = 0usize;
        model.for_each_param_slice_mut(|params| {
            let g = &grads[offset..offset + params.len()];
            let m = &mut first[offset..offset + params.len()];
            let v = &mut second[offset..offset + params.len()];
            simd::adam_update(isa, params, g, m, v, step);
            offset += params.len();
        });
        debug_assert_eq!(offset, grads.len());
    }

    fn steps_taken(&self) -> usize {
        self.steps
    }

    fn name(&self) -> &'static str {
        "adam"
    }
}

/// Plain SGD with optional momentum, kept as an ablation baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sgd {
    momentum: f32,
    velocity: Vec<f32>,
    steps: usize,
    /// See [`Adam::with_isa`] — operational, never checkpointed.
    #[serde(skip)]
    isa: KernelIsa,
}

impl Sgd {
    /// Creates the optimizer for a model with `param_count` parameters.
    pub fn new(momentum: f32, param_count: usize) -> Self {
        Self {
            momentum,
            velocity: vec![0.0; param_count],
            steps: 0,
            isa: KernelIsa::Auto,
        }
    }

    /// Sets the kernel-ISA request the velocity update dispatches on.
    pub fn with_isa(mut self, isa: KernelIsa) -> Self {
        self.isa = isa;
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, model: &mut Mlp, grads: &[f32], learning_rate: f32) {
        assert_eq!(
            grads.len(),
            self.velocity.len(),
            "gradient length does not match optimizer state"
        );
        self.steps += 1;
        simd::sgd_velocity(
            self.isa.resolve(),
            &mut self.velocity,
            grads,
            self.momentum,
            learning_rate,
        );
        model.apply_delta(&self.velocity);
    }

    fn steps_taken(&self) -> usize {
        self.steps
    }

    fn name(&self) -> &'static str {
        "sgd"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::InitScheme;
    use crate::loss::{Loss, MseLoss};
    use crate::matrix::Matrix;
    use crate::mlp::{Activation, MlpConfig};

    fn model() -> Mlp {
        Mlp::new(MlpConfig {
            layer_sizes: vec![2, 6, 1],
            activation: Activation::Tanh,
            init: InitScheme::XavierUniform,
            seed: 21,
        })
    }

    fn train(optimizer: &mut dyn Optimizer, model: &mut Mlp, iters: usize) -> (f32, f32) {
        let inputs = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ]);
        // Learn a simple linear map y = x0 - 0.5 * x1.
        let targets = Matrix::from_rows(&[vec![0.0], vec![-0.5], vec![1.0], vec![0.5]]);
        let mut first = 0.0;
        let mut last = 0.0;
        for it in 0..iters {
            let pred = model.forward(&inputs);
            let (loss, grad) = MseLoss.evaluate(&pred, &targets);
            model.zero_grads();
            model.backward(&grad);
            let grads = model.grads_flat();
            optimizer.step(model, &grads, 0.05);
            if it == 0 {
                first = loss;
            }
            last = loss;
        }
        (first, last)
    }

    #[test]
    fn adam_reduces_loss() {
        let mut m = model();
        let mut opt = Adam::new(AdamConfig::default(), m.param_count());
        let (first, last) = train(&mut opt, &mut m, 200);
        assert!(last < first * 0.1, "first {first} last {last}");
        assert_eq!(opt.steps_taken(), 200);
    }

    #[test]
    fn sgd_with_momentum_reduces_loss() {
        let mut m = model();
        let mut opt = Sgd::new(0.9, m.param_count());
        let (first, last) = train(&mut opt, &mut m, 200);
        assert!(last < first * 0.5, "first {first} last {last}");
    }

    #[test]
    fn adam_single_step_matches_reference_formula() {
        // With zero moments, one Adam step moves each parameter by
        // -lr * g/ (|g| * sqrt(bias2)/bias...) — for the first step the update is
        // -lr * sign(g) / (1 + eps), independent of gradient magnitude.
        let mut m = model();
        let before = m.params_flat();
        let mut grads = vec![0.0f32; m.param_count()];
        grads[0] = 0.5;
        grads[1] = -2.0;
        let mut opt = Adam::new(AdamConfig::default(), m.param_count());
        opt.step(&mut m, &grads, 1e-3);
        let after = m.params_flat();
        assert!(
            (before[0] - after[0] - 1e-3).abs() < 1e-5,
            "positive gradient moves down"
        );
        assert!(
            (after[1] - before[1] - 1e-3).abs() < 1e-5,
            "negative gradient moves up"
        );
        // Untouched parameters keep their value.
        assert_eq!(before[2], after[2]);
    }

    #[test]
    fn step_in_place_matches_the_flattened_step() {
        let inputs = Matrix::from_rows(&[vec![0.3, -1.0], vec![2.0, 0.5]]);
        let targets = Matrix::from_rows(&[vec![1.0], vec![-0.25]]);
        let mut flat = model();
        let mut in_place = model();
        let mut flat_opt = Adam::new(AdamConfig::default(), flat.param_count());
        let mut in_place_opt = Adam::new(AdamConfig::default(), in_place.param_count());
        let mut pool = KernelPool::new(2);
        for _ in 0..5 {
            for m in [&mut flat, &mut in_place] {
                let pred = m.forward(&inputs);
                let (_, grad) = MseLoss.evaluate(&pred, &targets);
                m.zero_grads();
                m.backward(&grad);
            }
            let grads = flat.grads_flat();
            flat_opt.step(&mut flat, &grads, 0.01);
            in_place_opt.step_in_place(&mut in_place, Some(&mut pool), 0.01);
        }
        assert_eq!(flat.params_flat(), in_place.params_flat());
        assert_eq!(in_place_opt.steps_taken(), 5);
    }

    #[test]
    #[should_panic(expected = "run a backward pass first")]
    fn step_in_place_needs_gradients() {
        let mut m = model();
        let mut opt = Adam::new(AdamConfig::default(), m.param_count());
        opt.step_in_place(&mut m, None, 1e-3);
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut m = model();
        let before = m.params_flat();
        let grads = vec![0.0f32; m.param_count()];
        let mut opt = Adam::new(
            AdamConfig {
                weight_decay: 0.1,
                ..AdamConfig::default()
            },
            m.param_count(),
        );
        opt.step(&mut m, &grads, 1.0);
        let after = m.params_flat();
        // With zero gradients, only the decay acts: |after| < |before| for nonzero params.
        for (b, a) in before.iter().zip(&after) {
            if b.abs() > 1e-6 {
                assert!(a.abs() < b.abs());
            }
        }
    }

    #[test]
    fn optimizer_names() {
        let m = model();
        assert_eq!(
            Adam::new(AdamConfig::default(), m.param_count()).name(),
            "adam"
        );
        assert_eq!(Sgd::new(0.0, m.param_count()).name(), "sgd");
    }

    #[test]
    #[should_panic(expected = "gradient length does not match")]
    fn adam_rejects_mismatched_gradients() {
        let mut m = model();
        let mut opt = Adam::new(AdamConfig::default(), m.param_count());
        opt.step(&mut m, &[0.0; 3], 1e-3);
    }
}
