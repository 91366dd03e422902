//! Reusable forward/backward buffers: the ownership model of the
//! allocation-free training path.
//!
//! A [`Workspace`] owns every intermediate tensor one training step needs —
//! the copied batch input, the per-layer activations, the per-layer gradient
//! chain and the input gradient — sized for a maximum batch. The trainer owns
//! exactly one workspace per rank and lends it to
//! [`crate::Mlp::forward_ws`] / [`crate::Mlp::backward_ws`] each step, so the
//! steady-state hot path performs **zero heap allocations per batch**
//! (`tests/workspace_alloc.rs` asserts this with a counting allocator).
//!
//! Partial batches (the last batch of a drained buffer) are handled by
//! logically resizing the buffers down via [`crate::Matrix::resize_rows`],
//! which never reallocates below the high-water mark. Feeding a batch larger
//! than the configured capacity grows the buffers once and establishes a new
//! steady state.
//!
//! The workspace also owns the rank's kernel threads: `threads > 1` starts a
//! persistent [`KernelPool`] of `threads − 1` helpers that the large GEMMs
//! and the optimizer step split their output across (bit-identical results
//! for every thread count — see [`crate::kernels`]). Dropping the workspace
//! joins the helpers.

use crate::matrix::Matrix;
use crate::mlp::MlpConfig;
use crate::pool::KernelPool;
use crate::simd::{self, KernelIsa, ResolvedIsa};

/// Preallocated buffers for one model's forward/backward passes.
#[derive(Debug)]
pub struct Workspace {
    /// Layer widths this workspace was shaped for (input..output).
    pub(crate) layer_sizes: Vec<usize>,
    batch_capacity: usize,
    isa: ResolvedIsa,
    /// The kernel helper threads; `None` runs every kernel on the caller.
    pub(crate) pool: Option<KernelPool>,
    /// Copy of the batch input (backward reads it after the caller's borrow ends).
    pub(crate) input: Matrix,
    /// Per-layer post-activation outputs; the last one is the network output.
    pub(crate) acts: Vec<Matrix>,
    /// Per-layer gradient chain: `grads[l]` holds dLoss/d acts[l] on entry to
    /// layer `l`'s backward step and dLoss/d preact afterwards.
    pub(crate) grads: Vec<Matrix>,
    /// Gradient with respect to the network input.
    pub(crate) input_grad: Matrix,
    /// Per-layer transposed-weight scratch (`fan_out × fan_in`), used by the
    /// input-gradient fallback when the batch is not smaller than the layer
    /// fan-in.
    pub(crate) weights_t: Vec<Matrix>,
    /// Widest layer (including the input), sizing the flat scratch buffers.
    pub(crate) max_width: usize,
    /// Flat scratch for the transposed upstream gradient (`fan_out × rows`).
    pub(crate) scratch_t: Vec<f32>,
    /// Flat scratch for the transposed input gradient (`fan_in × rows`).
    pub(crate) scratch_o: Vec<f32>,
}

impl Workspace {
    /// Creates a workspace for the given architecture and maximum batch size.
    ///
    /// # Panics
    /// Panics when the configuration has fewer than two layer sizes or the
    /// batch capacity is zero.
    pub fn for_config(config: &MlpConfig, batch_capacity: usize) -> Self {
        assert!(
            config.layer_sizes.len() >= 2,
            "a workspace needs at least an input and an output size"
        );
        assert!(batch_capacity > 0, "batch capacity must be positive");
        let sizes = &config.layer_sizes;
        Self {
            layer_sizes: sizes.clone(),
            batch_capacity,
            isa: simd::detect(),
            pool: None,
            input: Matrix::zeros(batch_capacity, sizes[0]),
            acts: sizes[1..]
                .iter()
                .map(|&w| Matrix::zeros(batch_capacity, w))
                .collect(),
            grads: sizes[1..]
                .iter()
                .map(|&w| Matrix::zeros(batch_capacity, w))
                .collect(),
            input_grad: Matrix::zeros(batch_capacity, sizes[0]),
            weights_t: sizes
                .windows(2)
                .map(|w| Matrix::zeros(w[1], w[0]))
                .collect(),
            max_width: sizes.iter().copied().max().unwrap_or(1),
            scratch_t: vec![0.0; sizes.iter().copied().max().unwrap_or(1) * batch_capacity],
            scratch_o: vec![0.0; sizes.iter().copied().max().unwrap_or(1) * batch_capacity],
        }
    }

    /// Sets the kernel thread count (1 = serial; results are identical for
    /// any value). Above 1 it starts a [`KernelPool`] with `threads − 1`
    /// helper threads, replacing any earlier one. Only large layers use it —
    /// the kernels stay serial below a work threshold.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.pool = (threads > 1).then(|| KernelPool::new(threads));
        self
    }

    /// The kernel thread count: the caller plus the pool's helpers.
    pub fn threads(&self) -> usize {
        self.pool.as_ref().map_or(1, KernelPool::threads)
    }

    /// The kernel pool, for an optimizer step that splits over the same
    /// threads as the GEMMs ([`crate::Adam::step_in_place`]).
    pub fn pool(&mut self) -> Option<&mut KernelPool> {
        self.pool.as_mut()
    }

    /// Resolves a kernel-ISA request against the hardware and pins this
    /// workspace's forward/backward passes to the decision (the default is
    /// [`simd::detect`]'s auto choice). Every resolved ISA is bit-identical
    /// on the training path, so this is an operational knob like `threads`.
    pub fn with_isa(mut self, isa: KernelIsa) -> Self {
        self.isa = isa.resolve();
        self
    }

    /// The resolved kernel ISA forward/backward dispatch on.
    pub fn isa(&self) -> ResolvedIsa {
        self.isa
    }

    /// The batch size the buffers were preallocated for.
    pub fn batch_capacity(&self) -> usize {
        self.batch_capacity
    }

    /// The network output of the last forward pass.
    // analysis: hot_path
    pub fn output(&self) -> &Matrix {
        // analysis: allow(panic, reason = "Workspace::for_config builds one buffer per layer and Mlp::new asserts >= 1 layer")
        self.acts.last().expect("workspace has at least one layer")
    }

    /// The buffer holding dLoss/dOutput, which the loss writes before
    /// [`crate::Mlp::backward_ws`] consumes it.
    // analysis: hot_path
    pub fn output_grad_mut(&mut self) -> &mut Matrix {
        self.grads
            .last_mut()
            // analysis: allow(panic, reason = "Workspace::for_config builds one buffer per layer and Mlp::new asserts >= 1 layer")
            .expect("workspace has at least one layer")
    }

    /// The last forward output together with the loss-gradient buffer — the
    /// pair [`crate::Loss::evaluate_into`] consumes (split borrows of two
    /// distinct buffers).
    // analysis: hot_path
    pub fn output_and_grad_mut(&mut self) -> (&Matrix, &mut Matrix) {
        (
            // analysis: allow(panic, reason = "Workspace::for_config builds one buffer per layer and Mlp::new asserts >= 1 layer")
            self.acts.last().expect("workspace has at least one layer"),
            self.grads
                .last_mut()
                // analysis: allow(panic, reason = "Workspace::for_config builds one buffer per layer and Mlp::new asserts >= 1 layer")
                .expect("workspace has at least one layer"),
        )
    }

    /// Gradient with respect to the network input, valid after
    /// [`crate::Mlp::backward_ws`].
    // analysis: hot_path
    pub fn input_grad(&self) -> &Matrix {
        &self.input_grad
    }

    /// Logically resizes every buffer to `rows` (≤ capacity: no allocation).
    pub(crate) fn prepare(&mut self, rows: usize) {
        self.input.resize_rows(rows);
        self.input_grad.resize_rows(rows);
        for m in self.acts.iter_mut().chain(self.grads.iter_mut()) {
            m.resize_rows(rows);
        }
        let scratch = self.max_width * rows;
        if self.scratch_t.len() < scratch {
            self.scratch_t.resize(scratch, 0.0);
            self.scratch_o.resize(scratch, 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::InitScheme;
    use crate::mlp::Activation;

    fn config() -> MlpConfig {
        MlpConfig {
            layer_sizes: vec![3, 5, 2],
            activation: Activation::ReLU,
            init: InitScheme::HeUniform,
            seed: 0,
        }
    }

    #[test]
    fn shapes_follow_the_architecture() {
        let ws = Workspace::for_config(&config(), 8);
        assert_eq!(ws.batch_capacity(), 8);
        assert_eq!(ws.threads(), 1);
        assert_eq!(ws.output().cols(), 2);
        assert_eq!(ws.input_grad().cols(), 3);
        assert_eq!(ws.acts.len(), 2);
        assert_eq!(ws.grads.len(), 2);
    }

    #[test]
    fn prepare_resizes_all_buffers() {
        let mut ws = Workspace::for_config(&config(), 8);
        ws.prepare(3);
        assert_eq!(ws.output().rows(), 3);
        assert_eq!(ws.input.rows(), 3);
        ws.prepare(8);
        assert_eq!(ws.output().rows(), 8);
    }

    #[test]
    fn with_threads_clamps_to_one() {
        let ws = Workspace::for_config(&config(), 2).with_threads(0);
        assert_eq!(ws.threads(), 1);
    }

    #[test]
    fn dropping_the_workspace_joins_its_kernel_threads() {
        let mut ws = Workspace::for_config(&config(), 2).with_threads(3);
        assert_eq!(ws.threads(), 3);
        let pool = ws.pool().expect("three threads start a pool");
        let alive = pool.liveness();
        drop(ws);
        // Every helper holds the pool's shared state until its thread exits.
        assert_eq!(alive.strong_count(), 0);
        // Going back to one thread drops (and joins) the pool as well.
        let ws = Workspace::for_config(&config(), 2).with_threads(2);
        let ws = ws.with_threads(1);
        assert!(ws.pool.is_none());
    }

    #[test]
    #[should_panic(expected = "batch capacity")]
    fn zero_capacity_rejected() {
        let _ = Workspace::for_config(&config(), 0);
    }
}
