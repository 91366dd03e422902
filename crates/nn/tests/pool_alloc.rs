//! Asserts that the pooled training path allocates nothing in steady state:
//! with two kernel threads and layers wide enough that the GEMMs and the
//! Adam step really split across the pool, a full step — batch refill,
//! forward, loss, backward and the in-place optimizer step — performs
//! **zero heap allocations**, on the caller and on the helper thread alike
//! (the counter is process-wide).
//!
//! The file holds exactly one test so no concurrent test thread can pollute
//! the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use surrogate_nn::kernels::PAR_MIN_MADDS;
use surrogate_nn::simd::ADAM_PAR_MIN;
use surrogate_nn::{
    Activation, Adam, AdamConfig, Batch, InitScheme, Loss, Mlp, MlpConfig, MseLoss, Sample,
    Workspace,
};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // ordering: Relaxed — a pure allocation tally; the window's loads below run after the pool's Acquire waits, which order every helper's work before them
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // ordering: Relaxed — a pure allocation tally (see `alloc`)
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn pooled_steady_state_training_step_allocates_nothing() {
    const BATCH_SIZE: usize = 10;
    // Every wide GEMM and the widest weight slice cross the split thresholds.
    const { assert!(BATCH_SIZE * 256 * 512 >= PAR_MIN_MADDS) };
    const { assert!(256 * 512 >= ADAM_PAR_MIN) };
    let batch_size = BATCH_SIZE;
    let layers = vec![6, 64, 256, 512];
    let mut model = Mlp::new(MlpConfig {
        layer_sizes: layers,
        activation: Activation::ReLU,
        init: InitScheme::HeUniform,
        seed: 4,
    });
    let mut optimizer = Adam::new(AdamConfig::default(), model.param_count());
    let loss_fn = MseLoss;
    let mut ws = model.workspace(batch_size).with_threads(2);
    assert_eq!(ws.threads(), 2);
    let mut batch = Batch::with_capacity(batch_size, model.input_size(), model.output_size());

    let samples: Vec<Sample> = (0..batch_size)
        .map(|k| {
            let x = k as f32 / batch_size as f32;
            Sample::new(vec![x; 6], vec![x * 0.5; 512], 0, k)
        })
        .collect();

    let mut step = |model: &mut Mlp, optimizer: &mut Adam, ws: &mut Workspace| {
        batch.fill_owned(&samples);
        model.forward_ws(&batch.inputs, ws);
        let (prediction, grad_out) = ws.output_and_grad_mut();
        let loss = loss_fn.evaluate_into(prediction, &batch.targets, grad_out);
        model.backward_ws(ws);
        optimizer.step_in_place(model, ws.pool(), 1e-3);
        loss
    };

    // Warm up: lazily allocated buffers (weight gradients) reach their
    // steady state.
    for _ in 0..3 {
        step(&mut model, &mut optimizer, &mut ws);
    }

    // The test-harness thread may allocate concurrently (output buffering),
    // so accept any clean 10-step window out of a few attempts.
    let mut min_allocations = usize::MAX;
    let mut last_loss = 0.0;
    for _ in 0..5 {
        // ordering: Relaxed — the window's steps run on this thread, and the pool returns from each dispatch only after an Acquire wait on every helper chunk
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..10 {
            last_loss = step(&mut model, &mut optimizer, &mut ws);
        }
        // ordering: Relaxed — same counted window as the load above
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        min_allocations = min_allocations.min(after - before);
        if min_allocations == 0 {
            break;
        }
    }

    assert!(last_loss.is_finite());
    assert_eq!(
        min_allocations, 0,
        "pooled steady-state training steps must not allocate \
         (best window: {min_allocations} allocations in 10 steps)"
    );
}
