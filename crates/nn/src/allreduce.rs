//! Gradient all-reduce for data-distributed parallel training.
//!
//! The paper's training server runs one model replica per GPU; after each batch
//! backpropagation the locally computed gradients are all-reduced between all
//! processes and applied to each local copy so the replicas stay identical
//! (§3.1). [`GradientSynchronizer`] reproduces this with a barrier-protected
//! shared accumulation buffer: every rank contributes its gradient vector,
//! receives the mean, and all ranks proceed in lock-step — exactly the
//! synchronous data-parallel semantics of PyTorch DDP / Horovod. A single
//! rank is its own mean, so its all-reduce is a length check and nothing else.

use parking_lot::Mutex;
use std::sync::Barrier;

/// Shared accumulation state of one collective round.
struct Accumulator {
    values: Vec<f32>,
    /// Ranks that contributed to the current round; the first contributor
    /// overwrites instead of adding, so no zeroing pass is ever needed.
    contributed: usize,
}

/// Synchronous mean all-reduce over `num_ranks` participating training threads.
pub struct GradientSynchronizer {
    num_ranks: usize,
    param_count: usize,
    barrier: Barrier,
    accumulator: Mutex<Accumulator>,
}

impl GradientSynchronizer {
    /// Creates a synchronizer for `num_ranks` ranks and `param_count` parameters.
    pub fn new(num_ranks: usize, param_count: usize) -> Self {
        assert!(num_ranks > 0, "need at least one rank");
        // One rank never touches the accumulator, so it gets no storage.
        let shared_len = if num_ranks > 1 { param_count } else { 0 };
        Self {
            num_ranks,
            param_count,
            barrier: Barrier::new(num_ranks),
            accumulator: Mutex::new(Accumulator {
                values: vec![0.0; shared_len],
                contributed: 0,
            }),
        }
    }

    /// Number of participating ranks.
    pub fn num_ranks(&self) -> usize {
        self.num_ranks
    }

    /// All-reduces `grads` in place: on return every rank holds the element-wise
    /// mean of all contributed gradient vectors.
    ///
    /// Every rank must call this once per training step, with equal-length
    /// vectors, or the collective deadlocks (as MPI would).
    ///
    /// The first contributor of a round copies its vector into the shared
    /// buffer and later contributors add to it, which saves one full
    /// `param_count`-wide zeroing pass per round compared to reset-then-add —
    /// this matters because the collective runs once per batch on a vector as
    /// large as the model.
    ///
    /// With one rank the mean is `grads` itself: the call checks the length
    /// and returns, with no lock, no barrier and no copy. Every non-NaN value
    /// keeps its exact bits, as it did when the one-rank path copied the
    /// vector out and back scaled by 1.0.
    ///
    /// # Panics
    /// Panics when `grads.len()` differs from the configured parameter count.
    pub fn all_reduce_mean(&self, grads: &mut [f32]) {
        assert_eq!(self.param_count, grads.len(), "gradient length mismatch");
        if self.num_ranks == 1 {
            return;
        }
        {
            let mut acc = self.accumulator.lock();
            if acc.contributed == 0 {
                acc.values.copy_from_slice(grads);
            } else {
                for (a, g) in acc.values.iter_mut().zip(grads.iter()) {
                    *a += g;
                }
            }
            acc.contributed += 1;
        }
        // Phase 1: all contributions are in.
        self.barrier.wait();
        {
            let acc = self.accumulator.lock();
            let scale = 1.0 / self.num_ranks as f32;
            for (g, a) in grads.iter_mut().zip(acc.values.iter()) {
                *g = a * scale;
            }
        }
        // Phase 2: all ranks have read; the leader opens the next round.
        if self.barrier.wait().is_leader() {
            self.accumulator.lock().contributed = 0;
        }
        // Phase 3: the reset is visible before anyone contributes again.
        self.barrier.wait();
    }

    /// Barrier without a reduction (used to align replicas at epoch boundaries).
    pub fn barrier(&self) {
        self.barrier.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_rank_mean_is_identity() {
        let sync = GradientSynchronizer::new(1, 4);
        let mut grads = vec![1.0, -2.0, 3.0, 0.5];
        sync.all_reduce_mean(&mut grads);
        assert_eq!(grads, vec![1.0, -2.0, 3.0, 0.5]);
    }

    #[test]
    fn single_rank_keeps_every_bit() {
        let values = [
            -0.0,
            0.0,
            f32::from_bits(1), // smallest positive subnormal
            -f32::MIN_POSITIVE / 3.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.5,
            -7.25e-3,
            f32::MAX,
        ];
        let sync = GradientSynchronizer::new(1, values.len());
        let mut grads = values;
        for _ in 0..3 {
            sync.all_reduce_mean(&mut grads);
        }
        for (got, want) in grads.iter().zip(values.iter()) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn mean_across_four_ranks() {
        let sync = Arc::new(GradientSynchronizer::new(4, 3));
        let results = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for rank in 0..4 {
            let sync = Arc::clone(&sync);
            let results = Arc::clone(&results);
            handles.push(std::thread::spawn(move || {
                let mut grads = vec![rank as f32; 3];
                sync.all_reduce_mean(&mut grads);
                results.lock().push(grads);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let results = results.lock();
        assert_eq!(results.len(), 4);
        for r in results.iter() {
            // Mean of 0, 1, 2, 3 is 1.5.
            assert_eq!(r, &vec![1.5, 1.5, 1.5]);
        }
    }

    #[test]
    fn consecutive_reductions_do_not_leak_state() {
        let sync = Arc::new(GradientSynchronizer::new(2, 2));
        let results = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for rank in 0..2 {
            let sync = Arc::clone(&sync);
            let results = Arc::clone(&results);
            handles.push(std::thread::spawn(move || {
                let mut out = Vec::new();
                for round in 0..5 {
                    let mut grads = vec![(rank + round) as f32; 2];
                    sync.all_reduce_mean(&mut grads);
                    out.push(grads[0]);
                }
                results.lock().push(out);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let results = results.lock();
        // Round r: mean of r and r+1 is r + 0.5.
        for per_rank in results.iter() {
            for (round, v) in per_rank.iter().enumerate() {
                assert_eq!(*v, round as f32 + 0.5);
            }
        }
    }

    #[test]
    #[should_panic(expected = "gradient length mismatch")]
    fn rejects_wrong_length() {
        let sync = GradientSynchronizer::new(1, 4);
        let mut grads = vec![0.0; 3];
        sync.all_reduce_mean(&mut grads);
    }

    #[test]
    #[should_panic(expected = "need at least one rank")]
    fn rejects_zero_ranks() {
        let _ = GradientSynchronizer::new(0, 4);
    }
}
