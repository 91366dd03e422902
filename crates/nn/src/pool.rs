//! One persistent worker pool for the data-parallel kernels.
//!
//! A [`KernelPool`] with `threads` participants is the dispatching thread
//! plus `threads − 1` helper threads that live as long as the pool; the
//! trainer's [`crate::Workspace`] owns one, and dropping it joins the
//! helpers. A job is a fixed number of chunks, at most one per participant
//! in the split helpers. Participant `p` (the caller is 0) first claims
//! chunk `p`, so a kernel called every training step keeps each part of its
//! operands in the same core's cache, and then takes whatever chunks are
//! still unclaimed. The caller therefore never waits on a chunk nobody has
//! claimed: with every helper asleep it runs all chunks itself. Dispatch
//! takes no lock and never allocates. Helpers spin for [`SPIN`] after their
//! last chunk and then park; dispatch unparks them only when one is parked.
//!
//! The split helpers ([`split_mut`], [`split_cols`]) hand each chunk output
//! memory no other chunk touches, and the kernels built on them split only
//! over independent output elements, so results are bit-identical for every
//! thread count. A helper runs each chunk under the dispatching thread's
//! floating-point control register (see [`crate::simd::FlushedDenormals`]).

use crate::simd::{self, FpControl};
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long an idle helper spins before it parks. Consecutive kernels of one
/// training step are microseconds apart, so a helper that spins across the
/// gap skips the unpark and wake-up latency of a parked thread; a helper that
/// sees no job for this long (the trainer waits on the buffer, or validation
/// runs) gives its core back.
const SPIN: Duration = Duration::from_micros(100);

/// Most participants a pool has, and most chunks one job has: one bit each
/// in [`Shared::unclaimed`].
const MAX_THREADS: usize = 64;

/// A persistent pool of kernel helper threads (see the module docs).
pub struct KernelPool {
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
}

/// The state the dispatching thread shares with the helpers.
struct Shared {
    /// One bit per chunk of the current job that nobody has claimed yet.
    unclaimed: AtomicU64,
    /// Chunks of the current job that have finished.
    done: AtomicUsize,
    /// The current job, on the dispatching thread's stack.
    job: AtomicPtr<Job<'static>>,
    /// Set when a chunk of the current job panicked on a helper.
    panicked: AtomicBool,
    /// Helpers that are parked or about to park.
    sleepers: AtomicUsize,
    /// Set once, by `Drop`: the helpers exit.
    shutdown: AtomicBool,
}

/// One dispatched job.
struct Job<'a> {
    run: &'a (dyn Fn(usize) + Sync),
    fp: FpControl,
}

impl KernelPool {
    /// Creates a pool of `threads` participants (at most 64): the thread
    /// that dispatches a kernel plus `threads − 1` helper threads. A helper the OS
    /// refuses to spawn is left out, so [`KernelPool::threads`] may come out
    /// smaller than asked.
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            unclaimed: AtomicU64::new(0),
            done: AtomicUsize::new(0),
            job: AtomicPtr::new(std::ptr::null_mut()),
            panicked: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        });
        let helpers = (1..threads.min(MAX_THREADS))
            .filter_map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("kernel-pool-{i}"))
                    .spawn(move || shared.helper_loop(i))
                    .ok()
            })
            .collect();
        Self { shared, helpers }
    }

    /// Number of participants: the dispatching thread plus the helpers.
    pub fn threads(&self) -> usize {
        self.helpers.len() + 1
    }

    /// A handle whose strong count drops to zero once the pool and every
    /// helper thread are gone (each helper holds the shared state).
    #[cfg(test)]
    pub(crate) fn liveness(&self) -> std::sync::Weak<dyn std::any::Any + Send + Sync> {
        let shared: Arc<dyn std::any::Any + Send + Sync> = self.shared.clone();
        Arc::downgrade(&shared)
    }

    /// Runs `f(chunk)` once for every chunk in `0..chunks` across the pool
    /// and returns when all of them have finished. A chunk that panics, on
    /// the caller or on a helper, re-raises on the caller after every other
    /// chunk has finished.
    ///
    /// # Panics
    /// Panics when `chunks` exceeds 64 on a pool with helpers, and re-raises
    /// a chunk's panic.
    // analysis: hot_path
    pub(crate) fn run(&mut self, chunks: usize, f: &(dyn Fn(usize) + Sync)) {
        if chunks < 2 || self.helpers.is_empty() {
            (0..chunks).for_each(f);
            return;
        }
        assert!(chunks <= MAX_THREADS, "too many chunks for one job");
        let shared = &*self.shared;
        let job = Job {
            run: f,
            fp: simd::fp_control(),
        };
        let job_ptr = std::ptr::from_ref(&job).cast::<Job<'static>>().cast_mut();
        // ordering: Relaxed — the three stores below are published by the SeqCst (hence release) `unclaimed` store after them, which every claim acquires
        shared.job.store(job_ptr, Ordering::Relaxed);
        // ordering: Relaxed — published by the claim store below (see above)
        shared.done.store(0, Ordering::Relaxed);
        // ordering: Relaxed — published by the claim store below (see above)
        shared.panicked.store(false, Ordering::Relaxed);
        let every_chunk = u64::MAX >> (64 - chunks);
        // ordering: SeqCst — releases the job to the claims; with the SeqCst `sleepers` load below and the helpers' SeqCst increment-then-check in `helper_loop`, a parking helper either sees this job or is counted and unparked
        shared.unclaimed.store(every_chunk, Ordering::SeqCst);
        // ordering: SeqCst — the other half of the handshake described at the `unclaimed` store
        if shared.sleepers.load(Ordering::SeqCst) > 0 {
            for helper in &self.helpers {
                helper.thread().unpark();
            }
        }
        let mut caller_panic = None;
        while let Some(chunk) = shared.claim(0) {
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| f(chunk))) {
                caller_panic.get_or_insert(payload);
            }
            // ordering: Relaxed — the caller's own chunks publish nothing to anyone; the count only has to reach `chunks`
            shared.done.fetch_add(1, Ordering::Relaxed);
        }
        // ordering: Acquire — pairs with each helper's Release increment, so every chunk's output (and `panicked`) is visible once the count is complete
        while shared.done.load(Ordering::Acquire) < chunks {
            std::hint::spin_loop();
        }
        // Every claimed chunk has finished, so no helper still holds `job`.
        if let Some(payload) = caller_panic {
            panic::resume_unwind(payload);
        }
        // ordering: Relaxed — ordered after the helpers' stores by the Acquire wait above
        if shared.panicked.load(Ordering::Relaxed) {
            // analysis: allow(panic, reason = "re-raises a chunk's panic from a helper thread on the caller; a panicking kernel chunk is a bug, not a recoverable state")
            panic!("a kernel-pool chunk panicked on a helper thread");
        }
    }
}

impl std::fmt::Debug for KernelPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelPool")
            .field("threads", &self.threads())
            .finish()
    }
}

impl Drop for KernelPool {
    fn drop(&mut self) {
        // ordering: SeqCst — pairs with the SeqCst check a helper makes after counting itself a sleeper: it either sees the flag or gets the unpark below
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for helper in self.helpers.drain(..) {
            helper.thread().unpark();
            // A helper catches every chunk's panic, so a join error cannot
            // carry one; there is nothing to report from `drop` anyway.
            let _ = helper.join();
        }
    }
}

impl Shared {
    /// Claims a chunk of the current job for participant `me`: chunk `me`
    /// while it is unclaimed, else the lowest unclaimed one.
    fn claim(&self, me: usize) -> Option<usize> {
        // ordering: Relaxed — a first look only; the fetch_and below is what synchronizes with the job's publication
        let mut unclaimed = self.unclaimed.load(Ordering::Relaxed);
        while unclaimed != 0 {
            let chunk = if unclaimed >> me & 1 == 1 {
                me
            } else {
                unclaimed.trailing_zeros() as usize
            };
            let bit = 1u64 << chunk;
            // ordering: AcqRel — clearing a set bit claims the chunk and acquires the job `run` published with its release store (claims continue that release sequence); a clear bit means another participant won it
            let before = self.unclaimed.fetch_and(!bit, Ordering::AcqRel);
            if before & bit != 0 {
                return Some(chunk);
            }
            unclaimed = before & !bit;
        }
        None
    }

    /// Runs chunks of the current job for participant `me` until none is
    /// left; returns whether it ran any. `fp` is this helper's current FP
    /// control register.
    fn help(&self, me: usize, fp: &mut FpControl) -> bool {
        let mut ran = false;
        while let Some(chunk) = self.claim(me) {
            // ordering: Acquire — the claim already acquired the job's publication; this load sees that job, since no other job can be published before this chunk counts as done
            let job_ptr = self.job.load(Ordering::Acquire);
            // SAFETY: `run` stored a pointer to its stack-held `Job` before
            // publishing this chunk and returns (ending the `Job`'s and the
            // closure's lifetimes) only after `done` counts every chunk. This
            // chunk is counted below, after the last use of `job`, so the
            // pointee is alive and unchanged for as long as `job` is used.
            let job = unsafe { &*job_ptr };
            if job.fp != *fp {
                simd::set_fp_control(job.fp);
                *fp = job.fp;
            }
            if panic::catch_unwind(AssertUnwindSafe(|| (job.run)(chunk))).is_err() {
                // ordering: Relaxed — published by the Release increment of `done` below
                self.panicked.store(true, Ordering::Relaxed);
            }
            // ordering: Release — publishes the chunk's output writes and `panicked` to the caller's Acquire wait; after this the job may be gone
            self.done.fetch_add(1, Ordering::Release);
            ran = true;
        }
        ran
    }

    /// Whether the current job has an unclaimed chunk.
    fn has_work(&self) -> bool {
        // ordering: SeqCst — the check half of the park handshake (see `KernelPool::run`)
        self.unclaimed.load(Ordering::SeqCst) != 0
    }

    /// The whole life of helper `me`: run chunks, spin for [`SPIN`] when
    /// idle, then park until dispatch or `Drop` unparks it.
    fn helper_loop(&self, me: usize) {
        let mut fp = simd::fp_control();
        loop {
            let mut idle_since = Instant::now();
            let mut spins = 0u32;
            loop {
                if self.help(me, &mut fp) {
                    idle_since = Instant::now();
                }
                // ordering: Relaxed — the flag publishes no data; `Drop` also unparks, and the SeqCst check before parking closes the race
                if self.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                spins = spins.wrapping_add(1);
                if spins.is_multiple_of(64) && idle_since.elapsed() > SPIN {
                    break;
                }
                std::hint::spin_loop();
            }
            // ordering: SeqCst — announce the park before the SeqCst re-checks below, so `run` (store job, then load sleepers) and `Drop` (store shutdown, then unpark) cannot both miss this helper
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            // ordering: SeqCst — see the sleepers increment above
            if !self.has_work() && !self.shutdown.load(Ordering::SeqCst) {
                thread::park();
            }
            // ordering: SeqCst — keeps the count exact for dispatch's unpark check
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Chunk length that splits `len` elements over `threads` participants with
/// every chunk start a multiple of `align` (the last chunk may be shorter).
pub(crate) fn chunk_len(len: usize, threads: usize, align: usize) -> usize {
    len.div_ceil(threads.max(1))
        .next_multiple_of(align)
        .max(align)
}

/// Calls `f(range, parts)` for consecutive `chunk`-long ranges of `0..len`
/// (the last may be shorter), where `parts` are those ranges of `slices`,
/// all `len` long, spread over `pool`. Without a pool, or with a single
/// chunk, it is one call with the whole range on the caller.
///
/// # Panics
/// Panics when the slices differ in length or `chunk` is zero.
// analysis: hot_path
pub(crate) fn split_mut<const N: usize>(
    pool: Option<&mut KernelPool>,
    slices: [&mut [f32]; N],
    chunk: usize,
    f: impl Fn(Range<usize>, [&mut [f32]; N]) + Sync,
) {
    assert!(chunk > 0, "split_mut: zero chunk length");
    let len = slices.first().map_or(0, |s| s.len());
    assert!(
        slices.iter().all(|s| s.len() == len),
        "split_mut: slice lengths differ"
    );
    let chunks = len.div_ceil(chunk);
    let pool = match pool {
        Some(pool) if chunks > 1 => pool,
        _ => return f(0..len, slices),
    };
    let bases = slices.map(|s| SyncPtr(s.as_mut_ptr()));
    pool.run(chunks, &|c| {
        let range = c * chunk..((c + 1) * chunk).min(len);
        // SAFETY: each base points at a slice of `len` elements borrowed
        // mutably by this call, and `run` returns before the borrow ends.
        // Chunk `c` covers `range ⊆ 0..len`, the ranges of distinct chunks
        // are disjoint, and `run` hands out each chunk exactly once, so no
        // two live parts overlap.
        let parts = bases.map(|base| unsafe {
            std::slice::from_raw_parts_mut(base.get().add(range.start), range.len())
        });
        f(range, parts);
    });
}

/// Calls `f(cols)` for consecutive `chunk`-wide column ranges of the
/// row-major `out` (`n` columns), spread over `pool`. Without a pool, or
/// with a single chunk, it is one call with every column on the caller.
///
/// # Panics
/// Panics when `out.len()` is not a multiple of `n` or `chunk` is zero.
// analysis: hot_path
pub(crate) fn split_cols(
    pool: Option<&mut KernelPool>,
    out: &mut [f32],
    n: usize,
    chunk: usize,
    f: impl Fn(&mut ColsMut<'_>) + Sync,
) {
    assert!(chunk > 0, "split_cols: zero chunk width");
    let chunks = n.div_ceil(chunk);
    let pool = match pool {
        Some(pool) if chunks > 1 => pool,
        _ => return f(&mut ColsMut::new(out, n)),
    };
    let rows = out.len() / n;
    assert_eq!(rows * n, out.len(), "split_cols: ragged matrix");
    let base = SyncPtr(out.as_mut_ptr());
    pool.run(chunks, &|c| {
        f(&mut ColsMut {
            ptr: base.get(),
            rows,
            stride: n,
            cols: c * chunk..((c + 1) * chunk).min(n),
            _out: PhantomData,
        })
    });
}

/// A raw pointer the split helpers share with the chunks.
#[derive(Clone, Copy)]
struct SyncPtr(*mut f32);

impl SyncPtr {
    /// The pointer (a method, so closures capture the `Sync` wrapper and not
    /// its field).
    fn get(self) -> *mut f32 {
        self.0
    }
}

// SAFETY: the pointer is only dereferenced through the disjoint per-chunk
// ranges `split_mut` and `split_cols` derive from it, while the borrow it
// came from is held by the dispatching call; the pointee is plain `f32`.
unsafe impl Sync for SyncPtr {}

/// Mutable view of the columns `cols` of every row of a row-major matrix
/// with `stride` columns. [`split_cols`] gives each chunk its own range of
/// columns, so views of one matrix never share an element.
pub(crate) struct ColsMut<'a> {
    ptr: *mut f32,
    rows: usize,
    stride: usize,
    cols: Range<usize>,
    _out: PhantomData<&'a mut [f32]>,
}

impl<'a> ColsMut<'a> {
    /// A view of every column of `out`, a row-major matrix with `n` columns.
    ///
    /// # Panics
    /// Panics when `out.len()` is not a multiple of `n`.
    pub(crate) fn new(out: &'a mut [f32], n: usize) -> Self {
        let rows = out.len().checked_div(n).unwrap_or(0);
        assert_eq!(rows * n, out.len(), "ColsMut: ragged matrix");
        Self {
            ptr: out.as_mut_ptr(),
            rows,
            stride: n,
            cols: 0..n,
            _out: PhantomData,
        }
    }

    /// The columns this view may touch.
    pub(crate) fn cols(&self) -> Range<usize> {
        self.cols.clone()
    }

    /// Row `i`, columns `j..j + len`.
    ///
    /// # Panics
    /// Panics when the span leaves the view.
    #[inline]
    pub(crate) fn span(&mut self, i: usize, j: usize, len: usize) -> &mut [f32] {
        assert!(
            i < self.rows && self.cols.start <= j && j + len <= self.cols.end,
            "ColsMut: span outside the view"
        );
        // SAFETY: `ptr` addresses a `rows × stride` matrix borrowed mutably
        // for `'a`, and `cols.end <= stride`. The assert keeps the span
        // inside row `i` and inside this view's columns, which no other view
        // of the matrix covers; `&mut self` keeps it the only live span.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(i * self.stride + j), len) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn every_chunk_runs_exactly_once() {
        for threads in 1..=4 {
            let mut pool = KernelPool::new(threads);
            assert_eq!(pool.threads(), threads);
            for chunks in [0, 1, 2, 3, 7] {
                let counts: Vec<AtomicUsize> = (0..chunks).map(|_| AtomicUsize::new(0)).collect();
                pool.run(chunks, &|c| {
                    // ordering: Relaxed — a tally read after `run` returned, which orders it
                    counts[c].fetch_add(1, Ordering::Relaxed);
                });
                // ordering: Relaxed — `run` returned, so every increment is visible
                assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
            }
        }
    }

    #[test]
    fn split_mut_covers_every_element_once() {
        let mut pool = KernelPool::new(3);
        let mut a = vec![0.0f32; 103];
        let mut b = vec![0.0f32; 103];
        split_mut(Some(&mut pool), [&mut a, &mut b], 16, |range, [a, b]| {
            for (k, (x, y)) in a.iter_mut().zip(b.iter_mut()).enumerate() {
                *x += (range.start + k) as f32;
                *y += 1.0;
            }
        });
        assert!(a.iter().enumerate().all(|(k, &x)| x == k as f32));
        assert!(b.iter().all(|&y| y == 1.0));
    }

    #[test]
    fn split_cols_covers_every_element_once() {
        let (m, n) = (5, 37);
        let mut pool = KernelPool::new(2);
        let mut out = vec![0.0f32; m * n];
        split_cols(Some(&mut pool), &mut out, n, 16, |cols| {
            let range = cols.cols();
            for i in 0..m {
                for (t, v) in cols
                    .span(i, range.start, range.len())
                    .iter_mut()
                    .enumerate()
                {
                    *v += (i * n + range.start + t) as f32;
                }
            }
        });
        assert!(out.iter().enumerate().all(|(k, &v)| v == k as f32));
    }

    #[test]
    fn chunk_len_aligns_every_start() {
        assert_eq!(chunk_len(1024, 2, 16), 512);
        assert_eq!(chunk_len(100, 3, 16), 48);
        assert_eq!(chunk_len(5, 4, 16), 16);
        assert_eq!(chunk_len(0, 2, 16), 16);
    }

    #[test]
    #[should_panic(expected = "span outside the view")]
    fn cols_mut_rejects_spans_outside_its_columns() {
        let mut out = vec![0.0f32; 8];
        let mut view = ColsMut::new(&mut out, 4);
        view.span(0, 2, 3);
    }

    #[test]
    fn a_panic_on_a_helper_re_raises_on_the_caller() {
        let mut pool = KernelPool::new(2);
        let caller = thread::current().id();
        let helper_started = AtomicBool::new(false);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, &|_| {
                if thread::current().id() == caller {
                    // Hold the caller in its chunk until the helper has
                    // claimed the other one, so the panic happens there.
                    // ordering: Acquire — pairs with the helper's Release store
                    while !helper_started.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                } else {
                    // ordering: Release — pairs with the caller's Acquire load
                    helper_started.store(true, Ordering::Release);
                    panic!("chunk failure on a helper");
                }
            });
        }));
        let payload = result.expect_err("the helper's panic must reach the caller");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(message.contains("helper thread"), "{message}");
        // The pool survives: the next job runs normally.
        let ran = AtomicUsize::new(0);
        pool.run(4, &|_| {
            // ordering: Relaxed — a tally read after `run` returned
            ran.fetch_add(1, Ordering::Relaxed);
        });
        // ordering: Relaxed — `run` returned, so every increment is visible
        assert_eq!(ran.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn a_panic_on_the_caller_waits_for_the_helpers_then_re_raises() {
        let mut pool = KernelPool::new(3);
        let caller = thread::current().id();
        let caller_failed = AtomicBool::new(false);
        let ran = AtomicUsize::new(0);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(6, &|_| {
                // ordering: Relaxed — a tally read after `run` returned
                ran.fetch_add(1, Ordering::Relaxed);
                if thread::current().id() == caller {
                    // ordering: Release — pairs with the helpers' Acquire loads
                    caller_failed.store(true, Ordering::Release);
                    panic!("caller chunk failed");
                }
                // Helpers finish only after the caller's chunk has failed,
                // so two helpers can hold at most two chunks and the caller
                // is sure to claim one of the six.
                // ordering: Acquire — pairs with the caller's Release store
                while !caller_failed.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
            });
        }));
        let payload = result.expect_err("the caller's panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"caller chunk failed"));
        // ordering: Relaxed — `run` returned, so every increment is visible
        let ran = ran.load(Ordering::Relaxed);
        assert_eq!(ran, 6, "every chunk ran before the re-raise");
    }

    #[test]
    fn dropping_the_pool_joins_its_helpers() {
        let pool = KernelPool::new(3);
        let alive = pool.liveness();
        // Let the helpers finish spinning and park, then drop.
        thread::sleep(SPIN * 3);
        drop(pool);
        // Each helper holds a strong reference until its thread exits, so
        // none is left once `drop` has joined them.
        assert_eq!(alive.strong_count(), 0);
    }

    #[test]
    fn helpers_run_under_the_callers_fp_control() {
        let _flushed = simd::FlushedDenormals::enter();
        let mut pool = KernelPool::new(2);
        let caller = thread::current().id();
        let helper_saw = AtomicBool::new(false);
        let helper_ran = AtomicBool::new(false);
        pool.run(2, &|_| {
            if thread::current().id() == caller {
                // ordering: Acquire — pairs with the helper's Release store
                while !helper_ran.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
            } else {
                let product = std::hint::black_box(f32::from_bits(1)) * 2.0;
                // ordering: Relaxed — published by the Release store below
                helper_saw.store(product == 0.0, Ordering::Relaxed);
                // ordering: Release — pairs with the caller's Acquire load
                helper_ran.store(true, Ordering::Release);
            }
        });
        #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
        // ordering: Relaxed — `run` returned, so the helper's store is visible
        assert!(helper_saw.load(Ordering::Relaxed), "helper did not flush");
    }
}
