//! Bit-identity in the regime that flushing denormals changes.
//!
//! Training runs with denormals flushed to zero (`simd::FlushedDenormals`).
//! Wherever a gradient stays exactly zero, Adam's first moment decays as
//! `m ← 0.9·m` into the denormal range: unflushed it sticks there (`0.9 × 4
//! ulp` rounds back to `4 ulp`), flushed it becomes exactly 0. These tests
//! drive parameters through that regime and pin, inside the guard, the scalar
//! kernels, the dispatched kernels and the pooled kernels against each other
//! bit for bit. Each test also shows the regime is real: the same inputs
//! without the guard leave denormals where the flushed run has zeros. Those
//! checks compare bits, since under the guard a denormal compares equal to
//! zero.
//!
//! `Adam::step_in_place` is `adam_update_pooled` over each parameter slice;
//! `melissa`'s `flushed_training` test pins it, inside a trainer, against a
//! serial scalar hand-written loop through the same regime.
//!
//! Under `MELISSA_KERNEL_ISA=scalar` the dispatched side resolves to scalar
//! and the cross-ISA comparisons become identity checks; the pooled and
//! flushed-versus-unflushed checks still bite.

use surrogate_nn::simd::{self, AdamStep, Epilogue, FlushedDenormals, ResolvedIsa};
use surrogate_nn::{kernels, KernelPool};

/// Steps with an exactly-zero gradient on the dead lanes: a first moment of
/// order 0.1 needs ~820 of them to decay below `f32::MIN_POSITIVE`.
const ZERO_STEPS: usize = 1000;
/// Steps before that in which every lane sees a nonzero gradient.
const WARMUP: usize = 3;

/// Deterministic values in `[-scale, scale)` (splitmix64-expanded).
fn seeded(len: usize, seed: u64, scale: f32) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            ((z >> 40) as f32 / (1u64 << 23) as f32 - 1.0) * scale
        })
        .collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn adam_step(t: usize) -> AdamStep {
    AdamStep {
        beta1: 0.9,
        beta2: 0.999,
        bias1: 1.0 - 0.9f32.powf(t as f32),
        bias2: 1.0 - 0.999f32.powf(t as f32),
        learning_rate: 1e-3,
        epsilon: 1e-8,
        decay: 0.0,
    }
}

fn is_dead(lane: usize) -> bool {
    lane.is_multiple_of(3)
}

/// Parameters, first and second moments after `WARMUP + ZERO_STEPS` Adam
/// updates of `len` lanes, driven through `update`. Every lane sees a
/// nonzero gradient during the warm-up; after it the dead lanes see exactly
/// zero while the others keep alternating between two gradients.
fn train_adam(
    len: usize,
    mut update: impl FnMut(&mut [f32], &[f32], &mut [f32], &mut [f32], AdamStep),
) -> [Vec<f32>; 3] {
    let live = [seeded(len, 1, 1e-2), seeded(len, 2, 1e-2)];
    let dead = live.clone().map(|mut g| {
        (0..len).filter(|&i| is_dead(i)).for_each(|i| g[i] = 0.0);
        g
    });
    let mut params = seeded(len, 3, 1.0);
    let (mut first, mut second) = (vec![0.0f32; len], vec![0.0f32; len]);
    for t in 1..=WARMUP + ZERO_STEPS {
        let grads = if t <= WARMUP { &live } else { &dead };
        update(
            &mut params,
            &grads[t % 2],
            &mut first,
            &mut second,
            adam_step(t),
        );
    }
    [params, first, second]
}

/// Scalar, dispatched and pooled (2 and 3 threads) Adam updates stay
/// bit-identical inside the guard while the dead lanes' first moments decay
/// through the denormal range, and the guard flushes exactly those moments
/// to zero where an unguarded run leaves them denormal.
#[test]
fn adam_is_bit_identical_through_the_denormal_regime() {
    let len = simd::ADAM_PAR_MIN + 37;
    let isa = simd::detect();
    let unflushed = train_adam(len, |p, g, m, v, s| simd::adam_update(isa, p, g, m, v, s));

    let _flushed = FlushedDenormals::enter();
    let scalar = train_adam(len, |p, g, m, v, s| {
        simd::adam_update(ResolvedIsa::Scalar, p, g, m, v, s)
    });
    let dispatched = train_adam(len, |p, g, m, v, s| simd::adam_update(isa, p, g, m, v, s));
    for threads in [2, 3] {
        let mut pool = KernelPool::new(threads);
        let pooled = train_adam(len, |p, g, m, v, s| {
            simd::adam_update_pooled(isa, Some(&mut pool), p, g, m, v, s)
        });
        for (name, (a, b)) in ["params", "first", "second"]
            .iter()
            .zip(scalar.iter().zip(&pooled))
        {
            assert_eq!(bits(a), bits(b), "{name}: scalar vs {threads} threads");
        }
    }
    for (name, (a, b)) in ["params", "first", "second"]
        .iter()
        .zip(scalar.iter().zip(&dispatched))
    {
        assert_eq!(bits(a), bits(b), "{name}: scalar vs {isa:?}");
    }

    let (first, stuck) = (&scalar[1], &unflushed[1]);
    for lane in (0..len).filter(|&i| is_dead(i)) {
        assert!(
            stuck[lane].is_subnormal(),
            "lane {lane}: the unguarded moment {} should be stuck denormal",
            stuck[lane]
        );
        assert_eq!(
            first[lane].to_bits(),
            0,
            "lane {lane}: the guard should flush it"
        );
    }
    assert!(
        (0..len)
            .filter(|&i| !is_dead(i))
            .all(|i| first[i].is_normal()),
        "live lanes keep normal moments"
    );
}

/// `gemm_nn` and `gemm_tn` on operands with denormal entries: inside the
/// guard the scalar reference kernels, the dispatched kernels and the pooled
/// kernels at 2 and 3 threads agree bit for bit, and a row of denormal
/// inputs yields exact zeros that an unguarded run does not.
#[test]
fn gemms_are_bit_identical_on_denormal_inputs() {
    let isa = simd::detect();
    for (m, k, n) in [(10, 140, 333), (260, 200, 10)] {
        assert!(m * k * n >= kernels::PAR_MIN_MADDS, "{m}x{k}x{n}");
        let mut a = seeded(m * k, 4, 4.0);
        // Row 0 of A is all denormal; elsewhere every 7th entry is.
        for (i, x) in a.iter_mut().enumerate() {
            if i < k || i % 7 == 0 {
                *x = f32::from_bits(1 + (i as u32 % 0x7f_fffe));
            }
        }
        let b = seeded(k * n, 5, 4.0);
        let bt = seeded(m * n, 6, 4.0);
        let gemms = |isa: ResolvedIsa, mut pool: Option<&mut KernelPool>| {
            let mut nn = vec![f32::NAN; m * n];
            simd::gemm_nn(
                isa,
                pool.as_deref_mut(),
                &a,
                m,
                k,
                &b,
                n,
                &mut nn,
                Epilogue::Identity,
            );
            let mut tn = vec![f32::NAN; k * n];
            simd::gemm_tn(isa, pool, &a, m, k, &bt, n, &mut tn, false);
            (nn, tn)
        };
        let (unflushed_nn, _) = gemms(isa, None);

        let _flushed = FlushedDenormals::enter();
        let mut reference_nn = vec![f32::NAN; m * n];
        kernels::gemm_nn(None, &a, m, k, &b, n, &mut reference_nn, |_, acc| acc);
        let mut reference_tn = vec![f32::NAN; k * n];
        kernels::gemm_tn(None, &a, m, k, &bt, n, &mut reference_tn, false);
        let (nn, tn) = gemms(isa, None);
        assert_eq!(bits(&reference_nn), bits(&nn), "gemm_nn {m}x{k}x{n}");
        assert_eq!(bits(&reference_tn), bits(&tn), "gemm_tn {m}x{k}x{n}");
        for threads in [2, 3] {
            let mut pool = KernelPool::new(threads);
            let (pooled_nn, pooled_tn) = gemms(isa, Some(&mut pool));
            assert_eq!(bits(&nn), bits(&pooled_nn), "gemm_nn, {threads} threads");
            assert_eq!(bits(&tn), bits(&pooled_tn), "gemm_tn, {threads} threads");
        }

        // Row 0 of C sums denormal × normal products only. Compare bits:
        // under the guard a denormal compares equal to zero.
        let is_zero = |c: &f32| c.to_bits() << 1 == 0;
        assert!(nn[..n].iter().all(is_zero), "flushed row 0");
        assert!(
            !unflushed_nn[..n].iter().all(is_zero),
            "unguarded row 0 keeps its denormal products"
        );
    }
}
