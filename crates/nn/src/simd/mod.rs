//! Runtime-dispatched SIMD kernels for the training hot path.
//!
//! This module is the single home of every `core::arch` intrinsic (and every
//! `unsafe` block) in the workspace. The scalar blocked kernels in
//! [`crate::kernels`] stay untouched as the always-available fallback and as
//! the reference the equivalence proptests pin against; this layer merely
//! routes each operation to the widest implementation the machine supports.
//!
//! # Dispatch
//!
//! * [`KernelIsa`] is the *configuration* knob (`auto` / `scalar` / `avx2` /
//!   `neon`), threaded through `TrainingConfig` and the experiment builder.
//! * [`ResolvedIsa`] is the *decision*: [`KernelIsa::resolve`] maps a request
//!   onto what the hardware actually offers (a named ISA the CPU lacks falls
//!   back to scalar rather than faulting), and [`detect`] caches the
//!   auto-detected answer once per process. The `MELISSA_KERNEL_ISA`
//!   environment variable overrides auto-detection globally — CI uses it to
//!   re-run the whole suite on the forced-scalar path.
//! * Every AVX2 arm re-asserts `is_x86_feature_detected!` before entering the
//!   `#[target_feature]` code, so even a hand-constructed [`ResolvedIsa`]
//!   value cannot reach vector instructions the CPU does not have.
//!
//! # Numeric contracts
//!
//! Two classes of kernels, mirroring the versioned-stream convention the
//! buffer crate uses for its seed policies:
//!
//! * **Bit-identical** (the default): [`gemm_nn`], [`gemm_tn`], [`transpose`],
//!   and all element-wise streams ([`act_derivative_mul`], [`mse_fused`],
//!   [`adam_update`], [`sgd_velocity`], [`add_assign`], [`fill_outer`], the
//!   normaliser ops). These vectorise across *independent output elements*
//!   while keeping each element's reduction a single accumulator in ascending
//!   order, and use separate multiply + add instructions (never FMA — a fused
//!   multiply-add rounds once where the scalar reference rounds twice), so the
//!   results match the scalar kernels bit for bit (modulo the sign of exact
//!   zeros, the tolerance [`crate::kernels`] already documents).
//! * **Contract-versioned**: [`gemm_nt`] ("gemm-nt-v2"). Its reduction runs
//!   along the contiguous dimension, so the vector path keeps eight FMA
//!   partial sums folded in ascending lane order plus an ascending scalar
//!   tail — a different association order than v1, so v1 (scalar) and v2
//!   (vector) are pinned by separate regressions and the hot training path
//!   keeps using bit-identical kernels only.
//!
//! Both contracts hold within one floating-point environment. Training
//! threads run with denormals flushed to zero ([`FlushedDenormals`]), so
//! that is the environment in which training is bit-identical across ISAs
//! and thread counts; the kernels themselves never change it.
//!
//! On `aarch64`, NEON currently accelerates the element-wise streams; the
//! GEMM family falls back to the blocked scalar kernels there (explicit NEON
//! micro-kernels are a recorded follow-up in `ROADMAP.md`).

use crate::kernels;
use crate::mlp::Activation;
use crate::pool::{self, KernelPool};
use serde::{Deserialize, Serialize, Value};
use std::marker::PhantomData;
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "aarch64")]
mod neon;

/// The configured kernel-ISA request (`TrainingConfig::kernel_isa`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelIsa {
    /// Pick the widest ISA the CPU supports (the default).
    #[default]
    Auto,
    /// Force the blocked scalar reference kernels.
    Scalar,
    /// Request AVX2+FMA; falls back to scalar when the CPU lacks it.
    Avx2,
    /// Request NEON (aarch64); falls back to scalar elsewhere.
    Neon,
}

impl KernelIsa {
    /// Resolves the request against the running hardware. A named ISA the CPU
    /// cannot execute degrades to [`ResolvedIsa::Scalar`] instead of faulting;
    /// `Auto` consults the cached [`detect`] decision.
    pub fn resolve(self) -> ResolvedIsa {
        match self {
            KernelIsa::Auto => detect(),
            other => resolve_requested(other),
        }
    }
}

impl std::fmt::Display for KernelIsa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            KernelIsa::Auto => "auto",
            KernelIsa::Scalar => "scalar",
            KernelIsa::Avx2 => "avx2",
            KernelIsa::Neon => "neon",
        };
        f.write_str(name)
    }
}

impl std::str::FromStr for KernelIsa {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Ok(KernelIsa::Auto),
            "scalar" => Ok(KernelIsa::Scalar),
            "avx2" | "avx2+fma" => Ok(KernelIsa::Avx2),
            "neon" => Ok(KernelIsa::Neon),
            other => Err(format!(
                "unknown kernel ISA {other:?} (expected auto, scalar, avx2 or neon)"
            )),
        }
    }
}

// Manual serde impls: the knob round-trips as its lowercase name ("auto",
// "scalar", "avx2", "neon") so configs stay hand-editable.
impl Serialize for KernelIsa {
    fn serialize(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for KernelIsa {
    fn deserialize(value: &Value) -> Result<Self, serde::Error> {
        let name = value
            .as_str()
            .ok_or_else(|| serde::Error::expected("a string", "KernelIsa"))?;
        name.parse().map_err(serde::Error::custom)
    }
}

/// The dispatch decision every kernel call routes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedIsa {
    /// Blocked scalar reference kernels ([`crate::kernels`]).
    Scalar,
    /// AVX2 + FMA vector kernels (x86_64).
    Avx2,
    /// NEON element-wise streams (aarch64); GEMMs stay scalar.
    Neon,
}

impl ResolvedIsa {
    /// Human-readable name recorded in reports and bench JSON.
    pub fn name(&self) -> &'static str {
        match self {
            ResolvedIsa::Scalar => "scalar",
            ResolvedIsa::Avx2 => "avx2+fma",
            ResolvedIsa::Neon => "neon",
        }
    }

    /// f32 lanes per vector register on this path.
    pub fn lane_width(&self) -> usize {
        match self {
            ResolvedIsa::Scalar => 1,
            ResolvedIsa::Avx2 => 8,
            ResolvedIsa::Neon => 4,
        }
    }

    /// GEMM micro-kernel tile this path runs (rows × columns), recorded in
    /// bench JSON. The AVX2 kernels block adaptively up to 10 register rows
    /// (one default batch per pass over the streamed operand); scalar — and
    /// NEON, whose GEMMs currently fall back to scalar — keep the fixed
    /// [`crate::kernels::MR`]×[`crate::kernels::NR`] tile.
    pub fn gemm_tile(&self) -> &'static str {
        match self {
            ResolvedIsa::Avx2 => "10x8-adaptive",
            ResolvedIsa::Scalar | ResolvedIsa::Neon => "4x8",
        }
    }
}

impl std::fmt::Display for ResolvedIsa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// Serialized as the same name reports and bench JSON print ("scalar",
// "avx2+fma", "neon"). Deserialization is not needed — the decision is
// derived from [`KernelIsa`] at runtime, never read back.
impl Serialize for ResolvedIsa {
    fn serialize(&self) -> Value {
        Value::Str(self.name().to_string())
    }
}

/// True when the AVX2+FMA path can run on this CPU.
#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// Maps an explicit (non-auto) request onto the hardware.
fn resolve_requested(request: KernelIsa) -> ResolvedIsa {
    match request {
        KernelIsa::Auto => best_available(),
        KernelIsa::Scalar => ResolvedIsa::Scalar,
        KernelIsa::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            if avx2_available() {
                return ResolvedIsa::Avx2;
            }
            ResolvedIsa::Scalar
        }
        KernelIsa::Neon => {
            #[cfg(target_arch = "aarch64")]
            return ResolvedIsa::Neon;
            #[cfg(not(target_arch = "aarch64"))]
            ResolvedIsa::Scalar
        }
    }
}

/// Widest ISA the running CPU offers.
fn best_available() -> ResolvedIsa {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        return ResolvedIsa::Avx2;
    }
    #[cfg(target_arch = "aarch64")]
    return ResolvedIsa::Neon;
    #[allow(unreachable_code)]
    ResolvedIsa::Scalar
}

static DETECTED: OnceLock<ResolvedIsa> = OnceLock::new();

/// The process-wide auto-detection decision, resolved once. Honors the
/// `MELISSA_KERNEL_ISA` environment variable (`auto`, `scalar`, `avx2`,
/// `neon`) as a global override so CI and tests can force the scalar path
/// without touching every call site; unknown values fall back to detection.
pub fn detect() -> ResolvedIsa {
    *DETECTED.get_or_init(|| match std::env::var("MELISSA_KERNEL_ISA") {
        Ok(name) => match name.parse::<KernelIsa>() {
            Ok(request) => resolve_requested(request),
            Err(_) => best_available(),
        },
        Err(_) => best_available(),
    })
}

/// The control-register bits that flush denormals: FTZ | DAZ in MXCSR on
/// x86_64, FZ in FPCR on aarch64, none elsewhere.
#[cfg(target_arch = "x86_64")]
const FLUSH: u64 = (1 << 15) | (1 << 6);
#[cfg(target_arch = "aarch64")]
const FLUSH: u64 = 1 << 24;
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
const FLUSH: u64 = 0;

/// Flush-to-zero / denormals-are-zero floating-point mode for the **calling
/// thread**, for as long as the guard lives. Dropping the guard, on return
/// or while unwinding from a panic, loads the exact control value the thread
/// had before [`FlushedDenormals::enter`]; guards nest. On x86_64 that
/// register also holds MXCSR's sticky exception flags, so flags raised
/// inside the guard do not outlive it. No-op on architectures without a
/// known control bit.
///
/// Training drives Adam's moments toward zero wherever a gradient stays
/// exactly zero: a dead ReLU unit's first moment decays as `m ← 0.9·m`,
/// reaches the denormal range after ~760 steps and stays there, because
/// `0.9 × 4 ulp` rounds back to `4 ulp`. Every later step then takes a
/// microcode assist on those lanes — a measured ~10× slowdown of the fused
/// optimizer pass, on the scalar and vector paths alike. FTZ+DAZ flushes
/// those denormals to zero and removes the assists.
///
/// The kernels never touch the FP environment. Training threads do, scoped
/// by this guard: `RankTrainer::run` and each offline rank thread of the
/// `melissa` crate hold one for their whole body, and `bench_throughput`
/// holds one while it measures. Flushing changes numerics (denormals become
/// zero), and the bit-identity contract holds *within* the flushed
/// environment: every ISA performs the same per-element operation sequence
/// and FTZ/DAZ applies per operation, deterministically. A
/// [`crate::KernelPool`] helper runs each chunk under the dispatching
/// thread's control value, so the contract also holds across thread counts.
/// Runs compared bit for bit must use the same environment on both sides.
///
/// The guard is `!Send`: it restores the register of the thread that
/// entered it.
#[must_use = "denormals are flushed only while the guard lives"]
#[derive(Debug)]
pub struct FlushedDenormals {
    saved: FpControl,
    _this_thread: PhantomData<*const ()>,
}

impl FlushedDenormals {
    /// Saves the calling thread's FP control value and sets FTZ+DAZ (FZ on
    /// aarch64) on top of it.
    pub fn enter() -> Self {
        let saved = fp_control();
        set_fp_control(FpControl(saved.0 | FLUSH));
        Self {
            saved,
            _this_thread: PhantomData,
        }
    }
}

impl Drop for FlushedDenormals {
    fn drop(&mut self) {
        set_fp_control(self.saved);
    }
}

/// A value of the calling thread's floating-point control register (MXCSR
/// on x86_64, FPCR on aarch64, nothing elsewhere). Only [`fp_control`]
/// makes one, so the crate only ever loads a value the hardware produced,
/// or one with defined control bits set on top of it (the flush bits; a
/// unit test also sets the rounding mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FpControl(u64);

/// Reads the calling thread's floating-point control register, so a caller
/// can check that a scoped change such as [`FlushedDenormals`] left it as
/// found.
pub fn fp_control() -> FpControl {
    #[cfg(target_arch = "x86_64")]
    {
        let mut csr: u32 = 0;
        // SAFETY: stmxcsr stores the 32-bit MXCSR into the caller-owned
        // `csr`; no other memory is touched and the stack is not used.
        unsafe { core::arch::asm!("stmxcsr [{0}]", in(reg) &mut csr, options(nostack)) };
        FpControl(u64::from(csr))
    }
    #[cfg(target_arch = "aarch64")]
    {
        let fpcr: u64;
        // SAFETY: reads FPCR into a register; no memory is touched.
        unsafe { core::arch::asm!("mrs {0}, fpcr", out(reg) fpcr, options(nostack, nomem)) };
        FpControl(fpcr)
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    FpControl(0)
}

/// Loads `value` into the calling thread's floating-point control register.
pub(crate) fn set_fp_control(value: FpControl) {
    #[cfg(target_arch = "x86_64")]
    {
        // An `FpControl` is an MXCSR image from `fp_control`, possibly with
        // defined control bits set, so it holds only 32 defined bits.
        let csr = value.0 as u32;
        // SAFETY: ldmxcsr reads the caller-owned `csr`; its reserved bits
        // are clear because the value came from stmxcsr with only defined
        // bits (FTZ, DAZ, rounding control) set on top, so the load cannot
        // fault. It changes rounding and
        // denormal handling for this thread only.
        unsafe { core::arch::asm!("ldmxcsr [{0}]", in(reg) &csr, options(nostack, readonly)) };
    }
    #[cfg(target_arch = "aarch64")]
    {
        // SAFETY: writes FPCR with a value read from FPCR (possibly with FZ
        // or the rounding mode set), changing this thread's FP environment
        // only; no memory is touched.
        unsafe { core::arch::asm!("msr fpcr, {0}", in(reg) value.0, options(nostack, nomem)) };
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = value;
}

/// Fused GEMM epilogue, the enum counterpart of the closure
/// [`crate::kernels::gemm_nn`] takes — an enum the vector kernels can match
/// on, where a generic closure would force them back to scalar calls.
#[derive(Clone, Copy)]
pub enum Epilogue<'a> {
    /// Store the accumulator unchanged.
    Identity,
    /// `act(acc + biases[j])` — the fused dense-layer forward epilogue.
    BiasAct {
        /// Per-output-column biases (length `n`).
        biases: &'a [f32],
        /// Activation applied after the bias add.
        activation: Activation,
    },
}

/// `C = A·B` with a fused epilogue, dispatched on `isa`. Bit-identical to
/// [`crate::kernels::gemm_nn`] for every ISA and pool: the vector path
/// widens across output columns only, keeping each element's ascending-k
/// single-accumulator reduction and separate multiply/add rounding, and it
/// splits the output over `pool` exactly as the scalar kernel does.
///
/// # Panics
/// Panics when slice lengths do not match the dimensions, or when a
/// [`Epilogue::BiasAct`] bias vector is not `n` long.
// analysis: hot_path
#[allow(clippy::too_many_arguments)]
pub fn gemm_nn(
    isa: ResolvedIsa,
    pool: Option<&mut KernelPool>,
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    epi: Epilogue<'_>,
) {
    if let Epilogue::BiasAct { biases, .. } = epi {
        assert_eq!(biases.len(), n, "gemm_nn: bias length");
    }
    match isa {
        #[cfg(target_arch = "x86_64")]
        ResolvedIsa::Avx2 => {
            assert_eq!(a.len(), m * k, "gemm_nn: A length");
            assert_eq!(b.len(), k * n, "gemm_nn: B length");
            assert_eq!(out.len(), m * n, "gemm_nn: C length");
            assert!(
                avx2_available(),
                "ResolvedIsa::Avx2 on a CPU without AVX2+FMA"
            );
            kernels::par_gemm_nn(pool, a, m, k, n, out, |a, m, out| {
                // SAFETY: AVX2+FMA availability asserted above; `a` holds
                // the `m` rows of A that `out` covers, and B is `k×n`.
                unsafe { avx2::gemm_nn_serial(a, m, k, b, n, out, epi) }
            });
        }
        _ => match epi {
            Epilogue::Identity => kernels::gemm_nn(pool, a, m, k, b, n, out, |_, acc| acc),
            Epilogue::BiasAct { biases, activation } => {
                kernels::gemm_nn(pool, a, m, k, b, n, out, |j, acc| {
                    activation.apply(acc + biases[j])
                })
            }
        },
    }
}

/// `C = Aᵀ·B` / `C += Aᵀ·B`, dispatched on `isa`. Bit-identical to
/// [`crate::kernels::gemm_tn`]: the vector path widens across the contiguous
/// output columns while the per-element addition order stays ascending in the
/// reduction rows.
///
/// # Panics
/// Panics when the slice lengths do not match the dimensions.
// analysis: hot_path
#[allow(clippy::too_many_arguments)]
pub fn gemm_tn(
    isa: ResolvedIsa,
    pool: Option<&mut KernelPool>,
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    accumulate: bool,
) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        ResolvedIsa::Avx2 => {
            assert_eq!(a.len(), m * k, "gemm_tn: A length");
            assert_eq!(b.len(), m * n, "gemm_tn: B length");
            assert_eq!(out.len(), k * n, "gemm_tn: C length");
            assert!(
                avx2_available(),
                "ResolvedIsa::Avx2 on a CPU without AVX2+FMA"
            );
            kernels::par_gemm_tn(pool, m, k, n, out, |rows, out| {
                // SAFETY: AVX2+FMA availability and dimension agreement
                // asserted above; `out` holds exactly the output rows `rows`.
                unsafe {
                    avx2::gemm_tn_serial(a, m, k, rows.start, rows.end, b, n, out, accumulate)
                }
            });
        }
        _ => kernels::gemm_tn(pool, a, m, k, b, n, out, accumulate),
    }
}

/// `C = A·Bᵀ` under the **"gemm-nt-v2" numeric contract**: on a vector ISA
/// the k-reduction runs as eight interleaved FMA partial sums folded in
/// ascending lane order plus an ascending scalar tail — a *different
/// association order* than the scalar v1 kernel, versioned explicitly the way
/// the buffer crate versions its seed streams. The scalar arm (and
/// [`crate::Matrix::matmul_transpose_into`], which stays on it) keeps the v1
/// contract; `tests/simd_equivalence.rs` pins both. The bit-identical hot
/// training path never routes through this kernel, so it runs serially.
///
/// # Panics
/// Panics when the slice lengths do not match the dimensions.
pub fn gemm_nt(
    isa: ResolvedIsa,
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        ResolvedIsa::Avx2 => {
            assert_eq!(a.len(), m * k, "gemm_nt: A length");
            assert_eq!(b.len(), n * k, "gemm_nt: B length");
            assert_eq!(out.len(), m * n, "gemm_nt: C length");
            assert!(
                avx2_available(),
                "ResolvedIsa::Avx2 on a CPU without AVX2+FMA"
            );
            // SAFETY: AVX2+FMA availability and dimension agreement
            // asserted above.
            unsafe { avx2::gemm_nt_serial(a, m, k, b, n, out) };
        }
        _ => kernels::gemm_nt(a, m, k, b, n, out, |_, acc| acc),
    }
}

/// Blocked transpose dispatched on `isa` — pure data movement (an 8×8
/// register transpose on AVX2), trivially bit-identical to
/// [`crate::kernels::transpose`].
///
/// # Panics
/// Panics when the slice lengths do not match the dimensions.
// analysis: hot_path
pub fn transpose(isa: ResolvedIsa, a: &[f32], m: usize, n: usize, out: &mut [f32]) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        ResolvedIsa::Avx2 => {
            assert_eq!(a.len(), m * n, "transpose: input length");
            assert_eq!(out.len(), m * n, "transpose: output length");
            assert!(
                avx2_available(),
                "ResolvedIsa::Avx2 on a CPU without AVX2+FMA"
            );
            // SAFETY: AVX2 availability and length agreement asserted above.
            unsafe { avx2::transpose(a, m, n, out) };
        }
        _ => kernels::transpose(a, m, n, out),
    }
}

/// Backward activation pass: `grad[i] *= act'(y[i])` with the derivative
/// expressed through the post-activation value
/// ([`Activation::derivative_from_output`]). Bit-identical on every ISA —
/// each lane performs the same multiply chain as the scalar loop (the ReLU
/// factor is materialised as literal `1.0`/`0.0` before the multiply, so even
/// the sign of zeroed gradients matches).
///
/// # Panics
/// Panics when the slice lengths differ.
// analysis: hot_path
pub fn act_derivative_mul(isa: ResolvedIsa, grad: &mut [f32], ys: &[f32], activation: Activation) {
    assert_eq!(grad.len(), ys.len(), "act_derivative_mul: length mismatch");
    if activation == Activation::Identity {
        return;
    }
    match isa {
        #[cfg(target_arch = "x86_64")]
        ResolvedIsa::Avx2 => {
            assert!(
                avx2_available(),
                "ResolvedIsa::Avx2 on a CPU without AVX2+FMA"
            );
            // SAFETY: AVX2 availability and equal lengths asserted above.
            unsafe { avx2::act_derivative_mul(grad, ys, activation) };
        }
        #[cfg(target_arch = "aarch64")]
        ResolvedIsa::Neon => neon::act_derivative_mul(grad, ys, activation),
        _ => {
            for (g, &y) in grad.iter_mut().zip(ys) {
                *g *= activation.derivative_from_output(y);
            }
        }
    }
}

/// Fused MSE pass: writes `grad[i] = (pred[i] − target[i]) · scale` and
/// returns `Σ diff²`. The gradient store is vectorised; the sum is
/// accumulated *scalar, in ascending element order*, so the loss stays
/// bit-identical to the scalar single-accumulator loop on every ISA.
///
/// # Panics
/// Panics when the slice lengths differ.
// analysis: hot_path
pub fn mse_fused(
    isa: ResolvedIsa,
    pred: &[f32],
    target: &[f32],
    scale: f32,
    grad: &mut [f32],
) -> f32 {
    assert_eq!(pred.len(), target.len(), "mse_fused: length mismatch");
    assert_eq!(pred.len(), grad.len(), "mse_fused: gradient length");
    match isa {
        #[cfg(target_arch = "x86_64")]
        ResolvedIsa::Avx2 => {
            assert!(
                avx2_available(),
                "ResolvedIsa::Avx2 on a CPU without AVX2+FMA"
            );
            // SAFETY: AVX2 availability and equal lengths asserted above.
            unsafe { avx2::mse_fused(pred, target, scale, grad) }
        }
        #[cfg(target_arch = "aarch64")]
        ResolvedIsa::Neon => neon::mse_fused(pred, target, scale, grad),
        _ => {
            let mut sum = 0.0f32;
            for ((g, &p), &t) in grad.iter_mut().zip(pred).zip(target) {
                let diff = p - t;
                sum += diff * diff;
                *g = diff * scale;
            }
            sum
        }
    }
}

/// Loop-invariant inputs of one fused Adam update, precomputed once per step.
#[derive(Debug, Clone, Copy)]
pub struct AdamStep {
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// Bias correction `1 − β₁ᵗ`.
    pub bias1: f32,
    /// Bias correction `1 − β₂ᵗ`.
    pub bias2: f32,
    /// Learning rate.
    pub learning_rate: f32,
    /// Numerical stabiliser ε.
    pub epsilon: f32,
    /// Decoupled weight decay premultiplied by the learning rate; 0 disables.
    pub decay: f32,
}

/// One fused Adam update over a parameter slice — moment update, bias
/// correction, optional decoupled weight decay and the parameter write in a
/// single pass. Pure element-wise streaming with correctly-rounded vector
/// div/sqrt and no FMA, so every ISA reproduces the scalar op-for-op rounding
/// bit for bit.
///
/// # Panics
/// Panics when the slice lengths differ.
// analysis: hot_path
pub fn adam_update(
    isa: ResolvedIsa,
    params: &mut [f32],
    grads: &[f32],
    first: &mut [f32],
    second: &mut [f32],
    step: AdamStep,
) {
    assert_eq!(params.len(), grads.len(), "adam_update: gradient length");
    assert_eq!(
        params.len(),
        first.len(),
        "adam_update: first-moment length"
    );
    assert_eq!(
        params.len(),
        second.len(),
        "adam_update: second-moment length"
    );
    match isa {
        #[cfg(target_arch = "x86_64")]
        ResolvedIsa::Avx2 => {
            assert!(
                avx2_available(),
                "ResolvedIsa::Avx2 on a CPU without AVX2+FMA"
            );
            // SAFETY: AVX2 availability and equal lengths asserted above.
            unsafe { avx2::adam_update(params, grads, first, second, step) };
        }
        #[cfg(target_arch = "aarch64")]
        ResolvedIsa::Neon => neon::adam_update(params, grads, first, second, step),
        _ => adam_update_scalar(params, grads, first, second, step),
    }
}

/// Parameter-slice length from which [`adam_update_pooled`] splits the
/// update across a pool. Measured like [`crate::kernels::PAR_MIN_MADDS`]
/// (2-core x86_64 VM, AVX2, helper spinning): split in two, the update
/// breaks even at 4096 elements and gains 1.35× at 8192, 1.63× at 16 384 and
/// 1.75× at 32 768. The threshold sits at 32 768 so that the `fifo-ingest`
/// surrogate's slices (at most 4096) and every bias slice stay serial, while
/// the paper-scale weight slices (65 536 and 262 144) split.
pub const ADAM_PAR_MIN: usize = 1 << 15;

/// [`adam_update`] split over `pool` into 16-element-aligned chunks once the
/// slice reaches [`ADAM_PAR_MIN`] elements. Every element is independent and
/// each chunk starts on a vector-lane boundary, so the result is bit-identical
/// to the serial update for every pool size.
///
/// # Panics
/// Panics when the slice lengths differ.
// analysis: hot_path
pub fn adam_update_pooled(
    isa: ResolvedIsa,
    pool: Option<&mut KernelPool>,
    params: &mut [f32],
    grads: &[f32],
    first: &mut [f32],
    second: &mut [f32],
    step: AdamStep,
) {
    assert_eq!(params.len(), grads.len(), "adam_update: gradient length");
    let threads = pool.as_deref().map_or(1, KernelPool::threads);
    let chunk = if params.len() < ADAM_PAR_MIN {
        params.len().max(1)
    } else {
        pool::chunk_len(params.len(), threads, kernels::SPLIT_ALIGN)
    };
    pool::split_mut(pool, [params, first, second], chunk, |range, [p, m, v]| {
        adam_update(isa, p, &grads[range], m, v, step)
    });
}

/// Scalar reference for one Adam element — the exact op order (and hence
/// rounding sequence) every vector arm reproduces.
#[inline(always)]
pub(crate) fn adam_update_scalar(
    params: &mut [f32],
    grads: &[f32],
    first: &mut [f32],
    second: &mut [f32],
    step: AdamStep,
) {
    let AdamStep {
        beta1: b1,
        beta2: b2,
        bias1,
        bias2,
        learning_rate,
        epsilon,
        decay,
    } = step;
    for k in 0..params.len() {
        let gv = grads[k];
        first[k] = b1 * first[k] + (1.0 - b1) * gv;
        second[k] = b2 * second[k] + (1.0 - b2) * gv * gv;
        let m_hat = first[k] / bias1;
        let v_hat = second[k] / bias2;
        let mut delta = -learning_rate * m_hat / (v_hat.sqrt() + epsilon);
        if decay > 0.0 {
            delta -= decay * params[k];
        }
        params[k] += delta;
    }
}

/// SGD momentum update `v = momentum · v − lr · g` (the parameter add happens
/// via [`crate::Mlp::apply_delta`] / [`add_assign`]). Bit-identical streaming.
///
/// # Panics
/// Panics when the slice lengths differ.
pub fn sgd_velocity(isa: ResolvedIsa, velocity: &mut [f32], grads: &[f32], momentum: f32, lr: f32) {
    assert_eq!(velocity.len(), grads.len(), "sgd_velocity: length mismatch");
    match isa {
        #[cfg(target_arch = "x86_64")]
        ResolvedIsa::Avx2 => {
            assert!(
                avx2_available(),
                "ResolvedIsa::Avx2 on a CPU without AVX2+FMA"
            );
            // SAFETY: AVX2 availability and equal lengths asserted above.
            unsafe { avx2::sgd_velocity(velocity, grads, momentum, lr) };
        }
        #[cfg(target_arch = "aarch64")]
        ResolvedIsa::Neon => neon::sgd_velocity(velocity, grads, momentum, lr),
        _ => {
            for (v, &g) in velocity.iter_mut().zip(grads) {
                *v = momentum * *v - lr * g;
            }
        }
    }
}

/// Element-wise `dst[i] += src[i]` (parameter/bias-gradient accumulation).
/// Bit-identical streaming.
///
/// # Panics
/// Panics when the slice lengths differ.
// analysis: hot_path
pub fn add_assign(isa: ResolvedIsa, dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "add_assign: length mismatch");
    match isa {
        #[cfg(target_arch = "x86_64")]
        ResolvedIsa::Avx2 => {
            assert!(
                avx2_available(),
                "ResolvedIsa::Avx2 on a CPU without AVX2+FMA"
            );
            // SAFETY: AVX2 availability and equal lengths asserted above.
            unsafe { avx2::add_assign(dst, src) };
        }
        #[cfg(target_arch = "aarch64")]
        ResolvedIsa::Neon => neon::add_assign(dst, src),
        _ => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
    }
}

/// Rank-1 write `out[i][j] = x[i] · y[j]` (single-sample weight gradients).
/// Bit-identical streaming (one multiply per element on every path).
///
/// # Panics
/// Panics when `out.len() != x.len() * y.len()`.
pub fn fill_outer(isa: ResolvedIsa, x: &[f32], y: &[f32], out: &mut [f32]) {
    assert_eq!(out.len(), x.len() * y.len(), "fill_outer: C length");
    match isa {
        #[cfg(target_arch = "x86_64")]
        ResolvedIsa::Avx2 => {
            assert!(
                avx2_available(),
                "ResolvedIsa::Avx2 on a CPU without AVX2+FMA"
            );
            // SAFETY: AVX2 availability and length agreement asserted above.
            unsafe { avx2::fill_outer(x, y, out) };
        }
        #[cfg(target_arch = "aarch64")]
        ResolvedIsa::Neon => neon::fill_outer(x, y, out),
        _ => kernels::fill_outer(x, y, out),
    }
}

/// Affine normalisation `v = (v − min) / span` over a field (the
/// [`crate::OutputNormalizer`] hot loop). Bit-identical streaming.
pub fn affine_normalize(isa: ResolvedIsa, values: &mut [f32], min: f32, span: f32) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        ResolvedIsa::Avx2 => {
            assert!(
                avx2_available(),
                "ResolvedIsa::Avx2 on a CPU without AVX2+FMA"
            );
            // SAFETY: AVX2 availability asserted above; the slice is iterated
            // in aligned-agnostic 8-lane chunks with a scalar tail.
            unsafe { avx2::affine_normalize(values, min, span) };
        }
        #[cfg(target_arch = "aarch64")]
        ResolvedIsa::Neon => neon::affine_normalize(values, min, span),
        _ => {
            for v in values {
                *v = (*v - min) / span;
            }
        }
    }
}

/// Affine map `v = v · scale + offset` (denormalisation back to physical
/// units). Bit-identical streaming — separate multiply and add, never FMA.
pub fn affine_map(isa: ResolvedIsa, values: &mut [f32], scale: f32, offset: f32) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        ResolvedIsa::Avx2 => {
            assert!(
                avx2_available(),
                "ResolvedIsa::Avx2 on a CPU without AVX2+FMA"
            );
            // SAFETY: AVX2 availability asserted above; the slice is iterated
            // in aligned-agnostic 8-lane chunks with a scalar tail.
            unsafe { avx2::affine_map(values, scale, offset) };
        }
        #[cfg(target_arch = "aarch64")]
        ResolvedIsa::Neon => neon::affine_map(values, scale, offset),
        _ => {
            for v in values {
                *v = *v * scale + offset;
            }
        }
    }
}

/// Per-dimension normalisation `v = span[i] ≠ 0 ? (v − min[i]) / span[i] : 0`
/// (the [`crate::InputNormalizer`] parameter loop). Bit-identical: the
/// zero-span select produces literal `+0.0` on both paths.
///
/// # Panics
/// Panics when the slice lengths differ.
pub fn normalize_dims(isa: ResolvedIsa, values: &mut [f32], mins: &[f32], spans: &[f32]) {
    assert_eq!(values.len(), mins.len(), "normalize_dims: mins length");
    assert_eq!(values.len(), spans.len(), "normalize_dims: spans length");
    match isa {
        #[cfg(target_arch = "x86_64")]
        ResolvedIsa::Avx2 => {
            assert!(
                avx2_available(),
                "ResolvedIsa::Avx2 on a CPU without AVX2+FMA"
            );
            // SAFETY: AVX2 availability and equal lengths asserted above.
            unsafe { avx2::normalize_dims(values, mins, spans) };
        }
        _ => {
            for (v, (&min, &span)) in values.iter_mut().zip(mins.iter().zip(spans)) {
                *v = if span != 0.0 { (*v - min) / span } else { 0.0 };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isa_names_round_trip() {
        for (name, isa) in [
            ("auto", KernelIsa::Auto),
            ("scalar", KernelIsa::Scalar),
            ("avx2", KernelIsa::Avx2),
            ("neon", KernelIsa::Neon),
        ] {
            assert_eq!(name.parse::<KernelIsa>().unwrap(), isa);
            if isa != KernelIsa::Avx2 {
                assert_eq!(isa.to_string(), name);
            }
        }
        assert_eq!("AVX2+FMA".parse::<KernelIsa>().unwrap(), KernelIsa::Avx2);
        assert!("sse9".parse::<KernelIsa>().is_err());
    }

    #[test]
    fn scalar_is_always_selectable() {
        assert_eq!(KernelIsa::Scalar.resolve(), ResolvedIsa::Scalar);
        assert_eq!(ResolvedIsa::Scalar.lane_width(), 1);
    }

    #[test]
    fn unsupported_named_isa_degrades_to_scalar() {
        #[cfg(not(target_arch = "aarch64"))]
        assert_eq!(KernelIsa::Neon.resolve(), ResolvedIsa::Scalar);
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(KernelIsa::Avx2.resolve(), ResolvedIsa::Scalar);
    }

    #[test]
    fn auto_resolves_to_the_detected_isa() {
        assert_eq!(KernelIsa::Auto.resolve(), detect());
        assert!(detect().lane_width() >= 1);
    }

    /// `1e-20 · 1e-20 = 1e-40`: two normal factors whose exact product is
    /// a denormal.
    fn small_product() -> f32 {
        std::hint::black_box(1e-20f32) * std::hint::black_box(1e-20f32)
    }

    #[test]
    fn flush_denormals_flushes_on_this_thread() {
        // The test harness runs each test on its own thread, so changing the
        // thread FP environment here cannot leak into other tests.
        assert!(small_product().is_subnormal());
        {
            let _flushed = FlushedDenormals::enter();
            #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
            assert_eq!(small_product().to_bits(), 0, "the product should flush");
            let denormal = std::hint::black_box(f32::from_bits(1));
            #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
            assert_eq!(
                (denormal * 2.0).to_bits(),
                0,
                "a denormal input should flush"
            );
        }
        assert!(
            small_product().is_subnormal(),
            "the guard must end the flush"
        );
    }

    #[test]
    fn flushed_denormals_restores_the_exact_prior_value() {
        // A prior value with a non-default rounding mode (toward zero), so a
        // guard that merely cleared its flush bits would not restore it.
        #[cfg(target_arch = "x86_64")]
        const ROUND_TOWARD_ZERO: u64 = 3 << 13; // MXCSR RC
        #[cfg(target_arch = "aarch64")]
        const ROUND_TOWARD_ZERO: u64 = 3 << 22; // FPCR RMode
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        const ROUND_TOWARD_ZERO: u64 = 0;
        let default = fp_control();
        let prior = FpControl(default.0 | ROUND_TOWARD_ZERO);
        set_fp_control(prior);
        assert_eq!(fp_control(), prior);

        // Normal return.
        drop(FlushedDenormals::enter());
        assert_eq!(fp_control(), prior);

        // Unwinding through the guard.
        let unwound = std::panic::catch_unwind(|| {
            let _flushed = FlushedDenormals::enter();
            std::panic::resume_unwind(Box::new("unwinding through the guard"));
        });
        assert!(unwound.is_err());
        assert_eq!(fp_control(), prior);

        // Nested guards: the inner one restores the outer one's flushed
        // value, the outer one the prior value.
        {
            let _outer = FlushedDenormals::enter();
            let flushed = fp_control();
            assert_eq!(flushed, FpControl(prior.0 | FLUSH));
            drop(FlushedDenormals::enter());
            assert_eq!(fp_control(), flushed);
        }
        assert_eq!(fp_control(), prior);

        set_fp_control(default);
    }

    #[test]
    fn kernel_isa_serde_uses_lowercase_names() {
        assert_eq!(serde_json::to_string(&KernelIsa::Auto).unwrap(), "\"auto\"");
        assert_eq!(
            serde_json::from_str::<KernelIsa>("\"scalar\"").unwrap(),
            KernelIsa::Scalar
        );
    }
}
