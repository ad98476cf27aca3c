//! Runtime-dispatched SIMD kernels, bit-identical across backends.
//!
//! Every hot slice kernel in the workspace (mat-vec, mat-mul,
//! `im2col` unrolling and the tabulated exp-PSC sum used by TTAS decoding)
//! is written **once** as a generic lane-blocked algorithm over an 8-lane
//! vector abstraction (`vec::F32x8`) and instantiated per ISA:
//!
//! * **scalar** — portable `[f32; 8]` emulation, compiled on every target;
//! * **sse2** — two `__m128` halves (baseline on `x86_64`);
//! * **avx2** — one `__m256`, selected behind one-time runtime detection.
//!
//! Because the block width, per-lane IEEE operations (no FMA) and the
//! lane-reduction tree are fixed independently of the ISA, all three
//! backends produce **byte-identical** results — the property the
//! workspace-wide bit-identity matrix in `tests/workspace_bit_identity.rs`
//! and `crates/tensor/tests/simd_kernel_proptest.rs` enforce.
//!
//! ## Selecting a backend
//!
//! The active backend is chosen once, on first use, from the [`SIMD_ENV_VAR`]
//! (`NRSNN_SIMD`) environment variable — mirroring how `NRSNN_THREADS`
//! selects sweep parallelism:
//!
//! * `auto` (or unset) — best available backend: AVX2, else SSE2, else scalar;
//! * `scalar` / `sse2` / `avx2` — request that backend explicitly;
//! * anything else — a typed [`TensorError::InvalidSimdOverride`] from
//!   [`resolve_env`] (and a panic from [`active_backend`], which has no way
//!   to return it).
//!
//! Requesting an ISA the CPU lacks is **not** an error: the request degrades
//! along the documented fallback chain `avx2 → sse2 → scalar` (see
//! [`SimdBackend::resolve`]). This keeps one exported `NRSNN_SIMD=avx2`
//! setting usable across heterogeneous machines; forcing the portable path
//! with `NRSNN_SIMD=scalar` always works everywhere.

mod kernels;
mod vec;

pub use vec::{reduce8, BLOCK};

use crate::{Conv2dGeometry, TensorError};
use std::sync::atomic::{AtomicU8, Ordering};

/// Environment variable that overrides SIMD backend selection
/// (`scalar`/`sse2`/`avx2`/`auto`). See the [module docs](self) for the
/// exact semantics; the parallelism analogue is
/// `nrsnn_runtime::THREADS_ENV_VAR` (`NRSNN_THREADS`).
pub const SIMD_ENV_VAR: &str = "NRSNN_SIMD";

/// A SIMD instruction-set backend for the tensor kernels.
///
/// Variants are ordered from narrowest to widest; "widest available"
/// selection and the fallback rule both walk this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdBackend {
    /// Portable scalar emulation of the 8-lane machine; always available.
    Scalar,
    /// SSE2 (two 128-bit halves); baseline on `x86_64`.
    Sse2,
    /// AVX2 (one 256-bit register); detected at runtime.
    Avx2,
}

impl SimdBackend {
    /// The canonical lowercase name, as accepted by [`parse_override`].
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Scalar => "scalar",
            SimdBackend::Sse2 => "sse2",
            SimdBackend::Avx2 => "avx2",
        }
    }

    /// Whether this backend can run on the current CPU.
    ///
    /// [`SimdBackend::Scalar`] is always available; the x86 backends
    /// require both `target_arch = "x86_64"` and the runtime CPUID check.
    pub fn is_available(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            match self {
                SimdBackend::Scalar => true,
                SimdBackend::Sse2 => std::arch::is_x86_feature_detected!("sse2"),
                SimdBackend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            matches!(self, SimdBackend::Scalar)
        }
    }

    /// Applies the fallback rule against the actual CPU: the widest
    /// available backend at or below `self` in the chain
    /// `avx2 → sse2 → scalar`.
    ///
    /// Never fails — `scalar` terminates the chain on every platform. Which
    /// backend runs a kernel is unobservable from the results (they are
    /// bit-identical), only from throughput.
    pub fn resolve(self) -> SimdBackend {
        resolve_with(self, SimdBackend::is_available)
    }
}

/// The pure fallback rule behind [`SimdBackend::resolve`], parameterised
/// over an availability predicate so every combination is unit-testable
/// without controlling the host CPU: walk down `avx2 → sse2 → scalar` from
/// `requested` and return the first backend for which `available` holds
/// (`scalar` is returned unconditionally as the chain's terminal).
pub fn resolve_with(
    requested: SimdBackend,
    available: impl Fn(SimdBackend) -> bool,
) -> SimdBackend {
    let mut backend = requested;
    loop {
        if backend == SimdBackend::Scalar || available(backend) {
            return backend;
        }
        backend = match backend {
            SimdBackend::Avx2 => SimdBackend::Sse2,
            _ => SimdBackend::Scalar,
        };
    }
}

/// The widest backend available on this CPU (`avx2 → sse2 → scalar`).
pub fn detect_best() -> SimdBackend {
    SimdBackend::Avx2.resolve()
}

/// All backends available on this CPU, narrowest first (always starts with
/// [`SimdBackend::Scalar`]). Test matrices iterate this to cover every ISA
/// the host can actually run.
pub fn available_backends() -> Vec<SimdBackend> {
    [SimdBackend::Scalar, SimdBackend::Sse2, SimdBackend::Avx2]
        .into_iter()
        .filter(|b| b.is_available())
        .collect()
}

/// Parses an [`SIMD_ENV_VAR`] override value.
///
/// Returns `Ok(None)` for `auto` (detect the best backend), `Ok(Some(_))`
/// for an explicit backend request (not yet resolved against the CPU), and
/// a typed [`TensorError::InvalidSimdOverride`] for anything else — an
/// unknown value is an error, never a silent fallback. Matching is
/// case-insensitive and ignores surrounding whitespace.
///
/// # Errors
/// [`TensorError::InvalidSimdOverride`] if the value is not one of
/// `scalar`, `sse2`, `avx2`, `auto`.
pub fn parse_override(value: &str) -> crate::Result<Option<SimdBackend>> {
    match value.trim().to_ascii_lowercase().as_str() {
        "auto" => Ok(None),
        "scalar" => Ok(Some(SimdBackend::Scalar)),
        "sse2" => Ok(Some(SimdBackend::Sse2)),
        "avx2" => Ok(Some(SimdBackend::Avx2)),
        _ => Err(TensorError::InvalidSimdOverride(value.trim().to_string())),
    }
}

/// Reads [`SIMD_ENV_VAR`] from the process environment and resolves it to
/// the backend that would run: the parsed override passed through the
/// fallback rule, or [`detect_best`] when the variable is unset or `auto`.
///
/// Long-lived entry points (e.g. `nrsnn-serve`) call this eagerly at
/// startup so a typo in the environment surfaces as a typed error instead
/// of a panic from the first kernel invocation.
///
/// # Errors
/// [`TensorError::InvalidSimdOverride`] if the variable is set to an
/// unknown value.
pub fn resolve_env() -> crate::Result<SimdBackend> {
    match std::env::var(SIMD_ENV_VAR) {
        Ok(value) => Ok(match parse_override(&value)? {
            Some(requested) => requested.resolve(),
            None => detect_best(),
        }),
        Err(_) => Ok(detect_best()),
    }
}

/// Lazily initialised active backend; 0 = uninitialised, otherwise
/// `backend_code`.  A plain atomic (not `OnceLock`) so tests and benches
/// can switch backends mid-process via [`set_backend`]; racing threads at
/// worst re-run the cheap env resolution, and because all backends are
/// bit-identical a concurrent switch can never change results.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn backend_code(b: SimdBackend) -> u8 {
    match b {
        SimdBackend::Scalar => 1,
        SimdBackend::Sse2 => 2,
        SimdBackend::Avx2 => 3,
    }
}

fn backend_from_code(code: u8) -> Option<SimdBackend> {
    match code {
        1 => Some(SimdBackend::Scalar),
        2 => Some(SimdBackend::Sse2),
        3 => Some(SimdBackend::Avx2),
        _ => None,
    }
}

/// The backend every dispatched kernel currently runs on.
///
/// Initialised on first call from [`resolve_env`] and cached; use
/// [`set_backend`] to switch afterwards.
///
/// # Panics
/// If [`SIMD_ENV_VAR`] holds an unknown value. Kernels are infallible, so
/// an invalid override cannot surface as a `Result` here; processes that
/// want the typed error validate with [`resolve_env`] at startup.
pub fn active_backend() -> SimdBackend {
    // ORDERING: Relaxed — ACTIVE is a standalone u8 cache cell; no other
    // memory is published through it, and racing first-time initialisers
    // all store the same resolved code, so any interleaving reads a
    // valid value.
    if let Some(b) = backend_from_code(ACTIVE.load(Ordering::Relaxed)) {
        return b;
    }
    let resolved = resolve_env().unwrap_or_else(|err| panic!("{err}"));
    // ORDERING: Relaxed — see the load above; the value is self-contained.
    ACTIVE.store(backend_code(resolved), Ordering::Relaxed);
    resolved
}

/// Forces the active backend for all subsequently dispatched kernels,
/// resolving `requested` through the fallback rule first; returns the
/// backend that will actually run. Used by the bit-identity test matrices
/// and the per-ISA benches; results never depend on the choice.
pub fn set_backend(requested: SimdBackend) -> SimdBackend {
    let resolved = requested.resolve();
    // ORDERING: Relaxed — the code is self-contained (no payload to
    // publish); dispatch sites tolerate reading the old backend during a
    // switch, results are bit-identical either way.
    ACTIVE.store(backend_code(resolved), Ordering::Relaxed);
    resolved
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! `#[target_feature]` entry points per ISA.  The generic kernels are
    //! `#[inline(always)]`, so they inline into these wrappers and compile
    //! with the wrapper's feature set — the standard one-generic-kernel /
    //! per-ISA-monomorphisation pattern.

    macro_rules! isa_entry_points {
        ($feature:literal, $vty:ty) => {
            use crate::simd::kernels;

            // SAFETY: thin per-ISA wrapper; callers must uphold the generic
            // kernel's `# Safety` contract, forwarded verbatim.
            #[target_feature(enable = $feature)]
            pub(crate) unsafe fn matvec(
                a: &[f32],
                m: usize,
                n: usize,
                x: &[f32],
                bias: &[f32],
                out: &mut [f32],
            ) {
                // SAFETY: same contract as the callee; the `target_feature`
                // gate matches the instantiated backend's ISA.
                unsafe { kernels::matvec_generic::<$vty>(a, m, n, x, bias, out) }
            }

            // SAFETY: thin per-ISA wrapper; callers must uphold the generic
            // kernel's `# Safety` contract, forwarded verbatim.
            #[target_feature(enable = $feature)]
            #[allow(clippy::too_many_arguments)]
            pub(crate) unsafe fn matmul(
                a: &[f32],
                m: usize,
                k: usize,
                b: &[f32],
                n: usize,
                bias: &[f32],
                out: &mut [f32],
            ) {
                // SAFETY: same contract as the callee; the `target_feature`
                // gate matches the instantiated backend's ISA.
                unsafe { kernels::matmul_generic::<$vty>(a, m, k, b, n, bias, out) }
            }

            // SAFETY: thin per-ISA wrapper; callers must uphold the generic
            // kernel's `# Safety` contract, forwarded verbatim.
            #[target_feature(enable = $feature)]
            pub(crate) unsafe fn sum_gather(table: &[f32], idx: &[u32]) -> f32 {
                // SAFETY: same contract as the callee; the `target_feature`
                // gate matches the instantiated backend's ISA.
                unsafe { kernels::sum_gather_generic::<$vty>(table, idx) }
            }

            // SAFETY: thin per-ISA wrapper; callers must uphold the generic
            // kernel's `# Safety` contract, forwarded verbatim.
            #[target_feature(enable = $feature)]
            pub(crate) unsafe fn encode_ratio(x: &[f32], threshold: f32, out: &mut [f32]) {
                // SAFETY: same contract as the callee; the `target_feature`
                // gate matches the instantiated backend's ISA.
                unsafe { kernels::encode_ratio_generic::<$vty>(x, threshold, out) }
            }

            // SAFETY: thin per-ISA wrapper; callers must uphold the generic
            // kernel's `# Safety` contract, forwarded verbatim.
            #[target_feature(enable = $feature)]
            pub(crate) unsafe fn encode_quant(
                x: &[f32],
                threshold: f32,
                scale: f32,
                out: &mut [f32],
            ) {
                // SAFETY: same contract as the callee; the `target_feature`
                // gate matches the instantiated backend's ISA.
                unsafe { kernels::encode_quant_generic::<$vty>(x, threshold, scale, out) }
            }

            // SAFETY: thin per-ISA wrapper; callers must uphold the generic
            // kernel's `# Safety` contract, forwarded verbatim.
            #[target_feature(enable = $feature)]
            pub(crate) unsafe fn scale_ratio(io: &mut [f32], mul: f32, div: f32) {
                // SAFETY: same contract as the callee; the `target_feature`
                // gate matches the instantiated backend's ISA.
                unsafe { kernels::scale_ratio_generic::<$vty>(io, mul, div) }
            }

            // SAFETY: thin per-ISA wrapper; callers must uphold the generic
            // kernel's `# Safety` contract, forwarded verbatim.
            #[target_feature(enable = $feature)]
            pub(crate) unsafe fn phase_bits(
                x: &[f32],
                threshold: f32,
                weights: &[f32],
                thresholds: &[f32],
                bits: &mut [u64],
            ) {
                // SAFETY: same contract as the callee; the `target_feature`
                // gate matches the instantiated backend's ISA.
                unsafe {
                    kernels::phase_bits_generic::<$vty>(x, threshold, weights, thresholds, bits)
                }
            }

            // SAFETY: thin per-ISA wrapper; callers must uphold the generic
            // kernel's `# Safety` contract, forwarded verbatim.
            #[target_feature(enable = $feature)]
            #[allow(clippy::too_many_arguments)]
            pub(crate) unsafe fn im2col(
                x: &[f32],
                c: usize,
                h: usize,
                w: usize,
                k: usize,
                s: usize,
                p: usize,
                oh: usize,
                ow: usize,
                out: &mut [f32],
            ) {
                // SAFETY: same contract as the callee; the `target_feature`
                // gate matches the instantiated backend's ISA.
                unsafe { kernels::im2col_generic::<$vty>(x, c, h, w, k, s, p, oh, ow, out) }
            }
        };
    }

    pub(crate) mod sse2 {
        isa_entry_points!("sse2", crate::simd::vec::Sse2V);
    }

    pub(crate) mod avx2 {
        isa_entry_points!("avx2", crate::simd::vec::Avx2V);
    }
}

/// Dispatches one kernel call to the resolved backend.
///
/// SAFETY (discharged at every expansion site): the wrapper has asserted
/// the slice-length/index contracts of the generic kernel, and `resolve()`
/// only ever returns a backend whose CPU features are present.
macro_rules! dispatch {
    ($backend:expr, $generic:ident :: $isa_fn:ident ( $($arg:expr),* $(,)? )) => {
        match $backend.resolve() {
            // SAFETY: the scalar instantiation needs no ISA; the expansion
            // site asserted the kernel's slice contracts (macro doc above).
            SimdBackend::Scalar => unsafe { kernels::$generic::<vec::ScalarV>($($arg),*) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: resolve() returned Sse2, so the ISA is present; slice
            // contracts asserted at the expansion site.
            SimdBackend::Sse2 => unsafe { x86::sse2::$isa_fn($($arg),*) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: resolve() returned Avx2, so the ISA is present; slice
            // contracts asserted at the expansion site.
            SimdBackend::Avx2 => unsafe { x86::avx2::$isa_fn($($arg),*) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("resolve() returns Scalar on non-x86_64"),
        }
    };
}

/// [`crate::matvec_slices`] on an explicit backend: `out[i] = Σ_j
/// a[i][j]·x[j]` in the canonical lane-blocked order.
///
/// # Panics
/// If `a.len() != m*n`, `x.len() != n` or `out.len() != m`. The checks are
/// real (not debug) assertions: the kernels read through raw pointers, so
/// a violated contract must stop before the first load.
pub fn matvec_slices_with(
    backend: SimdBackend,
    a: &[f32],
    m: usize,
    n: usize,
    x: &[f32],
    out: &mut [f32],
) {
    assert_eq!(a.len(), m * n, "matvec: a.len() != m*n");
    assert_eq!(x.len(), n, "matvec: x.len() != n");
    assert_eq!(out.len(), m, "matvec: out.len() != m");
    dispatch!(backend, matvec_generic::matvec(a, m, n, x, &[], out))
}

/// [`crate::matvec_bias_slices`] on an explicit backend: `out[i] =
/// (bias[i] + 0.0) + Σ_j a[i][j]·x[j]` in the canonical lane-blocked
/// order.
///
/// # Panics
/// If any slice length disagrees with `m`/`n` (real assertions, see
/// [`matvec_slices_with`]).
pub fn matvec_bias_slices_with(
    backend: SimdBackend,
    a: &[f32],
    m: usize,
    n: usize,
    x: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    assert_eq!(a.len(), m * n, "matvec_bias: a.len() != m*n");
    assert_eq!(x.len(), n, "matvec_bias: x.len() != n");
    assert_eq!(bias.len(), m, "matvec_bias: bias.len() != m");
    assert_eq!(out.len(), m, "matvec_bias: out.len() != m");
    dispatch!(backend, matvec_generic::matvec(a, m, n, x, bias, out))
}

/// [`crate::matmul_slices`] on an explicit backend: `out = a·b` in the
/// historical `ikj` order (vectorisation over output columns does not
/// change the per-element operation order — see
/// `kernels::matmul_generic`).
///
/// # Panics
/// If any slice length disagrees with `m`/`k`/`n` (real assertions, see
/// [`matvec_slices_with`]).
pub fn matmul_slices_with(
    backend: SimdBackend,
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "matmul: a.len() != m*k");
    assert_eq!(b.len(), k * n, "matmul: b.len() != k*n");
    assert_eq!(out.len(), m * n, "matmul: out.len() != m*n");
    dispatch!(backend, matmul_generic::matmul(a, m, k, b, n, &[], out))
}

/// [`crate::matmul_sparse_slices`] on an explicit backend:
/// [`matmul_slices_with`] with every output row seeded from the
/// canonicalised `bias` (length `n`).
///
/// # Panics
/// If any slice length disagrees with `m`/`k`/`n` (real assertions, see
/// [`matvec_slices_with`]).
#[allow(clippy::too_many_arguments)]
pub fn matmul_sparse_slices_with(
    backend: SimdBackend,
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    bias: &[f32],
    out: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "matmul_sparse: a.len() != m*k");
    assert_eq!(b.len(), k * n, "matmul_sparse: b.len() != k*n");
    assert_eq!(bias.len(), n, "matmul_sparse: bias.len() != n");
    assert_eq!(out.len(), m * n, "matmul_sparse: out.len() != m*n");
    dispatch!(backend, matmul_generic::matmul(a, m, k, b, n, bias, out))
}

/// [`crate::im2col_slices`] on an explicit backend: patch unrolling as
/// zero-fills plus bulk span copies (bitwise-identical on every backend by
/// construction).
///
/// # Panics
/// If `x.len()` or `out.len()` disagree with the geometry (real
/// assertions, see [`matvec_slices_with`]).
pub fn im2col_slices_with(backend: SimdBackend, x: &[f32], geom: &Conv2dGeometry, out: &mut [f32]) {
    assert_eq!(x.len(), geom.in_len(), "im2col: x.len() != in_len");
    assert_eq!(
        out.len(),
        geom.out_positions() * geom.patch_len(),
        "im2col: out.len() != out_positions*patch_len"
    );
    dispatch!(
        backend,
        im2col_generic::im2col(
            x,
            geom.in_channels,
            geom.in_height,
            geom.in_width,
            geom.kernel,
            geom.stride,
            geom.padding,
            geom.out_height(),
            geom.out_width(),
            out,
        )
    )
}

/// Sums `table[idx]` over `idx` on an explicit backend, in the canonical
/// lane-blocked order — the vector twin of [`sum8_by`] (the SNN crate's
/// tabulated exp-PSC decode routes through this).
///
/// # Panics
/// If any index is out of bounds for `table`, or `table.len()` exceeds
/// `i32::MAX` (the AVX2 gather reads indices as signed `i32`). Real
/// assertions, see [`matvec_slices_with`].
pub fn sum_gather_with(backend: SimdBackend, table: &[f32], idx: &[u32]) -> f32 {
    assert!(
        table.len() <= i32::MAX as usize,
        "sum_gather: table too large for i32 gather indices"
    );
    assert!(
        idx.iter().all(|&t| (t as usize) < table.len()),
        "sum_gather: index out of range"
    );
    dispatch!(backend, sum_gather_generic::sum_gather(table, idx))
}

/// Exact integer phase-weight sum on an explicit backend: for each spike
/// time `t`, accumulates `2^(!t & mask)` into a `u64` — with a
/// power-of-two phase period `mask + 1`, that term is `2^(period-1-phase)`,
/// i.e. the phase-coding weight `2^-(phase+1)` scaled by `2^period`.  The
/// phase decode divides the sum back down in one rounding step.
///
/// Unlike the float reductions, this kernel needs no canonical lane order:
/// integer addition is exact and associative, so every backend is free to
/// pick its own accumulation shape (four scalar accumulators, or eight
/// `vpsllvd` lanes on AVX2) and still produce the identical `u64`.  SSE2
/// has no per-lane variable shift and runs the scalar form.
///
/// # Panics
/// If `mask + 1` is not a power of two or `mask >= 32` (the shift-count
/// domain of the AVX2 per-lane shift).
pub fn phase_pow2_sum_with(backend: SimdBackend, train: &[u32], mask: u32) -> u64 {
    assert!(
        mask < 32 && (mask + 1).is_power_of_two(),
        "phase_pow2_sum: mask must be 2^k - 1 with k <= 5"
    );
    match backend.resolve() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: resolve() only returns Avx2 when the CPU has it, and the
        // mask domain was asserted above.
        SimdBackend::Avx2 => unsafe { kernels::phase_pow2_sum_avx2(train, mask) },
        _ => kernels::phase_pow2_sum_scalar(train, mask),
    }
}

/// Lane-wise normalised clamp on an explicit backend: `out[i] =
/// min(max(x[i], 0), θ) / θ` with the canonical x86 `max`/`min` semantics —
/// the lane-blocked form of [`clamp_ratio`].  The TTFS/TTAS encodes use
/// this to compute every neuron's activation ratio in lanes before the
/// (inherently scalar) logarithm maps active ratios to spike times.
///
/// # Panics
/// If `out.len() != x.len()` or `threshold` is not strictly positive (real
/// assertions, see [`matvec_slices_with`]).
pub fn encode_ratio_with(backend: SimdBackend, x: &[f32], threshold: f32, out: &mut [f32]) {
    assert_eq!(out.len(), x.len(), "encode_ratio: out.len() != x.len()");
    assert!(threshold > 0.0, "encode_ratio: threshold must be positive");
    dispatch!(
        backend,
        encode_ratio_generic::encode_ratio(x, threshold, out)
    )
}

/// Lane-wise quantising encode on an explicit backend: `out[i] =
/// round_half_up(min(max(x[i], 0), θ)/θ · scale)` as an `f32` whole number
/// — the lane-blocked form of [`quantize_value`].  The rate coding uses
/// `scale = time_steps`, the burst coding `scale = max_spikes`; both then
/// materialise the spike trains from the counts in a scalar tail.
///
/// # Panics
/// If `out.len() != x.len()`, `threshold` is not strictly positive, or
/// `scale` is outside `[0, 2^24]` (the exact-integer domain of the
/// truncating lane conversion). Real assertions, see
/// [`matvec_slices_with`].
pub fn encode_quant_with(
    backend: SimdBackend,
    x: &[f32],
    threshold: f32,
    scale: f32,
    out: &mut [f32],
) {
    assert_eq!(out.len(), x.len(), "encode_quant: out.len() != x.len()");
    assert!(threshold > 0.0, "encode_quant: threshold must be positive");
    assert!(
        (0.0..=16_777_216.0).contains(&scale),
        "encode_quant: scale outside [0, 2^24]"
    );
    dispatch!(
        backend,
        encode_quant_generic::encode_quant(x, threshold, scale, out)
    )
}

/// Lane-wise in-place rescale on an explicit backend: `io[i] = io[i] · mul
/// / div`.  The rate decode uses this to map spike counts (written into
/// the output buffer first) back to values (`mul = θ`, `div =
/// time_steps`).
pub fn scale_ratio_with(backend: SimdBackend, io: &mut [f32], mul: f32, div: f32) {
    dispatch!(backend, scale_ratio_generic::scale_ratio(io, mul, div))
}

/// Lane-wise phase-coding bit patterns on an explicit backend: bit `k` of
/// `bits[i]` is set iff phase `k` of every period fires for input `x[i]` —
/// the lane-blocked form of [`phase_bits_value`] (greedy binary expansion
/// of the clamped ratio over `weights`, firing where the remainder clears
/// `thresholds`).  The phase coding computes each neuron's pattern once
/// here, then replays it across periods in a scalar tail.
///
/// # Panics
/// If `bits.len() != x.len()`, `threshold` is not strictly positive, or
/// `weights`/`thresholds` lengths differ or exceed 64 (patterns accumulate
/// in a `u64`). Real assertions, see [`matvec_slices_with`].
pub fn phase_bits_with(
    backend: SimdBackend,
    x: &[f32],
    threshold: f32,
    weights: &[f32],
    thresholds: &[f32],
    bits: &mut [u64],
) {
    assert_eq!(bits.len(), x.len(), "phase_bits: bits.len() != x.len()");
    assert!(threshold > 0.0, "phase_bits: threshold must be positive");
    assert_eq!(
        weights.len(),
        thresholds.len(),
        "phase_bits: weights.len() != thresholds.len()"
    );
    assert!(weights.len() <= 64, "phase_bits: more than 64 phases");
    dispatch!(
        backend,
        phase_bits_generic::phase_bits(x, threshold, weights, thresholds, bits)
    )
}

/// The canonical lane maximum: `if a > b { a } else { b }` — the exact
/// semantics of x86 `maxps` (returns the *second* operand on NaN or
/// equality), which is what every vector backend executes.  This is the
/// scalar tails' and per-value wrappers' definition of `max`; note it is
/// **not** `f32::max`, which treats NaN differently.
#[inline(always)]
pub fn lane_max(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

/// The canonical lane minimum: `if a < b { a } else { b }` — x86 `minps`
/// semantics (see [`lane_max`]).
#[inline(always)]
pub fn lane_min(a: f32, b: f32) -> f32 {
    if a < b {
        a
    } else {
        b
    }
}

/// The canonical clamped activation ratio every coding's encode starts
/// from: `min(max(x, 0), θ) / θ` under [`lane_max`]/[`lane_min`]
/// semantics.  NaN and `-0.0` activations both flush to `+0.0` (silent);
/// everything else lands in `[0, 1]`.  This is the per-value reference the
/// lane kernels must match bit for bit.
#[inline(always)]
pub fn clamp_ratio(x: f32, threshold: f32) -> f32 {
    lane_min(lane_max(x, 0.0), threshold) / threshold
}

/// Half-up rounding on the non-negative domain: `trunc(y) + (y − trunc(y)
/// ≥ 0.5 ? 1.0 : 0.0)`.  Equals `f32::round` for every finite `y ≥ 0`
/// (half-up and half-away-from-zero coincide there), but is built only
/// from operations the 8-lane machine has (truncation, subtract, ordered
/// compare, masked add) — SSE2 has no rounding instruction — so lanes and
/// scalar agree bitwise by construction: `y − trunc(y)` is exact for
/// finite `y ≥ 0`, and every other step is a single correctly rounded op.
#[inline(always)]
pub fn round_half_up_nonneg(y: f32) -> f32 {
    let t = y.trunc();
    t + if y - t >= 0.5 { 1.0 } else { 0.0 }
}

/// The canonical per-value quantising encode shared by the rate and burst
/// codings: `round_half_up(clamp_ratio(x, θ) · scale)` as an `f32` whole
/// number in `[0, scale]`.  The per-value reference of
/// [`encode_quant_with`].
#[inline(always)]
pub fn quantize_value(x: f32, threshold: f32, scale: f32) -> f32 {
    round_half_up_nonneg(clamp_ratio(x, threshold) * scale)
}

/// The canonical per-value phase-coding bit pattern: greedy binary
/// expansion of `clamp_ratio(x, θ)` over the per-phase `weights`, setting
/// bit `k` where the remainder clears `thresholds[k]`.  Ratios `≤ 0.0`
/// are silent (pattern 0) — the guard matters because `thresholds[k] =
/// w_k − 1e-6` goes negative once `w_k < 1e-6`, at which point a zero
/// remainder would fire every remaining phase.  The per-value reference of
/// [`phase_bits_with`].
#[inline(always)]
pub fn phase_bits_value(x: f32, threshold: f32, weights: &[f32], thresholds: &[f32]) -> u64 {
    debug_assert_eq!(weights.len(), thresholds.len());
    debug_assert!(weights.len() <= 64);
    let ratio = clamp_ratio(x, threshold);
    if ratio <= 0.0 {
        return 0;
    }
    let mut rem = ratio;
    let mut bits = 0u64;
    for (k, (&w, &th)) in weights.iter().zip(thresholds).enumerate() {
        if rem >= th {
            rem -= w;
            bits |= 1 << k;
        }
    }
    bits
}

/// Sums `term(0) + … + term(n-1)` in the canonical lane-blocked order
/// without materialising a slice: term `i` accumulates into lane `i % 8`
/// over ascending 8-wide blocks, the lanes combine through [`reduce8`],
/// and the `n % 8` tail adds sequentially.
///
/// This is the *scalar reference* for every lane-blocked reduction in the
/// workspace — [`sum_gather_with`] and the mat-vec kernels produce exactly
/// these bits — and is what non-tabulated decode paths use so that
/// tabulated and per-train decodes stay bitwise interchangeable.
pub fn sum8_by(n: usize, mut term: impl FnMut(usize) -> f32) -> f32 {
    let nb = n - (n % BLOCK);
    let mut lanes = [0.0f32; BLOCK];
    let mut i = 0usize;
    while i < nb {
        for (l, lane) in lanes.iter_mut().enumerate() {
            *lane += term(i + l);
        }
        i += BLOCK;
    }
    let mut s = reduce8(lanes);
    for j in nb..n {
        s += term(j);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_override_accepts_known_values() {
        assert_eq!(parse_override("auto").unwrap(), None);
        assert_eq!(parse_override("scalar").unwrap(), Some(SimdBackend::Scalar));
        assert_eq!(parse_override("sse2").unwrap(), Some(SimdBackend::Sse2));
        assert_eq!(parse_override("avx2").unwrap(), Some(SimdBackend::Avx2));
        // Case-insensitive, whitespace-tolerant — same lenience as the
        // NRSNN_THREADS parser applies to numbers.
        assert_eq!(parse_override(" AVX2 ").unwrap(), Some(SimdBackend::Avx2));
        assert_eq!(parse_override("Auto").unwrap(), None);
    }

    #[test]
    fn parse_override_rejects_unknown_values_with_typed_error() {
        for bad in ["", "avx512", "fastest", "1", "sse", "scalar,avx2"] {
            match parse_override(bad) {
                Err(TensorError::InvalidSimdOverride(v)) => assert_eq!(v, bad.trim()),
                other => panic!("expected InvalidSimdOverride for {bad:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn fallback_rule_walks_down_the_chain() {
        use SimdBackend::{Avx2, Scalar, Sse2};
        // Exhaustive over the 4 availability combos (scalar is always
        // available by definition and never consulted).
        for (sse2_ok, avx2_ok) in [(false, false), (true, false), (false, true), (true, true)] {
            let avail = |b: SimdBackend| match b {
                Scalar => true,
                Sse2 => sse2_ok,
                Avx2 => avx2_ok,
            };
            assert_eq!(resolve_with(Scalar, avail), Scalar);
            assert_eq!(
                resolve_with(Sse2, avail),
                if sse2_ok { Sse2 } else { Scalar }
            );
            let expect_avx2 = if avx2_ok {
                Avx2
            } else if sse2_ok {
                Sse2
            } else {
                Scalar
            };
            assert_eq!(resolve_with(Avx2, avail), expect_avx2);
        }
    }

    #[test]
    fn scalar_is_always_available_and_resolves_to_itself() {
        assert!(SimdBackend::Scalar.is_available());
        assert_eq!(SimdBackend::Scalar.resolve(), SimdBackend::Scalar);
        assert_eq!(available_backends()[0], SimdBackend::Scalar);
    }

    #[test]
    fn detect_best_is_available_and_widest() {
        let best = detect_best();
        assert!(best.is_available());
        for b in available_backends() {
            assert!(b <= best, "{b:?} wider than detected best {best:?}");
        }
    }

    #[test]
    fn set_backend_resolves_and_sticks() {
        let prev = active_backend();
        let got = set_backend(SimdBackend::Scalar);
        assert_eq!(got, SimdBackend::Scalar);
        assert_eq!(active_backend(), SimdBackend::Scalar);
        // A request for the widest backend resolves to something available.
        let wide = set_backend(SimdBackend::Avx2);
        assert!(wide.is_available());
        assert_eq!(active_backend(), wide);
        set_backend(prev);
    }

    #[test]
    fn backend_codes_round_trip() {
        for b in [SimdBackend::Scalar, SimdBackend::Sse2, SimdBackend::Avx2] {
            assert_eq!(backend_from_code(backend_code(b)), Some(b));
        }
        assert_eq!(backend_from_code(0), None);
    }

    #[test]
    fn names_round_trip_through_parse() {
        for b in [SimdBackend::Scalar, SimdBackend::Sse2, SimdBackend::Avx2] {
            assert_eq!(parse_override(b.name()).unwrap(), Some(b));
        }
    }

    #[test]
    fn sum8_by_matches_sum_gather_on_every_backend() {
        let table: Vec<f32> = (0..23).map(|i| (i as f32 * 0.37 - 3.0).exp()).collect();
        let idx: Vec<u32> = (0..23).rev().map(|i| i % 23).collect();
        let reference = sum8_by(idx.len(), |i| table[idx[i] as usize]);
        for backend in available_backends() {
            let got = sum_gather_with(backend, &table, &idx);
            assert_eq!(
                got.to_bits(),
                reference.to_bits(),
                "sum_gather({backend:?}) != sum8_by"
            );
        }
    }

    #[test]
    fn phase_pow2_sum_matches_direct_shift_sum_on_every_backend() {
        for mask in [0u32, 1, 3, 7, 15, 31] {
            // Lengths straddling the 4- and 8-wide chunk boundaries.
            for len in [0usize, 1, 3, 4, 7, 8, 9, 16, 23, 64, 100] {
                let train: Vec<u32> = (0..len as u32)
                    .map(|i| i.wrapping_mul(2_654_435_761))
                    .collect();
                let reference: u64 = train.iter().map(|&t| 1u64 << (!t & mask)).sum();
                for backend in available_backends() {
                    assert_eq!(
                        phase_pow2_sum_with(backend, &train, mask),
                        reference,
                        "phase_pow2_sum({backend:?}) mask={mask} len={len}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "phase_pow2_sum: mask must be 2^k - 1")]
    fn phase_pow2_sum_rejects_non_mask_shapes() {
        phase_pow2_sum_with(SimdBackend::Scalar, &[0, 1, 2], 5);
    }

    #[test]
    fn dispatched_matvec_matches_scalar_bitwise_smoke() {
        let (m, n) = (5, 19); // non-multiple width exercises the tail
        let a: Vec<f32> = (0..m * n).map(|i| (i as f32 * 0.31 - 2.7).sin()).collect();
        let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.77 - 1.1).cos()).collect();
        let bias: Vec<f32> = (0..m)
            .map(|i| if i == 3 { -0.0 } else { i as f32 })
            .collect();
        let mut reference = vec![0.0f32; m];
        matvec_bias_slices_with(SimdBackend::Scalar, &a, m, n, &x, &bias, &mut reference);
        for backend in available_backends() {
            let mut out = vec![f32::NAN; m];
            matvec_bias_slices_with(backend, &a, m, n, &x, &bias, &mut out);
            for (o, r) in out.iter().zip(&reference) {
                assert_eq!(o.to_bits(), r.to_bits(), "matvec({backend:?}) != scalar");
            }
        }
    }

    #[test]
    #[should_panic(expected = "matvec: a.len() != m*n")]
    fn dispatched_matvec_rejects_bad_lengths_in_release() {
        // Real assertions (not debug) must guard the raw-pointer kernels.
        let mut out = vec![0.0f32; 2];
        matvec_slices_with(SimdBackend::Scalar, &[1.0; 3], 2, 2, &[1.0; 2], &mut out);
    }
}
