//! The fixed-width vector abstraction behind the SIMD kernels.
//!
//! Every backend models the **same abstract machine**: eight `f32` lanes,
//! IEEE-754 single-precision multiply and add per lane (no FMA — a fused
//! multiply-add rounds once instead of twice and would change bits), and a
//! horizontal reduction that combines the lanes in one canonical tree:
//!
//! ```text
//! reduce([l0..l7]) = ((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7))
//! ```
//!
//! The tree is exactly what falls out of the natural two-step narrowing on
//! x86 — add the high 128-bit half onto the low half, then the high 64 bits
//! onto the low 64, then lane 1 onto lane 0 — and the scalar backend
//! replays it verbatim.  Because per-lane `mul`/`add` are correctly rounded
//! IEEE operations on every backend and the reduction order is pinned, a
//! generic kernel instantiated with any [`F32x8`] implementation produces
//! **bit-identical** results to the scalar instantiation.

/// Number of `f32` lanes in the abstract vector — fixed at 8 for every
/// backend (AVX2 maps it to one `__m256`, SSE2 to two `__m128`s, the scalar
/// backend to `[f32; 8]`), so the blocking and reduction order — and hence
/// the result bits — never depend on which ISA runs the kernel.
pub const BLOCK: usize = 8;

/// Eight `f32` lanes with IEEE mul/add and the canonical reduction tree.
///
/// # Safety
///
/// All methods are `unsafe` for two reasons: pointer-based `load`/`store`/
/// `gather` trust the caller for bounds, and the x86 implementations must
/// only run on CPUs that support their ISA (guaranteed by the runtime
/// dispatch in [`super::SimdBackend::resolve`]).
pub(crate) trait F32x8: Copy {
    /// Most samples one register block of the tiled mat-vec holds.  A
    /// block of 2 weight rows keeps `2·TILE_SAMPLES` accumulators plus
    /// `TILE_SAMPLES` sample loads and a weight load live, which must fit
    /// the backend's vector registers: 4 on AVX2 (13 of 16 `ymm`), 2 where
    /// one vector takes two `xmm` halves.  The shape never changes a bit,
    /// only how many accumulator chains are in flight.
    const TILE_SAMPLES: usize;
    /// Vectors per panel of one output row in the mat-mul (see
    /// `kernels::matmul_generic`): a panel keeps `MATMUL_VECS`
    /// accumulators, a splat of `a` and a load of `b` live for a whole
    /// list of nonzero terms, and needs enough independent accumulators to
    /// hide the add latency.  8 on AVX2 (64 columns, 10 of 16 `ymm`); 6
    /// where one vector takes two `xmm` halves (48 columns, 14 of 16
    /// `xmm`).  Like `TILE_SAMPLES`, the width never changes a bit.
    const MATMUL_VECS: usize;
    /// All lanes `+0.0`.
    ///
    /// # Safety
    /// No preconditions beyond the trait ISA contract — register-only.
    unsafe fn zero() -> Self;
    /// All lanes `v`.
    ///
    /// # Safety
    /// No preconditions beyond the trait ISA contract — register-only.
    unsafe fn splat(v: f32) -> Self;
    /// Loads lanes `0..8` from `src` (unaligned).
    ///
    /// # Safety
    /// `src..src+8` must be readable, properly aligned for `f32` reads.
    unsafe fn load(src: *const f32) -> Self;
    /// Stores lanes `0..8` to `dst` (unaligned).
    ///
    /// # Safety
    /// `dst..dst+8` must be writable, properly aligned for `f32` writes.
    unsafe fn store(self, dst: *mut f32);
    /// Lane-wise IEEE single add.
    ///
    /// # Safety
    /// No preconditions beyond the trait ISA contract — register-only.
    unsafe fn add(self, rhs: Self) -> Self;
    /// Lane-wise IEEE single multiply.
    ///
    /// # Safety
    /// No preconditions beyond the trait ISA contract — register-only.
    unsafe fn mul(self, rhs: Self) -> Self;
    /// Lane-wise IEEE single subtract.
    ///
    /// # Safety
    /// No preconditions beyond the trait ISA contract — register-only.
    unsafe fn sub(self, rhs: Self) -> Self;
    /// Lane-wise IEEE single divide.
    ///
    /// # Safety
    /// No preconditions beyond the trait ISA contract — register-only.
    unsafe fn div(self, rhs: Self) -> Self;
    /// Lane-wise maximum with the **canonical x86 semantics**
    /// `max(a, b) = if a > b { a } else { b }` — returns the *second*
    /// operand when the lanes compare unordered (NaN) or equal, exactly
    /// like `maxps`.  This is *not* `f32::max` (which is NaN-commutative);
    /// the scalar backend and [`super::lane_max`] replicate the x86 rule so
    /// every backend agrees bit for bit.
    ///
    /// # Safety
    /// No preconditions beyond the trait ISA contract — register-only.
    unsafe fn max(self, rhs: Self) -> Self;
    /// Lane-wise minimum with the canonical x86 semantics
    /// `min(a, b) = if a < b { a } else { b }` (see [`F32x8::max`]).
    ///
    /// # Safety
    /// No preconditions beyond the trait ISA contract — register-only.
    unsafe fn min(self, rhs: Self) -> Self;
    /// Lane-wise round-toward-zero to a whole number, via the x86
    /// `cvttps2dq`/`cvtdq2ps` pair (SSE2 has no float rounding
    /// instruction).  **Precondition:** every lane is finite with
    /// `|x| < 2^31`; outside that domain the i32 round-trip saturates
    /// differently per backend.  The coding kernels keep lanes in
    /// `[0, 2^24]`, where the round-trip is exact and equals `f32::trunc`.
    ///
    /// # Safety
    /// No memory preconditions; the `|x| < 2^31` domain bound above is a
    /// values contract, not a soundness one.
    unsafe fn trunc(self) -> Self;
    /// Lane-wise ordered `>=` compare producing a mask: all-ones bits where
    /// `self >= rhs`, `+0.0` otherwise.  Unordered (NaN) lanes compare
    /// false, exactly like `cmpps`.
    ///
    /// # Safety
    /// No preconditions beyond the trait ISA contract — register-only.
    unsafe fn cmp_ge(self, rhs: Self) -> Self;
    /// Lane-wise bitwise AND — combines a [`F32x8::cmp_ge`] mask with a
    /// value vector (`mask & v` keeps `v` in true lanes, `+0.0` in false
    /// lanes).
    ///
    /// # Safety
    /// No preconditions beyond the trait ISA contract — register-only.
    unsafe fn and(self, rhs: Self) -> Self;
    /// Packs the sign bit of each lane into bit `l` of the result, exactly
    /// like `movmskps`.  Applied to a [`F32x8::cmp_ge`] mask this yields
    /// one bit per lane of the compare outcome.
    ///
    /// # Safety
    /// No preconditions beyond the trait ISA contract — register-only.
    unsafe fn movemask(self) -> u32;
    /// Lane `l` = `table[idx[l]]` for `idx[0..8]`; all indices must be in
    /// bounds (no backend checks them).
    ///
    /// # Safety
    /// `idx..idx+8` must be readable and every index must be in bounds
    /// for `table`.
    unsafe fn gather(table: &[f32], idx: *const u32) -> Self;
    /// Horizontal sum in the canonical fixed tree (see module docs).
    ///
    /// # Safety
    /// No preconditions beyond the trait ISA contract — register-only.
    unsafe fn reduce(self) -> f32;
}

/// Portable backend: eight plain `f32`s.  This is the *reference semantics*
/// of the abstract machine — the SIMD backends are correct exactly when
/// they match it bit for bit.
#[derive(Clone, Copy)]
pub(crate) struct ScalarV([f32; 8]);

impl F32x8 for ScalarV {
    const TILE_SAMPLES: usize = 2;
    const MATMUL_VECS: usize = 6;

    // SAFETY: trivially safe — plain arithmetic on owned lanes; `unsafe`
    // only to match the trait signature.
    #[inline(always)]
    unsafe fn zero() -> Self {
        ScalarV([0.0; 8])
    }

    // SAFETY: trivially safe — plain arithmetic on owned lanes; `unsafe`
    // only to match the trait signature.
    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        ScalarV([v; 8])
    }

    // SAFETY: the only unsafe op is the lane load below, inside the
    // caller-guaranteed `src..src+8` readable span.
    #[inline(always)]
    unsafe fn load(src: *const f32) -> Self {
        let mut lanes = [0.0f32; 8];
        for (l, lane) in lanes.iter_mut().enumerate() {
            // SAFETY: `l < 8`, within the caller-guaranteed readable span.
            *lane = unsafe { *src.add(l) };
        }
        ScalarV(lanes)
    }

    // SAFETY: the only unsafe op is the lane store below, inside the
    // caller-guaranteed `dst..dst+8` writable span.
    #[inline(always)]
    unsafe fn store(self, dst: *mut f32) {
        for (l, lane) in self.0.iter().enumerate() {
            // SAFETY: `l < 8`, within the caller-guaranteed writable span.
            unsafe { *dst.add(l) = *lane };
        }
    }

    // SAFETY: trivially safe — plain arithmetic on owned lanes; `unsafe`
    // only to match the trait signature.
    #[inline(always)]
    unsafe fn add(self, rhs: Self) -> Self {
        let mut lanes = self.0;
        for (lane, r) in lanes.iter_mut().zip(rhs.0) {
            *lane += r;
        }
        ScalarV(lanes)
    }

    // SAFETY: trivially safe — plain arithmetic on owned lanes; `unsafe`
    // only to match the trait signature.
    #[inline(always)]
    unsafe fn mul(self, rhs: Self) -> Self {
        let mut lanes = self.0;
        for (lane, r) in lanes.iter_mut().zip(rhs.0) {
            *lane *= r;
        }
        ScalarV(lanes)
    }

    // SAFETY: trivially safe — plain arithmetic on owned lanes; `unsafe`
    // only to match the trait signature.
    #[inline(always)]
    unsafe fn sub(self, rhs: Self) -> Self {
        let mut lanes = self.0;
        for (lane, r) in lanes.iter_mut().zip(rhs.0) {
            *lane -= r;
        }
        ScalarV(lanes)
    }

    // SAFETY: trivially safe — plain arithmetic on owned lanes; `unsafe`
    // only to match the trait signature.
    #[inline(always)]
    unsafe fn div(self, rhs: Self) -> Self {
        let mut lanes = self.0;
        for (lane, r) in lanes.iter_mut().zip(rhs.0) {
            *lane /= r;
        }
        ScalarV(lanes)
    }

    // SAFETY: trivially safe — plain arithmetic on owned lanes; `unsafe`
    // only to match the trait signature.
    #[inline(always)]
    unsafe fn max(self, rhs: Self) -> Self {
        let mut lanes = self.0;
        for (lane, r) in lanes.iter_mut().zip(rhs.0) {
            *lane = super::lane_max(*lane, r);
        }
        ScalarV(lanes)
    }

    // SAFETY: trivially safe — plain arithmetic on owned lanes; `unsafe`
    // only to match the trait signature.
    #[inline(always)]
    unsafe fn min(self, rhs: Self) -> Self {
        let mut lanes = self.0;
        for (lane, r) in lanes.iter_mut().zip(rhs.0) {
            *lane = super::lane_min(*lane, r);
        }
        ScalarV(lanes)
    }

    // SAFETY: trivially safe — plain arithmetic on owned lanes; `unsafe`
    // only to match the trait signature.
    #[inline(always)]
    unsafe fn trunc(self) -> Self {
        // Within the documented |x| < 2^31 precondition `f32::trunc` is
        // exactly the cvttps2dq/cvtdq2ps round-trip.
        let mut lanes = self.0;
        for lane in lanes.iter_mut() {
            *lane = lane.trunc();
        }
        ScalarV(lanes)
    }

    // SAFETY: trivially safe — plain arithmetic on owned lanes; `unsafe`
    // only to match the trait signature.
    #[inline(always)]
    unsafe fn cmp_ge(self, rhs: Self) -> Self {
        let mut lanes = self.0;
        for (lane, r) in lanes.iter_mut().zip(rhs.0) {
            *lane = if *lane >= r {
                f32::from_bits(u32::MAX)
            } else {
                0.0
            };
        }
        ScalarV(lanes)
    }

    // SAFETY: trivially safe — plain arithmetic on owned lanes; `unsafe`
    // only to match the trait signature.
    #[inline(always)]
    unsafe fn and(self, rhs: Self) -> Self {
        let mut lanes = self.0;
        for (lane, r) in lanes.iter_mut().zip(rhs.0) {
            *lane = f32::from_bits(lane.to_bits() & r.to_bits());
        }
        ScalarV(lanes)
    }

    // SAFETY: trivially safe — plain arithmetic on owned lanes; `unsafe`
    // only to match the trait signature.
    #[inline(always)]
    unsafe fn movemask(self) -> u32 {
        let mut m = 0u32;
        for (l, lane) in self.0.iter().enumerate() {
            m |= (lane.to_bits() >> 31) << l;
        }
        m
    }

    // SAFETY: reads `idx..idx+8` and indexes `table`, both guaranteed
    // by the trait contract (indices in bounds, idx span readable).
    #[inline(always)]
    unsafe fn gather(table: &[f32], idx: *const u32) -> Self {
        let mut lanes = [0.0f32; 8];
        for (l, lane) in lanes.iter_mut().enumerate() {
            // SAFETY: `l < 8`, within the caller-guaranteed `idx` span.
            let i = unsafe { *idx.add(l) } as usize;
            // SAFETY: every gathered index is in bounds per the trait contract.
            *lane = unsafe { *table.get_unchecked(i) };
        }
        ScalarV(lanes)
    }

    // SAFETY: trivially safe — plain arithmetic on owned lanes; `unsafe`
    // only to match the trait signature.
    #[inline(always)]
    unsafe fn reduce(self) -> f32 {
        reduce8(self.0)
    }
}

/// The canonical 8-lane reduction tree, spelled out once so the scalar
/// backend, [`super::sum8_by`] and the documentation all share one
/// definition.
#[inline(always)]
pub fn reduce8(l: [f32; 8]) -> f32 {
    ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))
}

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::{Avx2V, Sse2V};

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::F32x8;
    use std::arch::x86_64::{
        __m128, __m128i, __m256, __m256i, _mm256_add_ps, _mm256_and_ps, _mm256_castps256_ps128,
        _mm256_cmp_ps, _mm256_cvtepi32_ps, _mm256_cvttps_epi32, _mm256_div_ps,
        _mm256_extractf128_ps, _mm256_i32gather_ps, _mm256_loadu_ps, _mm256_loadu_si256,
        _mm256_max_ps, _mm256_min_ps, _mm256_movemask_ps, _mm256_mul_ps, _mm256_set1_ps,
        _mm256_setzero_ps, _mm256_storeu_ps, _mm256_sub_ps, _mm_add_ps, _mm_add_ss, _mm_and_ps,
        _mm_cmpge_ps, _mm_cvtepi32_ps, _mm_cvtss_f32, _mm_cvttps_epi32, _mm_div_ps, _mm_loadu_ps,
        _mm_max_ps, _mm_min_ps, _mm_movehl_ps, _mm_movemask_ps, _mm_mul_ps, _mm_set1_ps,
        _mm_set_ps, _mm_setzero_ps, _mm_shuffle_ps, _mm_storeu_ps, _mm_sub_ps, _CMP_GE_OQ,
    };

    /// Narrows the two 128-bit halves of an 8-lane accumulator down to one
    /// `f32` following the canonical tree: add the halves lane-wise, add the
    /// high 64 bits onto the low 64, then lane 1 onto lane 0 — i.e.
    /// `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`, exactly [`super::reduce8`].
    // SAFETY: register-only SSE shuffles/adds; SSE2 is x86_64 baseline, so
    // callers need no extra ISA argument.
    #[inline(always)]
    unsafe fn reduce_halves(lo: __m128, hi: __m128) -> f32 {
        // SAFETY: register-only SSE shuffles/adds (baseline ISA).
        unsafe {
            // s = [l0+l4, l1+l5, l2+l6, l3+l7]
            let s = _mm_add_ps(lo, hi);
            // p = [s0+s2, s1+s3, _, _]
            let p = _mm_add_ps(s, _mm_movehl_ps(s, s));
            // lane 0 of q = p1
            let q = _mm_shuffle_ps::<0b01>(p, p);
            _mm_cvtss_f32(_mm_add_ss(p, q))
        }
    }

    /// SSE2 backend: the 8-lane machine as two `__m128` halves (lanes 0..4
    /// and 4..8).  SSE2 is part of the x86_64 baseline, so this backend is
    /// always available on that architecture.
    #[derive(Clone, Copy)]
    pub(crate) struct Sse2V(__m128, __m128);

    impl F32x8 for Sse2V {
        const TILE_SAMPLES: usize = 2;
        const MATMUL_VECS: usize = 6;

        // SAFETY: register-only lane arithmetic, no memory access; SSE2 is part of the
        // x86_64 baseline, so the intrinsics are always available here.
        #[inline(always)]
        unsafe fn zero() -> Self {
            // SAFETY: register-only SSE2 lane ops (baseline ISA).
            unsafe { Sse2V(_mm_setzero_ps(), _mm_setzero_ps()) }
        }

        // SAFETY: register-only lane arithmetic, no memory access; SSE2 is part of the
        // x86_64 baseline, so the intrinsics are always available here.
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            // SAFETY: register-only SSE2 lane ops (baseline ISA).
            unsafe { Sse2V(_mm_set1_ps(v), _mm_set1_ps(v)) }
        }

        // SAFETY: reads the caller-guaranteed `src..src+8` span; SSE2 is
        // x86_64 baseline.
        #[inline(always)]
        unsafe fn load(src: *const f32) -> Self {
            // SAFETY: `movups` is alignment-free; `src..src+8` is readable.
            unsafe { Sse2V(_mm_loadu_ps(src), _mm_loadu_ps(src.add(4))) }
        }

        // SAFETY: writes the caller-guaranteed `dst..dst+8` span; SSE2 is
        // x86_64 baseline.
        #[inline(always)]
        unsafe fn store(self, dst: *mut f32) {
            // SAFETY: `movups` is alignment-free; `dst..dst+8` is writable.
            unsafe {
                _mm_storeu_ps(dst, self.0);
                _mm_storeu_ps(dst.add(4), self.1);
            }
        }

        // SAFETY: register-only lane arithmetic, no memory access; SSE2 is part of the
        // x86_64 baseline, so the intrinsics are always available here.
        #[inline(always)]
        unsafe fn add(self, rhs: Self) -> Self {
            // SAFETY: register-only SSE2 lane ops (baseline ISA).
            unsafe { Sse2V(_mm_add_ps(self.0, rhs.0), _mm_add_ps(self.1, rhs.1)) }
        }

        // SAFETY: register-only lane arithmetic, no memory access; SSE2 is part of the
        // x86_64 baseline, so the intrinsics are always available here.
        #[inline(always)]
        unsafe fn mul(self, rhs: Self) -> Self {
            // SAFETY: register-only SSE2 lane ops (baseline ISA).
            unsafe { Sse2V(_mm_mul_ps(self.0, rhs.0), _mm_mul_ps(self.1, rhs.1)) }
        }

        // SAFETY: register-only lane arithmetic, no memory access; SSE2 is part of the
        // x86_64 baseline, so the intrinsics are always available here.
        #[inline(always)]
        unsafe fn sub(self, rhs: Self) -> Self {
            // SAFETY: register-only SSE2 lane ops (baseline ISA).
            unsafe { Sse2V(_mm_sub_ps(self.0, rhs.0), _mm_sub_ps(self.1, rhs.1)) }
        }

        // SAFETY: register-only lane arithmetic, no memory access; SSE2 is part of the
        // x86_64 baseline, so the intrinsics are always available here.
        #[inline(always)]
        unsafe fn div(self, rhs: Self) -> Self {
            // SAFETY: register-only SSE2 lane ops (baseline ISA).
            unsafe { Sse2V(_mm_div_ps(self.0, rhs.0), _mm_div_ps(self.1, rhs.1)) }
        }

        // SAFETY: register-only lane arithmetic, no memory access; SSE2 is part of the
        // x86_64 baseline, so the intrinsics are always available here.
        #[inline(always)]
        unsafe fn max(self, rhs: Self) -> Self {
            // SAFETY: register-only SSE2 lane ops (baseline ISA).
            unsafe { Sse2V(_mm_max_ps(self.0, rhs.0), _mm_max_ps(self.1, rhs.1)) }
        }

        // SAFETY: register-only lane arithmetic, no memory access; SSE2 is part of the
        // x86_64 baseline, so the intrinsics are always available here.
        #[inline(always)]
        unsafe fn min(self, rhs: Self) -> Self {
            // SAFETY: register-only SSE2 lane ops (baseline ISA).
            unsafe { Sse2V(_mm_min_ps(self.0, rhs.0), _mm_min_ps(self.1, rhs.1)) }
        }

        // SAFETY: register-only lane arithmetic, no memory access; SSE2 is part of the
        // x86_64 baseline, so the intrinsics are always available here.
        #[inline(always)]
        unsafe fn trunc(self) -> Self {
            // SAFETY: register-only SSE2 lane ops (baseline ISA).
            unsafe {
                Sse2V(
                    _mm_cvtepi32_ps(_mm_cvttps_epi32(self.0)),
                    _mm_cvtepi32_ps(_mm_cvttps_epi32(self.1)),
                )
            }
        }

        // SAFETY: register-only lane arithmetic, no memory access; SSE2 is part of the
        // x86_64 baseline, so the intrinsics are always available here.
        #[inline(always)]
        unsafe fn cmp_ge(self, rhs: Self) -> Self {
            // SAFETY: register-only SSE2 lane ops (baseline ISA).
            unsafe { Sse2V(_mm_cmpge_ps(self.0, rhs.0), _mm_cmpge_ps(self.1, rhs.1)) }
        }

        // SAFETY: register-only lane arithmetic, no memory access; SSE2 is part of the
        // x86_64 baseline, so the intrinsics are always available here.
        #[inline(always)]
        unsafe fn and(self, rhs: Self) -> Self {
            // SAFETY: register-only SSE2 lane ops (baseline ISA).
            unsafe { Sse2V(_mm_and_ps(self.0, rhs.0), _mm_and_ps(self.1, rhs.1)) }
        }

        // SAFETY: register-only lane arithmetic, no memory access; SSE2 is part of the
        // x86_64 baseline, so the intrinsics are always available here.
        #[inline(always)]
        unsafe fn movemask(self) -> u32 {
            // SAFETY: register-only SSE2 lane ops (baseline ISA).
            unsafe { (_mm_movemask_ps(self.0) as u32) | ((_mm_movemask_ps(self.1) as u32) << 4) }
        }

        // SAFETY: reads `idx..idx+8` and in-bounds `table` entries per the
        // trait contract; SSE2 is x86_64 baseline.
        #[inline(always)]
        unsafe fn gather(table: &[f32], idx: *const u32) -> Self {
            // SSE2 has no gather instruction; eight scalar loads assembled
            // into lanes are bit-identical to a hardware gather by
            // construction.
            let t = |l: usize| -> f32 {
                // SAFETY: `l < 8`, within the caller-guaranteed `idx` span.
                let i = unsafe { *idx.add(l) } as usize;
                // SAFETY: every gathered index is in bounds per the trait contract.
                unsafe { *table.get_unchecked(i) }
            };
            // SAFETY: register-only lane assembly from the loaded scalars.
            unsafe {
                Sse2V(
                    _mm_set_ps(t(3), t(2), t(1), t(0)),
                    _mm_set_ps(t(7), t(6), t(5), t(4)),
                )
            }
        }

        // SAFETY: register-only lane arithmetic, no memory access; SSE2 is part of the
        // x86_64 baseline, so the intrinsics are always available here.
        #[inline(always)]
        unsafe fn reduce(self) -> f32 {
            // SAFETY: register-only SSE2 lane ops (baseline ISA).
            unsafe { reduce_halves(self.0, self.1) }
        }
    }

    /// AVX2 backend: the 8-lane machine as one `__m256`.  Uses plain
    /// `vmulps`/`vaddps` (never FMA — fusing would round once instead of
    /// twice and change bits) and `vgatherdps` for table lookups.
    #[derive(Clone, Copy)]
    pub(crate) struct Avx2V(__m256);

    impl F32x8 for Avx2V {
        const TILE_SAMPLES: usize = 4;
        const MATMUL_VECS: usize = 8;

        // SAFETY: register-only lane arithmetic, no memory access; the dispatch layer
        // verified AVX2 support before selecting this backend.
        #[inline(always)]
        unsafe fn zero() -> Self {
            // SAFETY: register-only AVX2 lane ops; ISA verified at dispatch.
            unsafe { Avx2V(_mm256_setzero_ps()) }
        }

        // SAFETY: register-only lane arithmetic, no memory access; the dispatch layer
        // verified AVX2 support before selecting this backend.
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            // SAFETY: register-only AVX2 lane ops; ISA verified at dispatch.
            unsafe { Avx2V(_mm256_set1_ps(v)) }
        }

        // SAFETY: reads the caller-guaranteed `src..src+8` span; AVX2
        // verified at dispatch.
        #[inline(always)]
        unsafe fn load(src: *const f32) -> Self {
            // SAFETY: `vmovups` is alignment-free; `src..src+8` is readable.
            unsafe { Avx2V(_mm256_loadu_ps(src)) }
        }

        // SAFETY: writes the caller-guaranteed `dst..dst+8` span; AVX2
        // verified at dispatch.
        #[inline(always)]
        unsafe fn store(self, dst: *mut f32) {
            // SAFETY: `vmovups` is alignment-free; `dst..dst+8` is writable.
            unsafe { _mm256_storeu_ps(dst, self.0) }
        }

        // SAFETY: register-only lane arithmetic, no memory access; the dispatch layer
        // verified AVX2 support before selecting this backend.
        #[inline(always)]
        unsafe fn add(self, rhs: Self) -> Self {
            // SAFETY: register-only AVX2 lane ops; ISA verified at dispatch.
            unsafe { Avx2V(_mm256_add_ps(self.0, rhs.0)) }
        }

        // SAFETY: register-only lane arithmetic, no memory access; the dispatch layer
        // verified AVX2 support before selecting this backend.
        #[inline(always)]
        unsafe fn mul(self, rhs: Self) -> Self {
            // SAFETY: register-only AVX2 lane ops; ISA verified at dispatch.
            unsafe { Avx2V(_mm256_mul_ps(self.0, rhs.0)) }
        }

        // SAFETY: register-only lane arithmetic, no memory access; the dispatch layer
        // verified AVX2 support before selecting this backend.
        #[inline(always)]
        unsafe fn sub(self, rhs: Self) -> Self {
            // SAFETY: register-only AVX2 lane ops; ISA verified at dispatch.
            unsafe { Avx2V(_mm256_sub_ps(self.0, rhs.0)) }
        }

        // SAFETY: register-only lane arithmetic, no memory access; the dispatch layer
        // verified AVX2 support before selecting this backend.
        #[inline(always)]
        unsafe fn div(self, rhs: Self) -> Self {
            // SAFETY: register-only AVX2 lane ops; ISA verified at dispatch.
            unsafe { Avx2V(_mm256_div_ps(self.0, rhs.0)) }
        }

        // SAFETY: register-only lane arithmetic, no memory access; the dispatch layer
        // verified AVX2 support before selecting this backend.
        #[inline(always)]
        unsafe fn max(self, rhs: Self) -> Self {
            // SAFETY: register-only AVX2 lane ops; ISA verified at dispatch.
            unsafe { Avx2V(_mm256_max_ps(self.0, rhs.0)) }
        }

        // SAFETY: register-only lane arithmetic, no memory access; the dispatch layer
        // verified AVX2 support before selecting this backend.
        #[inline(always)]
        unsafe fn min(self, rhs: Self) -> Self {
            // SAFETY: register-only AVX2 lane ops; ISA verified at dispatch.
            unsafe { Avx2V(_mm256_min_ps(self.0, rhs.0)) }
        }

        // SAFETY: register-only lane arithmetic, no memory access; the dispatch layer
        // verified AVX2 support before selecting this backend.
        #[inline(always)]
        unsafe fn trunc(self) -> Self {
            // SAFETY: register-only AVX2 lane ops; ISA verified at dispatch.
            unsafe { Avx2V(_mm256_cvtepi32_ps(_mm256_cvttps_epi32(self.0))) }
        }

        // SAFETY: register-only lane arithmetic, no memory access; the dispatch layer
        // verified AVX2 support before selecting this backend.
        #[inline(always)]
        unsafe fn cmp_ge(self, rhs: Self) -> Self {
            // `_CMP_GE_OQ`: ordered, non-signaling — NaN lanes compare
            // false, same outcome as SSE2's `cmpgeps` on quiet NaNs.
            // SAFETY: register-only AVX2 lane ops; ISA verified at dispatch.
            unsafe { Avx2V(_mm256_cmp_ps::<_CMP_GE_OQ>(self.0, rhs.0)) }
        }

        // SAFETY: register-only lane arithmetic, no memory access; the dispatch layer
        // verified AVX2 support before selecting this backend.
        #[inline(always)]
        unsafe fn and(self, rhs: Self) -> Self {
            // SAFETY: register-only AVX2 lane ops; ISA verified at dispatch.
            unsafe { Avx2V(_mm256_and_ps(self.0, rhs.0)) }
        }

        // SAFETY: register-only lane arithmetic, no memory access; the dispatch layer
        // verified AVX2 support before selecting this backend.
        #[inline(always)]
        unsafe fn movemask(self) -> u32 {
            // SAFETY: register-only AVX2 lane ops; ISA verified at dispatch.
            unsafe { _mm256_movemask_ps(self.0) as u32 }
        }

        // SAFETY: reads `idx..idx+8` and in-bounds `table` entries per the
        // trait contract; AVX2 verified at dispatch.
        #[inline(always)]
        unsafe fn gather(table: &[f32], idx: *const u32) -> Self {
            // `vgatherdps` reads the indices as *signed* i32; the dispatch
            // layer asserts `table.len() <= i32::MAX` so every valid index
            // stays non-negative.
            // SAFETY: `idx..idx+8` is readable (unaligned load) and every index
            // is in bounds, so the gather reads only inside `table`.
            unsafe {
                let vindex: __m256i = _mm256_loadu_si256(idx as *const __m256i);
                Avx2V(_mm256_i32gather_ps::<4>(table.as_ptr(), vindex))
            }
        }

        // SAFETY: register-only lane arithmetic, no memory access; the dispatch layer
        // verified AVX2 support before selecting this backend.
        #[inline(always)]
        unsafe fn reduce(self) -> f32 {
            // SAFETY: register-only AVX2 lane ops; ISA verified at dispatch.
            unsafe {
                reduce_halves(
                    _mm256_castps256_ps128(self.0),
                    _mm256_extractf128_ps::<1>(self.0),
                )
            }
        }
    }

    /// Compile-time guard: `__m128i` round-trips the raw index pointer used
    /// by [`Avx2V::gather`]; keep the import anchored even if gather is
    /// refactored.
    const _: fn() = || {
        let _ = std::mem::size_of::<__m128i>;
    };
}
