//! Generic lane-blocked kernels, instantiated once per [`F32x8`] backend.
//!
//! Every kernel here defines the **canonical operation order** for the whole
//! workspace: columns are consumed in ascending 8-wide blocks, each block's
//! partial products live in eight independent lane accumulators, the lanes
//! are combined with the fixed tree in [`super::vec::reduce8`], and the
//! `n % 8` tail elements are added sequentially afterwards.  The scalar
//! backend executes exactly this algorithm, so whichever ISA runs a kernel,
//! the result bits are the same.
//!
//! # Safety
//!
//! All functions in this module are `unsafe`: they index through raw
//! pointers and trust the slice-length / index-bounds contracts that the
//! safe dispatch wrappers in [`super`] assert before calling in, and the
//! x86 instantiations additionally require the matching CPU features
//! (guaranteed by runtime dispatch).

use super::vec::{F32x8, BLOCK};

/// Canonicalises a bias value used to seed an accumulator: `b + 0.0`
/// flushes `-0.0` to `+0.0` and leaves every other value (including NaN
/// payloads produced upstream) bitwise unchanged.
///
/// Seeding from `+0.0` rather than `-0.0` is what makes "skip the zero
/// terms" a *bitwise* no-op in [`matmul_generic`]: under IEEE-754
/// round-to-nearest, `acc + (w * ±0.0)` can only differ from `acc` when
/// `acc` is `-0.0` and the product is `+0.0` (or vice versa), and a lane
/// seeded `+0.0` can never become `-0.0` again (an IEEE add yields `-0.0`
/// only when both operands are `-0.0`).
#[inline(always)]
pub(crate) fn seed_from_bias(b: f32) -> f32 {
    b + 0.0
}

/// Dense mat-vec with optional bias seeding: `out[i] = seed(bias[i]) + Σ_j
/// a[i][j]·x[j]` in the canonical lane-blocked order.  An empty `bias`
/// means "no bias": `out[i]` is the plain dot product.
///
/// # Safety
/// Requires `a.len() == m*n`, `x.len() == n`, `out.len() == m` and
/// `bias.len() ∈ {0, m}`; the backend `V` must be runnable on this CPU.
#[inline(always)]
pub(crate) unsafe fn matvec_generic<V: F32x8>(
    a: &[f32],
    m: usize,
    n: usize,
    x: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * n);
    debug_assert_eq!(x.len(), n);
    debug_assert_eq!(out.len(), m);
    debug_assert!(bias.is_empty() || bias.len() == m);
    let nb = n - (n % BLOCK);
    let ap = a.as_ptr();
    let xp = x.as_ptr();
    let has_bias = !bias.is_empty();
    for (i, o) in out.iter_mut().enumerate() {
        // SAFETY: `i < m`, so row `i*n..i*n+n` lies inside `a` (len `m*n`).
        let row = unsafe { ap.add(i * n) };
        // SAFETY: register-only lane op; the backend is runnable per dispatch.
        let mut acc = unsafe { V::zero() };
        let mut b = 0usize;
        while b < nb {
            // SAFETY: `b + 8 <= nb <= n == x.len()` — the block is inside `x`.
            let xv = unsafe { V::load(xp.add(b)) };
            // SAFETY: `b + 8 <= nb <= n` — the block is inside row `i` of `a`.
            let rv = unsafe { V::load(row.add(b)) };
            // SAFETY: register-only lane op; the backend is runnable per dispatch.
            acc = unsafe { acc.add(rv.mul(xv)) };
            b += BLOCK;
        }
        // SAFETY: register-only lane op; the backend is runnable per dispatch.
        let mut s = unsafe { acc.reduce() };
        for j in nb..n {
            // SAFETY: tail `j < n`, inside both the row span and `x`.
            s += unsafe { *row.add(j) * *xp.add(j) };
        }
        *o = if has_bias {
            seed_from_bias(bias[i]) + s
        } else {
            s
        };
    }
}

/// Mat-mul: `out = seedrow(bias) .+ a·b` where `a` is `m×k`,
/// `b` is `k×n` and `bias` (empty for "no bias") seeds every output row.
///
/// Vectorised over the output columns in axpy form (`out_block +=
/// a[i][kk]·b_block`), which keeps the per-element operation order of the
/// classic `ikj` scalar loop **exactly** — only the machine width changes —
/// so this kernel is bit-for-bit the historical scalar matmul.  Terms with
/// `a[i][kk] == 0.0` are skipped; this is a bitwise no-op because every
/// accumulator starts from `+0.0` or a canonicalised bias and can never be
/// `-0.0` (see [`seed_from_bias`]).
///
/// # Safety
/// Requires `a.len() == m*k`, `b.len() == k*n`, `out.len() == m*n` and
/// `bias.len() ∈ {0, n}`; the backend `V` must be runnable on this CPU.
#[inline(always)]
pub(crate) unsafe fn matmul_generic<V: F32x8>(
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    bias: &[f32],
    out: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    debug_assert!(bias.is_empty() || bias.len() == n);
    let nb = n - (n % BLOCK);
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let has_bias = !bias.is_empty();
    let biasp = bias.as_ptr();
    for i in 0..m {
        // SAFETY: `i < m`, so row `i*n..i*n+n` lies inside `out` (len `m*n`).
        let orow = unsafe { out.as_mut_ptr().add(i * n) };
        // Seed the output row: canonicalised bias (b_j + 0.0) or +0.0.
        let mut j = 0usize;
        while j < nb {
            let seed = if has_bias {
                // SAFETY: `j + 8 <= nb <= n == bias.len()` on this branch.
                unsafe { V::load(biasp.add(j)).add(V::zero()) }
            } else {
                // SAFETY: register-only lane op; the backend is runnable per dispatch.
                unsafe { V::zero() }
            };
            // SAFETY: `j + 8 <= nb <= n` — the block is inside output row `i`.
            unsafe { seed.store(orow.add(j)) };
            j += BLOCK;
        }
        for j in nb..n {
            // SAFETY: tail `j < n`, inside output row `i` and (if present) `bias`.
            unsafe {
                *orow.add(j) = if has_bias {
                    seed_from_bias(*biasp.add(j))
                } else {
                    0.0
                }
            };
        }
        for kk in 0..k {
            // SAFETY: `i < m`, `kk < k`, so the flat index is inside `a` (len `m*k`).
            let aik = unsafe { *ap.add(i * k + kk) };
            if aik == 0.0 {
                continue; // bitwise no-op: accumulators are never -0.0
            }
            // SAFETY: register-only lane op; the backend is runnable per dispatch.
            let av = unsafe { V::splat(aik) };
            // SAFETY: `kk < k`, so row `kk*n..kk*n+n` lies inside `b` (len `k*n`).
            let brow = unsafe { bp.add(kk * n) };
            let mut j = 0usize;
            while j < nb {
                // SAFETY: `j + 8 <= nb <= n` — the block is inside output row `i`.
                let ov = unsafe { V::load(orow.add(j)) };
                // SAFETY: `j + 8 <= nb <= n` — the block is inside row `kk` of `b`.
                let bv = unsafe { V::load(brow.add(j)) };
                // SAFETY: register mul/add plus a store into the in-bounds block above.
                unsafe { ov.add(av.mul(bv)).store(orow.add(j)) };
                j += BLOCK;
            }
            for j in nb..n {
                // SAFETY: tail `j < n`, inside both the output row and row `kk` of `b`.
                unsafe { *orow.add(j) += aik * *brow.add(j) };
            }
        }
    }
}

/// Sums `table[idx]` over every index in `idx`, in the canonical
/// lane-blocked order: 8-wide gather blocks accumulate into lanes, the
/// lanes reduce through the fixed tree, and the tail indices are added
/// sequentially.  This is the vector form of [`super::sum8_by`] — the two
/// must stay in lockstep.
///
/// # Safety
/// Every `idx` value must be `< table.len()` and `table.len()` must fit in
/// `i32` (the AVX2 gather treats indices as signed); the backend `V` must
/// be runnable on this CPU.
#[inline(always)]
pub(crate) unsafe fn sum_gather_generic<V: F32x8>(table: &[f32], idx: &[u32]) -> f32 {
    let n = idx.len();
    let nb = n - (n % BLOCK);
    let ip = idx.as_ptr();
    // SAFETY: register-only lane op; the backend is runnable per dispatch.
    let mut acc = unsafe { V::zero() };
    let mut b = 0usize;
    while b < nb {
        // SAFETY: `b + 8 <= nb <= idx.len()` and every index is `< table.len()`
        // per this fn's contract, so the gather stays inside `table`.
        let g = unsafe { V::gather(table, ip.add(b)) };
        // SAFETY: register-only lane op; the backend is runnable per dispatch.
        acc = unsafe { acc.add(g) };
        b += BLOCK;
    }
    // SAFETY: register-only lane op; the backend is runnable per dispatch.
    let mut s = unsafe { acc.reduce() };
    for &t in &idx[nb..] {
        s += table[t as usize];
    }
    s
}

/// Normalised clamp used by every coding's encode path: `out[i] =
/// min(max(x[i], 0), θ) / θ` with the canonical x86 `max`/`min` semantics
/// (see [`F32x8::max`]) — the lane-blocked twin of [`super::clamp_ratio`],
/// which the `n % 8` tail calls so the two stay in lockstep.
///
/// Every operation is an elementwise, correctly rounded IEEE op with a
/// pinned NaN/zero rule, so lanes and tail agree bit for bit on any
/// backend: NaN activations flush to `+0.0` (`max(NaN, 0) = 0` under the
/// canonical rule) and `-0.0` flushes to `+0.0` the same way.
///
/// # Safety
/// Requires `out.len() == x.len()`; the backend `V` must be runnable on
/// this CPU.
#[inline(always)]
pub(crate) unsafe fn encode_ratio_generic<V: F32x8>(x: &[f32], threshold: f32, out: &mut [f32]) {
    debug_assert_eq!(out.len(), x.len());
    let n = x.len();
    let nb = n - (n % BLOCK);
    let xp = x.as_ptr();
    let op = out.as_mut_ptr();
    // SAFETY: register-only lane op; the backend is runnable per dispatch.
    let zero = unsafe { V::zero() };
    // SAFETY: register-only lane op; the backend is runnable per dispatch.
    let theta = unsafe { V::splat(threshold) };
    let mut i = 0usize;
    while i < nb {
        // SAFETY: `i + 8 <= nb <= n == x.len()` — the block is inside `x`.
        let v = unsafe { V::load(xp.add(i)) };
        // SAFETY: register-only lane op; the backend is runnable per dispatch.
        let r = unsafe { v.max(zero).min(theta).div(theta) };
        // SAFETY: `i + 8 <= nb <= n == out.len()` — the block is inside `out`.
        unsafe { r.store(op.add(i)) };
        i += BLOCK;
    }
    for j in nb..n {
        // SAFETY: tail `j < n`, inside both `x` and `out` (equal lengths).
        unsafe { *op.add(j) = super::clamp_ratio(*xp.add(j), threshold) };
    }
}

/// Quantising encode shared by the rate and burst codings: `out[i] =
/// round_half_up(min(max(x[i], 0), θ) / θ · scale)` as an `f32` whole
/// number — the lane-blocked twin of [`super::quantize_value`], which the
/// tail calls.
///
/// Rounding is half-up (`trunc(y) + (y − trunc(y) ≥ 0.5 ? 1.0 : 0.0)`),
/// which equals `f32::round` (half-away-from-zero) on the non-negative
/// domain these encodes live in, and is exact: `y − trunc(y)` is computed
/// without error for finite `y ≥ 0` (Sterbenz), so every component is a
/// correctly rounded elementwise op and lanes match the tail bitwise.
///
/// # Safety
/// Requires `out.len() == x.len()` and `0 ≤ scale ≤ 2^24` (the
/// [`F32x8::trunc`] domain plus exact-integer headroom); the backend `V`
/// must be runnable on this CPU.
#[inline(always)]
pub(crate) unsafe fn encode_quant_generic<V: F32x8>(
    x: &[f32],
    threshold: f32,
    scale: f32,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), x.len());
    debug_assert!((0.0..=16_777_216.0).contains(&scale));
    let n = x.len();
    let nb = n - (n % BLOCK);
    let xp = x.as_ptr();
    let op = out.as_mut_ptr();
    // SAFETY: register-only lane op; the backend is runnable per dispatch.
    let zero = unsafe { V::zero() };
    // SAFETY: register-only lane op; the backend is runnable per dispatch.
    let theta = unsafe { V::splat(threshold) };
    // SAFETY: register-only lane op; the backend is runnable per dispatch.
    let sc = unsafe { V::splat(scale) };
    // SAFETY: register-only lane op; the backend is runnable per dispatch.
    let half = unsafe { V::splat(0.5) };
    // SAFETY: register-only lane op; the backend is runnable per dispatch.
    let one = unsafe { V::splat(1.0) };
    let mut i = 0usize;
    while i < nb {
        // SAFETY: `i + 8 <= nb <= n == x.len()` — the block is inside `x`.
        let v = unsafe { V::load(xp.add(i)) };
        // SAFETY: register-only lane op; the backend is runnable per dispatch.
        let y = unsafe { v.max(zero).min(theta).div(theta).mul(sc) };
        // SAFETY: register-only lane op; the backend is runnable per dispatch.
        let t = unsafe { y.trunc() };
        // SAFETY: register-only lane op; the backend is runnable per dispatch.
        let bump = unsafe { y.sub(t).cmp_ge(half).and(one) };
        // SAFETY: register ops plus a store into `out[i..i+8]`, in bounds as above.
        unsafe { t.add(bump).store(op.add(i)) };
        i += BLOCK;
    }
    for j in nb..n {
        // SAFETY: tail `j < n`, inside both `x` and `out` (equal lengths).
        unsafe { *op.add(j) = super::quantize_value(*xp.add(j), threshold, scale) };
    }
}

/// Pure in-place rescale used by decode paths: `io[i] = io[i] · mul / div`
/// — elementwise IEEE multiply then divide, trivially bit-identical across
/// backends.  In place because the rate decode writes raw spike counts
/// into the output buffer and rescales them where they sit.
///
/// # Safety
/// The backend `V` must be runnable on this CPU.
#[inline(always)]
pub(crate) unsafe fn scale_ratio_generic<V: F32x8>(io: &mut [f32], mul: f32, div: f32) {
    let n = io.len();
    let nb = n - (n % BLOCK);
    let p = io.as_mut_ptr();
    // SAFETY: register-only lane op; the backend is runnable per dispatch.
    let mv = unsafe { V::splat(mul) };
    // SAFETY: register-only lane op; the backend is runnable per dispatch.
    let dv = unsafe { V::splat(div) };
    let mut i = 0usize;
    while i < nb {
        // SAFETY: `i + 8 <= nb <= n == io.len()` — the block is inside `io`.
        let v = unsafe { V::load(p.add(i)) };
        // SAFETY: register ops plus a store back into the same in-bounds block.
        unsafe { v.mul(mv).div(dv).store(p.add(i)) };
        i += BLOCK;
    }
    for j in nb..n {
        // SAFETY: tail `j < n == io.len()`.
        unsafe { *p.add(j) = *p.add(j) * mul / div };
    }
}

/// Phase-coding bit patterns, 8 neurons per block: for each input the
/// greedy binary expansion of `min(max(x, 0), θ)/θ` over the per-phase
/// weights `w_k = 2^-(k+1)` — bit `k` of `out[i]` is set iff phase `k`
/// fires in every period.  The lane-blocked twin of
/// [`super::phase_bits_value`], which the tail calls.
///
/// Per weight the lanes run one ordered `rem ≥ thresholds[k]` compare, a
/// masked subtract (`rem −= mask & w_k`; false lanes subtract `+0.0`, a
/// bitwise no-op since `rem` is never `-0.0` on this path), and a
/// `movemask` whose bit `l` lands in bit `k` of lane `l`'s pattern — the
/// exact per-value greedy loop, eight neurons at a time.
///
/// Inputs that clamp to a ratio `≤ 0.0` are forced silent (pattern 0) —
/// this matters because `thresholds[k] = w_k − 1e-6` goes *negative* once
/// `w_k < 1e-6` (`k ≥ 20`), at which point a zero remainder would fire
/// every remaining phase.  The per-value reference implements the same
/// guard as an early return.
///
/// # Safety
/// Requires `bits.len() == x.len()` and `weights.len() == thresholds.len()
/// <= 64` (patterns accumulate in a `u64`); the backend `V` must be
/// runnable on this CPU.
#[inline(always)]
pub(crate) unsafe fn phase_bits_generic<V: F32x8>(
    x: &[f32],
    threshold: f32,
    weights: &[f32],
    thresholds: &[f32],
    bits: &mut [u64],
) {
    debug_assert_eq!(bits.len(), x.len());
    debug_assert_eq!(weights.len(), thresholds.len());
    debug_assert!(weights.len() <= 64);
    let n = x.len();
    let nb = n - (n % BLOCK);
    let xp = x.as_ptr();
    // SAFETY: register-only lane op; the backend is runnable per dispatch.
    let zero = unsafe { V::zero() };
    // SAFETY: register-only lane op; the backend is runnable per dispatch.
    let theta = unsafe { V::splat(threshold) };
    let mut i = 0usize;
    while i < nb {
        // SAFETY: `i + 8 <= nb <= n == x.len()` — the block is inside `x`.
        let v = unsafe { V::load(xp.add(i)) };
        // SAFETY: register-only lane op; the backend is runnable per dispatch.
        let ratio = unsafe { v.max(zero).min(theta).div(theta) };
        // Lanes whose ratio <= 0.0 must produce pattern 0 (see above).
        // SAFETY: register-only lane op; the backend is runnable per dispatch.
        let silent = unsafe { zero.cmp_ge(ratio).movemask() };
        let mut rem = ratio;
        let mut lane_bits = [0u64; BLOCK];
        for (k, (&w, &th)) in weights.iter().zip(thresholds).enumerate() {
            // SAFETY: register-only lane op; the backend is runnable per dispatch.
            let fire = unsafe { rem.cmp_ge(V::splat(th)) };
            // SAFETY: register-only lane op; the backend is runnable per dispatch.
            rem = unsafe { rem.sub(fire.and(V::splat(w))) };
            // SAFETY: register-only lane op; the backend is runnable per dispatch.
            let m = unsafe { fire.movemask() };
            for (l, lb) in lane_bits.iter_mut().enumerate() {
                *lb |= (((m >> l) & 1) as u64) << k;
            }
        }
        for (l, lb) in lane_bits.iter().enumerate() {
            bits[i + l] = if silent & (1 << l) != 0 { 0 } else { *lb };
        }
        i += BLOCK;
    }
    for (j, b) in bits.iter_mut().enumerate().skip(nb) {
        // SAFETY: tail `j < n == x.len()`; the helper only reads the value.
        *b = unsafe { super::phase_bits_value(*xp.add(j), threshold, weights, thresholds) };
    }
}

/// Copies `len` elements from `src` to `dst` through the vector unit.
///
/// # Safety
/// `src` and `dst` must be valid for `len` reads/writes and must not
/// overlap.
#[inline(always)]
unsafe fn copy_span<V: F32x8>(src: *const f32, dst: *mut f32, len: usize) {
    let nb = len - (len % BLOCK);
    let mut i = 0usize;
    while i < nb {
        // SAFETY: `i + 8 <= nb <= len`, inside the caller-guaranteed spans.
        unsafe { V::load(src.add(i)).store(dst.add(i)) };
        i += BLOCK;
    }
    while i < len {
        // SAFETY: `i < len`, inside the caller-guaranteed spans.
        unsafe { *dst.add(i) = *src.add(i) };
        i += 1;
    }
}

/// Writes `len` zeros (`+0.0`) starting at `dst`.
///
/// # Safety
/// `dst` must be valid for `len` writes.
#[inline(always)]
unsafe fn zero_span<V: F32x8>(dst: *mut f32, len: usize) {
    let nb = len - (len % BLOCK);
    let mut i = 0usize;
    while i < nb {
        // SAFETY: `i + 8 <= nb <= len`, inside the caller-guaranteed span.
        unsafe { V::zero().store(dst.add(i)) };
        i += BLOCK;
    }
    while i < len {
        // SAFETY: `i < len`, inside the caller-guaranteed span.
        unsafe { *dst.add(i) = 0.0 };
        i += 1;
    }
}

/// im2col patch unrolling, restructured from the historical per-element
/// branchy loop into "zero-fill the padded prefix, bulk-copy the valid
/// span, zero-fill the padded suffix" per kernel row.  Copies and
/// zero-stores are trivially bitwise-identical across backends, so this
/// kernel needs no reduction-order argument at all.
///
/// The geometry parameters are passed flat (rather than as
/// [`crate::Conv2dGeometry`]) to keep this module independent of the
/// higher-level conv types.
///
/// # Safety
/// Requires `x.len() == c*h*w` and `out.len() == out_positions*patch_len`
/// for the geometry implied by the parameters (kernel `k`, stride `s`,
/// padding `p`, output `oh×ow`).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn im2col_generic<V: F32x8>(
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
    let patch_len = c * k * k;
    debug_assert_eq!(x.len(), c * h * w);
    debug_assert_eq!(out.len(), oh * ow * patch_len);
    let xp = x.as_ptr();
    let op = out.as_mut_ptr();
    let mut row = 0usize;
    for oy in 0..oh {
        for ox in 0..ow {
            let base = row * patch_len;
            let ix0 = (ox * s) as isize - p as isize;
            // kx positions with an in-bounds input column: lo..hi.
            let lo = (-ix0).clamp(0, k as isize) as usize;
            let hi = (w as isize - ix0).clamp(0, k as isize) as usize;
            for ci in 0..c {
                for ky in 0..k {
                    // SAFETY: `base + ci*k*k + ky*k + k <= oh*ow*patch_len == out.len()`
                    // for every (oy, ox, ci, ky) in these loop ranges.
                    let dst = unsafe { op.add(base + ci * k * k + ky * k) };
                    let iy = (oy * s + ky) as isize - p as isize;
                    if iy < 0 || iy as usize >= h {
                        // SAFETY: the destination row `dst..dst+k` is inside `out` (see above).
                        unsafe { zero_span::<V>(dst, k) };
                        continue;
                    }
                    // SAFETY: `0 <= iy < h`, so the input row lies inside `x` (len `c*h*w`).
                    let src_row = unsafe { xp.add(ci * h * w + iy as usize * w) };
                    // SAFETY: prefix/suffix zero-fills and the copy cover exactly
                    // `dst..dst+k` (in bounds above); the copied span
                    // `ix0+lo..ix0+hi` is the clamped in-bounds part of the row.
                    unsafe {
                        zero_span::<V>(dst, lo);
                        copy_span::<V>(src_row.offset(ix0 + lo as isize), dst.add(lo), hi - lo);
                        zero_span::<V>(dst.add(hi), k - hi);
                    }
                }
            }
            row += 1;
        }
    }
}

/// Scalar form of the exact integer phase-weight sum: every spike at time
/// `t` contributes `2^(!t & mask)` (for a power-of-two period `mask + 1`,
/// `!t & mask` is `period-1 - phase`).  Integer addition is exact and
/// associative, so the result is independent of spike order, accumulation
/// strategy and ISA **by construction** — which is why this kernel family,
/// unlike the float reductions above, needs no canonical lane order: the
/// four independent accumulators here and the vector shifts of
/// [`phase_pow2_sum_avx2`] are free to differ in shape.
pub(crate) fn phase_pow2_sum_scalar(train: &[u32], mask: u32) -> u64 {
    let mut chunks = train.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0u64, 0u64, 0u64, 0u64);
    for q in chunks.by_ref() {
        s0 += 1u64 << (!q[0] & mask);
        s1 += 1u64 << (!q[1] & mask);
        s2 += 1u64 << (!q[2] & mask);
        s3 += 1u64 << (!q[3] & mask);
    }
    let mut s = (s0 + s1) + (s2 + s3);
    for &t in chunks.remainder() {
        s += 1u64 << (!t & mask);
    }
    s
}

/// AVX2 form of [`phase_pow2_sum_scalar`]: eight spikes per iteration via
/// the variable per-lane shift (`vpsllvd`, the instruction that makes this
/// kernel AVX2-only — SSE2 has no per-lane shift counts and runs the
/// scalar form instead), each `u32` power widened to a `u64` lane before
/// accumulation so the vector sums cannot wrap.
///
/// # Safety
/// Requires AVX2 (callers dispatch through the resolved backend) and
/// `mask < 32` (the shift count domain of `vpsllvd`; asserted by the
/// public wrapper).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn phase_pow2_sum_avx2(train: &[u32], mask: u32) -> u64 {
    use core::arch::x86_64::*;
    let vmask = _mm256_set1_epi32(mask as i32);
    let one = _mm256_set1_epi32(1);
    let mut acc = _mm256_setzero_si256();
    let mut chunks = train.chunks_exact(8);
    for q in chunks.by_ref() {
        // SAFETY: `q` is exactly 8 contiguous u32s; loadu has no alignment
        // requirement.
        let v = unsafe { _mm256_loadu_si256(q.as_ptr().cast()) };
        let sh = _mm256_andnot_si256(v, vmask);
        let pw = _mm256_sllv_epi32(one, sh);
        let lo = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(pw));
        let hi = _mm256_cvtepu32_epi64(_mm256_extracti128_si256::<1>(pw));
        acc = _mm256_add_epi64(acc, _mm256_add_epi64(lo, hi));
    }
    let mut lanes = [0u64; 4];
    // SAFETY: `lanes` is 32 bytes of writable memory; storeu is unaligned.
    unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc) };
    let mut s = lanes.iter().sum::<u64>();
    for &t in chunks.remainder() {
        s += 1u64 << (!t & mask);
    }
    s
}
