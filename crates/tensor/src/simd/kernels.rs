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

/// Tiled dense mat-vec with optional bias seeding: for each of the
/// `samples` rows of `x` (`samples × n`, row-major), `out[s·m + i] =
/// seed(bias[i]) + Σ_j a[i][j]·x[s][j]` in the canonical lane-blocked
/// order.  An empty `bias` means "no bias": the plain dot products.
///
/// Every `(row, sample)` output runs exactly the one-sample sequence —
/// ascending 8-wide column blocks into one lane accumulator (separate
/// multiply and add), the [`super::vec::reduce8`] tree, the `n % 8` tail
/// in order, then `seed(bias) + sum` — so the bits do not depend on the
/// tile.  The tile only changes which independent accumulator chains are
/// in flight: on AVX2 a register block of 2 weight rows × 4 samples keeps
/// 8 accumulators and spends 6 loads per 8 multiply-adds, and the rows
/// loop outside the samples, so each weight row is read from memory once
/// per tile instead of once per sample.  Narrow tiles interleave 4 rows
/// instead, so even one sample keeps 4 chains busy; backends whose vector
/// takes two registers block 2 samples at a time (see
/// [`F32x8::TILE_SAMPLES`]).
///
/// # Safety
/// Requires `a.len() == m*n`, `x.len() == samples*n`, `out.len() ==
/// samples*m` and `bias.len() ∈ {0, m}`; the backend `V` must be runnable
/// on this CPU.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn matvec_tile_generic<V: F32x8>(
    a: &[f32],
    m: usize,
    n: usize,
    x: &[f32],
    samples: usize,
    bias: &[f32],
    out: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * n);
    debug_assert_eq!(x.len(), samples * n);
    debug_assert_eq!(out.len(), samples * m);
    debug_assert!(bias.is_empty() || bias.len() == m);
    let tile = Tile {
        a: a.as_ptr(),
        m,
        n,
        nb: n - (n % BLOCK),
        x: x.as_ptr(),
        samples,
        bias,
        out: out.as_mut_ptr(),
    };
    if 2 * samples.min(V::TILE_SAMPLES) <= V::TILE_SAMPLES {
        // SAFETY: `tile` carries this fn's `# Safety` contract, which the
        // caller upholds.
        unsafe { tile_rows::<V, 4>(&tile) }
    } else {
        // SAFETY: as above.
        unsafe { tile_rows::<V, 2>(&tile) }
    }
}

/// The operands of one [`matvec_tile_generic`] call, as raw pointers
/// checked once against its `# Safety` contract.
struct Tile<'a> {
    a: *const f32,
    m: usize,
    n: usize,
    /// Columns covered by whole 8-wide blocks: `n - n % 8`.
    nb: usize,
    x: *const f32,
    samples: usize,
    bias: &'a [f32],
    out: *mut f32,
}

/// Runs every sample of the tile over the weight rows in blocks of `R`
/// (the `m % R` remainder rows one at a time), so each block of rows is
/// read from memory once for the whole tile.
///
/// # Safety
/// `t` must satisfy the [`matvec_tile_generic`] contract.
#[inline(always)]
unsafe fn tile_rows<V: F32x8, const R: usize>(t: &Tile<'_>) {
    let full = t.m - t.m % R;
    let mut i = 0usize;
    while i < full {
        // SAFETY: rows `i..i+R` lie below `full <= m`.
        unsafe { tile_samples::<V, R>(t, i) };
        i += R;
    }
    while i < t.m {
        // SAFETY: row `i < m`.
        unsafe { tile_samples::<V, 1>(t, i) };
        i += 1;
    }
}

/// Runs rows `i..i+R` against the tile's samples in groups of up to
/// [`F32x8::TILE_SAMPLES`].
///
/// # Safety
/// `i + R <= t.m`, and `t` satisfies the [`matvec_tile_generic`] contract.
#[inline(always)]
unsafe fn tile_samples<V: F32x8, const R: usize>(t: &Tile<'_>, i: usize) {
    let mut s = 0usize;
    while s < t.samples {
        // Each arm covers `S <= t.samples - s` samples; rows per the caller.
        s += match (t.samples - s).min(V::TILE_SAMPLES) {
            // SAFETY: sample `s` lies below `t.samples`.
            1 => unsafe { tile_block::<V, R, 1>(t, i, s) },
            // SAFETY: samples `s..s+2` lie below `t.samples`.
            2 => unsafe { tile_block::<V, R, 2>(t, i, s) },
            // SAFETY: samples `s..s+3` lie below `t.samples`.
            3 => unsafe { tile_block::<V, R, 3>(t, i, s) },
            // SAFETY: at least 4 samples remain from `s`.
            _ => unsafe { tile_block::<V, R, 4>(t, i, s) },
        };
    }
}

/// The register block: `R` weight rows × `S` samples in `R·S` lane
/// accumulators, then the canonical reduce, tail and bias seed per
/// output.  Returns `S`, the samples it covered.
///
/// # Safety
/// `i + R <= t.m`, `s + S <= t.samples`, and `t` satisfies the
/// [`matvec_tile_generic`] contract.
#[inline(always)]
unsafe fn tile_block<V: F32x8, const R: usize, const S: usize>(
    t: &Tile<'_>,
    i: usize,
    s: usize,
) -> usize {
    // SAFETY: register-only lane op; the backend is runnable per dispatch.
    let zero = unsafe { V::zero() };
    let mut acc = [[zero; S]; R];
    let mut xv = [zero; S];
    let mut b = 0usize;
    while b < t.nb {
        for (q, v) in xv.iter_mut().enumerate() {
            // SAFETY: sample `s + q < samples` and `b + 8 <= nb <= n`, so
            // the block is inside row `s + q` of `x` (len `samples*n`).
            *v = unsafe { V::load(t.x.add((s + q) * t.n + b)) };
        }
        for (r, chains) in acc.iter_mut().enumerate() {
            // SAFETY: row `i + r < m` and `b + 8 <= nb <= n`, so the block
            // is inside row `i + r` of `a` (len `m*n`).
            let w = unsafe { V::load(t.a.add((i + r) * t.n + b)) };
            for (c, &xq) in chains.iter_mut().zip(&xv) {
                // SAFETY: register-only lane op; the backend is runnable
                // per dispatch.
                *c = unsafe { c.add(w.mul(xq)) };
            }
        }
        b += BLOCK;
    }
    for (r, chains) in acc.iter().enumerate() {
        // SAFETY: row `i + r < m`: `(i+r)*n..(i+r+1)*n` lies inside `a`.
        let row = unsafe { t.a.add((i + r) * t.n) };
        for (q, c) in chains.iter().enumerate() {
            // SAFETY: sample `s + q < samples`: its row lies inside `x`.
            let xs = unsafe { t.x.add((s + q) * t.n) };
            // SAFETY: register-only lane op; the backend is runnable per
            // dispatch.
            let mut sum = unsafe { c.reduce() };
            for j in t.nb..t.n {
                // SAFETY: tail `j < n`, inside both row spans above.
                sum += unsafe { *row.add(j) * *xs.add(j) };
            }
            let o = if t.bias.is_empty() {
                sum
            } else {
                seed_from_bias(t.bias[i + r]) + sum
            };
            // SAFETY: `(s+q)*m + i+r < samples*m == out.len()`.
            unsafe { *t.out.add((s + q) * t.m + i + r) = o };
        }
    }
    S
}

/// Columns of `a` one nonzero list covers: [`matmul_generic`] walks each
/// row of `a` in chunks of this many columns, so the list fits in a stack
/// array of `u16` offsets.
const MATMUL_CHUNK: usize = 256;
const _: () = assert!(MATMUL_CHUNK <= 1 << 16);

/// Mat-mul: `out = seedrow(bias) .+ a·b` where `a` is `m×k`,
/// `b` is `k×n` and `bias` (empty for "no bias") seeds every output row.
///
/// **Operation order.**  Every output element runs the classic `ikj`
/// scalar sequence: seed `+0.0` (or `bias[j] + 0.0`), then for `kk`
/// ascending `acc = acc + a[i][kk]·b[kk][j]` — a multiply, then an add,
/// never fused — skipping the terms with `a[i][kk] == 0`.  Only the
/// machine width and the order in which *independent* elements are
/// computed change, so this kernel is bit for bit the historical scalar
/// mat-mul on every backend.
///
/// **Register tile.**  Each row of `a` is first compacted, branch-free,
/// into the list of its nonzero columns (per chunk of [`MATMUL_CHUNK`]).
/// The output row is then computed in panels of [`F32x8::MATMUL_VECS`]
/// vectors — 1 row × 64 columns on AVX2, 1 × 48 where a vector takes two
/// registers — whose accumulators stay in registers for the whole list:
/// each listed `kk` splats `a[i][kk]` once and adds its product with the
/// panel's block of `b` row `kk` into every vector.  The axpy form this
/// replaces loaded and stored the output row again for every `kk`.  The
/// panels split the row into disjoint column ranges.  A width that is not
/// a multiple of the panel ends with one narrower panel whose last vector
/// is shifted left to end at column `n`; it overlaps only the vector before
/// it in the same panel, which started from the same values, so both store
/// the same bits.  Where a full panel would leave 1 to 7 columns, it stops
/// one vector short, so the narrower panel is 9 to 15 columns wide and its
/// shifted vector never reaches into a panel already stored.  Widths below
/// 8 run the list per element.
///
/// **Exact zero skip.**  Only listed columns are added, so a term with
/// `a[i][kk] == 0` is never computed, whatever `b[kk][j]` holds.  Skipping
/// it is the historical order itself, and it matters only where `b` is
/// `±inf` or NaN: there `(±0)·b` is NaN, while on a finite `b` it is `±0`,
/// which would leave every accumulator's bits unchanged — an accumulator
/// starts from `+0.0` or a canonicalised bias (see [`seed_from_bias`]) and
/// so is never `-0.0`, the one value a `±0` addend could change.  Unlike a
/// branch per term, the list also costs nothing per skipped term, so a
/// sparse `a` (ReLU activations, their gradients, im2col padding) takes
/// time in proportion to its nonzeros.  Between the chunks of a long row,
/// the partial sums wait in `out`, and each column's sum is reloaded only
/// by the one panel that covers it.
///
/// # Safety
/// Requires `a.len() == m*k`, `b.len() == k*n`, `out.len() == m*n` (none
/// of the products overflowing) and `bias.len() ∈ {0, n}`; the backend `V`
/// must be runnable on this CPU.
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
    let t = MatMul {
        b: b.as_ptr(),
        n,
        bias,
        out: out.as_mut_ptr(),
    };
    let mut cols = [0u16; MATMUL_CHUNK];
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let mut k0 = 0usize;
        // One pass even when `k == 0`: it writes the seeds.
        loop {
            let k1 = (k0 + MATMUL_CHUNK).min(k);
            let mut len = 0usize;
            for (d, &x) in arow[k0..k1].iter().enumerate() {
                cols[len] = d as u16;
                len += usize::from(x != 0.0);
            }
            let row = Row {
                i,
                a: &arow[k0..k1],
                k0,
                cols: &cols[..len],
                resume: k0 > 0,
            };
            // SAFETY: `i < m` and `row.a` is row `i`'s `k0..k1` span;
            // `t` carries this fn's `# Safety` contract.
            unsafe { matmul_row::<V>(&t, &row) };
            if k1 == k {
                break;
            }
            k0 = k1;
        }
    }
}

/// The `b` and output operands of one [`matmul_generic`] call, as raw
/// pointers checked once against its `# Safety` contract.
struct MatMul<'a> {
    b: *const f32,
    n: usize,
    bias: &'a [f32],
    out: *mut f32,
}

/// One chunk of one row of `a`: its values, where the chunk starts, the
/// offsets of its nonzero values, and whether earlier chunks left partial
/// sums in the output row.
struct Row<'a> {
    i: usize,
    a: &'a [f32],
    k0: usize,
    cols: &'a [u16],
    resume: bool,
}

/// Adds one row chunk into output row `row.i`, panel by panel.
///
/// # Safety
/// `row.i < m`, every offset in `row.cols` indexes `row.a`, `row.k0 +
/// row.a.len() <= k`, and `t` satisfies the [`matmul_generic`] contract.
#[inline(always)]
unsafe fn matmul_row<V: F32x8>(t: &MatMul<'_>, row: &Row<'_>) {
    let n = t.n;
    if n < BLOCK {
        for j in 0..n {
            // SAFETY: `i < m`, `j < n`: inside `out` (len `m*n`).
            let o = unsafe { t.out.add(row.i * n + j) };
            let mut acc = if row.resume {
                // SAFETY: as above; earlier chunks wrote it.
                unsafe { *o }
            } else {
                t.bias.get(j).map_or(0.0, |&b| seed_from_bias(b))
            };
            for &d in row.cols {
                let kk = row.k0 + usize::from(d);
                // SAFETY: `kk < k` and `j < n`: inside `b` (len `k*n`).
                acc += row.a[usize::from(d)] * unsafe { *t.b.add(kk * n + j) };
            }
            // SAFETY: as above.
            unsafe { *o = acc };
        }
        return;
    }
    let wide = V::MATMUL_VECS * BLOCK;
    let mut j = 0usize;
    while j < n {
        // Columns `j..j + w` of the panel: a full panel, one vector less
        // where a full one would leave 1..=7 columns, or all that is left
        // (8..=wide columns, as `n >= 8` and each step leaves 0 or >= 8).
        let rest = n - j;
        let w = if rest <= wide {
            rest
        } else if rest - wide < BLOCK {
            wide - BLOCK
        } else {
            wide
        };
        let last = j + w - BLOCK;
        // SAFETY: `8 <= w <= wide`, so the panel's `ceil(w / 8) <=
        // MATMUL_VECS <= 8` vectors at `j + 8q` and `last = j + w - 8 >= j`
        // lie inside columns `j..j + w` of `0..n`; the rest of the panel
        // contract is this fn's.
        unsafe {
            match w.div_ceil(BLOCK) {
                1 => matmul_panel::<V, 1>(t, row, j, last),
                2 => matmul_panel::<V, 2>(t, row, j, last),
                3 => matmul_panel::<V, 3>(t, row, j, last),
                4 => matmul_panel::<V, 4>(t, row, j, last),
                5 => matmul_panel::<V, 5>(t, row, j, last),
                6 => matmul_panel::<V, 6>(t, row, j, last),
                7 => matmul_panel::<V, 7>(t, row, j, last),
                _ => matmul_panel::<V, 8>(t, row, j, last),
            }
        }
        j += w;
    }
}

/// One panel of output row `row.i`: `NV` vectors at columns `j + 8q`, the
/// last one at `last` instead, accumulated in registers over the chunk's
/// nonzero list, then stored.  Every vector loads its starting values
/// before any stores, so a shifted last vector that overlaps the one
/// before it starts from the same values and stores the same bits.  On a
/// resumed chunk that holds only if no other panel of the chunk covers
/// these columns, as [`matmul_row`] ensures.
///
/// # Safety
/// As [`matmul_row`], plus `j + 8(NV-1) <= n` and `last + 8 <= n`.
#[inline(always)]
unsafe fn matmul_panel<V: F32x8, const NV: usize>(
    t: &MatMul<'_>,
    row: &Row<'_>,
    j: usize,
    last: usize,
) {
    let col = |q: usize| if q + 1 == NV { last } else { j + q * BLOCK };
    // SAFETY: `i < m`: row `i` of `out` starts inside it.
    let orow = unsafe { t.out.add(row.i * t.n) };
    // SAFETY: register-only lane op; the backend is runnable per dispatch.
    let mut acc = [unsafe { V::zero() }; NV];
    for (q, v) in acc.iter_mut().enumerate() {
        // SAFETY: `col(q) + 8 <= n`: the block lies inside output row `i`
        // and (if present) `bias`; register-only lane ops otherwise.
        *v = unsafe {
            if row.resume {
                V::load(orow.add(col(q)))
            } else if t.bias.is_empty() {
                V::zero()
            } else {
                V::load(t.bias.as_ptr().add(col(q))).add(V::zero())
            }
        };
    }
    let ap = row.a.as_ptr();
    for &d in row.cols {
        let d = usize::from(d);
        // SAFETY: every listed offset indexes `row.a` (caller contract);
        // register-only lane op, the backend is runnable per dispatch.
        let av = unsafe { V::splat(*ap.add(d)) };
        // SAFETY: `k0 + d < k`: row `k0 + d` of `b` starts inside it.
        let brow = unsafe { t.b.add((row.k0 + d) * t.n) };
        for (q, v) in acc.iter_mut().enumerate() {
            // SAFETY: `col(q) + 8 <= n`: the block lies inside that row of
            // `b`; register-only lane ops otherwise.
            *v = unsafe { v.add(av.mul(V::load(brow.add(col(q))))) };
        }
    }
    for (q, v) in acc.iter().enumerate() {
        // SAFETY: `col(q) + 8 <= n`: the block lies inside output row `i`.
        unsafe { v.store(orow.add(col(q))) };
    }
}

/// Tabulated gather-sum over rows: `out[r]` is the sum of `table[idx[i]]`
/// over `i` in `offsets[r]..offsets[r + 1]`, each row in the canonical
/// lane-blocked order — 8-wide gather blocks accumulate into lanes, the
/// lanes reduce through the fixed tree, and the tail indices are added
/// sequentially.  A row shorter than one block skips the vector work and
/// adds its terms to `+0.0`, the bits an untouched accumulator reduces to.
/// Per row this is the vector form of [`super::sum8_by`] — the two must
/// stay in lockstep.
///
/// # Safety
/// `offsets` must be non-decreasing with `offsets.len() == out.len() + 1`
/// and its last entry at most `idx.len()`; every `idx` value must be
/// `< table.len()` and `table.len()` must fit in `i32` (the AVX2 gather
/// treats indices as signed); the backend `V` must be runnable on this
/// CPU.
#[inline(always)]
pub(crate) unsafe fn sum_gather_rows_generic<V: F32x8>(
    table: &[f32],
    idx: &[u32],
    offsets: &[usize],
    out: &mut [f32],
) {
    let ip = idx.as_ptr();
    for (slot, row) in out.iter_mut().zip(offsets.windows(2)) {
        let (start, end) = (row[0], row[1]);
        let blocked = end - (end - start) % BLOCK;
        let mut s = 0.0f32;
        if blocked > start {
            // SAFETY: register-only lane op; the backend is runnable per dispatch.
            let mut acc = unsafe { V::zero() };
            let mut b = start;
            while b < blocked {
                // SAFETY: `b + 8 <= blocked <= idx.len()` and every index is
                // `< table.len()` per this fn's contract, so the gather stays
                // inside `table`.
                acc = unsafe { acc.add(V::gather(table, ip.add(b))) };
                b += BLOCK;
            }
            // SAFETY: register-only lane op; the backend is runnable per dispatch.
            s = unsafe { acc.reduce() };
        }
        for &t in &idx[blocked..end] {
            s += table[t as usize];
        }
        *slot = s;
    }
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

/// Left-packs one group of up to 8 spikes, `times[read..read + draws.len()]`,
/// to the write cursor without a branch: every spike is stored at `write`,
/// and `write` advances only past a survivor.  Returns the new cursor and
/// the group's keep mask.  The shared scalar step of [`left_pack_scalar`]
/// and the tail of [`left_pack_avx2`].
#[inline(always)]
fn left_pack_group(
    times: &mut [u32],
    mut write: usize,
    read: usize,
    draws: &[u64],
    threshold: u64,
) -> (usize, u8) {
    let mut mask = 0u8;
    for (l, &draw) in draws.iter().enumerate() {
        let keep = draw >> 11 >= threshold;
        times[write] = times[read + l];
        write += keep as usize;
        mask |= (keep as u8) << l;
    }
    (write, mask)
}

/// Scalar form of the deletion left-pack (see
/// [`super::left_pack_with`]): spike `i` of `times[read..]` survives when
/// `draws[i] >> 11 >= threshold`; survivors move, in order, to
/// `times[..kept]`, one keep mask per 8 spikes goes to `masks`, and `kept`
/// is returned.  Also what SSE2 runs: it has neither a 64-bit compare nor
/// a lane permute.
pub(crate) fn left_pack_scalar(
    times: &mut [u32],
    read: usize,
    draws: &[u64],
    threshold: u64,
    masks: &mut [u8],
) -> usize {
    let mut write = 0;
    for (g, (group, mask)) in draws.chunks(BLOCK).zip(masks.iter_mut()).enumerate() {
        (write, *mask) = left_pack_group(times, write, read + g * BLOCK, group, threshold);
    }
    write
}

/// `vpermd` lane indices that left-pack the kept lanes of every 8-bit keep
/// mask: entry `m` lists the set bits of `m` in ascending order, then
/// zeros.  32-byte aligned, so each entry is one aligned load.
#[cfg(target_arch = "x86_64")]
#[repr(C, align(32))]
struct PackLanes([[u32; 8]; 256]);

#[cfg(target_arch = "x86_64")]
static PACK_LANES: PackLanes = PackLanes(pack_lanes());

#[cfg(target_arch = "x86_64")]
const fn pack_lanes() -> [[u32; 8]; 256] {
    let mut table = [[0u32; 8]; 256];
    let mut mask = 0;
    while mask < 256 {
        let (mut lane, mut kept) = (0, 0);
        while lane < 8 {
            if (mask >> lane) & 1 == 1 {
                table[mask][kept] = lane as u32;
                kept += 1;
            }
            lane += 1;
        }
        mask += 1;
    }
    table
}

/// AVX2 form of [`left_pack_scalar`], 8 spikes per step: shift the 8 draws
/// right by 11, compare them with `threshold − 1` as signed 64-bit lanes
/// (`vpcmpgtq`; both sides lie in `[−1, 2^53)`, so `x > threshold − 1` is
/// exactly `x >= threshold`), gather the two 4-bit `movmskpd` masks into
/// one keep mask, permute the 8 spike times through that mask's
/// [`PACK_LANES`] entry (`vpermd`), store all 8 lanes at the write cursor
/// and advance it by the mask's `popcnt`.  The last `len % 8` spikes take
/// the scalar step.
///
/// # Safety
/// Requires AVX2 and POPCNT (callers dispatch through the resolved
/// backend and a POPCNT check), `times.len() == read + draws.len()`,
/// `masks.len() == draws.len().div_ceil(8)` and `threshold <= 2^53`
/// (asserted or clamped by the public wrapper).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
pub(crate) unsafe fn left_pack_avx2(
    times: &mut [u32],
    read: usize,
    draws: &[u64],
    threshold: u64,
    masks: &mut [u8],
) -> usize {
    use core::arch::x86_64::*;
    debug_assert_eq!(times.len(), read + draws.len());
    debug_assert!(threshold <= 1 << 53);
    let groups = draws.len() / BLOCK;
    let limit = _mm256_set1_epi64x(threshold as i64 - 1);
    let tp = times.as_mut_ptr();
    let dp = draws.as_ptr();
    let mut write = 0usize;
    for (g, group_mask) in masks[..groups].iter_mut().enumerate() {
        let at = g * BLOCK;
        // SAFETY: `at + 8 <= groups·8 <= draws.len()`: both 4-lane loads
        // lie inside `draws`; loadu has no alignment requirement.
        let (lo, hi) = unsafe {
            (
                _mm256_loadu_si256(dp.add(at).cast()),
                _mm256_loadu_si256(dp.add(at + 4).cast()),
            )
        };
        let keep_lo = _mm256_cmpgt_epi64(_mm256_srli_epi64::<11>(lo), limit);
        let keep_hi = _mm256_cmpgt_epi64(_mm256_srli_epi64::<11>(hi), limit);
        let mask = (_mm256_movemask_pd(_mm256_castsi256_pd(keep_lo))
            | (_mm256_movemask_pd(_mm256_castsi256_pd(keep_hi)) << 4)) as usize;
        // SAFETY: the group's spikes `read + at .. read + at + 8` lie inside
        // `times` (`read + groups·8 <= read + draws.len() == times.len()`);
        // the lane entry is one aligned 32-byte row of the static table
        // (`mask < 256`).
        let (spikes, lanes) = unsafe {
            (
                _mm256_loadu_si256(tp.add(read + at).cast()),
                _mm256_load_si256(PACK_LANES.0[mask].as_ptr().cast()),
            )
        };
        // SAFETY: the store writes lanes `write..write + 8`.  Each group
        // advances `write` by at most 8, so `write <= at <= read + at`:
        // the write cursor never passes the read cursor.  The stored lanes
        // therefore end at or below `read + at + 8 <= times.len()`, and
        // cover only lanes already loaded — the consumed span behind the
        // read cursor, and this group's 8 lanes, held in `spikes` — so no
        // spike is overwritten before it is read.
        unsafe {
            _mm256_storeu_si256(
                tp.add(write).cast(),
                _mm256_permutevar8x32_epi32(spikes, lanes),
            )
        };
        *group_mask = mask as u8;
        write += (mask as u32).count_ones() as usize;
    }
    let at = groups * BLOCK;
    if at < draws.len() {
        (write, masks[groups]) = left_pack_group(times, write, read + at, &draws[at..], threshold);
    }
    write
}
