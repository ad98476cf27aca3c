//! Property tests proving every SIMD backend bit-identical to the scalar
//! reference kernel, over adversarial shapes and values.
//!
//! Shapes draw from a pool straddling the 8-lane block width (0, 1, lane−1,
//! lane, lane+1, non-multiples); values draw from a pool of IEEE-754 corner
//! cases (`-0.0`, subnormals, `f32::MAX`, mixed signs, exact zeros) mixed
//! with ordinary magnitudes.  Every assertion compares raw bits, not
//! approximate values — the workspace contract is byte-equality, and these
//! tests are the kernel-level half of the scalar-vs-SIMD matrix in
//! `tests/workspace_bit_identity.rs`.

use nrsnn_tensor::simd::{
    available_backends, im2col_slices_with, left_pack_with, matmul_slices_with,
    matmul_sparse_slices_with, matvec_bias_slices_with, matvec_bias_tile_slices_with,
    matvec_slices_with, sum8_by, sum_gather_rows_with, SimdBackend,
};
use nrsnn_tensor::{
    im2col, matmul, matmul_sparse_into, matvec, Conv2dGeometry, Tensor, TensorError,
};
use proptest::{rng_for, TestRng, CASES};
use rand::Rng;

/// Shape pool straddling the 8-lane block width.
const SHAPES: &[usize] = &[0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 24, 31, 33];

/// Adversarial value pool: signed zeros, subnormals, extremes, mixed signs.
/// `f32::MAX` may overflow a product to `±inf` — still deterministic IEEE
/// results that must agree bitwise across backends.
const SPECIAL: &[f32] = &[
    0.0,
    -0.0,
    1.0,
    -1.0,
    0.5,
    -2.5,
    f32::MIN_POSITIVE, // smallest normal
    1.0e-41,           // subnormal
    -1.0e-41,          // negative subnormal
    f32::MAX,
    -f32::MAX,
    1.0e-20,
    3.4028,
];

fn draw_shape(rng: &mut TestRng) -> usize {
    SHAPES[rng.gen_range(0..SHAPES.len())]
}

/// Nonzero shape (for dimensions the kernels require to be positive, like
/// matrix row counts fed through `Tensor::from_vec`).
fn draw_shape_nz(rng: &mut TestRng) -> usize {
    loop {
        let s = draw_shape(rng);
        if s != 0 {
            return s;
        }
    }
}

/// Draws a value: half the time an adversarial special, half an ordinary
/// magnitude. `zero_bias` boosts the exact-zero probability so the mat-mul's
/// zero-skip sees genuinely sparse inputs (with both zero signs).
fn draw_value(rng: &mut TestRng, zero_bias: bool) -> f32 {
    if zero_bias && rng.gen_range(0.0f32..1.0) < 0.5 {
        return if rng.gen_range(0.0f32..1.0) < 0.25 {
            -0.0
        } else {
            0.0
        };
    }
    if rng.gen_range(0.0f32..1.0) < 0.5 {
        SPECIAL[rng.gen_range(0..SPECIAL.len())]
    } else {
        rng.gen_range(-4.0f32..4.0)
    }
}

fn draw_vec(rng: &mut TestRng, len: usize, zero_bias: bool) -> Vec<f32> {
    (0..len).map(|_| draw_value(rng, zero_bias)).collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn simd_backends() -> Vec<SimdBackend> {
    available_backends()
        .into_iter()
        .filter(|&b| b != SimdBackend::Scalar)
        .collect()
}

#[test]
fn matvec_every_isa_matches_scalar_bitwise() {
    let mut rng = rng_for("matvec_every_isa_matches_scalar_bitwise");
    let isas = simd_backends();
    for _ in 0..CASES {
        let (m, n) = (draw_shape(&mut rng), draw_shape(&mut rng));
        let a = draw_vec(&mut rng, m * n, false);
        let x = draw_vec(&mut rng, n, false);
        let mut reference = vec![f32::NAN; m];
        matvec_slices_with(SimdBackend::Scalar, &a, m, n, &x, &mut reference);
        for &isa in &isas {
            let mut out = vec![f32::NAN; m];
            matvec_slices_with(isa, &a, m, n, &x, &mut out);
            assert_eq!(bits(&out), bits(&reference), "{isa:?} m={m} n={n}");
        }
    }
}

#[test]
fn matvec_bias_every_isa_matches_scalar_bitwise() {
    let mut rng = rng_for("matvec_bias_every_isa_matches_scalar_bitwise");
    let isas = simd_backends();
    for case in 0..CASES {
        let (m, n) = (draw_shape(&mut rng), draw_shape(&mut rng));
        // Every fourth case zeroes an entire row — the all-zero-row corner.
        let mut a = draw_vec(&mut rng, m * n, false);
        if case % 4 == 0 && m > 0 && n > 0 {
            let row = rng.gen_range(0..m);
            a[row * n..(row + 1) * n].fill(0.0);
        }
        let x = draw_vec(&mut rng, n, false);
        // Biases lean on the signed-zero corner hard.
        let bias: Vec<f32> = (0..m)
            .map(|_| {
                if rng.gen_range(0.0f32..1.0) < 0.3 {
                    -0.0
                } else {
                    draw_value(&mut rng, false)
                }
            })
            .collect();
        let mut reference = vec![f32::NAN; m];
        matvec_bias_slices_with(SimdBackend::Scalar, &a, m, n, &x, &bias, &mut reference);
        for &isa in &isas {
            let mut out = vec![f32::NAN; m];
            matvec_bias_slices_with(isa, &a, m, n, &x, &bias, &mut out);
            assert_eq!(bits(&out), bits(&reference), "{isa:?} m={m} n={n}");
        }
    }
}

/// The tiled mat-vec against per-sample `matvec_bias_slices`, bit for bit:
/// every tile size 1..=8 on every ISA (scalar included), with widths that
/// leave an `n % 8` tail, row counts that are not a multiple of the 2- or
/// 4-row register block, a `-0.0` bias entry, and non-finite inputs.  The
/// one-sample path is itself pinned to the canonical order: `(bias + 0.0)
/// + sum8_by(n, a[i][j]·x[j])`.
#[test]
fn matvec_tile_matches_per_sample_matvec_bitwise() {
    let mut rng = rng_for("matvec_tile_matches_per_sample_matvec_bitwise");
    const NON_FINITE: [f32; 3] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    for case in 0..CASES as usize {
        let m = [1usize, 3, 5, 7, 9, 10, 13][case % 7];
        let n = [1usize, 7, 9, 13, 17, 23, 31][(case / 7) % 7];
        let a = draw_vec(&mut rng, m * n, false);
        let mut bias = draw_vec(&mut rng, m, false);
        bias[rng.gen_range(0..m)] = -0.0;
        let mut x = draw_vec(&mut rng, 8 * n, true);
        if case % 3 == 0 {
            let at = rng.gen_range(0..x.len());
            x[at] = NON_FINITE[case % NON_FINITE.len()];
        }
        // Per-sample reference on the scalar backend.
        let mut reference = vec![f32::NAN; 8 * m];
        for (xs, out) in x.chunks(n).zip(reference.chunks_mut(m)) {
            matvec_bias_slices_with(SimdBackend::Scalar, &a, m, n, xs, &bias, out);
        }
        for (i, &r) in reference[..m].iter().enumerate() {
            let row = &a[i * n..(i + 1) * n];
            let canonical = (bias[i] + 0.0) + sum8_by(n, |j| row[j] * x[j]);
            assert_eq!(r.to_bits(), canonical.to_bits(), "m={m} n={n} row {i}");
        }
        for isa in available_backends() {
            for samples in 1..=8usize {
                let mut out = vec![f32::NAN; samples * m];
                matvec_bias_tile_slices_with(
                    isa,
                    &a,
                    m,
                    n,
                    &x[..samples * n],
                    samples,
                    &bias,
                    &mut out,
                );
                assert_eq!(
                    bits(&out),
                    bits(&reference[..samples * m]),
                    "{isa:?} m={m} n={n} samples={samples}"
                );
            }
        }
    }
}

#[test]
fn matmul_every_isa_matches_scalar_bitwise() {
    let mut rng = rng_for("matmul_every_isa_matches_scalar_bitwise");
    let isas = simd_backends();
    for case in 0..CASES {
        let (m, k, n) = (
            draw_shape(&mut rng),
            draw_shape(&mut rng),
            draw_shape(&mut rng),
        );
        // Zero-heavy `a` exercises the skip-zero fast path.
        let a = draw_vec(&mut rng, m * k, case % 2 == 0);
        let b = draw_vec(&mut rng, k * n, false);
        let mut reference = vec![f32::NAN; m * n];
        matmul_slices_with(SimdBackend::Scalar, &a, m, k, &b, n, &mut reference);
        for &isa in &isas {
            let mut out = vec![f32::NAN; m * n];
            matmul_slices_with(isa, &a, m, k, &b, n, &mut out);
            assert_eq!(bits(&out), bits(&reference), "{isa:?} m={m} k={k} n={n}");
        }
        // Bias-seeded variant, with -0.0 biases in the pool.
        let bias: Vec<f32> = (0..n).map(|_| draw_value(&mut rng, true)).collect();
        if !bias.is_empty() {
            let mut reference = vec![f32::NAN; m * n];
            matmul_sparse_slices_with(SimdBackend::Scalar, &a, m, k, &b, n, &bias, &mut reference);
            for &isa in &isas {
                let mut out = vec![f32::NAN; m * n];
                matmul_sparse_slices_with(isa, &a, m, k, &b, n, &bias, &mut out);
                assert_eq!(bits(&out), bits(&reference), "{isa:?} biased m={m} n={n}");
            }
        }
    }
}

/// The plain `ikj` mat-mul that defines the kernel's operation order, written
/// out independently of it: every output seeded `+0.0` (or `bias + 0.0`),
/// then `kk` ascending, skipping `a == 0` terms, `o = o + a·b` (multiply,
/// then add; Rust never fuses the two).
fn ikj_reference(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, bias: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let row = &mut out[i * n..(i + 1) * n];
        for (j, o) in row.iter_mut().enumerate() {
            *o = if bias.is_empty() { 0.0 } else { bias[j] + 0.0 };
        }
        for kk in 0..k {
            let aik = a[i * k + kk];
            if aik == 0.0 {
                continue;
            }
            for (j, o) in row.iter_mut().enumerate() {
                *o += aik * b[kk * n + j];
            }
        }
    }
    out
}

/// Bitwise equality, except that any NaN matches any NaN: when two NaNs
/// meet in an add, which payload survives depends on the operand order the
/// compiler picked, which nothing pins.  A NaN where the reference has a
/// number (an unskipped `0·inf`) still fails.
fn assert_same_bits(got: &[f32], want: &[f32], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: length");
    for (idx, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{context}: element {idx} is {g:?} ({:#010x}), reference {w:?} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// Mat-mul widths past one register panel (48 columns on SSE2 and scalar,
/// 64 on AVX2), with and without a narrower panel after the full ones.
const WIDE: [usize; 6] = [63, 64, 65, 71, 100, 129];

/// Mat-mul depths around and past the kernel's 256-column nonzero lists,
/// where a row's partial sums wait in the output between lists.
const DEEP: [usize; 6] = [255, 256, 257, 300, 513, 784];

/// Draws a finite, moderate value, half the time an exact zero of either
/// sign: a sum of hundreds of such terms stays finite, so a term added
/// twice or dropped shows in the bits instead of vanishing into an
/// overflow.
fn draw_finite(rng: &mut TestRng) -> f32 {
    if rng.gen_range(0.0f32..1.0) < 0.5 {
        if rng.gen_range(0.0f32..1.0) < 0.25 {
            -0.0
        } else {
            0.0
        }
    } else {
        rng.gen_range(-4.0f32..4.0)
    }
}

/// Every backend's mat-mul, scalar included, against [`ikj_reference`],
/// plain and bias-seeded: m in 0..=9, widths from [`SHAPES`] (one panel
/// and its shifted last vector) and, every fourth case, from [`WIDE`],
/// depths from [`DEEP`] every sixth case (on finite values, see
/// [`draw_finite`]), zero-heavy `a` with both zero signs, and `b` rows
/// holding ±inf and NaN where `a` has zeros — there a `0·inf` term must be
/// skipped, not added.
#[test]
fn matmul_every_isa_matches_ikj_reference() {
    let mut rng = rng_for("matmul_every_isa_matches_ikj_reference");
    const NON_FINITE: [f32; 3] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    for case in 0..CASES as usize {
        let m = case % 10;
        let deep = case % 6 == 5;
        let k = if deep {
            DEEP[rng.gen_range(0..DEEP.len())]
        } else {
            draw_shape(&mut rng)
        };
        let n = if case % 4 == 3 {
            WIDE[rng.gen_range(0..WIDE.len())]
        } else {
            draw_shape(&mut rng)
        };
        let (a, mut b) = if deep {
            (
                (0..m * k).map(|_| draw_finite(&mut rng)).collect(),
                (0..k * n).map(|_| draw_finite(&mut rng)).collect(),
            )
        } else {
            (
                draw_vec(&mut rng, m * k, true),
                draw_vec(&mut rng, k * n, false),
            )
        };
        if case % 2 == 0 && n > 0 {
            // Poison a few rows of `b` that some row of `a` multiplies by
            // zero.
            for kk in 0..k {
                if (0..m).any(|i| a[i * k + kk] == 0.0) && rng.gen_range(0.0f32..1.0) < 0.3 {
                    let j = rng.gen_range(0..n);
                    b[kk * n + j] = NON_FINITE[rng.gen_range(0..NON_FINITE.len())];
                }
            }
        }
        let mut bias: Vec<f32> = (0..n).map(|_| draw_value(&mut rng, true)).collect();
        if n > 0 {
            bias[rng.gen_range(0..n)] = -0.0;
        }
        let plain = ikj_reference(&a, m, k, &b, n, &[]);
        let seeded = ikj_reference(&a, m, k, &b, n, &bias);
        for isa in available_backends() {
            let mut out = vec![f32::NAN; m * n];
            matmul_slices_with(isa, &a, m, k, &b, n, &mut out);
            assert_same_bits(&out, &plain, &format!("{isa:?} m={m} k={k} n={n}"));
            if n > 0 {
                let mut out = vec![f32::NAN; m * n];
                matmul_sparse_slices_with(isa, &a, m, k, &b, n, &bias, &mut out);
                assert_same_bits(&out, &seeded, &format!("{isa:?} biased m={m} k={k} n={n}"));
            }
        }
    }
}

/// Every width up to two 64-column panels and a tail, deterministically
/// and on finite values, at depths of two and three nonzero lists: a long
/// row resumes its partial sums from the output between lists, and no
/// column may take a list's terms twice or miss them, whichever panel
/// covers it — also where the last vector of a narrower panel overlaps the
/// columns before it.
#[test]
fn matmul_long_rows_at_every_width_match_ikj_reference() {
    let mut rng = rng_for("matmul_long_rows_at_every_width_match_ikj_reference");
    for n in 1..=2 * 64 + 8 {
        for k in [300, 513] {
            let m = 1;
            let a: Vec<f32> = (0..m * k).map(|_| draw_finite(&mut rng)).collect();
            let b: Vec<f32> = (0..k * n).map(|_| draw_finite(&mut rng)).collect();
            let bias: Vec<f32> = (0..n).map(|_| draw_finite(&mut rng)).collect();
            let plain = ikj_reference(&a, m, k, &b, n, &[]);
            let seeded = ikj_reference(&a, m, k, &b, n, &bias);
            for isa in available_backends() {
                let mut out = vec![f32::NAN; m * n];
                matmul_slices_with(isa, &a, m, k, &b, n, &mut out);
                assert_same_bits(&out, &plain, &format!("{isa:?} k={k} n={n}"));
                matmul_sparse_slices_with(isa, &a, m, k, &b, n, &bias, &mut out);
                assert_same_bits(&out, &seeded, &format!("{isa:?} biased k={k} n={n}"));
            }
        }
    }
}

#[test]
fn im2col_every_isa_matches_scalar_bitwise() {
    let mut rng = rng_for("im2col_every_isa_matches_scalar_bitwise");
    let isas = simd_backends();
    for _ in 0..CASES {
        let c = rng.gen_range(1usize..4);
        let h = rng.gen_range(1usize..12);
        let w = rng.gen_range(1usize..12);
        let k = rng.gen_range(1usize..6);
        let s = rng.gen_range(1usize..3);
        let p = rng.gen_range(0usize..3);
        let Ok(geom) = Conv2dGeometry::new(c, h, w, k, s, p) else {
            continue; // kernel larger than padded input: rejected upstream
        };
        let x = draw_vec(&mut rng, geom.in_len(), false);
        let len = geom.out_positions() * geom.patch_len();
        let mut reference = vec![f32::NAN; len];
        im2col_slices_with(SimdBackend::Scalar, &x, &geom, &mut reference);
        for &isa in &isas {
            let mut out = vec![f32::NAN; len];
            im2col_slices_with(isa, &x, &geom, &mut out);
            assert_eq!(bits(&out), bits(&reference), "{isa:?} geom {geom:?}");
        }
    }
}

#[test]
fn sum_gather_every_isa_matches_sum8_by_bitwise() {
    let mut rng = rng_for("sum_gather_every_isa_matches_sum8_by_bitwise");
    for _ in 0..CASES {
        let table_len = draw_shape_nz(&mut rng);
        let table = draw_vec(&mut rng, table_len, false);
        // Rows of pool lengths (empty ones included) over one index buffer.
        let rows = draw_shape(&mut rng);
        let mut offsets = vec![0usize];
        for _ in 0..rows {
            offsets.push(offsets.last().unwrap() + draw_shape(&mut rng));
        }
        let idx: Vec<u32> = (0..*offsets.last().unwrap())
            .map(|_| rng.gen_range(0..table_len) as u32)
            .collect();
        let reference: Vec<u32> = offsets
            .windows(2)
            .map(|w| {
                let row = &idx[w[0]..w[1]];
                sum8_by(row.len(), |i| table[row[i] as usize]).to_bits()
            })
            .collect();
        for backend in available_backends() {
            let mut out = vec![f32::NAN; rows];
            sum_gather_rows_with(backend, &table, &idx, &offsets, &mut out);
            assert_eq!(
                bits(&out),
                reference,
                "{backend:?} table_len={table_len} offsets={offsets:?}"
            );
        }
    }
}

/// Deletion's left-pack on every ISA against a plain filter: the same
/// survivors in the same order, the same keep masks and the same count,
/// for every block length up to 300 (partial 8-groups included), keep
/// thresholds at the edges of the 53-bit draw range and random ones, and
/// a write cursor behind the read cursor.  Draws cluster at the threshold
/// (`draw >> 11` one below, equal to and one above it), where a `>` for
/// `>=` would show.
#[test]
fn left_pack_every_isa_matches_a_plain_filter() {
    let mut rng = rng_for("left_pack_every_isa_matches_a_plain_filter");
    let top = 1u64 << 53;
    for len in 0..=300usize {
        let mut thresholds = vec![0, 1, 1 << 52, top - 1, top];
        thresholds.extend((0..3).map(|_| rng.gen_range(0..=top)));
        for threshold in thresholds {
            let read = rng.gen_range(0..20usize);
            let draws: Vec<u64> = (0..len)
                .map(|_| {
                    let low = rng.gen::<u64>() & 0x7ff;
                    match rng.gen_range(0..4) {
                        0 => rng.gen::<u64>(),
                        1 => threshold.saturating_sub(1).min(top - 1) << 11 | low,
                        2 => threshold.min(top - 1) << 11 | low,
                        _ => (threshold + 1).min(top - 1) << 11 | low,
                    }
                })
                .collect();
            // Distinct spike times, so a mis-ordered pack shows; the gap
            // before the read cursor holds values no spike has.
            let mut times: Vec<u32> = vec![u32::MAX; read];
            times.extend((0..len as u32).map(|i| i * 3 + 1));
            let keep: Vec<bool> = draws.iter().map(|&d| d >> 11 >= threshold).collect();
            let survivors: Vec<u32> = times[read..]
                .iter()
                .zip(&keep)
                .filter(|(_, &k)| k)
                .map(|(&t, _)| t)
                .collect();
            let masks: Vec<u8> = keep
                .chunks(8)
                .map(|group| {
                    group
                        .iter()
                        .enumerate()
                        .fold(0u8, |m, (l, &k)| m | (k as u8) << l)
                })
                .collect();
            for backend in available_backends() {
                let mut got_times = times.clone();
                let mut got_masks = vec![0xa5u8; len.div_ceil(8)];
                let kept = left_pack_with(
                    backend,
                    &mut got_times,
                    read,
                    &draws,
                    threshold,
                    &mut got_masks,
                );
                let case = format!("{backend:?} len={len} read={read} threshold={threshold}");
                assert_eq!(kept, survivors.len(), "{case}");
                assert_eq!(&got_times[..kept], &survivors[..], "{case}");
                assert_eq!(got_masks, masks, "{case}");
            }
        }
    }
    // A threshold past the 53-bit range keeps nothing, like 2^53.
    for backend in available_backends() {
        let kept = left_pack_with(
            backend,
            &mut [7; 9],
            0,
            &[u64::MAX; 9],
            u64::MAX,
            &mut [0; 2],
        );
        assert_eq!(kept, 0, "{backend:?}");
    }
}

/// The tensor-level wrappers check shapes before they reach a slice kernel.
#[test]
fn into_wrappers_return_typed_shape_errors() {
    let a = Tensor::zeros(&[3, 4]);
    let b_bad = Tensor::zeros(&[5, 2]); // inner dim mismatch
    let x_bad = Tensor::zeros(&[5]);
    let vec1 = Tensor::zeros(&[3]);
    let mut out = Vec::new();

    assert!(matches!(
        matmul(&a, &b_bad),
        Err(TensorError::ShapeMismatch { op: "matmul", .. })
    ));
    assert!(matches!(
        matvec(&a, &x_bad),
        Err(TensorError::ShapeMismatch { op: "matvec", .. })
    ));
    assert!(matches!(
        matvec(&a, &a),
        Err(TensorError::RankMismatch { op: "matvec", .. })
    ));
    // Bias-seeded mat-mul wrapper: wrong bias length.
    let b = Tensor::zeros(&[4, 2]);
    assert!(matches!(
        matmul_sparse_into(&a, &b, &vec1, &mut out), // bias len 3 != n=2
        Err(TensorError::ShapeMismatch { .. })
    ));
    // im2col: wrong input length for the geometry.
    let geom = Conv2dGeometry::new(1, 4, 4, 3, 1, 0).unwrap();
    assert!(matches!(
        im2col(&x_bad, &geom),
        Err(TensorError::ShapeDataMismatch { .. })
    ));
    // Valid calls still succeed after the failures.
    let b_ok = Tensor::zeros(&[4, 2]);
    assert_eq!(matmul(&a, &b_ok).unwrap().dims(), &[3, 2]);
}
