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
    available_backends, im2col_slices_with, matmul_slices_with, matmul_sparse_slices_with,
    matvec_bias_slices_with, matvec_slices_with, sum8_by, sum_gather_with, SimdBackend,
};
use nrsnn_tensor::{
    im2col_into, matmul_into, matmul_sparse_into, matvec_into, Conv2dGeometry, Tensor, TensorError,
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
        let idx_len = draw_shape(&mut rng);
        let idx: Vec<u32> = (0..idx_len)
            .map(|_| rng.gen_range(0..table_len) as u32)
            .collect();
        let reference = sum8_by(idx.len(), |i| table[idx[i] as usize]);
        for backend in available_backends() {
            let got = sum_gather_with(backend, &table, &idx);
            assert_eq!(
                got.to_bits(),
                reference.to_bits(),
                "{backend:?} table_len={table_len} idx_len={idx_len}"
            );
        }
    }
}

#[test]
fn into_wrappers_return_typed_shape_errors() {
    let a = Tensor::zeros(&[3, 4]);
    let b_bad = Tensor::zeros(&[5, 2]); // inner dim mismatch
    let x_bad = Tensor::zeros(&[5]);
    let vec1 = Tensor::zeros(&[3]);
    let mut out = Vec::new();

    assert!(matches!(
        matmul_into(&a, &b_bad, &mut out),
        Err(TensorError::ShapeMismatch { op: "matmul", .. })
    ));
    assert!(matches!(
        matvec_into(&a, &x_bad, &mut out),
        Err(TensorError::ShapeMismatch { op: "matvec", .. })
    ));
    assert!(matches!(
        matvec_into(&a, &a, &mut out),
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
        im2col_into(&x_bad, &geom, &mut out),
        Err(TensorError::ShapeDataMismatch { .. })
    ));
    // Valid calls still succeed after the failures (buffers are reusable).
    let b_ok = Tensor::zeros(&[4, 2]);
    assert!(matmul_into(&a, &b_ok, &mut out).is_ok());
    assert_eq!(out.len(), 6);
}
