//! Dense linear-algebra kernels: matrix multiplication, matrix-vector
//! products and transposition.
//!
//! Every kernel exists in two forms that share one implementation, so the
//! numeric result is bit-identical whichever entry point is used:
//!
//! * a raw slice kernel (`matmul_slices`, …) writing into a caller-provided
//!   buffer — the allocation-free form used by the simulation workspace;
//! * an allocating function over [`Tensor`]s (`matmul`, …) that checks the
//!   operand shapes, allocates a fresh output and runs the slice kernel.
//!
//! Since the SIMD layer landed, every slice kernel delegates to the
//! runtime-dispatched implementation in [`crate::simd`] on the process-wide
//! [`crate::simd::active_backend`].  The reductions follow the canonical
//! lane-blocked order documented there (ascending 8-wide column blocks,
//! fixed lane tree, sequential tail), which is **the same bits on every
//! backend** — scalar, SSE2 or AVX2.

use crate::simd::{self, active_backend};
use crate::{Result, Tensor, TensorError};

/// Raw kernel behind [`matmul`]: multiplies `a (m x k)` by `b (k x n)` into
/// `out (m x n)`, overwriting it.
///
/// Runs in `ikj` order (vectorised over output columns, which preserves the
/// per-element operation order exactly), skipping exact-zero entries of `a`
/// — a bitwise no-op, see [`matmul_sparse_slices`].
///
/// # Panics
/// Asserts the slice lengths before touching any data.
pub fn matmul_slices(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    simd::matmul_slices_with(active_backend(), a, m, k, b, n, out);
}

/// Raw kernel behind [`matvec`]: multiplies `a (m x n)` by `x (n)` into
/// `out (m)`, overwriting it, reducing each row in the canonical
/// lane-blocked order (see [`crate::simd`]).
///
/// # Panics
/// Asserts the slice lengths before touching any data.
pub fn matvec_slices(a: &[f32], m: usize, n: usize, x: &[f32], out: &mut [f32]) {
    simd::matvec_slices_with(active_backend(), a, m, n, x, out);
}

/// Side of the square blocks [`transpose_slices`] walks.
const TRANSPOSE_BLOCK: usize = 16;

/// Raw kernel behind [`transpose`]: writes the transpose of `a (m x n)` into
/// `out (n x m)`, overwriting it.
///
/// Walks 16×16 blocks, so the 16 rows of `a` a block reads and the 16 rows
/// of `out` it writes each stay in cache for the whole block, instead of
/// writing one element per cache line with a stride of `m` floats.  It is
/// a copy, so the bytes are those of the naive loop.
///
/// # Panics
/// Asserts the slice lengths before touching any data.
pub fn transpose_slices(a: &[f32], m: usize, n: usize, out: &mut [f32]) {
    assert_eq!(m.checked_mul(n), Some(a.len()), "transpose: a.len() != m*n");
    assert_eq!(out.len(), a.len(), "transpose: out.len() != m*n");
    let (src, dst) = (a.as_ptr(), out.as_mut_ptr());
    for i0 in (0..m).step_by(TRANSPOSE_BLOCK) {
        let i1 = (i0 + TRANSPOSE_BLOCK).min(m);
        for j0 in (0..n).step_by(TRANSPOSE_BLOCK) {
            let j1 = (j0 + TRANSPOSE_BLOCK).min(n);
            for i in i0..i1 {
                for j in j0..j1 {
                    // SAFETY: `i < m` and `j < n`, so `i*n + j` and `j*m + i`
                    // are below `m*n`, which does not overflow and is the
                    // length of both slices (asserted).
                    unsafe { *dst.add(j * m + i) = *src.add(i * n + j) };
                }
            }
        }
    }
}

/// Bias-seeded matrix–vector product: computes
/// `out[i] = (bias[i] + 0.0) + Σ_j a[i,j]·x[j]` over all columns in the
/// canonical lane-blocked order, with the bias canonicalised (`-0.0` becomes
/// `+0.0`; see the `seed_from_bias` notes in [`crate::simd`]'s kernels) and
/// added to the reduced sum.
///
/// # Panics
/// Asserts the slice lengths before touching any data.
pub fn matvec_bias_slices(a: &[f32], m: usize, n: usize, x: &[f32], bias: &[f32], out: &mut [f32]) {
    simd::matvec_bias_slices_with(active_backend(), a, m, n, x, bias, out);
}

/// [`matvec_bias_slices`] over a tile of `samples` input rows at once: `x`
/// is `samples × n` and `out` is `samples × m`, both row-major, and row `s`
/// of `out` is bit for bit what [`matvec_bias_slices`] computes for row `s`
/// of `x` alone.  Each weight row is read once per register tile of
/// samples instead of once per sample, which is what makes a layer-major
/// batch cheaper per sample than the same samples one at a time.
///
/// # Panics
/// Asserts the slice lengths before touching any data.
pub fn matvec_bias_tile_slices(
    a: &[f32],
    m: usize,
    n: usize,
    x: &[f32],
    samples: usize,
    bias: &[f32],
    out: &mut [f32],
) {
    simd::matvec_bias_tile_slices_with(active_backend(), a, m, n, x, samples, bias, out);
}

/// Sparsity-aware matrix product with a per-column bias: computes
/// `out[i,j] = (bias[j] + 0.0) + Σ_k a[i,k]·b[k,j]`, skipping every
/// exact-zero `a[i,k]` entry, so cost is `O(nnz(a)·n + m·n)` instead of
/// `O(m·k·n)`.
///
/// The accumulators are seeded from the canonicalised bias (`b_j + 0.0`)
/// and take the terms in ascending `k`.  A skipped term is never computed;
/// on a finite `b` it would have been `(±0.0)·b[k,j] ∈ {+0.0, -0.0}`, a
/// bitwise no-op on an accumulator that can never be `-0.0` (see the
/// `seed_from_bias` notes in [`crate::simd`]'s kernels).  An empty `bias`
/// means "no bias" (all accumulators seed from `+0.0`), in which case this
/// is exactly [`matmul_slices`].
///
/// # Panics
/// Asserts the slice lengths before touching any data (the bias must have
/// length `n`; use [`matmul_slices`] for the unbiased product).
pub fn matmul_sparse_slices(
    a: &[f32],
    m: usize,
    k: usize,
    b: &[f32],
    n: usize,
    bias: &[f32],
    out: &mut [f32],
) {
    if bias.is_empty() {
        simd::matmul_slices_with(active_backend(), a, m, k, b, n, out);
    } else {
        simd::matmul_sparse_slices_with(active_backend(), a, m, k, b, n, bias, out);
    }
}

/// [`matmul_sparse_slices`] over tensors into a reusable buffer: clears
/// `out`, resizes it to `m·n` (keeping its capacity) and writes the
/// bias-seeded product, skipping exact-zero entries of `a`.
///
/// # Errors
/// Returns [`TensorError::RankMismatch`] / [`TensorError::ShapeMismatch`] for
/// invalid operands (the bias must be empty or of length `n`).
pub fn matmul_sparse_into(a: &Tensor, b: &Tensor, bias: &Tensor, out: &mut Vec<f32>) -> Result<()> {
    ensure_rank(a, 2, "matmul_sparse")?;
    ensure_rank(b, 2, "matmul_sparse")?;
    let (m, k1) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    if k1 != k2 || !(bias.is_empty() || bias.len() == n) {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "matmul_sparse",
        });
    }
    out.clear();
    out.resize(m * n, 0.0);
    matmul_sparse_slices(a.as_slice(), m, k1, b.as_slice(), n, bias.as_slice(), out);
    Ok(())
}

/// Multiplies two rank-2 tensors: `(m x k) · (k x n) -> (m x n)`.
///
/// # Errors
/// Returns [`TensorError::RankMismatch`] if either operand is not rank 2 and
/// [`TensorError::ShapeMismatch`] if the inner dimensions disagree.
///
/// ```
/// use nrsnn_tensor::{matmul, Tensor};
/// # fn main() -> Result<(), nrsnn_tensor::TensorError> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let b = Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0], &[2, 2])?;
/// let c = matmul(&a, &b)?;
/// assert_eq!(c.as_slice(), &[2.0, 1.0, 4.0, 3.0]);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    ensure_rank(a, 2, "matmul")?;
    ensure_rank(b, 2, "matmul")?;
    let (m, k1) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    if k1 != k2 {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "matmul",
        });
    }
    let mut out = Tensor::zeros(&[m, n]);
    matmul_slices(a.as_slice(), m, k1, b.as_slice(), n, out.as_mut_slice());
    Ok(out)
}

/// Multiplies a rank-2 matrix `(m x n)` by a rank-1 vector of length `n`.
///
/// # Errors
/// Returns [`TensorError::RankMismatch`] / [`TensorError::ShapeMismatch`] for
/// invalid operands.
pub fn matvec(a: &Tensor, x: &Tensor) -> Result<Tensor> {
    ensure_rank(a, 2, "matvec")?;
    ensure_rank(x, 1, "matvec")?;
    let (m, n) = (a.dims()[0], a.dims()[1]);
    if x.len() != n {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: x.dims().to_vec(),
            op: "matvec",
        });
    }
    let mut out = Tensor::zeros(&[m]);
    matvec_slices(a.as_slice(), m, n, x.as_slice(), out.as_mut_slice());
    Ok(out)
}

/// Transposes a rank-2 tensor.
///
/// # Errors
/// Returns [`TensorError::RankMismatch`] if the tensor is not rank 2.
pub fn transpose(a: &Tensor) -> Result<Tensor> {
    ensure_rank(a, 2, "transpose")?;
    let (m, n) = (a.dims()[0], a.dims()[1]);
    let mut out = Tensor::zeros(&[n, m]);
    transpose_slices(a.as_slice(), m, n, out.as_mut_slice());
    Ok(out)
}

fn ensure_rank(t: &Tensor, rank: usize, op: &'static str) -> Result<()> {
    if t.shape().rank() != rank {
        return Err(TensorError::RankMismatch {
            expected: rank,
            actual: t.shape().rank(),
            op,
        });
    }
    Ok(())
}

impl Tensor {
    /// Matrix multiplication; see [`matmul`].
    ///
    /// # Errors
    /// Same as [`matmul`].
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        matmul(self, other)
    }

    /// Matrix transposition; see [`transpose`].
    ///
    /// # Errors
    /// Same as [`transpose`].
    pub fn transpose(&self) -> Result<Tensor> {
        transpose(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let i = Tensor::eye(3);
        let c = matmul(&a, &i).unwrap();
        assert_eq!(c.as_slice(), a.as_slice());
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_inner_dim_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn matvec_known_values() {
        let a = Tensor::from_vec(vec![1.0, 0.0, 0.0, 2.0], &[2, 2]).unwrap();
        let x = Tensor::from_slice(&[3.0, 4.0]);
        let y = matvec(&a, &x).unwrap();
        assert_eq!(y.as_slice(), &[3.0, 8.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let t = transpose(&a).unwrap();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.get(&[2, 1]).unwrap(), 6.0);
        let tt = transpose(&t).unwrap();
        assert_eq!(tt, a);
    }

    #[test]
    fn transpose_slices_matches_the_naive_loop() {
        for (m, n) in [
            (0, 5),
            (5, 0),
            (1, 7),
            (7, 1),
            (1, 40),
            (17, 33),
            (256, 784),
        ] {
            let a: Vec<f32> = (0..m * n).map(|i| i as f32 * 0.5 - 3.0).collect();
            let mut naive = vec![0.0f32; m * n];
            for i in 0..m {
                for j in 0..n {
                    naive[j * m + i] = a[i * n + j];
                }
            }
            let mut out = vec![f32::NAN; m * n];
            transpose_slices(&a, m, n, &mut out);
            assert_eq!(bits(&out), bits(&naive), "{m}x{n}");
            let mut back = vec![f32::NAN; m * n];
            transpose_slices(&out, n, m, &mut back);
            assert_eq!(bits(&back), bits(&a), "{m}x{n} round trip");
        }
    }

    #[test]
    #[should_panic(expected = "transpose: a.len() != m*n")]
    fn transpose_slices_rejects_a_shape_whose_size_wraps() {
        // `m·n` is 2^BITS, which wraps to 0 = `a.len()` unless checked.
        let half = 1usize << (usize::BITS / 2);
        transpose_slices(&[], half, half, &mut []);
    }

    #[test]
    fn rank_checks() {
        let v = Tensor::from_slice(&[1.0, 2.0]);
        let m = Tensor::zeros(&[2, 2]);
        assert!(matmul(&v, &m).is_err());
        assert!(matvec(&v, &v).is_err());
        assert!(transpose(&v).is_err());
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn negative_zero_bias_is_canonicalised_identically_on_both_paths() {
        // A -0.0 bias over an all-zero input must come out +0.0 from both
        // bias-seeded kernels: the mat-vec adds a +0.0 dot product to the
        // seed, and the mat-mul skips every zero term and returns the seed
        // itself, which seed_from_bias has canonicalised to +0.0.
        let a = Tensor::from_vec(vec![2.0, 3.0], &[1, 2]).unwrap();
        let x = [0.0f32, 0.0];
        let bias = [-0.0f32];
        let mut dense = [f32::NAN];
        matvec_bias_slices(a.as_slice(), 1, 2, &x, &bias, &mut dense);
        assert_eq!(dense[0].to_bits(), 0.0f32.to_bits());
        let mut skipped = [f32::NAN];
        matmul_sparse_slices(&x, 1, 2, &[2.0, 3.0], 1, &bias, &mut skipped);
        assert_eq!(skipped[0].to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn sparse_matmul_is_bit_identical_to_dense_scan_with_bias() {
        // Reference: seed each output row from the bias, then add every term
        // (no zero skip) in the same ikj order.
        let dense_reference = |a: &[f32], m: usize, k: usize, b: &[f32], n: usize, bias: &[f32]| {
            let mut out = vec![0.0f32; m * n];
            for i in 0..m {
                for j in 0..n {
                    out[i * n + j] = if bias.is_empty() { 0.0 } else { bias[j] + 0.0 };
                }
                for kk in 0..k {
                    for j in 0..n {
                        out[i * n + j] += a[i * k + kk] * b[kk * n + j];
                    }
                }
            }
            out
        };
        let a = vec![
            0.0, 1.5, -0.0, 2.0, -3.0, 0.0, 0.0, -0.0, 0.5, 0.0, 0.25, -1.0,
        ];
        let b = vec![1.0, -2.0, 0.5, 3.0, -0.25, 4.0, 2.0, -1.5];
        for bias in [vec![], vec![0.1f32, -0.0], vec![-0.5f32, 2.0]] {
            let mut out = vec![7.0f32; 6];
            matmul_sparse_slices(&a, 3, 4, &b, 2, &bias, &mut out);
            let reference = dense_reference(&a, 3, 4, &b, 2, &bias);
            assert_eq!(bits(&out), bits(&reference), "bias {bias:?}");
        }
    }

    #[test]
    fn sparse_into_wrappers_validate_and_match_slices() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let x = Tensor::from_slice(&[0.5, 0.0, -1.0]);
        let bias = Tensor::from_slice(&[0.25, -0.5]);
        let mut out = Vec::new();
        let b = Tensor::from_vec(vec![1.0, 0.0, -1.0, 2.0, 0.5, 1.5], &[3, 2]).unwrap();
        let col_bias = Tensor::from_slice(&[1.0, -1.0]);
        matmul_sparse_into(&a, &b, &col_bias, &mut out).unwrap();
        let mut reference = vec![0.0f32; 4];
        matmul_sparse_slices(
            a.as_slice(),
            2,
            3,
            b.as_slice(),
            2,
            col_bias.as_slice(),
            &mut reference,
        );
        assert_eq!(bits(&out), bits(&reference));
        // Inner-dimension mismatch, wrong bias width, wrong ranks.
        assert!(matmul_sparse_into(&a, &a, &col_bias, &mut out).is_err());
        assert!(matmul_sparse_into(&a, &b, &bias, &mut out).is_ok()); // len-2 bias fits n=2
        assert!(matmul_sparse_into(&a, &b, &x, &mut out).is_err()); // len-3 bias does not
        assert!(matmul_sparse_into(&x, &b, &col_bias, &mut out).is_err());
    }

    #[test]
    fn matmul_matvec_agree() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let x = Tensor::from_slice(&[1.0, -1.0, 2.0]);
        let via_matvec = matvec(&a, &x).unwrap();
        let xm = x.reshape(&[3, 1]).unwrap();
        let via_matmul = matmul(&a, &xm).unwrap();
        assert_eq!(via_matvec.as_slice(), via_matmul.as_slice());
    }
}
