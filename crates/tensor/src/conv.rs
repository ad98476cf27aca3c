//! Convolution and pooling geometry helpers.
//!
//! The DNN crate implements `Conv2d` layers via `im2col`: each convolution
//! becomes a single matrix multiplication between the unrolled input patches
//! and the flattened kernel bank, which keeps the training code simple and
//! reasonably fast for the laptop-scale models used in the reproduction.

use serde::{Deserialize, Serialize};

use crate::{Result, Tensor, TensorError};

/// Geometry of a 2-D convolution over an input feature map stored as
/// `(channels, height, width)` in row-major order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Conv2dGeometry {
    /// Number of input channels.
    pub in_channels: usize,
    /// Input height in pixels.
    pub in_height: usize,
    /// Input width in pixels.
    pub in_width: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride in both directions.
    pub stride: usize,
    /// Zero padding added symmetrically to both sides.
    pub padding: usize,
}

impl Conv2dGeometry {
    /// Creates a geometry and validates that the output is non-empty.
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidGeometry`] if the kernel does not fit the
    /// padded input, any dimension is zero, or the input (`C·H·W`) or patch
    /// matrix (`H_out·W_out·C·K·K`) element count overflows `usize`.
    pub fn new(
        in_channels: usize,
        in_height: usize,
        in_width: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Result<Self> {
        if in_channels == 0 || in_height == 0 || in_width == 0 || kernel == 0 || stride == 0 {
            return Err(TensorError::InvalidGeometry(
                "conv2d dimensions must be non-zero".to_string(),
            ));
        }
        let padded = |side: usize| padding.checked_mul(2).and_then(|p| p.checked_add(side));
        let (Some(padded_h), Some(padded_w)) = (padded(in_height), padded(in_width)) else {
            return Err(TensorError::InvalidGeometry(format!(
                "conv2d padding {padding} overflows usize"
            )));
        };
        if padded_h < kernel || padded_w < kernel {
            return Err(TensorError::InvalidGeometry(format!(
                "kernel {kernel} larger than padded input {padded_h}x{padded_w}"
            )));
        }
        let geom = Conv2dGeometry {
            in_channels,
            in_height,
            in_width,
            kernel,
            stride,
            padding,
        };
        // Release builds wrap an overflowing product silently: a C·K·K that
        // wrapped to 0 once sized an empty patch buffer that im2col then
        // wrote 2^43 kernel rows into.
        let (h_out, w_out) = (geom.out_height(), geom.out_width());
        if checked_product(&[in_channels, in_height, in_width]).is_none()
            || checked_product(&[h_out, w_out, in_channels, kernel, kernel]).is_none()
        {
            return Err(TensorError::InvalidGeometry(format!(
                "conv2d input {in_channels}x{in_height}x{in_width} with kernel {kernel} \
                 overflows usize"
            )));
        }
        Ok(geom)
    }

    /// Output height of the convolution.
    pub fn out_height(&self) -> usize {
        (self.in_height + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Output width of the convolution.
    pub fn out_width(&self) -> usize {
        (self.in_width + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Number of elements in one unrolled patch (`C·K·K`).
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Number of spatial output positions (`H_out·W_out`).
    pub fn out_positions(&self) -> usize {
        self.out_height() * self.out_width()
    }

    /// Number of elements in the input feature map (`C·H·W`).
    pub fn in_len(&self) -> usize {
        self.in_channels * self.in_height * self.in_width
    }
}

/// Unrolls an input feature map (flat `C·H·W` vector) into a patch matrix of
/// shape `(out_positions, patch_len)` suitable for convolution by matmul.
///
/// # Errors
/// Returns [`TensorError::ShapeDataMismatch`] if `input.len()` does not match
/// the geometry.
pub fn im2col(input: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor> {
    if input.len() != geom.in_len() {
        return Err(TensorError::ShapeDataMismatch {
            elements: input.len(),
            expected: geom.in_len(),
        });
    }
    let mut out = Tensor::zeros(&[geom.out_positions(), geom.patch_len()]);
    im2col_slices(input.as_slice(), geom, out.as_mut_slice());
    Ok(out)
}

/// Raw kernel behind [`im2col`]: unrolls a flat `C·H·W` input into the
/// caller-provided patch matrix buffer, overwriting it.
///
/// Dispatches to the runtime-selected SIMD backend (see [`crate::simd`]):
/// each kernel row of a patch becomes "zero-fill padding, bulk-copy the
/// valid span, zero-fill padding", which is bitwise-identical on every
/// backend by construction (it only moves and zeroes values).
///
/// # Panics
/// Asserts the slice lengths before touching any data.
pub fn im2col_slices(x: &[f32], geom: &Conv2dGeometry, out: &mut [f32]) {
    crate::simd::im2col_slices_with(crate::simd::active_backend(), x, geom, out);
}

/// Scatters a patch matrix of shape `(out_positions, patch_len)` back into a
/// flat input-feature-map gradient (`C·H·W`), accumulating overlapping
/// contributions. This is the adjoint of [`im2col`] and is used by the
/// convolution backward pass.
///
/// # Errors
/// Returns [`TensorError::ShapeDataMismatch`] if `cols` has the wrong size.
pub fn col2im(cols: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor> {
    let expected = geom.out_positions() * geom.patch_len();
    if cols.len() != expected {
        return Err(TensorError::ShapeDataMismatch {
            elements: cols.len(),
            expected,
        });
    }
    let (c, h, w) = (geom.in_channels, geom.in_height, geom.in_width);
    let k = geom.kernel;
    let (oh, ow) = (geom.out_height(), geom.out_width());
    let cv = cols.as_slice();
    let mut out = vec![0.0f32; geom.in_len()];
    let mut row = 0usize;
    for oy in 0..oh {
        for ox in 0..ow {
            let base = row * geom.patch_len();
            let mut idx = 0usize;
            for ci in 0..c {
                for ky in 0..k {
                    let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                    for kx in 0..k {
                        let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                        if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                            out[ci * h * w + iy as usize * w + ix as usize] += cv[base + idx];
                        }
                        idx += 1;
                    }
                }
            }
            row += 1;
        }
    }
    Tensor::from_vec(out, &[geom.in_len()])
}

/// The product of `factors`, or `None` if it overflows `usize`.
fn checked_product(factors: &[usize]) -> Option<usize> {
    factors.iter().try_fold(1, |n: usize, &f| n.checked_mul(f))
}

/// Geometry of a 2-D max/average pooling operation over a `(C, H, W)` map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Pool2dGeometry {
    /// Number of channels (unchanged by pooling).
    pub channels: usize,
    /// Input height in pixels.
    pub in_height: usize,
    /// Input width in pixels.
    pub in_width: usize,
    /// Square pooling window size.
    pub window: usize,
    /// Stride (commonly equal to the window).
    pub stride: usize,
}

impl Pool2dGeometry {
    /// Creates a pooling geometry.
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidGeometry`] if the window does not fit,
    /// any dimension is zero, or the input (`C·H·W`) or output
    /// (`C·H_out·W_out`) element count overflows `usize`.
    pub fn new(
        channels: usize,
        in_height: usize,
        in_width: usize,
        window: usize,
        stride: usize,
    ) -> Result<Self> {
        if channels == 0 || in_height == 0 || in_width == 0 || window == 0 || stride == 0 {
            return Err(TensorError::InvalidGeometry(
                "pool2d dimensions must be non-zero".to_string(),
            ));
        }
        if window > in_height || window > in_width {
            return Err(TensorError::InvalidGeometry(format!(
                "pool window {window} larger than input {in_height}x{in_width}"
            )));
        }
        let geom = Pool2dGeometry {
            channels,
            in_height,
            in_width,
            window,
            stride,
        };
        if checked_product(&[channels, in_height, in_width]).is_none()
            || checked_product(&[channels, geom.out_height(), geom.out_width()]).is_none()
        {
            return Err(TensorError::InvalidGeometry(format!(
                "pool2d input {channels}x{in_height}x{in_width} overflows usize"
            )));
        }
        Ok(geom)
    }

    /// Output height of the pooling.
    pub fn out_height(&self) -> usize {
        (self.in_height - self.window) / self.stride + 1
    }

    /// Output width of the pooling.
    pub fn out_width(&self) -> usize {
        (self.in_width - self.window) / self.stride + 1
    }

    /// Number of input elements (`C·H·W`).
    pub fn in_len(&self) -> usize {
        self.channels * self.in_height * self.in_width
    }

    /// Number of output elements (`C·H_out·W_out`).
    pub fn out_len(&self) -> usize {
        self.channels * self.out_height() * self.out_width()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_geom() -> Conv2dGeometry {
        Conv2dGeometry::new(1, 3, 3, 2, 1, 0).unwrap()
    }

    #[test]
    fn conv_geometry_output_dims() {
        let g = Conv2dGeometry::new(3, 16, 16, 3, 1, 1).unwrap();
        assert_eq!(g.out_height(), 16);
        assert_eq!(g.out_width(), 16);
        assert_eq!(g.patch_len(), 27);

        let g2 = Conv2dGeometry::new(1, 28, 28, 5, 1, 0).unwrap();
        assert_eq!(g2.out_height(), 24);
    }

    #[test]
    fn conv_geometry_rejects_bad_params() {
        assert!(Conv2dGeometry::new(0, 8, 8, 3, 1, 0).is_err());
        assert!(Conv2dGeometry::new(1, 2, 2, 5, 1, 0).is_err());
        assert!(Conv2dGeometry::new(1, 8, 8, 3, 0, 0).is_err());
        // C·H·W and C·K·K are both 2^64: they used to wrap to 0 in release.
        assert!(Conv2dGeometry::new(1 << 22, 1 << 21, 1 << 21, 1 << 21, 1, 0).is_err());
        assert!(Pool2dGeometry::new(1 << 22, 1 << 21, 1 << 21, 1, 1).is_err());
    }

    #[test]
    fn im2col_known_patches() {
        let g = simple_geom();
        let input = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        let cols = im2col(&input, &g).unwrap();
        assert_eq!(cols.dims(), &[4, 4]);
        // first patch = top-left 2x2 window
        assert_eq!(cols.row(0).unwrap().as_slice(), &[1.0, 2.0, 4.0, 5.0]);
        // last patch = bottom-right 2x2 window
        assert_eq!(cols.row(3).unwrap().as_slice(), &[5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn im2col_with_padding_zero_borders() {
        let g = Conv2dGeometry::new(1, 2, 2, 3, 1, 1).unwrap();
        let input = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let cols = im2col(&input, &g).unwrap();
        assert_eq!(cols.dims(), &[4, 9]);
        // Patch centred at (0,0): first row/col are padding.
        assert_eq!(
            cols.row(0).unwrap().as_slice(),
            &[0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 3.0, 4.0]
        );
    }

    #[test]
    fn col2im_is_adjoint_of_im2col_for_disjoint_patches() {
        // stride == kernel -> patches are disjoint, so col2im(im2col(x)) == x.
        let g = Conv2dGeometry::new(1, 4, 4, 2, 2, 0).unwrap();
        let input = Tensor::from_slice(&[
            1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0,
        ]);
        let cols = im2col(&input, &g).unwrap();
        let back = col2im(&cols, &g).unwrap();
        assert_eq!(back.as_slice(), input.as_slice());
    }

    #[test]
    fn col2im_accumulates_overlaps() {
        let g = simple_geom();
        let ones = Tensor::ones(&[g.out_positions(), g.patch_len()]);
        let acc = col2im(&ones, &g).unwrap();
        // centre pixel of a 3x3 input is covered by all four 2x2 patches.
        assert_eq!(acc.get(&[4]).unwrap(), 4.0);
        // corner pixel only by one.
        assert_eq!(acc.get(&[0]).unwrap(), 1.0);
    }

    #[test]
    fn pool_geometry() {
        let g = Pool2dGeometry::new(3, 16, 16, 2, 2).unwrap();
        assert_eq!(g.out_height(), 8);
        assert_eq!(g.out_len(), 3 * 8 * 8);
        assert!(Pool2dGeometry::new(3, 2, 2, 4, 2).is_err());
    }

    #[test]
    fn im2col_wrong_input_len() {
        let g = simple_geom();
        let bad = Tensor::zeros(&[5]);
        assert!(im2col(&bad, &g).is_err());
    }
}
