//! 2-D convolution layer implemented via `im2col`.

use nrsnn_tensor::{col2im, he_normal, im2col, matmul, transpose, Conv2dGeometry, Tensor};
use rand::Rng;

use crate::{DnnError, Layer, LayerDescriptor, Mode, Result};

/// A 2-D convolution over feature maps stored as flattened `(C, H, W)` rows
/// of a `(batch x C·H·W)` tensor.
///
/// The kernel bank is stored flattened as `(out_channels x in_channels·k·k)`
/// so that the forward pass is a single matrix multiplication per sample
/// against the `im2col` patch matrix.
#[derive(Debug, Clone)]
pub struct Conv2d {
    name: String,
    geometry: Conv2dGeometry,
    out_channels: usize,
    weights: Tensor,
    bias: Tensor,
    grad_weights: Tensor,
    grad_bias: Tensor,
    cached_cols: Vec<Tensor>,
}

impl Conv2d {
    /// Creates a convolution layer with He-normal initialised kernels.
    ///
    /// # Errors
    /// Returns [`DnnError::InvalidConfig`] if `out_channels` is zero or the
    /// geometry is invalid.
    pub fn new<R: Rng>(rng: &mut R, geometry: Conv2dGeometry, out_channels: usize) -> Result<Self> {
        if out_channels == 0 {
            return Err(DnnError::InvalidConfig(
                "conv2d requires at least one output channel".to_string(),
            ));
        }
        let patch = geometry.patch_len();
        Ok(Conv2d {
            name: format!(
                "conv_{}x{}x{}_k{}s{}p{}_to{}",
                geometry.in_channels,
                geometry.in_height,
                geometry.in_width,
                geometry.kernel,
                geometry.stride,
                geometry.padding,
                out_channels
            ),
            geometry,
            out_channels,
            weights: he_normal(rng, &[out_channels, patch], patch),
            bias: Tensor::zeros(&[out_channels]),
            grad_weights: Tensor::zeros(&[out_channels, patch]),
            grad_bias: Tensor::zeros(&[out_channels]),
            cached_cols: Vec::new(),
        })
    }

    /// Creates a convolution layer from explicit flattened kernels and bias.
    ///
    /// # Errors
    /// Returns [`DnnError::InvalidConfig`] if shapes are inconsistent with the
    /// geometry.
    pub fn from_weights(geometry: Conv2dGeometry, weights: Tensor, bias: Tensor) -> Result<Self> {
        if weights.shape().rank() != 2 || weights.dims()[1] != geometry.patch_len() {
            return Err(DnnError::InvalidConfig(format!(
                "conv weights must be (out_channels x {}), got {:?}",
                geometry.patch_len(),
                weights.dims()
            )));
        }
        let out_channels = weights.dims()[0];
        if bias.len() != out_channels {
            return Err(DnnError::InvalidConfig(format!(
                "conv bias length {} does not match {out_channels} output channels",
                bias.len()
            )));
        }
        Ok(Conv2d {
            name: format!("conv_loaded_to{out_channels}"),
            geometry,
            out_channels,
            grad_weights: Tensor::zeros(&[out_channels, geometry.patch_len()]),
            grad_bias: Tensor::zeros(&[out_channels]),
            cached_cols: Vec::new(),
            weights,
            bias,
        })
    }

    /// The convolution geometry.
    pub fn geometry(&self) -> &Conv2dGeometry {
        &self.geometry
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Flattened kernel bank `(out_channels x patch_len)`.
    pub fn weights(&self) -> &Tensor {
        &self.weights
    }

    fn out_features(&self) -> usize {
        self.out_channels * self.geometry.out_positions()
    }

    /// The backward pass: accumulates dW and db over the batch and, when
    /// `input_grad` is set, returns the gradient with respect to the input
    /// (`batch × in_len`, row-major; empty otherwise).
    fn backprop(&mut self, grad_output: &Tensor, input_grad: bool) -> Result<Vec<f32>> {
        if self.cached_cols.is_empty() {
            return Err(DnnError::BackwardBeforeForward {
                layer: self.name.clone(),
            });
        }
        let batch = grad_output.dims()[0];
        let positions = self.geometry.out_positions();
        let in_len = self.geometry.in_len();
        let mut grad_input = if input_grad {
            vec![0.0f32; batch * in_len]
        } else {
            Vec::new()
        };
        let gv = grad_output.as_slice();
        for b in 0..batch {
            // Reassemble grad for this sample as (positions x out_ch).
            let mut g = vec![0.0f32; positions * self.out_channels];
            for c in 0..self.out_channels {
                for p in 0..positions {
                    g[p * self.out_channels + c] = gv[b * self.out_features() + c * positions + p];
                }
            }
            let g = Tensor::from_vec(g, &[positions, self.out_channels])?;
            let cols = &self.cached_cols[b];
            // dW += gᵀ (out_ch x positions) · cols (positions x patch)
            let gt = transpose(&g)?;
            let dw = matmul(&gt, cols)?;
            self.grad_weights.add_scaled_inplace(&dw, 1.0)?;
            // db += column sums of g
            let gb = self.grad_bias.as_mut_slice();
            let gvs = g.as_slice();
            for p in 0..positions {
                for c in 0..self.out_channels {
                    gb[c] += gvs[p * self.out_channels + c];
                }
            }
            if input_grad {
                // dcols = g (positions x out_ch) · W (out_ch x patch)
                let dcols = matmul(&g, &self.weights)?;
                let dinput = col2im(&dcols, &self.geometry)?;
                let dst = &mut grad_input[b * in_len..(b + 1) * in_len];
                for (d, &s) in dst.iter_mut().zip(dinput.as_slice()) {
                    *d += s;
                }
            }
        }
        Ok(grad_input)
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn input_width(&self) -> Option<usize> {
        Some(self.geometry.in_len())
    }

    fn output_width(&self) -> Option<usize> {
        Some(self.out_features())
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        if input.shape().rank() != 2 || input.dims()[1] != self.geometry.in_len() {
            return Err(DnnError::InputWidthMismatch {
                expected: self.geometry.in_len(),
                actual: if input.shape().rank() == 2 {
                    input.dims()[1]
                } else {
                    input.len()
                },
                layer: self.name.clone(),
            });
        }
        let batch = input.dims()[0];
        let positions = self.geometry.out_positions();
        let mut out = vec![0.0f32; batch * self.out_features()];
        if mode == Mode::Train {
            self.cached_cols = Vec::with_capacity(batch);
        }
        let wt = transpose(&self.weights)?; // (patch x out_ch)
        for b in 0..batch {
            let sample = input.row(b)?;
            let cols = im2col(&sample, &self.geometry)?; // (positions x patch)
            let prod = matmul(&cols, &wt)?; // (positions x out_ch)
            let pv = prod.as_slice();
            let bias = self.bias.as_slice();
            for c in 0..self.out_channels {
                for p in 0..positions {
                    out[b * self.out_features() + c * positions + p] =
                        pv[p * self.out_channels + c] + bias[c];
                }
            }
            if mode == Mode::Train {
                self.cached_cols.push(cols);
            }
        }
        Ok(Tensor::from_vec(out, &[batch, self.out_features()])?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let grad_input = self.backprop(grad_output, true)?;
        Ok(Tensor::from_vec(
            grad_input,
            &[grad_output.dims()[0], self.geometry.in_len()],
        )?)
    }

    fn backward_params(&mut self, grad_output: &Tensor) -> Result<()> {
        self.backprop(grad_output, false).map(drop)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Tensor, &Tensor)) {
        visitor(&mut self.weights, &self.grad_weights);
        visitor(&mut self.bias, &self.grad_bias);
    }

    fn zero_grad(&mut self) {
        self.grad_weights.as_mut_slice().fill(0.0);
        self.grad_bias.as_mut_slice().fill(0.0);
    }

    fn descriptor(&self) -> Option<LayerDescriptor> {
        Some(LayerDescriptor::Conv {
            weights: self.weights.clone(),
            bias: self.bias.clone(),
            geometry: self.geometry,
        })
    }

    fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn identity_kernel_layer() -> Conv2d {
        // 1x3x3 input, 1x1 kernel with weight 1 -> output equals input.
        let geometry = Conv2dGeometry::new(1, 3, 3, 1, 1, 0).unwrap();
        let weights = Tensor::from_vec(vec![1.0], &[1, 1]).unwrap();
        let bias = Tensor::zeros(&[1]);
        Conv2d::from_weights(geometry, weights, bias).unwrap()
    }

    #[test]
    fn identity_convolution_preserves_input() {
        let mut layer = identity_kernel_layer();
        let x =
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0], &[1, 9]).unwrap();
        let y = layer.forward(&x, Mode::Infer).unwrap();
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn averaging_kernel_known_values() {
        // 2x2 kernel of 0.25 over a 2x2 input: single output = mean.
        let geometry = Conv2dGeometry::new(1, 2, 2, 2, 1, 0).unwrap();
        let weights = Tensor::from_vec(vec![0.25; 4], &[1, 4]).unwrap();
        let bias = Tensor::from_slice(&[1.0]);
        let mut layer = Conv2d::from_weights(geometry, weights, bias).unwrap();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 6.0], &[1, 4]).unwrap();
        let y = layer.forward(&x, Mode::Infer).unwrap();
        assert_eq!(y.as_slice(), &[4.0]); // mean 3.0 + bias 1.0
    }

    #[test]
    fn output_width_matches_geometry() {
        let mut rng = StdRng::seed_from_u64(0);
        let geometry = Conv2dGeometry::new(3, 8, 8, 3, 1, 1).unwrap();
        let layer = Conv2d::new(&mut rng, geometry, 4).unwrap();
        assert_eq!(layer.output_width(), Some(4 * 64));
        assert_eq!(layer.input_width(), Some(3 * 64));
        assert_eq!(layer.param_count(), 4 * 27 + 4);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(3);
        let geometry = Conv2dGeometry::new(1, 4, 4, 3, 1, 0).unwrap();
        let mut layer = Conv2d::new(&mut rng, geometry, 2).unwrap();
        let x_data: Vec<f32> = (0..16).map(|i| (i as f32) / 16.0 - 0.5).collect();
        let x = Tensor::from_vec(x_data, &[1, 16]).unwrap();

        layer.zero_grad();
        let _ = layer.forward(&x, Mode::Train).unwrap();
        let grad_out = Tensor::ones(&[1, layer.out_features()]);
        let dx = layer.backward(&grad_out).unwrap();

        let eps = 1e-2;
        for i in [0usize, 5, 10, 15] {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let fp = layer.forward(&xp, Mode::Infer).unwrap().sum();
            let fm = layer.forward(&xm, Mode::Infer).unwrap().sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (fd - dx.as_slice()[i]).abs() < 5e-2,
                "input grad {i}: fd {fd} analytic {}",
                dx.as_slice()[i]
            );
        }
    }

    #[test]
    fn from_weights_validates() {
        let geometry = Conv2dGeometry::new(1, 4, 4, 3, 1, 0).unwrap();
        assert!(
            Conv2d::from_weights(geometry, Tensor::zeros(&[2, 8]), Tensor::zeros(&[2])).is_err()
        );
        assert!(
            Conv2d::from_weights(geometry, Tensor::zeros(&[2, 9]), Tensor::zeros(&[3])).is_err()
        );
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut layer = identity_kernel_layer();
        assert!(layer.backward(&Tensor::zeros(&[1, 9])).is_err());
    }

    #[test]
    fn descriptor_round_trips_geometry() {
        let layer = identity_kernel_layer();
        match layer.descriptor().unwrap() {
            LayerDescriptor::Conv { geometry, .. } => {
                assert_eq!(geometry.in_height, 3);
            }
            other => panic!("unexpected descriptor {other:?}"),
        }
    }
}
