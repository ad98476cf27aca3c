//! Fully connected (dense) layer.

use nrsnn_tensor::{he_normal, matmul, matmul_slices, transpose, transpose_slices, Tensor};
use rand::Rng;

use crate::{DnnError, Layer, LayerDescriptor, Mode, Result};

/// A fully connected layer computing `y = x·Wᵀ + b` on batches
/// (`batch x in_features` → `batch x out_features`).
#[derive(Debug, Clone)]
pub struct Dense {
    name: String,
    weights: Tensor,
    bias: Tensor,
    grad_weights: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
    in_features: usize,
    out_features: usize,
    /// Reusable buffer for the transposed weights of the forward pass.
    scratch_wt: Vec<f32>,
}

impl Dense {
    /// Creates a dense layer with He-normal initialised weights and zero bias.
    ///
    /// # Errors
    /// Returns [`DnnError::InvalidConfig`] if either dimension is zero.
    pub fn new<R: Rng>(rng: &mut R, in_features: usize, out_features: usize) -> Result<Self> {
        if in_features == 0 || out_features == 0 {
            return Err(DnnError::InvalidConfig(
                "dense layer dimensions must be non-zero".to_string(),
            ));
        }
        Ok(Dense {
            name: format!("dense_{in_features}x{out_features}"),
            weights: he_normal(rng, &[out_features, in_features], in_features),
            bias: Tensor::zeros(&[out_features]),
            grad_weights: Tensor::zeros(&[out_features, in_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            cached_input: None,
            in_features,
            out_features,
            scratch_wt: Vec::new(),
        })
    }

    /// Creates a dense layer from explicit weights `(out x in)` and bias.
    ///
    /// # Errors
    /// Returns [`DnnError::InvalidConfig`] if the shapes are inconsistent.
    pub fn from_weights(weights: Tensor, bias: Tensor) -> Result<Self> {
        if weights.shape().rank() != 2 || bias.shape().rank() != 1 {
            return Err(DnnError::InvalidConfig(
                "dense weights must be rank 2 and bias rank 1".to_string(),
            ));
        }
        let (out_features, in_features) = (weights.dims()[0], weights.dims()[1]);
        if bias.len() != out_features {
            return Err(DnnError::InvalidConfig(format!(
                "bias length {} does not match output width {out_features}",
                bias.len()
            )));
        }
        Ok(Dense {
            name: format!("dense_{in_features}x{out_features}"),
            grad_weights: Tensor::zeros(&[out_features, in_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            cached_input: None,
            weights,
            bias,
            in_features,
            out_features,
            scratch_wt: Vec::new(),
        })
    }

    /// The weight matrix `(out x in)`.
    pub fn weights(&self) -> &Tensor {
        &self.weights
    }

    /// The bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Mutable access to the weight matrix (used by tests and conversion).
    pub fn weights_mut(&mut self) -> &mut Tensor {
        &mut self.weights
    }
}

impl Layer for Dense {
    fn name(&self) -> &str {
        &self.name
    }

    fn input_width(&self) -> Option<usize> {
        Some(self.in_features)
    }

    fn output_width(&self) -> Option<usize> {
        Some(self.out_features)
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        if input.shape().rank() != 2 || input.dims()[1] != self.in_features {
            return Err(DnnError::InputWidthMismatch {
                expected: self.in_features,
                actual: if input.shape().rank() == 2 {
                    input.dims()[1]
                } else {
                    input.len()
                },
                layer: self.name.clone(),
            });
        }
        if mode == Mode::Train {
            self.cached_input = Some(input.clone());
        }
        // Wᵀ into the layer's reused scratch, then x·Wᵀ — the same kernels
        // (hence the same values) as `matmul(input, &transpose(&self.weights)?)`.
        // The transpose overwrites every element, so the scratch is only
        // sized (once), never cleared.
        self.scratch_wt
            .resize(self.in_features * self.out_features, 0.0);
        transpose_slices(
            self.weights.as_slice(),
            self.out_features,
            self.in_features,
            &mut self.scratch_wt,
        );
        let batch = input.dims()[0];
        let mut out = Tensor::zeros(&[batch, self.out_features]);
        let data = out.as_mut_slice();
        matmul_slices(
            input.as_slice(),
            batch,
            self.in_features,
            &self.scratch_wt,
            self.out_features,
            data,
        );
        let bias = self.bias.as_slice();
        for b in 0..batch {
            for (j, &bv) in bias.iter().enumerate() {
                data[b * self.out_features + j] += bv;
            }
        }
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        self.backward_params(grad_output)?;
        // dx = grad · W
        Ok(matmul(grad_output, &self.weights)?)
    }

    fn backward_params(&mut self, grad_output: &Tensor) -> Result<()> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or_else(|| DnnError::BackwardBeforeForward {
                layer: self.name.clone(),
            })?;
        // dW = gradᵀ · x, db = Σ_batch grad
        let grad_t = transpose(grad_output)?;
        let dw = matmul(&grad_t, input)?;
        self.grad_weights.add_scaled_inplace(&dw, 1.0)?;

        let batch = grad_output.dims()[0];
        let gv = grad_output.as_slice();
        let gb = self.grad_bias.as_mut_slice();
        for b in 0..batch {
            for j in 0..self.out_features {
                gb[j] += gv[b * self.out_features + j];
            }
        }
        Ok(())
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
        Some(LayerDescriptor::Linear {
            weights: self.weights.clone(),
            bias: self.bias.clone(),
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

    fn layer_with_known_weights() -> Dense {
        // 2 inputs -> 3 outputs
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]).unwrap();
        let b = Tensor::from_slice(&[0.0, 0.5, -1.0]);
        Dense::from_weights(w, b).unwrap()
    }

    #[test]
    fn forward_known_values() {
        let mut layer = layer_with_known_weights();
        let x = Tensor::from_vec(vec![2.0, 3.0], &[1, 2]).unwrap();
        let y = layer.forward(&x, Mode::Infer).unwrap();
        assert_eq!(y.as_slice(), &[2.0, 3.5, 4.0]);
    }

    #[test]
    fn forward_rejects_wrong_width() {
        let mut layer = layer_with_known_weights();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        assert!(layer.forward(&x, Mode::Infer).is_err());
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut layer = layer_with_known_weights();
        let g = Tensor::zeros(&[1, 3]);
        assert!(layer.backward(&g).is_err());
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut layer = Dense::new(&mut rng, 3, 2).unwrap();
        let x = Tensor::from_vec(vec![0.3, -0.2, 0.5], &[1, 3]).unwrap();

        // scalar loss = sum(output)
        let y = layer.forward(&x, Mode::Train).unwrap();
        let _ = y;
        let grad_out = Tensor::ones(&[1, 2]);
        layer.zero_grad();
        let _ = layer.forward(&x, Mode::Train).unwrap();
        let dx = layer.backward(&grad_out).unwrap();

        // finite difference on the input
        let eps = 1e-3;
        for i in 0..3 {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let fp = layer.forward(&xp, Mode::Infer).unwrap().sum();
            let fm = layer.forward(&xm, Mode::Infer).unwrap().sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (fd - dx.as_slice()[i]).abs() < 1e-2,
                "input grad {i}: fd {fd} analytic {}",
                dx.as_slice()[i]
            );
        }
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut layer = Dense::new(&mut rng, 2, 2).unwrap();
        let x = Tensor::from_vec(vec![0.7, -0.4], &[1, 2]).unwrap();
        let grad_out = Tensor::ones(&[1, 2]);

        layer.zero_grad();
        let _ = layer.forward(&x, Mode::Train).unwrap();
        let _ = layer.backward(&grad_out).unwrap();
        let mut analytic = Tensor::zeros(&[2, 2]);
        layer.visit_params(&mut |_, g| {
            if g.dims().len() == 2 {
                analytic = g.clone();
            }
        });

        let eps = 1e-3;
        for idx in 0..4 {
            let orig = layer.weights.as_slice()[idx];
            layer.weights_mut().as_mut_slice()[idx] = orig + eps;
            let fp = layer.forward(&x, Mode::Infer).unwrap().sum();
            layer.weights_mut().as_mut_slice()[idx] = orig - eps;
            let fm = layer.forward(&x, Mode::Infer).unwrap().sum();
            layer.weights_mut().as_mut_slice()[idx] = orig;
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (fd - analytic.as_slice()[idx]).abs() < 1e-2,
                "weight grad {idx}: fd {fd} analytic {}",
                analytic.as_slice()[idx]
            );
        }
    }

    #[test]
    fn descriptor_exports_weights() {
        let layer = layer_with_known_weights();
        match layer.descriptor().unwrap() {
            LayerDescriptor::Linear { weights, bias } => {
                assert_eq!(weights.dims(), &[3, 2]);
                assert_eq!(bias.len(), 3);
            }
            other => panic!("unexpected descriptor {other:?}"),
        }
    }

    #[test]
    fn param_count() {
        let layer = layer_with_known_weights();
        assert_eq!(layer.param_count(), 9);
    }

    #[test]
    fn from_weights_validates_shapes() {
        assert!(Dense::from_weights(Tensor::zeros(&[3]), Tensor::zeros(&[3])).is_err());
        assert!(Dense::from_weights(Tensor::zeros(&[3, 2]), Tensor::zeros(&[2])).is_err());
    }
}
