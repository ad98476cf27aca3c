//! The [`Layer`] trait shared by every network component.

use nrsnn_tensor::Tensor;

use crate::{LayerDescriptor, Result};

/// Whether a forward pass is running in training or inference mode.
///
/// Dropout behaves differently in the two modes; everything else ignores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mode {
    /// Training mode: dropout masks are sampled, caches for backprop are kept.
    Train,
    /// Inference mode: deterministic forward pass.
    #[default]
    Infer,
}

/// A differentiable network layer operating on rank-2 batches
/// (`batch_size x features`).
///
/// Layers cache whatever they need during [`Layer::forward`] so that a
/// subsequent [`Layer::backward`] (or, for the first layer of a network,
/// [`Layer::backward_params`]) can compute gradients; both must be
/// preceded by a `forward` call in [`Mode::Train`].
pub trait Layer: Send + Sync {
    /// Short human-readable name (used in error messages and serialization).
    fn name(&self) -> &str;

    /// Number of input features the layer expects, if fixed.
    fn input_width(&self) -> Option<usize>;

    /// Number of output features the layer produces, if fixed.
    fn output_width(&self) -> Option<usize>;

    /// Computes the layer output for a batch of inputs.
    ///
    /// # Errors
    /// Returns an error if the batch width does not match the layer.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor>;

    /// Back-propagates `grad_output` (gradient of the loss with respect to
    /// this layer's output) and returns the gradient with respect to the
    /// layer input. Parameter gradients are accumulated internally.
    ///
    /// # Errors
    /// Returns [`crate::DnnError::BackwardBeforeForward`] if no forward pass
    /// was cached.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor>;

    /// The parameter-only backward pass: accumulates exactly the parameter
    /// gradients [`Layer::backward`] would, bit for bit, but not the
    /// gradient with respect to the layer input.
    ///
    /// [`crate::Sequential::backward`] calls this on the first layer, whose
    /// input gradient nothing reads.  The default runs `backward` and drops
    /// its result; layers whose input gradient costs real work override it
    /// ([`crate::Dense`] skips `grad · W`, [`crate::Conv2d`] the per-sample
    /// patch-gradient product and `col2im`).
    ///
    /// # Errors
    /// As [`Layer::backward`].
    fn backward_params(&mut self, grad_output: &Tensor) -> Result<()> {
        self.backward(grad_output).map(drop)
    }

    /// Visits every `(parameter, gradient)` pair of the layer, in a stable
    /// order, so an optimizer can update the parameters in place.
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Tensor, &Tensor)) {
        let _ = visitor;
    }

    /// Clears accumulated parameter gradients.
    fn zero_grad(&mut self) {}

    /// A conversion-oriented description of the layer (weights, geometry),
    /// or `None` for layers that vanish during DNN-to-SNN conversion
    /// (ReLU, dropout, flatten, softmax).
    fn descriptor(&self) -> Option<LayerDescriptor> {
        None
    }

    /// Number of trainable parameters.
    fn param_count(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_default_is_infer() {
        assert_eq!(Mode::default(), Mode::Infer);
    }

    #[test]
    fn mode_is_copy_and_eq() {
        let m = Mode::Train;
        let n = m;
        assert_eq!(m, n);
        assert_ne!(m, Mode::Infer);
    }
}
