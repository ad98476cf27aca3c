//! The [`Sequential`] network container and training loop.

use nrsnn_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::{
    accuracy, DnnError, EvalReport, Layer, LayerDescriptor, Mode, Optimizer, Result,
    SoftmaxCrossEntropy,
};

/// Hyper-parameters of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Multiplicative learning-rate decay applied after each epoch.
    pub lr_decay: f32,
    /// Whether to shuffle the training set every epoch.
    pub shuffle: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 32,
            lr_decay: 1.0,
            shuffle: true,
        }
    }
}

/// Per-epoch training statistics returned by [`Sequential::fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Training-set accuracy after the final epoch.
    pub final_train_accuracy: f32,
}

/// A feed-forward stack of [`Layer`]s applied in order.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        f.debug_struct("Sequential")
            .field("layers", &names)
            .finish()
    }
}

impl Sequential {
    /// Creates an empty network.
    pub fn new() -> Self {
        Sequential::default()
    }

    /// Appends a layer to the network.
    pub fn push<L: Layer + 'static>(&mut self, layer: L) {
        self.layers.push(Box::new(layer));
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` if the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Names of all layers in order.
    pub fn layer_names(&self) -> Vec<&str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Runs a forward pass through all layers.
    ///
    /// # Errors
    /// Propagates layer errors (width mismatches etc.).
    pub fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, mode)?;
        }
        Ok(x)
    }

    /// Runs a forward pass and additionally returns the output of every
    /// layer (used for activation statistics during DNN-to-SNN conversion).
    ///
    /// # Errors
    /// Propagates layer errors.
    pub fn forward_collect(&mut self, input: &Tensor) -> Result<Vec<Tensor>> {
        let mut outputs = Vec::with_capacity(self.layers.len());
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, Mode::Infer)?;
            outputs.push(x.clone());
        }
        Ok(outputs)
    }

    /// Inference helper returning raw logits.
    ///
    /// # Errors
    /// Propagates layer errors.
    pub fn predict(&mut self, input: &Tensor) -> Result<Tensor> {
        self.forward(input, Mode::Infer)
    }

    /// Back-propagates a loss gradient through every layer, accumulating
    /// each layer's parameter gradients.
    ///
    /// Returns `()`: the first layer runs [`Layer::backward_params`], since
    /// the gradient with respect to the network input is never read, so it
    /// is never computed.
    ///
    /// # Errors
    /// Propagates layer errors.
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<()> {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return Ok(());
        };
        let mut g: Option<Tensor> = None;
        for layer in rest.iter_mut().rev() {
            g = Some(layer.backward(g.as_ref().unwrap_or(grad_output))?);
        }
        first.backward_params(g.as_ref().unwrap_or(grad_output))
    }

    /// Clears accumulated gradients in every layer.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Applies one optimizer step over all parameters.
    pub fn apply_gradients(&mut self, optimizer: &mut dyn Optimizer) {
        optimizer.begin_step();
        let mut key = 0usize;
        for layer in &mut self.layers {
            layer.visit_params(&mut |param, grad| {
                optimizer.step(key, param, grad);
                key += 1;
            });
        }
    }

    /// Conversion descriptors of all weighted / pooling layers, in order.
    pub fn descriptors(&self) -> Vec<LayerDescriptor> {
        self.layers.iter().filter_map(|l| l.descriptor()).collect()
    }

    /// For every descriptor-bearing layer, the `q`-th percentile of its
    /// post-nonlinearity activations over the given probe inputs.
    ///
    /// This is the statistic used for data-based threshold balancing in the
    /// DNN-to-SNN conversion.
    ///
    /// # Errors
    /// Propagates layer errors.
    pub fn activation_percentiles(&mut self, probe: &Tensor, q: f32) -> Result<Vec<f32>> {
        let outputs = self.forward_collect(probe)?;
        let mut result = Vec::new();
        for (i, layer) in self.layers.iter().enumerate() {
            if layer.descriptor().is_none() {
                continue;
            }
            // Use the output of the following ReLU if there is one, so the
            // statistic reflects the non-negative activations the SNN must
            // represent.
            let source = if i + 1 < self.layers.len() && self.layers[i + 1].name() == "relu" {
                &outputs[i + 1]
            } else {
                &outputs[i]
            };
            let positive = source.map(|x| x.max(0.0));
            result.push(positive.percentile(q).max(1e-6));
        }
        Ok(result)
    }

    /// Trains the network with mini-batch gradient descent.
    ///
    /// # Errors
    /// Returns [`DnnError::InvalidConfig`] for an empty network or zero batch
    /// size and [`DnnError::InvalidLabels`] for mismatched labels.
    pub fn fit<R: Rng>(
        &mut self,
        inputs: &Tensor,
        labels: &[usize],
        optimizer: &mut dyn Optimizer,
        loss: &SoftmaxCrossEntropy,
        config: &TrainConfig,
        rng: &mut R,
    ) -> Result<TrainReport> {
        if self.is_empty() {
            return Err(DnnError::InvalidConfig(
                "cannot train an empty network".to_string(),
            ));
        }
        if config.batch_size == 0 || config.epochs == 0 {
            return Err(DnnError::InvalidConfig(
                "epochs and batch_size must be non-zero".to_string(),
            ));
        }
        if inputs.shape().rank() != 2 || inputs.dims()[0] != labels.len() {
            return Err(DnnError::InvalidLabels(format!(
                "inputs shape {:?} incompatible with {} labels",
                inputs.dims(),
                labels.len()
            )));
        }
        let samples = labels.len();
        let mut order: Vec<usize> = (0..samples).collect();
        let mut epoch_losses = Vec::with_capacity(config.epochs);

        for _epoch in 0..config.epochs {
            if config.shuffle {
                order.shuffle(rng);
            }
            let mut epoch_loss = 0.0f32;
            let mut batches = 0usize;
            for chunk in order.chunks(config.batch_size) {
                let batch_x = Tensor::stack_rows(
                    &chunk
                        .iter()
                        .map(|&i| inputs.row(i))
                        .collect::<std::result::Result<Vec<_>, _>>()?,
                )?;
                let batch_y: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();

                self.zero_grad();
                let logits = self.forward(&batch_x, Mode::Train)?;
                let (batch_loss, grad) = loss.loss_and_grad(&logits, &batch_y)?;
                self.backward(&grad)?;
                self.apply_gradients(optimizer);

                epoch_loss += batch_loss;
                batches += 1;
            }
            epoch_losses.push(epoch_loss / batches.max(1) as f32);
            optimizer.set_learning_rate(optimizer.learning_rate() * config.lr_decay);
        }

        let final_train_accuracy = self.evaluate(inputs, labels)?.accuracy;
        Ok(TrainReport {
            epoch_losses,
            final_train_accuracy,
        })
    }

    /// Evaluates classification accuracy and loss over a labelled set.
    ///
    /// # Errors
    /// Returns [`DnnError::InvalidLabels`] for mismatched labels.
    pub fn evaluate(&mut self, inputs: &Tensor, labels: &[usize]) -> Result<EvalReport> {
        let logits = self.predict(inputs)?;
        let acc = accuracy(&logits, labels)?;
        let loss = SoftmaxCrossEntropy::new().loss(&logits, labels).ok();
        Ok(EvalReport {
            accuracy: acc,
            mean_loss: loss,
            samples: labels.len(),
        })
    }

    /// Visits every `(parameter, gradient)` pair of the whole network.
    pub fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Tensor, &Tensor)) {
        for layer in &mut self.layers {
            layer.visit_params(visitor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv2d, Dense, Dropout, Relu, Sgd};
    use nrsnn_tensor::Conv2dGeometry;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn xor_dataset() -> (Tensor, Vec<usize>) {
        // XOR-like separable task with a margin so a small MLP can learn it.
        let x = Tensor::from_vec(
            vec![
                0.0, 0.0, //
                0.0, 1.0, //
                1.0, 0.0, //
                1.0, 1.0,
            ],
            &[4, 2],
        )
        .unwrap();
        let y = vec![0usize, 1, 1, 0];
        (x, y)
    }

    fn build_mlp(rng: &mut StdRng) -> Sequential {
        let mut net = Sequential::new();
        net.push(Dense::new(rng, 2, 16).unwrap());
        net.push(Relu::new());
        net.push(Dense::new(rng, 16, 2).unwrap());
        net
    }

    #[test]
    fn learns_xor() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = build_mlp(&mut rng);
        let (x, y) = xor_dataset();
        let cfg = TrainConfig {
            epochs: 300,
            batch_size: 4,
            ..TrainConfig::default()
        };
        let mut opt = Sgd::new(0.5, 0.9);
        let report = net
            .fit(
                &x,
                &y,
                &mut opt,
                &SoftmaxCrossEntropy::new(),
                &cfg,
                &mut rng,
            )
            .unwrap();
        assert_eq!(report.epoch_losses.len(), 300);
        assert!(
            report.final_train_accuracy > 0.99,
            "acc {}",
            report.final_train_accuracy
        );
        // Loss should decrease substantially.
        assert!(report.epoch_losses[299] < report.epoch_losses[0] * 0.5);
    }

    #[test]
    fn empty_network_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = Sequential::new();
        let (x, y) = xor_dataset();
        let mut opt = Sgd::new(0.1, 0.0);
        assert!(net
            .fit(
                &x,
                &y,
                &mut opt,
                &SoftmaxCrossEntropy::new(),
                &TrainConfig::default(),
                &mut rng
            )
            .is_err());
    }

    #[test]
    fn zero_batch_size_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = build_mlp(&mut rng);
        let (x, y) = xor_dataset();
        let cfg = TrainConfig {
            batch_size: 0,
            ..TrainConfig::default()
        };
        let mut opt = Sgd::new(0.1, 0.0);
        assert!(net
            .fit(
                &x,
                &y,
                &mut opt,
                &SoftmaxCrossEntropy::new(),
                &cfg,
                &mut rng
            )
            .is_err());
    }

    #[test]
    fn descriptors_skip_activations_and_dropout() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Sequential::new();
        net.push(Dense::new(&mut rng, 4, 8).unwrap());
        net.push(Relu::new());
        net.push(Dropout::new(0.2, 0).unwrap());
        net.push(Dense::new(&mut rng, 8, 3).unwrap());
        let d = net.descriptors();
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|x| x.kind() == "linear"));
    }

    #[test]
    fn activation_percentiles_are_positive_and_per_layer() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = build_mlp(&mut rng);
        let (x, _) = xor_dataset();
        let p = net.activation_percentiles(&x, 99.9).unwrap();
        assert_eq!(p.len(), 2);
        assert!(p.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn param_count_sums_layers() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = {
            let mut n = Sequential::new();
            n.push(Dense::new(&mut rng, 3, 5).unwrap());
            n.push(Dense::new(&mut rng, 5, 2).unwrap());
            n
        };
        assert_eq!(net.param_count(), (3 * 5 + 5) + (5 * 2 + 2));
    }

    /// Bits of every parameter gradient, in `visit_params` order.
    fn gradient_bits(net: &mut Sequential) -> Vec<Vec<u32>> {
        let mut bits = Vec::new();
        net.visit_params(&mut |_, grad| {
            bits.push(grad.as_slice().iter().map(|v| v.to_bits()).collect());
        });
        bits
    }

    /// `Sequential::backward`, whose first layer computes parameter
    /// gradients only, against every layer's full `Layer::backward`.
    fn assert_first_layer_params_match_full_backward(build: impl Fn() -> Sequential, x: &Tensor) {
        let labels: Vec<usize> = (0..x.dims()[0]).map(|i| i % 3).collect();
        let loss = SoftmaxCrossEntropy::new();
        let (mut params_only, mut full) = (build(), build());
        let mut grads = Vec::new();
        for net in [&mut params_only, &mut full] {
            net.zero_grad();
            let logits = net.forward(x, Mode::Train).unwrap();
            grads.push(loss.loss_and_grad(&logits, &labels).unwrap().1);
        }
        params_only.backward(&grads[0]).unwrap();
        let mut g = grads[1].clone();
        for layer in full.layers.iter_mut().rev() {
            g = layer.backward(&g).unwrap();
        }
        let got = gradient_bits(&mut params_only);
        assert!(!got.is_empty());
        assert_eq!(got, gradient_bits(&mut full));
    }

    #[test]
    fn backward_leaves_the_parameter_gradients_of_full_backward() {
        let x = Tensor::from_vec(
            (0..5 * 48)
                .map(|i| {
                    if i % 7 == 0 {
                        0.0
                    } else {
                        ((i * 13) % 17) as f32 / 17.0 - 0.3
                    }
                })
                .collect(),
            &[5, 48],
        )
        .unwrap();
        assert_first_layer_params_match_full_backward(
            || {
                let mut rng = StdRng::seed_from_u64(5);
                let mut net = Sequential::new();
                net.push(Dense::new(&mut rng, 48, 20).unwrap());
                net.push(Relu::new());
                net.push(Dense::new(&mut rng, 20, 3).unwrap());
                net
            },
            &x,
        );
        assert_first_layer_params_match_full_backward(
            || {
                let mut rng = StdRng::seed_from_u64(6);
                let geometry = Conv2dGeometry::new(3, 4, 4, 3, 1, 1).unwrap();
                let mut net = Sequential::new();
                net.push(Conv2d::new(&mut rng, geometry, 9).unwrap());
                net.push(Relu::new());
                net.push(Dense::new(&mut rng, 9 * 16, 3).unwrap());
                net
            },
            &x,
        );
    }

    /// A first layer whose input gradient must never be asked for: its
    /// full `backward` panics, its parameter-only pass counts calls.
    struct ParamsOnlyFirst {
        calls: Arc<AtomicUsize>,
    }

    impl Layer for ParamsOnlyFirst {
        fn name(&self) -> &str {
            "params_only_first"
        }

        fn input_width(&self) -> Option<usize> {
            None
        }

        fn output_width(&self) -> Option<usize> {
            None
        }

        fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor> {
            Ok(input.clone())
        }

        fn backward(&mut self, _grad_output: &Tensor) -> Result<Tensor> {
            panic!("the first layer's input gradient was computed");
        }

        fn backward_params(&mut self, _grad_output: &Tensor) -> Result<()> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
    }

    #[test]
    fn training_never_asks_the_first_layer_for_its_input_gradient() {
        let mut rng = StdRng::seed_from_u64(7);
        let calls = Arc::new(AtomicUsize::new(0));
        let mut net = Sequential::new();
        net.push(ParamsOnlyFirst {
            calls: Arc::clone(&calls),
        });
        net.push(Dense::new(&mut rng, 2, 16).unwrap());
        net.push(Relu::new());
        net.push(Dense::new(&mut rng, 16, 2).unwrap());
        let (x, y) = xor_dataset();
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 2,
            ..TrainConfig::default()
        };
        let mut opt = Sgd::new(0.1, 0.0);
        net.fit(
            &x,
            &y,
            &mut opt,
            &SoftmaxCrossEntropy::new(),
            &cfg,
            &mut rng,
        )
        .unwrap();
        // ORDERING: Relaxed — read after `fit` returned on this thread.
        assert_eq!(calls.load(Ordering::Relaxed), 3 * 2);
    }

    #[test]
    fn debug_lists_layer_names() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = build_mlp(&mut rng);
        let dbg = format!("{net:?}");
        assert!(dbg.contains("relu"));
    }
}
