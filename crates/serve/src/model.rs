//! Serializable model specifications and their warm, servable form.
//!
//! A [`ModelSpec`] is the on-disk description of one servable SNN: the
//! converted layer architecture, its parameters (reusing the
//! [`NetworkWeights`] container from `nrsnn-dnn`, in the same
//! weights-then-bias per-layer order), the neural coding, the coding
//! configuration, the deployment noise model and the weight-scaling factor
//! that was folded into the parameters.  [`ModelSpec::build`] turns it into
//! a [`ServedModel`]: the reconstructed [`SnnNetwork`] plus ready-to-use
//! coding and noise objects, kept warm by the registry for the lifetime of
//! the server.

use nrsnn_dnn::NetworkWeights;
use nrsnn_noise::{CompositeNoise, DeletionNoise, JitterNoise};
use nrsnn_snn::{
    CodingConfig, CodingKind, IdentityTransform, NeuralCoding, SnnLayer, SnnNetwork, SpikeTransform,
};
use nrsnn_tensor::{Conv2dGeometry, Pool2dGeometry, Tensor};
use serde::{DeError, Deserialize, Serialize, Value};

use crate::protocol::{seed_from_value, seed_to_value};
use crate::{Result, ServeError};

/// Architecture of one converted-SNN layer, without its parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayerSpec {
    /// Fully connected layer (`out x input` weights plus `out` biases).
    Linear {
        /// Output width.
        out: usize,
        /// Input width.
        input: usize,
    },
    /// Convolution layer (flattened `out_channels x patch` kernel bank plus
    /// `out_channels` biases).
    Conv {
        /// Number of output channels.
        out_channels: usize,
        /// Number of input channels.
        in_channels: usize,
        /// Input height in pixels.
        in_height: usize,
        /// Input width in pixels.
        in_width: usize,
        /// Square kernel size.
        kernel: usize,
        /// Stride in both directions.
        stride: usize,
        /// Symmetric zero padding.
        padding: usize,
    },
    /// Average pooling (parameter-free).
    AvgPool {
        /// Number of channels.
        channels: usize,
        /// Input height in pixels.
        in_height: usize,
        /// Input width in pixels.
        in_width: usize,
        /// Square pooling window.
        window: usize,
        /// Stride (commonly equal to the window).
        stride: usize,
    },
}

impl LayerSpec {
    /// Extracts the architecture of an existing network layer.
    pub fn of_layer(layer: &SnnLayer) -> LayerSpec {
        match layer {
            SnnLayer::Linear { weights, .. } => LayerSpec::Linear {
                out: weights.dims()[0],
                input: weights.dims()[1],
            },
            SnnLayer::Conv {
                weights, geometry, ..
            } => LayerSpec::Conv {
                out_channels: weights.dims()[0],
                in_channels: geometry.in_channels,
                in_height: geometry.in_height,
                in_width: geometry.in_width,
                kernel: geometry.kernel,
                stride: geometry.stride,
                padding: geometry.padding,
            },
            SnnLayer::AvgPool { geometry } => LayerSpec::AvgPool {
                channels: geometry.channels,
                in_height: geometry.in_height,
                in_width: geometry.in_width,
                window: geometry.window,
                stride: geometry.stride,
            },
        }
    }

    /// Number of parameter tensors this layer consumes from the flat
    /// [`NetworkWeights`] list (weights + bias, or none for pooling).
    pub fn param_count(&self) -> usize {
        match self {
            LayerSpec::Linear { .. } | LayerSpec::Conv { .. } => 2,
            LayerSpec::AvgPool { .. } => 0,
        }
    }
}

impl Serialize for LayerSpec {
    fn to_value(&self) -> Value {
        match *self {
            LayerSpec::Linear { out, input } => Value::Object(vec![
                ("kind".to_string(), "linear".to_value()),
                ("out".to_string(), out.to_value()),
                ("in".to_string(), input.to_value()),
            ]),
            LayerSpec::Conv {
                out_channels,
                in_channels,
                in_height,
                in_width,
                kernel,
                stride,
                padding,
            } => Value::Object(vec![
                ("kind".to_string(), "conv".to_value()),
                ("out_channels".to_string(), out_channels.to_value()),
                ("in_channels".to_string(), in_channels.to_value()),
                ("in_height".to_string(), in_height.to_value()),
                ("in_width".to_string(), in_width.to_value()),
                ("kernel".to_string(), kernel.to_value()),
                ("stride".to_string(), stride.to_value()),
                ("padding".to_string(), padding.to_value()),
            ]),
            LayerSpec::AvgPool {
                channels,
                in_height,
                in_width,
                window,
                stride,
            } => Value::Object(vec![
                ("kind".to_string(), "avgpool".to_value()),
                ("channels".to_string(), channels.to_value()),
                ("in_height".to_string(), in_height.to_value()),
                ("in_width".to_string(), in_width.to_value()),
                ("window".to_string(), window.to_value()),
                ("stride".to_string(), stride.to_value()),
            ]),
        }
    }
}

fn field<T: Deserialize>(value: &Value, key: &str) -> std::result::Result<T, DeError> {
    let v = value
        .get(key)
        .ok_or_else(|| DeError::new(format!("missing field {key:?}")))?;
    T::from_value(v)
}

impl Deserialize for LayerSpec {
    fn from_value(value: &Value) -> std::result::Result<Self, DeError> {
        let kind: String = field(value, "kind")?;
        match kind.as_str() {
            "linear" => Ok(LayerSpec::Linear {
                out: field(value, "out")?,
                input: field(value, "in")?,
            }),
            "conv" => Ok(LayerSpec::Conv {
                out_channels: field(value, "out_channels")?,
                in_channels: field(value, "in_channels")?,
                in_height: field(value, "in_height")?,
                in_width: field(value, "in_width")?,
                kernel: field(value, "kernel")?,
                stride: field(value, "stride")?,
                padding: field(value, "padding")?,
            }),
            "avgpool" => Ok(LayerSpec::AvgPool {
                channels: field(value, "channels")?,
                in_height: field(value, "in_height")?,
                in_width: field(value, "in_width")?,
                window: field(value, "window")?,
                stride: field(value, "stride")?,
            }),
            other => Err(DeError::new(format!("unknown layer kind {other:?}"))),
        }
    }
}

/// Serializable description of the noise transform a model is served under.
#[derive(Debug, Clone, PartialEq)]
pub enum NoiseSpec {
    /// No noise (the clean baseline).
    Clean,
    /// Independent per-spike deletion with the given probability.
    Deletion(f64),
    /// Gaussian spike-time jitter with the given standard deviation.
    Jitter(f64),
    /// A chain of primitive stages applied in order (stages must not
    /// themselves be composites).
    Composite(Vec<NoiseSpec>),
}

impl NoiseSpec {
    /// Builds the runtime transform this specification describes.
    ///
    /// # Errors
    /// Returns [`ServeError::Model`] for out-of-range parameters or nested
    /// composites.
    pub fn build(&self) -> Result<Box<dyn SpikeTransform>> {
        match self {
            NoiseSpec::Clean => Ok(Box::new(IdentityTransform)),
            NoiseSpec::Deletion(p) => Ok(Box::new(DeletionNoise::new(*p)?)),
            NoiseSpec::Jitter(sigma) => Ok(Box::new(JitterNoise::new(*sigma)?)),
            NoiseSpec::Composite(stages) => {
                let mut chain = CompositeNoise::new();
                for stage in stages {
                    chain = match stage {
                        NoiseSpec::Clean => chain,
                        NoiseSpec::Deletion(p) => chain.then(DeletionNoise::new(*p)?),
                        NoiseSpec::Jitter(sigma) => chain.then(JitterNoise::new(*sigma)?),
                        NoiseSpec::Composite(_) => {
                            return Err(ServeError::Model(
                                "composite noise stages must be primitive".to_string(),
                            ))
                        }
                    };
                }
                Ok(Box::new(chain))
            }
        }
    }
}

impl Serialize for NoiseSpec {
    fn to_value(&self) -> Value {
        match self {
            NoiseSpec::Clean => Value::Object(vec![("kind".to_string(), "clean".to_value())]),
            NoiseSpec::Deletion(p) => Value::Object(vec![
                ("kind".to_string(), "deletion".to_value()),
                ("p".to_string(), p.to_value()),
            ]),
            NoiseSpec::Jitter(sigma) => Value::Object(vec![
                ("kind".to_string(), "jitter".to_value()),
                ("sigma".to_string(), sigma.to_value()),
            ]),
            NoiseSpec::Composite(stages) => Value::Object(vec![
                ("kind".to_string(), "composite".to_value()),
                ("stages".to_string(), stages.to_value()),
            ]),
        }
    }
}

impl Deserialize for NoiseSpec {
    fn from_value(value: &Value) -> std::result::Result<Self, DeError> {
        let kind: String = field(value, "kind")?;
        match kind.as_str() {
            "clean" => Ok(NoiseSpec::Clean),
            "deletion" => Ok(NoiseSpec::Deletion(field(value, "p")?)),
            "jitter" => Ok(NoiseSpec::Jitter(field(value, "sigma")?)),
            "composite" => Ok(NoiseSpec::Composite(field(value, "stages")?)),
            other => Err(DeError::new(format!("unknown noise kind {other:?}"))),
        }
    }
}

fn coding_to_value(kind: CodingKind) -> Value {
    match kind {
        CodingKind::Rate => Value::Object(vec![("kind".to_string(), "rate".to_value())]),
        CodingKind::Phase => Value::Object(vec![("kind".to_string(), "phase".to_value())]),
        CodingKind::Burst => Value::Object(vec![("kind".to_string(), "burst".to_value())]),
        CodingKind::Ttfs => Value::Object(vec![("kind".to_string(), "ttfs".to_value())]),
        CodingKind::Ttas(t_a) => Value::Object(vec![
            ("kind".to_string(), "ttas".to_value()),
            ("t_a".to_string(), t_a.to_value()),
        ]),
    }
}

fn coding_from_value(value: &Value) -> std::result::Result<CodingKind, DeError> {
    let kind: String = field(value, "kind")?;
    match kind.as_str() {
        "rate" => Ok(CodingKind::Rate),
        "phase" => Ok(CodingKind::Phase),
        "burst" => Ok(CodingKind::Burst),
        "ttfs" => Ok(CodingKind::Ttfs),
        "ttas" => Ok(CodingKind::Ttas(field(value, "t_a")?)),
        other => Err(DeError::new(format!("unknown coding kind {other:?}"))),
    }
}

/// The serializable description of one servable model.
///
/// The parameters in `weights` are the final (already weight-scaled)
/// converted-SNN tensors, in layer order with weights before bias —
/// exactly the order [`ModelSpec::from_network`] extracts them in.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Registry name clients address the model by.
    pub name: String,
    /// Neural coding used for every layer.
    pub coding: CodingKind,
    /// Simulation window length per layer.
    pub time_steps: u32,
    /// Encoding ceiling θ.
    pub threshold: f32,
    /// TTFS/TTAS PSC time constant as a fraction of the window.
    pub ttfs_tau_fraction: f32,
    /// The weight-scaling factor already folded into `weights` (recorded
    /// for reports; `1.0` means unscaled).
    pub scaling: f32,
    /// Noise transform injected into every transmitted raster.
    pub noise: NoiseSpec,
    /// Master seed mixed with each request's seed via
    /// [`nrsnn_runtime::derive_seed`].
    pub master_seed: u64,
    /// Layer architecture, input layer first.
    pub layers: Vec<LayerSpec>,
    /// Flat parameter list (see the struct docs for the order).
    pub weights: NetworkWeights,
}

impl ModelSpec {
    /// Captures an existing converted network as a servable specification.
    ///
    /// `scaling` records the factor already folded into the network's
    /// weights (use `1.0` for an unscaled conversion).
    pub fn from_network(
        name: impl Into<String>,
        network: &SnnNetwork,
        coding: CodingKind,
        config: &CodingConfig,
        noise: NoiseSpec,
        scaling: f32,
        master_seed: u64,
    ) -> ModelSpec {
        let mut params = Vec::new();
        let mut layers = Vec::with_capacity(network.num_layers());
        for layer in network.layers() {
            layers.push(LayerSpec::of_layer(layer));
            match layer {
                SnnLayer::Linear { weights, bias } | SnnLayer::Conv { weights, bias, .. } => {
                    params.push(weights.clone());
                    params.push(bias.clone());
                }
                SnnLayer::AvgPool { .. } => {}
            }
        }
        ModelSpec {
            name: name.into(),
            coding,
            time_steps: config.time_steps,
            threshold: config.threshold,
            ttfs_tau_fraction: config.ttfs_tau_fraction,
            scaling,
            noise,
            master_seed,
            layers,
            weights: NetworkWeights { params },
        }
    }

    /// The coding configuration this specification describes.
    pub fn coding_config(&self) -> CodingConfig {
        CodingConfig {
            time_steps: self.time_steps,
            threshold: self.threshold,
            ttfs_tau_fraction: self.ttfs_tau_fraction,
        }
    }

    /// Reconstructs the network and warms up the coding and noise objects.
    ///
    /// # Errors
    /// Returns [`ServeError::Model`] if the parameter list does not match
    /// the declared architecture, and propagates geometry/validation
    /// errors.
    pub fn build(&self) -> Result<ServedModel> {
        let expected: usize = self.layers.iter().map(LayerSpec::param_count).sum();
        if self.weights.params.len() != expected {
            return Err(ServeError::Model(format!(
                "model {:?} declares {} parameter tensors but carries {}",
                self.name,
                expected,
                self.weights.params.len()
            )));
        }
        let mut params = self.weights.params.iter();
        let mut take_pair = |what: &str, dims: &[usize]| -> Result<(Tensor, Tensor)> {
            // UNWRAP: infallible — the parameter count was checked against `expected` above.
            let weights = params.next().expect("count checked above").clone();
            // UNWRAP: infallible — same count check covers the bias tensor.
            let bias = params.next().expect("count checked above").clone();
            if weights.dims() != dims {
                return Err(ServeError::Model(format!(
                    "model {:?}: {what} weights have shape {:?}, expected {dims:?}",
                    self.name,
                    weights.dims()
                )));
            }
            if bias.dims() != [dims[0]] {
                return Err(ServeError::Model(format!(
                    "model {:?}: {what} bias has shape {:?}, expected [{}]",
                    self.name,
                    bias.dims(),
                    dims[0]
                )));
            }
            Ok((weights, bias))
        };

        let mut layers = Vec::with_capacity(self.layers.len());
        for spec in &self.layers {
            match *spec {
                LayerSpec::Linear { out, input } => {
                    let (weights, bias) = take_pair("linear", &[out, input])?;
                    layers.push(SnnLayer::Linear { weights, bias });
                }
                LayerSpec::Conv {
                    out_channels,
                    in_channels,
                    in_height,
                    in_width,
                    kernel,
                    stride,
                    padding,
                } => {
                    let geometry = Conv2dGeometry::new(
                        in_channels,
                        in_height,
                        in_width,
                        kernel,
                        stride,
                        padding,
                    )
                    .map_err(|e| ServeError::Model(e.to_string()))?;
                    let (weights, bias) = take_pair("conv", &[out_channels, geometry.patch_len()])?;
                    layers.push(SnnLayer::Conv {
                        weights,
                        bias,
                        geometry,
                    });
                }
                LayerSpec::AvgPool {
                    channels,
                    in_height,
                    in_width,
                    window,
                    stride,
                } => {
                    let geometry =
                        Pool2dGeometry::new(channels, in_height, in_width, window, stride)
                            .map_err(|e| ServeError::Model(e.to_string()))?;
                    layers.push(SnnLayer::AvgPool { geometry });
                }
            }
        }
        let network = SnnNetwork::new(layers).map_err(|e| ServeError::Model(e.to_string()))?;
        // A model file carrying a degenerate coding (e.g. TTAS with a
        // zero-length burst) is rejected here with a typed error instead of
        // being silently coerced into a different coding.
        self.coding
            .validate()
            .map_err(|e| ServeError::Model(e.to_string()))?;
        let config = self.coding_config();
        config
            .validate()
            .map_err(|e| ServeError::Model(e.to_string()))?;
        Ok(ServedModel {
            name: self.name.clone(),
            coding_kind: self.coding,
            coding: self.coding.build(),
            config,
            noise: self.noise.build()?,
            noise_spec: self.noise.clone(),
            scaling: self.scaling,
            master_seed: self.master_seed,
            network,
        })
    }

    /// Serializes the specification as compact JSON.
    pub fn to_json(&self) -> String {
        // UNWRAP: infallible — `ModelSpec` contains no map keys or
        // non-string-keyed data the JSON shim can reject.
        serde_json::to_string(self).expect("shim serialization is infallible")
    }

    /// Parses a specification from JSON text.
    ///
    /// # Errors
    /// Returns [`ServeError::Model`] on malformed JSON or schema mismatch.
    pub fn from_json(json: &str) -> Result<ModelSpec> {
        serde_json::from_str(json).map_err(|e| ServeError::Model(e.to_string()))
    }

    /// Serializes the specification as a binary `nrsnn-wire` model file
    /// image (`NRSM` magic; see `nrsnn_wire::model` for the layout).
    /// Unlike [`ModelSpec::to_json`], the binary image is bit-exact and
    /// roughly 3x smaller: weights travel as raw IEEE bits and the master
    /// seed as a full u64.
    ///
    /// # Errors
    /// Returns [`ServeError::Model`] for specs the format cannot carry
    /// (dimensions above `u32::MAX`, nested composite noise).
    pub fn to_binary(&self) -> Result<Vec<u8>> {
        nrsnn_wire::encode_model(&crate::binary::spec_to_record(self))
            .map_err(|e| ServeError::Model(e.to_string()))
    }

    /// Parses a specification from a binary model file image.
    ///
    /// # Errors
    /// Returns [`ServeError::Model`] on any decode failure (bad magic,
    /// unsupported version, truncation, corrupt payload).
    pub fn from_binary(bytes: &[u8]) -> Result<ModelSpec> {
        nrsnn_wire::decode_model(bytes)
            .map(crate::binary::record_to_spec)
            .map_err(|e| ServeError::Model(e.to_string()))
    }
}

impl Serialize for ModelSpec {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("name".to_string(), self.name.to_value()),
            ("coding".to_string(), coding_to_value(self.coding)),
            ("time_steps".to_string(), self.time_steps.to_value()),
            ("threshold".to_string(), self.threshold.to_value()),
            (
                "ttfs_tau_fraction".to_string(),
                self.ttfs_tau_fraction.to_value(),
            ),
            ("scaling".to_string(), self.scaling.to_value()),
            ("noise".to_string(), self.noise.to_value()),
            ("master_seed".to_string(), seed_to_value(self.master_seed)),
            ("layers".to_string(), self.layers.to_value()),
            ("weights".to_string(), self.weights.to_value()),
        ])
    }
}

impl Deserialize for ModelSpec {
    fn from_value(value: &Value) -> std::result::Result<Self, DeError> {
        Ok(ModelSpec {
            name: field(value, "name")?,
            coding: coding_from_value(
                value
                    .get("coding")
                    .ok_or_else(|| DeError::new("missing field \"coding\""))?,
            )?,
            time_steps: field(value, "time_steps")?,
            threshold: field(value, "threshold")?,
            ttfs_tau_fraction: field(value, "ttfs_tau_fraction")?,
            scaling: field(value, "scaling")?,
            noise: field(value, "noise")?,
            master_seed: seed_from_value(
                value
                    .get("master_seed")
                    .ok_or_else(|| DeError::new("missing field \"master_seed\""))?,
            )?,
            layers: field(value, "layers")?,
            weights: field(value, "weights")?,
        })
    }
}

/// A model kept warm by the registry: the reconstructed network plus
/// ready-built coding and noise objects.
pub struct ServedModel {
    /// Registry name.
    pub name: String,
    /// The coding kind tag (for reports and stats).
    pub coding_kind: CodingKind,
    /// The warm coding object.
    pub coding: Box<dyn NeuralCoding>,
    /// Shared coding configuration.
    pub config: CodingConfig,
    /// The warm noise transform.
    pub noise: Box<dyn SpikeTransform>,
    /// The serializable description of `noise`.
    pub noise_spec: NoiseSpec,
    /// Weight-scaling factor folded into the network.
    pub scaling: f32,
    /// Master seed mixed with each request's seed.
    pub master_seed: u64,
    /// The converted (and scaled) network.
    pub network: SnnNetwork,
}

impl ServedModel {
    /// Builds a served model directly from parts (the in-process
    /// equivalent of loading a [`ModelSpec`]).
    ///
    /// # Errors
    /// Propagates coding-kind and coding-configuration validation and noise
    /// construction — a degenerate coding (e.g. `Ttas(0)`) is a typed
    /// [`ServeError::Model`] at load time, never a silently coerced
    /// parameter serving live traffic.
    pub fn new(
        name: impl Into<String>,
        network: SnnNetwork,
        coding: CodingKind,
        config: CodingConfig,
        noise: NoiseSpec,
        scaling: f32,
        master_seed: u64,
    ) -> Result<ServedModel> {
        coding
            .validate()
            .map_err(|e| ServeError::Model(e.to_string()))?;
        config
            .validate()
            .map_err(|e| ServeError::Model(e.to_string()))?;
        Ok(ServedModel {
            name: name.into(),
            coding_kind: coding,
            coding: coding.build(),
            config,
            noise: noise.build()?,
            noise_spec: noise,
            scaling,
            master_seed,
            network,
        })
    }

    /// Input width a request for this model must carry.
    pub fn input_width(&self) -> usize {
        self.network.input_width()
    }

    /// Re-captures the model as a serializable specification.
    pub fn to_spec(&self) -> ModelSpec {
        ModelSpec::from_network(
            self.name.clone(),
            &self.network,
            self.coding_kind,
            &self.config,
            self.noise_spec.clone(),
            self.scaling,
            self.master_seed,
        )
    }
}

impl std::fmt::Debug for ServedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServedModel")
            .field("name", &self.name)
            .field("coding", &self.coding_kind)
            .field("layers", &self.network.num_layers())
            .field("input_width", &self.network.input_width())
            .field("noise", &self.noise.describe())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_network() -> SnnNetwork {
        SnnNetwork::new(vec![
            SnnLayer::Linear {
                weights: Tensor::from_vec(vec![0.6, 0.4, 0.3, 0.7], &[2, 2]).unwrap(),
                bias: Tensor::from_vec(vec![0.05, -0.05], &[2]).unwrap(),
            },
            SnnLayer::Linear {
                weights: Tensor::from_vec(vec![1.0, -1.0, -1.0, 1.0], &[2, 2]).unwrap(),
                bias: Tensor::zeros(&[2]),
            },
        ])
        .unwrap()
    }

    fn toy_spec() -> ModelSpec {
        ModelSpec::from_network(
            "toy",
            &toy_network(),
            CodingKind::Ttas(5),
            &CodingConfig::new(64, 1.0),
            NoiseSpec::Deletion(0.3),
            1.0,
            2021,
        )
    }

    #[test]
    fn degenerate_coding_kind_is_rejected_at_load_time() {
        // In-process construction path.
        assert!(matches!(
            ServedModel::new(
                "bad",
                toy_network(),
                CodingKind::Ttas(0),
                CodingConfig::new(64, 1.0),
                NoiseSpec::Clean,
                1.0,
                7,
            ),
            Err(ServeError::Model(_))
        ));
        // Model-file loading path: the same degenerate kind embedded in an
        // otherwise valid spec must fail `build`, not serve coerced.
        let mut spec = toy_spec();
        spec.coding = CodingKind::Ttas(0);
        assert!(matches!(spec.build(), Err(ServeError::Model(_))));

        // An infinite threshold θ (a model file stores it as raw f32 bits)
        // would rate-decode every silent neuron to `0 · ∞ = NaN`: both
        // paths must reject it too.
        assert!(matches!(
            ServedModel::new(
                "bad",
                toy_network(),
                CodingKind::Rate,
                CodingConfig::new(64, f32::INFINITY),
                NoiseSpec::Clean,
                1.0,
                7,
            ),
            Err(ServeError::Model(_))
        ));
        let mut spec = toy_spec();
        spec.threshold = f32::INFINITY;
        assert!(matches!(spec.build(), Err(ServeError::Model(_))));
    }

    #[test]
    fn spec_round_trips_through_json_exactly() {
        let spec = toy_spec();
        let json = spec.to_json();
        let back = ModelSpec::from_json(&json).unwrap();
        assert_eq!(back, spec);
        // Parameter bytes survive the trip bit-for-bit.
        assert_eq!(back.weights, spec.weights);
    }

    #[test]
    fn built_model_simulates_identically_to_the_source_network() {
        let spec = toy_spec();
        let served = ModelSpec::from_json(&spec.to_json())
            .unwrap()
            .build()
            .unwrap();
        let source = toy_network();
        let coding = CodingKind::Ttas(5).build();
        let cfg = CodingConfig::new(64, 1.0);
        let noise = DeletionNoise::new(0.3).unwrap();
        for seed in 0..4u64 {
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let a = source
                .simulate(&[0.8, 0.3], coding.as_ref(), &cfg, &noise, &mut rng_a)
                .unwrap();
            let b = served
                .network
                .simulate(
                    &[0.8, 0.3],
                    served.coding.as_ref(),
                    &served.config,
                    served.noise.as_ref(),
                    &mut rng_b,
                )
                .unwrap();
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn build_rejects_mismatched_parameter_lists() {
        let mut spec = toy_spec();
        spec.weights.params.pop();
        assert!(matches!(spec.build(), Err(ServeError::Model(_))));

        let mut spec = toy_spec();
        spec.layers[0] = LayerSpec::Linear { out: 3, input: 2 };
        assert!(matches!(spec.build(), Err(ServeError::Model(_))));

        // A conv whose C·K·K and C·H·W overflow usize: release builds
        // wrapped both to 0, so an empty input reached im2col's unchecked
        // loop.  Rejected directly and after an NRSM round trip.
        let mut spec = toy_spec();
        spec.layers = vec![LayerSpec::Conv {
            out_channels: 1,
            in_channels: 1 << 22,
            in_height: 1 << 21,
            in_width: 1 << 21,
            kernel: 1 << 21,
            stride: 1,
            padding: 0,
        }];
        spec.weights.params = vec![Tensor::zeros(&[1, 0]), Tensor::zeros(&[1])];
        assert!(matches!(spec.build(), Err(ServeError::Model(_))));
        let loaded = ModelSpec::from_binary(&spec.to_binary().unwrap()).unwrap();
        assert!(matches!(loaded.build(), Err(ServeError::Model(_))));
    }

    #[test]
    fn noise_specs_build_their_transforms() {
        assert!(NoiseSpec::Clean.build().unwrap().is_identity());
        assert_eq!(
            NoiseSpec::Deletion(0.4).build().unwrap().describe(),
            "deletion(p=0.4)"
        );
        assert!(NoiseSpec::Jitter(-1.0).build().is_err());
        assert!(NoiseSpec::Deletion(1.5).build().is_err());
        let composite =
            NoiseSpec::Composite(vec![NoiseSpec::Deletion(0.2), NoiseSpec::Jitter(1.0)]);
        assert!(composite.build().is_ok());
        let nested = NoiseSpec::Composite(vec![NoiseSpec::Composite(vec![])]);
        assert!(nested.build().is_err());
    }

    #[test]
    fn large_master_seeds_round_trip() {
        let mut spec = toy_spec();
        spec.master_seed = u64::MAX - 12345;
        let back = ModelSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back.master_seed, spec.master_seed);
    }

    #[test]
    fn coding_kinds_round_trip() {
        for kind in [
            CodingKind::Rate,
            CodingKind::Phase,
            CodingKind::Burst,
            CodingKind::Ttfs,
            CodingKind::Ttas(7),
        ] {
            let v = coding_to_value(kind);
            assert_eq!(coding_from_value(&v).unwrap(), kind);
        }
    }

    #[test]
    fn conv_and_pool_layers_round_trip() {
        let geometry = Conv2dGeometry::new(1, 8, 8, 3, 1, 1).unwrap();
        let conv = SnnLayer::Conv {
            weights: Tensor::ones(&[2, geometry.patch_len()]),
            bias: Tensor::zeros(&[2]),
            geometry,
        };
        let pool = SnnLayer::AvgPool {
            geometry: Pool2dGeometry::new(2, 8, 8, 2, 2).unwrap(),
        };
        let dense = SnnLayer::Linear {
            weights: Tensor::ones(&[3, 2 * 4 * 4]),
            bias: Tensor::zeros(&[3]),
        };
        let network = SnnNetwork::new(vec![conv, pool, dense]).unwrap();
        let spec = ModelSpec::from_network(
            "cnn",
            &network,
            CodingKind::Rate,
            &CodingConfig::new(32, 1.0),
            NoiseSpec::Clean,
            1.0,
            7,
        );
        let served = ModelSpec::from_json(&spec.to_json())
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(served.network, network);
        assert_eq!(served.to_spec(), spec);
    }
}
