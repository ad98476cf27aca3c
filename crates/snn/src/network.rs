//! Converted spiking networks and their simulation.
//!
//! The engine is a layer-wise relay, not a clock-driven simulator.  For
//! each layer it runs four stages in order: **encode** the incoming
//! activation vector into a spike raster (one train per neuron over the
//! `T`-step window), apply the synaptic **noise** model to the raster,
//! **decode** every received train through the coding's PSC kernel, and
//! run the layer's analog **forward** pass (a dense bias-seeded mat-vec, a
//! convolution or an average pool) on the decoded vector.  The ReLU'd
//! forward output is the next layer's encode input; the last layer's raw
//! output is the logits.
//!
//! Two simulation paths share that relay and produce bit-identical results:
//!
//! * the **workspace path** — [`SnnNetwork::simulate_with`] /
//!   [`SnnNetwork::simulate_batch`] write every intermediate (rasters,
//!   decoded activations, matmul scratch) into a caller-provided
//!   [`SimWorkspace`], allocating nothing in steady state;
//! * the **reference path** — [`SnnNetwork::simulate_unbuffered`] keeps the
//!   original allocate-per-call implementation as an executable
//!   specification; the `workspace_bit_identity` integration tests assert
//!   byte-for-byte equality between the two, and the `sim_throughput` bench
//!   measures the speedup.
//!
//! [`SnnNetwork::simulate`] is a thin wrapper over a one-shot workspace, so
//! existing callers keep their API and gain the allocation-free inner loop.

use std::ops::Range;
// nrsnn-lint: allow(forbidden-api) -- stage tracing needs a raw monotonic
// stamp and snn must stay obs-free (layering); serve converts these spans
// onto the obs epoch at ingest.
use std::time::Instant;

use nrsnn_tensor::{
    im2col, im2col_slices, matmul_sparse_into, matmul_sparse_slices, matvec_bias_slices, transpose,
    transpose_slices, Conv2dGeometry, Pool2dGeometry, Tensor,
};
use rand::RngCore;

use crate::workspace::ConvScratch;
use crate::{
    BatchOutcome, CodingConfig, CodingScratch, NeuralCoding, Result, SimStage, SimWorkspace,
    SnnError, SpikeRaster, StageEvent,
};

/// One layer of a converted spiking network.
#[derive(Debug, Clone, PartialEq)]
pub enum SnnLayer {
    /// Fully connected layer with normalised weights `(out x in)` and bias.
    Linear {
        /// Normalised weight matrix.
        weights: Tensor,
        /// Normalised bias vector.
        bias: Tensor,
    },
    /// Convolution layer with flattened kernel bank `(out_ch x patch)`.
    Conv {
        /// Normalised, flattened kernel bank.
        weights: Tensor,
        /// Normalised bias vector.
        bias: Tensor,
        /// Convolution geometry.
        geometry: Conv2dGeometry,
    },
    /// Average pooling (parameter-free).
    AvgPool {
        /// Pooling geometry.
        geometry: Pool2dGeometry,
    },
}

impl SnnLayer {
    /// Input width of the layer.
    pub fn input_width(&self) -> usize {
        match self {
            SnnLayer::Linear { weights, .. } => weights.dims()[1],
            SnnLayer::Conv { geometry, .. } => geometry.in_len(),
            SnnLayer::AvgPool { geometry } => geometry.in_len(),
        }
    }

    /// Output width of the layer.
    pub fn output_width(&self) -> usize {
        match self {
            SnnLayer::Linear { weights, .. } => weights.dims()[0],
            SnnLayer::Conv {
                weights, geometry, ..
            } => weights.dims()[0] * geometry.out_positions(),
            SnnLayer::AvgPool { geometry } => geometry.out_len(),
        }
    }

    /// Multiplies the layer's synaptic weights by `factor` (weight scaling).
    pub fn scale_weights(&mut self, factor: f32) {
        match self {
            SnnLayer::Linear { weights, .. } | SnnLayer::Conv { weights, .. } => {
                *weights = weights.scale(factor);
            }
            SnnLayer::AvgPool { .. } => {}
        }
    }

    /// Analog forward pass of this layer on a dense activation vector, with
    /// ReLU left to the caller.
    ///
    /// Weighted layers seed their accumulators from the bias and add the
    /// input terms in the same order as the workspace kernels, so the
    /// reference and workspace simulation paths stay bit-identical.
    fn forward_analog(&self, input: &[f32]) -> Result<Vec<f32>> {
        match self {
            SnnLayer::Linear { weights, bias } => {
                let (m, n) = (weights.dims()[0], weights.dims()[1]);
                let mut out = vec![0.0f32; m];
                matvec_bias_slices(weights.as_slice(), m, n, input, bias.as_slice(), &mut out);
                Ok(out)
            }
            SnnLayer::Conv {
                weights,
                bias,
                geometry,
            } => {
                let x = Tensor::from_slice(input);
                let cols = im2col(&x, geometry)?;
                let wt = transpose(weights)?;
                // (positions x out_ch), bias folded into the accumulator seed.
                let mut prod = Vec::new();
                matmul_sparse_into(&cols, &wt, bias, &mut prod)?;
                let positions = geometry.out_positions();
                let out_ch = weights.dims()[0];
                let mut out = vec![0.0f32; out_ch * positions];
                for c in 0..out_ch {
                    for p in 0..positions {
                        out[c * positions + p] = prod[p * out_ch + c];
                    }
                }
                Ok(out)
            }
            SnnLayer::AvgPool { geometry } => {
                let g = geometry;
                let (oh, ow) = (g.out_height(), g.out_width());
                let mut out = vec![0.0f32; g.out_len()];
                let area = (g.window * g.window) as f32;
                for c in 0..g.channels {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut acc = 0.0;
                            for ky in 0..g.window {
                                for kx in 0..g.window {
                                    let iy = oy * g.stride + ky;
                                    let ix = ox * g.stride + kx;
                                    acc +=
                                        input[c * g.in_height * g.in_width + iy * g.in_width + ix];
                                }
                            }
                            out[c * oh * ow + oy * ow + ox] = acc / area;
                        }
                    }
                }
                Ok(out)
            }
        }
    }

    /// Allocation-free analog forward pass: writes the layer output into
    /// `out` (cleared and resized, capacity kept), using `scratch` for the
    /// convolution intermediates.
    ///
    /// Performs the same floating-point operations in the same order as
    /// [`SnnLayer::forward_analog`], so the two produce bit-identical
    /// results.
    fn forward_analog_into(&self, input: &[f32], scratch: &mut ConvScratch, out: &mut Vec<f32>) {
        match self {
            SnnLayer::Linear { weights, bias } => {
                let (m, n) = (weights.dims()[0], weights.dims()[1]);
                out.clear();
                out.resize(m, 0.0);
                matvec_bias_slices(weights.as_slice(), m, n, input, bias.as_slice(), out);
            }
            SnnLayer::Conv {
                weights,
                bias,
                geometry,
            } => {
                let patch = geometry.patch_len();
                let positions = geometry.out_positions();
                let out_ch = weights.dims()[0];
                scratch.cols.clear();
                scratch.cols.resize(positions * patch, 0.0);
                im2col_slices(input, geometry, &mut scratch.cols);
                scratch.weights_t.clear();
                scratch.weights_t.resize(patch * out_ch, 0.0);
                transpose_slices(weights.as_slice(), out_ch, patch, &mut scratch.weights_t);
                scratch.prod.clear();
                scratch.prod.resize(positions * out_ch, 0.0);
                // Bias-seeded and skipping exact-zero patch entries: the
                // convolution arm is inherently input-sparsity-aware, its
                // FLOPs scale with the number of nonzero decoded activations
                // gathered into the patch matrix.
                matmul_sparse_slices(
                    &scratch.cols,
                    positions,
                    patch,
                    &scratch.weights_t,
                    out_ch,
                    bias.as_slice(),
                    &mut scratch.prod,
                );
                out.clear();
                out.resize(out_ch * positions, 0.0);
                for c in 0..out_ch {
                    for p in 0..positions {
                        out[c * positions + p] = scratch.prod[p * out_ch + c];
                    }
                }
            }
            SnnLayer::AvgPool { geometry } => {
                let g = geometry;
                let (oh, ow) = (g.out_height(), g.out_width());
                out.clear();
                out.resize(g.out_len(), 0.0);
                let area = (g.window * g.window) as f32;
                for c in 0..g.channels {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut acc = 0.0;
                            for ky in 0..g.window {
                                for kx in 0..g.window {
                                    let iy = oy * g.stride + ky;
                                    let ix = ox * g.stride + kx;
                                    acc +=
                                        input[c * g.in_height * g.in_width + iy * g.in_width + ix];
                                }
                            }
                            out[c * oh * ow + oy * ow + ox] = acc / area;
                        }
                    }
                }
            }
        }
    }
}

/// A transformation applied to every layer-to-layer spike raster during
/// simulation.
///
/// `nrsnn-noise` implements spike deletion and jitter on top of this hook;
/// [`IdentityTransform`] is the noise-free baseline.
///
/// Transforms must be `Send + Sync`: the sweep engine in `nrsnn` fans one
/// noise model out across a thread pool, with every simulation task holding
/// a shared reference to it.  Randomness is never stored in the transform —
/// it flows in per call through the `rng` parameter — so implementations are
/// naturally immutable state plus parameters.
pub trait SpikeTransform: Send + Sync {
    /// Produces the (possibly corrupted) raster actually received by the
    /// next layer.
    fn apply(&self, raster: &SpikeRaster, rng: &mut dyn RngCore) -> SpikeRaster;

    /// In-place sibling of [`SpikeTransform::apply`]: writes the transformed
    /// raster into `out`, reusing its buffers.
    ///
    /// Must produce the same raster as `apply` and consume the RNG in the
    /// same order.  The default delegates to `apply` (allocating);
    /// implementations on the hot path override it with an allocation-free
    /// version (see `nrsnn-noise`).
    fn apply_into(&self, raster: &SpikeRaster, out: &mut SpikeRaster, rng: &mut dyn RngCore) {
        *out = self.apply(raster, rng);
    }

    /// Mutating variant of [`SpikeTransform::apply`]: transforms `raster` in
    /// place.
    ///
    /// Must produce the same raster as `apply` and consume the RNG in the
    /// same order.  The default buffers through a scratch raster
    /// (allocating); the deletion/jitter models in `nrsnn-noise` override it
    /// allocation-free, which is what keeps multi-stage `CompositeNoise`
    /// chains allocation-free too — the composite writes its first stage via
    /// `apply_into` and applies the remaining stages in place.
    fn apply_in_place(&self, raster: &mut SpikeRaster, rng: &mut dyn RngCore) {
        let mut scratch = SpikeRaster::default();
        self.apply_into(raster, &mut scratch, rng);
        raster.copy_from(&scratch);
    }

    /// Returns `true` if `apply` is guaranteed to return the raster
    /// unchanged *and* to consume no randomness for the current parameters
    /// (e.g. deletion with `p = 0`).
    ///
    /// The simulation engine uses this to skip the transform entirely on the
    /// no-noise path instead of cloning the full raster; because an identity
    /// transform draws nothing from the RNG, skipping it leaves all
    /// downstream random draws — and therefore all results — unchanged.
    fn is_identity(&self) -> bool {
        false
    }

    /// Short description used in reports.
    fn describe(&self) -> String {
        "unnamed transform".to_string()
    }
}

/// The no-noise transform: spikes pass through unchanged.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityTransform;

impl SpikeTransform for IdentityTransform {
    fn apply(&self, raster: &SpikeRaster, _rng: &mut dyn RngCore) -> SpikeRaster {
        raster.clone()
    }

    fn apply_into(&self, raster: &SpikeRaster, out: &mut SpikeRaster, _rng: &mut dyn RngCore) {
        out.copy_from(raster);
    }

    fn apply_in_place(&self, _raster: &mut SpikeRaster, _rng: &mut dyn RngCore) {}

    fn is_identity(&self) -> bool {
        true
    }

    fn describe(&self) -> String {
        "clean".to_string()
    }
}

/// Everything measured during one simulated inference.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationOutcome {
    /// Output-layer activations (analog read-out of the last layer).
    pub logits: Vec<f32>,
    /// Index of the winning output neuron.
    pub predicted: usize,
    /// Total number of spikes transmitted across all layers (after noise).
    pub total_spikes: usize,
    /// Number of transmitted spikes per raster (input raster first).
    pub spikes_per_layer: Vec<usize>,
}

/// A converted spiking network: a chain of [`SnnLayer`]s simulated layer by
/// layer under a chosen neural coding.
#[derive(Debug, Clone, PartialEq)]
pub struct SnnNetwork {
    layers: Vec<SnnLayer>,
}

impl SnnNetwork {
    /// Creates a network after validating that consecutive layer widths
    /// match.
    ///
    /// # Errors
    /// Returns [`SnnError::Conversion`] for an empty chain or mismatched
    /// widths.
    pub fn new(layers: Vec<SnnLayer>) -> Result<Self> {
        if layers.is_empty() {
            return Err(SnnError::Conversion(
                "network needs at least one layer".to_string(),
            ));
        }
        for pair in layers.windows(2) {
            if pair[0].output_width() != pair[1].input_width() {
                return Err(SnnError::Conversion(format!(
                    "layer width mismatch: {} feeds {}",
                    pair[0].output_width(),
                    pair[1].input_width()
                )));
            }
        }
        Ok(SnnNetwork { layers })
    }

    /// The layers of the network.
    pub fn layers(&self) -> &[SnnLayer] {
        &self.layers
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Input width expected by the first layer.
    pub fn input_width(&self) -> usize {
        self.layers[0].input_width()
    }

    /// Output width produced by the last layer.
    pub fn output_width(&self) -> usize {
        self.layers[self.layers.len() - 1].output_width()
    }

    /// Multiplies every synaptic weight by `factor` (the paper's weight
    /// scaling compensation, applied after conversion).
    pub fn scale_weights(&mut self, factor: f32) {
        for layer in &mut self.layers {
            layer.scale_weights(factor);
        }
    }

    /// Analog (non-spiking) forward pass of layer `index` — used by tests
    /// and by the conversion sanity checks.
    ///
    /// # Errors
    /// Returns [`SnnError::InvalidConfig`] if `index >= num_layers()` and
    /// [`SnnError::InputMismatch`] for a wrong input width.
    pub fn analog_forward_layer(&self, index: usize, input: &[f32]) -> Result<Vec<f32>> {
        let layer = self.layers.get(index).ok_or_else(|| {
            SnnError::InvalidConfig(format!(
                "layer index {index} out of range for a {}-layer network",
                self.layers.len()
            ))
        })?;
        if input.len() != layer.input_width() {
            return Err(SnnError::InputMismatch {
                expected: layer.input_width(),
                actual: input.len(),
            });
        }
        let mut out = layer.forward_analog(input)?;
        if index + 1 < self.layers.len() {
            for v in &mut out {
                *v = v.max(0.0);
            }
        }
        Ok(out)
    }

    /// Full analog forward pass (the converted network run as a plain ReLU
    /// network) — the reference against which spiking accuracy is compared.
    ///
    /// # Errors
    /// Returns [`SnnError::InputMismatch`] for a wrong input width.
    pub fn analog_forward(&self, input: &[f32]) -> Result<Vec<f32>> {
        let mut x = input.to_vec();
        for i in 0..self.layers.len() {
            x = self.analog_forward_layer(i, &x)?;
        }
        Ok(x)
    }

    /// Simulates one inference under `coding`, injecting `noise` into every
    /// transmitted spike raster (including the input raster).
    ///
    /// This is a thin wrapper over a one-shot [`SimWorkspace`]; use
    /// [`SnnNetwork::simulate_with`] or [`SnnNetwork::simulate_batch`] to
    /// amortise the workspace across many samples.  Results are bit-identical
    /// to [`SnnNetwork::simulate_unbuffered`].
    ///
    /// # Errors
    /// Returns [`SnnError::InputMismatch`] if the input width is wrong or
    /// configuration errors from `cfg`.
    pub fn simulate(
        &self,
        input: &[f32],
        coding: &dyn NeuralCoding,
        cfg: &CodingConfig,
        noise: &dyn SpikeTransform,
        rng: &mut dyn RngCore,
    ) -> Result<SimulationOutcome> {
        let mut ws = SimWorkspace::new();
        let outcome = self.simulate_with(input, coding, cfg, noise, rng, &mut ws)?;
        Ok(SimulationOutcome {
            logits: ws.logits().to_vec(),
            predicted: outcome.predicted,
            total_spikes: outcome.total_spikes,
            spikes_per_layer: ws.spikes_per_layer().to_vec(),
        })
    }

    /// The original allocate-per-call simulation, kept as the executable
    /// reference for the workspace path: the `workspace_bit_identity`
    /// integration tests assert byte-for-byte equality against
    /// [`SnnNetwork::simulate`], and the `sim_throughput` bench measures the
    /// allocating-vs-workspace speedup.
    ///
    /// # Errors
    /// Returns [`SnnError::InputMismatch`] if the input width is wrong or
    /// configuration errors from `cfg`.
    pub fn simulate_unbuffered(
        &self,
        input: &[f32],
        coding: &dyn NeuralCoding,
        cfg: &CodingConfig,
        noise: &dyn SpikeTransform,
        rng: &mut dyn RngCore,
    ) -> Result<SimulationOutcome> {
        cfg.validate()?;
        if input.len() != self.input_width() {
            return Err(SnnError::InputMismatch {
                expected: self.input_width(),
                actual: input.len(),
            });
        }

        let mut spikes_per_layer = Vec::with_capacity(self.layers.len() + 1);
        // Encode the input pixels as the first spike raster.  Pixels are in
        // [0, 1]; the coding clamps to its ceiling.
        let mut raster = encode_vector(input, coding, cfg);
        let mut logits = Vec::new();

        for (index, layer) in self.layers.iter().enumerate() {
            // Synaptic noise corrupts the spikes actually transmitted to
            // this layer.
            let received = noise.apply(&raster, rng);
            spikes_per_layer.push(received.total_spikes());

            // Integrate the received trains through the coding's PSC kernel.
            let decoded: Vec<f32> = (0..received.num_neurons())
                .map(|n| coding.decode(received.train(n), cfg))
                .collect();

            let mut activation = layer.forward_analog(&decoded)?;
            let is_last = index + 1 == self.layers.len();
            if is_last {
                logits = activation;
            } else {
                for v in &mut activation {
                    *v = v.max(0.0);
                }
                raster = encode_vector(&activation, coding, cfg);
            }
        }

        let predicted = argmax(&logits);
        let total_spikes = spikes_per_layer.iter().sum();
        Ok(SimulationOutcome {
            logits,
            predicted,
            total_spikes,
            spikes_per_layer,
        })
    }

    /// Simulates one inference through a reusable [`SimWorkspace`],
    /// returning the compact [`BatchOutcome`]; the logits and per-layer
    /// spike counts stay readable from the workspace.
    ///
    /// # Errors
    /// Returns [`SnnError::InputMismatch`] if the input width is wrong or
    /// configuration errors from `cfg`.
    pub fn simulate_with(
        &self,
        input: &[f32],
        coding: &dyn NeuralCoding,
        cfg: &CodingConfig,
        noise: &dyn SpikeTransform,
        rng: &mut dyn RngCore,
        ws: &mut SimWorkspace,
    ) -> Result<BatchOutcome> {
        cfg.validate()?;
        if input.len() != self.input_width() {
            return Err(SnnError::InputMismatch {
                expected: self.input_width(),
                actual: input.len(),
            });
        }
        Ok(self.simulate_core(input, coding, cfg, noise, rng, ws))
    }

    /// Simulates the samples `range` of the rank-2 `inputs` tensor through
    /// one shared workspace, appending one [`BatchOutcome`] per sample to
    /// `out` (cleared first, capacity kept).
    ///
    /// Each sample is simulated with the RNG produced by
    /// `rng_for(sample_index)`, so callers control per-sample determinism
    /// (the sweep engine derives one seed per sample, making results
    /// independent of batching and thread count).  The configuration is
    /// validated **once** per call instead of once per sample.
    ///
    /// After warm-up, steady-state simulation through this entry point
    /// performs zero heap allocations per sample (see the
    /// `alloc_regression` integration test).
    ///
    /// # Errors
    /// Returns [`SnnError::InvalidConfig`] for a non-rank-2 input tensor or
    /// an out-of-range sample range, [`SnnError::InputMismatch`] for a wrong
    /// sample width, and configuration errors from `cfg`.
    #[allow(clippy::too_many_arguments)]
    pub fn simulate_batch<R, F>(
        &self,
        inputs: &Tensor,
        range: Range<usize>,
        coding: &dyn NeuralCoding,
        cfg: &CodingConfig,
        noise: &dyn SpikeTransform,
        rng_for: F,
        ws: &mut SimWorkspace,
        out: &mut Vec<BatchOutcome>,
    ) -> Result<()>
    where
        F: FnMut(usize) -> R,
        R: RngCore,
    {
        out.clear();
        self.simulate_batch_each(inputs, range, coding, cfg, noise, rng_for, ws, |_, o, _| {
            out.push(o);
        })
    }

    /// [`SnnNetwork::simulate_batch`] with a per-sample sink: after each
    /// sample, `each(sample, outcome, workspace)` is invoked while that
    /// sample's logits and per-layer spike counts are still readable from
    /// the workspace ([`SimWorkspace::logits`] /
    /// [`SimWorkspace::spikes_per_layer`]).
    ///
    /// This is the entry point for callers that need per-sample dense
    /// outputs without allocating one `Vec` per sample up front — the
    /// `nrsnn-serve` dynamic batcher copies each request's logits into its
    /// response buffer from here.  Samples are visited in `range` order.
    ///
    /// # Errors
    /// Same contract as [`SnnNetwork::simulate_batch`].
    #[allow(clippy::too_many_arguments)]
    pub fn simulate_batch_each<R, F, G>(
        &self,
        inputs: &Tensor,
        range: Range<usize>,
        coding: &dyn NeuralCoding,
        cfg: &CodingConfig,
        noise: &dyn SpikeTransform,
        mut rng_for: F,
        ws: &mut SimWorkspace,
        mut each: G,
    ) -> Result<()>
    where
        F: FnMut(usize) -> R,
        R: RngCore,
        G: FnMut(usize, BatchOutcome, &SimWorkspace),
    {
        cfg.validate()?;
        if inputs.shape().rank() != 2 {
            return Err(SnnError::InvalidConfig(format!(
                "simulate_batch expects a rank-2 input tensor, got shape {:?}",
                inputs.dims()
            )));
        }
        if inputs.dims()[1] != self.input_width() {
            return Err(SnnError::InputMismatch {
                expected: self.input_width(),
                actual: inputs.dims()[1],
            });
        }
        if range.end > inputs.dims()[0] {
            return Err(SnnError::InvalidConfig(format!(
                "sample range {}..{} exceeds the {} available rows",
                range.start,
                range.end,
                inputs.dims()[0]
            )));
        }
        for sample in range {
            let row = inputs.row_slice(sample)?;
            let mut rng = rng_for(sample);
            let outcome = self.simulate_core(row, coding, cfg, noise, &mut rng, ws);
            each(sample, outcome, ws);
        }
        Ok(())
    }

    /// The shared arithmetic core of every simulation path.  Assumes the
    /// configuration and input width have been validated by the caller.
    fn simulate_core(
        &self,
        input: &[f32],
        coding: &dyn NeuralCoding,
        cfg: &CodingConfig,
        noise: &dyn SpikeTransform,
        rng: &mut dyn RngCore,
        ws: &mut SimWorkspace,
    ) -> BatchOutcome {
        let num_layers = self.layers.len();
        // Grow (never shrink) the per-layer raster pools, so buffers reach a
        // fixed point and later samples allocate nothing.
        if ws.rasters.len() < num_layers {
            ws.rasters.resize_with(num_layers, SpikeRaster::default);
        }
        if ws.received.len() < num_layers {
            ws.received.resize_with(num_layers, SpikeRaster::default);
        }
        ws.spikes_per_layer.clear();
        ws.stage_events.clear();
        // Stage tracing piggybacks on the phase boundaries: each event ends
        // where the next begins, so the events tile the simulation exactly
        // and cost one `Instant::now()` per boundary.  `None` when tracing
        // is off — the untraced path never reads the clock.  The clock is
        // not the RNG: timestamps cannot perturb results.
        let mut mark: Option<Instant> = if ws.trace_enabled {
            Some(Instant::now())
        } else {
            None
        };
        // Encode the input pixels as the first spike raster.  Pixels are in
        // [0, 1]; the coding clamps to its ceiling.
        encode_vector_into(
            input,
            coding,
            cfg,
            &mut ws.rasters[0],
            &mut ws.encode_scratch,
        );
        stage_mark(&mut ws.stage_events, &mut mark, SimStage::Encode, 0, 0.0);
        // Skipping an identity transform is exact: it would neither change
        // the raster nor consume randomness (see SpikeTransform::is_identity).
        let skip_noise = noise.is_identity();

        for (index, layer) in self.layers.iter().enumerate() {
            // Synaptic noise corrupts the spikes actually transmitted to
            // this layer.
            let received = if skip_noise {
                &ws.rasters[index]
            } else {
                noise.apply_into(&ws.rasters[index], &mut ws.received[index], rng);
                stage_mark(
                    &mut ws.stage_events,
                    &mut mark,
                    SimStage::Noise,
                    index as u32,
                    0.0,
                );
                &ws.received[index]
            };
            ws.spikes_per_layer.push(received.total_spikes());
            // The activity fraction is trace data only; the untraced path
            // skips the scan.
            let density = if mark.is_some() {
                received.density()
            } else {
                0.0
            };

            // Integrate the received trains through the coding's PSC kernel.
            coding.decode_into(received, cfg, &mut ws.decoded, &mut ws.decode_scratch);
            stage_mark(
                &mut ws.stage_events,
                &mut mark,
                SimStage::Decode,
                index as u32,
                0.0,
            );
            layer.forward_analog_into(&ws.decoded, &mut ws.conv, &mut ws.activation);
            stage_mark(
                &mut ws.stage_events,
                &mut mark,
                SimStage::Forward,
                index as u32,
                density,
            );
            let is_last = index + 1 == num_layers;
            if !is_last {
                for v in &mut ws.activation {
                    *v = v.max(0.0);
                }
                encode_vector_into(
                    &ws.activation,
                    coding,
                    cfg,
                    &mut ws.rasters[index + 1],
                    &mut ws.encode_scratch,
                );
                stage_mark(
                    &mut ws.stage_events,
                    &mut mark,
                    SimStage::Encode,
                    index as u32 + 1,
                    0.0,
                );
            }
        }

        BatchOutcome {
            predicted: argmax(&ws.activation),
            total_spikes: ws.spikes_per_layer.iter().sum(),
        }
    }

    /// Simulates every row of `inputs` and reports accuracy and spike
    /// statistics against `labels`.
    ///
    /// # Errors
    /// Returns [`SnnError::InvalidConfig`] if the label count does not match
    /// the number of rows; propagates simulation errors.
    pub fn evaluate(
        &self,
        inputs: &Tensor,
        labels: &[usize],
        coding: &dyn NeuralCoding,
        cfg: &CodingConfig,
        noise: &dyn SpikeTransform,
        rng: &mut dyn RngCore,
    ) -> Result<EvaluationSummary> {
        if inputs.shape().rank() != 2 || inputs.dims()[0] != labels.len() {
            return Err(SnnError::InvalidConfig(format!(
                "inputs shape {:?} incompatible with {} labels",
                inputs.dims(),
                labels.len()
            )));
        }
        // One workspace amortised over the whole evaluation; the coding
        // configuration is validated once instead of once per sample.
        cfg.validate()?;
        if inputs.dims()[1] != self.input_width() {
            return Err(SnnError::InputMismatch {
                expected: self.input_width(),
                actual: inputs.dims()[1],
            });
        }
        let mut ws = SimWorkspace::new();
        let mut correct = 0usize;
        let mut total_spikes = 0usize;
        for (i, &label) in labels.iter().enumerate() {
            let row = inputs.row_slice(i)?;
            let outcome = self.simulate_core(row, coding, cfg, noise, rng, &mut ws);
            if outcome.predicted == label {
                correct += 1;
            }
            total_spikes += outcome.total_spikes;
        }
        let samples = labels.len().max(1);
        Ok(EvaluationSummary {
            accuracy: correct as f32 / samples as f32,
            mean_spikes_per_sample: total_spikes as f32 / samples as f32,
            total_spikes,
            samples: labels.len(),
        })
    }
}

/// Aggregate result of [`SnnNetwork::evaluate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvaluationSummary {
    /// Fraction of correctly classified samples.
    pub accuracy: f32,
    /// Average number of transmitted spikes per inference.
    pub mean_spikes_per_sample: f32,
    /// Total number of transmitted spikes over the whole evaluation.
    pub total_spikes: usize,
    /// Number of evaluated samples.
    pub samples: usize,
}

impl EvaluationSummary {
    /// Accuracy in percent (as reported in the paper's tables).
    pub fn accuracy_percent(&self) -> f32 {
        self.accuracy * 100.0
    }
}

fn encode_vector(values: &[f32], coding: &dyn NeuralCoding, cfg: &CodingConfig) -> SpikeRaster {
    let trains = values.iter().map(|&v| coding.encode(v, cfg)).collect();
    SpikeRaster::from_trains(trains, cfg.time_steps)
}

/// Allocation-free sibling of [`encode_vector`]: refills `raster` in place
/// through the coding's lane-blocked block path (8 neurons per SIMD block,
/// SoA intermediates in `scratch`), producing the identical raster.
fn encode_vector_into(
    values: &[f32],
    coding: &dyn NeuralCoding,
    cfg: &CodingConfig,
    raster: &mut SpikeRaster,
    scratch: &mut CodingScratch,
) {
    coding.encode_raster_into(values, cfg, raster, scratch);
}

/// Closes the current tracing interval at `Instant::now()`, pushing one
/// [`StageEvent`] and opening the next interval at the same timestamp — so
/// consecutive events tile the simulation with no gaps.  A no-op (no clock
/// read, no push) when tracing is disabled (`mark` is `None`).
#[inline]
fn stage_mark(
    events: &mut Vec<StageEvent>,
    mark: &mut Option<Instant>,
    stage: SimStage,
    layer: u32,
    density: f32,
) {
    if let Some(start) = *mark {
        let end = Instant::now();
        events.push(StageEvent {
            stage,
            layer,
            start,
            end,
            sparse: false,
            density,
        });
        *mark = Some(end);
    }
}

fn argmax(values: &[f32]) -> usize {
    values
        .iter()
        .enumerate()
        .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
            if v > bv {
                (i, v)
            } else {
                (bi, bv)
            }
        })
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RateCoding, TtasCoding, TtfsCoding};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A hand-built 2-layer network: the first layer passes through two
    /// inputs, the second sums them into two outputs with opposite signs so
    /// the prediction flips depending on which input is larger.
    fn toy_network() -> SnnNetwork {
        let l0 = SnnLayer::Linear {
            weights: Tensor::eye(2),
            bias: Tensor::zeros(&[2]),
        };
        let l1 = SnnLayer::Linear {
            weights: Tensor::from_vec(vec![1.0, -1.0, -1.0, 1.0], &[2, 2]).unwrap(),
            bias: Tensor::zeros(&[2]),
        };
        SnnNetwork::new(vec![l0, l1]).unwrap()
    }

    #[test]
    fn new_validates_width_chain() {
        let bad = vec![
            SnnLayer::Linear {
                weights: Tensor::zeros(&[3, 2]),
                bias: Tensor::zeros(&[3]),
            },
            SnnLayer::Linear {
                weights: Tensor::zeros(&[2, 4]),
                bias: Tensor::zeros(&[2]),
            },
        ];
        assert!(SnnNetwork::new(bad).is_err());
        assert!(SnnNetwork::new(vec![]).is_err());
    }

    #[test]
    fn analog_forward_layer_rejects_out_of_range_index() {
        let net = toy_network();
        assert!(net.analog_forward_layer(1, &[0.5, 0.5]).is_ok());
        for index in [2, usize::MAX] {
            assert!(matches!(
                net.analog_forward_layer(index, &[0.5, 0.5]),
                Err(SnnError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn analog_forward_matches_hand_computation() {
        let net = toy_network();
        let out = net.analog_forward(&[0.8, 0.2]).unwrap();
        assert!((out[0] - 0.6).abs() < 1e-6);
        assert!((out[1] + 0.6).abs() < 1e-6);
    }

    #[test]
    fn simulation_agrees_with_analog_for_rate_coding() {
        let net = toy_network();
        let cfg = CodingConfig::new(200, 1.0);
        let coding = RateCoding::new();
        let mut rng = StdRng::seed_from_u64(0);
        for input in [[0.9f32, 0.1], [0.2, 0.7], [0.55, 0.5]] {
            let analog = net.analog_forward(&input).unwrap();
            let outcome = net
                .simulate(&input, &coding, &cfg, &IdentityTransform, &mut rng)
                .unwrap();
            let analog_pred = argmax(&analog);
            assert_eq!(outcome.predicted, analog_pred, "input {input:?}");
        }
    }

    #[test]
    fn simulation_agrees_with_analog_for_ttfs_and_ttas() {
        let net = toy_network();
        let cfg = CodingConfig::new(128, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for input in [[0.9f32, 0.2], [0.1, 0.8]] {
            let analog_pred = argmax(&net.analog_forward(&input).unwrap());
            let ttfs = net
                .simulate(
                    &input,
                    &TtfsCoding::new(),
                    &cfg,
                    &IdentityTransform,
                    &mut rng,
                )
                .unwrap();
            let ttas = net
                .simulate(
                    &input,
                    &TtasCoding::new(4).unwrap(),
                    &cfg,
                    &IdentityTransform,
                    &mut rng,
                )
                .unwrap();
            assert_eq!(ttfs.predicted, analog_pred);
            assert_eq!(ttas.predicted, analog_pred);
        }
    }

    #[test]
    fn spike_counts_are_reported_per_layer() {
        let net = toy_network();
        let cfg = CodingConfig::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(2);
        let outcome = net
            .simulate(
                &[0.5, 0.5],
                &RateCoding::new(),
                &cfg,
                &IdentityTransform,
                &mut rng,
            )
            .unwrap();
        assert_eq!(outcome.spikes_per_layer.len(), 2);
        assert_eq!(
            outcome.total_spikes,
            outcome.spikes_per_layer.iter().sum::<usize>()
        );
        assert!(outcome.total_spikes > 0);
    }

    #[test]
    fn ttfs_uses_far_fewer_spikes_than_rate() {
        let net = toy_network();
        let cfg = CodingConfig::new(128, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let rate = net
            .simulate(
                &[0.8, 0.6],
                &RateCoding::new(),
                &cfg,
                &IdentityTransform,
                &mut rng,
            )
            .unwrap();
        let ttfs = net
            .simulate(
                &[0.8, 0.6],
                &TtfsCoding::new(),
                &cfg,
                &IdentityTransform,
                &mut rng,
            )
            .unwrap();
        assert!(
            ttfs.total_spikes * 10 < rate.total_spikes,
            "ttfs {} rate {}",
            ttfs.total_spikes,
            rate.total_spikes
        );
    }

    #[test]
    fn wrong_input_width_rejected() {
        let net = toy_network();
        let cfg = CodingConfig::new(64, 1.0);
        let mut rng = StdRng::seed_from_u64(4);
        assert!(net
            .simulate(
                &[0.5],
                &RateCoding::new(),
                &cfg,
                &IdentityTransform,
                &mut rng
            )
            .is_err());
    }

    #[test]
    fn evaluate_reports_full_accuracy_on_separable_toy_task() {
        let net = toy_network();
        let cfg = CodingConfig::new(128, 1.0);
        let mut rng = StdRng::seed_from_u64(5);
        let inputs =
            Tensor::from_vec(vec![0.9, 0.1, 0.1, 0.9, 0.7, 0.3, 0.2, 0.8], &[4, 2]).unwrap();
        let labels = vec![0usize, 1, 0, 1];
        let summary = net
            .evaluate(
                &inputs,
                &labels,
                &RateCoding::new(),
                &cfg,
                &IdentityTransform,
                &mut rng,
            )
            .unwrap();
        assert_eq!(summary.samples, 4);
        assert!((summary.accuracy - 1.0).abs() < 1e-6);
        assert!(summary.mean_spikes_per_sample > 0.0);
        assert_eq!(summary.accuracy_percent(), 100.0);
    }

    #[test]
    fn scale_weights_scales_all_weighted_layers() {
        let mut net = toy_network();
        net.scale_weights(2.0);
        let SnnLayer::Linear { weights, .. } = &net.layers()[0] else {
            panic!("expected linear layer");
        };
        assert_eq!(weights.get(&[0, 0]).unwrap(), 2.0);
    }

    #[test]
    fn simulate_batch_each_exposes_per_sample_logits() {
        let net = toy_network();
        let cfg = CodingConfig::new(64, 1.0);
        let coding = RateCoding::new();
        let inputs =
            Tensor::from_vec(vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.5, 0.3, 0.7], &[4, 2]).unwrap();

        // Reference: one simulate_with per row, logits copied out each time.
        let mut expected = Vec::new();
        let mut ws_ref = SimWorkspace::new();
        for sample in 0..4 {
            let mut rng = StdRng::seed_from_u64(100 + sample as u64);
            let outcome = net
                .simulate_with(
                    inputs.row_slice(sample).unwrap(),
                    &coding,
                    &cfg,
                    &IdentityTransform,
                    &mut rng,
                    &mut ws_ref,
                )
                .unwrap();
            expected.push((outcome, ws_ref.logits().to_vec()));
        }

        let mut seen = Vec::new();
        let mut ws = SimWorkspace::new();
        net.simulate_batch_each(
            &inputs,
            0..4,
            &coding,
            &cfg,
            &IdentityTransform,
            |sample| StdRng::seed_from_u64(100 + sample as u64),
            &mut ws,
            |sample, outcome, ws| {
                seen.push((sample, outcome, ws.logits().to_vec()));
            },
        )
        .unwrap();

        assert_eq!(seen.len(), 4);
        for (sample, (index, outcome, logits)) in seen.into_iter().enumerate() {
            assert_eq!(index, sample);
            assert_eq!(outcome, expected[sample].0);
            assert_eq!(logits, expected[sample].1, "sample {sample}");
        }
    }

    #[test]
    fn stage_tracing_tiles_the_simulation_without_perturbing_results() {
        let net = toy_network();
        let cfg = CodingConfig::new(64, 1.0);
        let coding = TtasCoding::new(3).unwrap();
        let input = [0.7f32, 0.3];

        let mut plain_ws = SimWorkspace::new();
        let mut rng = StdRng::seed_from_u64(42);
        let plain = net
            .simulate_with(
                &input,
                &coding,
                &cfg,
                &IdentityTransform,
                &mut rng,
                &mut plain_ws,
            )
            .unwrap();
        assert!(
            plain_ws.stage_events().is_empty(),
            "tracing is off by default"
        );

        let mut traced_ws = SimWorkspace::new();
        traced_ws.set_stage_tracing(true);
        let mut rng = StdRng::seed_from_u64(42);
        let traced = net
            .simulate_with(
                &input,
                &coding,
                &cfg,
                &IdentityTransform,
                &mut rng,
                &mut traced_ws,
            )
            .unwrap();

        // Bit-identical results with tracing on.
        assert_eq!(plain, traced);
        for (a, b) in plain_ws.logits().iter().zip(traced_ws.logits()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        // 2 layers, identity noise: encode, decode, forward per layer.
        let events = traced_ws.stage_events();
        let stages: Vec<(SimStage, u32)> = events.iter().map(|e| (e.stage, e.layer)).collect();
        assert_eq!(
            stages,
            vec![
                (SimStage::Encode, 0),
                (SimStage::Decode, 0),
                (SimStage::Forward, 0),
                (SimStage::Encode, 1),
                (SimStage::Decode, 1),
                (SimStage::Forward, 1),
            ]
        );
        // Events tile: each event starts exactly where the previous ended.
        for pair in events.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        for e in events {
            assert!(e.end >= e.start);
            assert!(!e.sparse, "the engine has one dense kernel");
            if e.stage == SimStage::Forward {
                // Both neurons of both layers fire (0.7 and 0.3 pass the
                // identity first layer unchanged).
                assert_eq!(e.density, 1.0);
            } else {
                assert_eq!(e.density, 0.0);
            }
        }

        // Turning tracing back off clears the event stream on the next run.
        traced_ws.set_stage_tracing(false);
        let mut rng = StdRng::seed_from_u64(42);
        net.simulate_with(
            &input,
            &coding,
            &cfg,
            &IdentityTransform,
            &mut rng,
            &mut traced_ws,
        )
        .unwrap();
        assert!(traced_ws.stage_events().is_empty());
    }

    #[test]
    fn identity_transform_is_a_noop() {
        let mut raster = SpikeRaster::new(2, 10);
        raster.set_train(0, vec![1, 2, 3]);
        let mut rng = StdRng::seed_from_u64(6);
        let out = IdentityTransform.apply(&raster, &mut rng);
        assert_eq!(out, raster);
        assert_eq!(IdentityTransform.describe(), "clean");
    }
}
