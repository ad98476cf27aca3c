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
//! * the **tile core** — one private function advances a *tile* of up to 8
//!   samples layer by layer: per layer, each sample in turn is encoded,
//!   corrupted with its own RNG and decoded into one row of a per-tile
//!   matrix, then the layer's forward runs once for the whole tile, so a
//!   dense layer reads each weight once per tile instead of once per
//!   sample.  Every intermediate lives in a caller-provided
//!   [`SimWorkspace`], allocating nothing in steady state.
//!   [`SnnNetwork::simulate_batch`] and [`SnnNetwork::simulate_batch_each`]
//!   run their range as tiles of 8; [`SnnNetwork::simulate_with`],
//!   [`SnnNetwork::simulate`] and [`SnnNetwork::evaluate`] run tiles of
//!   one sample;
//! * the **reference path** — [`SnnNetwork::simulate_unbuffered`] keeps the
//!   original allocate-per-call, one-sample implementation as an executable
//!   specification; the `workspace_bit_identity` integration tests assert
//!   byte-for-byte equality between the two at every tile size, and the
//!   `sim_throughput` bench measures the speedup.
//!
//! Tiling never changes a bit: each sample draws from its own RNG the same
//! values in the same order (its layers still run in order), and the tiled
//! mat-vec computes every output with the one-sample operation order.

use std::ops::Range;
// nrsnn-lint: allow(forbidden-api) -- stage tracing needs a raw monotonic
// stamp and snn must stay obs-free (layering); serve converts these spans
// onto the obs epoch at ingest.
use std::time::Instant;

use nrsnn_tensor::{
    im2col, im2col_slices, matmul_sparse_into, matmul_sparse_slices, matvec_bias_slices,
    matvec_bias_tile_slices, transpose, transpose_slices, Conv2dGeometry, Pool2dGeometry, Tensor,
};
use rand::RngCore;

use crate::workspace::{argmax, ConvScratch};
use crate::{
    BatchOutcome, CodingConfig, NeuralCoding, Result, SimStage, SimWorkspace, SnnError,
    SpikeRaster, StageEvent,
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
                let mut out = vec![0.0f32; geometry.out_len()];
                avg_pool(geometry, input, &mut out);
                Ok(out)
            }
        }
    }

    /// Allocation-free analog forward pass over a tile: `inputs` holds
    /// `samples` rows of the layer's input width, and `out` (cleared and
    /// resized, capacity kept) receives one row of the output width per
    /// sample, using `scratch` for the convolution intermediates.
    ///
    /// Dense layers run the tiled mat-vec once for the whole tile, so each
    /// weight is read once per tile; convolution and pooling layers run
    /// each sample in turn (a convolution transposes its kernel bank once
    /// per tile).  Every row performs the same floating-point
    /// operations in the same order as [`SnnLayer::forward_analog`] on that
    /// sample alone, so the two produce bit-identical results.
    fn forward_tile_into(
        &self,
        inputs: &[f32],
        samples: usize,
        scratch: &mut ConvScratch,
        out: &mut Vec<f32>,
    ) {
        let (n, m) = (self.input_width(), self.output_width());
        out.clear();
        out.resize(samples * m, 0.0);
        match self {
            SnnLayer::Linear { weights, bias } => {
                matvec_bias_tile_slices(
                    weights.as_slice(),
                    m,
                    n,
                    inputs,
                    samples,
                    bias.as_slice(),
                    out,
                );
            }
            SnnLayer::Conv {
                weights,
                bias,
                geometry,
            } => {
                let patch = geometry.patch_len();
                let positions = geometry.out_positions();
                let out_ch = weights.dims()[0];
                scratch.weights_t.clear();
                scratch.weights_t.resize(patch * out_ch, 0.0);
                transpose_slices(weights.as_slice(), out_ch, patch, &mut scratch.weights_t);
                for s in 0..samples {
                    scratch.cols.clear();
                    scratch.cols.resize(positions * patch, 0.0);
                    im2col_slices(&inputs[s * n..(s + 1) * n], geometry, &mut scratch.cols);
                    scratch.prod.clear();
                    scratch.prod.resize(positions * out_ch, 0.0);
                    // Bias-seeded and skipping exact-zero patch entries: the
                    // convolution arm is inherently input-sparsity-aware, its
                    // FLOPs scale with the number of nonzero decoded
                    // activations gathered into the patch matrix.
                    matmul_sparse_slices(
                        &scratch.cols,
                        positions,
                        patch,
                        &scratch.weights_t,
                        out_ch,
                        bias.as_slice(),
                        &mut scratch.prod,
                    );
                    let y = &mut out[s * m..(s + 1) * m];
                    for c in 0..out_ch {
                        for p in 0..positions {
                            y[c * positions + p] = scratch.prod[p * out_ch + c];
                        }
                    }
                }
            }
            SnnLayer::AvgPool { geometry } => {
                for s in 0..samples {
                    avg_pool(
                        geometry,
                        &inputs[s * n..(s + 1) * n],
                        &mut out[s * m..(s + 1) * m],
                    );
                }
            }
        }
    }
}

/// Average pooling of one channel-major input into `out`
/// (`geometry.out_len()` values): each output is its window's sum, added in
/// row-major window order, divided by the window area.
fn avg_pool(g: &Pool2dGeometry, input: &[f32], out: &mut [f32]) {
    let (oh, ow) = (g.out_height(), g.out_width());
    let area = (g.window * g.window) as f32;
    for c in 0..g.channels {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0;
                for ky in 0..g.window {
                    for kx in 0..g.window {
                        let iy = oy * g.stride + ky;
                        let ix = ox * g.stride + kx;
                        acc += input[c * g.in_height * g.in_width + iy * g.in_width + ix];
                    }
                }
                out[c * oh * ow + oy * ow + ox] = acc / area;
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
    /// Corrupts `raster` in place into the raster actually received by the
    /// next layer, drawing any randomness from `rng`.
    ///
    /// The engine hands over the layer's freshly encoded raster and decodes
    /// it right after, so a transform needs no second raster and, if it
    /// corrupts the spike buffer in place (through
    /// [`SpikeRaster::retain_in_blocks`], which deletion sweeps the whole
    /// raster with, or [`SpikeRaster::update_trains`], which jitter
    /// shifts each train with), allocates nothing.  Whatever randomness
    /// the transform draws must come from `rng` in a fixed order, so a
    /// result stays a function of the seed.
    fn apply(&self, raster: &mut SpikeRaster, rng: &mut dyn RngCore);

    /// Returns `true` if `apply` is guaranteed to leave the raster
    /// unchanged *and* to consume no randomness for the current parameters
    /// (e.g. deletion with `p = 0`).
    ///
    /// The simulation engine uses this to skip the transform (and its
    /// stage-trace event) on the no-noise path; because an identity
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
    fn apply(&self, _raster: &mut SpikeRaster, _rng: &mut dyn RngCore) {}

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

/// Most samples one simulation tile advances layer by layer.  A tile of 8
/// reads each dense weight once per 8 samples and fills the tiled
/// mat-vec's register blocks.  The sweep engine in `nrsnn` chunks every
/// grid point by this constant, so each sweep chunk is one tile.
pub const TILE: usize = 8;

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
    /// This is a thin wrapper over a one-shot [`SimWorkspace`] and a tile of
    /// one sample; use [`SnnNetwork::simulate_with`] or
    /// [`SnnNetwork::simulate_batch`] to amortise the workspace across many
    /// samples.  Results are bit-identical to
    /// [`SnnNetwork::simulate_unbuffered`].
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
            noise.apply(&mut raster, rng);
            spikes_per_layer.push(raster.total_spikes());

            // Integrate the received trains through the coding's PSC kernel.
            let decoded: Vec<f32> = (0..raster.num_neurons())
                .map(|n| coding.decode(raster.train(n), cfg))
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
    /// spike counts stay readable from the workspace.  This is a tile of
    /// one sample.
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
        self.simulate_tile(&[input], coding, cfg, noise, &mut [Some(rng)], ws);
        Ok(ws.outcome())
    }

    /// Simulates the samples `range` of the rank-2 `inputs` tensor through
    /// one shared workspace, appending one [`BatchOutcome`] per sample to
    /// `out` (cleared first, capacity kept).
    ///
    /// Samples run in layer-major tiles of up to 8 consecutive rows (see
    /// [`SnnNetwork::simulate_batch_each`]), so each dense weight matrix is
    /// read once per tile rather than once per sample.  Each sample is
    /// simulated with the RNG produced by `rng_for(sample_index)`, so
    /// callers control per-sample determinism (the sweep engine derives one
    /// seed per sample, making results independent of batching, tiling and
    /// thread count).  The configuration is validated **once** per call
    /// instead of once per sample.
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
    /// tile, `each(sample, outcome, workspace)` is invoked once per sample
    /// of the tile, in `range` order, while that sample's logits and
    /// per-layer spike counts are readable from the workspace
    /// ([`SimWorkspace::logits`] / [`SimWorkspace::spikes_per_layer`]).
    ///
    /// The range runs in layer-major tiles of up to 8 consecutive samples:
    /// `rng_for` is called for every sample of a tile, in sample order,
    /// **before** the tile runs — and so ahead of that tile's `each` calls —
    /// and `each` follows only once the tile's last layer is done.  Each
    /// sample still draws from its own RNG exactly the values, in exactly
    /// the order, it would draw alone, so results do not depend on the
    /// tiling.  Stage events ([`SimWorkspace::stage_events`]) cover the
    /// whole tile (see [`crate::StageEvent`]).
    ///
    /// This is the entry point for callers that need per-sample dense
    /// outputs without allocating one `Vec` per sample up front — the
    /// `nrsnn-serve` dynamic batcher copies each request's logits into its
    /// response buffer from here, so the replies of one tile are released
    /// together.
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
        let mut start = range.start;
        while start < range.end {
            let tile = start..(start + TILE).min(range.end);
            // The tile's rows and RNGs live on the stack: no allocation.
            let mut rows: [&[f32]; TILE] = [&[]; TILE];
            let mut rngs: [Option<R>; TILE] = std::array::from_fn(|_| None);
            for (k, sample) in tile.clone().enumerate() {
                rows[k] = inputs.row_slice(sample)?;
                rngs[k] = Some(rng_for(sample));
            }
            let mut lent: [Option<&mut dyn RngCore>; TILE] = Default::default();
            for (slot, rng) in lent.iter_mut().zip(rngs.iter_mut().flatten()) {
                *slot = Some(rng);
            }
            let len = tile.len();
            self.simulate_tile(&rows[..len], coding, cfg, noise, &mut lent[..len], ws);
            for (k, sample) in tile.enumerate() {
                ws.tile_row = k;
                each(sample, ws.outcome(), ws);
            }
            start += len;
        }
        Ok(())
    }

    /// The arithmetic core of every simulation path: advances the tile of
    /// samples `inputs` (one row each, with the RNG in the same slot of
    /// `rngs`) through the network one layer at a time.  For each layer,
    /// every sample in turn is encoded, corrupted with its own RNG and
    /// decoded into its row of the tile's decoded matrix; then the layer's
    /// forward runs once for the whole tile.  The per-sample results stay
    /// in the workspace's tile matrices, shown from row 0.  Assumes the
    /// configuration and input widths have been validated by the caller.
    fn simulate_tile(
        &self,
        inputs: &[&[f32]],
        coding: &dyn NeuralCoding,
        cfg: &CodingConfig,
        noise: &dyn SpikeTransform,
        rngs: &mut [Option<&mut dyn RngCore>],
        ws: &mut SimWorkspace,
    ) {
        debug_assert_eq!(inputs.len(), rngs.len());
        let num_layers = self.layers.len();
        let samples = inputs.len();
        ws.tile_len = samples;
        ws.tile_row = 0;
        ws.spikes_per_layer.clear();
        ws.spikes_per_layer.resize(samples * num_layers, 0);
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
        // Skipping an identity transform is exact: it would neither change
        // the raster nor consume randomness (see SpikeTransform::is_identity).
        let skip_noise = noise.is_identity();

        for (index, layer) in self.layers.iter().enumerate() {
            let width = layer.input_width();
            let mut density = 0.0f32;
            // Every row is overwritten by its sample's decode below.
            ws.tile_decoded.resize(samples * width, 0.0);
            for (s, rng) in rngs.iter_mut().flatten().enumerate() {
                // Encode the sample's input to this layer: the input pixels
                // (in [0, 1]; the coding clamps to its ceiling), or the
                // ReLU'd previous layer's output row.
                let values: &[f32] = if index == 0 {
                    inputs[s]
                } else {
                    let row = &mut ws.activation[s * width..(s + 1) * width];
                    for v in row.iter_mut() {
                        *v = v.max(0.0);
                    }
                    row
                };
                coding.encode_raster_into(values, cfg, &mut ws.raster, &mut ws.coding);
                stage_mark(
                    &mut ws.stage_events,
                    &mut mark,
                    SimStage::Encode,
                    index as u32,
                    0.0,
                );
                // Synaptic noise corrupts, in place, the spikes actually
                // transmitted to this layer.
                if !skip_noise {
                    noise.apply(&mut ws.raster, &mut **rng);
                    stage_mark(
                        &mut ws.stage_events,
                        &mut mark,
                        SimStage::Noise,
                        index as u32,
                        0.0,
                    );
                }
                let received = &ws.raster;
                ws.spikes_per_layer[s * num_layers + index] = received.total_spikes();
                // The activity fraction is trace data only; the untraced
                // path skips the scan.
                if mark.is_some() {
                    density += received.density();
                }
                // Integrate the received trains through the coding's PSC
                // kernel straight into the sample's row of the decoded
                // matrix.
                let row = &mut ws.tile_decoded[s * width..(s + 1) * width];
                coding.decode_into(received, cfg, row, &mut ws.coding);
                stage_mark(
                    &mut ws.stage_events,
                    &mut mark,
                    SimStage::Decode,
                    index as u32,
                    0.0,
                );
            }
            layer.forward_tile_into(&ws.tile_decoded, samples, &mut ws.conv, &mut ws.activation);
            stage_mark(
                &mut ws.stage_events,
                &mut mark,
                SimStage::Forward,
                index as u32,
                density / samples as f32,
            );
        }
    }

    /// Simulates every row of `inputs` and reports accuracy and spike
    /// statistics against `labels`.
    ///
    /// All samples draw from the one caller RNG, in row order, so each row
    /// runs as a tile of one: a larger tile would reorder the draws.
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
            self.simulate_tile(&[row], coding, cfg, noise, &mut [Some(&mut *rng)], &mut ws);
            let outcome = ws.outcome();
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

/// The reference encode of [`SnnNetwork::simulate_unbuffered`]: one
/// per-value [`NeuralCoding::encode`] per neuron.
fn encode_vector(values: &[f32], coding: &dyn NeuralCoding, cfg: &CodingConfig) -> SpikeRaster {
    let trains = values.iter().map(|&v| coding.encode(v, cfg)).collect();
    SpikeRaster::from_trains(trains, cfg.time_steps)
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
        let mut out = raster.clone();
        IdentityTransform.apply(&mut out, &mut rng);
        assert_eq!(out, raster);
        assert_eq!(rng, StdRng::seed_from_u64(6));
        assert_eq!(IdentityTransform.describe(), "clean");
    }
}
