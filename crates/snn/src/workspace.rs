//! Reusable simulation scratch: the [`SimWorkspace`] threaded through the
//! batched inference engine.
//!
//! The engine advances a *tile* of up to [`crate::TILE`] samples one layer
//! at a time: each sample of the tile is encoded, corrupted and decoded in
//! turn straight into its row of a per-tile decoded matrix, then the
//! layer's analog forward runs once for the whole tile into a per-tile
//! activation matrix.  That needs one spike raster, which the noise model
//! corrupts in place (every sample of every layer passes through it in
//! turn: a raster is decoded before the next one is encoded), one coding
//! scratch that serves both the block encode and the block decode, the
//! two per-tile matrices, per-sample spike counts and — for convolution
//! layers — an `im2col` patch matrix, a transposed kernel bank and their
//! product.  The original
//! `SnnNetwork::simulate` allocated such buffers afresh on every call, which
//! dominated the cost of the paper's `(coding × noise level × sample)` sweep
//! grids.  A `SimWorkspace` owns all of them once; the entry points
//! ([`crate::SnnNetwork::simulate_batch`] and friends) clear-and-refill them
//! per tile, so after the first (warm-up) batch the steady-state allocation
//! count per simulated sample is **zero** — verified by the
//! `alloc_regression` integration test.
//!
//! The workspace stores no results that influence later samples: every
//! buffer is fully overwritten before it is read, which is why a workspace
//! can be reused freely across samples, codings, noise models and even
//! differently-scaled networks without affecting the (bit-exact) results.
//!
//! ```
//! use nrsnn_snn::{CodingConfig, RateCoding, SimWorkspace, SnnLayer, SnnNetwork};
//! use nrsnn_snn::IdentityTransform;
//! use nrsnn_tensor::Tensor;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), nrsnn_snn::SnnError> {
//! let net = SnnNetwork::new(vec![SnnLayer::Linear {
//!     weights: Tensor::eye(2),
//!     bias: Tensor::zeros(&[2]),
//! }])?;
//! let cfg = CodingConfig::new(64, 1.0);
//! let mut ws = SimWorkspace::new();
//! let mut rng = StdRng::seed_from_u64(0);
//! let outcome = net.simulate_with(
//!     &[0.9, 0.1],
//!     &RateCoding::new(),
//!     &cfg,
//!     &IdentityTransform,
//!     &mut rng,
//!     &mut ws,
//! )?;
//! assert_eq!(outcome.predicted, 0);
//! assert_eq!(ws.logits().len(), 2);
//! # Ok(())
//! # }
//! ```

// nrsnn-lint: allow(forbidden-api) -- stage tracing needs a raw monotonic
// stamp and snn must stay obs-free (layering); serve converts these spans
// onto the obs epoch at ingest.
use std::time::Instant;

use crate::{CodingConfig, CodingScratch, SnnLayer, SnnNetwork, SpikeRaster, TILE};

/// The simulation phase a [`StageEvent`] attributes time to. This is the
/// engine's own vocabulary — deliberately independent of any observability
/// crate, so `nrsnn-snn` stays free of serving-layer dependencies; the
/// serving layer maps these onto its span taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimStage {
    /// Analog-to-spike conversion of a layer's input vector.
    Encode,
    /// Synaptic-noise corruption of a transmitted raster.
    Noise,
    /// Spike-to-analog PSC decode of a received raster.
    Decode,
    /// A layer's dense analog forward pass.
    Forward,
}

/// One timed phase of the most recent tile, produced when stage tracing is
/// enabled via [`SimWorkspace::set_stage_tracing`].
///
/// Consecutive events cover the tile with no gaps: each event's `start` is
/// the previous event's `end`, so summing durations reconstructs the
/// tile's full simulate time.  Events are recorded in execution order: per
/// layer, one encode, noise and decode event for each sample of the tile in
/// sample order, then one forward event for the whole tile.  A tile of one
/// sample (every [`crate::SnnNetwork::simulate_with`] call, and
/// [`crate::SnnNetwork::evaluate`]) therefore yields exactly that sample's
/// encode → noise → decode → forward sequence per layer.  In a larger tile
/// the samples share one timeline: [`SimWorkspace::stage_events`] returns
/// the whole tile's list while any of its samples is shown, so each
/// sample's list is contiguous and monotone and spans the time it spent in
/// the engine, its tile companions' stages included.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageEvent {
    /// Which phase the time was spent in.
    pub stage: SimStage,
    /// Layer index the phase belongs to (the initial input encode is
    /// layer 0).
    pub layer: u32,
    /// Phase start.
    pub start: Instant,
    /// Phase end.
    pub end: Instant,
    /// Always `false`: every layer runs the dense forward kernel.  The
    /// field stays so consumers that report a sparse-kernel fraction (the
    /// benchmark's `tensor.sparse_frac`) keep reading a well-defined `0`.
    pub sparse: bool,
    /// For [`SimStage::Forward`]: the fraction of the layer's received
    /// neurons that fired ([`SpikeRaster::density`]), averaged over the
    /// tile's samples; `0.0` otherwise.
    pub density: f32,
}

/// Scratch buffers for the convolution forward pass (`im2col` patch matrix,
/// transposed kernel bank, their product).
#[derive(Debug, Clone, Default)]
pub(crate) struct ConvScratch {
    /// Unrolled input patches, `(out_positions x patch_len)` row-major.
    pub(crate) cols: Vec<f32>,
    /// Transposed kernel bank, `(patch_len x out_channels)` row-major.
    pub(crate) weights_t: Vec<f32>,
    /// `cols · weights_t`, `(out_positions x out_channels)` row-major.
    pub(crate) prod: Vec<f32>,
}

/// Reusable per-tile scratch buffers for the simulation engine.
///
/// Create one per worker thread (or one per serial loop), then hand it to
/// [`SnnNetwork::simulate_with`] or [`SnnNetwork::simulate_batch`]; the
/// workspace grows to the largest network/window/tile it has seen and never
/// shrinks, so steady-state simulation performs no heap allocation.  It
/// holds one [`SpikeRaster`] for the whole network: every layer of every
/// sample is encoded into it, corrupted in place and decoded before the
/// next is encoded, and its flat buffers keep their capacity across layer
/// widths.
#[derive(Debug, Clone, Default)]
pub struct SimWorkspace {
    /// The raster entering the current layer: encoded, corrupted in place
    /// by the noise model and decoded, by each sample of a tile and each
    /// layer in turn.  One suffices because its two flat buffers (spike
    /// times and train offsets) keep their capacity across layer widths,
    /// so after the widest layer's densest sample it never allocates.
    pub(crate) raster: SpikeRaster,
    /// The tile's decoded matrix: row `s` holds sample `s`'s decoded
    /// input to the current layer (`tile_len × input width`), written by
    /// [`crate::NeuralCoding::decode_into`] in place.
    pub(crate) tile_decoded: Vec<f32>,
    /// Reusable coding scratch handed to both
    /// [`crate::NeuralCoding::encode_raster_into`] (the lane-blocked
    /// encoders compute per-neuron counts/ratios/bit patterns in here 8
    /// lanes at a time before materialising the spike trains) and
    /// [`crate::NeuralCoding::decode_into`] (TTFS and TTAS tabulate their
    /// PSC kernel in here once per raster instead of exp-ing per spike).
    pub(crate) coding: CodingScratch,
    /// The tile's activation matrix: row `s` holds sample `s`'s output of
    /// the current layer (`tile_len × output width`); after a tile it
    /// holds the logits of every sample.
    pub(crate) activation: Vec<f32>,
    /// Convolution scratch (empty for pure-MLP networks).
    pub(crate) conv: ConvScratch,
    /// Transmitted spike count per raster, input raster first, one row of
    /// `num_layers` counts per sample of the tile.
    pub(crate) spikes_per_layer: Vec<usize>,
    /// Samples in the most recent tile (`0` before the first simulation).
    pub(crate) tile_len: usize,
    /// The row of the most recent tile that [`SimWorkspace::logits`] and
    /// [`SimWorkspace::spikes_per_layer`] show.
    pub(crate) tile_row: usize,
    /// Per-phase timing of the most recent tile; only filled when
    /// `trace_enabled` is set, cleared at the start of every tile.
    pub(crate) stage_events: Vec<StageEvent>,
    /// Whether the simulation core should timestamp its phases. Off by
    /// default: the simulation sweep paths pay zero instrumentation cost.
    pub(crate) trace_enabled: bool,
}

impl SimWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        SimWorkspace::default()
    }

    /// Creates a workspace with capacity pre-reserved for simulating
    /// `network` under `cfg`, so even the first sample allocates (almost)
    /// nothing.
    pub fn for_network(network: &SnnNetwork, cfg: &CodingConfig) -> Self {
        let mut ws = SimWorkspace::new();
        let mut max_width = network.input_width();
        let mut max_input = 0;
        for layer in network.layers() {
            max_width = max_width.max(layer.output_width());
            max_input = max_input.max(layer.input_width());
            if let SnnLayer::Conv {
                weights, geometry, ..
            } = layer
            {
                let patch = geometry.patch_len();
                let positions = geometry.out_positions();
                let out_ch = weights.dims()[0];
                ws.conv.cols.reserve(positions * patch);
                ws.conv.weights_t.reserve(patch * out_ch);
                ws.conv.prod.reserve(positions * out_ch);
            }
        }
        ws.tile_decoded.reserve(TILE * max_width);
        ws.activation.reserve(TILE * max_width);
        ws.coding.kernel.reserve(cfg.time_steps as usize);
        ws.coding.lanes.reserve(max_width);
        ws.coding.bits.reserve(max_width);
        ws.spikes_per_layer.reserve(TILE * network.num_layers());
        // Train offsets for the widest layer input; the spike buffer grows
        // on the first sample, to as many spikes as the coding emits.
        ws.raster = SpikeRaster::new(max_input, cfg.time_steps);
        ws
    }

    /// Output-layer activations of the shown sample (the logits a
    /// [`crate::SimulationOutcome`] would carry): inside a
    /// [`SnnNetwork::simulate_batch_each`] sink the sample being visited,
    /// otherwise the most recently simulated sample.
    pub fn logits(&self) -> &[f32] {
        matrix_row(&self.activation, self.tile_len, self.tile_row)
    }

    /// Transmitted spikes per raster (input raster first) of the shown
    /// sample (see [`SimWorkspace::logits`]).
    pub fn spikes_per_layer(&self) -> &[usize] {
        matrix_row(&self.spikes_per_layer, self.tile_len, self.tile_row)
    }

    /// The compact outcome of the shown sample.
    pub(crate) fn outcome(&self) -> BatchOutcome {
        BatchOutcome {
            predicted: argmax(self.logits()),
            total_spikes: self.spikes_per_layer().iter().sum(),
        }
    }

    /// Enables or disables per-phase stage timing. When enabled, every
    /// tile fills [`SimWorkspace::stage_events`] with one [`StageEvent`]
    /// per encode/noise/decode/forward phase. Tracing never touches the
    /// RNG stream or the tile size, so results are bit-identical either
    /// way.
    pub fn set_stage_tracing(&mut self, enabled: bool) {
        self.trace_enabled = enabled;
        if enabled && self.stage_events.capacity() == 0 {
            // Enough for a full tile through a deep network without a
            // warm-up allocation: at most `3·TILE + 1` phases per layer.
            self.stage_events.reserve(256);
        }
    }

    /// Whether per-phase stage timing is enabled.
    pub fn stage_tracing(&self) -> bool {
        self.trace_enabled
    }

    /// Per-phase timing of the most recent tile (empty unless tracing is
    /// enabled via [`SimWorkspace::set_stage_tracing`]); every sample of
    /// the tile shares this list (see [`StageEvent`]).
    pub fn stage_events(&self) -> &[StageEvent] {
        &self.stage_events
    }
}

/// Row `row` of a `rows × (len / rows)` matrix; empty before the first
/// tile.
fn matrix_row<T>(matrix: &[T], rows: usize, row: usize) -> &[T] {
    if rows == 0 {
        return &[];
    }
    let width = matrix.len() / rows;
    &matrix[row * width..(row + 1) * width]
}

/// Index of the largest value (the first on ties; NaN never wins).
pub(crate) fn argmax(values: &[f32]) -> usize {
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

/// Compact per-sample result of the batched simulation path.
///
/// Unlike [`crate::SimulationOutcome`] this is `Copy` and carries no owned
/// buffers — the logits and per-layer spike counts of the shown sample
/// remain readable from the workspace via [`SimWorkspace::logits`] and
/// [`SimWorkspace::spikes_per_layer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Index of the winning output neuron.
    pub predicted: usize,
    /// Total number of transmitted spikes across all rasters (after noise).
    pub total_spikes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IdentityTransform, RateCoding};
    use nrsnn_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_network() -> SnnNetwork {
        SnnNetwork::new(vec![SnnLayer::Linear {
            weights: Tensor::from_vec(vec![1.0, -1.0, -1.0, 1.0], &[2, 2]).unwrap(),
            bias: Tensor::zeros(&[2]),
        }])
        .unwrap()
    }

    #[test]
    fn for_network_presizes_and_simulates() {
        let net = toy_network();
        let cfg = CodingConfig::new(32, 1.0);
        let mut ws = SimWorkspace::for_network(&net, &cfg);
        assert_eq!(ws.raster.num_neurons(), 2);
        let mut rng = StdRng::seed_from_u64(1);
        let outcome = net
            .simulate_with(
                &[0.2, 0.9],
                &RateCoding::new(),
                &cfg,
                &IdentityTransform,
                &mut rng,
                &mut ws,
            )
            .unwrap();
        assert_eq!(outcome.predicted, 1);
        assert_eq!(ws.spikes_per_layer().len(), 1);
        assert_eq!(ws.logits().len(), 2);
    }

    #[test]
    fn workspace_results_do_not_depend_on_prior_contents() {
        let net = toy_network();
        let cfg = CodingConfig::new(48, 1.0);
        let coding = RateCoding::new();
        let mut fresh = SimWorkspace::new();
        let mut reused = SimWorkspace::new();
        // Dirty the reused workspace with a different input first.
        let mut rng = StdRng::seed_from_u64(7);
        net.simulate_with(
            &[0.7, 0.7],
            &coding,
            &cfg,
            &IdentityTransform,
            &mut rng,
            &mut reused,
        )
        .unwrap();
        for input in [[0.9f32, 0.1], [0.3, 0.4]] {
            let mut rng_a = StdRng::seed_from_u64(3);
            let mut rng_b = StdRng::seed_from_u64(3);
            let a = net
                .simulate_with(
                    &input,
                    &coding,
                    &cfg,
                    &IdentityTransform,
                    &mut rng_a,
                    &mut fresh,
                )
                .unwrap();
            let b = net
                .simulate_with(
                    &input,
                    &coding,
                    &cfg,
                    &IdentityTransform,
                    &mut rng_b,
                    &mut reused,
                )
                .unwrap();
            assert_eq!(a, b);
            assert_eq!(fresh.logits(), reused.logits());
            assert_eq!(fresh.spikes_per_layer(), reused.spikes_per_layer());
        }
    }
}
