//! # nrsnn-snn
//!
//! The spiking-neural-network substrate of the NRSNN reproduction:
//!
//! * [`SpikeRaster`] — per-neuron spike trains over a fixed time window;
//! * the [`NeuralCoding`] trait with the five codings studied in the paper:
//!   [`RateCoding`], [`PhaseCoding`], [`BurstCoding`], [`TtfsCoding`] and the
//!   proposed [`TtasCoding`] (time-to-average-spike, built on a simplified
//!   integrate-and-fire-or-burst neuron);
//! * DNN-to-SNN conversion with data-based threshold balancing
//!   ([`ThresholdBalancer`], [`convert`]);
//! * a layer-wise encode → noise → decode → analog-forward relay
//!   ([`SnnNetwork`]) that injects synaptic spike noise between layers
//!   through the [`SpikeTransform`] hook (implemented by `nrsnn-noise`).
//!
//! ## Simulation model
//!
//! The engine is a *layer-wise relay*, not a clock-driven simulator: each
//! layer encodes its input activations as a spike raster over the full
//! `T`-step window, the noise model corrupts that raster, the coding's
//! post-synaptic-current kernel decodes the received trains back to
//! activations, and the layer's dense analog forward pass (converted
//! weights, then ReLU) produces the next layer's input.  This is the
//! pipelined window-per-layer scheme used by conversion approaches with
//! temporal coding (phase coding and T2FSNN assign per-layer time windows)
//! and it preserves exactly the phenomena the paper studies: how much
//! information a deleted or jittered spike destroys under each coding.
//! See `docs/ARCHITECTURE.md`.
//!
//! ## Example
//!
//! ```
//! use nrsnn_snn::{CodingConfig, NeuralCoding, TtfsCoding};
//!
//! let cfg = CodingConfig::new(64, 1.0);
//! let coding = TtfsCoding::new();
//! let spikes = coding.encode(0.5, &cfg);
//! assert_eq!(spikes.len(), 1); // TTFS uses a single spike
//! let decoded = coding.decode(&spikes, &cfg);
//! assert!((decoded - 0.5).abs() < 0.1);
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod coding;
mod config;
mod conversion;
mod error;
mod network;
mod neuron;
mod spike;
mod workspace;

pub use coding::{
    BurstCoding, CodingKind, CodingScratch, NeuralCoding, PhaseCoding, RateCoding, TtasCoding,
    TtfsCoding,
};
pub use config::CodingConfig;
pub use conversion::{convert, ConversionConfig, ThresholdBalancer};
pub use error::SnnError;
pub use network::{
    EvaluationSummary, IdentityTransform, SimulationOutcome, SnnLayer, SnnNetwork, SpikeTransform,
};
pub use neuron::{IfNeuron, IfbNeuron, ResetKind};
pub use spike::SpikeRaster;
pub use workspace::{BatchOutcome, SimStage, SimWorkspace, StageEvent};

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SnnError>;
