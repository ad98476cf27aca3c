//! # nrsnn-noise
//!
//! Spike-train noise models and the weight-scaling compensation from the
//! paper.
//!
//! The paper models the dynamic noise of analog neuromorphic hardware as
//! corruption of the transmitted spike trains (§II-B, §III):
//!
//! * **spike deletion** ([`DeletionNoise`]) — every spike is independently
//!   dropped with probability `p`;
//! * **spike jitter** ([`JitterNoise`]) — every spike time is shifted by a
//!   zero-mean Gaussian with standard deviation `σ`, quantised to integer
//!   time steps.
//!
//! Both implement the [`SpikeTransform`](nrsnn_snn::SpikeTransform) hook of
//! `nrsnn-snn`, so they can be
//! injected into every layer-to-layer raster during simulation, and both can
//! be combined with [`CompositeNoise`].
//!
//! [`WeightScaling`] implements the paper's first counter-measure: scaling
//! the converted synaptic weights by `C = 1/(1-p)` so the expected
//! post-synaptic current under deletion is restored.
//!
//! ## Example
//!
//! ```
//! use nrsnn_noise::{DeletionNoise, WeightScaling};
//! use nrsnn_snn::{SpikeRaster, SpikeTransform};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), nrsnn_noise::NoiseError> {
//! let noise = DeletionNoise::new(0.5)?;
//! let mut raster = SpikeRaster::new(1, 100);
//! raster.set_train(0, (0..100).collect());
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! // Noise corrupts the raster in place.
//! noise.apply(&mut raster, &mut rng);
//! assert!(raster.total_spikes() < 100);
//!
//! let ws = WeightScaling::for_deletion_probability(0.5)?;
//! assert!((ws.factor() - 2.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```
//!
//! ## Thread safety and parallel sweeps
//!
//! Every noise model here is immutable parameters plus a per-call `rng`, so
//! [`SpikeTransform`](nrsnn_snn::SpikeTransform) requires `Send + Sync` and
//! one model instance can serve a whole worker pool.  The sweep engine in
//! `nrsnn` exploits this; the same pattern works directly against
//! `nrsnn-runtime` — and stays bit-identical across thread counts as long
//! as each task derives its own seed:
//!
//! ```
//! use nrsnn_noise::DeletionNoise;
//! use nrsnn_runtime::{derive_seed, parallel_map, ParallelConfig};
//! use nrsnn_snn::{SpikeRaster, SpikeTransform};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), nrsnn_noise::NoiseError> {
//! let noise = DeletionNoise::new(0.5)?;
//! let mut raster = SpikeRaster::new(1, 100);
//! raster.set_train(0, (0..100).collect());
//!
//! // One shared noise model, one task per noise realisation.
//! let realisations: Vec<u64> = (0..16).collect();
//! let survivors = |parallel: ParallelConfig| -> Vec<usize> {
//!     parallel_map(&parallel, &realisations, |index, _| {
//!         let mut rng = StdRng::seed_from_u64(derive_seed(7, index as u64));
//!         let mut corrupted = raster.clone();
//!         noise.apply(&mut corrupted, &mut rng);
//!         corrupted.total_spikes()
//!     })
//! };
//! assert_eq!(
//!     survivors(ParallelConfig::serial()),
//!     survivors(ParallelConfig::with_threads(4)),
//! );
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod composite;
mod deletion;
mod error;
mod jitter;
mod scaling;
mod sweep;

pub use composite::CompositeNoise;
pub use deletion::DeletionNoise;
pub use error::NoiseError;
pub use jitter::JitterNoise;
pub use scaling::WeightScaling;
pub use sweep::{
    paper_deletion_probabilities, paper_jitter_intensities, paper_table_deletion_points,
    paper_table_jitter_points,
};

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, NoiseError>;

/// `raster` corrupted by `noise`, leaving the input intact.
#[cfg(test)]
fn corrupted(
    noise: &dyn nrsnn_snn::SpikeTransform,
    raster: &nrsnn_snn::SpikeRaster,
    rng: &mut dyn rand::RngCore,
) -> nrsnn_snn::SpikeRaster {
    let mut out = raster.clone();
    noise.apply(&mut out, rng);
    out
}
