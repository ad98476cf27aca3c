//! # nrsnn
//!
//! Noise-robust deep spiking neural networks with temporal information — a
//! Rust reproduction of Park, Lee & Yoon (DAC 2021).
//!
//! This crate is the top of the workspace: it wires the substrates
//! (`nrsnn-tensor`, `nrsnn-dnn`, `nrsnn-data`, `nrsnn-snn`, `nrsnn-noise`)
//! into the paper's full pipeline:
//!
//! 1. train a ReLU DNN on a (synthetic) dataset — [`TrainedPipeline::build`];
//! 2. convert it to a deep SNN with data-based threshold balancing —
//!    [`TrainedPipeline::to_snn`];
//! 3. simulate inference under one of five neural codings while injecting
//!    spike deletion / jitter noise — [`TrainedPipeline::evaluate_snn`];
//! 4. apply the paper's counter-measures: weight scaling and TTAS coding —
//!    [`RobustSnnBuilder`];
//! 5. regenerate the paper's figures and tables — [`experiment`] and
//!    [`report`].
//!
//! Sweeps and evaluations fan their `(coding × noise level × sample)` grids
//! out over the work-stealing pool from `nrsnn-runtime`; see *Parallel
//! sweeps* below and `docs/ARCHITECTURE.md` for the execution model.
//!
//! ## Quickstart
//!
//! ```
//! use nrsnn::prelude::*;
//!
//! # fn main() -> Result<(), nrsnn::NrsnnError> {
//! // Train a small DNN on the MNIST-like synthetic dataset and convert it.
//! // (`mnist_small` is the quickstart configuration; the doctest shrinks it
//! // further so `cargo test` stays fast — drop the three overrides for the
//! // real run, as in `examples/quickstart.rs`.)
//! let mut config = PipelineConfig::mnist_small();
//! config.dataset = config.dataset.with_samples(64, 16);
//! config.epochs = 3;
//! let pipeline = TrainedPipeline::build(&config)?;
//!
//! // Evaluate the converted SNN under TTAS coding with 50 % spike deletion
//! // and the matching weight-scaling compensation.
//! let robust = RobustSnnBuilder::new()
//!     .burst_duration(5)
//!     .expected_deletion(0.5)
//!     .build(&pipeline)?;
//! let summary = robust.evaluate_under_deletion(&pipeline, 0.5, 16, 42)?;
//! println!("accuracy under 50% deletion: {:.1}%", summary.accuracy_percent());
//! # assert!(summary.accuracy_percent() >= 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! ## Parallel sweeps
//!
//! The sweep builders distribute their full evaluation grid over a
//! work-stealing thread pool.  Because every sample is simulated with its
//! own seed-derived RNG stream, the parallel result is **bit-identical** to
//! the single-threaded reference — thread count is purely a throughput
//! knob (settable per sweep, or globally via the `NRSNN_THREADS`
//! environment variable):
//!
//! ```
//! use nrsnn::prelude::*;
//!
//! # fn main() -> Result<(), nrsnn::NrsnnError> {
//! # let mut config = PipelineConfig::mnist_small();
//! # config.dataset = config.dataset.with_samples(48, 16);
//! # config.epochs = 2;
//! let pipeline = TrainedPipeline::build(&config)?;
//! let sweep = SweepConfig { time_steps: 32, eval_samples: 8, seed: 7 };
//!
//! let run = |parallel: ParallelConfig| {
//!     DeletionSweep::new(&[CodingKind::Ttfs, CodingKind::Rate], &[0.0, 0.5])
//!         .config(sweep)
//!         .parallel(parallel)
//!         .run(&pipeline)
//! };
//! let serial = run(ParallelConfig::serial())?;
//! let parallel = run(ParallelConfig::with_threads(2))?;
//! assert_eq!(serial, parallel);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod error;
mod exec;
pub mod experiment;
mod model;
mod pipeline;
pub mod report;
mod robust;

pub use error::NrsnnError;
pub use model::{build_model, ModelKind};
pub use nrsnn_runtime::ParallelConfig;
pub use pipeline::{PipelineConfig, TrainedPipeline};
pub use robust::{RobustSnn, RobustSnnBuilder};

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, NrsnnError>;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use crate::experiment::{
        deletion_sweep, jitter_sweep, DeletionSweep, JitterSweep, SweepConfig, SweepPoint,
    };
    pub use crate::report::{
        format_sweep_table, format_table1, format_table2, Table1Row, Table2Row,
    };
    pub use crate::ParallelConfig;
    pub use crate::{
        build_model, ModelKind, NrsnnError, PipelineConfig, RobustSnn, RobustSnnBuilder,
        TrainedPipeline,
    };
    pub use nrsnn_data::DatasetSpec;
    pub use nrsnn_noise::{
        paper_deletion_probabilities, paper_jitter_intensities, CompositeNoise, DeletionNoise,
        JitterNoise, WeightScaling,
    };
    pub use nrsnn_snn::{
        BatchOutcome, CodingConfig, CodingKind, IdentityTransform, NeuralCoding, SimWorkspace,
        SnnNetwork, SpikeTransform, TtasCoding,
    };
}
