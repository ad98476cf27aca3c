//! Experiment harness: the parameter sweeps behind every figure and table of
//! the paper's evaluation.
//!
//! All sweeps operate on a [`TrainedPipeline`] and return flat lists of
//! [`SweepPoint`]s, which the [`crate::report`] module renders into the
//! paper's figure series and tables.  Each point is deterministic given the
//! sweep seed.
//!
//! ## Execution model
//!
//! A sweep is a `(coding × noise level × sample)` grid of independent SNN
//! simulations.  The [`DeletionSweep`] and [`JitterSweep`] builders fan that
//! grid out over the work-stealing pool from `nrsnn-runtime`; the
//! [`deletion_sweep`] / [`jitter_sweep`] free functions are shorthands that
//! use [`ParallelConfig::auto`] (all cores, or `NRSNN_THREADS` if set).
//! Every sample draws from its own seed-derived RNG stream, so **results
//! are bit-identical for every thread count** — `threads = 1` is the
//! reference serial path, not a different algorithm.
//!
//! Returned points are sorted by `(noise level, coding)` regardless of grid
//! declaration order or task completion order.

use nrsnn_noise::{DeletionNoise, JitterNoise, WeightScaling};
use nrsnn_runtime::ParallelConfig;
use nrsnn_snn::{CodingKind, IdentityTransform, SpikeTransform};
use serde::{Deserialize, Serialize};

use crate::exec::{run_grid, GridPointSpec};
use crate::{NrsnnError, Result, TrainedPipeline};

/// Shared sweep parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Simulation window length per layer.
    pub time_steps: u32,
    /// Number of held-out test samples to evaluate per point.
    pub eval_samples: usize,
    /// Seed for the noise realisations.
    pub seed: u64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            time_steps: 128,
            eval_samples: 64,
            seed: 1234,
        }
    }
}

impl SweepConfig {
    /// Validates the sweep configuration.
    ///
    /// # Errors
    /// Returns [`NrsnnError::InvalidConfig`] for zero time steps or samples.
    pub fn validate(&self) -> Result<()> {
        if self.time_steps == 0 || self.eval_samples == 0 {
            return Err(NrsnnError::InvalidConfig(
                "time_steps and eval_samples must be non-zero".to_string(),
            ));
        }
        Ok(())
    }
}

/// One measured point of a noise sweep (one coding at one noise level).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The coding that was simulated.
    pub coding: CodingKind,
    /// Whether weight scaling was applied.
    pub weight_scaled: bool,
    /// The noise level (deletion probability or jitter σ; 0.0 = clean).
    pub noise_level: f64,
    /// Classification accuracy in percent.
    pub accuracy_percent: f32,
    /// Mean number of transmitted spikes per inference.
    pub mean_spikes: f32,
}

impl SweepPoint {
    /// Label combining coding and weight-scaling flag ("TTAS(5)+WS" etc.).
    pub fn method_label(&self) -> String {
        if self.weight_scaled {
            format!("{}+WS", self.coding.label())
        } else {
            self.coding.label()
        }
    }
}

fn noise_for_deletion(probability: f64) -> Result<Box<dyn SpikeTransform>> {
    if probability == 0.0 {
        Ok(Box::new(IdentityTransform))
    } else {
        Ok(Box::new(DeletionNoise::new(probability)?))
    }
}

fn noise_for_jitter(sigma: f64) -> Result<Box<dyn SpikeTransform>> {
    if sigma == 0.0 {
        Ok(Box::new(IdentityTransform))
    } else {
        Ok(Box::new(JitterNoise::new(sigma)?))
    }
}

/// Rejects degenerate deletion-probability grids before any work is
/// scheduled: every `p` must be a finite number in `[0, 1]`, and with
/// weight scaling enabled additionally `p < 1` — `C = 1/(1−p)` diverges at
/// `p = 1`, which the builder previously papered over by silently skipping
/// the compensation.
fn validate_deletion_levels(probabilities: &[f64], weight_scaling: bool) -> Result<()> {
    for &p in probabilities {
        if !p.is_finite() || !(0.0..=1.0).contains(&p) {
            return Err(NrsnnError::InvalidConfig(format!(
                "deletion probability must be a finite number in [0, 1], got {p}"
            )));
        }
        if weight_scaling && p >= 1.0 {
            return Err(NrsnnError::InvalidConfig(format!(
                "weight scaling requires deletion probability < 1 \
                 (the compensation factor C = 1/(1-p) diverges), got {p}"
            )));
        }
    }
    Ok(())
}

/// Rejects degenerate jitter grids: every `σ` must be finite and
/// non-negative (a negative σ previously slipped through as a silent
/// identity transform instead of an error).
fn validate_jitter_levels(sigmas: &[f64]) -> Result<()> {
    for &sigma in sigmas {
        if !sigma.is_finite() || sigma < 0.0 {
            return Err(NrsnnError::InvalidConfig(format!(
                "jitter sigma must be a finite non-negative number, got {sigma}"
            )));
        }
    }
    Ok(())
}

/// Builder for a spike-deletion sweep (Figs. 2, 4, 7 and Table I).
///
/// ```no_run
/// use nrsnn::prelude::*;
///
/// # fn main() -> Result<(), nrsnn::NrsnnError> {
/// let pipeline = TrainedPipeline::build(&PipelineConfig::mnist_small())?;
/// let points = DeletionSweep::new(&CodingKind::baselines(), &[0.0, 0.2, 0.5])
///     .weight_scaling(true)
///     .config(SweepConfig::default())
///     .parallel(ParallelConfig::with_threads(4))
///     .run(&pipeline)?;
/// assert_eq!(points.len(), 12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DeletionSweep {
    codings: Vec<CodingKind>,
    probabilities: Vec<f64>,
    weight_scaling: bool,
    config: SweepConfig,
    parallel: ParallelConfig,
}

impl DeletionSweep {
    /// Creates a sweep over the given codings and deletion probabilities
    /// (no weight scaling, default [`SweepConfig`], auto parallelism).
    pub fn new(codings: &[CodingKind], probabilities: &[f64]) -> Self {
        DeletionSweep {
            codings: codings.to_vec(),
            probabilities: probabilities.to_vec(),
            weight_scaling: false,
            config: SweepConfig::default(),
            parallel: ParallelConfig::auto(),
        }
    }

    /// Enables the paper's weight-scaling compensation: each noise level `p`
    /// uses the matching factor `C = 1/(1−p)`.
    #[must_use]
    pub fn weight_scaling(mut self, enabled: bool) -> Self {
        self.weight_scaling = enabled;
        self
    }

    /// Sets the shared sweep parameters (window, sample count, seed).
    #[must_use]
    pub fn config(mut self, config: SweepConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets how the `(coding × probability × sample)` grid is distributed
    /// over worker threads.  Results do not depend on this choice.
    #[must_use]
    pub fn parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    /// Runs the sweep, returning one [`SweepPoint`] per grid point sorted by
    /// `(noise level, coding)`.
    ///
    /// # Errors
    /// Returns [`NrsnnError::InvalidConfig`] for an empty coding list, for
    /// probabilities outside `[0, 1]` (or `NaN`), and — with weight scaling
    /// enabled — for `p = 1`, where `C = 1/(1−p)` diverges; propagates
    /// conversion/simulation errors.
    pub fn run(&self, pipeline: &TrainedPipeline) -> Result<Vec<SweepPoint>> {
        self.config.validate()?;
        if self.codings.is_empty() {
            return Err(NrsnnError::InvalidConfig("no codings selected".to_string()));
        }
        validate_deletion_levels(&self.probabilities, self.weight_scaling)?;
        let mut specs = Vec::with_capacity(self.codings.len() * self.probabilities.len());
        for &coding in &self.codings {
            for &p in &self.probabilities {
                let scaling = if self.weight_scaling && p > 0.0 {
                    WeightScaling::for_deletion_probability(p)?
                } else {
                    WeightScaling::none()
                };
                specs.push(GridPointSpec {
                    coding,
                    noise_level: p,
                    weight_scaled: self.weight_scaling,
                    scaling,
                    noise: noise_for_deletion(p)?,
                });
            }
        }
        run_grid(
            pipeline,
            &specs,
            self.config.time_steps,
            self.config.eval_samples,
            self.config.seed,
            &self.parallel,
        )
    }
}

/// Builder for a spike-jitter sweep (Figs. 3, 6, 8 and Table II).  Jitter
/// does not remove charge, so no weight scaling is applied (matching the
/// paper).
#[derive(Debug, Clone)]
pub struct JitterSweep {
    codings: Vec<CodingKind>,
    sigmas: Vec<f64>,
    config: SweepConfig,
    parallel: ParallelConfig,
}

impl JitterSweep {
    /// Creates a sweep over the given codings and jitter intensities
    /// (default [`SweepConfig`], auto parallelism).
    pub fn new(codings: &[CodingKind], sigmas: &[f64]) -> Self {
        JitterSweep {
            codings: codings.to_vec(),
            sigmas: sigmas.to_vec(),
            config: SweepConfig::default(),
            parallel: ParallelConfig::auto(),
        }
    }

    /// Sets the shared sweep parameters (window, sample count, seed).
    #[must_use]
    pub fn config(mut self, config: SweepConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets how the `(coding × sigma × sample)` grid is distributed over
    /// worker threads.  Results do not depend on this choice.
    #[must_use]
    pub fn parallel(mut self, parallel: ParallelConfig) -> Self {
        self.parallel = parallel;
        self
    }

    /// Runs the sweep, returning one [`SweepPoint`] per grid point sorted by
    /// `(noise level, coding)`.
    ///
    /// # Errors
    /// Returns [`NrsnnError::InvalidConfig`] for an empty coding list or a
    /// negative/non-finite sigma, and propagates conversion/simulation
    /// errors.
    pub fn run(&self, pipeline: &TrainedPipeline) -> Result<Vec<SweepPoint>> {
        self.config.validate()?;
        if self.codings.is_empty() {
            return Err(NrsnnError::InvalidConfig("no codings selected".to_string()));
        }
        validate_jitter_levels(&self.sigmas)?;
        let mut specs = Vec::with_capacity(self.codings.len() * self.sigmas.len());
        for &coding in &self.codings {
            for &sigma in &self.sigmas {
                specs.push(GridPointSpec {
                    coding,
                    noise_level: sigma,
                    weight_scaled: false,
                    scaling: WeightScaling::none(),
                    noise: noise_for_jitter(sigma)?,
                });
            }
        }
        run_grid(
            pipeline,
            &specs,
            self.config.time_steps,
            self.config.eval_samples,
            self.config.seed,
            &self.parallel,
        )
    }
}

/// Sweeps spike-deletion probabilities for each coding (Figs. 2, 4, 7 and
/// Table I) on an auto-sized thread pool.
///
/// Shorthand for [`DeletionSweep`] with [`ParallelConfig::auto`]; use the
/// builder to pin the thread count.
///
/// # Errors
/// Returns [`NrsnnError::InvalidConfig`] for an empty coding list and
/// propagates conversion/simulation errors.
pub fn deletion_sweep(
    pipeline: &TrainedPipeline,
    codings: &[CodingKind],
    probabilities: &[f64],
    weight_scaling: bool,
    config: &SweepConfig,
) -> Result<Vec<SweepPoint>> {
    DeletionSweep::new(codings, probabilities)
        .weight_scaling(weight_scaling)
        .config(*config)
        .run(pipeline)
}

/// Sweeps spike-jitter intensities for each coding (Figs. 3, 6, 8 and
/// Table II) on an auto-sized thread pool.
///
/// Shorthand for [`JitterSweep`] with [`ParallelConfig::auto`]; use the
/// builder to pin the thread count.
///
/// # Errors
/// Returns [`NrsnnError::InvalidConfig`] for an empty coding list and
/// propagates conversion/simulation errors.
pub fn jitter_sweep(
    pipeline: &TrainedPipeline,
    codings: &[CodingKind],
    sigmas: &[f64],
    config: &SweepConfig,
) -> Result<Vec<SweepPoint>> {
    JitterSweep::new(codings, sigmas)
        .config(*config)
        .run(pipeline)
}

/// Extracts the series (noise level, accuracy) for one coding from a sweep,
/// sorted by noise level — one curve of a figure.
pub fn series_for(points: &[SweepPoint], coding: CodingKind) -> Vec<(f64, f32)> {
    let mut series: Vec<(f64, f32)> = points
        .iter()
        .filter(|p| p.coding == coding)
        .map(|p| (p.noise_level, p.accuracy_percent))
        .collect();
    series.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    series
}

/// Mean accuracy over all noise levels of one coding (the "Avg." column of
/// Tables I and II).
pub fn average_accuracy(points: &[SweepPoint], coding: CodingKind) -> f32 {
    let series = series_for(points, coding);
    if series.is_empty() {
        return 0.0;
    }
    series.iter().map(|(_, a)| a).sum::<f32>() / series.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelKind, PipelineConfig};
    use nrsnn_data::DatasetSpec;

    fn tiny_pipeline() -> TrainedPipeline {
        let config = PipelineConfig {
            dataset: DatasetSpec::mnist_like().with_samples(60, 30),
            model: ModelKind::Mlp,
            dropout: 0.1,
            epochs: 5,
            batch_size: 15,
            learning_rate: 2e-3,
            percentile: 99.9,
            seed: 5,
        };
        TrainedPipeline::build(&config).unwrap()
    }

    fn tiny_sweep() -> SweepConfig {
        SweepConfig {
            time_steps: 48,
            eval_samples: 16,
            seed: 9,
        }
    }

    #[test]
    fn sweep_config_validation() {
        assert!(SweepConfig::default().validate().is_ok());
        assert!(SweepConfig {
            time_steps: 0,
            ..SweepConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn deletion_sweep_produces_one_point_per_combination() {
        let pipeline = tiny_pipeline();
        let points = deletion_sweep(
            &pipeline,
            &[CodingKind::Rate, CodingKind::Ttfs],
            &[0.0, 0.5],
            false,
            &tiny_sweep(),
        )
        .unwrap();
        assert_eq!(points.len(), 4);
        assert!(points.iter().all(|p| p.accuracy_percent >= 0.0));
        assert!(points.iter().all(|p| !p.weight_scaled));
    }

    #[test]
    fn empty_codings_rejected() {
        let pipeline = tiny_pipeline();
        assert!(deletion_sweep(&pipeline, &[], &[0.0], false, &tiny_sweep()).is_err());
        assert!(jitter_sweep(&pipeline, &[], &[0.0], &tiny_sweep()).is_err());
    }

    #[test]
    fn degenerate_deletion_levels_rejected_with_typed_errors() {
        let pipeline = tiny_pipeline();
        let codings = [CodingKind::Rate];
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let result = deletion_sweep(&pipeline, &codings, &[0.0, bad], false, &tiny_sweep());
            assert!(
                matches!(result, Err(NrsnnError::InvalidConfig(_))),
                "p = {bad} should be rejected"
            );
        }
        // p = 1 (delete everything) is a valid grid point without weight
        // scaling ...
        assert!(DeletionSweep::new(&codings, &[1.0])
            .config(tiny_sweep())
            .run(&pipeline)
            .is_ok());
        // ... but with weight scaling C = 1/(1-p) diverges: typed error
        // instead of the old silent skip of the compensation.
        let result = DeletionSweep::new(&codings, &[1.0])
            .weight_scaling(true)
            .config(tiny_sweep())
            .run(&pipeline);
        assert!(matches!(result, Err(NrsnnError::InvalidConfig(_))));
    }

    #[test]
    fn degenerate_jitter_levels_rejected_with_typed_errors() {
        let pipeline = tiny_pipeline();
        let codings = [CodingKind::Ttfs];
        for bad in [-0.5, f64::NAN, f64::INFINITY] {
            let result = jitter_sweep(&pipeline, &codings, &[bad], &tiny_sweep());
            assert!(
                matches!(result, Err(NrsnnError::InvalidConfig(_))),
                "sigma = {bad} should be rejected"
            );
        }
    }

    #[test]
    fn series_and_average_extraction() {
        let points = vec![
            SweepPoint {
                coding: CodingKind::Rate,
                weight_scaled: false,
                noise_level: 0.5,
                accuracy_percent: 40.0,
                mean_spikes: 10.0,
            },
            SweepPoint {
                coding: CodingKind::Rate,
                weight_scaled: false,
                noise_level: 0.0,
                accuracy_percent: 90.0,
                mean_spikes: 20.0,
            },
            SweepPoint {
                coding: CodingKind::Ttfs,
                weight_scaled: false,
                noise_level: 0.0,
                accuracy_percent: 88.0,
                mean_spikes: 1.0,
            },
        ];
        let series = series_for(&points, CodingKind::Rate);
        assert_eq!(series, vec![(0.0, 90.0), (0.5, 40.0)]);
        assert!((average_accuracy(&points, CodingKind::Rate) - 65.0).abs() < 1e-5);
        assert_eq!(average_accuracy(&points, CodingKind::Ttas(5)), 0.0);
    }

    #[test]
    fn method_label_marks_weight_scaling() {
        let p = SweepPoint {
            coding: CodingKind::Ttas(5),
            weight_scaled: true,
            noise_level: 0.2,
            accuracy_percent: 80.0,
            mean_spikes: 5.0,
        };
        assert_eq!(p.method_label(), "TTAS(5)+WS");
    }

    #[test]
    fn sweeps_are_bit_identical_across_thread_counts() {
        let pipeline = tiny_pipeline();
        let codings = [CodingKind::Rate, CodingKind::Ttfs, CodingKind::Ttas(3)];
        let levels = [0.0, 0.3, 0.6];

        let deletion = |parallel: ParallelConfig| {
            DeletionSweep::new(&codings, &levels)
                .weight_scaling(true)
                .config(tiny_sweep())
                .parallel(parallel)
                .run(&pipeline)
                .unwrap()
        };
        assert_eq!(
            deletion(ParallelConfig::serial()),
            deletion(ParallelConfig::with_threads(4))
        );

        let jitter = |parallel: ParallelConfig| {
            JitterSweep::new(&codings, &[0.0, 1.5])
                .config(tiny_sweep())
                .parallel(parallel)
                .run(&pipeline)
                .unwrap()
        };
        assert_eq!(
            jitter(ParallelConfig::serial()),
            jitter(ParallelConfig::with_threads(4))
        );
    }

    #[test]
    fn free_functions_match_the_serial_builder() {
        // The auto-parallel shorthand must reproduce the serial reference
        // bit for bit, whatever thread count the host machine resolves to.
        let pipeline = tiny_pipeline();
        let codings = [CodingKind::Rate, CodingKind::Ttfs];
        let auto = deletion_sweep(&pipeline, &codings, &[0.0, 0.5], false, &tiny_sweep()).unwrap();
        let serial = DeletionSweep::new(&codings, &[0.0, 0.5])
            .config(tiny_sweep())
            .parallel(ParallelConfig::serial())
            .run(&pipeline)
            .unwrap();
        assert_eq!(auto, serial);
    }

    #[test]
    fn sweep_points_are_sorted_by_noise_level_then_coding() {
        let pipeline = tiny_pipeline();
        // Codings and levels deliberately declared out of order.
        let points = deletion_sweep(
            &pipeline,
            &[CodingKind::Ttas(3), CodingKind::Rate],
            &[0.5, 0.0],
            false,
            &tiny_sweep(),
        )
        .unwrap();
        let keys: Vec<(f64, (u8, u32))> = points
            .iter()
            .map(|p| (p.noise_level, p.coding.order_index()))
            .collect();
        assert_eq!(
            keys,
            vec![
                (0.0, CodingKind::Rate.order_index()),
                (0.0, CodingKind::Ttas(3).order_index()),
                (0.5, CodingKind::Rate.order_index()),
                (0.5, CodingKind::Ttas(3).order_index()),
            ]
        );
    }

    #[test]
    fn jitter_sweep_runs_for_temporal_codings() {
        let pipeline = tiny_pipeline();
        let points = jitter_sweep(
            &pipeline,
            &[CodingKind::Ttfs, CodingKind::Ttas(3)],
            &[0.0, 2.0],
            &tiny_sweep(),
        )
        .unwrap();
        assert_eq!(points.len(), 4);
        // Clean accuracy should be at least as good as heavily jittered
        // accuracy for TTFS.
        let ttfs = series_for(&points, CodingKind::Ttfs);
        assert!(ttfs[0].1 >= ttfs[1].1 - 10.0);
    }
}
